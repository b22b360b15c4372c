//! The bit-encoded multi-GPU ILP must agree with the paper's main 2-GPU
//! formulation: on two GPUs they model the same problem, colocation groups
//! included, so their optimal makespans coincide.

use pesto_cost::CommModel;
use pesto_graph::{Cluster, DeviceKind, FrozenGraph, OpGraph, OpId};
use pesto_ilp::{IlpConfig, IlpModel, MemoryRule, MultiGpuIlp};
use pesto_milp::MilpConfig;
use proptest::prelude::*;
use std::time::Duration;

/// Three or four GPU ops with random edges; with `with_groups`, each op
/// is in colocation group 1 or 2, or in none (without, nothing is drawn
/// for groups).
fn arb_tiny(with_groups: bool) -> impl Strategy<Value = FrozenGraph> {
    (3usize..5)
        .prop_flat_map(move |n| {
            let edges = proptest::collection::vec((0..n, 0..n, 0u64..(1 << 20)), 0..n);
            let times = proptest::collection::vec(5.0f64..100.0, n);
            let groups = if with_groups {
                proptest::collection::vec(0u32..3, n).boxed()
            } else {
                Just(Vec::new()).boxed()
            };
            (Just(n), edges, times, groups)
        })
        .prop_map(|(n, edges, times, groups)| {
            let mut g = OpGraph::new("tiny");
            let ids: Vec<OpId> = (0..n)
                .map(|i| g.add_op(format!("op{i}"), DeviceKind::Gpu, times[i], 16))
                .collect();
            for (a, b, bytes) in edges {
                let (u, v) = if a < b { (a, b) } else { (b, a) };
                if u != v {
                    let _ = g.add_edge(ids[u], ids[v], bytes);
                }
            }
            for (&id, group) in ids.iter().zip(groups) {
                g.op_mut(id)
                    .set_colocation_group((group > 0).then_some(group));
            }
            g.freeze().unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn two_gpu_models_agree(g in arb_tiny(true)) {
        let cluster = Cluster::two_gpus();
        let comm = CommModel::default_v100();
        let milp_cfg = MilpConfig::with_time_limit(Duration::from_secs(30));

        let main_cfg = IlpConfig {
            congestion: true,
            memory: MemoryRule::Off,
            milp: milp_cfg.clone(),
        };
        let main = IlpModel::build(&g, &cluster, &comm, &main_cfg).unwrap();
        let main_out = main.solve(&milp_cfg).unwrap();

        let multi = MultiGpuIlp::build(&g, &cluster, &comm).unwrap();
        let multi_out = multi.solve(&milp_cfg).unwrap();

        // Only compare when both proved optimality (tiny instances do).
        if main_out.proven_optimal && multi_out.proven_optimal {
            prop_assert!(
                (main_out.cmax_us - multi_out.cmax_us).abs() < 1e-3,
                "main {} vs multi {}", main_out.cmax_us, multi_out.cmax_us
            );
        }
    }

    /// More GPUs can never hurt: the 4-GPU optimum is at most the 2-GPU
    /// optimum (any 2-GPU plan embeds into 4 GPUs).
    #[test]
    fn four_gpus_never_worse(g in arb_tiny(false)) {
        let comm = CommModel::default_v100();
        let milp_cfg = MilpConfig::with_time_limit(Duration::from_secs(30));
        let two = Cluster::two_gpus();
        let four = Cluster::homogeneous(4, 16 << 30);

        let out2 = MultiGpuIlp::build(&g, &two, &comm).unwrap().solve(&milp_cfg).unwrap();
        let out4 = MultiGpuIlp::build(&g, &four, &comm).unwrap().solve(&milp_cfg).unwrap();
        if out2.proven_optimal && out4.proven_optimal {
            prop_assert!(
                out4.cmax_us <= out2.cmax_us + 1e-3,
                "4-GPU {} worse than 2-GPU {}", out4.cmax_us, out2.cmax_us
            );
        }
    }
}
