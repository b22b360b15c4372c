//! The multi-GPU extension of the Pesto ILP (paper §3.2.2, "ILP
//! optimality, extensions, and solution").
//!
//! The paper's main formulation targets two GPUs with one binary `x_i` per
//! GPU op. For four GPUs it proposes encoding the placement as a *pair*
//! `{x_i, y_i}` of binaries; this module implements that bit-vector
//! encoding for any power-of-two GPU count (2 or 4 in practice — the
//! constraint count grows steeply):
//!
//! * placement of op `i` = the binary number `(b_{i,k-1} … b_{i,0})`;
//! * transfer indicators `z_k` use per-bit XOR variables with
//!   `max(d_bits) <= z <= Σ d_bits`.
//!
//! Everything else — precedence, `C_max`, CPU serialization, non-overlap
//! (10) with one δ pair per op pair per GPU, congestion (7) gated per
//! directed GPU-GPU link, colocation and plan decoding — comes from the
//! builder this model shares with the 2-GPU [`IlpModel`](crate::IlpModel),
//! whose gates generalize to the bit encoding as match gates.

use crate::error::IlpError;
use crate::model::{Builder, Vars};
use pesto_cost::CommModel;
use pesto_graph::{Cluster, FrozenGraph, Plan};
use pesto_lp::Relation;
use pesto_milp::{MilpConfig, MilpProblem, MilpSolution, MilpStatus};

/// The bit-encoded multi-GPU Pesto ILP.
#[derive(Debug)]
pub struct MultiGpuIlp<'a> {
    graph: &'a FrozenGraph,
    cluster: &'a Cluster,
    milp: MilpProblem,
    vars: Vars,
    bits: usize,
}

/// Outcome of solving the multi-GPU model.
#[derive(Debug, Clone)]
pub struct MultiGpuOutcome {
    /// Decoded plan.
    pub plan: Plan,
    /// Model makespan.
    pub cmax_us: f64,
    /// Whether optimality was proven.
    pub proven_optimal: bool,
}

impl<'a> MultiGpuIlp<'a> {
    /// Builds the model. The cluster must have a power-of-two GPU count
    /// (2 or 4).
    ///
    /// # Errors
    ///
    /// [`IlpError::Unsupported`] for non-power-of-two GPU counts.
    pub fn build(
        graph: &'a FrozenGraph,
        cluster: &'a Cluster,
        comm: &CommModel,
    ) -> Result<Self, IlpError> {
        let gpus = cluster.gpu_count();
        if !gpus.is_power_of_two() || gpus > 4 {
            return Err(IlpError::Unsupported(format!(
                "multi-GPU ILP needs 2 or 4 GPUs, cluster has {gpus}"
            )));
        }
        let bits = gpus.trailing_zeros() as usize;
        let mut b = Builder::new(graph, comm, bits, |id, bit| {
            format!("p{}_{bit}", id.index())
        });

        // z_k for GG comm nodes via per-bit XOR.
        for (k, u, v) in b.transfers() {
            let z = b.transfer_var(k);
            let mut xor_bits = Vec::new();
            for bit in 0..bits {
                let (xa, xb) = (b.vars.place[u.index()][bit], b.vars.place[v.index()][bit]);
                let d = b.binary(format!("zx{k}_{bit}"));
                b.lp.add_constraint(vec![(d, 1.0), (xa, -1.0), (xb, 1.0)], Relation::Ge, 0.0);
                b.lp.add_constraint(vec![(d, 1.0), (xa, 1.0), (xb, -1.0)], Relation::Ge, 0.0);
                b.lp.add_constraint(vec![(d, 1.0), (xa, -1.0), (xb, -1.0)], Relation::Le, 0.0);
                b.lp.add_constraint(vec![(d, 1.0), (xa, 1.0), (xb, 1.0)], Relation::Le, 2.0);
                // z >= each bit difference.
                b.lp.add_constraint(vec![(z, 1.0), (d, -1.0)], Relation::Ge, 0.0);
                xor_bits.push(d);
            }
            // z <= sum of bit differences.
            let mut terms = vec![(z, 1.0)];
            terms.extend(xor_bits.iter().map(|&d| (d, -1.0)));
            b.lp.add_constraint(terms, Relation::Le, 0.0);
        }

        b.add_schedule_rows(true);
        b.add_colocation_rows();
        let (milp, vars) = b.finish();
        Ok(MultiGpuIlp {
            graph,
            cluster,
            milp,
            vars,
            bits,
        })
    }

    /// The underlying MILP.
    pub fn milp(&self) -> &MilpProblem {
        &self.milp
    }

    /// Solves and decodes.
    ///
    /// # Errors
    ///
    /// Propagates branch-and-bound failures ([`IlpError::Infeasible`],
    /// [`IlpError::NoSolution`]).
    pub fn solve(&self, config: &MilpConfig) -> Result<MultiGpuOutcome, IlpError> {
        let solution = self.milp.solve(config)?;
        Ok(self.decode(&solution))
    }

    /// Decodes a MILP solution into a plan.
    pub fn decode(&self, solution: &MilpSolution) -> MultiGpuOutcome {
        MultiGpuOutcome {
            plan: self.vars.decode_plan(self.graph, self.cluster, solution),
            cmax_us: solution.value(self.vars.cmax),
            proven_optimal: solution.status == MilpStatus::Optimal,
        }
    }

    /// Bits used for placement encoding (1 for 2 GPUs, 2 for 4).
    pub fn placement_bits(&self) -> usize {
        self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pesto_graph::{DeviceKind, OpGraph, OpId};
    use pesto_sim::Simulator;
    use std::time::Duration;

    fn comm() -> CommModel {
        CommModel::default_v100()
    }

    fn cfg() -> MilpConfig {
        MilpConfig::with_time_limit(Duration::from_secs(30))
    }

    #[test]
    fn four_independent_ops_spread_over_four_gpus() {
        let mut g = OpGraph::new("four");
        let ids: Vec<OpId> = (0..4)
            .map(|i| g.add_op(format!("op{i}"), DeviceKind::Gpu, 100.0, 16))
            .collect();
        let g = g.freeze().unwrap();
        let cluster = Cluster::homogeneous(4, 1 << 30);
        let model = MultiGpuIlp::build(&g, &cluster, &comm()).unwrap();
        assert_eq!(model.placement_bits(), 2);
        let out = model.solve(&cfg()).unwrap();
        assert!((out.cmax_us - 100.0).abs() < 1e-4, "cmax {}", out.cmax_us);
        let devices: std::collections::HashSet<_> =
            ids.iter().map(|&i| out.plan.placement.device(i)).collect();
        assert_eq!(devices.len(), 4, "all four GPUs used");
    }

    #[test]
    fn two_gpu_case_matches_main_formulation() {
        let mut g = OpGraph::new("pair");
        let a = g.add_op("a", DeviceKind::Gpu, 60.0, 16);
        let b = g.add_op("b", DeviceKind::Gpu, 60.0, 16);
        let _ = (a, b);
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let model = MultiGpuIlp::build(&g, &cluster, &comm()).unwrap();
        assert_eq!(model.placement_bits(), 1);
        let out = model.solve(&cfg()).unwrap();
        assert!((out.cmax_us - 60.0).abs() < 1e-4);
        assert_ne!(out.plan.placement.device(a), out.plan.placement.device(b));
    }

    #[test]
    fn heavy_edge_colocates_on_four_gpus() {
        let mut g = OpGraph::new("glue");
        let a = g.add_op("a", DeviceKind::Gpu, 10.0, 16);
        let b = g.add_op("b", DeviceKind::Gpu, 10.0, 16);
        g.add_edge(a, b, 256 << 20).unwrap();
        let g = g.freeze().unwrap();
        let cluster = Cluster::homogeneous(4, 1 << 30);
        let model = MultiGpuIlp::build(&g, &cluster, &comm()).unwrap();
        let out = model.solve(&cfg()).unwrap();
        assert_eq!(out.plan.placement.device(a), out.plan.placement.device(b));
        assert!((out.cmax_us - 20.0).abs() < 1e-4);
    }

    #[test]
    fn colocation_group_shares_one_gpu_on_four_gpus() {
        // Two independent 100 µs ops would split (C_max 100); one
        // colocation group keeps them on one GPU (paper §3.2.2), as the
        // 2-GPU model does.
        let mut g = OpGraph::new("coloc");
        let a = g.add_op("a", DeviceKind::Gpu, 100.0, 16);
        let b = g.add_op("b", DeviceKind::Gpu, 100.0, 16);
        g.op_mut(a).set_colocation_group(Some(7));
        g.op_mut(b).set_colocation_group(Some(7));
        let g = g.freeze().unwrap();
        for gpus in [2, 4] {
            let cluster = Cluster::homogeneous(gpus, 1 << 30);
            let model = MultiGpuIlp::build(&g, &cluster, &comm()).unwrap();
            let out = model.solve(&cfg()).unwrap();
            assert!(out.proven_optimal, "{gpus} GPUs");
            assert!(
                (out.cmax_us - 200.0).abs() < 1e-4,
                "{gpus} GPUs: cmax {}",
                out.cmax_us
            );
            assert_eq!(out.plan.placement.device(a), out.plan.placement.device(b));
        }
    }

    #[test]
    fn three_gpus_rejected() {
        let mut g = OpGraph::new("t");
        g.add_op("a", DeviceKind::Gpu, 1.0, 0);
        let g = g.freeze().unwrap();
        let cluster = Cluster::homogeneous(3, 1 << 30);
        assert!(matches!(
            MultiGpuIlp::build(&g, &cluster, &comm()),
            Err(IlpError::Unsupported(_))
        ));
    }

    #[test]
    fn decoded_plans_simulate_close_to_model() {
        let mut g = OpGraph::new("mix");
        let r = g.add_op("r", DeviceKind::Gpu, 5.0, 16);
        let ids: Vec<OpId> = (0..2)
            .map(|i| g.add_op(format!("w{i}"), DeviceKind::Gpu, 80.0, 16))
            .collect();
        let s = g.add_op("s", DeviceKind::Gpu, 5.0, 16);
        for &w in &ids {
            g.add_edge(r, w, 2048).unwrap();
            g.add_edge(w, s, 2048).unwrap();
        }
        let g = g.freeze().unwrap();
        let cluster = Cluster::homogeneous(4, 1 << 30);
        let model = MultiGpuIlp::build(&g, &cluster, &comm()).unwrap();
        let out = model.solve(&cfg()).unwrap();
        // The decoded plan always executes, near the model makespan.
        let sim = Simulator::new(&g, &cluster, comm()).with_memory_check(false);
        let report = sim.run(&out.plan).unwrap();
        assert!(report.makespan_us <= out.cmax_us * 1.2 + 1e-6);
        // Two heavy branches must not share a GPU in a solution this good.
        assert!(out.cmax_us < 170.0, "cmax {}", out.cmax_us);
        let devices: std::collections::HashSet<_> =
            ids.iter().map(|&i| out.plan.placement.device(i)).collect();
        assert_eq!(devices.len(), 2, "{devices:?}");
    }
}
