//! Random placement.

use pesto_graph::{Cluster, DeviceKind, FrozenGraph, Placement, Plan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A uniformly random affinity-respecting placement.
pub fn random_placement(graph: &FrozenGraph, cluster: &Cluster, seed: u64) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed);
    let gpus = cluster.gpus();
    let mut placement = Placement::affinity_default(graph, cluster);
    for id in graph.op_ids() {
        if graph.op(id).kind() == DeviceKind::Gpu {
            placement.set_device(id, gpus[rng.gen_range(0..gpus.len())]);
        }
    }
    Plan::placement_only(placement)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wide() -> FrozenGraph {
        let mut g = pesto_graph::OpGraph::new("wide");
        for i in 0..10 {
            g.add_op(format!("op{i}"), DeviceKind::Gpu, 50.0, 10);
        }
        g.freeze().unwrap()
    }

    #[test]
    fn random_placement_is_valid_and_seeded() {
        let g = wide();
        let cluster = Cluster::two_gpus();
        let a = random_placement(&g, &cluster, 3);
        let b = random_placement(&g, &cluster, 3);
        let c = random_placement(&g, &cluster, 4);
        a.validate(&g, &cluster).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
