//! The Pesto 0-1 ILP (paper §3.2.2) for two GPUs, built on
//! `pesto-lp`/`pesto-milp`.
//!
//! Variable glossary (matching the paper):
//!
//! * `C_max` — makespan, the objective;
//! * `S_i` — start time of every augmented node (ops and communication
//!   vertices); completion times `C_i = S_i + p_i` are substituted away
//!   (constraint (2)), and `C_k = S_k + z_k·p_k` for `O_GG` vertices
//!   (constraint (6));
//! * `x_i ∈ {0,1}` — placement of GPU op `i` (GPU-0 vs GPU-1);
//! * `z_k ∈ {0,1}` — whether `O_GG` vertex `k` is a real transfer,
//!   linearized from `z_k = x_i XOR x_j` (constraint (5)) as the paper's
//!   four inequalities;
//! * `δ_ij ∈ {0,1}` — disjunctive order indicators for non-overlap (10) and
//!   congestion (7) constraint pairs, gated by placement terms so they only
//!   bind when both parties share a device/link direction.
//!
//! This module holds what is particular to the paper's main setting of
//! exactly two GPUs: the `x_i` and `z_k` variables, the memory rules (8)
//! and the warm start. The scheduling rows, colocation and plan decoding
//! come from the builder this model shares with the bit-encoded n-GPU
//! extension, [`MultiGpuIlp`](crate::MultiGpuIlp).

use crate::augment::AugmentedGraph;
use crate::error::IlpError;
use crate::model::{Builder, Vars};
use pesto_cost::CommModel;
use pesto_graph::{Cluster, FrozenGraph, Plan};
use pesto_lp::{Relation, VarId};
use pesto_milp::{MilpCheckpoint, MilpConfig, MilpProblem, MilpSolution, MilpStatus};
use pesto_sim::Simulator;

/// Memory-constraint mode (paper constraint (8)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemoryRule {
    /// No memory constraints (ablation).
    Off,
    /// The paper's rule: each GPU's share of the total GPU-op footprint must
    /// lie within `0.5 ± slack` (balanced placement).
    Balance {
        /// Allowed deviation from a perfect 50/50 split, e.g. `0.1`.
        slack: f64,
    },
    /// Hard per-device capacity from the cluster's GPU memory sizes.
    Capacity,
}

/// Configuration of the exact ILP.
#[derive(Debug, Clone)]
pub struct IlpConfig {
    /// Include the communication congestion constraints (7). Disabling them
    /// reproduces the paper's Figure 5(a) ablation.
    pub congestion: bool,
    /// Memory constraint mode.
    pub memory: MemoryRule,
    /// Branch-and-bound limits.
    pub milp: MilpConfig,
}

impl Default for IlpConfig {
    fn default() -> Self {
        IlpConfig {
            congestion: true,
            memory: MemoryRule::Balance { slack: 0.2 },
            milp: MilpConfig::default(),
        }
    }
}

/// Outcome of solving the Pesto ILP.
#[derive(Debug, Clone)]
pub struct IlpOutcome {
    /// The decoded plan: placement plus per-device start-time order.
    pub plan: Plan,
    /// The model's optimal (or best-found) makespan `C_max`, µs.
    pub cmax_us: f64,
    /// Whether B&B proved optimality.
    pub proven_optimal: bool,
    /// Remaining relative optimality gap.
    pub gap: f64,
    /// Branch-and-bound nodes explored.
    pub nodes_explored: usize,
    /// Resumable snapshot of the B&B state (incumbent + bound), for
    /// crash-safe placement jobs.
    pub milp_checkpoint: MilpCheckpoint,
}

/// The assembled ILP for one `(graph, cluster, comm)` instance.
#[derive(Debug)]
pub struct IlpModel<'a> {
    graph: &'a FrozenGraph,
    cluster: &'a Cluster,
    milp: MilpProblem,
    vars: Vars,
}

impl<'a> IlpModel<'a> {
    /// Builds the Pesto ILP for a two-GPU cluster.
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::Unsupported`] if the cluster does not have
    /// exactly two GPUs (the paper's main formulation; see the crate docs).
    pub fn build(
        graph: &'a FrozenGraph,
        cluster: &'a Cluster,
        comm: &CommModel,
        config: &IlpConfig,
    ) -> Result<Self, IlpError> {
        if cluster.gpu_count() != 2 {
            return Err(IlpError::Unsupported(format!(
                "the exact Pesto ILP is formulated for 2 GPUs, cluster has {}",
                cluster.gpu_count()
            )));
        }
        let mut b = Builder::new(graph, comm, 1, |id, _| format!("x{}", id.index()));

        // z_k indicators for O_GG vertices, with the XOR linearization (5).
        for (k, u, v) in b.transfers() {
            let (xa, xb) = (b.vars.place[u.index()][0], b.vars.place[v.index()][0]);
            let z = b.transfer_var(k);
            // z <= xa + xb ; z >= xa - xb ; z >= xb - xa ; z <= 2 - xa - xb.
            b.lp.add_constraint(vec![(z, 1.0), (xa, -1.0), (xb, -1.0)], Relation::Le, 0.0);
            b.lp.add_constraint(vec![(z, 1.0), (xa, -1.0), (xb, 1.0)], Relation::Ge, 0.0);
            b.lp.add_constraint(vec![(z, 1.0), (xa, 1.0), (xb, -1.0)], Relation::Ge, 0.0);
            b.lp.add_constraint(vec![(z, 1.0), (xa, 1.0), (xb, 1.0)], Relation::Le, 2.0);
        }

        b.add_schedule_rows(config.congestion);

        // (8) Memory constraints over GPU-1's share Σ mem_i·x_i.
        let terms: Vec<(VarId, f64)> = graph
            .op_ids()
            .filter_map(|id| {
                let x = *b.vars.place[id.index()].first()?;
                Some((x, graph.op(id).memory_bytes() as f64))
            })
            .collect();
        let total: f64 = terms.iter().map(|&(_, mem)| mem).sum();
        match config.memory {
            MemoryRule::Off => {}
            MemoryRule::Balance { slack } => {
                if total > 0.0 {
                    b.lp.add_constraint(terms.clone(), Relation::Le, (0.5 + slack) * total);
                    b.lp.add_constraint(terms, Relation::Ge, (0.5 - slack) * total);
                }
            }
            MemoryRule::Capacity => {
                let cap1 = cluster.devices()[cluster.gpu(1).index()].memory_bytes() as f64;
                let cap0 = cluster.devices()[cluster.gpu(0).index()].memory_bytes() as f64;
                // Σ mem·x <= cap1 and Σ mem·(1-x) <= cap0.
                b.lp.add_constraint(terms.clone(), Relation::Le, cap1);
                b.lp.add_constraint(terms, Relation::Ge, total - cap0);
            }
        }

        b.add_colocation_rows();
        let (milp, vars) = b.finish();
        Ok(IlpModel {
            graph,
            cluster,
            milp,
            vars,
        })
    }

    /// The underlying MILP (for inspection and statistics).
    pub fn milp(&self) -> &MilpProblem {
        &self.milp
    }

    /// The augmented graph the model was built from.
    pub fn augmented(&self) -> &AugmentedGraph {
        &self.vars.aug
    }

    /// Big-M horizon used by the disjunctive constraints.
    pub fn horizon_us(&self) -> f64 {
        self.vars.horizon
    }

    /// Builds a warm-start assignment from an existing feasible plan by
    /// simulating it and reading off start times, placements, transfer
    /// indicators, and order indicators. Returns `None` if the plan cannot
    /// be simulated or the resulting point is not feasible for the model
    /// (e.g. it violates the memory-balance constraints).
    pub fn warm_start_from(&self, plan: &Plan, comm: &CommModel) -> Option<Vec<f64>> {
        let sim = Simulator::new(self.graph, self.cluster, *comm).with_memory_check(false);
        let report = sim.run(plan).ok()?;
        let (lp, vars) = (self.milp.lp(), &self.vars);
        let mut values = vec![0.0; lp.var_count()];
        values[vars.cmax.index()] = report.makespan_us;

        // Op starts and x placements.
        for id in self.graph.op_ids() {
            let s = report.op_start_us(id)?;
            values[vars.start[vars.aug.node_of_op(id)].index()] = s;
            if let Some(x) = vars.place[id.index()].first() {
                let dev = plan.placement.device(id);
                values[x.index()] = if dev == self.cluster.gpu(1) { 1.0 } else { 0.0 };
            }
        }

        // Comm vertex starts and z indicators.
        for (k, edge, _class, _dur) in vars.aug.comm_nodes() {
            let (u, v, _) = self.graph.edges()[edge];
            let cross = plan.placement.device(u) != plan.placement.device(v);
            if let Some(z) = vars.z[k] {
                values[z.index()] = if cross { 1.0 } else { 0.0 };
            }
            let s = if cross {
                report
                    .transfer_spans
                    .iter()
                    .find(|t| t.src == u && t.dst == v)?
                    .start_us
            } else {
                report.op_finish_us(u)?
            };
            values[vars.start[k].index()] = s;
        }

        // Order indicators: every δ variable is named d?_{a}_{b}; set from
        // observed start order (δ=1 ⇔ a starts first ⇒ S_b >= C_a branch).
        for vi in 0..lp.var_count() {
            let name = lp.var_name(VarId::from_index(vi));
            let Some(rest) = ["dC_", "dG_", "dK_"]
                .iter()
                .find_map(|prefix| name.strip_prefix(prefix))
            else {
                continue;
            };
            let mut parts = rest.split('_');
            let a: usize = parts.next()?.parse().ok()?;
            let b: usize = parts.next()?.parse().ok()?;
            let sa = values[vars.start[a].index()];
            let sb = values[vars.start[b].index()];
            values[vi] = if sa <= sb { 1.0 } else { 0.0 };
        }

        if self.milp.is_integer_feasible(&values, 1e-4) {
            Some(values)
        } else {
            None
        }
    }

    /// Solves the model and decodes a plan.
    ///
    /// # Errors
    ///
    /// * [`IlpError::Infeasible`] — no placement satisfies the constraints
    ///   (e.g. an impossible memory balance);
    /// * [`IlpError::NoSolution`] — B&B limits expired before any feasible
    ///   point was found.
    pub fn solve(&self, config: &MilpConfig) -> Result<IlpOutcome, IlpError> {
        let solution = self.milp.solve(config)?;
        Ok(self.decode(&solution))
    }

    /// Decodes a MILP solution into a [`Plan`] and outcome statistics.
    pub fn decode(&self, solution: &MilpSolution) -> IlpOutcome {
        IlpOutcome {
            plan: self.vars.decode_plan(self.graph, self.cluster, solution),
            cmax_us: solution.value(self.vars.cmax),
            proven_optimal: solution.status == MilpStatus::Optimal,
            gap: solution.gap,
            nodes_explored: solution.nodes_explored,
            milp_checkpoint: solution.checkpoint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pesto_graph::{DeviceKind, OpGraph, Placement, ScheduleOrder};
    use std::time::Duration;

    fn cfg() -> IlpConfig {
        IlpConfig {
            congestion: true,
            memory: MemoryRule::Off,
            milp: MilpConfig::with_time_limit(Duration::from_secs(20)),
        }
    }

    fn comm() -> CommModel {
        CommModel::default_v100()
    }

    #[test]
    fn independent_heavy_ops_split_across_gpus() {
        let mut g = OpGraph::new("two-independent");
        let a = g.add_op("a", DeviceKind::Gpu, 100.0, 16);
        let b = g.add_op("b", DeviceKind::Gpu, 100.0, 16);
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let model = IlpModel::build(&g, &cluster, &comm(), &cfg()).unwrap();
        let out = model.solve(&cfg().milp).unwrap();
        assert!(out.proven_optimal);
        assert!((out.cmax_us - 100.0).abs() < 1e-4, "cmax {}", out.cmax_us);
        assert_ne!(out.plan.placement.device(a), out.plan.placement.device(b));
    }

    #[test]
    fn heavy_communication_forces_colocation() {
        // Chain with a huge tensor: splitting costs far more than serial.
        let mut g = OpGraph::new("heavy-edge");
        let a = g.add_op("a", DeviceKind::Gpu, 10.0, 16);
        let b = g.add_op("b", DeviceKind::Gpu, 10.0, 16);
        g.add_edge(a, b, 256 << 20).unwrap(); // 256 MiB
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let model = IlpModel::build(&g, &cluster, &comm(), &cfg()).unwrap();
        let out = model.solve(&cfg().milp).unwrap();
        assert_eq!(out.plan.placement.device(a), out.plan.placement.device(b));
        assert!((out.cmax_us - 20.0).abs() < 1e-4);
    }

    #[test]
    fn cheap_communication_enables_pipelining() {
        // Diamond: root -> two heavy branches -> sink, tiny tensors. The
        // optimum spreads the branches.
        let mut g = OpGraph::new("diamond");
        let r = g.add_op("r", DeviceKind::Gpu, 1.0, 16);
        let x = g.add_op("x", DeviceKind::Gpu, 500.0, 16);
        let y = g.add_op("y", DeviceKind::Gpu, 500.0, 16);
        let s = g.add_op("s", DeviceKind::Gpu, 1.0, 16);
        g.add_edge(r, x, 64).unwrap();
        g.add_edge(r, y, 64).unwrap();
        g.add_edge(x, s, 64).unwrap();
        g.add_edge(y, s, 64).unwrap();
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let model = IlpModel::build(&g, &cluster, &comm(), &cfg()).unwrap();
        let out = model.solve(&cfg().milp).unwrap();
        assert_ne!(out.plan.placement.device(x), out.plan.placement.device(y));
        // Serial would be ~1002; parallel pays two small transfers.
        assert!(out.cmax_us < 600.0, "cmax {}", out.cmax_us);
    }

    #[test]
    fn memory_balance_forces_split() {
        // Two heavy-memory independent ops with huge comm avoidance benefit
        // to colocate — but Balance{0.1} forbids an 100/0 split.
        let mut g = OpGraph::new("membal");
        let a = g.add_op("a", DeviceKind::Gpu, 10.0, 1000);
        let b = g.add_op("b", DeviceKind::Gpu, 10.0, 1000);
        g.add_edge(a, b, 512 << 20).unwrap();
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let config = IlpConfig {
            memory: MemoryRule::Balance { slack: 0.1 },
            ..cfg()
        };
        let model = IlpModel::build(&g, &cluster, &comm(), &config).unwrap();
        let out = model.solve(&config.milp).unwrap();
        assert_ne!(
            out.plan.placement.device(a),
            out.plan.placement.device(b),
            "memory balance must force the split despite the huge tensor"
        );
    }

    #[test]
    fn capacity_rule_infeasible_when_too_big() {
        let mut g = OpGraph::new("toobig");
        g.add_op("a", DeviceKind::Gpu, 1.0, 100);
        g.add_op("b", DeviceKind::Gpu, 1.0, 100);
        let g = g.freeze().unwrap();
        let cluster = Cluster::homogeneous(2, 80); // each op alone overflows
        let config = IlpConfig {
            memory: MemoryRule::Capacity,
            ..cfg()
        };
        let model = IlpModel::build(&g, &cluster, &comm(), &config).unwrap();
        assert_eq!(model.solve(&config.milp).unwrap_err(), IlpError::Infeasible);
    }

    #[test]
    fn colocation_constraint_respected() {
        let mut g = OpGraph::new("coloc");
        let a = g.add_op("a", DeviceKind::Gpu, 100.0, 16);
        let b = g.add_op("b", DeviceKind::Gpu, 100.0, 16);
        g.op_mut(a).set_colocation_group(Some(7));
        g.op_mut(b).set_colocation_group(Some(7));
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let model = IlpModel::build(&g, &cluster, &comm(), &cfg()).unwrap();
        let out = model.solve(&cfg().milp).unwrap();
        // Without colocation these would split (see the first test); the
        // group forces them together.
        assert_eq!(out.plan.placement.device(a), out.plan.placement.device(b));
        assert!((out.cmax_us - 200.0).abs() < 1e-4);
    }

    #[test]
    fn decoded_plan_simulates_close_to_cmax() {
        let mut g = OpGraph::new("sim-check");
        let r = g.add_op("r", DeviceKind::Gpu, 5.0, 16);
        let x = g.add_op("x", DeviceKind::Gpu, 60.0, 16);
        let y = g.add_op("y", DeviceKind::Gpu, 40.0, 16);
        let z = g.add_op("z", DeviceKind::Gpu, 30.0, 16);
        let s = g.add_op("s", DeviceKind::Gpu, 5.0, 16);
        g.add_edge(r, x, 4096).unwrap();
        g.add_edge(r, y, 4096).unwrap();
        g.add_edge(r, z, 4096).unwrap();
        g.add_edge(x, s, 4096).unwrap();
        g.add_edge(y, s, 4096).unwrap();
        g.add_edge(z, s, 4096).unwrap();
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let model = IlpModel::build(&g, &cluster, &comm(), &cfg()).unwrap();
        let out = model.solve(&cfg().milp).unwrap();
        let sim = Simulator::new(&g, &cluster, comm()).with_memory_check(false);
        let report = sim.run(&out.plan).unwrap();
        // The simulator's FCFS links can differ slightly from the model's
        // free transfer ordering, but they should be close.
        assert!(
            report.makespan_us <= out.cmax_us * 1.15 + 1e-6,
            "sim {} vs cmax {}",
            report.makespan_us,
            out.cmax_us
        );
        assert!(report.makespan_us >= out.cmax_us - 1e-6);
    }

    #[test]
    fn three_gpus_unsupported_by_exact_ilp() {
        let mut g = OpGraph::new("t");
        g.add_op("a", DeviceKind::Gpu, 1.0, 0);
        let g = g.freeze().unwrap();
        let cluster = Cluster::homogeneous(3, 1 << 30);
        assert!(matches!(
            IlpModel::build(&g, &cluster, &comm(), &cfg()),
            Err(IlpError::Unsupported(_))
        ));
    }

    #[test]
    fn warm_start_round_trips() {
        let mut g = OpGraph::new("ws");
        let a = g.add_op("a", DeviceKind::Gpu, 10.0, 16);
        let b = g.add_op("b", DeviceKind::Gpu, 20.0, 16);
        let c = g.add_op("c", DeviceKind::Gpu, 30.0, 16);
        g.add_edge(a, b, 256).unwrap();
        g.add_edge(a, c, 256).unwrap();
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let model = IlpModel::build(&g, &cluster, &comm(), &cfg()).unwrap();
        // Simple plan: everything on gpu0, topo order.
        let placement = Placement::uniform(3, cluster.gpu(0));
        let order =
            ScheduleOrder::from_global_order(&placement, g.topo_order(), cluster.device_count());
        let plan = Plan::with_order(placement, order);
        let ws = model.warm_start_from(&plan, &comm());
        assert!(ws.is_some(), "a valid simulated plan must warm-start");
        // Solving with the warm start still reaches the optimum.
        let config = MilpConfig {
            warm_start: ws,
            ..MilpConfig::with_time_limit(Duration::from_secs(20))
        };
        let out = model.solve(&config).unwrap();
        assert!(out.cmax_us <= 60.0 + 1e-4);
    }

    #[test]
    fn model_size_matches_formulas() {
        // k independent GPU ops, no edges: variables = 1 (cmax) + k (S_i)
        // + k (x_i) + C(k,2) (δ); no z (no GG edges).
        let k = 5;
        let mut g = OpGraph::new("count");
        for i in 0..k {
            g.add_op(format!("op{i}"), DeviceKind::Gpu, 10.0, 16);
        }
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let model = IlpModel::build(&g, &cluster, &comm(), &cfg()).unwrap();
        let pairs = k * (k - 1) / 2;
        assert_eq!(model.milp().lp().var_count(), 1 + k + k + pairs);
        assert_eq!(model.milp().binaries().len(), k + pairs);
        // Constraints: k Cmax rows + 4 rows per GPU pair (two gates x two
        // orders); no precedence/congestion/memory rows.
        assert_eq!(model.milp().lp().constraint_count(), k + 4 * pairs);
    }

    #[test]
    fn z_indicators_match_cross_placement_in_solutions() {
        // A chain a -> b with a modest tensor: whatever the solver picks,
        // z must equal [a and b on different GPUs].
        let mut g = OpGraph::new("zcheck");
        let a = g.add_op("a", DeviceKind::Gpu, 30.0, 16);
        let b = g.add_op("b", DeviceKind::Gpu, 30.0, 16);
        g.add_edge(a, b, 1 << 16).unwrap();
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let model = IlpModel::build(&g, &cluster, &comm(), &cfg()).unwrap();
        let solution = model.milp().solve(&cfg().milp).unwrap();
        let out = model.decode(&solution);
        let cross = out.plan.placement.device(a) != out.plan.placement.device(b);
        // Find the z variable by name.
        let lp = model.milp().lp();
        let z = (0..lp.var_count())
            .map(pesto_lp::VarId::from_index)
            .find(|&v| lp.var_name(v).starts_with('z'))
            .expect("one GG comm vertex");
        assert_eq!(solution.value(z) > 0.5, cross);
    }

    #[test]
    fn cpu_ops_serialize_on_the_cpu() {
        let mut g = OpGraph::new("cpu2");
        let a = g.add_op("a", DeviceKind::Cpu, 50.0, 0);
        let b = g.add_op("b", DeviceKind::Cpu, 50.0, 0);
        let _ = (a, b);
        let g = g.freeze().unwrap();
        let cluster = Cluster::two_gpus();
        let model = IlpModel::build(&g, &cluster, &comm(), &cfg()).unwrap();
        let out = model.solve(&cfg().milp).unwrap();
        // One CPU: they cannot overlap.
        assert!((out.cmax_us - 100.0).abs() < 1e-4, "cmax {}", out.cmax_us);
    }
}
