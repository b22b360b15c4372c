//! The part of the Pesto ILP both models share: the 2-GPU [`IlpModel`]
//! (one placement bit `x_i` per GPU op) and the bit-encoded
//! [`MultiGpuIlp`] (`log2(gpus)` bits per GPU op).
//!
//! A model starts a [`Builder`], which creates `C_max`, the start times
//! `S_i` of every augmented node and the placement bits; adds its own
//! transfer indicators `z_k` and their linearization; then calls
//! [`Builder::add_schedule_rows`] for precedence (1), `C_max` (3), CPU
//! non-overlap (4), GPU non-overlap (10) and congestion (7), and
//! [`Builder::add_colocation_rows`]. [`Vars::decode_plan`] reads a plan
//! off a solution.
//!
//! Placement-dependent rows are gated by a *match gate*
//! `G_g(i) = Σ_bit (bit of i driven to bit of g)`, which is zero exactly
//! when op `i` sits on GPU `g` and at least one otherwise — the direct
//! generalization of the paper's `(2 - x_i - x_j)` gates. GPUs are visited
//! from the highest, so the one-bit rows come out in the paper's order
//! (GPU-1 gate first).
//!
//! [`IlpModel`]: crate::IlpModel
//! [`MultiGpuIlp`]: crate::MultiGpuIlp

use crate::augment::{AugNode, AugmentedGraph, CommClass};
use pesto_cost::CommModel;
use pesto_graph::{Cluster, DeviceKind, FrozenGraph, OpId, Placement, Plan, ScheduleOrder};
use pesto_lp::{Problem, Relation, Sense, VarId};
use pesto_milp::{MilpProblem, MilpSolution};
use std::collections::HashMap;

/// Linear terms plus a constant.
type Expr = (Vec<(VarId, f64)>, f64);

/// The variables every model has.
#[derive(Debug)]
pub(crate) struct Vars {
    pub(crate) aug: AugmentedGraph,
    pub(crate) cmax: VarId,
    /// `S_i` per augmented node.
    pub(crate) start: Vec<VarId>,
    /// Placement bits per op, least significant first: op `i` runs on the
    /// GPU whose index has these bits. Empty for CPU-resident ops.
    pub(crate) place: Vec<Vec<VarId>>,
    /// `z_k` per augmented node (`None` for non-`O_GG` nodes).
    pub(crate) z: Vec<Option<VarId>>,
    /// Big-M horizon: every node serialized.
    pub(crate) horizon: f64,
}

/// A model under construction.
pub(crate) struct Builder<'g> {
    graph: &'g FrozenGraph,
    gpus: usize,
    pub(crate) lp: Problem,
    pub(crate) binaries: Vec<VarId>,
    pub(crate) vars: Vars,
}

/// Duration of an augmented node: `p_i` for ops, the transfer estimate for
/// comm vertices.
fn node_duration(graph: &FrozenGraph, node: &AugNode) -> f64 {
    match node {
        AugNode::Op(id) => graph.op(*id).compute_us(),
        AugNode::Comm { duration_us, .. } => *duration_us,
    }
}

/// Dense reachability (transitive closure) on the base graph.
fn reachability(graph: &FrozenGraph) -> Vec<Vec<bool>> {
    let n = graph.op_count();
    let mut reach = vec![vec![false; n]; n];
    #[allow(clippy::needless_range_loop)] // row-OR over the closure matrix
    for &v in graph.topo_order().iter().rev() {
        for &s in graph.succs(v) {
            reach[v.index()][s.index()] = true;
            for t in 0..n {
                if reach[s.index()][t] {
                    reach[v.index()][t] = true;
                }
            }
        }
    }
    reach
}

impl<'g> Builder<'g> {
    /// Starts the model of `graph` on `1 << bits` GPUs: `C_max`, one start
    /// per augmented node, and `bits` placement binaries per GPU op, named
    /// by `name(op, bit)`.
    pub(crate) fn new(
        graph: &'g FrozenGraph,
        comm: &CommModel,
        bits: usize,
        name: impl Fn(OpId, usize) -> String,
    ) -> Self {
        let aug = AugmentedGraph::build(graph, comm);
        let horizon = aug
            .nodes()
            .iter()
            .map(|n| node_duration(graph, n))
            .sum::<f64>()
            .max(1.0);
        let mut lp = Problem::new(Sense::Minimize);
        let cmax = lp.add_var("cmax", 0.0, f64::INFINITY, 1.0);
        let start = (0..aug.node_count())
            .map(|i| lp.add_var(format!("s{i}"), 0.0, f64::INFINITY, 0.0))
            .collect();
        let mut binaries = Vec::new();
        let mut place = vec![Vec::new(); graph.op_count()];
        for id in graph.op_ids() {
            if graph.op(id).kind() == DeviceKind::Gpu {
                for b in 0..bits {
                    let v = lp.add_var(name(id, b), 0.0, 1.0, 0.0);
                    place[id.index()].push(v);
                    binaries.push(v);
                }
            }
        }
        let z = vec![None; aug.node_count()];
        Builder {
            graph,
            gpus: 1 << bits,
            lp,
            binaries,
            vars: Vars {
                aug,
                cmax,
                start,
                place,
                z,
                horizon,
            },
        }
    }

    /// Adds a 0-1 variable.
    pub(crate) fn binary(&mut self, name: String) -> VarId {
        let v = self.lp.add_var(name, 0.0, 1.0, 0.0);
        self.binaries.push(v);
        v
    }

    /// The `O_GG` vertices as `(node, producer, consumer)`.
    pub(crate) fn transfers(&self) -> Vec<(usize, OpId, OpId)> {
        self.vars
            .aug
            .comm_nodes()
            .filter(|&(_, _, class, _)| class == CommClass::GpuGpu)
            .map(|(k, edge, _, _)| {
                let (a, b, _) = self.graph.edges()[edge];
                (k, a, b)
            })
            .collect()
    }

    /// Adds `z_k`, the transfer indicator of `O_GG` vertex `k`.
    pub(crate) fn transfer_var(&mut self, k: usize) -> VarId {
        let z = self.binary(format!("z{k}"));
        self.vars.z[k] = Some(z);
        z
    }

    /// The match gate of op `o` and GPU `g`: zero iff `o` sits on `g`.
    fn match_gate(&self, o: OpId, g: usize) -> Expr {
        let mut terms = Vec::new();
        let mut constant = 0.0;
        for (b, &v) in self.vars.place[o.index()].iter().enumerate() {
            if (g >> b) & 1 == 1 {
                // Want bit = 1: contributes (1 - v).
                terms.push((v, -1.0));
                constant += 1.0;
            } else {
                terms.push((v, 1.0));
            }
        }
        (terms, constant)
    }

    /// The sum of the match gates of `(op, gpu)` pairs.
    fn gate_sum(&self, pairs: &[(OpId, usize)]) -> Expr {
        let mut terms = Vec::new();
        let mut constant = 0.0;
        for &(o, g) in pairs {
            let (t, c) = self.match_gate(o, g);
            terms.extend(t);
            constant += c;
        }
        (terms, constant)
    }

    /// Completion `C_i` of node `i` as terms plus a constant: `S_i + p_i`,
    /// or `S_k + p_k z_k` for `O_GG` vertices (constraint (6)).
    fn completion(&self, i: usize) -> Expr {
        let p = node_duration(self.graph, &self.vars.aug.nodes()[i]);
        match self.vars.z[i] {
            Some(z) => (vec![(self.vars.start[i], 1.0), (z, p)], 0.0),
            None => (vec![(self.vars.start[i], 1.0)], p),
        }
    }

    /// Adds `var >= C_i`.
    fn add_after(&mut self, i: usize, var: VarId) {
        let (mut terms, constant) = self.completion(i);
        for t in &mut terms {
            t.1 = -t.1;
        }
        terms.push((var, 1.0));
        self.lp.add_constraint(terms, Relation::Ge, constant);
    }

    /// Adds the scheduling rows: precedence (1), `C_max` (3), CPU
    /// non-overlap (4), gated GPU non-overlap (10) and, if `congestion`,
    /// the gated link congestion rows (7). Pairs already ordered by the
    /// graph get no disjunction.
    pub(crate) fn add_schedule_rows(&mut self, congestion: bool) {
        let (graph, h) = (self.graph, self.vars.horizon);
        let gate = 2.0 * h; // must dominate any time difference plus H·δ

        // (1) Precedence on augmented edges: C_i <= S_j.
        for (i, j) in self.vars.aug.edges().to_vec() {
            self.add_after(i, self.vars.start[j]);
        }
        // (3) C_i <= C_max for every node.
        for i in 0..self.vars.aug.node_count() {
            self.add_after(i, self.vars.cmax);
        }

        let reach = reachability(graph);
        let unordered =
            |a: OpId, b: OpId| !reach[a.index()][b.index()] && !reach[b.index()][a.index()];
        let (gpu_ops, cpu_ops): (Vec<OpId>, Vec<OpId>) = graph
            .op_ids()
            .partition(|&id| graph.op(id).kind() == DeviceKind::Gpu);

        // (4) CPU non-overlap: CPU-resident ops share the single CPU.
        for (ai, &a) in cpu_ops.iter().enumerate() {
            for &b in cpu_ops.iter().skip(ai + 1) {
                if !unordered(a, b) {
                    continue;
                }
                let d = self.binary(format!("dC_{}_{}", a.index(), b.index()));
                let (sa, sb) = (self.vars.start[a.index()], self.vars.start[b.index()]);
                let (pa, pb) = (graph.op(a).compute_us(), graph.op(b).compute_us());
                // δ=0: S_a >= C_b ; δ=1: S_b >= C_a.
                self.lp
                    .add_constraint(vec![(sa, 1.0), (sb, -1.0), (d, h)], Relation::Ge, pb);
                self.lp
                    .add_constraint(vec![(sb, 1.0), (sa, -1.0), (d, -h)], Relation::Ge, pa - h);
            }
        }

        // (10) GPU non-overlap: one δ per pair, binding only on the GPU
        // both ops sit on.
        for (ai, &a) in gpu_ops.iter().enumerate() {
            for &b in gpu_ops.iter().skip(ai + 1) {
                if !unordered(a, b) {
                    continue;
                }
                let d = self.binary(format!("dG_{}_{}", a.index(), b.index()));
                let (sa, sb) = (self.vars.start[a.index()], self.vars.start[b.index()]);
                let (pa, pb) = (graph.op(a).compute_us(), graph.op(b).compute_us());
                for g in (0..self.gpus).rev() {
                    let (gates, c) = self.gate_sum(&[(a, g), (b, g)]);
                    // S_a >= C_b - H δ - G (gate_a + gate_b).
                    let mut terms = vec![(sa, 1.0), (sb, -1.0), (d, h)];
                    terms.extend(gates.iter().map(|&(v, k)| (v, gate * k)));
                    self.lp.add_constraint(terms, Relation::Ge, pb - gate * c);
                    // S_b >= C_a - H (1-δ) - G (gate_a + gate_b).
                    let mut terms = vec![(sb, 1.0), (sa, -1.0), (d, -h)];
                    terms.extend(gates.iter().map(|&(v, k)| (v, gate * k)));
                    self.lp
                        .add_constraint(terms, Relation::Ge, pa - h - gate * c);
                }
            }
        }

        if congestion {
            self.add_congestion_rows(&reach, gate);
        }
    }

    /// (7) Congestion: communication vertices that would use the same link
    /// in the same direction must not overlap. One δ (named `dK_{i}_{j}`
    /// over augmented-node indices) per pair of the same class not already
    /// ordered by precedence, gated per directed GPU-GPU link for `O_GG`
    /// pairs and per shared GPU endpoint for `O_CG` and `O_GC` pairs.
    fn add_congestion_rows(&mut self, reach: &[Vec<bool>], gate: f64) {
        let (graph, h) = (self.graph, self.vars.horizon);
        let comm: Vec<(usize, usize, CommClass, f64)> = self.vars.aug.comm_nodes().collect();
        // Comm vertex k for edge (u, v) precedes comm vertex k' for (u', v')
        // if v reaches u' (or v == u').
        let precedes = |e1: usize, e2: usize| {
            let (_, v1, _) = graph.edges()[e1];
            let (u2, _, _) = graph.edges()[e2];
            v1 == u2 || reach[v1.index()][u2.index()]
        };
        let gpus: Vec<usize> = (0..self.gpus).rev().collect();
        for (i_pos, &(ki, ei, ci, _)) in comm.iter().enumerate() {
            for &(kj, ej, cj, _) in comm.iter().skip(i_pos + 1) {
                if ci != cj || precedes(ei, ej) || precedes(ej, ei) {
                    continue;
                }
                let d = self.binary(format!("dK_{ki}_{kj}"));
                let (u_i, v_i, _) = graph.edges()[ei];
                let (u_j, v_j, _) = graph.edges()[ej];
                // One gate per shared queue: zero exactly when both
                // transfers use it.
                let gates: Vec<Expr> = match ci {
                    CommClass::GpuGpu => gpus
                        .iter()
                        .flat_map(|&src| gpus.iter().map(move |&dst| (src, dst)))
                        .filter(|(src, dst)| src != dst)
                        .map(|(src, dst)| {
                            self.gate_sum(&[(u_i, src), (v_i, dst), (u_j, src), (v_j, dst)])
                        })
                        .collect(),
                    // O_CG transfers share a queue iff their GPU consumers
                    // share a GPU; O_GC transfers iff their producers do.
                    CommClass::CpuGpu | CommClass::GpuCpu => {
                        let (a, b) = if ci == CommClass::CpuGpu {
                            (v_i, v_j)
                        } else {
                            (u_i, u_j)
                        };
                        gpus.iter()
                            .map(|&g| self.gate_sum(&[(a, g), (b, g)]))
                            .collect()
                    }
                };
                let (ci_terms, ci_const) = self.completion(ki);
                let (cj_terms, cj_const) = self.completion(kj);
                for (gate_terms, gate_const) in gates {
                    let gated = gate_terms.iter().map(|&(v, c)| (v, gate * c));
                    // δ=0: S_i >= C_j - H·δ - G·gate.
                    let mut terms = vec![(self.vars.start[ki], 1.0), (d, h)];
                    terms.extend(cj_terms.iter().map(|&(v, c)| (v, -c)));
                    terms.extend(gated.clone());
                    self.lp
                        .add_constraint(terms, Relation::Ge, cj_const - gate * gate_const);
                    // δ=1: S_j >= C_i - H(1-δ) - G·gate.
                    let mut terms = vec![(self.vars.start[kj], 1.0), (d, -h)];
                    terms.extend(ci_terms.iter().map(|&(v, c)| (v, -c)));
                    terms.extend(gated);
                    self.lp
                        .add_constraint(terms, Relation::Ge, ci_const - h - gate * gate_const);
                }
            }
        }
    }

    /// Colocation (paper §3.2.2): every GPU op of a group shares its
    /// placement bits with the group's first op.
    pub(crate) fn add_colocation_rows(&mut self) {
        let mut leaders: HashMap<u32, OpId> = HashMap::new();
        for id in self.graph.op_ids() {
            let op = self.graph.op(id);
            let Some(group) = op.colocation_group() else {
                continue;
            };
            if op.kind() != DeviceKind::Gpu {
                continue;
            }
            let leader = *leaders.entry(group).or_insert(id);
            if leader == id {
                continue;
            }
            for (&x, &l) in self.vars.place[id.index()]
                .iter()
                .zip(&self.vars.place[leader.index()])
            {
                self.lp
                    .add_constraint(vec![(x, 1.0), (l, -1.0)], Relation::Eq, 0.0);
            }
        }
    }

    /// The finished MILP and the variables to decode it with.
    pub(crate) fn finish(self) -> (MilpProblem, Vars) {
        (MilpProblem::new(self.lp, self.binaries), self.vars)
    }
}

impl Vars {
    /// The plan a solution encodes: each GPU op on the GPU its bits name,
    /// CPU-resident ops on the CPU, and each device's ops in model start
    /// order (ties broken by topological position).
    pub(crate) fn decode_plan(
        &self,
        graph: &FrozenGraph,
        cluster: &Cluster,
        solution: &MilpSolution,
    ) -> Plan {
        let device_of = graph
            .op_ids()
            .map(|id| {
                if graph.op(id).kind() != DeviceKind::Gpu {
                    return cluster.cpu();
                }
                let g = self.place[id.index()]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| solution.value(v) > 0.5)
                    .fold(0usize, |g, (b, _)| g | 1 << b);
                cluster.gpu(g.min(cluster.gpu_count() - 1))
            })
            .collect();
        let placement = Placement::from_vec(device_of);
        let mut topo_pos = vec![0usize; graph.op_count()];
        for (i, &v) in graph.topo_order().iter().enumerate() {
            topo_pos[v.index()] = i;
        }
        let mut per_device: Vec<Vec<OpId>> = vec![Vec::new(); cluster.device_count()];
        for id in graph.op_ids() {
            per_device[placement.device(id).index()].push(id);
        }
        let start_of = |id: OpId| solution.value(self.start[self.aug.node_of_op(id)]);
        for list in &mut per_device {
            list.sort_by(|&a, &b| {
                start_of(a)
                    .total_cmp(&start_of(b))
                    .then(topo_pos[a.index()].cmp(&topo_pos[b.index()]))
            });
        }
        Plan::with_order(placement, ScheduleOrder::from_vecs(per_device))
    }
}
