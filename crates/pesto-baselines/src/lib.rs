//! Placement baselines for the Pesto evaluation (paper §5.2).
//!
//! * [`expert()`][expert] — the domain-expert manual placements the paper compares
//!   against: layer-wise contiguous splits for the sequence models
//!   (RNNLM/NMT/Transformer, following GNMT practice) and branch splits for
//!   NASNet, with gradients colocated with their forward ops (TensorFlow's
//!   default colocation) and no explicit scheduling (framework default).
//! * Baechi — the three Baechi heuristics: memory-constrained
//!   topological packing (`m_topo`), earliest-task-first placement
//!   (`m_etf`), and small-communication-time placement (`m_sct`).
//! * naive — the Figure 2(b) strawman: hop-count critical-path
//!   priority, blind to compute times.
//! * random — uniform random affinity-respecting placement (Figure 2's
//!   random-placement point).
//!
//! All baselines return a [`Plan`][pesto_graph::Plan]; they never fail on memory — OOM is
//! detected downstream by the simulator, exactly like running the real
//! placement under TensorFlow would (the paper's Figure 7 reports Expert
//! OOM on two NASNet variants).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baechi;
mod expert;
mod naive;
mod random;

pub use baechi::{m_etf, m_sct, m_topo, BaechiHeuristic};
pub use expert::expert;
pub use naive::naive_critical_path;
pub use random::random_placement;
