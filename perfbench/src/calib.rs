//! A fixed reference computation, timed between the measured operations,
//! that tells how fast the host ran while they were measured.
//!
//! On a shared host the same deterministic solve can take a third more CPU
//! time from one minute to the next: tenants on sibling hyperthreads or
//! the shared cache, and frequency changes, slow every instruction, and
//! CPU time cannot leave that out the way it leaves out preemption. The
//! reference is the benchmark's own code, never the program's: list
//! schedules of fixed random DAGs onto two devices, the kind of work
//! (heap operations, walks over adjacency lists, floating-point maxima)
//! placements spend their time on, and simplex pivots on a dense tableau,
//! the floating-point work exact solves spend theirs on. It schedules a
//! small DAG that stays in the core's own caches and a large one (a few
//! MB) that does not: alone, the small one tracked the drift of exact
//! solves better and the large one that of placements, and neither
//! tracked exact solves well until the pivots were added. No change to the
//! program changes the reference, so dividing an operation's CPU time by
//! the reference's, timed right after it, removes the host's drift and
//! keeps every change of the program's own speed. Times are reported
//! scaled to a nominal host on which the reference takes `NOMINAL_MS`.

use crate::stats::{median, thread_cpu};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

/// CPU ms of one reference sample on the host the benchmark was tuned on
/// (an unloaded 2-vCPU Xeon virtual machine); a reported time is the time
/// the operation would have taken there.
pub const NOMINAL_MS: f64 = 30.0;

/// `cpu` (any unit) scaled to the nominal host, given the reference's CPU
/// ms on the host that did the work.
pub fn nominal(cpu: f64, reference_ms: f64) -> f64 {
    cpu * NOMINAL_MS / reference_ms
}

/// Vertices of the small and the large DAG, and how many schedules of the
/// small one a sample takes, so the two DAGs take similar shares of it.
const SMALL_NODES: usize = 4096;
const LARGE_NODES: usize = 65_536;
const SMALL_PER_SAMPLE: usize = 16;
/// Predecessors of each vertex, drawn from the 64 vertices before it.
const FAN_IN: usize = 3;
/// Rows and columns of the dense tableau, and pivots per sample.
const ROWS: usize = 96;
const COLS: usize = 192;
const PIVOTS_PER_SAMPLE: usize = 1500;

/// A dense tableau and the fixed start it is reset to, so every sample
/// does the same work.
struct Tableau {
    start: Vec<f64>,
    a: Vec<f64>,
}

impl Tableau {
    fn new() -> Self {
        let mut state = 0x7AB1_EA00_u64;
        let start = (0..ROWS * COLS)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                0.5 + (state >> 40) as f64 / (1u64 << 24) as f64
            })
            .collect::<Vec<_>>();
        Tableau {
            a: start.clone(),
            start,
        }
    }

    /// `pivots` Gauss-Jordan pivots, each on the largest entry of a
    /// column chosen in turn, eliminating it from every other row. The
    /// tableau is reset every `ROWS` pivots, before its values can grow
    /// or shrink into the range where floating point slows down.
    fn pivot(&mut self, pivots: usize) -> f64 {
        let mut sum = 0.0;
        for p in 0..pivots {
            if p % ROWS == 0 {
                sum += self.a[0];
                self.a.copy_from_slice(&self.start);
            }
            let c = (p * 7) % COLS;
            let r = (0..ROWS)
                .max_by(|&i, &j| {
                    self.a[i * COLS + c]
                        .abs()
                        .total_cmp(&self.a[j * COLS + c].abs())
                })
                .expect("ROWS > 0");
            let inv = 1.0 / self.a[r * COLS + c];
            for x in &mut self.a[r * COLS..(r + 1) * COLS] {
                *x *= inv;
            }
            let (before, rest) = self.a.split_at_mut(r * COLS);
            let (row, after) = rest.split_at_mut(COLS);
            for other in before
                .chunks_exact_mut(COLS)
                .chain(after.chunks_exact_mut(COLS))
            {
                let f = other[c];
                for (x, y) in other.iter_mut().zip(row.iter()) {
                    *x -= f * y;
                }
            }
        }
        sum + self.a[0]
    }
}

/// A random DAG fixed by a constant seed, with the scratch buffers one
/// schedule needs (so a sample allocates nothing).
struct Dag {
    duration: Vec<f64>,
    preds: Vec<[u32; FAN_IN]>,
    succs: Vec<Vec<u32>>,
    rank: Vec<f64>,
    missing: Vec<u32>,
    finish: Vec<f64>,
    device: Vec<u8>,
    ready: BinaryHeap<(u64, Reverse<u32>)>,
}

impl Dag {
    fn new(nodes: usize) -> Self {
        let mut state = 0x5EED_CA11_B4A7_E000_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        let mut duration = Vec::with_capacity(nodes);
        let mut preds = Vec::with_capacity(nodes);
        let mut succs = vec![Vec::new(); nodes];
        for v in 0..nodes {
            duration.push(1.0 + (next() % 1000) as f64 / 10.0);
            let mut p = [u32::MAX; FAN_IN];
            if v > 0 {
                for slot in p.iter_mut() {
                    let back = 1 + (next() as usize % v.min(64));
                    *slot = (v - back) as u32;
                }
            }
            for &u in &p {
                if u != u32::MAX {
                    succs[u as usize].push(v as u32);
                }
            }
            preds.push(p);
        }
        Dag {
            duration,
            preds,
            succs,
            rank: vec![0.0; nodes],
            missing: vec![0; nodes],
            finish: vec![0.0; nodes],
            device: vec![0; nodes],
            ready: BinaryHeap::with_capacity(nodes),
        }
    }

    /// One list schedule: ready vertices in order of upward rank, each on
    /// the device that frees first, starting once its predecessors end
    /// (plus `delay` across devices). Returns the makespan.
    fn schedule(&mut self, delay: f64) -> f64 {
        for v in (0..self.rank.len()).rev() {
            let tail = self.succs[v]
                .iter()
                .fold(0.0f64, |m, &s| m.max(self.rank[s as usize]));
            self.rank[v] = self.duration[v] + tail;
        }
        for (v, p) in self.preds.iter().enumerate() {
            self.missing[v] = p.iter().filter(|&&u| u != u32::MAX).count() as u32;
            if self.missing[v] == 0 {
                self.ready.push((self.rank[v].to_bits(), Reverse(v as u32)));
            }
        }
        let mut free = [0.0f64; 2];
        let mut makespan = 0.0f64;
        while let Some((_, Reverse(v))) = self.ready.pop() {
            let v = v as usize;
            let d = usize::from(free[1] < free[0]);
            let mut start = free[d];
            for &u in &self.preds[v] {
                if u != u32::MAX {
                    let u = u as usize;
                    let cross = if usize::from(self.device[u]) == d {
                        0.0
                    } else {
                        delay
                    };
                    start = start.max(self.finish[u] + cross);
                }
            }
            self.finish[v] = start + self.duration[v];
            self.device[v] = d as u8;
            free[d] = self.finish[v];
            makespan = makespan.max(self.finish[v]);
            for &s in &self.succs[v] {
                let s = s as usize;
                self.missing[s] -= 1;
                if self.missing[s] == 0 {
                    self.ready.push((self.rank[s].to_bits(), Reverse(s as u32)));
                }
            }
        }
        makespan
    }
}

/// The reference computation and the samples a run took of it.
pub struct Reference {
    small: Dag,
    large: Dag,
    tableau: Tableau,
    samples: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            small: Dag::new(SMALL_NODES),
            large: Dag::new(LARGE_NODES),
            tableau: Tableau::new(),
            samples: Vec::new(),
        }
    }

    /// Takes `count` samples on this thread, each the CPU ms of
    /// `SMALL_PER_SAMPLE` schedules of the small DAG, one of the large and
    /// `PIVOTS_PER_SAMPLE` pivots, keeps them, and returns their median.
    pub fn sample(&mut self, count: usize) -> f64 {
        let first = self.samples.len();
        for k in 0..count {
            let t = thread_cpu();
            for j in 0..SMALL_PER_SAMPLE {
                black_box(self.small.schedule(black_box(j as f64)));
            }
            black_box(self.large.schedule(black_box(k as f64)));
            black_box(self.tableau.pivot(black_box(PIVOTS_PER_SAMPLE)));
            self.samples.push((thread_cpu() - t).as_secs_f64() * 1e3);
        }
        median(&self.samples[first..])
    }

    /// Median CPU ms of one sample over the run so far.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples)
    }

    /// `cpu` (CPU time of work done in this run, any unit) scaled to the
    /// nominal host by the run's median reference time.
    pub fn nominal(&self, cpu: f64) -> f64 {
        nominal(cpu, self.median_ms())
    }

    /// Median CPU ms of one sample over 10 taken now: how fast the host
    /// runs, for converting `op_ms` back to this host's milliseconds.
    pub fn measure_ms() -> f64 {
        Reference::new().sample(10)
    }
}
