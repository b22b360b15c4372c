//! Order statistics over timing samples.

use std::time::{Duration, Instant};

/// Median of `xs` (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest percentile with at least ten samples beyond it, and its
/// value: p99 needs 1,000 samples, p90 needs 100. Below 20 samples no
/// percentile above the median qualifies and the maximum is reported,
/// labelled `max`.
pub fn tail(xs: &[f64]) -> (String, f64) {
    let n = xs.len();
    if n < 20 {
        let max = xs.iter().copied().fold(0.0, f64::max);
        return ("max".into(), max);
    }
    // Ten samples beyond p means p <= 1 - 10/n; keep whole or tenth
    // percentiles so the label stays readable.
    let p = ((1.0 - 10.0 / n as f64) * 1000.0).floor() / 1000.0;
    let label = format!("p{:.1}", p * 100.0);
    (label.trim_end_matches(".0").to_string(), quantile(xs, p))
}

/// Runs `f` once and returns its result with the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Runs `f` once and returns its result with the CPU time the whole
/// process (every thread, including threads `f` starts and joins) spent
/// meanwhile.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = process_cpu();
    let out = f();
    (out, process_cpu().saturating_sub(t))
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: std::os::raw::c_int = 3;

fn cpu_clock(clock: std::os::raw::c_int) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; both clock ids exist on
    // every Linux since 2.6.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time the process has used so far, all threads together. Unlike
/// wall time it leaves out time spent waiting for a core, whether another
/// process or the hypervisor held it, which on a shared host is most of
/// the run-to-run noise of a wall-clock timing.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used so far.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Median wall time of one call of `f`, in µs. Calls `f` at least
/// `min_calls` times and then until `budget` has passed (at most 10,000
/// calls).
pub fn per_call_us(min_calls: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_calls || (start.elapsed() < budget && samples.len() < 10_000) {
        let (_, dt) = timed(&mut f);
        samples.push(dt.as_secs_f64() * 1e6);
    }
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (label, v) = tail(&xs);
        assert_eq!(label, "p90");
        assert!((v - 90.1).abs() < 1e-9);
        assert_eq!(tail(&[3.0, 5.0]), ("max".to_string(), 5.0));
    }
}
