//! Poison-recovering synchronization, shared by every crate that locks.
//!
//! `std`'s mutex poisoning turns one panic into a cascade: every later
//! `lock().unwrap()` on the same mutex panics too, so a single crashed
//! job could wedge a daemon's job table and worker queue forever, and a
//! panic hook that reads a poisoned telemetry store would double-panic
//! and abort the process. Recovering the guard is sound only for data
//! that stays valid at every step of every update: the telemetry rings
//! and maps, the daemon's job registry and queue, and the annealer's
//! snapshot slots all insert or replace whole items under the lock, so a
//! recovered guard observes at worst a missing item, never a torn one.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A mutex whose `lock` never panics: a poisoned lock (some thread
/// panicked while holding it) is recovered and handed out anyway. Only
/// for data that every update leaves valid (see the module docs).
#[derive(Debug, Default)]
pub struct RobustMutex<T>(Mutex<T>);

impl<T> RobustMutex<T> {
    /// Wraps `value`.
    pub const fn new(value: T) -> RobustMutex<T> {
        RobustMutex(Mutex::new(value))
    }

    /// Acquires the lock, recovering from poison instead of panicking.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// [`Condvar::wait`] with the same poison-recovery policy as
/// [`RobustMutex::lock`]: a guard whose mutex was poisoned by another
/// thread's panic is recovered, not propagated.
pub fn wait_robust<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    #[test]
    fn a_panic_while_locked_does_not_wedge_later_lockers() {
        let m = Arc::new(RobustMutex::new(7u32));
        let inner = Arc::clone(&m);
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let _guard = inner.lock();
            panic!("die while holding the lock");
        }));
        // A std Mutex would now be poisoned; RobustMutex recovers.
        assert_eq!(*m.lock(), 7);
        *m.lock() = 8;
        assert_eq!(*m.lock(), 8);
    }

    #[test]
    fn condvar_wait_survives_a_poisoning_neighbor() {
        use std::time::Duration;
        let pair = Arc::new((RobustMutex::new(false), Condvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (m, cv) = &*pair;
                let mut ready = m.lock();
                while !*ready {
                    ready = wait_robust(cv, ready);
                }
                true
            })
        };
        // Poison the mutex from a panicking thread, then signal anyway.
        let poisoner = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    let _guard = pair.0.lock();
                    panic!("poison it");
                }));
            })
        };
        poisoner.join().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        *pair.0.lock() = true;
        pair.1.notify_all();
        assert!(waiter.join().unwrap());
    }
}
