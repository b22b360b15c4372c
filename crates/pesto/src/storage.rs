//! Pluggable durable storage for checkpoint/spec/result persistence,
//! with a seeded fault-injecting implementation for chaos testing.
//!
//! Everything the service layer persists flows through the small
//! [`Storage`] trait: reads, atomic (temp + rename) writes, removals,
//! renames, and directory creation. Production uses [`FsStorage`]; tests
//! thread a [`ChaosStorage`] through
//! `pesto_serve::ServerConfig::storage` to inject the storage failures a
//! real fleet sees — write errors, torn writes that truncate the payload,
//! single-bit corruption, transient read errors, and slow I/O — from a
//! seeded deterministic plan, so every chaos run is reproducible from its
//! seed.
//!
//! The checkpoint layer's checksummed envelope
//! ([`crate::save_checkpoint`]) is the detection side of this coin: a
//! torn or bit-flipped write injected here is exactly what
//! [`crate::latest_valid_generation`] must catch, quarantine, and
//! walk past.

use pesto_ilp::splitmix64;
use pesto_obs::RobustMutex;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Durable-storage operations the placement service depends on. The
/// trait is deliberately small: just the primitives the checkpoint and
/// job-state layers need, so a fault-injecting implementation can cover
/// every byte that reaches disk.
pub trait Storage: Send + Sync + fmt::Debug {
    /// Reads the full contents of `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Durably replaces `path` with `bytes`: write to a sibling
    /// `<name>.tmp`, then rename into place. A crash mid-write leaves
    /// either the old file or the new one — never a torn visible file
    /// (a *lying* storage layer can still tear the contents, which is
    /// what the checkpoint checksum exists to catch).
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Renames `from` to `to` (same filesystem).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Creates `path` and all missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Total faults this storage has injected so far (0 for real
    /// storage). Monotonic; the service exposes it as
    /// `storage_faults_injected_total`.
    fn faults_injected(&self) -> u64 {
        0
    }
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct FsStorage;

/// Sibling temp path used by [`Storage::write_atomic`] implementations:
/// `<name>.tmp` next to `path` (the same convention
/// [`crate::prune`] sweeps after a crash).
fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "file".into());
    name.push(".tmp");
    path.with_file_name(name)
}

impl Storage for FsStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = tmp_sibling(path);
        fs::write(&tmp, bytes)?;
        fs::rename(&tmp, path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }
}

/// Per-operation fault probabilities for [`ChaosStorage`], in permille
/// (0 = never, 1000 = always). Draws are taken from the storage's seeded
/// stream in a fixed order, so a given `(seed, plan, op sequence)` always
/// injects the same faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// `write_atomic` fails outright with an I/O error (nothing written).
    pub write_error_per_mille: u16,
    /// `write_atomic` reports success but persists a prefix of the
    /// payload, truncated at a seeded offset — a torn write.
    pub torn_write_per_mille: u16,
    /// `write_atomic` reports success but flips one seeded bit of the
    /// payload — silent corruption.
    pub bit_flip_per_mille: u16,
    /// `read` fails with a transient I/O error.
    pub read_error_per_mille: u16,
    /// `remove_file` fails with an I/O error (GC racing a flaky disk).
    pub remove_error_per_mille: u16,
    /// Any operation stalls for [`ChaosPlan::slow_io`] first.
    pub slow_io_per_mille: u16,
    /// Stall duration for slow-I/O faults.
    pub slow_io: Duration,
}

impl ChaosPlan {
    /// A plan that corrupts and fails aggressively — the default for the
    /// chaos suite. Roughly one op in seven tears, one in seven flips a
    /// bit, one in eight fails a write, one in sixteen fails a read.
    pub fn aggressive() -> ChaosPlan {
        ChaosPlan {
            write_error_per_mille: 125,
            torn_write_per_mille: 140,
            bit_flip_per_mille: 140,
            read_error_per_mille: 60,
            remove_error_per_mille: 60,
            slow_io_per_mille: 100,
            slow_io: Duration::from_millis(2),
        }
    }
}

/// A [`Storage`] that wraps [`FsStorage`] and injects faults from a
/// seeded [`ChaosPlan`]. Deterministic: the fault sequence is a pure
/// function of the seed, the plan, and the order of operations.
#[derive(Debug)]
pub struct ChaosStorage {
    inner: FsStorage,
    plan: ChaosPlan,
    /// splitmix64 state; a mutex (not an atomic) so each draw advances
    /// the stream exactly once even under concurrent callers.
    rng: RobustMutex<u64>,
    faults: AtomicU64,
}

impl ChaosStorage {
    /// A chaos storage seeded with `seed` injecting per `plan`.
    pub fn new(seed: u64, plan: ChaosPlan) -> ChaosStorage {
        ChaosStorage {
            inner: FsStorage,
            plan,
            rng: RobustMutex::new(seed),
            faults: AtomicU64::new(0),
        }
    }

    /// One splitmix64 draw.
    fn draw(&self) -> u64 {
        splitmix64(&mut self.rng.lock())
    }

    /// Whether a fault with probability `per_mille` fires on this draw.
    fn roll(&self, per_mille: u16) -> bool {
        if per_mille == 0 {
            return false;
        }
        self.draw() % 1000 < per_mille as u64
    }

    fn inject(&self) {
        self.faults.fetch_add(1, Ordering::Relaxed);
    }

    fn maybe_stall(&self) {
        if self.roll(self.plan.slow_io_per_mille) {
            self.inject();
            std::thread::sleep(self.plan.slow_io);
        }
    }

    fn chaos_err(&self, what: &str, path: &Path) -> io::Error {
        self.inject();
        io::Error::other(format!(
            "chaos: injected {what} error for {}",
            path.display()
        ))
    }
}

impl Storage for ChaosStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.maybe_stall();
        if self.roll(self.plan.read_error_per_mille) {
            return Err(self.chaos_err("read", path));
        }
        self.inner.read(path)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.maybe_stall();
        if self.roll(self.plan.write_error_per_mille) {
            return Err(self.chaos_err("write", path));
        }
        if self.roll(self.plan.torn_write_per_mille) && !bytes.is_empty() {
            // The rename "succeeds" but the payload is a prefix: the
            // visible file is torn, and only a checksum can tell.
            self.inject();
            let cut = (self.draw() as usize) % bytes.len();
            return self.inner.write_atomic(path, &bytes[..cut]);
        }
        if self.roll(self.plan.bit_flip_per_mille) && !bytes.is_empty() {
            self.inject();
            let mut corrupted = bytes.to_vec();
            let bit = (self.draw() as usize) % (corrupted.len() * 8);
            corrupted[bit / 8] ^= 1 << (bit % 8);
            return self.inner.write_atomic(path, &corrupted);
        }
        self.inner.write_atomic(path, bytes)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.maybe_stall();
        if self.roll(self.plan.remove_error_per_mille) {
            return Err(self.chaos_err("remove", path));
        }
        self.inner.remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        // Renames are kept reliable: quarantine must be able to preserve
        // evidence even on a misbehaving disk, and the torn/bit-flip
        // faults above already model a rename that "lied".
        self.inner.rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn faults_injected(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pesto-storage-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fs_storage_round_trips_atomically_with_tmp_sibling_discipline() {
        let dir = tmp_dir("fs");
        let path = dir.join("state.json");
        FsStorage.write_atomic(&path, b"one").unwrap();
        assert_eq!(FsStorage.read(&path).unwrap(), b"one");
        FsStorage.write_atomic(&path, b"two").unwrap();
        assert_eq!(FsStorage.read(&path).unwrap(), b"two");
        // The temp sibling never survives a successful write.
        assert!(!dir.join("state.json.tmp").exists());
        FsStorage.remove_file(&path).unwrap();
        assert!(!path.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_storage_is_deterministic_per_seed() {
        let plan = ChaosPlan::aggressive();
        let dir = tmp_dir("chaos-det");
        let run = |seed: u64, tag: &str| -> (u64, Vec<Option<Vec<u8>>>) {
            let storage = ChaosStorage::new(seed, plan);
            let mut outputs = Vec::new();
            for i in 0..40u32 {
                let path = dir.join(format!("{tag}-{i}.json"));
                let payload = vec![i as u8; 64];
                let _ = storage.write_atomic(&path, &payload);
                outputs.push(fs::read(&path).ok());
            }
            (storage.faults_injected(), outputs)
        };
        let (faults_a, files_a) = run(7, "a");
        let (faults_b, files_b) = run(7, "b");
        assert_eq!(faults_a, faults_b, "same seed, same fault count");
        assert_eq!(files_a, files_b, "same seed, same resulting bytes");
        let (faults_c, files_c) = run(8, "c");
        assert!(
            faults_c != faults_a || files_c != files_a,
            "different seeds should diverge"
        );
        // The aggressive plan over 40 writes must actually fire.
        assert!(faults_a > 0, "no faults injected by the aggressive plan");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_faults_are_observable_corruptions() {
        // High-rate plan: every write either errors, tears, or flips.
        let plan = ChaosPlan {
            write_error_per_mille: 333,
            torn_write_per_mille: 500,
            bit_flip_per_mille: 1000,
            ..ChaosPlan::default()
        };
        let storage = ChaosStorage::new(99, plan);
        let dir = tmp_dir("chaos-corrupt");
        let payload = vec![0xAAu8; 256];
        let mut intact = 0;
        for i in 0..30u32 {
            let path = dir.join(format!("f{i}.bin"));
            if storage.write_atomic(&path, &payload).is_ok() && fs::read(&path).unwrap() == payload
            {
                intact += 1;
            }
        }
        assert_eq!(
            intact, 0,
            "every surviving write should be torn or bit-flipped under this plan"
        );
        assert!(storage.faults_injected() >= 30);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zeroed_plan_injects_nothing() {
        let storage = ChaosStorage::new(1, ChaosPlan::default());
        let dir = tmp_dir("chaos-clean");
        let path = dir.join("clean.json");
        for _ in 0..20 {
            storage.write_atomic(&path, b"payload").unwrap();
            assert_eq!(storage.read(&path).unwrap(), b"payload");
        }
        storage.remove_file(&path).unwrap();
        assert_eq!(storage.faults_injected(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
