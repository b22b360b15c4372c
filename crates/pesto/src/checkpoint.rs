//! Crash-safe placement jobs: a versioned, atomically written snapshot of
//! the hybrid search and MILP incumbents that a killed run can resume
//! from.
//!
//! A long placement job loses everything when the process dies: the
//! annealer's incumbent, its RNG position, the MILP's best bound. The
//! [`SearchCheckpoint`] captures all of it — plus the *expanded*
//! fine-grained incumbent plan, so even a reader with no solver at hand
//! gets a valid placement out of a crashed job — and
//! [`save_checkpoint`] persists it with the classic write-to-temp +
//! rename protocol, so a crash mid-write can never destroy the previous
//! good checkpoint.
//!
//! Resuming is only sound against the *same* job: the checkpoint records
//! a [`graph_fingerprint`] and the config seed, and
//! [`SearchCheckpoint::verify`] rejects a mismatch with a typed
//! [`CheckpointError::Mismatch`] instead of silently producing garbage.
//! The format carries a `major.minor` [`CHECKPOINT_SCHEMA_VERSION`];
//! [`load_checkpoint`] rejects an unknown major cleanly
//! ([`CheckpointError::UnsupportedVersion`]) before attempting a full
//! parse.
//!
//! Atomic rename protects against a *crash*, but not against storage that
//! lies: a torn writeback or a flipped bit leaves a file that renames
//! cleanly and parses as garbage (or worse, parses fine). Every
//! checkpoint is therefore wrapped in a checksummed envelope — a one-line
//! header carrying the payload length and a CRC-64 — and
//! [`load_checkpoint`] fails corruption with the typed, non-retryable
//! [`CheckpointError::Corrupt`]. Pre-envelope files (no header) still
//! load for backward compatibility. On top of that,
//! [`latest_valid_generation`] walks the generation set newest-first,
//! moving corrupt generations into a `quarantine/` subdirectory (evidence
//! for postmortems, never deleted) until it finds one that loads and
//! validates — so one bad write costs a few hundred iterations of
//! progress, not the whole job. All file I/O here is routed through the
//! [`Storage`] trait so the chaos test-suite can inject exactly those
//! faults.

use crate::storage::Storage;
use pesto_graph::{FrozenGraph, Plan};
use pesto_ilp::HybridSearchState;
use pesto_milp::MilpCheckpoint;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::error::Error;
use std::fmt;
use std::fs;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

/// Crash-safety knobs for a placement job
/// ([`PestoConfig::checkpoint`][crate::PestoConfig::checkpoint]).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Where the checkpoint lives. Written atomically (temp + rename) on
    /// every snapshot, so the file is always a complete checkpoint.
    pub path: PathBuf,
    /// Snapshot cadence, in hybrid-search iterations. `0` disables
    /// periodic snapshots; the final checkpoint is still written when the
    /// run completes, and deadline truncation always snapshots.
    pub every_iters: usize,
    /// Resume from `path` if it exists. A missing file starts fresh (so
    /// the same invocation works for the first run and every restart);
    /// an existing file that fails to load or belongs to a different job
    /// is a typed error, never a silent cold start.
    pub resume: bool,
}

impl CheckpointConfig {
    /// Checkpoints to `path` every 200 search iterations, no resume.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            path: path.into(),
            every_iters: 200,
            resume: false,
        }
    }

    /// Like [`CheckpointConfig::new`] but resumes from `path` when it
    /// already holds a checkpoint.
    pub fn resume(path: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            resume: true,
            ..CheckpointConfig::new(path)
        }
    }
}

/// Schema version written into every checkpoint, as `major.minor`. Bump
/// the minor for additive changes (old readers ignore new fields); bump
/// the major for breaking ones (old readers must refuse the file).
pub const CHECKPOINT_SCHEMA_VERSION: &str = "1.0";

/// The best plan known at checkpoint time, already expanded to the fine
/// graph — directly usable without re-running any solver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointIncumbent {
    /// Fine-grained placement-only plan of the search incumbent.
    pub plan: Plan,
    /// Honestly simulated per-step time, µs. `None` for mid-search
    /// snapshots (the pipeline only simulates at the end); populated in
    /// the final checkpoint a completed run writes.
    pub makespan_us: Option<f64>,
}

/// A resumable snapshot of a placement job's search state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchCheckpoint {
    /// Format version, `major.minor` (see [`CHECKPOINT_SCHEMA_VERSION`]).
    pub schema_version: String,
    /// Fingerprint of the input graph ([`graph_fingerprint`]); resume
    /// refuses a checkpoint taken against a different graph.
    pub graph_fingerprint: u64,
    /// The pipeline seed the job ran with; profiling noise and the search
    /// stream both derive from it, so resume requires an exact match.
    pub seed: u64,
    /// Per-restart annealer state (coarse-graph placements, RNG
    /// positions, temperatures). `None` when the job never reached the
    /// hybrid search.
    pub hybrid: Option<HybridSearchState>,
    /// MILP incumbent + bound for warm-starting the exact path. `None`
    /// when the exact ILP never ran.
    pub milp: Option<MilpCheckpoint>,
    /// Best fine-grained plan known so far, if any restart has one.
    pub incumbent: Option<CheckpointIncumbent>,
}

impl SearchCheckpoint {
    /// An empty checkpoint for the job identified by `fingerprint` and
    /// `seed`.
    pub fn new(graph_fingerprint: u64, seed: u64) -> Self {
        SearchCheckpoint {
            schema_version: CHECKPOINT_SCHEMA_VERSION.to_string(),
            graph_fingerprint,
            seed,
            hybrid: None,
            milp: None,
            incumbent: None,
        }
    }

    /// Checks that this checkpoint belongs to the job defined by
    /// `fingerprint` and `seed`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] naming the field that differs.
    pub fn verify(&self, graph_fingerprint: u64, seed: u64) -> Result<(), CheckpointError> {
        if self.graph_fingerprint != graph_fingerprint {
            return Err(CheckpointError::Mismatch(format!(
                "graph fingerprint {:#018x} != expected {:#018x}; \
                 this checkpoint was taken against a different graph",
                self.graph_fingerprint, graph_fingerprint
            )));
        }
        if self.seed != seed {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint seed {} != configured seed {}; \
                 profiling and search streams would not line up",
                self.seed, seed
            )));
        }
        Ok(())
    }
}

/// Errors from checkpoint I/O and validation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Filesystem failure (message carries the underlying error).
    Io(String),
    /// The file is not a parseable checkpoint.
    Parse(String),
    /// The file's schema major version is not one this build understands.
    UnsupportedVersion {
        /// The `schema_version` string found in the file.
        found: String,
    },
    /// The checkpoint is valid but belongs to a different job (graph
    /// fingerprint or seed differs).
    Mismatch(String),
    /// The file's checksummed envelope does not match its payload: the
    /// bytes on disk were torn or corrupted after the write "succeeded".
    /// Non-retryable — retrying re-reads the same bad bytes; the recovery
    /// path is [`latest_valid_generation`] falling back to an older
    /// generation (quarantining this one).
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            CheckpointError::Parse(msg) => write!(f, "checkpoint parse error: {msg}"),
            CheckpointError::UnsupportedVersion { found } => write!(
                f,
                "checkpoint schema version {found:?} is not supported by this build \
                 (expected major {major})",
                major = schema_major(CHECKPOINT_SCHEMA_VERSION).unwrap_or(1),
            ),
            CheckpointError::Mismatch(msg) => write!(f, "checkpoint mismatch: {msg}"),
            CheckpointError::Corrupt(msg) => write!(f, "checkpoint corrupt: {msg}"),
        }
    }
}

impl Error for CheckpointError {}

/// A deterministic structural fingerprint of a graph: op names, kinds,
/// compute times, memory footprints, colocation groups, and the full
/// weighted edge list. Two graphs that fingerprint equal produce the same
/// profile, coarsening, and search under the same seed, which is exactly
/// the property resume needs. (Std's `DefaultHasher` is SipHash with
/// fixed keys — stable across processes, which is what matters for a
/// checkpoint that outlives its writer.)
pub fn graph_fingerprint(graph: &FrozenGraph) -> u64 {
    let mut h = DefaultHasher::new();
    graph.op_count().hash(&mut h);
    for id in graph.op_ids() {
        let op = graph.op(id);
        op.name().hash(&mut h);
        let kind = match op.kind() {
            pesto_graph::DeviceKind::Cpu => 0u8,
            pesto_graph::DeviceKind::Gpu => 1u8,
            pesto_graph::DeviceKind::Kernel => 2u8,
        };
        kind.hash(&mut h);
        op.compute_us().to_bits().hash(&mut h);
        op.memory_bytes().hash(&mut h);
        op.colocation_group().hash(&mut h);
        op.is_weight_update().hash(&mut h);
    }
    for &(src, dst, bytes) in graph.edges() {
        src.index().hash(&mut h);
        dst.index().hash(&mut h);
        bytes.hash(&mut h);
    }
    h.finish()
}

/// Parses the major component of a `major.minor` schema version.
fn schema_major(version: &str) -> Option<u64> {
    version.split('.').next()?.parse().ok()
}

/// Rejects schema versions whose major this build does not understand.
fn check_schema_version(found: &str) -> Result<(), CheckpointError> {
    let ours = schema_major(CHECKPOINT_SCHEMA_VERSION).expect("our own version parses");
    match schema_major(found) {
        Some(major) if major == ours => Ok(()),
        _ => Err(CheckpointError::UnsupportedVersion {
            found: found.to_string(),
        }),
    }
}

/// Extracts the `schema_version` string field from raw checkpoint JSON
/// without a full typed parse, so version rejection happens *before* we
/// try to deserialize a layout this build may not understand. Handles the
/// subset JSON serialization actually emits (the field value is a plain
/// string with no escapes).
fn extract_schema_version(json: &str) -> Option<String> {
    let key = "\"schema_version\"";
    let at = json.find(key)? + key.len();
    let rest = json[at..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// CRC-64/XZ lookup table (reflected ECMA-182 polynomial), built at
/// compile time.
const CRC64_TABLE: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xC96C_5795_D787_0F42
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-64/XZ of `bytes` (reflected ECMA-182, init and xorout all-ones).
fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in bytes {
        crc = CRC64_TABLE[((crc ^ b as u64) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Magic prefix of a checksummed checkpoint file. Files that do not start
/// with this are treated as legacy bare-payload checkpoints.
const ENVELOPE_MAGIC: &str = "{\"pesto_envelope\":1,";

/// Wraps `payload` in the checksummed envelope: a single header line
/// `{"pesto_envelope":1,"len":<N>,"crc64":"<16 hex>"}` followed by the
/// payload verbatim.
fn encode_envelope(payload: &[u8]) -> Vec<u8> {
    let header = format!(
        "{ENVELOPE_MAGIC}\"len\":{},\"crc64\":\"{:016x}\"}}\n",
        payload.len(),
        crc64(payload),
    );
    let mut out = Vec::with_capacity(header.len() + payload.len());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(payload);
    out
}

/// Extracts an unsigned decimal header field (`"len":123`).
fn header_u64(header: &str, key: &str) -> Option<u64> {
    let at = header.find(key)? + key.len();
    let rest = header[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts a quoted hex header field (`"crc64":"00ff..."`).
fn header_hex(header: &str, key: &str) -> Option<u64> {
    let at = header.find(key)? + key.len();
    let rest = header[at..]
        .trim_start()
        .strip_prefix(':')?
        .trim_start()
        .strip_prefix('"')?;
    let end = rest.find('"')?;
    u64::from_str_radix(&rest[..end], 16).ok()
}

/// Validates the envelope and returns the payload slice. A file without
/// the envelope magic is a legacy bare-payload checkpoint and is returned
/// whole (its integrity is then only as good as its JSON parse — exactly
/// the pre-envelope behavior).
///
/// # Errors
///
/// [`CheckpointError::Corrupt`] when the header is unparseable, the
/// payload length differs (torn write), or the CRC does not match
/// (bit rot / corruption).
fn decode_envelope<'a>(raw: &'a [u8], path: &Path) -> Result<&'a [u8], CheckpointError> {
    if !raw.starts_with(ENVELOPE_MAGIC.as_bytes()) {
        return Ok(raw);
    }
    let newline = raw.iter().position(|&b| b == b'\n').ok_or_else(|| {
        CheckpointError::Corrupt(format!("{}: envelope header has no end", path.display()))
    })?;
    let header = std::str::from_utf8(&raw[..newline]).map_err(|_| {
        CheckpointError::Corrupt(format!("{}: envelope header not UTF-8", path.display()))
    })?;
    let (len, crc) = match (
        header_u64(header, "\"len\""),
        header_hex(header, "\"crc64\""),
    ) {
        (Some(len), Some(crc)) => (len, crc),
        _ => {
            return Err(CheckpointError::Corrupt(format!(
                "{}: envelope header missing len/crc64",
                path.display()
            )))
        }
    };
    let payload = &raw[newline + 1..];
    if payload.len() as u64 != len {
        return Err(CheckpointError::Corrupt(format!(
            "{}: payload is {} bytes, envelope says {len} (torn write)",
            path.display(),
            payload.len(),
        )));
    }
    let actual = crc64(payload);
    if actual != crc {
        return Err(CheckpointError::Corrupt(format!(
            "{}: payload crc64 {actual:016x} != envelope {crc:016x}",
            path.display(),
        )));
    }
    Ok(payload)
}

/// Atomically persists `checkpoint` at `path` through `storage` (pass
/// [`FsStorage`](crate::FsStorage) for the real filesystem): the payload
/// JSON is wrapped in the checksummed envelope and handed to
/// [`Storage::write_atomic`] (sibling temp file + rename), so a crash at
/// any point leaves either the old checkpoint or the new one — never a
/// torn *visible* file, and storage-level tearing of the contents is
/// caught at load time by the checksum.
///
/// # Errors
///
/// [`CheckpointError::Io`] on any storage failure;
/// [`CheckpointError::Parse`] if serialization itself fails.
pub fn save_checkpoint(
    storage: &dyn Storage,
    path: &Path,
    checkpoint: &SearchCheckpoint,
) -> Result<(), CheckpointError> {
    let json = serde_json::to_string(checkpoint)
        .map_err(|e| CheckpointError::Parse(format!("serialize: {e}")))?;
    let bytes = encode_envelope(json.as_bytes());
    storage
        .write_atomic(path, &bytes)
        .map_err(|e| CheckpointError::Io(format!("write {}: {e}", path.display())))
}

/// File path for generation `generation` of job `stem` under `dir`:
/// `<dir>/<stem>.gen-<N>.json`. Writing successive generations to
/// distinct files (each atomically, via [`save_checkpoint`]) means the
/// previous generation survives until the new one is durably in place;
/// [`prune`] then garbage-collects the superseded ones.
pub fn generation_path(dir: &Path, stem: &str, generation: u64) -> PathBuf {
    dir.join(format!("{stem}.gen-{generation}.json"))
}

/// Parses a generational checkpoint file name back into `(stem, N)`.
/// Returns `None` for anything that is not `<stem>.gen-<N>.json`.
fn parse_generation(name: &str) -> Option<(&str, u64)> {
    let base = name.strip_suffix(".json")?;
    let at = base.rfind(".gen-")?;
    let generation: u64 = base[at + ".gen-".len()..].parse().ok()?;
    Some((&base[..at], generation))
}

/// The regular files directly under `dir` with UTF-8 names, as
/// `(name, path)`. A missing directory lists as empty: restart scans
/// treat "nothing to resume" as a fresh start, not an error.
/// Subdirectories such as `quarantine/` are never listed.
fn list_dir(dir: &Path) -> Result<Vec<(String, PathBuf)>, CheckpointError> {
    let list_err = |e: std::io::Error| CheckpointError::Io(format!("list {}: {e}", dir.display()));
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(list_err(e)),
    };
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(list_err)?;
        if !entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
            continue;
        }
        if let Ok(name) = entry.file_name().into_string() {
            files.push((name, entry.path()));
        }
    }
    Ok(files)
}

/// The generations of `stem` under `dir`, in listing order.
fn generations_of(dir: &Path, stem: &str) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
    Ok(list_dir(dir)?
        .into_iter()
        .filter_map(|(name, path)| match parse_generation(&name) {
            Some((s, generation)) if s == stem => Some((generation, path)),
            _ => None,
        })
        .collect())
}

/// Finds the newest checkpoint generation of `stem` under `dir`.
/// A missing directory (or no matching files) is `Ok(None)`.
///
/// # Errors
///
/// [`CheckpointError::Io`] if the directory exists but cannot be listed.
pub fn latest_generation(
    dir: &Path,
    stem: &str,
) -> Result<Option<(u64, PathBuf)>, CheckpointError> {
    Ok(generations_of(dir, stem)?
        .into_iter()
        .max_by_key(|(generation, _)| *generation))
}

/// What [`prune`] deleted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// Superseded generation files removed.
    pub removed_generations: usize,
    /// Orphaned `*.tmp` files (from a crash between write and rename)
    /// swept.
    pub removed_tmp: usize,
}

/// Rotation/GC for a checkpoint directory: keeps the newest `keep_n`
/// generations of every job stem (at least one is always kept, even with
/// `keep_n == 0` — pruning must never delete a job's only checkpoint)
/// and sweeps orphaned `*.tmp` files left by a crash between the temp
/// write and the rename. Removals go through `storage` (fault injection
/// in tests) and run oldest-generation-first per stem, so a crash — or
/// an injected failure — at any point during the sweep leaves the newest
/// generations intact: there is no window where a job has zero loadable
/// checkpoints on disk.
///
/// A missing directory is a no-op `Ok` — calling this unconditionally on
/// daemon startup is safe before any checkpoint was ever written. The
/// caller must ensure no write is in flight in `dir` while pruning (the
/// `pesto-serve` daemon prunes per-job directories from the job's own
/// worker, and globally only at startup, before workers exist), otherwise
/// the sweep could race a live temp file.
///
/// # Errors
///
/// [`CheckpointError::Io`] if listing the directory or deleting a file
/// fails; deletions already performed are not rolled back.
pub fn prune(
    storage: &dyn Storage,
    dir: &Path,
    keep_n: usize,
) -> Result<PruneReport, CheckpointError> {
    let keep_n = keep_n.max(1);
    let mut report = PruneReport::default();
    let remove = |path: &Path| {
        storage
            .remove_file(path)
            .map_err(|e| CheckpointError::Io(format!("remove {}: {e}", path.display())))
    };
    let mut generations: std::collections::BTreeMap<String, Vec<(u64, PathBuf)>> =
        std::collections::BTreeMap::new();
    for (name, path) in list_dir(dir)? {
        if name.ends_with(".tmp") {
            remove(&path)?;
            report.removed_tmp += 1;
        } else if let Some((stem, generation)) = parse_generation(&name) {
            generations
                .entry(stem.to_string())
                .or_default()
                .push((generation, path));
        }
    }
    for (_, mut gens) in generations {
        gens.sort_by_key(|(g, _)| *g);
        let cut = gens.len().saturating_sub(keep_n);
        for (_, path) in gens.drain(..cut) {
            remove(&path)?;
            report.removed_generations += 1;
        }
    }
    Ok(report)
}

/// Loads and validates a checkpoint from `path` through `storage` (pass
/// [`FsStorage`](crate::FsStorage) for the real filesystem).
///
/// The checksummed envelope is verified first (legacy bare-payload files
/// skip this), then the schema major version is checked *before* the full
/// parse, so a future-format file fails with
/// [`CheckpointError::UnsupportedVersion`] rather than an opaque
/// deserialization error.
///
/// # Errors
///
/// [`CheckpointError::Io`] if the file cannot be read,
/// [`CheckpointError::Corrupt`] if the envelope checksum or length does
/// not match the payload, [`CheckpointError::UnsupportedVersion`] for
/// unknown majors, [`CheckpointError::Parse`] for anything that is not a
/// checkpoint.
pub fn load_checkpoint(
    storage: &dyn Storage,
    path: &Path,
) -> Result<SearchCheckpoint, CheckpointError> {
    let bytes = storage
        .read(path)
        .map_err(|e| CheckpointError::Io(format!("read {}: {e}", path.display())))?;
    let payload = decode_envelope(&bytes, path)?;
    let raw = std::str::from_utf8(payload)
        .map_err(|_| CheckpointError::Parse(format!("{}: payload not UTF-8", path.display())))?;
    match extract_schema_version(raw) {
        Some(version) => check_schema_version(&version)?,
        None => {
            return Err(CheckpointError::Parse(format!(
                "{}: no schema_version field",
                path.display()
            )))
        }
    }
    let checkpoint: SearchCheckpoint = serde_json::from_str(raw)
        .map_err(|e| CheckpointError::Parse(format!("{}: {e}", path.display())))?;
    Ok(checkpoint)
}

/// Moves a corrupt file into a `quarantine/` subdirectory beside it
/// (creating the directory if needed) and returns the new path. Corrupt
/// checkpoints are preserved, not deleted: the quarantined bytes are the
/// evidence a postmortem needs to tell torn writes from bit rot from
/// software bugs. `quarantine/` is invisible to [`latest_generation`] and
/// [`prune`], which only consider regular files directly under the
/// checkpoint directory. The move goes through `storage` (pass
/// [`FsStorage`](crate::FsStorage) for the real filesystem).
///
/// # Errors
///
/// [`CheckpointError::Io`] if the directory cannot be created or the file
/// cannot be moved.
pub fn quarantine_file(storage: &dyn Storage, path: &Path) -> Result<PathBuf, CheckpointError> {
    let parent = path.parent().unwrap_or_else(|| Path::new("."));
    let qdir = parent.join("quarantine");
    storage
        .create_dir_all(&qdir)
        .map_err(|e| CheckpointError::Io(format!("create {}: {e}", qdir.display())))?;
    let name = path.file_name().ok_or_else(|| {
        CheckpointError::Io(format!("{}: no file name to quarantine", path.display()))
    })?;
    let dest = qdir.join(name);
    storage.rename(path, &dest).map_err(|e| {
        CheckpointError::Io(format!(
            "quarantine {} -> {}: {e}",
            path.display(),
            dest.display()
        ))
    })?;
    Ok(dest)
}

/// Outcome of a [`latest_valid_generation`] scan.
#[derive(Debug, Clone, Default)]
pub struct GenerationScan {
    /// The newest generation that loaded and validated, if any:
    /// `(generation, path, checkpoint)`.
    pub valid: Option<(u64, PathBuf, SearchCheckpoint)>,
    /// Generations that failed validation (corrupt, unparseable, wrong
    /// schema, or wrong job) and were moved into `quarantine/`. Newest
    /// first.
    pub quarantined: Vec<PathBuf>,
    /// Generations skipped because of a (possibly transient) read error.
    /// Not quarantined — the bytes on disk may be fine.
    pub skipped_io: Vec<PathBuf>,
}

/// The corruption-tolerant replacement for [`latest_generation`]: walks
/// the generations of `stem` under `dir` newest-first until one loads and
/// passes `validate(generation, &checkpoint)` (typically
/// [`SearchCheckpoint::verify`] against the expected fingerprint and the
/// generation's seed). Reads and quarantine moves go through `storage`
/// (pass [`FsStorage`](crate::FsStorage) for the real filesystem).
///
/// Generations that fail — corrupt envelope, unparseable payload,
/// unsupported schema, or `validate` rejection — are moved into
/// `quarantine/` ([`quarantine_file`]) and the walk continues to the
/// next-older generation. Generations whose *read* fails are skipped but
/// left in place (the error may be transient; destroying the newest
/// checkpoint over a flaky read would be worse than resuming older). A
/// missing directory, or no generation surviving the walk, yields
/// `valid: None` — a fresh start, exactly like [`latest_generation`]
/// returning `None`.
///
/// # Errors
///
/// [`CheckpointError::Io`] only if the directory exists but cannot be
/// listed; per-generation failures are reported in the scan, not as
/// errors.
pub fn latest_valid_generation(
    storage: &dyn Storage,
    dir: &Path,
    stem: &str,
    validate: &dyn Fn(u64, &SearchCheckpoint) -> Result<(), CheckpointError>,
) -> Result<GenerationScan, CheckpointError> {
    let mut scan = GenerationScan::default();
    let mut gens = generations_of(dir, stem)?;
    gens.sort_by_key(|(g, _)| std::cmp::Reverse(*g));
    for (generation, path) in gens {
        match load_checkpoint(storage, &path).and_then(|ckpt| {
            validate(generation, &ckpt)?;
            Ok(ckpt)
        }) {
            Ok(ckpt) => {
                scan.valid = Some((generation, path, ckpt));
                break;
            }
            Err(CheckpointError::Io(_)) => scan.skipped_io.push(path),
            Err(_) => match quarantine_file(storage, &path) {
                Ok(dest) => scan.quarantined.push(dest),
                // Quarantine itself failed (disk trouble); leave the file
                // and record it as skipped rather than aborting the walk.
                Err(_) => scan.skipped_io.push(path),
            },
        }
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::FsStorage;
    use pesto_models::ModelSpec;
    use std::path::PathBuf;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "pesto-checkpoint-test-{}-{name}",
            std::process::id()
        ));
        p
    }

    #[test]
    fn prune_keeps_newest_generations_and_sweeps_tmp() {
        let dir = tmp_path("prune-dir");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        for g in 0..5u64 {
            fs::write(generation_path(&dir, "job-a", g), b"{}").unwrap();
        }
        for g in 3..5u64 {
            fs::write(generation_path(&dir, "job-b", g), b"{}").unwrap();
        }
        // Orphaned atomic-write leftovers and unrelated files.
        fs::write(dir.join("job-a.gen-9.json.tmp"), b"torn").unwrap();
        fs::write(dir.join("notes.txt"), b"keep me").unwrap();
        let report = prune(&FsStorage, &dir, 2).unwrap();
        assert_eq!(report.removed_generations, 3, "job-a generations 0..=2");
        assert_eq!(report.removed_tmp, 1);
        assert!(generation_path(&dir, "job-a", 3).exists());
        assert!(generation_path(&dir, "job-a", 4).exists());
        assert!(!generation_path(&dir, "job-a", 0).exists());
        assert!(generation_path(&dir, "job-b", 3).exists());
        assert!(generation_path(&dir, "job-b", 4).exists());
        assert!(!dir.join("job-a.gen-9.json.tmp").exists());
        assert!(dir.join("notes.txt").exists(), "non-checkpoint files stay");
        // Idempotent: a second prune finds nothing left to do.
        assert_eq!(prune(&FsStorage, &dir, 2).unwrap(), PruneReport::default());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_missing_dir_is_a_noop() {
        let dir = tmp_path("prune-missing");
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(prune(&FsStorage, &dir, 3).unwrap(), PruneReport::default());
    }

    #[test]
    fn prune_never_deletes_the_only_checkpoint() {
        let dir = tmp_path("prune-keep-one");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(generation_path(&dir, "solo", 7), b"{}").unwrap();
        // keep_n == 0 is clamped: a job's only checkpoint must survive.
        assert_eq!(prune(&FsStorage, &dir, 0).unwrap(), PruneReport::default());
        assert!(generation_path(&dir, "solo", 7).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_generation_finds_the_newest_of_the_right_stem() {
        let dir = tmp_path("latest-gen");
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(latest_generation(&dir, "job").unwrap(), None);
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(latest_generation(&dir, "job").unwrap(), None);
        for g in [2u64, 10, 5] {
            fs::write(generation_path(&dir, "job", g), b"{}").unwrap();
        }
        fs::write(generation_path(&dir, "other", 99), b"{}").unwrap();
        let (generation, path) = latest_generation(&dir, "job").unwrap().unwrap();
        assert_eq!(generation, 10);
        assert_eq!(path, generation_path(&dir, "job", 10));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generation_files_roundtrip_through_the_atomic_writer() {
        let dir = tmp_path("gen-roundtrip");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let ckpt = SearchCheckpoint::new(0xfeed, 3);
        save_checkpoint(&FsStorage, &generation_path(&dir, "job", 0), &ckpt).unwrap();
        let mut newer = SearchCheckpoint::new(0xfeed, 3);
        newer.incumbent = None;
        save_checkpoint(&FsStorage, &generation_path(&dir, "job", 1), &newer).unwrap();
        let (generation, path) = latest_generation(&dir, "job").unwrap().unwrap();
        assert_eq!(generation, 1);
        let loaded = load_checkpoint(&FsStorage, &path).unwrap();
        assert_eq!(loaded.verify(0xfeed, 3), Ok(()));
        // Rotation leaves exactly the newest file.
        prune(&FsStorage, &dir, 1).unwrap();
        assert!(!generation_path(&dir, "job", 0).exists());
        assert!(generation_path(&dir, "job", 1).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_is_deterministic_and_sensitive() {
        let a = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        let b = ModelSpec::transformer(1, 2, 64).generate(4, 1);
        assert_eq!(graph_fingerprint(&a), graph_fingerprint(&b));
        let wider = ModelSpec::transformer(1, 2, 128).generate(4, 1);
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&wider));
        let deeper = ModelSpec::transformer(2, 2, 64).generate(4, 1);
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&deeper));
        // A single op time flips the fingerprint too.
        let mut thawed = a.clone().thaw();
        let id = pesto_graph::OpId::from_index(0);
        let t = thawed.op(id).compute_us();
        thawed.op_mut(id).set_compute_us(t + 1.0);
        let perturbed = thawed.freeze().unwrap();
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&perturbed));
    }

    #[test]
    fn verify_rejects_the_wrong_job() {
        let ckpt = SearchCheckpoint::new(0xabcd, 7);
        assert_eq!(ckpt.verify(0xabcd, 7), Ok(()));
        assert!(matches!(
            ckpt.verify(0xefef, 7),
            Err(CheckpointError::Mismatch(_))
        ));
        assert!(matches!(
            ckpt.verify(0xabcd, 8),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn schema_version_gate_accepts_minors_and_rejects_majors() {
        assert!(check_schema_version("1.0").is_ok());
        assert!(check_schema_version("1.7").is_ok());
        for bad in ["2.0", "0.9", "hello", ""] {
            assert_eq!(
                check_schema_version(bad),
                Err(CheckpointError::UnsupportedVersion {
                    found: bad.to_string()
                }),
                "version {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn version_is_extracted_without_a_full_parse() {
        let json = r#"{"schema_version": "3.1", "graph_fingerprint": 1}"#;
        assert_eq!(extract_schema_version(json).as_deref(), Some("3.1"));
        assert_eq!(extract_schema_version("{}"), None);
    }

    #[test]
    fn save_load_round_trips_and_rejects_future_majors() {
        let path = tmp_path("roundtrip.json");
        let ckpt = SearchCheckpoint::new(0x1234_5678, 42);
        save_checkpoint(&FsStorage, &path, &ckpt).unwrap();
        let back = load_checkpoint(&FsStorage, &path).unwrap();
        assert_eq!(back, ckpt);

        // A future-major file is refused cleanly, before parsing. Rewrite
        // the payload *and* its envelope — this is a well-formed future
        // file, not a corrupt one.
        let raw = std::fs::read(&path).unwrap();
        let payload = decode_envelope(&raw, &path).unwrap();
        let future = std::str::from_utf8(payload)
            .unwrap()
            .replace("\"1.0\"", "\"2.0\"");
        std::fs::write(&path, encode_envelope(future.as_bytes())).unwrap();
        assert!(matches!(
            load_checkpoint(&FsStorage, &path),
            Err(CheckpointError::UnsupportedVersion { found }) if found == "2.0"
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crc64_matches_the_reference_vector() {
        // CRC-64/XZ check value from the catalogue of parametrised CRCs.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn envelope_rejects_torn_and_bit_flipped_payloads() {
        let payload = br#"{"schema_version":"1.0","graph_fingerprint":1}"#;
        let bytes = encode_envelope(payload);
        let path = Path::new("test.json");
        assert_eq!(decode_envelope(&bytes, path).unwrap(), payload.as_slice());

        // Torn: the payload lost its tail but the header survived.
        let torn = &bytes[..bytes.len() - 5];
        assert!(matches!(
            decode_envelope(torn, path),
            Err(CheckpointError::Corrupt(msg)) if msg.contains("torn")
        ));

        // Bit flip in the payload: length matches, CRC does not.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        assert!(matches!(
            decode_envelope(&flipped, path),
            Err(CheckpointError::Corrupt(msg)) if msg.contains("crc64")
        ));

        // A file without the magic is a legacy payload, returned whole.
        assert_eq!(decode_envelope(payload, path).unwrap(), payload.as_slice());
    }

    #[test]
    fn legacy_unchecksummed_checkpoints_still_load() {
        let path = tmp_path("legacy.json");
        let ckpt = SearchCheckpoint::new(0xbeef, 9);
        // Pre-envelope writers stored the bare payload JSON.
        let payload = serde_json::to_string(&ckpt).unwrap();
        fs::write(&path, payload.as_bytes()).unwrap();
        assert_eq!(load_checkpoint(&FsStorage, &path).unwrap(), ckpt);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupting_the_saved_file_is_detected() {
        let path = tmp_path("detect-corrupt.json");
        let ckpt = SearchCheckpoint::new(0xc0de, 1);
        save_checkpoint(&FsStorage, &path, &ckpt).unwrap();
        // Saved files carry the envelope and round-trip.
        assert_eq!(load_checkpoint(&FsStorage, &path).unwrap(), ckpt);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_checkpoint(&FsStorage, &path),
            Err(CheckpointError::Corrupt(_))
        ));
        // Truncation (a torn writeback) is detected too.
        save_checkpoint(&FsStorage, &path, &ckpt).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            load_checkpoint(&FsStorage, &path),
            Err(CheckpointError::Corrupt(_))
        ));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn latest_valid_generation_walks_past_corruption_and_quarantines() {
        let dir = tmp_path("valid-gen-walk");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let accept_job = |_: u64, ckpt: &SearchCheckpoint| -> Result<(), CheckpointError> {
            ckpt.verify(0xfeed, 5)
        };

        // Missing dir and empty dir are both a clean fresh start.
        let empty =
            latest_valid_generation(&FsStorage, &tmp_path("valid-gen-none"), "job", &accept_job)
                .unwrap();
        assert!(empty.valid.is_none() && empty.quarantined.is_empty());

        let ckpt = SearchCheckpoint::new(0xfeed, 5);
        for g in 0..3u64 {
            save_checkpoint(&FsStorage, &generation_path(&dir, "job", g), &ckpt).unwrap();
        }
        // Corrupt the newest generation and tear the one below it.
        let g2 = generation_path(&dir, "job", 2);
        let mut bytes = fs::read(&g2).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&g2, &bytes).unwrap();
        let g1 = generation_path(&dir, "job", 1);
        let bytes = fs::read(&g1).unwrap();
        fs::write(&g1, &bytes[..bytes.len() / 2]).unwrap();

        let scan = latest_valid_generation(&FsStorage, &dir, "job", &accept_job).unwrap();
        let (generation, path, loaded) = scan.valid.expect("gen-0 survives");
        assert_eq!(generation, 0);
        assert_eq!(path, generation_path(&dir, "job", 0));
        assert_eq!(loaded, ckpt);
        // Both bad generations moved into quarantine/, newest first.
        assert_eq!(
            scan.quarantined,
            vec![
                dir.join("quarantine").join("job.gen-2.json"),
                dir.join("quarantine").join("job.gen-1.json"),
            ]
        );
        assert!(!g2.exists() && !g1.exists());
        assert!(scan.skipped_io.is_empty());

        // The wrong job is also walked past (and quarantined): a stray
        // checkpoint must never be resumed into a different job.
        let mut wrong = SearchCheckpoint::new(0xdead, 5);
        wrong.incumbent = None;
        save_checkpoint(&FsStorage, &generation_path(&dir, "job", 3), &wrong).unwrap();
        let scan = latest_valid_generation(&FsStorage, &dir, "job", &accept_job).unwrap();
        assert_eq!(scan.valid.as_ref().map(|(g, _, _)| *g), Some(0));
        assert_eq!(scan.quarantined.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A storage that fails every `remove_file` after the first `n`,
    /// simulating a crash (SIGKILL) landing mid-prune.
    #[derive(Debug)]
    struct StopAfterN {
        budget: std::sync::Mutex<usize>,
    }

    impl Storage for StopAfterN {
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            FsStorage.read(path)
        }
        fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            FsStorage.write_atomic(path, bytes)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            let mut budget = self.budget.lock().unwrap();
            if *budget == 0 {
                return Err(std::io::Error::other("killed mid-prune"));
            }
            *budget -= 1;
            FsStorage.remove_file(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            FsStorage.rename(from, to)
        }
        fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
            FsStorage.create_dir_all(path)
        }
    }

    #[test]
    fn prune_interrupted_at_any_point_leaves_a_loadable_checkpoint() {
        let ckpt = SearchCheckpoint::new(0xfade, 11);
        let accept =
            |_: u64, c: &SearchCheckpoint| -> Result<(), CheckpointError> { c.verify(0xfade, 11) };
        // 6 generations, keep 2 => prune wants 4 removals. Kill it after
        // every possible number of completed removals (0..=4) and check
        // the survivors always include a loadable, *newest-possible*
        // checkpoint.
        for killed_after in 0..=4usize {
            let dir = tmp_path(&format!("prune-race-{killed_after}"));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            for g in 0..6u64 {
                save_checkpoint(&FsStorage, &generation_path(&dir, "job", g), &ckpt).unwrap();
            }
            let storage = StopAfterN {
                budget: std::sync::Mutex::new(killed_after),
            };
            let result = prune(&storage, &dir, 2);
            if killed_after < 4 {
                assert!(result.is_err(), "prune should have been interrupted");
            } else {
                assert_eq!(result.unwrap().removed_generations, 4);
            }
            let scan = latest_valid_generation(&FsStorage, &dir, "job", &accept).unwrap();
            let (generation, path, _) = scan.valid.expect("a checkpoint must survive");
            // Deletion is oldest-first, so the newest generation is
            // untouched no matter where the kill landed.
            assert_eq!(generation, 5);
            assert_eq!(load_checkpoint(&FsStorage, &path).unwrap(), ckpt);
            assert!(scan.quarantined.is_empty());
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn quarantine_moves_the_file_beside_its_directory() {
        let dir = tmp_path("quarantine-move");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let victim = dir.join("job.gen-3.json");
        fs::write(&victim, b"corrupt bytes").unwrap();
        let dest = quarantine_file(&FsStorage, &victim).unwrap();
        assert_eq!(dest, dir.join("quarantine").join("job.gen-3.json"));
        assert!(!victim.exists());
        assert_eq!(fs::read(&dest).unwrap(), b"corrupt bytes");
        // Quarantined files are invisible to the generation scan and to
        // prune's sweep.
        assert_eq!(latest_generation(&dir, "job").unwrap(), None);
        assert_eq!(prune(&FsStorage, &dir, 1).unwrap(), PruneReport::default());
        assert!(dest.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loading_garbage_is_a_typed_error() {
        let path = tmp_path("garbage.json");
        std::fs::write(&path, "not a checkpoint").unwrap();
        assert!(matches!(
            load_checkpoint(&FsStorage, &path),
            Err(CheckpointError::Parse(_))
        ));
        let _ = std::fs::remove_file(&path);
        assert!(matches!(
            load_checkpoint(&FsStorage, &path),
            Err(CheckpointError::Io(_))
        ));
    }
}
