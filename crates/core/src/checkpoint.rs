//! Durable checkpoint/resume for Algorithm-1 runs.
//!
//! Algorithm 1 is a long multi-iteration schedule (train to AD saturation,
//! re-quantize, repeat); at production scale a crash at iteration 3 must not
//! discard iterations 1–2. This module captures everything the controller
//! needs to continue a run bit-exactly:
//!
//! * model parameters and batch-norm running statistics (`adq-nn`),
//! * per-layer bit-widths and the structural edits (pruning, dead-layer
//!   removal) that reshaped the model (`adq-quant` / controller),
//! * optimizer moments and timestep ([`adq_nn::AdamState`]),
//! * the exact RNG keystream position driving epoch shuffles,
//! * completed [`IterationRecord`]s and the iteration cursor,
//! * the eqn-4 baseline energy the run normalises against.
//!
//! Files are written atomically (temp file + rename in the same directory)
//! and carry a FNV-1a content checksum in a one-line header, so a process
//! killed mid-write can never leave a checkpoint that silently loads: a
//! truncated or corrupted file is rejected with a typed [`CheckpointError`].

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use adq_nn::train::import_params;
use adq_nn::{AdamState, QuantModel};
use adq_quant::BitWidth;
use adq_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::controller::{AdqConfig, IterationRecord};

/// Current checkpoint format version; files with any other version are
/// rejected with [`CheckpointError::UnsupportedVersion`].
pub const CHECKPOINT_VERSION: u32 = 1;

/// Magic token opening every checkpoint header line.
const MAGIC: &str = "ADQCKPT";

/// Why a checkpoint could not be written or read.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (create, write, rename, read).
    Io(std::io::Error),
    /// The file does not start with a well-formed `ADQCKPT` header —
    /// truncated at byte 0, or not a checkpoint at all.
    MissingHeader,
    /// The header is valid but written by an incompatible format version.
    UnsupportedVersion(u32),
    /// The payload bytes do not match the header checksum — the file was
    /// truncated or corrupted after the header was written.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload actually on disk.
        actual: u64,
    },
    /// The payload passed its checksum but is not a deserializable
    /// [`RunCheckpoint`] (format drift within a version is a bug).
    Malformed(String),
    /// The checkpoint's [`AdqConfig`] disagrees with the resuming
    /// controller's — resuming would not reproduce the original run.
    ConfigMismatch(String),
    /// The checkpoint does not fit the model offered for resumption
    /// (layer count, parameter shapes, or normalisation stats disagree).
    ModelMismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(err) => write!(f, "checkpoint i/o error: {err}"),
            CheckpointError::MissingHeader => {
                write!(f, "not a checkpoint file (missing {MAGIC} header)")
            }
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (supported: {CHECKPOINT_VERSION})"
                )
            }
            CheckpointError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint payload corrupted: checksum {actual:016x}, header says {expected:016x}"
            ),
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint payload: {msg}"),
            CheckpointError::ConfigMismatch(msg) => write!(f, "config mismatch: {msg}"),
            CheckpointError::ModelMismatch(msg) => write!(f, "model mismatch: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(err: std::io::Error) -> Self {
        CheckpointError::Io(err)
    }
}

/// A structural edit the controller applied to the model between
/// iterations. Recorded in application order with the layer indices that
/// were valid *at application time*, so replaying the list onto a freshly
/// built model reproduces the checkpointed architecture exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StructuralOp {
    /// Eqn-5 channel pruning: layer `layer` was pruned to `keep` channels.
    Prune {
        /// Layer index at application time.
        layer: usize,
        /// Channels kept.
        keep: usize,
    },
    /// Table II iter-2a dead-layer removal.
    Remove {
        /// Layer index at application time (pre-removal numbering).
        layer: usize,
    },
}

/// RNG keystream position, as exported by [`adq_tensor::init::rng_state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RngState {
    /// ChaCha key words derived from the run seed.
    pub key: [u32; 8],
    /// Next block counter.
    pub counter: u64,
    /// Next unserved word within the current block.
    pub index: u32,
}

/// Everything needed to continue an [`crate::AdQuantizer::run`] bit-exactly
/// from an iteration boundary. See the module docs for the field ↔
/// Algorithm-1 state mapping, and DESIGN.md §"Checkpoint & resume".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`] at write time).
    pub version: u32,
    /// The controller configuration of the originating run; resume refuses
    /// to continue under a different configuration.
    pub config: AdqConfig,
    /// 1-based iteration the resumed run starts at.
    pub next_iteration: usize,
    /// Records of all completed iterations, in order.
    pub iterations: Vec<IterationRecord>,
    /// Pruning/removal edits applied so far, in application order.
    pub structural_ops: Vec<StructuralOp>,
    /// Trainable parameter values in stable slot order
    /// ([`adq_nn::train::export_params`]).
    pub params: Vec<Tensor>,
    /// Batch-norm running `(mean, var)` per normalisation layer.
    pub norm_stats: Vec<(Vec<f32>, Vec<f32>)>,
    /// Per-layer bit-widths after the last re-quantization.
    pub bits: Vec<Option<BitWidth>>,
    /// Adam moments and timestep.
    pub optimizer: AdamState,
    /// Exact position of the epoch-shuffle RNG stream.
    pub rng: RngState,
    /// The eqn-4 baseline energy (pJ) computed at run start, so resumed
    /// iterations report the same `mac_reduction` as the original run.
    pub baseline_energy_pj: f64,
    /// Microbatch size of a run trained by the former microbatch trainer.
    /// Runs are trained serially and always write `None`; resume refuses a
    /// checkpoint carrying `Some(n)`, since continuing it serially would
    /// not reproduce the interrupted run. Defaults to `None` when absent,
    /// so checkpoints that predate the field stay loadable.
    #[serde(default)]
    pub microbatch: Option<usize>,
}

impl RunCheckpoint {
    /// Serialises to the on-disk representation: a checksummed header line
    /// followed by the JSON payload.
    fn to_bytes(&self) -> Result<Vec<u8>, CheckpointError> {
        let payload =
            serde_json::to_string(self).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        let checksum = fnv1a64(payload.as_bytes());
        let mut out = format!("{MAGIC} {} {checksum:016x}\n", self.version).into_bytes();
        out.extend_from_slice(payload.as_bytes());
        Ok(out)
    }

    /// Writes the checkpoint atomically: serialise to `<path>.tmp` in the
    /// destination directory, fsync, then rename over `path`. Readers
    /// therefore see either the previous complete file or the new complete
    /// file, never a partial write.
    ///
    /// Returns the serialized size in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on filesystem failure.
    pub fn save_atomic(&self, path: &Path) -> Result<u64, CheckpointError> {
        let bytes = self.to_bytes()?;
        let tmp = tmp_path(path);
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
        }
        if let Err(err) = fs::rename(&tmp, path) {
            let _ = fs::remove_file(&tmp);
            return Err(err.into());
        }
        Ok(bytes.len() as u64)
    }

    /// Loads and validates a checkpoint file.
    ///
    /// # Errors
    ///
    /// * [`CheckpointError::Io`] — unreadable file,
    /// * [`CheckpointError::MissingHeader`] — not a checkpoint / truncated
    ///   before the header completed,
    /// * [`CheckpointError::UnsupportedVersion`] — incompatible format,
    /// * [`CheckpointError::ChecksumMismatch`] — truncated or corrupted
    ///   payload; never silently loaded,
    /// * [`CheckpointError::Malformed`] — checksum passed but the payload
    ///   is not a valid [`RunCheckpoint`].
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let raw = fs::read(path)?;
        let newline = raw
            .iter()
            .position(|&b| b == b'\n')
            .ok_or(CheckpointError::MissingHeader)?;
        let header =
            std::str::from_utf8(&raw[..newline]).map_err(|_| CheckpointError::MissingHeader)?;
        let mut fields = header.split_ascii_whitespace();
        if fields.next() != Some(MAGIC) {
            return Err(CheckpointError::MissingHeader);
        }
        let version: u32 = fields
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or(CheckpointError::MissingHeader)?;
        let expected = fields
            .next()
            .and_then(|c| u64::from_str_radix(c, 16).ok())
            .ok_or(CheckpointError::MissingHeader)?;
        if fields.next().is_some() {
            return Err(CheckpointError::MissingHeader);
        }
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let payload = &raw[newline + 1..];
        let actual = fnv1a64(payload);
        if actual != expected {
            return Err(CheckpointError::ChecksumMismatch { expected, actual });
        }
        let text =
            std::str::from_utf8(payload).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        let checkpoint: RunCheckpoint =
            serde_json::from_str(text).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        Ok(checkpoint)
    }
}

/// Sibling temp path used for the atomic write.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("checkpoint"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(".tmp");
    path.with_file_name(name)
}

/// 64-bit FNV-1a over the payload bytes — cheap, dependency-free, and more
/// than enough to detect truncation and bit rot (this is an integrity
/// check, not an authenticity check).
fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Owns a checkpoint directory: one file per completed iteration
/// (`iter-NNNN.ckpt`), written atomically, discovered by scanning.
///
/// # Example
///
/// ```no_run
/// use adq_core::checkpoint::CheckpointManager;
///
/// let manager = CheckpointManager::new("checkpoints/run-a")?;
/// if let Some(checkpoint) = manager.load_latest()? {
///     println!("resumable at iteration {}", checkpoint.next_iteration);
/// }
/// # Ok::<(), adq_core::checkpoint::CheckpointError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CheckpointManager {
    dir: PathBuf,
}

impl CheckpointManager {
    /// Creates the directory (and parents) if needed.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The managed directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the checkpoint covering completed iteration `iteration`.
    pub fn path_for_iteration(&self, iteration: usize) -> PathBuf {
        self.dir.join(format!("iter-{iteration:04}.ckpt"))
    }

    /// Atomically writes `checkpoint` as the file for its last completed
    /// iteration, returning `(path, bytes)`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on filesystem failure.
    pub fn save(&self, checkpoint: &RunCheckpoint) -> Result<(PathBuf, u64), CheckpointError> {
        let iteration = checkpoint.next_iteration.saturating_sub(1);
        let path = self.path_for_iteration(iteration);
        let bytes = checkpoint.save_atomic(&path)?;
        Ok((path, bytes))
    }

    /// Path of the highest-numbered checkpoint in the directory, if any.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if the directory cannot be read.
    pub fn latest(&self) -> Result<Option<PathBuf>, CheckpointError> {
        let mut best: Option<(usize, PathBuf)> = None;
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(iteration) = iteration_of(&path) else {
                continue;
            };
            if best.as_ref().is_none_or(|(i, _)| iteration > *i) {
                best = Some((iteration, path));
            }
        }
        Ok(best.map(|(_, path)| path))
    }

    /// Loads the highest-numbered checkpoint, or `None` when the directory
    /// holds none.
    ///
    /// # Errors
    ///
    /// Propagates every [`RunCheckpoint::load`] failure — a corrupted
    /// latest checkpoint is an error, not a silent fresh start.
    pub fn load_latest(&self) -> Result<Option<RunCheckpoint>, CheckpointError> {
        match self.latest()? {
            Some(path) => Ok(Some(RunCheckpoint::load(&path)?)),
            None => Ok(None),
        }
    }
}

/// Rebuilds a checkpoint's *model* state onto `model`, which must be a
/// freshly constructed instance of the originating run's architecture
/// (same constructor arguments; the construction seed is irrelevant
/// because every parameter is overwritten).
///
/// Replays the structural edits in application order, restores per-layer
/// bit-widths, imports parameters, and installs batch-norm running
/// statistics — everything inference needs. Training-only state
/// (optimizer moments, RNG position, iteration records) is *not* touched;
/// the controller layers that on top when resuming a run, while serving
/// and deployment paths use this alone to lower a trained artifact.
///
/// # Errors
///
/// Returns [`CheckpointError::ModelMismatch`] when the model rejects a
/// structural replay, the layer count after replay disagrees with the
/// checkpoint, or parameter/norm-stat shapes do not line up — i.e. the
/// model handed in was not built like the checkpointed one.
pub fn restore_model(
    model: &mut dyn QuantModel,
    ckpt: &RunCheckpoint,
) -> Result<(), CheckpointError> {
    // replay the original run's structural edits, in application order,
    // to rebuild the checkpointed architecture
    for op in &ckpt.structural_ops {
        let ok = match *op {
            StructuralOp::Prune { layer, keep } => model.prune_layer_to(layer, keep),
            StructuralOp::Remove { layer } => model.remove_layer(layer),
        };
        if !ok {
            return Err(CheckpointError::ModelMismatch(format!(
                "model rejected structural replay of {op:?}"
            )));
        }
    }
    if model.layer_count() != ckpt.bits.len() {
        return Err(CheckpointError::ModelMismatch(format!(
            "{} layers after structural replay, checkpoint has {}",
            model.layer_count(),
            ckpt.bits.len()
        )));
    }
    for (idx, bits) in ckpt.bits.iter().enumerate() {
        model.set_bits_of(idx, *bits);
    }
    import_params(model, &ckpt.params).map_err(CheckpointError::ModelMismatch)?;
    model
        .set_norm_stats(&ckpt.norm_stats)
        .map_err(CheckpointError::ModelMismatch)?;
    Ok(())
}

/// Parses `iter-NNNN.ckpt` file names.
fn iteration_of(path: &Path) -> Option<usize> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("iter-")?
        .strip_suffix(".ckpt")?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/ckpt-unit-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn sample_checkpoint(next_iteration: usize) -> RunCheckpoint {
        RunCheckpoint {
            version: CHECKPOINT_VERSION,
            config: AdqConfig::fast(),
            next_iteration,
            iterations: Vec::new(),
            structural_ops: vec![StructuralOp::Prune { layer: 1, keep: 4 }],
            params: vec![Tensor::from_slice(&[1.0, -2.0, 0.5])],
            norm_stats: vec![(vec![0.1], vec![0.9])],
            bits: vec![Some(BitWidth::SIXTEEN), Some(BitWidth::ONE), None],
            optimizer: AdamState {
                lr: 2e-3,
                t: 17,
                moments: vec![Some((Tensor::zeros(&[3]), Tensor::ones(&[3]))), None],
            },
            rng: RngState {
                key: [1, 2, 3, 4, 5, 6, 7, 8],
                counter: 42,
                index: 3,
            },
            baseline_energy_pj: 123.456,
            microbatch: Some(4),
        }
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        let dir = scratch_dir("roundtrip");
        let path = dir.join("iter-0001.ckpt");
        let ckpt = sample_checkpoint(2);
        ckpt.save_atomic(&path).expect("save");
        let back = RunCheckpoint::load(&path).expect("load");
        assert_eq!(back, ckpt);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_without_microbatch_field_defaults_to_serial() {
        // checkpoints written before data-parallel training lack the field
        let json = serde_json::to_string(&sample_checkpoint(2)).expect("serialise");
        assert!(json.contains("\"microbatch\":4"), "json was: {json}");
        let stripped = json.replace(",\"microbatch\":4", "");
        assert_ne!(stripped, json, "expected the field to be removed");
        let back: RunCheckpoint = serde_json::from_str(&stripped).expect("deserialise");
        assert_eq!(back.microbatch, None);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let dir = scratch_dir("truncated");
        let path = dir.join("iter-0001.ckpt");
        sample_checkpoint(2).save_atomic(&path).expect("save");
        let raw = fs::read(&path).expect("read");
        // simulate a crash mid-write of a non-atomic writer
        fs::write(&path, &raw[..raw.len() - 20]).expect("truncate");
        match RunCheckpoint::load(&path) {
            Err(CheckpointError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_payload_byte_is_rejected() {
        let dir = scratch_dir("bitrot");
        let path = dir.join("iter-0001.ckpt");
        sample_checkpoint(2).save_atomic(&path).expect("save");
        let mut raw = fs::read(&path).expect("read");
        let last = raw.len() - 1;
        raw[last] ^= 0x40;
        fs::write(&path, &raw).expect("corrupt");
        assert!(matches!(
            RunCheckpoint::load(&path),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_checkpoint_file_is_rejected() {
        let dir = scratch_dir("garbage");
        let path = dir.join("iter-0001.ckpt");
        fs::write(&path, b"{\"not\": \"a checkpoint\"}\n").expect("write");
        assert!(matches!(
            RunCheckpoint::load(&path),
            Err(CheckpointError::MissingHeader)
        ));
        fs::write(&path, b"no newline at all").expect("write");
        assert!(matches!(
            RunCheckpoint::load(&path),
            Err(CheckpointError::MissingHeader)
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_version_is_rejected() {
        let dir = scratch_dir("version");
        let path = dir.join("iter-0001.ckpt");
        let mut ckpt = sample_checkpoint(2);
        ckpt.version = CHECKPOINT_VERSION + 1;
        // bypass save-side version pinning by writing the raw form
        let bytes = ckpt.to_bytes().expect("serialise");
        let mut text = String::from_utf8(bytes).expect("utf8");
        text = text.replacen(
            &format!("{MAGIC} {CHECKPOINT_VERSION} "),
            &format!("{MAGIC} {} ", CHECKPOINT_VERSION + 1),
            1,
        );
        fs::write(&path, text).expect("write");
        assert!(matches!(
            RunCheckpoint::load(&path),
            Err(CheckpointError::UnsupportedVersion(v)) if v == CHECKPOINT_VERSION + 1
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manager_finds_latest() {
        let dir = scratch_dir("latest");
        let manager = CheckpointManager::new(&dir).expect("manager");
        assert!(manager.load_latest().expect("empty dir ok").is_none());
        manager.save(&sample_checkpoint(2)).expect("save 1");
        manager.save(&sample_checkpoint(4)).expect("save 3");
        manager.save(&sample_checkpoint(3)).expect("save 2");
        let latest = manager.load_latest().expect("load").expect("present");
        assert_eq!(latest.next_iteration, 4);
        assert_eq!(
            manager.latest().expect("scan").expect("present"),
            manager.path_for_iteration(3)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_save_leaves_no_tmp_file() {
        let dir = scratch_dir("tmpfile");
        let manager = CheckpointManager::new(&dir).expect("manager");
        manager.save(&sample_checkpoint(2)).expect("save");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files left: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // published FNV-1a 64 test vectors
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
