//! Named versions over a durable store — tags, diffs, and time travel
//! (`VERSIONING.md`, normative).
//!
//! A [`VersionStore`] lives next to a [`crate::wal::Store`]'s
//! `checkpoint.meta` and `wal.log` as one checksummed `versions.meta`
//! file (VERSIONING.md §2). Each [`VersionRef`] names an LSN of the
//! store's batch history together with the butterfly total and both
//! sides' tip checksums of that state, binding the name to the *state*
//! rather than to a mere offset. On top of the refs:
//!
//! * [`VersionStore::diff`] materializes the net [`EdgeOp`] batch
//!   between two versions by scanning the WAL interval (§5);
//! * [`StreamEngine::open_at`] replays from the checkpoint to a tagged
//!   LSN ([`StreamEngine::replay`]) and publishes the state behind
//!   the usual lock-free snapshot surface (§4);
//! * the derive operators (`bigraph::derive`, `tipdecomp derive`)
//!   build new graphs from the materialized time-travel states (§6).
//!
//! Every failure is a typed [`VersionError`] (§7); readers fail closed
//! and never repair — `versions.meta` is replaced atomically, so any
//! defect is corruption, not a crash signature.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use bigraph::bytes::{array_at, le_u32_at, le_u64_at};
use bigraph::dynamic::EdgeOp;

use crate::dynamic::fnv1a_u64;
use crate::engine::{EngineOptions, EngineSnapshot, StreamEngine};
use crate::wal::{Store, StoreError, Wal};

/// Magic bytes opening `versions.meta` (VERSIONING.md §2.1).
pub const VER_MAGIC: [u8; 8] = *b"RCPTVER\0";
/// Current `versions.meta` format version.
pub const VER_VERSION: u32 = 1;
/// Endianness canary, same value as every other format in FORMATS.md.
pub const VER_ENDIAN_TAG: u32 = 0x0102_0304;
/// Header length in bytes (magic + version + endianness + count).
pub const VER_HEADER_LEN: u64 = 24;
/// Smallest well-formed file: header + trailer checksum, zero entries.
pub const VER_MIN_LEN: u64 = VER_HEADER_LEN + 8;
/// Longest name a reader accepts (§2.2); taggers are stricter (§3.1).
pub const VER_MAX_NAME_LEN: usize = 255;
/// Longest name a tagger produces (§3.1).
pub const TAG_MAX_NAME_LEN: usize = 64;

/// One named, immutable version: a tag name bound to an LSN of the
/// store's history plus the checksums of the state reached there
/// (VERSIONING.md §1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionRef {
    /// The tag name (§3.1).
    pub name: String,
    /// Last WAL record included in the version; `0` names the initial
    /// graph the store was created from.
    pub lsn: u64,
    /// Butterfly total of the tagged state.
    pub total_butterflies: u64,
    /// FNV-1a digest of the U-side tip numbers, in id order.
    pub tip_checksum_u: u64,
    /// FNV-1a digest of the V-side tip numbers, in id order.
    pub tip_checksum_v: u64,
}

/// Typed failure of any versioning operation (VERSIONING.md §7).
#[derive(Debug)]
pub enum VersionError {
    /// Underlying I/O failure, with the offending path.
    Io { path: String, error: io::Error },
    /// `versions.meta` does not start with [`VER_MAGIC`].
    BadMagic { path: String, found: [u8; 8] },
    /// Unsupported format version (§8: strict, never guessed around).
    BadVersion { path: String, found: u32 },
    /// Endianness canary mismatch.
    BadEndianness { path: String, found: u32 },
    /// The trailing checksum does not cover the file's words.
    MetaChecksum {
        path: String,
        stored: u64,
        computed: u64,
    },
    /// Structural validation failed (§2.4).
    Corrupt { path: String, what: String },
    /// Tag name rejected at creation (§3.1).
    BadName { name: String, what: String },
    /// A tag with this name already exists (§3.2 — tags never rebind).
    TagExists { name: String },
    /// No tag with this name.
    UnknownTag { name: String },
    /// `tag_lsn > wal_end` — the WAL never durably held the tagged
    /// state (§3.4).
    TagAheadOfWal {
        name: String,
        lsn: u64,
        wal_end: u64,
    },
    /// `tag_lsn < checkpoint_lsn` — the records needed to reach the
    /// tag were folded away (§3.4).
    TagBelowCheckpoint {
        name: String,
        lsn: u64,
        checkpoint_lsn: u64,
    },
    /// `diff(a, b)` with `lsn(a) > lsn(b)` (§5).
    Unordered {
        a: String,
        lsn_a: u64,
        b: String,
        lsn_b: u64,
    },
    /// Replay reached the tagged LSN but the state's checksums differ
    /// from the `VersionRef` (§4 step 5).
    StateMismatch { name: String, what: String },
    /// The underlying store failed to open (FORMATS.md §4).
    Store(StoreError),
}

impl fmt::Display for VersionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VersionError::Io { path, error } => write!(f, "{path}: {error}"),
            VersionError::BadMagic { path, found } => {
                write!(f, "{path}: bad magic {found:02x?} (expected RCPTVER)")
            }
            VersionError::BadVersion { path, found } => {
                write!(
                    f,
                    "{path}: unsupported versions.meta version {found} (expected {VER_VERSION})"
                )
            }
            VersionError::BadEndianness { path, found } => {
                write!(f, "{path}: bad endianness tag {found:#010x}")
            }
            VersionError::MetaChecksum {
                path,
                stored,
                computed,
            } => write!(
                f,
                "{path}: checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            VersionError::Corrupt { path, what } => write!(f, "{path}: corrupt: {what}"),
            VersionError::BadName { name, what } => write!(f, "bad tag name {name:?}: {what}"),
            VersionError::TagExists { name } => {
                write!(f, "tag {name:?} already exists (tags are immutable)")
            }
            VersionError::UnknownTag { name } => write!(f, "unknown tag {name:?}"),
            VersionError::TagAheadOfWal { name, lsn, wal_end } => write!(
                f,
                "tag {name:?} at lsn {lsn} is ahead of the WAL end ({wal_end}) — \
                 the log never durably held that state"
            ),
            VersionError::TagBelowCheckpoint {
                name,
                lsn,
                checkpoint_lsn,
            } => write!(
                f,
                "tag {name:?} at lsn {lsn} is below the checkpoint ({checkpoint_lsn}) — \
                 the records needed to reach it were folded away"
            ),
            VersionError::Unordered { a, lsn_a, b, lsn_b } => write!(
                f,
                "diff({a:?}, {b:?}) is unordered: lsn {lsn_a} > lsn {lsn_b} \
                 (the first version must be the older one)"
            ),
            VersionError::StateMismatch { name, what } => write!(
                f,
                "tag {name:?}: replayed state does not match the version ref: {what}"
            ),
            VersionError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for VersionError {}

impl From<StoreError> for VersionError {
    fn from(e: StoreError) -> Self {
        VersionError::Store(e)
    }
}

/// Validates a tag name at creation time (§3.1): 1–64 bytes of
/// `[A-Za-z0-9._-]`, not starting with `-`.
pub fn validate_tag_name(name: &str) -> Result<(), VersionError> {
    let fail = |what: &str| {
        Err(VersionError::BadName {
            name: name.to_string(),
            what: what.to_string(),
        })
    };
    if name.is_empty() {
        return fail("empty");
    }
    if name.len() > TAG_MAX_NAME_LEN {
        return fail("longer than 64 bytes");
    }
    if name.starts_with('-') {
        return fail("must not begin with '-'");
    }
    if let Some(c) = name
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
    {
        return fail(&format!("character {c:?} outside [A-Za-z0-9._-]"));
    }
    Ok(())
}

fn encode(entries: &[VersionRef]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(VER_MIN_LEN as usize + 48 * entries.len());
    buf.extend_from_slice(&VER_MAGIC);
    buf.extend_from_slice(&VER_VERSION.to_le_bytes());
    buf.extend_from_slice(&VER_ENDIAN_TAG.to_le_bytes());
    buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for e in entries {
        buf.extend_from_slice(&e.lsn.to_le_bytes());
        buf.extend_from_slice(&e.total_butterflies.to_le_bytes());
        buf.extend_from_slice(&e.tip_checksum_u.to_le_bytes());
        buf.extend_from_slice(&e.tip_checksum_v.to_le_bytes());
        buf.extend_from_slice(&(e.name.len() as u64).to_le_bytes());
        buf.extend_from_slice(e.name.as_bytes());
        // Zero-pad the name to the next u64 word boundary (§2.2).
        buf.resize(buf.len().div_ceil(8) * 8, 0);
    }
    let words = words_of(&buf);
    buf.extend_from_slice(&fnv1a_u64(&words).to_le_bytes());
    buf
}

/// The §2.3 word view: every aligned little-endian u64 of `bytes`. A
/// trailing partial chunk (impossible for the length-checked callers)
/// is simply not a word.
fn words_of(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| le_u64_at(c, 0).unwrap_or(0))
        .collect()
}

/// Decodes and fully validates a `versions.meta` image in the §2.4
/// order, failing closed at the first violation.
fn decode(path: &Path, bytes: &[u8]) -> Result<Vec<VersionRef>, VersionError> {
    let display = || path.display().to_string();
    let corrupt = |what: String| VersionError::Corrupt {
        path: display(),
        what,
    };
    if (bytes.len() as u64) < VER_MIN_LEN || !bytes.len().is_multiple_of(8) {
        return Err(corrupt(format!(
            "bad length {} (minimum {VER_MIN_LEN}, must be a multiple of 8)",
            bytes.len()
        )));
    }
    // Length is checked above, so these reads are in range; the
    // fail-closed helpers keep even an impossible short read an error.
    let short = |pos: usize| corrupt(format!("truncated read at offset {pos}"));
    let magic: [u8; 8] = array_at(bytes, 0).ok_or_else(|| short(0))?;
    if magic != VER_MAGIC {
        return Err(VersionError::BadMagic {
            path: display(),
            found: magic,
        });
    }
    let version = le_u32_at(bytes, 8).ok_or_else(|| short(8))?;
    if version != VER_VERSION {
        return Err(VersionError::BadVersion {
            path: display(),
            found: version,
        });
    }
    let endian = le_u32_at(bytes, 12).ok_or_else(|| short(12))?;
    if endian != VER_ENDIAN_TAG {
        return Err(VersionError::BadEndianness {
            path: display(),
            found: endian,
        });
    }
    // Trailer checksum over every preceding word (§2.3), before any
    // structural field is trusted.
    let body = &bytes[..bytes.len() - 8];
    let computed = fnv1a_u64(&words_of(body));
    let stored = le_u64_at(bytes, bytes.len() - 8).ok_or_else(|| short(bytes.len() - 8))?;
    if stored != computed {
        return Err(VersionError::MetaChecksum {
            path: display(),
            stored,
            computed,
        });
    }
    // Structure (§2.4).
    let count = le_u64_at(bytes, 16).ok_or_else(|| short(16))?;
    let mut entries = Vec::new();
    let mut at = VER_HEADER_LEN as usize;
    for i in 0..count {
        if body.len() < at + 40 {
            return Err(corrupt(format!("entry {i} truncated at byte {at}")));
        }
        let word = |k: usize| {
            le_u64_at(body, at + 8 * k)
                .ok_or_else(|| corrupt(format!("entry {i} truncated at byte {}", at + 8 * k)))
        };
        let (lsn, total_butterflies) = (word(0)?, word(1)?);
        let (tip_checksum_u, tip_checksum_v) = (word(2)?, word(3)?);
        let name_len = word(4)? as usize;
        if name_len == 0 || name_len > VER_MAX_NAME_LEN {
            return Err(corrupt(format!(
                "entry {i}: name length {name_len} outside 1..=255"
            )));
        }
        let name_at = at + 40;
        let padded = name_len.div_ceil(8) * 8;
        if body.len() < name_at + padded {
            return Err(corrupt(format!(
                "entry {i}: name truncated at byte {name_at}"
            )));
        }
        let name = std::str::from_utf8(&body[name_at..name_at + name_len])
            .map_err(|e| corrupt(format!("entry {i}: name is not UTF-8: {e}")))?
            .to_string();
        if body[name_at + name_len..name_at + padded]
            .iter()
            .any(|&b| b != 0)
        {
            return Err(corrupt(format!("entry {i}: nonzero name padding")));
        }
        if let Some(prev) = entries.last() {
            let prev: &VersionRef = prev;
            if lsn < prev.lsn {
                return Err(corrupt(format!(
                    "entry {i} ({name:?}) at lsn {lsn} below predecessor {:?} at lsn {} \
                     (entries are created in LSN order)",
                    prev.name, prev.lsn
                )));
            }
        }
        if entries.iter().any(|e: &VersionRef| e.name == name) {
            return Err(corrupt(format!("duplicate tag name {name:?}")));
        }
        entries.push(VersionRef {
            name,
            lsn,
            total_butterflies,
            tip_checksum_u,
            tip_checksum_v,
        });
        at = name_at + padded;
    }
    if at != body.len() {
        return Err(corrupt(format!(
            "{} trailing byte(s) after the last entry",
            body.len() - at
        )));
    }
    Ok(entries)
}

/// The version set of one store directory, backed by `versions.meta`
/// (VERSIONING.md §2). Opening a store without the file yields an
/// empty set; the file is created on the first [`Self::tag`].
#[derive(Debug, Clone)]
pub struct VersionStore {
    dir: PathBuf,
    entries: Vec<VersionRef>,
}

impl VersionStore {
    /// The `versions.meta` path inside `dir`.
    pub fn versions_path(dir: &Path) -> PathBuf {
        dir.join("versions.meta")
    }

    /// Loads (and fully validates) the version set of the store at
    /// `dir`. A missing `versions.meta` is an empty set, not an error.
    pub fn open(dir: &Path) -> Result<VersionStore, VersionError> {
        let path = Self::versions_path(dir);
        let entries = match std::fs::read(&path) {
            Ok(bytes) => decode(&path, &bytes)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => {
                return Err(VersionError::Io {
                    path: path.display().to_string(),
                    error: e,
                })
            }
        };
        Ok(VersionStore {
            dir: dir.to_path_buf(),
            entries,
        })
    }

    /// The store directory this version set belongs to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Every version, in creation (= LSN) order.
    pub fn list(&self) -> &[VersionRef] {
        &self.entries
    }

    /// Looks a tag up by name.
    pub fn get(&self, name: &str) -> Option<&VersionRef> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Like [`Self::get`] but failing with [`VersionError::UnknownTag`].
    pub fn lookup(&self, name: &str) -> Result<&VersionRef, VersionError> {
        self.get(name).ok_or_else(|| VersionError::UnknownTag {
            name: name.to_string(),
        })
    }

    /// Tags the state at `lsn` (the store's current end, §3.2) with
    /// `name`, persisting the grown set atomically (§2.5). Returns the
    /// new ref. Fails closed on a bad name, a duplicate, or an LSN
    /// below the last entry's (tags are created in history order).
    pub fn tag(
        &mut self,
        name: &str,
        lsn: u64,
        total_butterflies: u64,
        tip_checksum_u: u64,
        tip_checksum_v: u64,
    ) -> Result<&VersionRef, VersionError> {
        validate_tag_name(name)?;
        if self.get(name).is_some() {
            return Err(VersionError::TagExists {
                name: name.to_string(),
            });
        }
        if let Some(last) = self.entries.last() {
            if lsn < last.lsn {
                return Err(VersionError::Corrupt {
                    path: Self::versions_path(&self.dir).display().to_string(),
                    what: format!(
                        "tag {name:?} at lsn {lsn} below last entry {:?} at lsn {} \
                         (tags name the store's current end)",
                        last.name, last.lsn
                    ),
                });
            }
        }
        self.entries.push(VersionRef {
            name: name.to_string(),
            lsn,
            total_butterflies,
            tip_checksum_u,
            tip_checksum_v,
        });
        let bytes = encode(&self.entries);
        Store::write_atomic(&Self::versions_path(&self.dir), &bytes)?;
        self.entries.last().ok_or_else(|| VersionError::Corrupt {
            path: Self::versions_path(&self.dir).display().to_string(),
            what: "version list empty immediately after tagging".to_string(),
        })
    }

    /// Convenience form of [`Self::tag`] reading the checksums off a
    /// published [`EngineSnapshot`].
    pub fn tag_snapshot(
        &mut self,
        name: &str,
        lsn: u64,
        snapshot: &EngineSnapshot,
    ) -> Result<&VersionRef, VersionError> {
        self.tag(
            name,
            lsn,
            snapshot.total_butterflies(),
            snapshot.tip_checksum(bigraph::Side::U),
            snapshot.tip_checksum(bigraph::Side::V),
        )
    }

    /// Materializes the net `EdgeOp` batch between versions `a` and `b`
    /// (VERSIONING.md §5): the last op per edge across the WAL records
    /// in `(lsn(a), lsn(b)]`, sorted by `(u, v)`. Applying the result
    /// as one batch to the graph of `at(a)` yields the graph of
    /// `at(b)` exactly.
    ///
    /// Requires `lsn(a) ≤ lsn(b)` and both tags inside the §3.4
    /// serviceability window. The WAL is opened strictly — a torn tail
    /// is a recovery concern, not a diff's to repair.
    pub fn diff(&self, a: &str, b: &str) -> Result<Vec<EdgeOp>, VersionError> {
        let ra = self.lookup(a)?.clone();
        let rb = self.lookup(b)?.clone();
        if ra.lsn > rb.lsn {
            return Err(VersionError::Unordered {
                a: ra.name,
                lsn_a: ra.lsn,
                b: rb.name,
                lsn_b: rb.lsn,
            });
        }
        let (wal, records) =
            Wal::open(Store::wal_path(&self.dir)).map_err(|e| VersionError::Store(e.into()))?;
        if rb.lsn > wal.end_lsn() {
            return Err(VersionError::TagAheadOfWal {
                name: rb.name,
                lsn: rb.lsn,
                wal_end: wal.end_lsn(),
            });
        }
        if ra.lsn < wal.base_lsn() {
            return Err(VersionError::TagBelowCheckpoint {
                name: ra.name,
                lsn: ra.lsn,
                checkpoint_lsn: wal.base_lsn(),
            });
        }
        // Last-op-per-edge over the interval; the BTreeMap gives the
        // pinned (u, v)-ascending emission order for free.
        let mut last: BTreeMap<(u32, u32), EdgeOp> = BTreeMap::new();
        for record in &records {
            if record.lsn <= ra.lsn || record.lsn > rb.lsn {
                continue;
            }
            for &op in &record.ops {
                last.insert(op.edge(), op);
            }
        }
        Ok(last.into_values().collect())
    }
}

/// Tags the store's current end state (`VERSIONING.md` §3.2) from the
/// outside: opens the store strictly (a torn WAL tail is an error here —
/// run recovery first, then tag), replays every committed record
/// ([`StreamEngine::replay`]) to reach the head state, and appends the
/// tag at `wal_end` with that state's checksums. Returns the created ref.
///
/// This is what `tipdecomp version tag` runs. A live engine tags its own
/// published snapshot instead (serve-mode `tag` via
/// [`VersionStore::tag_snapshot`]) and never re-replays.
pub fn tag_head(
    dir: &Path,
    name: &str,
    options: EngineOptions,
) -> Result<VersionRef, VersionError> {
    validate_tag_name(name)?;
    let mut versions = VersionStore::open(dir)?;
    if versions.get(name).is_some() {
        return Err(VersionError::TagExists {
            name: name.to_string(),
        });
    }
    let rec = Store::open(dir)?;
    let wal_end = rec.wal.end_lsn();
    let engine = StreamEngine::replay(rec.graph, &rec.batches, options)
        .map_err(|what| replay_error(dir, what))?;
    versions
        .tag_snapshot(name, wal_end, &engine.snapshot())
        .cloned()
}

/// A verified replay of committed records diverged from the oracles.
fn replay_error(dir: &Path, what: String) -> VersionError {
    VersionError::Corrupt {
        path: Store::wal_path(dir).display().to_string(),
        what,
    }
}

/// What [`StreamEngine::open_at`] found and replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeTravelInfo {
    /// The resolved version ref.
    pub version: VersionRef,
    /// The store's checkpoint LSN (replay started from its snapshot).
    pub checkpoint_lsn: u64,
    /// Committed records found in the WAL.
    pub wal_records: usize,
    /// Records replayed to reach the tag (= `tag_lsn − checkpoint_lsn`).
    pub replayed: usize,
    /// Records already folded into the base snapshot.
    pub skipped_folded: usize,
    /// Records above the tag LSN, deliberately not applied.
    pub skipped_above: usize,
    /// The WAL's last committed LSN.
    pub wal_end: u64,
}

impl StreamEngine {
    /// Time travel (VERSIONING.md §4): opens the store at `dir`
    /// read-only, replays from the checkpoint snapshot to the LSN
    /// tagged `name` ([`StreamEngine::replay`]), verifies the
    /// reached state against the [`VersionRef`]'s checksums, and
    /// publishes it as an ordinary read-only [`EngineSnapshot`].
    ///
    /// The returned engine has **no durable log attached**: applying
    /// further batches to it would fork history in memory only, and
    /// the surfaces built on `open_at` never do. Nothing on disk is
    /// modified — not even a torn WAL tail is repaired (that is
    /// recovery's explicit job).
    pub fn open_at(
        dir: &Path,
        name: &str,
        options: EngineOptions,
    ) -> Result<(StreamEngine, TimeTravelInfo), VersionError> {
        let versions = VersionStore::open(dir)?;
        let vref = versions.lookup(name)?.clone();
        let rec = Store::open(dir)?;
        let wal_end = rec.wal.end_lsn();
        if vref.lsn > wal_end {
            return Err(VersionError::TagAheadOfWal {
                name: vref.name,
                lsn: vref.lsn,
                wal_end,
            });
        }
        if vref.lsn < rec.checkpoint_lsn {
            return Err(VersionError::TagBelowCheckpoint {
                name: vref.name,
                lsn: vref.lsn,
                checkpoint_lsn: rec.checkpoint_lsn,
            });
        }
        // Records are in LSN order: the tag's prefix is one slice.
        let replayed = rec.batches.partition_point(|r| r.lsn <= vref.lsn);
        let engine = StreamEngine::replay(rec.graph, &rec.batches[..replayed], options)
            .map_err(|what| replay_error(dir, what))?;
        let snapshot = engine.snapshot();
        let mismatch = |what: String| VersionError::StateMismatch {
            name: vref.name.clone(),
            what,
        };
        if snapshot.total_butterflies() != vref.total_butterflies {
            return Err(mismatch(format!(
                "butterfly total {} != tagged {}",
                snapshot.total_butterflies(),
                vref.total_butterflies
            )));
        }
        for (side, tagged) in [
            (bigraph::Side::U, vref.tip_checksum_u),
            (bigraph::Side::V, vref.tip_checksum_v),
        ] {
            let got = snapshot.tip_checksum(side);
            if got != tagged {
                return Err(mismatch(format!(
                    "{side} tip checksum {got:#018x} != tagged {tagged:#018x}"
                )));
            }
        }
        let info = TimeTravelInfo {
            version: vref,
            checkpoint_lsn: rec.checkpoint_lsn,
            wal_records: rec.skipped + rec.batches.len(),
            replayed,
            skipped_folded: rec.skipped,
            skipped_above: rec.batches.len() - replayed,
            wal_end,
        };
        Ok((engine, info))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::gen;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("receipt_version_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn store_with(dir: &Path) -> VersionStore {
        let g = gen::planted_bicliques(10, 10, 1, 3, 3, 10, 5);
        Store::init(dir, &g).unwrap();
        VersionStore::open(dir).unwrap()
    }

    #[test]
    fn empty_store_round_trips() {
        let dir = temp_dir("empty");
        let vs = store_with(&dir);
        assert!(vs.list().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tag_persists_and_reloads() {
        let dir = temp_dir("tag");
        let mut vs = store_with(&dir);
        vs.tag("v0", 0, 9, 1, 2).unwrap();
        vs.tag("release-1.0", 0, 9, 1, 2).unwrap();
        let back = VersionStore::open(&dir).unwrap();
        assert_eq!(back.list().len(), 2);
        assert_eq!(back.get("v0").unwrap().total_butterflies, 9);
        assert_eq!(back.get("release-1.0").unwrap().tip_checksum_v, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_and_bad_names_fail_closed() {
        let dir = temp_dir("names");
        let mut vs = store_with(&dir);
        vs.tag("v0", 0, 0, 0, 0).unwrap();
        assert!(matches!(
            vs.tag("v0", 0, 0, 0, 0),
            Err(VersionError::TagExists { .. })
        ));
        for bad in ["", "-leading", "has space", "sla/sh", &"x".repeat(65)] {
            assert!(
                matches!(vs.tag(bad, 0, 0, 0, 0), Err(VersionError::BadName { .. })),
                "{bad:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let dir = temp_dir("flip");
        let mut vs = store_with(&dir);
        vs.tag("v0", 0, 7, 11, 13).unwrap();
        let path = VersionStore::versions_path(&dir);
        let good = std::fs::read(&path).unwrap();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(
                decode(&path, &bad).is_err(),
                "flipping byte {i} went undetected"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_tag_and_unordered_diff() {
        let dir = temp_dir("difftags");
        let mut vs = store_with(&dir);
        let mut wal = Wal::open(Store::wal_path(&dir)).unwrap().0;
        let lsn1 = wal.append(&[EdgeOp::Insert(0, 0)]).unwrap();
        let lsn2 = wal.append(&[EdgeOp::Delete(0, 0)]).unwrap();
        vs.tag("a", lsn1, 0, 0, 0).unwrap();
        vs.tag("b", lsn2, 0, 0, 0).unwrap();
        assert!(matches!(
            vs.diff("a", "nope"),
            Err(VersionError::UnknownTag { .. })
        ));
        assert!(matches!(
            vs.diff("b", "a"),
            Err(VersionError::Unordered { .. })
        ));
        assert_eq!(vs.diff("a", "a").unwrap(), vec![]);
        assert_eq!(vs.diff("a", "b").unwrap(), vec![EdgeOp::Delete(0, 0)]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
