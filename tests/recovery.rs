//! Crash-recovery integration tests against the durable store
//! (`FORMATS.md`): a miniature crash matrix driven through the public
//! engine API, and hostile-input cases where every corruption other than
//! a torn tail must fail closed with an error that names the file.

use bigraph::binfmt::{self, BinError};
use bigraph::{gen, BipartiteCsr};
use receipt::dynamic::fnv1a_u64;
use receipt::engine::{EngineOptions, StreamEngine};
use receipt::version::VersionStore;
use receipt::wal::{Store, StoreError, Wal, WalError, CKP_MAGIC, CKP_VERSION, ENDIAN_TAG};
use receipt::Config;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("receipt_recovery_{}_{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn options() -> EngineOptions {
    EngineOptions {
        config: Config::default().with_partitions(4),
        verify: false,
        ..EngineOptions::default()
    }
}

/// The recovered-state fingerprint the matrix compares: total butterfly
/// count plus both per-side tip checksums.
fn state_of(engine: &StreamEngine) -> (u64, u64, u64) {
    let snap = engine.snapshot();
    (
        snap.total_butterflies(),
        snap.tip_checksum(bigraph::Side::U),
        snap.tip_checksum(bigraph::Side::V),
    )
}

/// Builds a reference store at `dir`: init from `g`, then apply each
/// batch durably (no folding). Returns the per-boundary fingerprints,
/// index 0 being the pre-batch state.
fn build_reference(
    dir: &Path,
    g: &BipartiteCsr,
    batches: &[Vec<bigraph::dynamic::EdgeOp>],
) -> Vec<(u64, u64, u64)> {
    let (engine, info) = StreamEngine::open_durable(dir, Some(g.clone()), options(), 0).unwrap();
    assert!(info.created);
    let mut states = vec![state_of(&engine)];
    for ops in batches {
        engine.apply_batch(ops).unwrap();
        states.push(state_of(&engine));
    }
    states
}

/// Clones `reference` into a fresh store at `dir` whose WAL is truncated
/// to `wal_len` bytes — the on-disk image a crash at that point leaves.
fn clone_store_cut(reference: &Path, dir: &Path, wal_len: u64) {
    std::fs::copy(
        Store::snapshot_path(reference, 0),
        Store::snapshot_path(dir, 0),
    )
    .unwrap();
    std::fs::copy(Store::meta_path(reference), Store::meta_path(dir)).unwrap();
    let wal = std::fs::read(Store::wal_path(reference)).unwrap();
    std::fs::write(Store::wal_path(dir), &wal[..wal_len as usize]).unwrap();
}

#[test]
fn crash_matrix_recovers_every_batch_boundary() {
    let g = gen::zipf(40, 30, 160, 0.5, 0.9, 17);
    let batches = bigraph::dynamic::seeded_schedule(&g, 3, 30, 19);
    let ref_dir = scratch("matrix_ref");
    let states = build_reference(&ref_dir, &g, &batches);
    let spans = Wal::scan(Store::wal_path(&ref_dir)).unwrap();
    assert_eq!(spans.len(), batches.len());

    for (i, span) in spans.iter().enumerate() {
        let boundary = i + 1;

        // A crash right after the append (or right after the in-memory
        // apply — identical bytes either way) keeps the boundary's
        // record: recovery replays through batch `boundary`.
        let dir = scratch(&format!("matrix_kill_{boundary}"));
        clone_store_cut(&ref_dir, &dir, span.offset + span.len);
        let (engine, info) = StreamEngine::open_durable(&dir, None, options(), 0).unwrap();
        assert!(!info.created);
        assert_eq!(info.replayed, boundary);
        assert_eq!(info.end_lsn, boundary as u64);
        assert!(info.repaired.is_none(), "clean cut must not need repair");
        assert_eq!(state_of(&engine), states[boundary]);
        engine.verify_against_scratch().unwrap();

        // A crash mid-append leaves a torn tail: recovery truncates the
        // partial record and lands on the previous boundary.
        let dir = scratch(&format!("matrix_torn_{boundary}"));
        clone_store_cut(&ref_dir, &dir, span.offset + span.len - 5);
        let (engine, info) = StreamEngine::open_durable(&dir, None, options(), 0).unwrap();
        assert_eq!(info.replayed, boundary - 1);
        let repair = info.repaired.expect("torn tail must be repaired");
        assert_eq!(repair.discarded_bytes, span.len - 5);
        assert_eq!(state_of(&engine), states[boundary - 1]);
        engine.verify_against_scratch().unwrap();
    }
}

/// Replay with `verify` on checks the index after every record and the
/// whole state at the end; recovery and time travel to every boundary
/// must pass those checks and land on the reference trajectory.
#[test]
fn verified_replay_reaches_the_reference_trajectory() {
    let g = gen::zipf(40, 30, 160, 0.5, 0.9, 23);
    let batches = bigraph::dynamic::seeded_schedule(&g, 4, 30, 29);
    let dir = scratch("verified_replay");
    let states = build_reference(&dir, &g, &batches);
    let mut versions = VersionStore::open(&dir).unwrap();
    for (lsn, &(total, tip_u, tip_v)) in states.iter().enumerate() {
        let name = format!("b{lsn}");
        versions
            .tag(&name, lsn as u64, total, tip_u, tip_v)
            .unwrap();
    }
    let verified = EngineOptions {
        verify: true,
        ..options()
    };
    for (lsn, state) in states.iter().enumerate() {
        let (engine, info) =
            StreamEngine::open_at(&dir, &format!("b{lsn}"), verified.clone()).unwrap();
        assert_eq!(info.replayed, lsn);
        assert_eq!(info.skipped_above, batches.len() - lsn);
        assert_eq!(engine.epoch(), lsn as u64);
        assert_eq!(state_of(&engine), *state, "time travel to lsn {lsn}");
    }
    let (engine, info) = StreamEngine::open_durable(&dir, None, verified, 0).unwrap();
    assert_eq!(info.replayed, batches.len());
    assert_eq!(engine.epoch(), batches.len() as u64);
    assert_eq!(state_of(&engine), states[batches.len()]);
}

#[test]
fn torn_wal_tail_fails_strict_open_and_names_the_file() {
    let g = gen::zipf(25, 20, 90, 0.5, 0.8, 23);
    let batches = bigraph::dynamic::seeded_schedule(&g, 2, 20, 29);
    let ref_dir = scratch("torn_ref");
    build_reference(&ref_dir, &g, &batches);
    let spans = Wal::scan(Store::wal_path(&ref_dir)).unwrap();
    let last = spans.last().unwrap();

    let dir = scratch("torn_store");
    clone_store_cut(&ref_dir, &dir, last.offset + last.len - 7);

    // Strict opens — both the raw WAL and the store — refuse the tear.
    let err = Wal::open(Store::wal_path(&dir)).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("wal.log"), "no path in: {msg}");
    assert!(msg.contains("torn WAL tail"), "wrong error: {msg}");
    match err {
        WalError::File { error, .. } => {
            assert!(matches!(*error, WalError::TornTail { last_lsn: 1, .. }))
        }
        other => panic!("expected pathful torn tail, got: {other}"),
    }
    let err = Store::open(&dir).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("wal.log") && msg.contains("torn WAL tail"),
        "{msg}"
    );

    // Only the explicit recovery path repairs it.
    let recovered = Store::recover(&dir).unwrap();
    let repair = recovered.repair.expect("recover reports the repair");
    assert_eq!(repair.discarded_bytes, last.len - 7);
    assert_eq!(recovered.batches.len(), spans.len() - 1);
}

#[test]
fn bit_flipped_record_checksum_fails_closed_in_both_modes() {
    let g = gen::zipf(25, 20, 90, 0.5, 0.8, 31);
    let batches = bigraph::dynamic::seeded_schedule(&g, 3, 20, 37);
    let ref_dir = scratch("flip_ref");
    build_reference(&ref_dir, &g, &batches);
    let spans = Wal::scan(Store::wal_path(&ref_dir)).unwrap();

    // Flip one bit in the checksum of an *interior* record. Bit flips
    // are not crashes: even `recover` must refuse, because truncating
    // here would silently drop committed batches after it.
    let dir = scratch("flip_store");
    let wal = std::fs::read(Store::wal_path(&ref_dir)).unwrap();
    clone_store_cut(&ref_dir, &dir, wal.len() as u64);
    let mut wal = wal;
    let victim = (spans[0].offset + spans[0].len - 1) as usize;
    wal[victim] ^= 0x01;
    std::fs::write(Store::wal_path(&dir), &wal).unwrap();

    for result in [Store::open(&dir), Store::recover(&dir)] {
        let Err(err) = result else {
            panic!("corruption must fail closed");
        };
        let msg = err.to_string();
        assert!(msg.contains("wal.log"), "no path in: {msg}");
        assert!(msg.contains("corrupt WAL record at lsn 1"), "{msg}");
    }

    // Flip one bit in the checksum of the *final* record. The record is
    // complete — all its declared bytes are present — so this is
    // corruption of a committed, acknowledged batch, not a torn tail:
    // recovery must refuse to truncate it away (FORMATS.md §2).
    let dir = scratch("flip_final_store");
    let wal = std::fs::read(Store::wal_path(&ref_dir)).unwrap();
    clone_store_cut(&ref_dir, &dir, wal.len() as u64);
    let mut wal = wal;
    let last = spans.last().unwrap();
    let victim = (last.offset + last.len - 1) as usize;
    assert_eq!(victim + 1, wal.len(), "final record ends the file");
    wal[victim] ^= 0x01;
    std::fs::write(Store::wal_path(&dir), &wal).unwrap();

    let last_lsn = spans.len() as u64;
    for result in [Store::open(&dir), Store::recover(&dir)] {
        let Err(err) = result else {
            panic!("final-record corruption must fail closed");
        };
        let msg = err.to_string();
        assert!(msg.contains("wal.log"), "no path in: {msg}");
        assert!(
            msg.contains(&format!("corrupt WAL record at lsn {last_lsn}")),
            "{msg}"
        );
    }
    // And the refusal is read-only: the damaged log is left as evidence.
    assert_eq!(std::fs::read(Store::wal_path(&dir)).unwrap(), wal);
}

#[test]
fn binary_header_rejects_bad_magic_and_bad_version() {
    let g = gen::zipf(15, 12, 40, 0.5, 0.8, 41);
    let dir = scratch("bgr");
    let good = dir.join("good.bgr");
    binfmt::write_binary_graph_path(&good, &g).unwrap();
    let bytes = std::fs::read(&good).unwrap();

    // Magic is checked first (FORMATS.md §2): a flipped identity byte
    // reports BadMagic even though the header checksum is also wrong.
    let bad_magic = dir.join("bad_magic.bgr");
    let mut corrupt = bytes.clone();
    corrupt[0] ^= 0xff;
    std::fs::write(&bad_magic, &corrupt).unwrap();
    let err = binfmt::read_binary_graph_path(&bad_magic).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("bad_magic.bgr") && msg.contains("bad magic"),
        "{msg}"
    );
    match err {
        BinError::File { error, .. } => assert!(matches!(*error, BinError::BadMagic { .. })),
        other => panic!("expected pathful bad magic, got: {other}"),
    }

    // Version comes before the checksum, so a lone version bump is
    // reported as such, not as a checksum mismatch.
    let bad_version = dir.join("bad_version.bgr");
    let mut corrupt = bytes;
    corrupt[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&bad_version, &corrupt).unwrap();
    let err = binfmt::read_binary_graph_path(&bad_version).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("bad_version.bgr"), "{msg}");
    match err {
        BinError::File { error, .. } => {
            assert!(matches!(*error, BinError::BadVersion { found: 99 }))
        }
        other => panic!("expected pathful bad version, got: {other}"),
    }
}

/// Encodes a checkpoint pointer exactly as `FORMATS.md` §3 specifies,
/// independently of the store's own encoder.
fn encode_meta_per_spec(lsn: u64, graph_checksum: u64) -> [u8; 40] {
    let checksum = fnv1a_u64(&[
        u64::from_le_bytes(CKP_MAGIC),
        (u64::from(CKP_VERSION) << 32) | u64::from(ENDIAN_TAG),
        lsn,
        graph_checksum,
    ]);
    let mut bytes = [0u8; 40];
    bytes[0..8].copy_from_slice(&CKP_MAGIC);
    bytes[8..12].copy_from_slice(&CKP_VERSION.to_le_bytes());
    bytes[12..16].copy_from_slice(&ENDIAN_TAG.to_le_bytes());
    bytes[16..24].copy_from_slice(&lsn.to_le_bytes());
    bytes[24..32].copy_from_slice(&graph_checksum.to_le_bytes());
    bytes[32..40].copy_from_slice(&checksum.to_le_bytes());
    bytes
}

#[test]
fn checkpoint_ahead_of_wal_fails_closed() {
    let g = gen::zipf(15, 12, 40, 0.5, 0.8, 43);
    let dir = scratch("ahead");
    Store::init(&dir, &g).unwrap();
    let snapshot = binfmt::read_binary_graph_path(Store::snapshot_path(&dir, 0)).unwrap();

    // Spec conformance first: the hand-encoded pointer for the store's
    // actual state must match what `Store::init` wrote byte for byte.
    let on_disk = std::fs::read(Store::meta_path(&dir)).unwrap();
    assert_eq!(
        on_disk,
        encode_meta_per_spec(0, snapshot.header_checksum),
        "checkpoint.meta disagrees with the FORMATS.md §3 encoding"
    );

    // Now advance the pointer past everything the WAL holds (end lsn 0)
    // with a checksum-valid pointer and a matching snapshot, so the LSN
    // invariant is the *only* thing wrong with the store.
    std::fs::copy(Store::snapshot_path(&dir, 0), Store::snapshot_path(&dir, 7)).unwrap();
    std::fs::write(
        Store::meta_path(&dir),
        encode_meta_per_spec(7, snapshot.header_checksum),
    )
    .unwrap();
    for result in [Store::open(&dir), Store::recover(&dir)] {
        let Err(err) = result else {
            panic!("checkpoint ahead of WAL must fail");
        };
        match &err {
            StoreError::CheckpointAheadOfWal {
                checkpoint_lsn: 7,
                wal_end: 0,
                path,
            } => assert!(path.contains("ahead"), "no store path in {err}"),
            other => panic!("expected CheckpointAheadOfWal, got: {other}"),
        }
    }
}
