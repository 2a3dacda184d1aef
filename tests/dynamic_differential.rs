//! Batch-dynamic differential suite: after *every* batch of a seeded
//! insert/delete schedule over the five graph families, the incrementally
//! maintained state must equal the from-scratch oracles on the
//! materialized graph —
//!
//! * per-vertex butterfly counts vs `butterfly::count_graph`,
//! * per-edge butterfly counts vs `butterfly::per_edge::per_edge_counts`,
//! * tip numbers (both sides) vs `receipt::bup::bup_decompose`.
//!
//! The suite drives the schedules through [`StreamEngine`] — the same
//! epoch-snapshot layer behind `tipdecomp stream`/`serve` and `repro
//! dynamic` — with `verify` on, so every batch passes the shared
//! differential gate before its snapshot is published.
//!
//! The whole file is thread-count-sensitive by construction (batch
//! enumeration fans out on the rayon pool), so CI runs it under each
//! `RAYON_NUM_THREADS` matrix leg; `identical_and_correct_at_1_and_4_threads`
//! additionally pins pools of 1 and 4 inside one process.

use bigraph::dynamic::{seeded_schedule, EdgeOp};
use bigraph::{builder::from_edges, gen, BipartiteCsr, Side};
use receipt::dynamic::UpdatePolicy;
use receipt::engine::{EngineOptions, StreamEngine};
use receipt::Config;

/// A handful of vertices share one hub plus a few private leaves.
fn star_heavy() -> BipartiteCsr {
    let mut edges = Vec::new();
    for u in 0..40u32 {
        edges.push((u, 0));
        edges.push((u, 1 + u % 7));
    }
    for u in 0..8u32 {
        edges.push((u, 8 + u));
    }
    from_edges(40, 16, &edges).unwrap()
}

fn families() -> Vec<(&'static str, BipartiteCsr)> {
    vec![
        ("star-heavy", star_heavy()),
        (
            "bipartite-clique",
            gen::planted_bicliques(24, 24, 3, 5, 5, 40, 13),
        ),
        ("sparse-random", gen::uniform(80, 60, 200, 17)),
        ("dense-zipf", gen::zipf(50, 35, 260, 0.6, 0.9, 29)),
        ("preferential", gen::preferential_attachment(100, 50, 3, 23)),
    ]
}

#[test]
fn incremental_state_equals_from_scratch_after_every_batch() {
    for (name, g) in families() {
        let schedule = seeded_schedule(&g, 5, 30, 0xD15C0 ^ g.num_edges() as u64);
        // Aggressive compaction + a mid dirty threshold: exercise overlay
        // rebuilds and both recompute policies across the families. The
        // engine verifies every batch against the from-scratch oracles
        // (vertex counts, per-edge counts incl. stale-entry detection,
        // tips vs BUP on both sides) before publishing its snapshot.
        let engine = StreamEngine::new(
            g,
            EngineOptions {
                config: Config::default().with_partitions(6),
                dirty_threshold: 0.15,
                compact_threshold: 0.15,
                verify: true,
            },
        );
        for (i, batch) in schedule.iter().enumerate() {
            let outcome = engine
                .apply_batch(batch)
                .unwrap_or_else(|e| panic!("{name} batch {i}: {e}"));
            assert_eq!(outcome.epoch, i as u64 + 1, "{name}: epochs count batches");
        }
    }
}

#[test]
fn policies_and_checksums_are_exercised() {
    // One denser run that must hit all three policies at least once
    // across its batches. Single-op batches dirty 3–20% of this U side,
    // so the 0.1 threshold splits them between the seeded re-peel and the
    // full recompute; unchanged comes from a no-butterfly batch appended.
    let g = gen::zipf(60, 40, 300, 0.5, 0.9, 41);
    let mut schedule = seeded_schedule(&g, 8, 1, 47);
    // A pendant edge to a brand-new vertex closes no butterfly.
    schedule.push(vec![EdgeOp::Insert(1000, 999)]);
    let engine = StreamEngine::new(
        g,
        EngineOptions {
            config: Config::default().with_partitions(6),
            dirty_threshold: 0.1,
            ..EngineOptions::default()
        },
    );
    let mut policies = Vec::new();
    for batch in &schedule {
        let outcome = engine.apply_batch(batch).unwrap();
        policies.push(outcome.update(Side::U).policy);
        let snap = &outcome.snapshot;
        let oracle = receipt::bup::bup_decompose(snap.graph(), Side::U, 4);
        assert_eq!(snap.tip_side(Side::U), &oracle.tip[..]);
        assert_eq!(
            snap.tip_checksum(Side::U),
            receipt::dynamic::fnv1a_u64(&oracle.tip),
        );
    }
    assert!(policies.contains(&UpdatePolicy::Unchanged), "{policies:?}");
    assert!(
        policies.contains(&UpdatePolicy::SeededRepeel),
        "{policies:?}"
    );
    assert!(
        policies.contains(&UpdatePolicy::FullRecompute),
        "{policies:?}"
    );
}

#[test]
fn identical_and_correct_at_1_and_4_threads() {
    // The acceptance gate: the same schedule, replayed under explicit
    // pools of 1 and 4 workers, must produce byte-identical batch deltas
    // and tip trajectories — and both must match the from-scratch
    // oracles. (CI additionally runs the whole file under the
    // RAYON_NUM_THREADS matrix.)
    let g = gen::zipf(50, 40, 250, 0.5, 0.9, 53);
    let schedule = seeded_schedule(&g, 4, 30, 59);
    let run = |threads: usize| {
        parutil::with_pool(threads, || {
            let engine = StreamEngine::new(
                g.clone(),
                EngineOptions {
                    config: Config::default().with_partitions(6),
                    dirty_threshold: 0.1,
                    compact_threshold: 0.2,
                    verify: true,
                },
            );
            let mut trajectory = Vec::new();
            for (i, batch) in schedule.iter().enumerate() {
                let outcome = engine
                    .apply_batch(batch)
                    .unwrap_or_else(|e| panic!("threads={threads} batch {i}: {e}"));
                trajectory.push((
                    outcome.delta.clone(),
                    outcome.snapshot.tip_side(Side::U).to_vec(),
                ));
            }
            trajectory
        })
    };
    let t1 = run(1);
    let t4 = run(4);
    assert_eq!(t1, t4, "batch deltas or tips changed with the pool size");
}
