//! The engine's batch path replayed through each layer's public entry
//! point, one span per call, so each layer's share of a batch can be
//! read off without instrumenting the engine itself.
//!
//! `StreamEngine::apply_batch` runs, in order: WAL append (+ fsync), the
//! butterfly index update (which classifies the batch first), the U and
//! V tip refreshes, the snapshot build (one materialization plus count
//! and tip copies), publish, and the checkpoint fold. The replay calls
//! the same functions in the same order on its own copy of the state.
//! It cannot reach the private snapshot build, so it times the
//! materialization the snapshot starts with; the rest of the build and
//! the publish are what `engine.other_ms` derives.

use crate::trace::{SpanId, Tracer};
use bigraph::{BipartiteCsr, EdgeOp, Side};
use butterfly::DynamicButterflyIndex;
use receipt::dynamic::{DynamicTipState, TipUpdate, UpdatePolicy};
use receipt::engine::{BatchOutcome, EngineOptions};
use receipt::wal::{DurableLog, Store};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Span names, shared with the metric names they become.
const CLASSIFY: &str = "bigraph.classify";
const WAL_APPEND: &str = "wal.append";
const INDEX_APPLY: &str = "index.apply_batch";
const TIP_U: &str = "tip.update_u";
const TIP_V: &str = "tip.update_v";
const MATERIALIZE: &str = "index.materialize";
const CHECKPOINT: &str = "wal.checkpoint";
const BATCH: &str = "batch";

/// The spans besides the tip refreshes that the engine's own
/// `apply_batch` also runs. Classification is not among them: the engine
/// runs it inside the index update.
const ENGINE_STAGES: [&str; 4] = [WAL_APPEND, INDEX_APPLY, MATERIALIZE, CHECKPOINT];

/// One `StreamEngine::apply_batch` call: its wall time, and the part its
/// two tip refreshes took by the engine's own clock (`TipUpdate::time`).
/// The tip refresh is nearly all of a batch, and one call's timing of it
/// varies by more than the rest of the batch costs, so remainders are
/// taken against the same call's refresh, not the replay's.
#[derive(Debug, Clone, Copy)]
pub struct EngineBatch {
    pub ms: f64,
    pub tip_ms: f64,
}

impl EngineBatch {
    pub fn new(elapsed: Duration, outcome: &BatchOutcome) -> Self {
        EngineBatch {
            ms: elapsed.as_secs_f64() * 1e3,
            tip_ms: (outcome.update_u.time + outcome.update_v.time).as_secs_f64() * 1e3,
        }
    }
}

/// Counters of one replayed batch.
#[derive(Debug, Clone)]
pub struct BatchCounters {
    pub wal_bytes: u64,
    pub update_work: u64,
    pub butterflies_changed: u64,
    pub updates: [TipUpdate; 2],
    pub checkpointed: bool,
}

pub struct Pipeline {
    index: DynamicButterflyIndex,
    tips: [DynamicTipState; 2],
    log: DurableLog,
    wal_path: PathBuf,
}

impl Pipeline {
    /// Builds the dynamic triple from `g` as `StreamEngine::open_durable`
    /// does, over a fresh shadow store at `dir`.
    pub fn new(
        g: BipartiteCsr,
        options: &EngineOptions,
        dir: &Path,
        checkpoint_every: u64,
    ) -> Result<Self, String> {
        let (store, wal) = Store::init(dir, &g).map_err(|e| format!("shadow store: {e}"))?;
        let index = DynamicButterflyIndex::with_threshold(g, options.compact_threshold);
        let tip = |side| {
            DynamicTipState::with_threshold(
                &index,
                side,
                options.config.clone(),
                options.dirty_threshold,
            )
        };
        let tips = [tip(Side::U), tip(Side::V)];
        Ok(Pipeline {
            wal_path: Store::wal_path(dir),
            log: DurableLog::new(store, wal, 0, checkpoint_every),
            index,
            tips,
        })
    }

    /// Applies one batch, each stage in its own span under one `batch`
    /// span.
    pub fn apply(&mut self, ops: &[EdgeOp], tracer: &mut Tracer) -> Result<BatchCounters, String> {
        let batch = tracer.open(BATCH, None);
        let result = self.stages(ops, tracer, Some(batch));
        tracer.close(batch);
        result
    }

    fn stages(
        &mut self,
        ops: &[EdgeOp],
        tracer: &mut Tracer,
        batch: Option<SpanId>,
    ) -> Result<BatchCounters, String> {
        let index = &mut self.index;
        std::hint::black_box(tracer.time(CLASSIFY, batch, || index.graph().classify_batch(ops)));
        let before = wal_len(&self.wal_path)?;
        let log = &mut self.log;
        let lsn = tracer
            .time(WAL_APPEND, batch, || log.append(ops))
            .map_err(|e| format!("shadow wal append: {e}"))?;
        let wal_bytes = wal_len(&self.wal_path)? - before;
        let delta = tracer.time(INDEX_APPLY, batch, || index.apply_batch(ops));
        let [tip_u, tip_v] = &mut self.tips;
        let update_u = tracer.time(TIP_U, batch, || tip_u.update(index, &delta));
        let update_v = tracer.time(TIP_V, batch, || tip_v.update(index, &delta));
        let graph = tracer.time(MATERIALIZE, batch, || index.materialize());
        let checkpointed = tracer
            .time(CHECKPOINT, batch, || log.maybe_checkpoint(&graph, lsn))
            .map_err(|e| format!("shadow checkpoint at lsn {lsn}: {e}"))?;
        Ok(BatchCounters {
            wal_bytes,
            update_work: delta.work,
            butterflies_changed: delta.gained + delta.lost,
            updates: [update_u, update_v],
            checkpointed,
        })
    }

    /// The replay's current graph.
    pub fn graph(&self) -> BipartiteCsr {
        self.index.materialize()
    }

    /// FNV digests of both sides' tips, to check the replay reached the
    /// engine's state.
    pub fn tip_checksums(&self) -> [u64; 2] {
        self.tips
            .each_ref()
            .map(|t| receipt::dynamic::fnv1a_u64(t.tip()))
    }
}

/// U+V decompositions a traced engine workload times layer by layer.
const DECOMPOSE_RUNS: u64 = 5;

/// The decomposition layers on an engine workload:
/// [`DECOMPOSE_RUNS`] U+V decompositions of the replay's final graph
/// through [`crate::static_tr::decompose_layers`], with a pool of
/// `nproc`. That is the computation behind the engine's set-up and
/// behind every full-recompute tip refresh. The tips must equal the
/// engine's (`expected`, FNV digests per side).
pub fn report_decompose_layers(
    report: &mut crate::report::Report,
    tracer: &mut Tracer,
    replay: &Pipeline,
    expected: [u64; 2],
    nproc: usize,
) {
    let config = receipt::Config::default().with_threads(nproc);
    let (tips, _) =
        crate::static_tr::decompose_layers(report, tracer, &replay.graph(), &config, |runs, _| {
            runs < DECOMPOSE_RUNS
        });
    let got = tips.each_ref().map(|t| receipt::dynamic::fnv1a_u64(t));
    report.gate(got == expected, || {
        "decomposing the final graph gave other tips than the engine holds".into()
    });
}

fn wal_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Per-layer metrics of a replayed batch sequence: median stage times,
/// median work counters, policy counts, and the derived remainder of the
/// engine's own `apply_batch` calls on the same batches (`engine`, one
/// per batch).
pub fn report_layers(
    report: &mut crate::report::Report,
    tracer: &Tracer,
    counters: &[BatchCounters],
    engine: &[EngineBatch],
) {
    use crate::stats::median;
    let summary = tracer.summary();
    let ms = |name: &str| summary.get(name).map_or(0.0, |s| s.total_ms);
    for (span, metric) in [
        (CLASSIFY, "bigraph.classify_ms"),
        (WAL_APPEND, "wal.append_ms"),
        (INDEX_APPLY, "index.apply_batch_ms"),
        (TIP_U, "tip.update_ms_u"),
        (TIP_V, "tip.update_ms_v"),
        (MATERIALIZE, "index.materialize_ms"),
    ] {
        report.metric(metric, ms(span), "ms");
    }
    // The fold runs on every checkpoint_every-th batch only: report its
    // cost when it ran, not the median of mostly-skipped calls.
    let folds: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == CHECKPOINT)
        .zip(counters)
        .filter(|(_, c)| c.checkpointed)
        .map(|(s, _)| s.duration_ns() as f64 / 1e6)
        .collect();
    if let Some(fold) = median(&folds) {
        report.metric("wal.checkpoint_ms", fold, "ms");
    }
    report.metric("wal.checkpoints", folds.len() as f64, "count");
    let med = |f: &dyn Fn(&BatchCounters) -> f64| {
        median(&counters.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    report.metric("wal.bytes_per_batch", med(&|c| c.wal_bytes as f64), "bytes");
    report.metric("index.update_work", med(&|c| c.update_work as f64), "count");
    report.metric(
        "index.butterflies_changed",
        med(&|c| c.butterflies_changed as f64),
        "count",
    );
    for (i, side) in ["u", "v"].into_iter().enumerate() {
        report.metric(
            format!("tip.peel_wedges_{side}"),
            med(&|c| c.updates[i].wedges as f64),
            "count",
        );
        report.metric(
            format!("tip.dirty_frac_{side}"),
            med(&|c| c.updates[i].dirty_fraction),
            "frac",
        );
    }
    for (policy, name) in [
        (UpdatePolicy::Unchanged, "tip.policy_unchanged"),
        (UpdatePolicy::SeededRepeel, "tip.policy_seeded"),
        (UpdatePolicy::FullRecompute, "tip.policy_full"),
    ] {
        let n = counters
            .iter()
            .flat_map(|c| &c.updates)
            .filter(|u| u.policy == policy)
            .count();
        report.metric(name, n as f64, "count");
    }
    report.metric(
        "batch.self_ms",
        summary.get(BATCH).map_or(0.0, |s| s.self_ms),
        "ms",
    );

    // engine.other_ms: the engine's batch time minus its tip refreshes
    // and the other stages the replay timed — the snapshot build beyond
    // its materialization, plus the publish. Derived, per batch, then
    // median.
    let stages = ENGINE_STAGES.map(|name| {
        tracer
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect::<Vec<_>>()
    });
    let other: Vec<f64> = engine
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let replayed: f64 = stages
                .iter()
                .map(|c| c.get(i).copied().unwrap_or(0.0))
                .sum();
            e.ms - e.tip_ms - replayed
        })
        .collect();
    let engine_ms: Vec<f64> = engine.iter().map(|e| e.ms).collect();
    report.metric(
        "engine.apply_batch_ms",
        median(&engine_ms).unwrap_or(0.0),
        "ms",
    );
    report.metric("engine.other_ms", median(&other).unwrap_or(0.0), "ms");

    // Totals over all batches: the tip refresh's share of the engine's
    // batch time, and the tracing overhead — the traced replay's total
    // against the engine's untraced total over the same batches.
    let traced = summary.get(BATCH).map_or(0.0, |s| s.sum_ms);
    let untraced: f64 = engine_ms.iter().sum();
    if untraced > 0.0 {
        let tip: f64 = engine.iter().map(|e| e.tip_ms).sum();
        report.metric("tip.update_share", tip / untraced, "frac");
    }
    report.metric("trace.traced_total_ms", traced, "ms");
    report.metric("trace.untraced_total_ms", untraced, "ms");
    if untraced > 0.0 {
        report.metric("trace.overhead_frac", traced / untraced - 1.0, "frac");
    }
}
