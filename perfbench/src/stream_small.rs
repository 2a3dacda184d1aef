//! `stream_small`: a durable `StreamEngine` on the It analog, driven in
//! a closed loop by one writer applying 4-op batches (60/40
//! insert/delete) back to back. Each batch runs the incremental index,
//! both tip refreshes, the WAL append and fsync, the snapshot build and
//! publish, and every 8th batch a checkpoint fold.

use crate::pipeline::{self, EngineBatch, Pipeline};
use crate::report::{peak_rss_mb, Report};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Ctx, SETUP_REPEATS};
use bigraph::Side;
use receipt::engine::{EngineOptions, StreamEngine};
use receipt::wal::DEFAULT_CHECKPOINT_EVERY;
use std::time::Instant;

const OPS_PER_BATCH: usize = 4;
/// More batches than any run can apply in its time budget.
const SCHEDULED_BATCHES: usize = 2000;

pub fn run(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let spec = ctx.dataset(bigraph::datasets::IT);
    let g0 = spec.generate();
    let schedule = bigraph::dynamic::seeded_schedule(
        &g0,
        SCHEDULED_BATCHES,
        OPS_PER_BATCH,
        ctx.derive(0x5eed),
    );
    report.note("edges", g0.num_edges() as u64);

    // Set-up: generate the graph and open a fresh durable store, timed
    // several times; the last engine runs the batches.
    let mut setups = Vec::new();
    let mut engine = None;
    for i in 0..SETUP_REPEATS {
        drop(engine.take());
        let dir = ctx.work.join(format!("store-{i}"));
        let t = Instant::now();
        let g = spec.generate();
        let (e, _) = StreamEngine::open_durable(
            &dir,
            Some(g),
            EngineOptions::default(),
            DEFAULT_CHECKPOINT_EVERY,
        )?;
        setups.push(t.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let engine = engine.expect("SETUP_REPEATS > 0");

    // A traced run replays each batch through the layers right after the
    // engine applied it, so both see the machine in the same state.
    let mut replay = if ctx.trace {
        Some(Pipeline::new(
            g0,
            &EngineOptions::default(),
            &ctx.work.join("shadow"),
            DEFAULT_CHECKPOINT_EVERY,
        )?)
    } else {
        None
    };
    // At least enough batches for a tail (10 beyond the median), which
    // also covers a checkpoint fold, however slow each batch gets.
    let min_batches = 2 * crate::stats::TAIL_BEYOND;
    let mut batch_ms = Vec::new();
    let mut engine_batches = Vec::new();
    let mut counters = Vec::new();
    let t_run = Instant::now();
    for batch in &schedule {
        if batch_ms.len() >= min_batches && t_run.elapsed() >= ctx.seconds {
            break;
        }
        report.attempted += 1;
        let t = Instant::now();
        let outcome = engine.apply_batch(batch);
        let elapsed = t.elapsed();
        batch_ms.push(elapsed.as_secs_f64() * 1e3);
        match outcome {
            Ok(o) if o.checkpoint_error.is_none() => {
                engine_batches.push(EngineBatch::new(elapsed, &o));
            }
            Ok(o) => report.gate(false, || o.checkpoint_error.unwrap_or_default()),
            Err(e) => report.gate(false, || format!("apply_batch: {e}")),
        }
        if let Some(replay) = replay.as_mut() {
            counters.push(replay.apply(batch, tracer)?);
        }
    }
    let rss = peak_rss_mb("self");

    if let Some(replay) = replay {
        let snapshot = engine.snapshot();
        let expected = [Side::U, Side::V].map(|s| snapshot.tip_checksum(s));
        report.gate(replay.tip_checksums() == expected, || {
            "traced replay reached different tips than the engine".into()
        });
        pipeline::report_layers(report, tracer, &counters, &engine_batches);
        pipeline::report_decompose_layers(report, tracer, &replay, expected, ctx.nproc);
    } else {
        // The closed-loop writer waits on each batch: a batch is both
        // the unit of work and the request.
        report.metric("setup_s", median(&setups).unwrap_or(0.0), "s");
        report.work_and_latency(&batch_ms, &batch_ms);
        if let Some(rss) = rss {
            report.metric("peak_rss_mb", rss, "MB");
        }
    }
    report.note("ops_per_batch", OPS_PER_BATCH as u64);

    // Gate: the engine's incremental state equals a from-scratch
    // recount + BUP after the last batch.
    if let Err(e) = engine.verify_against_scratch() {
        report.gate(false, || format!("verify_against_scratch: {e}"));
    }
    Ok(())
}
