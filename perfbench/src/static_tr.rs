//! `static_tr`: RECEIPT's own kernel — a full tip decomposition of both
//! sides of the Tr analog, in process, with a pool of `nproc` threads.
//! Counting, CD, FD, the intersection kernels and the scheduler do all of
//! the work; the dynamic, engine, WAL and serve layers do none.
//!
//! The graph is the only input, so the workload seed draws it: a fresh
//! sample of the Tr analog's shape (same side sizes, edge count and
//! degree skew; another seed of its generator). Relabeling one fixed
//! graph by a seeded permutation was tried and rejected: it destroys the
//! generator's degree-ordered id locality, which slows the decomposition
//! by about a quarter and makes it vary more from seed to seed than new samples
//! do.

use crate::report::{peak_rss_mb, Report};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Ctx;
use bigraph::{BipartiteCsr, Side};
use receipt::{cd, fd, Config, Metrics};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Generating the graph takes tens of milliseconds, short enough to be
/// at the mercy of one page-fault burst, so its median takes more draws
/// than the engine workloads' set-up does.
const GENERATE_REPEATS: usize = 11;

pub fn run(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let spec = bigraph::datasets::AnalogSpec {
        seed: ctx.derive(bigraph::datasets::TR.seed),
        ..ctx.dataset(bigraph::datasets::TR)
    };
    let mut setups = Vec::new();
    let mut graph = None;
    for _ in 0..GENERATE_REPEATS {
        let t = Instant::now();
        graph = Some(black_box(spec.generate()));
        setups.push(t.elapsed().as_secs_f64());
    }
    let g = graph.expect("GENERATE_REPEATS > 0");
    let config = Config::default().with_threads(ctx.nproc);
    report.note("edges", g.num_edges() as u64);
    report.note("pool_threads", ctx.nproc as u64);

    // Untraced decompositions: the end-to-end numbers, or in a traced run
    // the untraced half that the traced half is compared against.
    let budget = if ctx.trace {
        ctx.seconds / 2
    } else {
        ctx.seconds
    };
    let mut reference: Option<[Vec<u64>; 2]> = None;
    let mut untraced_ms = Vec::new();
    let t_run = Instant::now();
    while untraced_ms.is_empty() || t_run.elapsed() < budget {
        let t = Instant::now();
        let du = receipt::tip_decompose(&g, Side::U, &config);
        let dv = receipt::tip_decompose(&g, Side::V, &config);
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.attempted += 1;
        let tips = [du.tip, dv.tip];
        match &reference {
            None => reference = Some(tips),
            Some(first) => report.gate(*first == tips, || {
                "a repeated decomposition gave different tips".into()
            }),
        }
    }
    let rss = peak_rss_mb("self");
    let reference = reference.expect("at least one decomposition ran");

    if ctx.trace {
        let (tips, runs) = decompose_layers(report, tracer, &g, &config, |runs, elapsed| {
            runs == 0 || elapsed < ctx.seconds / 2
        });
        report.attempted += runs;
        report.gate(tips == reference, || {
            "a traced decomposition gave different tips".into()
        });
        let traced_ms = tracer.summary().get(DECOMPOSE).map_or(0.0, |s| s.total_ms);
        let untraced = median(&untraced_ms).unwrap_or(0.0);
        report.metric("trace.traced_total_ms", traced_ms, "ms");
        report.metric("trace.untraced_total_ms", untraced, "ms");
        report.metric("trace.overhead_frac", traced_ms / untraced - 1.0, "frac");
        report.note("traced_decompositions", runs);
    } else {
        // A decomposition is both the unit of work and the request.
        report.metric("setup_s", median(&setups).unwrap_or(0.0), "s");
        report.work_and_latency(&untraced_ms, &untraced_ms);
        if let Some(rss) = rss {
            report.metric("peak_rss_mb", rss, "MB");
        }
        let samples: Vec<serde_json::Value> = untraced_ms.iter().map(|&s| s.into()).collect();
        report.note("decompose_ms_samples", serde_json::Value::Array(samples));
    }

    // Oracle, outside the timed region: sequential bottom-up peeling.
    for (i, side) in [Side::U, Side::V].into_iter().enumerate() {
        let oracle = receipt::bup::bup_decompose(&g, side, config.heap_arity);
        report.gate(oracle.tip == reference[i], || {
            format!("{side}-side tips differ from BUP")
        });
    }
    Ok(())
}

/// Name of the span around one traced U+V decomposition.
const DECOMPOSE: &str = "decompose";

/// Decomposes both sides of `g` while `more(runs so far, time so far)`
/// holds: each side's CD and FD in their own spans under one `decompose`
/// span, inside the same pool `tip_decompose` builds. Then times the
/// counting layer on its own, as often, and reports the per-layer
/// metrics of the decomposition path: CD and FD times, the counters of
/// the returned `Metrics`, and the scheduler's counters per
/// decomposition. Every run must give the same tips (a gate); returns
/// them with the number of runs.
///
/// `static_tr` runs this on its graph. The engine workloads run it on
/// their final graph: it is what their set-up and every full-recompute
/// tip refresh compute.
pub fn decompose_layers(
    report: &mut Report,
    tracer: &mut Tracer,
    g: &BipartiteCsr,
    config: &Config,
    more: impl Fn(u64, Duration) -> bool,
) -> ([Vec<u64>; 2], u64) {
    let mut metrics: Vec<Metrics> = Vec::new();
    let mut first: Option<[Vec<u64>; 2]> = None;
    let before = rayon::scheduler_stats();
    let t_run = Instant::now();
    let mut runs = 0u64;
    while more(runs, t_run.elapsed()) {
        let decompose = tracer.open(DECOMPOSE, None);
        let parent = Some(decompose);
        let mut tips: [Vec<u64>; 2] = Default::default();
        let mut m = Metrics::default();
        for (i, (cd_span, fd_span)) in [
            ("cd.coarse_decompose_u", "fd.fine_decompose_u"),
            ("cd.coarse_decompose_v", "fd.fine_decompose_v"),
        ]
        .into_iter()
        .enumerate()
        {
            let side = [Side::U, Side::V][i];
            // `tip_decompose` runs CD then FD inside one pool of
            // `config.threads`; so does this.
            let d = parutil::with_pool(config.threads, || {
                let coarse = tracer.time(cd_span, parent, || cd::coarse_decompose(g, side, config));
                tracer.time(fd_span, parent, || {
                    fd::fine_decompose(g.view(side), coarse, config)
                })
            });
            m.absorb(&d.metrics);
            tips[i] = d.tip;
        }
        tracer.close(decompose);
        match &first {
            None => first = Some(tips),
            Some(f) => report.gate(*f == tips, || {
                "a repeated traced decomposition gave different tips".into()
            }),
        }
        metrics.push(m);
        runs += 1;
    }
    let after = rayon::scheduler_stats();
    for _ in 0..runs {
        parutil::with_pool(config.threads, || {
            tracer.time("butterfly.par_count", None, || {
                black_box(butterfly::par_count_graph(g))
            })
        });
    }

    let summary = tracer.summary();
    let ms = |name: &str| summary.get(name).map_or(0.0, |s| s.total_ms);
    report.metric("butterfly.par_count_ms", ms("butterfly.par_count"), "ms");
    for name in [
        "cd.coarse_decompose_u",
        "cd.coarse_decompose_v",
        "fd.fine_decompose_u",
        "fd.fine_decompose_v",
    ] {
        let (layer, side) = name.rsplit_once('_').expect("span names end in _u or _v");
        report.metric(format!("{layer}_ms_{side}"), ms(name), "ms");
    }
    let med = |f: &dyn Fn(&Metrics) -> u64| {
        median(&metrics.iter().map(|m| f(m) as f64).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    report.metric("cd.wedges", med(&|m| m.wedges_cd), "count");
    report.metric("cd.sync_rounds", med(&|m| m.sync_rounds), "count");
    report.metric("cd.recounts", med(&|m| m.recounts), "count");
    report.metric("cd.compactions", med(&|m| m.compactions), "count");
    report.metric("fd.wedges", med(&|m| m.wedges_fd), "count");
    report.metric("count.wedges", med(&|m| m.wedges_count), "count");

    let per_run = runs.max(1) as f64;
    let jobs = after.jobs_submitted - before.jobs_submitted;
    let steals = after.steals_succeeded - before.steals_succeeded;
    let probes = after.steals_attempted - before.steals_attempted;
    report.metric("rayon.jobs", jobs as f64 / per_run, "count");
    report.metric("rayon.steals", steals as f64 / per_run, "count");
    report.metric(
        "rayon.steal_success_frac",
        steals as f64 / probes.max(1) as f64,
        "frac",
    );
    report.metric(
        "decompose.self_ms",
        summary.get(DECOMPOSE).map_or(0.0, |s| s.self_ms),
        "ms",
    );
    (first.unwrap_or_default(), runs)
}
