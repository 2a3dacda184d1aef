//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload static_tr|stream_small|serve_mixed --seed N
//!           --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
//!           [--commit C] [--rustc V]
//! ```
//!
//! With `--trace 0` a run prints the workload's end-to-end metrics; with
//! `--trace 1` it replays the same inputs through each layer's public
//! entry points and prints per-layer metrics. Every run checks the
//! program's outputs against an oracle first; a failed check fails the
//! run and yields no numbers. The last stdout line is the JSON result;
//! a fuller record (provenance, notes, span summary, and with tracing
//! the raw spans) goes to `DIR` (default `.bench_out`). See README.md.

#![forbid(unsafe_code)]

mod openloop;
mod pipeline;
mod report;
mod serve_mixed;
mod static_tr;
mod stats;
mod stream_small;
mod trace;

use bigraph::datasets::AnalogSpec;
use report::Report;
use std::path::{Path, PathBuf};
use std::time::Duration;
use trace::Tracer;

/// How many times a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Everything a workload needs to know about its run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Tiny inputs, so each workload finishes in seconds (for tests).
    pub smoke: bool,
    /// Scratch directory of this run, removed when the run passes.
    pub work: PathBuf,
    pub nproc: usize,
}

impl Ctx {
    /// `spec` at the run's scale: as the library defines it, or shrunk
    /// 100-fold for smoke runs.
    pub fn dataset(&self, spec: AnalogSpec) -> AnalogSpec {
        if self.smoke {
            AnalogSpec {
                nu: spec.nu / 100,
                nv: (spec.nv / 100).max(8),
                m: spec.m / 100,
                ..spec
            }
        } else {
            spec
        }
    }

    /// An independent stream of the workload seed, one per `salt`.
    pub fn derive(&self, salt: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(salt))
    }
}

pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
    commit: String,
    rustc: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from(".bench_out"),
        commit: "unknown".into(),
        rustc: "unknown".into(),
    };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| {
            value
                .parse::<f64>()
                .map_err(|_| format!("{what} must be a number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed must be a u64, got {value:?}"))?,
                )
            }
            "--seconds" => seconds = Some(number("--seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--out-dir" => parsed.out_dir = PathBuf::from(value),
            "--commit" => parsed.commit = value.clone(),
            "--rustc" => parsed.rustc = value.clone(),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !["static_tr", "stream_small", "serve_mixed"].contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be static_tr, stream_small or serve_mixed, got {:?}",
            parsed.workload
        ));
    }
    parsed.seed = seed.ok_or("--seed is required")?;
    parsed.seconds = seconds
        .filter(|s| *s > 0.0)
        .ok_or("--seconds must be given and positive")?;
    parsed.trace = trace.ok_or("--trace is required")?;
    Ok(parsed)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Smoke runs check function, not speed, so tests may run them from a
    // debug build; timings from one would mislead.
    if cfg!(debug_assertions) && !args.smoke {
        eprintln!("perfbench: refusing to time a debug build; build with --release");
        std::process::exit(2);
    }
    let code = match run(&args) {
        Ok(correct) => i32::from(!correct),
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

/// Runs one workload and prints its result; `Ok(correct)`.
fn run(args: &Args) -> Result<bool, String> {
    let tag = format!("{}-s{}-t{}", args.workload, args.seed, u8::from(args.trace));
    let work = args
        .out_dir
        .join("work")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        trace: args.trace,
        smoke: args.smoke,
        work,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut report = Report::default();
    let mut tracer = Tracer::default();
    let outcome = match args.workload.as_str() {
        "static_tr" => static_tr::run(&ctx, &mut report, &mut tracer),
        "stream_small" => stream_small::run(&ctx, &mut report, &mut tracer),
        _ => serve_mixed::run(&ctx, &mut report, &mut tracer),
    };
    if let Err(e) = outcome {
        report.gate(false, || e);
    }
    // Every declared metric, or no result: a traced run reads 0 for the
    // layers its workload does not call; an untraced run must have
    // measured all of them.
    let declared: &[(&str, &'static str)] = if ctx.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    report.complete(declared, ctx.trace)?;
    // A failed run keeps its scratch directory (server logs, stores) for
    // diagnosis.
    if report.correct() {
        let _ = std::fs::remove_dir_all(&ctx.work);
    }

    let provenance = provenance(args, &ctx);
    write_record(
        &args.out_dir,
        &tag,
        &provenance,
        &report,
        &tracer,
        ctx.trace,
    )?;
    print_summary(&provenance, &report);
    println!("{}", report.result_line());
    Ok(report.correct())
}

fn provenance(args: &Args, ctx: &Ctx) -> serde_json::Map {
    let mut p = serde_json::Map::new();
    p.insert("workload", args.workload.as_str().into());
    p.insert("seed", args.seed.into());
    p.insert("seconds", args.seconds.into());
    p.insert("trace", args.trace.into());
    p.insert("smoke", args.smoke.into());
    p.insert("nproc", (ctx.nproc as u64).into());
    p.insert("rayon_pool", (rayon::current_num_threads() as u64).into());
    p.insert("commit", args.commit.as_str().into());
    p.insert("rustc", args.rustc.as_str().into());
    p.insert(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
        .into(),
    );
    p
}

/// Writes the run's full record, and with tracing its raw spans.
fn write_record(
    out_dir: &Path,
    tag: &str,
    provenance: &serde_json::Map,
    report: &Report,
    tracer: &Tracer,
    trace: bool,
) -> Result<(), String> {
    use serde_json::{Map, Value};
    let mut metrics = Map::new();
    for (name, value, unit) in report.metrics() {
        let mut m = Map::new();
        m.insert("value", (*value).into());
        m.insert("unit", (*unit).into());
        metrics.insert(name.clone(), Value::Object(m));
    }
    let mut spans = Map::new();
    for (name, s) in tracer.summary() {
        let mut m = Map::new();
        m.insert("count", (s.count as u64).into());
        m.insert("median_total_ms", s.total_ms.into());
        m.insert("median_self_ms", s.self_ms.into());
        spans.insert(name, Value::Object(m));
    }
    let failures = report
        .gate_failures
        .iter()
        .map(|f| Value::from(f.as_str()))
        .collect();
    let mut record = Map::new();
    record.insert("provenance", Value::Object(provenance.clone()));
    record.insert("correct", report.correct().into());
    record.insert("attempted", report.attempted.into());
    record.insert("failed", report.failed.into());
    record.insert("gate_failures", Value::Array(failures));
    record.insert("metrics", Value::Object(metrics));
    record.insert("notes", Value::Object(report.notes().clone()));
    record.insert("spans", Value::Object(spans));
    let write = |path: PathBuf, text: String| {
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let json = serde_json::to_string_pretty(&Value::Object(record)).map_err(|e| e.to_string())?;
    write(out_dir.join(format!("{tag}.json")), json)?;
    if trace {
        write(
            out_dir.join(format!("{tag}.spans.jsonl")),
            tracer.to_jsonl(),
        )?;
    }
    Ok(())
}

fn print_summary(provenance: &serde_json::Map, report: &Report) {
    println!(
        "# provenance {}",
        serde_json::to_string(&serde_json::Value::Object(provenance.clone())).unwrap_or_default()
    );
    for failure in &report.gate_failures {
        println!("# GATE FAILED: {failure}");
    }
    for (name, value, unit) in report.metrics() {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    for (key, value) in report.notes().iter() {
        println!("# {key} = {value}");
    }
    let frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "# failed_frac = {frac} ({} of {} operations)",
        report.failed, report.attempted
    );
}
