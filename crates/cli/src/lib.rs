//! Implementation of the `tipdecomp` command-line tool.
//!
//! Lives in a library so the argument parsing and command execution are
//! unit-testable; `main.rs` is a thin shim.

#![forbid(unsafe_code)]

use bigraph::{BipartiteCsr, Side};
use receipt::engine::{EngineOptions, StreamEngine};
use receipt::report::{ServeResponse, ServeSessionReport, ServeStats, TopKEntry};
use receipt::{hierarchy, Config};
use std::io::{BufRead, Read, Write};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `tip <input> [--side U|V] [--partitions N] [--threads N]
    /// [--no-huc] [--no-dgm] [--output FILE] [--json] [--stats]`
    Tip {
        input: String,
        side: Side,
        config: Config,
        output: Option<String>,
        json: bool,
        stats: bool,
    },
    /// `wing <input> [--side U|V] [--partitions N] [--output FILE] [--json]`
    Wing {
        input: String,
        side: Side,
        partitions: usize,
        output: Option<String>,
        json: bool,
    },
    /// `count <input> [--output FILE] [--json]`
    Count {
        input: String,
        output: Option<String>,
        json: bool,
    },
    /// `stream <input> <ops> [--side U|V] [--dirty-threshold F]
    /// [--compact-threshold F] [--verify] [--output FILE] [--json]`
    Stream {
        input: String,
        ops: String,
        side: Side,
        /// `--partitions`, `--threads`, both thresholds, `--verify`.
        options: EngineOptions,
        output: Option<String>,
        json: bool,
    },
    /// `serve <input> [--dirty-threshold F] [--compact-threshold F]
    /// [--verify] [--requests FILE] [--socket PATH] [--output FILE]
    /// [--wal DIR] [--checkpoint-every N]`
    Serve {
        input: String,
        /// As for `stream`.
        options: EngineOptions,
        /// Scripted session: newline-delimited JSON requests; the run
        /// emits one `serve-session` report document instead of framing.
        requests: Option<String>,
        /// Speak the framed protocol over a Unix socket instead of
        /// stdin/stdout.
        socket: Option<String>,
        output: Option<String>,
        /// Durable store directory: applied batches are WAL-logged before
        /// they take effect, and an existing store is recovered (the graph
        /// file is only used to initialize a fresh store).
        wal: Option<String>,
        /// Fold a fresh checkpoint every N durable batches (0 = never).
        checkpoint_every: u64,
    },
    /// `convert <input> <output> [--from text|binary] [--to text|binary]
    /// [--json]` — formats inferred from `.bgr` extensions when not given.
    Convert {
        input: String,
        output: String,
        from: Option<String>,
        to: Option<String>,
        json: bool,
    },
    /// `recover <dir> [--json] [--output FILE]` — open a durable store,
    /// repair a torn WAL tail, replay past the checkpoint, verify against
    /// the from-scratch oracle.
    Recover {
        dir: String,
        json: bool,
        output: Option<String>,
    },
    /// `version <tag|list|diff|at> <dir> [names..] [--verify]
    /// [--dump FILE] [--json] [--output FILE]` — named versions over a
    /// durable store (`VERSIONING.md`).
    Version {
        /// `"tag"`, `"list"`, `"diff"`, or `"at"`.
        op: String,
        dir: String,
        /// Tag names: one for `tag`/`at`, two for `diff`, none for `list`.
        names: Vec<String>,
        /// `at` only: additionally oracle-verify the materialized state.
        verify: bool,
        /// `at` only: write the materialized graph here (text, or the
        /// `.bgr` binary image by extension) for `derive` to consume.
        dump: Option<String>,
        json: bool,
        output: Option<String>,
    },
    /// `derive <subgraph|union|diff> <a> [<b>] [--ids LIST] [--side U|V]
    /// --output FILE [--json]` — set-algebraic graph construction
    /// (`VERSIONING.md` §6).
    Derive {
        /// `"subgraph"`, `"union"`, or `"diff"`.
        op: String,
        a: String,
        /// Second input (`union`/`diff`).
        b: Option<String>,
        /// Comma-separated primary-side ids (`subgraph`).
        ids: Vec<u32>,
        side: Side,
        output: String,
        json: bool,
    },
    /// `ktips <input> -k N [--side U|V]`
    KTips {
        input: String,
        side: Side,
        k: u64,
    },
    /// `stats <input>`
    Stats {
        input: String,
    },
    /// `generate <preset> [--output FILE]` — emit a dataset analog.
    Generate {
        preset: String,
        output: Option<String>,
    },
    Help,
}

impl Command {
    /// The subcommand keyword, used in run-error context.
    pub fn name(&self) -> &'static str {
        match self {
            Command::Tip { .. } => "tip",
            Command::Wing { .. } => "wing",
            Command::Count { .. } => "count",
            Command::Stream { .. } => "stream",
            Command::Serve { .. } => "serve",
            Command::Convert { .. } => "convert",
            Command::Recover { .. } => "recover",
            Command::Version { .. } => "version",
            Command::Derive { .. } => "derive",
            Command::KTips { .. } => "ktips",
            Command::Stats { .. } => "stats",
            Command::Generate { .. } => "generate",
            Command::Help => "help",
        }
    }
}

/// Argument-parsing failure with a user-facing message.
#[derive(Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

pub const USAGE: &str = "\
tipdecomp — tip/wing decomposition of bipartite graphs (RECEIPT, VLDB 2020)

USAGE:
  tipdecomp tip <edges.tsv>   [--side U|V] [--partitions N] [--threads N]
                              [--no-huc] [--no-dgm] [--output FILE] [--json]
                              [--stats]
  tipdecomp wing <edges.tsv>  [--side U|V] [--partitions N] [--output FILE]
                              [--json]
  tipdecomp count <edges.tsv> [--output FILE] [--json]
  tipdecomp stream <edges.tsv> <ops.txt> [--side U|V] [--dirty-threshold F]
                              [--compact-threshold F] [--verify]
                              [--output FILE] [--json]
  tipdecomp serve <edges.tsv> [--dirty-threshold F] [--compact-threshold F]
                              [--verify] [--requests FILE] [--socket PATH]
                              [--output FILE] [--wal DIR]
                              [--checkpoint-every N]
  tipdecomp convert <in> <out> [--from text|binary] [--to text|binary]
                              [--json]
  tipdecomp recover <dir>     [--json] [--output FILE]
  tipdecomp version tag  <dir> <name>      [--json]
  tipdecomp version list <dir>             [--json] [--output FILE]
  tipdecomp version diff <dir> <a> <b>     [--json] [--output FILE]
  tipdecomp version at   <dir> <name>      [--verify] [--dump FILE]
                              [--json] [--output FILE]
  tipdecomp derive subgraph <a> --ids 0,2,5 [--side U|V] --output FILE
                              [--json]
  tipdecomp derive union <a> <b>  --output FILE [--json]
  tipdecomp derive diff  <a> <b>  --output FILE [--json]
  tipdecomp ktips <edges.tsv> -k N [--side U|V]
  tipdecomp stats <edges.tsv>
  tipdecomp generate <It|De|Or|Lj|En|Tr> [--output FILE]

Input: whitespace-separated `u v` pairs; `%`/`#` comments ignored; a
`% m nu nv` header pins side sizes and 0-based ids, otherwise 1-based
ids are auto-detected (KONECT format).
Stream ops: `+ u v` inserts, `- u v` deletes (sign may be glued to u);
blank lines separate batches. Ops share the graph file's id base (a
1-based graph file means 1-based ops). Each batch updates butterfly
counts incrementally and re-peels per the dirty-fraction policy;
`--verify` additionally checks every batch against a from-scratch
recount + BUP. Without `--output`, stream rows are flushed after every
batch so long-running streams can be tailed (`--json` then emits one
compact row per line followed by the full report document).
Serve: resident epoch-snapshot engine answering point queries (tip,
butterflies, topk, stats, epoch) and `apply` batches. Default speaks
length-prefixed JSON frames (ASCII byte length, newline, payload) on
stdin/stdout, `--socket` the same over a Unix socket; `--requests FILE`
replays newline-delimited JSON requests and emits one `serve-session`
report document. See README, \"Serve mode\".
Durability: `serve --wal DIR` logs every applied batch to a write-ahead
log before it takes effect and folds periodic checkpoints; if DIR
already holds a store the graph file is ignored and the store is
recovered instead. `convert` translates between the KONECT text format
and the checksummed `.bgr` binary image (formats inferred from the
`.bgr` extension unless `--from`/`--to` say otherwise). `recover DIR`
repairs a torn WAL tail, replays committed records past the
checkpoint, and verifies the result against a from-scratch recount +
re-peel. On-disk layouts are pinned in FORMATS.md.
Versioning: `version tag DIR NAME` names the store's current end state
as an immutable version; `list` shows every version; `diff A B` emits
the net `+/-` batch between two versions (stream-compatible lines);
`at NAME` replays to the tagged LSN, checks the state's checksums
against the ref, and (with `--dump`) writes the materialized graph for
`derive` to consume. `derive` builds new graphs set-algebraically:
`subgraph` induces on `--ids` of `--side` (the subset becomes the new
U side), `union`/`diff` merge or subtract edge sets. Contracts and
`versions.meta` bytes are pinned in VERSIONING.md; serve mode speaks
the same `tag`/`at` as request ops.
Output: `--json` emits a versioned report document (see README, \"JSON
output\") instead of TSV; `--out` is an alias for `--output`.
";

/// Positional (non-flag) arguments, skipping the value of every option
/// in `value_opts` so `--output FILE` and friends are not mistaken for
/// inputs. Used by the multi-positional subcommands (`version`,
/// `derive`).
fn positionals(rest: &[&String], value_opts: &[&str]) -> Vec<String> {
    rest.iter()
        .enumerate()
        .filter(|(i, s)| {
            !s.starts_with('-') && (*i == 0 || !value_opts.contains(&rest[i - 1].as_str()))
        })
        .map(|(_, s)| s.to_string())
        .collect()
}

/// Parses `args` (without the binary name).
pub fn parse(args: &[String]) -> Result<Command, UsageError> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    let rest: Vec<&String> = it.collect();
    let positional = |rest: &[&String]| -> Result<String, UsageError> {
        rest.first()
            .filter(|s| !s.starts_with('-'))
            .map(|s| s.to_string())
            .ok_or_else(|| UsageError(format!("`{cmd}` needs an input file")))
    };
    let flag = |name: &str| rest.iter().any(|a| a.as_str() == name);
    let opt = |name: &str| -> Option<&String> {
        rest.iter()
            .position(|a| a.as_str() == name)
            .and_then(|i| rest.get(i + 1))
            .copied()
    };
    let opt_usize = |name: &str, default: usize| -> Result<usize, UsageError> {
        match opt(name) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| UsageError(format!("{name} expects an integer, got {s:?}"))),
        }
    };
    // Both threshold flags are fractions the engine compares against: a
    // NaN makes every comparison false and silently disables the
    // full-recompute fallback or the overlay compaction.
    let opt_fraction = |name: &str, default: f64| -> Result<f64, UsageError> {
        match opt(name) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .ok()
                .filter(|x: &f64| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| {
                    UsageError(format!(
                        "{name} expects a finite non-negative number, got {s:?}"
                    ))
                }),
        }
    };
    let side = match opt("--side").map(|s| s.to_ascii_uppercase()) {
        None => Side::U,
        Some(s) if s == "U" => Side::U,
        Some(s) if s == "V" => Side::V,
        Some(s) => return Err(UsageError(format!("--side expects U or V, got {s:?}"))),
    };

    // `--out` is an alias for `--output`.
    let output = || opt("--output").or_else(|| opt("--out")).cloned();
    let config = || -> Result<Config, UsageError> {
        let mut config = Config::default();
        config.partitions = opt_usize("--partitions", config.partitions)?;
        config.threads = opt_usize("--threads", 0)?;
        Ok(config)
    };
    let engine_options = || -> Result<EngineOptions, UsageError> {
        let defaults = EngineOptions::default();
        Ok(EngineOptions {
            config: config()?,
            dirty_threshold: opt_fraction("--dirty-threshold", defaults.dirty_threshold)?,
            compact_threshold: opt_fraction("--compact-threshold", defaults.compact_threshold)?,
            verify: flag("--verify"),
        })
    };

    match cmd.as_str() {
        "tip" => {
            let mut config = config()?;
            config.huc = !flag("--no-huc");
            config.dgm = !flag("--no-dgm");
            Ok(Command::Tip {
                input: positional(&rest)?,
                side,
                config,
                output: output(),
                json: flag("--json"),
                stats: flag("--stats"),
            })
        }
        "wing" => Ok(Command::Wing {
            input: positional(&rest)?,
            side,
            partitions: opt_usize("--partitions", 0)?,
            output: output(),
            json: flag("--json"),
        }),
        "count" => Ok(Command::Count {
            input: positional(&rest)?,
            output: output(),
            json: flag("--json"),
        }),
        "stream" => {
            let input = positional(&rest)?;
            let ops = rest
                .get(1)
                .filter(|s| !s.starts_with('-'))
                .map(|s| s.to_string())
                .ok_or_else(|| UsageError("`stream` needs a graph file and an ops file".into()))?;
            Ok(Command::Stream {
                input,
                ops,
                side,
                options: engine_options()?,
                output: output(),
                json: flag("--json"),
            })
        }
        "serve" => {
            let options = engine_options()?;
            Ok(Command::Serve {
                input: positional(&rest)?,
                options,
                requests: opt("--requests").cloned(),
                socket: opt("--socket").cloned(),
                output: output(),
                wal: opt("--wal").cloned(),
                checkpoint_every: opt_usize(
                    "--checkpoint-every",
                    receipt::wal::DEFAULT_CHECKPOINT_EVERY as usize,
                )? as u64,
            })
        }
        "convert" => {
            let input = positional(&rest)?;
            let out = rest
                .get(1)
                .filter(|s| !s.starts_with('-'))
                .map(|s| s.to_string())
                .ok_or_else(|| {
                    UsageError("`convert` needs an input file and an output file".into())
                })?;
            let fmt = |name: &str| -> Result<Option<String>, UsageError> {
                match opt(name).map(|s| s.to_ascii_lowercase()) {
                    None => Ok(None),
                    Some(s) if s == "text" || s == "binary" => Ok(Some(s)),
                    Some(s) => Err(UsageError(format!(
                        "{name} expects text or binary, got {s:?}"
                    ))),
                }
            };
            Ok(Command::Convert {
                input,
                output: out,
                from: fmt("--from")?,
                to: fmt("--to")?,
                json: flag("--json"),
            })
        }
        "recover" => Ok(Command::Recover {
            dir: rest
                .first()
                .filter(|s| !s.starts_with('-'))
                .map(|s| s.to_string())
                .ok_or_else(|| UsageError("`recover` needs a store directory".into()))?,
            json: flag("--json"),
            output: output(),
        }),
        "version" => {
            let non_flags = positionals(&rest, &["--dump", "--output", "--out"]);
            let [op, tail @ ..] = non_flags.as_slice() else {
                return Err(UsageError(
                    "`version` needs an operation: tag, list, diff, or at".into(),
                ));
            };
            let [dir, names @ ..] = tail else {
                return Err(UsageError(format!(
                    "`version {op}` needs a store directory"
                )));
            };
            let arity = match op.as_str() {
                "tag" | "at" => 1,
                "list" => 0,
                "diff" => 2,
                other => {
                    return Err(UsageError(format!(
                        "unknown version operation {other:?} (tag, list, diff, or at)"
                    )))
                }
            };
            if names.len() != arity {
                return Err(UsageError(format!(
                    "`version {op}` takes {arity} tag name(s), got {}",
                    names.len()
                )));
            }
            Ok(Command::Version {
                op: op.clone(),
                dir: dir.clone(),
                names: names.to_vec(),
                verify: flag("--verify"),
                dump: opt("--dump").cloned(),
                json: flag("--json"),
                output: output(),
            })
        }
        "derive" => {
            let non_flags = positionals(&rest, &["--ids", "--side", "--output", "--out"]);
            let [op, inputs @ ..] = non_flags.as_slice() else {
                return Err(UsageError(
                    "`derive` needs an operation: subgraph, union, or diff".into(),
                ));
            };
            let want_b = match op.as_str() {
                "subgraph" => false,
                "union" | "diff" => true,
                other => {
                    return Err(UsageError(format!(
                        "unknown derive operation {other:?} (subgraph, union, or diff)"
                    )))
                }
            };
            let (a, b) = match (inputs, want_b) {
                ([a], false) => (a.clone(), None),
                ([a, b], true) => (a.clone(), Some(b.clone())),
                _ => {
                    return Err(UsageError(format!(
                        "`derive {op}` takes {} input graph(s), got {}",
                        1 + usize::from(want_b),
                        inputs.len()
                    )))
                }
            };
            let ids = match (op.as_str(), opt("--ids")) {
                ("subgraph", Some(list)) => list
                    .split(',')
                    .map(|s| {
                        s.trim().parse::<u32>().map_err(|_| {
                            UsageError(format!("--ids expects comma-separated ids, got {s:?}"))
                        })
                    })
                    .collect::<Result<Vec<u32>, _>>()?,
                ("subgraph", None) => {
                    return Err(UsageError("`derive subgraph` needs --ids LIST".into()))
                }
                _ => Vec::new(),
            };
            Ok(Command::Derive {
                op: op.clone(),
                a,
                b,
                ids,
                side,
                output: output()
                    .ok_or_else(|| UsageError(format!("`derive {op}` needs --output FILE")))?,
                json: flag("--json"),
            })
        }
        "ktips" => {
            let k = opt("-k")
                .ok_or_else(|| UsageError("ktips needs -k N".into()))?
                .parse()
                .map_err(|_| UsageError("-k expects an integer".into()))?;
            Ok(Command::KTips {
                input: positional(&rest)?,
                side,
                k,
            })
        }
        "stats" => Ok(Command::Stats {
            input: positional(&rest)?,
        }),
        "generate" => Ok(Command::Generate {
            preset: positional(&rest)?,
            output: output(),
        }),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(UsageError(format!("unknown command {other:?}"))),
    }
}

fn load(input: &str) -> Result<BipartiteCsr, String> {
    // `read_graph_path` wraps every failure with the offending path
    // (`IoError::File`), so the message already reads "failed to read
    // <path>: ...".
    bigraph::io::read_graph_path(input).map_err(|e| e.to_string())
}

/// The on-disk format of `path`: `explicit` (`convert --from`/`--to`) if
/// given, else `binary` (FORMATS.md §1) for `.bgr` and `text` otherwise.
fn format_of<'a>(path: &str, explicit: Option<&'a str>) -> &'a str {
    explicit.unwrap_or(if path.ends_with(".bgr") {
        "binary"
    } else {
        "text"
    })
}

/// Reads a graph in either on-disk format (see [`format_of`]).
fn load_any(path: &str, format: Option<&str>) -> Result<BipartiteCsr, String> {
    if format_of(path, format) == "binary" {
        bigraph::binfmt::read_binary_graph_path(path)
            .map(|r| r.graph)
            .map_err(|e| e.to_string())
    } else {
        load(path)
    }
}

/// Writes a graph in either on-disk format (see [`format_of`]).
fn write_any(g: &BipartiteCsr, path: &str, format: Option<&str>) -> Result<(), String> {
    if format_of(path, format) == "binary" {
        bigraph::binfmt::write_binary_graph_path(path, g)
            .map(|_| ())
            .map_err(|e| format!("cannot write {path}: {e}"))
    } else {
        bigraph::io::write_graph_path(g, path).map_err(|e| format!("cannot write {path}: {e}"))
    }
}

fn sink(output: &Option<String>) -> Result<Box<dyn Write>, String> {
    match output {
        None => Ok(Box::new(std::io::stdout().lock())),
        Some(path) => std::fs::File::create(path)
            .map(|f| Box::new(std::io::BufWriter::new(f)) as Box<dyn Write>)
            .map_err(|e| format!("cannot create {path}: {e}")),
    }
}

/// Pretty-prints a report document (plus trailing newline) to the sink.
fn emit_json<T: serde::Serialize>(report: &T, output: &Option<String>) -> Result<(), String> {
    let mut out = sink(output)?;
    let text = serde_json::to_string_pretty(report).map_err(|e| e.to_string())?;
    writeln!(out, "{text}").map_err(|e| e.to_string())
}

/// Aligns ops-file ids with the graph file's id base: a 1-based graph
/// file means a 1-based ops file, so shift the ops down identically.
fn rebase_ops(
    batches: Vec<Vec<bigraph::EdgeOp>>,
    graph_one_based: bool,
    ops_path: &str,
) -> Result<Vec<Vec<bigraph::EdgeOp>>, String> {
    use bigraph::EdgeOp;
    if !graph_one_based {
        return Ok(batches);
    }
    batches
        .into_iter()
        .map(|batch| {
            batch
                .into_iter()
                .map(|op| {
                    let (u, v) = op.edge();
                    if u == 0 || v == 0 {
                        return Err(format!(
                            "{ops_path}: op references id 0 but the graph file is 1-based \
                             (ops share the graph file's id base)"
                        ));
                    }
                    Ok(match op {
                        EdgeOp::Insert(..) => EdgeOp::Insert(u - 1, v - 1),
                        EdgeOp::Delete(..) => EdgeOp::Delete(u - 1, v - 1),
                    })
                })
                .collect()
        })
        .collect()
}

/// Writes stream batch rows as TSV (text-mode `stream` output), preceded
/// by the column header when `header` is set.
fn write_stream_tsv(
    out: &mut dyn Write,
    header: bool,
    rows: &[receipt::report::StreamBatchReport],
) -> Result<(), String> {
    if header {
        writeln!(
            out,
            "# batch\t+ins\t-del\tskip\tgained\tlost\ttotal_bf\tpolicy\tdirty\ttheta_max"
        )
        .map_err(|e| e.to_string())?;
    }
    for b in rows {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            b.batch,
            b.inserted,
            b.deleted,
            b.skipped,
            b.butterflies_gained,
            b.butterflies_lost,
            b.total_butterflies,
            b.policy.as_str(),
            b.dirty,
            b.theta_max,
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Drives a stream of batches through a [`StreamEngine`], producing the
/// versioned per-batch report. `on_row` sees every completed batch row as
/// soon as it exists (the incremental-emission hook: callers flush it so
/// long streams can be tailed). With `verify`, the engine differentially
/// checks every batch against a from-scratch recount and a BUP re-peel of
/// the materialized graph (a mismatch is a run error → exit 1). Honours
/// `config.threads` the same way `tip_decompose` does: a nonzero value
/// runs the whole stream inside a dedicated pool of that size.
fn run_stream(
    input: &str,
    ops: &str,
    g: bigraph::BipartiteCsr,
    batches: &[Vec<bigraph::EdgeOp>],
    side: Side,
    options: EngineOptions,
    on_row: &mut (dyn FnMut(&receipt::report::StreamBatchReport) -> Result<(), String> + Send),
) -> Result<receipt::report::StreamReport, String> {
    let threads = options.config.threads;
    let drive = move || -> Result<receipt::report::StreamReport, String> {
        let engine = StreamEngine::new(g, options.clone());
        let mut rows = Vec::with_capacity(batches.len());
        for (i, batch) in batches.iter().enumerate() {
            let outcome = engine
                .apply_batch(batch)
                .map_err(|e| format!("batch {i}: {e}"))?;
            let row = receipt::report::StreamBatchReport::from_outcome(i, side, &outcome);
            on_row(&row)?;
            rows.push(row);
        }
        let snapshot = engine.snapshot();
        Ok(receipt::report::StreamReport {
            schema_version: receipt::report::SCHEMA_VERSION,
            kind: "stream".to_string(),
            input: input.to_string(),
            ops: ops.to_string(),
            side,
            config: options.config,
            dirty_threshold: options.dirty_threshold,
            verified: options.verify,
            batches: rows,
            final_num_edges: snapshot.graph().num_edges(),
            final_total_butterflies: snapshot.total_butterflies(),
            final_theta_max: snapshot.theta_max(side),
            final_tip_checksum: snapshot.tip_checksum(side),
        })
    };
    if threads > 0 {
        parutil::with_pool(threads, drive)
    } else {
        drive()
    }
}

// ---------------------------------------------------------------------------
// Serve mode: length-prefixed JSON frames over stdin/stdout or a Unix
// socket, or a scripted newline-delimited session (`--requests`). All ids
// on the wire share the graph file's id base, exactly like stream ops.

/// Reads one length-prefixed frame: an ASCII decimal byte length, a
/// newline, then exactly that many payload bytes. Returns `None` on clean
/// EOF (or a blank line, which closes the session like EOF).
pub fn read_frame(reader: &mut dyn BufRead) -> Result<Option<String>, String> {
    let mut header = String::new();
    let n = reader
        .read_line(&mut header)
        .map_err(|e| format!("serve: failed to read frame header: {e}"))?;
    let header = header.trim();
    if n == 0 || header.is_empty() {
        return Ok(None);
    }
    let len: usize = header.parse().map_err(|_| {
        format!("serve: frame header must be a decimal byte length, got {header:?}")
    })?;
    // Grow with the bytes that arrive, never with the claimed length: a
    // hostile header must not size an allocation.
    let mut payload = Vec::new();
    let got = Read::take(reader, len as u64)
        .read_to_end(&mut payload)
        .map_err(|e| format!("serve: truncated {len}-byte frame: {e}"))?;
    if got < len {
        return Err(format!(
            "serve: truncated {len}-byte frame: got {got} bytes"
        ));
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|e| format!("serve: frame payload is not UTF-8: {e}"))
}

/// Writes one length-prefixed frame and flushes it.
pub fn write_frame(writer: &mut dyn Write, payload: &str) -> Result<(), String> {
    write!(writer, "{}\n{payload}", payload.len()).map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())
}

/// Reads an optional vertex-id field, shifting it down when the graph
/// file (and therefore the wire protocol) is 1-based.
fn req_id(value: &serde_json::Value, field: &str, one_based: bool) -> Result<Option<u32>, String> {
    let Some(entry) = value.get(field).filter(|e| !e.is_null()) else {
        return Ok(None);
    };
    let id = entry
        .as_u64()
        .ok_or_else(|| format!("{field} must be a non-negative integer"))?;
    if one_based && id == 0 {
        return Err(format!(
            "{field} is 0 but the graph file is 1-based (ids share its base)"
        ));
    }
    let id = if one_based { id - 1 } else { id };
    u32::try_from(id)
        .map(Some)
        .map_err(|_| format!("{field} {id} out of range"))
}

fn req_side(value: &serde_json::Value) -> Result<Side, String> {
    match value.get("side").and_then(|s| s.as_str()) {
        None => Ok(Side::U),
        Some(s) if s.eq_ignore_ascii_case("U") => Ok(Side::U),
        Some(s) if s.eq_ignore_ascii_case("V") => Ok(Side::V),
        Some(other) => Err(format!("side must be U or V, got {other:?}")),
    }
}

/// Answers one serve request. `Ok((response, shutdown))` covers both
/// well-formed answers and per-request errors (`ok: false` responses —
/// unknown op, out-of-range vertex, absent edge); `Err` is reserved for
/// fatal session failures, i.e. an `apply` whose in-engine differential
/// verification diverged.
pub fn handle_request(
    engine: &StreamEngine,
    one_based: bool,
    seq: u64,
    text: &str,
) -> Result<(ServeResponse, bool), String> {
    // Every query answers from ONE snapshot grabbed up front, so the
    // response is internally consistent with a single epoch even while a
    // writer publishes mid-request.
    let snapshot = engine.snapshot();
    let epoch = snapshot.epoch();
    let fail = |op: &str, e: String| Ok((ServeResponse::error(seq, op, epoch, e), false));

    let value = match serde_json::from_str_value(text) {
        Ok(v) => v,
        Err(e) => return fail("?", format!("unparseable request: {e}")),
    };
    let Some(op) = value.get("op").and_then(|v| v.as_str()).map(str::to_owned) else {
        return fail("?", "request needs a string `op` field".into());
    };

    let has_vertex = value.get("vertex").is_some_and(|v| !v.is_null());
    let mut response = ServeResponse::new(seq, &op, epoch);
    match op.as_str() {
        "tip" | "butterflies" if has_vertex || op == "tip" => {
            let side = match req_side(&value) {
                Ok(s) => s,
                Err(e) => return fail(&op, e),
            };
            let vertex = match req_id(&value, "vertex", one_based) {
                Ok(Some(v)) => v,
                Ok(None) => return fail(&op, format!("{op} needs a `vertex` field")),
                Err(e) => return fail(&op, e),
            };
            let answer = match op.as_str() {
                "tip" => snapshot.tip(side, vertex),
                _ => snapshot.vertex_butterflies(side, vertex),
            };
            match answer {
                Some(v) => response.value = Some(v),
                None => return fail(&op, format!("vertex {vertex} out of range on side {side}")),
            }
        }
        "butterflies" => {
            // Edge form: `{"op": "butterflies", "u": .., "v": ..}`.
            let (u, v) = match (
                req_id(&value, "u", one_based),
                req_id(&value, "v", one_based),
            ) {
                (Ok(Some(u)), Ok(Some(v))) => (u, v),
                (Err(e), _) | (_, Err(e)) => return fail(&op, e),
                _ => {
                    return fail(
                        &op,
                        "butterflies needs either `vertex` (+ optional `side`) or `u` and `v`"
                            .into(),
                    )
                }
            };
            match snapshot.edge_butterflies(u, v) {
                Some(c) => response.value = Some(c),
                None => return fail(&op, format!("edge ({u}, {v}) is absent")),
            }
        }
        "topk" => {
            let side = match req_side(&value) {
                Ok(s) => s,
                Err(e) => return fail(&op, e),
            };
            let k = value.get("k").and_then(|v| v.as_u64()).unwrap_or(10) as usize;
            let shift = u32::from(one_based);
            response.topk = Some(
                snapshot
                    .top_k_densest(side, k)
                    .into_iter()
                    .map(|d| TopKEntry {
                        id: d.id + shift,
                        side,
                        tip: d.tip,
                        butterflies: d.butterflies,
                    })
                    .collect(),
            );
        }
        "stats" => response.stats = Some(ServeStats::from_snapshot(&snapshot)),
        "epoch" => response.value = Some(epoch),
        "apply" => {
            let Some(items) = value.get("ops").and_then(|v| v.as_array()) else {
                return fail(
                    &op,
                    "apply needs an `ops` array of \"+u v\" / \"-u v\" strings".into(),
                );
            };
            let mut text = String::new();
            for item in items {
                let Some(line) = item.as_str() else {
                    return fail(&op, "apply ops must be strings".into());
                };
                // Blank entries would split batches in the file format;
                // one request is one batch.
                if line.trim().is_empty() {
                    continue;
                }
                text.push_str(line);
                text.push('\n');
            }
            let batches = match bigraph::dynamic::read_batches(text.as_bytes()) {
                Ok(b) => b,
                Err(e) => return fail(&op, format!("bad apply ops: {e}")),
            };
            let batch: Vec<bigraph::EdgeOp> = batches.into_iter().flatten().collect();
            let batch = match rebase_ops(vec![batch], one_based, "apply request") {
                Ok(mut b) => b.pop().unwrap_or_default(),
                Err(e) => return fail(&op, e),
            };
            // A verification divergence is fatal: the engine state can no
            // longer be trusted, so the session dies rather than `ok:
            // false`-ing its way onward.
            let outcome = engine
                .apply_batch(&batch)
                .map_err(|e| format!("apply (seq {seq}): {e}"))?;
            // A failed checkpoint fold is non-fatal (the batch is
            // committed and published): warn and keep serving.
            if let Some(warning) = &outcome.checkpoint_error {
                eprintln!("wal: warning: {warning}; retrying at the next boundary");
            }
            response.epoch = outcome.epoch;
            response.batch = Some(receipt::report::StreamBatchReport::from_outcome(
                outcome.epoch as usize - 1,
                req_side(&value).unwrap_or(Side::U),
                &outcome,
            ));
        }
        "tag" => {
            // Versioning ops need the durable store next to the WAL
            // (`VERSIONING.md` §2); a memory-only engine has no history
            // to tag.
            let Some(dir) = engine.store_dir() else {
                return fail(&op, "tag requires a durable store (serve --wal DIR)".into());
            };
            let Some(name) = value.get("name").and_then(|v| v.as_str()) else {
                return fail(&op, "tag needs a string `name` field".into());
            };
            let mut versions = match receipt::version::VersionStore::open(&dir) {
                Ok(v) => v,
                Err(e) => return fail(&op, e.to_string()),
            };
            // The tag names the engine's current end state (§3.2): the
            // published snapshot plus the LSN it was committed under.
            let lsn = engine.end_lsn().unwrap_or(0);
            match versions.tag_snapshot(name, lsn, &snapshot) {
                Ok(vref) => {
                    response.version = Some(receipt::report::VersionEntryReport::from_ref(vref))
                }
                Err(e) => return fail(&op, e.to_string()),
            }
        }
        "at" => {
            let Some(dir) = engine.store_dir() else {
                return fail(&op, "at requires a durable store (serve --wal DIR)".into());
            };
            let Some(name) = value.get("name").and_then(|v| v.as_str()) else {
                return fail(&op, "at needs a string `name` field".into());
            };
            // Time travel replays into a throwaway read-only engine;
            // `open_at` already checksum-verifies the reached state, so
            // the per-batch differential oracle stays off.
            let mut options = engine.options().clone();
            options.verify = false;
            match StreamEngine::open_at(&dir, name, options) {
                Ok((historic, info)) => {
                    response.version =
                        Some(receipt::report::VersionEntryReport::from_ref(&info.version));
                    response.stats = Some(ServeStats::from_snapshot(&historic.snapshot()));
                }
                Err(e) => return fail(&op, e.to_string()),
            }
        }
        "shutdown" => return Ok((response, true)),
        other => return fail(other, format!("unknown op {other:?}")),
    }
    Ok((response, false))
}

/// Why a framed session ended early.
#[derive(Debug)]
pub enum SessionError {
    /// Framing or I/O failure on this one connection; a socket server
    /// drops the connection and keeps serving.
    Connection(String),
    /// An `apply` whose in-engine verification diverged
    /// ([`handle_request`]'s `Err`): the engine can no longer be trusted,
    /// so the server stops.
    Diverged(String),
}

/// Serves length-prefixed frames until EOF or a `shutdown` request.
/// Returns `true` iff the session ended with an explicit `shutdown` (so a
/// socket server can distinguish "client went away" from "stop serving").
pub fn serve_framed(
    engine: &StreamEngine,
    one_based: bool,
    reader: &mut dyn BufRead,
    writer: &mut dyn Write,
) -> Result<bool, SessionError> {
    let mut seq = 0u64;
    while let Some(text) = read_frame(reader).map_err(SessionError::Connection)? {
        let (response, shutdown) =
            handle_request(engine, one_based, seq, &text).map_err(SessionError::Diverged)?;
        let payload = serde_json::to_string(&response)
            .map_err(|e| SessionError::Connection(e.to_string()))?;
        write_frame(writer, &payload).map_err(SessionError::Connection)?;
        seq += 1;
        if shutdown {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Replays a newline-delimited JSON request script (blank lines and `#`
/// comments skipped) and returns every response in order. Stops early at
/// `shutdown`; fails the whole session on a fatal `apply` divergence.
pub fn run_scripted_session(
    engine: &StreamEngine,
    one_based: bool,
    script: &str,
) -> Result<Vec<ServeResponse>, String> {
    let mut responses = Vec::new();
    let mut seq = 0u64;
    for line in script.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (response, shutdown) = handle_request(engine, one_based, seq, line)?;
        responses.push(response);
        seq += 1;
        if shutdown {
            break;
        }
    }
    Ok(responses)
}

/// Executes a parsed command. Returns the process exit code.
pub fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Help => {
            print!("{USAGE}");
            Ok(())
        }
        Command::Tip {
            input,
            side,
            config,
            output,
            json,
            stats,
        } => {
            let g = load(&input)?;
            let d = receipt::tip_decompose(&g, side, &config);
            if json {
                emit_json(
                    &receipt::report::TipReport::new(&input, &config, &d),
                    &output,
                )?;
            } else {
                let mut out = sink(&output)?;
                writeln!(out, "# vertex\ttip_number").map_err(|e| e.to_string())?;
                for (u, t) in d.tip.iter().enumerate() {
                    writeln!(out, "{u}\t{t}").map_err(|e| e.to_string())?;
                }
            }
            if stats {
                let m = &d.metrics;
                eprintln!(
                    "theta_max={} wedges={} (count {}, cd {}, fd {}) rounds={} \
                     recounts={} compactions={} partitions={} time={:.3}s",
                    d.theta_max(),
                    m.wedges_total(),
                    m.wedges_count,
                    m.wedges_cd,
                    m.wedges_fd,
                    m.sync_rounds,
                    m.recounts,
                    m.compactions,
                    m.partitions_used,
                    m.time_total().as_secs_f64()
                );
            }
            Ok(())
        }
        Command::Wing {
            input,
            side,
            partitions,
            output,
            json,
        } => {
            let g = load(&input)?;
            let view = g.view(side);
            let (d, wing_metrics) = if partitions > 0 {
                let (d, m) = receipt::wing_parallel::receipt_wing_decompose(view, partitions, 4);
                (d, Some(m))
            } else {
                (receipt::wing::wing_decompose(view, 4), None)
            };
            if json {
                let report =
                    receipt::report::WingReport::new(&input, side, partitions, &d, wing_metrics);
                emit_json(&report, &output)?;
            } else {
                let mut out = sink(&output)?;
                writeln!(out, "# u\tv\twing_number").map_err(|e| e.to_string())?;
                for (e, &(u, v)) in d.edges.iter().enumerate() {
                    writeln!(out, "{u}\t{v}\t{}", d.wing[e]).map_err(|e| e.to_string())?;
                }
            }
            Ok(())
        }
        Command::Count {
            input,
            output,
            json,
        } => {
            let g = load(&input)?;
            let c = butterfly::par_count_graph(&g);
            if json {
                emit_json(&receipt::report::CountReport::new(&input, &c), &output)?;
            } else {
                let mut out = sink(&output)?;
                writeln!(out, "# side\tvertex\tbutterflies").map_err(|e| e.to_string())?;
                for (u, b) in c.u.iter().enumerate() {
                    writeln!(out, "U\t{u}\t{b}").map_err(|e| e.to_string())?;
                }
                for (v, b) in c.v.iter().enumerate() {
                    writeln!(out, "V\t{v}\t{b}").map_err(|e| e.to_string())?;
                }
                eprintln!("total butterflies: {}", c.total());
            }
            Ok(())
        }
        Command::Stream {
            input,
            ops,
            side,
            options,
            output,
            json,
        } => {
            let verify = options.verify;
            // Ops share the graph file's id base: load both together and
            // shift the ops down when the graph was 1-based.
            let (g, one_based) =
                bigraph::io::read_graph_path_with_base(&input).map_err(|e| e.to_string())?;
            let file =
                std::fs::File::open(&ops).map_err(|e| format!("failed to read {ops}: {e}"))?;
            let batches = bigraph::dynamic::read_batches(file)
                .map_err(|e| format!("failed to read {ops}: {e}"))?;
            let batches = rebase_ops(batches, one_based, &ops)?;
            // Without `--output`, every row is written (and flushed) the
            // moment its batch completes so long-running streams can be
            // tailed: TSV rows in text mode, one compact JSON row per line
            // in `--json` mode (followed by the full report document).
            // With `--output` the whole document is built first and
            // written once — byte-identical to the pre-incremental format,
            // which the golden snapshots rely on.
            let incremental = output.is_none();
            let mut on_row = |b: &receipt::report::StreamBatchReport| -> Result<(), String> {
                if !incremental {
                    return Ok(());
                }
                let mut out = std::io::stdout().lock();
                if json {
                    let line = serde_json::to_string(b).map_err(|e| e.to_string())?;
                    writeln!(out, "{line}").map_err(|e| e.to_string())?;
                } else {
                    write_stream_tsv(&mut out, b.batch == 0, std::slice::from_ref(b))?;
                }
                out.flush().map_err(|e| e.to_string())
            };
            let report = run_stream(&input, &ops, g, &batches, side, options, &mut on_row)?;
            if json {
                if incremental {
                    // Compact final document after the NDJSON rows.
                    let mut out = std::io::stdout().lock();
                    let line = serde_json::to_string(&report).map_err(|e| e.to_string())?;
                    writeln!(out, "{line}").map_err(|e| e.to_string())?;
                } else {
                    emit_json(&report, &output)?;
                }
            } else {
                if !incremental {
                    write_stream_tsv(&mut *sink(&output)?, true, &report.batches)?;
                }
                eprintln!(
                    "{} batches; final: |E| = {}, butterflies = {}, theta_max = {}{}",
                    report.batches.len(),
                    report.final_num_edges,
                    report.final_total_butterflies,
                    report.final_theta_max,
                    if verify { ", all batches verified" } else { "" }
                );
            }
            Ok(())
        }
        Command::Serve {
            input,
            options,
            requests,
            socket,
            output,
            wal,
            checkpoint_every,
        } => {
            // Serve shares stream's id-base rule: wire ids follow the
            // graph file (a 1-based file means 1-based requests).
            let (g, one_based) =
                bigraph::io::read_graph_path_with_base(&input).map_err(|e| e.to_string())?;
            let threads = options.config.threads;
            let drive = move || -> Result<(), String> {
                let engine = match &wal {
                    None => StreamEngine::new(g, options),
                    Some(dir) => {
                        // Durable: an existing store is the truth (the
                        // graph file only seeds a fresh one).
                        let (engine, info) = StreamEngine::open_durable(
                            std::path::Path::new(dir),
                            Some(g),
                            options,
                            checkpoint_every,
                        )?;
                        if info.created {
                            eprintln!("wal: initialized store at {dir}");
                        } else {
                            eprintln!(
                                "wal: recovered store at {dir}: checkpoint lsn {}, \
                                 replayed {} record(s), end lsn {}{}",
                                info.checkpoint_lsn,
                                info.replayed,
                                info.end_lsn,
                                match info.repaired {
                                    Some(r) => format!(
                                        " (torn tail repaired, -{} bytes)",
                                        r.discarded_bytes
                                    ),
                                    None => String::new(),
                                }
                            );
                        }
                        engine
                    }
                };
                if let Some(path) = requests {
                    // Scripted session: replay the file, emit one report
                    // document.
                    let script = std::fs::read_to_string(&path)
                        .map_err(|e| format!("failed to read {path}: {e}"))?;
                    let t0 = std::time::Instant::now();
                    let responses = run_scripted_session(&engine, one_based, &script)?;
                    let report = ServeSessionReport {
                        schema_version: receipt::report::SCHEMA_VERSION,
                        kind: "serve-session".to_string(),
                        input: input.clone(),
                        requests: path,
                        verified: engine.options().verify,
                        responses,
                        final_stats: ServeStats::from_snapshot(&engine.snapshot()),
                        time_session_secs: t0.elapsed().as_secs_f64(),
                    };
                    return emit_json(&report, &output);
                }
                if let Some(path) = socket {
                    // One connection at a time; the listener keeps
                    // accepting until a client sends `shutdown`.
                    use std::os::unix::fs::FileTypeExt;
                    use std::os::unix::net::UnixListener;
                    // Clear only a stale socket; anything else at the path
                    // makes `bind` fail and is left untouched.
                    if std::fs::symlink_metadata(&path).is_ok_and(|m| m.file_type().is_socket()) {
                        let _ = std::fs::remove_file(&path);
                    }
                    let listener = UnixListener::bind(&path)
                        .map_err(|e| format!("cannot bind {path}: {e}"))?;
                    eprintln!("serving on {path} (epoch {})", engine.epoch());
                    let result = loop {
                        let (stream, _) = match listener.accept() {
                            Ok(pair) => pair,
                            Err(e) => break Err(format!("accept failed: {e}")),
                        };
                        let session = match stream.try_clone() {
                            Ok(read_half) => serve_framed(
                                &engine,
                                one_based,
                                &mut std::io::BufReader::new(read_half),
                                &mut &stream,
                            ),
                            Err(e) => Err(SessionError::Connection(e.to_string())),
                        };
                        match session {
                            Ok(true) => break Ok(()),
                            Ok(false) => continue,
                            // A misbehaving or vanishing client is not
                            // fatal to the server; a verify divergence is.
                            Err(SessionError::Diverged(e)) => break Err(e),
                            Err(SessionError::Connection(e)) => eprintln!("session error: {e}"),
                        }
                    };
                    let _ = std::fs::remove_file(&path);
                    return result;
                }
                let stdin = std::io::stdin();
                let mut reader = stdin.lock();
                let mut writer = std::io::stdout().lock();
                serve_framed(&engine, one_based, &mut reader, &mut writer)
                    .map(|_| ())
                    .map_err(|(SessionError::Connection(e) | SessionError::Diverged(e))| e)
            };
            if threads > 0 {
                parutil::with_pool(threads, drive)
            } else {
                drive()
            }
        }
        Command::Convert {
            input,
            output,
            from,
            to,
            json,
        } => {
            let from = format_of(&input, from.as_deref()).to_string();
            let to = format_of(&output, to.as_deref()).to_string();
            let t0 = std::time::Instant::now();
            let g = load_any(&input, Some(&from))?;
            write_any(&g, &output, Some(&to))?;
            let time_convert_secs = t0.elapsed().as_secs_f64();
            let size = |p: &str| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
            let report = receipt::report::ConvertReport {
                schema_version: receipt::report::SCHEMA_VERSION,
                kind: "convert".to_string(),
                input: input.clone(),
                output: output.clone(),
                from: from.clone(),
                to: to.clone(),
                num_u: g.num_u(),
                num_v: g.num_v(),
                num_edges: g.num_edges(),
                bytes_in: size(&input),
                bytes_out: size(&output),
                time_convert_secs,
            };
            if json {
                emit_json(&report, &None)?;
            } else {
                eprintln!(
                    "{input} ({from}) -> {output} ({to}): {} x {}, {} edges, {} -> {} bytes",
                    report.num_u, report.num_v, report.num_edges, report.bytes_in, report.bytes_out
                );
            }
            Ok(())
        }
        Command::Recover { dir, json, output } => {
            if !receipt::wal::Store::exists(std::path::Path::new(&dir)) {
                return Err(format!(
                    "no store at {dir} (expected checkpoint.meta; see FORMATS.md \u{a7}4)"
                ));
            }
            let t0 = std::time::Instant::now();
            let (engine, info) = StreamEngine::open_durable(
                std::path::Path::new(&dir),
                None,
                EngineOptions::default(),
                0,
            )?;
            let time_recover_secs = t0.elapsed().as_secs_f64();
            // "Provable" recovery: the replayed state must agree with a
            // from-scratch recount + re-peel of the materialized graph.
            let t1 = std::time::Instant::now();
            engine
                .verify_against_scratch()
                .map_err(|e| format!("recovered state failed oracle verification: {e}"))?;
            let time_verify_secs = t1.elapsed().as_secs_f64();
            let snapshot = engine.snapshot();
            let report = receipt::report::RecoverReport {
                schema_version: receipt::report::SCHEMA_VERSION,
                kind: "recover".to_string(),
                dir: dir.clone(),
                checkpoint_lsn: info.checkpoint_lsn,
                wal_records: info.wal_records,
                replayed: info.replayed,
                skipped: info.skipped,
                torn_tail_repaired: info.repaired.is_some(),
                discarded_bytes: info.repaired.map(|r| r.discarded_bytes).unwrap_or(0),
                end_lsn: info.end_lsn,
                final_epoch: snapshot.epoch(),
                num_u: snapshot.graph().num_u(),
                num_v: snapshot.graph().num_v(),
                num_edges: snapshot.graph().num_edges(),
                total_butterflies: snapshot.total_butterflies(),
                tip_checksum_u: snapshot.tip_checksum(Side::U),
                tip_checksum_v: snapshot.tip_checksum(Side::V),
                verified: true,
                time_recover_secs,
                time_verify_secs,
            };
            if json {
                emit_json(&report, &output)?;
            } else {
                let mut out = sink(&output)?;
                writeln!(
                    out,
                    "recovered {dir}: checkpoint lsn {}, replayed {}/{} record(s) \
                     (skipped {} folded), end lsn {}{}",
                    report.checkpoint_lsn,
                    report.replayed,
                    report.wal_records,
                    report.skipped,
                    report.end_lsn,
                    if report.torn_tail_repaired {
                        format!(", torn tail repaired (-{} bytes)", report.discarded_bytes)
                    } else {
                        String::new()
                    }
                )
                .map_err(|e| e.to_string())?;
                writeln!(
                    out,
                    "state: {} x {}, {} edges, {} butterflies, tip checksums \
                     {:#018x}/{:#018x}, oracle verified",
                    report.num_u,
                    report.num_v,
                    report.num_edges,
                    report.total_butterflies,
                    report.tip_checksum_u,
                    report.tip_checksum_v
                )
                .map_err(|e| e.to_string())?;
            }
            Ok(())
        }
        Command::Version {
            op,
            dir,
            names,
            verify,
            dump,
            json,
            output,
        } => {
            use receipt::report::{
                TimeTravelReport, VersionDiffReport, VersionEntryReport, VersionReport,
            };
            use receipt::version::{self, VersionStore};
            let dpath = std::path::Path::new(&dir);
            if !receipt::wal::Store::exists(dpath) {
                return Err(format!(
                    "no store at {dir} (expected checkpoint.meta; see FORMATS.md \u{a7}4)"
                ));
            }
            let entry_line = |e: &VersionEntryReport| {
                format!(
                    "{}\tlsn {}\t{} butterflies\ttip checksums {:#018x}/{:#018x}",
                    e.name, e.lsn, e.total_butterflies, e.tip_checksum_u, e.tip_checksum_v
                )
            };
            let mut report = VersionReport::new(&op, &dir);
            match op.as_str() {
                "tag" => {
                    let vref = version::tag_head(dpath, &names[0], EngineOptions::default())
                        .map_err(|e| e.to_string())?;
                    report.tagged = Some(VersionEntryReport::from_ref(&vref));
                    let vs = VersionStore::open(dpath).map_err(|e| e.to_string())?;
                    report.versions =
                        Some(vs.list().iter().map(VersionEntryReport::from_ref).collect());
                    if json {
                        emit_json(&report, &output)?;
                    } else {
                        let mut out = sink(&output)?;
                        writeln!(
                            out,
                            "tagged {}",
                            entry_line(report.tagged.as_ref().unwrap())
                        )
                        .map_err(|e| e.to_string())?;
                    }
                }
                "list" => {
                    let vs = VersionStore::open(dpath).map_err(|e| e.to_string())?;
                    report.versions =
                        Some(vs.list().iter().map(VersionEntryReport::from_ref).collect());
                    if json {
                        emit_json(&report, &output)?;
                    } else {
                        let mut out = sink(&output)?;
                        for e in report.versions.as_ref().unwrap() {
                            writeln!(out, "{}", entry_line(e)).map_err(|e| e.to_string())?;
                        }
                    }
                }
                "diff" => {
                    let vs = VersionStore::open(dpath).map_err(|e| e.to_string())?;
                    let ops = vs.diff(&names[0], &names[1]).map_err(|e| e.to_string())?;
                    let lines: Vec<String> = ops
                        .iter()
                        .map(|op| {
                            let (u, v) = op.edge();
                            match op {
                                bigraph::EdgeOp::Insert(..) => format!("+ {u} {v}"),
                                bigraph::EdgeOp::Delete(..) => format!("- {u} {v}"),
                            }
                        })
                        .collect();
                    let count = |f: fn(&String) -> bool| lines.iter().filter(|l| f(l)).count();
                    report.diff = Some(VersionDiffReport {
                        from: VersionEntryReport::from_ref(vs.lookup(&names[0]).unwrap()),
                        to: VersionEntryReport::from_ref(vs.lookup(&names[1]).unwrap()),
                        inserts: count(|l| l.starts_with('+')),
                        deletes: count(|l| l.starts_with('-')),
                        ops: lines,
                    });
                    if json {
                        emit_json(&report, &output)?;
                    } else {
                        // Bare batch lines: `--output FILE` yields a file
                        // that `tipdecomp stream` replays as one batch.
                        let mut out = sink(&output)?;
                        for line in &report.diff.as_ref().unwrap().ops {
                            writeln!(out, "{line}").map_err(|e| e.to_string())?;
                        }
                    }
                }
                "at" => {
                    let t0 = std::time::Instant::now();
                    let (engine, info) =
                        StreamEngine::open_at(dpath, &names[0], EngineOptions::default())
                            .map_err(|e| e.to_string())?;
                    let time_travel_secs = t0.elapsed().as_secs_f64();
                    let t1 = std::time::Instant::now();
                    if verify {
                        engine.verify_against_scratch().map_err(|e| {
                            format!("time-travel state failed oracle verification: {e}")
                        })?;
                    }
                    let time_verify_secs = t1.elapsed().as_secs_f64();
                    let snapshot = engine.snapshot();
                    if let Some(path) = &dump {
                        write_any(snapshot.graph(), path, None)?;
                    }
                    report.at = Some(TimeTravelReport {
                        version: VersionEntryReport::from_ref(&info.version),
                        checkpoint_lsn: info.checkpoint_lsn,
                        wal_records: info.wal_records,
                        replayed: info.replayed,
                        skipped_folded: info.skipped_folded,
                        skipped_above: info.skipped_above,
                        wal_end: info.wal_end,
                        final_epoch: snapshot.epoch(),
                        num_u: snapshot.graph().num_u(),
                        num_v: snapshot.graph().num_v(),
                        num_edges: snapshot.graph().num_edges(),
                        total_butterflies: snapshot.total_butterflies(),
                        theta_max_u: snapshot.theta_max(Side::U),
                        theta_max_v: snapshot.theta_max(Side::V),
                        tip_checksum_u: snapshot.tip_checksum(Side::U),
                        tip_checksum_v: snapshot.tip_checksum(Side::V),
                        verified: verify,
                        time_travel_secs,
                        time_verify_secs,
                    });
                    if json {
                        emit_json(&report, &output)?;
                    } else {
                        let at = report.at.as_ref().unwrap();
                        let mut out = sink(&output)?;
                        writeln!(
                            out,
                            "at {}: checkpoint lsn {}, replayed {}/{} record(s) \
                             (skipped {} folded, {} above the tag), wal end {}",
                            entry_line(&at.version),
                            at.checkpoint_lsn,
                            at.replayed,
                            at.wal_records,
                            at.skipped_folded,
                            at.skipped_above,
                            at.wal_end
                        )
                        .map_err(|e| e.to_string())?;
                        writeln!(
                            out,
                            "state: {} x {}, {} edges, {} butterflies{}",
                            at.num_u,
                            at.num_v,
                            at.num_edges,
                            at.total_butterflies,
                            if at.verified { ", oracle verified" } else { "" }
                        )
                        .map_err(|e| e.to_string())?;
                    }
                }
                _ => unreachable!("parse validated the version operation"),
            }
            Ok(())
        }
        Command::Derive {
            op,
            a,
            b,
            ids,
            side,
            output,
            json,
        } => {
            let t0 = std::time::Instant::now();
            let ga = load_any(&a, None)?;
            let derived = match op.as_str() {
                "subgraph" => {
                    // VERSIONING.md §6.1: ids strictly increasing,
                    // in-range, non-empty.
                    if ids.is_empty() {
                        return Err(
                            "derive subgraph: --ids must be non-empty (VERSIONING.md \u{a7}6.1)"
                                .into(),
                        );
                    }
                    if let Some(w) = ids.windows(2).find(|w| w[0] >= w[1]) {
                        return Err(format!(
                            "derive subgraph: --ids must be strictly increasing \
                             (VERSIONING.md \u{a7}6.1), got {} before {}",
                            w[0], w[1]
                        ));
                    }
                    let n = match side {
                        Side::U => ga.num_u(),
                        Side::V => ga.num_v(),
                    };
                    let max = *ids.last().unwrap();
                    if max as usize >= n {
                        return Err(format!(
                            "derive subgraph: id {max} out of range (side {side} has {n} \
                             vertices)"
                        ));
                    }
                    bigraph::InducedGraph::new(ga.view(side), &ids)
                        .csr()
                        .clone()
                }
                union_or_diff => {
                    let gb = load_any(b.as_ref().expect("parse guarantees a second input"), None)?;
                    match union_or_diff {
                        "union" => bigraph::derive::union(&ga, &gb),
                        _ => bigraph::derive::difference(&ga, &gb),
                    }
                }
            };
            write_any(&derived, &output, None)?;
            let report = receipt::report::DeriveReport {
                schema_version: receipt::report::SCHEMA_VERSION,
                kind: "derive".to_string(),
                op: op.clone(),
                a: a.clone(),
                b: b.clone(),
                subset: if op == "subgraph" { Some(ids) } else { None },
                side: if op == "subgraph" { Some(side) } else { None },
                output: output.clone(),
                num_u: derived.num_u(),
                num_v: derived.num_v(),
                num_edges: derived.num_edges(),
                time_derive_secs: t0.elapsed().as_secs_f64(),
            };
            if json {
                // `output` is the derived graph's destination, so the
                // report document goes to stdout (like `convert`).
                emit_json(&report, &None)?;
            } else {
                eprintln!(
                    "derived {op} -> {output}: {} x {}, {} edges",
                    report.num_u, report.num_v, report.num_edges
                );
            }
            Ok(())
        }
        Command::KTips { input, side, k } => {
            let g = load(&input)?;
            let d = receipt::tip_decompose(&g, side, &Config::default());
            let comps = hierarchy::ktip_components(g.view(side), &d.tip, k);
            println!("# {} {k}-tip component(s)", comps.len());
            for (i, c) in comps.iter().enumerate() {
                println!(
                    "{i}\t{}\t{}",
                    c.len(),
                    c.iter()
                        .map(|u| u.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                );
            }
            Ok(())
        }
        Command::Stats { input } => {
            let g = load(&input)?;
            let vu = g.view(Side::U);
            let vv = g.view(Side::V);
            let c = butterfly::par_count_graph(&g);
            println!("|U| = {}", g.num_u());
            println!("|V| = {}", g.num_v());
            println!("|E| = {}", g.num_edges());
            println!(
                "avg degree U/V = {:.2} / {:.2}",
                bigraph::stats::avg_primary_degree(vu),
                bigraph::stats::avg_primary_degree(vv)
            );
            println!("butterflies = {}", c.total());
            println!(
                "wedges (U endpoints) = {}",
                bigraph::stats::total_primary_wedges(vu)
            );
            println!(
                "wedges (V endpoints) = {}",
                bigraph::stats::total_primary_wedges(vv)
            );
            Ok(())
        }
        Command::Generate { preset, output } => {
            let spec = bigraph::datasets::by_name(&preset)
                .ok_or_else(|| format!("unknown preset {preset:?} (It|De|Or|Lj|En|Tr)"))?;
            let g = spec.generate();
            match output {
                None => bigraph::io::write_graph(&g, std::io::stdout().lock())
                    .map_err(|e| e.to_string()),
                Some(path) => {
                    bigraph::io::write_graph_path(&g, &path).map_err(|e| e.to_string())?;
                    eprintln!(
                        "wrote {} ({} x {}, {} edges)",
                        path,
                        g.num_u(),
                        g.num_v(),
                        g.num_edges()
                    );
                    Ok(())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_tip_defaults() {
        let cmd = parse(&sv(&["tip", "g.tsv"])).unwrap();
        match cmd {
            Command::Tip {
                input,
                side,
                config,
                output,
                json,
                stats,
            } => {
                assert_eq!(input, "g.tsv");
                assert_eq!(side, Side::U);
                assert_eq!(config, Config::default());
                assert!(output.is_none());
                assert!(!json);
                assert!(!stats);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_tip_flags() {
        let cmd = parse(&sv(&[
            "tip",
            "g.tsv",
            "--side",
            "v",
            "--partitions",
            "42",
            "--no-dgm",
            "--stats",
            "--output",
            "out.tsv",
        ]))
        .unwrap();
        match cmd {
            Command::Tip {
                side,
                config,
                output,
                stats,
                ..
            } => {
                assert_eq!(side, Side::V);
                assert_eq!(config.partitions, 42);
                assert!(!config.dgm);
                assert!(config.huc);
                assert_eq!(output.as_deref(), Some("out.tsv"));
                assert!(stats);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse(&sv(&["tip"])).is_err());
        assert!(parse(&sv(&["tip", "--side"])).is_err());
        assert!(parse(&sv(&["tip", "g.tsv", "--side", "X"])).is_err());
        assert!(parse(&sv(&["ktips", "g.tsv"])).is_err());
        assert!(parse(&sv(&["frobnicate"])).is_err());
        assert!(parse(&sv(&["tip", "g.tsv", "--partitions", "many"])).is_err());
        assert!(parse(&sv(&["stream", "g.tsv"])).is_err());
        assert!(parse(&sv(&["stream", "g.tsv", "--json"])).is_err());
        assert!(parse(&sv(&[
            "stream",
            "g.tsv",
            "ops.txt",
            "--dirty-threshold",
            "x"
        ]))
        .is_err());
    }

    #[test]
    fn thresholds_reject_non_finite_and_negative_values() {
        for flag in ["--dirty-threshold", "--compact-threshold"] {
            for bad in ["NaN", "inf", "-inf", "-0.1"] {
                for cmd in [
                    vec!["stream", "g.tsv", "ops.txt", flag, bad],
                    vec!["serve", "g.tsv", flag, bad],
                ] {
                    let err = parse(&sv(&cmd)).unwrap_err();
                    assert!(err.0.contains(flag), "{cmd:?}: {}", err.0);
                }
            }
            for good in ["0", "0.25", "1"] {
                assert!(parse(&sv(&["stream", "g.tsv", "ops.txt", flag, good])).is_ok());
            }
        }
    }

    #[test]
    fn parse_stream_defaults_and_flags() {
        let cmd = parse(&sv(&["stream", "g.tsv", "ops.txt"])).unwrap();
        match cmd {
            Command::Stream {
                input,
                ops,
                side,
                options,
                json,
                ..
            } => {
                assert_eq!(input, "g.tsv");
                assert_eq!(ops, "ops.txt");
                assert_eq!(side, Side::U);
                assert_eq!(options, EngineOptions::default());
                assert!(!json);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&sv(&[
            "stream",
            "g.tsv",
            "ops.txt",
            "--side",
            "v",
            "--dirty-threshold",
            "0.5",
            "--verify",
            "--json",
        ]))
        .unwrap();
        match cmd {
            Command::Stream {
                side,
                options,
                json,
                ..
            } => {
                assert_eq!(side, Side::V);
                assert_eq!(options.dirty_threshold, 0.5);
                assert!(options.verify && json);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stream_ops_follow_a_one_based_graph_file() {
        let dir = std::env::temp_dir().join("tipdecomp_stream_base");
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("g.tsv");
        let ops_path = dir.join("ops.txt");
        // Headerless, every id ≥ 1 → the loader shifts to 0-based. K(2,2).
        std::fs::write(&graph_path, "1 1\n1 2\n2 1\n2 2\n").unwrap();
        // 1-based op: deleting the file's edge `2 2` must remove internal
        // edge (1, 1) and break the single butterfly.
        std::fs::write(&ops_path, "-2 2\n").unwrap();
        let out_path = dir.join("stream.json");
        run(Command::Stream {
            input: graph_path.to_string_lossy().into_owned(),
            ops: ops_path.to_string_lossy().into_owned(),
            side: Side::U,
            options: EngineOptions {
                dirty_threshold: 0.5,
                compact_threshold: 0.25,
                verify: true,
                ..EngineOptions::default()
            },
            output: Some(out_path.to_string_lossy().into_owned()),
            json: true,
        })
        .unwrap();
        let report: receipt::report::StreamReport =
            serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(report.batches[0].deleted, 1);
        assert_eq!(report.batches[0].butterflies_lost, 1);
        assert_eq!(report.final_total_butterflies, 0);

        // An op naming id 0 against a 1-based graph is a run error.
        std::fs::write(&ops_path, "-0 1\n").unwrap();
        let err = run(Command::Stream {
            input: graph_path.to_string_lossy().into_owned(),
            ops: ops_path.to_string_lossy().into_owned(),
            side: Side::U,
            options: EngineOptions {
                dirty_threshold: 0.5,
                compact_threshold: 0.25,
                verify: false,
                ..EngineOptions::default()
            },
            output: None,
            json: true,
        })
        .unwrap_err();
        assert!(err.contains("1-based"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_end_to_end_with_verification() {
        let dir = std::env::temp_dir().join("tipdecomp_stream_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("g.tsv");
        let ops_path = dir.join("ops.txt");
        let g = bigraph::gen::zipf(30, 20, 120, 0.5, 0.8, 4);
        bigraph::io::write_graph_path(&g, &graph_path).unwrap();
        // Two batches: close a butterfly, then delete one of its edges.
        std::fs::write(&ops_path, "+0 0\n+0 1\n+1 0\n+1 1\n\n-0 1\n+2 2\n").unwrap();
        let out_path = dir.join("stream.json");
        run(Command::Stream {
            input: graph_path.to_string_lossy().into_owned(),
            ops: ops_path.to_string_lossy().into_owned(),
            side: Side::U,
            options: EngineOptions {
                dirty_threshold: 0.2,
                compact_threshold: 0.25,
                verify: true,
                ..EngineOptions::default()
            },
            output: Some(out_path.to_string_lossy().into_owned()),
            json: true,
        })
        .unwrap();
        let text = std::fs::read_to_string(&out_path).unwrap();
        let report: receipt::report::StreamReport = serde_json::from_str(&text).unwrap();
        assert_eq!(report.kind, "stream");
        assert_eq!(report.batches.len(), 2);
        assert!(report.verified);
        assert_eq!(
            report.batches.last().unwrap().total_butterflies,
            report.final_total_butterflies
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_convert_and_recover() {
        let cmd = parse(&sv(&["convert", "g.tsv", "g.bgr"])).unwrap();
        match cmd {
            Command::Convert {
                input,
                output,
                from,
                to,
                json,
            } => {
                assert_eq!(input, "g.tsv");
                assert_eq!(output, "g.bgr");
                assert!(from.is_none() && to.is_none() && !json);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&sv(&[
            "convert", "a", "b", "--from", "binary", "--to", "TEXT", "--json",
        ]))
        .unwrap();
        match cmd {
            Command::Convert { from, to, json, .. } => {
                assert_eq!(from.as_deref(), Some("binary"));
                assert_eq!(to.as_deref(), Some("text"));
                assert!(json);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&sv(&["convert", "g.tsv"])).is_err());
        assert!(parse(&sv(&["convert", "a", "b", "--from", "nope"])).is_err());

        let cmd = parse(&sv(&["recover", "store", "--json"])).unwrap();
        match cmd {
            Command::Recover { dir, json, output } => {
                assert_eq!(dir, "store");
                assert!(json && output.is_none());
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&sv(&["recover"])).is_err());
    }

    #[test]
    fn parse_serve_wal_flags() {
        let cmd = parse(&sv(&["serve", "g.tsv"])).unwrap();
        match cmd {
            Command::Serve {
                wal,
                checkpoint_every,
                ..
            } => {
                assert!(wal.is_none());
                assert_eq!(checkpoint_every, receipt::wal::DEFAULT_CHECKPOINT_EVERY);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&sv(&[
            "serve",
            "g.tsv",
            "--wal",
            "store",
            "--checkpoint-every",
            "3",
        ]))
        .unwrap();
        match cmd {
            Command::Serve {
                wal,
                checkpoint_every,
                ..
            } => {
                assert_eq!(wal.as_deref(), Some("store"));
                assert_eq!(checkpoint_every, 3);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&sv(&["serve", "g.tsv", "--checkpoint-every", "x"])).is_err());
    }

    #[test]
    fn convert_recover_unit_round_trip() {
        let dir = std::env::temp_dir().join("tipdecomp_convert_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let text = dir.join("g.tsv");
        let bin = dir.join("g.bgr");
        let back = dir.join("back.tsv");
        let g = bigraph::gen::zipf(20, 15, 60, 0.5, 0.8, 9);
        bigraph::io::write_graph_path(&g, &text).unwrap();
        run(Command::Convert {
            input: text.to_string_lossy().into_owned(),
            output: bin.to_string_lossy().into_owned(),
            from: None,
            to: None,
            json: false,
        })
        .unwrap();
        run(Command::Convert {
            input: bin.to_string_lossy().into_owned(),
            output: back.to_string_lossy().into_owned(),
            from: None,
            to: None,
            json: false,
        })
        .unwrap();
        // The canonical text writer produced both files, so the round trip
        // is byte-identical.
        assert_eq!(std::fs::read(&text).unwrap(), std::fs::read(&back).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_help_and_empty() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&sv(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn end_to_end_tip_roundtrip() {
        // Generate, decompose, read back.
        let dir = std::env::temp_dir().join("tipdecomp_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("g.tsv");
        let out_path = dir.join("tips.tsv");
        let g = bigraph::gen::planted_bicliques(10, 10, 1, 4, 4, 8, 3);
        // Pin the last ids so read-back sizing (max observed id) matches.
        let mut edges: Vec<(u32, u32)> = g.edges().collect();
        edges.push((9, 9));
        let g = bigraph::builder::from_edges(10, 10, &edges).unwrap();
        bigraph::io::write_graph_path(&g, &graph_path).unwrap();

        run(Command::Tip {
            input: graph_path.to_string_lossy().into_owned(),
            side: Side::U,
            config: Config::default(),
            output: Some(out_path.to_string_lossy().into_owned()),
            json: false,
            stats: false,
        })
        .unwrap();

        let text = std::fs::read_to_string(&out_path).unwrap();
        let rows: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(rows.len(), 10);
        // Block members (u0..u3) have tip number (4-1)*C(4,2) = 18 or more.
        let first: u64 = rows[0].split('\t').nth(1).unwrap().parse().unwrap();
        assert!(first >= 18, "block member tip = {first}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_missing_file_fails() {
        let err = run(Command::Stats {
            input: "/nonexistent/g.tsv".into(),
        })
        .unwrap_err();
        assert!(err.contains("failed to read"));
    }

    #[test]
    fn generate_unknown_preset_fails() {
        let err = run(Command::Generate {
            preset: "Zz".into(),
            output: None,
        })
        .unwrap_err();
        assert!(err.contains("unknown preset"));
    }

    #[test]
    fn parse_version_subcommands() {
        let cmd = parse(&sv(&["version", "tag", "store", "v1", "--json"])).unwrap();
        match cmd {
            Command::Version {
                op,
                dir,
                names,
                json,
                ..
            } => {
                assert_eq!(op, "tag");
                assert_eq!(dir, "store");
                assert_eq!(names, vec!["v1".to_string()]);
                assert!(json);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&sv(&["version", "list", "store"])).unwrap();
        match cmd {
            Command::Version { op, names, .. } => {
                assert_eq!(op, "list");
                assert!(names.is_empty());
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&sv(&[
            "version", "diff", "store", "v0", "v2", "--output", "d.txt",
        ]))
        .unwrap();
        match cmd {
            Command::Version {
                op, names, output, ..
            } => {
                assert_eq!(op, "diff");
                assert_eq!(names, vec!["v0".to_string(), "v2".to_string()]);
                assert_eq!(output.as_deref(), Some("d.txt"));
            }
            other => panic!("{other:?}"),
        }
        // A no-value flag before a positional must not swallow it.
        let cmd = parse(&sv(&[
            "version", "at", "store", "--verify", "v1", "--dump", "g.bgr",
        ]))
        .unwrap();
        match cmd {
            Command::Version {
                op,
                names,
                verify,
                dump,
                ..
            } => {
                assert_eq!(op, "at");
                assert_eq!(names, vec!["v1".to_string()]);
                assert!(verify);
                assert_eq!(dump.as_deref(), Some("g.bgr"));
            }
            other => panic!("{other:?}"),
        }
        // Arity is per-op: tag/at take one name, list none, diff two.
        assert!(parse(&sv(&["version"])).is_err());
        assert!(parse(&sv(&["version", "tag", "store"])).is_err());
        assert!(parse(&sv(&["version", "list", "store", "extra"])).is_err());
        assert!(parse(&sv(&["version", "diff", "store", "v0"])).is_err());
        assert!(parse(&sv(&["version", "promote", "store", "v0"])).is_err());
    }

    #[test]
    fn parse_derive_subcommands() {
        let cmd = parse(&sv(&[
            "derive", "subgraph", "a.tsv", "--ids", "0,2,5", "--side", "V", "--output", "s.tsv",
        ]))
        .unwrap();
        match cmd {
            Command::Derive {
                op,
                a,
                b,
                ids,
                side,
                output,
                json,
            } => {
                assert_eq!(op, "subgraph");
                assert_eq!(a, "a.tsv");
                assert!(b.is_none());
                assert_eq!(ids, vec![0, 2, 5]);
                assert_eq!(side, Side::V);
                assert_eq!(output, "s.tsv");
                assert!(!json);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&sv(&[
            "derive", "union", "a.tsv", "b.bgr", "--output", "u.bgr", "--json",
        ]))
        .unwrap();
        match cmd {
            Command::Derive { op, a, b, json, .. } => {
                assert_eq!(op, "union");
                assert_eq!(a, "a.tsv");
                assert_eq!(b.as_deref(), Some("b.bgr"));
                assert!(json);
            }
            other => panic!("{other:?}"),
        }
        // subgraph requires --ids, union/diff require a second input,
        // every op requires --output.
        assert!(parse(&sv(&["derive", "subgraph", "a.tsv", "--output", "s.tsv"])).is_err());
        assert!(parse(&sv(&["derive", "union", "a.tsv", "--output", "u.tsv"])).is_err());
        assert!(parse(&sv(&["derive", "diff", "a.tsv", "b.tsv"])).is_err());
        assert!(parse(&sv(&[
            "derive", "subgraph", "a.tsv", "--ids", "2,x", "--output", "s"
        ]))
        .is_err());
        assert!(parse(&sv(&["derive", "invert", "a.tsv", "--output", "o"])).is_err());
    }
}
