//! Implementation of the `tipdecomp` command-line tool.
//!
//! Lives in a library so the argument parsing and command execution are
//! unit-testable; `main.rs` is a thin shim.

#![forbid(unsafe_code)]

use bigraph::{BipartiteCsr, Side};
use receipt::engine::{EngineOptions, StreamEngine};
use receipt::report::{ServeSessionReport, ServeStats};
use receipt::{hierarchy, Config};
use std::io::Write;

mod serve;
pub use serve::{
    handle_request, read_frame, run_scripted_session, serve_framed, write_frame, SessionError,
};

/// Parsed command line. What each subcommand accepts is listed once, in
/// the parser's table, and shown to users in [`USAGE`].
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Tip numbers of one side.
    Tip {
        input: String,
        side: Side,
        config: Config,
        output: Option<String>,
        json: bool,
        stats: bool,
    },
    /// Wing numbers of every edge.
    Wing {
        input: String,
        side: Side,
        partitions: usize,
        output: Option<String>,
        json: bool,
    },
    /// Per-vertex butterfly counts.
    Count {
        input: String,
        output: Option<String>,
        json: bool,
    },
    /// Batch-dynamic updates replayed from an ops file.
    Stream {
        input: String,
        ops: String,
        side: Side,
        /// `--partitions`, `--threads`, both thresholds, `--verify`.
        options: EngineOptions,
        output: Option<String>,
        json: bool,
    },
    /// The resident query engine (see the `serve` module).
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
    /// Text/binary graph conversion; formats inferred from `.bgr`
    /// extensions when not given.
    Convert {
        input: String,
        output: String,
        from: Option<String>,
        to: Option<String>,
        json: bool,
    },
    /// Open a durable store, repair a torn WAL tail, replay past the
    /// checkpoint, verify against the from-scratch oracle.
    Recover {
        dir: String,
        json: bool,
        output: Option<String>,
    },
    /// Named versions over a durable store (`VERSIONING.md`).
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
    /// Set-algebraic graph construction (`VERSIONING.md` §6).
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
    /// The k-tip components at one `k`.
    KTips {
        input: String,
        side: Side,
        k: u64,
    },
    /// Graph size, degree, butterfly and wedge statistics.
    Stats {
        input: String,
    },
    /// Emit a dataset analog.
    Generate {
        preset: String,
        output: Option<String>,
    },
    Help,
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
                              [--partitions N] [--threads N]
                              [--output FILE] [--json]
  tipdecomp serve <edges.tsv> [--dirty-threshold F] [--compact-threshold F]
                              [--verify] [--requests FILE] [--socket PATH]
                              [--partitions N] [--threads N]
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
Options may come before, between or after the positional arguments; an
option a subcommand does not list, a repeated option, or a missing value
is a usage error (exit 2).
";

/// One subcommand's grammar: how many positionals it takes and which
/// options it accepts. [`parse`] rejects everything else.
struct Spec {
    name: &'static str,
    /// Inclusive bounds on the positional count.
    positionals: (usize, usize),
    /// What the positionals are, for the "needs …" message.
    needs: &'static str,
    /// For subcommands whose first positional names an operation: each
    /// operation with the exact positional count it takes, itself included.
    ops: &'static [(&'static str, usize)],
    /// Options that consume the next argument as their value.
    values: &'static [&'static str],
    /// Options that take no value.
    flags: &'static [&'static str],
}

/// Every subcommand's grammar. `--out` is accepted wherever `--output` is.
#[rustfmt::skip]
const SPECS: &[Spec] = &[
    Spec { name: "tip", positionals: (1, 1), needs: "an input file", ops: &[],
        values: &["--side", "--partitions", "--threads", "--output"],
        flags: &["--no-huc", "--no-dgm", "--json", "--stats"] },
    Spec { name: "wing", positionals: (1, 1), needs: "an input file", ops: &[],
        values: &["--side", "--partitions", "--output"], flags: &["--json"] },
    Spec { name: "count", positionals: (1, 1), needs: "an input file", ops: &[],
        values: &["--output"], flags: &["--json"] },
    Spec { name: "stream", positionals: (2, 2), needs: "a graph file and an ops file", ops: &[],
        values: &["--side", "--partitions", "--threads", "--dirty-threshold",
                  "--compact-threshold", "--output"],
        flags: &["--verify", "--json"] },
    Spec { name: "serve", positionals: (1, 1), needs: "an input file", ops: &[],
        values: &["--partitions", "--threads", "--dirty-threshold", "--compact-threshold",
                  "--requests", "--socket", "--output", "--wal", "--checkpoint-every"],
        flags: &["--verify"] },
    Spec { name: "convert", positionals: (2, 2), needs: "an input file and an output file",
        ops: &[], values: &["--from", "--to"], flags: &["--json"] },
    Spec { name: "recover", positionals: (1, 1), needs: "a store directory", ops: &[],
        values: &["--output"], flags: &["--json"] },
    Spec { name: "version", positionals: (2, 4),
        needs: "an operation (tag, list, diff, or at), a store directory, and its tag names",
        ops: &[("tag", 3), ("list", 2), ("diff", 4), ("at", 3)],
        values: &["--dump", "--output"], flags: &["--verify", "--json"] },
    Spec { name: "derive", positionals: (2, 3),
        needs: "an operation (subgraph, union, or diff) and its input graphs",
        ops: &[("subgraph", 2), ("union", 3), ("diff", 3)],
        values: &["--ids", "--side", "--output"], flags: &["--json"] },
    Spec { name: "ktips", positionals: (1, 1), needs: "an input file", ops: &[],
        values: &["-k", "--side"], flags: &[] },
    Spec { name: "stats", positionals: (1, 1), needs: "an input file", ops: &[],
        values: &[], flags: &[] },
    Spec { name: "generate", positionals: (1, 1), needs: "a preset", ops: &[],
        values: &["--output"], flags: &[] },
    Spec { name: "help", positionals: (0, 0), needs: "nothing", ops: &[], values: &[], flags: &[] },
];

/// A command line after the one pass over it: the positionals in order,
/// and every option given, under its table name.
#[derive(Default)]
struct Args {
    positionals: Vec<String>,
    values: Vec<(&'static str, String)>,
    flags: Vec<&'static str>,
}

impl Args {
    /// Walks `rest` left to right under `spec`. Options may come before,
    /// between or after positionals; an option the table does not list, a
    /// value option without its value, a repeated option, or a positional
    /// count outside the table's range is a usage error.
    fn scan(spec: &Spec, rest: &[String]) -> Result<Args, UsageError> {
        let (cmd, mut args, mut rest) = (spec.name, Args::default(), rest.iter());
        while let Some(arg) = rest.next() {
            let name = if arg == "--out" { "--output" } else { arg };
            let listed = |names: &[&'static str]| names.iter().copied().find(|n| *n == name);
            if !arg.starts_with('-') {
                args.positionals.push(arg.clone());
            } else if args.flag(name) || args.values.iter().any(|(n, _)| *n == name) {
                return Err(UsageError(format!("`{cmd}` got {name} twice")));
            } else if let Some(opt) = listed(spec.values) {
                // Another option is never a value: `--output --json` lacks
                // its file rather than writing to "--json".
                let value = rest.next().filter(|v| !v.starts_with("--"));
                let value = value.ok_or_else(|| UsageError(format!("{opt} needs a value")))?;
                args.values.push((opt, value.clone()));
            } else if let Some(flag) = listed(spec.flags) {
                args.flags.push(flag);
            } else {
                return Err(UsageError(format!("`{cmd}` does not take {arg}")));
            }
        }
        // An operation fixes the positional count; else the range bounds it.
        let (min, max) = match args.positionals.first().filter(|_| !spec.ops.is_empty()) {
            None => spec.positionals,
            Some(op) => match spec.ops.iter().find(|(o, _)| o == op) {
                Some(&(_, want)) => (want, want),
                None => return Err(UsageError(format!("unknown {cmd} operation {op:?}"))),
            },
        };
        let n = args.positionals.len();
        if n < min {
            return Err(UsageError(format!("`{cmd}` needs {}", spec.needs)));
        }
        if n > max {
            return Err(UsageError(format!(
                "`{cmd}` takes at most {max} positionals, got {n}"
            )));
        }
        Ok(args)
    }

    fn value(&self, name: &str) -> Option<String> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.clone())
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.contains(&name)
    }

    fn opt_usize(&self, name: &str, default: usize) -> Result<usize, UsageError> {
        match self.value(name) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| UsageError(format!("{name} expects an integer, got {s:?}"))),
        }
    }

    /// Both threshold flags are fractions the engine compares against: a
    /// NaN makes every comparison false and silently disables the
    /// full-recompute fallback or the overlay compaction.
    fn opt_fraction(&self, name: &str, default: f64) -> Result<f64, UsageError> {
        match self.value(name).map(|s| (s.parse::<f64>(), s)) {
            None => Ok(default),
            Some((Ok(x), _)) if x.is_finite() && x >= 0.0 => Ok(x),
            Some((_, s)) => Err(UsageError(format!(
                "{name} expects a finite non-negative number, got {s:?}"
            ))),
        }
    }

    fn side(&self) -> Result<Side, UsageError> {
        match self.value("--side").map(|s| s.to_ascii_uppercase()) {
            None => Ok(Side::U),
            Some(s) if s == "U" => Ok(Side::U),
            Some(s) if s == "V" => Ok(Side::V),
            Some(s) => Err(UsageError(format!("--side expects U or V, got {s:?}"))),
        }
    }

    /// Only `tip` lists the ablation flags, so every other config keeps
    /// HUC and DGM on.
    fn config(&self) -> Result<Config, UsageError> {
        let mut config = Config::default();
        config.partitions = self.opt_usize("--partitions", config.partitions)?;
        config.threads = self.opt_usize("--threads", 0)?;
        config.huc = !self.flag("--no-huc");
        config.dgm = !self.flag("--no-dgm");
        Ok(config)
    }

    fn engine_options(&self) -> Result<EngineOptions, UsageError> {
        let defaults = EngineOptions::default();
        Ok(EngineOptions {
            config: self.config()?,
            dirty_threshold: self.opt_fraction("--dirty-threshold", defaults.dirty_threshold)?,
            compact_threshold: self
                .opt_fraction("--compact-threshold", defaults.compact_threshold)?,
            verify: self.flag("--verify"),
        })
    }
}

/// Parses `args` (without the binary name): one pass under the
/// subcommand's `SPECS` entry, then the arm builds its [`Command`].
pub fn parse(args: &[String]) -> Result<Command, UsageError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let name = match cmd.as_str() {
        "--help" | "-h" => "help",
        other => other,
    };
    let spec = SPECS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| UsageError(format!("unknown command {cmd:?}")))?;
    let a = Args::scan(spec, rest)?;
    // The table bounds the positional count, so these indices exist.
    let pos = |i: usize| a.positionals[i].clone();
    match spec.name {
        "tip" => Ok(Command::Tip {
            input: pos(0),
            side: a.side()?,
            config: a.config()?,
            output: a.value("--output"),
            json: a.flag("--json"),
            stats: a.flag("--stats"),
        }),
        "wing" => Ok(Command::Wing {
            input: pos(0),
            side: a.side()?,
            partitions: a.opt_usize("--partitions", 0)?,
            output: a.value("--output"),
            json: a.flag("--json"),
        }),
        "count" => Ok(Command::Count {
            input: pos(0),
            output: a.value("--output"),
            json: a.flag("--json"),
        }),
        "stream" => Ok(Command::Stream {
            input: pos(0),
            ops: pos(1),
            side: a.side()?,
            options: a.engine_options()?,
            output: a.value("--output"),
            json: a.flag("--json"),
        }),
        "serve" => Ok(Command::Serve {
            input: pos(0),
            options: a.engine_options()?,
            requests: a.value("--requests"),
            socket: a.value("--socket"),
            output: a.value("--output"),
            wal: a.value("--wal"),
            checkpoint_every: a.opt_usize(
                "--checkpoint-every",
                receipt::wal::DEFAULT_CHECKPOINT_EVERY as usize,
            )? as u64,
        }),
        "convert" => {
            let fmt = |name: &str| -> Result<Option<String>, UsageError> {
                match a.value(name).map(|s| s.to_ascii_lowercase()) {
                    None => Ok(None),
                    Some(s) if s == "text" || s == "binary" => Ok(Some(s)),
                    Some(s) => Err(UsageError(format!(
                        "{name} expects text or binary, got {s:?}"
                    ))),
                }
            };
            Ok(Command::Convert {
                input: pos(0),
                output: pos(1),
                from: fmt("--from")?,
                to: fmt("--to")?,
                json: a.flag("--json"),
            })
        }
        "recover" => Ok(Command::Recover {
            dir: pos(0),
            json: a.flag("--json"),
            output: a.value("--output"),
        }),
        "version" => Ok(Command::Version {
            op: pos(0),
            dir: pos(1),
            names: a.positionals[2..].to_vec(),
            verify: a.flag("--verify"),
            dump: a.value("--dump"),
            json: a.flag("--json"),
            output: a.value("--output"),
        }),
        "derive" => {
            let op = pos(0);
            let ids = match (op.as_str(), a.value("--ids")) {
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
                a: pos(1),
                b: a.positionals.get(2).cloned(),
                ids,
                side: a.side()?,
                output: a
                    .value("--output")
                    .ok_or_else(|| UsageError(format!("`derive {op}` needs --output FILE")))?,
                json: a.flag("--json"),
                op,
            })
        }
        "ktips" => Ok(Command::KTips {
            input: pos(0),
            side: a.side()?,
            k: a.value("-k")
                .ok_or_else(|| UsageError("ktips needs -k N".into()))?
                .parse()
                .map_err(|_| UsageError("-k expects an integer".into()))?,
        }),
        "stats" => Ok(Command::Stats { input: pos(0) }),
        "generate" => Ok(Command::Generate {
            preset: pos(0),
            output: a.value("--output"),
        }),
        // `help`, the table's last entry (a unit test pins that every
        // entry builds the variant of its own name).
        _ => Ok(Command::Help),
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

/// Fails unless `dir` holds a durable store (FORMATS.md §4).
fn require_store(dir: &str) -> Result<(), String> {
    if receipt::wal::Store::exists(std::path::Path::new(dir)) {
        return Ok(());
    }
    Err(format!(
        "no store at {dir} (expected checkpoint.meta; see FORMATS.md \u{a7}4)"
    ))
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
                    return serve::serve_socket(&engine, one_based, &path);
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
            require_store(&dir)?;
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
            require_store(&dir)?;
            let entry_line = |e: &VersionEntryReport| {
                format!(
                    "{}\tlsn {}\t{} butterflies\ttip checksums {:#018x}/{:#018x}",
                    e.name, e.lsn, e.total_butterflies, e.tip_checksum_u, e.tip_checksum_v
                )
            };
            let mut report = VersionReport::new(&op, &dir);
            // What text mode prints; `--json` emits `report` instead.
            let mut text = Vec::new();
            match op.as_str() {
                "tag" => {
                    let vref = version::tag_head(dpath, &names[0], EngineOptions::default())
                        .map_err(|e| e.to_string())?;
                    let tagged = VersionEntryReport::from_ref(&vref);
                    text.push(format!("tagged {}", entry_line(&tagged)));
                    report.tagged = Some(tagged);
                    let vs = VersionStore::open(dpath).map_err(|e| e.to_string())?;
                    report.versions =
                        Some(vs.list().iter().map(VersionEntryReport::from_ref).collect());
                }
                "list" => {
                    let vs = VersionStore::open(dpath).map_err(|e| e.to_string())?;
                    let versions: Vec<_> =
                        vs.list().iter().map(VersionEntryReport::from_ref).collect();
                    text.extend(versions.iter().map(entry_line));
                    report.versions = Some(versions);
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
                    // Bare batch lines: `--output FILE` yields a file that
                    // `tipdecomp stream` replays as one batch.
                    text.clone_from(&lines);
                    report.diff = Some(VersionDiffReport {
                        from: VersionEntryReport::from_ref(vs.lookup(&names[0]).unwrap()),
                        to: VersionEntryReport::from_ref(vs.lookup(&names[1]).unwrap()),
                        inserts: count(|l| l.starts_with('+')),
                        deletes: count(|l| l.starts_with('-')),
                        ops: lines,
                    });
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
                    let at = TimeTravelReport {
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
                    };
                    text.push(format!(
                        "at {}: checkpoint lsn {}, replayed {}/{} record(s) \
                         (skipped {} folded, {} above the tag), wal end {}",
                        entry_line(&at.version),
                        at.checkpoint_lsn,
                        at.replayed,
                        at.wal_records,
                        at.skipped_folded,
                        at.skipped_above,
                        at.wal_end
                    ));
                    text.push(format!(
                        "state: {} x {}, {} edges, {} butterflies{}",
                        at.num_u,
                        at.num_v,
                        at.num_edges,
                        at.total_butterflies,
                        if at.verified { ", oracle verified" } else { "" }
                    ));
                    report.at = Some(at);
                }
                _ => unreachable!("parse validated the version operation"),
            }
            if json {
                return emit_json(&report, &output);
            }
            let mut out = sink(&output)?;
            text.iter()
                .try_for_each(|line| writeln!(out, "{line}"))
                .map_err(|e| e.to_string())
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

    /// One valid command line per table entry, with every positional the
    /// entry allows: `(name, positionals, options)`.
    const SAMPLES: &[(&str, &[&str], &[&str])] = &[
        (
            "tip",
            &["g.tsv"],
            &["--side", "V", "--no-dgm", "--out", "t.tsv"],
        ),
        ("wing", &["g.tsv"], &["--partitions", "2", "--json"]),
        ("count", &["g.tsv"], &["--json"]),
        (
            "stream",
            &["g.tsv", "ops.txt"],
            &["--verify", "--threads", "2"],
        ),
        ("serve", &["g.tsv"], &["--wal", "store", "--verify"]),
        ("convert", &["a.tsv", "b.bgr"], &["--to", "binary"]),
        ("recover", &["store"], &["--json"]),
        ("version", &["diff", "store", "v0", "v1"], &["--json"]),
        (
            "derive",
            &["union", "a.tsv", "b.tsv"],
            &["--output", "u.bgr"],
        ),
        ("ktips", &["g.tsv"], &["-k", "1"]),
        ("stats", &["g.tsv"], &[]),
        ("generate", &["It"], &["--output", "it.tsv"]),
        ("help", &[], &[]),
    ];

    #[test]
    fn every_table_entry_is_strict_and_order_free() {
        assert_eq!(SAMPLES.len(), SPECS.len());
        for spec in SPECS {
            let (_, pos, opts) = SAMPLES.iter().find(|s| s.0 == spec.name).unwrap();
            let line = |parts: &[&[&str]]| -> Vec<String> {
                let words = parts.iter().flat_map(|p| p.iter());
                std::iter::once(&spec.name)
                    .chain(words)
                    .map(|s| s.to_string())
                    .collect()
            };
            let err = |parts: &[&[&str]]| parse(&line(parts)).unwrap_err().0;
            let cmd = parse(&line(&[pos, opts])).unwrap();
            let variant = format!("{cmd:?}").to_lowercase();
            assert!(
                variant.starts_with(spec.name),
                "{variant} built for {}",
                spec.name
            );
            // Options may come before or between the positionals.
            assert_eq!(parse(&line(&[opts, pos])), Ok(cmd.clone()), "{}", spec.name);
            let (first, rest) = pos.split_at(pos.len().min(1));
            assert_eq!(parse(&line(&[first, opts, rest])), Ok(cmd), "{}", spec.name);

            assert!(err(&[pos, opts, &["--bogus"]]).contains("does not take --bogus"));
            assert!(err(&[pos, opts, &["extra"]]).contains("takes at most"));
            for opt in spec.values {
                assert!(err(&[pos, &[opt]]).contains("needs a value"), "{opt}");
                assert!(
                    err(&[pos, &[opt, "--json"]]).contains("needs a value"),
                    "{opt}"
                );
                assert!(
                    err(&[pos, &[opt, "1", opt, "1"]]).contains("twice"),
                    "{opt}"
                );
            }
            for flag in spec.flags {
                assert!(err(&[pos, &[flag, flag]]).contains("twice"), "{flag}");
            }
        }
        // `--out` is `--output` under another name, not a second option.
        let err = parse(&sv(&["tip", "g.tsv", "--output", "a", "--out", "b"])).unwrap_err();
        assert!(err.0.contains("twice"), "{}", err.0);
        // A value may itself start with one dash.
        let err = parse(&sv(&["serve", "g.tsv", "--dirty-threshold", "-1"])).unwrap_err();
        assert!(err.0.contains("finite non-negative"), "{}", err.0);
    }

    #[test]
    fn version_and_derive_operations_fix_the_positional_count() {
        for (line, fragment) in [
            ("version promote store v0", "unknown version operation"),
            ("version list", "needs an operation"),
            ("version tag store", "its tag names"),
            ("version at store v1 v2", "takes at most 3"),
            ("derive subgraph a b --ids 0 --out o", "takes at most 2"),
            ("derive union a --out o", "its input graphs"),
        ] {
            let err = parse(&sv(&line.split(' ').collect::<Vec<_>>())).unwrap_err();
            assert!(err.0.contains(fragment), "{line:?}: {}", err.0);
        }
    }

    /// Every option the table lists shows up in its subcommand's `USAGE`
    /// lines, so the help text cannot fall behind the parser again.
    #[test]
    fn usage_lists_every_table_option() {
        for spec in SPECS.iter().filter(|s| s.name != "help") {
            let mut words = Vec::new();
            let mut inside = false;
            for line in USAGE.lines() {
                let trimmed = line.trim_start();
                if let Some(cmd) = trimmed.strip_prefix("tipdecomp ") {
                    inside = cmd.split_whitespace().next() == Some(spec.name);
                } else if line.len() - trimmed.len() < 20 {
                    inside = false;
                }
                if inside {
                    words.extend(line.split(|c: char| c.is_whitespace() || "[]".contains(c)));
                }
            }
            for opt in spec.values.iter().chain(spec.flags) {
                assert!(words.contains(opt), "`{}` usage lacks {opt}", spec.name);
            }
        }
    }

    /// Every `tipdecomp` command line that CI, the README, the CLI's
    /// black-box tests and the perfbench harness run must parse.
    const DOCUMENTED_LINES: &[&str] = &[
        // .github/workflows/ci.yml
        "tip /tmp/ci-fixture.tsv --json --out /tmp/tip.json",
        "wing /tmp/ci-fixture.tsv --partitions 2 --json",
        "stream /tmp/ci-fixture.tsv /tmp/ci-ops.txt --verify --json --out /tmp/stream.json",
        "serve /tmp/ci-fixture.tsv --requests /tmp/ci-req.txt --verify --out /tmp/serve.json",
        "convert /tmp/ci-fixture.tsv /tmp/ci-canon.tsv --to text",
        "convert /tmp/ci-canon.tsv /tmp/ci-fixture.bgr",
        "convert /tmp/ci-fixture.bgr /tmp/ci-back.tsv",
        "serve /tmp/ci-fixture.tsv --requests /tmp/ci-wal-req.txt --verify --wal /tmp/ci-store \
         --out /tmp/wal-session.json",
        "recover /tmp/ci-store --json --output /tmp/recover.json",
        "serve /tmp/ci-fixture.tsv --wal /tmp/ci-store --verify --requests /tmp/ci-reopen-req.txt \
         --out /tmp/reopen-session.json",
        "version tag /tmp/ci-store head",
        "version list /tmp/ci-store",
        "version diff /tmp/ci-store head head",
        "version at /tmp/ci-store head --verify --dump /tmp/ci-head.tsv --json \
         --out /tmp/version-at.json",
        "derive subgraph /tmp/ci-head.tsv --ids 0,1 --output /tmp/ci-sub.tsv",
        "derive union /tmp/ci-head.tsv /tmp/ci-canon.tsv --output /tmp/ci-union.bgr",
        "derive diff /tmp/ci-head.tsv /tmp/ci-canon.tsv --output /tmp/ci-minus.tsv --json",
        "generate It --output scaling-graph.tsv",
        "stream scaling-graph.tsv scaling-ops.txt --verify --json --out scaling/stream-t2.json",
        "serve scaling-graph.tsv --requests serve-req.txt --verify --out scaling/serve-t2.json",
        // README.md
        "",
        "generate It --output it.tsv",
        "tip it.tsv --side U --stats",
        "wing it.tsv --partitions 50",
        "stream it.tsv ops.txt --side U --verify --json",
        "serve it.tsv --verify",
        "serve it.tsv --socket /tmp/tip.sock",
        "serve it.tsv --requests req.txt --out session.json",
        "convert it.tsv it.bgr",
        "convert it.bgr back.tsv",
        "serve it.tsv --wal store/ --checkpoint-every 4",
        "recover store/ --json",
        "version tag store head",
        "version list store",
        "version diff store head head",
        "version at store head --verify --dump head.tsv",
        "derive subgraph head.tsv --ids 0,1 --output sub.tsv",
        "derive union head.tsv other.tsv --output union.bgr",
        "tip g.tsv --json",
        // crates/cli/tests/cli_e2e.rs
        "help",
        "tip g.tsv --stats",
        "generate It --output it.tsv",
        "stats it.tsv",
        "wing g.tsv --partitions 2",
        "ktips g.tsv -k 1",
        "tip /no/such/file.tsv",
        "wing /no/such/file.tsv",
        "generate Zz",
        "count big.tsv",
        "stream g.tsv ops.txt --verify",
        "stream g.tsv ops.txt --json",
        "convert g.tsv canon.tsv --to text",
        "convert canon.tsv g.bgr",
        "convert g.bgr back.tsv",
        "convert g.bgr g2.bgr",
        "convert canon.tsv g.bgr --json",
        "convert bad.bgr out.tsv",
        "serve g.tsv --requests req.txt --wal store",
        "recover store --json",
        "recover nothing",
        "stream g.tsv /no/such/ops.txt",
        "serve g.tsv --socket serve.sock",
        // crates/cli/tests/json_golden.rs
        "wing g.tsv --partitions 2 --json",
        "count g.tsv --json",
        "serve g.tsv --requests req.txt --verify",
        "convert g.tsv g.bgr --json",
        "version list store --json",
        "version diff store v0 v2 --json",
        "version at store v1 --verify --json",
        "derive subgraph g.tsv --ids 0,1 --side U --output sub.tsv --json",
        "derive union g.tsv h.tsv --output u.bgr --json",
        "wing g.tsv --json",
        "wing g.tsv --partitions 3 --json",
        "tip g.tsv --json --out report.json",
        // perfbench/src/serve_mixed.rs
        "serve g.tsv --socket serve.sock --wal wal",
    ];

    #[test]
    fn every_documented_command_line_parses() {
        for line in DOCUMENTED_LINES {
            let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
            assert!(parse(&args).is_ok(), "{line:?}: {:?}", parse(&args));
        }
    }
}
