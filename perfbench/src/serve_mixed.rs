//! `serve_mixed`: `tipdecomp serve` as a separate process, driven over
//! its real wire protocol (length-prefixed JSON on a Unix socket) by one
//! connection with an open-loop schedule: reads at a fixed rate, and a
//! 1024-op `apply` at a fixed slower interval. Latency counts from each
//! request's due time, so reads due during an apply show the head-of-line
//! blocking they suffer on the single connection.
//!
//! Every response is checked against an in-process `StreamEngine` that
//! replays the same requests in the same order.

use crate::openloop::{self, Slot, Timeline};
use crate::pipeline::{self, EngineBatch, Pipeline};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{splitmix64, Ctx, SETUP_REPEATS};
use bigraph::{EdgeOp, Side};
use receipt::engine::{EngineOptions, StreamEngine};
use receipt::report::{ServeResponse, ServeStats, StreamBatchReport};
use receipt::snapshot::EngineSnapshot;
use receipt::wal::DEFAULT_CHECKPOINT_EVERY;
use receipt_cli::{handle_request, read_frame, write_frame};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The load's shape. Reads at 200/s keep the server mostly idle between
/// applies; one 1024-op apply every 10 s takes the full-recompute branch
/// and holds the connection for over a second, so about an eighth of the
/// reads queue behind one. With more of them queued (or more of the
/// costly reads below), the median read would sit on the knee between
/// the point-lookup cluster and the slow ones and swing with it.
struct Load {
    read_rate: f64,
    first_apply: f64,
    apply_every: f64,
    apply_ops: usize,
    /// Closed-loop requests per read kind in a traced run.
    probes: usize,
}

const LOAD: Load = Load {
    read_rate: 200.0,
    first_apply: 2.0,
    apply_every: 10.0,
    apply_ops: 1024,
    probes: 40,
};

const SMOKE_LOAD: Load = Load {
    read_rate: 100.0,
    first_apply: 0.25,
    apply_every: 0.5,
    apply_ops: 64,
    probes: 5,
};

/// Lead time before the first due request, so the sender thread's own
/// start-up does not count as lateness.
const LEAD: f64 = 0.05;

/// Read mix, in percent: point lookups dominate, with a few aggregate
/// (`stats`) and ranking (`topk`) queries, which cost ten to a hundred
/// times more.
const READ_MIX: [(ReadOp, u64); 5] = [
    (ReadOp::Tip, 40),
    (ReadOp::ButterfliesVertex, 26),
    (ReadOp::ButterfliesEdge, 26),
    (ReadOp::Stats, 4),
    (ReadOp::TopK, 4),
];

/// The sender sleeps until this long before a request is due and spins
/// the rest of the way: a sleep alone overshoots by the kernel's timer
/// slack and wake-up, which would count as latency from the due time.
const SPIN: Duration = Duration::from_micros(200);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadOp {
    Tip,
    ButterfliesVertex,
    ButterfliesEdge,
    Stats,
    TopK,
}

impl ReadOp {
    fn name(self) -> &'static str {
        match self {
            ReadOp::Tip => "tip",
            ReadOp::ButterfliesVertex => "bfly_vertex",
            ReadOp::ButterfliesEdge => "bfly_edge",
            ReadOp::Stats => "stats",
            ReadOp::TopK => "topk",
        }
    }
}

/// One read: the op and its operands (a side and vertex, or an edge).
#[derive(Debug, Clone, Copy)]
struct Read {
    op: ReadOp,
    side: Side,
    a: u32,
    b: u32,
}

impl Read {
    fn text(&self) -> String {
        let side = self.side;
        match self.op {
            ReadOp::Tip => format!(r#"{{"op":"tip","side":"{side}","vertex":{}}}"#, self.a),
            ReadOp::ButterfliesVertex => {
                format!(
                    r#"{{"op":"butterflies","side":"{side}","vertex":{}}}"#,
                    self.a
                )
            }
            ReadOp::ButterfliesEdge => {
                format!(r#"{{"op":"butterflies","u":{},"v":{}}}"#, self.a, self.b)
            }
            ReadOp::Stats => r#"{"op":"stats"}"#.to_string(),
            ReadOp::TopK => format!(r#"{{"op":"topk","side":"{side}","k":10}}"#),
        }
    }

    /// The snapshot query this read's answer comes from.
    fn query(&self, snapshot: &EngineSnapshot) {
        match self.op {
            ReadOp::Tip => {
                black_box(snapshot.tip(self.side, self.a));
            }
            ReadOp::ButterfliesVertex => {
                black_box(snapshot.vertex_butterflies(self.side, self.a));
            }
            ReadOp::ButterfliesEdge => {
                black_box(snapshot.edge_butterflies(self.a, self.b));
            }
            ReadOp::Stats => {
                black_box(ServeStats::from_snapshot(snapshot));
            }
            ReadOp::TopK => {
                black_box(snapshot.top_k_densest(self.side, 10));
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Request {
    Read(Read),
    /// Index into the apply batches.
    Apply(usize),
}

/// Draws reads from the workload seed. Edge reads only name edges no
/// apply deletes, so every read has an answer at every epoch.
struct ReadGen {
    state: u64,
    num: [u32; 2],
    kept_edges: Vec<(u32, u32)>,
}

impl ReadGen {
    fn next(&mut self, below: u64) -> u64 {
        self.state = splitmix64(self.state);
        self.state % below.max(1)
    }

    fn draw(&mut self) -> Read {
        let mut pick = self.next(100);
        let op = READ_MIX
            .iter()
            .find(|(_, w)| {
                let hit = pick < *w;
                pick = pick.saturating_sub(*w);
                hit
            })
            .map_or(ReadOp::Tip, |(op, _)| *op);
        self.draw_op(op)
    }

    fn draw_op(&mut self, op: ReadOp) -> Read {
        let side = if self.next(2) == 0 { Side::U } else { Side::V };
        let num = match side {
            Side::U => self.num[0],
            Side::V => self.num[1],
        };
        let vertex = self.next(u64::from(num)) as u32;
        let (a, b) = match op {
            ReadOp::ButterfliesEdge => {
                let i = self.next(self.kept_edges.len() as u64) as usize;
                self.kept_edges[i]
            }
            _ => (vertex, 0),
        };
        Read { op, side, a, b }
    }
}

fn apply_text(ops: &[EdgeOp]) -> String {
    let ops: Vec<String> = ops
        .iter()
        .map(|op| match *op {
            EdgeOp::Insert(u, v) => format!("\"+{u} {v}\""),
            EdgeOp::Delete(u, v) => format!("\"-{u} {v}\""),
        })
        .collect();
    format!(r#"{{"op":"apply","ops":[{}]}}"#, ops.join(","))
}

/// A `tipdecomp serve` child process. Dropping it kills the process if
/// it is still running and always waits for it.
struct Server {
    child: Child,
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Server {
    /// Starts `tipdecomp serve` on the graph in `work`, over a fresh WAL
    /// directory and socket, and returns once it accepts a connection,
    /// with the connection and the seconds it took.
    fn start(exe: &Path, work: &Path, i: usize) -> Result<(Server, UnixStream, f64), String> {
        let sock = format!("s{i}.sock");
        let wal = format!("wal-{i}");
        let log_path = work.join(format!("server-{i}.log"));
        let log =
            std::fs::File::create(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
        let t = Instant::now();
        let child = Command::new(exe)
            .args(["serve", "g.tsv", "--socket", &sock, "--wal", &wal])
            .current_dir(work)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut server = Server { child };
        let sock = work.join(sock);
        loop {
            if let Ok(stream) = UnixStream::connect(&sock) {
                let ready = t.elapsed().as_secs_f64();
                stream
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .map_err(|e| e.to_string())?;
                return Ok((server, stream, ready));
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!(
                    "server exited during start-up ({status}); see {}",
                    log_path.display()
                ));
            }
            if t.elapsed() > Duration::from_secs(120) {
                return Err("server did not accept within 120 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends `shutdown` and waits for a clean exit.
    fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        conn.call(r#"{"op":"shutdown"}"#)?;
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(30) {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("server did not exit after shutdown".into())
    }
}

/// The one connection: framed writes, and framed reads through a buffer
/// that lives as long as the connection.
struct Conn<'a> {
    stream: &'a UnixStream,
    reader: BufReader<&'a UnixStream>,
}

impl<'a> Conn<'a> {
    fn new(stream: &'a UnixStream) -> Self {
        Conn {
            stream,
            reader: BufReader::new(stream),
        }
    }

    fn recv(&mut self) -> Result<String, String> {
        read_frame(&mut self.reader)?.ok_or_else(|| "server closed the connection".to_string())
    }

    /// One closed-loop request: the response and its round trip.
    fn call(&mut self, text: &str) -> Result<(String, f64), String> {
        let mut frame = Vec::new();
        write_frame(&mut frame, text)?;
        let t = Instant::now();
        let mut writer = self.stream;
        writer
            .write_all(&frame)
            .map_err(|e| format!("sending: {e}"))?;
        let response = self.recv()?;
        Ok((response, t.elapsed().as_secs_f64()))
    }

    /// Sends `texts` at their due times (seconds after now, plus
    /// [`LEAD`]) from a second thread while this one collects the
    /// responses in order.
    fn open_loop(
        &mut self,
        texts: &[String],
        due: &[f64],
    ) -> Result<(Vec<Timeline>, Vec<String>), String> {
        let start = Instant::now();
        let stream = self.stream;
        std::thread::scope(|scope| {
            let sender = scope.spawn(move || -> Result<Vec<f64>, String> {
                let mut writer = stream;
                let mut sent = Vec::with_capacity(texts.len());
                let mut frames = Vec::new();
                let mut next = 0;
                while next < texts.len() {
                    let target = start + Duration::from_secs_f64(due[next] + LEAD);
                    if let Some(wait) = target
                        .checked_sub(SPIN)
                        .and_then(|t| t.checked_duration_since(Instant::now()))
                    {
                        std::thread::sleep(wait);
                    }
                    while Instant::now() < target {
                        std::hint::spin_loop();
                    }
                    // Everything due by now goes out in one write: while
                    // the server is busy with an apply it stops reading,
                    // and one write per frame would fill the socket's
                    // send buffer with per-write overhead.
                    let now = start.elapsed().as_secs_f64() - LEAD;
                    frames.clear();
                    while next < texts.len() && (frames.is_empty() || due[next] <= now) {
                        write_frame(&mut frames, &texts[next])?;
                        sent.push(now);
                        next += 1;
                    }
                    writer
                        .write_all(&frames)
                        .map_err(|e| format!("sending: {e}"))?;
                }
                Ok(sent)
            });
            let mut done = Vec::with_capacity(texts.len());
            let mut responses = Vec::with_capacity(texts.len());
            let mut failure = None;
            for _ in texts {
                match self.recv() {
                    Ok(r) => {
                        done.push(start.elapsed().as_secs_f64() - LEAD);
                        responses.push(r);
                    }
                    Err(e) => {
                        // Unblock the sender, then report.
                        let _ = self.stream.shutdown(std::net::Shutdown::Both);
                        failure = Some(e);
                        break;
                    }
                }
            }
            let sent = sender
                .join()
                .map_err(|_| "sender thread panicked".to_string())?;
            if let Some(e) = failure {
                return Err(e);
            }
            let timelines = sent?
                .into_iter()
                .zip(due.iter().zip(done))
                .map(|(sent, (&due, done))| Timeline { due, sent, done })
                .collect();
            Ok((timelines, responses))
        })
    }
}

pub fn run(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let load = if ctx.smoke { SMOKE_LOAD } else { LOAD };
    let g = ctx.dataset(bigraph::datasets::IT).generate();
    // Written with a `% m nu nv` header: 0-based ids, which the wire
    // protocol then shares.
    bigraph::io::write_graph_path(&g, ctx.work.join("g.tsv"))
        .map_err(|e| format!("writing the graph: {e}"))?;
    report.note("edges", g.num_edges() as u64);

    let slots = openloop::schedule(
        ctx.seconds.as_secs_f64(),
        load.read_rate,
        load.first_apply,
        load.apply_every,
    );
    let applies = slots.iter().filter(|s| s.1 == Slot::Apply).count();
    let batches =
        bigraph::dynamic::seeded_schedule(&g, applies, load.apply_ops, ctx.derive(0xa991));
    let deleted: HashSet<(u32, u32)> = batches
        .iter()
        .flatten()
        .filter_map(|op| match *op {
            EdgeOp::Delete(u, v) => Some((u, v)),
            EdgeOp::Insert(..) => None,
        })
        .collect();
    let mut reads = ReadGen {
        state: ctx.derive(0x4ead),
        num: [g.num_u() as u32, g.num_v() as u32],
        kept_edges: g.edges().filter(|e| !deleted.contains(e)).collect(),
    };
    let mut next_apply = 0;
    let mut requests: Vec<Request> = slots
        .iter()
        .map(|(_, slot)| match slot {
            Slot::Read => Request::Read(reads.draw()),
            Slot::Apply => {
                next_apply += 1;
                Request::Apply(next_apply - 1)
            }
        })
        .collect();
    let text = |r: &Request| match r {
        Request::Read(read) => read.text(),
        Request::Apply(i) => apply_text(&batches[*i]),
    };
    let mut texts: Vec<String> = requests.iter().map(text).collect();
    let due: Vec<f64> = slots.iter().map(|s| s.0).collect();
    let slot_kinds: Vec<Slot> = slots.iter().map(|s| s.1).collect();

    // Set-up: start the server several times, each over a fresh store;
    // keep the last.
    let exe = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("tipdecomp");
    let mut setups = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        let (server, stream, ready) = Server::start(&exe, &ctx.work, i)?;
        setups.push(ready);
        if i + 1 < SETUP_REPEATS {
            server.shutdown(&mut Conn::new(&stream))?;
        } else {
            last = Some((server, stream));
        }
    }
    let (server, stream) = last.expect("SETUP_REPEATS > 0");
    let mut conn = Conn::new(&stream);

    let (timelines, mut responses) = conn.open_loop(&texts, &due)?;
    // Traced runs add closed-loop probes of each read kind.
    let mut rtt_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut probes = Vec::new();
    if ctx.trace {
        for (op, _) in READ_MIX {
            for _ in 0..load.probes {
                let read = reads.draw_op(op);
                let (response, rtt) = conn.call(&read.text())?;
                rtt_us.entry(op.name()).or_default().push(rtt * 1e6);
                requests.push(Request::Read(read));
                texts.push(read.text());
                responses.push(response);
                probes.push(read);
            }
        }
    }
    let stats = Read {
        op: ReadOp::Stats,
        side: Side::U,
        a: 0,
        b: 0,
    };
    let (final_stats, _) = conn.call(&stats.text())?;
    requests.push(Request::Read(stats));
    texts.push(stats.text());
    responses.push(final_stats.clone());
    let rss = peak_rss_mb(&server.pid());
    server.shutdown(&mut conn)?;
    report.attempted += requests.len() as u64;

    // Gates: every response ok, epochs never decrease, and every
    // response equals the in-process replay's at the same point.
    let replay_dir = ctx.work.join("replay");
    let (replay, _) = StreamEngine::open_durable(
        &replay_dir,
        Some(g.clone()),
        EngineOptions::default(),
        DEFAULT_CHECKPOINT_EVERY,
    )?;
    // A traced run replays each apply through the layers right after the
    // replay engine applied it, so both see the machine in one state.
    let mut shadow = if ctx.trace {
        Some(Pipeline::new(
            g.clone(),
            &EngineOptions::default(),
            &ctx.work.join("shadow"),
            DEFAULT_CHECKPOINT_EVERY,
        )?)
    } else {
        None
    };
    let mut counters = Vec::new();
    let mut engine_batches = Vec::new();
    let mut epoch = 0;
    let mut mismatches = 0u64;
    for (seq, ((request, text), response)) in
        requests.iter().zip(&texts).zip(&responses).enumerate()
    {
        let got: ServeResponse =
            serde_json::from_str(response).map_err(|e| format!("response {seq}: {e}"))?;
        if !got.ok {
            report.failed += 1;
            report
                .gate_failures
                .push(format!("request {seq} failed: {:?}", got.error));
            continue;
        }
        report.gate(got.epoch >= epoch, || {
            format!(
                "epoch went back from {epoch} to {} at request {seq}",
                got.epoch
            )
        });
        epoch = got.epoch;
        let matches = match request {
            Request::Apply(i) => {
                let t = Instant::now();
                let outcome = replay.apply_batch(&batches[*i])?;
                engine_batches.push(EngineBatch::new(t.elapsed(), &outcome));
                if let Some(shadow) = shadow.as_mut() {
                    counters.push(shadow.apply(&batches[*i], tracer)?);
                }
                let expected =
                    StreamBatchReport::from_outcome(outcome.epoch as usize - 1, Side::U, &outcome);
                got.epoch == outcome.epoch && got.batch.is_some_and(|b| same_row(b, expected))
            }
            Request::Read(_) => {
                let (expected, _) = handle_request(&replay, false, seq as u64, text)?;
                serde_json::to_string(&expected).map_err(|e| e.to_string())? == *response
            }
        };
        if !matches {
            mismatches += 1;
        }
    }
    report.failed += mismatches;
    report.gate(mismatches == 0, || {
        format!("{mismatches} responses differ from the in-process replay")
    });
    let got: ServeResponse = serde_json::from_str(&final_stats).map_err(|e| e.to_string())?;
    let want = ServeStats::from_snapshot(&replay.snapshot());
    report.gate(
        got.stats.is_some_and(|s| {
            (s.tip_checksum_u, s.tip_checksum_v) == (want.tip_checksum_u, want.tip_checksum_v)
        }),
        || "final stats checksums differ from the replay's".into(),
    );

    let ms = |slot: Slot| -> Vec<f64> {
        timelines
            .iter()
            .zip(&slot_kinds)
            .filter(|(_, s)| **s == slot)
            .map(|(t, _)| t.latency() * 1e3)
            .collect()
    };
    let (read_ms, apply_ms) = (ms(Slot::Read), ms(Slot::Apply));
    let late_ms: Vec<f64> = timelines.iter().map(|t| t.lateness() * 1e3).collect();
    let blocked =
        openloop::hol_blocked(&timelines, &slot_kinds) as f64 / read_ms.len().max(1) as f64;
    report.note("reads", read_ms.len() as u64);
    let deciles: Vec<serde_json::Value> = (1..10)
        .map(|d| {
            percentile(&read_ms, f64::from(d) * 10.0)
                .unwrap_or(0.0)
                .into()
        })
        .collect();
    report.note("read_ms_deciles", serde_json::Value::Array(deciles));
    report.note("applies", apply_ms.len() as u64);
    let samples: Vec<serde_json::Value> = apply_ms.iter().map(|&s| s.into()).collect();
    report.note("apply_ms_samples", serde_json::Value::Array(samples));
    let samples: Vec<serde_json::Value> = engine_batches.iter().map(|e| e.ms.into()).collect();
    report.note("replay_apply_ms_samples", serde_json::Value::Array(samples));
    if !read_ms.is_empty() {
        report.note(
            "read_p99_beyond",
            (read_ms.len() - crate::stats::rank(read_ms.len(), 99.0)) as u64,
        );
    }
    report.note(
        "gen_late_max_ms",
        late_ms.iter().copied().fold(0.0, f64::max),
    );

    if ctx.trace {
        report.metric("serve.hol_blocked_frac", blocked, "frac");
        report.metric(
            "bench.gen_late_ms",
            percentile(&late_ms, 99.0).unwrap_or(0.0),
            "ms",
        );
        in_process_reads(report, &replay, &probes, &rtt_us)?;
        pipeline::report_layers(report, tracer, &counters, &engine_batches);
        if let Some(shadow) = &shadow {
            let snapshot = replay.snapshot();
            let expected = [Side::U, Side::V].map(|s| snapshot.tip_checksum(s));
            pipeline::report_decompose_layers(report, tracer, shadow, expected, ctx.nproc);
        }
    } else {
        // The unit of work is the 1024-op apply; the requests are every
        // read and apply of the open loop, nearly all of them reads, so
        // the tail is the read tail with head-of-line blocking in it.
        let latency_ms: Vec<f64> = timelines.iter().map(|t| t.latency() * 1e3).collect();
        report.metric("setup_s", median(&setups).unwrap_or(0.0), "s");
        report.work_and_latency(&apply_ms, &latency_ms);
        if let Some(rss) = rss {
            report.metric("peak_rss_mb", rss, "MB");
        }
        report.note("hol_blocked_frac", blocked);
        report.note("read_p99_ms", percentile(&read_ms, 99.0).unwrap_or(0.0));
        // Sub-millisecond, so it tracks the host's scheduling of this
        // VM's vCPUs more than the server: a note, not a bounded metric.
        report.note("read_p50_ms", median(&read_ms).unwrap_or(0.0));
        report.note("gen_late_p99_ms", percentile(&late_ms, 99.0).unwrap_or(0.0));
    }
    Ok(())
}

/// Apply rows agree up to their wall-clock field.
fn same_row(mut got: StreamBatchReport, mut want: StreamBatchReport) -> bool {
    got.time_update_secs = 0.0;
    want.time_update_secs = 0.0;
    got == want
}

/// Per-op costs of the read path inside one process, on the replay
/// engine at the server's final state: the whole `handle_request`, the
/// response encoding, the snapshot grab, and the bare snapshot query.
/// `serve.wire_us` is what the round trip adds on top: framing,
/// syscalls, and the two context switches.
fn in_process_reads(
    report: &mut Report,
    engine: &StreamEngine,
    probes: &[Read],
    rtt_us: &BTreeMap<&'static str, Vec<f64>>,
) -> Result<(), String> {
    let mut handle: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut encode: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut query: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut grab = Vec::new();
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for (seq, read) in probes.iter().enumerate() {
        let name = read.op.name();
        let text = read.text();
        let t = Instant::now();
        let (response, _) = handle_request(engine, false, seq as u64, &text)?;
        handle.entry(name).or_default().push(us(t));
        let t = Instant::now();
        black_box(serde_json::to_string(&response).map_err(|e| e.to_string())?);
        encode.entry(name).or_default().push(us(t));
        let t = Instant::now();
        let snapshot = engine.snapshot();
        grab.push(us(t));
        let t = Instant::now();
        read.query(&snapshot);
        query.entry(name).or_default().push(us(t));
    }
    let med = |m: &BTreeMap<&'static str, Vec<f64>>, op: &str| {
        m.get(op).and_then(|v| median(v)).unwrap_or(0.0)
    };
    let mut wire = Vec::new();
    for (op, _) in READ_MIX {
        let name = op.name();
        report.metric(format!("serve.rtt_us.{name}"), med(rtt_us, name), "us");
        report.metric(format!("serve.handle_us.{name}"), med(&handle, name), "us");
        report.metric(format!("snapshot.query_us.{name}"), med(&query, name), "us");
        wire.push(med(rtt_us, name) - med(&handle, name) - med(&encode, name));
    }
    let all_encode: Vec<f64> = encode.values().flatten().copied().collect();
    report.metric("serve.encode_us", median(&all_encode).unwrap_or(0.0), "us");
    report.metric("snapshot.grab_us", median(&grab).unwrap_or(0.0), "us");
    report.metric("serve.wire_us", median(&wire).unwrap_or(0.0), "us");
    Ok(())
}
