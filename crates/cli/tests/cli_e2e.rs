//! Black-box tests of the `tipdecomp` binary: spawn the real executable
//! and check its stdout/stderr/exit codes end to end.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tipdecomp"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tipdecomp_e2e_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small graph with a known decomposition: one butterfly + a pendant.
fn write_fixture(dir: &Path) -> PathBuf {
    let path = dir.join("g.tsv");
    std::fs::write(&path, "% fixture\n0 0\n0 1\n1 0\n1 1\n2 0\n").unwrap();
    path
}

#[test]
fn help_and_unknown_command() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // No args prints usage and succeeds.
    let out = bin().output().unwrap();
    assert!(out.status.success());
}

#[test]
fn tip_pipeline_on_fixture() {
    let dir = temp_dir("tip");
    let graph = write_fixture(&dir);
    let out = bin()
        .args(["tip", graph.to_str().unwrap(), "--stats"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // u0 and u1 form the butterfly (tip 1), u2 is pendant (tip 0).
    assert!(stdout.contains("0\t1"), "{stdout}");
    assert!(stdout.contains("1\t1"), "{stdout}");
    assert!(stdout.contains("2\t0"), "{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("theta_max=1"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_then_stats_round_trip() {
    let dir = temp_dir("gen");
    let path = dir.join("it.tsv");
    let out = bin()
        .args(["generate", "It", "--output", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    // PRNG determinism: a second generation of the same analog must
    // produce a byte-identical edge list (no baked-in |E| constant, which
    // would silently break whenever the generator or PRNG stream evolves).
    let path2 = dir.join("it_again.tsv");
    let out = bin()
        .args(["generate", "It", "--output", path2.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let first = std::fs::read(&path).unwrap();
    let second = std::fs::read(&path2).unwrap();
    assert!(!first.is_empty(), "generated edge list must be non-empty");
    assert_eq!(first, second, "It-analog generation must be deterministic");

    let out = bin()
        .args(["stats", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("|E| = "), "{stdout}");
    assert!(stdout.contains("butterflies"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A misspelled option is a usage error, never a silently different run:
/// `--verfiy` would skip the oracle, and `--no-gdm` would run the full
/// RECEIPT instead of the RECEIPT-- ablation.
#[test]
fn misspelled_options_exit_2_with_usage() {
    let dir = temp_dir("misspelled");
    let graph = write_fixture(&dir);
    let ops = dir.join("ops.txt");
    std::fs::write(&ops, "+2 1\n").unwrap();
    let (graph, ops) = (graph.to_str().unwrap(), ops.to_str().unwrap());
    for args in [
        vec!["stream", graph, ops, "--verfiy"],
        vec!["tip", graph, "--no-gdm", "--json"],
    ] {
        let out = bin().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let typo = args.iter().find(|a| a.starts_with("--")).unwrap();
        assert!(stderr.contains(typo), "{stderr}");
        assert!(stderr.contains("USAGE"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wing_and_ktips_on_fixture() {
    let dir = temp_dir("wing");
    let graph = write_fixture(&dir);
    let out = bin()
        .args(["wing", graph.to_str().unwrap(), "--partitions", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Butterfly edges have wing 1; pendant edge (2,0) has wing 0.
    assert!(stdout.contains("2\t0\t0"), "{stdout}");
    assert!(stdout.contains("0\t0\t1"), "{stdout}");

    let out = bin()
        .args(["ktips", graph.to_str().unwrap(), "-k", "1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 1-tip component"), "{stdout}");
    assert!(stdout.contains("0,1"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn parse_errors_exit_2_with_usage() {
    // Missing required input: exit 2, message plus full usage text.
    let out = bin().arg("tip").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("needs an input file"), "{stderr}");
    assert!(stderr.contains("USAGE"), "{stderr}");

    // Bad flag value: same contract.
    let out = bin()
        .args(["tip", "g.tsv", "--partitions", "many"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--partitions"), "{stderr}");
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn run_errors_exit_1_with_subcommand_context() {
    // Run errors (valid arguments, failing execution) exit 1, name the
    // failing subcommand so batch logs are attributable, and name the
    // offending file (the path travels inside `IoError::File`).
    let out = bin().args(["tip", "/no/such/file.tsv"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("failed to read /no/such/file.tsv"),
        "{stderr}"
    );
    assert!(stderr.contains("while running `tipdecomp tip`"), "{stderr}");

    let out = bin().args(["wing", "/no/such/file.tsv"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("while running `tipdecomp wing`"),
        "{stderr}"
    );

    let out = bin().args(["generate", "Zz"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown preset"), "{stderr}");
    assert!(
        stderr.contains("while running `tipdecomp generate`"),
        "{stderr}"
    );
}

#[test]
fn parse_error_in_graph_file_names_path_and_line() {
    let dir = temp_dir("badfile");
    let path = dir.join("broken.tsv");
    std::fs::write(&path, "0 0\nword salad\n").unwrap();
    let out = bin()
        .args(["count", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("broken.tsv"), "{stderr}");
    assert!(stderr.contains("parse error on line 2"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stream_pipeline_on_fixture() {
    let dir = temp_dir("stream");
    let graph = write_fixture(&dir);
    let ops = dir.join("ops.txt");
    // Batch 1: break the butterfly. Batch 2: rebuild it plus a second one.
    std::fs::write(
        &ops,
        "% stream fixture\n-0 1\n\n+0 1\n+2 1\n# u2 completes two butterflies\n",
    )
    .unwrap();
    let out = bin()
        .args([
            "stream",
            graph.to_str().unwrap(),
            ops.to_str().unwrap(),
            "--verify",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<&str> = stdout.lines().skip(1).collect();
    assert_eq!(rows.len(), 2, "{stdout}");
    // Batch 0 loses the single butterfly; batch 1 regains butterflies.
    assert!(rows[0].starts_with("0\t0\t1\t0\t0\t1\t0"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("all batches verified"), "{stderr}");

    // JSON form without --out streams NDJSON: one compact row per batch
    // (flushed as it completes, so the stream can be tailed) followed by
    // the full report document, and agrees with the text run.
    let out = bin()
        .args([
            "stream",
            graph.to_str().unwrap(),
            ops.to_str().unwrap(),
            "--json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "2 rows + final document: {stdout}");
    let row0: receipt::report::StreamBatchReport = serde_json::from_str(lines[0]).unwrap();
    assert_eq!(row0.butterflies_lost, 1);
    let report: receipt::report::StreamReport = serde_json::from_str(lines[2]).unwrap();
    assert_eq!(report.batches.len(), 2);
    assert_eq!(report.batches[0].butterflies_lost, 1);
    assert!(report.final_total_butterflies >= 2);
    assert_eq!(report.batches[0], row0, "row line matches the document");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn convert_round_trips_byte_identically() {
    let dir = temp_dir("convert");
    let graph = write_fixture(&dir);
    let canon = dir.join("canon.tsv");
    let bgr = dir.join("g.bgr");
    let bgr2 = dir.join("g2.bgr");
    let back = dir.join("back.tsv");

    // Canonicalize the hand-written fixture through the text writer, then
    // text -> binary -> text must reproduce it byte for byte.
    for args in [
        vec![
            "convert",
            graph.to_str().unwrap(),
            canon.to_str().unwrap(),
            "--to",
            "text",
        ],
        vec!["convert", canon.to_str().unwrap(), bgr.to_str().unwrap()],
        vec!["convert", bgr.to_str().unwrap(), back.to_str().unwrap()],
        vec!["convert", bgr.to_str().unwrap(), bgr2.to_str().unwrap()],
    ] {
        let out = bin().args(&args).output().unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(
        std::fs::read(&canon).unwrap(),
        std::fs::read(&back).unwrap(),
        "text -> binary -> text round trip"
    );
    assert_eq!(
        std::fs::read(&bgr).unwrap(),
        std::fs::read(&bgr2).unwrap(),
        "binary -> binary round trip"
    );

    // `--json` report carries the conversion facts.
    let out = bin()
        .args([
            "convert",
            canon.to_str().unwrap(),
            bgr.to_str().unwrap(),
            "--json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let report: receipt::report::ConvertReport =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(report.kind, "convert");
    assert_eq!(report.from, "text");
    assert_eq!(report.to, "binary");
    assert_eq!(report.num_edges, 5);
    assert_eq!(report.bytes_out, std::fs::metadata(&bgr).unwrap().len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn convert_rejects_corrupt_binary_with_pathful_error() {
    let dir = temp_dir("convert_bad");
    let bad = dir.join("bad.bgr");
    // Long enough to hold a full 56-byte header, but the magic is wrong.
    std::fs::write(&bad, [b"NOTABGR!".as_slice(), &[0u8; 64]].concat()).unwrap();
    let out = bin()
        .args([
            "convert",
            bad.to_str().unwrap(),
            dir.join("out.tsv").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad.bgr"), "{stderr}");
    assert!(stderr.contains("magic"), "{stderr}");
    assert!(
        stderr.contains("while running `tipdecomp convert`"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Two durable applies, then a clean shutdown; `recover` must replay both,
/// pass the oracle, and a second `serve --wal` must resume from the store.
#[test]
fn serve_wal_then_recover_end_to_end() {
    let dir = temp_dir("recover");
    let graph = write_fixture(&dir);
    let store = dir.join("store");
    let req = dir.join("req.txt");
    // +2 1 completes two extra butterflies; -0 0 breaks u0's pair.
    std::fs::write(
        &req,
        "{\"op\": \"apply\", \"ops\": [\"+2 1\"]}\n\
         {\"op\": \"apply\", \"ops\": [\"-0 0\"]}\n\
         {\"op\": \"shutdown\"}\n",
    )
    .unwrap();
    let out = bin()
        .args([
            "serve",
            graph.to_str().unwrap(),
            "--requests",
            req.to_str().unwrap(),
            "--wal",
            store.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("initialized store"),
        "fresh dir initializes"
    );

    let out = bin()
        .args(["recover", store.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: receipt::report::RecoverReport =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(report.kind, "recover");
    assert_eq!(report.checkpoint_lsn, 0);
    assert_eq!(report.wal_records, 2);
    assert_eq!(report.replayed, 2);
    assert_eq!(report.end_lsn, 2);
    assert!(!report.torn_tail_repaired);
    assert!(report.verified);
    // After +2 1 there are 3 butterflies; -0 0 leaves only (u1, u2).
    assert_eq!(report.total_butterflies, 1);
    assert_eq!(report.final_epoch, 2);

    // Reopening the store resumes at the recovered epoch: `stats` answers
    // from epoch 2 even though the graph file on the command line still
    // describes epoch 0.
    std::fs::write(&req, "{\"op\": \"stats\"}\n{\"op\": \"shutdown\"}\n").unwrap();
    let out = bin()
        .args([
            "serve",
            graph.to_str().unwrap(),
            "--requests",
            req.to_str().unwrap(),
            "--wal",
            store.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("recovered store"),
        "existing dir recovers"
    );
    let doc = String::from_utf8_lossy(&out.stdout);
    let value = serde_json::from_str_value(&doc).unwrap();
    let stats = &value["responses"].as_array().unwrap()[0]["stats"];
    assert_eq!(stats["epoch"].as_u64(), Some(2), "{doc}");
    assert_eq!(stats["total_butterflies"].as_u64(), Some(1), "{doc}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recover_without_store_exits_1() {
    let dir = temp_dir("recover_missing");
    let out = bin()
        .args(["recover", dir.join("nothing").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no store at"), "{stderr}");
    assert!(stderr.contains("nothing"), "{stderr}");
    assert!(
        stderr.contains("while running `tipdecomp recover`"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stream_errors_name_the_ops_file() {
    let dir = temp_dir("stream_err");
    let graph = write_fixture(&dir);
    let out = bin()
        .args(["stream", graph.to_str().unwrap(), "/no/such/ops.txt"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("failed to read /no/such/ops.txt"),
        "{stderr}"
    );
    assert!(
        stderr.contains("while running `tipdecomp stream`"),
        "{stderr}"
    );

    // Malformed op line: run error naming the file and line.
    let ops = dir.join("bad_ops.txt");
    std::fs::write(&ops, "+0 0\n0 1\n").unwrap();
    let out = bin()
        .args(["stream", graph.to_str().unwrap(), ops.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad_ops.txt"), "{stderr}");
    assert!(stderr.contains("parse error on line 2"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Spawns `tipdecomp serve` on the fixture graph, listening at `sock`.
fn spawn_socket_server(graph: &Path, sock: &Path) -> std::process::Child {
    bin()
        .args(["serve", graph.to_str().unwrap()])
        .args(["--socket", sock.to_str().unwrap()])
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap()
}

/// Connects to a socket server, waiting for it to bind; a server that
/// exits first fails the test.
fn connect(server: &mut std::process::Child, sock: &Path) -> std::os::unix::net::UnixStream {
    loop {
        if let Ok(stream) = std::os::unix::net::UnixStream::connect(sock) {
            let timeout = Some(std::time::Duration::from_secs(30));
            stream.set_read_timeout(timeout).unwrap();
            return stream;
        }
        let exited = server.try_wait().unwrap();
        assert!(exited.is_none(), "server exited early: {exited:?}");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// Sends one framed request and reads its framed response.
fn ask(
    stream: &std::os::unix::net::UnixStream,
    reader: &mut dyn std::io::BufRead,
    req: &str,
) -> receipt::report::ServeResponse {
    receipt_cli::write_frame(&mut &*stream, req).unwrap();
    let frame = receipt_cli::read_frame(reader).unwrap();
    serde_json::from_str(&frame.expect("a response frame")).unwrap()
}

/// One client's framing mistake ends only its own connection: the socket
/// server keeps serving the next client through to `shutdown`.
#[test]
fn serve_socket_survives_an_unframed_client() {
    use std::io::{Read, Write};
    let dir = temp_dir("socket");
    let (graph, sock) = (write_fixture(&dir), dir.join("serve.sock"));
    let mut server = spawn_socket_server(&graph, &sock);

    // Client 1 forgets the length prefix; its bad header mentions `apply`.
    let mut c1 = connect(&mut server, &sock);
    c1.write_all(b"{\"op\": \"apply\", \"ops\": [\"+2 1\"]}\n")
        .unwrap();
    let mut rest = Vec::new();
    c1.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "an unframed request gets no response");

    let c2 = connect(&mut server, &sock);
    let mut reader = std::io::BufReader::new(c2.try_clone().unwrap());
    assert_eq!(ask(&c2, &mut reader, r#"{"op": "epoch"}"#).value, Some(0));
    let applied = ask(&c2, &mut reader, r#"{"op": "apply", "ops": ["+2 1"]}"#);
    assert!(applied.ok && applied.epoch == 1, "{applied:?}");
    assert!(ask(&c2, &mut reader, r#"{"op": "shutdown"}"#).ok);
    let status = server.wait().unwrap();
    assert!(status.success(), "{status}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A frame header claiming a huge payload must not size an allocation:
/// the client that sent it and hung up loses only its own connection.
#[test]
fn serve_socket_survives_a_huge_frame_header() {
    use std::io::Write;
    let dir = temp_dir("socket_huge_header");
    let (graph, sock) = (write_fixture(&dir), dir.join("serve.sock"));
    let mut server = spawn_socket_server(&graph, &sock);

    let mut c1 = connect(&mut server, &sock);
    c1.write_all(b"99999999999999\n").unwrap();
    drop(c1);

    let c2 = connect(&mut server, &sock);
    let mut reader = std::io::BufReader::new(c2.try_clone().unwrap());
    assert_eq!(ask(&c2, &mut reader, r#"{"op": "epoch"}"#).value, Some(0));
    assert!(ask(&c2, &mut reader, r#"{"op": "shutdown"}"#).ok);
    let status = server.wait().unwrap();
    assert!(status.success(), "{status}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--socket PATH` clears only a stale socket: a regular file at PATH
/// fails the run (exit 1, naming the path) and keeps its bytes.
#[test]
fn serve_socket_refuses_to_replace_a_regular_file() {
    let dir = temp_dir("socket_regular_file");
    let (graph, keep) = (write_fixture(&dir), dir.join("keep.txt"));
    // A failed earlier run may have left a socket here.
    std::fs::remove_file(&keep).ok();
    std::fs::write(&keep, "precious").unwrap();
    let mut server = bin()
        .args(["serve", graph.to_str().unwrap()])
        .args(["--socket", keep.to_str().unwrap()])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let status = loop {
        if let Some(status) = server.try_wait().unwrap() {
            break status;
        }
        if std::time::Instant::now() > deadline {
            server.kill().ok();
            server.wait().ok();
            panic!("server kept running with a regular file at its socket path");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut server.stderr.take().unwrap(), &mut stderr).unwrap();
    assert_eq!(status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(keep.to_str().unwrap()), "{stderr}");
    assert_eq!(std::fs::read(&keep).unwrap(), b"precious");
    std::fs::remove_dir_all(&dir).ok();
}
