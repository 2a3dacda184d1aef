//! Serve mode: length-prefixed JSON frames over stdin/stdout or a Unix
//! socket, or a scripted newline-delimited session (`--requests`). All ids
//! on the wire share the graph file's id base, exactly like stream ops.
//!
//! Every byte here may come from an untrusted socket client, so the
//! module is fail-closed: a malformed frame or request becomes an error
//! value (a dropped connection or an `ok: false` response), never a panic.

use bigraph::Side;
use receipt::engine::StreamEngine;
use receipt::report::{ServeResponse, ServeStats, TopKEntry};
use std::io::{BufRead, Read, Write};

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

/// Reads the optional `side` field (default U). A present non-null value
/// that is not the string U or V (any case) is an error, never a default.
fn req_side(value: &serde_json::Value) -> Result<Side, String> {
    let Some(entry) = value.get("side").filter(|e| !e.is_null()) else {
        return Ok(Side::U);
    };
    match entry.as_str() {
        Some(s) if s.eq_ignore_ascii_case("U") => Ok(Side::U),
        Some(s) if s.eq_ignore_ascii_case("V") => Ok(Side::V),
        _ => Err(format!("side must be U or V, got {entry}")),
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
    // Every op validates `side`, so a malformed one never falls back to U.
    let side = match req_side(&value) {
        Ok(s) => s,
        Err(e) => return fail(&op, e),
    };

    let has_vertex = value.get("vertex").is_some_and(|v| !v.is_null());
    let mut response = ServeResponse::new(seq, &op, epoch);
    match op.as_str() {
        "tip" | "butterflies" if has_vertex || op == "tip" => {
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
            let k = value.get("k").filter(|e| !e.is_null());
            let k = match k.map(|e| e.as_u64().ok_or(e)) {
                None => 10,
                Some(Ok(k)) => k as usize,
                Some(Err(e)) => {
                    return fail(&op, format!("k must be a non-negative integer, got {e}"))
                }
            };
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
            let batch = match crate::rebase_ops(vec![batch], one_based, "apply request") {
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
                side,
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

/// Serves the framed protocol on a Unix socket at `path`: one connection
/// at a time, accepting until a client sends `shutdown`. A misbehaving
/// or vanishing client ends only its own connection; a verify divergence
/// stops the server. The socket file is removed on the way out.
pub fn serve_socket(engine: &StreamEngine, one_based: bool, path: &str) -> Result<(), String> {
    use std::os::unix::fs::FileTypeExt;
    use std::os::unix::net::UnixListener;
    // Clear only a stale socket; anything else at the path makes `bind`
    // fail and is left untouched.
    if std::fs::symlink_metadata(path).is_ok_and(|m| m.file_type().is_socket()) {
        let _ = std::fs::remove_file(path);
    }
    let listener = UnixListener::bind(path).map_err(|e| format!("cannot bind {path}: {e}"))?;
    eprintln!("serving on {path} (epoch {})", engine.epoch());
    let result = loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) => break Err(format!("accept failed: {e}")),
        };
        let session = match stream.try_clone() {
            Ok(read_half) => serve_framed(
                engine,
                one_based,
                &mut std::io::BufReader::new(read_half),
                &mut &stream,
            ),
            Err(e) => Err(SessionError::Connection(e.to_string())),
        };
        match session {
            Ok(true) => break Ok(()),
            Ok(false) => continue,
            Err(SessionError::Diverged(e)) => break Err(e),
            Err(SessionError::Connection(e)) => eprintln!("session error: {e}"),
        }
    };
    let _ = std::fs::remove_file(path);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use receipt::engine::EngineOptions;

    /// A present `k` or `side` of the wrong type answers `ok: false` and
    /// names the field; it never falls back to the default, and a
    /// rejected `apply` publishes nothing.
    #[test]
    fn malformed_k_and_side_are_rejected_not_defaulted() {
        // One butterfly (u0, u1 × v0, v1) plus the pendant edge (2, 0).
        let edges = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)];
        let g = bigraph::builder::from_edges(3, 2, &edges).unwrap();
        let engine = StreamEngine::new(g, EngineOptions::default());
        let script = r#"
            {"op": "topk", "k": "2"}
            {"op": "topk", "k": -1}
            {"op": "topk", "k": 1.5}
            {"op": "topk", "side": 5}
            {"op": "tip", "vertex": 0, "side": 5}
            {"op": "butterflies", "vertex": 0, "side": ["U"]}
            {"op": "apply", "ops": ["+2 1"], "side": 5}
            {"op": "topk", "k": 2, "side": null}
            {"op": "tip", "vertex": 0, "side": "v"}
        "#;
        let responses = run_scripted_session(&engine, false, script).unwrap();
        let (bad, good) = responses.split_at(7);
        for (r, field) in bad
            .iter()
            .zip(["k", "k", "k", "side", "side", "side", "side"])
        {
            let error = r.error.as_deref().unwrap_or_default();
            assert!(!r.ok && error.starts_with(field), "{r:?}");
        }
        assert!(good.iter().all(|r| r.ok), "{good:?}");
        assert_eq!(good[0].topk.as_ref().map(Vec::len), Some(2));
        assert_eq!(good[1].value, Some(1), "v0 sits in the one butterfly");
        assert_eq!(engine.epoch(), 0, "the rejected apply published nothing");
    }
}
