//! Every workload end to end on tiny inputs, untraced and traced: the
//! run must pass its correctness gates and print the metrics it promises.

use std::process::Command;

fn run(workload: &str, trace: &str) -> serde_json::Value {
    let out_dir =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&out_dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
            "--out-dir",
        ])
        .arg(&out_dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result: serde_json::Value =
        serde_json::from_str_value(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(result["correct"].as_bool(), Some(true), "{stdout}");
    assert_eq!(result["failed"].as_u64(), Some(0), "{stdout}");
    assert!(result["attempted"].as_u64().unwrap() >= 1);
    assert_declared(
        &result,
        if trace == "0" {
            "end_to_end"
        } else {
            "per_layer"
        },
    );
    result
}

/// A run prints exactly the metrics of the matching list of the
/// repository's `BENCHMARK.json`: every one declared there, each with its
/// declared unit, and no other.
fn assert_declared(result: &serde_json::Value, list: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = serde_json::from_str_value(&std::fs::read_to_string(path).unwrap()).unwrap();
    let declared = spec[list].as_array().unwrap();
    let metrics = result["metrics"].as_object().unwrap();
    for entry in declared {
        let name = entry["name"].as_str().unwrap();
        let metric = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{list} metric {name} is missing: {result}"));
        assert_eq!(entry["unit"], metric["unit"], "{name}");
        assert!(metric["value"].as_f64().is_some(), "{name}: {metric}");
    }
    for (name, _) in metrics.iter() {
        assert!(
            declared
                .iter()
                .any(|d| d["name"].as_str() == Some(name.as_str())),
            "{name} is not declared in BENCHMARK.json {list}"
        );
    }
}

/// `names` were measured, not filled in for a layer off the path.
fn assert_positive(result: &serde_json::Value, names: &[&str]) {
    let metrics = result["metrics"].as_object().unwrap();
    for name in names {
        let value = metrics.get(name).unwrap()["value"].as_f64().unwrap();
        assert!(value > 0.0, "{name} = {value}: {result}");
    }
}

const END_TO_END: [&str; 4] = ["setup_s", "work_p50_ms", "latency_tail_ms", "peak_rss_mb"];

#[test]
fn static_tr_smoke() {
    assert_positive(&run("static_tr", "0"), &END_TO_END);
    assert_positive(
        &run("static_tr", "1"),
        &[
            "butterfly.par_count_ms",
            "cd.coarse_decompose_ms_u",
            "fd.fine_decompose_ms_v",
            "count.wedges",
            "rayon.jobs",
            "trace.traced_total_ms",
        ],
    );
}

#[test]
fn stream_small_smoke() {
    assert_positive(&run("stream_small", "0"), &END_TO_END);
    assert_positive(
        &run("stream_small", "1"),
        &[
            "bigraph.classify_ms",
            "wal.append_ms",
            "index.apply_batch_ms",
            "tip.update_ms_u",
            "tip.update_ms_v",
            "index.materialize_ms",
            "tip.update_share",
            "cd.coarse_decompose_ms_u",
            "trace.traced_total_ms",
        ],
    );
}

#[test]
fn serve_mixed_smoke() {
    assert_positive(&run("serve_mixed", "0"), &END_TO_END);
    assert_positive(
        &run("serve_mixed", "1"),
        &[
            "serve.rtt_us.topk",
            "serve.handle_us.stats",
            "snapshot.query_us.tip",
            "serve.encode_us",
            "snapshot.grab_us",
            "wal.append_ms",
            "fd.fine_decompose_ms_u",
        ],
    );
}
