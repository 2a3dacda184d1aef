//! What one run reports: metrics by name and unit, operation counts,
//! failed gates, and free-form notes for the results file.

use crate::stats::{median, tail_or_max};
use serde_json::{Map, Value};

/// The end-to-end metrics every untraced run prints, with their units,
/// as `BENCHMARK.json` declares them. Every workload reports all four:
/// the workload decides what its unit of work and its requests are.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("work_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units, as
/// `BENCHMARK.json` declares them. A layer the workload's path never
/// calls did no work there and reads 0 (see [`Report::complete`]).
pub const PER_LAYER: [(&str, &str); 60] = [
    ("butterfly.par_count_ms", "ms"),
    ("cd.coarse_decompose_ms_u", "ms"),
    ("cd.coarse_decompose_ms_v", "ms"),
    ("fd.fine_decompose_ms_u", "ms"),
    ("fd.fine_decompose_ms_v", "ms"),
    ("cd.wedges", "count"),
    ("cd.sync_rounds", "count"),
    ("cd.recounts", "count"),
    ("cd.compactions", "count"),
    ("fd.wedges", "count"),
    ("count.wedges", "count"),
    ("rayon.jobs", "count"),
    ("rayon.steals", "count"),
    ("rayon.steal_success_frac", "frac"),
    ("decompose.self_ms", "ms"),
    ("bigraph.classify_ms", "ms"),
    ("wal.append_ms", "ms"),
    ("wal.bytes_per_batch", "bytes"),
    ("wal.checkpoint_ms", "ms"),
    ("wal.checkpoints", "count"),
    ("index.apply_batch_ms", "ms"),
    ("index.update_work", "count"),
    ("index.butterflies_changed", "count"),
    ("tip.update_ms_u", "ms"),
    ("tip.update_ms_v", "ms"),
    ("tip.peel_wedges_u", "count"),
    ("tip.peel_wedges_v", "count"),
    ("tip.dirty_frac_u", "frac"),
    ("tip.dirty_frac_v", "frac"),
    ("tip.policy_unchanged", "count"),
    ("tip.policy_seeded", "count"),
    ("tip.policy_full", "count"),
    ("index.materialize_ms", "ms"),
    ("engine.apply_batch_ms", "ms"),
    ("engine.other_ms", "ms"),
    ("tip.update_share", "frac"),
    ("batch.self_ms", "ms"),
    ("serve.rtt_us.tip", "us"),
    ("serve.rtt_us.bfly_vertex", "us"),
    ("serve.rtt_us.bfly_edge", "us"),
    ("serve.rtt_us.stats", "us"),
    ("serve.rtt_us.topk", "us"),
    ("serve.handle_us.tip", "us"),
    ("serve.handle_us.bfly_vertex", "us"),
    ("serve.handle_us.bfly_edge", "us"),
    ("serve.handle_us.stats", "us"),
    ("serve.handle_us.topk", "us"),
    ("snapshot.query_us.tip", "us"),
    ("snapshot.query_us.bfly_vertex", "us"),
    ("snapshot.query_us.bfly_edge", "us"),
    ("snapshot.query_us.stats", "us"),
    ("snapshot.query_us.topk", "us"),
    ("serve.encode_us", "us"),
    ("snapshot.grab_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.hol_blocked_frac", "frac"),
    ("bench.gen_late_ms", "ms"),
    ("trace.traced_total_ms", "ms"),
    ("trace.untraced_total_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (decompositions, batches, requests).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Correctness gates that did not hold. Any entry fails the run.
    pub gate_failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Map,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, key: &str, value: impl Into<Value>) {
        self.notes.insert(key, value.into());
    }

    /// Records a gate; a failing gate counts as one failed operation.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
            self.failed += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty() && self.failed == 0
    }

    pub fn metrics(&self) -> &[(String, f64, &'static str)] {
        &self.metrics
    }

    pub fn notes(&self) -> &Map {
        &self.notes
    }

    /// `work_p50_ms`, the median of `work_ms`, the workload's units of
    /// work; and `latency_tail_ms`, the tail of `latency_ms`, every
    /// request its client waited on, with the tail's percentile and
    /// sample counts as notes.
    pub fn work_and_latency(&mut self, work_ms: &[f64], latency_ms: &[f64]) {
        if let Some(p50) = median(work_ms) {
            self.metric("work_p50_ms", p50, "ms");
        }
        self.note("work_samples", work_ms.len() as u64);
        if let Some(t) = tail_or_max(latency_ms) {
            self.metric("latency_tail_ms", t.value, "ms");
            self.note("latency_tail_percentile", t.percentile);
            self.note("latency_tail_samples", t.samples as u64);
            self.note("latency_tail_beyond", t.beyond as u64);
        }
    }

    /// Checks the reported metrics against `declared`: each one is
    /// declared, with its unit, and reported once. Every declared metric
    /// must be there, except that with `zero_missing` the absent ones are
    /// reported as 0 and listed in the `not_measured` note: per-layer
    /// metrics of layers the workload's path does not call, or of work a
    /// run was too short to reach (a checkpoint fold). Runs
    /// that failed a gate print no metrics, so they are not checked.
    pub fn complete(
        &mut self,
        declared: &[(&str, &'static str)],
        zero_missing: bool,
    ) -> Result<(), String> {
        if !self.correct() {
            return Ok(());
        }
        for (i, (name, _, unit)) in self.metrics.iter().enumerate() {
            match declared.iter().find(|(n, _)| n == name) {
                None => return Err(format!("metric {name} is not declared")),
                Some((_, u)) if u != unit => {
                    return Err(format!("metric {name} is in {unit}, declared in {u}"))
                }
                Some(_) => {}
            }
            if self.metrics[..i].iter().any(|(n, _, _)| n == name) {
                return Err(format!("metric {name} is reported twice"));
            }
        }
        let mut absent = Vec::new();
        for &(name, unit) in declared {
            if self.metrics.iter().any(|(n, _, _)| n == name) {
                continue;
            }
            if !zero_missing {
                return Err(format!("the workload did not measure {name}"));
            }
            self.metric(name, 0.0, unit);
            absent.push(Value::from(name));
        }
        if zero_missing {
            self.note("not_measured", Value::Array(absent));
        }
        Ok(())
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    /// A run that failed a gate yields no numbers.
    pub fn result_line(&self) -> String {
        let mut metrics = Map::new();
        if self.correct() {
            for (name, value, unit) in &self.metrics {
                let mut m = Map::new();
                m.insert("value", Value::from(*value));
                m.insert("unit", Value::from(*unit));
                metrics.insert(name.clone(), Value::Object(m));
            }
        }
        let mut out = Map::new();
        out.insert("correct", Value::from(self.correct()));
        out.insert("attempted", Value::from(self.attempted.max(1)));
        out.insert("failed", Value::from(self.failed));
        out.insert("metrics", Value::Object(metrics));
        serde_json::to_string(&Value::Object(out)).expect("a JSON tree always serializes")
    }
}

/// Peak resident set (VmHWM) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_checks_names_units_and_fills_layers_off_the_path() {
        let declared = [("a_ms", "ms"), ("b", "count")];
        let mut strict = Report::default();
        strict.metric("a_ms", 1.5, "ms");
        assert!(strict.complete(&declared, false).is_err());
        let mut r = Report::default();
        r.metric("a_ms", 1.5, "ms");
        r.complete(&declared, true).unwrap();
        assert_eq!(
            r.metrics(),
            &[
                ("a_ms".to_string(), 1.5, "ms"),
                ("b".to_string(), 0.0, "count")
            ]
        );
        assert_eq!(
            r.notes().get("not_measured"),
            Some(&Value::Array(vec!["b".into()]))
        );

        let mut wrong_unit = Report::default();
        wrong_unit.metric("a_ms", 1.5, "s");
        assert!(wrong_unit.complete(&declared, true).is_err());
        let mut undeclared = Report::default();
        undeclared.metric("c", 1.0, "ms");
        assert!(undeclared.complete(&declared, true).is_err());
        let mut twice = Report::default();
        twice.metric("b", 1.0, "count");
        twice.metric("b", 2.0, "count");
        assert!(twice.complete(&declared, true).is_err());
    }

    #[test]
    fn failed_gate_yields_no_numbers() {
        let mut r = Report {
            attempted: 3,
            ..Default::default()
        };
        r.metric("setup_s", 0.5, "s");
        assert!(r.result_line().contains("\"setup_s\""));
        r.gate(false, || "tips diverged".into());
        let line = r.result_line();
        assert!(line.contains("\"correct\":false"));
        assert!(line.contains("\"failed\":1"));
        assert!(line.contains("\"metrics\":{}"));
    }
}
