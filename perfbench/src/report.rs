//! The metric catalogue and the report a run prints.

use std::fmt::Write as _;

/// End-to-end metrics: every workload reports each of them, with tracing
/// off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_tps", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: every workload reports each of them from its traced
/// run, 0 where the workload does not reach the layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.next_program_ns", "ns"),
    ("core.session.submit_ns", "ns"),
    ("core.session.full_per_txn", "ratio"),
    ("core.handle.drain_ns", "ns"),
    ("core.handle.drain_batch", "count"),
    ("core.engine_p50_us", "us"),
    ("core.engine_p99_us", "us"),
    ("core.admit.switches", "count"),
    ("core.admit.lock_waits_per_txn", "ratio"),
    ("core.fabric.msgs_per_txn", "ratio"),
    ("core.exec.locking_pct", "%"),
    ("core.exec.waiting_pct", "%"),
    ("durability.logged_tps", "1/s"),
    ("durability.log_bytes_per_txn", "B"),
    ("durability.txns_per_record", "ratio"),
    ("durability.replay_ns_per_txn", "ns"),
    ("durability.replay_bytes_per_txn", "B"),
    ("recover_tps", "1/s"),
    ("net.client.send_ns", "ns"),
    ("net.client.poll_ns", "ns"),
    ("net.client.poll_empty_frac", "ratio"),
    ("net.server.txns_per_read", "ratio"),
    ("net.server.completions_per_frame", "ratio"),
    ("net.server.write_calls_per_txn", "ratio"),
    ("net.wire_share", "ratio"),
    ("core.hub.orphaned", "count"),
    ("core.hub.unowned", "count"),
    ("part.cross_frac", "ratio"),
    ("part.submit_ns", "ns"),
    ("part.drain_ns", "ns"),
    ("part.partition_skew", "ratio"),
    ("os.engine.cpu_frac", "ratio"),
    ("os.engine.runq_wait_frac", "ratio"),
    ("os.net.cpu_frac", "ratio"),
    ("os.net.runq_wait_frac", "ratio"),
    ("os.partseq.cpu_frac", "ratio"),
    ("os.client.cpu_frac", "ratio"),
    ("os.client.runq_wait_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
];

/// Metrics only the open-loop workload measures. That workload is too
/// unsteady for the result line's workload set, so they appear in the
/// text output only.
pub const OPEN_LOOP: &[(&str, &str)] = &[("slo_miss_frac", "ratio"), ("client.late_p99_us", "us")];

/// Printed in the text output of every run, traced or not, next to the
/// catalogue's metrics: the end-to-end figures that not every workload
/// has.
const TEXT_EXTRAS: &[&str] = &[
    "recover_tps",
    "failed_frac",
    "slo_miss_frac",
    "client.late_p99_us",
];

/// One correctness check; a failed one fails the run.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Metric name → value; units come from the catalogue.
    pub values: Vec<(&'static str, f64)>,
    /// Free-form lines for the human-readable part of the output.
    pub notes: Vec<String>,
    /// The traced run's spans, written out once the run is over.
    pub spans: Option<crate::trace::Tracer>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The human-readable lines: notes, checks, then the catalogue's
    /// metrics (`catalogue` selects end-to-end or per-layer).
    pub fn human(&self, catalogue: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            let _ = writeln!(out, "check {:<30} {verdict:<6} {}", c.name, c.detail);
        }
        for (name, unit) in catalogue {
            let _ = writeln!(out, "metric {name:<34} {:>16.4} {unit}", self.get(name));
        }
        for name in TEXT_EXTRAS {
            let set = self.values.iter().any(|(n, _)| n == name);
            if set && !catalogue.iter().any(|(n, _)| n == name) {
                let unit = unit_of(name).expect("extras are catalogued");
                let _ = writeln!(out, "metric {name:<34} {:>16.4} {unit}", self.get(name));
            }
        }
        out
    }

    /// The result line: one JSON object with exactly the catalogue's
    /// metrics.
    pub fn json(&self, catalogue: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let v = self.get(name);
            // JSON has no NaN or infinity; a non-finite value is a
            // division the workload should have guarded.
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(OPEN_LOOP)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_every_catalogue_metric_once() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("p50_us", 12.5);
        r.check("tickets_exactly_once", true, "3 of 3");
        let line = r.json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            let key = format!("\"{name}\": {{\"value\": ");
            assert_eq!(line.matches(&key).count(), 1, "{name} in {line}");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(line.contains("\"p50_us\": {\"value\": 12.5, \"unit\": \"us\"}"));
    }

    #[test]
    fn a_failed_check_fails_the_report() {
        let mut r = Report::default();
        r.check("a", true, "");
        r.check("b", false, "lost 1");
        assert!(!r.correct());
        assert!(r.json(PER_LAYER).starts_with("{\"correct\": false"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let field = |entry: &str, key: &str| {
            let rest = entry.split(&format!("\"{key}\": \"")).nth(1)?;
            rest.split('"').next().map(str::to_string)
        };
        let mut workloads = Vec::new();
        let mut metrics = Vec::new();
        for entry in json.split("{\"name\": ").skip(1) {
            let entry = format!("\"name\": {entry}");
            let name = field(&entry, "name").expect("every entry is named");
            match field(&entry, "unit") {
                Some(unit) => metrics.push((name, unit)),
                None => workloads.push(name),
            }
        }
        for w in &workloads {
            assert!(crate::workloads::WORKLOADS.contains(&w.as_str()), "{w}");
        }
        let want: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(metrics, want);
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .chain(OPEN_LOOP)
            .map(|m| m.0)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
