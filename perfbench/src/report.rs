//! Metric names and units (the same lists `BENCHMARK.json` declares), the
//! human-readable report, and the one-line JSON result.

use std::fmt::Write as _;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_mbps", "MiB/s"),
    ("cpu_ms_per_mb", "ms/MiB"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by traced runs. A layer a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("reactor.wakeups_per_mb", "1/MiB"),
    ("reactor.events_per_wakeup", "ratio"),
    ("reactor.partial_writes_per_mb", "1/MiB"),
    ("proto.decode_us_per_mb", "us/MiB"),
    ("proto.encode_ns_per_match", "ns"),
    ("service.handoff_p50_us", "us"),
    ("service.queue_depth_max", "count"),
    ("service.stalls", "count"),
    ("stream.push_us_per_mb", "us/MiB"),
    ("stream.push_p99_us", "us"),
    ("stream.rss_growth_kb_per_kchunk", "KiB"),
    ("prefilter.active", "bool"),
    ("prefilter.candidates_per_mb", "1/MiB"),
    ("prefilter.windows_per_mb", "1/MiB"),
    ("prefilter.verified_frac", "fraction"),
    ("prefilter.bailouts", "count"),
    ("static1d.find_us_per_mb", "us/MiB"),
    ("static1d.lookups_per_sym", "ratio"),
    ("static1d.alloc_events", "count"),
    ("dict.build_ms", "ms"),
    ("dict.snapshot_load_ms", "ms"),
    ("dict.first_commit_ms", "ms"),
    ("dict.commit_ms.incremental", "ms"),
    ("dict.commit_ms.full", "ms"),
    ("dict.find_us_per_mb.incremental", "us/MiB"),
    ("dict.find_us_per_mb.static", "us/MiB"),
    ("dict.adopt_lag_ms", "ms"),
    ("dict.incremental_commits", "count"),
    ("dict.full_rebuilds", "count"),
    ("dict.epoch_adoptions", "count"),
    ("dict.boot_cold", "bool"),
    ("index.sa_ms", "ms"),
    ("index.lcp_ms", "ms"),
    ("index.query_us_per_pattern", "us"),
    ("pram.text_rounds_per_call", "rounds"),
    ("pram.text_work_per_sym", "ops"),
    ("pram.dict_build_work", "ops"),
    ("gen.late_p99_ms", "ms"),
    ("gen.commit_p90_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// One measured value with how many samples stand behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    /// E.g. the tail percentile the sample supports.
    pub note: String,
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The run record: host, revision, server shape, decisions.
    pub record: Vec<(String, String)>,
    /// The gated end-to-end metrics (or, traced, the per-layer ones).
    pub metrics: Vec<Metric>,
    /// Workload-specific end-to-end detail (named as the workload knows
    /// them), printed but not part of the JSON result.
    pub detail: Vec<Metric>,
}

impl Report {
    pub fn record(&mut self, k: &str, v: impl ToString) {
        self.record.push((k.to_string(), v.to_string()));
    }

    /// Add a gated metric; its unit comes from the declared lists.
    pub fn metric(
        &mut self,
        name: &'static str,
        value: f64,
        samples: usize,
        note: impl Into<String>,
    ) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
            note: note.into(),
        });
    }

    pub fn detail(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: impl Into<String>,
    ) {
        self.detail.push(Metric {
            name,
            value,
            unit,
            samples,
            note: note.into(),
        });
    }

    /// The human-readable lines (each starts with `# `).
    pub fn human(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.record {
            let _ = writeln!(s, "# {k}: {v}");
        }
        let line = |s: &mut String, m: &Metric| {
            let _ = writeln!(
                s,
                "# {:<34} {:>14.4} {:<8} n={:<7} {}",
                m.name, m.value, m.unit, m.samples, m.note
            );
        };
        for m in &self.metrics {
            line(&mut s, m);
        }
        for m in &self.detail {
            line(&mut s, m);
        }
        let _ = writeln!(
            s,
            "# failed_op_ratio {:.6} ({} of {} ops)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        s
    }

    /// The result line: exactly the declared metrics of the mode, in
    /// declared order. Per-layer metrics a workload never measured are 0.
    pub fn json(&self, traced: bool) -> String {
        let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut body = Vec::new();
        for &(name, unit) in names {
            let v = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value);
            let v = match v {
                Some(v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            body.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (which JSON cannot carry) become a large sentinel.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "1e300".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The declared lists must match `BENCHMARK.json` at the repository
    /// root name for name and unit.
    #[test]
    fn lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = |key: &str| -> Vec<(String, String)> {
            let from = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[from..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|item| {
                    let field = |f: &str| {
                        let at = item.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
                        let rest = &item[at..];
                        let q = rest.find('"').expect("open quote") + 1;
                        let e = rest[q..].find('"').expect("close quote");
                        rest[q..q + e].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), owned(&END_TO_END));
        assert_eq!(section("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn json_carries_every_declared_metric() {
        let mut r = Report {
            attempted: 10,
            failed: 0,
            ..Report::default()
        };
        for (i, &(n, _)) in END_TO_END.iter().enumerate() {
            r.metric(n, 1.5 + i as f64, 3, "");
        }
        let j = r.json(false);
        assert!(j.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for (n, u) in END_TO_END {
            assert!(j.contains(&format!("\"{n}\": {{\"value\": ")));
            assert!(j.contains(&format!("\"unit\": \"{u}\"")));
        }
        let t = r.json(true);
        assert_eq!(t.matches("\"value\"").count(), PER_LAYER.len());
    }
}
