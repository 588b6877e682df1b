//! Metric names and units, the result line the driver reads, and the
//! `--agree` comparison of two recorded result sets.

use crate::harness::{ctx, Result};
use crate::stats;
use serde::de::Content;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Every end-to-end metric, with its unit, in report order. Each is
/// measured on every workload with tracing off. `BENCHMARK.json` lists the
/// same names with their bounds; a test holds the two together.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cold_open_s", "s"),
    ("ingest_runs_per_s", "1/s"),
    ("ingest_ack_p50_ms", "ms"),
    ("ingest_ack_p95_ms", "ms"),
    ("query_per_s", "1/s"),
    ("query_point_p50_ms", "ms"),
    ("query_point_p95_ms", "ms"),
    ("query_join_p50_ms", "ms"),
    ("wal_bytes_per_run", "B"),
];

/// Every per-layer metric, from the traced run. The prefix is the crate.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("protocol.request_encode_us", "us"),
    ("protocol.request_decode_us", "us"),
    ("protocol.response_encode_us", "us"),
    ("protocol.response_decode_us", "us"),
    ("protocol.request_bytes", "B"),
    ("protocol.response_bytes", "B"),
    ("client.ping_roundtrip_us", "us"),
    ("client.ack_p99_ms", "ms"),
    ("client.query_p95_ms", "ms"),
    ("client.query_p99_ms", "ms"),
    ("client.query_agg_p50_ms", "ms"),
    ("server.residual_us", "us"),
    ("server.coalesce_batch_mean", "count"),
    ("server.busy_total", "count"),
    ("server.requests_total", "count"),
    ("store.apply_runs_us", "us"),
    ("store.apply_metrics_us", "us"),
    ("store.scan_indexed_us", "us"),
    ("store.scan_full_us", "us"),
    ("store.scan_grouped_us", "us"),
    ("store.shard_contention_total", "count"),
    ("store.index_bytes", "B"),
    ("metrics.plane_observe_us", "us"),
    ("metrics.plane_rolls", "count"),
    ("wal.log_runs_us", "us"),
    ("wal.encode_us", "us"),
    ("wal.sync_us", "us"),
    ("wal.fsyncs_total", "count"),
    ("wal.bytes_written_total", "B"),
    ("wal.group_commit_mean", "count"),
    ("wal.checkpoints_total", "count"),
    ("wal.checkpoint_s", "s"),
    ("wal.snapshot_bytes", "B"),
    ("wal.replay_events_total", "count"),
    ("wal.open_serial_s", "s"),
    ("wal.full_replay_s", "s"),
    ("query.parse_us", "us"),
    ("query.bind_us", "us"),
    ("query.explain_us", "us"),
    ("query.execute_point_us", "us"),
    ("query.execute_agg_us", "us"),
    ("query.execute_join_us", "us"),
    ("query.naive_agg_us", "us"),
    ("query.rows_scanned_per_returned", "ratio"),
    ("query.index_hit_ratio", "ratio"),
    ("core.run_wrapped_us", "us"),
    ("core.run_bare_us", "us"),
    ("core.trace_us", "us"),
    ("core.graph_build_ms", "ms"),
    ("core.diagnose_ms", "ms"),
    ("provenance.trace_us", "us"),
    ("telemetry.span_ns", "ns"),
    ("telemetry.counter_ns", "ns"),
    ("bench.layer_sum_ratio", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Measured values by metric name, with the sample count behind each
/// where there is one.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, Option<usize>)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, None));
    }

    pub fn set_sampled(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, Some(samples)));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }
}

/// What one run found.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Print every metric of `list` by name with its unit, then return the
/// result object. A metric that is missing or not a finite number is an
/// error: the driver must never read a hole as a measurement.
pub fn render(list: &[(&'static str, &'static str)], outcome: &Outcome) -> Result<String> {
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, (name, unit)) in list.iter().enumerate() {
        let Some(&(value, samples)) = outcome.metrics.values.get(name) else {
            return Err(format!("metric {name} was not measured"));
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        match samples {
            Some(n) => println!("{name:<34} {value:>16.4} {unit:<6} n={n}"),
            None => println!("{name:<34} {value:>16.4} {unit}"),
        }
        let separator = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{separator}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String");
    }
    json.push_str("}}");
    Ok(json)
}

/// Append one line to a result-set file: which run it was, then the
/// result object.
pub fn record(path: &Path, workload: &str, seed: u64, trace: bool, result: &str) -> Result<()> {
    use std::io::Write;
    let line = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"result\": {result}}}\n",
        u8::from(trace)
    );
    let mut file = ctx(
        "open result set",
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path),
    )?;
    ctx("append result", file.write_all(line.as_bytes()))
}

fn field<'a, 'de>(map: &'a Content<'de>, key: &str) -> Option<&'a Content<'de>> {
    match map {
        Content::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(c: &Content<'_>) -> Option<f64> {
    match c {
        Content::F64(v) => Some(*v),
        Content::U64(v) => Some(*v as f64),
        Content::I64(v) => Some(*v as f64),
        _ => None,
    }
}

fn text<'a>(c: &'a Content<'_>) -> Option<&'a str> {
    match c {
        Content::Str(s) => Some(s),
        _ => None,
    }
}

/// Values per (workload, metric) in a result-set file, and how many
/// operations failed in it.
struct ResultSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    failed: u64,
}

fn read_result_set(path: &Path) -> Result<ResultSet> {
    let lines = ctx("read result set", std::fs::read_to_string(path))?;
    let mut set = ResultSet {
        values: BTreeMap::new(),
        failed: 0,
    };
    for line in lines.lines().filter(|l| !l.trim().is_empty()) {
        let entry: Content = ctx("parse result line", serde_json::from_str(line))?;
        let bad = || format!("{}: malformed result line", path.display());
        let workload = field(&entry, "workload").and_then(text).ok_or_else(bad)?;
        let result = field(&entry, "result").ok_or_else(bad)?;
        set.failed += field(result, "failed").and_then(number).ok_or_else(bad)? as u64;
        let Some(Content::Map(metrics)) = field(result, "metrics") else {
            return Err(bad());
        };
        for (name, metric) in metrics {
            let value = field(metric, "value").and_then(number).ok_or_else(bad)?;
            set.values
                .entry((workload.to_string(), name.to_string()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// `better` and `bound` of each end-to-end metric in `BENCHMARK.json`.
fn read_bounds(spec: &Path) -> Result<BTreeMap<String, (bool, f64)>> {
    let json = ctx("read BENCHMARK.json", std::fs::read_to_string(spec))?;
    let doc: Content = ctx("parse BENCHMARK.json", serde_json::from_str(&json))?;
    let Some(Content::Seq(list)) = field(&doc, "end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    let mut bounds = BTreeMap::new();
    for metric in list {
        let bad = || "BENCHMARK.json: malformed end_to_end entry".to_string();
        let name = field(metric, "name").and_then(text).ok_or_else(bad)?;
        let lower_is_better = field(metric, "better").and_then(text).ok_or_else(bad)? == "lower";
        let bound = field(metric, "bound").and_then(number).ok_or_else(bad)?;
        bounds.insert(name.to_string(), (lower_is_better, bound));
    }
    Ok(bounds)
}

/// Compare result set `b` with `a`, metric by metric, using the median of
/// each side. Prints every relative difference; returns whether every
/// end-to-end metric of `b` is no worse than `a`'s by more than its bound
/// and neither side had a failed operation.
pub fn agree(spec: &Path, a: &Path, b: &Path) -> Result<bool> {
    let bounds = read_bounds(spec)?;
    let (a, b) = (read_result_set(a)?, read_result_set(b)?);
    let mut ok = a.failed == 0 && b.failed == 0;
    if !ok {
        println!("failed operations: {} in A, {} in B", a.failed, b.failed);
    }
    println!(
        "{:<20} {:<34} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A (median)", "B (median)", "B vs A"
    );
    for ((workload, metric), a_values) in &a.values {
        let Some(b_values) = b.values.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (ma, mb) = (stats::median(a_values), stats::median(b_values));
        let relative = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
        let verdict = match bounds.get(metric) {
            // Per-layer metrics have no bound: shown, never judged.
            None => "-".to_string(),
            Some(&(lower_is_better, bound)) => {
                let worse_by = if lower_is_better { relative } else { -relative };
                if worse_by > bound {
                    ok = false;
                    format!("OUT OF BOUND ({:.0} %)", bound * 100.0)
                } else {
                    format!("within {:.0} %", bound * 100.0)
                }
            }
        };
        println!(
            "{workload:<20} {metric:<34} {ma:>14.4} {mb:>14.4} {:>+8.2}%  {verdict}",
            relative * 100.0
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `key` of every entry of `list` in the repository's BENCHMARK.json.
    fn in_spec(list: &str, key: &str) -> Vec<String> {
        let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(spec).expect("BENCHMARK.json beside benchmark/");
        let doc: Content = serde_json::from_str(&json).expect("BENCHMARK.json parses");
        let Some(Content::Seq(entries)) = field(&doc, list) else {
            panic!("no {list} list");
        };
        entries
            .iter()
            .map(|m| field(m, key).and_then(text).unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_program_reports() {
        for (list, in_code) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let (names, units): (Vec<&str>, Vec<&str>) = in_code.iter().copied().unzip();
            assert_eq!(in_spec(list, "name"), names);
            assert_eq!(in_spec(list, "unit"), units);
        }
        let workloads: Vec<&str> = crate::harness::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(in_spec("workloads", "name"), workloads);
    }

    #[test]
    fn render_refuses_holes_and_non_numbers() {
        let mut outcome = Outcome {
            attempted: 1,
            failed: 0,
            metrics: Metrics::default(),
        };
        let list: &[(&str, &str)] = &[("a", "ms")];
        assert!(render(list, &outcome).is_err());
        outcome.metrics.set("a", f64::NAN);
        assert!(render(list, &outcome).is_err());
        outcome.metrics.set("a", 1.25);
        let json = render(list, &outcome).unwrap();
        let parsed: Content = serde_json::from_str(&json).unwrap();
        assert_eq!(field(&parsed, "correct"), Some(&Content::Bool(true)));
        let a = field(field(&parsed, "metrics").unwrap(), "a").unwrap();
        assert_eq!(field(a, "value").and_then(number), Some(1.25));
    }

    #[test]
    fn agree_judges_direction_and_bound() {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-agree-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.json");
        std::fs::write(
            &spec,
            r#"{"end_to_end": [
                {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
                {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let set = |name: &str, lat: f64, rate: f64| {
            let path = dir.join(name);
            let _ = std::fs::remove_file(&path);
            let result = format!(
                "{{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
                 {{\"lat\": {{\"value\": {lat}, \"unit\": \"ms\"}}, \
                 \"rate\": {{\"value\": {rate}, \"unit\": \"1/s\"}}}}}}"
            );
            record(&path, "w", 1, false, &result).unwrap();
            path
        };
        let base = set("a.jsonl", 10.0, 100.0);
        assert!(agree(&spec, &base, &set("b.jsonl", 10.9, 95.0)).unwrap());
        assert!(!agree(&spec, &base, &set("c.jsonl", 11.5, 100.0)).unwrap());
        assert!(!agree(&spec, &base, &set("d.jsonl", 10.0, 85.0)).unwrap());
        // Better in both directions is never out of bound.
        assert!(agree(&spec, &base, &set("e.jsonl", 5.0, 200.0)).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
