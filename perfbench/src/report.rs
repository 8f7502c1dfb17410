//! Metric catalog, result line and host fingerprint.
//!
//! The last line a run prints is a [`BenchResult`]: `correct`, `attempted`,
//! `failed` and `metrics`, where `metrics` holds the end-to-end catalog on a
//! timed run and the per-layer catalog on a traced run. The line before it
//! is the full result row — every measured value plus the host fingerprint
//! and sample counts — which is also appended to the run log.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::process::Command;

/// A metric the benchmark reports: name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name, `[A-Za-z0-9][A-Za-z0-9_.-]*`.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// Metrics a user of the serving system sees; printed by a timed run.
pub const END_TO_END: &[MetricSpec] = &[
    m("setup_s", "s"),
    m("throughput_rps", "rec/s"),
    m("slo_attain", "ratio"),
    m("alert_f1", "ratio"),
    m("peak_rss_mb", "MiB"),
];

/// Metrics printed by a traced run: the open-loop latency percentiles,
/// whose run-to-run spread on a shared 2-vCPU host is wider than any
/// bound a gated metric may carry, then the metrics of single layers. A
/// layer a workload does not route through (the WAL and the network
/// outside `routed-durable`, the tenant pool's counters outside
/// `tenant-fleet`) reads 0.
pub const PER_LAYER: &[MetricSpec] = &[
    m("lat_p50_ms", "ms"),
    m("lat_p99_ms", "ms"),
    m("model.forward_us_p50", "us"),
    m("model.forward_us_p99", "us"),
    m("model.forward_gflops", "GFLOP/s"),
    m("model.forwards", "count"),
    m("model.forward_us.s2", "us"),
    m("model.forward_gflops.s2", "GFLOP/s"),
    m("cache.hit_ratio", "ratio"),
    m("cache.hits", "count"),
    m("cache.lookups", "count"),
    m("cache.get_us_p50", "us"),
    m("cache.evictions", "count"),
    m("serve.submit_us_p50", "us"),
    m("serve.submit_us_p99", "us"),
    m("serve.queue_score_ms_p50", "ms"),
    m("serve.queue_score_ms_p99", "ms"),
    m("serve.drain_ms", "ms"),
    m("serve.shed", "count"),
    m("serve.worker_restarts", "count"),
    m("serve.failed_ratio", "ratio"),
    m("preprocess.abstract_us_p50", "us"),
    m("preprocess.transform_us_p50", "us"),
    m("detect.session_us_p50", "us"),
    m("wal.append_us_p50", "us"),
    m("wal.sync_us_p50", "us"),
    m("wal.sync_us_p99", "us"),
    m("wal.fsyncs", "count"),
    m("wal.bytes_per_record", "B"),
    m("wal.recover_s", "s"),
    m("net.encode_us_p50", "us"),
    m("net.decode_us_p50", "us"),
    m("net.submit_rtt_us_p50", "us"),
    m("net.submit_rtt_us_p99", "us"),
    m("net.bytes_per_record", "B"),
    m("net.retries", "count"),
    m("net.reconnects", "count"),
    m("tenant.activate_cold_ms_p50", "ms"),
    m("tenant.cold_loads", "count"),
    m("tenant.evictions", "count"),
    m("train.windows_per_s", "1/s"),
    m("train.step_ms_p50", "ms"),
    m("gen.late_p99_ms", "ms"),
    m("trace.throughput_rps", "rec/s"),
    m("trace.overhead_ratio", "ratio"),
];

/// Whether `name` fits the metric-name grammar: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` fits the unit grammar: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

/// One reported value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The final line of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchResult {
    /// Every output check passed.
    pub correct: bool,
    /// Records submitted.
    pub attempted: u64,
    /// Records shed, failed or never scored.
    pub failed: u64,
    /// The catalog's metrics, by name.
    pub metrics: BTreeMap<String, Metric>,
}

impl BenchResult {
    /// Picks the metrics of `catalog` out of `values`; names without a
    /// value (a percentile the sample cannot support) are left out.
    pub fn new(
        correct: bool,
        attempted: u64,
        failed: u64,
        catalog: &[MetricSpec],
        values: &BTreeMap<String, f64>,
    ) -> Self {
        let metrics = catalog
            .iter()
            .filter_map(|spec| {
                debug_assert!(valid_metric_name(spec.name) && valid_unit(spec.unit));
                values.get(spec.name).map(|&value| {
                    let unit = spec.unit.to_string();
                    (spec.name.to_string(), Metric { value, unit })
                })
            })
            .collect();
        BenchResult {
            correct,
            attempted,
            failed,
            metrics,
        }
    }

    /// The one-line JSON form.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("a result of finite numbers serializes")
    }
}

/// Where a result row was measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    /// Commit of the checkout, or `unknown` outside a git repository.
    pub commit: String,
    /// Threads of the `ucad_pool` compute pool.
    pub pool_threads: usize,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let mut cmd = Command::new(program);
    // Keep git from reporting the commit of a repository that merely
    // encloses the checkout.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let out = cmd.args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Host {
    /// Fingerprints the current host.
    pub fn detect() -> Self {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            pool_threads: ucad_pool::current().threads(),
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalog_name_and_unit_fits_the_grammar() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(spec.name), "bad name {}", spec.name);
            assert!(valid_unit(spec.unit), "bad unit {}", spec.unit);
            assert!(seen.insert(spec.name), "duplicate name {}", spec.name);
        }
        assert!(valid_metric_name("model.forward_us.s2"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("lat p99"));
        assert!(!valid_metric_name("lat/p99"));
        assert!(!valid_metric_name(&"x".repeat(65)));
        assert!(!valid_unit("rec per s"));
    }

    #[test]
    fn result_line_round_trips_through_json() {
        let mut values = BTreeMap::new();
        values.insert("throughput_rps".to_string(), 1.2034567891);
        values.insert("setup_s".to_string(), 0.8127);
        values.insert("not_in_catalog".to_string(), 5.0);
        let result = BenchResult::new(true, 1000, 3, END_TO_END, &values);
        assert_eq!(result.metrics.len(), 2, "only catalog names with values");
        let line = result.to_json();
        assert!(!line.contains('\n'));
        let back: BenchResult = serde_json::from_str(&line).unwrap();
        assert_eq!(back, result);
        let keys: Vec<&str> =
            ["\"correct\"", "\"attempted\"", "\"failed\"", "\"metrics\""].to_vec();
        for k in keys {
            assert!(line.contains(k), "{k} missing from {line}");
        }
        assert_eq!(back.metrics["throughput_rps"].value, 1.2034567891);
        assert_eq!(back.metrics["setup_s"].unit, "s");
    }

    #[derive(Deserialize)]
    struct Named {
        name: String,
    }

    #[derive(Deserialize)]
    struct Declared {
        name: String,
        unit: String,
    }

    #[derive(Deserialize)]
    struct Doc {
        workloads: Vec<Named>,
        end_to_end: Vec<Declared>,
        per_layer: Vec<Declared>,
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc: Doc = serde_json::from_str(&text).unwrap();
        let declared = |d: &[Declared]| -> Vec<(String, String)> {
            d.iter().map(|m| (m.name.clone(), m.unit.clone())).collect()
        };
        let catalog = |specs: &[MetricSpec]| -> Vec<(String, String)> {
            specs
                .iter()
                .map(|s| (s.name.to_string(), s.unit.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc.end_to_end), catalog(END_TO_END));
        assert_eq!(declared(&doc.per_layer), catalog(PER_LAYER));
        let workloads: Vec<String> = doc.workloads.into_iter().map(|w| w.name).collect();
        let ours: Vec<String> = crate::workload::Workload::BENCHMARKED
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
    }
}
