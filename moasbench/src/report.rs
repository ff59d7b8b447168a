//! What a run is asked to do, what it reports, and the names of every metric.
//!
//! `BENCHMARK.json` at the repository root lists the same workloads and
//! metrics; `tests/benchmark_contract.rs` fails when the two drift apart.

use experiments::json::Json;

use crate::gen::{ArchiveShape, TableShape};
use crate::stats::{compact, Metric};

/// A metric's name and unit. Which way is better, and for end-to-end
/// metrics the regression bound, are `BENCHMARK.json`'s to say.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// The workloads; `BENCHMARK.json` and the README say why each exists.
pub const WORKLOADS: &[&str] = &[
    "serve_read",
    "serve_churn",
    "ingest_mrt",
    "sim_figures",
    "sim_converge70k",
];

/// What a user of the system sees. Every workload reports every one; the
/// README's table says what `work` and `op` are on each workload.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s"),
    spec("work_per_s", "1/s"),
    spec("op_p50_us", "us"),
    spec("peak_rss_mib", "MiB"),
];

/// Single layers, from the traced run. A workload that does not exercise a
/// layer reports 0 for it.
pub const PER_LAYER: &[Spec] = &[
    // Host and tracing.
    spec("host.calibration_ms", "ms"),
    spec("host.calibration_drift_pct", "%"),
    spec("host.loopback_rtt_us", "us"),
    spec("host.cpu_us_per_work", "us"),
    spec("trace.spans", "count"),
    spec("trace.span_floor_ns", "ns"),
    spec("trace.work_per_s", "1/s"),
    // Read path of the daemon.
    spec("trie.covering_ns", "ns"),
    spec("trie.longest_match_ns", "ns"),
    spec("validity.validate_ns", "ns"),
    spec("validity.validate_1k_rules_ns", "ns"),
    spec("http.parse_ns", "ns"),
    spec("http.response_ns", "ns"),
    spec("daemon.inproc_ns", "ns"),
    spec("daemon.paced_query_p99_us", "us"),
    spec("daemon.burst_query_p50_us", "us"),
    spec("daemon.burst_query_p99_us", "us"),
    spec("daemon.burst_queries_per_s", "1/s"),
    spec("minisock.residual_us", "us"),
    spec("minisock.idle_wake_share", "ratio"),
    spec("daemon.http_bytes_in_per_query", "B"),
    spec("daemon.http_bytes_out_per_query", "B"),
    // Table and write path.
    spec("table.build_s", "s"),
    spec("table.apply_ns", "ns"),
    spec("table.clone_ms", "ms"),
    spec("table.drop_ms", "ms"),
    spec("daemon.apply_p50_us", "us"),
    spec("daemon.apply_p99_us", "us"),
    spec("daemon.apply_max_ms", "ms"),
    spec("daemon.apply_stalls", "count"),
    spec("daemon.apply_stall_share", "ratio"),
    spec("daemon.churn_query_p50_us", "us"),
    spec("daemon.churn_query_p99_us", "us"),
    spec("daemon.query_max_ms", "ms"),
    spec("daemon.churn_queries_per_s", "1/s"),
    // Feed.
    spec("feed.sync_p90_us", "us"),
    spec("feed.reset_sync_ms", "ms"),
    spec("feed.reset_sync_mib", "MiB"),
    spec("feed.pdu_encode_ns", "ns"),
    spec("feed.pdu_decode_ns", "ns"),
    spec("feed.diff_since_ns", "ns"),
    // Ingest.
    spec("wire.frame_mib_per_s", "MiB/s"),
    spec("wire.validate_mib_per_s", "MiB/s"),
    spec("wire.origin_extract_ns_per_entry", "ns"),
    spec("wire.owned_mib_per_s", "MiB/s"),
    spec("wire.update_view_parse_ns", "ns"),
    spec("wire.update_encode_ns", "ns"),
    spec("ingest.sort_dedup_ms", "ms"),
    spec("ingest.unattributed_pct", "%"),
    spec("trie.extend_sorted_ms", "ms"),
    spec("trie.insert_ns", "ns"),
    // Small-graph simulation.
    spec("engine.build_us_per_trial", "us"),
    spec("engine.run_ns_per_event", "ns"),
    spec("experiments.census_us_per_trial", "us"),
    spec("experiments.unattributed_pct", "%"),
    spec("experiments.jobs2_speedup", "ratio"),
    spec("metrics.recording_overhead_pct", "%"),
    spec("core.find_conflict_ns", "ns"),
    spec("core.alarms_per_trial", "count"),
    spec("core.verifier_queries_per_trial", "count"),
    spec("queue.pushes_per_trial", "count"),
    spec("queue.max_depth", "count"),
    // Internet-scale simulation.
    spec("topology.build_s", "s"),
    spec("topology.partition_s", "s"),
    spec("sharded.build_s", "s"),
    spec("sharded.run_ns_per_event", "ns"),
    spec("sharded.drop_s", "s"),
    spec("sharded.shards2_events_per_s", "1/s"),
    spec("engine.classic_events_per_s", "1/s"),
    spec("sharded.minor_faults_per_kevent", "count"),
    spec("sharded.sys_share", "ratio"),
    spec("sharded.events_fired", "count"),
    spec("sharded.converged_ticks", "count"),
    spec("sharded.cut_links", "count"),
    spec("sharded.fingerprint", "count"),
];

fn spec_of(name: &str) -> &'static Spec {
    PER_LAYER
        .iter()
        .chain(END_TO_END)
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("metric '{name}' is not in the registry"))
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Reduced sizes for the contract test; numbers mean nothing.
    pub smoke: bool,
    /// Fault injection for the contract test: corrupt the reference so that
    /// every workload must report failures.
    pub wrong_reference: bool,
}

impl Run {
    pub fn table_shape(&self) -> TableShape {
        if self.smoke {
            TableShape::SMOKE
        } else {
            TableShape::FULL
        }
    }

    pub fn archive_shape(&self) -> ArchiveShape {
        if self.smoke {
            ArchiveShape::SMOKE
        } else {
            ArchiveShape::FULL
        }
    }

    /// `n` at full size, a sixteenth of it (at least 1) in smoke mode.
    pub fn scaled(&self, n: usize) -> usize {
        if self.smoke {
            (n / 16).max(1)
        } else {
            n
        }
    }

    /// Set-up is repeated so that `setup_s` is a median.
    pub fn setup_repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }

    /// How long the workload's main loop measures. The traced run spends the
    /// other half of its budget on the per-layer replays.
    pub fn measure_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// What one run found.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            attempted,
            failed,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Counts one more checked operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what);
        }
    }

    /// Records a remark for the printed report, once however often it recurs.
    pub fn note(&mut self, text: &str) {
        if !self.notes.iter().any(|n| n == text) {
            self.notes.push(text.to_string());
        }
    }

    pub fn end_to_end(&mut self, metric: Metric) {
        assert_eq!(spec_of(metric.name).unit, metric.unit, "{}", metric.name);
        self.end_to_end.push(metric);
    }

    pub fn layer_metric(&mut self, metric: Metric) {
        assert_eq!(spec_of(metric.name).unit, metric.unit, "{}", metric.name);
        self.per_layer.push(metric);
    }

    /// A single per-layer reading; the unit comes from the registry.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.per_layer
            .push(Metric::single(name, spec_of(name).unit, value));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics this run must print: every end-to-end metric untraced,
    /// every per-layer metric traced (0 for a layer the workload never ran).
    pub fn contract_metrics(&self, trace: bool) -> Vec<Metric> {
        let (specs, have) = if trace {
            (PER_LAYER, &self.per_layer)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        specs
            .iter()
            .map(|spec| {
                have.iter()
                    .find(|m| m.name == spec.name)
                    .cloned()
                    .unwrap_or_else(|| {
                        assert!(trace, "workload did not report end-to-end '{}'", spec.name);
                        Metric {
                            samples: 0,
                            ..Metric::single(spec.name, spec.unit, 0.0)
                        }
                    })
            })
            .collect()
    }

    /// The contract's result line.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = self
            .contract_metrics(trace)
            .into_iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        compact(&Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]))
    }
}
