//! The names the benchmark reports under — the same names `BENCHMARK.json`
//! lists, in the same order — and the result of one run.

use crate::json::Json;
use crate::stats::Better;

/// An end-to-end metric: what a user of the system sees, with the share of
/// the parent's median it may worsen by before a change counts as a
/// regression.
///
/// The bounds of the measured metrics sit at the contract's cap of 0.25. Ten
/// consecutive runs of one commit on the 2-vCPU sizing box spread
/// (interquartile range over median) by 0.04-0.12 when the box is quiet, and
/// its own speed drifts by a quarter over tens of minutes. One bound serves
/// all four workloads, so it has to clear the noisiest with room to spare.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Value a workload reports for an end-to-end metric that does not apply to
/// it. `BENCHMARK.json` has one metric list for all workloads, so every
/// workload reports every name; a constant `1` keeps the inapplicable cells
/// inert (ratio to the parent is always exactly 1). Not for times: the driver
/// refuses a time that reads the same on every run, so both latencies are
/// measured on every workload.
pub const NOT_APPLICABLE: f64 = 1.0;

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_eps",
        unit: "events/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_event",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "recovery_eps",
        unit: "events/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "headline_speedup",
        unit: "x",
        better: Better::Higher,
        bound: 0.001,
    },
    EndToEnd {
        name: "paper_gap_pct",
        unit: "%",
        better: Better::Lower,
        bound: 0.001,
    },
];

/// A per-layer metric: name, unit, which way is better. No bound.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher as H, Lower as L};

pub const PER_LAYER: &[PerLayer] = &[
    // transport
    ("transport.encode_ns_per_frame", "ns", L),
    ("transport.decode_ns_per_frame", "ns", L),
    ("transport.wire_bytes_per_event", "bytes", L),
    // service
    ("service.encode_request_ns", "ns", L),
    ("service.decode_request_ns", "ns", L),
    ("service.reply_digest_ns", "ns", L),
    ("service.prepare_ns", "ns", L),
    ("service.admit_ns_per_event", "ns", L),
    ("service.admit_refused_share", "ratio", L),
    // server
    ("server.ingress_us_p50", "us", L),
    ("server.ingress_us_p95", "us", L),
    ("server.admit_wait_us_p50", "us", L),
    ("server.admit_wait_us_p95", "us", L),
    ("server.egress_us_p50", "us", L),
    ("server.egress_us_p95", "us", L),
    ("server.events_per_batch", "count", H),
    ("server.suspensions_per_kevent", "count", L),
    ("server.failed_conns", "count", L),
    ("server.tier_cpu_us_per_event", "us", L),
    // executor
    ("executor.queue_wait_us_p50", "us", L),
    ("executor.queue_wait_us_p95", "us", L),
    ("executor.worker_cpu_us_per_event", "us", L),
    ("executor.submit_batch_ns_per_job", "ns", L),
    ("executor.spurious_wakeups_per_kevent", "count", L),
    ("executor.spin_iters_per_event", "count", L),
    ("executor.ring_submit_share", "ratio", H),
    ("executor.stolen_per_kevent", "count", L),
    ("executor.pdq.jobs_per_s", "1/s", H),
    ("executor.pdq.cpu_us_per_job", "us", L),
    ("executor.sharded-pdq.jobs_per_s", "1/s", H),
    ("executor.sharded-pdq.cpu_us_per_job", "us", L),
    ("executor.spinlock.jobs_per_s", "1/s", H),
    ("executor.spinlock.cpu_us_per_job", "us", L),
    ("executor.multiqueue.jobs_per_s", "1/s", H),
    ("executor.multiqueue.cpu_us_per_job", "us", L),
    ("executor.pdq.ring_on.nosync_jobs_per_s", "1/s", H),
    ("executor.pdq.ring_off.nosync_jobs_per_s", "1/s", H),
    // queue
    ("queue.enqueue_ns", "ns", L),
    ("queue.dispatch_ns", "ns", L),
    ("queue.complete_ns", "ns", L),
    ("queue.key_conflicts_per_kevent", "count", L),
    ("queue.sequential_stalls_per_kevent", "count", L),
    ("queue.empty_dispatch_share", "ratio", L),
    ("queue.max_len", "count", L),
    // protocol_server
    ("handler.run_ns_p50", "ns", L),
    ("handler.run_ns_p95", "ns", L),
    ("handler.isolated_ns", "ns", L),
    ("protocol_server.generate_ns_per_event", "ns", L),
    // wal
    ("wal.append_ns_per_event", "ns", L),
    ("wal.sync_ms_p50", "ms", L),
    ("wal.sync_ms_p95", "ms", L),
    ("wal.write_calls_per_event", "count", L),
    ("wal.bytes_per_event", "bytes", L),
    ("wal.scan_ns_per_event", "ns", L),
    ("wal.replay_ns_per_event", "ns", L),
    // metrics
    ("metrics.histogram_record_ns", "ns", L),
    ("metrics.observed_cpu_overhead_pct", "%", L),
    // sim / dsm / hurricane / trace
    ("trace.generate_ns_per_access", "ns", L),
    ("hurricane.host_ns_per_handler", "ns", L),
    ("hurricane.mean_dispatch_wait_cycles", "cycles", L),
    ("hurricane.protocol_utilization", "ratio", H),
    ("sweep.cache_hit_share", "ratio", H),
    ("sweep.cells_per_s", "1/s", H),
    // harness: validity of the measurement, not a layer of the repo
    ("loadgen.lateness_p95_us", "us", L),
    ("loadgen.lateness_p99_us", "us", L),
    ("loadgen.slow_window_share", "ratio", L),
    ("loadgen.latency_p99_us", "us", L),
    ("loadgen.latency_p999_us", "us", L),
    ("loadgen.max_rate_under_slo_eps", "events/s", H),
    ("harness.runqueue_wait_share", "ratio", L),
    ("harness.trace_overhead_pct", "%", L),
    ("harness.trace_overhead_cpu_pct", "%", L),
    ("harness.span_mismatch_share", "ratio", L),
    ("harness.cpu_class_gap_pct", "%", L),
    ("harness.peak_rss_mb", "MiB", L),
    ("harness.failed_share", "ratio", L),
];

/// The workloads, in the order they run.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "poll-open",
        "open loop, Poisson arrivals into the readiness-polled tier, then the tier kept saturated: the serving path, queueing delay exposed; handlers are tiny, so transport/service/server dominate",
    ),
    (
        "pool-wal-closed",
        "closed loop into the thread-per-connection tier with a write-ahead log, then recovery of the logs: the other tier and the WAL used both ways",
    ),
    (
        "exec-keyed",
        "in-process keyed fine-grain handlers through submit_batch: dispatch cost is the cost; bypasses sockets, codec, tiers and WAL",
    ),
    (
        "sim-sweep",
        "the paper's headline, Table 2 and Figure 7 grids at full scale on fresh sweep engines: simulator host speed and the reproduced-vs-published gap; bypasses the server",
    ),
];

/// One reported number with what it was reduced from.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    /// Across-window median, where the value is a window quartile.
    pub median: Option<f64>,
    /// The same quantity over the whole measured phase.
    pub whole: Option<f64>,
    /// How many samples (windows, requests, repetitions) stand behind it.
    pub samples: u64,
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Violated checks (aggregate mismatch, span or CPU reconciliation, an
    /// early stop); a correct run has none.
    pub problems: Vec<String>,
    pub metrics: Vec<Measured>,
    pub notes: Vec<String>,
    pub fingerprint: Json,
}

/// A value as the tables print it: four decimals, seven for what is below 1
/// (a set-up time in seconds).
pub fn digits(v: f64) -> String {
    if v.abs() < 1.0 {
        format!("{v:.7}")
    } else {
        format!("{v:.4}")
    }
}

impl RunResult {
    pub fn new(workload: &'static str, seed: u64, traced: bool, fingerprint: Json) -> Self {
        Self {
            workload,
            seed,
            traced,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
            fingerprint,
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    pub fn put(&mut self, name: &str, value: f64, samples: u64) {
        self.put_full(name, value, None, None, samples);
    }

    pub fn put_full(
        &mut self,
        name: &str,
        value: f64,
        median: Option<f64>,
        whole: Option<f64>,
        samples: u64,
    ) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "unlisted metric {name}"
        );
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Measured {
            name: name.to_string(),
            value,
            median,
            whole,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    fn unit(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.unit)
            .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
            .unwrap_or("")
    }

    /// The names this run must report: every end-to-end metric untraced,
    /// every per-layer metric traced.
    fn contract_names(&self) -> Vec<&'static str> {
        if self.traced {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        }
    }

    /// The one-line object the driver reads: exactly the contract's keys,
    /// every listed metric present (inapplicable ones as `1` end to end and
    /// `0` per layer).
    pub fn contract_line(&self) -> String {
        let filler = if self.traced { 0.0 } else { NOT_APPLICABLE };
        let metrics = self
            .contract_names()
            .into_iter()
            .map(|name| {
                let value = self.get(name).filter(|v| v.is_finite()).unwrap_or(filler);
                (
                    name,
                    Json::obj(vec![
                        ("value", value.into()),
                        ("unit", Self::unit(name).into()),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// Everything the run measured, for result files. An untraced run also
    /// lists the end-to-end metrics that do not apply to it, as the contract
    /// line does, so `compare` finds every (workload, metric) pair.
    pub fn to_json(&self) -> Json {
        let inapplicable = END_TO_END
            .iter()
            .filter(|m| !self.traced && self.get(m.name).is_none())
            .map(|m| Measured {
                name: m.name.to_string(),
                value: NOT_APPLICABLE,
                median: None,
                whole: None,
                samples: 0,
            });
        let metrics = self
            .metrics
            .iter()
            .cloned()
            .chain(inapplicable)
            .map(|m| {
                let mut fields = vec![
                    ("value", Json::from(m.value)),
                    ("unit", Self::unit(&m.name).into()),
                    ("samples", m.samples.into()),
                ];
                if let Some(median) = m.median {
                    fields.push(("window_median", median.into()));
                }
                if let Some(whole) = m.whole {
                    fields.push(("whole_run", whole.into()));
                }
                (m.name.clone(), Json::obj(fields))
            })
            .collect();
        let failed_share = self.failed as f64 / self.attempted.max(1) as f64;
        Json::obj(vec![
            ("workload", self.workload.into()),
            ("seed", self.seed.into()),
            ("traced", self.traced.into()),
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("failed_share", failed_share.into()),
            (
                "problems",
                Json::Arr(self.problems.iter().map(|p| p.as_str().into()).collect()),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| n.as_str().into()).collect()),
            ),
            ("fingerprint", self.fingerprint.clone()),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// The table a person reads: every metric by name with its unit, the
    /// ungated companions and the sample count.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, {}) ==\nfingerprint: {}\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.fingerprint.render()
        );
        out.push_str(&format!(
            "{:<44} {:>16} {:<9} {:>14} {:>14} {:>9}\n",
            "metric", "value", "unit", "window median", "whole run", "samples"
        ));
        let cell = |v: Option<f64>| v.map_or_else(|| "-".to_string(), digits);
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<44} {:>16} {:<9} {:>14} {:>14} {:>9}\n",
                m.name,
                digits(m.value),
                Self::unit(&m.name),
                cell(m.median),
                cell(m.whole),
                m.samples
            ));
        }
        out.push_str(&format!(
            "attempted {}  failed {}  failed_share {}  correct {}\n",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.correct()
        ));
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        for problem in &self.problems {
            out.push_str(&format!("PROBLEM: {problem}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// `BENCHMARK.json` and the tables above must say the same thing, inside
    /// the contract's limits.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (listed, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(listed.get("name").unwrap().as_str(), Some(name));
            assert_eq!(listed.get("why").unwrap().as_str(), Some(why));
            assert!(
                name_ok(name) && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
        }

        let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        assert!(e2e.len() <= 16);
        for (listed, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(listed.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(listed.get("unit").unwrap().as_str(), Some(m.unit));
            let better = if m.better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(listed.get("better").unwrap().as_str(), Some(better));
            assert_eq!(listed.get("bound").unwrap().as_f64(), Some(m.bound));
            assert!(
                m.bound <= 0.25 && name_ok(m.name) && unit_ok(m.unit),
                "{}",
                m.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));

        let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (listed, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(listed.get("name").unwrap().as_str(), Some(*name));
            assert_eq!(listed.get("unit").unwrap().as_str(), Some(*unit));
            let better = if *better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(listed.get("better").unwrap().as_str(), Some(better));
            assert!(name_ok(name) && unit_ok(unit), "{name}");
        }
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn contract_line_has_exactly_the_listed_metrics() {
        let mut run = RunResult::new("exec-keyed", 3, false, Json::Null);
        run.attempted = 10;
        run.put("throughput_eps", 1234.5678, 12);
        let line = Json::parse(&run.contract_line()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let value = |name: &str| {
            line.get("metrics")
                .unwrap()
                .get(name)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
        };
        assert_eq!(value("throughput_eps"), Some(1234.5678));
        assert_eq!(value("recovery_eps"), Some(NOT_APPLICABLE));
        let mut traced = RunResult::new("exec-keyed", 3, true, Json::Null);
        traced.attempted = 1;
        traced.failed = 1;
        let line = Json::parse(&traced.contract_line()).unwrap();
        assert_eq!(
            line.get("metrics").unwrap().as_obj().unwrap().len(),
            PER_LAYER.len()
        );
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    }
}
