//! Named metrics and the result line.

use dc_json::Json;

/// End-to-end metrics of the result line (every workload has them).
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "query_p50_ms",
    "query_p90_ms",
    "queries_per_s",
    "peak_rss_mb",
];

/// Per-layer metrics of the result line. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("rfidgen.generate_s", "s"),
    ("rules.define_s", "s"),
    ("service.start_s", "s"),
    ("sql.parse_us", "us"),
    ("sql.plan_us", "us"),
    ("rewrite.rewrite_us", "us"),
    ("rewrite.candidates", "count"),
    ("rewrite.est_vs_actual_rows", "ratio"),
    ("rewrite.phi_rows_vs_naive", "ratio"),
    ("physical.lower_us", "us"),
    ("exec.exec_ms", "ms"),
    ("exec.outside_ops_ms", "ms"),
    ("op.scan.self_ms", "ms"),
    ("op.filter.self_ms", "ms"),
    ("op.sort.self_ms", "ms"),
    ("op.window.self_ms", "ms"),
    ("op.hash_join.self_ms", "ms"),
    ("op.semi_join.self_ms", "ms"),
    ("op.aggregate.self_ms", "ms"),
    ("op.other.self_ms", "ms"),
    ("exec.rows_scanned.caser", "rows"),
    ("exec.rows_scanned.dims", "rows"),
    ("exec.rows_scanned.cached", "rows"),
    ("exec.rows_sorted", "rows"),
    ("exec.window_accumulator_ops", "count"),
    ("exec.hash_ops", "count"),
    ("exec.join_probes", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.invalidations_per_append", "count"),
    ("storage.segments_pruned_ratio", "ratio"),
    ("service.queue_wait_us", "us"),
    ("service.exec_us", "us"),
    ("service.coalesced_ratio", "ratio"),
    ("service.rejected", "count"),
    ("query.unattributed_ms", "ms"),
    ("append.p50_ms", "ms"),
    ("append.p90_ms", "ms"),
    ("storage.append_ms", "ms"),
    ("wal.segment_write_ms", "ms"),
    ("wal.commit_fsync_ms", "ms"),
    ("service.publish_us", "us"),
    ("wal.bytes_per_append", "B"),
    ("append.unattributed_ms", "ms"),
    ("stream.recleansed_rows", "rows"),
    ("stream.delta_rows", "rows"),
    ("stream.fallbacks", "count"),
    ("stream.work_vs_cold", "ratio"),
    ("durable.recover_s", "s"),
    ("durable.stored_bytes_per_row", "B/row"),
    ("durable.records_replayed", "count"),
    ("durable.segments_loaded", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("query.samples", "count"),
    ("append.samples", "count"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics with unique names.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.0.push(Metric {
                name: name.to_string(),
                value,
                unit,
            }),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn to_json(&self) -> Json {
        self.0.iter().fold(Json::obj(), |obj, m| {
            obj.set(
                m.name.as_str(),
                Json::obj()
                    .set("value", Json::Num(m.value))
                    .set("unit", m.unit),
            )
        })
    }
}

/// Everything one benchmark run found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// True when every checked answer matched its reference.
    pub correct: bool,
    /// Client operations attempted (queries, appends, end-of-run checks).
    pub attempted: u64,
    /// Operations that errored, were refused or aborted, or answered wrong.
    pub failed: u64,
    /// End-to-end metrics, all measured with tracing off.
    pub e2e: Metrics,
    /// Per-layer metrics (filled by the traced run only).
    pub layers: Metrics,
    /// Free-form lines printed before the metrics (input sizes).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self, metrics: &Metrics) -> String {
        Json::obj()
            .set("correct", self.correct)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics.to_json())
            .compact()
    }
}
