//! End-to-end and per-layer benchmark of the deferred-cleansing system.
//!
//! Three workloads run against the public APIs of `dc-service`, `dc-core`,
//! `dc-rewrite` and `dc-relational` over RFIDGen data (scale 40, 10%
//! anomalies by default), with every answer checked against Q over fully
//! cleansed R:
//!
//! * `trace` — point queries (one EPC's cleansed pedigree or last
//!   location), Zipf-distributed over the case EPCs, from two closed-loop
//!   clients: the SQL front end, rewrite and service dominate.
//! * `analytics` — the paper's q1, q2 and q2′ at five selectivities under
//!   four rule sets, one client: the executor dominates, and the join-back
//!   working set exceeds the cleansed-sequence cache.
//! * `ingest` — a durable service taking 50-row appends in a closed loop
//!   with three standing queries subscribed and one reader, then shutdown
//!   and timed recovery.
//!
//! See `README.md` beside this crate for the metrics and why each exists.

pub mod check;
pub mod client;
pub mod env;
pub mod ingest;
pub mod layers;
pub mod read;
pub mod report;
pub mod span;
pub mod stats;

use client::Budget;
use dc_core::CacheStats;
use dc_service::QueryService;
use report::{Metrics, Outcome};
use span::Tracer;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Trace,
    Analytics,
    Ingest,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "trace" => Some(Workload::Trace),
            "analytics" => Some(Workload::Analytics),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Trace => "trace",
            Workload::Analytics => "analytics",
            Workload::Ingest => "ingest",
        }
    }
}

/// RFIDGen seed of the benchmark database: at scale 40 it gives 61,410
/// case reads over 1,861 case EPCs. It is fixed so that every workload
/// seed runs against the same database: other data seeds change the
/// number of case reads by up to ±9%, which would show as spread between
/// runs that no code change caused.
pub const DATA_SEED: u64 = 2006;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    /// Seeds the request sequence: which EPCs `trace` asks for, the order
    /// of the `analytics` mix, which reads `ingest` appends. The database
    /// is always generated from [`DATA_SEED`].
    pub seed: u64,
    /// RFIDGen scale factor (pallet EPCs).
    pub scale: usize,
    /// Length of the measured phase. The traced run splits it into
    /// untraced and traced quarters (see [`client::phases`]).
    pub budget: Budget,
    /// Run the traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// How often set-up is repeated; `setup_s` is the median.
    pub setups: usize,
    /// Directory for durable roots, replay logs and the span dump.
    pub work_dir: PathBuf,
}

impl Config {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Config {
            workload,
            seed,
            scale: 40,
            budget: Budget::Seconds(10.0),
            trace: false,
            setups: 3,
            work_dir: PathBuf::from(".perfbench"),
        }
    }
}

/// Run one workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work_dir).map_err(|e| format!("work dir: {e}"))?;
    let tracer = Tracer::new(cfg.trace);
    let mut out = match cfg.workload {
        Workload::Trace | Workload::Analytics => read::run(cfg, &tracer)?,
        Workload::Ingest => ingest::run(cfg, &tracer)?,
    };
    if cfg.trace {
        let path = cfg.work_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        tracer
            .dump(&path)
            .map_err(|e| format!("span dump {}: {e}", path.display()))?;
        out.layers.set("trace.spans", tracer.len() as f64, "count");
        for (name, st) in tracer.self_times() {
            if let Some(metric) = self_time_metric(name) {
                out.layers.set(metric.0, st.mean_ns() / metric.1, metric.2);
            }
        }
    }
    Ok(out)
}

/// The first `n` generated inputs of a run (requests, or appended batches
/// for `ingest`), as text: equal seeds must give equal inputs.
pub fn inputs(cfg: &Config, n: u64) -> Vec<String> {
    match cfg.workload {
        Workload::Trace | Workload::Analytics => read::inputs(cfg, n),
        Workload::Ingest => ingest::inputs(cfg, n),
    }
}

/// Per-layer metrics read off span self times: span name → (metric, ns per
/// unit, unit). Replayed layer calls have no children, so their self time
/// is their duration.
fn self_time_metric(span: &str) -> Option<(&'static str, f64, &'static str)> {
    Some(match span {
        "sql.parse_query" => ("sql.parse_us", 1e3, "us"),
        "sql.plan_query" => ("sql.plan_us", 1e3, "us"),
        "rewrite.rewrite_plan" => ("rewrite.rewrite_us", 1e3, "us"),
        "physical.lower" => ("physical.lower_us", 1e3, "us"),
        "exec.execute_rewritten_snapshot" => ("exec.exec_ms", 1e6, "ms"),
        "service.queue_wait" => ("service.queue_wait_us", 1e3, "us"),
        "service.exec" => ("service.exec_us", 1e3, "us"),
        "storage.append" => ("storage.append_ms", 1e6, "ms"),
        "wal.log_table_append" => ("wal.segment_write_ms", 1e6, "ms"),
        "wal.commit_epoch" => ("wal.commit_fsync_ms", 1e6, "ms"),
        "service.publish" => ("service.publish_us", 1e3, "us"),
        _ => return None,
    })
}

/// Peak resident set size of this process (VmHWM), in MiB. Read right
/// after the measured phases, before the answer checks and replays, which
/// hold reference data the program under test never sees.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set up `cfg.setups` times and keep the last: generate and define the
/// rules ([`env::build`]), then `start` a service from the result, which
/// returns it with the time its start took. `discard` tears down each
/// set-up not kept before the next one starts, so no two are alive at
/// once. Reports `setup_s` (the median) and its parts, and the
/// input sizes as a note.
pub fn set_up<T>(
    cfg: &Config,
    tracer: &Tracer,
    out: &mut Outcome,
    mut start: impl FnMut(usize, env::Built, u64) -> Result<(T, Duration), String>,
    mut discard: impl FnMut(T),
) -> Result<T, String> {
    let mut times = SetupTimes::default();
    let mut kept = None;
    for k in 0..cfg.setups.max(1) {
        if let Some(previous) = kept.take() {
            discard(previous);
        }
        let root = tracer.open();
        let t0 = Instant::now();
        let built = env::build(cfg.scale, tracer, root);
        if k == 0 {
            out.notes.push(env::describe(&built.system));
        }
        let (generate, define) = (built.generate, built.define);
        let (service, started) = start(k, built, root)?;
        tracer.close(root, 0, 0, "setup", t0, Instant::now());
        times.record(generate, define, started);
        kept = Some(service);
    }
    times.report(out);
    Ok(kept.expect("at least one set-up"))
}

/// Set-up times over the repeated set-ups of one run.
#[derive(Debug, Default)]
struct SetupTimes {
    total: Vec<f64>,
    generate: Vec<f64>,
    define: Vec<f64>,
    start: Vec<f64>,
}

impl SetupTimes {
    fn record(&mut self, generate: Duration, define: Duration, start: Duration) {
        let s = |d: Duration| d.as_secs_f64();
        self.total.push(s(generate) + s(define) + s(start));
        self.generate.push(s(generate));
        self.define.push(s(define));
        self.start.push(s(start));
    }

    fn report(&self, out: &mut Outcome) {
        out.e2e.set("setup_s", stats::median(&self.total), "s");
        out.layers
            .set("rfidgen.generate_s", stats::median(&self.generate), "s");
        out.layers
            .set("rules.define_s", stats::median(&self.define), "s");
        out.layers
            .set("service.start_s", stats::median(&self.start), "s");
    }
}

/// Reader-side metrics every workload shares.
pub fn report_reads(out: &mut Outcome, lat: &client::Latency) {
    out.e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.e2e.set("query_p50_ms", lat.p50_ms, "ms");
    out.e2e.set("query_p90_ms", lat.p90_ms, "ms");
    out.e2e.set("queries_per_s", lat.per_s, "1/s");
    out.e2e.set("query_samples", lat.count as f64, "count");
    out.layers.set("query.samples", lat.count as f64, "count");
}

/// Tracing overhead: the traced phases' mean reader latency against the
/// untraced phases', in percent (noise can make it negative).
pub fn report_overhead(out: &mut Metrics, untraced: &client::Latency, traced: &client::Latency) {
    let pct = 100.0 * stats::ratio(traced.mean_ms - untraced.mean_ms, untraced.mean_ms);
    out.set("trace.overhead_pct", pct, "%");
}

/// Service-layer metrics from the replies' `ServiceStats` and the
/// service's counters.
pub fn report_service(out: &mut Metrics, samples: &[client::Sample], svc: &QueryService) {
    let per =
        |f: fn(&client::Sample) -> f64| stats::mean(&samples.iter().map(f).collect::<Vec<_>>());
    out.set(
        "service.queue_wait_us",
        per(|s| s.queue_wait.as_secs_f64() * 1e6),
        "us",
    );
    out.set("service.exec_us", per(|s| s.exec.as_secs_f64() * 1e6), "us");
    out.set(
        "service.coalesced_ratio",
        per(|s| s.coalesced as u8 as f64),
        "ratio",
    );
    out.set("service.rejected", svc.counters().rejected as f64, "count");
}

/// The service cache's lifetime counters, as a note.
pub fn describe_cache(svc: &QueryService) -> String {
    let c = svc.system().cleanse_cache_stats().unwrap_or_default();
    format!(
        "cleanse cache ({} entries): hits={} misses={} evictions={} invalidations={}",
        env::CACHE_ENTRIES,
        c.hits,
        c.misses,
        c.evictions,
        c.invalidations
    )
}

/// Cleansed-sequence cache activity between two reads of the service's
/// cache counters, during which `appends` appends ran.
pub fn report_cache(out: &mut Metrics, before: CacheStats, after: CacheStats, appends: usize) {
    let hits = after.hits.saturating_sub(before.hits) as f64;
    let probes = (after.hits + after.misses).saturating_sub(before.hits + before.misses) as f64;
    out.set("cache.hit_ratio", stats::ratio(hits, probes), "ratio");
    let invalidated = after.invalidations.saturating_sub(before.invalidations) as f64;
    out.set(
        "cache.invalidations_per_append",
        stats::ratio(invalidated, appends as f64),
        "count",
    );
}
