//! The read-only workloads, `trace` and `analytics`.
//!
//! Both run closed-loop clients against an in-memory `QueryService` with
//! no appends, check every reply against the reference system of its
//! application, and in the traced run replay the traced quarters' queries
//! through the layers.

use crate::check::Checksum;
use crate::client::{ms, one_request, phases, run_clients, Requests, Run, Sample};
use crate::env::{self, APPS, CACHE_ENTRIES};
use crate::layers::{replay_query, twin_system, QueryLayers, OP_CLASSES};
use crate::report::{Metrics, Outcome};
use crate::span::Tracer;
use crate::stats::{mean, ratio, Rng};
use crate::{
    describe_cache, report_cache, report_overhead, report_reads, report_service, set_up, Config,
    Workload,
};
use dc_core::Strategy;
use dc_relational::table::Catalog;
use dc_service::{QueryRequest, QueryService, ServiceConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

/// Application of the `trace` workload.
const TRACE_APP: &str = "rules-3";
/// Selectivities of the `analytics` mix, as fractions of `caser`.
const SELECTIVITIES: [f64; 5] = [0.01, 0.05, 0.10, 0.20, 0.40];
/// Distinct queries of the `analytics` mix, run once per cycle.
const ANALYTICS_CYCLE: usize = 4 * 3 * SELECTIVITIES.len();
/// Most traced-phase queries replayed through the layers.
const REPLAY_CAP: usize = 4000;

/// Workload shape: service and client counts, warm-up, Φ sample size.
struct Shape {
    workers: usize,
    clients: usize,
    /// Distinct queries whose window input is compared with `Naive`.
    phi_sample: usize,
}

fn shape(w: Workload) -> Shape {
    match w {
        Workload::Trace => Shape {
            workers: 2,
            clients: 2,
            phi_sample: 2,
        },
        _ => Shape {
            workers: 1,
            clients: 1,
            phi_sample: 3,
        },
    }
}

/// Point queries over one EPC, Zipf(s = 1) over all case EPCs. Query `q`
/// is kind `q / n` (0 = cleansed pedigree, 1 = last location) of EPC
/// `q % n`; which EPC has which Zipf rank is a seeded permutation.
pub struct TraceRequests {
    epcs: Vec<String>,
    cdf: Vec<f64>,
    by_rank: Vec<usize>,
    seed: u64,
}

impl TraceRequests {
    pub fn new(epcs: Vec<String>, seed: u64) -> Self {
        let n = epcs.len();
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / k as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mut by_rank: Vec<usize> = (0..n).collect();
        Rng::new(seed).shuffle(&mut by_rank);
        TraceRequests {
            epcs,
            cdf,
            by_rank,
            seed,
        }
    }

    fn sql(&self, query: usize) -> String {
        let n = self.epcs.len();
        let epc = &self.epcs[query % n];
        if query / n == 0 {
            format!("select rtime, biz_loc, reader from caser where epc = '{epc}' order by rtime")
        } else {
            // Ties on rtime resolve on biz_loc, so the one row returned is
            // the same whichever tied row an engine meets first.
            format!(
                "select biz_loc, rtime from caser where epc = '{epc}' \
                 order by rtime desc, biz_loc desc limit 1"
            )
        }
    }
}

impl Requests for TraceRequests {
    fn pick(&self, index: u64) -> usize {
        let mut rng = Rng::new(self.seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let u = rng.next_f64();
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.epcs.len() - 1);
        let kind = (rng.next_u64() & 1) as usize;
        kind * self.epcs.len() + self.by_rank[rank]
    }

    fn request(&self, query: usize) -> QueryRequest {
        QueryRequest::new(TRACE_APP, self.sql(query))
    }
}

/// q1, q2 and q2′ at five selectivities under `rules-1` … `rules-4`: 60
/// distinct queries, run in cycles, each cycle a seeded permutation of all
/// 60 so every seed runs the same mix.
pub struct AnalyticsRequests {
    queries: Vec<(&'static str, String)>,
    seed: u64,
}

impl AnalyticsRequests {
    pub fn new(dataset: &dc_rfidgen::Dataset, seed: u64) -> Self {
        let mut queries = Vec::new();
        for app in APPS {
            for sel in SELECTIVITIES {
                queries.push((app, dataset.q1(dataset.rtime_quantile(sel))));
                queries.push((app, dataset.q2(dataset.rtime_quantile(1.0 - sel), 2)));
                queries.push((app, dataset.q2_prime(dataset.rtime_quantile(1.0 - sel), 3)));
            }
        }
        AnalyticsRequests { queries, seed }
    }

    fn cycle(&self, cycle: u64) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..self.queries.len()).collect();
        Rng::new(self.seed ^ cycle.wrapping_mul(0x2545_F491_4F6C_DD1D)).shuffle(&mut perm);
        perm
    }
}

impl Requests for AnalyticsRequests {
    fn pick(&self, index: u64) -> usize {
        let n = self.queries.len() as u64;
        self.cycle(index / n)[(index % n) as usize]
    }

    fn request(&self, query: usize) -> QueryRequest {
        let (app, sql) = &self.queries[query];
        QueryRequest::new(*app, sql.clone())
    }
}

/// Warm-up requests: untimed, from a stream no measured phase uses.
fn warmup_indices(w: Workload) -> std::ops::Range<u64> {
    const BASE: u64 = 60 << 40;
    match w {
        Workload::Trace => BASE..BASE + 1000,
        _ => BASE..BASE + 60,
    }
}

fn requests_for(cfg: &Config, built: &env::Built) -> Box<dyn Requests> {
    match cfg.workload {
        Workload::Trace => Box::new(TraceRequests::new(env::case_epcs(&built.system), cfg.seed)),
        _ => Box::new(AnalyticsRequests::new(&built.dataset, cfg.seed)),
    }
}

/// The first `n` requests of the run `cfg` describes, as text.
pub fn inputs(cfg: &Config, n: u64) -> Vec<String> {
    let built = env::build(cfg.scale, &Tracer::new(false), 0);
    let requests = requests_for(cfg, &built);
    (0..n)
        .map(|i| {
            let req = requests.request(requests.pick(i));
            format!("{} {}", req.application, req.sql)
        })
        .collect()
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    let sh = shape(cfg.workload);
    let mut out = Outcome::default();
    let (svc, requests) = set_up(
        cfg,
        tracer,
        &mut out,
        |_, built, root| {
            let requests = requests_for(cfg, &built);
            let (svc, started) = tracer.span("service.start", root, 0, |_| {
                QueryService::start(
                    built.system,
                    ServiceConfig {
                        workers: sh.workers,
                        ..ServiceConfig::default()
                    },
                )
            });
            Ok(((svc, requests), started))
        },
        |(svc, _)| svc.shutdown(),
    )?;
    let requests = requests.as_ref();

    let quiet = Tracer::new(false);
    for i in warmup_indices(cfg.workload) {
        one_request(&svc, requests, i, &quiet);
    }

    let next = AtomicU64::new(0);
    let budget = cfg.budget.split(phases(cfg.trace).len());
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut cache = Vec::new();
    for &on in phases(cfg.trace) {
        let t = if on { tracer } else { &quiet };
        cache.push(svc.system().cleanse_cache_stats().unwrap_or_default());
        let run = run_clients(&svc, requests, sh.clients, budget, &next, t);
        if on {
            traced.push(run)
        } else {
            untraced.push(run)
        }
    }
    let mut untraced = Run::merge(untraced).expect("an untraced phase");
    if cfg.workload == Workload::Analytics && !cfg.trace {
        untraced = untraced.whole_cycles(ANALYTICS_CYCLE);
    }
    let untraced_lat = untraced.latency();
    report_reads(&mut out, &untraced_lat);
    let traced = Run::merge(traced).map_or_else(Vec::new, |run| {
        report_overhead(&mut out.layers, &untraced_lat, &run.latency());
        report_service(&mut out.layers, &run.samples, &svc);
        // Phases 1 and 2 are the traced ones.
        report_cache(&mut out.layers, cache[1], cache[3], 0);
        run.samples
    });

    // Answers: every reply against Q over fully cleansed R.
    let all: Vec<&Sample> = untraced.samples.iter().chain(traced.iter()).collect();
    let wrong = check_replies(cfg, requests, &all);
    out.attempted = all.len() as u64;
    out.failed = all.iter().filter(|s| s.checksum.is_none()).count() as u64 + wrong;
    out.correct = out.failed == 0;

    if cfg.trace {
        let snapshot = svc.snapshot();
        let layers = replay(cfg, &svc, requests, &snapshot.catalog, &traced, tracer);
        report_layers(&mut out.layers, &layers.replayed, &traced);
        let phi = phi_ratio(&svc, requests, &snapshot.catalog, &traced, sh.phi_sample)?;
        out.layers.set("rewrite.phi_rows_vs_naive", phi, "ratio");
        out.failed += layers.wrong;
        out.attempted += layers.attempted;
        out.correct = out.failed == 0;
    }
    out.notes.push(describe_cache(&svc));
    svc.shutdown();
    Ok(out)
}

/// Count replies whose checksum differs from the reference answer.
fn check_replies(cfg: &Config, requests: &dyn Requests, samples: &[&Sample]) -> u64 {
    let distinct: BTreeSet<usize> = samples.iter().map(|s| s.query).collect();
    let apps: BTreeSet<String> = distinct
        .iter()
        .map(|&q| requests.request(q).application)
        .collect();
    let app_refs: Vec<&str> = apps.iter().map(String::as_str).collect();
    let refs: BTreeMap<String, _> = env::reference_systems(cfg.scale, &app_refs)
        .into_iter()
        .collect();
    let expected: BTreeMap<usize, Option<Checksum>> = distinct
        .iter()
        .map(|&q| {
            let req = requests.request(q);
            let answer = refs[&req.application]
                .query_dirty(&req.sql)
                .ok()
                .map(|b| Checksum::of_batch(&b));
            (q, answer)
        })
        .collect();
    samples
        .iter()
        .filter(|s| s.checksum.is_some() && s.checksum != expected[&s.query])
        .count() as u64
}

struct Replayed {
    replayed: Vec<(u64, QueryLayers)>,
    /// Replays that failed or answered differently from the service.
    wrong: u64,
    attempted: u64,
}

/// Replay the traced phases' queries (at most [`REPLAY_CAP`]) through the
/// layers, in request order, on a twin system whose own cache is warmed by
/// the same warm-up the service saw. Each replayed answer is checked
/// against the service's reply to the same request.
fn replay(
    cfg: &Config,
    svc: &QueryService,
    requests: &dyn Requests,
    catalog: &Arc<Catalog>,
    traced: &[Sample],
    tracer: &Tracer,
) -> Replayed {
    let twin = twin_system(svc.system(), Arc::clone(catalog), Some(CACHE_ENTRIES));
    let quiet = Tracer::new(false);
    for i in warmup_indices(cfg.workload) {
        let req = requests.request(requests.pick(i));
        // A failing warm-up shows again, and counts, in the replay proper.
        let _ = replay_query(
            &twin,
            catalog,
            &req.application,
            &req.sql,
            Strategy::Auto,
            false,
            &quiet,
            0,
        );
    }
    let mut replayed = Vec::new();
    let mut wrong = 0;
    for s in traced.iter().take(REPLAY_CAP) {
        let req = requests.request(s.query);
        match replay_query(
            &twin,
            catalog,
            &req.application,
            &req.sql,
            Strategy::Auto,
            false,
            tracer,
            s.index + 1,
        ) {
            Ok(l) => {
                if s.checksum.is_some_and(|c| c != l.checksum) {
                    wrong += 1;
                }
                replayed.push((s.index, l));
            }
            Err(_) => wrong += 1,
        }
    }
    let attempted = traced.len().min(REPLAY_CAP) as u64;
    Replayed {
        replayed,
        wrong,
        attempted,
    }
}

/// Layer metrics over replayed queries: per-query means, so the parts add
/// up to the whole.
pub fn report_layers(layers: &mut Metrics, replayed: &[(u64, QueryLayers)], traced: &[Sample]) {
    let ls: Vec<&QueryLayers> = replayed.iter().map(|(_, l)| l).collect();
    let per_query =
        |f: &dyn Fn(&QueryLayers) -> f64| mean(&ls.iter().map(|l| f(l)).collect::<Vec<_>>());
    layers.set(
        "rewrite.candidates",
        per_query(&|l| l.candidates as f64),
        "count",
    );
    let (est, actual) = ls
        .iter()
        .filter_map(|l| l.est_rows.map(|e| (e, l.actual_rows as f64)))
        .fold((0.0, 0.0), |(a, b), (e, r)| (a + e, b + r));
    layers.set("rewrite.est_vs_actual_rows", ratio(est, actual), "ratio");
    for (i, class) in OP_CLASSES.iter().enumerate() {
        let name = format!("op.{class}.self_ms");
        layers.set(&name, per_query(&|l| l.ops.self_ns[i] as f64 / 1e6), "ms");
    }
    layers.set(
        "exec.outside_ops_ms",
        per_query(&|l| {
            let ops: u64 = l.ops.self_ns.iter().sum();
            (ms(l.exec) - ops as f64 / 1e6).max(0.0)
        }),
        "ms",
    );
    layers.set(
        "exec.rows_scanned.caser",
        per_query(&|l| l.ops.scanned_caser as f64),
        "rows",
    );
    layers.set(
        "exec.rows_scanned.dims",
        per_query(&|l| l.ops.scanned_dims as f64),
        "rows",
    );
    layers.set(
        "exec.rows_scanned.cached",
        per_query(&|l| l.ops.scanned_cached as f64),
        "rows",
    );
    layers.set(
        "exec.rows_sorted",
        per_query(&|l| l.stats.rows_sorted as f64),
        "rows",
    );
    layers.set(
        "exec.window_accumulator_ops",
        per_query(&|l| l.stats.window_accumulator_ops as f64),
        "count",
    );
    layers.set(
        "exec.hash_ops",
        per_query(&|l| l.stats.hash_ops as f64),
        "count",
    );
    layers.set(
        "exec.join_probes",
        per_query(&|l| l.stats.join_probes as f64),
        "count",
    );
    let (pruned, total) = ls.iter().fold((0u64, 0u64), |(p, t), l| {
        (p + l.stats.segments_pruned, t + l.stats.segments_total)
    });
    layers.set(
        "storage.segments_pruned_ratio",
        ratio(pruned as f64, total as f64),
        "ratio",
    );

    // Client-observed latency minus the worker's parse + plan + rewrite +
    // exec for the same request: queueing, dispatch, coalescing and reply.
    let by_index: BTreeMap<u64, Duration> = traced.iter().map(|s| (s.index, s.latency)).collect();
    let remainders: Vec<f64> = replayed
        .iter()
        .filter_map(|(i, l)| by_index.get(i).map(|&lat| ms(lat) - ms(l.worker_sum())))
        .collect();
    layers.set("query.unattributed_ms", mean(&remainders), "ms");
}

/// Rows entering window operators under the chosen plan ÷ under
/// `Strategy::Naive`, summed over the first `sample` distinct queries of
/// the traced phases. Both sides run uncached, so the ratio is the
/// rewrite's, not the cache's.
fn phi_ratio(
    svc: &QueryService,
    requests: &dyn Requests,
    catalog: &Arc<Catalog>,
    traced: &[Sample],
    sample: usize,
) -> Result<f64, String> {
    let mut seen = BTreeSet::new();
    let queries: Vec<usize> = traced
        .iter()
        .map(|s| s.query)
        .filter(|q| seen.insert(*q))
        .take(sample)
        .collect();
    window_rows_ratio(svc.system(), catalog, &queries, |q| requests.request(q))
}

/// Σ window rows_in (chosen, uncached) ÷ Σ window rows_in (naive).
pub fn window_rows_ratio(
    system: &dc_core::DeferredCleansingSystem,
    catalog: &Catalog,
    queries: &[usize],
    request: impl Fn(usize) -> QueryRequest,
) -> Result<f64, String> {
    let quiet = Tracer::new(false);
    let (mut chosen, mut naive) = (0u64, 0u64);
    for &q in queries {
        let req = request(q);
        for (strategy, acc) in [(Strategy::Auto, &mut chosen), (Strategy::Naive, &mut naive)] {
            let l = replay_query(
                system,
                catalog,
                &req.application,
                &req.sql,
                strategy,
                true,
                &quiet,
                0,
            )
            .map_err(|e| format!("{strategy:?} run of {}: {e}", req.sql))?;
            *acc += l.ops.window_rows_in;
        }
    }
    Ok(ratio(chosen as f64, naive as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_ranks_and_covers_both_kinds() {
        let epcs: Vec<String> = (0..100).map(|i| format!("e{i:03}")).collect();
        let r = TraceRequests::new(epcs, 5);
        let mut counts = vec![0usize; 200];
        for i in 0..20_000 {
            counts[r.pick(i)] += 1;
        }
        let top = r.by_rank[0];
        let bottom = r.by_rank[99];
        assert!(counts[top] + counts[100 + top] > 10 * (counts[bottom] + counts[100 + bottom]));
        assert!(counts[..100].iter().sum::<usize>() > 9_000);
        assert!(counts[100..].iter().sum::<usize>() > 9_000);
    }

    #[test]
    fn analytics_cycles_are_permutations() {
        let r = AnalyticsRequests {
            queries: (0..60).map(|i| ("rules-1", format!("q{i}"))).collect(),
            seed: 9,
        };
        for c in 0..3u64 {
            let mut seen: Vec<usize> = (0..60).map(|i| r.pick(c * 60 + i)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..60).collect::<Vec<_>>());
        }
        assert_ne!(r.cycle(0), r.cycle(1));
    }
}
