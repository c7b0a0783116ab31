//! The `ingest` workload: writes beside reads on a durable service.
//!
//! One appender sends 50-row suffix batches (existing reads shifted past
//! the time horizon, so each batch extends a few tag sequences) in a
//! closed loop, three standing queries stay subscribed, and one reader
//! issues q1 at 10% selectivity under `rules-3`. At the end the service is
//! shut down, recovered from its durable root (timed), and asked the check
//! query again.

use crate::check::Checksum;
use crate::client::{ms, one_request, phases, run_clients, Budget, Latency, Requests, Run, Sample};
use crate::env;
use crate::layers::{dir_bytes, replay_query, twin_system, AppendParts, AppendReplay};
use crate::read::{report_layers, window_rows_ratio};
use crate::report::Outcome;
use crate::span::Tracer;
use crate::stats::{mean, ratio, Rng};
use crate::{
    describe_cache, report_cache, report_overhead, report_reads, report_service, set_up, Config,
};
use dc_core::Strategy;
use dc_relational::batch::Batch;
use dc_relational::value::Value;
use dc_service::{
    ChangeSet, DurableOptions, QueryRequest, QueryService, ServiceConfig, SubscribeOptions,
    SubscriptionHandle,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const APP: &str = "rules-3";
/// Rows per appended batch.
const BATCH_ROWS: usize = 50;
/// Reader replies re-checked against `Strategy::Naive` at their epoch.
const CHECKED_REPLIES: usize = 3;
/// Most appends replayed through the append path's layers.
const APPEND_REPLAY_CAP: usize = 64;
/// Reader queries replayed through the query layers.
const QUERY_REPLAYS: usize = 8;

/// Removes a directory tree when dropped, so the durable roots go away
/// however the run ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The reader's one query.
struct Reader(String);

impl Requests for Reader {
    fn pick(&self, _index: u64) -> usize {
        0
    }

    fn request(&self, _query: usize) -> QueryRequest {
        QueryRequest::new(APP, self.0.clone())
    }
}

/// Suffix batches: batch `k` replays `BATCH_ROWS` consecutive generated
/// reads from a position drawn from the seed and `k`, with `rtime` shifted by `(k + 1) * (max_rtime + 1)`, so batches
/// extend sequences in strictly increasing time.
struct Batches {
    data: Batch,
    rtime: usize,
    max_rtime: i64,
    seed: u64,
}

impl Batches {
    fn new(data: Batch, seed: u64) -> Self {
        let rtime = data.schema().index_of_name("rtime").expect("rtime");
        let col = data.column(rtime);
        let max_rtime = (0..data.num_rows())
            .filter_map(|i| match col.value(i) {
                Value::Int(t) => Some(t),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        Batches {
            data,
            rtime,
            max_rtime,
            seed,
        }
    }

    fn batch(&self, k: usize) -> Batch {
        let n = self.data.num_rows();
        let first = Rng::new(self.seed ^ (k as u64).wrapping_mul(0xA24B_AED4_963E_E407)).below(n);
        let rows: Vec<Vec<Value>> = (0..BATCH_ROWS)
            .map(|r| {
                let mut row = self.data.row((first + r) % n);
                if let Value::Int(t) = row[self.rtime] {
                    row[self.rtime] = Value::Int(t + (k as i64 + 1) * (self.max_rtime + 1));
                }
                row
            })
            .collect();
        Batch::from_rows(self.data.schema().clone(), &rows).expect("suffix batch")
    }
}

/// One `QueryService::append` call as the appender saw it.
#[derive(Clone, Copy)]
struct AppendSample {
    latency: Duration,
    ok: bool,
    /// Made during a traced phase.
    traced: bool,
}

/// A standing query and every change set it delivered.
struct Feed {
    sql: String,
    handle: SubscriptionHandle,
    changes: Vec<ChangeSet>,
}

fn standing_queries(t_mid: i64) -> [String; 3] {
    [
        format!("select epc, rtime, biz_loc from caser where rtime >= {t_mid}"),
        "select epc, rtime from caser order by rtime desc, epc limit 50".into(),
        "select biz_loc, count(*) as n, avg(rtime) as a from caser group by biz_loc".into(),
    ]
}

struct Phase {
    /// In batch order.
    appends: Vec<AppendSample>,
    reads: Run,
}

/// Run the appender and the reader side by side for one phase. Appends
/// are numbered from `first_batch`; each drains the feeds after its call
/// returns (maintenance is synchronous, so the change sets are there).
#[allow(clippy::too_many_arguments)]
fn run_phase(
    svc: &QueryService,
    reader: &Reader,
    batches: &Batches,
    feeds: &mut [Feed],
    first_batch: usize,
    budget: Budget,
    next_read: &AtomicU64,
    tracer: &Tracer,
) -> Phase {
    let phase = budget.start();
    std::thread::scope(|s| {
        let appender = s.spawn(|| {
            let mut out = Vec::new();
            while phase.admits(out.len() as u64) {
                let k = first_batch + out.len();
                let batch = batches.batch(k);
                let id = tracer.open();
                let start = Instant::now();
                let ok = svc.append("caser", batch).is_ok();
                let end = Instant::now();
                tracer.close(id, 0, append_request(k), "service.append", start, end);
                for f in feeds.iter_mut() {
                    while let Ok(Some(cs)) = f.handle.try_next() {
                        f.changes.push(cs);
                    }
                }
                out.push(AppendSample {
                    latency: end - start,
                    ok,
                    traced: false,
                });
            }
            out
        });
        let reads = run_clients(svc, reader, 1, budget, next_read, tracer);
        let appends = appender.join().expect("appender thread panicked");
        Phase { appends, reads }
    })
}

/// Request ids of appends, disjoint from reader request ids.
fn append_request(k: usize) -> u64 {
    (1 << 40) + k as u64
}

/// The first `n` appended batches of the run `cfg` describes, as
/// checksums of their rows.
pub fn inputs(cfg: &Config, n: u64) -> Vec<String> {
    let built = env::build(cfg.scale, &Tracer::new(false), 0);
    let caser = built.system.catalog().get("caser").expect("caser exists");
    let batches = Batches::new(caser.data().clone(), cfg.seed);
    (0..n as usize)
        .map(|k| format!("{:?}", Checksum::of_batch(&batches.batch(k))))
        .collect()
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    let root = cfg
        .work_dir
        .join(format!("ingest-{}-seed{}", std::process::id(), cfg.seed));
    let _cleanup = TempDir(root.clone());
    let _ = std::fs::remove_dir_all(&root);
    let mut out = Outcome::default();
    let (svc, dir, dataset, batches, bootstrap_rows) = set_up(
        cfg,
        tracer,
        &mut out,
        |k, built, span| {
            let dir = root.join(format!("service-{k}"));
            let catalog = built.system.catalog();
            let caser = catalog.get("caser").map_err(|e| e.to_string())?;
            let bootstrap_rows: usize = catalog
                .table_names()
                .iter()
                .map(|t| catalog.get(t).map_or(0, |t| t.num_rows()))
                .sum();
            let batches = Batches::new(caser.data().clone(), cfg.seed);
            let (svc, started) = tracer.span("service.start_durable", span, 0, |_| {
                QueryService::start_durable(
                    built.system,
                    ServiceConfig {
                        workers: 1,
                        ..ServiceConfig::default()
                    },
                    DurableOptions::new(&dir),
                )
            });
            let svc = svc.map_err(|e| format!("durable start: {e}"))?;
            Ok(((svc, dir, built.dataset, batches, bootstrap_rows), started))
        },
        |(svc, dir, ..)| {
            svc.shutdown();
            let _ = std::fs::remove_dir_all(dir);
        },
    )?;
    let epoch0 = svc.snapshot();
    let rules_json = svc.system().rules_to_json();

    let mut feeds: Vec<Feed> = standing_queries(dataset.rtime_quantile(0.5))
        .into_iter()
        .map(|sql| {
            let handle = svc
                .subscribe(
                    APP,
                    &sql,
                    SubscribeOptions::default().with_queue_capacity(64),
                )
                .map_err(|e| format!("subscribe {sql}: {e}"))?;
            Ok(Feed {
                sql,
                handle,
                changes: Vec::new(),
            })
        })
        .collect::<Result<_, String>>()?;
    let reader = Reader(dataset.q1(dataset.rtime_quantile(0.10)));
    let quiet = Tracer::new(false);
    // Warm-up, from request indices no measured phase uses.
    for i in 0..3 {
        one_request(&svc, &reader, (1 << 50) + i, &quiet);
    }

    let next_read = AtomicU64::new(0);
    let budget = cfg.budget.split(phases(cfg.trace).len());
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut cache = Vec::new();
    let mut appends: Vec<AppendSample> = Vec::new();
    for &on in phases(cfg.trace) {
        let t = if on { tracer } else { &quiet };
        cache.push(svc.system().cleanse_cache_stats().unwrap_or_default());
        let phase = run_phase(
            &svc,
            &reader,
            &batches,
            &mut feeds,
            appends.len(),
            budget,
            &next_read,
            t,
        );
        appends.extend(
            phase
                .appends
                .into_iter()
                .map(|a| AppendSample { traced: on, ..a }),
        );
        if on {
            traced.push(phase.reads);
        } else {
            untraced.push(phase.reads);
        }
    }
    let untraced = Run::merge(untraced).expect("an untraced phase");
    let untraced_lat = untraced.latency();
    report_reads(&mut out, &untraced_lat);
    let append_lat = Latency::of(
        &appends
            .iter()
            .filter(|a| !a.traced)
            .map(|a| a.latency)
            .collect::<Vec<_>>(),
        untraced.elapsed,
    );
    out.e2e.set("append_p50_ms", append_lat.p50_ms, "ms");
    out.e2e.set("append_p90_ms", append_lat.p90_ms, "ms");
    out.e2e
        .set("append_samples", append_lat.count as f64, "count");
    out.layers
        .set("append.samples", append_lat.count as f64, "count");
    let traced = Run::merge(traced);
    if let Some(run) = &traced {
        report_overhead(&mut out.layers, &untraced_lat, &run.latency());
        report_service(&mut out.layers, &run.samples, &svc);
        // Phases 1 and 2 are the traced ones.
        let traced_appends = appends.iter().filter(|a| a.traced).count();
        report_cache(&mut out.layers, cache[1], cache[3], traced_appends);
    }
    let reads: Vec<&Sample> = untraced
        .samples
        .iter()
        .chain(traced.iter().flat_map(|r| r.samples.iter()))
        .collect();

    // Checks, all outside the measured phases.
    let mut failed = appends.iter().filter(|a| !a.ok).count() as u64
        + reads.iter().filter(|s| s.checksum.is_none()).count() as u64;
    failed += check_sampled_replies(&svc, &reader, &reads);
    let final_snapshot = svc.snapshot();
    let cold = twin_system(svc.system(), Arc::clone(&final_snapshot.catalog), None);
    let mut cold_window_ops = 0u64;
    for f in &feeds {
        let cold_run = cold.query_snapshot(
            &final_snapshot.catalog,
            APP,
            &f.sql,
            Strategy::Auto,
            dc_core::QueryBudget::unlimited(),
        );
        match cold_run {
            Ok((batch, report)) => {
                cold_window_ops += report.stats.window_accumulator_ops;
                if fold(f) != Some(Checksum::of_batch(&batch)) {
                    failed += 1;
                }
            }
            Err(_) => failed += 1,
        }
    }
    report_stream(&mut out, &feeds, appends.len(), cold_window_ops);

    let stored = dir_bytes(&dir) as f64;
    let rows = (bootstrap_rows + appends.len() * BATCH_ROWS) as f64;
    out.e2e.set("stored_bytes_per_row", stored / rows, "B/row");
    out.layers
        .set("durable.stored_bytes_per_row", stored / rows, "B/row");

    let reader_req = reader.request(0);
    let before_shutdown = svc
        .execute(reader_req.clone())
        .map(|r| Checksum::of_batch(&r.batch))
        .ok();

    if traced.is_some() {
        failed += replay_layers(
            &mut out,
            &svc,
            &reader,
            &next_read,
            &final_snapshot.catalog,
            tracer,
        )?;
        let replays = replay_appends(
            &root.join("replay"),
            &epoch0.catalog,
            &rules_json,
            &batches,
            &appends,
            tracer,
        )?;
        report_append_parts(&mut out, &replays, &appends);
    }

    out.notes.push(describe_cache(&svc));
    drop(feeds);
    drop(final_snapshot);
    drop(epoch0);
    svc.shutdown();
    let (recovered, recover_t) = tracer.span("service.recover", 0, 0, |_| {
        QueryService::recover(
            DurableOptions::new(&dir),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        )
    });
    let recovered = recovered.map_err(|e| format!("recover: {e}"))?;
    out.e2e.set("recover_s", recover_t.as_secs_f64(), "s");
    out.layers
        .set("durable.recover_s", recover_t.as_secs_f64(), "s");
    let after_recovery = recovered
        .execute(reader_req)
        .map(|r| Checksum::of_batch(&r.batch))
        .ok();
    if before_shutdown.is_none() || before_shutdown != after_recovery {
        failed += 1;
    }
    if let Some(stats) = recovered.durable_stats() {
        out.layers.set(
            "durable.records_replayed",
            stats.log_records_replayed as f64,
            "count",
        );
        out.layers.set(
            "durable.segments_loaded",
            stats.segments_loaded_lazy as f64,
            "count",
        );
    }
    recovered.shutdown();
    out.layers.set("append.p50_ms", append_lat.p50_ms, "ms");
    out.layers.set("append.p90_ms", append_lat.p90_ms, "ms");

    // Attempted: every query and append, plus the end-of-run checks (one
    // per sampled reply, one per feed, one for recovery).
    let replays = if traced.is_some() { QUERY_REPLAYS } else { 0 };
    out.attempted =
        (reads.len() + replays + appends.len() + CHECKED_REPLIES.min(reads.len()) + 3 + 1) as u64;
    out.failed = failed;
    out.correct = failed == 0;
    Ok(out)
}

/// Re-run evenly spaced reader replies with `Strategy::Naive` at the
/// epoch they were answered at; count mismatches.
fn check_sampled_replies(svc: &QueryService, reader: &Reader, reads: &[&Sample]) -> u64 {
    let ok: Vec<&&Sample> = reads.iter().filter(|s| s.checksum.is_some()).collect();
    let n = CHECKED_REPLIES.min(ok.len());
    let mut wrong = 0;
    for j in 0..n {
        let s = ok[j * (ok.len() - 1) / (n - 1).max(1)];
        let req = reader.request(0).with_strategy(Strategy::Naive);
        let naive = svc.query_as_of(&req, s.epoch).ok();
        if naive.map(|r| Checksum::of_batch(&r.batch)) != s.checksum {
            wrong += 1;
        }
    }
    wrong
}

/// The feed folded over its initial result, as a checksum; `None` when a
/// change set does not apply (the feed diverged).
fn fold(f: &Feed) -> Option<Checksum> {
    let initial = f.handle.initial();
    let mut rows: Vec<Vec<Value>> = (0..initial.num_rows()).map(|i| initial.row(i)).collect();
    for cs in &f.changes {
        cs.apply(&mut rows).ok()?;
    }
    Some(Checksum::of_rows(&rows))
}

fn report_stream(out: &mut Outcome, feeds: &[Feed], appends: usize, cold_window_ops: u64) {
    let per_append = |f: &dyn Fn(&ChangeSet) -> u64| {
        let total: u64 = feeds.iter().flat_map(|fd| fd.changes.iter()).map(f).sum();
        ratio(total as f64, appends as f64)
    };
    out.layers.set(
        "stream.recleansed_rows",
        per_append(&|cs| cs.stats.exec.maintenance_scoped_rows),
        "rows",
    );
    out.layers.set(
        "stream.delta_rows",
        per_append(&|cs| cs.delta_rows() as u64),
        "rows",
    );
    out.layers.set(
        "stream.fallbacks",
        per_append(&|cs| cs.stats.fallback as u64),
        "count",
    );
    out.layers.set(
        "stream.work_vs_cold",
        ratio(
            per_append(&|cs| cs.stats.exec.window_accumulator_ops),
            cold_window_ops as f64,
        ),
        "ratio",
    );
}

/// At the final epoch, with the appender stopped, send the reader query
/// through the service and replay each request through the layers right
/// after, so both run on the same snapshot; then measure its Φ ratio.
/// Returns the number of replays that failed or answered differently
/// from the service.
fn replay_layers(
    out: &mut Outcome,
    svc: &QueryService,
    reader: &Reader,
    next_read: &AtomicU64,
    catalog: &Arc<dc_relational::table::Catalog>,
    tracer: &Tracer,
) -> Result<u64, String> {
    let twin = twin_system(svc.system(), Arc::clone(catalog), Some(env::CACHE_ENTRIES));
    let req = reader.request(0);
    let quiet = Tracer::new(false);
    // A failing warm-up shows again, and counts, in the replays proper.
    let _ = replay_query(
        &twin,
        catalog,
        APP,
        &req.sql,
        Strategy::Auto,
        false,
        &quiet,
        0,
    );
    let (mut samples, mut replayed, mut wrong) = (Vec::new(), Vec::new(), 0);
    for _ in 0..QUERY_REPLAYS {
        let s = one_request(
            svc,
            reader,
            next_read.fetch_add(1, Ordering::SeqCst),
            tracer,
        );
        let l = replay_query(
            &twin,
            catalog,
            APP,
            &req.sql,
            Strategy::Auto,
            false,
            tracer,
            s.index + 1,
        );
        match l {
            Ok(l) if s.checksum == Some(l.checksum) => replayed.push((s.index, l)),
            _ => wrong += 1,
        }
        samples.push(s);
    }
    report_layers(&mut out.layers, &replayed, &samples);
    let phi = window_rows_ratio(svc.system(), catalog, &[0], |_| req.clone())?;
    out.layers.set("rewrite.phi_rows_vs_naive", phi, "ratio");
    Ok(wrong)
}

/// Replay the first appends, in order, on a catalog and commit log of the
/// benchmark's own, starting from the service's epoch 0.
fn replay_appends(
    dir: &Path,
    epoch0: &dc_relational::table::Catalog,
    rules_json: &str,
    batches: &Batches,
    appends: &[AppendSample],
    tracer: &Tracer,
) -> Result<Vec<AppendParts>, String> {
    let mut replay = AppendReplay::new(epoch0, rules_json, dir)?;
    (0..appends.len().min(APPEND_REPLAY_CAP))
        .map(|k| replay.replay("caser", batches.batch(k), tracer, append_request(k)))
        .collect()
}

fn report_append_parts(out: &mut Outcome, parts: &[AppendParts], appends: &[AppendSample]) {
    let m = |f: &dyn Fn(&AppendParts) -> f64| mean(&parts.iter().map(f).collect::<Vec<_>>());
    out.layers
        .set("wal.bytes_per_append", m(&|p| p.wal_bytes as f64), "B");
    // The `append` call minus its replayed parts: key routing, cleanse
    // cache invalidation and standing-query maintenance.
    let rest: Vec<f64> = parts
        .iter()
        .zip(appends)
        .map(|(p, a)| ms(a.latency) - ms(p.sum()))
        .collect();
    out.layers.set("append.unattributed_ms", mean(&rest), "ms");
}
