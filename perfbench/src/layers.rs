//! Layer-by-layer replays for the traced run.
//!
//! The service runs parse → plan → rewrite → lower → execute inside its
//! workers, out of the benchmark's reach. To attribute a query's time to
//! those layers, the traced run replays the query through the same public
//! functions, one span per call, on the snapshot the service answered
//! from. Appends are replayed the same way on a catalog and commit log the
//! benchmark owns: catalog append, segment write, epoch commit (the fsync),
//! publish.

use crate::check::Checksum;
use crate::span::Tracer;
use dc_core::{DeferredCleansingSystem, QueryBudget, ShardLog, Strategy};
use dc_log::LogDir;
use dc_relational::batch::Batch;
use dc_relational::exec::ExecStats;
use dc_relational::physical::{lower, OperatorMetrics};
use dc_relational::sql::{parse_query, plan_query};
use dc_relational::table::Catalog;
use dc_rewrite::RewriteEngine;
use dc_service::SnapshotCell;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Operator classes whose self time is reported, in metric order.
pub const OP_CLASSES: [&str; 8] = [
    "scan",
    "filter",
    "sort",
    "window",
    "hash_join",
    "semi_join",
    "aggregate",
    "other",
];

fn op_class(name: &str) -> usize {
    match name {
        "ScanExec" => 0,
        "FilterExec" => 1,
        "SortExec" => 2,
        "WindowExec" => 3,
        "HashJoinExec" => 4,
        "SemiJoinExec" => 5,
        "AggregateExec" => 6,
        _ => 7,
    }
}

/// What one executed plan did, read from its `OperatorMetrics` tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpBreakdown {
    /// Self time (`wall_nanos` minus the children's) per [`OP_CLASSES`].
    pub self_ns: [u64; 8],
    /// Rows fetched by scans of the reads table `caser`.
    pub scanned_caser: u64,
    /// Rows fetched by scans of dimension tables.
    pub scanned_dims: u64,
    /// Rows fetched from cache-assembled cleansed sequences.
    pub scanned_cached: u64,
    /// Rows entering window operators (the cleansing work Φ is given).
    pub window_rows_in: u64,
}

impl OpBreakdown {
    pub fn of(metrics: Option<&OperatorMetrics>) -> Self {
        let mut out = OpBreakdown::default();
        if let Some(m) = metrics {
            out.walk(m);
        }
        out
    }

    fn walk(&mut self, m: &OperatorMetrics) {
        let children: u64 = m.children.iter().map(|c| c.wall_nanos).sum();
        self.self_ns[op_class(&m.name)] += m.wall_nanos.saturating_sub(children);
        match m.name.as_str() {
            "ScanExec" => {
                let table = m
                    .label
                    .strip_prefix("ScanExec: ")
                    .and_then(|rest| rest.split_whitespace().next())
                    .unwrap_or("");
                if table == "caser" {
                    self.scanned_caser += m.rows_in;
                } else if table.starts_with("__cleansed__") {
                    self.scanned_cached += m.rows_in;
                } else {
                    self.scanned_dims += m.rows_in;
                }
            }
            "WindowExec" => self.window_rows_in += m.rows_in,
            _ => {}
        }
        for c in &m.children {
            self.walk(c);
        }
    }
}

/// One query replayed through the layers.
#[derive(Debug, Clone)]
pub struct QueryLayers {
    pub parse: Duration,
    pub plan: Duration,
    pub rewrite: Duration,
    pub exec: Duration,
    pub candidates: usize,
    /// The chosen candidate's row estimate (`None` when the rewrite made
    /// no costed choice, e.g. a forced naive plan).
    pub est_rows: Option<f64>,
    pub actual_rows: usize,
    pub stats: ExecStats,
    pub ops: OpBreakdown,
    pub checksum: Checksum,
}

impl QueryLayers {
    /// Parse + plan + rewrite + execute: the work a service worker does.
    /// Lowering is timed on its own span, but `execute` lowers again
    /// inside, so it is not added a second time.
    pub fn worker_sum(&self) -> Duration {
        self.parse + self.plan + self.rewrite + self.exec
    }
}

/// Replay `sql` for `app` through parse, plan, rewrite, lower and execute
/// against `catalog`, each call in its own span under a `replay.query`
/// root. Execution goes through `system`'s cleansed-sequence cache unless
/// `uncached`.
#[allow(clippy::too_many_arguments)]
pub fn replay_query(
    system: &DeferredCleansingSystem,
    catalog: &Catalog,
    app: &str,
    sql: &str,
    strategy: Strategy,
    uncached: bool,
    tracer: &Tracer,
    request: u64,
) -> dc_relational::error::Result<QueryLayers> {
    let root = tracer.open();
    let start = Instant::now();
    let (ast, parse) = tracer.span("sql.parse_query", root, request, |_| parse_query(sql));
    let (plan, plan_t) = tracer.span("sql.plan_query", root, request, |_| {
        plan_query(&ast?, catalog)
    });
    let plan = plan?;
    let rules = system.rules().rules_for(app);
    let engine = RewriteEngine::new();
    let (rewritten, rewrite) = tracer.span("rewrite.rewrite_plan", root, request, |_| {
        engine.rewrite_plan(&plan, &rules, catalog, strategy)
    });
    let rewritten = rewritten?;
    let (physical, _) = tracer.span("physical.lower", root, request, |_| {
        lower(&rewritten.plan, catalog)
    });
    drop(physical?);
    let (run, exec) = tracer.span("exec.execute_rewritten_snapshot", root, request, |_| {
        let budget = QueryBudget::unlimited();
        if uncached {
            system.execute_rewritten_snapshot_uncached(catalog, &rewritten, budget)
        } else {
            system.execute_rewritten_snapshot(catalog, &rewritten, budget)
        }
    });
    let run = run?;
    tracer.close(root, 0, request, "replay.query", start, Instant::now());
    let est_rows = rewritten
        .candidates
        .iter()
        .find(|c| c.label == rewritten.chosen)
        .map(|c| c.est_rows);
    Ok(QueryLayers {
        parse,
        plan: plan_t,
        rewrite,
        exec,
        candidates: rewritten.candidates.len(),
        est_rows,
        actual_rows: run.batch.num_rows(),
        ops: OpBreakdown::of(run.metrics.as_ref()),
        stats: run.stats,
        checksum: Checksum::of_batch(&run.batch),
    })
}

/// A system over `catalog` with `source`'s rules, for replays. With
/// `cache_entries` it gets a cleansed-sequence cache of its own, which a
/// replay of the same query sequence fills the way the service's did.
pub fn twin_system(
    source: &DeferredCleansingSystem,
    catalog: Arc<Catalog>,
    cache_entries: Option<usize>,
) -> DeferredCleansingSystem {
    let mut twin = DeferredCleansingSystem::with_catalog(catalog);
    twin.set_parallelism(source.exec_options().parallelism);
    twin.load_rules_from_json(&source.rules_to_json())
        .expect("rules round-trip through JSON");
    if let Some(n) = cache_entries {
        twin.enable_cleanse_cache(n);
    }
    twin
}

/// Time of each part of one replayed append.
#[derive(Debug, Clone, Copy, Default)]
pub struct AppendParts {
    /// `Catalog::overlay` + `Catalog::append`.
    pub storage: Duration,
    /// `ShardLog::log_table_append`: segment files and their records.
    pub segment_write: Duration,
    /// `ShardLog::commit_epoch`: the commit record and its fsync.
    pub commit_fsync: Duration,
    /// `SnapshotCell::publish`.
    pub publish: Duration,
    /// Bytes the append added under the log directory.
    pub wal_bytes: u64,
}

impl AppendParts {
    pub fn sum(&self) -> Duration {
        self.storage + self.segment_write + self.commit_fsync + self.publish
    }
}

/// A catalog + commit log + snapshot cell owned by the benchmark, which
/// replays the service's appends one public call at a time.
pub struct AppendReplay {
    cell: SnapshotCell,
    log: ShardLog,
    dir: PathBuf,
    epoch: u64,
}

impl AppendReplay {
    /// Bootstrap a commit log for `base` (epoch 0) under `dir`.
    pub fn new(base: &Catalog, rules_json: &str, dir: &Path) -> Result<Self, String> {
        let logdir = LogDir::create(dir).map_err(|e| e.to_string())?;
        let mut log = ShardLog::create(logdir).map_err(|e| e.to_string())?;
        log.log_bootstrap(base, 0, rules_json)
            .map_err(|e| e.to_string())?;
        Ok(AppendReplay {
            cell: SnapshotCell::new(Arc::new(base.overlay())),
            log,
            dir: dir.to_path_buf(),
            epoch: 0,
        })
    }

    pub fn replay(
        &mut self,
        table: &str,
        batch: Batch,
        tracer: &Tracer,
        request: u64,
    ) -> Result<AppendParts, String> {
        let root = tracer.open();
        let start = Instant::now();
        let current = self.cell.load();
        let prev_segments = current
            .catalog
            .get(table)
            .map_err(|e| e.to_string())?
            .segments()
            .len();
        let ((next, appended), storage) = tracer.span("storage.append", root, request, |_| {
            let next = current.catalog.overlay();
            let appended = next.append(table, batch);
            (next, appended)
        });
        let appended = appended.map_err(|e| e.to_string())?;
        self.epoch += 1;
        let before = dir_bytes(&self.dir);
        let (written, segment_write) = tracer.span("wal.log_table_append", root, request, |_| {
            self.log
                .log_table_append(&appended, prev_segments, self.epoch)
        });
        written.map_err(|e| e.to_string())?;
        let (committed, commit_fsync) = tracer.span("wal.commit_epoch", root, request, |_| {
            self.log.commit_epoch(self.epoch)
        });
        committed.map_err(|e| e.to_string())?;
        let wal_bytes = dir_bytes(&self.dir).saturating_sub(before);
        let (_, publish) = tracer.span("service.publish", root, request, |_| {
            self.cell.publish(next)
        });
        tracer.close(root, 0, request, "replay.append", start, Instant::now());
        Ok(AppendParts {
            storage,
            segment_write,
            commit_fsync,
            publish,
            wal_bytes,
        })
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
