//! Plan execution facade.
//!
//! [`Executor`] is the stable entry point: it lowers a [`LogicalPlan`] to a
//! [`PhysicalOperator`](crate::physical::PhysicalOperator) tree (see
//! [`crate::physical::lower()`]) and runs it against an
//! [`crate::physical::ExecContext`]. It keeps *work counters*
//! (rows scanned, rows sorted, window-aggregate work, join probes) so
//! experiments can report machine-independent effort alongside wall-clock
//! time — the quantities the paper's §6.2 plan analysis reasons about.
//! Counters are deterministic: identical at any
//! [`ExecOptions::parallelism`].

use crate::batch::Batch;
use crate::error::Result;
use crate::physical::{lower, ExecContext, ExecOptions, OperatorMetrics, QueryBudget};
use crate::plan::LogicalPlan;
use crate::table::Catalog;

/// How the bench gate treats a counter in `BENCH_repro.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateClass {
    /// Growth beyond the tolerance fails the gate: the costly quantity.
    Gating,
    /// Reported when it drifts, never gating: its good direction depends
    /// on context (more pruning or more cache hits is better), so a costly
    /// sibling gates instead.
    Informational,
}

/// The counter registry: each work counter is declared once, with its doc
/// and gate class, and the macro derives the [`ExecStats`] struct, its
/// arithmetic, iteration in declaration order, and the class table. Every
/// consumer (per-operator metrics, EXPLAIN ANALYZE, bench rows, the bench
/// gate) iterates the registry, so adding a counter is one line here plus
/// its increment site.
macro_rules! counters {
    ($($(#[doc = $doc:literal])+ $name:ident: $class:ident,)+) => {
        /// Deterministic work counters accumulated during execution.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ExecStats {
            $($(#[doc = $doc])+ pub $name: u64,)+
        }

        impl ExecStats {
            /// Every counter's name and gate class, in declaration order.
            pub const COUNTERS: &'static [(&'static str, GateClass)] =
                &[$((stringify!($name), GateClass::$class),)+];

            pub fn add(&mut self, other: &ExecStats) {
                $(self.$name += other.$name;)+
            }

            /// Subtract `other`, counter by counter. `other` must be an
            /// earlier reading of the same accumulation.
            pub fn sub(&mut self, other: &ExecStats) {
                $(self.$name -= other.$name;)+
            }

            /// `(name, value)` for every counter, in declaration order.
            pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($name), self.$name),)+].into_iter()
            }
        }
    };
}

counters! {
    /// Rows fetched from base tables (after index narrowing, before residual filters).
    rows_scanned: Gating,
    /// Scans answered through an ordered index (more is better;
    /// `full_scans` gates).
    index_scans: Informational,
    /// Scans that had to read the whole table.
    full_scans: Gating,
    /// Rows passed through explicit or window-implied sorts.
    rows_sorted: Gating,
    /// Number of sort operations performed.
    sorts: Gating,
    /// Key comparisons performed by sorts (run detection/verification plus
    /// merging) — the machine-independent sort cost the run-aware pipeline
    /// shrinks.
    sort_comparisons: Gating,
    /// Sorts whose input turned out to be a single non-descending run and
    /// was passed through unchanged (more is better; `sort_comparisons`
    /// gates).
    sorts_elided: Informational,
    /// Pre-sorted runs consumed by k-way merges (sum of k over merging
    /// sorts; elided and fully-degenerate sorts contribute 0 and n).
    /// Informational: `sort_comparisons` gates.
    merge_runs_used: Informational,
    /// Window accumulator operations: values entering or leaving a sliding
    /// aggregate state (plus per-frame recomputation work on the fallback
    /// path). Amortized O(1) per row for the incremental kernels, so this
    /// grows with partition size, not frame width. Identical at any
    /// parallelism.
    window_accumulator_ops: Gating,
    /// Hash-join probe operations (one per probe-side row).
    join_probes: Gating,
    /// Window partitions evaluated (the unit of Φ_C parallel distribution;
    /// counted identically at any parallelism).
    partitions: Gating,
    /// Segments considered by zone-map pruning across filtered scans.
    /// Informational: `segments_scanned` gates.
    segments_total: Informational,
    /// Segments skipped because their zone maps exclude the scan predicate
    /// (more is better; `segments_scanned` gates).
    segments_pruned: Informational,
    /// Segments that survived pruning (total − pruned).
    segments_scanned: Gating,
    /// Cleansed-sequence cache hits (join-back rewrite with caching on;
    /// more is better, `cache_misses` gates).
    cache_hits: Informational,
    /// Cleansed-sequence cache misses: each one re-runs cleansing work.
    cache_misses: Gating,
    /// Cleansed-sequence cache entries invalidated by appends.
    /// Informational: `cache_misses` gates.
    cache_invalidations: Informational,
    /// Partial rows received from shard executors and combined by the
    /// scatter-gather coordinator (0 for unsharded execution). Growth means
    /// a shard stopped finishing its work locally (e.g. an aggregate no
    /// longer lowers to per-shard partials).
    shard_rows_merged: Gating,
    /// Delta rows applied to standing-query state (inserted + deleted +
    /// updated rows across incremental maintenance steps; 0 outside the
    /// streaming subsystem).
    maintenance_delta_rows: Gating,
    /// Rows scanned by ckey-scoped maintenance re-executions — the
    /// incremental work a standing query pays per publish, compared by the
    /// bench gate against the cost of full recomputation.
    maintenance_scoped_rows: Gating,
    /// Maintenance steps that fell back to full recompute-and-diff.
    maintenance_fallbacks: Gating,
    /// Per-value hash computations by the vectorized hash kernels (rows ×
    /// key columns across join build/probe, aggregation, DISTINCT, and
    /// scatter merge). 0 on the row-wise oracle path. Growth means more
    /// rows or more key columns reached a hash operator.
    hash_ops: Gating,
    /// Full 64-bit hash matches whose normalized keys compared unequal —
    /// genuine collisions resolved by memcmp. Data-dependent, so
    /// informational: `hash_ops` gates.
    hash_collisions: Informational,
    /// Normalized-key memcmps on candidate (hash-equal) table entries
    /// (tracks table sizes; `hash_ops` gates).
    probe_memcmps: Informational,
    /// Bytes written into normalized-key arenas (tracks table sizes;
    /// `hash_ops` gates).
    key_bytes_encoded: Informational,
}

/// Executes logical plans against a catalog.
pub struct Executor<'a> {
    catalog: &'a Catalog,
    options: ExecOptions,
    budget: QueryBudget,
    pub stats: ExecStats,
    /// Wall-clock nanoseconds spent in window evaluation across all plans
    /// this executor ran. Not part of [`ExecStats`]: timings vary with
    /// parallelism, counters must not.
    pub window_eval_nanos: u64,
    /// Per-operator metrics tree of the *most recent* plan this executor
    /// ran (EXPLAIN ANALYZE data source). Unlike `stats`, which accumulates
    /// across plans, each `execute` replaces this.
    pub metrics: Option<OperatorMetrics>,
}

impl<'a> Executor<'a> {
    pub fn new(catalog: &'a Catalog) -> Self {
        Self::with_options(catalog, ExecOptions::default())
    }

    pub fn with_options(catalog: &'a Catalog, options: ExecOptions) -> Self {
        Self::with_budget(catalog, options, QueryBudget::unlimited())
    }

    /// An executor whose plans run under a [`QueryBudget`] (deadline, row
    /// budget, cooperative cancellation). A tripped budget surfaces as
    /// [`crate::error::Error::Aborted`] with no partial result.
    pub fn with_budget(catalog: &'a Catalog, options: ExecOptions, budget: QueryBudget) -> Self {
        Executor {
            catalog,
            options,
            budget,
            stats: ExecStats::default(),
            window_eval_nanos: 0,
            metrics: None,
        }
    }

    /// Execute a plan to a fully materialized batch: lower to a physical
    /// operator tree, then run its root through the instrumented
    /// [`PhysicalOperator::execute`](crate::physical::PhysicalOperator::execute),
    /// each operator materializing its whole output.
    pub fn execute(&mut self, plan: &LogicalPlan) -> Result<Batch> {
        let physical = lower(plan, self.catalog)?;
        let mut ctx = ExecContext::with_budget(self.catalog, self.options, self.budget.clone());
        let out = physical.execute(&mut ctx);
        self.stats.add(&ctx.stats);
        self.window_eval_nanos += ctx.window_eval_nanos;
        self.metrics = ctx.metrics.finish();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggExpr, AggFunc};
    use crate::batch::schema_ref;
    use crate::expr::{BinaryOp, Expr};
    use crate::join::JoinType;
    use crate::physical::display_physical;
    use crate::schema::{Field, Schema};
    use crate::sort::SortKey;
    use crate::table::Table;
    use crate::value::{DataType, Value};
    use crate::window::{Frame, FrameBound, WindowExpr, WindowFuncKind};

    fn catalog() -> Catalog {
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
            Field::new("biz_loc", DataType::Str),
        ]));
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                vec![
                    Value::str(format!("e{}", i % 10)),
                    Value::Int(i),
                    Value::str(if i % 2 == 0 { "locA" } else { "locB" }),
                ]
            })
            .collect();
        let b = Batch::from_rows(schema, &rows).unwrap();
        let mut t = Table::new("r", b);
        t.create_index("rtime").unwrap();
        t.create_index("epc").unwrap();
        let cat = Catalog::new();
        cat.register(t);
        cat
    }

    #[test]
    fn index_scan_narrows_fetch() {
        let cat = catalog();
        let plan = LogicalPlan::Scan {
            table: "r".into(),
            alias: None,
            filter: Some(Expr::col("rtime").lt(Expr::lit(10i64))),
        };
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 10);
        assert_eq!(ex.stats.rows_scanned, 10);
        assert_eq!(ex.stats.index_scans, 1);
        assert_eq!(ex.stats.full_scans, 0);
    }

    #[test]
    fn segmented_scan_prunes_by_zone_map() {
        // Same data as `catalog()` but sealed into 10-row segments. rtime is
        // monotone, so `rtime < 10` admits exactly one segment — and no
        // index exists, so the fetch itself is segment-pruned.
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
        ]));
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::str(format!("e{}", i % 10)), Value::Int(i)])
            .collect();
        let b = Batch::from_rows(schema, &rows).unwrap();
        let cat = Catalog::new();
        cat.register(Table::with_segment_rows("r", b, 10));
        let plan = LogicalPlan::Scan {
            table: "r".into(),
            alias: None,
            filter: Some(Expr::col("rtime").lt(Expr::lit(10i64))),
        };
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 10);
        assert_eq!(ex.stats.full_scans, 1);
        assert_eq!(
            ex.stats.rows_scanned, 10,
            "only the surviving segment is fetched"
        );
        assert_eq!(ex.stats.segments_total, 10);
        assert_eq!(ex.stats.segments_pruned, 9);
        assert_eq!(ex.stats.segments_scanned, 1);
        let m = ex.metrics.as_ref().unwrap();
        assert!(m
            .render_text(false)
            .contains("segments_total=10 segments_pruned=9 segments_scanned=1"));
    }

    #[test]
    fn monolithic_table_never_prunes() {
        // A single-segment table with a filtered scan: counters record the
        // decision (1 segment considered, 0 pruned), results unchanged.
        let cat = catalog();
        let plan = LogicalPlan::Scan {
            table: "r".into(),
            alias: None,
            filter: Some(Expr::col("rtime").lt(Expr::lit(10i64))),
        };
        let mut ex = Executor::new(&cat);
        ex.execute(&plan).unwrap();
        assert_eq!(ex.stats.segments_total, 1);
        assert_eq!(ex.stats.segments_pruned, 0);
        assert_eq!(ex.stats.segments_scanned, 1);
    }

    #[test]
    fn unindexed_filter_full_scans() {
        let cat = catalog();
        let plan = LogicalPlan::Scan {
            table: "r".into(),
            alias: None,
            filter: Some(Expr::col("biz_loc").eq(Expr::lit("locA"))),
        };
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 50);
        assert_eq!(ex.stats.full_scans, 1);
        assert_eq!(ex.stats.rows_scanned, 100);
    }

    #[test]
    fn residual_applied_after_index() {
        let cat = catalog();
        // rtime < 10 uses the index, biz_loc = 'locA' is residual.
        let plan = LogicalPlan::Scan {
            table: "r".into(),
            alias: None,
            filter: Some(
                Expr::col("rtime")
                    .lt(Expr::lit(10i64))
                    .and(Expr::col("biz_loc").eq(Expr::lit("locA"))),
            ),
        };
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 5);
        assert_eq!(ex.stats.rows_scanned, 10);
    }

    #[test]
    fn combined_range_bounds() {
        let cat = catalog();
        let plan = LogicalPlan::Scan {
            table: "r".into(),
            alias: None,
            filter: Some(
                Expr::col("rtime")
                    .gt_eq(Expr::lit(20i64))
                    .and(Expr::col("rtime").lt(Expr::lit(30i64))),
            ),
        };
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 10);
        assert_eq!(ex.stats.rows_scanned, 10);
    }

    #[test]
    fn in_list_uses_index() {
        let cat = catalog();
        let plan = LogicalPlan::Scan {
            table: "r".into(),
            alias: None,
            filter: Some(Expr::InList {
                expr: Box::new(Expr::col("epc")),
                list: vec![Value::str("e1"), Value::str("e2")],
                negated: false,
            }),
        };
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 20);
        assert_eq!(ex.stats.rows_scanned, 20);
        assert_eq!(ex.stats.index_scans, 1);
    }

    fn count_window(presorted: bool) -> LogicalPlan {
        LogicalPlan::Window {
            input: Box::new(if presorted {
                LogicalPlan::scan("r").sort(vec![
                    SortKey::asc(Expr::col("epc")),
                    SortKey::asc(Expr::col("rtime")),
                ])
            } else {
                LogicalPlan::scan("r")
            }),
            partition_by: vec![Expr::col("epc")],
            order_by: vec![SortKey::asc(Expr::col("rtime"))],
            exprs: vec![WindowExpr {
                func: WindowFuncKind::Count,
                arg: None,
                frame: Frame::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow),
                alias: "n".into(),
            }],
            presorted,
        }
    }

    #[test]
    fn window_sorts_unless_presorted() {
        let cat = catalog();
        let mut ex = Executor::new(&cat);
        ex.execute(&count_window(false)).unwrap();
        assert_eq!(ex.stats.sorts, 1);

        let mut ex2 = Executor::new(&cat);
        ex2.execute(&count_window(true)).unwrap();
        // One explicit sort; the window node itself does not re-sort.
        assert_eq!(ex2.stats.sorts, 1);
    }

    #[test]
    fn window_counts_partitions() {
        let cat = catalog();
        let mut ex = Executor::new(&cat);
        ex.execute(&count_window(false)).unwrap();
        // 10 distinct epc values → 10 partitions, at any parallelism.
        assert_eq!(ex.stats.partitions, 10);

        let mut par = Executor::with_options(&cat, ExecOptions::with_parallelism(4));
        par.execute(&count_window(false)).unwrap();
        assert_eq!(par.stats, ex.stats);
    }

    #[test]
    fn parallel_window_matches_serial() {
        fn rows_of(b: &Batch) -> Vec<Vec<Value>> {
            (0..b.num_rows()).map(|i| b.row(i)).collect()
        }
        let cat = catalog();
        let mut serial = Executor::new(&cat);
        let expected = serial.execute(&count_window(false)).unwrap();
        for p in [2, 3, 8, 64] {
            let mut par = Executor::with_options(&cat, ExecOptions::with_parallelism(p));
            let got = par.execute(&count_window(false)).unwrap();
            assert_eq!(rows_of(&got), rows_of(&expected), "parallelism {p}");
            assert_eq!(par.stats, serial.stats, "parallelism {p}");
        }
    }

    #[test]
    fn lowered_plan_shape() {
        let cat = catalog();
        // Unsorted window input → explicit SortExec under the WindowExec.
        let physical = lower(&count_window(false), &cat).unwrap();
        let shown = display_physical(physical.as_ref());
        let names: Vec<&str> = shown.lines().map(|l| l.trim()).collect();
        assert!(names[0].starts_with("WindowExec"), "{shown}");
        assert!(names[1].starts_with("SortExec"), "{shown}");
        assert!(names[2].starts_with("ScanExec"), "{shown}");

        // Presorted window input → no extra sort inserted.
        let physical = lower(&count_window(true), &cat).unwrap();
        let shown = display_physical(physical.as_ref());
        assert_eq!(
            shown.lines().filter(|l| l.contains("SortExec")).count(),
            1,
            "{shown}"
        );
    }

    #[test]
    fn scan_carries_index_candidates() {
        let cat = catalog();
        let plan = LogicalPlan::Scan {
            table: "r".into(),
            alias: None,
            filter: Some(
                Expr::col("rtime")
                    .lt(Expr::lit(10i64))
                    .and(Expr::col("biz_loc").eq(Expr::lit("locA"))),
            ),
        };
        let physical = lower(&plan, &cat).unwrap();
        // biz_loc equality also yields a candidate bound; rtime is listed
        // first (column-position order). Only rtime is actually indexed —
        // the runtime pick is data-dependent.
        assert!(
            physical
                .label()
                .contains("index_candidates=[rtime, biz_loc]"),
            "{}",
            physical.label()
        );
    }

    #[test]
    fn budget_aborts_cooperatively() {
        use crate::error::{AbortReason, Error};
        use crate::physical::QueryBudget;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        use std::time::Duration;

        let cat = catalog();
        // A pre-set cancellation token aborts at the first checkpoint.
        let token = Arc::new(AtomicBool::new(false));
        token.store(true, Ordering::Relaxed);
        let mut ex = Executor::with_budget(
            &cat,
            ExecOptions::default(),
            QueryBudget::unlimited().with_cancel(Arc::clone(&token)),
        );
        assert!(matches!(
            ex.execute(&count_window(false)),
            Err(Error::Aborted(AbortReason::Cancelled))
        ));

        // An already-expired deadline aborts.
        let mut ex = Executor::with_budget(
            &cat,
            ExecOptions::default(),
            QueryBudget::unlimited().with_deadline(Duration::ZERO),
        );
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(
            ex.execute(&count_window(false)),
            Err(Error::Aborted(AbortReason::DeadlineExceeded))
        ));

        // A row budget smaller than the scan output aborts; the same plan
        // re-runs cleanly on an unlimited executor (no state was corrupted).
        let mut ex = Executor::with_budget(
            &cat,
            ExecOptions::default(),
            QueryBudget::unlimited().with_row_limit(5),
        );
        assert!(matches!(
            ex.execute(&count_window(false)),
            Err(Error::Aborted(AbortReason::RowLimitExceeded))
        ));
        let mut ok = Executor::new(&cat);
        assert_eq!(ok.execute(&count_window(false)).unwrap().num_rows(), 100);

        // A generous budget changes nothing: results and counters match an
        // unbudgeted run, at serial and parallel execution alike.
        for p in [1, 4] {
            let mut budgeted = Executor::with_budget(
                &cat,
                ExecOptions::with_parallelism(p),
                QueryBudget::unlimited()
                    .with_row_limit(1_000_000)
                    .with_deadline(Duration::from_secs(3600))
                    .with_cancel(Arc::new(AtomicBool::new(false))),
            );
            let b = budgeted.execute(&count_window(false)).unwrap();
            let mut plain = Executor::new(&cat);
            let expect = plain.execute(&count_window(false)).unwrap();
            assert_eq!(
                (0..b.num_rows()).map(|i| b.row(i)).collect::<Vec<_>>(),
                (0..expect.num_rows())
                    .map(|i| expect.row(i))
                    .collect::<Vec<_>>()
            );
            assert_eq!(budgeted.stats, plain.stats);
        }
    }

    #[test]
    fn end_to_end_group_by() {
        let cat = catalog();
        let plan = LogicalPlan::scan("r")
            .filter(Expr::col("rtime").lt(Expr::lit(50i64)))
            .aggregate(
                vec![(Expr::col("biz_loc"), "loc".into())],
                vec![AggExpr {
                    func: AggFunc::CountStar,
                    alias: "n".into(),
                }],
            );
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 2);
        let total: i64 = (0..2).map(|i| out.row(i)[1].as_int().unwrap()).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn join_and_semi_join() {
        let cat = catalog();
        let dim_schema = schema_ref(Schema::new(vec![Field::new("gln", DataType::Str)]));
        let dim = Batch::from_rows(dim_schema, &[vec![Value::str("locA")]]).unwrap();
        cat.register(Table::new("locs", dim));
        let plan = LogicalPlan::scan_as("r", "c").join(
            LogicalPlan::scan_as("locs", "l"),
            vec![Expr::col("c.biz_loc")],
            vec![Expr::col("l.gln")],
            JoinType::Inner,
        );
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 50);
        assert_eq!(ex.stats.join_probes, 100);

        let plan = LogicalPlan::scan_as("r", "c").join(
            LogicalPlan::scan_as("locs", "l"),
            vec![Expr::col("c.biz_loc")],
            vec![Expr::col("l.gln")],
            JoinType::LeftSemi,
        );
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 50);
        assert_eq!(out.num_columns(), 3);
    }

    #[test]
    fn union_and_limit() {
        let cat = catalog();
        let plan = LogicalPlan::Union {
            inputs: vec![LogicalPlan::scan("r"), LogicalPlan::scan("r")],
        }
        .limit(150);
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 150);
    }

    #[test]
    fn project_renames() {
        let cat = catalog();
        let plan = LogicalPlan::scan("r").project(vec![
            (Expr::col("epc"), "tag".into()),
            (
                Expr::binary(Expr::col("rtime"), BinaryOp::Plus, Expr::lit(1000i64)),
                "shifted".into(),
            ),
        ]);
        let mut ex = Executor::new(&cat);
        let out = ex.execute(&plan).unwrap();
        assert_eq!(out.schema().field(0).name, "tag");
        assert_eq!(out.column_by_name("shifted").unwrap().int_at(0), Some(1000));
    }
}
