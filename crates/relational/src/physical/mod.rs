//! Physical query plans.
//!
//! [`crate::plan::LogicalPlan`] is the optimizer's currency: a declarative
//! tree that says *what* to compute. This module is the execution layer: a
//! tree of operator structs behind the [`PhysicalOperator`] trait that says
//! *how* — every optimizer decision is baked in explicitly by the
//! [`lower::lower`] pass rather than re-derived at runtime:
//!
//! * index-bound candidates for scans ([`scan::PhysicalScan`] carries the
//!   derived per-column range/IN bounds),
//! * redundant-sort elimination (a window whose input is already ordered
//!   lowers *without* a [`sort::PhysicalSort`] in front; one is inserted
//!   otherwise — the physical window operator itself never sorts),
//! * partition-parallel window evaluation ([`window::PhysicalWindow`]
//!   hash-splits the cleansing path's `PARTITION BY` (cluster-key)
//!   partitions across a scoped thread pool when
//!   [`ExecOptions::parallelism`] > 1, with byte-identical results and
//!   identical merged [`ExecStats`] at any parallelism).
//!
//! There is one execution model: every operator materializes its full
//! output as one [`Batch`] through the instrumented
//! [`PhysicalOperator::execute`]. The cleansing plans are chains of pipeline
//! breakers (sort, window, join, aggregate), so a streaming pipeline would
//! only span the short scan → filter → project stretches between them.
//! Batches stay cheap to pass along anyway: column windows are shared
//! `(Arc, offset, len)` views, so [`Batch::slice`] and re-schemaing copy no
//! cell data, and predicates run on typed column kernels.
//!
//! Operators execute against an [`ExecContext`], which carries the catalog,
//! the execution options, the deterministic work counters, and a separate
//! wall-clock channel for window evaluation (timings may differ across
//! parallelism; counters must not).

pub mod aggregate;
pub mod distinct;
pub mod filter;
pub mod hash_join;
pub mod limit;
pub mod lower;
pub mod metrics;
pub mod project;
pub mod scan;
pub mod semi_join;
pub mod sort;
pub mod subquery_alias;
pub mod union;
pub mod window;

pub use lower::lower;
pub use metrics::{DeterministicMetrics, MetricsCollector, OperatorMetrics};

use crate::batch::Batch;
use crate::error::{AbortReason, Error, Result};
use crate::exec::ExecStats;
use crate::table::Catalog;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-query robustness controls, checked cooperatively at operator
/// boundaries (and per window partition on the Φ_C hot path).
///
/// A tripped budget aborts the query with a typed
/// [`Error::Aborted`] — the plan unwinds without producing any partial
/// rows, and shared state (catalog snapshots, the cleansed-sequence cache)
/// is left exactly as consistent as before the run: an immediate re-run
/// succeeds and matches an unbudgeted execution.
///
/// The default budget is unlimited; cloning shares the cancellation token.
#[derive(Debug, Clone, Default)]
pub struct QueryBudget {
    /// Abort once this wall-clock instant passes.
    pub deadline: Option<Instant>,
    /// Abort once more than this many rows have flowed out of operators
    /// (cumulative over the whole plan — a work bound, not a LIMIT).
    pub row_limit: Option<u64>,
    /// Cooperative cancellation token; setting it to `true` aborts the
    /// query at its next checkpoint.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl QueryBudget {
    /// No limits at all (the default).
    pub fn unlimited() -> Self {
        QueryBudget::default()
    }

    /// Abort when `timeout` from now has elapsed.
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Abort at the given absolute instant.
    pub fn with_deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Abort once the plan has moved more than `rows` rows.
    pub fn with_row_limit(mut self, rows: u64) -> Self {
        self.row_limit = Some(rows);
        self
    }

    /// Attach a shared cancellation token.
    pub fn with_cancel(mut self, token: Arc<AtomicBool>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Is any limit configured?
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.row_limit.is_some() || self.cancel.is_some()
    }

    /// Checkpoint: cancellation first (an explicit caller decision), then
    /// the deadline. Called at every operator boundary and per window
    /// partition; must stay cheap when unlimited.
    pub fn check(&self) -> Result<()> {
        if let Some(token) = &self.cancel {
            if token.load(Ordering::Relaxed) {
                return Err(Error::Aborted(AbortReason::Cancelled));
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(Error::Aborted(AbortReason::DeadlineExceeded));
            }
        }
        Ok(())
    }

    /// Row-budget checkpoint against the cumulative rows the plan has
    /// emitted so far.
    pub fn check_rows(&self, rows_emitted: u64) -> Result<()> {
        match self.row_limit {
            Some(limit) if rows_emitted > limit => {
                Err(Error::Aborted(AbortReason::RowLimitExceeded))
            }
            _ => Ok(()),
        }
    }
}

/// Execution knobs threaded from the system facade down to the operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Number of worker threads for partition-parallel operators (the Φ_C
    /// cleansing window path). `1` means serial. Parallelism never changes
    /// results or work counters — only wall-clock.
    pub parallelism: usize,
    /// Run hash-keyed operators (join, aggregation, DISTINCT) on the
    /// retained row-wise `Vec<Value>` path instead of the vectorized hash
    /// kernels. The equivalence oracle for the property suite — results are
    /// identical; the hash-kernel counters simply stay 0.
    pub rowwise_hash: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            parallelism: 1,
            rowwise_hash: false,
        }
    }
}

impl ExecOptions {
    pub fn with_parallelism(parallelism: usize) -> Self {
        ExecOptions {
            parallelism: parallelism.max(1),
            ..ExecOptions::default()
        }
    }

    /// Select the row-wise `Vec<Value>` hash path (the equivalence oracle).
    pub fn with_rowwise_hash(mut self, rowwise: bool) -> Self {
        self.rowwise_hash = rowwise;
        self
    }
}

/// Per-execution state handed to every operator.
pub struct ExecContext<'a> {
    pub catalog: &'a Catalog,
    pub options: ExecOptions,
    /// Deterministic work counters — identical at any parallelism.
    pub stats: ExecStats,
    /// Wall-clock nanoseconds spent evaluating window aggregates (the Φ_C
    /// hot path). Deliberately *not* part of [`ExecStats`]: timings change
    /// with parallelism, counters must not.
    pub window_eval_nanos: u64,
    /// Per-operator metrics tree under construction (see
    /// [`metrics::MetricsCollector`]); driven by the instrumented
    /// [`PhysicalOperator::execute`] wrapper around every operator.
    pub metrics: MetricsCollector,
    /// Per-query robustness budget, checked by the instrumented
    /// [`PhysicalOperator::execute`] wrapper at every operator boundary.
    pub budget: QueryBudget,
    /// Cumulative rows emitted by operators this execution — the quantity
    /// [`QueryBudget::row_limit`] bounds.
    pub rows_emitted: u64,
}

impl<'a> ExecContext<'a> {
    pub fn new(catalog: &'a Catalog, options: ExecOptions) -> Self {
        Self::with_budget(catalog, options, QueryBudget::unlimited())
    }

    /// A context whose execution is bounded by `budget`.
    pub fn with_budget(catalog: &'a Catalog, options: ExecOptions, budget: QueryBudget) -> Self {
        ExecContext {
            catalog,
            options,
            stats: ExecStats::default(),
            window_eval_nanos: 0,
            metrics: MetricsCollector::new(),
            budget,
            rows_emitted: 0,
        }
    }
}

/// A fully-lowered physical operator: executes to a materialized batch.
///
/// Contract:
/// * `execute_op` materializes this operator's full output, recursively
///   executing children (via their instrumented [`execute`]); all work is
///   accounted in `ctx.stats` using the same counter semantics at any
///   `ctx.options.parallelism`, and node-local work (comparisons,
///   partitions) additionally into `ctx.metrics` against the current frame.
/// * Operators perform no plan-level decisions at runtime — what to do
///   (index bounds, sort placement, projections) was fixed by `lower()`;
///   only data-dependent choices (e.g. *which* candidate index bound is
///   most selective on the actual table) remain.
/// * `children` exposes the operator tree for display/inspection and must
///   match the inputs `execute_op` consumes.
///
/// [`execute`]: PhysicalOperator::execute
pub trait PhysicalOperator: std::fmt::Debug {
    /// Operator name for plan rendering, e.g. `"WindowExec"`.
    fn name(&self) -> &'static str;

    /// One-line description including operator-specific detail.
    fn label(&self) -> String {
        self.name().to_string()
    }

    /// Child operators, in execution order.
    fn children(&self) -> Vec<&dyn PhysicalOperator>;

    /// Operator body: execute to a fully materialized batch. Implementations
    /// recurse through the children's `execute`, never `execute_op`.
    fn execute_op(&self, ctx: &mut ExecContext<'_>) -> Result<Batch>;

    /// Instrumented entry point: checks the query budget (cancellation and
    /// deadline) before running, opens a [`metrics::MetricsCollector`]
    /// frame, runs [`execute_op`](PhysicalOperator::execute_op), closes
    /// the frame with the produced row count and the operator's inclusive
    /// wall-clock, and finally charges the produced rows against the row
    /// budget. A tripped budget unwinds with [`Error::Aborted`]; parent
    /// frames are closed on the way out, so metrics stay balanced and no
    /// partial batch escapes. Callers (the executor and parent operators)
    /// always go through this; operators implement `execute_op`.
    fn execute(&self, ctx: &mut ExecContext<'_>) -> Result<Batch> {
        ctx.budget.check()?;
        ctx.metrics.enter(self.name(), self.label());
        let start = Instant::now();
        let result = self.execute_op(ctx);
        let nanos = start.elapsed().as_nanos() as u64;
        let rows_out = result.as_ref().map(|b| b.num_rows() as u64).unwrap_or(0);
        ctx.metrics.exit(rows_out, nanos);
        ctx.rows_emitted += rows_out;
        if result.is_ok() {
            ctx.budget.check_rows(ctx.rows_emitted)?;
        }
        result
    }
}

/// Multi-line EXPLAIN-style rendering of a physical operator tree.
pub fn display_physical(op: &dyn PhysicalOperator) -> String {
    fn walk(op: &dyn PhysicalOperator, depth: usize, out: &mut String) {
        let _ = writeln!(out, "{}{}", "  ".repeat(depth), op.label());
        for c in op.children() {
            walk(c, depth + 1, out);
        }
    }
    let mut out = String::new();
    walk(op, 0, &mut out);
    out
}
