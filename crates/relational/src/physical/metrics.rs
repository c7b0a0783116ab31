//! Per-operator execution metrics — the observability backbone.
//!
//! Every [`PhysicalOperator`](super::PhysicalOperator) execution records one
//! [`OperatorMetrics`] node; nesting mirrors the operator tree, so an
//! `EXPLAIN ANALYZE` rendering can annotate each plan node with exactly the
//! work it did. Two kinds of quantities live side by side and must never be
//! conflated:
//!
//! * **deterministic counters** — rows in/out and the node's own share of
//!   the registry counters ([`ExecStats`]). These are pure functions of
//!   plan + data: identical at any
//!   [`ExecOptions::parallelism`](super::ExecOptions), and the quantities
//!   the CI perf-regression gate diffs. Operators record work once, into
//!   `ctx.stats`; the collector attributes it to the frame it happened in,
//!   so the node counters summed over the tree equal the query's totals;
//! * **timing** — inclusive wall-clock nanoseconds per operator (children
//!   included, as in PostgreSQL's `EXPLAIN ANALYZE`). Every operator runs
//!   its children to completion inside its own frame, so an operator's
//!   self time is exactly its inclusive time minus its children's.
//!   Reported, never gated and never part of equality: timings change run
//!   to run.
//!
//! [`OperatorMetrics::deterministic`] zeroes the latter, which is what tests
//! compare across parallelism levels.

use crate::exec::ExecStats;
use dc_json::Json;
use std::fmt::Write as _;

/// Metrics for one executed physical operator, with children mirroring the
/// operator tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorMetrics {
    /// Operator name, e.g. `"WindowExec"`.
    pub name: String,
    /// Full one-line label (operator-specific detail included).
    pub label: String,
    /// Rows consumed: the sum of the children's `rows_out`, except for
    /// leaves that fetch data themselves (a scan records rows fetched from
    /// the table, before residual filtering).
    pub rows_in: u64,
    /// Rows produced by this operator.
    pub rows_out: u64,
    /// The work this node did itself, its children's excluded.
    pub stats: ExecStats,
    /// Inclusive wall-clock (children included). Timing, not a counter:
    /// zeroed by [`OperatorMetrics::deterministic`].
    pub wall_nanos: u64,
    pub children: Vec<OperatorMetrics>,
}

impl OperatorMetrics {
    /// The tree with every timing zeroed: two executions of the same plan
    /// over the same data give equal results at any parallelism.
    pub fn deterministic(&self) -> OperatorMetrics {
        OperatorMetrics {
            name: self.name.clone(),
            label: self.label.clone(),
            rows_in: self.rows_in,
            rows_out: self.rows_out,
            stats: self.stats,
            wall_nanos: 0,
            children: self.children.iter().map(Self::deterministic).collect(),
        }
    }

    /// Merge another shard's metrics tree into this one. The trees must
    /// have the same shape (same operator names and child counts — which
    /// holds whenever every shard executed the same plan): counters and
    /// wall-clock add node by node, yielding the coordinator's combined
    /// view. The deterministic projection of the merged tree equals the
    /// per-shard sums regardless of shard execution order. Returns `false`
    /// (leaving `self` partially merged) on a shape mismatch; callers
    /// should then drop the combined tree rather than report a torn one.
    #[must_use]
    pub fn merge_same_shape(&mut self, other: &OperatorMetrics) -> bool {
        if self.name != other.name || self.children.len() != other.children.len() {
            return false;
        }
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.stats.add(&other.stats);
        self.wall_nanos += other.wall_nanos;
        self.children
            .iter_mut()
            .zip(&other.children)
            .all(|(a, b)| a.merge_same_shape(b))
    }

    /// The node counters summed over the whole tree.
    pub fn total_stats(&self) -> ExecStats {
        let mut total = self.stats;
        for c in &self.children {
            total.add(&c.total_stats());
        }
        total
    }

    /// Number of operator nodes in the tree.
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(Self::node_count).sum::<usize>()
    }

    /// Indented `EXPLAIN ANALYZE` rendering: rows in/out, then every
    /// nonzero node counter. With `with_timing` the inclusive per-operator
    /// wall-clock is appended to every line.
    pub fn render_text(&self, with_timing: bool) -> String {
        fn walk(m: &OperatorMetrics, depth: usize, with_timing: bool, out: &mut String) {
            let _ = write!(
                out,
                "{}{} (rows_in={} rows_out={}",
                "  ".repeat(depth),
                m.label,
                m.rows_in,
                m.rows_out
            );
            for (name, v) in m.stats.iter().filter(|&(_, v)| v > 0) {
                let _ = write!(out, " {name}={v}");
            }
            if with_timing {
                let _ = write!(out, " time={:.3}ms", m.wall_nanos as f64 / 1e6);
            }
            let _ = writeln!(out, ")");
            for c in &m.children {
                walk(c, depth + 1, with_timing, out);
            }
        }
        let mut out = String::new();
        walk(self, 0, with_timing, &mut out);
        out
    }

    /// Machine-readable tree carrying every node counter. Timing is emitted
    /// under the `time_ms` key only when requested so deterministic
    /// snapshots stay byte-stable.
    pub fn to_json(&self, with_timing: bool) -> Json {
        let mut obj = Json::obj()
            .set("operator", self.name.as_str())
            .set("label", self.label.as_str())
            .set("rows_in", self.rows_in)
            .set("rows_out", self.rows_out);
        for (name, v) in self.stats.iter() {
            obj = obj.set(name, v);
        }
        if with_timing {
            obj = obj.set("time_ms", Json::Num(self.wall_nanos as f64 / 1e6));
        }
        obj.set(
            "children",
            Json::Arr(
                self.children
                    .iter()
                    .map(|c| c.to_json(with_timing))
                    .collect(),
            ),
        )
    }
}

/// One operator frame while its `execute` is on the stack.
#[derive(Debug)]
struct PendingNode {
    name: &'static str,
    label: String,
    /// Explicitly recorded input rows (scans); defaults to the sum of the
    /// children's `rows_out` when absent.
    rows_in: Option<u64>,
    /// Work counted while this frame was the innermost one.
    stats: ExecStats,
    children: Vec<OperatorMetrics>,
}

/// Builds the [`OperatorMetrics`] tree as operators execute. The
/// instrumented [`PhysicalOperator::execute`](super::PhysicalOperator::execute)
/// wrapper drives `enter`/`exit` with the execution's running counters;
/// whatever they grew by while a frame was the innermost one is that
/// operator's own work.
#[derive(Debug, Default)]
pub struct MetricsCollector {
    stack: Vec<PendingNode>,
    root: Option<OperatorMetrics>,
    /// The running counters when the innermost frame last took over.
    mark: ExecStats,
}

impl MetricsCollector {
    pub fn new() -> Self {
        MetricsCollector::default()
    }

    /// Charge the counters' growth since the last mark to the innermost
    /// frame.
    fn charge(&mut self, now: &ExecStats) {
        let mut delta = *now;
        delta.sub(&self.mark);
        if let Some(top) = self.stack.last_mut() {
            top.stats.add(&delta);
        }
        self.mark = *now;
    }

    /// Open a frame for an operator about to execute; `now` is the
    /// execution's running counters.
    pub fn enter(&mut self, name: &'static str, label: String, now: &ExecStats) {
        self.charge(now);
        self.stack.push(PendingNode {
            name,
            label,
            rows_in: None,
            stats: ExecStats::default(),
            children: Vec::new(),
        });
    }

    /// Close the innermost frame, attaching it to its parent (or making it
    /// the root). `rows_out` is 0 when the operator failed.
    pub fn exit(&mut self, rows_out: u64, wall_nanos: u64, now: &ExecStats) {
        self.charge(now);
        let Some(node) = self.stack.pop() else {
            debug_assert!(false, "MetricsCollector::exit without matching enter");
            return;
        };
        let rows_in = node
            .rows_in
            .unwrap_or_else(|| node.children.iter().map(|c| c.rows_out).sum());
        let done = OperatorMetrics {
            name: node.name.to_string(),
            label: node.label,
            rows_in,
            rows_out,
            stats: node.stats,
            wall_nanos,
            children: node.children,
        };
        match self.stack.last_mut() {
            Some(parent) => parent.children.push(done),
            None => self.root = Some(done),
        }
    }

    /// Extend the label of the operator currently executing with what its
    /// run did (e.g. which build a hash join probed).
    pub fn append_label(&mut self, detail: &str) {
        if let Some(top) = self.stack.last_mut() {
            top.label.push_str(detail);
        }
    }

    /// Record the rows a leaf operator fetched itself (overrides the
    /// children-sum default for `rows_in`).
    pub fn set_rows_in(&mut self, n: u64) {
        if let Some(top) = self.stack.last_mut() {
            top.rows_in = Some(n);
        }
    }

    /// The completed tree (the last fully executed root operator).
    pub fn finish(self) -> Option<OperatorMetrics> {
        self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OperatorMetrics {
        let mut c = MetricsCollector::new();
        let mut now = ExecStats::default();
        c.enter("FilterExec", "FilterExec: x > 1".into(), &now);
        c.enter("ScanExec", "ScanExec: r".into(), &now);
        c.set_rows_in(100);
        now.rows_scanned += 100;
        now.full_scans += 1;
        c.exit(40, 1_000_000, &now);
        c.exit(7, 3_000_000, &now);
        c.finish().unwrap()
    }

    #[test]
    fn tree_shape_and_rows_in() {
        let m = sample();
        assert_eq!(m.name, "FilterExec");
        assert_eq!(m.children.len(), 1);
        // Filter's rows_in defaults to its child's rows_out.
        assert_eq!(m.rows_in, 40);
        assert_eq!(m.rows_out, 7);
        // Scan's rows_in was set explicitly (pre-residual fetch).
        assert_eq!(m.children[0].rows_in, 100);
        assert_eq!(m.children[0].stats.rows_scanned, 100);
        assert_eq!(m.stats, ExecStats::default());
        assert_eq!(m.total_stats().rows_scanned, 100);
        assert_eq!(m.node_count(), 2);
    }

    #[test]
    fn node_counters_exclude_children() {
        // A join hashes its build side, runs its child, then probes: both
        // stretches are its own work, the child's scan is not.
        let mut c = MetricsCollector::new();
        let mut now = ExecStats {
            rows_scanned: 5, // before the query: charged to no node
            ..ExecStats::default()
        };
        c.enter("HashJoinExec", "HashJoinExec".into(), &now);
        now.hash_ops += 3;
        c.enter("ScanExec", "ScanExec".into(), &now);
        now.rows_scanned += 10;
        c.exit(10, 1, &now);
        now.hash_ops += 10;
        now.join_probes += 10;
        c.exit(4, 2, &now);
        let m = c.finish().unwrap();
        assert_eq!(m.stats.hash_ops, 13);
        assert_eq!(m.stats.join_probes, 10);
        assert_eq!(m.stats.rows_scanned, 0);
        assert_eq!(m.children[0].stats.rows_scanned, 10);
        assert_eq!(m.children[0].stats.hash_ops, 0);
        let mut query = now;
        query.rows_scanned -= 5;
        assert_eq!(m.total_stats(), query);
    }

    #[test]
    fn deterministic_view_ignores_timing() {
        let a = sample();
        let mut b = sample();
        b.wall_nanos = 999;
        b.children[0].wall_nanos = 1;
        assert_ne!(a, b);
        assert_eq!(a.deterministic(), b.deterministic());
    }

    #[test]
    fn render_and_json() {
        let m = sample();
        let text = m.render_text(false);
        assert!(text.contains("FilterExec: x > 1 (rows_in=40 rows_out=7)"));
        assert!(
            text.contains("  ScanExec: r (rows_in=100 rows_out=40 rows_scanned=100 full_scans=1)")
        );
        assert!(!text.contains("time="));
        assert!(m.render_text(true).contains("time="));

        let j = m.to_json(false);
        assert_eq!(j.get("operator").and_then(Json::as_str), Some("FilterExec"));
        assert_eq!(j.get("rows_out").and_then(Json::as_u64), Some(7));
        assert!(j.get("time_ms").is_none());
        let child = &j.get("children").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(child.get("rows_scanned").and_then(Json::as_u64), Some(100));
        assert!(m.to_json(true).get("time_ms").is_some());
    }

    #[test]
    fn segment_counters_render_only_when_present() {
        let mut c = MetricsCollector::new();
        let mut now = ExecStats::default();
        c.enter("ScanExec", "ScanExec: caser".into(), &now);
        now.segments_total += 8;
        now.segments_pruned += 6;
        now.segments_scanned += 2;
        c.exit(10, 100, &now);
        let m = c.finish().unwrap();
        assert_eq!(m.stats.segments_total, 8);
        assert_eq!(m.deterministic().stats.segments_pruned, 6);
        let text = m.render_text(false);
        assert!(text.contains("segments_total=8 segments_pruned=6 segments_scanned=2"));
        assert_eq!(
            m.to_json(false)
                .get("segments_pruned")
                .and_then(Json::as_u64),
            Some(6)
        );
        // Operators with no pruning activity keep their old rendering.
        let plain = sample().render_text(false);
        assert!(!plain.contains("segments_total"));
    }

    #[test]
    fn failed_subtree_still_attaches() {
        let mut c = MetricsCollector::new();
        let now = ExecStats::default();
        c.enter("FilterExec", "FilterExec".into(), &now);
        c.enter("ScanExec", "ScanExec".into(), &now);
        c.exit(0, 10, &now); // failed: no rows
        c.exit(0, 20, &now);
        let m = c.finish().unwrap();
        assert_eq!(m.children.len(), 1);
        assert_eq!(m.rows_out, 0);
    }
}
