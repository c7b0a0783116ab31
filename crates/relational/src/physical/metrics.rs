//! Per-operator execution metrics — the observability backbone.
//!
//! Every [`PhysicalOperator`](super::PhysicalOperator) execution records one
//! [`OperatorMetrics`] node; nesting mirrors the operator tree, so an
//! `EXPLAIN ANALYZE` rendering can annotate each plan node with exactly the
//! work it did. Two kinds of quantities live side by side and must never be
//! conflated:
//!
//! * **deterministic counters** — rows in/out, comparisons (the operator's
//!   elementary work unit: rows fetched, predicate evaluations, sort rows,
//!   join probes, window accumulator ops), and window partition counts. These
//!   are pure functions of plan + data: identical at any
//!   [`ExecOptions::parallelism`](super::ExecOptions), and the quantities
//!   the CI perf-regression gate diffs;
//! * **timing** — inclusive wall-clock nanoseconds per operator (children
//!   included, as in PostgreSQL's `EXPLAIN ANALYZE`). Every operator runs
//!   its children to completion inside its own frame, so an operator's
//!   self time is exactly its inclusive time minus its children's.
//!   Reported, never gated and never part of equality: timings change run
//!   to run.
//!
//! [`OperatorMetrics::deterministic`] projects a node tree onto only the
//! former, which is what tests compare across parallelism levels.

use crate::hash::HashStats;
use dc_json::Json;
use std::fmt::Write as _;

/// Metrics for one executed physical operator, with children mirroring the
/// operator tree.
#[derive(Debug, Clone, PartialEq)]
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
    /// Elementary work units: rows fetched for scans, predicate evaluations
    /// for filters, comparisons performed for sorts, probes for joins,
    /// accumulator ops for windows, input rows for aggregations.
    pub comparisons: u64,
    /// Window partitions evaluated (0 for non-window operators).
    pub partitions: u64,
    /// Segments considered by zone-map pruning (0 for non-scan operators
    /// and unfiltered scans).
    pub segments_total: u64,
    /// Segments skipped by zone-map pruning.
    pub segments_pruned: u64,
    /// Segments that survived pruning.
    pub segments_scanned: u64,
    /// Per-value hash computations by the vectorized hash kernels (rows ×
    /// key columns for joins, aggregation, and DISTINCT). 0 for operators
    /// that never hash.
    pub hash_ops: u64,
    /// Full 64-bit hash matches whose normalized keys compared unequal.
    pub hash_collisions: u64,
    /// Normalized-key memcmps on candidate (hash-equal) table entries.
    pub probe_memcmps: u64,
    /// Bytes written into normalized-key arenas.
    pub key_bytes_encoded: u64,
    /// Inclusive wall-clock (children included). Timing, not a counter:
    /// excluded from [`OperatorMetrics::deterministic`].
    pub wall_nanos: u64,
    pub children: Vec<OperatorMetrics>,
}

/// The deterministic projection of an [`OperatorMetrics`] tree: everything
/// except timing. Two executions of the same plan over the same data must
/// produce equal `DeterministicMetrics` at any parallelism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterministicMetrics {
    pub name: String,
    pub label: String,
    pub rows_in: u64,
    pub rows_out: u64,
    pub comparisons: u64,
    pub partitions: u64,
    pub segments_total: u64,
    pub segments_pruned: u64,
    pub segments_scanned: u64,
    pub hash_ops: u64,
    pub hash_collisions: u64,
    pub probe_memcmps: u64,
    pub key_bytes_encoded: u64,
    pub children: Vec<DeterministicMetrics>,
}

impl OperatorMetrics {
    /// Strip timing, keeping only the deterministic counters.
    pub fn deterministic(&self) -> DeterministicMetrics {
        DeterministicMetrics {
            name: self.name.clone(),
            label: self.label.clone(),
            rows_in: self.rows_in,
            rows_out: self.rows_out,
            comparisons: self.comparisons,
            partitions: self.partitions,
            segments_total: self.segments_total,
            segments_pruned: self.segments_pruned,
            segments_scanned: self.segments_scanned,
            hash_ops: self.hash_ops,
            hash_collisions: self.hash_collisions,
            probe_memcmps: self.probe_memcmps,
            key_bytes_encoded: self.key_bytes_encoded,
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
        self.comparisons += other.comparisons;
        self.partitions += other.partitions;
        self.segments_total += other.segments_total;
        self.segments_pruned += other.segments_pruned;
        self.segments_scanned += other.segments_scanned;
        self.hash_ops += other.hash_ops;
        self.hash_collisions += other.hash_collisions;
        self.probe_memcmps += other.probe_memcmps;
        self.key_bytes_encoded += other.key_bytes_encoded;
        self.wall_nanos += other.wall_nanos;
        self.children
            .iter_mut()
            .zip(&other.children)
            .all(|(a, b)| a.merge_same_shape(b))
    }

    /// Total comparisons across the whole tree.
    pub fn total_comparisons(&self) -> u64 {
        self.comparisons
            + self
                .children
                .iter()
                .map(Self::total_comparisons)
                .sum::<u64>()
    }

    /// Number of operator nodes in the tree.
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(Self::node_count).sum::<usize>()
    }

    /// Indented `EXPLAIN ANALYZE` rendering. With `with_timing` the inclusive
    /// per-operator wall-clock is appended to every line.
    pub fn render_text(&self, with_timing: bool) -> String {
        fn walk(m: &OperatorMetrics, depth: usize, with_timing: bool, out: &mut String) {
            let _ = write!(
                out,
                "{}{} (rows_in={} rows_out={} comparisons={}",
                "  ".repeat(depth),
                m.label,
                m.rows_in,
                m.rows_out,
                m.comparisons
            );
            if m.partitions > 0 {
                let _ = write!(out, " partitions={}", m.partitions);
            }
            if m.segments_total > 0 {
                let _ = write!(
                    out,
                    " segments_total={} segments_pruned={} segments_scanned={}",
                    m.segments_total, m.segments_pruned, m.segments_scanned
                );
            }
            if m.hash_ops > 0 {
                let _ = write!(
                    out,
                    " hash_ops={} hash_collisions={} probe_memcmps={} key_bytes={}",
                    m.hash_ops, m.hash_collisions, m.probe_memcmps, m.key_bytes_encoded
                );
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

    /// Machine-readable tree. Timing is emitted under the `time_ms` key only
    /// when requested so deterministic snapshots stay byte-stable.
    pub fn to_json(&self, with_timing: bool) -> Json {
        let mut obj = Json::obj()
            .set("operator", self.name.as_str())
            .set("label", self.label.as_str())
            .set("rows_in", self.rows_in)
            .set("rows_out", self.rows_out)
            .set("comparisons", self.comparisons)
            .set("partitions", self.partitions)
            .set("segments_total", self.segments_total)
            .set("segments_pruned", self.segments_pruned)
            .set("segments_scanned", self.segments_scanned)
            .set("hash_ops", self.hash_ops)
            .set("hash_collisions", self.hash_collisions)
            .set("probe_memcmps", self.probe_memcmps)
            .set("key_bytes_encoded", self.key_bytes_encoded);
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
    comparisons: u64,
    partitions: u64,
    segments_total: u64,
    segments_pruned: u64,
    segments_scanned: u64,
    hash: HashStats,
    children: Vec<OperatorMetrics>,
}

/// Builds the [`OperatorMetrics`] tree as operators execute. The
/// instrumented [`PhysicalOperator::execute`](super::PhysicalOperator::execute)
/// wrapper drives `enter`/`exit`; operator bodies record their own work
/// through the `add_*` methods, which always target the innermost frame —
/// the operator currently executing.
#[derive(Debug, Default)]
pub struct MetricsCollector {
    stack: Vec<PendingNode>,
    root: Option<OperatorMetrics>,
}

impl MetricsCollector {
    pub fn new() -> Self {
        MetricsCollector::default()
    }

    /// Open a frame for an operator about to execute.
    pub fn enter(&mut self, name: &'static str, label: String) {
        self.stack.push(PendingNode {
            name,
            label,
            rows_in: None,
            comparisons: 0,
            partitions: 0,
            segments_total: 0,
            segments_pruned: 0,
            segments_scanned: 0,
            hash: HashStats::default(),
            children: Vec::new(),
        });
    }

    /// Close the innermost frame, attaching it to its parent (or making it
    /// the root). `rows_out` is 0 when the operator failed.
    pub fn exit(&mut self, rows_out: u64, wall_nanos: u64) {
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
            comparisons: node.comparisons,
            partitions: node.partitions,
            segments_total: node.segments_total,
            segments_pruned: node.segments_pruned,
            segments_scanned: node.segments_scanned,
            hash_ops: node.hash.hash_ops,
            hash_collisions: node.hash.hash_collisions,
            probe_memcmps: node.hash.probe_memcmps,
            key_bytes_encoded: node.hash.key_bytes_encoded,
            wall_nanos,
            children: node.children,
        };
        match self.stack.last_mut() {
            Some(parent) => parent.children.push(done),
            None => self.root = Some(done),
        }
    }

    /// Record elementary work units against the operator currently executing.
    pub fn add_comparisons(&mut self, n: u64) {
        if let Some(top) = self.stack.last_mut() {
            top.comparisons += n;
        }
    }

    /// Record hash-kernel work against the operator currently executing.
    pub fn add_hash(&mut self, h: &HashStats) {
        if let Some(top) = self.stack.last_mut() {
            top.hash.merge(h);
        }
    }

    /// Record window partitions against the operator currently executing.
    pub fn add_partitions(&mut self, n: u64) {
        if let Some(top) = self.stack.last_mut() {
            top.partitions += n;
        }
    }

    /// Record the rows a leaf operator fetched itself (overrides the
    /// children-sum default for `rows_in`).
    pub fn set_rows_in(&mut self, n: u64) {
        if let Some(top) = self.stack.last_mut() {
            top.rows_in = Some(n);
        }
    }

    /// Record a zone-map pruning decision against the operator currently
    /// executing (scans only).
    pub fn add_segments(&mut self, total: u64, pruned: u64, scanned: u64) {
        if let Some(top) = self.stack.last_mut() {
            top.segments_total += total;
            top.segments_pruned += pruned;
            top.segments_scanned += scanned;
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
        c.enter("FilterExec", "FilterExec: x > 1".into());
        c.enter("ScanExec", "ScanExec: r".into());
        c.set_rows_in(100);
        c.add_comparisons(100);
        c.exit(40, 1_000_000);
        c.add_comparisons(40);
        c.exit(7, 3_000_000);
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
        assert_eq!(m.total_comparisons(), 140);
        assert_eq!(m.node_count(), 2);
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
        assert!(text.contains("FilterExec: x > 1 (rows_in=40 rows_out=7 comparisons=40)"));
        assert!(text.contains("  ScanExec: r (rows_in=100"));
        assert!(!text.contains("time="));
        assert!(m.render_text(true).contains("time="));

        let j = m.to_json(false);
        assert_eq!(j.get("operator").and_then(Json::as_str), Some("FilterExec"));
        assert_eq!(j.get("rows_out").and_then(Json::as_u64), Some(7));
        assert!(j.get("time_ms").is_none());
        let child = &j.get("children").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(child.get("comparisons").and_then(Json::as_u64), Some(100));
        assert!(m.to_json(true).get("time_ms").is_some());
    }

    #[test]
    fn segment_counters_render_only_when_present() {
        let mut c = MetricsCollector::new();
        c.enter("ScanExec", "ScanExec: caser".into());
        c.add_segments(8, 6, 2);
        c.exit(10, 100);
        let m = c.finish().unwrap();
        assert_eq!(m.segments_total, 8);
        assert_eq!(m.deterministic().segments_pruned, 6);
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
        c.enter("FilterExec", "FilterExec".into());
        c.enter("ScanExec", "ScanExec".into());
        c.exit(0, 10); // failed: no rows
        c.exit(0, 20);
        let m = c.finish().unwrap();
        assert_eq!(m.children.len(), 1);
        assert_eq!(m.rows_out, 0);
    }
}
