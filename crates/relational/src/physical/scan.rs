//! Base-table scan with optional index narrowing.
//!
//! The *candidate* index accesses (which columns, what bounds) were derived
//! by `lower()` from the pushed-down filter; the only decision left at
//! runtime is data-dependent: which candidate fetches the fewest rows on
//! the actual table, and whether even the best one beats a full scan.

use super::{ExecContext, PhysicalOperator};
use crate::batch::Batch;
use crate::error::Result;
use crate::expr::Expr;
use crate::index::ScanBound;
use crate::schema::Schema;
use crate::segment::candidate_zone_predicate;
use crate::table::Table;
use crate::value::Value;
use dc_storage::{Segment, ZonePredicate};
use std::sync::Arc;

/// One index access the scan may use, fixed at lowering time.
#[derive(Debug, Clone)]
pub struct IndexCandidate {
    /// Table column whose ordered index would answer the access.
    pub column: String,
    pub lower: ScanBound,
    pub upper: ScanBound,
    /// Positive IN-list; takes precedence over the range bounds.
    pub in_values: Option<Vec<Value>>,
}

#[derive(Debug)]
pub struct PhysicalScan {
    pub table: String,
    pub alias: Option<String>,
    /// Full pushed-down predicate, re-applied as a residual after the fetch.
    pub filter: Option<Expr>,
    /// Candidate index accesses in deterministic (column-position) order.
    pub candidates: Vec<IndexCandidate>,
}

impl PhysicalOperator for PhysicalScan {
    fn name(&self) -> &'static str {
        "ScanExec"
    }

    fn label(&self) -> String {
        let mut s = format!("ScanExec: {}", self.table);
        if let Some(a) = &self.alias {
            s.push_str(&format!(" AS {a}"));
        }
        if !self.candidates.is_empty() {
            let cols: Vec<&str> = self.candidates.iter().map(|c| c.column.as_str()).collect();
            s.push_str(&format!(" index_candidates=[{}]", cols.join(", ")));
        }
        if let Some(f) = &self.filter {
            s.push_str(&format!(" filter={f}"));
        }
        s
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        vec![]
    }

    /// Fetch the (index/segment-narrowed) base rows under the output
    /// schema, record the fetch counters, then apply the full pushed-down
    /// predicate as a residual filter.
    fn execute_op(&self, ctx: &mut ExecContext<'_>) -> Result<Batch> {
        let t = ctx.catalog.get(&self.table)?;
        let out_schema: Arc<Schema> = match &self.alias {
            Some(a) => Arc::new(t.schema().with_qualifier(a)),
            None => t.schema().clone(),
        };

        let Some(filter) = &self.filter else {
            ctx.stats.rows_scanned += t.num_rows() as u64;
            ctx.stats.full_scans += 1;
            ctx.metrics.set_rows_in(t.num_rows() as u64);
            ctx.metrics.add_comparisons(t.num_rows() as u64);
            return t.data().clone().with_schema(out_schema);
        };

        // Zone-map pruning: the candidates' bounds are necessary conditions
        // of `filter`, so segments whose zones exclude them cannot hold
        // matching rows. The decision (and its counters) is a pure function
        // of plan + data — recorded before the access-path choice so the
        // counters describe prunability regardless of which path runs.
        let survivors = prune_segments(&t, &self.candidates);
        let total_segs = t.segments().len();
        if !self.candidates.is_empty() && total_segs > 0 {
            let scanned = survivors.len() as u64;
            let pruned = total_segs as u64 - scanned;
            ctx.stats.segments_total += total_segs as u64;
            ctx.stats.segments_pruned += pruned;
            ctx.stats.segments_scanned += scanned;
            ctx.metrics.add_segments(total_segs as u64, pruned, scanned);
        }

        let base = match best_index_access(&t, &self.candidates) {
            Some(rows) => {
                ctx.stats.index_scans += 1;
                ctx.stats.rows_scanned += rows.len() as u64;
                t.data().take(&rows)
            }
            None if survivors.len() < total_segs => {
                // Fetch only the surviving segments' contiguous row ranges;
                // the residual filter keeps results identical to a full
                // scan.
                let rows: Vec<usize> = survivors.iter().flat_map(|s| s.start..s.end()).collect();
                ctx.stats.full_scans += 1;
                ctx.stats.rows_scanned += rows.len() as u64;
                t.data().take(&rows)
            }
            None => {
                ctx.stats.full_scans += 1;
                ctx.stats.rows_scanned += t.num_rows() as u64;
                t.data().clone()
            }
        };
        // A scan is a leaf: rows_in is what it fetched from the table
        // (post index narrowing, pre residual filter) — each fetched row is
        // one unit of work.
        ctx.metrics.set_rows_in(base.num_rows() as u64);
        ctx.metrics.add_comparisons(base.num_rows() as u64);
        let base = base.with_schema(out_schema)?;
        let keep = filter.filter_indices(&base)?;
        Ok(base.take(&keep))
    }
}

/// Segments whose zone maps admit every candidate constraint (AND
/// semantics), in row order. With no usable constraints every segment
/// survives.
fn prune_segments<'t>(table: &'t Table, candidates: &[IndexCandidate]) -> Vec<&'t Segment<Value>> {
    let preds: Vec<ZonePredicate<Value>> = candidates
        .iter()
        .filter_map(|c| {
            candidate_zone_predicate(
                table.schema(),
                &c.column,
                &c.lower,
                &c.upper,
                c.in_values.as_deref(),
            )
        })
        .collect();
    table
        .segments()
        .iter()
        .filter(|s| s.may_match_all(&preds))
        .collect()
}

/// Pick the most selective candidate on the actual table, returning matching
/// row ids, or `None` if no candidate's column is indexed (or the best
/// access would fetch nearly the whole table anyway).
fn best_index_access(table: &Table, candidates: &[IndexCandidate]) -> Option<Vec<usize>> {
    let total = table.num_rows().max(1) as f64;
    let mut best: Option<(f64, Vec<usize>)> = None;
    for cand in candidates {
        let Some(idx) = table.index(&cand.column) else {
            continue;
        };
        let rows = if let Some(vals) = &cand.in_values {
            let mut rows: Vec<usize> = vals
                .iter()
                .flat_map(|v| idx.lookup(v).iter().map(|&r| r as usize))
                .collect();
            rows.sort_unstable();
            rows.dedup();
            rows
        } else if cand.lower != ScanBound::Unbounded || cand.upper != ScanBound::Unbounded {
            idx.range_scan(&cand.lower, &cand.upper)
        } else {
            continue;
        };
        let sel = rows.len() as f64 / total;
        // Strict `<` keeps the first (lowest column position) on ties.
        if best.as_ref().is_none_or(|(s, _)| sel < *s) {
            best = Some((sel, rows));
        }
    }
    // An access that fetches (almost) everything is not worth the gather.
    match best {
        Some((sel, rows)) if sel < 0.95 => Some(rows),
        _ => None,
    }
}
