//! Window-aggregate evaluation — the Φ_C cleansing hot path — with
//! optional partition-parallel execution.
//!
//! The input is already sorted by (partition keys, order keys); `lower()`
//! inserted an explicit sort if the order was not shared. Evaluation splits
//! into a read-only prepare step ([`WindowEval::prepare`] evaluates every
//! expression against the batch up front) and pure per-partition
//! computation, so partitions can be farmed out to a scoped thread pool:
//!
//! * whole partitions are hash-assigned to shards (FNV over the partition
//!   key values — deterministic, independent of thread timing),
//! * workers only read the shared [`WindowEval`] and write their own
//!   results, each tagged with its partition index,
//! * outputs are re-assembled in original partition order and work counters
//!   summed per partition, so the result batch is byte-identical and the
//!   merged [`ExecStats`](crate::exec::ExecStats) equal to the serial run
//!   at any parallelism.
//!
//! Wall-clock spent here is accumulated into
//! [`ExecContext::window_eval_nanos`] — the one quantity that *should*
//! change with parallelism.

use super::{ExecContext, PhysicalOperator};
use crate::batch::Batch;
use crate::column::{Column, ColumnBuilder};
use crate::error::{Error, Result};
use crate::expr::Expr;
use crate::schema::{Field, Schema};
use crate::value::Value;
use crate::window::{WindowEval, WindowExpr};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug)]
pub struct PhysicalWindow {
    pub input: Box<dyn PhysicalOperator>,
    pub partition_by: Vec<Expr>,
    /// Single ORDER BY key, when RANGE frames need it for binary searches.
    pub order_key: Option<Expr>,
    pub exprs: Vec<WindowExpr>,
}

impl PhysicalOperator for PhysicalWindow {
    fn name(&self) -> &'static str {
        "WindowExec"
    }

    fn label(&self) -> String {
        let parts: Vec<String> = self.partition_by.iter().map(|e| e.to_string()).collect();
        let aliases: Vec<&str> = self.exprs.iter().map(|we| we.alias.as_str()).collect();
        format!(
            "WindowExec: partition by [{}] exprs [{}]",
            parts.join(", "),
            aliases.join(", ")
        )
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        vec![self.input.as_ref()]
    }

    fn execute_op(&self, ctx: &mut ExecContext<'_>) -> Result<Batch> {
        let b = self.input.execute(ctx)?;
        let start = Instant::now();

        let ev = WindowEval::prepare(&b, &self.partition_by, self.order_key.as_ref(), &self.exprs)?;
        let parts: Vec<(usize, usize)> = ev.partitions().to_vec();
        ctx.stats.partitions += parts.len() as u64;

        let p = ctx.options.parallelism.min(parts.len()).max(1);
        let mut work: u64 = 0;
        let mut builders: Vec<ColumnBuilder> = ev
            .output_types()
            .iter()
            .map(|&dt| ColumnBuilder::new(dt, b.num_rows()))
            .collect();

        if p <= 1 {
            for &range in &parts {
                // Cancellation/deadline checkpoint per partition: the Φ_C
                // hot path can dominate a query's runtime, so operator-entry
                // checks alone would not be responsive.
                ctx.budget.check()?;
                let (vals, w) = ev.eval_partition(range)?;
                work += w;
                push_partition(&mut builders, &vals)?;
            }
        } else {
            // Hash-assign whole partitions to shards by their key values —
            // a pure function of the data, not of thread scheduling.
            let mut shards: Vec<Vec<usize>> = vec![Vec::new(); p];
            for (pi, &(lo, _)) in parts.iter().enumerate() {
                let shard = (partition_key_hash(ev.partition_cols(), lo) % p as u64) as usize;
                shards[shard].push(pi);
            }

            type PartResult = (usize, Result<(Vec<Vec<Value>>, u64)>);
            let budget = &ctx.budget;
            let shard_results: Vec<Vec<PartResult>> = std::thread::scope(|s| {
                let handles: Vec<_> = shards
                    .iter()
                    .map(|shard| {
                        let ev = &ev;
                        let parts = &parts;
                        s.spawn(move || {
                            shard
                                .iter()
                                .map(|&pi| {
                                    // Same per-partition checkpoint as the
                                    // serial path; the abort surfaces through
                                    // the earliest-partition error merge below.
                                    let r =
                                        budget.check().and_then(|()| ev.eval_partition(parts[pi]));
                                    (pi, r)
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                // Joining in shard order keeps collection deterministic.
                handles
                    .into_iter()
                    .map(|h| h.join().expect("window worker panicked"))
                    .collect()
            });

            let mut slots: Vec<Option<(Vec<Vec<Value>>, u64)>> =
                (0..parts.len()).map(|_| None).collect();
            let mut first_err: Option<(usize, Error)> = None;
            for shard in shard_results {
                for (pi, r) in shard {
                    match r {
                        Ok(v) => slots[pi] = Some(v),
                        // Serial execution would surface the error of the
                        // earliest failing partition; mirror that.
                        Err(e) => {
                            if first_err.as_ref().is_none_or(|(fp, _)| pi < *fp) {
                                first_err = Some((pi, e));
                            }
                        }
                    }
                }
            }
            if let Some((_, e)) = first_err {
                return Err(e);
            }
            for slot in slots {
                let (vals, w) = slot.expect("every partition is assigned to a shard");
                work += w;
                push_partition(&mut builders, &vals)?;
            }
        }

        ctx.stats.window_accumulator_ops += work;
        let mut fields = b.schema().fields().to_vec();
        let mut cols: Vec<Column> = b.columns().to_vec();
        for (we, c) in self
            .exprs
            .iter()
            .zip(builders.into_iter().map(ColumnBuilder::finish))
        {
            fields.push(Field::new(we.alias.clone(), c.data_type()));
            cols.push(c);
        }
        let out = Batch::new(Arc::new(Schema::new(fields)), cols);
        ctx.window_eval_nanos += start.elapsed().as_nanos() as u64;
        out
    }
}

fn push_partition(builders: &mut [ColumnBuilder], vals: &[Vec<Value>]) -> Result<()> {
    for (b, vs) in builders.iter_mut().zip(vals) {
        for v in vs {
            b.push(v)?;
        }
    }
    Ok(())
}

/// FNV-1a over the partition's key values at its first row. Fixed offset
/// basis and prime keep shard assignment reproducible across runs.
fn partition_key_hash(part_cols: &[Column], row: usize) -> u64 {
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for c in part_cols {
        c.value(row).hash(&mut h);
    }
    h.finish()
}
