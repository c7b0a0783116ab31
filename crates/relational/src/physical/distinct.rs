//! Duplicate-row elimination.

use super::{ExecContext, PhysicalOperator};
use crate::agg::distinct_with;
use crate::batch::Batch;
use crate::error::Result;
use crate::hash::HashStats;

#[derive(Debug)]
pub struct PhysicalDistinct {
    pub input: Box<dyn PhysicalOperator>,
}

impl PhysicalOperator for PhysicalDistinct {
    fn name(&self) -> &'static str {
        "DistinctExec"
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        vec![self.input.as_ref()]
    }

    fn execute_op(&self, ctx: &mut ExecContext<'_>) -> Result<Batch> {
        let b = self.input.execute(ctx)?;
        // Each input row is hashed against the seen-set once.
        ctx.metrics.add_comparisons(b.num_rows() as u64);
        let mut hash = HashStats::default();
        let out = distinct_with(&b, ctx.options.rowwise_hash, &mut hash)?;
        ctx.stats.add_hash(&hash);
        ctx.metrics.add_hash(&hash);
        Ok(out)
    }
}
