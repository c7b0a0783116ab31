//! Residual predicate evaluation over a child's output.

use super::{ExecContext, PhysicalOperator};
use crate::batch::Batch;
use crate::error::Result;
use crate::expr::Expr;

#[derive(Debug)]
pub struct PhysicalFilter {
    pub input: Box<dyn PhysicalOperator>,
    pub predicate: Expr,
}

impl PhysicalOperator for PhysicalFilter {
    fn name(&self) -> &'static str {
        "FilterExec"
    }

    fn label(&self) -> String {
        format!("FilterExec: {}", self.predicate)
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        vec![self.input.as_ref()]
    }

    fn execute_op(&self, ctx: &mut ExecContext<'_>) -> Result<Batch> {
        let b = self.input.execute(ctx)?;
        // One predicate evaluation per input row.
        ctx.metrics.add_comparisons(b.num_rows() as u64);
        let keep = self.predicate.filter_indices(&b)?;
        Ok(b.take(&keep))
    }
}
