//! Hash aggregation with GROUP BY.

use super::{ExecContext, PhysicalOperator};
use crate::agg::{hash_aggregate_with, AggExpr};
use crate::batch::Batch;
use crate::error::Result;
use crate::expr::Expr;

#[derive(Debug)]
pub struct PhysicalAggregate {
    pub input: Box<dyn PhysicalOperator>,
    pub group_by: Vec<(Expr, String)>,
    pub aggs: Vec<AggExpr>,
}

impl PhysicalOperator for PhysicalAggregate {
    fn name(&self) -> &'static str {
        "AggregateExec"
    }

    fn label(&self) -> String {
        let keys: Vec<String> = self.group_by.iter().map(|(e, _)| e.to_string()).collect();
        format!("AggregateExec: group by [{}]", keys.join(", "))
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        vec![self.input.as_ref()]
    }

    fn execute_op(&self, ctx: &mut ExecContext<'_>) -> Result<Batch> {
        let b = self.input.execute(ctx)?;
        hash_aggregate_with(
            &b,
            &self.group_by,
            &self.aggs,
            ctx.options.rowwise_hash,
            &mut ctx.stats,
        )
    }
}
