//! Left semi join — keeps left rows with at least one right match (the
//! shape joinback (q_j) rewrites use to re-fetch surviving base rows).

use super::{ExecContext, PhysicalOperator};
use crate::batch::Batch;
use crate::error::Result;
use crate::expr::Expr;
use crate::join::{hash_join_with, JoinType};

#[derive(Debug)]
pub struct PhysicalSemiJoin {
    pub left: Box<dyn PhysicalOperator>,
    pub right: Box<dyn PhysicalOperator>,
    pub left_keys: Vec<Expr>,
    pub right_keys: Vec<Expr>,
}

impl PhysicalOperator for PhysicalSemiJoin {
    fn name(&self) -> &'static str {
        "SemiJoinExec"
    }

    fn label(&self) -> String {
        let pairs: Vec<String> = self
            .left_keys
            .iter()
            .zip(&self.right_keys)
            .map(|(l, r)| format!("{l} = {r}"))
            .collect();
        format!("SemiJoinExec: on [{}]", pairs.join(", "))
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        vec![self.left.as_ref(), self.right.as_ref()]
    }

    fn execute_op(&self, ctx: &mut ExecContext<'_>) -> Result<Batch> {
        let l = self.left.execute(ctx)?;
        let r = self.right.execute(ctx)?;
        let (out, work) = hash_join_with(
            &l,
            &r,
            &self.left_keys,
            &self.right_keys,
            JoinType::LeftSemi,
            &ctx.budget,
            ctx.options.rowwise_hash,
        )?;
        ctx.stats.add(&work);
        Ok(out)
    }
}
