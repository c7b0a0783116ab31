//! Row-count truncation.

use super::{ExecContext, PhysicalOperator};
use crate::batch::Batch;
use crate::error::Result;

#[derive(Debug)]
pub struct PhysicalLimit {
    pub input: Box<dyn PhysicalOperator>,
    pub fetch: usize,
}

impl PhysicalOperator for PhysicalLimit {
    fn name(&self) -> &'static str {
        "LimitExec"
    }

    fn label(&self) -> String {
        format!("LimitExec: fetch={}", self.fetch)
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        vec![self.input.as_ref()]
    }

    fn execute_op(&self, ctx: &mut ExecContext<'_>) -> Result<Batch> {
        let b = self.input.execute(ctx)?;
        // A zero-copy window over the first `fetch` rows.
        Ok(b.slice(0, b.num_rows().min(self.fetch)))
    }
}
