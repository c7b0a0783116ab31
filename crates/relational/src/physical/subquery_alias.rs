//! Schema requalification for derived tables.

use super::{ExecContext, PhysicalOperator};
use crate::batch::Batch;
use crate::error::Result;
use std::sync::Arc;

#[derive(Debug)]
pub struct PhysicalSubqueryAlias {
    pub input: Box<dyn PhysicalOperator>,
    pub alias: String,
}

impl PhysicalOperator for PhysicalSubqueryAlias {
    fn name(&self) -> &'static str {
        "SubqueryAliasExec"
    }

    fn label(&self) -> String {
        format!("SubqueryAliasExec: {}", self.alias)
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        vec![self.input.as_ref()]
    }

    fn execute_op(&self, ctx: &mut ExecContext<'_>) -> Result<Batch> {
        let b = self.input.execute(ctx)?;
        let schema = Arc::new(b.schema().with_qualifier(&self.alias));
        b.with_schema(schema)
    }
}
