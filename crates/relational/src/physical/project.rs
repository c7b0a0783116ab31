//! Expression projection with output aliases.

use super::{ExecContext, PhysicalOperator};
use crate::batch::Batch;
use crate::error::Result;
use crate::expr::Expr;
use crate::schema::{Field, Schema};
use std::sync::Arc;

#[derive(Debug)]
pub struct PhysicalProject {
    pub input: Box<dyn PhysicalOperator>,
    pub exprs: Vec<(Expr, String)>,
}

impl PhysicalOperator for PhysicalProject {
    fn name(&self) -> &'static str {
        "ProjectExec"
    }

    fn label(&self) -> String {
        let cols: Vec<String> = self
            .exprs
            .iter()
            .map(|(e, a)| format!("{e} AS {a}"))
            .collect();
        format!("ProjectExec: {}", cols.join(", "))
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        vec![self.input.as_ref()]
    }

    fn execute_op(&self, ctx: &mut ExecContext<'_>) -> Result<Batch> {
        let b = self.input.execute(ctx)?;
        // One expression-evaluation pass per input row.
        ctx.metrics.add_comparisons(b.num_rows() as u64);
        let mut cols = Vec::with_capacity(self.exprs.len());
        let mut fields = Vec::with_capacity(self.exprs.len());
        for (e, alias) in &self.exprs {
            let c = e.evaluate(&b)?;
            fields.push(Field::from_flat_name(alias, c.data_type()));
            cols.push(c);
        }
        Batch::new(Arc::new(Schema::new(fields)), cols)
    }
}
