//! Inner hash join (build right, probe left).

use super::{ExecContext, PhysicalOperator};
use crate::batch::Batch;
use crate::error::Result;
use crate::expr::Expr;
use crate::join::{hash_join_with, probe_join, JoinType};

#[derive(Debug)]
pub struct PhysicalHashJoin {
    pub left: Box<dyn PhysicalOperator>,
    pub right: Box<dyn PhysicalOperator>,
    pub left_keys: Vec<Expr>,
    pub right_keys: Vec<Expr>,
    /// Set by `lower` when the build can be the right table's own
    /// memoized build.
    pub table_build: Option<TableBuild>,
}

/// The right input is an unfiltered scan of `table` and the join's one
/// right key is its column `column`. Such a scan yields the table's rows in
/// table order, the order the table-owned build is in.
#[derive(Debug, Clone)]
pub struct TableBuild {
    pub table: String,
    pub column: usize,
    /// The column's name, for the metrics label of a run that probes it.
    pub name: String,
}

impl PhysicalOperator for PhysicalHashJoin {
    fn name(&self) -> &'static str {
        "HashJoinExec"
    }

    fn label(&self) -> String {
        let pairs: Vec<String> = self
            .left_keys
            .iter()
            .zip(&self.right_keys)
            .map(|(l, r)| format!("{l} = {r}"))
            .collect();
        format!("HashJoinExec: on [{}]", pairs.join(", "))
    }

    fn children(&self) -> Vec<&dyn PhysicalOperator> {
        vec![self.left.as_ref(), self.right.as_ref()]
    }

    /// A table-owned build charges only the probe side — on the run that
    /// fills the memo too — so the counters do not depend on memo state.
    /// A run that probes it says so in its metrics label.
    fn execute_op(&self, ctx: &mut ExecContext<'_>) -> Result<Batch> {
        let l = self.left.execute(ctx)?;
        let r = self.right.execute(ctx)?;
        // The memo describes the table version the catalog holds now; it
        // serves only if the right scan read that same version. Otherwise
        // (an append landed in between) the join builds per query.
        let memo = match &self.table_build {
            Some(tb) if !ctx.options.rowwise_hash => {
                let t = ctx.catalog.get(&tb.table)?;
                let same = r.column(tb.column).same_view(t.data().column(tb.column));
                same.then_some((tb, t))
            }
            _ => None,
        };
        let (out, work) = match memo {
            Some((tb, t)) => {
                ctx.metrics
                    .append_label(&format!(" build={}.{} (table)", tb.table, tb.name));
                let build = t.join_build(tb.column, &ctx.budget)?;
                probe_join(&l, &r, &self.left_keys, build, JoinType::Inner, &ctx.budget)?
            }
            None => hash_join_with(
                &l,
                &r,
                &self.left_keys,
                &self.right_keys,
                JoinType::Inner,
                &ctx.budget,
                ctx.options.rowwise_hash,
            )?,
        };
        ctx.stats.add(&work);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::schema_ref;
    use crate::exec::Executor;
    use crate::physical::metrics::OperatorMetrics;
    use crate::physical::{lower, ExecOptions};
    use crate::plan::LogicalPlan;
    use crate::schema::{Field, Schema};
    use crate::table::{Catalog, Table};
    use crate::value::{DataType, Value};
    use std::sync::Arc;

    fn dim_rows(keys: &[&str]) -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::new("gln", DataType::Str),
            Field::new("descr", DataType::Str),
        ]));
        let rows: Vec<Vec<Value>> = keys
            .iter()
            .map(|k| vec![Value::str(*k), Value::str(format!("site {k}"))])
            .collect();
        Batch::from_rows(schema, &rows).unwrap()
    }

    /// `r(loc)` with keys `l0`..`l4`; `d(gln, descr)` holds `l0`..`l2`.
    fn catalog() -> Catalog {
        let schema = schema_ref(Schema::new(vec![Field::new("loc", DataType::Str)]));
        let rows: Vec<Vec<Value>> = (0..20)
            .map(|i| vec![Value::str(format!("l{}", i % 5))])
            .collect();
        let cat = Catalog::new();
        cat.register(Table::new("r", Batch::from_rows(schema, &rows).unwrap()));
        cat.register(Table::new("d", dim_rows(&["l0", "l1", "l2"])));
        cat
    }

    fn join_plan() -> LogicalPlan {
        LogicalPlan::scan("r").join(
            LogicalPlan::scan("d"),
            vec![Expr::col("loc")],
            vec![Expr::col("gln")],
            JoinType::Inner,
        )
    }

    fn rows_of(b: &Batch) -> Vec<Vec<Value>> {
        (0..b.num_rows()).map(|i| b.row(i)).collect()
    }

    fn join_label(m: &OperatorMetrics) -> &str {
        assert_eq!(m.name, "HashJoinExec");
        &m.label
    }

    #[test]
    fn eligible_join_fills_then_reuses_the_table_build() {
        let cat = catalog();
        let d = cat.get("d").unwrap();
        assert!(d.join_build_memo(0).is_none());

        let mut first = Executor::new(&cat);
        let rows = rows_of(&first.execute(&join_plan()).unwrap());
        let memo = d
            .join_build_memo(0)
            .expect("the run filled the build")
            .clone();
        let label = join_label(first.metrics.as_ref().unwrap()).to_string();
        assert!(label.ends_with(" build=d.gln (table)"), "{label}");

        let mut second = Executor::new(&cat);
        assert_eq!(rows_of(&second.execute(&join_plan()).unwrap()), rows);
        assert!(Arc::ptr_eq(&memo, d.join_build_memo(0).unwrap()));
        assert_eq!(second.stats, first.stats);
        assert_eq!(join_label(second.metrics.as_ref().unwrap()), label);

        // The rowwise oracle builds per query and says nothing of the memo.
        let mut oracle =
            Executor::with_options(&cat, ExecOptions::default().with_rowwise_hash(true));
        assert_eq!(rows_of(&oracle.execute(&join_plan()).unwrap()), rows);
        assert!(!join_label(oracle.metrics.as_ref().unwrap()).contains("(table)"));
    }

    /// Scans, then appends to the scanned table: an ingest landing between
    /// the right scan and the join's build.
    #[derive(Debug)]
    struct AppendAfter {
        input: Box<dyn PhysicalOperator>,
        rows: Batch,
    }

    impl PhysicalOperator for AppendAfter {
        fn name(&self) -> &'static str {
            "AppendAfter"
        }

        fn children(&self) -> Vec<&dyn PhysicalOperator> {
            vec![self.input.as_ref()]
        }

        fn execute_op(&self, ctx: &mut ExecContext<'_>) -> Result<Batch> {
            let out = self.input.execute(ctx)?;
            ctx.catalog.append("d", self.rows.clone())?;
            Ok(out)
        }
    }

    #[test]
    fn append_after_the_scan_builds_over_the_scanned_rows() {
        let cat = catalog();
        let join = |right: Box<dyn PhysicalOperator>| PhysicalHashJoin {
            left: lower(&LogicalPlan::scan("r"), &cat).unwrap(),
            right,
            left_keys: vec![Expr::col("loc")],
            right_keys: vec![Expr::col("gln")],
            table_build: Some(TableBuild {
                table: "d".into(),
                column: 0,
                name: "gln".into(),
            }),
        };
        let raced = join(Box::new(AppendAfter {
            input: lower(&LogicalPlan::scan("d"), &cat).unwrap(),
            rows: dim_rows(&["l3", "l4"]),
        }));
        let mut ctx = ExecContext::new(&cat, ExecOptions::default());
        let got = raced.execute(&mut ctx).unwrap();
        assert_eq!(cat.get("d").unwrap().num_rows(), 5, "the append landed");

        // The same join over the pre-append rows, built per query.
        let before = catalog();
        let mut expected = Executor::new(&before);
        let want = expected.execute(&join_plan()).unwrap();
        assert_eq!(rows_of(&got), rows_of(&want));
        assert!(got.num_rows() < 20, "appended keys l3, l4 must not match");

        // The per-query build is charged; the memo path charges probes only.
        let per_query = hash_join_with(
            &cat.get("r").unwrap().data().clone(),
            &before.get("d").unwrap().data().clone(),
            &[Expr::col("loc")],
            &[Expr::col("gln")],
            JoinType::Inner,
            &ctx.budget,
            false,
        )
        .unwrap()
        .1;
        assert_eq!(ctx.stats.hash_ops, per_query.hash_ops);
        assert!(ctx.stats.hash_ops > expected.stats.hash_ops);
        let metrics = ctx.metrics.finish().unwrap();
        assert!(!join_label(&metrics).contains("(table)"));
        assert!(cat.get("d").unwrap().join_build_memo(0).is_none());
    }
}
