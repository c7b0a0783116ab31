//! Building Φ plans: applying compiled rules to an input plan.
//!
//! `Φ_C(input)` becomes `Window → Filter/Project` on top of `input`; rule
//! chains compose left-to-right in creation order (paper §4.4). All rules of
//! an application share cluster/sequence keys, so consecutive windows sort
//! identically and the optimizer's order sharing leaves only the first sort
//! standing — the effect measured in the paper's Figure 9.
//!
//! Rules are compiled against the reads table's bare column names. When the
//! rewrite engine runs cleansing over an *aliased* scan — or over the reads
//! table already joined with dimension tables (paper §5.2's "push joins
//! before cleansing") — the reads columns are qualified (`c.epc`). The
//! `qualifier` parameter re-targets the compiled template to those columns
//! while leaving dimension columns untouched.

use crate::compile::RuleTemplate;
use dc_relational::error::{Error, Result};
use dc_relational::exec::Executor;
use dc_relational::expr::{ColumnRef, Expr};
use dc_relational::physical::ExecOptions;
use dc_relational::plan::LogicalPlan;
use dc_relational::schema::Schema;
use dc_relational::sort::SortKey;
use dc_relational::table::Catalog;
use dc_relational::value::{DataType, Value};
use dc_relational::window::WindowExpr;
use dc_sqlts::Action;

/// Requalify every unqualified, non-internal column reference in `e`.
fn requalify(e: &Expr, qualifier: Option<&str>) -> Expr {
    let Some(q) = qualifier else {
        return e.clone();
    };
    let q = q.to_string();
    e.transform(&|node| match node {
        Expr::Column(c) if c.qualifier.is_none() && !c.name.starts_with("__") => {
            Expr::Column(ColumnRef::qualified(q.clone(), c.name))
        }
        other => other,
    })
}

fn flat(qualifier: Option<&str>, name: &str) -> String {
    match qualifier {
        Some(q) => format!("{q}.{name}"),
        None => name.to_string(),
    }
}

/// Apply one compiled rule on top of `input`.
///
/// `qualifier` names the alias under which the reads columns appear in
/// `input`'s schema (`None` when they are unqualified). The output schema
/// equals the input schema plus any new columns introduced by MODIFY
/// (created on the fly, default-initialized — paper §4.2); window internals
/// (`__*`) are projected away.
pub fn apply_rule_qualified(
    input: LogicalPlan,
    template: &RuleTemplate,
    catalog: &Catalog,
    qualifier: Option<&str>,
) -> Result<LogicalPlan> {
    let in_schema = input.schema(catalog)?;

    let partition_by: Vec<Expr> = template
        .partition_by
        .iter()
        .map(|e| requalify(e, qualifier))
        .collect();
    let order_by: Vec<SortKey> = template
        .order_by
        .iter()
        .map(|k| SortKey {
            expr: requalify(&k.expr, qualifier),
            ascending: k.ascending,
            nulls_first: k.nulls_first,
        })
        .collect();
    let windows: Vec<WindowExpr> = template
        .windows
        .iter()
        .map(|w| WindowExpr {
            func: w.func,
            arg: w.arg.as_ref().map(|a| requalify(a, qualifier)),
            frame: w.frame.clone(),
            alias: w.alias.clone(),
        })
        .collect();
    let cond = requalify(&template.condition, qualifier);

    let windowed = input.window(partition_by, order_by, windows);

    match &template.action {
        Action::Keep(_) => {
            let filtered = windowed.filter(cond);
            Ok(project_original(filtered, &in_schema, &[]))
        }
        Action::Delete(_) => {
            // Keep rows where the condition is NOT TRUE (false or NULL) —
            // the paper's "negated for DELETE with proper handling of the
            // null semantics".
            let keep = Expr::Case {
                branches: vec![(cond, Expr::lit(false))],
                else_expr: Some(Box::new(Expr::lit(true))),
            };
            let filtered = windowed.filter(keep);
            Ok(project_original(filtered, &in_schema, &[]))
        }
        Action::Modify { assignments, .. } => {
            // Each assigned column becomes CASE WHEN cond THEN value ELSE old.
            // A column that does not exist is created, defaulting to the
            // zero value of the assignment's type elsewhere.
            let mut new_cols: Vec<(String, Expr)> = Vec::new();
            let mut overrides: Vec<(String, Expr)> = Vec::new();
            for (col, value_expr) in assignments {
                // MODIFY expressions reference the target; map T.col to the
                // (possibly qualified) input column.
                let target = template.def.target().to_string();
                let value_expr = value_expr.transform(&|e| match e {
                    Expr::Column(c) if c.qualifier.as_deref() == Some(target.as_str()) => {
                        Expr::Column(ColumnRef::new(flat(qualifier, &c.name)))
                    }
                    other => other,
                });
                let exists = in_schema.index_of(qualifier, col).is_ok();
                let else_branch = if exists {
                    Expr::Column(ColumnRef::new(flat(qualifier, col)))
                } else {
                    default_for(&value_expr, &in_schema)?
                };
                let case = Expr::Case {
                    branches: vec![(cond.clone(), value_expr)],
                    else_expr: Some(Box::new(else_branch)),
                };
                if exists {
                    overrides.push((col.clone(), case));
                } else {
                    new_cols.push((flat(qualifier, col), case));
                }
            }
            let mut exprs: Vec<(Expr, String)> = Vec::new();
            for f in in_schema.fields() {
                let is_target_col = match qualifier {
                    Some(q) => f.qualifier.as_deref() == Some(q),
                    None => f.qualifier.is_none(),
                };
                let over = overrides
                    .iter()
                    .find(|(c, _)| is_target_col && *c == f.name);
                match over {
                    Some((_, e)) => exprs.push((e.clone(), f.qualified_name())),
                    None => exprs.push((
                        Expr::Column(ColumnRef {
                            qualifier: f.qualifier.clone(),
                            name: f.name.clone(),
                        }),
                        f.qualified_name(),
                    )),
                }
            }
            for (c, e) in new_cols {
                exprs.push((e, c));
            }
            Ok(windowed.project(exprs))
        }
    }
}

/// [`apply_rule_qualified`] with unqualified reads columns.
pub fn apply_rule(
    input: LogicalPlan,
    template: &RuleTemplate,
    catalog: &Catalog,
) -> Result<LogicalPlan> {
    apply_rule_qualified(input, template, catalog, None)
}

/// Project back to the original schema's columns (dropping `__*` internals),
/// appending `extra` named columns.
fn project_original(plan: LogicalPlan, schema: &Schema, extra: &[(Expr, String)]) -> LogicalPlan {
    let mut exprs: Vec<(Expr, String)> = schema
        .fields()
        .iter()
        .map(|f| {
            (
                Expr::Column(ColumnRef {
                    qualifier: f.qualifier.clone(),
                    name: f.name.clone(),
                }),
                f.qualified_name(),
            )
        })
        .collect();
    exprs.extend(extra.iter().cloned());
    plan.project(exprs)
}

/// The default ("zero") value for a newly created MODIFY column, by the
/// assignment expression's type.
fn default_for(value_expr: &Expr, schema: &Schema) -> Result<Expr> {
    // For expressions referencing internals we cannot type; fall back to Int.
    let dt = value_expr.data_type(schema).unwrap_or(DataType::Int);
    Ok(match dt {
        DataType::Int => Expr::lit(0i64),
        DataType::Double => Expr::lit(0.0f64),
        DataType::Bool => Expr::lit(false),
        DataType::Str => Expr::Literal(Value::Null),
    })
}

/// Build `Φ_{Cn}(…Φ_{C1}(input))` for a chain of compiled rules, applied in
/// slice order (the caller is responsible for creation-time ordering).
pub fn cleansing_plan(
    input: LogicalPlan,
    templates: &[&RuleTemplate],
    catalog: &Catalog,
) -> Result<LogicalPlan> {
    cleansing_plan_qualified(input, templates, catalog, None)
}

/// [`cleansing_plan`] over reads columns qualified by `qualifier`.
pub fn cleansing_plan_qualified(
    input: LogicalPlan,
    templates: &[&RuleTemplate],
    catalog: &Catalog,
    qualifier: Option<&str>,
) -> Result<LogicalPlan> {
    let mut plan = input;
    for t in templates {
        plan = apply_rule_qualified(plan, t, catalog, qualifier)?;
    }
    Ok(plan)
}

/// Build and *execute* `Φ_{Cn}(…Φ_{C1}(input))`, materializing the cleansed
/// relation. `options` controls partition-parallel window evaluation —
/// results and work counters are identical at any parallelism, so callers
/// may freely raise it. Returns the batch plus the executor's stats.
pub fn materialize_phi(
    input: LogicalPlan,
    templates: &[&RuleTemplate],
    catalog: &Catalog,
    options: ExecOptions,
) -> Result<(dc_relational::batch::Batch, dc_relational::exec::ExecStats)> {
    let phi = cleansing_plan(input, templates, catalog)?;
    let mut ex = Executor::with_options(catalog, options);
    let batch = ex.execute(&phi)?;
    Ok((batch, ex.stats))
}

/// Validate that a chain of rules is applicable together: same ON table and
/// identical cluster/sequence keys and FROM input (paper §4.4 / §5.4).
pub fn validate_chain(templates: &[&RuleTemplate]) -> Result<()> {
    let Some(first) = templates.first() else {
        return Ok(());
    };
    for t in templates.iter().skip(1) {
        if t.def.on_table != first.def.on_table {
            return Err(Error::Plan(format!(
                "rules '{}' and '{}' are defined ON different tables",
                first.def.name, t.def.name
            )));
        }
        if t.def.cluster_by != first.def.cluster_by || t.def.sequence_by != first.def.sequence_by {
            return Err(Error::Plan(format!(
                "rules '{}' and '{}' use different cluster/sequence keys",
                first.def.name, t.def.name
            )));
        }
        if t.def.from_table != first.def.from_table {
            return Err(Error::Plan(format!(
                "rules '{}' and '{}' read FROM different inputs — an application's \
                 rules must share one input (paper §4.4)",
                first.def.name, t.def.name
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_rule;
    use dc_relational::batch::{schema_ref, Batch};
    use dc_relational::exec::Executor;
    use dc_relational::optimizer::optimize_default;
    use dc_relational::schema::Field;
    use dc_relational::table::Table;
    use dc_relational::value::Value;
    use dc_sqlts::parse_rule;

    /// reads(epc, rtime, biz_loc, reader)
    fn catalog(rows: &[(&str, i64, &str, &str)]) -> Catalog {
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
            Field::new("biz_loc", DataType::Str),
            Field::new("reader", DataType::Str),
        ]));
        let data: Vec<Vec<Value>> = rows
            .iter()
            .map(|(e, t, l, r)| {
                vec![
                    Value::str(*e),
                    Value::Int(*t),
                    Value::str(*l),
                    Value::str(*r),
                ]
            })
            .collect();
        let cat = Catalog::new();
        cat.register(Table::new("r", Batch::from_rows(schema, &data).unwrap()));
        cat
    }

    fn clean(cat: &Catalog, rule_texts: &[&str]) -> Batch {
        let templates: Vec<RuleTemplate> = rule_texts
            .iter()
            .map(|t| compile_rule(&parse_rule(t).unwrap()).unwrap())
            .collect();
        let refs: Vec<&RuleTemplate> = templates.iter().collect();
        validate_chain(&refs).unwrap();
        let plan = cleansing_plan(LogicalPlan::scan("r"), &refs, cat).unwrap();
        let plan = optimize_default(plan, cat);
        Executor::new(cat).execute(&plan).unwrap()
    }

    const DUP: &str = "DEFINE duplicate ON R CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
        WHERE A.biz_loc = B.biz_loc and B.rtime - A.rtime < 5 mins ACTION DELETE B";
    const CYCLE: &str = "DEFINE cycle ON R CLUSTER BY epc SEQUENCE BY rtime AS (A, B, C) \
        WHERE A.biz_loc = C.biz_loc and A.biz_loc != B.biz_loc ACTION DELETE B";
    const READER: &str = "DEFINE reader ON R CLUSTER BY epc SEQUENCE BY rtime AS (A, *B) \
        WHERE B.reader = 'readerX' and B.rtime - A.rtime < 5 mins ACTION DELETE A";

    #[test]
    fn duplicate_rule_keeps_first_read() {
        let cat = catalog(&[
            ("e1", 0, "x", "r1"),
            ("e1", 100, "x", "r1"),  // dup of t=0 (within 300s)
            ("e1", 200, "x", "r1"),  // dup of t=100
            ("e1", 1000, "x", "r1"), // not a dup (>300s gap)
            ("e2", 50, "y", "r1"),
        ]);
        let out = clean(&cat, &[DUP]);
        let mut times: Vec<i64> = (0..out.num_rows())
            .filter(|&i| out.row(i)[0] == Value::str("e1"))
            .map(|i| out.row(i)[1].as_int().unwrap())
            .collect();
        times.sort_unstable();
        assert_eq!(times, vec![0, 1000]);
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn cycle_rule_collapses_xyxyxy() {
        // [X Y X Y X Y] -> [X Y] (first X, last Y), paper Example 4.
        let cat = catalog(&[
            ("e1", 10, "X", "r"),
            ("e1", 20, "Y", "r"),
            ("e1", 30, "X", "r"),
            ("e1", 40, "Y", "r"),
            ("e1", 50, "X", "r"),
            ("e1", 60, "Y", "r"),
        ]);
        let out = clean(&cat, &[CYCLE]);
        let rows = out.sorted_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][1], Value::Int(10));
        assert_eq!(rows[0][2], Value::str("X"));
        assert_eq!(rows[1][1], Value::Int(60));
        assert_eq!(rows[1][2], Value::str("Y"));
    }

    #[test]
    fn reader_rule_deletes_reads_before_readerx() {
        // Paper Fig. 3(a): r1 removed because readerX reads within 5 min after.
        let cat = catalog(&[
            ("e1", 1000, "l1", "readerY"),
            ("e1", 1240, "l2", "readerX"), // 4 min later
        ]);
        let out = clean(&cat, &[READER]);
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0)[3], Value::str("readerX"));
    }

    #[test]
    fn reader_rule_keeps_when_gap_too_large() {
        let cat = catalog(&[
            ("e1", 1000, "l1", "readerY"),
            ("e1", 1400, "l2", "readerX"), // 400s > 300s
        ]);
        let out = clean(&cat, &[READER]);
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn modify_rewrites_location() {
        // Paper Example 3 (replacing rule).
        let replacing = "DEFINE replacing ON R CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
            WHERE A.biz_loc = 'loc2' and B.biz_loc = 'locA' and B.rtime - A.rtime < 20 mins \
            ACTION MODIFY A.biz_loc = 'loc1'";
        let cat = catalog(&[
            ("e1", 0, "loc2", "r"), // cross read: becomes loc1
            ("e1", 600, "locA", "r"),
            ("e2", 0, "loc2", "r"), // no locA follow-up: stays loc2
            ("e2", 600, "locB", "r"),
        ]);
        let out = clean(&cat, &[replacing]);
        assert_eq!(out.num_rows(), 4);
        let locs: Vec<(Value, Value)> = out
            .sorted_rows()
            .into_iter()
            .map(|r| (r[0].clone(), r[2].clone()))
            .collect();
        assert!(locs.contains(&(Value::str("e1"), Value::str("loc1"))));
        assert!(locs.contains(&(Value::str("e2"), Value::str("loc2"))));
    }

    #[test]
    fn modify_creates_column_on_the_fly() {
        let rule = "DEFINE flag ON R CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
            WHERE A.biz_loc = B.biz_loc ACTION MODIFY A.flagged = 1";
        let cat = catalog(&[("e1", 0, "x", "r"), ("e1", 10, "x", "r")]);
        let out = clean(&cat, &[rule]);
        let flagged = out.column_by_name("flagged").unwrap();
        // First read has a duplicate after it at the same loc -> flagged.
        let by_time: Vec<(i64, i64)> = (0..2)
            .map(|i| (out.row(i)[1].as_int().unwrap(), flagged.int_at(i).unwrap()))
            .collect();
        assert!(by_time.contains(&(0, 1)));
        assert!(by_time.contains(&(10, 0))); // default 0, not NULL
    }

    #[test]
    fn rule_order_matters_cycle_then_dup() {
        // Paper §4.4: [X Y X] cleaned by cycle-then-duplicate gives [X];
        // duplicate-then-cycle gives [X X] (no time constraint on dup here).
        let dup_nolimit = "DEFINE dup ON R CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
            WHERE A.biz_loc = B.biz_loc ACTION DELETE B";
        let rows = [
            ("e1", 0, "X", "r"),
            ("e1", 10, "Y", "r"),
            ("e1", 20, "X", "r"),
        ];

        let cat = catalog(&rows);
        let out = clean(&cat, &[CYCLE, dup_nolimit]);
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0)[1], Value::Int(0));

        let cat = catalog(&rows);
        let out = clean(&cat, &[dup_nolimit, CYCLE]);
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn chained_rules_share_one_sort() {
        let cat = catalog(&[("e1", 0, "x", "r"), ("e1", 10, "x", "r")]);
        let t1 = compile_rule(&parse_rule(DUP).unwrap()).unwrap();
        let t2 = compile_rule(&parse_rule(CYCLE).unwrap()).unwrap();
        let plan = cleansing_plan(LogicalPlan::scan("r"), &[&t1, &t2], &cat).unwrap();
        let plan = optimize_default(plan, &cat);
        let mut ex = Executor::new(&cat);
        ex.execute(&plan).unwrap();
        assert_eq!(ex.stats.sorts, 1, "plan:\n{plan}");
        // The two rows are already in (epc, rtime) order, so the one shared
        // sort detects a single run and elides the merge entirely — an
        // elided sort still counts as performed (order sharing is about
        // plan shape, elision about data shape).
        assert_eq!(ex.stats.sorts_elided, 1);
        assert_eq!(ex.stats.merge_runs_used, 0);
    }

    #[test]
    fn chain_validation() {
        let t1 = compile_rule(&parse_rule(DUP).unwrap()).unwrap();
        let other = "DEFINE o ON R CLUSTER BY reader SEQUENCE BY rtime AS (A, B) \
            WHERE A.biz_loc = B.biz_loc ACTION DELETE B";
        let t2 = compile_rule(&parse_rule(other).unwrap()).unwrap();
        assert!(validate_chain(&[&t1, &t2]).is_err());
        assert!(validate_chain(&[&t1]).is_ok());
        assert!(validate_chain(&[]).is_ok());
    }

    #[test]
    fn empty_input_stays_empty() {
        let cat = catalog(&[]);
        let out = clean(&cat, &[DUP, CYCLE, READER]);
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn keep_action_via_flag_pipeline() {
        // MODIFY sets a flag, then a KEEP rule retains flagged rows plus all
        // rows of another kind — exercising the r1 -> r2 pipeline shape.
        let flag = "DEFINE f ON R CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
            WHERE A.biz_loc = B.biz_loc ACTION MODIFY A.keepme = 1";
        let keep = "DEFINE k ON R CLUSTER BY epc SEQUENCE BY rtime AS (A, *B) \
            WHERE A.keepme = 1 or B.keepme = 1 ACTION KEEP A";
        let cat = catalog(&[
            ("e1", 0, "x", "r"),
            ("e1", 10, "x", "r"), // same loc as prev: t=0 flagged
            ("e1", 20, "y", "r"), // not flagged, nothing flagged after -> dropped
        ]);
        let out = clean(&cat, &[flag, keep]);
        let times: Vec<i64> = out
            .sorted_rows()
            .iter()
            .map(|r| r[1].as_int().unwrap())
            .collect();
        assert_eq!(times, vec![0]);
    }

    #[test]
    fn qualified_cleansing_over_aliased_scan() {
        let cat = catalog(&[
            ("e1", 0, "x", "r1"),
            ("e1", 100, "x", "r1"),
            ("e2", 50, "y", "r1"),
        ]);
        let t = compile_rule(&parse_rule(DUP).unwrap()).unwrap();
        let plan =
            apply_rule_qualified(LogicalPlan::scan_as("r", "c"), &t, &cat, Some("c")).unwrap();
        let plan = optimize_default(plan, &cat);
        let out = Executor::new(&cat).execute(&plan).unwrap();
        assert_eq!(out.num_rows(), 2);
        // Output keeps the alias-qualified schema.
        assert!(out.column_by_name("c.epc").is_ok());
    }

    #[test]
    fn qualified_cleansing_over_joined_input() {
        // Join reads with a dimension that also has an `epc` column, then
        // cleanse: the qualifier disambiguates.
        let cat = catalog(&[
            ("e1", 0, "x", "r1"),
            ("e1", 100, "x", "r1"),
            ("e2", 50, "y", "r1"),
        ]);
        let dim_schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("lot", DataType::Int),
        ]));
        let dim = Batch::from_rows(
            dim_schema,
            &[
                vec![Value::str("e1"), Value::Int(7)],
                vec![Value::str("e2"), Value::Int(8)],
            ],
        )
        .unwrap();
        cat.register(Table::new("epc_info", dim));
        let joined = LogicalPlan::scan_as("r", "c").join(
            LogicalPlan::scan_as("epc_info", "i"),
            vec![Expr::col("c.epc")],
            vec![Expr::col("i.epc")],
            dc_relational::join::JoinType::Inner,
        );
        let t = compile_rule(&parse_rule(DUP).unwrap()).unwrap();
        let plan = apply_rule_qualified(joined, &t, &cat, Some("c")).unwrap();
        let out = Executor::new(&cat)
            .execute(&optimize_default(plan, &cat))
            .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert!(out.column_by_name("i.lot").is_ok());
    }

    #[test]
    fn qualified_modify_keeps_dimension_columns() {
        let cat = catalog(&[("e1", 0, "loc2", "r"), ("e1", 600, "locA", "r")]);
        let replacing = "DEFINE replacing ON R CLUSTER BY epc SEQUENCE BY rtime AS (A, B) \
            WHERE A.biz_loc = 'loc2' and B.biz_loc = 'locA' and B.rtime - A.rtime < 20 mins \
            ACTION MODIFY A.biz_loc = 'loc1'";
        let t = compile_rule(&parse_rule(replacing).unwrap()).unwrap();
        let plan =
            apply_rule_qualified(LogicalPlan::scan_as("r", "c"), &t, &cat, Some("c")).unwrap();
        let out = Executor::new(&cat)
            .execute(&optimize_default(plan, &cat))
            .unwrap();
        let locs: Vec<Value> = out.column_by_name("c.biz_loc").unwrap().iter().collect();
        assert!(locs.contains(&Value::str("loc1")));
        assert!(!locs.contains(&Value::str("loc2")));
    }
}
