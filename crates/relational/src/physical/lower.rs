//! Lowering: [`LogicalPlan`] → [`PhysicalOperator`] tree.
//!
//! This pass is where optimizer decisions become explicit physical
//! structure instead of runtime re-derivation:
//!
//! * **Index bounds** — for each scan with a pushed-down filter, the
//!   per-column range bounds and IN-lists implied by the predicate
//!   (including bounds shared by every OR branch, which is how the paper's
//!   §5.2 relaxed expanded condition becomes index-usable) are derived here
//!   and stored on the [`PhysicalScan`] as [`IndexCandidate`]s. At runtime
//!   the scan only picks the most selective candidate on the actual table —
//!   a data-dependent choice, not a plan-level one.
//! * **Sort placement** — a `Window` whose `presorted` flag was set by the
//!   optimizer (order sharing) lowers to a bare [`PhysicalWindow`]; an
//!   unsorted one gets an explicit [`PhysicalSort`] on (partition keys,
//!   order keys) inserted in front. The physical window operator itself
//!   never sorts.

use super::aggregate::PhysicalAggregate;
use super::distinct::PhysicalDistinct;
use super::filter::PhysicalFilter;
use super::hash_join::{PhysicalHashJoin, TableBuild};
use super::limit::PhysicalLimit;
use super::project::PhysicalProject;
use super::scan::{IndexCandidate, PhysicalScan};
use super::semi_join::PhysicalSemiJoin;
use super::sort::PhysicalSort;
use super::subquery_alias::PhysicalSubqueryAlias;
use super::union::PhysicalUnion;
use super::window::PhysicalWindow;
use super::PhysicalOperator;
use crate::error::Result;
use crate::expr::{split_conjuncts, Expr};
use crate::index::ScanBound;
use crate::join::JoinType;
use crate::plan::{window_sort_keys, LogicalPlan};
use crate::schema::Schema;
use crate::table::{Catalog, Table};
use crate::value::Value;

/// Lower a logical plan to an executable physical operator tree.
pub fn lower(plan: &LogicalPlan, catalog: &Catalog) -> Result<Box<dyn PhysicalOperator>> {
    Ok(match plan {
        LogicalPlan::Scan {
            table,
            alias,
            filter,
        } => {
            let t = catalog.get(table)?;
            let candidates = match filter {
                Some(f) => derive_index_candidates(&t, &scan_schema(&t, alias), f),
                None => Vec::new(),
            };
            Box::new(PhysicalScan {
                table: table.clone(),
                alias: alias.clone(),
                filter: filter.clone(),
                candidates,
            })
        }
        LogicalPlan::Filter { input, predicate } => Box::new(PhysicalFilter {
            input: lower(input, catalog)?,
            predicate: predicate.clone(),
        }),
        LogicalPlan::Project { input, exprs } => Box::new(PhysicalProject {
            input: lower(input, catalog)?,
            exprs: exprs.clone(),
        }),
        LogicalPlan::Sort { input, keys } => Box::new(PhysicalSort {
            input: lower(input, catalog)?,
            keys: keys.clone(),
            run_hint_table: table_order_source(input),
        }),
        LogicalPlan::Window {
            input,
            partition_by,
            order_by,
            exprs,
            presorted,
        } => {
            let mut child = lower(input, catalog)?;
            if !presorted {
                // The optimizer did not find a shared order: make the sort
                // an explicit physical operator (same counter semantics as
                // a logical Sort node).
                child = Box::new(PhysicalSort {
                    input: child,
                    keys: window_sort_keys(partition_by, order_by),
                    run_hint_table: table_order_source(input),
                });
            }
            // RANGE frames need the single order key for binary searches.
            let order_key = if order_by.len() == 1 {
                Some(order_by[0].expr.clone())
            } else {
                None
            };
            Box::new(PhysicalWindow {
                input: child,
                partition_by: partition_by.clone(),
                order_key,
                exprs: exprs.clone(),
            })
        }
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
        } => {
            let l = lower(left, catalog)?;
            let r = lower(right, catalog)?;
            match join_type {
                JoinType::Inner => Box::new(PhysicalHashJoin {
                    left: l,
                    right: r,
                    left_keys: left_keys.clone(),
                    right_keys: right_keys.clone(),
                    table_build: table_build(right, right_keys, catalog),
                }),
                JoinType::LeftSemi => Box::new(PhysicalSemiJoin {
                    left: l,
                    right: r,
                    left_keys: left_keys.clone(),
                    right_keys: right_keys.clone(),
                }),
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => Box::new(PhysicalAggregate {
            input: lower(input, catalog)?,
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        }),
        LogicalPlan::Distinct { input } => Box::new(PhysicalDistinct {
            input: lower(input, catalog)?,
        }),
        LogicalPlan::Union { inputs } => Box::new(PhysicalUnion {
            inputs: inputs
                .iter()
                .map(|p| lower(p, catalog))
                .collect::<Result<_>>()?,
        }),
        LogicalPlan::Limit { input, fetch } => Box::new(PhysicalLimit {
            input: lower(input, catalog)?,
            fetch: *fetch,
        }),
        LogicalPlan::SubqueryAlias { input, alias } => Box::new(PhysicalSubqueryAlias {
            input: lower(input, catalog)?,
            alias: alias.clone(),
        }),
    })
}

/// The catalog table whose rows a sort placed directly above `input` would
/// receive *in table row order*, if any. Only an unfiltered scan qualifies:
/// a filtered scan may answer through an index (index order, not table
/// order), and any other operator reshapes or reorders rows. Used to attach
/// segment-metadata run hints to [`PhysicalSort`].
fn table_order_source(input: &LogicalPlan) -> Option<String> {
    match input {
        LogicalPlan::Scan {
            table,
            filter: None,
            ..
        } => Some(table.clone()),
        LogicalPlan::SubqueryAlias { input, .. } => table_order_source(input),
        _ => None,
    }
}

/// A scan's output schema, requalified by its alias: what column
/// references above the scan resolve against. It is positionally identical
/// to the table's.
fn scan_schema(table: &Table, alias: &Option<String>) -> Schema {
    match alias {
        Some(a) => table.schema().with_qualifier(a),
        None => table.schema().as_ref().clone(),
    }
}

/// Whether an inner join's build can be the right table's own
/// [`Table::join_build`]: the right input is an unfiltered scan and the
/// join has one key, a column of that scan. Filtered scans, multi-key joins
/// and any other right input build per query.
fn table_build(right: &LogicalPlan, right_keys: &[Expr], catalog: &Catalog) -> Option<TableBuild> {
    let LogicalPlan::Scan {
        table,
        alias,
        filter: None,
    } = right
    else {
        return None;
    };
    let [Expr::Column(c)] = right_keys else {
        return None;
    };
    let t = catalog.get(table).ok()?;
    let column = scan_schema(&t, alias)
        .index_of(c.qualifier.as_deref(), &c.name)
        .ok()?;
    Some(TableBuild {
        table: t.name().to_string(),
        column,
        name: t.schema().field(column).name.clone(),
    })
}

/// Range bounds accumulated for one column while deriving candidates.
#[derive(Default)]
struct ColBounds {
    lower: Option<(Value, bool)>, // (value, inclusive)
    upper: Option<(Value, bool)>,
    in_values: Option<Vec<Value>>,
}

impl ColBounds {
    fn tighten_lower(&mut self, v: Value, inclusive: bool) {
        let replace = match &self.lower {
            None => true,
            Some((cur, cur_inc)) => match v.total_cmp(cur) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => *cur_inc && !inclusive,
                std::cmp::Ordering::Less => false,
            },
        };
        if replace {
            self.lower = Some((v, inclusive));
        }
    }

    fn tighten_upper(&mut self, v: Value, inclusive: bool) {
        let replace = match &self.upper {
            None => true,
            Some((cur, cur_inc)) => match v.total_cmp(cur) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => *cur_inc && !inclusive,
                std::cmp::Ordering::Greater => false,
            },
        };
        if replace {
            self.upper = Some((v, inclusive));
        }
    }

    fn lower_bound(&self) -> ScanBound {
        match &self.lower {
            None => ScanBound::Unbounded,
            Some((v, true)) => ScanBound::Inclusive(v.clone()),
            Some((v, false)) => ScanBound::Exclusive(v.clone()),
        }
    }

    fn upper_bound(&self) -> ScanBound {
        match &self.upper {
            None => ScanBound::Unbounded,
            Some((v, true)) => ScanBound::Inclusive(v.clone()),
            Some((v, false)) => ScanBound::Exclusive(v.clone()),
        }
    }
}

/// Derive the per-column index-access candidates implied by `filter`:
/// range bounds from the whole predicate (including bounds every OR branch
/// shares) plus positive IN-lists. Candidates are ordered by column
/// position for deterministic tie-breaking at runtime.
fn derive_index_candidates(
    table: &Table,
    scan_schema: &Schema,
    filter: &Expr,
) -> Vec<IndexCandidate> {
    use std::collections::HashMap;
    let mut bounds: HashMap<usize, ColBounds> = HashMap::new();
    for (ci, interval) in crate::constraint::implied_bounds_resolved(filter, scan_schema) {
        let b = bounds.entry(ci).or_default();
        if let Some(l) = &interval.lower {
            b.tighten_lower(l.value.clone(), l.inclusive);
        }
        if let Some(u) = &interval.upper {
            b.tighten_upper(u.value.clone(), u.inclusive);
        }
    }
    for conj in split_conjuncts(filter) {
        if let Expr::InList {
            expr,
            list,
            negated: false,
        } = &conj
        {
            if let Expr::Column(c) = expr.as_ref() {
                if let Ok(ci) = scan_schema.index_of(c.qualifier.as_deref(), &c.name) {
                    bounds.entry(ci).or_default().in_values = Some(list.clone());
                }
            }
        } else if let Expr::InSet {
            expr,
            set,
            negated: false,
            ..
        } = &conj
        {
            if let Expr::Column(c) = expr.as_ref() {
                if let Ok(ci) = scan_schema.index_of(c.qualifier.as_deref(), &c.name) {
                    bounds.entry(ci).or_default().in_values = Some(set.iter().cloned().collect());
                }
            }
        }
    }

    let mut candidates: Vec<(usize, IndexCandidate)> = bounds
        .into_iter()
        .filter(|(_, b)| b.in_values.is_some() || b.lower.is_some() || b.upper.is_some())
        .map(|(ci, b)| {
            // Scan schema is positionally identical to the table schema.
            let column = table.schema().field(ci).name.clone();
            (
                ci,
                IndexCandidate {
                    column,
                    lower: b.lower_bound(),
                    upper: b.upper_bound(),
                    in_values: b.in_values,
                },
            )
        })
        .collect();
    candidates.sort_by_key(|(ci, _)| *ci);
    candidates.into_iter().map(|(_, c)| c).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{schema_ref, Batch};
    use crate::schema::Field;
    use crate::value::DataType;

    #[test]
    fn table_build_only_for_an_unfiltered_scan_on_one_key_column() {
        let schema = schema_ref(Schema::new(vec![
            Field::new("gln", DataType::Str),
            Field::new("code", DataType::Int),
        ]));
        let cat = Catalog::new();
        cat.register(Table::new("d", Batch::from_rows(schema, &[]).unwrap()));
        let build = |right: LogicalPlan, keys: &[&str]| {
            let keys: Vec<Expr> = keys.iter().map(|k| Expr::col(*k)).collect();
            table_build(&right, &keys, &cat).map(|tb| (tb.table, tb.column, tb.name))
        };
        let code = Some(("d".to_string(), 1, "code".to_string()));
        assert_eq!(build(LogicalPlan::scan("d"), &["code"]), code);
        assert_eq!(build(LogicalPlan::scan_as("d", "x"), &["x.code"]), code);
        let filtered = LogicalPlan::scan("d").filter(Expr::col("code").lt(Expr::lit(3i64)));
        assert_eq!(build(filtered, &["code"]), None);
        assert_eq!(build(LogicalPlan::scan("d"), &["gln", "code"]), None);
        let derived = LogicalPlan::scan("d").distinct();
        assert_eq!(build(derived, &["code"]), None);
    }
}
