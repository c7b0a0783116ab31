//! Grouped aggregation (hash aggregation).
//!
//! Supports the aggregate shapes the paper's analytics use: `count(*)`,
//! `count(col)`, `count(distinct col)`, `sum`, `avg`, `min`, `max`, grouped
//! by arbitrary scalar expressions. NULL group keys form their own group
//! (SQL `GROUP BY` semantics); aggregate arguments skip NULLs.

use crate::batch::Batch;
use crate::column::{Column, ColumnBuilder};
use crate::error::{Error, Result};
use crate::expr::Expr;
use crate::hash::{encode_keys, HashStats, NullKeys, RawKeyTable};
use crate::schema::{Field, Schema};
use crate::value::{DataType, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Aggregate function applied per group.
#[derive(Debug, Clone, PartialEq)]
pub enum AggFunc {
    CountStar,
    Count(Expr),
    CountDistinct(Expr),
    Sum(Expr),
    Avg(Expr),
    Min(Expr),
    Max(Expr),
}

impl AggFunc {
    pub fn arg(&self) -> Option<&Expr> {
        match self {
            AggFunc::CountStar => None,
            AggFunc::Count(e)
            | AggFunc::CountDistinct(e)
            | AggFunc::Sum(e)
            | AggFunc::Avg(e)
            | AggFunc::Min(e)
            | AggFunc::Max(e) => Some(e),
        }
    }

    pub fn output_type(&self, schema: &Schema) -> Result<DataType> {
        match self {
            AggFunc::CountStar | AggFunc::Count(_) | AggFunc::CountDistinct(_) => Ok(DataType::Int),
            AggFunc::Avg(_) => Ok(DataType::Double),
            AggFunc::Sum(e) | AggFunc::Min(e) | AggFunc::Max(e) => e.data_type(schema),
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggFunc::CountStar => f.write_str("count(*)"),
            AggFunc::Count(e) => write!(f, "count({e})"),
            AggFunc::CountDistinct(e) => write!(f, "count(distinct {e})"),
            AggFunc::Sum(e) => write!(f, "sum({e})"),
            AggFunc::Avg(e) => write!(f, "avg({e})"),
            AggFunc::Min(e) => write!(f, "min({e})"),
            AggFunc::Max(e) => write!(f, "max({e})"),
        }
    }
}

/// A named aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    pub func: AggFunc,
    pub alias: String,
}

/// Per-group accumulator state.
enum AggState {
    Count(i64),
    Distinct(HashSet<Value>),
    SumInt(i64, bool), // (sum, saw_any)
    SumF64(f64, bool),
    /// Integer-argument average: exact i128 sum, divided once at finish.
    /// Order-independent, which is what lets incremental maintenance
    /// reproduce it from add/subtract deltas bit-for-bit.
    AvgInt(i128, i64),
    Avg(f64, i64),
    MinMax(Option<Value>),
}

impl AggState {
    fn new(func: &AggFunc, arg_type: Option<DataType>) -> AggState {
        match func {
            AggFunc::CountStar | AggFunc::Count(_) => AggState::Count(0),
            AggFunc::CountDistinct(_) => AggState::Distinct(HashSet::new()),
            AggFunc::Sum(_) => match arg_type {
                Some(DataType::Double) => AggState::SumF64(0.0, false),
                _ => AggState::SumInt(0, false),
            },
            AggFunc::Avg(_) => match arg_type {
                Some(DataType::Int) => AggState::AvgInt(0, 0),
                _ => AggState::Avg(0.0, 0),
            },
            AggFunc::Min(_) | AggFunc::Max(_) => AggState::MinMax(None),
        }
    }

    fn update(&mut self, func: &AggFunc, v: Option<Value>) -> Result<()> {
        match (self, func) {
            (AggState::Count(c), AggFunc::CountStar) => *c += 1,
            (AggState::Count(c), AggFunc::Count(_)) => {
                if v.is_some() {
                    *c += 1;
                }
            }
            (AggState::Distinct(s), AggFunc::CountDistinct(_)) => {
                if let Some(v) = v {
                    s.insert(v);
                }
            }
            (AggState::SumInt(s, any), AggFunc::Sum(_)) => {
                if let Some(v) = v {
                    let x = v.as_int().ok_or_else(|| {
                        Error::Execution(format!("sum over non-integer value {v}"))
                    })?;
                    *s = s
                        .checked_add(x)
                        .ok_or_else(|| Error::Execution("sum overflow".into()))?;
                    *any = true;
                }
            }
            (AggState::SumF64(s, any), AggFunc::Sum(_)) => {
                if let Some(v) = v {
                    *s += v.as_double().ok_or_else(|| {
                        Error::Execution(format!("sum over non-numeric value {v}"))
                    })?;
                    *any = true;
                }
            }
            (AggState::AvgInt(s, n), AggFunc::Avg(_)) => {
                if let Some(v) = v {
                    *s += v.as_int().ok_or_else(|| {
                        Error::Execution(format!("avg over non-integer value {v}"))
                    })? as i128;
                    *n += 1;
                }
            }
            (AggState::Avg(s, n), AggFunc::Avg(_)) => {
                if let Some(v) = v {
                    *s += v.as_double().ok_or_else(|| {
                        Error::Execution(format!("avg over non-numeric value {v}"))
                    })?;
                    *n += 1;
                }
            }
            (AggState::MinMax(best), AggFunc::Min(_)) => {
                if let Some(v) = v {
                    let replace = best.as_ref().is_none_or(|b| v.total_cmp(b).is_lt());
                    if replace {
                        *best = Some(v);
                    }
                }
            }
            (AggState::MinMax(best), AggFunc::Max(_)) => {
                if let Some(v) = v {
                    let replace = best.as_ref().is_none_or(|b| v.total_cmp(b).is_gt());
                    if replace {
                        *best = Some(v);
                    }
                }
            }
            _ => return Err(Error::Internal("aggregate state/function mismatch".into())),
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(c) => Value::Int(c),
            AggState::Distinct(s) => Value::Int(s.len() as i64),
            AggState::SumInt(s, any) => {
                if any {
                    Value::Int(s)
                } else {
                    Value::Null
                }
            }
            AggState::SumF64(s, any) => {
                if any {
                    Value::Double(s)
                } else {
                    Value::Null
                }
            }
            AggState::AvgInt(s, n) => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Double(s as f64 / n as f64)
                }
            }
            AggState::Avg(s, n) => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Double(s / n as f64)
                }
            }
            AggState::MinMax(best) => best.unwrap_or(Value::Null),
        }
    }
}

/// Execute a hash aggregation. Output columns are the group expressions
/// (named by `group_aliases`) followed by the aggregates.
///
/// Convenience wrapper over [`hash_aggregate_with`] (vectorized hash path,
/// counters discarded).
pub fn hash_aggregate(
    input: &Batch,
    group_by: &[(Expr, String)],
    aggs: &[AggExpr],
) -> Result<Batch> {
    let mut hash = HashStats::default();
    hash_aggregate_with(input, group_by, aggs, false, &mut hash)
}

/// [`hash_aggregate`] with an explicit path selector and hash-work counters.
/// `rowwise` runs the retained `HashMap<Vec<Value>, _>` oracle; otherwise
/// group lookup goes through the normalized-key table of [`crate::hash`].
pub fn hash_aggregate_with(
    input: &Batch,
    group_by: &[(Expr, String)],
    aggs: &[AggExpr],
    rowwise: bool,
    hash: &mut HashStats,
) -> Result<Batch> {
    let n = input.num_rows();
    let group_cols: Vec<Column> = group_by
        .iter()
        .map(|(e, _)| e.evaluate(input))
        .collect::<Result<_>>()?;
    let arg_cols: Vec<Option<Column>> = aggs
        .iter()
        .map(|a| a.func.arg().map(|e| e.evaluate(input)).transpose())
        .collect::<Result<_>>()?;
    let arg_types: Vec<Option<DataType>> = arg_cols
        .iter()
        .map(|c| c.as_ref().map(Column::data_type))
        .collect();
    let new_states = || -> Vec<AggState> {
        aggs.iter()
            .zip(&arg_types)
            .map(|(a, t)| AggState::new(&a.func, *t))
            .collect()
    };

    // Group lookup: slot index = first-seen order on both paths.
    // `rep_rows[slot]` is the first input row of each group — the group-key
    // output columns gather straight from the evaluated key columns, so key
    // values are never re-materialized from the table.
    let mut states: Vec<Vec<AggState>> = Vec::new();
    let mut rep_rows: Vec<usize> = Vec::new();
    let update = |slot: usize, states: &mut Vec<Vec<AggState>>, i: usize| -> Result<()> {
        for ((state, agg), arg) in states[slot].iter_mut().zip(aggs).zip(&arg_cols) {
            let v = match arg {
                None => None,
                Some(c) => {
                    if c.is_null(i) {
                        None
                    } else {
                        Some(c.value(i))
                    }
                }
            };
            state.update(&agg.func, v)?;
        }
        Ok(())
    };
    if rowwise {
        let mut groups: HashMap<Vec<Value>, usize> = HashMap::new();
        for i in 0..n {
            let key: Vec<Value> = group_cols.iter().map(|c| c.value(i)).collect();
            let next = states.len();
            let slot = *groups.entry(key).or_insert(next);
            if slot == next {
                states.push(new_states());
                rep_rows.push(i);
            }
            update(slot, &mut states, i)?;
        }
    } else {
        let keys = encode_keys(&group_cols, n, NullKeys::Match, hash)?;
        let mut table = RawKeyTable::with_capacity(n.min(1024));
        for i in 0..n {
            let (slot, fresh) = table.insert(keys.hash(i), keys.key(i), hash);
            if fresh {
                states.push(new_states());
                rep_rows.push(i);
            }
            update(slot, &mut states, i)?;
        }
    }

    // Global aggregation over an empty input yields one all-default row.
    if states.is_empty() && group_by.is_empty() {
        states.push(new_states());
    }

    // Output schema.
    let mut fields = Vec::with_capacity(group_by.len() + aggs.len());
    for ((e, alias), c) in group_by.iter().zip(&group_cols) {
        let dt = if n == 0 {
            e.data_type(input.schema()).unwrap_or(DataType::Int)
        } else {
            c.data_type()
        };
        fields.push(Field::new(alias.clone(), dt));
    }
    for a in aggs {
        fields.push(Field::new(
            a.alias.clone(),
            a.func.output_type(input.schema())?,
        ));
    }
    let schema = Arc::new(Schema::new(fields));

    // Group-key columns gather from the evaluated key columns (empty inputs
    // fall back to an empty column of the schema type); aggregate columns
    // are built from the finished accumulators, slots in first-seen order.
    let mut cols: Vec<Column> = Vec::with_capacity(schema.fields().len());
    for (c, f) in group_cols.iter().zip(schema.fields()) {
        if n == 0 {
            cols.push(ColumnBuilder::new(f.data_type, 0).finish());
        } else {
            cols.push(c.take(&rep_rows));
        }
    }
    for (a, f) in (0..aggs.len()).zip(&schema.fields()[group_by.len()..]) {
        let mut b = ColumnBuilder::new(f.data_type, states.len());
        for slot_states in &mut states {
            // `finish` consumes; replace with a placeholder we never read.
            let s = std::mem::replace(&mut slot_states[a], AggState::Count(0));
            b.push(&s.finish())?;
        }
        cols.push(b.finish());
    }
    Batch::new(schema, cols)
}

/// DISTINCT over whole rows.
///
/// Convenience wrapper over [`distinct_with`] (vectorized hash path,
/// counters discarded).
pub fn distinct(input: &Batch) -> Batch {
    let mut hash = HashStats::default();
    distinct_with(input, false, &mut hash).expect("distinct encoding cannot fail")
}

/// [`distinct`] with an explicit path selector and hash-work counters.
pub fn distinct_with(input: &Batch, rowwise: bool, hash: &mut HashStats) -> Result<Batch> {
    let n = input.num_rows();
    let mut keep = Vec::new();
    if rowwise {
        let mut seen: HashSet<Vec<Value>> = HashSet::new();
        for i in 0..n {
            if seen.insert(input.row(i)) {
                keep.push(i);
            }
        }
    } else {
        let keys = encode_keys(input.columns(), n, NullKeys::Match, hash)?;
        let mut table = RawKeyTable::with_capacity(n.min(1024));
        for i in 0..n {
            if table.insert(keys.hash(i), keys.key(i), hash).1 {
                keep.push(i);
            }
        }
    }
    Ok(input.take(&keep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::schema_ref;

    fn batch() -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::new("mfr", DataType::Str),
            Field::new("reader", DataType::Str),
            Field::new("t", DataType::Int),
        ]));
        Batch::from_rows(
            schema,
            &[
                vec![Value::str("m1"), Value::str("r1"), Value::Int(10)],
                vec![Value::str("m1"), Value::str("r2"), Value::Int(20)],
                vec![Value::str("m1"), Value::str("r1"), Value::Int(30)],
                vec![Value::str("m2"), Value::str("r1"), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn count_distinct_and_avg() {
        let out = hash_aggregate(
            &batch(),
            &[(Expr::col("mfr"), "mfr".into())],
            &[
                AggExpr {
                    func: AggFunc::CountDistinct(Expr::col("reader")),
                    alias: "readers".into(),
                },
                AggExpr {
                    func: AggFunc::Avg(Expr::col("t")),
                    alias: "avg_t".into(),
                },
                AggExpr {
                    func: AggFunc::CountStar,
                    alias: "n".into(),
                },
            ],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        // first-seen order: m1 then m2
        assert_eq!(out.row(0)[0], Value::str("m1"));
        assert_eq!(out.row(0)[1], Value::Int(2));
        assert_eq!(out.row(0)[2], Value::Double(20.0));
        assert_eq!(out.row(0)[3], Value::Int(3));
        // m2: avg over all-null -> NULL, count(*) = 1
        assert_eq!(out.row(1)[2], Value::Null);
        assert_eq!(out.row(1)[3], Value::Int(1));
    }

    #[test]
    fn count_skips_nulls_count_star_does_not() {
        let out = hash_aggregate(
            &batch(),
            &[],
            &[
                AggExpr {
                    func: AggFunc::Count(Expr::col("t")),
                    alias: "ct".into(),
                },
                AggExpr {
                    func: AggFunc::CountStar,
                    alias: "cs".into(),
                },
            ],
        )
        .unwrap();
        assert_eq!(out.row(0), vec![Value::Int(3), Value::Int(4)]);
    }

    #[test]
    fn min_max_sum() {
        let out = hash_aggregate(
            &batch(),
            &[],
            &[
                AggExpr {
                    func: AggFunc::Min(Expr::col("t")),
                    alias: "mn".into(),
                },
                AggExpr {
                    func: AggFunc::Max(Expr::col("t")),
                    alias: "mx".into(),
                },
                AggExpr {
                    func: AggFunc::Sum(Expr::col("t")),
                    alias: "s".into(),
                },
            ],
        )
        .unwrap();
        assert_eq!(
            out.row(0),
            vec![Value::Int(10), Value::Int(30), Value::Int(60)]
        );
    }

    #[test]
    fn empty_input_global_agg_yields_one_row() {
        let b = batch().take(&[]);
        let out = hash_aggregate(
            &b,
            &[],
            &[AggExpr {
                func: AggFunc::CountStar,
                alias: "n".into(),
            }],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0)[0], Value::Int(0));
    }

    #[test]
    fn empty_input_grouped_agg_yields_zero_rows() {
        let b = batch().take(&[]);
        let out = hash_aggregate(
            &b,
            &[(Expr::col("mfr"), "mfr".into())],
            &[AggExpr {
                func: AggFunc::CountStar,
                alias: "n".into(),
            }],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn null_group_keys_group_together() {
        let schema = schema_ref(Schema::new(vec![Field::new("k", DataType::Str)]));
        let b = Batch::from_rows(
            schema,
            &[vec![Value::Null], vec![Value::Null], vec![Value::str("a")]],
        )
        .unwrap();
        let out = hash_aggregate(
            &b,
            &[(Expr::col("k"), "k".into())],
            &[AggExpr {
                func: AggFunc::CountStar,
                alias: "n".into(),
            }],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.row(0), vec![Value::Null, Value::Int(2)]);
    }

    #[test]
    fn distinct_rows() {
        let schema = schema_ref(Schema::new(vec![Field::new("k", DataType::Str)]));
        let b = Batch::from_rows(
            schema,
            &[
                vec![Value::str("a")],
                vec![Value::str("a")],
                vec![Value::Null],
                vec![Value::Null],
            ],
        )
        .unwrap();
        let d = distinct(&b);
        assert_eq!(d.num_rows(), 2);
    }
}
