//! Scatter-gather plan decomposition for a ckey-sharded catalog.
//!
//! Deferred cleansing partitions every rule by the cluster key, so a
//! catalog hashed on `ckey` makes cleansing embarrassingly parallel: no EPC
//! sequence ever spans two shards. This module is the relational half of
//! that architecture — given the coordinator's already-rewritten plan, it
//! decides how to run it across N shard catalogs:
//!
//! * [`split_scatter`] decomposes a plan into the part every shard executes
//!   locally plus a pipeline of coordinator-side [`GatherStep`]s;
//! * [`gather`] executes that pipeline over the per-shard partial batches —
//!   sorted-stream k-way merge (reusing [`sort_batch_runs`] with the shard
//!   boundaries as run hints), additive re-aggregation for
//!   count/sum/avg/min/max partials, cross-shard DISTINCT, and the
//!   coordinator-side final LIMIT.
//!
//! The decomposition is *conservative*: a subplan fans out only when every
//! window partition, join group, aggregate group, and distinct row is
//! provably local to one shard (it mentions the shard key, or touches only
//! replicated dimension tables). Everything else degrades to
//! [`ScatterPlan::SingleShard`] (replicated-only plans — any one shard has
//! the full answer) or [`ScatterPlan::Unshardable`] (the coordinator
//! executes over a merged view).
//!
//! Row-order contract: fan-out concatenates shard outputs in shard order,
//! so queries without ORDER BY come back in a different (equally valid)
//! row order than an unsharded run; under ORDER BY the k-way merge
//! reproduces the exact global ordering (ties within one shard keep their
//! shard-local order, and ties on the cluster key never span shards).
//! Floating-point SUM/AVG partials are combined shard-major, which is
//! exact for integer-valued inputs and associative-up-to-rounding
//! otherwise.

use crate::agg::{distinct_with, AggExpr, AggFunc};
use crate::batch::{schema_ref, Batch};
use crate::column::{Column, ColumnBuilder};
use crate::error::{Error, Result};
use crate::expr::Expr;
use crate::hash::{encode_keys, HashStats, NullKeys, RawKeyTable};
use crate::plan::LogicalPlan;
use crate::schema::{Field, Schema};
use crate::sort::{sort_batch, sort_batch_runs, SortKey};
use crate::table::Catalog;
use crate::value::{DataType, Value};
use std::collections::{BTreeSet, HashMap};

/// How the catalog is sharded: the cluster-key column and the set of
/// tables partitioned on it (all other tables are replicated to every
/// shard).
#[derive(Debug, Clone)]
pub struct ShardingSpec {
    /// Unqualified shard-key column name (the rules' cluster key).
    pub key: String,
    /// Tables partitioned by `key`; everything else is replicated.
    pub partitioned: BTreeSet<String>,
}

/// One coordinator-side merge operation, applied in order over the
/// concatenated shard partials.
#[derive(Debug, Clone, PartialEq)]
pub enum GatherStep {
    /// Shard outputs are each sorted on `keys`: k-way merge them into the
    /// exact global order (stable, ties break toward the earlier shard).
    MergeSorted { keys: Vec<SortKey> },
    /// Combine partial-aggregate rows (see [`Reaggregate`]).
    Reaggregate(Reaggregate),
    /// Cross-shard DISTINCT over whole rows (first-occurrence order).
    Distinct,
    /// Coordinator-side projection (used when the shard-side projection
    /// was subsumed by re-aggregation or cross-shard distinct).
    Project { exprs: Vec<(Expr, String)> },
    /// Coordinator-side sort (used when a shard-side sort was subsumed by
    /// re-aggregation).
    Sort { keys: Vec<SortKey> },
    /// Keep the first `fetch` rows of the gathered stream.
    Limit { fetch: usize },
}

/// How one output aggregate column is rebuilt from shard partials.
#[derive(Debug, Clone, PartialEq)]
pub enum PartialMerge {
    /// Sum integer counts (COUNT/COUNT(*) partials).
    CountSum,
    /// Re-sum SUM partials (integer or double, by partial column type).
    Sum,
    /// Minimum of MIN partials (NULLs skipped).
    Min,
    /// Maximum of MAX partials (NULLs skipped).
    Max,
    /// AVG from a `(sum, count)` partial column pair; emits a Double.
    AvgPair,
}

impl PartialMerge {
    /// Number of partial columns this merge consumes.
    fn arity(&self) -> usize {
        match self {
            PartialMerge::AvgPair => 2,
            _ => 1,
        }
    }
}

/// Re-aggregation spec: the first `group_cols` columns of every partial
/// batch are the group keys; the remaining columns are consumed left to
/// right by `merges` (one output column each, [`PartialMerge::AvgPair`]
/// consumes two). Groups are emitted in first-seen order over the
/// concatenated partials, which is deterministic for a fixed shard count.
#[derive(Debug, Clone, PartialEq)]
pub struct Reaggregate {
    /// Leading group-key column count.
    pub group_cols: usize,
    /// Per-output-aggregate merge functions, with the output alias.
    pub merges: Vec<(PartialMerge, String)>,
}

/// The decomposition of one query over a sharded catalog.
#[derive(Debug, Clone, PartialEq)]
pub enum ScatterPlan {
    /// The plan touches no partitioned table — every shard holds the full
    /// (replicated) inputs, so any single shard produces the complete
    /// answer.
    SingleShard,
    /// Fan `shard_plan` out to every shard, then run `steps` over the
    /// collected partials.
    Scatter {
        /// The plan each shard executes against its local catalog.
        shard_plan: LogicalPlan,
        /// Coordinator-side merge pipeline (empty = plain concatenation).
        steps: Vec<GatherStep>,
        /// `shard_plan` is byte-identical to the coordinator's rewritten
        /// plan, so shard executors may reuse its cached execution path.
        reuses_plan: bool,
    },
    /// No sound decomposition exists (non-key window partitions or join
    /// keys, interior LIMIT, COUNT DISTINCT over non-key groups, …): the
    /// coordinator must execute the full plan over a merged view of the
    /// shards.
    Unshardable,
}

/// Decompose `plan` for execution over a catalog sharded per `spec`.
pub fn split_scatter(plan: &LogicalPlan, spec: &ShardingSpec) -> ScatterPlan {
    if !touches_partitioned(plan, spec) {
        return ScatterPlan::SingleShard;
    }
    match split_top(plan, spec) {
        Some((shard_plan, steps)) => {
            let reuses_plan = shard_plan == *plan;
            ScatterPlan::Scatter {
                shard_plan,
                steps,
                reuses_plan,
            }
        }
        None => ScatterPlan::Unshardable,
    }
}

/// Does any scan under `plan` read a partitioned table?
fn touches_partitioned(plan: &LogicalPlan, spec: &ShardingSpec) -> bool {
    match plan {
        LogicalPlan::Scan { table, .. } => spec.partitioned.contains(table),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Window { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::SubqueryAlias { input, .. } => touches_partitioned(input, spec),
        LogicalPlan::Join { left, right, .. } => {
            touches_partitioned(left, spec) || touches_partitioned(right, spec)
        }
        LogicalPlan::Union { inputs } => inputs.iter().any(|p| touches_partitioned(p, spec)),
    }
}

/// Is `e` a bare reference to the shard-key column (any qualifier)?
fn is_key_column(e: &Expr, key: &str) -> bool {
    matches!(e, Expr::Column(c) if c.name == key)
}

/// Can `plan` run unchanged on every shard with plain concatenation as the
/// gather — i.e. is every group/partition/join-match provably shard-local?
fn shardable(plan: &LogicalPlan, spec: &ShardingSpec) -> bool {
    match plan {
        LogicalPlan::Scan { .. } => true,
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::SubqueryAlias { input, .. } => shardable(input, spec),
        LogicalPlan::Window {
            input,
            partition_by,
            ..
        } => partition_by.iter().any(|e| is_key_column(e, &spec.key)) && shardable(input, spec),
        LogicalPlan::Join {
            left,
            right,
            left_keys,
            right_keys,
            ..
        } => {
            if !shardable(left, spec) || !shardable(right, spec) {
                return false;
            }
            // A side without partitioned tables is fully replicated on
            // every shard, so any join against it is shard-local. When
            // both sides are partitioned the equi-keys must include the
            // shard key (co-partitioned join).
            if !(touches_partitioned(left, spec) && touches_partitioned(right, spec)) {
                return true;
            }
            left_keys
                .iter()
                .zip(right_keys)
                .any(|(l, r)| is_key_column(l, &spec.key) && is_key_column(r, &spec.key))
        }
        LogicalPlan::Aggregate {
            input, group_by, ..
        } => group_by.iter().any(|(e, _)| is_key_column(e, &spec.key)) && shardable(input, spec),
        LogicalPlan::Distinct { input } => {
            // Identical rows agree on every column; if the shard key is
            // among them, duplicates can never span shards.
            distinct_keeps_key(input, &spec.key) && shardable(input, spec)
        }
        LogicalPlan::Union { inputs } => inputs
            .iter()
            .all(|p| touches_partitioned(p, spec) && shardable(p, spec)),
        // First-n-rows of a global order cannot be computed per shard.
        LogicalPlan::Limit { .. } => false,
    }
}

/// Best-effort check that `input`'s output rows still carry the shard-key
/// column (so whole-row DISTINCT groups are shard-local).
fn distinct_keeps_key(input: &LogicalPlan, key: &str) -> bool {
    match input {
        LogicalPlan::Project { exprs, .. } => exprs.iter().any(|(e, _)| is_key_column(e, key)),
        LogicalPlan::Aggregate { group_by, .. } => {
            group_by.iter().any(|(e, _)| is_key_column(e, key))
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::SubqueryAlias { input, .. } => distinct_keeps_key(input, key),
        // Scans/joins/windows keep all input columns (windows append).
        LogicalPlan::Scan { .. } | LogicalPlan::Join { .. } | LogicalPlan::Window { .. } => true,
        LogicalPlan::Union { inputs } => inputs.iter().all(|p| distinct_keeps_key(p, key)),
    }
}

/// All aggregate functions decomposable into shard partials?
fn decomposable(aggs: &[AggExpr]) -> bool {
    aggs.iter()
        .all(|a| !matches!(a.func, AggFunc::CountDistinct(_)))
}

/// Lower `aggs` to shard-side partial aggregates plus the coordinator
/// merges rebuilding each original output column.
fn lower_partials(aggs: &[AggExpr]) -> (Vec<AggExpr>, Vec<(PartialMerge, String)>) {
    let mut partials = Vec::new();
    let mut merges = Vec::new();
    for a in aggs {
        match &a.func {
            AggFunc::CountStar | AggFunc::Count(_) => {
                partials.push(a.clone());
                merges.push((PartialMerge::CountSum, a.alias.clone()));
            }
            AggFunc::Sum(_) => {
                partials.push(a.clone());
                merges.push((PartialMerge::Sum, a.alias.clone()));
            }
            AggFunc::Min(_) => {
                partials.push(a.clone());
                merges.push((PartialMerge::Min, a.alias.clone()));
            }
            AggFunc::Max(_) => {
                partials.push(a.clone());
                merges.push((PartialMerge::Max, a.alias.clone()));
            }
            AggFunc::Avg(e) => {
                partials.push(AggExpr {
                    func: AggFunc::Sum(e.clone()),
                    alias: format!("__shard_sum_{}", a.alias),
                });
                partials.push(AggExpr {
                    func: AggFunc::Count(e.clone()),
                    alias: format!("__shard_cnt_{}", a.alias),
                });
                merges.push((PartialMerge::AvgPair, a.alias.clone()));
            }
            AggFunc::CountDistinct(_) => unreachable!("guarded by decomposable()"),
        }
    }
    (partials, merges)
}

/// Top-down decomposition of the gather-relevant plan prefix.
fn split_top(plan: &LogicalPlan, spec: &ShardingSpec) -> Option<(LogicalPlan, Vec<GatherStep>)> {
    match plan {
        LogicalPlan::Limit { input, fetch } => {
            let (sp, mut steps) = split_top(input, spec)?;
            // Limit pushes into the shards only while every gathered row is
            // a final row (concat / merge-sorted gathers); partial rows
            // (re-aggregation, cross-shard distinct) must stay unlimited.
            // Merge-sorted streams, projections, and earlier limits are
            // row-preserving (1:1 or prefix-safe); partial rows from
            // re-aggregation or cross-shard distinct are not.
            let pushable = steps.iter().all(|s| {
                matches!(
                    s,
                    GatherStep::MergeSorted { .. }
                        | GatherStep::Limit { .. }
                        | GatherStep::Project { .. }
                )
            });
            let sp = if pushable {
                LogicalPlan::Limit {
                    input: Box::new(sp),
                    fetch: *fetch,
                }
            } else {
                sp
            };
            steps.push(GatherStep::Limit { fetch: *fetch });
            Some((sp, steps))
        }
        LogicalPlan::Sort { input, keys } => {
            let (sp, mut steps) = split_top(input, spec)?;
            if steps.is_empty() {
                // Shards deliver sorted streams; merge reproduces the exact
                // global order.
                Some((
                    LogicalPlan::Sort {
                        input: Box::new(sp),
                        keys: keys.clone(),
                    },
                    vec![GatherStep::MergeSorted { keys: keys.clone() }],
                ))
            } else {
                // The sort consumed partial rows; re-sort after merging.
                steps.push(GatherStep::Sort { keys: keys.clone() });
                Some((sp, steps))
            }
        }
        LogicalPlan::Project { input, exprs } => {
            let (sp, mut steps) = split_top(input, spec)?;
            if steps.is_empty() {
                // The whole subtree fans out; keep the projection on the
                // shard side so partials are already final rows.
                Some((
                    LogicalPlan::Project {
                        input: Box::new(sp),
                        exprs: exprs.clone(),
                    },
                    vec![],
                ))
            } else {
                // The projection consumes coordinator-merged rows.
                steps.push(GatherStep::Project {
                    exprs: exprs.clone(),
                });
                Some((sp, steps))
            }
        }
        _ if shardable(plan, spec) => Some((plan.clone(), vec![])),
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } if decomposable(aggs) && shardable(input, spec) => {
            let (partials, merges) = lower_partials(aggs);
            let shard_plan = LogicalPlan::Aggregate {
                input: input.clone(),
                group_by: group_by.clone(),
                aggs: partials,
            };
            let steps = vec![GatherStep::Reaggregate(Reaggregate {
                group_cols: group_by.len(),
                merges,
            })];
            Some((shard_plan, steps))
        }
        LogicalPlan::Distinct { input } if shardable(input, spec) => Some((
            LogicalPlan::Distinct {
                input: input.clone(),
            },
            vec![GatherStep::Distinct],
        )),
        _ => None,
    }
}

/// Deterministic work observed while gathering shard partials; folded into
/// the coordinator's combined [`ExecStats`](crate::exec::ExecStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatherOutcome {
    /// Partial rows received from the shards and merged.
    pub shard_rows_merged: u64,
    /// Key comparisons spent by merge/sort steps.
    pub sort_comparisons: u64,
    /// Sorted runs consumed by the k-way merge steps.
    pub merge_runs_used: u64,
    /// Hash-kernel work spent merging partials (reaggregation + DISTINCT
    /// group lookups at the coordinator).
    pub hash: HashStats,
}

/// Execute the gather pipeline over per-shard partial batches.
///
/// Convenience wrapper over [`gather_with`] (vectorized hash path).
pub fn gather(parts: &[Batch], steps: &[GatherStep]) -> Result<(Batch, GatherOutcome)> {
    gather_with(parts, steps, false)
}

/// [`gather`] with an explicit hash-path selector: `rowwise` routes the
/// reaggregation and DISTINCT steps through the retained
/// `HashMap<Vec<Value>, _>` oracle instead of the normalized-key encoder.
pub fn gather_with(
    parts: &[Batch],
    steps: &[GatherStep],
    rowwise: bool,
) -> Result<(Batch, GatherOutcome)> {
    let mut outcome = GatherOutcome {
        shard_rows_merged: parts.iter().map(|b| b.num_rows() as u64).sum(),
        ..GatherOutcome::default()
    };
    // Shard boundaries double as sorted-run hints for the k-way merge.
    let mut boundaries = Vec::with_capacity(parts.len());
    let mut off = 0usize;
    for p in parts {
        boundaries.push(off);
        off += p.num_rows();
    }
    let mut batch = Batch::concat(parts)?;
    let mut hint: Option<Vec<usize>> = Some(boundaries);
    for step in steps {
        batch = match step {
            GatherStep::MergeSorted { keys } => {
                let (merged, effort) = sort_batch_runs(&batch, keys, hint.as_deref())?;
                outcome.sort_comparisons += effort.comparisons;
                outcome.merge_runs_used += effort.runs;
                merged
            }
            GatherStep::Reaggregate(spec) => reaggregate(&batch, spec, rowwise, &mut outcome.hash)?,
            GatherStep::Distinct => distinct_with(&batch, rowwise, &mut outcome.hash)?,
            GatherStep::Project { exprs } => {
                let cols: Vec<_> = exprs
                    .iter()
                    .map(|(e, _)| e.evaluate(&batch))
                    .collect::<Result<_>>()?;
                let fields: Vec<Field> = exprs
                    .iter()
                    .zip(&cols)
                    .map(|((e, alias), c)| {
                        let dt = if batch.num_rows() == 0 {
                            e.data_type(batch.schema()).unwrap_or(DataType::Int)
                        } else {
                            c.data_type()
                        };
                        Field::new(alias.clone(), dt)
                    })
                    .collect();
                Batch::new(schema_ref(Schema::new(fields)), cols)?
            }
            GatherStep::Sort { keys } => sort_batch(&batch, keys)?,
            GatherStep::Limit { fetch } => {
                let keep = (*fetch).min(batch.num_rows());
                batch.slice(0, keep)
            }
        };
        // Any step after the first consumes coordinator-produced rows; the
        // shard-boundary run hint no longer applies.
        hint = None;
    }
    Ok((batch, outcome))
}

/// Merge partial-aggregate rows: group on the leading key columns and
/// combine each partial column per its [`PartialMerge`]. Emits groups in
/// first-seen order over the concatenated partials. Group lookup runs on
/// the shared normalized-key encoder (so coordinator merge cost is counted
/// under `hash_ops`), unless `rowwise` selects the `Vec<Value>` oracle.
fn reaggregate(
    batch: &Batch,
    spec: &Reaggregate,
    rowwise: bool,
    hash: &mut HashStats,
) -> Result<Batch> {
    let consumed: usize = spec.merges.iter().map(|(m, _)| m.arity()).sum();
    if batch.num_columns() != spec.group_cols + consumed {
        return Err(Error::Execution(format!(
            "reaggregate: partial batch has {} columns, expected {} group + {} partial",
            batch.num_columns(),
            spec.group_cols,
            consumed
        )));
    }

    // Accumulator per output aggregate.
    enum Acc {
        CountSum(i64),
        SumInt(i64, bool),
        SumF64(f64, bool),
        MinMax(Option<Value>),
        AvgPair(f64, i64),
    }
    let new_accs = |schema: &Schema| -> Vec<Acc> {
        let mut col = spec.group_cols;
        spec.merges
            .iter()
            .map(|(m, _)| {
                let acc = match m {
                    PartialMerge::CountSum => Acc::CountSum(0),
                    PartialMerge::Sum => match schema.fields()[col].data_type {
                        DataType::Double => Acc::SumF64(0.0, false),
                        _ => Acc::SumInt(0, false),
                    },
                    PartialMerge::Min | PartialMerge::Max => Acc::MinMax(None),
                    PartialMerge::AvgPair => Acc::AvgPair(0.0, 0),
                };
                col += m.arity();
                acc
            })
            .collect()
    };

    let n = batch.num_rows();
    let mut rep_rows: Vec<usize> = Vec::new();
    let mut accs: Vec<Vec<Acc>> = Vec::new();
    let mut slot_of_row: Vec<u32> = Vec::with_capacity(n);
    if rowwise {
        let mut groups: HashMap<Vec<Value>, usize> = HashMap::new();
        for i in 0..n {
            let key: Vec<Value> = (0..spec.group_cols)
                .map(|c| batch.column(c).value(i))
                .collect();
            let next = accs.len();
            let slot = *groups.entry(key).or_insert(next);
            if slot == next {
                accs.push(new_accs(batch.schema()));
                rep_rows.push(i);
            }
            slot_of_row.push(slot as u32);
        }
    } else {
        let gcols: Vec<Column> = batch.columns()[..spec.group_cols].to_vec();
        let keys = encode_keys(&gcols, n, NullKeys::Match, hash)?;
        let mut table = RawKeyTable::with_capacity(n.min(1024));
        for i in 0..n {
            let (slot, fresh) = table.insert(keys.hash(i), keys.key(i), hash);
            if fresh {
                accs.push(new_accs(batch.schema()));
                rep_rows.push(i);
            }
            slot_of_row.push(slot as u32);
        }
    }
    for (i, &slot) in slot_of_row.iter().enumerate() {
        let row_accs = &mut accs[slot as usize];
        let mut col = spec.group_cols;
        for (acc, (m, _)) in row_accs.iter_mut().zip(&spec.merges) {
            let v = batch.column(col).value(i);
            match (acc, m) {
                (Acc::CountSum(c), PartialMerge::CountSum) => {
                    *c += v.as_int().ok_or_else(|| {
                        Error::Execution(format!("count partial must be integer, got {v}"))
                    })?;
                }
                (Acc::SumInt(s, any), PartialMerge::Sum) => {
                    if !v.is_null() {
                        let x = v.as_int().ok_or_else(|| {
                            Error::Execution(format!("sum partial must be integer, got {v}"))
                        })?;
                        *s = s
                            .checked_add(x)
                            .ok_or_else(|| Error::Execution("sum overflow".into()))?;
                        *any = true;
                    }
                }
                (Acc::SumF64(s, any), PartialMerge::Sum) => {
                    if !v.is_null() {
                        *s += v.as_double().ok_or_else(|| {
                            Error::Execution(format!("sum partial must be numeric, got {v}"))
                        })?;
                        *any = true;
                    }
                }
                (Acc::MinMax(best), PartialMerge::Min) => {
                    if !v.is_null() && best.as_ref().is_none_or(|b| v.total_cmp(b).is_lt()) {
                        *best = Some(v);
                    }
                }
                (Acc::MinMax(best), PartialMerge::Max) => {
                    if !v.is_null() && best.as_ref().is_none_or(|b| v.total_cmp(b).is_gt()) {
                        *best = Some(v);
                    }
                }
                (Acc::AvgPair(s, c), PartialMerge::AvgPair) => {
                    if !v.is_null() {
                        *s += v.as_double().ok_or_else(|| {
                            Error::Execution(format!("avg sum partial must be numeric, got {v}"))
                        })?;
                    }
                    let cnt = batch.column(col + 1).value(i);
                    *c += cnt.as_int().ok_or_else(|| {
                        Error::Execution(format!("avg count partial must be integer, got {cnt}"))
                    })?;
                }
                _ => return Err(Error::Internal("reaggregate accumulator mismatch".into())),
            }
            col += m.arity();
        }
    }

    // Output schema: group fields, then one column per original aggregate.
    let mut fields: Vec<Field> = batch.schema().fields()[..spec.group_cols].to_vec();
    let mut col = spec.group_cols;
    for (m, alias) in &spec.merges {
        let dt = match m {
            PartialMerge::CountSum => DataType::Int,
            PartialMerge::AvgPair => DataType::Double,
            _ => batch.schema().fields()[col].data_type,
        };
        fields.push(Field::new(alias.clone(), dt));
        col += m.arity();
    }
    let schema = schema_ref(Schema::new(fields));

    // Group-key columns gather straight from the input (first row of each
    // group); aggregate columns are built from the merged accumulators.
    let mut cols: Vec<Column> = (0..spec.group_cols)
        .map(|c| batch.column(c).take(&rep_rows))
        .collect();
    let mut builders: Vec<ColumnBuilder> = schema.fields()[spec.group_cols..]
        .iter()
        .map(|f| ColumnBuilder::new(f.data_type, accs.len()))
        .collect();
    for row_accs in accs {
        for (b, acc) in builders.iter_mut().zip(row_accs) {
            let v = match acc {
                Acc::CountSum(c) => Value::Int(c),
                Acc::SumInt(s, any) => {
                    if any {
                        Value::Int(s)
                    } else {
                        Value::Null
                    }
                }
                Acc::SumF64(s, any) => {
                    if any {
                        Value::Double(s)
                    } else {
                        Value::Null
                    }
                }
                Acc::MinMax(best) => best.unwrap_or(Value::Null),
                Acc::AvgPair(s, c) => {
                    if c == 0 {
                        Value::Null
                    } else {
                        Value::Double(s / c as f64)
                    }
                }
            };
            b.push(&v)?;
        }
    }
    cols.extend(builders.into_iter().map(ColumnBuilder::finish));
    Batch::new(schema, cols)
}

/// Build the sharding spec for `catalog`: every table carrying the `key`
/// column is partitioned, everything else is replicated.
pub fn sharding_spec_for(catalog: &Catalog, key: &str) -> ShardingSpec {
    let mut partitioned = BTreeSet::new();
    for name in catalog.table_names() {
        if let Ok(t) = catalog.get(&name) {
            if t.schema().index_of_name(key).is_ok() {
                partitioned.insert(name);
            }
        }
    }
    ShardingSpec {
        key: key.to_string(),
        partitioned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::plan_sql;
    use crate::table::Table;
    use crate::value::Value;

    fn catalog() -> Catalog {
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
            Field::new("w", DataType::Double),
        ]));
        let rows: Vec<Vec<Value>> = (0..40)
            .map(|i| {
                vec![
                    Value::str(format!("e{}", i % 7)),
                    Value::Int((i * 13) % 29),
                    Value::Double((i % 5) as f64),
                ]
            })
            .collect();
        let catalog = Catalog::new();
        catalog.register(Table::new(
            "caser",
            Batch::from_rows(schema, &rows).unwrap(),
        ));
        let dim = schema_ref(Schema::new(vec![Field::new("k", DataType::Int)]));
        catalog.register(Table::new(
            "dim",
            Batch::from_rows(dim, &[vec![Value::Int(1)]]).unwrap(),
        ));
        catalog
    }

    fn spec() -> ShardingSpec {
        ShardingSpec {
            key: "epc".into(),
            partitioned: BTreeSet::from(["caser".to_string()]),
        }
    }

    /// Partition rows by cluster key into `n` parts (order-preserving
    /// within a part — the invariant the shard router maintains), run
    /// `plan` on each part, and gather — the unsharded run is the oracle
    /// (canonical row order unless the gather ends sorted).
    fn scatter_oracle(sql: &str, n: usize, exact_order: bool) {
        let cat = catalog();
        let plan = plan_sql(sql, &cat).unwrap();
        let split = split_scatter(&plan, &spec());
        let ScatterPlan::Scatter {
            shard_plan, steps, ..
        } = &split
        else {
            panic!("expected a scatter decomposition for {sql}, got {split:?}");
        };

        let base = cat.get("caser").unwrap();
        let key_col = base.schema().index_of_name("epc").unwrap();
        let shard_of = |i: usize| -> usize {
            let v = base.data().column(key_col).value(i).to_string();
            v.bytes().fold(0usize, |h, b| h.wrapping_add(b as usize)) % n
        };
        let parts: Vec<Batch> = (0..n)
            .map(|s| {
                let idx: Vec<usize> = (0..base.num_rows()).filter(|&i| shard_of(i) == s).collect();
                let shard_cat = cat.overlay();
                shard_cat.drop_table("caser").unwrap();
                shard_cat.register(Table::new("caser", base.data().take(&idx)));
                crate::exec::Executor::new(&shard_cat)
                    .execute(shard_plan)
                    .unwrap()
            })
            .collect();
        let (got, outcome) = gather(&parts, steps).unwrap();
        assert_eq!(
            outcome.shard_rows_merged,
            parts.iter().map(|b| b.num_rows() as u64).sum::<u64>()
        );

        let want = crate::exec::Executor::new(&cat).execute(&plan).unwrap();
        if exact_order {
            let rows = |b: &Batch| (0..b.num_rows()).map(|i| b.row(i)).collect::<Vec<_>>();
            assert_eq!(rows(&got), rows(&want), "{sql} with {n} shards");
        } else {
            assert_eq!(
                got.sorted_rows(),
                want.sorted_rows(),
                "{sql} with {n} shards"
            );
        }
    }

    #[test]
    fn plain_scan_concats() {
        scatter_oracle("select epc, rtime from caser where rtime < 20", 3, false);
    }

    #[test]
    fn order_by_merges_to_exact_global_order() {
        scatter_oracle("select epc, rtime from caser order by epc, rtime", 4, true);
    }

    #[test]
    fn key_grouped_aggregate_is_shard_complete() {
        // Groups on the cluster key never span shards: the whole aggregate
        // runs shard-side and the gather is plain concatenation.
        let cat = catalog();
        let sql = "select epc, count(*) as n, sum(rtime) as s, avg(rtime) as a, \
                   min(rtime) as lo, max(rtime) as hi from caser group by epc";
        let plan = plan_sql(sql, &cat).unwrap();
        match split_scatter(&plan, &spec()) {
            ScatterPlan::Scatter {
                steps, reuses_plan, ..
            } => {
                assert!(steps.is_empty(), "expected concat gather, got {steps:?}");
                assert!(reuses_plan);
            }
            other => panic!("expected scatter, got {other:?}"),
        }
        for n in [1, 2, 4] {
            scatter_oracle(sql, n, false);
        }
    }

    #[test]
    fn non_key_groups_lower_to_partials() {
        // Groups on a non-key column span shards: the shards compute
        // partial count/sum/avg/min/max and the coordinator re-aggregates.
        let cat = catalog();
        let sql = "select rtime, count(*) as n, sum(rtime) as s, avg(rtime) as a, \
                   min(epc) as lo, max(epc) as hi from caser group by rtime";
        let plan = plan_sql(sql, &cat).unwrap();
        match split_scatter(&plan, &spec()) {
            ScatterPlan::Scatter { steps, .. } => {
                assert!(
                    steps
                        .iter()
                        .any(|s| matches!(s, GatherStep::Reaggregate(_))),
                    "expected a re-aggregation gather, got {steps:?}"
                );
            }
            other => panic!("expected scatter, got {other:?}"),
        }
        for n in [1, 2, 4] {
            scatter_oracle(sql, n, false);
        }
    }

    #[test]
    fn global_aggregate_over_doubles() {
        scatter_oracle(
            "select count(*) as n, sum(w) as s, avg(w) as a from caser",
            2,
            false,
        );
    }

    #[test]
    fn aggregate_then_order_by_sorts_after_merge() {
        // Non-key groups + ORDER BY: the shard-side sort is subsumed by
        // re-aggregation, so the coordinator sorts after the merge.
        scatter_oracle(
            "select rtime, count(*) as n from caser group by rtime order by rtime, n",
            3,
            true,
        );
    }

    #[test]
    fn order_by_limit_pushes_down() {
        let cat = catalog();
        let plan = plan_sql(
            "select epc, rtime from caser order by epc, rtime limit 5",
            &cat,
        )
        .unwrap();
        let split = split_scatter(&plan, &spec());
        let ScatterPlan::Scatter {
            shard_plan, steps, ..
        } = &split
        else {
            panic!("expected scatter, got {split:?}");
        };
        assert!(
            matches!(shard_plan, LogicalPlan::Limit { .. }),
            "limit must push into the shard plan: {shard_plan:?}"
        );
        assert_eq!(
            steps.last(),
            Some(&GatherStep::Limit { fetch: 5 }),
            "coordinator applies the final limit"
        );
        scatter_oracle(
            "select epc, rtime from caser order by epc, rtime limit 5",
            4,
            true,
        );
    }

    #[test]
    fn replicated_only_plans_run_single_shard() {
        let cat = catalog();
        let plan = plan_sql("select k from dim", &cat).unwrap();
        assert_eq!(split_scatter(&plan, &spec()), ScatterPlan::SingleShard);
    }

    #[test]
    fn count_distinct_over_non_key_groups_is_unshardable() {
        let cat = catalog();
        let plan = plan_sql(
            "select rtime, count(distinct epc) as n from caser group by rtime",
            &cat,
        )
        .unwrap();
        assert_eq!(split_scatter(&plan, &spec()), ScatterPlan::Unshardable);
    }

    #[test]
    fn key_partitioned_window_is_shardable() {
        let plan = LogicalPlan::Window {
            input: Box::new(LogicalPlan::Scan {
                table: "caser".into(),
                alias: None,
                filter: None,
            }),
            partition_by: vec![Expr::col("epc")],
            order_by: vec![SortKey::asc(Expr::col("rtime"))],
            exprs: vec![],
            presorted: false,
        };
        assert!(shardable(&plan, &spec()));
        let non_key = LogicalPlan::Window {
            input: Box::new(LogicalPlan::Scan {
                table: "caser".into(),
                alias: None,
                filter: None,
            }),
            partition_by: vec![Expr::col("rtime")],
            order_by: vec![],
            exprs: vec![],
            presorted: false,
        };
        assert!(!shardable(&non_key, &spec()));
    }

    #[test]
    fn sharding_spec_partitions_tables_with_the_key() {
        let cat = catalog();
        let s = sharding_spec_for(&cat, "epc");
        assert!(s.partitioned.contains("caser"));
        assert!(!s.partitioned.contains("dim"));
    }
}
