//! Hash joins: inner and left-semi.
//!
//! The paper's workloads join the reads table with *n-to-1 reference tables*
//! (locations, steps, products) and use semi-joins to restrict the set of
//! EPC sequences before cleansing (join-back rewrite, §5.3). NULL keys never
//! match, per SQL semantics.

use crate::batch::Batch;
use crate::column::Column;
use crate::error::{Error, Result};
use crate::exec::ExecStats;
use crate::expr::Expr;
use crate::hash::{encode_keys, EncodedKeys, NullKeys, RawKeyTable};
use crate::physical::QueryBudget;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Rows between cooperative budget checkpoints inside the build and probe
/// loops. Large joins must notice cancellation/deadlines promptly instead of
/// only at operator boundaries.
const BUDGET_CHECK_INTERVAL: usize = 1024;

/// Supported join types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Inner equi-join; output schema is `left ++ right`.
    Inner,
    /// Left semi-join: left rows with at least one right match; left schema.
    LeftSemi,
}

impl std::fmt::Display for JoinType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinType::Inner => f.write_str("INNER"),
            JoinType::LeftSemi => f.write_str("LEFT SEMI"),
        }
    }
}

/// Evaluate key expressions into per-row key tuples; `None` if any key part
/// is NULL (such rows never join).
fn key_rows(batch: &Batch, keys: &[Expr]) -> Result<Vec<Option<Vec<Value>>>> {
    let cols: Vec<_> = keys
        .iter()
        .map(|k| k.evaluate(batch))
        .collect::<Result<Vec<_>>>()?;
    let n = batch.num_rows();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        if cols.iter().any(|c| c.is_null(i)) {
            out.push(None);
        } else {
            out.push(Some(cols.iter().map(|c| c.value(i)).collect()));
        }
    }
    Ok(out)
}

/// Hash join two batches on equi-key expressions.
///
/// The hash table is always built on the right input (the caller puts the
/// smaller/reference side on the right, as the planner does for dimension
/// tables). Returns the joined batch and the number of probe comparisons,
/// which the executor accumulates as a work counter.
///
/// Convenience wrapper over [`hash_join_with`]: unlimited budget, vectorized
/// hash path.
pub fn hash_join(
    left: &Batch,
    right: &Batch,
    left_keys: &[Expr],
    right_keys: &[Expr],
    join_type: JoinType,
) -> Result<(Batch, u64)> {
    let (batch, work) = hash_join_with(
        left,
        right,
        left_keys,
        right_keys,
        join_type,
        &QueryBudget::unlimited(),
        false,
    )?;
    Ok((batch, work.join_probes))
}

/// [`hash_join`] with a cooperative budget (checked every
/// `BUDGET_CHECK_INTERVAL` rows inside both the build and probe loops) and
/// an explicit path selector: `rowwise` runs the retained
/// `HashMap<Vec<Value>, _>` oracle the property suite compares against,
/// otherwise build and probe run on the vectorized kernels of
/// [`crate::hash`]. The returned work counts one `join_probes` per left
/// row, NULL-keyed rows included, plus the hash-kernel counters.
pub fn hash_join_with(
    left: &Batch,
    right: &Batch,
    left_keys: &[Expr],
    right_keys: &[Expr],
    join_type: JoinType,
    budget: &QueryBudget,
    rowwise: bool,
) -> Result<(Batch, ExecStats)> {
    if left_keys.len() != right_keys.len() || left_keys.is_empty() {
        return Err(Error::Plan(format!(
            "join requires matching non-empty key lists, got {} and {}",
            left_keys.len(),
            right_keys.len()
        )));
    }
    if rowwise {
        hash_join_rowwise(left, right, left_keys, right_keys, join_type, budget)
    } else {
        hash_join_vectorized(left, right, left_keys, right_keys, join_type, budget)
    }
}

/// Assemble the inner-join output from gathered row indices.
fn emit_inner(left: &Batch, right: &Batch, li: &[usize], ri: &[usize]) -> Result<Batch> {
    let lt = left.take(li);
    let rt = right.take(ri);
    let schema = Arc::new(lt.schema().join(rt.schema()));
    let mut cols = lt.columns().to_vec();
    cols.extend(rt.columns().iter().cloned());
    Batch::new(schema, cols)
}

/// The vectorized path: build a [`JoinBuild`] over the right keys, then
/// probe it with the left keys.
fn hash_join_vectorized(
    left: &Batch,
    right: &Batch,
    left_keys: &[Expr],
    right_keys: &[Expr],
    join_type: JoinType,
    budget: &QueryBudget,
) -> Result<(Batch, ExecStats)> {
    let rcols: Vec<Column> = right_keys
        .iter()
        .map(|k| k.evaluate(right))
        .collect::<Result<_>>()?;
    let mut build_work = ExecStats::default();
    let build = JoinBuild::build(&rcols, right.num_rows(), budget, &mut build_work)?;
    let (batch, mut work) = probe_join(left, right, left_keys, &build, join_type, budget)?;
    work.add(&build_work);
    Ok((batch, work))
}

/// The build half of a vectorized hash join: a normalized-key table over
/// the build rows plus CSR match lists (slot → build rows, ascending, which
/// is the oracle's insertion order). It depends only on the build-side key
/// columns, so [`crate::table::Table::join_build`] keeps one per table
/// column and every join probing that column shares it.
#[derive(Debug)]
pub(crate) struct JoinBuild {
    table: RawKeyTable,
    offsets: Vec<u32>,
    match_rows: Vec<u32>,
}

impl JoinBuild {
    /// Build over the first `rows` rows of `keys`, charging the key
    /// encoding and table inserts to `hash`. Rows with a NULL key part
    /// never match.
    pub(crate) fn build(
        keys: &[Column],
        rows: usize,
        budget: &QueryBudget,
        hash: &mut ExecStats,
    ) -> Result<JoinBuild> {
        const NO_SLOT: u32 = u32::MAX;
        let rkeys = encode_keys(keys, rows, NullKeys::Never, hash)?;
        let mut table = RawKeyTable::with_capacity(rows);
        let mut slot_of_row: Vec<u32> = Vec::with_capacity(rows);
        let mut counts: Vec<u32> = Vec::new();
        for i in 0..rows {
            if i % BUDGET_CHECK_INTERVAL == 0 {
                budget.check()?;
            }
            if !rkeys.is_joinable(i) {
                slot_of_row.push(NO_SLOT);
                continue;
            }
            let (slot, fresh) = table.insert(rkeys.hash(i), rkeys.key(i), hash);
            if fresh {
                counts.push(0);
            }
            counts[slot] += 1;
            slot_of_row.push(slot as u32);
        }
        let mut offsets = vec![0u32; counts.len() + 1];
        for s in 0..counts.len() {
            offsets[s + 1] = offsets[s] + counts[s];
        }
        let mut match_rows = vec![0u32; offsets[counts.len()] as usize];
        let mut cursor = offsets[..counts.len()].to_vec();
        for (i, &s) in slot_of_row.iter().enumerate() {
            if s != NO_SLOT {
                match_rows[cursor[s as usize] as usize] = i as u32;
                cursor[s as usize] += 1;
            }
        }
        Ok(JoinBuild {
            table,
            offsets,
            match_rows,
        })
    }

    /// The build rows whose key equals probe row `i` of `keys`: hash-first
    /// lookup, memcmp only on a hash match.
    fn matches(&self, keys: &EncodedKeys, i: usize, hash: &mut ExecStats) -> &[u32] {
        if !keys.is_joinable(i) {
            return &[];
        }
        match self.table.get(keys.hash(i), keys.key(i), hash) {
            Some(slot) => {
                &self.match_rows[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
            }
            None => &[],
        }
    }
}

/// Probe `build` — made over `right`'s join keys — with `left`'s keys and
/// assemble the join output. The returned work holds the probe side only:
/// a shared build is charged to no query.
pub(crate) fn probe_join(
    left: &Batch,
    right: &Batch,
    left_keys: &[Expr],
    build: &JoinBuild,
    join_type: JoinType,
    budget: &QueryBudget,
) -> Result<(Batch, ExecStats)> {
    let mut work = ExecStats::default();
    let lcols: Vec<Column> = left_keys
        .iter()
        .map(|k| k.evaluate(left))
        .collect::<Result<_>>()?;
    let ln = left.num_rows();
    let lkeys = encode_keys(&lcols, ln, NullKeys::Never, &mut work)?;
    let mut li = Vec::new();
    let mut ri = Vec::new();
    for i in 0..ln {
        if i % BUDGET_CHECK_INTERVAL == 0 {
            budget.check()?;
        }
        let matches = build.matches(&lkeys, i, &mut work);
        match join_type {
            JoinType::Inner => {
                for &m in matches {
                    li.push(i);
                    ri.push(m as usize);
                }
            }
            JoinType::LeftSemi if !matches.is_empty() => li.push(i),
            JoinType::LeftSemi => {}
        }
    }
    let batch = match join_type {
        JoinType::Inner => emit_inner(left, right, &li, &ri)?,
        JoinType::LeftSemi => left.take(&li),
    };
    work.join_probes += ln as u64;
    Ok((batch, work))
}

/// The retained `Vec<Value>` oracle path (equivalence baseline for the
/// vectorized kernels), with the same cooperative budget checkpoints.
fn hash_join_rowwise(
    left: &Batch,
    right: &Batch,
    left_keys: &[Expr],
    right_keys: &[Expr],
    join_type: JoinType,
    budget: &QueryBudget,
) -> Result<(Batch, ExecStats)> {
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (i, key) in key_rows(right, right_keys)?.into_iter().enumerate() {
        if i % BUDGET_CHECK_INTERVAL == 0 {
            budget.check()?;
        }
        if let Some(k) = key {
            table.entry(k).or_default().push(i);
        }
    }

    let left_keys_eval = key_rows(left, left_keys)?;
    let mut probes: u64 = 0;
    let work = |join_probes| ExecStats {
        join_probes,
        ..ExecStats::default()
    };
    match join_type {
        JoinType::Inner => {
            let mut li = Vec::new();
            let mut ri = Vec::new();
            for (i, key) in left_keys_eval.into_iter().enumerate() {
                if i % BUDGET_CHECK_INTERVAL == 0 {
                    budget.check()?;
                }
                probes += 1;
                let Some(k) = key else { continue };
                if let Some(matches) = table.get(&k) {
                    for &m in matches {
                        li.push(i);
                        ri.push(m);
                    }
                }
            }
            Ok((emit_inner(left, right, &li, &ri)?, work(probes)))
        }
        JoinType::LeftSemi => {
            let mut li = Vec::new();
            for (i, key) in left_keys_eval.into_iter().enumerate() {
                if i % BUDGET_CHECK_INTERVAL == 0 {
                    budget.check()?;
                }
                probes += 1;
                let Some(k) = key else { continue };
                if table.contains_key(&k) {
                    li.push(i);
                }
            }
            Ok((left.take(&li), work(probes)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::schema_ref;
    use crate::schema::{Field, Schema};
    use crate::value::DataType;

    fn reads() -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::qualified("c", "epc", DataType::Str),
            Field::qualified("c", "biz_loc", DataType::Str),
        ]));
        Batch::from_rows(
            schema,
            &[
                vec![Value::str("e1"), Value::str("l1")],
                vec![Value::str("e2"), Value::str("l2")],
                vec![Value::str("e3"), Value::Null],
                vec![Value::str("e4"), Value::str("l1")],
            ],
        )
        .unwrap()
    }

    fn locs() -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::qualified("l", "gln", DataType::Str),
            Field::qualified("l", "site", DataType::Str),
        ]));
        Batch::from_rows(
            schema,
            &[
                vec![Value::str("l1"), Value::str("dc1")],
                vec![Value::str("l3"), Value::str("dc2")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn inner_join_basics() {
        let (out, _) = hash_join(
            &reads(),
            &locs(),
            &[Expr::col("c.biz_loc")],
            &[Expr::col("l.gln")],
            JoinType::Inner,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.num_columns(), 4);
        let epcs: Vec<Value> = (0..2).map(|i| out.row(i)[0].clone()).collect();
        assert_eq!(epcs, vec![Value::str("e1"), Value::str("e4")]);
        assert_eq!(
            out.column_by_name("l.site").unwrap().value(0),
            Value::str("dc1")
        );
    }

    #[test]
    fn null_keys_never_match() {
        // e3 has NULL biz_loc; even a NULL on the right must not match it.
        let schema = schema_ref(Schema::new(vec![Field::new("gln", DataType::Str)]));
        let right = Batch::from_rows(schema, &[vec![Value::Null]]).unwrap();
        let (out, _) = hash_join(
            &reads(),
            &right,
            &[Expr::col("c.biz_loc")],
            &[Expr::col("gln")],
            JoinType::Inner,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn semi_join_keeps_left_schema_and_dedupes() {
        // Duplicate right keys must not duplicate left rows.
        let schema = schema_ref(Schema::new(vec![Field::new("gln", DataType::Str)]));
        let right =
            Batch::from_rows(schema, &[vec![Value::str("l1")], vec![Value::str("l1")]]).unwrap();
        let (out, _) = hash_join(
            &reads(),
            &right,
            &[Expr::col("c.biz_loc")],
            &[Expr::col("gln")],
            JoinType::LeftSemi,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.num_columns(), 2);
    }

    #[test]
    fn multi_key_join() {
        let schema = schema_ref(Schema::new(vec![
            Field::new("a", DataType::Str),
            Field::new("b", DataType::Str),
        ]));
        let left = Batch::from_rows(
            schema.clone(),
            &[
                vec![Value::str("x"), Value::str("1")],
                vec![Value::str("x"), Value::str("2")],
            ],
        )
        .unwrap();
        let schema_r = schema_ref(Schema::new(vec![
            Field::new("c", DataType::Str),
            Field::new("d", DataType::Str),
        ]));
        let right = Batch::from_rows(schema_r, &[vec![Value::str("x"), Value::str("2")]]).unwrap();
        let (out, _) = hash_join(
            &left,
            &right,
            &[Expr::col("a"), Expr::col("b")],
            &[Expr::col("c"), Expr::col("d")],
            JoinType::Inner,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0)[1], Value::str("2"));
    }

    #[test]
    fn one_to_many_inner_multiplies() {
        let schema = schema_ref(Schema::new(vec![Field::new("gln", DataType::Str)]));
        let right =
            Batch::from_rows(schema, &[vec![Value::str("l1")], vec![Value::str("l1")]]).unwrap();
        let (out, _) = hash_join(
            &reads(),
            &right,
            &[Expr::col("c.biz_loc")],
            &[Expr::col("gln")],
            JoinType::Inner,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 4); // e1 x2, e4 x2
    }

    #[test]
    fn empty_key_list_rejected() {
        assert!(hash_join(&reads(), &locs(), &[], &[], JoinType::Inner).is_err());
    }

    /// A wide batch of `n` rows with int, str, and NULL-bearing key columns.
    fn wide(n: usize, null_every: usize, salt: i64) -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("s", DataType::Str),
        ]));
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                let k = if null_every > 0 && i % null_every == 0 {
                    Value::Null
                } else {
                    Value::Int((i as i64 * salt) % 97)
                };
                vec![k, Value::str(format!("s{}", i % 13))]
            })
            .collect();
        Batch::from_rows(schema, &rows).unwrap()
    }

    #[test]
    fn vectorized_path_matches_rowwise_oracle() {
        let budget = QueryBudget::unlimited();
        for jt in [JoinType::Inner, JoinType::LeftSemi] {
            for (l, r) in [
                (wide(200, 7, 3), wide(40, 0, 5)),
                (wide(50, 0, 1), wide(50, 3, 1)),
                (wide(0, 0, 1), wide(10, 0, 1)),
            ] {
                let keys = [Expr::col("k"), Expr::col("s")];
                let (vb, vw) = hash_join_with(&l, &r, &keys, &keys, jt, &budget, false).unwrap();
                let (ob, ow) = hash_join_with(&l, &r, &keys, &keys, jt, &budget, true).unwrap();
                assert_eq!(vb.num_rows(), ob.num_rows(), "{jt}");
                for i in 0..vb.num_rows() {
                    assert_eq!(vb.row(i), ob.row(i), "{jt} row {i}");
                }
                assert_eq!(vw.join_probes, ow.join_probes, "{jt} probes");
                assert!(vw.hash_ops > 0);
            }
        }
    }

    #[test]
    fn expired_budget_aborts_inside_build_and_probe() {
        // An already-expired deadline must abort the join from inside its
        // loops — both paths, both phases (the first checkpoint fires at
        // row 0 of the build loop).
        let budget = QueryBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let l = wide(100, 0, 1);
        let r = wide(100, 0, 1);
        let keys = [Expr::col("k")];
        for rowwise in [false, true] {
            let err = hash_join_with(&l, &r, &keys, &keys, JoinType::Inner, &budget, rowwise)
                .unwrap_err();
            assert!(
                matches!(err, Error::Aborted(_)),
                "rowwise={rowwise}: {err:?}"
            );
        }
    }
}
