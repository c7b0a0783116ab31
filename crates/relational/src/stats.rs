//! Table and column statistics for cardinality estimation.
//!
//! The rewrite engine picks among candidate plans by *cost estimate* (paper
//! §5.2/§5.3: "the statement with the cheapest cost estimate is selected"),
//! so the substrate needs a believable — not perfect — estimator. We collect
//! exact min/max/NDV/null counts at load time (cheap for in-memory data) and
//! apply the classic System-R selectivity formulas.

use crate::batch::Batch;
use crate::value::Value;

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    pub min: Option<Value>,
    pub max: Option<Value>,
    /// Number of distinct non-null values.
    pub ndv: usize,
    pub null_count: usize,
}

impl ColumnStats {
    pub fn compute(column: &crate::column::Column) -> Self {
        use std::collections::HashSet;
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        let mut distinct: HashSet<Value> = HashSet::new();
        let mut null_count = 0;
        for i in 0..column.len() {
            if column.is_null(i) {
                null_count += 1;
                continue;
            }
            let v = column.value(i);
            match &min {
                None => min = Some(v.clone()),
                Some(m) if v.total_cmp(m).is_lt() => min = Some(v.clone()),
                _ => {}
            }
            match &max {
                None => max = Some(v.clone()),
                Some(m) if v.total_cmp(m).is_gt() => max = Some(v.clone()),
                _ => {}
            }
            distinct.insert(v);
        }
        ColumnStats {
            min,
            max,
            ndv: distinct.len(),
            null_count,
        }
    }

    /// Selectivity of `col = literal`.
    pub fn eq_selectivity(&self) -> f64 {
        if self.ndv == 0 {
            0.0
        } else {
            1.0 / self.ndv as f64
        }
    }

    /// Selectivity of a one-sided or two-sided range predicate, by linear
    /// interpolation over `[min, max]` for numeric columns; a fixed guess
    /// otherwise.
    pub fn range_selectivity(&self, lower: Option<&Value>, upper: Option<&Value>) -> f64 {
        const DEFAULT: f64 = 1.0 / 3.0;
        let (Some(min), Some(max)) = (&self.min, &self.max) else {
            return DEFAULT;
        };
        let (Some(minf), Some(maxf)) = (min.as_double(), max.as_double()) else {
            return DEFAULT;
        };
        if maxf <= minf {
            return 1.0;
        }
        let lo = lower
            .and_then(Value::as_double)
            .map_or(minf, |v| v.clamp(minf, maxf));
        let hi = upper
            .and_then(Value::as_double)
            .map_or(maxf, |v| v.clamp(minf, maxf));
        ((hi - lo) / (maxf - minf)).clamp(0.0, 1.0)
    }
}

/// Statistics for a whole table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableStats {
    pub row_count: usize,
    /// Per-column stats, positionally aligned with the schema.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    pub fn compute(batch: &Batch) -> Self {
        TableStats {
            row_count: batch.num_rows(),
            columns: batch.columns().iter().map(ColumnStats::compute).collect(),
        }
    }

    pub fn column(&self, i: usize) -> Option<&ColumnStats> {
        self.columns.get(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::schema_ref;
    use crate::schema::{Field, Schema};
    use crate::value::DataType;

    fn batch() -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::new("t", DataType::Int),
            Field::new("loc", DataType::Str),
        ]));
        Batch::from_rows(
            schema,
            &[
                vec![Value::Int(0), Value::str("a")],
                vec![Value::Int(50), Value::str("b")],
                vec![Value::Int(100), Value::str("a")],
                vec![Value::Null, Value::str("c")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn compute_stats() {
        let s = TableStats::compute(&batch());
        assert_eq!(s.row_count, 4);
        let t = s.column(0).unwrap();
        assert_eq!(t.min, Some(Value::Int(0)));
        assert_eq!(t.max, Some(Value::Int(100)));
        assert_eq!(t.ndv, 3);
        assert_eq!(t.null_count, 1);
        let loc = s.column(1).unwrap();
        assert_eq!(loc.ndv, 3);
    }

    #[test]
    fn eq_selectivity_uses_ndv() {
        let s = TableStats::compute(&batch());
        assert!((s.column(1).unwrap().eq_selectivity() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn range_selectivity_interpolates() {
        let s = TableStats::compute(&batch());
        let t = s.column(0).unwrap();
        let sel = t.range_selectivity(None, Some(&Value::Int(50)));
        assert!((sel - 0.5).abs() < 1e-12);
        let sel = t.range_selectivity(Some(&Value::Int(25)), Some(&Value::Int(75)));
        assert!((sel - 0.5).abs() < 1e-12);
        // Out-of-range bounds clamp.
        let sel = t.range_selectivity(Some(&Value::Int(-100)), None);
        assert!((sel - 1.0).abs() < 1e-12);
    }

    #[test]
    fn string_range_uses_default_guess() {
        let s = TableStats::compute(&batch());
        let loc = s.column(1).unwrap();
        let sel = loc.range_selectivity(Some(&Value::str("a")), None);
        assert!(sel > 0.0 && sel < 1.0);
    }
}
