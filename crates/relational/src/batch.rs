//! `Batch`: a relation fragment — a schema plus equal-length columns.
//!
//! Columns are Arc-backed `(offset, len)` windows, so cloning, slicing and
//! re-schemaing a batch is O(1) and copies no cell data.

use crate::column::{Column, ColumnBuilder};
use crate::error::{Error, Result};
use crate::schema::{Schema, SchemaRef};
use crate::value::Value;
use std::sync::Arc;

/// A table fragment: one column per schema field, all the same length.
/// Operators consume and produce batches.
#[derive(Debug, Clone)]
pub struct Batch {
    schema: SchemaRef,
    columns: Vec<Column>,
    /// Rows in each column.
    rows: usize,
}

impl Batch {
    pub fn new(schema: SchemaRef, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(Error::Schema(format!(
                "schema has {} fields but {} columns supplied",
                schema.len(),
                columns.len()
            )));
        }
        let rows = columns.first().map_or(0, Column::len);
        for (i, c) in columns.iter().enumerate() {
            if c.len() != rows {
                return Err(Error::Schema(format!(
                    "column {i} ('{}') has {} rows, expected {rows}",
                    schema.field(i).name,
                    c.len()
                )));
            }
            if c.data_type() != schema.field(i).data_type {
                return Err(Error::Schema(format!(
                    "column {i} ('{}') has type {} but schema says {}",
                    schema.field(i).name,
                    c.data_type(),
                    schema.field(i).data_type
                )));
            }
        }
        Ok(Batch {
            schema,
            columns,
            rows,
        })
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: SchemaRef) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type, 0).finish())
            .collect();
        Batch {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Build a batch from rows of scalar values (test/generator convenience).
    pub fn from_rows(schema: SchemaRef, rows: &[Vec<Value>]) -> Result<Self> {
        let mut builders: Vec<ColumnBuilder> = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type, rows.len()))
            .collect();
        for (rn, row) in rows.iter().enumerate() {
            if row.len() != schema.len() {
                return Err(Error::Schema(format!(
                    "row {rn} has {} values, schema has {} fields",
                    row.len(),
                    schema.len()
                )));
            }
            for (b, v) in builders.iter_mut().zip(row) {
                b.push(v)?;
            }
        }
        Batch::new(
            schema,
            builders.into_iter().map(ColumnBuilder::finish).collect(),
        )
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column by (possibly qualified) name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of_name(name)?])
    }

    /// Zero-copy window: rows `[offset, offset + len)`. O(1) — column
    /// windows are shared, never copied.
    ///
    /// Panics when the window falls outside the row range; use
    /// [`Batch::try_slice`] for a recoverable, field-named error.
    pub fn slice(&self, offset: usize, len: usize) -> Batch {
        self.try_slice(offset, len)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked [`Batch::slice`]: `Err` names the offending fields
    /// (`offset`, `len`, `rows`) instead of panicking, so operator code can
    /// surface a typed error.
    pub fn try_slice(&self, offset: usize, len: usize) -> Result<Batch> {
        let end = offset.checked_add(len).ok_or_else(|| {
            Error::Execution(format!(
                "slice: offset={offset} + len={len} overflows usize"
            ))
        })?;
        if end > self.num_rows() {
            return Err(Error::Execution(format!(
                "slice: window [offset={offset}, offset+len={end}) out of bounds for \
                 batch with rows={}",
                self.rows
            )));
        }
        Ok(Batch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.slice(offset, len)).collect(),
            rows: len,
        })
    }

    /// Row `i` as scalar values.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Gather rows by index into a new batch.
    pub fn take(&self, indices: &[usize]) -> Batch {
        Batch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
            rows: indices.len(),
        }
    }

    /// Replace the schema (must have identical types) — used to re-qualify
    /// fields when a table is aliased.
    pub fn with_schema(&self, schema: SchemaRef) -> Result<Batch> {
        if !self.schema.types_compatible(&schema) {
            return Err(Error::Schema(format!(
                "cannot rebrand batch [{}] as [{}]",
                self.schema, schema
            )));
        }
        Ok(Batch {
            schema,
            columns: self.columns.clone(),
            rows: self.rows,
        })
    }

    /// Vertically concatenate batches with type-compatible schemas; the
    /// first batch's schema is kept.
    pub fn concat(parts: &[Batch]) -> Result<Batch> {
        let Some(first) = parts.first() else {
            return Err(Error::Internal("concat of zero batches".into()));
        };
        for p in parts {
            if !p.schema.types_compatible(&first.schema) {
                return Err(Error::Schema(format!(
                    "union schema mismatch: [{}] vs [{}]",
                    p.schema, first.schema
                )));
            }
        }
        let mut columns = Vec::with_capacity(first.num_columns());
        for ci in 0..first.num_columns() {
            let cols: Vec<&Column> = parts.iter().map(|p| p.column(ci)).collect();
            columns.push(Column::concat(&cols)?);
        }
        let rows = parts.iter().map(Batch::num_rows).sum();
        Ok(Batch {
            schema: first.schema.clone(),
            columns,
            rows,
        })
    }

    /// All rows as vectors of values, sorted with `Value::total_cmp` —
    /// the canonical multiset form used to compare query results in tests.
    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = (0..self.num_rows()).map(|i| self.row(i)).collect();
        rows.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                let o = x.total_cmp(y);
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
        rows
    }

    /// Render as an ASCII table (for examples and the repro binary).
    pub fn to_pretty_string(&self, max_rows: usize) -> String {
        use std::fmt::Write;
        let headers: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.qualified_name())
            .collect();
        let total = self.num_rows();
        let shown = total.min(max_rows);
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(shown);
        for r in 0..shown {
            let row: Vec<String> = self.row(r).iter().map(Value::to_string).collect();
            for (w, cell) in widths.iter_mut().zip(&row) {
                *w = (*w).max(cell.len());
            }
            cells.push(row);
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            let _ = write!(out, " {h:w$} |");
        }
        out.push('\n');
        sep(&mut out);
        for row in &cells {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(out, " {cell:w$} |");
            }
            out.push('\n');
        }
        sep(&mut out);
        if total > shown {
            let _ = writeln!(out, "... {} more rows", total - shown);
        }
        out
    }
}

/// Shared convenience: wrap a schema into a ref.
pub fn schema_ref(schema: Schema) -> SchemaRef {
    Arc::new(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::DataType;

    fn sample() -> Batch {
        let schema = schema_ref(Schema::new(vec![
            Field::new("epc", DataType::Str),
            Field::new("rtime", DataType::Int),
        ]));
        Batch::from_rows(
            schema,
            &[
                vec![Value::str("e1"), Value::Int(10)],
                vec![Value::str("e2"), Value::Int(20)],
                vec![Value::str("e1"), Value::Int(30)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_checks_lengths_and_types() {
        let schema = schema_ref(Schema::new(vec![Field::new("a", DataType::Int)]));
        let wrong = Column::from_values(DataType::Str, &[Value::str("x")]).unwrap();
        let err = Batch::new(schema, vec![wrong]).unwrap_err().to_string();
        assert!(err.contains("'a'"), "type error names the field: {err}");
    }

    #[test]
    fn length_mismatch_error_names_the_field() {
        let schema = schema_ref(Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]));
        let c0 = Column::from_values(DataType::Int, &[Value::Int(1), Value::Int(2)]).unwrap();
        let c1 = Column::from_values(DataType::Int, &[Value::Int(1)]).unwrap();
        let err = Batch::new(schema, vec![c0, c1]).unwrap_err().to_string();
        assert!(err.contains("'b'"), "length error names the field: {err}");
        assert!(err.contains("expected 2"), "{err}");
    }

    #[test]
    fn row_access() {
        let b = sample();
        assert_eq!(b.row(1), vec![Value::str("e2"), Value::Int(20)]);
        assert_eq!(b.column_by_name("rtime").unwrap().int_at(2), Some(30));
    }

    #[test]
    fn take_rows() {
        let b = sample().take(&[2, 0]);
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.row(0), vec![Value::str("e1"), Value::Int(30)]);
    }

    #[test]
    fn concat_batches() {
        let b = sample();
        let c = Batch::concat(&[b.clone(), b]).unwrap();
        assert_eq!(c.num_rows(), 6);
    }

    #[test]
    fn sorted_rows_is_canonical() {
        let a = sample();
        let b = a.take(&[2, 1, 0]);
        assert_eq!(a.sorted_rows(), b.sorted_rows());
    }

    #[test]
    fn pretty_print_smoke() {
        let s = sample().to_pretty_string(2);
        assert!(s.contains("epc"));
        assert!(s.contains("1 more rows"));
    }

    #[test]
    fn slice_of_flat_batch_shares_columns() {
        let b = sample();
        let s = b.slice(1, 2);
        assert_eq!(s.num_rows(), 2);
        assert_eq!(s.row(0), vec![Value::str("e2"), Value::Int(20)]);
        assert_eq!(s.row(1), vec![Value::str("e1"), Value::Int(30)]);
        // A slice of a slice stays consistent.
        let s2 = s.slice(1, 1);
        assert_eq!(s2.row(0), vec![Value::str("e1"), Value::Int(30)]);
    }
}
