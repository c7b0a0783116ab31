//! Columnar storage: typed value vectors with validity bitmaps.
//!
//! Operators exchange whole columns. Each `Column` is a typed vector plus an
//! optional validity bitmap (absent means "no nulls"), so the common all-valid
//! case pays nothing for null tracking.
//!
//! Payload and bitmap are held behind `Arc` together with an `(offset, len)`
//! window, so slicing a column — and therefore slicing a `Batch` or taking
//! a `LIMIT` — is O(1) and never copies cell data. Builders still
//! produce a full-width window over a freshly built vector, so the change is
//! invisible to code that only constructs and reads columns.

use crate::error::{Error, Result};
use crate::value::{DataType, Value};
use std::sync::Arc;

/// A packed bitmap, one bit per row; bit set = valid (non-null).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// A bitmap of `len` bits, all set to `value`.
    pub fn new(len: usize, value: bool) -> Self {
        let nwords = len.div_ceil(64);
        let fill = if value { u64::MAX } else { 0 };
        let mut words = vec![fill; nwords];
        if value {
            // Clear the padding bits past `len` so popcount stays exact.
            let rem = len % 64;
            if rem != 0 {
                if let Some(last) = words.last_mut() {
                    *last &= (1u64 << rem) - 1;
                }
            }
        }
        Bitmap { words, len }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        if value {
            self.set(self.len - 1, true);
        }
    }

    /// Number of set (valid) bits.
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits in `[start, start + count)`, word-at-a-time.
    pub fn count_set_in(&self, start: usize, count: usize) -> usize {
        debug_assert!(start + count <= self.len);
        let end = start + count;
        let mut total = 0usize;
        let mut i = start;
        while i < end {
            let word = i / 64;
            let lo = i % 64;
            let hi = if word == (end - 1) / 64 && !end.is_multiple_of(64) {
                end % 64
            } else {
                64
            };
            let mut w = self.words[word] >> lo;
            if hi - lo < 64 {
                w &= (1u64 << (hi - lo)) - 1;
            }
            total += w.count_ones() as usize;
            i += hi - lo;
        }
        total
    }

    /// True if every bit is set.
    pub fn all_set(&self) -> bool {
        self.count_set() == self.len
    }
}

/// The typed payload of a column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Double(Vec<f64>),
    Str(Vec<Arc<str>>),
}

impl ColumnData {
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Double(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Double(_) => DataType::Double,
            ColumnData::Str(_) => DataType::Str,
        }
    }

    fn with_capacity(dt: DataType, cap: usize) -> ColumnData {
        match dt {
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(cap)),
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Double => ColumnData::Double(Vec::with_capacity(cap)),
            DataType::Str => ColumnData::Str(Vec::with_capacity(cap)),
        }
    }
}

/// A column: a shared typed payload plus an optional validity bitmap
/// (`None` = all valid), viewed through an `(offset, len)` window.
///
/// Cloning and slicing only bump reference counts; the payload is immutable
/// once built. Equality is *semantic* — two columns are equal when they have
/// the same type, length, and per-row values, regardless of how their
/// windows line up with the underlying buffers.
#[derive(Debug, Clone)]
pub struct Column {
    data: Arc<ColumnData>,
    validity: Option<Arc<Bitmap>>,
    offset: usize,
    len: usize,
}

impl Column {
    pub fn new(data: ColumnData, validity: Option<Bitmap>) -> Result<Self> {
        if let Some(v) = &validity {
            if v.len() != data.len() {
                return Err(Error::Schema(format!(
                    "validity length {} != data length {}",
                    v.len(),
                    data.len()
                )));
            }
        }
        let len = data.len();
        Ok(Column {
            data: Arc::new(data),
            validity: validity.map(Arc::new),
            offset: 0,
            len,
        })
    }

    /// An all-valid column from raw data.
    pub fn from_data(data: ColumnData) -> Self {
        let len = data.len();
        Column {
            data: Arc::new(data),
            validity: None,
            offset: 0,
            len,
        }
    }

    /// Build a column of the given type from scalar values (NULLs allowed).
    pub fn from_values(dt: DataType, values: &[Value]) -> Result<Self> {
        let mut b = ColumnBuilder::new(dt, values.len());
        for v in values {
            b.push(v)?;
        }
        Ok(b.finish())
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// The underlying payload. The window may cover only part of it; use the
    /// typed slice accessors (`int_values`, …) for window-relative access.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Zero-copy sub-view: rows `[offset, offset + len)` of this column.
    /// O(1) — shares the payload and bitmap.
    pub fn slice(&self, offset: usize, len: usize) -> Column {
        assert!(
            offset + len <= self.len,
            "slice [{offset}, {offset}+{len}) out of bounds for column of {} rows",
            self.len
        );
        Column {
            data: self.data.clone(),
            validity: self.validity.clone(),
            offset: self.offset + offset,
            len,
        }
    }

    /// The window as a native `&[i64]`, or `None` for non-int columns.
    /// NULL slots hold an arbitrary placeholder — check `is_null` first.
    #[inline]
    pub fn int_values(&self) -> Option<&[i64]> {
        match self.data.as_ref() {
            ColumnData::Int(v) => Some(&v[self.offset..self.offset + self.len]),
            _ => None,
        }
    }

    /// The window as a native `&[f64]`, or `None` for non-double columns.
    #[inline]
    pub fn double_values(&self) -> Option<&[f64]> {
        match self.data.as_ref() {
            ColumnData::Double(v) => Some(&v[self.offset..self.offset + self.len]),
            _ => None,
        }
    }

    /// The window as `&[bool]`, or `None` for non-bool columns.
    #[inline]
    pub fn bool_values(&self) -> Option<&[bool]> {
        match self.data.as_ref() {
            ColumnData::Bool(v) => Some(&v[self.offset..self.offset + self.len]),
            _ => None,
        }
    }

    /// The window as `&[Arc<str>]`, or `None` for non-string columns.
    #[inline]
    pub fn str_values(&self) -> Option<&[Arc<str>]> {
        match self.data.as_ref() {
            ColumnData::Str(v) => Some(&v[self.offset..self.offset + self.len]),
            _ => None,
        }
    }

    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        match &self.validity {
            Some(b) => !b.get(self.offset + i),
            None => false,
        }
    }

    /// Whether any row in the window is NULL — one popcount, not a scan.
    pub fn has_nulls(&self) -> bool {
        self.null_count() > 0
    }

    pub fn null_count(&self) -> usize {
        match &self.validity {
            Some(b) => self.len - b.count_set_in(self.offset, self.len),
            None => 0,
        }
    }

    /// The scalar value at row `i` (clones the payload — cheap for all types
    /// because strings are `Arc`).
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match self.data.as_ref() {
            ColumnData::Bool(v) => Value::Bool(v[self.offset + i]),
            ColumnData::Int(v) => Value::Int(v[self.offset + i]),
            ColumnData::Double(v) => Value::Double(v[self.offset + i]),
            ColumnData::Str(v) => Value::Str(v[self.offset + i].clone()),
        }
    }

    /// Non-null integer accessor (panics on wrong type; `None` for NULL).
    #[inline]
    pub fn int_at(&self, i: usize) -> Option<i64> {
        if self.is_null(i) {
            return None;
        }
        match self.data.as_ref() {
            ColumnData::Int(v) => Some(v[self.offset + i]),
            _ => panic!("int_at on non-int column"),
        }
    }

    /// Non-null string accessor (panics on wrong type; `None` for NULL).
    #[inline]
    pub fn str_at(&self, i: usize) -> Option<&str> {
        if self.is_null(i) {
            return None;
        }
        match self.data.as_ref() {
            ColumnData::Str(v) => Some(&v[self.offset + i]),
            _ => panic!("str_at on non-str column"),
        }
    }

    /// Gather rows by index ("take"): the output's row `k` is this column's
    /// row `indices[k]`. The workhorse behind filter, sort, and join.
    pub fn take(&self, indices: &[usize]) -> Column {
        let validity = self.validity.as_ref().map(|v| {
            let mut out = Bitmap::new(indices.len(), false);
            for (k, &i) in indices.iter().enumerate() {
                if v.get(self.offset + i) {
                    out.set(k, true);
                }
            }
            out
        });
        let off = self.offset;
        let data = match self.data.as_ref() {
            ColumnData::Bool(v) => ColumnData::Bool(indices.iter().map(|&i| v[off + i]).collect()),
            ColumnData::Int(v) => ColumnData::Int(indices.iter().map(|&i| v[off + i]).collect()),
            ColumnData::Double(v) => {
                ColumnData::Double(indices.iter().map(|&i| v[off + i]).collect())
            }
            ColumnData::Str(v) => {
                ColumnData::Str(indices.iter().map(|&i| v[off + i].clone()).collect())
            }
        };
        let len = data.len();
        Column {
            data: Arc::new(data),
            validity: validity.map(Arc::new),
            offset: 0,
            len,
        }
    }

    /// Concatenate columns of the same type: one typed copy of each part's
    /// window, plus one validity bitmap when any part has NULLs.
    pub fn concat(parts: &[&Column]) -> Result<Column> {
        let Some(first) = parts.first() else {
            return Err(Error::Internal("concat of zero columns".into()));
        };
        let dt = first.data_type();
        if let Some(c) = parts.iter().find(|c| c.data_type() != dt) {
            return Err(Error::Schema(format!(
                "concat type mismatch: {} vs {dt}",
                c.data_type()
            )));
        }
        let total: usize = parts.iter().map(|c| c.len()).sum();
        fn extend<T: Clone>(
            parts: &[&Column],
            total: usize,
            values: fn(&Column) -> Option<&[T]>,
        ) -> Vec<T> {
            let mut out = Vec::with_capacity(total);
            for c in parts {
                out.extend_from_slice(values(c).expect("parts share one type"));
            }
            out
        }
        let data = match dt {
            DataType::Bool => ColumnData::Bool(extend(parts, total, Column::bool_values)),
            DataType::Int => ColumnData::Int(extend(parts, total, Column::int_values)),
            DataType::Double => ColumnData::Double(extend(parts, total, Column::double_values)),
            DataType::Str => ColumnData::Str(extend(parts, total, Column::str_values)),
        };
        let validity = parts.iter().any(|c| c.has_nulls()).then(|| {
            let mut bits = Bitmap::new(total, true);
            let mut at = 0;
            for c in parts {
                if c.has_nulls() {
                    for i in (0..c.len()).filter(|&i| c.is_null(i)) {
                        bits.set(at + i, false);
                    }
                }
                at += c.len();
            }
            Arc::new(bits)
        });
        Ok(Column {
            data: Arc::new(data),
            validity,
            offset: 0,
            len: total,
        })
    }

    /// Whether `other` is this very view: the same payload and bitmap
    /// allocations under the same window, so the two hold the same rows
    /// without comparing any of them.
    pub(crate) fn same_view(&self, other: &Column) -> bool {
        let same_bitmap = match (&self.validity, &other.validity) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        };
        Arc::ptr_eq(&self.data, &other.data)
            && same_bitmap
            && self.offset == other.offset
            && self.len == other.len
    }

    /// Iterate scalar values.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value(i))
    }
}

impl PartialEq for Column {
    /// Semantic equality: same type, length, and per-row (structural) values.
    /// Window offsets and buffer sharing are representation details.
    fn eq(&self, other: &Column) -> bool {
        if self.len != other.len || self.data_type() != other.data_type() {
            return false;
        }
        (0..self.len).all(|i| self.value(i) == other.value(i))
    }
}

/// Incremental column construction.
#[derive(Debug)]
pub struct ColumnBuilder {
    data: ColumnData,
    validity: Bitmap,
    has_null: bool,
}

impl ColumnBuilder {
    pub fn new(dt: DataType, capacity: usize) -> Self {
        ColumnBuilder {
            data: ColumnData::with_capacity(dt, capacity),
            validity: Bitmap::new(0, false),
            has_null: false,
        }
    }

    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append a value; NULL is always accepted, otherwise the value's type
    /// must match (Int is widened to Double for Double columns).
    pub fn push(&mut self, v: &Value) -> Result<()> {
        match (&mut self.data, v) {
            (_, Value::Null) => {
                self.push_null_slot();
                return Ok(());
            }
            (ColumnData::Bool(d), Value::Bool(x)) => d.push(*x),
            (ColumnData::Int(d), Value::Int(x)) => d.push(*x),
            (ColumnData::Double(d), Value::Double(x)) => d.push(*x),
            (ColumnData::Double(d), Value::Int(x)) => d.push(*x as f64),
            (ColumnData::Str(d), Value::Str(x)) => d.push(x.clone()),
            (d, v) => {
                return Err(Error::Schema(format!(
                    "cannot append {v} to {} column",
                    d.data_type()
                )))
            }
        }
        self.validity.push(true);
        Ok(())
    }

    pub fn push_null(&mut self) {
        self.push_null_slot();
    }

    fn push_null_slot(&mut self) {
        match &mut self.data {
            ColumnData::Bool(d) => d.push(false),
            ColumnData::Int(d) => d.push(0),
            ColumnData::Double(d) => d.push(0.0),
            ColumnData::Str(d) => d.push(Arc::from("")),
        }
        self.validity.push(false);
        self.has_null = true;
    }

    pub fn finish(self) -> Column {
        let len = self.data.len();
        Column {
            data: Arc::new(self.data),
            validity: if self.has_null {
                Some(Arc::new(self.validity))
            } else {
                None
            },
            offset: 0,
            len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_basics() {
        let mut b = Bitmap::new(130, true);
        assert_eq!(b.count_set(), 130);
        assert!(b.all_set());
        b.set(129, false);
        assert!(!b.get(129));
        assert_eq!(b.count_set(), 129);
        b.push(true);
        assert_eq!(b.len(), 131);
        assert!(b.get(130));
    }

    #[test]
    fn bitmap_push_from_empty() {
        let mut b = Bitmap::new(0, false);
        for i in 0..200 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 200);
        assert_eq!(b.count_set(), (0..200).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn bitmap_ranged_popcount() {
        let mut b = Bitmap::new(0, false);
        for i in 0..300 {
            b.push(i % 3 == 0);
        }
        for (start, count) in [(0, 300), (1, 299), (63, 66), (64, 64), (70, 1), (299, 0)] {
            let expect = (start..start + count).filter(|i| b.get(*i)).count();
            assert_eq!(b.count_set_in(start, count), expect, "[{start}, +{count})");
        }
    }

    #[test]
    fn builder_roundtrip_with_nulls() {
        let vals = vec![Value::Int(1), Value::Null, Value::Int(3)];
        let c = Column::from_values(DataType::Int, &vals).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.value(0), Value::Int(1));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.int_at(1), None);
        assert_eq!(c.int_at(2), Some(3));
    }

    #[test]
    fn builder_type_mismatch_rejected() {
        let mut b = ColumnBuilder::new(DataType::Int, 1);
        assert!(b.push(&Value::str("x")).is_err());
        assert!(b.push(&Value::Int(5)).is_ok());
    }

    #[test]
    fn int_widens_to_double() {
        let mut b = ColumnBuilder::new(DataType::Double, 2);
        b.push(&Value::Int(2)).unwrap();
        b.push(&Value::Double(0.5)).unwrap();
        let c = b.finish();
        assert_eq!(c.value(0), Value::Double(2.0));
    }

    #[test]
    fn take_preserves_nulls() {
        let c = Column::from_values(
            DataType::Str,
            &[Value::str("a"), Value::Null, Value::str("c")],
        )
        .unwrap();
        let t = c.take(&[2, 1, 1, 0]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.value(0), Value::str("c"));
        assert!(t.is_null(1) && t.is_null(2));
        assert_eq!(t.value(3), Value::str("a"));
    }

    #[test]
    fn concat_columns() {
        let a = Column::from_values(DataType::Int, &[Value::Int(1), Value::Null]).unwrap();
        let b = Column::from_values(DataType::Int, &[Value::Int(3)]).unwrap();
        let c = Column::concat(&[&a, &b]).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(2), Value::Int(3));
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn all_valid_column_has_no_bitmap() {
        let c = Column::from_values(DataType::Int, &[Value::Int(1), Value::Int(2)]).unwrap();
        assert_eq!(c.null_count(), 0);
        assert!(!c.is_null(0));
    }

    #[test]
    fn slice_is_a_zero_copy_window() {
        let vals: Vec<Value> = (0..10)
            .map(|i| {
                if i % 4 == 3 {
                    Value::Null
                } else {
                    Value::Int(i)
                }
            })
            .collect();
        let c = Column::from_values(DataType::Int, &vals).unwrap();
        let s = c.slice(2, 5); // rows 2..7
        assert_eq!(s.len(), 5);
        assert_eq!(s.value(0), Value::Int(2));
        assert!(s.is_null(1)); // original row 3
        let expect_nulls = (2..7).filter(|i| i % 4 == 3).count();
        assert_eq!(s.null_count(), expect_nulls);
        // Nested slices compose.
        let s2 = s.slice(1, 3); // original rows 3..6
        assert_eq!(s2.value(1), Value::Int(4));
        assert!(s2.is_null(0));
        // take() through a window gathers window-relative rows.
        let t = s2.take(&[2, 0]);
        assert_eq!(t.value(0), Value::Int(5));
        assert!(t.is_null(1));
    }

    #[test]
    fn equality_is_semantic_across_windows() {
        let c = Column::from_values(
            DataType::Int,
            &[Value::Int(9), Value::Int(1), Value::Null, Value::Int(9)],
        )
        .unwrap();
        let windowed = c.slice(1, 2);
        let rebuilt = Column::from_values(DataType::Int, &[Value::Int(1), Value::Null]).unwrap();
        assert_eq!(windowed, rebuilt);
        assert_ne!(windowed, c.slice(0, 2));
    }

    #[test]
    fn same_view_is_identity_not_equality() {
        let c = Column::from_values(DataType::Int, &[Value::Int(1), Value::Null]).unwrap();
        assert!(c.same_view(&c.clone()));
        assert!(c.slice(0, 2).same_view(&c));
        assert!(!c.slice(1, 1).same_view(&c));
        assert!(!c.slice(0, 1).same_view(&c));
        let rebuilt = Column::from_values(DataType::Int, &[Value::Int(1), Value::Null]).unwrap();
        assert_eq!(rebuilt, c);
        assert!(!rebuilt.same_view(&c));
    }

    #[test]
    fn typed_slice_accessors_follow_the_window() {
        let c = Column::from_values(
            DataType::Int,
            &[Value::Int(10), Value::Int(20), Value::Int(30)],
        )
        .unwrap();
        assert_eq!(c.int_values().unwrap(), &[10, 20, 30]);
        assert_eq!(c.slice(1, 2).int_values().unwrap(), &[20, 30]);
        assert!(c.double_values().is_none());
        let d = Column::from_values(DataType::Double, &[Value::Double(0.5)]).unwrap();
        assert_eq!(d.double_values().unwrap(), &[0.5]);
    }
}
