//! Regression suite for [`Batch::slice`], the zero-copy row window.
//!
//! The oracle for every window is a gather: `b.slice(o, l)` must equal
//! `b.take(&(o..o + l))` row for row, including windows of windows, whose
//! column offsets compose. The suite also pins the checked
//! [`Batch::try_slice`] contract: out-of-range windows return field-named
//! errors instead of panicking.

use deferred_cleansing::relational::prelude::*;

fn batch(n: i64) -> Batch {
    let schema = schema_ref(Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("tag", DataType::Str),
    ]));
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| vec![Value::Int(i), Value::str(format!("t{i}"))])
        .collect();
    Batch::from_rows(schema, &rows).unwrap()
}

fn rows_of(b: &Batch) -> Vec<Vec<Value>> {
    (0..b.num_rows()).map(|i| b.row(i)).collect()
}

fn gather(b: &Batch, offset: usize, len: usize) -> Vec<Vec<Value>> {
    rows_of(&b.take(&(offset..offset + len).collect::<Vec<_>>()))
}

/// Every (offset, len) window equals the same rows gathered by index.
#[test]
fn slice_matches_take_oracle() {
    let base = batch(12);
    for offset in 0..=base.num_rows() {
        for len in 0..=(base.num_rows() - offset) {
            let s = base.slice(offset, len);
            assert_eq!(s.num_rows(), len);
            assert_eq!(
                rows_of(&s),
                gather(&base, offset, len),
                "slice({offset}, {len}) diverged from the take oracle"
            );
        }
    }
}

/// Slicing a slice composes: each level narrows the window and still
/// matches the take oracle over the original batch.
#[test]
fn slice_of_slice_composes() {
    let base = batch(16);
    let once = base.slice(2, 11); // rows 2..13
    let twice = once.slice(1, 7); // rows 3..10 of the original
    assert_eq!(rows_of(&twice), gather(&base, 3, 7));
    // And a third level, down to a single row.
    let thrice = twice.slice(3, 1);
    assert_eq!(rows_of(&thrice), gather(&base, 6, 1));
    // A gather from a window resolves window-relative indices.
    assert_eq!(rows_of(&twice.take(&[6, 0])), rows_of(&base.take(&[9, 3])));
}

/// Empty windows are valid anywhere in range, including at the end.
#[test]
fn empty_slices_are_valid_at_every_offset() {
    for b in [batch(5), batch(9).slice(2, 5)] {
        for offset in 0..=b.num_rows() {
            let s = b.slice(offset, 0);
            assert_eq!(s.num_rows(), 0);
            assert_eq!(rows_of(&s), Vec::<Vec<Value>>::new());
        }
    }
}

/// `try_slice` errors name every field needed to debug the caller: offset,
/// end, and the row count of the batch being sliced.
#[test]
fn try_slice_errors_are_field_named() {
    let flat = batch(6);
    let err = flat.try_slice(4, 5).unwrap_err().to_string();
    assert!(err.contains("offset=4"), "missing offset: {err}");
    assert!(err.contains("offset+len=9"), "missing end: {err}");
    assert!(err.contains("rows=6"), "missing rows: {err}");

    // A window reports its own row count, not its columns' full length.
    let window = batch(6).slice(3, 3);
    let err = window.try_slice(2, 2).unwrap_err().to_string();
    assert!(
        err.contains("rows=3"),
        "window rows, not column rows: {err}"
    );

    let err = flat.try_slice(usize::MAX, 2).unwrap_err().to_string();
    assert!(err.contains("overflows usize"), "missing overflow: {err}");

    // In-range windows on the same batches still succeed.
    assert_eq!(flat.try_slice(4, 2).unwrap().num_rows(), 2);
    assert_eq!(window.try_slice(1, 2).unwrap().num_rows(), 2);
}
