//! Regression suite for [`Batch::slice`], the zero-copy row window.
//!
//! The oracle for every window is a gather: `b.slice(o, l)` must equal
//! `b.take(&(o..o + l))` row for row, including windows of windows, whose
//! column offsets compose. The suite also pins the checked
//! [`Batch::try_slice`] contract: out-of-range windows return field-named
//! errors instead of panicking. Windows are also what the typed
//! [`Column::concat`] reads, so its `Value` oracle lives here too.

use deferred_cleansing::relational::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// A random column of type `dt`: NULL-free, NULL-bearing or all-NULL.
fn random_column(rng: &mut StdRng, dt: DataType, n: usize) -> Column {
    let null_rate = [0.0, 0.3, 1.0][rng.gen_range(0..3usize)];
    let values: Vec<Value> = (0..n)
        .map(|_| {
            if rng.gen_bool(null_rate) {
                return Value::Null;
            }
            let x = rng.gen_range(-50..50i64);
            match dt {
                DataType::Bool => Value::Bool(x % 2 == 0),
                DataType::Int => Value::Int(x),
                DataType::Double => Value::Double(x as f64 / 4.0),
                DataType::Str => Value::str(format!("s{x}")),
            }
        })
        .collect();
    Column::from_values(dt, &values).unwrap()
}

/// `Column::concat` copies each part's window by type; the oracle rebuilds
/// the same rows one `Value` at a time. Parts are random columns of every
/// type, with and without NULLs, empty or not, and often `slice` windows
/// at non-zero offsets.
#[test]
fn typed_concat_matches_value_oracle() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0xc0c0_0000 + seed);
        let dt = [
            DataType::Bool,
            DataType::Int,
            DataType::Double,
            DataType::Str,
        ][rng.gen_range(0..4usize)];
        let parts: Vec<Column> = (0..rng.gen_range(1..6usize))
            .map(|_| {
                let n = rng.gen_range(0..80usize);
                let c = random_column(&mut rng, dt, n);
                if c.is_empty() || rng.gen_bool(0.3) {
                    return c;
                }
                let offset = rng.gen_range(0..c.len());
                let len = rng.gen_range(0..=c.len() - offset);
                c.slice(offset, len)
            })
            .collect();
        let refs: Vec<&Column> = parts.iter().collect();
        let got = Column::concat(&refs).unwrap();

        let mut oracle = ColumnBuilder::new(dt, 0);
        for c in &parts {
            for i in 0..c.len() {
                oracle.push(&c.value(i)).unwrap();
            }
        }
        let expected = oracle.finish();
        assert_eq!(got.data_type(), dt, "seed {seed}");
        assert_eq!(got.len(), expected.len(), "seed {seed}");
        assert_eq!(got.null_count(), expected.null_count(), "seed {seed}");
        assert_eq!(got, expected, "seed {seed}: rows differ");
    }
}

/// Parts of different types are refused, naming both types.
#[test]
fn typed_concat_rejects_mixed_types() {
    let ints = Column::from_values(DataType::Int, &[Value::Int(1)]).unwrap();
    let strs = Column::from_values(DataType::Str, &[Value::str("a")]).unwrap();
    let err = Column::concat(&[&ints, &strs.slice(1, 0)])
        .unwrap_err()
        .to_string();
    assert!(err.contains("concat type mismatch"), "{err}");
    assert!(err.contains("VARCHAR vs BIGINT"), "{err}");
    assert!(Column::concat(&[]).is_err());
}
