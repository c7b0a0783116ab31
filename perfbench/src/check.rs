//! Order-insensitive answer checksums.
//!
//! A reply is reduced to its row count plus the wrapping sum of one
//! FNV-1a hash per row. Equal multisets of rows give equal checksums
//! whatever their order; a row that is missing, extra or different changes
//! the checksum (up to hash collisions).

use dc_relational::batch::Batch;
use dc_relational::value::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Checksum {
    pub rows: u64,
    pub sum: u64,
}

impl Checksum {
    pub fn of_batch(batch: &Batch) -> Self {
        let cols: Vec<_> = (0..batch.schema().fields().len())
            .map(|c| batch.column(c))
            .collect();
        let mut out = Checksum::default();
        for r in 0..batch.num_rows() {
            let mut h = Fnv::new();
            for col in &cols {
                h.value(&col.value(r));
            }
            out.add(h.0);
        }
        out
    }

    pub fn of_rows<'a>(rows: impl IntoIterator<Item = &'a Vec<Value>>) -> Self {
        let mut out = Checksum::default();
        for row in rows {
            let mut h = Fnv::new();
            for v in row {
                h.value(v);
            }
            out.add(h.0);
        }
        out
    }

    fn add(&mut self, row_hash: u64) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(row_hash);
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A type tag, then the payload; strings are length-prefixed so that
    /// adjacent values cannot run into each other.
    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.bytes(&[0]),
            Value::Bool(b) => self.bytes(&[1, *b as u8]),
            Value::Int(i) => {
                self.bytes(&[2]);
                self.bytes(&i.to_le_bytes());
            }
            Value::Double(d) => {
                self.bytes(&[3]);
                self.bytes(&d.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                self.bytes(&[4]);
                self.bytes(&(s.len() as u64).to_le_bytes());
                self.bytes(s.as_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(a: i64, b: &str) -> Vec<Value> {
        vec![Value::Int(a), Value::str(b)]
    }

    #[test]
    fn order_insensitive_multiset() {
        let x = [row(1, "a"), row(2, "b"), row(2, "b")];
        let y = [row(2, "b"), row(1, "a"), row(2, "b")];
        let z = [row(2, "b"), row(1, "a"), row(1, "a")];
        assert_eq!(Checksum::of_rows(&x), Checksum::of_rows(&y));
        assert_ne!(Checksum::of_rows(&x), Checksum::of_rows(&z));
        assert_ne!(
            Checksum::of_rows(&[vec![Value::str("ab"), Value::str("c")]]),
            Checksum::of_rows(&[vec![Value::str("a"), Value::str("bc")]])
        );
    }
}
