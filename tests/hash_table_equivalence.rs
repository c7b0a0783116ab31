//! Normalized-key hash machinery vs the retained `Vec<Value>` oracle.
//!
//! The vectorized hash path (batch key encoding + [`RawKeyTable`]) must be
//! *transparent*: for any plan built from joins, GROUP BY aggregation, and
//! DISTINCT, running with `rowwise_hash == false` produces rows identical
//! to the `HashMap<Vec<Value>, _>` oracle (`rowwise_hash == true`) at every
//! filter selectivity and every NULL mix — and the hash path stays parallelism-invariant at P ∈ {1, 2, 8}
//! with identical deterministic operator metrics. A direct adversarial
//! test drives [`RawKeyTable`] with distinct keys sharing one 64-bit hash
//! and checks that memcmp disambiguates while the collision counter ticks.

use dc_relational::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PARALLELISMS: [usize; 3] = [1, 2, 8];
const CASES: u64 = 48;

fn rows_of(b: &Batch) -> Vec<Vec<Value>> {
    (0..b.num_rows()).map(|i| b.row(i)).collect()
}

/// The oracle spends no hash-kernel work, so those counters are zeroed
/// before comparing; everything else must match exactly.
fn sans_hash(mut s: ExecStats) -> ExecStats {
    s.hash_ops = 0;
    s.hash_collisions = 0;
    s.probe_memcmps = 0;
    s.key_bytes_encoded = 0;
    s
}

/// Run `property` for `CASES` deterministic seeds, reporting the failing
/// seed on panic (mirrors tests/vectorized_equivalence.rs).
fn check(name: &str, mut property: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        let seed = 0x4a5b_3c00 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut rng);
        }));
        if let Err(e) = result {
            eprintln!("property '{name}' failed at case {case} (seed {seed:#x})");
            std::panic::resume_unwind(e);
        }
    }
}

fn reads_schema() -> SchemaRef {
    schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("weight", DataType::Double),
        Field::new("qty", DataType::Int),
        Field::new("ok", DataType::Bool),
    ]))
}

fn dim_schema() -> SchemaRef {
    schema_ref(Schema::new(vec![
        Field::new("gln", DataType::Str),
        Field::new("code", DataType::Int),
        Field::new("descr", DataType::Str),
    ]))
}

/// Random fact rows: every key-typed column carries NULLs so join keys hit
/// the non-joinable path and group keys hit NULL-as-its-own-group.
fn random_reads(rng: &mut StdRng, n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|_| {
            vec![
                if rng.gen_bool(0.06) {
                    Value::Null
                } else {
                    Value::str(format!("e{}", rng.gen_range(0..7u32)))
                },
                if rng.gen_bool(0.1) {
                    Value::Null
                } else {
                    Value::Int(rng.gen_range(0..300i64))
                },
                if rng.gen_bool(0.15) {
                    Value::Null
                } else {
                    Value::Double(rng.gen_range(0..400i64) as f64 / 8.0)
                },
                Value::Int(rng.gen_range(0..9i64)),
                if rng.gen_bool(0.08) {
                    Value::Null
                } else {
                    Value::Bool(rng.gen_bool(0.5))
                },
            ]
        })
        .collect()
}

fn random_catalog(rng: &mut StdRng) -> Catalog {
    // Sometimes larger than the hash tables' 1024-slot initial capacity.
    let n = if rng.gen_bool(0.2) {
        rng.gen_range(1100..1500usize)
    } else {
        rng.gen_range(0..=250usize)
    };
    let reads = random_reads(rng, n);
    let dims: Vec<Vec<Value>> = (0..rng.gen_range(0..12u32))
        .map(|i| {
            vec![
                if rng.gen_bool(0.1) {
                    Value::Null
                } else {
                    Value::str(format!("e{}", i % 9))
                },
                Value::Int((i % 10) as i64),
                Value::str(format!("site {i}")),
            ]
        })
        .collect();
    let cat = Catalog::new();
    cat.register(Table::new(
        "r",
        Batch::from_rows(reads_schema(), &reads).unwrap(),
    ));
    cat.register(Table::new(
        "d",
        Batch::from_rows(dim_schema(), &dims).unwrap(),
    ));
    cat
}

/// A random filter to vary the selectivity of the hash operators' inputs.
fn random_filter(rng: &mut StdRng) -> Expr {
    match rng.gen_range(0..4u32) {
        0 => Expr::col("rtime").lt(Expr::lit(rng.gen_range(0..300i64))),
        1 => Expr::col("qty").gt(Expr::lit(rng.gen_range(0..9i64))),
        2 => Expr::IsNull {
            expr: Box::new(Expr::col("weight")),
            negated: true,
        },
        _ => Expr::col("epc").eq(Expr::lit(format!("e{}", rng.gen_range(0..7u32)))),
    }
}

/// A random plan exercising one of the hash consumers: inner join, semi
/// join, GROUP BY aggregation (Str / Int / Double / Bool and multi-column
/// keys), or DISTINCT.
fn random_hash_plan(rng: &mut StdRng) -> LogicalPlan {
    let mut plan = LogicalPlan::scan("r");
    if rng.gen_bool(0.6) {
        plan = plan.filter(random_filter(rng));
    }
    match rng.gen_range(0..7u32) {
        // Str join keys (NULLs on both sides).
        0 => plan.join(
            LogicalPlan::scan("d"),
            vec![Expr::col("epc")],
            vec![Expr::col("gln")],
            JoinType::Inner,
        ),
        // Int join keys.
        1 => plan.join(
            LogicalPlan::scan("d"),
            vec![Expr::col("qty")],
            vec![Expr::col("code")],
            JoinType::Inner,
        ),
        2 => plan.join(
            LogicalPlan::scan("d"),
            vec![Expr::col("epc")],
            vec![Expr::col("gln")],
            JoinType::LeftSemi,
        ),
        // Multi-column compound join key.
        3 => plan.join(
            LogicalPlan::scan("d"),
            vec![Expr::col("epc"), Expr::col("qty")],
            vec![Expr::col("gln"), Expr::col("code")],
            JoinType::Inner,
        ),
        4 => {
            let keys: Vec<(Expr, String)> = match rng.gen_range(0..4u32) {
                0 => vec![(Expr::col("epc"), "epc".into())],
                1 => vec![(Expr::col("weight"), "weight".into())],
                2 => vec![(Expr::col("ok"), "ok".into())],
                _ => vec![
                    (Expr::col("epc"), "epc".into()),
                    (Expr::col("qty"), "qty".into()),
                    (Expr::col("ok"), "ok".into()),
                ],
            };
            plan.aggregate(
                keys,
                vec![
                    AggExpr {
                        func: AggFunc::CountStar,
                        alias: "n".into(),
                    },
                    AggExpr {
                        func: AggFunc::Sum(Expr::col("rtime")),
                        alias: "s".into(),
                    },
                    AggExpr {
                        func: AggFunc::Min(Expr::col("weight")),
                        alias: "m".into(),
                    },
                ],
            )
        }
        // Global aggregate (zero key columns).
        5 => plan.aggregate(
            vec![],
            vec![AggExpr {
                func: AggFunc::CountStar,
                alias: "n".into(),
            }],
        ),
        // DISTINCT over all columns (mixed types + NULLs).
        _ => {
            if rng.gen_bool(0.5) {
                plan = plan.project(vec![
                    (Expr::col("epc"), "epc".into()),
                    (Expr::col("qty"), "qty".into()),
                ]);
            }
            plan.distinct()
        }
    }
}

/// The normalized-key path produces rows identical to the `Vec<Value>`
/// oracle, with all non-hash work counters equal. The oracle never spends
/// hash-kernel work.
#[test]
fn hash_path_matches_rowwise_oracle_on_random_plans() {
    check("hash path vs rowwise oracle", |rng| {
        let cat = random_catalog(rng);
        let plan = random_hash_plan(rng);
        let base = ExecOptions::with_parallelism(1);
        let mut oracle = Executor::with_options(&cat, base.with_rowwise_hash(true));
        let expected = oracle
            .execute(&plan)
            .unwrap_or_else(|e| panic!("oracle failed: {e}\n{}", plan.display_indent()));
        let mut vectorized = Executor::with_options(&cat, base.with_rowwise_hash(false));
        let got = vectorized
            .execute(&plan)
            .unwrap_or_else(|e| panic!("hash path failed: {e}\n{}", plan.display_indent()));
        assert_eq!(
            rows_of(&got),
            rows_of(&expected),
            "rows differ\n{}",
            plan.display_indent()
        );
        assert_eq!(
            oracle.stats.hash_ops, 0,
            "the rowwise oracle must not touch the hash kernels"
        );
        assert_eq!(
            sans_hash(vectorized.stats),
            sans_hash(oracle.stats),
            "non-hash work counters differ\n{}",
            plan.display_indent()
        );
    });
}

/// The hash path stays parallelism-invariant: rows, merged stats (hash
/// counters included), and deterministic per-operator metrics are
/// identical at P ∈ {1, 2, 8}.
#[test]
fn hash_path_parallelism_invariant() {
    check("hash path parallelism invariance", |rng| {
        let cat = random_catalog(rng);
        let plan = random_hash_plan(rng);
        let mut baseline: Option<(Vec<Vec<Value>>, ExecStats, Option<DeterministicMetrics>)> = None;
        for &p in &PARALLELISMS {
            let mut ex = Executor::with_options(&cat, ExecOptions::with_parallelism(p));
            let batch = ex.execute(&plan).unwrap();
            let metrics = ex.metrics.as_ref().map(|m| m.deterministic());
            match &baseline {
                None => baseline = Some((rows_of(&batch), ex.stats, metrics)),
                Some((rows, stats, metrics1)) => {
                    assert_eq!(&rows_of(&batch), rows, "rows differ at P={p}");
                    assert_eq!(&ex.stats, stats, "stats differ at P={p}");
                    assert_eq!(&metrics, metrics1, "operator metrics differ at P={p}");
                }
            }
        }
    });
}

/// Distinct keys that share one 64-bit hash land in distinct slots: the
/// memcmp on the normalized bytes disambiguates, every disambiguation is
/// counted as a collision, and lookups still find the right entry.
#[test]
fn equal_hash_distinct_keys_disambiguate_by_memcmp() {
    let mut stats = HashStats::default();
    let mut table = RawKeyTable::with_capacity(4);
    const H: u64 = 0xdead_beef_cafe_f00d;
    let keys: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i, i ^ 0x55, 7, i]).collect();
    for (i, k) in keys.iter().enumerate() {
        let (slot, fresh) = table.insert(H, k, &mut stats);
        assert!(fresh, "key {i} wrongly matched an earlier key");
        assert_eq!(slot, i, "slots must follow first-insert order");
    }
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(
            table.get(H, k, &mut stats),
            Some(i),
            "lookup of colliding key {i} found the wrong slot"
        );
    }
    assert_eq!(table.get(H, b"absent", &mut stats), None);
    assert!(
        stats.hash_collisions > 0,
        "hash-equal, byte-unequal probes must be counted as collisions"
    );
    assert!(
        stats.probe_memcmps as usize >= keys.len(),
        "every successful probe pays at least one memcmp"
    );
}
