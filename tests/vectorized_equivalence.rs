//! Typed kernels vs the per-row `Value` oracle, and parallelism
//! invariance of whole plans.
//!
//! [`Expr::evaluate`] and [`Expr::filter_indices`] (typed kernels) must
//! agree with [`Expr::evaluate_rowwise`] (the retained `Value`-boxing
//! oracle) on every expression shape and NULL mix, over flat batches and
//! over zero-copy [`Batch::slice`] windows at non-zero column offsets.
//! Random plans (filter, project, union, alias, sort, aggregate, distinct,
//! limit) must produce identical rows, work counters, and deterministic
//! operator metrics at P ∈ {1, 2, 8}.

use dc_relational::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PARALLELISMS: [usize; 3] = [1, 2, 8];
const CASES: u64 = 48;

fn rows_of(b: &Batch) -> Vec<Vec<Value>> {
    (0..b.num_rows()).map(|i| b.row(i)).collect()
}

/// Run `property` for `CASES` deterministic seeds, reporting the failing
/// seed on panic (mirrors tests/parallel_equivalence.rs).
fn check(name: &str, mut property: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        let seed = 0x5e1e_c700 + case;
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

fn test_schema() -> SchemaRef {
    schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("biz_loc", DataType::Str),
        Field::new("weight", DataType::Double),
        Field::new("qty", DataType::Int),
    ]))
}

/// Random rows with NULLs mixed into `rtime` and `weight`.
fn random_rows(rng: &mut StdRng, n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|_| {
            vec![
                Value::str(format!("e{}", rng.gen_range(0..6u32))),
                if rng.gen_bool(0.08) {
                    Value::Null
                } else {
                    Value::Int(rng.gen_range(0..500i64))
                },
                Value::str(format!("loc{}", rng.gen_range(0..4u32))),
                if rng.gen_bool(0.15) {
                    Value::Null
                } else {
                    Value::Double(rng.gen_range(0..1000i64) as f64 / 10.0)
                },
                Value::Int(rng.gen_range(0..50i64)),
            ]
        })
        .collect()
}

fn random_catalog(rng: &mut StdRng) -> Catalog {
    // Sometimes big enough to span several 1024-row window shards.
    let n = if rng.gen_bool(0.2) {
        rng.gen_range(1100..1600usize)
    } else {
        rng.gen_range(0..=300usize)
    };
    let rows = random_rows(rng, n);
    let b = Batch::from_rows(test_schema(), &rows).unwrap();
    let mut t = Table::new("r", b);
    if rng.gen_bool(0.5) {
        t.create_index("rtime").unwrap();
    }
    let cat = Catalog::new();
    cat.register(t);
    cat
}

/// A random boolean predicate of bounded depth over the test schema.
fn random_predicate(rng: &mut StdRng, depth: usize) -> Expr {
    if depth > 0 && rng.gen_bool(0.45) {
        let l = random_predicate(rng, depth - 1);
        let r = random_predicate(rng, depth - 1);
        return match rng.gen_range(0..3u32) {
            0 => l.and(r),
            1 => l.or(r),
            _ => Expr::Not(Box::new(l)),
        };
    }
    match rng.gen_range(0..7u32) {
        0 => Expr::col("rtime").lt(Expr::lit(rng.gen_range(0..500i64))),
        1 => Expr::col("weight").gt(Expr::lit(rng.gen_range(0..1000i64) as f64 / 10.0)),
        2 => Expr::col("epc").eq(Expr::lit(format!("e{}", rng.gen_range(0..6u32)))),
        3 => Expr::binary(
            Expr::binary(Expr::col("qty"), BinaryOp::Plus, Expr::col("rtime")),
            BinaryOp::LtEq,
            Expr::lit(rng.gen_range(0..550i64)),
        ),
        4 => Expr::IsNull {
            expr: Box::new(Expr::col(if rng.gen_bool(0.5) {
                "rtime"
            } else {
                "weight"
            })),
            negated: rng.gen_bool(0.5),
        },
        5 => Expr::InList {
            expr: Box::new(Expr::col("biz_loc")),
            list: (0..rng.gen_range(1..4u32))
                .map(|k| Value::str(format!("loc{k}")))
                .collect(),
            negated: rng.gen_bool(0.3),
        },
        _ => Expr::binary(
            Expr::col("biz_loc"),
            BinaryOp::NotEq,
            Expr::lit(format!("loc{}", rng.gen_range(0..4u32))),
        ),
    }
}

/// A random scalar (projection) expression.
fn random_scalar(rng: &mut StdRng) -> Expr {
    match rng.gen_range(0..6u32) {
        0 => Expr::col("rtime"),
        1 => Expr::binary(Expr::col("qty"), BinaryOp::Multiply, Expr::lit(3i64)),
        2 => Expr::binary(Expr::col("rtime"), BinaryOp::Minus, Expr::col("qty")),
        3 => Expr::binary(
            Expr::col("weight"),
            BinaryOp::Plus,
            Expr::lit(rng.gen_range(0..100i64) as f64),
        ),
        4 => Expr::Case {
            branches: vec![(random_predicate(rng, 0), Expr::col("qty"))],
            else_expr: if rng.gen_bool(0.5) {
                Some(Box::new(Expr::lit(-1i64)))
            } else {
                None
            },
        },
        _ => Expr::col("epc"),
    }
}

/// A random plan: (scan → [filter] | union of two filtered scans) →
/// [alias] → [project] → [sort | aggregate | distinct] → [limit].
fn random_plan(rng: &mut StdRng) -> LogicalPlan {
    let mut plan = LogicalPlan::scan("r");
    if rng.gen_bool(0.7) {
        plan = plan.filter(random_predicate(rng, 2));
    }
    if rng.gen_bool(0.25) {
        plan = LogicalPlan::Union {
            inputs: vec![
                plan,
                LogicalPlan::scan("r").filter(random_predicate(rng, 1)),
            ],
        };
    }
    if rng.gen_bool(0.25) {
        plan = plan.alias("s");
    }
    if rng.gen_bool(0.5) {
        let n = rng.gen_range(1..=3usize);
        let exprs = (0..n)
            .map(|i| (random_scalar(rng), format!("p{i}")))
            .collect::<Vec<_>>();
        // Keep group/sort keys addressable: always carry a couple of
        // base columns through the projection.
        let mut all = vec![
            (Expr::col("epc"), "epc".to_string()),
            (Expr::col("biz_loc"), "biz_loc".to_string()),
            (Expr::col("rtime"), "rtime".to_string()),
        ];
        all.extend(exprs);
        plan = plan.project(all);
    }
    match rng.gen_range(0..4u32) {
        0 => {
            plan = plan.sort(vec![
                SortKey::asc(Expr::col("rtime")),
                SortKey::asc(Expr::col("epc")),
            ]);
        }
        1 => {
            plan = plan.aggregate(
                vec![(Expr::col("biz_loc"), "biz_loc".into())],
                vec![
                    AggExpr {
                        func: AggFunc::CountStar,
                        alias: "n".into(),
                    },
                    AggExpr {
                        func: AggFunc::Min(Expr::col("rtime")),
                        alias: "min_rt".into(),
                    },
                ],
            );
        }
        2 => plan = plan.distinct(),
        _ => {}
    }
    if rng.gen_bool(0.3) {
        plan = plan.limit(rng.gen_range(0..40usize));
    }
    plan
}

/// Build a random batch: either whole, or a zero-copy [`Batch::slice`]
/// window at a random offset, so the kernels see non-zero column offsets.
fn random_chunk(rng: &mut StdRng) -> Batch {
    let n = rng.gen_range(0..=200usize);
    let rows = random_rows(rng, n);
    let base = Batch::from_rows(test_schema(), &rows).unwrap();
    if rng.gen_bool(0.3) {
        return base;
    }
    let offset = rng.gen_range(0..=n);
    let len = rng.gen_range(0..=n - offset);
    base.slice(offset, len)
}

/// Typed-kernel evaluation agrees with the per-row `Value` oracle on every
/// expression shape, window offset, and NULL mix.
#[test]
fn kernels_match_rowwise_oracle_on_random_exprs() {
    check("kernel vs rowwise oracle", |rng| {
        let chunk = random_chunk(rng);
        let expr = if rng.gen_bool(0.5) {
            random_predicate(rng, 2)
        } else {
            random_scalar(rng)
        };
        let kernel = expr.evaluate(&chunk);
        let oracle = expr.evaluate_rowwise(&chunk);
        match (&kernel, &oracle) {
            (Ok(k), Ok(o)) => {
                assert_eq!(k.len(), o.len(), "lengths differ for {expr}");
                for i in 0..k.len() {
                    assert_eq!(
                        k.value(i),
                        o.value(i),
                        "row {i} differs for {expr} (kernel {:?} vs oracle {:?})",
                        k.data_type(),
                        o.data_type()
                    );
                }
            }
            (Err(_), Err(_)) => {}
            (k, o) => panic!(
                "kernel/oracle disagree on feasibility for {expr}: kernel {:?} oracle {:?}",
                k.as_ref().map(|_| ()),
                o.as_ref().map(|_| ())
            ),
        }
    });
}

/// `filter_indices` survivor sets agree with filtering through the
/// per-row oracle, on flat batches and offset windows alike.
#[test]
fn filter_indices_matches_rowwise_oracle() {
    check("filter_indices vs rowwise oracle", |rng| {
        let chunk = random_chunk(rng);
        let pred = random_predicate(rng, 2);
        let survivors = match pred.filter_indices(&chunk) {
            Ok(s) => s,
            Err(_) => {
                assert!(
                    pred.evaluate_rowwise(&chunk).is_err(),
                    "kernel filter failed but the oracle succeeds for {pred}"
                );
                return;
            }
        };
        let col = pred.evaluate_rowwise(&chunk).expect("oracle eval");
        let expected: Vec<usize> = (0..col.len())
            .filter(|&k| !col.is_null(k) && col.value(k) == Value::Bool(true))
            .collect();
        assert_eq!(survivors, expected, "survivors differ for {pred}");
    });
}

/// Execution is parallelism-invariant: batches, merged stats, and the
/// deterministic per-operator metrics are identical at P ∈ {1, 2, 8}.
#[test]
fn execution_parallelism_invariant() {
    check("parallelism invariance", |rng| {
        let cat = random_catalog(rng);
        let plan = random_plan(rng);
        let mut baseline: Option<(Vec<Vec<Value>>, ExecStats, Option<DeterministicMetrics>)> = None;
        for &p in &PARALLELISMS {
            let mut ex = Executor::with_options(&cat, ExecOptions::with_parallelism(p));
            let batch = ex
                .execute(&plan)
                .unwrap_or_else(|e| panic!("plan failed at P={p}: {e}\n{}", plan.display_indent()));
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
