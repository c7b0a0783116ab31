//! Incremental window kernels ≡ naive frame recomputation.
//!
//! The incremental sliding-window kernels (`WindowEval::eval_partition`)
//! must produce **byte-identical** values to the per-row recomputation
//! oracle (`eval_partition_naive`) for every aggregate, frame shape, and
//! NULL mix — and the whole-plan results must stay identical at any
//! parallelism. The oracle is the pre-optimization semantics, so these
//! properties pin the refactor down exactly.
//!
//! The offline build has no proptest; each property runs seeded random
//! cases from the vendored `rand` shim (failing seeds are printed).

use dc_relational::prelude::*;
use dc_relational::sort::sort_batch;
use dc_relational::window::WindowEval;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 96;
const PARALLELISMS: [usize; 3] = [1, 2, 8];

fn check(name: &str, mut property: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        let seed = 0xDCFE_0000 + case;
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

/// A random reads-shaped batch, pre-sorted by (epc, rtime) the way the
/// physical window operator receives its input. Both the order key and the
/// argument columns carry NULLs; `iv` is Int, `dv` Double (the Double sum
/// exercises the kernel's recompute fallback).
fn random_sorted_batch(rng: &mut StdRng) -> Batch {
    let schema = schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("iv", DataType::Int),
        Field::new("dv", DataType::Double),
    ]));
    let n = rng.gen_range(1..=80usize);
    let n_parts = rng.gen_range(1..=4u32);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|_| {
            vec![
                Value::str(format!("e{}", rng.gen_range(0..n_parts))),
                if rng.gen_bool(0.15) {
                    Value::Null
                } else {
                    // A small domain makes RANGE peer groups frequent.
                    Value::Int(rng.gen_range(0..30i64))
                },
                if rng.gen_bool(0.2) {
                    Value::Null
                } else {
                    Value::Int(rng.gen_range(-50..50i64))
                },
                if rng.gen_bool(0.2) {
                    Value::Null
                } else {
                    Value::Double(rng.gen_range(-500..500i64) as f64 / 10.0)
                },
            ]
        })
        .collect();
    let b = Batch::from_rows(schema, &rows).unwrap();
    sort_batch(
        &b,
        &[
            SortKey::asc(Expr::col("epc")),
            SortKey::asc(Expr::col("rtime")),
        ],
    )
    .unwrap()
}

fn random_frame(rng: &mut StdRng, units_rows: bool) -> Frame {
    let bound = |rng: &mut StdRng, start: bool| match rng.gen_range(0..4u32) {
        0 => {
            if start {
                FrameBound::UnboundedPreceding
            } else {
                FrameBound::UnboundedFollowing
            }
        }
        1 => FrameBound::Preceding(rng.gen_range(0..12i64)),
        2 => FrameBound::CurrentRow,
        _ => FrameBound::Following(rng.gen_range(0..12i64)),
    };
    loop {
        let (s, e) = (bound(rng, true), bound(rng, false));
        let order = |b: &FrameBound| match b {
            FrameBound::UnboundedPreceding => (0, 0),
            FrameBound::Preceding(n) => (1, -n),
            FrameBound::CurrentRow => (2, 0),
            FrameBound::Following(n) => (3, *n),
            FrameBound::UnboundedFollowing => (4, 0),
        };
        if order(&s) <= order(&e) {
            return if units_rows {
                Frame::rows(s, e)
            } else {
                Frame::range(s, e)
            };
        }
    }
}

fn random_exprs(rng: &mut StdRng, units_rows: bool) -> Vec<WindowExpr> {
    let n_exprs = rng.gen_range(1..=4usize);
    (0..n_exprs)
        .map(|i| {
            let (func, arg) = match rng.gen_range(0..7u32) {
                0 => (WindowFuncKind::Count, None),
                1 => (WindowFuncKind::Count, Some(Expr::col("dv"))),
                2 => (WindowFuncKind::Sum, Some(Expr::col("iv"))),
                3 => (WindowFuncKind::Sum, Some(Expr::col("dv"))),
                4 => (WindowFuncKind::Max, Some(Expr::col("iv"))),
                5 => (WindowFuncKind::Min, Some(Expr::col("dv"))),
                _ => (WindowFuncKind::Avg, Some(Expr::col("iv"))),
            };
            WindowExpr {
                func,
                arg,
                frame: random_frame(rng, units_rows),
                alias: format!("w{i}"),
            }
        })
        .collect()
}

/// Per-partition equivalence: the incremental kernels return the exact
/// values of the naive oracle over random ROWS and RANGE frames.
#[test]
fn incremental_matches_naive_oracle() {
    check("incremental ≡ naive", |rng| {
        let batch = random_sorted_batch(rng);
        let units_rows = rng.gen_bool(0.5);
        let exprs = random_exprs(rng, units_rows);
        // RANGE frames require the single numeric order key.
        let order_key = Expr::col("rtime");
        let ev = WindowEval::prepare(&batch, &[Expr::col("epc")], Some(&order_key), &exprs)
            .expect("prepare");
        for &range in ev.partitions() {
            let (inc, _) = ev.eval_partition(range).expect("incremental");
            let (naive, _) = ev.eval_partition_naive(range).expect("naive");
            assert_eq!(
                inc,
                naive,
                "partition {range:?} of {} rows",
                batch.num_rows()
            );
        }
    });
}

/// Whole-plan equivalence across parallelism: batches, merged stats (the
/// accumulator-ops counter included), and the deterministic metrics view
/// are identical at P = 1, 2, 8.
#[test]
fn results_and_ops_counter_parallelism_invariant() {
    check("parallelism invariance", |rng| {
        let batch = random_sorted_batch(rng);
        let cat = Catalog::new();
        cat.register(Table::new("r", batch));
        let units_rows = rng.gen_bool(0.5);
        let plan = LogicalPlan::Window {
            input: Box::new(LogicalPlan::scan("r")),
            partition_by: vec![Expr::col("epc")],
            order_by: vec![SortKey::asc(Expr::col("rtime"))],
            exprs: random_exprs(rng, units_rows),
            presorted: false,
        };
        let mut baseline: Option<(Vec<Vec<Value>>, ExecStats, Option<OperatorMetrics>)> = None;
        for &p in &PARALLELISMS {
            let mut ex = Executor::with_options(&cat, ExecOptions::with_parallelism(p));
            let b = ex.execute(&plan).unwrap();
            let rows: Vec<Vec<Value>> = (0..b.num_rows()).map(|i| b.row(i)).collect();
            let metrics = ex.metrics.as_ref().map(|m| m.deterministic());
            match &baseline {
                None => baseline = Some((rows, ex.stats, metrics)),
                Some((rows1, stats1, metrics1)) => {
                    assert_eq!(&rows, rows1, "rows differ at P={p}");
                    assert_eq!(&ex.stats, stats1, "stats differ at P={p}");
                    assert_eq!(&metrics, metrics1, "metrics differ at P={p}");
                }
            }
        }
    });
}

/// The RANGE NULL-peer-group edge case, pinned explicitly: rows whose order
/// key is NULL sort first and form one peer group — their frame is exactly
/// the NULL rows, never the numeric rows, whatever the bounds say. Includes
/// the corner where an UNBOUNDED PRECEDING frame over the non-NULL rows is
/// empty although the coverage window spans the NULL prefix.
#[test]
fn range_null_peer_group_edge_case() {
    let schema = schema_ref(Schema::new(vec![
        Field::new("epc", DataType::Str),
        Field::new("rtime", DataType::Int),
        Field::new("iv", DataType::Int),
    ]));
    let rows: Vec<Vec<Value>> = vec![
        vec![Value::str("e1"), Value::Null, Value::Int(100)],
        vec![Value::str("e1"), Value::Null, Value::Int(7)],
        vec![Value::str("e1"), Value::Int(10), Value::Int(1)],
        vec![Value::str("e1"), Value::Int(20), Value::Int(2)],
        vec![Value::str("e1"), Value::Int(30), Value::Int(4)],
    ];
    let batch = Batch::from_rows(schema, &rows).unwrap();
    let frames = [
        // The corner: for rtime=30 the frame [_, 30-25] admits no numeric
        // key, so the frame is empty even though UNBOUNDED PRECEDING makes
        // the coverage window span the NULL prefix.
        Frame::range(FrameBound::UnboundedPreceding, FrameBound::Preceding(25)),
        Frame::range(FrameBound::Preceding(10), FrameBound::CurrentRow),
        Frame::range(
            FrameBound::UnboundedPreceding,
            FrameBound::UnboundedFollowing,
        ),
        Frame::range(FrameBound::CurrentRow, FrameBound::Following(10)),
    ];
    for frame in frames {
        for func in [
            WindowFuncKind::Sum,
            WindowFuncKind::Min,
            WindowFuncKind::Max,
            WindowFuncKind::Count,
            WindowFuncKind::Avg,
        ] {
            let exprs = [WindowExpr {
                func,
                arg: Some(Expr::col("iv")),
                frame: frame.clone(),
                alias: "w".into(),
            }];
            let ev = WindowEval::prepare(
                &batch,
                &[Expr::col("epc")],
                Some(&Expr::col("rtime")),
                &exprs,
            )
            .unwrap();
            let (inc, _) = ev.eval_partition((0, 5)).unwrap();
            let (naive, _) = ev.eval_partition_naive((0, 5)).unwrap();
            assert_eq!(inc, naive, "{func:?} over {frame:?}");
            // NULL-key rows aggregate their peer group only: for sum over
            // the two NULL rows that is always 107, whatever the bounds.
            if func == WindowFuncKind::Sum {
                assert_eq!(inc[0][0], Value::Int(107), "{frame:?}");
                assert_eq!(inc[0][1], Value::Int(107), "{frame:?}");
            }
        }
    }
    // And the corner itself: sum over [UNBOUNDED PRECEDING, 25 PRECEDING]
    // at rtime=30 is an empty frame -> NULL, not the NULL-prefix sum.
    let exprs = [WindowExpr {
        func: WindowFuncKind::Sum,
        arg: Some(Expr::col("iv")),
        frame: Frame::range(FrameBound::UnboundedPreceding, FrameBound::Preceding(25)),
        alias: "w".into(),
    }];
    let ev = WindowEval::prepare(
        &batch,
        &[Expr::col("epc")],
        Some(&Expr::col("rtime")),
        &exprs,
    )
    .unwrap();
    let (inc, _) = ev.eval_partition((0, 5)).unwrap();
    assert_eq!(inc[0][4], Value::Null);
}
