//! Microbench for the typed expression kernels: `Expr::filter_indices` over
//! a flat batch and over zero-copy windows at non-zero offsets vs the
//! per-row `Value`-boxing oracle.
//!
//! Counters are deterministic, so this bench *asserts* the acceptance bars
//! instead of just printing numbers: every predicate must run fully on
//! typed kernels (zero fallback rows), spend at most one accumulator op
//! per compute node per evaluated row, and agree with the oracle's
//! survivor count on every batch shape. Wall-clock is colour only.
//!
//! `--smoke` shrinks the batch for CI; `--out <path>` writes the numbers
//! as JSON (default `BENCH_expr_kernels.json`).

use dc_bench::expr_kernels::expr_kernel_ablation;
use dc_json::Json;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_expr_kernels.json", String::as_str);

    let (rows, iters) = if smoke { (16_384, 4) } else { (262_144, 16) };
    let points = expr_kernel_ablation(rows, iters);
    println!("expr_kernels: {rows} rows, flat + offset windows, {iters} iters");
    for p in &points {
        println!(
            "  {:>13} {:>6}@{:<6}: {:>8} rows, {:>9} kernel ops ({} nodes), \
             {:>7} survive | kernel {:>8.3}ms vs oracle {:>8.3}ms",
            p.label,
            p.shape,
            p.offset,
            p.evaluated_rows,
            p.kernel_ops,
            p.compute_nodes,
            p.kernel_survivors,
            p.kernel_ms,
            p.oracle_ms
        );
        assert_eq!(
            p.fallback_rows, 0,
            "{} fell back to the boxed path for {} rows",
            p.label, p.fallback_rows
        );
        assert!(
            p.kernel_ops <= p.compute_nodes * p.evaluated_rows,
            "{} {}@{}: {} kernel ops exceed {} nodes x {} rows",
            p.label,
            p.shape,
            p.offset,
            p.kernel_ops,
            p.compute_nodes,
            p.evaluated_rows
        );
        assert_eq!(
            p.kernel_survivors, p.oracle_survivors,
            "{} {}@{}: kernel and oracle disagree",
            p.label, p.shape, p.offset
        );
    }

    let json = Json::obj().set("smoke", smoke).set("rows", rows).set(
        "points",
        Json::Arr(
            points
                .iter()
                .map(|p| {
                    Json::obj()
                        .set("label", p.label)
                        .set("shape", p.shape)
                        .set("offset", p.offset)
                        .set("compute_nodes", p.compute_nodes)
                        .set("evaluated_rows", p.evaluated_rows)
                        .set("kernel_ops", p.kernel_ops)
                        .set("fallback_rows", p.fallback_rows)
                        .set("survivors", p.kernel_survivors)
                        .set("kernel_ms", Json::Num(p.kernel_ms))
                        .set("oracle_ms", Json::Num(p.oracle_ms))
                })
                .collect(),
        ),
    );
    std::fs::write(out_path, json.pretty()).expect("write bench json");
    println!("wrote {out_path}");
}
