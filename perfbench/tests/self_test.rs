//! The benchmark's own checks: at a tiny size, two runs on one seed give
//! identical deterministic counts, a second seed changes the inputs, and
//! the metric lists match `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use dc_perfbench::client::Budget;
use dc_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use dc_perfbench::{inputs, run, Config, Workload};
use std::path::PathBuf;

/// Counts that depend only on the inputs, never on timing.
const DETERMINISTIC: [&str; 7] = [
    "exec.rows_scanned.caser",
    "exec.rows_scanned.dims",
    "exec.rows_scanned.cached",
    "exec.rows_sorted",
    "exec.window_accumulator_ops",
    "rewrite.phi_rows_vs_naive",
    "durable.stored_bytes_per_row",
];

fn tiny(workload: Workload, seed: u64, tag: &str) -> Config {
    let mut cfg = Config::new(workload, seed);
    cfg.scale = 2;
    cfg.budget = Budget::Ops(24);
    cfg.trace = true;
    cfg.setups = 1;
    cfg.work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    cfg
}

fn counts(out: &Outcome) -> Vec<(&'static str, Option<f64>)> {
    DETERMINISTIC
        .iter()
        .map(|&name| (name, out.layers.get(name)))
        .collect()
}

fn repeats(workload: Workload) {
    let tag = workload.name();
    let a = run(&tiny(workload, 7, &format!("{tag}-a"))).expect("first run");
    let b = run(&tiny(workload, 7, &format!("{tag}-b"))).expect("second run");
    assert!(a.correct && b.correct, "wrong answers: {a:?}");
    assert!(a.layers.get("exec.rows_scanned.caser").unwrap_or(0.0) > 0.0);
    assert!(a.layers.get("exec.window_accumulator_ops").unwrap_or(0.0) > 0.0);
    assert_eq!(counts(&a), counts(&b), "{tag}: deterministic counts differ");
}

#[test]
fn trace_counts_repeat_on_one_seed() {
    repeats(Workload::Trace);
}

#[test]
fn analytics_counts_repeat_on_one_seed() {
    repeats(Workload::Analytics);
}

#[test]
fn ingest_counts_repeat_on_one_seed() {
    repeats(Workload::Ingest);
}

#[test]
fn a_second_seed_changes_the_inputs() {
    for w in [Workload::Trace, Workload::Analytics, Workload::Ingest] {
        let one = inputs(&tiny(w, 1, "inputs"), 64);
        assert_eq!(one, inputs(&tiny(w, 1, "inputs"), 64), "{}", w.name());
        assert_ne!(one, inputs(&tiny(w, 2, "inputs"), 64), "{}", w.name());
    }
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json = dc_json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let e2e: Vec<String> = listed("end_to_end").into_iter().map(|(n, _)| n).collect();
    assert_eq!(e2e, END_TO_END.to_vec());
    let layers: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), layers);
}
