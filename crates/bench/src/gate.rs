//! Deterministic perf-regression gate over `BENCH_repro.json`.
//!
//! The repro harness separates *work counters* (rows scanned/sorted, window
//! work, join probes, …) from *wall-clock*. Counters are identical for a
//! given (scale, seed) at any parallelism, so CI can diff them exactly: a
//! counter that grows more than the tolerance against the committed
//! `BENCH_baseline.json` means a plan or rewrite silently got more
//! expensive. Wall-clock keys are compared too but never gate — machine
//! noise is reported, not failed on.

use dc_json::Json;
use dc_relational::exec::{ExecStats, GateClass};

/// Counter growth tolerated before the gate fails (5%).
pub const DEFAULT_TOLERANCE: f64 = 0.05;

/// Deterministic keys outside the executor's counter registry that gate.
/// The [`ExecStats`] counters carry their own class (see
/// [`ExecStats::COUNTERS`]).
pub const GATING_KEYS: &[&str] = &[
    "result_rows",
    "eager_rows",
    // Standing-query maintenance (the `stream` figure): growth in any of
    // these means incremental maintenance got more expensive — bigger
    // deltas, more rows re-cleansed, more cleansing work relative to a
    // cold recompute, or maintenance steps losing their incremental mode.
    "notifications",
    "delta_rows",
    "recleansed_rows",
    "fallbacks",
    "recompute_window_ops",
    "delta_work_pct",
    // Durable-log recovery (the `recovery` figure): more replayed records
    // means the log got chattier for the same epochs; more loaded or
    // cold-opened segment files means lazy materialization or zone-map
    // pruning stopped skipping work.
    "log_records_replayed",
    "segments_loaded_lazy",
    "segments_opened_cold",
];

/// Keys outside the counter registry that are reported when they drift
/// but never gate: their "good" direction is context-dependent, so the
/// gate watches a costly sibling instead.
pub const INFORMATIONAL_KEYS: &[&str] = &[
    // Worker-sweep throughput: wall-clock derived, machine-dependent.
    "queries_per_sec",
    // More zone-refuted segment files is better; the costly sibling that
    // gates is `segments_opened_cold`.
    "segments_pruned_unopened",
];

/// Keys that must match exactly between baseline and current run —
/// comparing counters from different configurations is meaningless.
/// `shards` appears per-row in the sharded figure (rows are positional),
/// so a baseline row is only ever diffed against the same shard count.
/// `epochs_recovered` and `as_of_rows` are answer stability: recovering a
/// different epoch count or a different historical answer from the same
/// logs is a correctness bug, not a perf drift.
pub const EXACT_KEYS: &[&str] = &[
    "scale",
    "seed",
    "parallelism",
    "shards",
    "appends",
    "epochs_recovered",
    "as_of_rows",
];

/// How the gate treats a numeric key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyClass {
    /// A deterministic counter: gating, or informational (drift is a
    /// note, never a failure).
    Counter(GateClass),
    /// Must match exactly (run configuration and answer stability).
    Exact,
    /// Wall-clock: counted, never judged.
    Timing,
}

/// The class of a numeric key, or `None` when it is unclassified.
pub fn classify(key: &str) -> Option<KeyClass> {
    if key == "millis" || key.ends_with("_ms") {
        Some(KeyClass::Timing)
    } else if EXACT_KEYS.contains(&key) {
        Some(KeyClass::Exact)
    } else if GATING_KEYS.contains(&key) {
        Some(KeyClass::Counter(GateClass::Gating))
    } else if INFORMATIONAL_KEYS.contains(&key) {
        Some(KeyClass::Counter(GateClass::Informational))
    } else {
        ExecStats::COUNTERS
            .iter()
            .find(|(name, _)| *name == key)
            .map(|&(_, class)| KeyClass::Counter(class))
    }
}

/// One gating counter that grew beyond tolerance.
#[derive(Debug, Clone)]
pub struct Regression {
    /// JSON path of the counter (`figure.rows[i].key`).
    pub path: String,
    /// The gated key that regressed.
    pub key: String,
    pub baseline: f64,
    pub current: f64,
    /// Tolerance the comparison ran with (fraction, e.g. 0.05).
    pub tolerance: f64,
}

impl Regression {
    /// Relative growth in percent; infinite when the baseline was zero.
    pub fn pct(&self) -> f64 {
        if self.baseline > 0.0 {
            (self.current / self.baseline - 1.0) * 100.0
        } else {
            f64::INFINITY
        }
    }
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pct = if self.baseline > 0.0 {
            format!("{:+.1}%", self.pct())
        } else {
            "was 0".to_string()
        };
        write!(
            f,
            "{}: {} -> {} ({pct}, tolerance {:.0}%)",
            self.path,
            self.baseline,
            self.current,
            self.tolerance * 100.0
        )
    }
}

/// Outcome of one baseline/current comparison.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Gating counter increases beyond tolerance — each one fails the gate.
    pub regressions: Vec<Regression>,
    /// Structural problems (config mismatch, missing figures/keys, type
    /// changes) — each one fails the gate.
    pub errors: Vec<String>,
    /// Gating counters that *decreased* (informational).
    pub improvements: Vec<String>,
    /// Non-gating observations: string changes, new keys, timing drift.
    pub notes: Vec<String>,
    /// How many gating counter values were compared.
    pub counters_checked: usize,
    /// How many wall-clock values were compared (non-gating).
    pub timing_compared: usize,
}

impl GateReport {
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.errors.is_empty()
    }

    /// The regressions ranked worst first: by relative growth, then by
    /// absolute increase (so a zero-baseline jump outranks a small drift).
    pub fn ranked_regressions(&self) -> Vec<&Regression> {
        let mut ranked: Vec<&Regression> = self.regressions.iter().collect();
        ranked.sort_by(|a, b| {
            b.pct()
                .total_cmp(&a.pct())
                .then_with(|| (b.current - b.baseline).total_cmp(&(a.current - a.baseline)))
        });
        ranked
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "bench gate: {} work counters compared, {} wall-clock values (non-gating)\n",
            self.counters_checked, self.timing_compared
        );
        for line in &self.errors {
            out.push_str(&format!("error: {line}\n"));
        }
        for r in self.ranked_regressions() {
            out.push_str(&format!("regression: {r}\n"));
        }
        for line in &self.improvements {
            out.push_str(&format!("improved: {line}\n"));
        }
        for line in &self.notes {
            out.push_str(&format!("note: {line}\n"));
        }
        out.push_str(if self.passed() {
            "gate: PASS\n"
        } else {
            "gate: FAIL\n"
        });
        out
    }

    /// Markdown rendering for CI step summaries: verdict, then the worst
    /// regressions as a table, then structural errors.
    pub fn markdown_summary(&self) -> String {
        let mut out = format!(
            "### Bench gate: {}\n\n{} work counters compared, {} wall-clock values (non-gating).\n\n",
            if self.passed() { "PASS" } else { "FAIL" },
            self.counters_checked,
            self.timing_compared
        );
        if !self.regressions.is_empty() {
            out.push_str("Worst regressions first:\n\n");
            out.push_str("| counter | baseline | current | Δ |\n");
            out.push_str("|---|---:|---:|---:|\n");
            for r in self.ranked_regressions() {
                let pct = if r.baseline > 0.0 {
                    format!("{:+.1}%", r.pct())
                } else {
                    "was 0".to_string()
                };
                out.push_str(&format!(
                    "| `{}` | {} | {} | {pct} |\n",
                    r.path, r.baseline, r.current
                ));
            }
            out.push('\n');
        }
        if !self.errors.is_empty() {
            out.push_str("Errors:\n\n");
            for e in &self.errors {
                out.push_str(&format!("- {e}\n"));
            }
            out.push('\n');
        }
        out
    }
}

/// Compare a current `BENCH_repro.json` against a committed baseline.
///
/// Figures are matched by `name` (order-insensitive); within a figure the
/// row arrays are positional, since the harness emits them deterministically.
pub fn compare(baseline: &Json, current: &Json, tolerance: f64) -> GateReport {
    let mut rep = GateReport::default();

    for key in EXACT_KEYS {
        let b = baseline.get(key);
        let c = current.get(key);
        if b != c {
            rep.errors.push(format!(
                "config key '{key}' differs: baseline {} vs current {} \
                 (counters are only comparable for identical configs)",
                render_leaf(b),
                render_leaf(c)
            ));
        }
    }

    let base_figs = figures_by_name(baseline);
    let cur_figs = figures_by_name(current);
    for (name, base_fig) in &base_figs {
        match cur_figs.iter().find(|(n, _)| n == name) {
            Some((_, cur_fig)) => walk(name, None, base_fig, cur_fig, tolerance, &mut rep),
            None => rep
                .errors
                .push(format!("figure '{name}' missing from current run")),
        }
    }
    for (name, _) in &cur_figs {
        if !base_figs.iter().any(|(n, _)| n == name) {
            rep.notes.push(format!(
                "figure '{name}' is new in current run (not gated; refresh the baseline)"
            ));
        }
    }
    rep
}

fn figures_by_name(doc: &Json) -> Vec<(String, &Json)> {
    doc.get("figures")
        .and_then(Json::as_arr)
        .map(|figs| {
            figs.iter()
                .map(|f| {
                    let name = f
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("<unnamed>")
                        .to_string();
                    (name, f)
                })
                .collect()
        })
        .unwrap_or_default()
}

fn walk(path: &str, key: Option<&str>, base: &Json, cur: &Json, tol: f64, rep: &mut GateReport) {
    match (base, cur) {
        (Json::Obj(members), Json::Obj(cur_members)) => {
            for (k, bv) in members {
                let child = format!("{path}.{k}");
                match cur.get(k) {
                    Some(cv) => walk(&child, Some(k), bv, cv, tol, rep),
                    None => rep
                        .errors
                        .push(format!("{child}: missing from current run")),
                }
            }
            for (k, _) in cur_members {
                if base.get(k).is_none() {
                    rep.notes
                        .push(format!("{path}.{k}: new key in current run (not gated)"));
                }
            }
        }
        (Json::Arr(bs), Json::Arr(cs)) => {
            if bs.len() != cs.len() {
                rep.errors.push(format!(
                    "{path}: {} entries in baseline vs {} in current",
                    bs.len(),
                    cs.len()
                ));
            }
            for (i, (bv, cv)) in bs.iter().zip(cs).enumerate() {
                walk(&format!("{path}[{i}]"), key, bv, cv, tol, rep);
            }
        }
        (Json::Num(b), Json::Num(c)) => compare_number(path, key, *b, *c, tol, rep),
        (Json::Str(b), Json::Str(c)) => {
            if b != c {
                rep.notes
                    .push(format!("{path}: '{b}' became '{c}' (not gated)"));
            }
        }
        _ => {
            if base != cur {
                rep.errors.push(format!(
                    "{path}: value kind changed ({} vs {})",
                    render_leaf(Some(base)),
                    render_leaf(Some(cur))
                ));
            }
        }
    }
}

fn compare_number(
    path: &str,
    key: Option<&str>,
    base: f64,
    cur: f64,
    tol: f64,
    rep: &mut GateReport,
) {
    let key = key.unwrap_or("");
    match classify(key) {
        Some(KeyClass::Timing) => rep.timing_compared += 1,
        Some(KeyClass::Exact) => {
            if base != cur {
                rep.errors
                    .push(format!("{path}: config value {base} became {cur}"));
            }
        }
        Some(KeyClass::Counter(GateClass::Gating)) => {
            rep.counters_checked += 1;
            let limit = base * (1.0 + tol);
            if cur > limit {
                rep.regressions.push(Regression {
                    path: path.to_string(),
                    key: key.to_string(),
                    baseline: base,
                    current: cur,
                    tolerance: tol,
                });
            } else if cur < base {
                rep.improvements.push(format!("{path}: {base} -> {cur}"));
            }
        }
        Some(KeyClass::Counter(GateClass::Informational)) => {
            if base != cur {
                rep.notes.push(format!(
                    "{path}: {base} -> {cur} (informational, not gated)"
                ));
            }
        }
        // Unclassified numeric key: a silent change here would dodge the
        // gate, so any drift is an error until the key is classified.
        None => {
            if base != cur {
                rep.errors.push(format!(
                    "{path}: unclassified counter '{key}' changed {base} -> {cur} \
                     (add it to the counter registry, GATING_KEYS or the timing set)"
                ));
            }
        }
    }
}

fn render_leaf(v: Option<&Json>) -> String {
    v.map_or_else(|| "<absent>".to_string(), Json::compact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_json::parse;

    fn doc(rows_scanned: u64, millis: f64) -> Json {
        Json::obj()
            .set("scale", 2usize)
            .set("seed", 2006u64)
            .set("parallelism", 2usize)
            .set(
                "figures",
                Json::Arr(vec![Json::obj().set("name", "fig7a").set(
                    "rows",
                    Json::Arr(vec![Json::obj()
                        .set("variant", "q_e")
                        .set("rows_scanned", rows_scanned)
                        .set("millis", Json::Num(millis))]),
                )]),
            )
    }

    #[test]
    fn identical_runs_pass() {
        let rep = compare(&doc(1000, 12.0), &doc(1000, 99.0), DEFAULT_TOLERANCE);
        assert!(rep.passed(), "{}", rep.render());
        assert_eq!(rep.counters_checked, 1);
        assert_eq!(rep.timing_compared, 1);
        assert!(rep.render().contains("PASS"));
    }

    #[test]
    fn counter_regression_fails_but_small_growth_passes() {
        // +10% > 5% tolerance: fail.
        let rep = compare(&doc(1000, 12.0), &doc(1100, 12.0), DEFAULT_TOLERANCE);
        assert!(!rep.passed());
        assert_eq!(rep.regressions.len(), 1);
        assert!(rep.render().contains("FAIL"));
        // +4% within tolerance: pass.
        let rep = compare(&doc(1000, 12.0), &doc(1040, 12.0), DEFAULT_TOLERANCE);
        assert!(rep.passed(), "{}", rep.render());
    }

    #[test]
    fn improvement_is_informational() {
        let rep = compare(&doc(1000, 12.0), &doc(900, 12.0), DEFAULT_TOLERANCE);
        assert!(rep.passed());
        assert_eq!(rep.improvements.len(), 1);
    }

    #[test]
    fn config_mismatch_is_an_error() {
        let mut other = doc(1000, 12.0);
        if let Json::Obj(members) = &mut other {
            members[0].1 = Json::from(4usize); // scale
        }
        let rep = compare(&doc(1000, 12.0), &other, DEFAULT_TOLERANCE);
        assert!(!rep.passed());
        assert!(rep.errors.iter().any(|e| e.contains("scale")));
    }

    #[test]
    fn missing_figure_fails_and_new_figure_notes() {
        let empty = parse(r#"{"scale":2,"seed":2006,"parallelism":2,"figures":[]}"#).unwrap();
        let rep = compare(&doc(1000, 12.0), &empty, DEFAULT_TOLERANCE);
        assert!(!rep.passed());
        assert!(rep.errors.iter().any(|e| e.contains("fig7a")));

        let rep = compare(&empty, &doc(1000, 12.0), DEFAULT_TOLERANCE);
        assert!(rep.passed());
        assert!(rep.notes.iter().any(|n| n.contains("new in current")));
    }

    #[test]
    fn regression_from_zero_baseline_fails() {
        let base = doc(0, 12.0);
        let rep = compare(&base, &doc(5, 12.0), DEFAULT_TOLERANCE);
        assert!(!rep.passed());
    }

    #[test]
    fn unclassified_counter_drift_is_an_error() {
        let mk = |v: u64| {
            Json::obj()
                .set("scale", 2usize)
                .set("seed", 2006u64)
                .set("parallelism", 1usize)
                .set(
                    "figures",
                    Json::Arr(vec![Json::obj()
                        .set("name", "x")
                        .set("rows", Json::Arr(vec![Json::obj().set("mystery", v)]))]),
                )
        };
        let rep = compare(&mk(1), &mk(2), DEFAULT_TOLERANCE);
        assert!(!rep.passed());
        assert!(rep.errors.iter().any(|e| e.contains("mystery")));
        // unchanged unclassified keys are fine
        assert!(compare(&mk(1), &mk(1), DEFAULT_TOLERANCE).passed());
    }

    #[test]
    fn regressions_ranked_worst_first_and_rendered_as_markdown() {
        let mk = |scanned: u64, probes: u64| {
            Json::obj()
                .set("scale", 2usize)
                .set("seed", 2006u64)
                .set("parallelism", 1usize)
                .set(
                    "figures",
                    Json::Arr(vec![Json::obj().set("name", "fig7a").set(
                        "rows",
                        Json::Arr(vec![Json::obj()
                            .set("rows_scanned", scanned)
                            .set("join_probes", probes)]),
                    )]),
                )
        };
        // rows_scanned +10%, join_probes +100%: probes must rank first.
        let rep = compare(&mk(1000, 100), &mk(1100, 200), DEFAULT_TOLERANCE);
        assert!(!rep.passed());
        assert_eq!(rep.regressions.len(), 2);
        let ranked = rep.ranked_regressions();
        assert_eq!(ranked[0].key, "join_probes");
        assert_eq!(ranked[1].key, "rows_scanned");
        let render = rep.render();
        let probes_at = render.find("join_probes").unwrap();
        let scanned_at = render.find("rows_scanned").unwrap();
        assert!(probes_at < scanned_at, "{render}");
        // Old line format preserved.
        assert!(render.contains("100 -> 200 (+100.0%, tolerance 5%)"));

        let md = rep.markdown_summary();
        assert!(md.contains("### Bench gate: FAIL"));
        assert!(md.contains("| counter | baseline | current |"));
        assert!(md.contains("| +100.0% |"));
        assert!(compare(&mk(1, 1), &mk(1, 1), DEFAULT_TOLERANCE)
            .markdown_summary()
            .contains("PASS"));
    }

    #[test]
    fn informational_keys_note_but_never_gate() {
        let mk = |pruned: u64, hits: u64| {
            Json::obj()
                .set("scale", 2usize)
                .set("seed", 2006u64)
                .set("parallelism", 1usize)
                .set(
                    "figures",
                    Json::Arr(vec![Json::obj().set("name", "storage").set(
                        "rows",
                        Json::Arr(vec![Json::obj()
                            .set("segments_pruned", pruned)
                            .set("cache_hits", hits)]),
                    )]),
                )
        };
        // Drift in either direction is a note, not a failure.
        let rep = compare(&mk(9, 50), &mk(2, 80), DEFAULT_TOLERANCE);
        assert!(rep.passed(), "{}", rep.render());
        assert_eq!(rep.notes.len(), 2);
        assert!(rep.notes.iter().all(|n| n.contains("informational")));
        assert!(compare(&mk(9, 50), &mk(9, 50), DEFAULT_TOLERANCE)
            .notes
            .is_empty());
    }

    #[test]
    fn shard_count_mismatch_is_an_error_and_merge_counter_gates() {
        let mk = |shards: u64, merged: u64| {
            Json::obj()
                .set("scale", 2usize)
                .set("seed", 2006u64)
                .set("parallelism", 1usize)
                .set(
                    "figures",
                    Json::Arr(vec![Json::obj().set("name", "sharded").set(
                        "rows",
                        Json::Arr(vec![Json::obj()
                            .set("shards", shards)
                            .set("shard_rows_merged", merged)]),
                    )]),
                )
        };
        // Different shard count in the same row position: config error.
        let rep = compare(&mk(4, 100), &mk(2, 100), DEFAULT_TOLERANCE);
        assert!(!rep.passed());
        assert!(rep.errors.iter().any(|e| e.contains("shards")));
        // Merge-counter growth beyond tolerance gates.
        let rep = compare(&mk(4, 100), &mk(4, 150), DEFAULT_TOLERANCE);
        assert!(!rep.passed());
        assert_eq!(rep.regressions.len(), 1);
        assert_eq!(rep.regressions[0].key, "shard_rows_merged");
        // Identical runs pass.
        assert!(compare(&mk(4, 100), &mk(4, 100), DEFAULT_TOLERANCE).passed());
    }

    #[test]
    fn every_bench_row_key_and_registry_counter_is_classified() {
        let row = crate::harness::Measurement {
            variant: "q_e",
            millis: 1.0,
            result_rows: 1,
            stats: ExecStats::default(),
            window_eval_ms: 0.5,
            parallelism: 1,
            chosen: "x".into(),
        }
        .to_json();
        let Json::Obj(members) = row else {
            panic!("a bench row is an object")
        };
        for (key, v) in &members {
            if matches!(v, Json::Num(_)) {
                assert!(
                    classify(key).is_some(),
                    "bench key '{key}' has no gate class"
                );
            }
        }
        // Registry counters take their class from the registry alone: none
        // may be shadowed by a hand-kept list or the timing suffix.
        for (name, class) in ExecStats::COUNTERS {
            assert!(
                members.iter().any(|(k, _)| k == name),
                "counter '{name}' missing from bench rows"
            );
            assert_eq!(
                classify(name),
                Some(KeyClass::Counter(*class)),
                "counter '{name}'"
            );
            assert!(
                !GATING_KEYS.contains(name)
                    && !INFORMATIONAL_KEYS.contains(name)
                    && !EXACT_KEYS.contains(name),
                "counter '{name}' is also classified by hand"
            );
        }
    }

    #[test]
    fn string_change_is_informational() {
        let mut other = doc(1000, 12.0);
        // flip variant q_e -> q_j
        let s = other.pretty().replace("q_e", "q_j");
        other = parse(&s).unwrap();
        let rep = compare(&doc(1000, 12.0), &other, DEFAULT_TOLERANCE);
        assert!(rep.passed());
        assert!(rep.notes.iter().any(|n| n.contains("q_j")));
    }
}
