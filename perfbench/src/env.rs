//! Set-up shared by every workload: RFIDGen data, the benchmark rule sets,
//! the cleansed-sequence cache, and the reference systems answers are
//! checked against.

use crate::span::Tracer;
use crate::DATA_SEED;
use dc_core::DeferredCleansingSystem;
use dc_relational::table::{Catalog, Table};
use dc_rfidgen::{generate_into, Dataset, GenConfig};
use std::sync::Arc;
use std::time::Duration;

/// Applications `rules-1` … `rules-4`, holding 1 … 4 of the paper's rules.
pub const APPS: [&str; 4] = ["rules-1", "rules-2", "rules-3", "rules-4"];

/// Entries in the cleansed-sequence cache.
pub const CACHE_ENTRIES: usize = 4096;

/// Injected anomalies, in percent of the clean case reads.
pub const ANOMALY_PCT: f64 = 10.0;

/// A generated database with the rule sets defined, before any service
/// takes ownership of it.
pub struct Built {
    pub system: DeferredCleansingSystem,
    pub dataset: Dataset,
    pub generate: Duration,
    pub define: Duration,
}

/// Generate the database (RFIDGen seed [`DATA_SEED`]) and define
/// `rules-1` … `rules-4`, timing the two phases as spans
/// `rfidgen.generate` and `rules.define` under `parent`.
pub fn build(scale: usize, tracer: &Tracer, parent: u64) -> Built {
    let catalog = Arc::new(Catalog::new());
    let (dataset, generate) = tracer.span("rfidgen.generate", parent, 0, |_| {
        let dataset = generate_into(
            &catalog,
            GenConfig {
                scale,
                anomaly_pct: ANOMALY_PCT,
                seed: DATA_SEED,
                ..GenConfig::default()
            },
        )
        .expect("RFIDGen");
        dataset
            .materialize_missing_input(&catalog)
            .expect("missing-rule input");
        dataset
    });
    let mut system = DeferredCleansingSystem::with_catalog(catalog);
    system.set_parallelism(1);
    system.enable_cleanse_cache(CACHE_ENTRIES);
    let ((), define) = tracer.span("rules.define", parent, 0, |_| {
        for (n, app) in APPS.iter().enumerate() {
            for text in dataset.benchmark_rules(n + 1) {
                system.define_rule(app, &text).expect("benchmark rule");
            }
        }
    });
    Built {
        system,
        dataset,
        generate,
        define,
    }
}

/// Row counts of the generated tables and the number of case EPCs.
pub fn describe(system: &DeferredCleansingSystem) -> String {
    let catalog = system.catalog();
    let tables: Vec<String> = catalog
        .table_names()
        .iter()
        .map(|t| format!("{t}={}", catalog.get(t).map_or(0, |t| t.num_rows())))
        .collect();
    format!(
        "data: {} case_epcs={}",
        tables.join(" "),
        case_epcs(system).len()
    )
}

/// Distinct case EPCs of the generated `caser` table, sorted.
pub fn case_epcs(system: &DeferredCleansingSystem) -> Vec<String> {
    let caser = system.catalog().get("caser").expect("caser exists");
    let epc = caser.data().schema().index_of_name("epc").expect("epc");
    let col = caser.data().column(epc);
    let mut out: Vec<String> = (0..caser.num_rows())
        .filter_map(|i| col.str_at(i).map(str::to_string))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Reference systems for the paper's definition of a correct answer: Q
/// over fully cleansed R. The data is generated again into a separate
/// catalog, each application's rules are materialized with
/// `materialize_cleansed`, and the cleansed rows stand in for `caser` in a
/// catalog of their own (dimension tables shared). Answers then come from
/// running the unmodified SQL on that catalog, with no rewrite involved.
pub fn reference_systems(scale: usize, apps: &[&str]) -> Vec<(String, DeferredCleansingSystem)> {
    let tracer = Tracer::new(false);
    let built = build(scale, &tracer, 0);
    let source = built.system.catalog();
    apps.iter()
        .map(|app| {
            let target = format!("caser_cleansed_{}", app.replace('-', "_"));
            built
                .system
                .materialize_cleansed(app, &target)
                .expect("materialize cleansed reads");
            let catalog = Catalog::new();
            for name in source.table_names() {
                if name != "caser" && !name.starts_with("caser_cleansed_") {
                    catalog.register_shared(source.get(&name).expect("listed table"));
                }
            }
            let cleansed = source.get(&target).expect("materialized table");
            let mut caser = Table::new("caser", cleansed.data().clone());
            for col in cleansed.indexed_columns() {
                caser.create_index(col).expect("index on cleansed reads");
            }
            catalog.register(caser);
            (
                app.to_string(),
                DeferredCleansingSystem::with_catalog(Arc::new(catalog)),
            )
        })
        .collect()
}
