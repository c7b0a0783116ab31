//! The cleansed-sequence cache: memoizing Φ_C output per cluster key for
//! the join-back rewrite.
//!
//! The join-back rewrite (§5.3) cleans only the sequences the query
//! touches: `σ_s′(Φ(σ_ec(R) ⋉ Π_ckey(σ_s(R ⋈ …))))`. Because every
//! cleansing rule partitions by the cluster key, Φ_C over the narrowed
//! input decomposes into independent per-sequence computations — which
//! makes each sequence's cleansed rows a perfect memoization unit for the
//! repeated-query workloads RFID analytics sees in practice.
//!
//! Entries are keyed by `(rule-set fingerprint, ckey)` and validated
//! against the ids of the reads-table segments whose zone range covers the
//! ckey: appending rows for a key seals a new covering segment, which
//! changes the covering set and lazily invalidates exactly that key. The
//! fingerprint folds in the rule definitions *and* the expanded condition
//! `ec` pushed into the join-back's outer arm, so the same sequence
//! cleansed under different queries never aliases.
//!
//! [`Rewritten::execute_cached`] is the drop-in cached execution path:
//! results are byte-identical to [`Rewritten::execute`] because cleansed
//! output is (ckey, skey)-sorted — reassembling per-sequence batches in
//! ckey order reproduces exactly the row order the uncached plan yields.

use crate::engine::{Executed, Rewritten};
use dc_relational::batch::Batch;
use dc_relational::error::Result;
use dc_relational::exec::{ExecStats, Executor};
use dc_relational::expr::{ColumnRef, Expr};
use dc_relational::index::IndexKey;
use dc_relational::optimizer::optimize_default;
use dc_relational::physical::{ExecOptions, OperatorMetrics, QueryBudget};
use dc_relational::plan::LogicalPlan;
use dc_relational::table::{Catalog, Table};
use dc_relational::value::Value;
use dc_rules::{cleansing_plan_qualified, RuleTemplate};
use dc_storage::{CacheLookup, CacheStats, SeqCache};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Everything needed to execute a chosen join-back rewrite through the
/// cache instead of as one monolithic plan. Built by the rewrite engine
/// only when the winning candidate is a join-back over a base reads table
/// whose cluster key no rule modifies.
#[derive(Debug, Clone)]
pub struct JoinBackCacheSpec {
    /// Fingerprint over rule definitions + `ec` + alias: the cache-key
    /// prefix separating rule sets and query conditions.
    pub fingerprint: u64,
    /// The base reads table cleansing reads from (segment metadata source).
    pub reads_table: String,
    /// Alias the cleansing plan qualifies reads columns with.
    pub alias: String,
    /// Cluster key column (the rules' `partition by`).
    pub ckey: String,
    /// Optimized plan computing the distinct sequence set
    /// `Π_ckey(σ_s(R ⋈ dims…))` — one column, the unqualified ckey.
    pub seqset: LogicalPlan,
    /// Expanded condition pushed into the outer arm (improved join-back),
    /// if any.
    pub ec: Option<Expr>,
    /// Name of the transient table the assembled cleansed rows are
    /// registered under in a catalog overlay.
    pub placeholder: String,
    /// The rest of the query over `placeholder`: reapplied `s′`, dimension
    /// re-joins, and the original consumer. Optimized at execution time,
    /// once the placeholder exists.
    pub tail: LogicalPlan,
    /// The rule chain (for cleansing cache misses).
    pub rules: Vec<Arc<RuleTemplate>>,
}

/// One cached sequence: the segment snapshot it was computed from plus the
/// cleansed rows.
#[derive(Debug, Clone)]
struct CachedSeq {
    /// Ids of the reads-table segments covering the ckey at compute time —
    /// the validity token.
    segments: Vec<u64>,
    rows: Batch,
}

/// A shared, size-bounded cleansed-sequence cache. Lookups validate the
/// covering-segment snapshot; stale entries are evicted lazily on probe.
#[derive(Debug)]
pub struct CleanseCache {
    inner: Mutex<SeqCache<(u64, IndexKey), CachedSeq>>,
    /// Folded into every fingerprint. Non-zero for shard-local caches:
    /// two shards hold *different* rows for overlapping segment-id spaces
    /// (each shard numbers its own segments from 0), so without the salt a
    /// shared or migrated cache could validate one shard's entry against
    /// another shard's covering set and serve wrong rows.
    salt: u64,
}

impl CleanseCache {
    /// A cache bounded to `capacity` sequences.
    pub fn new(capacity: usize) -> Self {
        CleanseCache {
            inner: Mutex::new(SeqCache::new(capacity)),
            salt: 0,
        }
    }

    /// A shard-local cache: identical to [`CleanseCache::new`] except every
    /// key is salted with the shard id, so entries can never alias entries
    /// of another shard (or of an unsharded system) even if caches are
    /// shared or snapshots migrate between services.
    pub fn for_shard(capacity: usize, shard: u64) -> Self {
        CleanseCache {
            inner: Mutex::new(SeqCache::new(capacity)),
            // splitmix64-style spread of (shard + 1); unsharded stays 0.
            salt: (shard + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn salted(&self, fingerprint: u64) -> u64 {
        fingerprint ^ self.salt
    }

    /// Validated lookup: a present entry whose covering-segment snapshot
    /// differs from `segments` is removed (stale).
    pub fn probe(&self, fingerprint: u64, ckey: &Value, segments: &[u64]) -> CacheLookup<Batch> {
        let key = (self.salted(fingerprint), IndexKey(ckey.clone()));
        match self
            .inner
            .lock()
            .lookup_where(&key, |e| e.segments == segments)
        {
            CacheLookup::Hit(e) => CacheLookup::Hit(e.rows),
            CacheLookup::Miss => CacheLookup::Miss,
            CacheLookup::Stale(e) => CacheLookup::Stale(e.rows),
        }
    }

    /// Store a freshly cleansed sequence.
    pub fn store(&self, fingerprint: u64, ckey: &Value, segments: Vec<u64>, rows: Batch) {
        self.inner.lock().insert(
            (self.salted(fingerprint), IndexKey(ckey.clone())),
            CachedSeq { segments, rows },
        );
    }

    /// Cumulative hit/miss/eviction/invalidation counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats()
    }

    /// Most sequences the cache holds.
    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity()
    }

    /// Number of cached sequences.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

impl Rewritten {
    /// Execute the rewrite through the cleansed-sequence cache. Falls back
    /// to [`Rewritten::execute`] when the chosen candidate produced no
    /// cache spec (not a join-back, derived rule input, or a rule modifies
    /// the cluster key).
    ///
    /// The cached pipeline: compute the sequence set; probe each ckey
    /// (validating covering segments); cleanse only the misses via
    /// `Φ(σ_ec ∧ ckey∈misses(R))` — sound because rules partition by ckey;
    /// reassemble per-sequence batches in ckey order (reproducing the
    /// uncached (ckey, skey)-sorted cleansing output byte for byte);
    /// register the assembly as a transient table in a catalog overlay and
    /// run the tail plan over it. Work counters sum over the
    /// sub-executions; cache counters land in the `cache_*` stats, charged
    /// to the `CleanseCacheExec` root node.
    pub fn execute_cached(
        &self,
        catalog: &Catalog,
        options: ExecOptions,
        cache: &CleanseCache,
    ) -> Result<Executed> {
        self.execute_cached_with_budget(catalog, options, cache, QueryBudget::unlimited())
    }

    /// [`Rewritten::execute_cached`] under a [`QueryBudget`]. Cache writes
    /// happen only after the cleansing sub-plan for the missed sequences
    /// completed in full, so an abort at any checkpoint leaves the cache
    /// holding either pre-run entries or complete, valid new entries — an
    /// immediate re-run succeeds and is byte-identical to an uncancelled
    /// execution.
    pub fn execute_cached_with_budget(
        &self,
        catalog: &Catalog,
        options: ExecOptions,
        cache: &CleanseCache,
        budget: QueryBudget,
    ) -> Result<Executed> {
        let Some(spec) = &self.cache_spec else {
            return self.execute_with_budget(catalog, options, budget);
        };
        // The operator's wall time covers the whole pipeline, so its self
        // time is the probing, assembly and overlay work around the
        // sub-executions.
        let start = Instant::now();
        let mut stats = ExecStats::default();
        let mut window_eval_nanos = 0u64;
        let mut children: Vec<OperatorMetrics> = Vec::new();
        let rule_refs: Vec<&RuleTemplate> = spec.rules.iter().map(Arc::as_ref).collect();

        // 1. The distinct sequence set, in the engine's total value order —
        // the same order the cleansing plan's (ckey, skey) sort yields.
        let mut ex = Executor::with_budget(catalog, options, budget.clone());
        let seq = ex.execute(&spec.seqset)?;
        stats.add(&ex.stats);
        window_eval_nanos += ex.window_eval_nanos;
        children.extend(ex.metrics.take());
        let ckey_col = seq.column(0);
        let mut ckeys: Vec<Value> = (0..seq.num_rows())
            // NULL cluster keys never survive the semi-join in the uncached
            // plan either (join keys don't match on NULL).
            .filter(|&i| !ckey_col.is_null(i))
            .map(|i| ckey_col.value(i))
            .collect();
        ckeys.sort_by(Value::total_cmp);
        ckeys.dedup_by(|a, b| a.total_cmp(b).is_eq());

        // 2. Probe with covering-segment validation.
        let reads = catalog.get(&spec.reads_table)?;
        let mut per_ckey: BTreeMap<IndexKey, Batch> = BTreeMap::new();
        let mut misses: Vec<(Value, Vec<u64>)> = Vec::new();
        let (mut hits, mut missed, mut invalidated) = (0u64, 0u64, 0u64);
        for v in &ckeys {
            let cover = reads.covering_segments(&spec.ckey, v);
            match cache.probe(spec.fingerprint, v, &cover) {
                CacheLookup::Hit(rows) => {
                    hits += 1;
                    per_ckey.insert(IndexKey(v.clone()), rows);
                }
                CacheLookup::Miss => {
                    missed += 1;
                    misses.push((v.clone(), cover));
                }
                CacheLookup::Stale(_) => {
                    missed += 1;
                    invalidated += 1;
                    misses.push((v.clone(), cover));
                }
            }
        }

        // 3. Cleanse the misses in one pass, restricted to their sequences.
        if !misses.is_empty() {
            let in_list = Expr::InList {
                expr: Box::new(Expr::Column(ColumnRef::qualified(
                    spec.alias.clone(),
                    spec.ckey.clone(),
                ))),
                list: misses.iter().map(|(v, _)| v.clone()).collect(),
                negated: false,
            };
            let mut src = LogicalPlan::scan_as(&spec.reads_table, &spec.alias);
            if let Some(ec) = &spec.ec {
                src = src.filter(ec.clone());
            }
            let plan = cleansing_plan_qualified(
                src.filter(in_list),
                &rule_refs,
                catalog,
                Some(&spec.alias),
            )?;
            let plan = optimize_default(plan, catalog);
            let mut ex = Executor::with_budget(catalog, options, budget.clone());
            let out = ex.execute(&plan)?;
            stats.add(&ex.stats);
            window_eval_nanos += ex.window_eval_nanos;
            children.extend(ex.metrics.take());

            // Split the (ckey, skey)-sorted output per sequence. Every miss
            // gets an entry — possibly empty — so it hits next time.
            let ci = out
                .schema()
                .index_of(Some(&spec.alias), &spec.ckey)
                .or_else(|_| out.schema().index_of(None, &spec.ckey))?;
            let col = out.column(ci);
            let mut groups: BTreeMap<IndexKey, Vec<usize>> = misses
                .iter()
                .map(|(v, _)| (IndexKey(v.clone()), Vec::new()))
                .collect();
            for i in 0..out.num_rows() {
                if let Some(g) = groups.get_mut(&IndexKey(col.value(i))) {
                    g.push(i);
                }
            }
            for (v, cover) in misses {
                let key = IndexKey(v.clone());
                let rows = out.take(&groups[&key]);
                cache.store(spec.fingerprint, &v, cover, rows.clone());
                per_ckey.insert(key, rows);
            }
        }

        // 4. Reassemble in ckey order — exactly the uncached cleansing
        // output order — and run the tail over a catalog overlay.
        let assembled = if ckeys.is_empty() {
            // No sequences at all: derive the cleansed schema without
            // executing anything.
            let mut src = LogicalPlan::scan_as(&spec.reads_table, &spec.alias);
            if let Some(ec) = &spec.ec {
                src = src.filter(ec.clone());
            }
            let schema = cleansing_plan_qualified(src, &rule_refs, catalog, Some(&spec.alias))?
                .schema(catalog)?;
            Batch::empty(schema)
        } else {
            let parts: Vec<Batch> = ckeys
                .iter()
                .map(|v| per_ckey[&IndexKey(v.clone())].clone())
                .collect();
            Batch::concat(&parts)?
        };
        let assembled_rows = assembled.num_rows() as u64;

        // Phase checkpoint: probing and reassembly are pure in-memory work,
        // but the tail can be expensive — re-check before starting it.
        budget.check()?;
        let overlay = catalog.overlay();
        overlay.register(Table::new(&spec.placeholder, assembled));
        let tail = optimize_default(spec.tail.clone(), &overlay);
        let mut ex = Executor::with_budget(&overlay, options, budget.clone());
        let batch = ex.execute(&tail)?;
        stats.add(&ex.stats);
        window_eval_nanos += ex.window_eval_nanos;
        children.extend(ex.metrics.take());

        let own = ExecStats {
            cache_hits: hits,
            cache_misses: missed,
            cache_invalidations: invalidated,
            ..ExecStats::default()
        };
        stats.add(&own);

        let metrics = OperatorMetrics {
            name: "CleanseCacheExec".to_string(),
            label: format!(
                "CleanseCacheExec: {} sequences hits={hits} misses={missed} invalidated={invalidated}",
                ckeys.len()
            ),
            rows_in: assembled_rows,
            rows_out: batch.num_rows() as u64,
            stats: own,
            wall_nanos: start.elapsed().as_nanos() as u64,
            children,
        };

        Ok(Executed {
            batch,
            stats,
            window_eval_nanos,
            metrics: Some(metrics),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_validates_covering_segments() {
        let cache = CleanseCache::new(8);
        let schema = dc_relational::batch::schema_ref(dc_relational::schema::Schema::new(vec![
            dc_relational::schema::Field::new("epc", dc_relational::value::DataType::Str),
        ]));
        let rows = Batch::from_rows(schema, &[vec![Value::str("e1")]]).unwrap();
        assert!(matches!(
            cache.probe(7, &Value::str("e1"), &[0]),
            CacheLookup::Miss
        ));
        cache.store(7, &Value::str("e1"), vec![0], rows);
        assert!(matches!(
            cache.probe(7, &Value::str("e1"), &[0]),
            CacheLookup::Hit(_)
        ));
        // A different fingerprint does not alias.
        assert!(matches!(
            cache.probe(8, &Value::str("e1"), &[0]),
            CacheLookup::Miss
        ));
        // A changed covering set invalidates.
        assert!(matches!(
            cache.probe(7, &Value::str("e1"), &[0, 1]),
            CacheLookup::Stale(_)
        ));
        assert!(matches!(
            cache.probe(7, &Value::str("e1"), &[0, 1]),
            CacheLookup::Miss
        ));
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.invalidations, 1);
    }
}
