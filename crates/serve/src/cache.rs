//! The content-addressed result cache.
//!
//! Analyses are deterministic (the determinism regression suite pins
//! this), so a result is fully identified by *what* was analyzed and
//! *how*: the key hashes the program source and the configuration.
//! An entry holds what the requests for its key have needed so far.
//! Every entry carries the summary counts and the stable warning ids,
//! all an `analyze` response holds; an `explain` adds the rendered
//! `nadroid-provenance/4` document and a `confirm` the
//! `nadroid-confirm/1` document. A warm request is a lookup plus a
//! reference-count bump, never a re-solve or a copy of a document.
//!
//! Eviction is LRU under a byte budget. Entry count stays small (one
//! per distinct app × config), so the evictor finds the
//! least-recently-used slot with a linear scan rather than carrying an
//! intrusive list.

use nadroid_core::{AnalysisConfig, Summary};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::Arc;

/// std's `DefaultHasher` (SipHash-1-3 under fixed keys), which reads
/// eight bytes a step where FNV-1a reads one. Its output is fixed within
/// one build only, which is all an in-memory key needs.
fn sip64(bytes: &[u8]) -> u64 {
    let mut hasher = DefaultHasher::new();
    hasher.write(bytes);
    hasher.finish()
}

/// A content-derived cache key: program bytes × analysis configuration.
/// The hashes are stable within one server build only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The hash of the DSL source text.
    pub program_hash: u64,
    /// The hash of the full `AnalysisConfig` (k, detector options, both
    /// filter pipelines), via its canonical `Debug` rendering.
    pub config_hash: u64,
}

impl CacheKey {
    /// The key for analyzing `source` under `config`.
    ///
    /// The thread count is canonicalized to 1 before hashing: analyses
    /// are byte-identical at every thread count (the determinism suite
    /// sweeps 1/2/4/8), so a result computed at one `--threads` setting
    /// must hit for requests served at another.
    #[must_use]
    pub fn of(source: &str, config: &AnalysisConfig) -> CacheKey {
        let canonical = AnalysisConfig {
            threads: 1,
            ..config.clone()
        };
        CacheKey {
            program_hash: sip64(source.as_bytes()),
            config_hash: sip64(format!("{canonical:?}").as_bytes()),
        }
    }
}

/// One cached analysis outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// App name from the program header.
    pub app: String,
    /// The Table 1 row counts.
    pub summary: Summary,
    /// Stable ids (`w:` + 16 hex) of the warnings surviving all filters.
    pub warning_ids: Vec<String>,
    /// The full `nadroid-provenance/4` document, which `explain`
    /// queries are answered from. `None` in an entry only `analyze`
    /// wrote: its response carries no provenance, so it never pays for
    /// the derivation.
    pub provenance_json: Option<String>,
    /// The `nadroid-confirm/1` document, filled in (and the provenance
    /// above rendered with verdicts) the first time a `confirm` request
    /// lands for this entry. `None` until then: confirmation is far
    /// more expensive than analysis, so `analyze` never pays for it.
    pub confirm_json: Option<String>,
}

impl CachedResult {
    /// Approximate heap footprint, the unit of the cache's byte budget.
    #[must_use]
    pub fn cost_bytes(&self) -> usize {
        let ids: usize = self.warning_ids.iter().map(|s| s.len() + 24).sum();
        let doc = |json: &Option<String>| json.as_ref().map_or(0, String::len);
        self.app.len() + doc(&self.provenance_json) + doc(&self.confirm_json) + ids + 128
    }

    /// Whether this entry holds every document `other` holds, so that
    /// replacing it with `other` would lose work and gain none.
    fn covers(&self, other: &CachedResult) -> bool {
        (other.provenance_json.is_none() || self.provenance_json.is_some())
            && (other.confirm_json.is_none() || self.confirm_json.is_some())
    }
}

/// Eviction and insert accounting. Hits and misses are not counted
/// here: whether a lookup is a hit depends on what the request needs
/// from the entry, so the server counts them (`serve.cache.hits` and
/// `serve.cache.misses`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Successful inserts.
    pub inserts: u64,
}

#[derive(Debug)]
struct Slot {
    result: Arc<CachedResult>,
    cost: usize,
    last_used: u64,
}

/// An LRU map from [`CacheKey`] to [`CachedResult`] bounded by a byte
/// budget rather than an entry count (provenance documents dominate and
/// vary wildly in size across apps).
#[derive(Debug)]
pub struct ResultCache {
    budget: usize,
    bytes: usize,
    seq: u64,
    map: HashMap<CacheKey, Slot>,
    stats: CacheStats,
}

impl ResultCache {
    /// An empty cache holding at most `budget_bytes` of results.
    #[must_use]
    pub fn new(budget_bytes: usize) -> Self {
        ResultCache {
            budget: budget_bytes,
            bytes: 0,
            seq: 0,
            map: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Look up a key, refreshing its recency on a hit. The entry is
    /// shared, not copied.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<CachedResult>> {
        self.seq += 1;
        let slot = self.map.get_mut(key)?;
        slot.last_used = self.seq;
        Some(Arc::clone(&slot.result))
    }

    /// Insert a result, evicting least-recently-used entries until the
    /// budget holds, and return it, shared. Two requests can miss on one
    /// key at once, so an entry resident by now may already hold every
    /// document `result` holds: it stays, with its recency refreshed,
    /// and `result` is returned unretained. An insert therefore never
    /// downgrades an entry. A result larger than the whole budget is
    /// not retained either (it would only evict everything else and
    /// then itself).
    pub fn insert(&mut self, key: CacheKey, mut result: CachedResult) -> Arc<CachedResult> {
        self.seq += 1;
        if let Some(slot) = self.map.get_mut(&key) {
            if slot.result.covers(&result) {
                slot.last_used = self.seq;
                return Arc::new(result);
            }
        }
        // Rendering leaves spare capacity in the documents; drop it so
        // the resident heap is what `cost_bytes` charges the budget.
        for json in result
            .provenance_json
            .iter_mut()
            .chain(&mut result.confirm_json)
        {
            json.shrink_to_fit();
        }
        let result = Arc::new(result);
        let cost = result.cost_bytes();
        if cost > self.budget {
            return result;
        }
        if let Some(old) = self.map.remove(&key) {
            self.bytes -= old.cost;
        }
        while self.bytes + cost > self.budget {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| *k)
                .expect("bytes > 0 implies a slot to evict");
            let evicted = self.map.remove(&lru).expect("lru key present");
            self.bytes -= evicted.cost;
            self.stats.evictions += 1;
        }
        self.bytes += cost;
        self.stats.inserts += 1;
        self.map.insert(
            key,
            Slot {
                result: Arc::clone(&result),
                cost,
                last_used: self.seq,
            },
        );
        result
    }

    /// Current resident bytes.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Live entry count.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.map.len()
    }

    /// The accounting so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(app: &str, pad: usize) -> CachedResult {
        CachedResult {
            app: app.to_owned(),
            summary: Summary {
                loc: 1,
                ec: 1,
                pc: 0,
                threads: 1,
                potential: 1,
                after_sound: 1,
                after_unsound: 1,
                refuted: 0,
                after_refutation: 1,
            },
            warning_ids: vec!["w:0011223344556677".into()],
            provenance_json: Some("x".repeat(pad)),
            confirm_json: None,
        }
    }

    fn key(n: u64) -> CacheKey {
        CacheKey {
            program_hash: n,
            config_hash: 0,
        }
    }

    #[test]
    fn keys_are_content_addressed() {
        let cfg = AnalysisConfig::default();
        assert_eq!(CacheKey::of("app A", &cfg), CacheKey::of("app A", &cfg));
        assert_ne!(
            CacheKey::of("app A", &cfg).program_hash,
            CacheKey::of("app B", &cfg).program_hash
        );
        let k3 = AnalysisConfig {
            k: 3,
            ..AnalysisConfig::default()
        };
        assert_ne!(
            CacheKey::of("app A", &cfg).config_hash,
            CacheKey::of("app A", &k3).config_hash
        );
    }

    #[test]
    fn lru_eviction_respects_a_tight_byte_budget() {
        let unit = result("a", 100).cost_bytes();
        let mut cache = ResultCache::new(unit * 2 + unit / 2); // fits two
        cache.insert(key(1), result("a", 100));
        cache.insert(key(2), result("b", 100));
        assert_eq!(cache.entries(), 2);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), result("c", 100));
        assert_eq!(cache.entries(), 2);
        assert!(cache.get(&key(1)).is_some(), "recently used survives");
        assert!(cache.get(&key(2)).is_none(), "LRU slot evicted");
        assert!(cache.get(&key(3)).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.inserts, 3);
        assert!(cache.bytes() <= unit * 2 + unit / 2);
    }

    #[test]
    fn oversized_results_are_not_retained() {
        let mut cache = ResultCache::new(64);
        cache.insert(key(1), result("big", 10_000));
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let mut cache = ResultCache::new(1 << 20);
        cache.insert(key(1), result("a", 100));
        let b1 = cache.bytes();
        cache.insert(key(1), result("a", 100));
        assert_eq!(cache.bytes(), b1, "same entry, same footprint");
        assert_eq!(cache.entries(), 1);
    }

    /// An entry as `analyze` writes it, without documents.
    fn analyze_only(app: &str) -> CachedResult {
        CachedResult {
            provenance_json: None,
            ..result(app, 0)
        }
    }

    #[test]
    fn an_insert_never_downgrades_the_resident_entry() {
        let mut cache = ResultCache::new(1 << 20);
        let confirmed = CachedResult {
            confirm_json: Some("{\"schema\":\"nadroid-confirm/1\"}".into()),
            ..result("a", 100)
        };
        let resident = cache.insert(key(1), confirmed.clone());
        let bytes = cache.bytes();
        // A slower `analyze` that missed on the same key lands second:
        // it answers from its own result, and the cache keeps the
        // confirm entry.
        let late = cache.insert(key(1), analyze_only("a"));
        assert_eq!(late.provenance_json, None, "the job keeps its own result");
        let found = cache.get(&key(1)).expect("resident entry");
        assert!(Arc::ptr_eq(&resident, &found), "the confirm entry stays");
        assert_eq!(*found, confirmed);
        assert_eq!(cache.bytes(), bytes);
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.stats().inserts, 1, "the kept entry is no insert");
        // An explain entry holds no confirmation, so it cannot replace
        // the confirm entry either.
        cache.insert(key(1), result("a", 100));
        assert!(Arc::ptr_eq(&resident, &cache.get(&key(1)).unwrap()));
    }

    #[test]
    fn a_richer_insert_upgrades_the_resident_entry() {
        let mut cache = ResultCache::new(1 << 20);
        cache.insert(key(1), analyze_only("a"));
        let analyzed = cache.bytes();
        let upgraded = cache.insert(key(1), result("a", 100));
        assert!(Arc::ptr_eq(&upgraded, &cache.get(&key(1)).unwrap()));
        assert_eq!(cache.bytes(), analyzed + 100, "charged for the document");
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.stats().inserts, 2);
    }

    #[test]
    fn lookups_share_the_inserted_entry() {
        let mut cache = ResultCache::new(1 << 20);
        assert!(cache.get(&key(1)).is_none());
        let inserted = cache.insert(key(1), result("a", 10));
        let found = cache.get(&key(1)).expect("inserted entry");
        assert!(Arc::ptr_eq(&inserted, &found), "a hit shares, never copies");
        assert!(cache.get(&key(2)).is_none());
    }
}
