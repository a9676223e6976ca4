//! The content-addressed result cache.
//!
//! Analyses are deterministic (the determinism regression suite pins
//! this), so a result is fully identified by *what* was analyzed and
//! *how*: the key is `(fnv64(program source), fnv64(config))`. Values
//! carry everything a response needs — the summary counts, the stable
//! warning ids, and the rendered `nadroid-provenance/4` document — so a
//! warm request (including `explain` queries) is a lookup plus a
//! reference-count bump, never a re-solve or a copy of the document.
//!
//! Eviction is LRU under a byte budget. Entry count stays small (one
//! per distinct app × config), so the evictor finds the
//! least-recently-used slot with a linear scan rather than carrying an
//! intrusive list.

use nadroid_core::{AnalysisConfig, Summary};
use std::collections::HashMap;
use std::sync::Arc;

/// 64-bit FNV-1a — the same construction the detector's warning ids
/// use; dependency-free and stable across platforms and reruns.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A content-derived cache key: program bytes × analysis configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// `fnv64` of the DSL source text.
    pub program_hash: u64,
    /// `fnv64` of the full `AnalysisConfig` (k, detector options, both
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
            program_hash: fnv64(source.as_bytes()),
            config_hash: fnv64(format!("{canonical:?}").as_bytes()),
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
    /// The full `nadroid-provenance/4` document — `explain` queries are
    /// answered from this without re-solving.
    pub provenance_json: String,
    /// The `nadroid-confirm/1` document, filled in (and the provenance
    /// above upgraded with verdicts) the first time a `confirm` request
    /// lands for this entry. `None` until then: confirmation is far
    /// more expensive than analysis, so `analyze` never pays for it.
    pub confirm_json: Option<String>,
    /// Wall micros the cold computation took.
    pub compute_micros: u64,
}

impl CachedResult {
    /// Approximate heap footprint, the unit of the cache's byte budget.
    #[must_use]
    pub fn cost_bytes(&self) -> usize {
        let ids: usize = self.warning_ids.iter().map(|s| s.len() + 24).sum();
        let confirm = self.confirm_json.as_ref().map_or(0, String::len);
        self.app.len() + self.provenance_json.len() + confirm + ids + 128
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
    /// budget holds, and return it as the shared entry. A result larger
    /// than the whole budget is not retained (it would only evict
    /// everything else and then itself).
    pub fn insert(&mut self, key: CacheKey, mut result: CachedResult) -> Arc<CachedResult> {
        // Rendering leaves spare capacity in the documents; drop it so
        // the resident heap is what `cost_bytes` charges the budget.
        result.provenance_json.shrink_to_fit();
        if let Some(json) = &mut result.confirm_json {
            json.shrink_to_fit();
        }
        let result = Arc::new(result);
        let cost = result.cost_bytes();
        if cost > self.budget {
            return result;
        }
        self.seq += 1;
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
            provenance_json: "x".repeat(pad),
            confirm_json: None,
            compute_micros: 7,
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
