//! Context-score memoization for online serving.
//!
//! Evaluation-mode scoring is a pure function of the padded key window
//! ([`TransDas::position_scores`] runs with dropout disabled), and production
//! sessions draw from one or two workflows, so the same windows recur
//! constantly. [`ScoreCache`] memoizes scores under the *exact* window key —
//! full-key equality, not a hash digest — so a hit returns bit-identical
//! scores and memoized detection is provably equivalent to unmemoized
//! detection. The entry's shape depends on the scoring mode that reads it
//! ([`ScoreKind`]):
//!
//! - Block scoring stores the `L x vocab` matrix of
//!   [`TransDas::position_scores`], one row per window position.
//! - Streaming scoring stores only the `1 x vocab` last row of
//!   [`TransDas::next_scores_cached_flagged`], the one row its verdict reads.
//!
//! The two kinds live in separate maps under one LRU budget, so a lookup of
//! one kind can never be handed an entry of the other, even when a Block
//! and a Streaming detector share a cache and score the same padded window.
//!
//! The cache is shared across serving shards: lookups take a [`Mutex`] on
//! the map while hit/miss/eviction counters are lock-free [`ucad_obs`]
//! handles — [`CacheStats`] is a view over those handles, and
//! [`ScoreCache::register_metrics`] exposes the same cells on a metrics
//! registry (`ucad_cache_*`), so the snapshot API and the exposition can
//! never disagree. Eviction is least-recently-used via per-entry use
//! stamps; the `O(capacity)` eviction scan only runs on a miss at capacity
//! and is negligible next to the transformer forward pass it replaces.
//!
//! [`TransDas::position_scores`]: crate::TransDas::position_scores
//! [`TransDas::next_scores_cached_flagged`]: crate::TransDas::next_scores_cached_flagged

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use ucad_nn::Tensor;
use ucad_obs::{latency_log_bounds, Counter, Gauge, Histogram, MetricKind, Registry};

/// Counter snapshot for benchmarking and capacity tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups that returned a memoized score matrix.
    pub hits: u64,
    /// Lookups that fell through to a forward pass.
    pub misses: u64,
    /// Windows evicted by the LRU bound.
    pub evictions: u64,
    /// Entries dropped on lookup because their model epoch was stale
    /// (memoized before a hot-swap).
    pub stale_drops: u64,
    /// Windows currently resident.
    pub len: usize,
    /// Maximum resident windows.
    pub capacity: usize,
}

impl CacheStats {
    /// Hits over total lookups; 0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Which scores an entry memoizes for its padded window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreKind {
    /// The `L x vocab` position-score matrix (Block scoring).
    Positions,
    /// The `1 x vocab` last row, `O_L`'s scores (Streaming scoring).
    NextRow,
}

struct Entry {
    scores: Arc<Tensor>,
    last_used: u64,
    /// Model epoch the scores were computed under. Entries from an older
    /// epoch are dropped on lookup instead of served: after a model
    /// hot-swap their memoized scores describe the *previous* weights.
    epoch: u64,
}

struct Lru {
    /// One map per [`ScoreKind`], indexed by `kind as usize`.
    maps: [HashMap<Vec<u32>, Entry>; 2],
    clock: u64,
    capacity: usize,
    /// Current model epoch; bumped by [`ScoreCache::advance_epoch`].
    epoch: u64,
}

/// Thread-safe LRU memo of `(score kind, padded window) -> scores`.
pub struct ScoreCache {
    inner: Mutex<Lru>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    stale_drops: Counter,
    resident: Gauge,
    /// Wall time of [`ScoreCache::get`] — the cache-lookup stage of the
    /// serving latency budget (`ucad_latency_cache_lookup_seconds`).
    lookup_seconds: Histogram,
}

impl Lru {
    fn len(&self) -> usize {
        self.maps.iter().map(HashMap::len).sum()
    }
}

impl ScoreCache {
    /// Creates a cache holding at most `capacity` windows.
    ///
    /// # Panics
    /// Panics when `capacity` is zero (a disabled cache is expressed as
    /// `Option::None` at the call sites, not as a zero-capacity cache).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        ScoreCache {
            inner: Mutex::new(Lru {
                maps: [HashMap::new(), HashMap::new()],
                clock: 0,
                capacity,
                epoch: 0,
            }),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            stale_drops: Counter::new(),
            resident: Gauge::new(),
            lookup_seconds: Histogram::new(latency_log_bounds()),
        }
    }

    /// Marks every resident entry stale by advancing the model epoch: the
    /// serving engine calls this when it hot-swaps the model, so scores
    /// memoized from the previous weights are never served against the new
    /// ones. Stale entries are dropped lazily on their next lookup (counted
    /// on `ucad_cache_stale_drops_total`) or displaced by fresh inserts.
    /// Returns the new epoch.
    pub fn advance_epoch(&self) -> u64 {
        let mut lru = self.inner.lock().expect("score cache poisoned");
        lru.epoch += 1;
        lru.epoch
    }

    /// The current model epoch (0 until the first swap).
    pub fn epoch(&self) -> u64 {
        self.inner.lock().expect("score cache poisoned").epoch
    }

    /// Exposes this cache's counters on a metrics registry under
    /// `ucad_cache_{hits,misses,evictions}_total` and `ucad_cache_len`,
    /// tagged with the given labels. The registry adopts the cache's own
    /// cells, so [`ScoreCache::stats`] and the exposition always agree.
    pub fn register_metrics(&self, registry: &Registry, labels: &[(&str, &str)]) {
        registry.register_counter("ucad_cache_hits_total", labels, &self.hits);
        registry.register_counter("ucad_cache_misses_total", labels, &self.misses);
        registry.register_counter("ucad_cache_evictions_total", labels, &self.evictions);
        registry.register_counter("ucad_cache_stale_drops_total", labels, &self.stale_drops);
        registry.register_gauge("ucad_cache_len", labels, &self.resident);
        registry.describe(
            "ucad_latency_cache_lookup_seconds",
            MetricKind::Histogram,
            "Score-cache lookup latency (hit or miss)",
        );
        registry.register_histogram(
            "ucad_latency_cache_lookup_seconds",
            labels,
            &self.lookup_seconds,
        );
    }

    /// Looks up a padded window's [`ScoreKind::Positions`] matrix; see
    /// [`ScoreCache::get_as`].
    pub fn get(&self, window: &[u32]) -> Option<Arc<Tensor>> {
        self.get_as(ScoreKind::Positions, window)
    }

    /// Looks up a padded window's `kind` entry, refreshing its recency on a
    /// hit. An entry memoized under an older model epoch is removed and
    /// reported as a miss — a hot-swapped model must never be served its
    /// predecessor's scores.
    pub fn get_as(&self, kind: ScoreKind, window: &[u32]) -> Option<Arc<Tensor>> {
        let start = std::time::Instant::now();
        let result = self.get_inner(kind, window);
        self.lookup_seconds.observe(start.elapsed().as_secs_f64());
        result
    }

    fn get_inner(&self, kind: ScoreKind, window: &[u32]) -> Option<Arc<Tensor>> {
        let mut guard = self.inner.lock().expect("score cache poisoned");
        let lru = &mut *guard;
        lru.clock += 1;
        let map = &mut lru.maps[kind as usize];
        match map.get_mut(window) {
            Some(entry) if entry.epoch == lru.epoch => {
                entry.last_used = lru.clock;
                self.hits.inc();
                Some(Arc::clone(&entry.scores))
            }
            Some(_) => {
                map.remove(window);
                self.stale_drops.inc();
                self.misses.inc();
                self.resident.set(lru.len() as f64);
                None
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Inserts a freshly computed [`ScoreKind::Positions`] matrix; see
    /// [`ScoreCache::insert_as`].
    pub fn insert(&self, window: Vec<u32>, scores: Arc<Tensor>) {
        self.insert_as(ScoreKind::Positions, window, scores);
    }

    /// Inserts freshly computed `kind` scores, evicting the least recently
    /// used entry of either kind when at capacity.
    pub fn insert_as(&self, kind: ScoreKind, window: Vec<u32>, scores: Arc<Tensor>) {
        let mut guard = self.inner.lock().expect("score cache poisoned");
        let lru = &mut *guard;
        lru.clock += 1;
        if !lru.maps[kind as usize].contains_key(&window) && lru.len() >= lru.capacity {
            let oldest = lru
                .maps
                .iter()
                .enumerate()
                .flat_map(|(m, map)| map.iter().map(move |(k, e)| (e.last_used, m, k)))
                .min_by_key(|&(used, _, _)| used)
                .map(|(_, m, k)| (m, k.clone()));
            if let Some((m, key)) = oldest {
                lru.maps[m].remove(&key);
                self.evictions.inc();
            }
        }
        lru.maps[kind as usize].insert(
            window,
            Entry {
                scores,
                last_used: lru.clock,
                epoch: lru.epoch,
            },
        );
        self.resident.set(lru.len() as f64);
    }

    /// Windows currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("score cache poisoned").len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot (a view over the same cells
    /// [`ScoreCache::register_metrics`] exposes).
    pub fn stats(&self) -> CacheStats {
        let lru = self.inner.lock().expect("score cache poisoned");
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            stale_drops: self.stale_drops.get(),
            len: lru.len(),
            capacity: lru.capacity,
        }
    }

    /// Hits over total lookups; 0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        self.stats().hit_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scores(v: f32) -> Arc<Tensor> {
        Arc::new(Tensor::full(2, 3, v))
    }

    #[test]
    fn hit_returns_the_inserted_tensor() {
        let cache = ScoreCache::new(4);
        assert!(cache.get(&[1, 2, 3]).is_none());
        cache.insert(vec![1, 2, 3], scores(0.5));
        let hit = cache.get(&[1, 2, 3]).expect("hit");
        assert_eq!(*hit, Tensor::full(2, 3, 0.5));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_removes_least_recently_used() {
        let cache = ScoreCache::new(2);
        cache.insert(vec![1], scores(1.0));
        cache.insert(vec![2], scores(2.0));
        // Touch window [1] so [2] becomes the LRU victim.
        assert!(cache.get(&[1]).is_some());
        cache.insert(vec![3], scores(3.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&[2]).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&[1]).is_some());
        assert!(cache.get(&[3]).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn registered_metrics_mirror_stats() {
        let reg = Registry::new();
        let cache = ScoreCache::new(2);
        cache.register_metrics(&reg, &[("cache", "score")]);
        cache.insert(vec![1], scores(1.0));
        assert!(cache.get(&[1]).is_some());
        assert!(cache.get(&[2]).is_none());
        let text = reg.render_prometheus();
        assert!(text.contains("ucad_cache_hits_total{cache=\"score\"} 1"));
        assert!(text.contains("ucad_cache_misses_total{cache=\"score\"} 1"));
        assert!(text.contains("ucad_cache_len{cache=\"score\"} 1"));
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let cache = ScoreCache::new(2);
        cache.insert(vec![1], scores(1.0));
        cache.insert(vec![2], scores(2.0));
        cache.insert(vec![1], scores(9.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(*cache.get(&[1]).unwrap(), Tensor::full(2, 3, 9.0));
        assert!(cache.get(&[2]).is_some());
    }

    #[test]
    fn advance_epoch_invalidates_resident_entries() {
        let cache = ScoreCache::new(4);
        cache.insert(vec![1, 2], scores(1.0));
        assert!(cache.get(&[1, 2]).is_some());
        assert_eq!(cache.advance_epoch(), 1);
        // The pre-swap entry must not be served against the new epoch.
        assert!(
            cache.get(&[1, 2]).is_none(),
            "stale entry served after swap"
        );
        let s = cache.stats();
        assert_eq!(s.stale_drops, 1);
        assert_eq!(s.len, 0, "stale entry must be dropped, not retained");
        // A fresh insert under the new epoch hits normally.
        cache.insert(vec![1, 2], scores(2.0));
        assert_eq!(*cache.get(&[1, 2]).unwrap(), Tensor::full(2, 3, 2.0));
        assert_eq!(cache.epoch(), 1);
    }

    #[test]
    fn stale_drop_counts_as_miss_in_metrics() {
        let reg = Registry::new();
        let cache = ScoreCache::new(2);
        cache.register_metrics(&reg, &[("cache", "score")]);
        cache.insert(vec![7], scores(1.0));
        cache.advance_epoch();
        assert!(cache.get(&[7]).is_none());
        let text = reg.render_prometheus();
        assert!(text.contains("ucad_cache_stale_drops_total{cache=\"score\"} 1"));
        assert!(text.contains("ucad_cache_misses_total{cache=\"score\"} 1"));
        assert!(text.contains("ucad_cache_len{cache=\"score\"} 0"));
    }

    #[test]
    fn score_kinds_never_share_entries() {
        let cache = ScoreCache::new(4);
        cache.insert(vec![1, 2], scores(1.0));
        assert!(cache.get_as(ScoreKind::NextRow, &[1, 2]).is_none());
        let row = Arc::new(Tensor::full(1, 3, 2.0));
        cache.insert_as(ScoreKind::NextRow, vec![1, 2], row);
        assert_eq!(*cache.get(&[1, 2]).unwrap(), Tensor::full(2, 3, 1.0));
        assert_eq!(
            *cache.get_as(ScoreKind::NextRow, &[1, 2]).unwrap(),
            Tensor::full(1, 3, 2.0)
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (2, 1, 2));
    }

    #[test]
    fn eviction_picks_the_oldest_entry_of_either_kind() {
        let cache = ScoreCache::new(2);
        cache.insert_as(ScoreKind::NextRow, vec![1], scores(1.0));
        cache.insert(vec![2], scores(2.0));
        cache.insert(vec![3], scores(3.0));
        assert!(cache.get_as(ScoreKind::NextRow, &[1]).is_none());
        assert!(cache.get(&[2]).is_some());
        assert_eq!((cache.len(), cache.stats().evictions), (2, 1));
    }

    #[test]
    fn empty_cache_reports_zero_rate() {
        let cache = ScoreCache::new(1);
        assert!(cache.is_empty());
        assert_eq!(cache.hit_rate(), 0.0);
    }
}
