//! Query result cache.
//!
//! Paper §II: "the query engine directly returns M(Q,G) if it is already
//! cached". Keys combine the graph's catalog id, its version counter and
//! a `u64` digest of the pattern fingerprint
//! ([`Pattern::fingerprint_hash`]), so updates invalidate implicitly —
//! stale entries simply stop being requested and age out of the LRU.
//! Keying by id (not name) means a graph removed and re-added under the
//! same name can never be served stale results.
//!
//! Each slot also keeps the relation's ranked top-K once a `top_k` query
//! has ranked it ([`QueryCache::get_ranked`], [`QueryCache::put_ranked`]),
//! so a repeated top-K query is answered without rebuilding the result
//! graph. The ranking is a prefix of the total `(rank, node id)` order
//! over the same (graph id, version, pattern), so serving a prefix of it
//! is exact. A list is stored only when it is no larger than the
//! relation's own bitsets, so the cache's memory at most doubles.
//!
//! Recency is tracked with a **generation counter** instead of an ordered
//! key list: every touch stamps the entry with a fresh generation and
//! appends `(generation, key)` to a queue. Eviction pops the queue front,
//! skipping stale entries whose recorded generation no longer matches the
//! map — amortized O(1) `get`/`put`/evict, versus the former O(n) vector
//! scans per touch. The queue is compacted once it outgrows the live
//! entries by a constant factor, keeping memory proportional to capacity.

use expfinder_core::{MatchRelation, RankedMatch};
use expfinder_pattern::Pattern;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Cache key: graph catalog id, graph version, pattern fingerprint hash.
pub type CacheKey = (u64, u64, u64);

/// Hit/miss counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Relation lookups answered from the cache.
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Rankings served from a slot's stored top-K. Counted apart from
    /// `hits`, which keep counting relation lookups only.
    pub ranked_hits: u64,
}

/// A cached relation stamped with its most recent touch generation and
/// the full fingerprint its key hash was derived from. The hash is only
/// an index: FNV-1a collisions are constructible by anyone who can
/// submit patterns, so every hit re-verifies the exact fingerprint —
/// a collision is a miss (and an overwriting `put` wins), never a
/// cross-pattern answer.
struct Slot {
    value: Arc<MatchRelation>,
    /// The relation's ranked top-`k` as `(k, list)`, a prefix of the
    /// total `(rank, node id)` order. A list shorter than `k` is
    /// complete: it holds every match of the output node.
    ranked: Option<(usize, Arc<[RankedMatch]>)>,
    gen: u64,
    fingerprint: String,
}

/// A bounded LRU cache of match relations.
pub struct QueryCache {
    capacity: usize,
    map: HashMap<CacheKey, Slot>,
    /// Touch log: `(generation, key)` in ascending generation order. An
    /// entry is live iff the map still records that generation for the
    /// key; everything else is a stale leftover of an earlier touch.
    recency: VecDeque<(u64, CacheKey)>,
    next_gen: u64,
    stats: CacheStats,
}

impl QueryCache {
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            recency: VecDeque::new(),
            next_gen: 0,
            stats: CacheStats::default(),
        }
    }

    /// Build the canonical key for a query. When the fingerprint string
    /// is already at hand, prefer [`QueryCache::key_for`].
    pub fn key(graph_id: u64, version: u64, pattern: &Pattern) -> CacheKey {
        Self::key_for(graph_id, version, &pattern.fingerprint())
    }

    /// Build the canonical key from an already-computed fingerprint.
    pub fn key_for(graph_id: u64, version: u64, fingerprint: &str) -> CacheKey {
        (
            graph_id,
            version,
            expfinder_pattern::hash_fingerprint(fingerprint),
        )
    }

    /// Look up; refreshes recency on a (fingerprint-verified) hit. A key
    /// whose slot holds a different fingerprint — a hash collision — is
    /// a miss.
    pub fn get(&mut self, key: &CacheKey, fingerprint: &str) -> Option<Arc<MatchRelation>> {
        let gen = self.next_gen;
        match self.map.get_mut(key) {
            Some(slot) if slot.fingerprint == fingerprint => {
                self.stats.hits += 1;
                self.next_gen += 1;
                slot.gen = gen;
                let v = Arc::clone(&slot.value);
                self.recency.push_back((gen, *key));
                self.maybe_compact();
                Some(v)
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// The best `k` experts from the slot's stored ranking, when it
    /// answers `k` exactly: `k` is at most the ranked `k`, or the stored
    /// list is complete. Otherwise (no slot, another fingerprint, no
    /// ranking, or a truncated list too short for `k`) `None`. Leaves
    /// `hits`, `misses` and recency alone: the relation lookup that
    /// precedes it already counted and touched the slot.
    pub fn get_ranked(
        &mut self,
        key: &CacheKey,
        fingerprint: &str,
        k: usize,
    ) -> Option<Vec<RankedMatch>> {
        let slot = self.map.get(key).filter(|s| s.fingerprint == fingerprint)?;
        let (ranked_k, list) = slot.ranked.as_ref()?;
        let complete = list.len() < *ranked_k;
        if k > *ranked_k && !complete {
            return None;
        }
        self.stats.ranked_hits += 1;
        Some(list[..k.min(list.len())].to_vec())
    }

    /// Store the ranked top-`k` of the relation cached under `key`. A
    /// no-op when the slot is gone or holds another fingerprint, when it
    /// already ranks at least as far, or when `list` takes more bytes
    /// than the relation's bitsets
    /// (`pattern_nodes × ⌈data_nodes/64⌉ × 8`).
    pub fn put_ranked(&mut self, key: CacheKey, fingerprint: &str, k: usize, list: &[RankedMatch]) {
        let Some(slot) = self
            .map
            .get_mut(&key)
            .filter(|s| s.fingerprint == fingerprint)
        else {
            return;
        };
        if slot
            .ranked
            .as_ref()
            .is_some_and(|(ranked_k, _)| *ranked_k >= k)
        {
            return;
        }
        let rel = &slot.value;
        let bitset_bytes = rel.pattern_nodes() * rel.data_nodes().div_ceil(64) * 8;
        if std::mem::size_of_val(list) <= bitset_bytes {
            slot.ranked = Some((k, Arc::from(list)));
        }
    }

    /// Insert (or refresh) an entry, evicting the least recently used
    /// entry if over capacity.
    pub fn put(&mut self, key: CacheKey, fingerprint: &str, value: Arc<MatchRelation>) {
        let gen = self.next_gen;
        self.next_gen += 1;
        self.map.insert(
            key,
            Slot {
                value,
                ranked: None,
                gen,
                fingerprint: fingerprint.to_owned(),
            },
        );
        self.recency.push_back((gen, key));
        while self.map.len() > self.capacity {
            let (g, k) = self
                .recency
                .pop_front()
                .expect("over-capacity map has touches");
            // stale touch: the key was touched again later (or evicted)
            if self.map.get(&k).is_some_and(|s| s.gen == g) {
                self.map.remove(&k);
                self.stats.evictions += 1;
            }
        }
        self.maybe_compact();
    }

    /// Drop stale touch-log entries once they outnumber live ones 4:1, so
    /// the log stays O(capacity) without per-operation scans.
    fn maybe_compact(&mut self) {
        if self.recency.len() > self.map.len() * 4 + 16 {
            let map = &self.map;
            self.recency
                .retain(|(g, k)| map.get(k).is_some_and(|s| s.gen == *g));
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.map.clear();
        self.recency.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expfinder_graph::BitSet;

    fn rel(n: usize) -> Arc<MatchRelation> {
        Arc::new(MatchRelation::from_sets(vec![BitSet::full(n)], n))
    }

    fn k(id: u64, v: u64) -> CacheKey {
        (id, v, 0xfeed)
    }

    #[test]
    fn hit_and_miss() {
        let mut c = QueryCache::new(4);
        assert!(c.get(&k(1, 1), "fp").is_none());
        c.put(k(1, 1), "fp", rel(3));
        assert!(c.get(&k(1, 1), "fp").is_some());
        assert!(c.get(&k(1, 2), "fp").is_none(), "different version misses");
        assert!(c.get(&k(2, 1), "fp").is_none(), "different graph id misses");
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = QueryCache::new(2);
        c.put(k(1, 1), "fp", rel(1));
        c.put(k(2, 1), "fp", rel(1));
        // touch graph 1 so graph 2 becomes the oldest
        assert!(c.get(&k(1, 1), "fp").is_some());
        c.put(k(3, 1), "fp", rel(1));
        assert_eq!(c.len(), 2);
        assert!(c.get(&k(2, 1), "fp").is_none(), "2 evicted");
        assert!(c.get(&k(1, 1), "fp").is_some(), "1 survived");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn eviction_always_drops_the_oldest() {
        // churn well past capacity with interleaved touches: the survivor
        // set must always be the most recently touched `capacity` keys
        let mut c = QueryCache::new(3);
        for i in 0..50u64 {
            c.put(k(i, 1), "fp", rel(1));
            // keep key 0 hot for the first half
            if i < 25 {
                assert!(c.get(&k(0, 1), "fp").is_some(), "key 0 touched at {i}");
            }
        }
        assert_eq!(c.len(), 3);
        assert!(c.get(&k(49, 1), "fp").is_some());
        assert!(c.get(&k(48, 1), "fp").is_some());
        assert!(c.get(&k(47, 1), "fp").is_some());
        assert!(c.get(&k(0, 1), "fp").is_none(), "went cold, evicted");
        // recency log stays bounded relative to capacity
        assert!(c.recency.len() <= c.map.len() * 4 + 16);
    }

    #[test]
    fn put_refreshes_existing() {
        let mut c = QueryCache::new(2);
        c.put(k(1, 1), "fp", rel(1));
        c.put(k(2, 1), "fp", rel(1));
        c.put(k(1, 1), "fp", rel(2)); // refresh 1
        c.put(k(3, 1), "fp", rel(1)); // evicts 2, not 1
        assert!(c.get(&k(1, 1), "fp").is_some());
        assert!(c.get(&k(2, 1), "fp").is_none());
    }

    #[test]
    fn clear_empties() {
        let mut c = QueryCache::new(2);
        c.put(k(1, 1), "fp", rel(1));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn zero_capacity_clamped_to_one() {
        let mut c = QueryCache::new(0);
        c.put(k(1, 1), "fp", rel(1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn hash_collision_is_a_miss_not_a_wrong_answer() {
        // same key hash, different fingerprints (the adversarial FNV
        // collision shape): the verified get never serves the other
        // pattern's relation
        let mut c = QueryCache::new(4);
        c.put(k(1, 1), "pattern-a", rel(1));
        assert!(
            c.get(&k(1, 1), "pattern-b").is_none(),
            "collision must miss"
        );
        assert_eq!(c.stats().misses, 1);
        // the colliding pattern may overwrite the slot; verification
        // then protects the original
        c.put(k(1, 1), "pattern-b", rel(2));
        assert!(c.get(&k(1, 1), "pattern-b").is_some());
        assert!(c.get(&k(1, 1), "pattern-a").is_none());
        assert_eq!(c.len(), 1);
    }

    /// A relation of `pattern_nodes × data_nodes` whose bitsets take
    /// `pattern_nodes × ⌈data_nodes/64⌉ × 8` bytes: room for that many
    /// bytes of ranked list.
    fn rel_shaped(pattern_nodes: usize, data_nodes: usize) -> Arc<MatchRelation> {
        Arc::new(MatchRelation::from_sets(
            vec![BitSet::full(data_nodes); pattern_nodes],
            data_nodes,
        ))
    }

    /// `n` experts in ascending `(rank, node id)` order.
    fn ranked(n: u32) -> Vec<RankedMatch> {
        (0..n)
            .map(|i| RankedMatch {
                node: expfinder_graph::NodeId(i),
                rank: f64::from(i) / 2.0,
            })
            .collect()
    }

    /// A relation with room for 16 ranked entries: 2 sets × 16 words ×
    /// 8 bytes = 256 bytes.
    fn roomy() -> Arc<MatchRelation> {
        rel_shaped(2, 1024)
    }

    #[test]
    fn ranked_prefix_served_for_smaller_k() {
        let mut c = QueryCache::new(4);
        c.put(k(1, 1), "fp", roomy());
        assert!(
            c.get_ranked(&k(1, 1), "fp", 3).is_none(),
            "nothing ranked yet"
        );
        let list = ranked(20);
        c.put_ranked(k(1, 1), "fp", 5, &list[..5]);
        for want in 0..=5 {
            let got = c.get_ranked(&k(1, 1), "fp", want).expect("prefix served");
            assert_eq!(got, list[..want]);
        }
        let s = c.stats();
        assert_eq!(s.ranked_hits, 6);
        assert_eq!(
            (s.hits, s.misses),
            (0, 0),
            "ranked lookups leave hits alone"
        );
    }

    #[test]
    fn complete_ranked_list_serves_any_k() {
        let mut c = QueryCache::new(4);
        c.put(k(1, 1), "fp", roomy());
        // ranked for 10, only 4 matches exist: the list is complete
        let list = ranked(4);
        c.put_ranked(k(1, 1), "fp", 10, &list);
        assert_eq!(c.get_ranked(&k(1, 1), "fp", 2).unwrap(), list[..2]);
        assert_eq!(c.get_ranked(&k(1, 1), "fp", 10).unwrap(), list);
        assert_eq!(c.get_ranked(&k(1, 1), "fp", 1000).unwrap(), list);
        assert_eq!(c.stats().ranked_hits, 3);
    }

    #[test]
    fn larger_k_on_truncated_list_reranks() {
        let mut c = QueryCache::new(4);
        c.put(k(1, 1), "fp", roomy());
        let list = ranked(12);
        c.put_ranked(k(1, 1), "fp", 3, &list[..3]);
        assert!(c.get_ranked(&k(1, 1), "fp", 4).is_none(), "must re-rank");
        assert_eq!(c.stats().ranked_hits, 0);
        // the re-ranked, longer list replaces the shorter one...
        c.put_ranked(k(1, 1), "fp", 8, &list[..8]);
        assert_eq!(c.get_ranked(&k(1, 1), "fp", 8).unwrap(), list[..8]);
        // ...and a shorter one never replaces it
        c.put_ranked(k(1, 1), "fp", 2, &list[..2]);
        assert_eq!(c.get_ranked(&k(1, 1), "fp", 6).unwrap(), list[..6]);
        // the next graph version starts unranked
        c.put(k(1, 2), "fp", roomy());
        assert!(c.get_ranked(&k(1, 2), "fp", 1).is_none());
    }

    #[test]
    fn hash_collision_never_serves_another_patterns_ranking() {
        let mut c = QueryCache::new(4);
        c.put(k(1, 1), "pattern-a", roomy());
        // complete: ranked for 6, only 4 matches
        let list = ranked(4);
        c.put_ranked(k(1, 1), "pattern-a", 6, &list);
        assert!(c.get_ranked(&k(1, 1), "pattern-b", 1).is_none());
        // a colliding pattern cannot attach its ranking to a's relation
        c.put_ranked(k(1, 1), "pattern-b", 9, &ranked(9));
        assert_eq!(c.get_ranked(&k(1, 1), "pattern-a", 9).unwrap(), list);
        // once b overwrites the slot, a's ranking is gone with it
        c.put(k(1, 1), "pattern-b", roomy());
        assert!(c.get_ranked(&k(1, 1), "pattern-b", 1).is_none());
        assert!(c.get_ranked(&k(1, 1), "pattern-a", 1).is_none());
        assert_eq!(c.stats().ranked_hits, 1);
    }

    #[test]
    fn oversized_ranked_list_not_stored() {
        let entry = std::mem::size_of::<RankedMatch>();
        // one pattern node over 64 data nodes: one word, 8 bytes
        let mut c = QueryCache::new(4);
        c.put(k(1, 1), "fp", rel_shaped(1, 64));
        assert!(entry > 8);
        c.put_ranked(k(1, 1), "fp", 1, &ranked(1));
        assert!(c.get_ranked(&k(1, 1), "fp", 1).is_none(), "16 B > 8 B");
        // the bound is inclusive: 2 × 1 word = 16 bytes holds one entry
        // but not two
        c.put(k(2, 1), "fp", rel_shaped(2, 64));
        c.put_ranked(k(2, 1), "fp", 2, &ranked(2));
        assert!(c.get_ranked(&k(2, 1), "fp", 1).is_none());
        c.put_ranked(k(2, 1), "fp", 1, &ranked(1));
        assert!(c.get_ranked(&k(2, 1), "fp", 1).is_some());
        // an empty list always fits
        c.put(k(3, 1), "fp", rel_shaped(1, 1));
        c.put_ranked(k(3, 1), "fp", 0, &[]);
        assert_eq!(c.get_ranked(&k(3, 1), "fp", 0).unwrap(), vec![]);
    }

    #[test]
    fn keys_come_from_fingerprint_hashes() {
        use expfinder_pattern::fixtures::fig1_pattern;
        let q = fig1_pattern();
        let a = QueryCache::key(1, 7, &q);
        let b = QueryCache::key(1, 7, &q);
        assert_eq!(a, b);
        assert_eq!(a.2, q.fingerprint_hash());
        let sim = q.as_simulation();
        assert_ne!(QueryCache::key(1, 7, &sim), a, "bounds change the key");
    }
}
