//! Persistent Steiner-tree caching shared across embedding requests.
//!
//! A Steiner tree built by [`crate::steiner`] is a pure function of the
//! graph topology, the edge weights and the ordered terminal list — it does
//! not depend on any capacity or deployment state layered on top of the
//! graph. A long-running service can therefore keep one [`SteinerCache`]
//! alive across many requests and reuse trees between tasks that share a
//! root and destination set, even while per-node state (deployed VNF
//! instances, residual capacities) evolves between requests.
//!
//! The contract that makes this sound:
//!
//! * **Keys** are `(root, terminals)` with the terminal list in the exact
//!   order the caller passes it. Construction heuristics (KMB,
//!   Takahashi–Matsuyama) are deterministic in that order, so a cached
//!   value is bit-identical to a fresh computation — callers that need
//!   reproducible results get them for free.
//! * **Values** may be `None`, recording that tree construction failed for
//!   that key (e.g. a terminal disconnected from the root); negative
//!   results are as cacheable as positive ones.
//! * **Invalidation** is the owner's job exactly when the *graph* changes
//!   (topology or edge weights). Mutations of node state that do not touch
//!   the graph — committing an embedding, deploying an instance, debiting
//!   capacity — must NOT invalidate the cache; that independence is what
//!   makes cross-request reuse profitable. [`SteinerCache::invalidate`]
//!   clears every entry and bumps an epoch counter so owners can assert
//!   the flush happened.
//! * **Bounding** is optional: [`SteinerCache::bounded`] caps the entry
//!   count and evicts with the CLOCK (second-chance) policy — entries
//!   touched since the clock hand last passed survive one sweep — so a
//!   long-running service's memory stays bounded under an unbounded
//!   request stream. The default remains unbounded.

use crate::steiner::SteinerTree;
use crate::NodeId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A point-in-time snapshot of a cache's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently cached (including recorded failures).
    pub entries: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// How many times the cache has been invalidated.
    pub epoch: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A mutex-protected `(root, terminals) -> Option<SteinerTree>` map with
/// hit/miss/eviction counters, an invalidation epoch, and an optional
/// capacity bound enforced by CLOCK eviction.
///
/// This is the cache a long-running embedding service shares across
/// requests and worker threads. Contention is modest by construction:
/// workers hold the lock only for a map probe or insert, never while
/// building a tree. Because values are pure functions of their key, a
/// racy double-compute is benign: both racers produce identical trees.
#[derive(Debug, Default)]
pub struct SteinerCache {
    entries: Mutex<CacheInner>,
    /// Maximum entries; `None` means unbounded.
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    epoch: AtomicU64,
}

/// `(root, terminal sequence)` — the cache key.
type CacheKey = (NodeId, Vec<NodeId>);

/// A cached outcome plus its CLOCK reference bit.
#[derive(Debug)]
struct Slot {
    value: Option<SteinerTree>,
    /// Set on every touch; cleared when the clock hand sweeps past. An
    /// entry is evicted only if the hand finds this bit already clear.
    referenced: bool,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: BTreeMap<CacheKey, Slot>,
    /// The clock ring: every cached key, in insertion-slot order.
    ring: Vec<CacheKey>,
    /// Next ring position the eviction hand examines.
    hand: usize,
}

impl SteinerCache {
    /// An empty unbounded cache at epoch 0.
    pub fn new() -> Self {
        SteinerCache::default()
    }

    /// An empty cache holding at most `max_entries` entries, evicting with
    /// the CLOCK (second-chance) policy once full. A zero capacity caches
    /// nothing (every lookup misses).
    pub fn bounded(max_entries: usize) -> Self {
        SteinerCache {
            capacity: Some(max_entries),
            ..SteinerCache::default()
        }
    }

    /// The capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of cached entries (including recorded failures).
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock poisoned").map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of lookups answered from the cache (0.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Entries evicted so far to respect the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// How many times [`SteinerCache::invalidate`] has run.
    ///
    /// `Acquire` pairs with the `Release` bump in
    /// [`SteinerCache::invalidate`]: a thread that observes epoch `E` is
    /// guaranteed to also observe every effect (the entry clearing) that
    /// happened-before the bump to `E`. Without the pairing, a reader
    /// could see the new epoch while a subsequent `lookup` still hits a
    /// pre-flush entry — exactly the stale pairing owners use the epoch
    /// to rule out.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// A snapshot of every counter at once.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.len(),
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions(),
            epoch: self.epoch(),
        }
    }

    /// Returns the cached outcome for `(root, terminals)`: `Some(outcome)`
    /// on a hit (where the outcome itself may be a recorded failure),
    /// `None` on a miss.
    pub fn lookup(&self, root: NodeId, terminals: &[NodeId]) -> Option<Option<SteinerTree>> {
        let key = (root, terminals.to_vec());
        let mut inner = self.entries.lock().expect("cache lock poisoned");
        match inner.map.get_mut(&key) {
            Some(slot) => {
                slot.referenced = true;
                let v = slot.value.clone();
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores the outcome for `(root, terminals)`.
    pub fn store(&self, root: NodeId, terminals: &[NodeId], tree: Option<SteinerTree>) {
        let key = (root, terminals.to_vec());
        let mut inner = self.entries.lock().expect("cache lock poisoned");
        if let Some(slot) = inner.map.get_mut(&key) {
            slot.value = tree;
            slot.referenced = true;
            return;
        }
        let slot = Slot {
            value: tree,
            referenced: true,
        };
        match self.capacity {
            Some(0) => {} // degenerate bound: cache nothing
            Some(cap) if inner.map.len() >= cap => {
                // CLOCK: sweep the hand, clearing reference bits, until an
                // unreferenced victim appears (at most one full revolution
                // plus one step). The victim's ring slot is recycled for
                // the new key.
                loop {
                    let hand = inner.hand % inner.ring.len();
                    let victim = inner.ring[hand].clone();
                    let vslot = inner.map.get_mut(&victim).expect("ring key is cached");
                    if vslot.referenced {
                        vslot.referenced = false;
                        inner.hand = (hand + 1) % inner.ring.len();
                    } else {
                        inner.map.remove(&victim);
                        inner.ring[hand] = key.clone();
                        inner.hand = (hand + 1) % inner.ring.len();
                        inner.map.insert(key, slot);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
            }
            _ => {
                inner.ring.push(key.clone());
                inner.map.insert(key, slot);
            }
        }
    }

    /// Drops every entry. Owners call this when the underlying graph
    /// changes; see the module docs for what does *not* require it.
    pub fn invalidate(&self) {
        let mut inner = self.entries.lock().expect("cache lock poisoned");
        inner.map.clear();
        inner.ring.clear();
        inner.hand = 0;
        // The bump must be `Release` (and is issued while still holding
        // the entry lock, i.e. after the clears above): [`SteinerCache::epoch`]
        // reads the counter *without* taking the lock, so only the
        // Release/Acquire pair orders "epoch advanced" after "entries
        // cleared". With `Relaxed` on either side a concurrent reader may
        // observe the new epoch yet still find (and trust) pre-flush
        // entries on its next locked lookup — the mutex orders the map
        // accesses themselves, but not the unlocked epoch read against
        // them.
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Looks up `(root, terminals)`, computing and storing the outcome via
    /// `build` on a miss.
    pub fn get_or_insert_with<F>(
        &self,
        root: NodeId,
        terminals: &[NodeId],
        build: F,
    ) -> Option<SteinerTree>
    where
        F: FnOnce() -> Option<SteinerTree>,
    {
        if let Some(cached) = self.lookup(root, terminals) {
            return cached;
        }
        let tree = build();
        self.store(root, terminals, tree.clone());
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, LazyDistances};

    /// The engine's KMB tree over `terminals` on warm rows, `None` when
    /// construction fails.
    fn kmb(g: &Graph, terminals: &[NodeId]) -> Option<SteinerTree> {
        let dist = LazyDistances::new(g);
        for &t in terminals {
            dist.distance(t, t);
        }
        g.steiner_kmb_with_provider(&dist, terminals, None).ok()
    }

    fn diamond() -> Graph {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 1.0).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 2.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 2.0).unwrap();
        g
    }

    #[test]
    fn caches_and_counts_hits() {
        let g = diamond();
        let cache = SteinerCache::new();
        let terminals = [NodeId(3)];
        let build = || kmb(&g, &[NodeId(0), NodeId(3)]);
        let first = cache
            .get_or_insert_with(NodeId(0), &terminals, build)
            .unwrap();
        let second = cache
            .get_or_insert_with(NodeId(0), &terminals, build)
            .unwrap();
        assert_eq!(first, second);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn failures_are_cached_too() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        // Node 2 is disconnected: tree construction fails.
        let cache = SteinerCache::new();
        let build = || kmb(&g, &[NodeId(0), NodeId(2)]);
        assert!(cache
            .get_or_insert_with(NodeId(0), &[NodeId(2)], build)
            .is_none());
        assert!(cache
            .get_or_insert_with(NodeId(0), &[NodeId(2)], || panic!("must be cached"))
            .is_none());
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let g = diamond();
        let cache = SteinerCache::new();
        let t1 = cache
            .get_or_insert_with(NodeId(0), &[NodeId(3)], || kmb(&g, &[NodeId(0), NodeId(3)]))
            .unwrap();
        let t2 = cache
            .get_or_insert_with(NodeId(1), &[NodeId(2)], || kmb(&g, &[NodeId(1), NodeId(2)]))
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_ne!(t1.edges, t2.edges);
    }

    #[test]
    fn invalidate_clears_and_bumps_epoch() {
        let g = diamond();
        let cache = SteinerCache::new();
        cache.get_or_insert_with(NodeId(0), &[NodeId(3)], || kmb(&g, &[NodeId(0), NodeId(3)]));
        assert_eq!(cache.len(), 1);
        cache.invalidate();
        assert!(cache.is_empty());
        assert_eq!(cache.epoch(), 1);
    }

    #[test]
    fn bounded_cache_evicts_at_capacity() {
        let g = diamond();
        let cache = SteinerCache::bounded(2);
        let build = |a: usize, b: usize| kmb(&g, &[NodeId(a), NodeId(b)]);
        cache.store(NodeId(0), &[NodeId(1)], build(0, 1));
        cache.store(NodeId(0), &[NodeId(2)], build(0, 2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        cache.store(NodeId(0), &[NodeId(3)], build(0, 3));
        assert_eq!(cache.len(), 2, "capacity bound must hold");
        assert_eq!(cache.evictions(), 1);
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn clock_second_chance_protects_touched_entries() {
        let g = diamond();
        let cache = SteinerCache::bounded(2);
        let build = |a: usize, b: usize| kmb(&g, &[NodeId(a), NodeId(b)]);
        cache.store(NodeId(0), &[NodeId(1)], build(0, 1));
        cache.store(NodeId(0), &[NodeId(2)], build(0, 2));
        // One full hand sweep clears both reference bits, then evicts the
        // oldest slot; touching (0,[1]) afterwards re-arms its bit.
        cache.store(NodeId(0), &[NodeId(3)], build(0, 3)); // evicts (0,[1])
        assert!(cache.lookup(NodeId(0), &[NodeId(1)]).is_none());
        cache.store(NodeId(0), &[NodeId(1)], build(0, 1)); // evicts one of the rest
        assert!(cache.lookup(NodeId(0), &[NodeId(1)]).is_some());
        // Touch (0,[1]) then overflow again: the touched entry survives
        // because the hand finds its reference bit set and spares it.
        cache.lookup(NodeId(0), &[NodeId(1)]);
        cache.store(NodeId(2), &[NodeId(3)], build(2, 3));
        assert!(
            cache.lookup(NodeId(0), &[NodeId(1)]).is_some(),
            "recently touched entry must get a second chance"
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let g = diamond();
        let cache = SteinerCache::bounded(0);
        let t =
            cache.get_or_insert_with(NodeId(0), &[NodeId(3)], || kmb(&g, &[NodeId(0), NodeId(3)]));
        assert!(t.is_some(), "build result still returned");
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let g = diamond();
        let cache = SteinerCache::new();
        assert_eq!(cache.capacity(), None);
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    cache.store(NodeId(a), &[NodeId(b)], kmb(&g, &[NodeId(a), NodeId(b)]));
                }
            }
        }
        assert_eq!(cache.len(), 12);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn bounded_cache_invalidate_resets_the_ring() {
        let g = diamond();
        let cache = SteinerCache::bounded(2);
        let build = |a: usize, b: usize| kmb(&g, &[NodeId(a), NodeId(b)]);
        cache.store(NodeId(0), &[NodeId(1)], build(0, 1));
        cache.store(NodeId(0), &[NodeId(2)], build(0, 2));
        cache.store(NodeId(0), &[NodeId(3)], build(0, 3));
        cache.invalidate();
        assert!(cache.is_empty());
        // Refilling after a flush must work without phantom ring slots.
        cache.store(NodeId(0), &[NodeId(1)], build(0, 1));
        cache.store(NodeId(0), &[NodeId(2)], build(0, 2));
        cache.store(NodeId(0), &[NodeId(3)], build(0, 3));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn epoch_observation_implies_the_flush_is_visible() {
        // Loom-style interleaving probe for the Release/Acquire pairing on
        // the epoch counter: an entry is stored *before* a concurrent
        // invalidate, and nothing ever re-stores it. Any reader that
        // samples the epoch first and sees the bump must then miss on
        // lookup — observing the new epoch while still hitting a
        // pre-flush entry is exactly the stale pairing the ordering
        // forbids. Repeated spawns probe many interleavings; with the
        // orderings reverted to `Relaxed` this assertion is the one a
        // weakly-ordered machine may violate.
        for _ in 0..300 {
            let cache = SteinerCache::new();
            cache.store(NodeId(0), &[NodeId(1)], None);
            std::thread::scope(|s| {
                s.spawn(|| cache.invalidate());
                s.spawn(|| loop {
                    let epoch = cache.epoch(); // Acquire, before the probe
                    let hit = cache.lookup(NodeId(0), &[NodeId(1)]);
                    if epoch >= 1 {
                        assert!(
                            hit.is_none(),
                            "epoch {epoch} observed but a pre-flush entry survived"
                        );
                        break;
                    }
                });
            });
        }
    }

    #[test]
    fn shared_across_threads() {
        let g = diamond();
        let cache = SteinerCache::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10 {
                        let t = cache
                            .get_or_insert_with(NodeId(0), &[NodeId(3)], || {
                                kmb(&g, &[NodeId(0), NodeId(3)])
                            })
                            .unwrap();
                        assert!((t.cost - 2.0).abs() < 1e-12);
                    }
                });
            }
        });
        assert_eq!(cache.hits() + cache.misses(), 40);
        assert_eq!(cache.len(), 1);
    }
}
