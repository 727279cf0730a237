//! # argus-vdb — vector database substrate
//!
//! Approximate caching indexes every processed prompt's embedding in a
//! vector database (Qdrant in the paper, §4.7) and retrieves the nearest
//! cached prompt by cosine similarity to decide which intermediate noise
//! state to reuse. This crate is that database:
//!
//! * [`FlatIndex`] — exact brute-force cosine k-NN with an optional FIFO
//!   capacity limit (the cache does not grow without bound); top-k uses
//!   partial selection, so a query costs one scan plus `O(n)` selection
//!   rather than a full sort, and the single best match is a running
//!   maximum over the scan;
//! * [`LshIndex`] — hyperplane locality-sensitive hashing with multi-probe
//!   search and the same optional FIFO capacity limit, trading a little
//!   recall for sub-linear scan cost;
//! * [`SharedIndex`] — a thread-safe wrapper over any [`VectorIndex`],
//!   since all GPU workers share one VDB instance in the paper's
//!   deployment;
//! * [`shard`] — the sharded retrieval plane for fleet-scale deployments:
//!   [`ShardRouter`] routes embeddings to one of `N` worker-attached
//!   shards and [`ShardedIndex`] replicates each shard `R` ways so a
//!   worker failure degrades hit-rate instead of losing the cache.
//!
//! # Example
//!
//! ```
//! use argus_vdb::FlatIndex;
//! use argus_embed::embed;
//!
//! let mut index = FlatIndex::new();
//! index.insert(embed("a red apple on a table"), 1u32);
//! index.insert(embed("a portrait of an old fisherman"), 2u32);
//! let hits = index.search(&embed("a shiny red apple on a wooden table"), 1);
//! assert_eq!(hits[0].payload, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use argus_embed::{cosine, for_each_cosine, for_each_dot, Embedding, DIM};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

pub mod shard;

pub use shard::{ShardRouter, ShardedIndex};

/// One k-NN search result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit<P> {
    /// Cosine similarity to the query, in `[-1, 1]`.
    pub similarity: f32,
    /// The payload stored with the matched embedding.
    pub payload: P,
}

/// Common interface of the vector indexes, so [`SharedIndex`] (and any
/// deployment-level plumbing) can wrap either the exact or the
/// approximate backend.
pub trait VectorIndex<P> {
    /// Inserts an embedding with its payload, returning the payload
    /// evicted by a capacity limit, if any.
    fn insert(&mut self, embedding: Embedding, payload: P) -> Option<P>;

    /// Returns up to `k` nearest entries, best first, deterministically.
    fn search(&self, query: &Embedding, k: usize) -> Vec<SearchHit<P>>
    where
        P: Clone;

    /// Number of stored embeddings.
    fn len(&self) -> usize;

    /// Removes and returns every entry matching `pred`, oldest first; the
    /// survivors keep their FIFO age order. [`shard::ShardedIndex`]'s
    /// recovery anti-entropy pass re-homes entries through it.
    fn extract_if(&mut self, pred: &mut dyn FnMut(&Embedding, &P) -> bool) -> Vec<(Embedding, P)>;

    /// Replaces the capacity limit, evicting the oldest entries beyond the
    /// new cap (FIFO) and returning their payloads.
    fn set_capacity(&mut self, capacity: usize) -> Vec<P>;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The single best match, if the index is non-empty: the first hit
    /// `search(query, 1)` returns.
    fn nearest(&self, query: &Embedding) -> Option<SearchHit<P>>
    where
        P: Clone;
}

/// Generates `n` fixed pseudo-random hyperplanes from a seeded SplitMix64
/// stream — the shared projection substrate of [`LshIndex`] buckets and
/// [`shard::ShardRouter`] cells (each caller salts the seed differently).
pub(crate) fn seeded_planes(n: usize, seed: u64) -> Vec<[f32; DIM]> {
    let mut planes = Vec::with_capacity(n);
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for _ in 0..n {
        let mut plane = [0.0f32; DIM];
        for x in plane.iter_mut() {
            *x = (next() >> 11) as f32 / (1u64 << 53) as f32 * 2.0 - 1.0;
        }
        planes.push(plane);
    }
    planes
}

/// The sign-pattern key of `e` against `planes`: bit `b` is set where
/// the projection on plane `b` is non-negative. `on_dot` sees each
/// projection in plane order. This is the hashing step shared by
/// [`LshIndex`] buckets and [`shard::ShardRouter`] cells.
pub(crate) fn sign_key(planes: &[[f32; DIM]], e: &Embedding, mut on_dot: impl FnMut(f32)) -> u64 {
    let mut key = 0u64;
    for_each_dot(e.as_array(), planes, |b, dot| {
        if dot >= 0.0 {
            key |= 1 << b;
        }
        on_dot(dot);
    });
    key
}

/// Orders scored candidates best-first: similarity descending, then older
/// (lower insertion rank) first — the deterministic tie-break every index
/// guarantees.
fn by_rank(a: &(f32, usize), b: &(f32, usize)) -> std::cmp::Ordering {
    b.0.partial_cmp(&a.0)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.1.cmp(&b.1))
}

/// Selects the `k` best candidates under `cmp` in place and sorts only
/// those: `O(n)` selection plus `O(k log k)` ordering instead of a full
/// `O(n log n)` sort.
fn top_k_by<T>(
    scored: &mut Vec<T>,
    k: usize,
    cmp: impl Fn(&T, &T) -> std::cmp::Ordering + Copy,
) -> &[T] {
    if k < scored.len() {
        scored.select_nth_unstable_by(k, cmp);
        scored.truncate(k);
    }
    scored.sort_unstable_by(cmp);
    scored
}

/// Exact brute-force cosine index.
///
/// With a capacity limit set, the oldest entries are evicted FIFO once the
/// limit is reached — modelling bounded cache storage.
#[derive(Debug, Clone)]
pub struct FlatIndex<P> {
    entries: std::collections::VecDeque<(Embedding, P)>,
    capacity: Option<usize>,
}

impl<P> Default for FlatIndex<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> FlatIndex<P> {
    /// Creates an unbounded index.
    pub fn new() -> Self {
        FlatIndex {
            entries: std::collections::VecDeque::new(),
            capacity: None,
        }
    }

    /// Creates an index that keeps at most `capacity` newest entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_capacity_limit(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity limit must be positive");
        FlatIndex {
            entries: std::collections::VecDeque::with_capacity(capacity),
            capacity: Some(capacity),
        }
    }

    /// Number of stored embeddings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts an embedding with its payload, evicting the oldest entry if
    /// at capacity. Returns the evicted payload, if any.
    pub fn insert(&mut self, embedding: Embedding, payload: P) -> Option<P> {
        let evicted = match self.capacity {
            Some(cap) if self.entries.len() >= cap => self.entries.pop_front().map(|(_, p)| p),
            _ => None,
        };
        self.entries.push_back((embedding, payload));
        evicted
    }

    /// Returns up to `k` nearest entries by cosine similarity, best first.
    /// Ties break toward older entries (deterministic). Only the `k`
    /// winners are sorted; the rest of the scan is partial selection.
    pub fn search(&self, query: &Embedding, k: usize) -> Vec<SearchHit<P>>
    where
        P: Clone,
    {
        let mut scored: Vec<(f32, usize)> = Vec::with_capacity(self.entries.len());
        for_each_cosine(query, self.entries.iter().map(|(e, _)| e), |i, sim| {
            scored.push((sim, i));
        });
        top_k_by(&mut scored, k, by_rank)
            .iter()
            .map(|&(similarity, i)| SearchHit {
                similarity,
                payload: self.entries[i].1.clone(),
            })
            .collect()
    }

    /// The single best match, if the index is non-empty: `search(query,
    /// 1)` without allocating. The same scan keeps a running maximum in
    /// age order, and its strict `>` leaves a tie with the older entry,
    /// as `search` orders it.
    pub fn nearest(&self, query: &Embedding) -> Option<SearchHit<P>>
    where
        P: Clone,
    {
        let mut best: Option<(f32, usize)> = None;
        for_each_cosine(query, self.entries.iter().map(|(e, _)| e), |i, sim| {
            if best.is_none_or(|(best_sim, _)| sim > best_sim) {
                best = Some((sim, i));
            }
        });
        best.map(|(similarity, i)| SearchHit {
            similarity,
            payload: self.entries[i].1.clone(),
        })
    }

    /// Removes and returns every entry matching `pred`, oldest first; the
    /// survivors keep their FIFO age order.
    pub fn extract_if(
        &mut self,
        mut pred: impl FnMut(&Embedding, &P) -> bool,
    ) -> Vec<(Embedding, P)> {
        let mut out = Vec::new();
        let mut kept = std::collections::VecDeque::with_capacity(self.entries.len());
        for (e, p) in self.entries.drain(..) {
            if pred(&e, &p) {
                out.push((e, p));
            } else {
                kept.push_back((e, p));
            }
        }
        self.entries = kept;
        out
    }

    /// Replaces the capacity limit, evicting the oldest entries beyond the
    /// new cap (FIFO) and returning their payloads.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn set_capacity(&mut self, capacity: usize) -> Vec<P> {
        assert!(capacity > 0, "capacity limit must be positive");
        let mut evicted = Vec::new();
        while self.entries.len() > capacity {
            evicted.push(self.entries.pop_front().expect("len checked").1);
        }
        self.capacity = Some(capacity);
        evicted
    }
}

impl<P> VectorIndex<P> for FlatIndex<P> {
    fn insert(&mut self, embedding: Embedding, payload: P) -> Option<P> {
        FlatIndex::insert(self, embedding, payload)
    }

    fn search(&self, query: &Embedding, k: usize) -> Vec<SearchHit<P>>
    where
        P: Clone,
    {
        FlatIndex::search(self, query, k)
    }

    fn len(&self) -> usize {
        FlatIndex::len(self)
    }

    fn extract_if(&mut self, pred: &mut dyn FnMut(&Embedding, &P) -> bool) -> Vec<(Embedding, P)> {
        FlatIndex::extract_if(self, pred)
    }

    fn set_capacity(&mut self, capacity: usize) -> Vec<P> {
        FlatIndex::set_capacity(self, capacity)
    }

    fn nearest(&self, query: &Embedding) -> Option<SearchHit<P>>
    where
        P: Clone,
    {
        FlatIndex::nearest(self, query)
    }
}

/// One live LSH entry.
#[derive(Debug, Clone)]
struct LshEntry<P> {
    embedding: Embedding,
    payload: P,
    /// The bucket the entry hashed to (kept so eviction need not re-hash).
    bucket: u64,
    /// Monotone insertion sequence — the deterministic age tie-break.
    seq: u64,
}

/// Hyperplane-LSH index with multi-probe search.
///
/// Embeddings hash to a bucket by the sign pattern of `bits` fixed random
/// hyperplane projections; search probes the query's bucket and all buckets
/// at Hamming distance 1, then ranks candidates by exact cosine. An
/// optional FIFO capacity limit mirrors [`FlatIndex`]'s bounded-storage
/// behaviour.
#[derive(Debug, Clone)]
pub struct LshIndex<P> {
    planes: Vec<[f32; DIM]>,
    buckets: std::collections::HashMap<u64, Vec<usize>>,
    entries: Vec<Option<LshEntry<P>>>,
    /// Live slots in insertion order (front = oldest).
    fifo: std::collections::VecDeque<usize>,
    /// Recycled slots.
    free: Vec<usize>,
    capacity: Option<usize>,
    next_seq: u64,
}

impl<P> LshIndex<P> {
    /// Creates an unbounded index with `bits` hyperplanes (4–20 is
    /// sensible).
    ///
    /// # Panics
    /// Panics unless `1 <= bits <= 24`.
    pub fn new(bits: usize, seed: u64) -> Self {
        assert!((1..=24).contains(&bits), "bits must be in 1..=24");
        LshIndex {
            planes: seeded_planes(bits, seed ^ 0x006c_7368_5f76_6462), // "lsh_vdb"
            buckets: std::collections::HashMap::new(),
            entries: Vec::new(),
            fifo: std::collections::VecDeque::new(),
            free: Vec::new(),
            capacity: None,
            next_seq: 0,
        }
    }

    /// Creates an index that keeps at most `capacity` newest entries,
    /// evicting FIFO like [`FlatIndex::with_capacity_limit`].
    ///
    /// # Panics
    /// Panics unless `1 <= bits <= 24` and `capacity > 0`.
    pub fn with_capacity_limit(bits: usize, seed: u64, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity limit must be positive");
        let mut idx = Self::new(bits, seed);
        idx.capacity = Some(capacity);
        idx
    }

    fn bucket_of(&self, e: &Embedding) -> u64 {
        sign_key(&self.planes, e, |_| {})
    }

    /// Number of stored embeddings.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Evicts the oldest live entry, unlinking it from its bucket and
    /// recycling its slot.
    fn evict_oldest(&mut self) -> Option<P> {
        let slot = self.fifo.pop_front()?;
        let entry = self.entries[slot].take().expect("fifo slots are live");
        if let Some(b) = self.buckets.get_mut(&entry.bucket) {
            b.retain(|&i| i != slot);
        }
        self.free.push(slot);
        Some(entry.payload)
    }

    /// Inserts an embedding with its payload, evicting the oldest entry if
    /// at capacity. Returns the evicted payload, if any.
    pub fn insert(&mut self, embedding: Embedding, payload: P) -> Option<P> {
        let evicted = match self.capacity {
            Some(cap) if self.fifo.len() >= cap => self.evict_oldest(),
            _ => None,
        };
        let bucket = self.bucket_of(&embedding);
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = LshEntry {
            embedding,
            payload,
            bucket,
            seq,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.entries[s] = Some(entry);
                s
            }
            None => {
                self.entries.push(Some(entry));
                self.entries.len() - 1
            }
        };
        self.buckets.entry(bucket).or_default().push(slot);
        self.fifo.push_back(slot);
        evicted
    }

    /// Multi-probe k-NN: scans the query bucket and its Hamming-1
    /// neighbours, ranking candidates by exact cosine similarity (older
    /// entries win ties). Only the `k` winners are sorted.
    pub fn search(&self, query: &Embedding, k: usize) -> Vec<SearchHit<P>>
    where
        P: Clone,
    {
        let key = self.bucket_of(query);
        let mut candidates: Vec<usize> = Vec::new();
        if let Some(b) = self.buckets.get(&key) {
            candidates.extend_from_slice(b);
        }
        for bit in 0..self.planes.len() {
            if let Some(b) = self.buckets.get(&(key ^ (1 << bit))) {
                candidates.extend_from_slice(b);
            }
        }
        let mut scored: Vec<(f32, u64, usize)> = candidates
            .into_iter()
            .map(|i| {
                let e = self.entries[i].as_ref().expect("buckets hold live slots");
                (cosine(query, &e.embedding), e.seq, i)
            })
            .collect();
        let cmp = |a: &(f32, u64, usize), b: &(f32, u64, usize)| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        };
        top_k_by(&mut scored, k, cmp)
            .iter()
            .map(|&(similarity, _, i)| SearchHit {
                similarity,
                payload: self.entries[i]
                    .as_ref()
                    .expect("buckets hold live slots")
                    .payload
                    .clone(),
            })
            .collect()
    }

    /// Alloc-free single-best search: the same candidate set (query bucket
    /// plus Hamming-1 neighbours) and the same similarity-descending,
    /// older-wins order as `search(query, 1)`, tracked as a running
    /// maximum instead of materializing and sorting candidate vectors —
    /// `nearest` is the cache plane's per-lookup hot path.
    pub fn nearest(&self, query: &Embedding) -> Option<SearchHit<P>>
    where
        P: Clone,
    {
        let key = self.bucket_of(query);
        let mut best: Option<(f32, u64, usize)> = None;
        let mut consider = |slot: usize| {
            let e = self.entries[slot]
                .as_ref()
                .expect("buckets hold live slots");
            let sim = cosine(query, &e.embedding);
            let better = match best {
                None => true,
                Some((best_sim, best_seq, _)) => {
                    sim > best_sim || (sim == best_sim && e.seq < best_seq)
                }
            };
            if better {
                best = Some((sim, e.seq, slot));
            }
        };
        if let Some(b) = self.buckets.get(&key) {
            b.iter().copied().for_each(&mut consider);
        }
        for bit in 0..self.planes.len() {
            if let Some(b) = self.buckets.get(&(key ^ (1 << bit))) {
                b.iter().copied().for_each(&mut consider);
            }
        }
        best.map(|(similarity, _, slot)| SearchHit {
            similarity,
            payload: self.entries[slot]
                .as_ref()
                .expect("buckets hold live slots")
                .payload
                .clone(),
        })
    }

    /// Removes and returns every entry matching `pred`, oldest first; the
    /// survivors keep their FIFO age order.
    pub fn extract_if(
        &mut self,
        mut pred: impl FnMut(&Embedding, &P) -> bool,
    ) -> Vec<(Embedding, P)> {
        let mut out = Vec::new();
        let mut kept = std::collections::VecDeque::with_capacity(self.fifo.len());
        for slot in std::mem::take(&mut self.fifo) {
            let matches = {
                let e = self.entries[slot].as_ref().expect("fifo slots are live");
                pred(&e.embedding, &e.payload)
            };
            if matches {
                let entry = self.entries[slot].take().expect("fifo slots are live");
                if let Some(b) = self.buckets.get_mut(&entry.bucket) {
                    b.retain(|&i| i != slot);
                }
                self.free.push(slot);
                out.push((entry.embedding, entry.payload));
            } else {
                kept.push_back(slot);
            }
        }
        self.fifo = kept;
        out
    }

    /// Replaces the capacity limit, evicting the oldest entries beyond the
    /// new cap (FIFO) and returning their payloads.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn set_capacity(&mut self, capacity: usize) -> Vec<P> {
        assert!(capacity > 0, "capacity limit must be positive");
        let mut evicted = Vec::new();
        while self.fifo.len() > capacity {
            evicted.push(self.evict_oldest().expect("len checked"));
        }
        self.capacity = Some(capacity);
        evicted
    }
}

impl<P> VectorIndex<P> for LshIndex<P> {
    fn insert(&mut self, embedding: Embedding, payload: P) -> Option<P> {
        LshIndex::insert(self, embedding, payload)
    }

    fn search(&self, query: &Embedding, k: usize) -> Vec<SearchHit<P>>
    where
        P: Clone,
    {
        LshIndex::search(self, query, k)
    }

    fn len(&self) -> usize {
        LshIndex::len(self)
    }

    fn extract_if(&mut self, pred: &mut dyn FnMut(&Embedding, &P) -> bool) -> Vec<(Embedding, P)> {
        LshIndex::extract_if(self, pred)
    }

    fn set_capacity(&mut self, capacity: usize) -> Vec<P> {
        LshIndex::set_capacity(self, capacity)
    }

    fn nearest(&self, query: &Embedding) -> Option<SearchHit<P>>
    where
        P: Clone,
    {
        LshIndex::nearest(self, query)
    }
}

/// A thread-safe index shared by all workers, mirroring the single Qdrant
/// instance of the paper's testbed. Wraps any [`VectorIndex`] backend; the
/// default is the exact [`FlatIndex`], and large deployments use
/// `SharedIndex<P, LshIndex<P>>` (§4.7).
#[derive(Debug)]
pub struct SharedIndex<P, I = FlatIndex<P>> {
    inner: RwLock<I>,
    _payload: std::marker::PhantomData<fn() -> P>,
}

impl<P, I: Default> Default for SharedIndex<P, I> {
    fn default() -> Self {
        Self::from_index(I::default())
    }
}

impl<P, I> SharedIndex<P, I> {
    /// Wraps an existing index.
    pub fn from_index(index: I) -> Self {
        SharedIndex {
            inner: RwLock::new(index),
            _payload: std::marker::PhantomData,
        }
    }

    /// A shared read guard. The lock does not poison: a holder that
    /// panicked has already failed the run it served, so the guard is
    /// recovered instead of re-raising that panic in every other caller.
    fn read(&self) -> RwLockReadGuard<'_, I> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// An exclusive write guard, recovered from poisoning like
    /// [`Self::read`].
    fn write(&self) -> RwLockWriteGuard<'_, I> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<P> SharedIndex<P, FlatIndex<P>> {
    /// Creates an empty shared flat index.
    pub fn new() -> Self {
        Self::from_index(FlatIndex::new())
    }

    /// Creates a shared flat index with a FIFO capacity limit.
    pub fn with_capacity_limit(capacity: usize) -> Self {
        Self::from_index(FlatIndex::with_capacity_limit(capacity))
    }
}

impl<P, I: VectorIndex<P>> SharedIndex<P, I> {
    /// Inserts under a write lock.
    pub fn insert(&self, embedding: Embedding, payload: P) -> Option<P> {
        self.write().insert(embedding, payload)
    }

    /// Searches under a read lock.
    pub fn search(&self, query: &Embedding, k: usize) -> Vec<SearchHit<P>>
    where
        P: Clone,
    {
        self.read().search(query, k)
    }

    /// The single best match.
    pub fn nearest(&self, query: &Embedding) -> Option<SearchHit<P>>
    where
        P: Clone,
    {
        self.read().nearest(query)
    }

    /// Number of stored embeddings.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_embed::embed;
    use argus_prompts::PromptGenerator;

    #[test]
    fn empty_index_behaviour() {
        let idx: FlatIndex<u32> = FlatIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        assert!(idx.search(&embed("anything"), 3).is_empty());
        assert!(idx.nearest(&embed("anything")).is_none());
    }

    #[test]
    fn exact_match_ranks_first() {
        let mut idx = FlatIndex::new();
        idx.insert(embed("a bear in a snowy forest"), "bear");
        idx.insert(embed("a lighthouse on a cliff at sunrise"), "lighthouse");
        idx.insert(embed("neon alley at night in heavy rain"), "alley");
        let hits = idx.search(&embed("a bear in a snowy forest"), 2);
        assert_eq!(hits[0].payload, "bear");
        assert!((hits[0].similarity - 1.0).abs() < 1e-5);
        assert!(hits[0].similarity >= hits[1].similarity);
    }

    #[test]
    fn k_larger_than_len_returns_all() {
        let mut idx = FlatIndex::new();
        idx.insert(embed("one"), 1);
        idx.insert(embed("two"), 2);
        assert_eq!(idx.search(&embed("one"), 10).len(), 2);
    }

    #[test]
    fn capacity_limit_evicts_fifo() {
        let mut idx = FlatIndex::with_capacity_limit(2);
        assert_eq!(idx.insert(embed("first"), 1), None);
        assert_eq!(idx.insert(embed("second"), 2), None);
        assert_eq!(idx.insert(embed("third"), 3), Some(1));
        assert_eq!(idx.len(), 2);
        // "first" is gone: searching for it finds something else.
        let best = idx.nearest(&embed("first")).unwrap();
        assert_ne!(best.payload, 1);
    }

    #[test]
    #[should_panic(expected = "capacity limit must be positive")]
    fn zero_capacity_rejected() {
        let _ = FlatIndex::<u8>::with_capacity_limit(0);
    }

    #[test]
    fn lsh_finds_exact_duplicates() {
        let mut idx = LshIndex::new(10, 7);
        let mut generator = PromptGenerator::new(5);
        let prompts = generator.generate_batch(300);
        for (i, p) in prompts.iter().enumerate() {
            idx.insert(embed(&p.text), i);
        }
        assert_eq!(idx.len(), 300);
        let mut found = 0;
        for (i, p) in prompts.iter().enumerate().take(100) {
            let hits = idx.search(&embed(&p.text), 1);
            if hits.first().map(|h| h.payload) == Some(i) {
                found += 1;
            }
        }
        // Exact duplicates hash to the same bucket: recall must be perfect.
        assert_eq!(found, 100);
    }

    #[test]
    fn lsh_recall_against_flat_ground_truth() {
        let mut flat = FlatIndex::new();
        let mut lsh = LshIndex::new(6, 3);
        let prompts = PromptGenerator::new(6).generate_batch(500);
        for (i, p) in prompts.iter().enumerate() {
            let e = embed(&p.text);
            flat.insert(e.clone(), i);
            lsh.insert(e, i);
        }
        let queries = PromptGenerator::new(7).generate_batch(100);
        let mut agree = 0;
        for q in &queries {
            let e = embed(&q.text);
            let truth = flat.nearest(&e).unwrap();
            if let Some(hit) = lsh.search(&e, 1).first() {
                if hit.payload == truth.payload || hit.similarity >= truth.similarity - 0.05 {
                    agree += 1;
                }
            }
        }
        // Multi-probe LSH recall: at least 75% near-ground-truth.
        assert!(agree >= 75, "recall {agree}/100");
    }

    #[test]
    #[should_panic(expected = "bits must be in")]
    fn lsh_rejects_excessive_bits() {
        let _ = LshIndex::<u8>::new(32, 0);
    }

    #[test]
    fn shared_index_is_concurrent() {
        use std::sync::Arc;
        let idx = Arc::new(SharedIndex::with_capacity_limit(1000));
        let mut handles = Vec::new();
        for t in 0..4 {
            let idx = Arc::clone(&idx);
            // lint: allow(stray-thread) — concurrency smoke test; the
            // assertions below are insertion-order-insensitive.
            handles.push(std::thread::spawn(move || {
                let prompts = PromptGenerator::new(100 + t).generate_batch(50);
                for (i, p) in prompts.iter().enumerate() {
                    idx.insert(embed(&p.text), (t, i));
                    let _ = idx.search(&embed(&p.text), 3);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(idx.len(), 200);
        assert!(!idx.is_empty());
        assert!(idx.nearest(&embed("a bear")).is_some());
    }

    #[test]
    fn deterministic_tie_break_prefers_older() {
        let mut idx = FlatIndex::new();
        idx.insert(embed("same text"), "old");
        idx.insert(embed("same text"), "new");
        assert_eq!(idx.nearest(&embed("same text")).unwrap().payload, "old");
    }

    #[test]
    fn partial_selection_matches_full_sort() {
        // The top-k selection path must return exactly what a full sort
        // would, including tie order, for every k.
        let mut idx = FlatIndex::new();
        let prompts = PromptGenerator::new(11).generate_batch(200);
        for (i, p) in prompts.iter().enumerate() {
            idx.insert(embed(&p.text), i);
        }
        let query = embed("a painting of a castle by a river");
        let mut reference: Vec<(f32, usize)> = prompts
            .iter()
            .enumerate()
            .map(|(i, p)| (argus_embed::cosine(&query, &embed(&p.text)), i))
            .collect();
        reference.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        for k in [0, 1, 3, 17, 199, 200, 500] {
            let hits = idx.search(&query, k);
            assert_eq!(hits.len(), k.min(200));
            for (hit, want) in hits.iter().zip(&reference) {
                assert_eq!(hit.payload, want.1, "k={k}");
                assert_eq!(hit.similarity, want.0, "k={k}");
            }
        }
    }

    /// Asserts two search answers are the same hit, down to the bits of
    /// the similarity.
    fn assert_same_hit<P: PartialEq + std::fmt::Debug>(
        got: Option<SearchHit<P>>,
        want: Option<SearchHit<P>>,
        label: &str,
    ) {
        match (got, want) {
            (Some(g), Some(w)) => {
                assert_eq!(g.payload, w.payload, "{label}");
                assert_eq!(g.similarity.to_bits(), w.similarity.to_bits(), "{label}");
            }
            (got, want) => assert_eq!(got, want, "{label}"),
        }
    }

    /// `FlatIndex::nearest`, inherent and through the trait, against the
    /// first hit of `search(q, 1)` for every query.
    fn assert_flat_nearest_is_search_1(idx: &FlatIndex<usize>, queries: &[Embedding]) {
        for (n, q) in queries.iter().enumerate() {
            let want = || idx.search(q, 1).into_iter().next();
            assert_same_hit(idx.nearest(q), want(), &format!("query {n}"));
            assert_same_hit(
                VectorIndex::nearest(idx, q),
                want(),
                &format!("trait, query {n}"),
            );
        }
    }

    fn embeddings(seed: u64, n: usize) -> Vec<Embedding> {
        PromptGenerator::new(seed)
            .generate_batch(n)
            .iter()
            .map(|p| embed(&p.text))
            .collect()
    }

    #[test]
    fn flat_nearest_is_search_1_on_a_random_corpus() {
        let mut idx = FlatIndex::new();
        for (i, e) in embeddings(41, 300).into_iter().enumerate() {
            idx.insert(e, i);
        }
        assert_flat_nearest_is_search_1(&idx, &embeddings(42, 200));
    }

    #[test]
    fn flat_nearest_is_search_1_with_duplicates() {
        // Every text three times: exact-duplicate queries tie at the same
        // similarity three ways, and the oldest copy must win.
        let corpus = embeddings(43, 40);
        let mut idx = FlatIndex::new();
        for round in 0..3 {
            for (i, e) in corpus.iter().enumerate() {
                idx.insert(e.clone(), round * 100 + i);
            }
        }
        assert_flat_nearest_is_search_1(&idx, &corpus);
        assert_eq!(idx.nearest(&corpus[7]).unwrap().payload, 7);
    }

    #[test]
    fn flat_nearest_is_search_1_after_fifo_eviction_wraps() {
        // 250 inserts through a 96-entry FIFO: the deque's head has
        // wrapped around its buffer, so age order is no longer storage
        // order.
        let mut idx = FlatIndex::with_capacity_limit(96);
        let corpus = embeddings(44, 250);
        for (i, e) in corpus.iter().enumerate() {
            idx.insert(e.clone(), i);
        }
        assert_eq!(idx.len(), 96);
        let mut queries = embeddings(45, 100);
        queries.extend(corpus[140..].iter().cloned());
        assert_flat_nearest_is_search_1(&idx, &queries);
    }

    #[test]
    fn flat_nearest_on_the_zero_query_returns_the_oldest_entry() {
        // Every candidate scores exactly 0.0 against the zero query.
        let mut idx = FlatIndex::with_capacity_limit(64);
        for (i, e) in embeddings(46, 100).into_iter().enumerate() {
            idx.insert(e, i);
        }
        let zero = embed("");
        assert_flat_nearest_is_search_1(&idx, std::slice::from_ref(&zero));
        let hit = idx.nearest(&zero).unwrap();
        assert_eq!(
            hit.payload, 36,
            "the oldest survivor of 100 inserts into 64 slots"
        );
        assert_eq!(hit.similarity.to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn bucket_of_matches_the_sequential_projection() {
        /// `bucket_of` as it was written before the shared dot kernel.
        fn reference_bucket(planes: &[[f32; DIM]], e: &Embedding) -> u64 {
            let mut key = 0u64;
            for (b, plane) in planes.iter().enumerate() {
                let dot: f32 = e
                    .as_slice()
                    .iter()
                    .zip(plane.iter())
                    .map(|(x, y)| x * y)
                    .sum();
                if dot >= 0.0 {
                    key |= 1 << b;
                }
            }
            key
        }
        let mut queries = embeddings(47, 300);
        queries.push(embed(""));
        // Plane counts below, at and across whole kernel passes.
        for bits in [1, 6, 8, 9, 17, 24] {
            let idx = LshIndex::<u8>::new(bits, 5);
            for q in &queries {
                assert_eq!(
                    idx.bucket_of(q),
                    reference_bucket(&idx.planes, q),
                    "bits {bits}"
                );
            }
        }
    }

    #[test]
    fn lsh_capacity_limit_evicts_fifo() {
        let mut idx = LshIndex::with_capacity_limit(8, 3, 2);
        assert_eq!(idx.insert(embed("first"), 1), None);
        assert_eq!(idx.insert(embed("second"), 2), None);
        assert_eq!(idx.insert(embed("third"), 3), Some(1));
        assert_eq!(idx.insert(embed("fourth"), 4), Some(2));
        assert_eq!(idx.len(), 2);
        // The evicted entries are unreachable through any probe.
        for q in ["first", "second"] {
            let hits = idx.search(&embed(q), 4);
            assert!(hits.iter().all(|h| h.payload > 2), "{q}: {hits:?}");
        }
        // Survivors stay findable.
        assert_eq!(idx.search(&embed("third"), 1)[0].payload, 3);
    }

    #[test]
    #[should_panic(expected = "capacity limit must be positive")]
    fn lsh_zero_capacity_rejected() {
        let _ = LshIndex::<u8>::with_capacity_limit(8, 0, 0);
    }

    #[test]
    fn lsh_tie_break_survives_slot_reuse() {
        // After eviction recycles slots, age ties must still resolve by
        // insertion order, not slot index.
        let mut idx = LshIndex::with_capacity_limit(6, 1, 3);
        idx.insert(embed("same text"), "a");
        idx.insert(embed("other text"), "b");
        idx.insert(embed("same text"), "c");
        idx.insert(embed("same text"), "d"); // evicts "a", reuses its slot
        let hits = idx.search(&embed("same text"), 3);
        assert_eq!(hits[0].payload, "c", "{hits:?}"); // older than "d"
    }

    #[test]
    fn shared_lsh_index_works() {
        use std::sync::Arc;
        let idx: Arc<SharedIndex<usize, LshIndex<usize>>> = Arc::new(SharedIndex::from_index(
            LshIndex::with_capacity_limit(10, 7, 1000),
        ));
        let mut handles = Vec::new();
        for t in 0..4usize {
            let idx = Arc::clone(&idx);
            // lint: allow(stray-thread) — concurrency smoke test; the
            // assertions below are insertion-order-insensitive.
            handles.push(std::thread::spawn(move || {
                let prompts = PromptGenerator::new(200 + t as u64).generate_batch(50);
                for (i, p) in prompts.iter().enumerate() {
                    idx.insert(embed(&p.text), t * 100 + i);
                    let _ = idx.nearest(&embed(&p.text));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(idx.len(), 200);
        assert!(idx.nearest(&embed("a bear")).is_some());
    }
}
