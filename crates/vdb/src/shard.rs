//! Sharded retrieval plane: the vector index partitioned across
//! worker-attached shards.
//!
//! The monolithic [`SharedIndex`](crate::SharedIndex) mirrors the paper's
//! single Qdrant instance (§4.7). At fleet scale (64–128 workers) one
//! index is both the scalability and the fault-domain bottleneck, so this
//! module distributes it:
//!
//! * [`ShardRouter`] — deterministic, locality-preserving embedding-hash
//!   routing: the sign pattern of `⌈log₂ N⌉ + 3` fixed hyperplane projections
//!   maps an embedding to one of `N` shards, so near-duplicate prompts
//!   land on the same shard with high probability and a lookup probes at
//!   most four shards (the primary plus the flips of the two
//!   boundary-nearest planes) instead of the whole corpus;
//! * [`ShardedIndex`] — `N` shards × `R` replicas of any
//!   [`VectorIndex`] backend, each replica with its own capacity cap.
//!   Inserts go to every live replica of the routed shard; lookups are
//!   served by the fullest live replica (deterministic tie-break). When a
//!   replica's host dies its copy is lost and the surviving replicas take
//!   over. A shard with no live replica re-routes *inserts* to the next
//!   live shard on the ring (new entries must land somewhere durable),
//!   while *lookups* simply skip it — queries whose probe set is entirely
//!   down become cache misses: degraded hit-rate, never a crash. When a
//!   fully-dark shard recovers, an anti-entropy pass re-homes the
//!   ring-rerouted entries (they route to the recovered shard, so left in
//!   foster shards they would sit outside every lookup's probe set
//!   forever). With [`ShardedIndex::with_capacity_rebalance`] the
//!   per-shard capacity caps additionally follow observed routing load
//!   instead of a flat `⌈C/N⌉` split, so skewed traffic stops evicting
//!   hot shards while cold shards sit half empty.
//!
//! Which physical host carries which replica (and therefore what a lookup
//! costs) is deliberately *not* modelled here: that is the cache-plane
//! controller's job (`argus_core::cacheplane`), which maps replica slots
//! to cluster workers and charges local-vs-remote retrieval latency
//! through the `argus-cachestore` network model.

use std::fmt;

use argus_embed::{Embedding, DIM};

use crate::{SearchHit, VectorIndex};

/// Deterministic locality-preserving router from embeddings to shard ids.
///
/// A multi-probe LSH router: `⌈log₂ N⌉ + 3` fixed hyperplane projections
/// (seeded, SplitMix64-expanded exactly like [`crate::LshIndex`]) cut the
/// embedding space into fine sign-pattern cells, and each cell maps to a
/// shard by a mixing hash of its key. The extra planes matter: real
/// prompt streams concentrate in a few coarse half-space cells, so a
/// `log₂ N`-bit key would pile a third of the corpus onto one shard —
/// finer cells scatter-hashed over shards keep the load balanced while
/// exact duplicates still land in the same cell, hence the same shard.
///
/// Inserts go to the primary shard ([`ShardRouter::route`]). Lookups
/// multi-probe ([`ShardRouter::probe`]) the classic way: besides the
/// primary cell, flip the two planes whose projections are smallest in
/// magnitude for the query (alone and together) — the cells a true
/// nearest neighbour most plausibly fell into — for at most four shards
/// scanned regardless of `N`. The `s60_sharded_retrieval` guard pins both
/// the recall and the scan-cost side of this trade.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    planes: Vec<[f32; DIM]>,
    shards: usize,
}

/// Extra routing planes beyond `⌈log₂ N⌉`: each one halves the largest
/// cell's mass at no probe cost (probing flips a constant two planes).
const EXTRA_ROUTING_PLANES: usize = 3;

/// SplitMix64 finalizer used to scatter cell keys over shards.
fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ShardRouter {
    /// Creates a router over `shards` shards.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(shards: usize, seed: u64) -> Self {
        assert!(shards > 0, "router needs at least one shard");
        let bits = if shards == 1 {
            0
        } else {
            usize::BITS as usize - (shards - 1).leading_zeros() as usize + EXTRA_ROUTING_PLANES
        };
        ShardRouter {
            planes: crate::seeded_planes(bits, seed ^ 0x0073_6861_7264_7274), // "shardrt"
            shards,
        }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The cell key plus the per-plane projections of `e`.
    fn project(&self, e: &Embedding) -> (u64, Vec<f32>) {
        let mut dots = Vec::with_capacity(self.planes.len());
        let key = crate::sign_key(&self.planes, e, |dot| dots.push(dot));
        (key, dots)
    }

    /// The shard a cell key scatter-hashes to.
    fn shard_of_key(&self, key: u64) -> usize {
        (mix(key) % self.shards as u64) as usize
    }

    /// The shard an embedding routes to (its *primary* shard; fault
    /// fallback is layered on by [`ShardedIndex`]).
    pub fn route(&self, e: &Embedding) -> usize {
        if self.shards == 1 {
            return 0;
        }
        self.shard_of_key(crate::sign_key(&self.planes, e, |_| {}))
    }

    /// The lookup probe set, primary shard first: the query's cell plus
    /// the cells reached by flipping the two planes with the smallest
    /// projection magnitude (each alone, then both), deduplicated — at
    /// most four shards, independent of the plane count.
    pub fn probe(&self, e: &Embedding) -> Vec<usize> {
        if self.shards == 1 {
            return vec![0];
        }
        let (key, dots) = self.project(e);
        // The two most boundary-adjacent planes (deterministic index
        // tie-break).
        let mut order: Vec<usize> = (0..dots.len()).collect();
        order.sort_by(|&a, &b| {
            dots[a]
                .abs()
                .partial_cmp(&dots[b].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let (b0, b1) = (1u64 << order[0], 1u64 << order[1]);
        let mut probes = Vec::with_capacity(4);
        for k in [key, key ^ b0, key ^ b1, key ^ b0 ^ b1] {
            let s = self.shard_of_key(k);
            if !probes.contains(&s) {
                probes.push(s);
            }
        }
        probes
    }
}

/// One replica copy of a shard's index.
struct Replica<I> {
    index: I,
    up: bool,
}

/// The vector index partitioned into `N` shards with `R`-way replication.
///
/// Generic over the per-replica backend (`LshIndex` on the serving path;
/// `FlatIndex` where exact per-shard scans are wanted, e.g. the
/// `s60_sharded_retrieval` scan-cost guard). The `factory` passed at
/// construction builds each replica's empty index — it is also used to
/// rebuild a replica cold after its host fails.
pub struct ShardedIndex<P, I> {
    router: ShardRouter,
    replication: usize,
    shards: Vec<Vec<Replica<I>>>,
    factory: Box<dyn Fn(usize, usize) -> I + Send + Sync>,
    /// Inserts dropped because no shard had a live replica.
    dropped_inserts: u64,
    /// Inserts landed on each shard (ring fallback included) — the
    /// observed routing load that capacity rebalancing follows. Halved at
    /// each rebalance so the split tracks recent traffic.
    route_load: Vec<u64>,
    /// Load-aware capacity rebalancing, `(total_capacity, period)`; `None`
    /// leaves the factory's flat per-shard caps untouched.
    rebalance: Option<(usize, usize)>,
    /// Inserts since the last periodic rebalance.
    since_rebalance: usize,
    /// Entries re-homed by recovery anti-entropy passes.
    migrated_entries: u64,
    _payload: std::marker::PhantomData<fn() -> P>,
}

impl<P, I> fmt::Debug for ShardedIndex<P, I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("shards", &self.router.shards())
            .field("replication", &self.replication)
            .finish()
    }
}

impl<P, I: VectorIndex<P>> ShardedIndex<P, I> {
    /// Creates an `N`-shard, `R`-replica index. `factory(shard, replica)`
    /// builds each replica's empty backend (typically
    /// `LshIndex::with_capacity_limit` with the per-shard cap).
    ///
    /// # Panics
    /// Panics if `shards == 0` or `replication == 0`.
    pub fn new(
        shards: usize,
        replication: usize,
        seed: u64,
        factory: impl Fn(usize, usize) -> I + Send + Sync + 'static,
    ) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(replication > 0, "need at least one replica");
        let built = (0..shards)
            .map(|s| {
                (0..replication)
                    .map(|j| Replica {
                        index: factory(s, j),
                        up: true,
                    })
                    .collect()
            })
            .collect();
        ShardedIndex {
            router: ShardRouter::new(shards, seed),
            replication,
            shards: built,
            factory: Box::new(factory),
            dropped_inserts: 0,
            route_load: vec![0; shards],
            rebalance: None,
            since_rebalance: 0,
            migrated_entries: 0,
            _payload: std::marker::PhantomData,
        }
    }

    /// Enables load-aware capacity rebalancing: every `period` inserts,
    /// the per-shard capacity caps are re-split proportional to observed
    /// routing load ([`ShardedIndex::rebalance_capacity`]). Without this,
    /// replicas keep whatever flat cap the factory built them with — and
    /// under routing skew the hot shards then evict FIFO while cold
    /// shards sit half empty, wasting a large slice of the nominal total
    /// capacity.
    ///
    /// # Panics
    /// Panics if `total_capacity == 0` or `period == 0`.
    pub fn with_capacity_rebalance(mut self, total_capacity: usize, period: usize) -> Self {
        assert!(total_capacity > 0, "rebalance needs a capacity budget");
        assert!(period > 0, "rebalance period must be positive");
        self.rebalance = Some((total_capacity, period));
        self
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.router.shards()
    }

    /// Replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The router (so callers can inspect primary placement).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Live replica count of one shard.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn live_replicas(&self, shard: usize) -> usize {
        self.shards[shard].iter().filter(|r| r.up).count()
    }

    /// Whether one replica slot is currently up (serving and receiving
    /// writes) — the cache-plane controller reads this to attribute
    /// replica-write hops to host workers.
    ///
    /// # Panics
    /// Panics if `shard` or `replica` is out of range.
    pub fn replica_up(&self, shard: usize, replica: usize) -> bool {
        self.shards[shard][replica].up
    }

    /// Shards with at least one live replica.
    pub fn live_shards(&self) -> usize {
        (0..self.shards())
            .filter(|&s| self.live_replicas(s) > 0)
            .count()
    }

    /// Inserts dropped because every shard was down.
    pub fn dropped_inserts(&self) -> u64 {
        self.dropped_inserts
    }

    /// Observed routing load per shard: inserts landed on each shard,
    /// halved at every rebalance so recent traffic dominates.
    pub fn route_load(&self) -> &[u64] {
        &self.route_load
    }

    /// Entries re-homed by recovery anti-entropy passes
    /// ([`ShardedIndex::recover_replica`]).
    pub fn migrated_entries(&self) -> u64 {
        self.migrated_entries
    }

    /// Entries held by the serving replica of each shard (diagnostics).
    pub fn live_replica_counts(&self) -> Vec<usize> {
        (0..self.shards())
            .map(|s| {
                self.serving_replica(s)
                    .map(|j| self.shards[s][j].index.len())
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Logical entry count: the serving replica's length summed over
    /// shards (replicas of a shard hold copies, not extra entries).
    pub fn len(&self) -> usize {
        self.live_replica_counts().iter().sum()
    }

    /// Whether no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shard an *insert* of `e` lands on right now: the primary shard
    /// if it has a live replica, else the next live shard on the ring —
    /// new entries must land somewhere durable even while their home
    /// shard is down. `None` when every shard is down. (Lookups use
    /// [`ShardedIndex::lookup_shards`], which does not ring-walk.)
    pub fn active_shard_for(&self, e: &Embedding) -> Option<usize> {
        let primary = self.router.route(e);
        (0..self.shards())
            .map(|step| (primary + step) % self.shards())
            .find(|&s| self.live_replicas(s) > 0)
    }

    /// The replica a lookup on `shard` is served from: the fullest live
    /// replica (they diverge only after faults), ties to the lowest slot.
    pub fn serving_replica(&self, shard: usize) -> Option<usize> {
        self.shards[shard]
            .iter()
            .enumerate()
            .filter(|(_, r)| r.up)
            .max_by(|a, b| a.1.index.len().cmp(&b.1.index.len()).then(b.0.cmp(&a.0)))
            .map(|(j, _)| j)
    }

    /// Inserts into every live replica of the routed (or ring-fallback)
    /// shard. Returns the shard written, or `None` if the insert was
    /// dropped because no shard is live.
    pub fn insert(&mut self, embedding: Embedding, payload: P) -> Option<usize>
    where
        P: Clone,
        Embedding: Clone,
    {
        let Some(s) = self.active_shard_for(&embedding) else {
            self.dropped_inserts += 1;
            return None;
        };
        for r in self.shards[s].iter_mut().filter(|r| r.up) {
            r.index.insert(embedding.clone(), payload.clone());
        }
        self.route_load[s] += 1;
        if let Some((total, period)) = self.rebalance {
            self.since_rebalance += 1;
            if self.since_rebalance >= period {
                self.since_rebalance = 0;
                self.rebalance_capacity(total);
            }
        }
        Some(s)
    }

    /// Re-splits `total_capacity` across shards proportional to observed
    /// routing load, evicting overflow FIFO from shrunken replicas.
    ///
    /// Every shard keeps a starvation floor of half its flat `C/N` share;
    /// the remaining budget is apportioned to shards by their
    /// [`ShardedIndex::route_load`] (largest-remainder method, so the
    /// caps sum exactly to the budget and the split is deterministic).
    /// Load counters are halved afterwards, giving an exponentially
    /// weighted view of recent traffic. Returns the number of replica
    /// copies evicted by shrinking. A no-op below two shards or before
    /// any insert landed.
    pub fn rebalance_capacity(&mut self, total_capacity: usize) -> usize {
        let n = self.shards();
        let total_load: u64 = self.route_load.iter().sum();
        if n <= 1 || total_load == 0 {
            return 0;
        }
        let floor = (total_capacity / (2 * n)).max(1);
        let spare = total_capacity.saturating_sub(floor * n);
        let mut caps = vec![floor; n];
        let mut assigned = 0usize;
        let mut rems: Vec<(u64, usize)> = Vec::with_capacity(n);
        for (s, (cap, &load)) in caps.iter_mut().zip(&self.route_load).enumerate() {
            let exact = spare as u128 * load as u128;
            let q = (exact / total_load as u128) as usize;
            *cap += q;
            assigned += q;
            rems.push(((exact % total_load as u128) as u64, s));
        }
        // Leftover slots go to the largest remainders, ties to the lowest
        // shard id.
        rems.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, s) in rems.iter().take(spare - assigned) {
            caps[s] += 1;
        }
        let mut evicted = 0;
        for (s, row) in self.shards.iter_mut().enumerate() {
            for r in row.iter_mut() {
                evicted += r.index.set_capacity(caps[s]).len();
            }
        }
        for l in self.route_load.iter_mut() {
            *l = l.div_ceil(2);
        }
        evicted
    }

    /// The shards a lookup for `query` scans right now: the router's
    /// multi-probe set restricted to live shards. Deliberately *no* ring
    /// fallback — when a query's whole probe set is down the lookup
    /// reports nothing and the caller serves a cache miss, which is
    /// exactly the observable a dead shard should produce (the insert
    /// path, by contrast, does ring-walk: new entries must land
    /// somewhere durable).
    pub fn lookup_shards(&self, query: &Embedding) -> Vec<usize> {
        self.router
            .probe(query)
            .into_iter()
            .filter(|&s| self.live_replicas(s) > 0)
            .collect()
    }

    /// Up-to-`k` nearest entries across the probed shards' serving
    /// replicas, best first (ties resolve in probe order, then each
    /// shard's own age order); empty when every shard is down.
    pub fn search(&self, query: &Embedding, k: usize) -> Vec<SearchHit<P>>
    where
        P: Clone,
    {
        self.search_with_shards(query, k)
            .into_iter()
            .map(|(hit, _)| hit)
            .collect()
    }

    /// [`ShardedIndex::search`], with each hit tagged by the shard that
    /// served it (the controller derives lookup locality from the best
    /// hit's shard).
    pub fn search_with_shards(&self, query: &Embedding, k: usize) -> Vec<(SearchHit<P>, usize)>
    where
        P: Clone,
    {
        let mut merged: Vec<(SearchHit<P>, usize)> = Vec::new();
        for s in self.lookup_shards(query) {
            let j = self.serving_replica(s).expect("lookup shards are live");
            merged.extend(
                self.shards[s][j]
                    .index
                    .search(query, k)
                    .into_iter()
                    .map(|hit| (hit, s)),
            );
        }
        // Stable sort on similarity keeps the probe-order/age tie-break.
        merged.sort_by(|a, b| {
            b.0.similarity
                .partial_cmp(&a.0.similarity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        merged.truncate(k);
        merged
    }

    /// The single best match across the probed shards.
    pub fn nearest(&self, query: &Embedding) -> Option<SearchHit<P>>
    where
        P: Clone,
    {
        self.nearest_with_shard(query).map(|(hit, _)| hit)
    }

    /// The single best match, tagged with the shard that served it:
    /// `search_with_shards(query, 1)` without the merge. Each probed
    /// shard's own `nearest` is taken in probe order and only a strictly
    /// better hit replaces the best so far, which is the tie-break the
    /// stable sort there gives.
    pub fn nearest_with_shard(&self, query: &Embedding) -> Option<(SearchHit<P>, usize)>
    where
        P: Clone,
    {
        let mut best: Option<(SearchHit<P>, usize)> = None;
        for s in self.lookup_shards(query) {
            let j = self.serving_replica(s).expect("lookup shards are live");
            if let Some(hit) = self.shards[s][j].index.nearest(query) {
                if best
                    .as_ref()
                    .is_none_or(|(b, _)| hit.similarity > b.similarity)
                {
                    best = Some((hit, s));
                }
            }
        }
        best
    }

    /// Marks a replica's host as failed: its copy of the shard is lost
    /// (rebuilt cold via the factory) and it stops serving until
    /// [`ShardedIndex::recover_replica`].
    ///
    /// # Panics
    /// Panics if `shard` or `replica` is out of range.
    pub fn fail_replica(&mut self, shard: usize, replica: usize) {
        let r = &mut self.shards[shard][replica];
        if !r.up {
            return;
        }
        r.up = false;
        r.index = (self.factory)(shard, replica);
    }

    /// Brings a failed replica back — cold (empty); it refills from
    /// subsequent inserts and is preferred for lookups again only once it
    /// is the fullest live replica.
    ///
    /// When the recovery brings a *fully-dark* shard back (no replica of
    /// it was live), an anti-entropy pass runs: entries inserted while
    /// the shard was down ring-walked to foster shards, but they still
    /// *route* here — so after recovery they sit outside every lookup's
    /// probe set, reachable by nobody, while the recovered shard serves
    /// cold misses for queries that should hit them. The pass extracts
    /// those entries from the foster shards (ring order, oldest first;
    /// the serving replica's copy is canonical and stale duplicates on
    /// its siblings are dropped) and re-homes them into the recovered
    /// shard's live replicas. Returns the number of entries migrated.
    ///
    /// # Panics
    /// Panics if `shard` or `replica` is out of range.
    pub fn recover_replica(&mut self, shard: usize, replica: usize) -> usize
    where
        P: Clone,
    {
        let was_dark = self.live_replicas(shard) == 0;
        self.shards[shard][replica].up = true;
        if !was_dark {
            return 0;
        }
        let n = self.shards();
        let mut homecoming: Vec<(Embedding, P)> = Vec::new();
        for step in 1..n {
            let s = (shard + step) % n;
            let Some(serving) = self.serving_replica(s) else {
                continue;
            };
            for j in 0..self.shards[s].len() {
                if !self.shards[s][j].up {
                    continue;
                }
                let router = &self.router;
                let extracted = self.shards[s][j]
                    .index
                    .extract_if(&mut |e, _| router.route(e) == shard);
                if j == serving {
                    homecoming.extend(extracted);
                }
            }
        }
        let migrated = homecoming.len();
        self.migrated_entries += migrated as u64;
        for (e, p) in homecoming {
            for r in self.shards[shard].iter_mut().filter(|r| r.up) {
                r.index.insert(e.clone(), p.clone());
            }
        }
        migrated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlatIndex, LshIndex};
    use argus_embed::embed;
    use argus_prompts::PromptGenerator;

    fn lsh_plane(shards: usize, replication: usize) -> ShardedIndex<usize, LshIndex<usize>> {
        ShardedIndex::new(shards, replication, 7, move |_, _| {
            LshIndex::with_capacity_limit(8, 7, 512)
        })
    }

    #[test]
    fn router_is_deterministic_and_in_range() {
        let r1 = ShardRouter::new(6, 42);
        let r2 = ShardRouter::new(6, 42);
        for p in PromptGenerator::new(1).generate_batch(200) {
            let e = embed(&p.text);
            let s = r1.route(&e);
            assert!(s < 6);
            assert_eq!(s, r2.route(&e));
        }
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let r = ShardRouter::new(1, 9);
        for p in PromptGenerator::new(2).generate_batch(50) {
            assert_eq!(r.route(&embed(&p.text)), 0);
        }
    }

    #[test]
    fn router_spreads_load_across_shards() {
        let r = ShardRouter::new(8, 3);
        let mut counts = [0usize; 8];
        for p in PromptGenerator::new(3).generate_batch(800) {
            counts[r.route(&embed(&p.text))] += 1;
        }
        // Locality routing is skew-tolerant, not uniform: prompts share
        // vocabulary so sign patterns correlate. Every shard must still
        // receive traffic and none may hold a majority (per-shard caps
        // absorb the residual skew).
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 0 && c < 400, "shard {s} holds {c}/800");
        }
    }

    #[test]
    fn exact_duplicates_route_to_the_same_shard() {
        let r = ShardRouter::new(16, 5);
        for p in PromptGenerator::new(4).generate_batch(100) {
            let a = r.route(&embed(&p.text));
            let b = r.route(&embed(&p.text));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn insert_then_search_finds_entries() {
        let mut idx = lsh_plane(4, 2);
        let prompts = PromptGenerator::new(5).generate_batch(200);
        for (i, p) in prompts.iter().enumerate() {
            assert!(idx.insert(embed(&p.text), i).is_some());
        }
        assert_eq!(idx.len(), 200);
        let mut found = 0;
        for (i, p) in prompts.iter().enumerate() {
            if idx.nearest(&embed(&p.text)).map(|h| h.payload) == Some(i) {
                found += 1;
            }
        }
        // Exact duplicates route to the same shard and bucket.
        assert_eq!(found, 200);
    }

    #[test]
    fn replica_failure_does_not_lose_replicated_entries() {
        let mut idx = lsh_plane(4, 2);
        let prompts = PromptGenerator::new(6).generate_batch(120);
        for (i, p) in prompts.iter().enumerate() {
            idx.insert(embed(&p.text), i);
        }
        let before = idx.len();
        // Kill replica 0 of every shard: copies on replica 1 take over.
        for s in 0..4 {
            idx.fail_replica(s, 0);
            assert_eq!(idx.live_replicas(s), 1);
        }
        assert_eq!(idx.len(), before, "replicas must preserve all entries");
        for (i, p) in prompts.iter().enumerate() {
            assert_eq!(
                idx.nearest(&embed(&p.text)).map(|h| h.payload),
                Some(i),
                "entry {i} lost after failover"
            );
        }
    }

    #[test]
    fn dead_shard_reroutes_inserts_and_degrades_lookups() {
        let mut idx = lsh_plane(4, 1);
        let prompts = PromptGenerator::new(7).generate_batch(160);
        for (i, p) in prompts.iter().enumerate() {
            idx.insert(embed(&p.text), i);
        }
        let dead = 2;
        let lost = idx.live_replica_counts()[dead];
        assert!(lost > 0, "shard {dead} should hold entries");
        idx.fail_replica(dead, 0);
        assert_eq!(idx.live_shards(), 3);
        // Unreplicated data on the dead shard is gone; the rest survives.
        assert_eq!(idx.len(), 160 - lost);
        // Lookups keep working through live probe shards — degraded (the
        // dead shard's entries are unfindable, and a fully-dead probe set
        // yields a miss), never a panic. Re-querying every inserted
        // prompt, the survivors are still found exactly; the dead shard's
        // own entries are not.
        let mut exact = 0;
        for (i, p) in prompts.iter().enumerate() {
            if idx.nearest(&embed(&p.text)).map(|h| h.payload) == Some(i) {
                exact += 1;
            }
        }
        assert_eq!(
            exact,
            160 - lost,
            "lost entries resurfaced or survivors vanished"
        );
        // New inserts routed to the dead shard land on a live one.
        for (i, p) in prompts.iter().enumerate() {
            let s = idx
                .insert(embed(&p.text), 1000 + i)
                .expect("live shards remain");
            assert_ne!(s, dead);
        }
        assert_eq!(idx.dropped_inserts(), 0);
    }

    #[test]
    fn all_shards_down_drops_inserts_and_misses_lookups() {
        let mut idx = lsh_plane(2, 1);
        idx.insert(embed("a red apple"), 1);
        idx.fail_replica(0, 0);
        idx.fail_replica(1, 0);
        assert_eq!(idx.live_shards(), 0);
        assert!(idx.nearest(&embed("a red apple")).is_none());
        assert!(idx.insert(embed("a pear"), 2).is_none());
        assert_eq!(idx.dropped_inserts(), 1);
        assert!(idx.is_empty());
    }

    #[test]
    fn recovered_replica_comes_back_cold_and_refills() {
        let mut idx = lsh_plane(1, 2);
        idx.insert(embed("first"), 1);
        idx.fail_replica(0, 0);
        idx.insert(embed("second"), 2);
        idx.recover_replica(0, 0);
        // The surviving replica holds both entries; the recovered one is
        // cold, so lookups keep hitting the fuller copy.
        assert_eq!(idx.serving_replica(0), Some(1));
        assert_eq!(idx.len(), 2);
        idx.insert(embed("third"), 3);
        // Both replicas received the new insert.
        assert_eq!(idx.nearest(&embed("third")).unwrap().payload, 3);
    }

    #[test]
    fn recovery_migrates_ring_rerouted_entries_home() {
        // Kill one unreplicated shard; inserts routed to it ring-walk to a
        // foster shard. On recovery the anti-entropy pass must re-home
        // them — they route to the recovered shard, so without migration
        // they would sit outside every lookup's probe set forever.
        let mut idx = lsh_plane(4, 1);
        let dead = 1;
        idx.fail_replica(dead, 0);
        let prompts = PromptGenerator::new(21).generate_batch(240);
        let mut rerouted = Vec::new();
        for (i, p) in prompts.iter().enumerate() {
            let e = embed(&p.text);
            if idx.router().route(&e) == dead {
                rerouted.push(i);
            }
            idx.insert(e, i);
        }
        assert!(!rerouted.is_empty(), "trace never routed to shard {dead}");
        let migrated = idx.recover_replica(dead, 0);
        assert_eq!(migrated, rerouted.len());
        assert_eq!(idx.migrated_entries(), migrated as u64);
        // Every rerouted entry is exactly findable again: its primary
        // shard is always in its own probe set.
        for &i in &rerouted {
            assert_eq!(
                idx.nearest(&embed(&prompts[i].text)).map(|h| h.payload),
                Some(i),
                "rerouted entry {i} unreachable after recovery"
            );
        }
        // And total content is conserved: migration moves, not duplicates.
        assert_eq!(idx.len(), 240);
    }

    #[test]
    fn partial_recovery_skips_the_anti_entropy_pass() {
        // A shard that kept a live replica never rerouted inserts, so a
        // single-replica recovery must not touch other shards.
        let mut idx = lsh_plane(4, 2);
        for (i, p) in PromptGenerator::new(22)
            .generate_batch(80)
            .iter()
            .enumerate()
        {
            idx.insert(embed(&p.text), i);
        }
        idx.fail_replica(0, 0);
        assert_eq!(idx.recover_replica(0, 0), 0);
        assert_eq!(idx.migrated_entries(), 0);
    }

    #[test]
    fn load_aware_caps_raise_effective_capacity_under_skew() {
        // A skewed corpus hammering 3 of 8 shards: flat ⌈C/N⌉ caps make
        // the hot shards evict FIFO while the cold shards' slots sit
        // empty. Load-aware rebalancing grows the hot shards out of that
        // slack, so the plane retains strictly more entries at the same
        // total capacity budget.
        let total = 512;
        let build = || -> ShardedIndex<usize, LshIndex<usize>> {
            ShardedIndex::new(8, 1, 7, move |_, _| {
                LshIndex::with_capacity_limit(8, 7, total / 8)
            })
        };
        let mut flat = build();
        let mut adaptive = build().with_capacity_rebalance(total, 64);
        let mut hot_inserts = 0;
        for (i, p) in PromptGenerator::new(31)
            .generate_batch(4000)
            .iter()
            .enumerate()
        {
            let e = embed(&p.text);
            if flat.router().route(&e) < 3 {
                flat.insert(e.clone(), i);
                adaptive.insert(e, i);
                hot_inserts += 1;
            }
        }
        assert!(
            hot_inserts > 3 * (total / 8),
            "skewed corpus too small ({hot_inserts}) to overflow flat caps"
        );
        // Flat caps pin the hot shards at 64 entries each.
        assert_eq!(flat.len(), 3 * (total / 8));
        assert!(
            adaptive.len() > flat.len() + total / 8,
            "load-aware caps retained {} vs flat {}",
            adaptive.len(),
            flat.len()
        );
        assert!(adaptive.len() <= total, "caps exceeded the budget");
    }

    #[test]
    fn flat_backed_shards_work_too() {
        let mut idx: ShardedIndex<u64, FlatIndex<u64>> =
            ShardedIndex::new(8, 1, 11, |_, _| FlatIndex::with_capacity_limit(64));
        for (i, p) in PromptGenerator::new(8)
            .generate_batch(300)
            .iter()
            .enumerate()
        {
            idx.insert(embed(&p.text), i as u64);
        }
        // 300 inserts over 8×64 slots: skewed shards evict FIFO.
        assert!(idx.len() <= 300);
        assert!(idx.nearest(&embed("a bear in a snowy forest")).is_some());
    }

    /// `nearest` and `nearest_with_shard` against the first entry of
    /// `search_with_shards(q, 1)`, down to the similarity bits.
    fn assert_nearest_is_search_1<I: VectorIndex<usize>>(
        idx: &ShardedIndex<usize, I>,
        queries: &[Embedding],
        label: &str,
    ) {
        for (n, q) in queries.iter().enumerate() {
            let want = idx.search_with_shards(q, 1).into_iter().next();
            let key = |r: Option<(SearchHit<usize>, usize)>| {
                r.map(|(h, s)| (h.similarity.to_bits(), h.payload, s))
            };
            assert_eq!(
                key(idx.nearest_with_shard(q)),
                key(want.clone()),
                "{label}: query {n}"
            );
            assert_eq!(
                idx.nearest(q).map(|h| (h.similarity.to_bits(), h.payload)),
                want.map(|(h, _)| (h.similarity.to_bits(), h.payload)),
                "{label}: query {n}"
            );
        }
    }

    fn filled<I: VectorIndex<usize>>(
        mut idx: ShardedIndex<usize, I>,
        seed: u64,
        n: usize,
    ) -> ShardedIndex<usize, I> {
        for (i, p) in PromptGenerator::new(seed)
            .generate_batch(n)
            .iter()
            .enumerate()
        {
            idx.insert(embed(&p.text), i);
        }
        idx
    }

    fn shard_queries() -> Vec<Embedding> {
        let mut queries: Vec<Embedding> = PromptGenerator::new(52)
            .generate_batch(150)
            .iter()
            .map(|p| embed(&p.text))
            .collect();
        // Exact duplicates of resident entries, and the zero query.
        queries.extend(
            PromptGenerator::new(51)
                .generate_batch(50)
                .iter()
                .map(|p| embed(&p.text)),
        );
        queries.push(embed(""));
        queries
    }

    fn flat_plane(shards: usize, replication: usize) -> ShardedIndex<usize, FlatIndex<usize>> {
        ShardedIndex::new(shards, replication, 7, |_, _| {
            FlatIndex::with_capacity_limit(64)
        })
    }

    #[test]
    fn sharded_nearest_is_search_1_on_flat_and_lsh_shards() {
        let queries = shard_queries();
        assert_nearest_is_search_1(&filled(flat_plane(8, 2), 51, 400), &queries, "flat");
        assert_nearest_is_search_1(&filled(lsh_plane(8, 2), 51, 400), &queries, "lsh");
    }

    #[test]
    fn sharded_nearest_is_search_1_with_failed_replicas_and_a_dark_shard() {
        let queries = shard_queries();
        let mut flat = filled(flat_plane(8, 2), 51, 400);
        let mut lsh = filled(lsh_plane(8, 2), 51, 400);
        // The zero query's primary shard goes dark, so its all-tied
        // answer moves to the next probed shard.
        let dark = flat.router().probe(&embed(""))[0];
        for s in [dark, (dark + 3) % 8, (dark + 5) % 8] {
            flat.fail_replica(s, 0);
            lsh.fail_replica(s, 0);
        }
        assert_nearest_is_search_1(&flat, &queries, "flat, replicas down");
        assert_nearest_is_search_1(&lsh, &queries, "lsh, replicas down");
        flat.fail_replica(dark, 1);
        lsh.fail_replica(dark, 1);
        assert_eq!(flat.live_replicas(dark), 0);
        assert_nearest_is_search_1(&flat, &queries, "flat, dark shard");
        assert_nearest_is_search_1(&lsh, &queries, "lsh, dark shard");
    }

    #[test]
    fn sharded_nearest_on_the_zero_query_resolves_ties_in_probe_order() {
        // Every entry scores 0.0 against the zero query, so the first
        // live probed shard's oldest entry must win.
        let idx = filled(flat_plane(8, 1), 53, 300);
        let zero = embed("");
        let probes = idx.lookup_shards(&zero);
        assert!(probes.len() > 1, "need several probed shards: {probes:?}");
        let first = probes[0];
        let (hit, shard) = idx
            .nearest_with_shard(&zero)
            .expect("probed shards hold entries");
        assert_eq!(shard, first);
        assert_eq!(hit.similarity.to_bits(), 0.0f32.to_bits());
        assert_eq!(
            Some(hit.payload),
            idx.shards[first][0].index.nearest(&zero).map(|h| h.payload)
        );
        assert_nearest_is_search_1(&idx, &[zero], "zero query");
    }

    #[test]
    fn projections_match_the_sequential_loop() {
        /// `ShardRouter::project` as it was written before the shared
        /// dot kernel.
        fn reference_project(planes: &[[f32; DIM]], e: &Embedding) -> (u64, Vec<f32>) {
            let mut key = 0u64;
            let mut dots = Vec::with_capacity(planes.len());
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
                dots.push(dot);
            }
            (key, dots)
        }
        let queries = shard_queries();
        // 1 shard has no planes; 8 shards have 6; 64 have 9; 4096 have 15.
        for shards in [1, 2, 8, 64, 4096] {
            let r = ShardRouter::new(shards, 3);
            for q in &queries {
                let (key, dots) = r.project(q);
                let (want_key, want_dots) = reference_project(&r.planes, q);
                assert_eq!(key, want_key, "{shards} shards");
                let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&dots), bits(&want_dots), "{shards} shards");
                if shards > 1 {
                    assert_eq!(r.route(q), r.shard_of_key(want_key));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardRouter::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replication_rejected() {
        let _: ShardedIndex<u8, FlatIndex<u8>> =
            ShardedIndex::new(2, 0, 1, |_, _| FlatIndex::new());
    }
}
