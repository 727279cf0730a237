//! The sharded cache plane: retrieval as its own distributed serving
//! plane alongside the compute plane.
//!
//! The paper's testbed keeps one shared Qdrant/EFS pair for the whole
//! cluster (§4.7). At fleet scale that single endpoint is both the
//! scalability bottleneck (every AC query scans one index) and a single
//! fault domain (one outage disables approximate caching everywhere —
//! Fig. 11/20b). This module distributes it: the vector index is
//! partitioned into `N` shards replicated `R` ways across *worker-attached*
//! hosts ([`argus_vdb::shard`]), and this controller owns everything the
//! index itself must not know about the cluster:
//!
//! * **Placement** — replica slot `(s, j)` lives on worker
//!   `(s + ⌊j·W/R⌋) mod W`, so a shard's replicas stripe across distinct,
//!   distant workers and correlated failures (adjacent worker ids, as in
//!   the Fig. 20a experiments) hit at most one replica of each shard;
//! * **Lookup locality** — a lookup from the worker hosting the serving
//!   replica is a [`Locality::Local`] read (no network hop, immune to
//!   regime faults); anything else pays the full remote round trip through
//!   the `argus-cachestore` network model;
//! * **Fault-driven rebalance** — when a worker dies, every replica it
//!   hosted is lost and its shards fail over to surviving replicas; a
//!   shard with no live replica re-routes *inserts* to its ring
//!   neighbour, while *lookups* skip it, so queries whose probe set is
//!   entirely dead serve misses. The observable outcome is a lower
//!   hit-rate, never a crash — the retrieval-plane mirror of the compute
//!   plane's ODA re-alignment after a fault (see [`mod@crate::oda`]).
//!
//! Every replica of a plane lives on a worker. The paper's *external*
//! monolithic deployment — no worker hosts the index, every lookup is
//! remote and worker faults never touch the cache — is instead the shared
//! LSH index of `RunConfig::with_lsh_cache`, and `SystemSimulation`
//! resolves `with_sharded_cache(1, 1)` to exactly that index (pinned
//! bit-identical by `tests/sharded_cache.rs`).

use argus_cachestore::Locality;
use argus_embed::Embedding;
use argus_vdb::{LshIndex, SearchHit, ShardedIndex};

/// The write fan-out of one cache-plane insert: how many replica copies
/// were stored and how many of them crossed the network. A copy landing
/// on the worker that produced the state is a free local write; every
/// other copy is charged one network hop. Writes are asynchronous
/// (§4.7), so the hops are a budget counter (`RetrievalStats`), never
/// job latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InsertReceipt {
    /// Replica copies stored (0 when every shard was down and the insert
    /// was dropped).
    pub replica_writes: u32,
    /// Copies that paid a network hop (replicas not hosted on the origin
    /// worker).
    pub remote_hops: u32,
}

/// LSH hyperplanes per shard replica — the recall/scan-cost knee measured
/// for the monolithic index (`tests/lsh_cache.rs`), kept identical.
const SHARD_LSH_BITS: usize = 8;

/// Inserts between load-aware capacity rebalances. Frequent enough to
/// track diurnal routing drift, coarse enough that the largest-remainder
/// re-split stays off the insert fast path.
const REBALANCE_PERIOD: usize = 256;

/// The cache-plane controller: the sharded retrieval index plus the
/// worker placement map and fault bookkeeping.
#[derive(Debug)]
pub struct CachePlane {
    index: ShardedIndex<u64, LshIndex<u64>>,
    /// Host worker of each replica slot (`hosts[shard][replica]`).
    hosts: Vec<Vec<usize>>,
}

impl CachePlane {
    /// Builds a plane of `shards × replication` replica slots over a
    /// cluster of `workers`. Shards start with an even `⌈C/N⌉` split of
    /// `total_capacity` (so the total matches the monolithic configuration
    /// it replaces) and thereafter rebalance their caps toward observed
    /// routing load every `REBALANCE_PERIOD` inserts — a flat split
    /// under routing skew makes the hot shards evict FIFO while cold
    /// shards sit half empty, wasting a quarter of the effective capacity
    /// at `N = 8`. `seed` seeds every replica's hyperplanes, as it does
    /// the monolithic index's.
    ///
    /// Replication is clamped to the cluster size: more copies than
    /// workers would just co-locate replicas in the same fault domain.
    ///
    /// # Panics
    /// Panics if `shards`, `replication`, `workers` or `total_capacity`
    /// is zero.
    pub fn new(
        shards: usize,
        replication: usize,
        workers: usize,
        seed: u64,
        total_capacity: usize,
    ) -> Self {
        assert!(shards > 0, "cache plane needs at least one shard");
        assert!(replication > 0, "cache plane needs at least one replica");
        assert!(workers > 0, "cache plane needs at least one worker");
        assert!(total_capacity > 0, "cache plane needs capacity");
        let replication = replication.min(workers);
        let per_shard = total_capacity.div_ceil(shards);
        let index = ShardedIndex::new(shards, replication, seed, move |_, _| {
            LshIndex::with_capacity_limit(SHARD_LSH_BITS, seed, per_shard)
        })
        .with_capacity_rebalance(total_capacity, REBALANCE_PERIOD);
        // Stripe a shard's replicas across distant workers: replica j of
        // shard s sits at offset ⌊j·W/R⌋. The floor-scaled offsets are
        // pairwise distinct for R ≤ W (consecutive offsets differ by at
        // least ⌊W/R⌋ ≥ 1 and stay below W), so a shard's replicas never
        // co-locate and adjacent-id failure bursts shorter than ⌊W/R⌋
        // take out at most one replica per shard.
        let hosts = (0..shards)
            .map(|s| {
                (0..replication)
                    .map(|j| (s + j * workers / replication) % workers)
                    .collect()
            })
            .collect();
        CachePlane { index, hosts }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.index.shards()
    }

    /// Replication factor (post worker-count clamp).
    pub fn replication(&self) -> usize {
        self.index.replication()
    }

    /// Shards with at least one live replica.
    pub fn live_shards(&self) -> usize {
        self.index.live_shards()
    }

    /// Logical entry count (serving replica, summed over shards).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the plane holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Inserts dropped because every shard was down.
    pub fn dropped_inserts(&self) -> u64 {
        self.index.dropped_inserts()
    }

    /// Entries re-homed by recovery anti-entropy passes: inserts that
    /// ring-rerouted past a fully-dead shard and were migrated back when
    /// it recovered.
    pub fn migrated_entries(&self) -> u64 {
        self.index.migrated_entries()
    }

    /// The host worker of a replica slot (`None` for a slot out of
    /// range).
    pub fn host_of(&self, shard: usize, replica: usize) -> Option<usize> {
        self.hosts.get(shard).and_then(|r| r.get(replica)).copied()
    }

    /// Inserts an embedding into every live replica of its routed shard
    /// (ring fallback when the shard is dead). Dropped without panicking
    /// when every shard is down. `origin` is the worker whose completion
    /// produced the state (`None` for off-cluster producers, e.g. the
    /// offline pre-warm loader); the returned [`InsertReceipt`] charges
    /// one network hop per replica copy not hosted on `origin`.
    pub fn insert(
        &mut self,
        origin: Option<usize>,
        embedding: Embedding,
        id: u64,
    ) -> InsertReceipt {
        let Some(shard) = self.index.insert(embedding, id) else {
            return InsertReceipt::default();
        };
        let mut receipt = InsertReceipt::default();
        for replica in 0..self.replication() {
            if !self.index.replica_up(shard, replica) {
                continue;
            }
            receipt.replica_writes += 1;
            if self.host_of(shard, replica) != origin {
                receipt.remote_hops += 1;
            }
        }
        receipt
    }

    /// Nearest-neighbour lookup issued by `worker`: returns the best hit
    /// across the probed shards (if any is live and non-empty) and the
    /// [`Locality`] the retrieval must be charged at —
    /// [`Locality::Local`] only when the replica serving the best hit
    /// lives on the requesting worker (the state fetch goes wherever the
    /// winning neighbour's intermediate state is stored).
    pub fn lookup(&self, worker: usize, query: &Embedding) -> (Option<SearchHit<u64>>, Locality) {
        match self.index.nearest_with_shard(query) {
            Some((hit, shard)) => {
                let replica = self
                    .index
                    .serving_replica(shard)
                    .expect("a hit implies a live replica");
                let locality = match self.host_of(shard, replica) {
                    Some(host) if host == worker => Locality::Local,
                    _ => Locality::Remote,
                };
                (Some(hit), locality)
            }
            None => (None, Locality::Remote),
        }
    }

    /// Rebalances after a worker crash: every replica hosted on `worker`
    /// loses its copy and stops serving; surviving replicas take over,
    /// and fully-dead shards re-route their inserts to ring neighbours
    /// while lookups serve misses.
    pub fn on_worker_fail(&mut self, worker: usize) {
        for s in 0..self.hosts.len() {
            for j in 0..self.hosts[s].len() {
                if self.hosts[s][j] == worker {
                    self.index.fail_replica(s, j);
                }
            }
        }
    }

    /// Brings `worker`'s replicas back — cold; they refill from subsequent
    /// inserts. Where the worker's death had taken a whole shard dark,
    /// recovery also runs the anti-entropy pass
    /// ([`argus_vdb::ShardedIndex::recover_replica`]): entries that
    /// ring-rerouted to foster shards while the shard was down are
    /// migrated home, since they route to the recovered shard and would
    /// otherwise stay outside every lookup's probe set.
    pub fn on_worker_recover(&mut self, worker: usize) {
        for s in 0..self.hosts.len() {
            for j in 0..self.hosts[s].len() {
                if self.hosts[s][j] == worker {
                    self.index.recover_replica(s, j);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_embed::embed;
    use argus_prompts::PromptGenerator;

    #[test]
    fn placement_stripes_replicas_across_workers() {
        let plane = CachePlane::new(8, 2, 8, 7, 768);
        for s in 0..8 {
            let h0 = plane.host_of(s, 0).unwrap();
            let h1 = plane.host_of(s, 1).unwrap();
            assert_ne!(h0, h1, "shard {s} replicas co-located");
            assert_eq!(h1, (h0 + 4) % 8);
        }
    }

    #[test]
    fn replication_clamps_to_cluster_size() {
        let plane = CachePlane::new(4, 8, 2, 7, 256);
        assert_eq!(plane.replication(), 2);
    }

    #[test]
    fn replicas_of_a_shard_never_co_locate() {
        // Wrap-prone configurations (R does not divide W) must still give
        // every replica of a shard its own worker.
        for (shards, replication, workers) in
            [(4, 3, 4), (4, 4, 6), (8, 3, 8), (3, 5, 5), (16, 2, 3)]
        {
            let plane = CachePlane::new(shards, replication, workers, 1, 64);
            for s in 0..plane.shards() {
                let hosts: Vec<usize> = (0..plane.replication())
                    .map(|j| plane.host_of(s, j).unwrap())
                    .collect();
                let mut dedup = hosts.clone();
                dedup.sort_unstable();
                dedup.dedup();
                assert_eq!(
                    dedup.len(),
                    hosts.len(),
                    "{shards}x{replication} over {workers}: shard {s} hosts {hosts:?}"
                );
            }
        }
    }

    #[test]
    fn local_lookups_only_on_the_serving_host() {
        let mut plane = CachePlane::new(4, 2, 8, 3, 512);
        let prompts = PromptGenerator::new(2).generate_batch(100);
        for (i, p) in prompts.iter().enumerate() {
            plane.insert(None, embed(&p.text), i as u64);
        }
        let mut local = 0;
        let mut remote = 0;
        for p in &prompts {
            for w in 0..8 {
                match plane.lookup(w, &embed(&p.text)).1 {
                    Locality::Local => local += 1,
                    Locality::Remote => remote += 1,
                }
            }
        }
        // Exactly one of the 8 workers hosts the serving replica of each
        // query's shard.
        assert_eq!(local, 100);
        assert_eq!(remote, 700);
    }

    #[test]
    fn insert_receipts_charge_cross_worker_hops() {
        let mut plane = CachePlane::new(4, 2, 8, 3, 512);
        let prompts = PromptGenerator::new(9).generate_batch(40);
        let mut hop_counts = std::collections::BTreeMap::new();
        for (i, p) in prompts.iter().enumerate() {
            // Off-cluster origin: both replica copies cross the network.
            let off = plane.insert(None, embed(&p.text), i as u64);
            assert_eq!((off.replica_writes, off.remote_hops), (2, 2));
            // Each replica of the routed shard lives on one distinct
            // worker; inserting from that worker saves exactly its hop.
            for w in 0..8 {
                let receipt = plane.insert(Some(w), embed(&p.text), i as u64);
                assert_eq!(receipt.replica_writes, 2);
                *hop_counts.entry(receipt.remote_hops).or_insert(0u32) += 1;
            }
        }
        // Exactly two of the eight workers host the routed shard's
        // replicas, so 2/8 of origins pay one hop and 6/8 pay two.
        assert_eq!(hop_counts.get(&1).copied().unwrap_or(0), 2 * 40);
        assert_eq!(hop_counts.get(&2).copied().unwrap_or(0), 6 * 40);
    }

    #[test]
    fn dropped_inserts_report_zero_writes() {
        let mut plane = CachePlane::new(2, 1, 4, 5, 64);
        for w in 0..4 {
            plane.on_worker_fail(w);
        }
        assert_eq!(plane.live_shards(), 0);
        let receipt = plane.insert(Some(0), embed("lost state"), 9);
        assert_eq!(receipt, InsertReceipt::default());
        assert_eq!(plane.dropped_inserts(), 1);
    }

    #[test]
    fn recovery_rehomes_entries_rerouted_past_a_dead_shard() {
        // R = 1 over 4 workers: worker s hosts the sole replica of shard
        // s, so killing worker 2 takes shard 2 fully dark and its inserts
        // ring-walk to shard 3. Recovery must migrate them home — every
        // entry inserted during the outage stays exactly findable.
        let mut plane = CachePlane::new(4, 1, 4, 5, 512);
        plane.on_worker_fail(2);
        let prompts = PromptGenerator::new(8).generate_batch(160);
        for (i, p) in prompts.iter().enumerate() {
            plane.insert(None, embed(&p.text), i as u64);
        }
        plane.on_worker_recover(2);
        assert!(
            plane.migrated_entries() > 0,
            "trace never routed to the dead shard"
        );
        for (i, p) in prompts.iter().enumerate() {
            let (hit, _) = plane.lookup(0, &embed(&p.text));
            assert_eq!(
                hit.map(|h| h.payload),
                Some(i as u64),
                "entry {i} unreachable after recovery"
            );
        }
    }

    #[test]
    fn worker_failure_fails_over_without_data_loss() {
        let mut plane = CachePlane::new(4, 2, 8, 5, 512);
        let prompts = PromptGenerator::new(3).generate_batch(120);
        for (i, p) in prompts.iter().enumerate() {
            plane.insert(None, embed(&p.text), i as u64);
        }
        let before = plane.len();
        // Workers 0..4 host replica 0 of shards 0..4; their loss must be
        // absorbed by the replica-1 copies on workers 4..8.
        for w in 0..4 {
            plane.on_worker_fail(w);
        }
        assert_eq!(plane.live_shards(), 4);
        assert_eq!(plane.len(), before, "replicated entries were lost");
        for (i, p) in prompts.iter().enumerate() {
            let (hit, _) = plane.lookup(7, &embed(&p.text));
            assert_eq!(hit.map(|h| h.payload), Some(i as u64), "entry {i} lost");
        }
        plane.on_worker_recover(0);
        // Recovered replicas come back cold but serving resumes.
        assert_eq!(plane.len(), before);
    }
}
