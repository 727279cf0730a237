//! The cache-plane stage: the retrieval index (flat scan, shared LSH, or
//! the sharded plane) plus the blob [`CacheStore`].
//!
//! Retrieval ([`CacheStage::retrieve`]) fuses what the old loop did
//! inline: nearest-neighbour search, the pipeline's cache-gate mapping
//! from similarity to an effective AC level, and the store fetch with its
//! locality-dependent network cost. Index inserts and blob puts are the
//! asynchronous, off-critical-path writes of §4.7: they charge no
//! latency, and every later lookup observes them in the order the driver
//! issued them. The stage counts its own insert receipts and surrenders
//! them at [`CacheStage::drain`], preserving `replica_writes ≥ inserts`.

use argus_cachestore::{CacheKey, CacheStore, FetchOutcome, Locality};
use argus_des::{SimDuration, SimTime};
use argus_embed::Embedding;
use argus_models::{AcLevel, AC_LEVELS};
use argus_obs::StageCounters;
use argus_vdb::{FlatIndex, LshIndex, SearchHit};

use crate::cacheplane::CachePlane;
use crate::pipeline::ServingPolicy;

/// The retrieval index behind approximate caching: the exact flat scan of
/// the paper's testbed, the shared multi-probe LSH index for the
/// shared-VDB deployment at scale (§4.7), or the sharded cache plane
/// distributed across worker-attached shards
/// ([`crate::system::RunConfig::with_sharded_cache`]).
pub(crate) enum Vdb {
    Flat(FlatIndex<u64>),
    Lsh(LshIndex<u64>),
    Sharded(CachePlane),
}

impl Vdb {
    /// Inserts an embedding, returning `(replica writes, remote write
    /// hops)` for the cache-plane write-amplification accounting.
    /// `origin` is the worker whose completion produced the state
    /// (`None` for the offline pre-warm loader). The monolithic indexes
    /// are off-cluster services: one write, one remote hop.
    pub(crate) fn insert(
        &mut self,
        origin: Option<usize>,
        embedding: Embedding,
        id: u64,
    ) -> (u32, u32) {
        match self {
            Vdb::Flat(i) => {
                i.insert(embedding, id);
                (1, 1)
            }
            Vdb::Lsh(i) => {
                i.insert(embedding, id);
                (1, 1)
            }
            Vdb::Sharded(p) => {
                let receipt = p.insert(origin, embedding, id);
                (receipt.replica_writes, receipt.remote_hops)
            }
        }
    }

    /// Nearest neighbour for a lookup issued by `worker`, plus the
    /// [`Locality`] the retrieval is charged at. The monolithic indexes
    /// are off-cluster services: always remote.
    fn nearest(&self, worker: usize, query: &Embedding) -> (Option<SearchHit<u64>>, Locality) {
        match self {
            Vdb::Flat(i) => (i.nearest(query), Locality::Remote),
            Vdb::Lsh(i) => (i.nearest(query), Locality::Remote),
            Vdb::Sharded(p) => p.lookup(worker, query),
        }
    }
}

/// What a retrieval resolved to, mirroring the old inline control flow:
/// `fetch` is the store round trip when one happened (a usable neighbour
/// above the gate); without one the lookup is a miss.
pub(crate) struct RetrieveOutcome {
    pub fetch: Option<FetchOutcome>,
    pub k_eff: AcLevel,
    pub similarity: Option<f64>,
}

/// Everything the cache-plane stage surrenders at teardown.
pub(crate) struct CacheDrainReport {
    pub inserts: u64,
    pub replica_writes: u64,
    pub remote_hops: u64,
    /// Call counters for the stage profile (§12 telemetry).
    pub profile: StageCounters,
}

/// The cache-plane stage: the retrieval index and the blob store, driven
/// by plain method calls in driver event order.
pub(crate) struct CacheStage {
    vdb: Vdb,
    store: CacheStore,
    inserts: u64,
    replica_writes: u64,
    remote_hops: u64,
    profile: StageCounters,
}

impl CacheStage {
    /// A stage around a pre-warmed index and store.
    pub(crate) fn new(vdb: Vdb, store: CacheStore) -> Self {
        CacheStage {
            vdb,
            store,
            inserts: 0,
            replica_writes: 0,
            remote_hops: 0,
            profile: StageCounters::default(),
        }
    }

    /// Serving-time index insert from a completion on `origin`; receipts
    /// accumulate stage-locally.
    pub(crate) fn insert(&mut self, origin: usize, embedding: Embedding, id: u64) {
        self.profile.count(false);
        let (writes, hops) = self.vdb.insert(Some(origin), embedding, id);
        // An insert dropped by a fully-dead cache plane persisted
        // nothing, so it must not count toward the write-amplification
        // counters (`replica_writes >= inserts` stays an invariant).
        if writes > 0 {
            self.inserts += 1;
            self.replica_writes += u64::from(writes);
            self.remote_hops += u64::from(hops);
        }
    }

    /// Persists every reusable intermediate state of a completed prompt
    /// (the per-level blob puts).
    pub(crate) fn put_levels(&mut self, id: u64, t: SimTime) {
        self.profile.count(false);
        for k in AC_LEVELS.iter().skip(1) {
            self.store.put(
                CacheKey {
                    prompt_id: id,
                    k: k.skipped_steps(),
                },
                t,
            );
        }
    }

    /// SM-mode background network probe (§4.6).
    pub(crate) fn probe(&mut self, t: SimTime) -> (SimDuration, bool) {
        self.profile.count(true);
        self.store.probe(t)
    }

    /// A worker crashed: fail its hosted replicas (sharded plane only).
    pub(crate) fn worker_fail(&mut self, w: usize) {
        self.profile.count(false);
        if let Vdb::Sharded(plane) = &mut self.vdb {
            plane.on_worker_fail(w);
        }
    }

    /// A worker came back cold: recover its replicas (sharded plane
    /// only).
    pub(crate) fn worker_recover(&mut self, w: usize) {
        self.profile.count(false);
        if let Vdb::Sharded(plane) = &mut self.vdb {
            plane.on_worker_recover(w);
        }
    }

    /// Surrenders the accumulated write counters and the stage profile at
    /// teardown.
    pub(crate) fn drain(&mut self) -> CacheDrainReport {
        self.profile.count(true);
        CacheDrainReport {
            inserts: self.inserts,
            replica_writes: self.replica_writes,
            remote_hops: self.remote_hops,
            profile: self.profile,
        }
    }

    /// The fused lookup for a job on `worker` assigned AC level
    /// `assigned`: per-prompt K for NIRVANA comes from retrieval
    /// similarity (`gate` maps hits to levels); Argus/PAC use the
    /// worker's assigned level. Bit-identical to the old inline sequence:
    /// one `nearest`, one gate call, at most one store fetch. The driver
    /// calls it only where the gate would reuse a perfect neighbour at
    /// `assigned`.
    pub(crate) fn retrieve(
        &mut self,
        worker: usize,
        assigned: AcLevel,
        query: &Embedding,
        t: SimTime,
        gate: &dyn ServingPolicy,
    ) -> RetrieveOutcome {
        self.profile.count(true);
        let (neighbour, locality) = self.vdb.nearest(worker, query);
        let (k_eff, similarity, neighbour_id) = match &neighbour {
            Some(hit) => (
                gate.ac_level_for_hit(assigned, hit.similarity as f64),
                Some(hit.similarity as f64),
                Some(hit.payload),
            ),
            None => (AcLevel(0), None, None),
        };
        if k_eff.skipped_steps() > 0 {
            if let Some(nid) = neighbour_id {
                let outcome = self.store.fetch_routed(
                    CacheKey {
                        prompt_id: nid,
                        k: k_eff.skipped_steps(),
                    },
                    t,
                    locality,
                );
                return RetrieveOutcome {
                    fetch: Some(outcome),
                    k_eff,
                    similarity,
                };
            }
        }
        // No usable neighbour: the retrieval plane had nothing to offer
        // (empty/dead probe set, or a similarity too low to reuse) — a
        // cache miss served by full generation.
        RetrieveOutcome {
            fetch: None,
            k_eff: AcLevel(0),
            similarity: None,
        }
    }
}
