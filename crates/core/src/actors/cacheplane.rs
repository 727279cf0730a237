//! The cache-plane stage: the retrieval index (flat scan, shared LSH, or
//! the sharded plane) plus the retrieval network.
//!
//! Retrieval ([`CacheStage::retrieve`]) fuses what the old loop did
//! inline: nearest-neighbour search, the pipeline's cache-gate mapping
//! from similarity to an effective AC level, and the store fetch with its
//! locality-dependent network cost. The stage is the one place that
//! decides what a fetch found ([`CacheStage::fetch`]). Index inserts are
//! the asynchronous, off-critical-path writes of §4.7: they charge no
//! latency, and every later lookup observes them in the order the driver
//! issued them. The stage counts its own insert receipts and surrenders
//! them at [`CacheStage::drain`], preserving `replica_writes ≥ inserts`.

use argus_cachestore::{FetchOutcome, FetchStatus, Locality, NetworkModel};
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

/// The cache-plane stage: the retrieval index and the retrieval network,
/// driven by plain method calls in driver event order.
pub(crate) struct CacheStage {
    vdb: Vdb,
    network: NetworkModel,
    inserts: u64,
    replica_writes: u64,
    remote_hops: u64,
    profile: StageCounters,
}

impl CacheStage {
    /// A stage around a pre-warmed index and the run's network.
    pub(crate) fn new(vdb: Vdb, network: NetworkModel) -> Self {
        CacheStage {
            vdb,
            network,
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

    /// SM-mode background network probe (§4.6).
    pub(crate) fn probe(&mut self, t: SimTime) -> (SimDuration, bool) {
        self.profile.count(true);
        self.network.sample_round_trip(t)
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
        if let Some(hit) = neighbour {
            let similarity = hit.similarity as f64;
            let k_eff = gate.ac_level_for_hit(assigned, similarity);
            if k_eff.skipped_steps() > 0 {
                return RetrieveOutcome {
                    fetch: Some(self.fetch(k_eff, t, locality)),
                    k_eff,
                    similarity: Some(similarity),
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

    /// Fetches the neighbour's state captured at skip step `k`. The
    /// network leg decides first: a failed round trip is a failure
    /// whatever the step. A served fetch hits exactly at a capture step,
    /// `AC_LEVELS[1..]`: every prompt the index can return had its state
    /// stored at each of them when it was indexed (the offline pool at
    /// pre-warm, a completion right after its generation), and storage
    /// never evicts. A miss still pays the lookup that discovered it.
    fn fetch(&mut self, k: AcLevel, t: SimTime, locality: Locality) -> FetchOutcome {
        let (latency, ok) = self.network.sample_lookup(t, locality);
        let status = if !ok {
            FetchStatus::Failed
        } else if AC_LEVELS[1..].contains(&k) {
            FetchStatus::Hit
        } else {
            FetchStatus::Miss
        };
        FetchOutcome { status, latency }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_cachestore::{NetworkRegime, FETCH_TIMEOUT};
    use argus_des::rng::RngFactory;

    /// A stage over an empty flat index whose network goes down at 100 s.
    fn stage(seed: u64) -> CacheStage {
        let network = NetworkModel::new(RngFactory::new(seed))
            .with_event(SimTime::from_secs(100.0), NetworkRegime::Outage);
        CacheStage::new(Vdb::Flat(FlatIndex::new()), network)
    }

    #[test]
    fn a_capture_step_hits() {
        let mut s = stage(11);
        for (i, &k) in AC_LEVELS[1..].iter().enumerate() {
            let out = s.fetch(k, SimTime::from_secs(i as f64), Locality::Remote);
            assert_eq!(out.status, FetchStatus::Hit, "{k:?}");
            assert!(!out.latency.is_zero());
        }
    }

    #[test]
    fn an_uncaptured_step_misses_and_still_pays_its_latency() {
        let mut s = stage(11);
        let out = s.fetch(AcLevel(7), SimTime::from_secs(1.0), Locality::Remote);
        assert_eq!(out.status, FetchStatus::Miss);
        assert!(out.latency.as_secs() > 0.001 && out.latency.as_secs() < 0.5);
    }

    #[test]
    fn an_outage_fails_both_before_the_step_matters() {
        let mut s = stage(7);
        for k in [AcLevel(15), AcLevel(7)] {
            let out = s.fetch(k, SimTime::from_secs(150.0), Locality::Remote);
            assert_eq!(out.status, FetchStatus::Failed, "{k:?}");
            assert_eq!(out.latency, FETCH_TIMEOUT);
        }
    }

    #[test]
    fn a_local_read_rides_through_the_outage() {
        let mut s = stage(8);
        let out = s.fetch(AcLevel(25), SimTime::from_secs(150.0), Locality::Local);
        assert_eq!(out.status, FetchStatus::Hit);
        assert!(out.latency.as_secs() < 0.05);
    }

    #[test]
    fn a_remote_fetch_draws_exactly_what_a_probe_draws() {
        // Same seed, same call sequence: a remote fetch consumes the
        // network stream exactly as the SM-mode probe does, healthy and
        // down alike.
        let (mut fetched, mut probed) = (stage(12), stage(12));
        for i in 0..150 {
            let t = SimTime::from_secs(i as f64);
            let out = fetched.fetch(AcLevel(10), t, Locality::Remote);
            let (latency, ok) = probed.probe(t);
            assert_eq!(out.latency, latency, "t = {i} s");
            assert_eq!(out.status != FetchStatus::Failed, ok, "t = {i} s");
        }
    }
}
