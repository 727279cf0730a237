//! The cache-plane stage: the retrieval index (flat scan, shared LSH, or
//! the sharded plane) plus the blob [`CacheStore`], behind one mailbox.
//!
//! Retrieval ([`CacheMsg::Retrieve`]) is a request/reply round trip that
//! fuses what the old loop did inline: nearest-neighbour search, the
//! pipeline's cache-gate mapping from similarity to an effective AC
//! level, and the store fetch with its locality-dependent network cost.
//! Index inserts and blob puts are fire-and-forget — they are
//! asynchronous, off-critical-path writes (§4.7), and the FIFO mailbox
//! guarantees every later lookup still observes them in exactly the old
//! order. The stage counts its own insert receipts and surrenders them at
//! [`CacheMsg::Drain`], preserving `replica_writes ≥ inserts` without a
//! per-write rendezvous.

use std::sync::Arc;

use argus_cachestore::{CacheKey, CacheStore, FetchOutcome, Locality};
use argus_des::{SimDuration, SimTime};
use argus_embed::Embedding;
use argus_models::{AcLevel, AC_LEVELS};
use argus_obs::StageCounters;
use argus_vdb::{FlatIndex, LshIndex, SearchHit, SharedIndex};

use super::{ActorPacing, OneshotSender, StageHandle};
use crate::cacheplane::CachePlane;
use crate::pipeline::ServingPolicy;

/// The retrieval index behind approximate caching: the exact flat scan of
/// the paper's testbed, the shared multi-probe LSH index for the
/// shared-VDB deployment at scale (§4.7), or the sharded cache plane
/// distributed across worker-attached shards
/// ([`crate::system::RunConfig::with_sharded_cache`]).
pub(crate) enum Vdb {
    Flat(FlatIndex<u64>),
    Lsh(SharedIndex<u64, LshIndex<u64>>),
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
            Vdb::Lsh(s) => {
                s.insert(embedding, id);
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
            Vdb::Lsh(s) => (s.nearest(query), Locality::Remote),
            Vdb::Sharded(p) => p.lookup(worker, query),
        }
    }
}

/// What a retrieval round trip resolved to, mirroring the old inline
/// control flow: `fetch` is the store round trip when one happened (a
/// usable neighbour above the gate); without one the lookup is a miss.
pub(crate) struct RetrieveReply {
    pub fetch: Option<FetchOutcome>,
    pub k_eff: AcLevel,
    pub similarity: Option<f64>,
}

/// Cache-plane messages, in driver event order.
pub(crate) enum CacheMsg {
    /// A buffer of writes delivered as one mailbox message. The driver
    /// coalesces fire-and-forget writes and flushes the buffer before any
    /// request/reply rendezvous, so every lookup still observes all prior
    /// writes in the old order — only the wake-per-message cost goes away.
    Batch(Vec<CacheMsg>),
    /// Nearest-neighbour + gate + store fetch for a job on `worker`
    /// assigned AC level `assigned`. The driver sends it only where the
    /// gate would reuse a perfect neighbour at `assigned`.
    Retrieve {
        worker: usize,
        assigned: AcLevel,
        query: Embedding,
        t: SimTime,
        reply: OneshotSender<RetrieveReply>,
    },
    /// Serving-time index insert from a completion on `origin`
    /// (fire-and-forget; receipts accumulate stage-locally).
    Insert {
        origin: usize,
        embedding: Embedding,
        id: u64,
    },
    /// Persist every reusable intermediate state of a completed prompt
    /// (the per-level blob puts, coalesced into one message).
    PutLevels { id: u64, t: SimTime },
    /// SM-mode background network probe (§4.6).
    Probe {
        t: SimTime,
        reply: OneshotSender<(SimDuration, bool)>,
    },
    /// A worker crashed: fail its hosted replicas (sharded plane only).
    WorkerFail(usize),
    /// A worker came back cold: recover its replicas.
    WorkerRecover(usize),
    /// Surrender the accumulated write counters and the stage profile at
    /// teardown.
    Drain {
        reply: OneshotSender<CacheDrainReport>,
    },
}

/// Everything the cache-plane stage surrenders at teardown.
pub(crate) struct CacheDrainReport {
    pub inserts: u64,
    pub replica_writes: u64,
    pub remote_hops: u64,
    /// Logical message counters for the stage profile (§12 telemetry).
    pub profile: StageCounters,
}

struct CacheStage {
    vdb: Vdb,
    store: CacheStore,
    pipeline: Arc<dyn ServingPolicy>,
    inserts: u64,
    replica_writes: u64,
    remote_hops: u64,
    profile: StageCounters,
}

impl CacheStage {
    fn handle(&mut self, msg: CacheMsg) {
        match &msg {
            CacheMsg::Batch(msgs) => self.profile.note_batch(msgs.len()),
            m => {
                self.profile.processed += 1;
                if matches!(
                    m,
                    CacheMsg::Retrieve { .. } | CacheMsg::Probe { .. } | CacheMsg::Drain { .. }
                ) {
                    self.profile.replies += 1;
                }
            }
        }
        match msg {
            CacheMsg::Batch(msgs) => {
                for m in msgs {
                    self.handle(m);
                }
            }
            CacheMsg::Retrieve {
                worker,
                assigned,
                query,
                t,
                reply,
            } => reply.send(self.retrieve(worker, assigned, &query, t)),
            CacheMsg::Insert {
                origin,
                embedding,
                id,
            } => {
                let (writes, hops) = self.vdb.insert(Some(origin), embedding, id);
                // An insert dropped by a fully-dead cache plane persisted
                // nothing, so it must not count toward the
                // write-amplification counters (`replica_writes >=
                // inserts` stays an invariant).
                if writes > 0 {
                    self.inserts += 1;
                    self.replica_writes += u64::from(writes);
                    self.remote_hops += u64::from(hops);
                }
            }
            CacheMsg::PutLevels { id, t } => {
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
            CacheMsg::Probe { t, reply } => reply.send(self.store.probe(t)),
            CacheMsg::WorkerFail(w) => {
                if let Vdb::Sharded(plane) = &mut self.vdb {
                    plane.on_worker_fail(w);
                }
            }
            CacheMsg::WorkerRecover(w) => {
                if let Vdb::Sharded(plane) = &mut self.vdb {
                    plane.on_worker_recover(w);
                }
            }
            CacheMsg::Drain { reply } => reply.send(CacheDrainReport {
                inserts: self.inserts,
                replica_writes: self.replica_writes,
                remote_hops: self.remote_hops,
                profile: self.profile,
            }),
        }
    }

    /// The fused lookup: per-prompt K for NIRVANA comes from retrieval
    /// similarity (the cache gate maps hits to levels); Argus/PAC use the
    /// worker's assigned level. Bit-identical to the old inline sequence:
    /// one `nearest`, one gate call, at most one store fetch.
    fn retrieve(
        &mut self,
        worker: usize,
        assigned: AcLevel,
        query: &Embedding,
        t: SimTime,
    ) -> RetrieveReply {
        let (neighbour, locality) = self.vdb.nearest(worker, query);
        let (k_eff, similarity, neighbour_id) = match &neighbour {
            Some(hit) => (
                self.pipeline
                    .ac_level_for_hit(assigned, hit.similarity as f64),
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
                return RetrieveReply {
                    fetch: Some(outcome),
                    k_eff,
                    similarity,
                };
            }
        }
        // No usable neighbour: the retrieval plane had nothing to offer
        // (empty/dead probe set, or a similarity too low to reuse) — a
        // cache miss served by full generation.
        RetrieveReply {
            fetch: None,
            k_eff: AcLevel(0),
            similarity: None,
        }
    }
}

/// Spawns the cache-plane stage around a pre-warmed index and store.
pub(crate) fn spawn(
    pacing: ActorPacing,
    vdb: Vdb,
    store: CacheStore,
    pipeline: Arc<dyn ServingPolicy>,
) -> StageHandle<CacheMsg> {
    let stage = CacheStage {
        vdb,
        store,
        pipeline,
        inserts: 0,
        replica_writes: 0,
        remote_hops: 0,
        profile: StageCounters::default(),
    };
    StageHandle::spawn("cache-plane", pacing, stage, CacheStage::handle)
}
