//! # argus-cachestore — intermediate-state storage and its network
//!
//! Approximate caching stores the intermediate noise state of every
//! generated image (144 KB each, §4.7) in shared storage (AWS EFS in the
//! paper) and fetches the best match on every AC request. The fetch
//! traverses a network whose health is *the* input to Argus' strategy
//! switcher: "if, due to network failure or congestion, the retrieval
//! latency increases substantially … Argus initiates a switch to SM"
//! (§4.6, Fig. 11, Fig. 20b).
//!
//! This crate models both pieces:
//!
//! * [`NetworkModel`] — a regime-switching latency process
//!   (normal ≈ 20 ms log-normal; congested ≈ seconds with heavy tail;
//!   outage = timeouts), driven by a deterministic schedule so failure
//!   experiments are reproducible;
//! * [`CacheStore`] — the store keyed by `(prompt, K)`, returning
//!   per-fetch outcomes (hit/miss/failure + latency) that the switcher
//!   monitors.
//!
//! The store holds no per-blob state. Every prompt the retrieval index
//! can return had its states put at every reusable level when it was
//! indexed, and the store never evicts, so whether a state exists depends
//! only on its level: the store remembers the levels `put` has stored (at
//! most the five skipped-step levels), and its memory does not grow with
//! the run.
//!
//! # Example
//!
//! ```
//! use argus_cachestore::{CacheStore, CacheKey, FetchStatus};
//! use argus_des::{rng::RngFactory, SimTime};
//!
//! let mut store = CacheStore::new(RngFactory::new(1));
//! let key = CacheKey { prompt_id: 7, k: 20 };
//! store.put(key);
//! let outcome = store.fetch(key, SimTime::from_secs(1.0));
//! assert_eq!(outcome.status, FetchStatus::Hit);
//! assert!(outcome.latency.as_secs() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use argus_des::rng::{log_normal, RngFactory};
use argus_des::{SimDuration, SimTime};
use rand::rngs::StdRng;

/// Where a cache lookup is served from, relative to the requesting
/// worker — the cost model of the sharded cache plane.
///
/// The monolithic deployment (one Qdrant/EFS endpoint, §4.7) is always
/// [`Locality::Remote`]: every fetch pays the full network round trip.
/// With worker-attached shards, a lookup served by a replica hosted on
/// the requesting worker skips the network entirely and pays only a local
/// index-plus-NVMe read — which also rides through congestion and
/// outages, the fault-domain payoff of sharding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Locality {
    /// Served by a shard replica on the requesting worker: no network hop.
    Local,
    /// Served across the network (the monolithic store, or a replica on
    /// another worker): one full round trip under the current regime.
    Remote,
}

/// Network health regime governing retrieval latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkRegime {
    /// Healthy: retrieval latency is negligible versus denoising savings.
    Normal,
    /// Congested: latencies inflate by two orders of magnitude (Fig. 11).
    Congested,
    /// Outage: the VDB/EFS endpoint is unreachable; fetches time out.
    Outage,
}

/// A deterministic, schedule-driven retrieval-latency process.
#[derive(Debug)]
pub struct NetworkModel {
    rng: StdRng,
    /// Regime transitions, sorted by time; regime at `t` is the last entry
    /// with `time <= t` (Normal before the first entry).
    schedule: Vec<(SimTime, NetworkRegime)>,
    /// Client-side timeout for failed fetches.
    timeout: SimDuration,
}

impl NetworkModel {
    /// Creates a model that stays [`NetworkRegime::Normal`] forever.
    pub fn new(factory: RngFactory) -> Self {
        NetworkModel {
            rng: factory.stream("cachestore-network"),
            schedule: Vec::new(),
            timeout: SimDuration::from_secs(5.0),
        }
    }

    /// Adds a regime transition at `t` (builder style). Transitions may be
    /// added in any order; they are kept sorted.
    pub fn with_event(mut self, t: SimTime, regime: NetworkRegime) -> Self {
        self.schedule.push((t, regime));
        self.schedule.sort_by_key(|&(t, _)| t);
        self
    }

    /// Overrides the client-side fetch timeout.
    pub fn with_timeout(mut self, timeout: SimDuration) -> Self {
        self.timeout = timeout;
        self
    }

    /// The regime in effect at time `t`.
    pub fn regime_at(&self, t: SimTime) -> NetworkRegime {
        self.schedule
            .iter()
            .take_while(|&&(at, _)| at <= t)
            .last()
            .map(|&(_, r)| r)
            .unwrap_or(NetworkRegime::Normal)
    }

    /// Samples one round-trip (VDB query + EFS read) at time `t`.
    /// Returns the latency and whether the request succeeded.
    pub fn sample_round_trip(&mut self, t: SimTime) -> (SimDuration, bool) {
        match self.regime_at(t) {
            NetworkRegime::Normal => {
                // ~5 ms VDB similarity query + ~15 ms EFS read, log-normal.
                let secs = log_normal(&mut self.rng, (0.020f64).ln(), 0.30);
                (SimDuration::from_secs(secs.min(0.5)), true)
            }
            NetworkRegime::Congested => {
                // Median ≈ 1.5 s, heavy upper tail (Fig. 11's spike shape);
                // a small fraction exceeds the timeout and fails outright.
                let secs = log_normal(&mut self.rng, (1.5f64).ln(), 0.8);
                if secs > self.timeout.as_secs() {
                    (self.timeout, false)
                } else {
                    (SimDuration::from_secs(secs), true)
                }
            }
            NetworkRegime::Outage => (self.timeout, false),
        }
    }

    /// Samples one lookup at time `t` with the given [`Locality`].
    ///
    /// [`Locality::Remote`] is exactly [`NetworkModel::sample_round_trip`]
    /// (same RNG stream, same draw — the monolithic path is bit-unchanged).
    /// [`Locality::Local`] models the worker-attached shard read: ~2 ms
    /// log-normal (index probe + NVMe state read), immune to the network
    /// regime, and always successful.
    pub fn sample_lookup(&mut self, t: SimTime, locality: Locality) -> (SimDuration, bool) {
        match locality {
            Locality::Remote => self.sample_round_trip(t),
            Locality::Local => {
                let secs = log_normal(&mut self.rng, (0.002f64).ln(), 0.25);
                (SimDuration::from_secs(secs.min(0.05)), true)
            }
        }
    }

    /// The configured client-side timeout.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }
}

/// Key of a cached intermediate state: which prompt produced it and at
/// which denoising step it was captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Producing prompt id.
    pub prompt_id: u64,
    /// Denoising step at which the state was captured.
    pub k: u32,
}

/// Result status of a cache fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchStatus {
    /// The state was present and retrieved.
    Hit,
    /// The network worked but no state exists for the key.
    Miss,
    /// The request failed (congestion drop or outage timeout).
    Failed,
}

/// Outcome of one cache fetch: what happened and how long it took. The
/// latency stream is what the strategy switcher monitors (§4.6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetchOutcome {
    /// Hit / miss / failure.
    pub status: FetchStatus,
    /// End-to-end retrieval latency (network + lookup).
    pub latency: SimDuration,
}

/// The EFS-like store holding intermediate noise states.
///
/// The scheduler only ever observes latency and hit/miss, never pixel
/// data, so the store keeps no blobs: a fetch hits exactly when `put` has
/// stored a state at the key's capture step. Callers put every reusable
/// level of a prompt together with its index insert (see the crate docs),
/// so at a stored level every prompt the index can return has its state;
/// a fetch at any other level is a miss.
#[derive(Debug)]
pub struct CacheStore {
    network: NetworkModel,
    /// Capture steps `put` has stored, in first-put order.
    levels: Vec<u32>,
    fetches: u64,
    hits: u64,
    failures: u64,
}

impl CacheStore {
    /// Creates a store with a healthy network.
    pub fn new(factory: RngFactory) -> Self {
        Self::with_network(NetworkModel::new(factory))
    }

    /// Creates a store over a custom network model (failure injection).
    pub fn with_network(network: NetworkModel) -> Self {
        CacheStore {
            network,
            levels: Vec::new(),
            fetches: 0,
            hits: 0,
            failures: 0,
        }
    }

    /// Stores the intermediate state for `key` (writes are asynchronous in
    /// the paper's deployment and never block generation, so no latency is
    /// charged here).
    pub fn put(&mut self, key: CacheKey) {
        if !self.levels.contains(&key.k) {
            self.levels.push(key.k);
        }
    }

    /// Fetches the state for `key` at time `t`, sampling the network
    /// (always [`Locality::Remote`] — the monolithic deployment).
    pub fn fetch(&mut self, key: CacheKey, t: SimTime) -> FetchOutcome {
        self.fetch_routed(key, t, Locality::Remote)
    }

    /// Fetches the state for `key` at time `t` from the given
    /// [`Locality`] — the sharded cache plane's cost model: a local-shard
    /// hit is a cheap on-worker read, a remote-shard hop pays the full
    /// round trip, and a miss still pays the lookup that discovered it.
    pub fn fetch_routed(&mut self, key: CacheKey, t: SimTime, locality: Locality) -> FetchOutcome {
        self.fetches += 1;
        let (latency, ok) = self.network.sample_lookup(t, locality);
        let status = if !ok {
            self.failures += 1;
            FetchStatus::Failed
        } else if self.levels.contains(&key.k) {
            self.hits += 1;
            FetchStatus::Hit
        } else {
            FetchStatus::Miss
        };
        FetchOutcome { status, latency }
    }

    /// A background "test retrieval" (§4.6): samples the network without
    /// counting a fetch, used while running in SM mode to detect recovery.
    pub fn probe(&mut self, t: SimTime) -> (SimDuration, bool) {
        self.network.sample_round_trip(t)
    }

    /// Lifetime (fetches, hits, failures) counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.fetches, self.hits, self.failures)
    }

    /// The current network regime (diagnostics).
    pub fn regime_at(&self, t: SimTime) -> NetworkRegime {
        self.network.regime_at(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> CacheStore {
        CacheStore::new(RngFactory::new(11))
    }

    #[test]
    fn any_prompt_at_a_stored_level_hits() {
        let mut s = store();
        s.put(CacheKey {
            prompt_id: 1,
            k: 15,
        });
        // The answer depends on the level alone: the producing prompt and
        // any other prompt the index could return both hit.
        for prompt_id in [1, 2, 1 << 40] {
            let out = s.fetch(CacheKey { prompt_id, k: 15 }, SimTime::from_secs(1.0));
            assert_eq!(out.status, FetchStatus::Hit);
            assert!(!out.latency.is_zero());
        }
        assert_eq!(s.stats(), (3, 3, 0));
    }

    #[test]
    fn a_level_never_put_misses_with_latency() {
        let mut s = store();
        let unstored = CacheKey {
            prompt_id: 99,
            k: 5,
        };
        // Nothing stored yet: every level misses.
        let out = s.fetch(unstored, SimTime::ZERO);
        assert_eq!(out.status, FetchStatus::Miss);
        assert!(!out.latency.is_zero());
        // Storing other levels (repeatedly) leaves this one a miss that
        // still pays the lookup that discovered it.
        for _ in 0..2 {
            s.put(CacheKey {
                prompt_id: 99,
                k: 15,
            });
        }
        let out = s.fetch(unstored, SimTime::from_secs(1.0));
        assert_eq!(out.status, FetchStatus::Miss);
        assert!(!out.latency.is_zero());
        // A miss counts as a fetch, neither a hit nor a failure.
        assert_eq!(s.stats(), (2, 0, 0));
    }

    #[test]
    fn failures_count_as_fetches_not_hits() {
        let net = NetworkModel::new(RngFactory::new(7))
            .with_event(SimTime::from_secs(10.0), NetworkRegime::Outage);
        let mut s = CacheStore::with_network(net);
        let stored = CacheKey {
            prompt_id: 1,
            k: 15,
        };
        s.put(stored);
        assert_eq!(s.fetch(stored, SimTime::ZERO).status, FetchStatus::Hit);
        // The network leg comes first: during the outage a stored and an
        // unstored level both fail after the timeout.
        for k in [15, 5] {
            let out = s.fetch(CacheKey { prompt_id: 1, k }, SimTime::from_secs(20.0));
            assert_eq!(out.status, FetchStatus::Failed);
            assert_eq!(out.latency, SimDuration::from_secs(5.0));
        }
        assert_eq!(s.stats(), (3, 1, 2));
    }

    #[test]
    fn normal_latency_is_tens_of_milliseconds() {
        let mut s = store();
        let key = CacheKey {
            prompt_id: 1,
            k: 10,
        };
        s.put(key);
        let mut total = 0.0;
        for i in 0..500 {
            let out = s.fetch(key, SimTime::from_secs(i as f64));
            assert_eq!(out.status, FetchStatus::Hit);
            total += out.latency.as_secs();
        }
        let mean = total / 500.0;
        // "orders of magnitude less" than the ~2 s of saved denoising.
        assert!(mean > 0.005 && mean < 0.05, "mean retrieval {mean}");
    }

    #[test]
    fn congestion_inflates_latency_and_outage_fails() {
        let net = NetworkModel::new(RngFactory::new(3))
            .with_event(SimTime::from_secs(100.0), NetworkRegime::Congested)
            .with_event(SimTime::from_secs(200.0), NetworkRegime::Outage)
            .with_event(SimTime::from_secs(300.0), NetworkRegime::Normal);
        let mut s = CacheStore::with_network(net);
        let key = CacheKey {
            prompt_id: 2,
            k: 20,
        };
        s.put(key);

        assert_eq!(s.regime_at(SimTime::from_secs(50.0)), NetworkRegime::Normal);
        assert_eq!(
            s.regime_at(SimTime::from_secs(150.0)),
            NetworkRegime::Congested
        );
        assert_eq!(
            s.regime_at(SimTime::from_secs(250.0)),
            NetworkRegime::Outage
        );
        assert_eq!(
            s.regime_at(SimTime::from_secs(350.0)),
            NetworkRegime::Normal
        );

        let normal = s.fetch(key, SimTime::from_secs(50.0));
        let congested = s.fetch(key, SimTime::from_secs(150.0));
        assert!(congested.latency.as_secs() > 10.0 * normal.latency.as_secs());

        let outage = s.fetch(key, SimTime::from_secs(250.0));
        assert_eq!(outage.status, FetchStatus::Failed);
        assert_eq!(outage.latency, SimDuration::from_secs(5.0));

        let recovered = s.fetch(key, SimTime::from_secs(350.0));
        assert_eq!(recovered.status, FetchStatus::Hit);
        assert!(recovered.latency.as_secs() < 0.5);
    }

    #[test]
    fn probe_reflects_regime_without_touching_blobs() {
        let net = NetworkModel::new(RngFactory::new(4))
            .with_event(SimTime::from_secs(10.0), NetworkRegime::Outage);
        let mut s = CacheStore::with_network(net);
        let (lat, ok) = s.probe(SimTime::ZERO);
        assert!(ok);
        assert!(lat.as_secs() < 0.5);
        let (lat, ok) = s.probe(SimTime::from_secs(20.0));
        assert!(!ok);
        assert_eq!(lat, SimDuration::from_secs(5.0));
        assert_eq!(s.stats(), (0, 0, 0)); // probes are not fetches
    }

    #[test]
    fn custom_timeout_is_respected() {
        let net = NetworkModel::new(RngFactory::new(5))
            .with_event(SimTime::ZERO, NetworkRegime::Outage)
            .with_timeout(SimDuration::from_secs(2.0));
        assert_eq!(net.timeout(), SimDuration::from_secs(2.0));
        let mut s = CacheStore::with_network(net);
        let out = s.fetch(CacheKey { prompt_id: 1, k: 0 }, SimTime::ZERO);
        assert_eq!(out.latency, SimDuration::from_secs(2.0));
        assert_eq!(out.status, FetchStatus::Failed);
    }

    #[test]
    fn local_lookups_are_cheap_and_ride_through_outages() {
        let net = NetworkModel::new(RngFactory::new(8))
            .with_event(SimTime::from_secs(100.0), NetworkRegime::Outage);
        let mut s = CacheStore::with_network(net);
        let key = CacheKey {
            prompt_id: 3,
            k: 25,
        };
        s.put(key);
        // Healthy network: local reads are an order of magnitude under the
        // ~20 ms remote round trip.
        let mut total = 0.0;
        for i in 0..200 {
            let out = s.fetch_routed(key, SimTime::from_secs(i as f64 * 0.1), Locality::Local);
            assert_eq!(out.status, FetchStatus::Hit);
            total += out.latency.as_secs();
        }
        let mean = total / 200.0;
        assert!(mean > 0.0005 && mean < 0.01, "local mean {mean}");
        // During the outage the remote path fails but the local shard
        // keeps serving — the fault-domain payoff of worker attachment.
        let remote = s.fetch_routed(key, SimTime::from_secs(150.0), Locality::Remote);
        assert_eq!(remote.status, FetchStatus::Failed);
        let local = s.fetch_routed(key, SimTime::from_secs(150.0), Locality::Local);
        assert_eq!(local.status, FetchStatus::Hit);
        assert!(local.latency.as_secs() < 0.05);
    }

    #[test]
    fn remote_routed_fetch_is_the_plain_fetch() {
        // Same seed, same call sequence: fetch_routed(Remote) must consume
        // the RNG identically to fetch() — the monolithic path is
        // bit-unchanged (the sharded (1,1) parity contract).
        let key = CacheKey {
            prompt_id: 9,
            k: 10,
        };
        let mut a = CacheStore::new(RngFactory::new(12));
        let mut b = CacheStore::new(RngFactory::new(12));
        a.put(key);
        b.put(key);
        for i in 0..50 {
            let t = SimTime::from_secs(i as f64);
            assert_eq!(a.fetch(key, t), b.fetch_routed(key, t, Locality::Remote));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn congested_latencies_show_heavy_tail() {
        let net = NetworkModel::new(RngFactory::new(6))
            .with_event(SimTime::ZERO, NetworkRegime::Congested);
        let mut s = CacheStore::with_network(net);
        let mut lats = Vec::new();
        for i in 0..1000 {
            let (lat, _) = s.probe(SimTime::from_secs(i as f64));
            lats.push(lat.as_secs());
        }
        lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p50 = lats[500];
        let p95 = lats[950];
        assert!(p50 > 0.8 && p50 < 2.5, "p50 {p50}");
        assert!(p95 / p50 > 2.0, "tail ratio {}", p95 / p50);
    }
}
