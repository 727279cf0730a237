//! # argus-cachestore — the retrieval network
//!
//! Approximate caching stores the intermediate noise state of every
//! generated image (144 KB each, §4.7) in shared storage (AWS EFS in the
//! paper) and fetches the best match on every AC request. The fetch
//! traverses a network whose health is *the* input to Argus' strategy
//! switcher: "if, due to network failure or congestion, the retrieval
//! latency increases substantially … Argus initiates a switch to SM"
//! (§4.6, Fig. 11, Fig. 20b).
//!
//! This crate models that network: [`NetworkModel`] is a regime-switching
//! latency process (normal ≈ 20 ms log-normal; congested ≈ seconds with a
//! heavy tail; outage = timeouts), driven by a deterministic schedule so
//! failure experiments are reproducible, with a [`Locality`] for reads
//! served by a worker-attached shard. [`FetchStatus`] and
//! [`FetchOutcome`] name what one fetch came to.
//!
//! The store itself keeps no state. Every prompt the retrieval index can
//! return had its states captured at every skip step of the AC ladder
//! when it was indexed, and nothing is evicted from storage, so whether a
//! fetch finds a state depends only on the step it asks for. The
//! cache-plane stage in `argus-core` decides a fetch's status from one
//! network draw and that step.
//!
//! # Example
//!
//! ```
//! use argus_cachestore::{Locality, NetworkModel, NetworkRegime};
//! use argus_des::{rng::RngFactory, SimTime};
//!
//! let mut net = NetworkModel::new(RngFactory::new(1))
//!     .with_event(SimTime::from_secs(60.0), NetworkRegime::Outage);
//! let (latency, ok) = net.sample_lookup(SimTime::from_secs(1.0), Locality::Remote);
//! assert!(ok && latency.as_secs() < 0.5);
//! // During the outage a remote fetch times out; a local shard read does not.
//! assert!(!net.sample_lookup(SimTime::from_secs(90.0), Locality::Remote).1);
//! assert!(net.sample_lookup(SimTime::from_secs(90.0), Locality::Local).1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use argus_des::rng::{log_normal, RngFactory};
use argus_des::{SimDuration, SimTime};
use rand::rngs::StdRng;

/// Client-side timeout of a remote fetch: an outage costs exactly this,
/// and a congested round trip beyond it fails.
pub const FETCH_TIMEOUT: SimDuration = SimDuration::from_micros(5_000_000);

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
}

impl NetworkModel {
    /// Creates a model that stays [`NetworkRegime::Normal`] forever.
    pub fn new(factory: RngFactory) -> Self {
        NetworkModel {
            rng: factory.stream("cachestore-network"),
            schedule: Vec::new(),
        }
    }

    /// Adds a regime transition at `t` (builder style). Transitions may be
    /// added in any order; they are kept sorted.
    pub fn with_event(mut self, t: SimTime, regime: NetworkRegime) -> Self {
        self.schedule.push((t, regime));
        self.schedule.sort_by_key(|&(t, _)| t);
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
                if secs > FETCH_TIMEOUT.as_secs() {
                    (FETCH_TIMEOUT, false)
                } else {
                    (SimDuration::from_secs(secs), true)
                }
            }
            NetworkRegime::Outage => (FETCH_TIMEOUT, false),
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
}

/// Result status of a cache fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchStatus {
    /// The state was present and retrieved.
    Hit,
    /// The network worked but no state exists at the requested step.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_latency_is_tens_of_milliseconds() {
        let mut net = NetworkModel::new(RngFactory::new(11));
        let mut total = 0.0;
        for i in 0..500 {
            let (latency, ok) = net.sample_round_trip(SimTime::from_secs(i as f64));
            assert!(ok);
            total += latency.as_secs();
        }
        let mean = total / 500.0;
        // "orders of magnitude less" than the ~2 s of saved denoising.
        assert!(mean > 0.005 && mean < 0.05, "mean retrieval {mean}");
    }

    #[test]
    fn congestion_inflates_latency_and_outage_fails() {
        let mut net = NetworkModel::new(RngFactory::new(3))
            .with_event(SimTime::from_secs(300.0), NetworkRegime::Normal)
            .with_event(SimTime::from_secs(100.0), NetworkRegime::Congested)
            .with_event(SimTime::from_secs(200.0), NetworkRegime::Outage);

        // Events added out of order are kept sorted.
        let regime = |s: f64| net.regime_at(SimTime::from_secs(s));
        assert_eq!(regime(50.0), NetworkRegime::Normal);
        assert_eq!(regime(150.0), NetworkRegime::Congested);
        assert_eq!(regime(250.0), NetworkRegime::Outage);
        assert_eq!(regime(350.0), NetworkRegime::Normal);

        let (normal, _) = net.sample_round_trip(SimTime::from_secs(50.0));
        let (congested, _) = net.sample_round_trip(SimTime::from_secs(150.0));
        assert!(congested.as_secs() > 10.0 * normal.as_secs());

        let outage = net.sample_round_trip(SimTime::from_secs(250.0));
        assert_eq!(outage, (FETCH_TIMEOUT, false));
        assert_eq!(FETCH_TIMEOUT, SimDuration::from_secs(5.0));

        let (recovered, ok) = net.sample_round_trip(SimTime::from_secs(350.0));
        assert!(ok && recovered.as_secs() < 0.5);
    }

    #[test]
    fn local_lookups_are_cheap_and_ride_through_outages() {
        let mut net = NetworkModel::new(RngFactory::new(8))
            .with_event(SimTime::from_secs(100.0), NetworkRegime::Outage);
        // Healthy network: local reads are an order of magnitude under the
        // ~20 ms remote round trip.
        let mut total = 0.0;
        for i in 0..200 {
            let (latency, ok) =
                net.sample_lookup(SimTime::from_secs(i as f64 * 0.1), Locality::Local);
            assert!(ok);
            total += latency.as_secs();
        }
        let mean = total / 200.0;
        assert!(mean > 0.0005 && mean < 0.01, "local mean {mean}");
        // During the outage the remote path fails but the local shard
        // keeps serving — the fault-domain payoff of worker attachment.
        let t = SimTime::from_secs(150.0);
        assert_eq!(
            net.sample_lookup(t, Locality::Remote),
            (FETCH_TIMEOUT, false)
        );
        let (local, ok) = net.sample_lookup(t, Locality::Local);
        assert!(ok && local.as_secs() < 0.05);
    }

    #[test]
    fn congested_latencies_show_heavy_tail() {
        let mut net = NetworkModel::new(RngFactory::new(6))
            .with_event(SimTime::ZERO, NetworkRegime::Congested);
        let mut lats: Vec<f64> = (0..1000)
            .map(|i| {
                let (latency, _) = net.sample_round_trip(SimTime::from_secs(i as f64));
                latency.as_secs()
            })
            .collect();
        lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p50 = lats[500];
        let p95 = lats[950];
        assert!(p50 > 0.8 && p50 < 2.5, "p50 {p50}");
        assert!(p95 / p50 > 2.0, "tail ratio {}", p95 / p50);
    }
}
