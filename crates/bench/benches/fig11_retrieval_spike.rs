//! Fig. 11 — cache-retrieval latency spiking under network congestion,
//! the trigger for the AC→SM switch.
//!
//! Expected shape (paper): tens-of-milliseconds retrievals in the healthy
//! regime; a congestion window pushes latencies up by ~two orders of
//! magnitude, after which Argus switches strategy.

use argus_bench::{banner, f, print_table};
use argus_cachestore::{CacheKey, CacheStore, NetworkModel, NetworkRegime};
use argus_des::rng::RngFactory;
use argus_des::SimTime;

fn main() {
    banner("F11", "Cache-retrieval latency under congestion", "Fig. 11");
    let net = NetworkModel::new(RngFactory::new(11))
        .with_event(SimTime::from_minutes(20.0), NetworkRegime::Congested)
        .with_event(SimTime::from_minutes(35.0), NetworkRegime::Normal);
    let mut store = CacheStore::with_network(net);
    let key = CacheKey {
        prompt_id: 1,
        k: 20,
    };
    store.put(key);

    // One retrieval per 30 s over a 60-minute window.
    let mut rows = Vec::new();
    for i in 0..120 {
        let t = SimTime::from_secs(i as f64 * 30.0);
        let out = store.fetch(key, t);
        if i % 6 == 0 {
            rows.push(vec![
                f(t.as_minutes(), 0),
                f(out.latency.as_secs() * 1000.0, 1),
                format!("{:?}", store.regime_at(t)),
                format!("{:?}", out.status),
            ]);
        }
    }
    print_table(&["minute", "retrieval (ms)", "regime", "status"], &rows);
    let (fetches, hits, failures) = store.stats();
    println!("\n{fetches} fetches, {hits} hits, {failures} failures during the window");
}
