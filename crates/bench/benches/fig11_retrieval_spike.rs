//! Fig. 11 — cache-retrieval latency spiking under network congestion,
//! the trigger for the AC→SM switch.
//!
//! Expected shape (paper): tens-of-milliseconds retrievals in the healthy
//! regime; a congestion window pushes latencies up by ~two orders of
//! magnitude, after which Argus switches strategy.

use argus_bench::{banner, f, print_table};
use argus_cachestore::{FetchStatus, NetworkModel, NetworkRegime};
use argus_des::rng::RngFactory;
use argus_des::SimTime;

fn main() {
    banner("F11", "Cache-retrieval latency under congestion", "Fig. 11");
    let mut net = NetworkModel::new(RngFactory::new(11))
        .with_event(SimTime::from_minutes(20.0), NetworkRegime::Congested)
        .with_event(SimTime::from_minutes(35.0), NetworkRegime::Normal);

    // One retrieval per 30 s over a 60-minute window, of a state captured
    // at skip step 20: every round trip the network serves is a hit.
    let (mut fetches, mut hits, mut failures) = (0u64, 0u64, 0u64);
    let mut rows = Vec::new();
    for i in 0..120 {
        let t = SimTime::from_secs(i as f64 * 30.0);
        let (latency, ok) = net.sample_round_trip(t);
        let status = if ok {
            FetchStatus::Hit
        } else {
            FetchStatus::Failed
        };
        fetches += 1;
        hits += u64::from(ok);
        failures += u64::from(!ok);
        if i % 6 == 0 {
            rows.push(vec![
                f(t.as_minutes(), 0),
                f(latency.as_secs() * 1000.0, 1),
                format!("{:?}", net.regime_at(t)),
                format!("{status:?}"),
            ]);
        }
    }
    print_table(&["minute", "retrieval (ms)", "regime", "status"], &rows);
    println!("\n{fetches} fetches, {hits} hits, {failures} failures during the window");
}
