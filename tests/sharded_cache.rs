//! The sharded cache plane end-to-end (`RunConfig::with_sharded_cache`).
//!
//! Three contracts pinned here:
//!
//! * **Unsharded parity** — `with_sharded_cache(1, 1)` is the external
//!   monolithic deployment and must be *bit-identical* to
//!   `with_lsh_cache` (same totals, same minutes, same retrieval stats);
//! * **Bit-determinism** — sharded runs are reproducible per seed, like
//!   every other configuration (`tests/determinism.rs`);
//! * **Fault-driven rebalance** — killing workers mid-run degrades the
//!   cache hit-rate (shards lose replicas) without crashing the run, and
//!   replication bounds the damage: an `R = 2` plane keeps a strictly
//!   better hit-rate through the same fault than an `R = 1` plane, whose
//!   dead shards lose their entries outright.

use argus::core::{pipeline_for, FaultEvent, Policy, RunConfig, RunOutcome};
use argus::workload::{steady, twitter_like};

/// The quickstart trace (`examples/quickstart.rs`), truncated so the
/// debug-mode suite stays quick.
fn quickstart(policy: Policy) -> RunConfig {
    let mut cfg = RunConfig::new(policy, twitter_like(42, 20)).with_seed(42);
    cfg.classifier_train_size = 1500;
    cfg
}

fn assert_identical(a: &RunOutcome, b: &RunOutcome) {
    assert_eq!(a.totals, b.totals);
    assert_eq!(a.minutes, b.minutes);
    assert_eq!(a.level_completions, b.level_completions);
    assert_eq!(a.quality_samples, b.quality_samples);
    assert_eq!(a.retrieval, b.retrieval);
    assert_eq!(a.switches, b.switches);
}

#[test]
fn unsharded_plane_is_bit_identical_to_monolithic_lsh() {
    let lsh = quickstart(Policy::Argus).with_lsh_cache().run();
    let plane = quickstart(Policy::Argus).with_sharded_cache(1, 1).run();
    assert_identical(&lsh, &plane);
    // The parity is only meaningful if the cache actually served lookups.
    assert!(plane.retrieval.lookups > 100, "{:?}", plane.retrieval);
    assert!(plane.retrieval.hits() > 0, "{:?}", plane.retrieval);
}

#[test]
fn sharded_runs_are_bit_deterministic() {
    let run = || quickstart(Policy::Argus).with_sharded_cache(4, 2).run();
    let a = run();
    let b = run();
    assert_identical(&a, &b);
    assert!(a.totals.completed > 0);
}

#[test]
fn sharded_hit_rate_stays_near_monolithic_at_equal_capacity() {
    // Locality routing costs a sliver of cross-shard recall; per-shard
    // FIFO caps cost a sliver of effective capacity under skew. Together
    // they must stay a sliver on the serving path.
    let mono = quickstart(Policy::Argus).with_lsh_cache().run();
    let plane = quickstart(Policy::Argus).with_sharded_cache(8, 2).run();
    assert_eq!(mono.totals.offered, plane.totals.offered);
    let (hm, hp) = (mono.retrieval.hit_rate(), plane.retrieval.hit_rate());
    assert!(
        hp > hm - 0.15,
        "sharded hit-rate {hp:.3} vs monolithic {hm:.3}"
    );
    // Headline metrics move only marginally.
    let ratio = plane.totals.completed as f64 / mono.totals.completed as f64;
    assert!((ratio - 1.0).abs() < 0.05, "completed ratio {ratio:.4}");
    let dq = (plane.totals.effective_accuracy() - mono.totals.effective_accuracy()).abs();
    assert!(dq < 0.5, "quality gap {dq:.3}");
}

#[test]
fn every_policy_runs_on_the_sharded_plane() {
    // The plane sits behind the pipeline's CacheGate, so every policy gets
    // it for free: cache-using policies retrieve through it, the rest
    // simply never open the gate.
    for policy in Policy::ALL {
        let out = RunConfig::new(policy, steady(90.0, 5))
            .with_seed(3)
            .with_sharded_cache(4, 2)
            .run();
        assert!(
            out.totals.completed > 300,
            "{policy}: completed {}",
            out.totals.completed
        );
        if pipeline_for(policy).uses_cache_store() {
            assert!(out.retrieval.lookups > 0, "{policy}: no lookups");
        } else {
            assert_eq!(out.retrieval.lookups, 0, "{policy}: unexpected lookups");
        }
    }
}

fn faulted(replication: usize) -> RunOutcome {
    // Workers 0 and 1 die at minute 4 and return (cold) at minute 9. With
    // 4 shards over 8 workers, R = 1 places exactly one replica of shards
    // 0 and 1 on the dead workers (their entries are lost); R = 2 stripes
    // second copies onto workers 4 and 5, which take over.
    RunConfig::new(Policy::Argus, steady(100.0, 14))
        .with_seed(11)
        .with_sharded_cache(4, replication)
        .with_faults(vec![
            FaultEvent::WorkerFail {
                at_minute: 4.0,
                workers: vec![0, 1],
            },
            FaultEvent::WorkerRecover {
                at_minute: 9.0,
                workers: vec![0, 1],
            },
        ])
        .run()
}

#[test]
fn worker_fault_degrades_hit_rate_without_crashing() {
    let out = faulted(1);
    // The run keeps serving through the fault (reduced capacity, deeper
    // approximation) — degraded, never down.
    assert!(
        out.totals.completed as f64 > 0.75 * out.totals.offered as f64,
        "{:?}",
        out.totals
    );
    assert!(out.retrieval.lookups > 200, "{:?}", out.retrieval);
    // The unreplicated plane lost shards: the hit-rate is visibly below
    // the fault-free run's (queries whose probe set died serve misses).
    let clean = RunConfig::new(Policy::Argus, steady(100.0, 14))
        .with_seed(11)
        .with_sharded_cache(4, 1)
        .run();
    assert!(
        out.retrieval.hit_rate() < clean.retrieval.hit_rate() - 0.005,
        "faulted {:.4} vs clean {:.4}",
        out.retrieval.hit_rate(),
        clean.retrieval.hit_rate()
    );
}

#[test]
fn replication_preserves_entries_through_the_fault() {
    let r1 = faulted(1);
    let r2 = faulted(2);
    // Same compute-plane fault; only the cache plane differs. The
    // replicated plane fails over instead of losing shard contents, so
    // its hit-rate rides through the fault essentially unharmed.
    assert!(
        r2.retrieval.hit_rate() > r1.retrieval.hit_rate() + 0.005,
        "R=2 hit-rate {:.4} not above R=1 {:.4}",
        r2.retrieval.hit_rate(),
        r1.retrieval.hit_rate()
    );
    assert!(
        r2.retrieval.hit_rate() > 0.99,
        "R=2 hit-rate {:.4} did not ride through the fault",
        r2.retrieval.hit_rate()
    );
}
