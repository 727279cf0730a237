//! Whole-run goldens for the readers of per-job state and for the cache
//! store's answers.
//!
//! The driver keeps per-job state — prompt, arrival time, the cascade's
//! escalation flag and first-pass ratio — only while a job is live or
//! among the recent arrivals that retraining and the accuracy sample read,
//! and the cache store keeps no state at all: a fetch the network serves
//! hits exactly at a capture step, rather than where a map of every blob
//! (and later a record of the stored steps) had an entry. Each of the
//! first six fingerprints below was captured on the tree that still
//! materialised the whole trace up front and kept that map, so these runs
//! pin that none of these changes moved a single outcome. Every
//! configuration exercises a reader no older golden covers:
//!
//! * drift, drift-triggered retraining and a congested window on the
//!   exact flat index (the recent-arrival pool, the retraining path and
//!   the AC→SM switcher);
//! * online learning (the per-completion classifier update);
//! * a cascade with escalations (the escalation flag and first-pass
//!   ratio, and the original arrival of a re-dispatched job);
//! * an overload whose backlog outgrows the recent-arrival window, so
//!   live jobs older than the last 3,000 arrivals must stay addressable;
//! * a sharded 4×2 plane through a worker fail and recover, a spot
//!   preemption storm and a network outage that switches AC→SM→AC
//!   (rerouted jobs, store answers on a degraded plane);
//! * NIRVANA on the shared LSH index (similarity-chosen levels);
//! * a custom gate that reuses every neighbour at skip step 7, which no
//!   completion captures: every fetch the network serves misses. Its
//!   golden was captured on the tree whose store recorded the steps it
//!   had stored.
//!
//! One golden has moved since: `golden_drift`. In that run the congested
//! window switches AC→SM during job 1449's retrieval, and the switch's
//! reallocation re-enters the dispatcher and starts the job on the same
//! worker at `Sm(SD-XL)`. The batch-1 start path ignored that its own
//! start was then refused: it dispatched the job a second time, scheduled
//! a second completion and completed the job with the stale `Ac(5)`
//! record. Every start now goes through one path that stands down when a
//! reentrant start got there first, so the golden was re-captured after
//! that fix. The job completes at `Sm(SD-XL)`, which moves one completion
//! from `Ac(5)` to `Sm(SD-XL)` and the quality sums and reservoir with it.
//! [`every_job_is_dispatched_once_at_the_level_it_completes`] pins the
//! fix itself, job by job.

use argus::cachestore::NetworkRegime;
use argus::core::{
    preemption_events, ArgusPolicy, CacheGate, CascadeConfig, Dispatcher, FaultEvent,
    InitialPlacement, LevelPlanner, Policy, RouteCtx, RunConfig, RunOutcome, ServingPolicy,
    SpanKind, StrategySwitcher, TelemetryConfig, TickAction, WorkerSelector,
};
use argus::models::{AcLevel, ApproxLevel, GpuArch, Strategy};
use argus::prompts::DriftSchedule;
use argus::workload::{preemption_storm, steady, twitter_like, Trace};

/// The driver's recent-arrival window (`RECENT_POOL`): the prompts drift
/// retraining relabels and the per-tick accuracy sample reads.
const RECENT_POOL: u64 = 3_000;

fn cfg(policy: Policy, trace: Trace, seed: u64) -> RunConfig {
    let mut c = RunConfig::new(policy, trace).with_seed(seed);
    c.classifier_train_size = 800;
    c
}

/// FNV-1a over the little-endian bytes of each word.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Whole-run fingerprint: every counter, the bit patterns of the float
/// aggregates, and hashes of the sampled series, so one changed RNG draw,
/// store answer or reordered float operation fails loudly.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    /// Offered, completed, violations, in-SLO completions, model loads.
    counts: [u64; 5],
    /// Bits of the quality sum, the relative-quality sum and the makespan.
    float_bits: [u64; 3],
    /// Per assigned level (by ordinal): cache hits, misses, failures.
    cache: Vec<((u8, u32), [u64; 3])>,
    /// Store round trips, index inserts, and the bits of the mean and
    /// p99 retrieval latency.
    retrieval: [u64; 4],
    /// Completions per executed level (by ordinal).
    level_completions: Vec<((u8, u32), u64)>,
    /// Hash of the quality reservoir's bits, in reservoir order.
    quality_samples: u64,
    retrain_minutes: Vec<u64>,
    /// Hash of the per-tick `(minute, accuracy bits)` log.
    classifier_accuracy: u64,
    switches: (u64, u64),
    /// Hash of every cascade tally, rate and the quality delta (0 when
    /// the cascade is off).
    cascade: u64,
}

fn fingerprint(out: &RunOutcome) -> Fingerprint {
    let t = &out.totals;
    let r = &out.retrieval;
    Fingerprint {
        counts: [
            t.offered,
            t.completed,
            t.violations,
            t.in_slo,
            t.model_loads,
        ],
        float_bits: [
            t.quality_sum.to_bits(),
            t.relative_quality_sum.to_bits(),
            out.makespan_secs.to_bits(),
        ],
        cache: r
            .per_level
            .iter()
            .map(|(l, c)| (l.ordinal(), [c.hits, c.misses, c.failures]))
            .collect(),
        retrieval: [
            r.lookups,
            r.inserts,
            r.mean_latency.to_bits(),
            r.p99_latency.to_bits(),
        ],
        level_completions: out
            .level_completions
            .iter()
            .map(|&(l, n)| (l.ordinal(), n))
            .collect(),
        quality_samples: fnv(out
            .quality_samples
            .iter()
            .flat_map(|&(s, b)| [s.to_bits(), b.to_bits()])),
        retrain_minutes: out.retrain_minutes.clone(),
        classifier_accuracy: fnv(out
            .classifier_accuracy
            .iter()
            .flat_map(|&(m, a)| [m, a.to_bits()])),
        switches: out.switches,
        cascade: out.cascade.as_ref().map_or(0, |c| {
            let ordinal = |l: &argus::models::ApproxLevel| {
                let (s, k) = l.ordinal();
                u64::from(s) << 32 | u64::from(k)
            };
            let counts = [&c.first_pass, &c.escalated, &c.accepted]
                .into_iter()
                .flat_map(|m| m.iter().flat_map(|(l, &n)| [ordinal(l), n]));
            let rates = c
                .escalation_rate
                .iter()
                .flat_map(|(l, r)| [ordinal(l), r.to_bits()]);
            fnv(counts
                .chain(rates)
                .chain([c.escalated_completed, c.quality_delta.to_bits()]))
        }),
    }
}

/// Drift, drift-triggered retraining and a congested window on the exact
/// flat index.
fn drift_cfg() -> RunConfig {
    let trace = twitter_like(42, 30);
    let jobs = trace.total_queries() as u64;
    cfg(Policy::Argus, trace, 16101)
        .with_drift(DriftSchedule {
            start_at: jobs / 3,
            ramp: jobs / 6,
            max_fraction: 0.65,
        })
        .with_network_events(vec![
            (15.0, NetworkRegime::Congested),
            (25.0, NetworkRegime::Normal),
        ])
}

#[test]
fn drift_retraining_on_a_congested_flat_index_matches_the_golden() {
    let out = drift_cfg().run();
    assert!(!out.retrain_minutes.is_empty(), "drift never retrained");
    assert_eq!(fingerprint(&out), golden_drift());
}

/// The drift run's congested window switches AC→SM while jobs retrieve,
/// and a switch's reallocation can re-enter the dispatcher and start the
/// very worker whose start is being planned. The run has no faults,
/// preemptions or cascade, so every job must start exactly once, and
/// complete at the level its one start executed.
#[test]
fn every_job_is_dispatched_once_at_the_level_it_completes() {
    let out = drift_cfg().with_telemetry(TelemetryConfig::full()).run();
    let spans = out.spans.as_ref().expect("full telemetry records spans");
    assert_eq!(spans.dropped, 0);
    let offered = out.totals.offered as usize;
    let mut dispatched: Vec<Vec<Option<ApproxLevel>>> = vec![Vec::new(); offered];
    let mut finished: Vec<Option<ApproxLevel>> = vec![None; offered];
    for ev in &spans.events {
        match ev.kind {
            SpanKind::Dispatch => dispatched[ev.job as usize].push(ev.level),
            SpanKind::Complete | SpanKind::Violation => finished[ev.job as usize] = ev.level,
            _ => {}
        }
    }
    let not_once: Vec<String> = dispatched
        .iter()
        .enumerate()
        .filter(|(_, levels)| levels.len() != 1)
        .map(|(job, levels)| format!("job {job} dispatched at {levels:?}"))
        .collect();
    assert!(
        not_once.is_empty(),
        "jobs not dispatched exactly once: {not_once:?}"
    );
    let stale: Vec<String> = dispatched
        .iter()
        .zip(&finished)
        .enumerate()
        .filter(|(_, (levels, done))| levels[0] != **done)
        .map(|(job, (levels, done))| {
            format!(
                "job {job} dispatched at {:?}, finished at {done:?}",
                levels[0]
            )
        })
        .collect();
    assert!(
        stale.is_empty(),
        "jobs finished at a level their pass did not execute: {stale:?}"
    );
    // Telemetry does not perturb the run: this is the golden run.
    assert_eq!(fingerprint(&out), golden_drift());
}

#[test]
fn online_learning_matches_the_golden() {
    let out = cfg(Policy::Argus, twitter_like(13, 10), 13)
        .with_online_learning()
        .run();
    assert!(out.retrain_minutes.is_empty());
    assert_eq!(fingerprint(&out), golden_online());
}

#[test]
fn cascade_escalations_match_the_golden() {
    let out = cfg(Policy::Argus, twitter_like(11, 10), 11)
        .with_cascade(CascadeConfig::new())
        .run();
    let stats = out.cascade.as_ref().expect("cascade run carries stats");
    assert!(stats.escalated_completed > 0, "{stats:?}");
    assert_eq!(fingerprint(&out), golden_cascade());
}

#[test]
fn overload_beyond_the_recent_window_matches_the_golden() {
    let out = cfg(Policy::Argus, steady(600.0, 15), 11).run();
    // Jobs still queued at a minute boundary: nothing is lost with every
    // worker alive, so arrivals not yet completed are all live.
    let (mut arrived, mut completed, mut peak) = (0u64, 0u64, 0u64);
    for m in &out.minutes {
        arrived += m.offered;
        completed += m.completed;
        peak = peak.max(arrived - completed);
    }
    assert!(
        peak > RECENT_POOL,
        "backlog peaked at {peak}, inside the recent window"
    );
    assert_eq!(fingerprint(&out), golden_overload());
}

#[test]
fn sharded_plane_through_faults_and_an_outage_matches_the_golden() {
    let mut faults = vec![
        FaultEvent::WorkerFail {
            at_minute: 4.0,
            workers: vec![1, 5],
        },
        FaultEvent::WorkerRecover {
            at_minute: 7.0,
            workers: vec![1, 5],
        },
    ];
    faults.extend(preemption_events(
        &preemption_storm(17, 8, 4, 0.75, 9.0),
        30.0,
    ));
    let out = cfg(Policy::Argus, twitter_like(17, 20), 17)
        .with_sharded_cache(4, 2)
        .with_spot_pool(GpuArch::A10G, 4, 0.6)
        .with_faults(faults)
        .with_network_events(vec![
            (12.0, NetworkRegime::Outage),
            (15.0, NetworkRegime::Normal),
        ])
        .run();
    assert!(
        out.switches.0 >= 1 && out.switches.1 >= 1,
        "{:?}",
        out.switches
    );
    let preempted = out.fleet.preemptions_ridden + out.fleet.preemptions_lost;
    assert_eq!(preempted, 3, "{:?}", out.fleet);
    assert!(out.retrieval.failures() > 0, "{:?}", out.retrieval);
    assert_eq!(fingerprint(&out), golden_sharded());
}

#[test]
fn nirvana_on_lsh_matches_the_golden() {
    let out = cfg(Policy::Nirvana, twitter_like(11, 10), 11)
        .with_lsh_cache()
        .run();
    assert!(out.retrieval.hits() > 0, "{:?}", out.retrieval);
    assert_eq!(fingerprint(&out), golden_nirvana());
}

/// Argus with a cache gate that reuses every neighbour at skip step 7,
/// which no completion captures: the one way a custom pipeline can make
/// the network serve a fetch that finds no state.
#[derive(Debug)]
struct UncapturedStepGate;

impl LevelPlanner for UncapturedStepGate {
    fn active_ladder(&self, switcher: &StrategySwitcher) -> Vec<ApproxLevel> {
        ArgusPolicy.active_ladder(switcher)
    }

    fn pick_target_level(&self, ctx: &mut RouteCtx<'_>, ladder: &[ApproxLevel]) -> usize {
        ArgusPolicy.pick_target_level(ctx, ladder)
    }

    fn planning_strategy(&self, switcher: &StrategySwitcher) -> Strategy {
        ArgusPolicy.planning_strategy(switcher)
    }

    fn plan_tick(&self, observed_qpm: f64, last_demand_qpm: f64) -> TickAction {
        ArgusPolicy.plan_tick(observed_qpm, last_demand_qpm)
    }

    fn initial_placement(&self) -> InitialPlacement {
        ArgusPolicy.initial_placement()
    }
}

impl CacheGate for UncapturedStepGate {
    fn cache_active(&self, switcher: &StrategySwitcher) -> bool {
        ArgusPolicy.cache_active(switcher)
    }

    fn uses_cache_store(&self) -> bool {
        true
    }

    fn ac_level_for_hit(&self, _assigned: AcLevel, _similarity: f64) -> AcLevel {
        AcLevel(7)
    }
}

impl WorkerSelector for UncapturedStepGate {}
impl Dispatcher for UncapturedStepGate {}

impl ServingPolicy for UncapturedStepGate {
    fn name(&self) -> &'static str {
        "Argus, reusing at an uncaptured step"
    }

    fn uses_classifier(&self) -> bool {
        true
    }

    fn uses_oda(&self) -> bool {
        true
    }

    fn switches_strategy(&self) -> bool {
        true
    }
}

#[test]
fn a_gate_reusing_an_uncaptured_step_misses_every_served_fetch() {
    let out = cfg(Policy::Argus, twitter_like(19, 10), 19)
        .with_policy_pipeline(Box::new(UncapturedStepGate))
        .with_network_events(vec![
            (4.0, NetworkRegime::Outage),
            (6.0, NetworkRegime::Normal),
        ])
        .run();
    // The network leg decides first: the outage's fetches fail, and every
    // fetch the network serves finds no state at step 7.
    let r = &out.retrieval;
    assert_eq!(r.hits(), 0, "{r:?}");
    assert!(r.misses() > 0 && r.failures() > 0, "{r:?}");
    assert_eq!(fingerprint(&out), golden_uncaptured_step());
}

// The goldens, captured on the tree that materialised the trace and kept
// the blob map (release build; the runs are bit-identical in debug).
// `golden_drift` was re-captured after the reentrant-start fix (see the
// module doc).

fn golden_drift() -> Fingerprint {
    Fingerprint {
        counts: [3179, 3179, 144, 3035, 22],
        float_bits: [0x40ecaabe304137cc, 0x40a5d80bb973d6f5, 0x409c368eea63b689],
        cache: vec![
            ((0, 5), [193, 0, 0]),
            ((0, 10), [162, 0, 0]),
            ((0, 15), [495, 0, 0]),
            ((0, 20), [54, 0, 0]),
            ((0, 25), [770, 0, 0]),
        ],
        retrieval: [1674, 3179, 0x3f9d862e1cacf95f, 0x3fa4cff21b3aeee9],
        level_completions: vec![
            ((0, 0), 454),
            ((0, 5), 192),
            ((0, 10), 162),
            ((0, 15), 495),
            ((0, 20), 54),
            ((0, 25), 770),
            ((1, 0), 502),
            ((1, 1), 31),
            ((1, 2), 36),
            ((1, 4), 37),
            ((1, 5), 446),
        ],
        quality_samples: 0xb7f4634ba11e9678,
        retrain_minutes: vec![8, 11, 16, 25, 27],
        classifier_accuracy: 0xa7defcf6b4a23203,
        switches: (1, 1),
        cascade: 0,
    }
}

fn golden_online() -> Fingerprint {
    Fingerprint {
        counts: [1392, 1392, 31, 1361, 8],
        float_bits: [0x40d906560068d87e, 0x4093091a10511feb, 0x4083030cecc814d7],
        cache: vec![
            ((0, 5), [91, 0, 0]),
            ((0, 10), [43, 0, 0]),
            ((0, 15), [179, 0, 0]),
            ((0, 20), [39, 0, 0]),
            ((0, 25), [832, 0, 0]),
        ],
        retrieval: [1184, 1392, 0x3f95949b12f95811, 0x3fa5606317268d33],
        level_completions: vec![
            ((0, 0), 208),
            ((0, 5), 91),
            ((0, 10), 43),
            ((0, 15), 179),
            ((0, 20), 39),
            ((0, 25), 832),
        ],
        quality_samples: 0xe8f9d74b2c98753c,
        retrain_minutes: vec![],
        classifier_accuracy: 0xe9318f028b235e4b,
        switches: (0, 0),
        cascade: 0,
    }
}

fn golden_cascade() -> Fingerprint {
    Fingerprint {
        counts: [1004, 1004, 545, 459, 22],
        float_bits: [0x40c1711ca3031cbd, 0x407a8d996be7e3a5, 0x40830b5c28f5c28f],
        cache: vec![],
        retrieval: [0, 0, 0, 0],
        level_completions: vec![
            ((1, 0), 233),
            ((1, 1), 16),
            ((1, 2), 5),
            ((1, 4), 18),
            ((1, 5), 732),
        ],
        quality_samples: 0xf085026cf635e71c,
        retrain_minutes: vec![],
        // The hash of an empty log: a cascade serves without a classifier.
        classifier_accuracy: 0xcbf29ce484222325,
        switches: (0, 0),
        cascade: 0xe9f87201eb381c70,
    }
}

fn golden_overload() -> Fingerprint {
    Fingerprint {
        counts: [9073, 9073, 9011, 62, 8],
        float_bits: [0x40914b5d53ca2d1d, 0x404a5ec3b15999a0, 0x40a3c424fa8b4bf9],
        cache: vec![((0, 25), [9073, 0, 0])],
        retrieval: [9073, 9073, 0x3f957c53ae19d808, 0x3fa47a17f4128bf4],
        level_completions: vec![((0, 25), 9073)],
        quality_samples: 0x1ffa06ae8e987243,
        retrain_minutes: vec![16, 22],
        classifier_accuracy: 0x59b0a937e3bd974d,
        switches: (0, 0),
        cascade: 0,
    }
}

fn golden_sharded() -> Fingerprint {
    Fingerprint {
        counts: [2351, 2351, 0, 2351, 28],
        float_bits: [0x40e689e0d0834807, 0x40a12afc17110ca9, 0x4092f58aa8a82a56],
        cache: vec![
            ((0, 5), [163, 0, 0]),
            ((0, 10), [121, 1, 0]),
            ((0, 15), [391, 1, 2]),
            ((0, 20), [12, 0, 0]),
            ((0, 25), [523, 0, 0]),
        ],
        retrieval: [1212, 2351, 0x3f9bedbbf9553581, 0x3fa4dcca70d1fa33],
        level_completions: vec![
            ((0, 0), 596),
            ((0, 5), 163),
            ((0, 10), 121),
            ((0, 15), 391),
            ((0, 20), 12),
            ((0, 25), 523),
            ((1, 0), 131),
            ((1, 3), 11),
            ((1, 4), 43),
            ((1, 5), 360),
        ],
        quality_samples: 0x12fb8d38f4e38604,
        retrain_minutes: vec![12, 15, 17],
        classifier_accuracy: 0xf68fec5cedd66a28,
        switches: (1, 1),
        cascade: 0,
    }
}

fn golden_nirvana() -> Fingerprint {
    Fingerprint {
        counts: [1004, 1004, 439, 565, 8],
        float_bits: [0x40c5c53895e2ccda, 0x40809021378e6f7b, 0x4082cf39c5a3e39f],
        cache: vec![((0, 0), [971, 33, 0])],
        retrieval: [971, 1004, 0x3f9563fe8bb46b7b, 0x3fa4a2b9d3cbc48f],
        level_completions: vec![
            ((0, 0), 33),
            ((0, 5), 188),
            ((0, 10), 398),
            ((0, 15), 280),
            ((0, 20), 84),
            ((0, 25), 21),
        ],
        quality_samples: 0x8a7323a3377fee39,
        retrain_minutes: vec![],
        classifier_accuracy: 0xcbf29ce484222325,
        switches: (0, 0),
        cascade: 0,
    }
}

/// Captured on the tree whose cache store answered from the levels it
/// had stored (release build).
fn golden_uncaptured_step() -> Fingerprint {
    Fingerprint {
        counts: [874, 874, 173, 701, 18],
        float_bits: [0x40cbc1c4ec6548c6, 0x4085290aeac036db, 0x4082dc2258d5842b],
        cache: vec![
            ((0, 0), [0, 272, 0]),
            ((0, 5), [0, 237, 0]),
            ((0, 10), [0, 15, 0]),
            ((0, 15), [0, 57, 0]),
            ((0, 25), [0, 0, 2]),
        ],
        retrieval: [583, 874, 0x3fa35db386d85678, 0x3fa4866a11ec918e],
        level_completions: vec![((0, 0), 594), ((1, 0), 27), ((1, 4), 3), ((1, 5), 250)],
        quality_samples: 0xc6f2ad710bc893b9,
        retrain_minutes: vec![9],
        classifier_accuracy: 0xcf8ce61dca17e276,
        switches: (1, 1),
        cascade: 0,
    }
}
