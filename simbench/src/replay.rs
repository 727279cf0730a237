//! Replays of the layers that have no seam to decorate.
//!
//! Each replay rebuilds the layer's input from the workload itself — its
//! prompt stream in arrival order, its trace, its capacities and seeds —
//! and times the layer's public functions on it from outside. The traced
//! run multiplies a replay's cost per call by the number of calls the run
//! made (read from its `RunOutcome`) to estimate the layer's share.
//!
//! The salts below mirror the ones `SystemSimulation::new` derives its
//! streams with, so a replay sees the same prompts and arrival instants as
//! the run it stands for.

use std::hint::black_box;
use std::time::Instant;

use argus::classifier::{label_prompts, train, TrainerConfig};
use argus::core::metrics::SLO_MULTIPLIER;
use argus::core::{AllocationProblem, CachePlane, CapacityCtx, RunConfig, SolveCache};
use argus::des::{EventQueue, SimDuration};
use argus::embed::{embed, Embedding};
use argus::models::{latency, ApproxLevel, GpuArch, ModelVariant, Strategy};
use argus::prompts::{Prompt, PromptGenerator};
use argus::quality::QualityOracle;
use argus::vdb::{FlatIndex, LshIndex, SharedIndex};
use argus::workload::ArrivalProcess;

const ARRIVAL_SALT: u64 = 0xA11;
const PROMPT_SALT: u64 = 0x9E0;
const ORACLE_SALT: u64 = 0x0AC1E;
const OFFLINE_SALT: u64 = 0x0FF11E;
const INDEX_SALT: u64 = 0x15B;
/// Payload ids of the offline pre-warm entries.
const OFFLINE_ID_BASE: u64 = 1 << 40;
/// LSH hyperplanes of the shared monolithic index.
const LSH_BITS: usize = 8;
/// Prompts in a drift retraining window (the run's recent-prompt pool).
const RETRAIN_WINDOW: usize = 3000;
/// Operations timed per replay: enough for a stable per-call cost,
/// bounded so a replay stays a small part of the traced run.
const REPLAY_OPS: usize = 12_000;
/// Retrieval overhead the planner starts from (the driver's initial EWMA).
const INITIAL_RETRIEVAL_SECS: f64 = 0.02;

/// Nanoseconds per call of one replayed function.
fn per_call_ns(start: Instant, calls: usize) -> f64 {
    if calls == 0 {
        0.0
    } else {
        start.elapsed().as_nanos() as f64 / calls as f64
    }
}

/// The first `n` prompts of the run's stream, in arrival order.
fn prompt_stream(cfg: &RunConfig, n: usize) -> Vec<Prompt> {
    let mut generator = PromptGenerator::new(cfg.seed ^ PROMPT_SALT);
    if let Some(d) = cfg.drift {
        generator = generator.with_drift(d);
    }
    generator.generate_batch(n)
}

/// The offline (pre-deployment) prompts the run trains and pre-warms on.
fn offline_prompts(cfg: &RunConfig) -> Vec<Prompt> {
    PromptGenerator::new(cfg.seed ^ OFFLINE_SALT).generate_batch(cfg.classifier_train_size)
}

/// The run's arrival instants, in order.
fn arrivals(cfg: &RunConfig) -> ArrivalProcess {
    ArrivalProcess::new(&cfg.trace, cfg.seed ^ ARRIVAL_SALT)
}

/// How many jobs the run is offered.
pub fn offered(cfg: &RunConfig) -> usize {
    arrivals(cfg).count()
}

/// The replay sample: up to [`REPLAY_OPS`] prompts of the stream.
pub fn sample(cfg: &RunConfig) -> Vec<Prompt> {
    prompt_stream(cfg, offered(cfg).min(REPLAY_OPS))
}

/// `embed` over the sample: nanoseconds per call.
pub fn embed_ns(sample: &[Prompt]) -> f64 {
    let start = Instant::now();
    for p in sample {
        black_box(embed(black_box(&p.text)));
    }
    per_call_ns(start, sample.len())
}

/// The run's retrieval index, as `SystemSimulation::new` builds it.
enum Index {
    Flat(FlatIndex<u64>),
    Lsh(SharedIndex<u64, LshIndex<u64>>),
    Plane(CachePlane),
}

impl Index {
    fn for_run(cfg: &RunConfig) -> Index {
        let cap = cfg.vdb_capacity.max(1);
        if let Some((shards, replication)) = cfg.sharded_cache {
            Index::Plane(CachePlane::new(
                shards,
                replication,
                cfg.workers,
                cfg.seed ^ INDEX_SALT,
                cap,
            ))
        } else if cfg.lsh_cache {
            Index::Lsh(SharedIndex::from_index(LshIndex::with_capacity_limit(
                LSH_BITS,
                cfg.seed ^ INDEX_SALT,
                cap,
            )))
        } else {
            Index::Flat(FlatIndex::with_capacity_limit(cap))
        }
    }

    fn insert(&mut self, origin: Option<usize>, e: Embedding, id: u64) {
        match self {
            Index::Flat(i) => {
                black_box(i.insert(e, id));
            }
            Index::Lsh(i) => {
                black_box(i.insert(e, id));
            }
            Index::Plane(p) => {
                black_box(p.insert(origin, e, id));
            }
        }
    }

    fn lookup(&self, worker: usize, q: &Embedding) {
        match self {
            Index::Flat(i) => {
                black_box(i.nearest(q));
            }
            Index::Lsh(i) => {
                black_box(i.nearest(q));
            }
            Index::Plane(p) => {
                black_box(p.lookup(worker, q));
            }
        }
    }
}

/// Cache-plane lookup and insert costs in nanoseconds per call: the run's
/// index, pre-warmed with the offline prompts, then one lookup and one
/// insert per sampled prompt in arrival order (lookups issued round-robin
/// from the workers, inserts written from the same worker).
pub fn cache_ns(cfg: &RunConfig, sample: &[Prompt]) -> (f64, f64) {
    let mut index = Index::for_run(cfg);
    for (i, p) in offline_prompts(cfg).iter().enumerate() {
        index.insert(None, embed(&p.text), OFFLINE_ID_BASE + i as u64);
    }
    let queries: Vec<Embedding> = sample.iter().map(|p| embed(&p.text)).collect();
    let workers = cfg.workers.max(1);
    let (mut lookup_ns, mut insert_ns) = (0u128, 0u128);
    for (i, q) in queries.into_iter().enumerate() {
        let start = Instant::now();
        index.lookup(i % workers, &q);
        lookup_ns += start.elapsed().as_nanos();
        let start = Instant::now();
        index.insert(Some(i % workers), q, i as u64);
        insert_ns += start.elapsed().as_nanos();
    }
    let n = sample.len().max(1) as f64;
    (lookup_ns as f64 / n, insert_ns as f64 / n)
}

/// Label and train one classifier the way the run does.
fn fit(cfg: &RunConfig, oracle: &QualityOracle, prompts: &[Prompt], strategy: Strategy) {
    let ladder = ApproxLevel::ladder(strategy);
    let samples = label_prompts(oracle, prompts, &ladder);
    black_box(train(
        &samples,
        ladder.len(),
        &TrainerConfig {
            epochs: cfg.classifier_epochs,
            seed: cfg.seed,
            ..TrainerConfig::default()
        },
    ));
}

/// Classifier costs in milliseconds: one drift retrain (`label_prompts`
/// plus `train` on the last [`RETRAIN_WINDOW`] sampled prompts, median of
/// three) and the offline training `SystemSimulation::new` performs (both
/// strategies on the offline pool).
pub fn classifier_ms(cfg: &RunConfig, sample: &[Prompt]) -> (f64, f64) {
    let oracle = QualityOracle::new(cfg.seed ^ ORACLE_SALT);
    let window = &sample[sample.len().saturating_sub(RETRAIN_WINDOW)..];
    let mut retrains: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            fit(cfg, &oracle, window, Strategy::Ac);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    retrains.sort_by(f64::total_cmp);
    let offline = offline_prompts(cfg);
    let start = Instant::now();
    for strategy in [Strategy::Ac, Strategy::Sm] {
        fit(cfg, &oracle, &offline, strategy);
    }
    (retrains[1], start.elapsed().as_secs_f64() * 1e3)
}

/// The fleet's pools by architecture, spot workers folded in.
pub fn pools(cfg: &RunConfig) -> Vec<(GpuArch, usize)> {
    let mut pools = cfg.effective_pools();
    for sp in &cfg.spot_pools {
        match pools.iter_mut().find(|(g, _)| *g == sp.gpu) {
            Some(e) => e.1 += sp.workers,
            None => pools.push((sp.gpu, sp.workers)),
        }
    }
    pools
}

/// Eq. 1 solve costs in microseconds.
pub struct SolveCost {
    /// Mean cost of one pool's solve.
    pub per_solve_us: f64,
    /// Mean cost of one allocator tick on the driver's critical path: the
    /// planner solves a heterogeneous fleet's pools in parallel, one
    /// thread each, so a tick waits for its slowest pool.
    pub per_tick_us: f64,
}

/// Eq. 1 solve costs: every allocator tick of the trace re-solves every
/// pool with `solve_cached` (the planner's call), the tick's provisioning
/// target split across pools by derated capacity.
pub fn solve_us(cfg: &RunConfig) -> SolveCost {
    let strategy = if cfg.cascade.is_some() {
        Strategy::Sm
    } else {
        Strategy::Ac
    };
    let ladder = ApproxLevel::ladder(strategy);
    let pools = pools(cfg);
    let slowest = pools
        .iter()
        .map(|&(gpu, _)| latency::inference_secs(ModelVariant::SdXl, gpu))
        .fold(0.0, f64::max);
    let slo_secs = SLO_MULTIPLIER * slowest;
    let ctx = CapacityCtx {
        max_batch: cfg.max_batch,
        slo_secs,
        retrieval_overhead_secs: if strategy == Strategy::Ac {
            INITIAL_RETRIEVAL_SECS
        } else {
            0.0
        },
        escalation: None,
    };
    let model = cfg.capacity_model.as_ref();
    let mut problems: Vec<(AllocationProblem, SolveCache)> = pools
        .iter()
        .map(|&(gpu, workers)| {
            let latencies: Vec<f64> = ladder
                .iter()
                .map(|&l| model.job_latency_secs(l, gpu, &ctx))
                .collect();
            let mut p = AllocationProblem::from_capacity_model(model, &ladder, gpu, &ctx, 1, 0.0)
                .with_slo_derating_latencies(slo_secs, &latencies);
            p.workers = workers;
            (p, SolveCache::new())
        })
        .collect();
    let total_cap: f64 = problems.iter().map(|(p, _)| p.max_capacity_qpm()).sum();
    let (mut solves, mut ns, mut tick_ns) = (0usize, 0u128, 0u128);
    let ticks = cfg.trace.len_minutes();
    for minute in 0..ticks {
        let q = cfg.trace.qpm_at(minute);
        let demand = (q + q.max(0.0).sqrt()).max(1.0);
        let mut slowest = 0u128;
        for (p, cache) in problems.iter_mut() {
            p.demand_qpm = demand * p.max_capacity_qpm() / total_cap;
            let start = Instant::now();
            black_box(p.solve_cached(cache));
            let took = start.elapsed().as_nanos();
            ns += took;
            slowest = slowest.max(took);
            solves += 1;
        }
        tick_ns += slowest;
    }
    SolveCost {
        per_solve_us: ns as f64 / solves.max(1) as f64 / 1e3,
        per_tick_us: tick_ns as f64 / ticks.max(1) as f64 / 1e3,
    }
}

/// Event-pump cost in nanoseconds per event: every arrival instant of the
/// run is scheduled up front (as `SystemSimulation::new` does), then the
/// queue is drained with one completion scheduled per arrival. Returns
/// nanoseconds per popped event.
pub fn des_ns(cfg: &RunConfig) -> f64 {
    let mut queue: EventQueue<(u32, u32)> = EventQueue::new();
    for (i, at) in arrivals(cfg).enumerate() {
        queue.schedule(at, (0, i as u32));
    }
    let service = SimDuration::from_secs(4.2);
    let mut popped = 0usize;
    let start = Instant::now();
    while let Some((t, ev)) = queue.pop() {
        popped += 1;
        if ev.0 == 0 {
            queue.schedule(t + service, (1, ev.1));
        }
        black_box(ev);
    }
    per_call_ns(start, popped)
}
