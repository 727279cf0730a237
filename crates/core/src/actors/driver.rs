//! The driver: the virtual-time event pump of the staged control plane.
//!
//! [`SystemSimulation::run`] lives here, rebuilt on the stages: the driver
//! pops discrete events, with the trace's arrivals streamed in ahead of
//! the heap, keeps each job's state in the job window while it can still
//! be read, drives the cluster, routing, batching and the strategy
//! switcher, and calls the planner stage for allocations, the
//! cache-plane stage for retrieval and cache writes, the metrics stage for
//! all accounting and the fleet stage for membership and autoscaling.
//!
//! What stays on the driver is exactly the state that participates in the
//! reentrant chain `service_for → switcher.on_retrieval →
//! begin_transition → reallocate → apply_allocation → maybe_start` (a
//! retrieval observed mid-dispatch can re-plan the very worker being
//! dispatched — see the reentrancy guard in
//! [`SystemSimulation::maybe_start`]):
//! the cluster and the switcher. The stages own state the driver only
//! queries or feeds, and each runs its calls in the order the driver makes
//! them.

use argus_cachestore::FetchStatus;
use argus_classifier::{label_prompts, train, TrainerConfig};
use argus_cluster::{SwitchOutcome, WorkerId};
use argus_des::rng::log_normal;
use argus_des::{SimDuration, SimTime};
use argus_embed::embed;
use argus_models::batching::unet_pass_profile;
use argus_models::{latency, AcLevel, ApproxLevel, GpuArch, Strategy, RUNGS};
use argus_obs::{SpanEvent, SpanKind, StageProfile};
use argus_prompts::Prompt;

use super::planner::PoolSpec;
use crate::cascade::{ESCALATION_LEVEL, FIRST_PASS_LEVEL};
use crate::fleet::{hourly_rate, CostReport, PoolSignal, ScaleAction};
use crate::metrics::PoolStats;
use crate::oda::{oda, Pasm};
use crate::pipeline::{RouteCtx, SelectCtx, TickAction};
use crate::switcher::{SwitchCommand, SwitcherState};
use crate::system::{
    alloc_gauge_name, provisioning_target, ClassifierUpdates, Event, Exec, FaultEvent, RunOutcome,
    SystemSimulation, E2E_BOUNDS, PROBE, RETRIEVAL_BOUNDS, TICK,
};

impl SystemSimulation {
    // ---------------------------------------------------------------- //
    // Telemetry plane (RunConfig::with_telemetry). Every helper is a
    // no-op when the recorder is off, so default runs record nothing
    // and stay bit-identical to builds without the plane.
    // ---------------------------------------------------------------- //

    /// Whether span recording wants this job (cheap pre-check so hot
    /// paths skip building events for unsampled jobs).
    fn obs_wants(&self, job: usize) -> bool {
        self.recorder.as_ref().is_some_and(|r| r.wants(job as u32))
    }

    /// Records one lifecycle span.
    fn obs_span(&mut self, ev: SpanEvent) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.span(ev);
        }
    }

    /// Records into a fixed-bound histogram series.
    fn obs_hist(&mut self, name: &'static str, bounds: &'static [f64], v: f64) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.registry.hist_record(name, bounds, v);
        }
    }

    /// Sets a gauge series.
    fn obs_gauge_set(&mut self, name: &'static str, v: f64) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.registry.gauge_set(name, v);
        }
    }

    /// The next batched-dispatch id (monotone per started pass).
    fn next_batch_id(&mut self) -> u32 {
        let id = self.batch_seq;
        self.batch_seq = self.batch_seq.wrapping_add(1);
        id
    }

    /// Sets the timeline's counter series, each from the fact's owner:
    /// the ledger's totals, whose violations split into late completions
    /// and lost jobs; the fleet stage's spot reclaims; the driver's
    /// re-splits; and, on cascade runs only, the ledger's escalated first
    /// passes. Called at every tick, and once at construction, where every
    /// count is 0, to register the series in this order.
    pub(crate) fn obs_set_counters(&mut self) {
        let Some(rec) = self.recorder.as_mut() else {
            return;
        };
        let totals = self.metrics.totals();
        let late = totals.completed - totals.in_slo;
        let counters = [
            ("arrivals", totals.offered),
            ("completions", totals.completed),
            ("violations", late),
            ("lost", totals.violations - late),
            ("resplits", self.demand_resplits),
            ("spot_drains", self.fleet.preemptions()),
            ("model_loads", totals.model_loads),
        ];
        for (name, v) in counters {
            rec.registry.counter_set(name, v);
        }
        if self.cascade.is_some() {
            rec.registry
                .counter_set("escalations", self.metrics.escalations());
        }
    }

    /// Per-tick counter and gauge sweep + ring-buffer sample, taken after
    /// the tick's fleet work so the sample reflects the post-scale fleet.
    /// `saturated` is the solver's verdict captured before
    /// [`SystemSimulation::fleet_tick`] consumes it.
    fn obs_tick(&mut self, t: SimTime, saturated: bool) {
        if self.recorder.is_none() {
            return;
        }
        let backlog: u64 = self
            .cluster
            .iter()
            .filter(|w| !w.is_failed())
            .map(|w| w.backlog() as u64)
            .sum();
        let alive = self.cluster.alive().len() as f64;
        let draining = self
            .cluster
            .iter()
            .filter(|w| !w.is_failed() && w.is_draining())
            .count() as f64;
        // The instantaneous billing rate: everything rented right now
        // (draining spot instances included), at its pool's rate.
        let dollars_per_hour: f64 = self
            .cluster
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.is_failed())
            .map(|(i, w)| {
                let discount = self.worker_spot.get(i).copied().flatten().unwrap_or(0.0);
                hourly_rate(w.gpu(), discount)
            })
            .sum();
        self.obs_set_counters();
        let rec = self.recorder.as_mut().expect("checked above");
        rec.registry.gauge_set("backlog", backlog as f64);
        rec.registry
            .gauge_set("saturated", if saturated { 1.0 } else { 0.0 });
        rec.registry.gauge_set("fleet_alive", alive);
        rec.registry.gauge_set("draining", draining);
        rec.registry.gauge_set("dollars_per_hour", dollars_per_hour);
        rec.registry.sample(t.as_minutes() as u32, t.as_micros());
    }

    /// Whether cache retrieval is attempted for new jobs right now
    /// (pipeline stage: [`crate::pipeline::CacheGate`]).
    fn cache_active(&self) -> bool {
        self.pipeline.cache_active(&self.switcher)
    }

    /// Runs to completion and reports.
    pub fn run(mut self) -> RunOutcome {
        loop {
            // Arrivals merge ahead of the heap as they fall due.
            if let Some((t, job, prompt)) = self.trace.next_due(&mut self.queue) {
                self.on_arrive(job as usize, prompt, t);
                continue;
            }
            let Some((t, ev)) = self.queue.pop() else {
                break;
            };
            match ev {
                Event::Finish(w, job) => self.on_finish(w, job as usize, t),
                Event::LoadDone(w) => self.on_load_done(w, t),
                Event::Tick => self.on_tick(t),
                Event::Probe => self.on_probe(t),
                Event::Fault(i) => self.on_fault(i as usize, t),
                Event::Provision(wi) => self.on_provision(wi as usize, t),
                Event::Preempt(wi, drain) => self.on_preempt_fire(wi as usize, drain, t),
            }
        }
        let end = self.queue.now().max(self.horizon);
        // Jobs still stuck on workers (e.g. total failure) are lost.
        let stranded: Vec<u32> = self
            .cluster
            .iter()
            .flat_map(|w| w.queued_jobs().chain(w.in_flight_jobs()))
            .map(|j| j as u32)
            .collect();
        for job in stranded {
            self.metrics.lost(end);
            self.obs_span(SpanEvent::new(end, job, SpanKind::Lost));
        }
        // Teardown: the cache plane surrenders its insert receipts, the
        // metrics stage folds them in and finalizes.
        let drain = self.cache.drain();
        self.metrics
            .cache_insert_totals(drain.inserts, drain.replica_writes, drain.remote_hops);
        let report = self.metrics.finish(end);
        // Fleet teardown: close the billed-membership integral at `end`
        // and fold the completion count into the dollar report.
        let fleet_report = self.fleet.finish(end);
        let total_dollars = fleet_report.on_demand_dollars + fleet_report.spot_dollars;
        let cost = CostReport {
            total_dollars,
            on_demand_dollars: fleet_report.on_demand_dollars,
            spot_dollars: fleet_report.spot_dollars,
            dollars_per_1k_images: if report.totals.completed == 0 {
                0.0
            } else {
                total_dollars * 1000.0 / report.totals.completed as f64
            },
            gpu_minutes: fleet_report.gpu_minutes,
        };
        let mut level_completions: Vec<(ApproxLevel, u64)> =
            report.level_completions.into_iter().collect();
        level_completions.sort_by_key(|&(l, _)| l.ordinal());
        // Per-pool reporting covers the whole configured fleet, one entry
        // per architecture (the metrics stage keys its tallies the same
        // way).
        let pools = self
            .cfg
            .fleet_by_arch()
            .into_iter()
            .map(|(gpu, workers)| {
                let (completions, violations) =
                    report.pool_outcomes.get(&gpu).copied().unwrap_or((0, 0));
                let (alloc_sum, samples) = report
                    .pool_alloc_samples
                    .get(&gpu)
                    .copied()
                    .unwrap_or((0, 0));
                PoolStats {
                    gpu,
                    workers,
                    completions,
                    violations,
                    mean_allocated_workers: if samples == 0 {
                        0.0
                    } else {
                        alloc_sum as f64 / samples as f64
                    },
                }
            })
            .collect();
        // Telemetry teardown: the planner surrenders its profile, each
        // stage's call counters become its profile, and the recorder
        // finishes into the outcome. Exporting it is the caller's job.
        let (spans, timeline, stage_profiles) = match self.recorder.take() {
            Some(rec) => {
                let stage_profiles = vec![
                    StageProfile::new("planner", self.planner.finish()),
                    StageProfile::new("cache-plane", drain.profile),
                    StageProfile::new("metrics", report.profile),
                    StageProfile::new("fleet", fleet_report.profile),
                ];
                let (spans, timeline) = rec.finish();
                (spans, Some(timeline), stage_profiles)
            }
            None => (None, None, Vec::new()),
        };
        RunOutcome {
            minutes: report.minutes,
            totals: report.totals,
            retrieval: report.retrieval,
            pools,
            demand_resplits: self.demand_resplits,
            mean_utilization: self.cluster.mean_utilization(end),
            switches: self.switcher.switch_counts(),
            retrain_minutes: std::mem::take(&mut self.retrain_minutes),
            classifier_accuracy: report.accuracy_log,
            level_completions,
            quality_samples: report.quality_samples,
            saturated_minutes: self.saturated_minutes,
            makespan_secs: end.as_secs(),
            cascade: self.cascade.is_some().then_some(report.cascade),
            fleet: fleet_report.stats,
            cost,
            timeline,
            spans,
            stage_profiles,
        }
    }

    // ---------------------------------------------------------------- //
    // Event handlers
    // ---------------------------------------------------------------- //

    fn on_arrive(&mut self, idx: usize, prompt: Prompt, t: SimTime) {
        if self.obs_wants(idx) {
            self.obs_span(SpanEvent::new(t, idx as u32, SpanKind::Arrive));
        }
        self.metrics.arrival(t);
        self.arrival_rate.record(t);
        self.jobs.arrive(idx, prompt, t);
        // Intra-tick pool-saturation check before routing, so this very
        // arrival already sees the re-split allocation.
        self.maybe_resplit(t);
        self.dispatch(idx, t);
    }

    /// Routes a prompt to a worker (used for fresh arrivals and for jobs
    /// rerouted after a failure) by driving the pipeline's planner and
    /// worker-selector stages.
    pub(crate) fn dispatch(&mut self, idx: usize, t: SimTime) {
        let pipeline = std::sync::Arc::clone(&self.pipeline);
        let ladder = pipeline.active_ladder(&self.switcher);
        // Escalated cascade jobs re-enter this same path — cache gate,
        // selector, dispatcher — but are pinned to rung 0, SD-XL: the
        // discriminator's verdict *is* their routing decision, so the
        // level planner (and its RNG) is not consulted again.
        let escalated = self.cascade.is_some() && self.jobs.get(idx).first_ratio.is_some();
        let target = if escalated {
            0
        } else {
            let mut ctx = RouteCtx {
                cluster: &self.cluster,
                switcher: &self.switcher,
                classifiers: &self.classifiers,
                predictors: &mut self.predictors,
                pasm: &self.pasm,
                omega_norm: &self.omega_norm,
                route_rng: &mut self.route_rng,
                prompt: &self.jobs.get(idx).prompt,
            };
            pipeline.pick_target_level(&mut ctx, &ladder)
        };
        // Per-level, per-architecture processing estimates for the
        // Worker-Selector (Eq. 3). On per-pool-strategy fleets the ladder
        // index resolves to each architecture's own rung.
        let overhead = if self.cache_active() {
            self.retrieval_ewma
        } else {
            0.0
        };
        let pinned = &self.pinned;
        let proc = |l: usize, gpu: GpuArch| {
            let lvl = pinned.ladder(gpu, &ladder)[l];
            lvl.compute_secs(gpu)
                + if lvl.strategy() == Strategy::Ac {
                    overhead
                } else {
                    0.0
                }
        };
        let ctx = SelectCtx {
            cluster: &self.cluster,
            slo_secs: self.slo.as_secs(),
            max_batch: self.cfg.max_batch,
            pinned,
        };
        let choice = { pipeline.select_worker(&ctx, &ladder, target, &proc) };
        match choice {
            Some((w, _)) => {
                if self.obs_wants(idx) {
                    // The assigned rung, resolved to the chosen pool's
                    // own ladder on per-pool-strategy fleets.
                    let gpu = self.cluster.worker(w).gpu();
                    let lvl = self.pinned.ladder(gpu, &ladder)[target];
                    self.obs_span(
                        SpanEvent::new(t, idx as u32, SpanKind::Assign)
                            .with_level(lvl)
                            .with_pool(gpu)
                            .with_worker(w.0 as u32),
                    );
                }
                self.cluster.enqueue(w, idx as u64);
                self.maybe_start(w, t);
            }
            None => {
                if self.obs_wants(idx) {
                    self.obs_span(SpanEvent::new(t, idx as u32, SpanKind::Lost));
                }
                self.metrics.lost(t);
                self.jobs.retire(idx);
            }
        }
    }

    /// Starts the next pass on an idle worker: the queue's prefix, as many
    /// jobs as the pipeline's dispatcher stage batches. Each member's
    /// retrieval and jittered compute are sampled in queue order, and the
    /// pass completes together after the slowest member, inflated by the
    /// Obs. 5 pass-level latency ratio — exactly 1.0 for a batch of one,
    /// so batch-1 serving is unbatched serving bit for bit.
    pub(crate) fn maybe_start(&mut self, w: WorkerId, t: SimTime) {
        let worker = self.cluster.worker(w);
        if !worker.can_start() {
            return;
        }
        let level = worker.level().expect("can_start implies a level");
        let gpu = worker.gpu();
        let batch = {
            let ctx = SelectCtx {
                cluster: &self.cluster,
                slo_secs: self.slo.as_secs(),
                max_batch: self.cfg.max_batch,
                pinned: &self.pinned,
            };
            self.pipeline.batch_size(&ctx, w, level)
        };
        let planned = (batch.max(1) as usize).min(worker.queue_len());
        let mut max_retrieval = SimDuration::ZERO;
        let mut max_base = 0.0f64;
        let mut pass_jitter = 1.0f64;
        for i in 0..planned {
            let job = self
                .cluster
                .worker(w)
                .queued_job(i)
                .expect("the plan is a queue prefix") as usize;
            let (retrieval, base, jitter, exec) = self.service_for(job, w, level, gpu, t);
            if !self.cluster.worker(w).can_start() {
                // The member's retrieval triggered a strategy switch whose
                // reallocation re-entered the dispatcher and started this
                // worker, scheduling its own completion: that start and
                // its execution records stand.
                return;
            }
            max_retrieval = max_retrieval.max(retrieval);
            max_base = max_base.max(base);
            if i == 0 {
                // One jitter per pass: the batch executes as a single
                // fused kernel sequence, so its variance does not compound
                // over members.
                pass_jitter = jitter;
            }
            self.jobs.get_mut(job).exec = Some(exec);
        }
        let inflation =
            unet_pass_profile(level.resident_model()).latency_inflation(gpu, planned as u32);
        let service = max_retrieval + SimDuration::from_secs(max_base * pass_jitter * inflation);
        let started = self.cluster.try_start_batch(w, t, planned);
        debug_assert_eq!(started, planned, "a start drains its planned queue prefix");
        let batch_id = self.next_batch_id();
        let worker = self.cluster.worker(w);
        if let Some(rec) = self.recorder.as_mut() {
            for job in worker.in_flight_jobs() {
                if rec.wants(job as u32) {
                    let exec = self.jobs.get(job as usize).exec.expect("started above");
                    rec.span(
                        SpanEvent::new(t, job as u32, SpanKind::Dispatch)
                            .with_level(exec.level)
                            .with_pool(gpu)
                            .with_worker(w.0 as u32)
                            .with_batch(batch_id),
                    );
                }
            }
        }
        let first = worker.in_flight_job().expect("started above");
        self.queue
            .schedule(t + service, Event::Finish(w, first as u32));
    }

    /// Samples the service of `job` on worker `w` (of the given
    /// architecture) serving `level`, performing cache retrieval when the
    /// pipeline's cache gate is open and would reuse a perfect neighbour
    /// at the assigned level. The cache-plane stage fuses
    /// nearest-neighbour search, the cache gate and the store fetch into
    /// one call; the switcher reaction to the observed latency stays
    /// here, because it can re-enter the dispatcher. Returns `(retrieval
    /// latency, base compute seconds, jitter, execution record)`.
    fn service_for(
        &mut self,
        job: usize,
        w: WorkerId,
        level: ApproxLevel,
        gpu: GpuArch,
        t: SimTime,
    ) -> (SimDuration, f64, f64, Exec) {
        let jitter = {
            let cv = latency::LATENCY_JITTER_CV;
            log_normal(&mut self.service_rng, -0.5 * cv * cv, cv)
        };

        let ApproxLevel::Ac(k) = level else {
            return (
                SimDuration::ZERO,
                level.compute_secs(gpu),
                jitter,
                Exec {
                    level,
                    similarity: None,
                },
            );
        };
        // The gate is non-decreasing in similarity, so when even a
        // perfect neighbour would skip no steps, no search result could
        // be reused: the job generates fully without retrieving. The same
        // holds with the cache disabled (mid-switch fallback, §4.6).
        let mut retrieval = SimDuration::ZERO;
        if self.cache_active() && self.pipeline.ac_level_for_hit(k, 1.0).skipped_steps() > 0 {
            let slot = self.jobs.get_mut(job);
            let query = slot
                .embedding
                .get_or_insert_with(|| Box::new(embed(&slot.prompt)));
            let r = self
                .cache
                .retrieve(w.0, k, query, t, self.pipeline.as_ref());
            if let Some(outcome) = r.fetch {
                self.metrics.retrieval(t, outcome.latency);
                self.obs_hist(
                    "retrieval_latency_secs",
                    RETRIEVAL_BOUNDS,
                    outcome.latency.as_secs(),
                );
                self.note_cache_lookup(job, k, outcome.status, t);
                self.retrieval_ewma = 0.9 * self.retrieval_ewma + 0.1 * outcome.latency.as_secs();
                let ok = outcome.status != FetchStatus::Failed;
                if self.pipeline.switches_strategy() && self.cfg.allow_strategy_switch {
                    if let Some(SwitchCommand::ToSm) =
                        self.switcher.on_retrieval(outcome.latency.as_secs(), ok, t)
                    {
                        self.begin_transition(t);
                    }
                }
                if outcome.status == FetchStatus::Hit {
                    return (
                        outcome.latency,
                        r.k_eff.compute_secs(gpu),
                        jitter,
                        Exec {
                            level: ApproxLevel::Ac(r.k_eff),
                            similarity: r.similarity,
                        },
                    );
                }
                // Miss or failure: pay the lookup, generate fully.
                retrieval = outcome.latency;
            } else {
                // No usable neighbour: a cache miss served by full
                // generation. No store round trip happened, so no
                // retrieval latency is charged; the miss is still
                // accounted so fault-degraded hit-rates are observable.
                self.note_cache_lookup(job, k, FetchStatus::Miss, t);
            }
        }
        (
            retrieval,
            AcLevel(0).compute_secs(gpu),
            jitter,
            Exec {
                level: ApproxLevel::Ac(AcLevel(0)),
                similarity: None,
            },
        )
    }

    /// The single emission point for a cache-lookup outcome: the metrics
    /// tally plus, for sampled jobs, the matching lifecycle span. Both
    /// lookup paths in [`Self::service_for`] (store round trip and
    /// no-neighbour miss) go through here so the accounting cannot drift.
    fn note_cache_lookup(&mut self, job: usize, k: AcLevel, status: FetchStatus, t: SimTime) {
        self.metrics.cache_lookup(ApproxLevel::Ac(k), status);
        if self.obs_wants(job) {
            let kind = match status {
                FetchStatus::Hit => SpanKind::CacheHit,
                FetchStatus::Miss => SpanKind::CacheMiss,
                FetchStatus::Failed => SpanKind::CacheFailed,
            };
            self.obs_span(SpanEvent::new(t, job as u32, kind).with_level(ApproxLevel::Ac(k)));
        }
    }

    fn on_finish(&mut self, w: WorkerId, job: usize, t: SimTime) {
        // A failure may have drained this pass (and rerouted its jobs)
        // after the completion event was scheduled: ignore stale events.
        // One event is scheduled per (possibly batched) start, keyed by
        // the first job of the pass.
        if self.cluster.worker(w).in_flight_job() != Some(job as u64) {
            return;
        }
        // One buffer serves every finish. It is taken out for the loop:
        // `complete_job` can re-enter `dispatch`.
        let mut done = std::mem::take(&mut self.finished);
        self.cluster.finish_batch(w, t, &mut done);
        for &job in &done {
            self.complete_job(job as usize, w, t);
        }
        done.clear();
        self.finished = done;
        self.maybe_start(w, t);
    }

    /// Post-completion accounting for one job, from the execution record
    /// its pass left in the job's slot: quality scoring, drift handling,
    /// and the telemetry + cache-persistence sends. `w` is the worker that
    /// ran the pass — the pool the completion is attributed to, and the
    /// origin replica-write locality of the cache insert. A final
    /// completion retires the job's state.
    fn complete_job(&mut self, job: usize, w: WorkerId, t: SimTime) {
        let slot = self.jobs.get(job);
        let exec = slot.exec.expect("a finishing job's pass has started");
        let prompt = &slot.prompt;
        let similarity = exec
            .similarity
            .unwrap_or(argus_quality::DEFAULT_AC_SIMILARITY);
        // One hash of the text serves the score and its base.
        let terms = self.oracle.terms(prompt);
        let (score, base) = (terms.score(exec.level, similarity), terms.base_quality());
        let latency_e2e = t - slot.arrival;

        // Cascade gate. A first pass is judged by the discriminator:
        // flagged jobs re-enter [`SystemSimulation::dispatch`] as
        // escalation work and *none* of the completion accounting below
        // runs for them — exactly one completion is recorded per job, at
        // its final pass, measured from the original arrival
        // (`latency_e2e` always subtracts the job's arrival, so SLO
        // violation accounting charges the full cascade latency).
        if let Some(c) = self.cascade.as_ref() {
            if let Some(first_ratio) = slot.first_ratio {
                // Second pass: report the quality movement and fall
                // through to the normal terminal accounting.
                self.metrics.cascade_outcome(first_ratio, score / base);
            } else {
                // A first pass that spill already *executed* at the
                // escalation rung is accepted: a second pass would re-run
                // the same level.
                let escalated = exec.level != ESCALATION_LEVEL
                    && c.discriminator.doubt(prompt, exec.level, similarity) >= c.threshold;
                let level = exec.level;
                self.metrics.cascade_judged(level, escalated);
                if escalated {
                    self.jobs.get_mut(job).first_ratio = Some(score / base);
                    if self.obs_wants(job) {
                        self.obs_span(
                            SpanEvent::new(t, job as u32, SpanKind::Escalate)
                                .with_level(level)
                                .with_pool(self.cluster.worker(w).gpu())
                                .with_worker(w.0 as u32),
                        );
                    }
                    self.dispatch(job, t);
                    return;
                }
            }
        }
        let gpu = self.cluster.worker(w).gpu();
        let met_slo = self
            .metrics
            .completion(t, latency_e2e, score, base, exec.level, gpu);
        self.obs_hist("e2e_latency_secs", E2E_BOUNDS, latency_e2e.as_secs());
        if self.obs_wants(job) {
            let kind = if met_slo {
                SpanKind::Complete
            } else {
                SpanKind::Violation
            };
            self.obs_span(
                SpanEvent::new(t, job as u32, kind)
                    .with_level(exec.level)
                    .with_pool(gpu)
                    .with_worker(w.0 as u32),
            );
        }

        // Drift detection and off-critical-path retraining (§4.1), or the
        // §6 online-learning alternative: one SGD step per labelled
        // completion (the label reuses the just-generated image's scores,
        // exactly like batch retraining does). The drift detector sees
        // scores only under drift retraining.
        if self.pipeline.uses_classifier() {
            match self.cfg.classifier_updates {
                ClassifierUpdates::OnDrift => {
                    if self.drift_detector.record(score) {
                        self.retrain(t);
                    }
                }
                ClassifierUpdates::Online => {
                    let strategy = self.switcher.planning_strategy();
                    let ladder = ApproxLevel::ladder(strategy);
                    let prompt = &self.jobs.get(job).prompt;
                    let label = self.oracle.optimal_level(prompt, ladder);
                    if let Some(clf) = self.classifiers.get_mut(&strategy) {
                        clf.update(prompt, label, 0.02);
                    }
                }
                ClassifierUpdates::Frozen => {}
            }
        }

        // Persist this generation for future cache reuse: its states at
        // every capture step go to storage, and the index insert makes
        // them findable. Replica fan-out is charged as write hops by the
        // cache-plane stage (writes are asynchronous and off the critical
        // path, §4.7, so no latency accrues).
        if self.pipeline.uses_cache_store() {
            let slot = self.jobs.get_mut(job);
            let embedding = slot
                .embedding
                .take()
                .map_or_else(|| embed(&slot.prompt), |e| *e);
            self.cache.insert(w.0, embedding, job as u64);
        }
        self.jobs.retire(job);
    }

    fn retrain(&mut self, t: SimTime) {
        let minute = (t.as_minutes()) as u64;
        self.retrain_minutes.push(minute);
        self.drift_detector.reset_window();
        let strategy = self.switcher.planning_strategy();
        let ladder = ApproxLevel::ladder(strategy);
        if self.jobs.recent().len() < 200 {
            return;
        }
        let samples = label_prompts(&self.oracle, self.jobs.recent(), ladder);
        let (clf, _) = train(
            &samples,
            ladder.len(),
            &TrainerConfig {
                epochs: self.cfg.classifier_epochs,
                seed: self.cfg.seed ^ minute,
            },
        );
        self.classifiers.insert(strategy, clf);
    }

    fn on_load_done(&mut self, w: WorkerId, t: SimTime) {
        self.cluster.finish_load(w, t);
        self.maybe_start(w, t);
        self.check_transition_complete(t);
    }

    fn on_tick(&mut self, t: SimTime) {
        // A re-split this minute is an autoscale pressure signal; capture
        // it before opening the new tick's re-split window.
        let resplit_fired = self.resplit_done;
        self.resplit_done = false;
        let utilization = self.cluster.mean_utilization(t);
        self.metrics.utilization(t, utilization);

        // Cascade runs: read the first-pass escalation-rate EWMA from the
        // metrics stage ahead of planning, so this tick's Eq. 1 pricing
        // (see [`SystemSimulation::escalation_rate_for`]) sees every
        // verdict already recorded.
        if let Some(c) = self.cascade.as_mut() {
            let rates = self.metrics.escalation_rates();
            let rate = rates.get(&FIRST_PASS_LEVEL).copied().unwrap_or(0.0);
            c.first_pass_rate = rate;
            self.obs_gauge_set("escalation_rate", rate);
        }

        // The pipeline's level planner decides what the tick does and how
        // the demand estimate is smoothed (§4.2): Argus/PAC decay the
        // estimate at most 15% per minute so single-minute Poisson dips do
        // not flap the allocation; Proteus re-solves each window from the
        // raw observation — the very behaviour §5.7 charges with constant
        // model switching; per-worker and static policies do not estimate
        // demand at all.
        let observed = self.arrival_rate.per_minute(t);
        match self.pipeline.plan_tick(observed, self.last_demand) {
            TickAction::Reallocate { estimate_qpm } => {
                self.last_demand = estimate_qpm;
                self.reallocate(t, provisioning_target(estimate_qpm));
            }
            TickAction::AdaptPerWorker => {
                self.last_demand = observed;
                let ladder = self.pipeline.active_ladder(&self.switcher);
                let changes = self.pipeline.adapt_worker_levels(&self.cluster, &ladder);
                for (w, level) in changes {
                    self.assign_and_schedule(w, level, t);
                }
            }
            TickAction::Heal => {
                // Static placements; just heal recovered workers.
                self.last_demand = observed;
                self.heal_unassigned(t);
            }
        }

        // Classifier accuracy sampling for Fig. 18: the live classifier
        // against the oracle over the 200 most recent prompts.
        if self.pipeline.uses_classifier() && self.jobs.recent().len() > 0 {
            let strategy = self.switcher.planning_strategy();
            let ladder = ApproxLevel::ladder(strategy);
            self.metrics.accuracy(
                t.as_minutes() as u64,
                self.jobs.recent().rev().take(200),
                ladder,
                &self.classifiers[&strategy],
                &self.oracle,
            );
        }

        self.sample_pool_allocation();
        // Saturation is consumed (and cleared) by the fleet tick; latch it
        // first so the telemetry sample reports what this minute saw.
        let tick_saturated = self.tick_saturated;
        self.fleet_tick(t, resplit_fired);
        self.obs_tick(t, tick_saturated);
        if t + TICK <= self.horizon {
            self.queue.schedule(t + TICK, Event::Tick);
        }
    }

    /// Fleet work at the allocator tick: a membership sample for the
    /// cost integral, then — when an autoscaler is configured — the
    /// controller step and the execution of its decisions.
    fn fleet_tick(&mut self, t: SimTime, resplit_fired: bool) {
        self.record_membership(t);
        if self.cfg.autoscaler.is_none() {
            self.tick_saturated = false;
            return;
        }
        // Per-pool load signals off the last plan, from which the
        // controller also decides idleness. Non-solver policies never
        // plan, so they produce no signals and never scale — the
        // autoscaler is a planner feature by construction.
        let tick_secs = TICK.as_secs();
        let signals: Vec<PoolSignal> = self
            .pool_plans
            .iter()
            .map(|plan| {
                let (alive, jobs) = self.cluster.pool_load(plan.spec.gpu);
                // Backlog expressed as the drain rate needed to clear it
                // within one tick, against the plan's capacity at the
                // pool's current size.
                let backlog_qpm = jobs as f64 * 60.0 / tick_secs;
                let cap_qpm = plan.current_cap_qpm(alive.max(1));
                let pressured = self.tick_saturated || resplit_fired || backlog_qpm > cap_qpm;
                let pending = self
                    .provisioning
                    .iter()
                    .filter(|&&p| self.cluster.worker(WorkerId(p)).gpu() == plan.spec.gpu)
                    .count();
                PoolSignal {
                    gpu: plan.spec.gpu,
                    pressured,
                    backlog_qpm,
                    cap_qpm,
                    share_qpm: plan.share_qpm,
                    alive,
                    pending,
                }
            })
            .collect();
        self.tick_saturated = false;
        if signals.is_empty() {
            return;
        }
        let actions = self.fleet.tick(t, &signals);
        let changed = !actions.is_empty();
        for action in actions {
            match action {
                ScaleAction::Out { gpu, n, delay } => {
                    for _ in 0..n {
                        let wid = self.cluster.provision(gpu, t);
                        self.worker_spot.push(None);
                        self.provisioning.push(wid.0);
                        self.queue
                            .schedule(t + delay, Event::Provision(wid.0 as u32));
                    }
                }
                ScaleAction::In { gpu, n } => {
                    // Victims: idle workers only (no in-flight pass),
                    // youngest first, so long-lived members keep their
                    // cache-plane replicas. Queued jobs migrate.
                    let mut victims: Vec<WorkerId> = self
                        .cluster
                        .alive_on(gpu)
                        .into_iter()
                        .filter(|&w| self.cluster.worker(w).in_flight_count() == 0)
                        .collect();
                    victims.sort_by_key(|w| std::cmp::Reverse(w.0));
                    victims.truncate(n);
                    self.fleet.retired(victims.len() as u64);
                    for w in victims {
                        assert_eq!(
                            self.cluster.worker(w).in_flight_count(),
                            0,
                            "scale-in must never evict a worker with in-flight jobs"
                        );
                        self.fail_worker_now(w.0, t);
                    }
                }
            }
        }
        if changed {
            self.record_membership(t);
        }
    }

    fn on_probe(&mut self, t: SimTime) {
        if self.pipeline.switches_strategy()
            && self.cfg.allow_strategy_switch
            && self.switcher.state() == SwitcherState::Sm
        {
            let (lat, ok) = self.cache.probe(t);
            if let Some(SwitchCommand::ToAc) = self.switcher.on_probe(lat.as_secs(), ok, t) {
                self.begin_transition(t);
            }
        }
        if t + PROBE <= self.horizon {
            self.queue.schedule(t + PROBE, Event::Probe);
        }
    }

    fn on_fault(&mut self, i: usize, t: SimTime) {
        match self.cfg.faults[i].clone() {
            FaultEvent::WorkerFail { workers, .. } => {
                for wi in workers {
                    if wi >= self.cluster.len() {
                        continue;
                    }
                    self.fail_worker_now(wi, t);
                }
            }
            FaultEvent::WorkerRecover { workers, .. } => {
                for wi in workers {
                    if wi < self.cluster.len() {
                        self.cluster.recover(WorkerId(wi), t);
                        // Its cache-plane replicas come back (cold where
                        // the shard survived elsewhere, migrated where the
                        // whole shard had died — see the anti-entropy pass
                        // in `argus_vdb::ShardedIndex::recover_replica`).
                        self.cache.worker_recover(wi);
                    }
                }
                // The allocator reassigns them on its next tick (within a
                // minute, §5.6).
            }
            FaultEvent::Preemption {
                workers,
                warning_secs,
                ..
            } => {
                for wi in workers {
                    if wi >= self.cluster.len() {
                        continue;
                    }
                    if warning_secs <= 0.0 {
                        // No warning window: an unwarned crash. Counted
                        // against the preemption tallies, but the serving
                        // effect is bit-identical to a WorkerFail.
                        self.reclaim_now(wi, t);
                        continue;
                    }
                    // Warned reclaim: drain the doomed worker now — queued
                    // jobs migrate to survivors immediately, the in-flight
                    // pass races the warning window — and schedule the
                    // actual disappearance. Billing continues until then.
                    // The warning names the drain in progress (its own, or
                    // an earlier warning's it joins), which a recover ends.
                    let migrated = self.cluster.begin_drain(WorkerId(wi), t);
                    let drain = self.cluster.worker(WorkerId(wi)).drains_begun();
                    for job in migrated {
                        self.dispatch(job as usize, t);
                    }
                    self.queue.schedule(
                        t + SimDuration::from_secs(warning_secs),
                        Event::Preempt(wi as u32, drain),
                    );
                }
            }
        }
        self.record_membership(t);
    }

    /// Executes an unwarned worker loss: cache-plane failover first (so
    /// rerouted jobs' retrievals already see the post-failover plane),
    /// then the crash, then rerouting of everything the worker was
    /// holding (end-to-end latency keeps accruing from the original
    /// arrival). Shared verbatim by crash
    /// faults, expired preemption warnings and scale-in retirement, so
    /// all three are bit-identical in effect.
    fn fail_worker_now(&mut self, wi: usize, t: SimTime) {
        self.cache.worker_fail(wi);
        let lost = self.cluster.fail(WorkerId(wi), t);
        for job in lost {
            self.dispatch(job as usize, t);
        }
    }

    /// A scale-out's provisioning delay elapsed: the worker enters the
    /// serving set (cold — the allocator assigns it a level on its next
    /// tick, like any recovery).
    fn on_provision(&mut self, wi: usize, t: SimTime) {
        self.provisioning.retain(|&p| p != wi);
        self.cluster.recover(WorkerId(wi), t);
        self.cache.worker_recover(wi);
        self.record_membership(t);
    }

    /// A preemption warning expired: the instance disappears now, if it
    /// is still in drain number `drain`, the one the warning announced. A
    /// recover during the window cancelled that drain (a false alarm), and
    /// a worker warned again after it is taken by the later warning.
    fn on_preempt_fire(&mut self, wi: usize, drain: u32, t: SimTime) {
        let w = self.cluster.worker(WorkerId(wi));
        if w.is_draining() && w.drains_begun() == drain && self.reclaim_now(wi, t) {
            self.record_membership(t);
        }
    }

    /// A spot reclaim takes worker `wi` now, whether its warning expired
    /// or it had none. If nothing was in flight the preemption was
    /// "ridden" (nothing lost); otherwise the in-flight jobs reroute and
    /// restart from scratch on survivors. A worker a separate fault
    /// already took down is not reclaimed again and counts as no
    /// preemption; returns whether the reclaim happened.
    fn reclaim_now(&mut self, wi: usize, t: SimTime) -> bool {
        if self.cluster.worker(WorkerId(wi)).is_failed() {
            return false;
        }
        let clean = self.cluster.worker(WorkerId(wi)).in_flight_count() == 0;
        self.fleet.preempt(clean as u64, !clean as u64);
        self.fail_worker_now(wi, t);
        true
    }

    /// Reports the billed membership in force from `t` to the fleet
    /// stage: per-(architecture, discount) counts of workers currently
    /// rented — everything not failed, including draining instances
    /// (their warning window is still billed) — in worker-id order.
    pub(crate) fn record_membership(&mut self, t: SimTime) {
        let mut counts: Vec<(GpuArch, f64, u32)> = Vec::new();
        for (i, w) in self.cluster.iter().enumerate() {
            if w.is_failed() {
                continue;
            }
            let discount = self.worker_spot.get(i).copied().flatten().unwrap_or(0.0);
            let gpu = w.gpu();
            match counts
                .iter_mut()
                .find(|(g, d, _)| *g == gpu && *d == discount)
            {
                Some(e) => e.2 += 1,
                None => counts.push((gpu, discount, 1)),
            }
        }
        self.fleet.membership(t, counts);
    }

    // ---------------------------------------------------------------- //
    // Allocation
    // ---------------------------------------------------------------- //

    /// The retrieval overhead a pool's Eq. 1 derating plans with.
    fn pool_overhead(&self, strategy: Strategy) -> f64 {
        if strategy == Strategy::Ac {
            self.retrieval_ewma
        } else {
            0.0
        }
    }

    /// The escalation rate a pool's Eq. 1 pricing plans with: on cascade
    /// runs with pricing enabled, the observed escalation-rate EWMA at the
    /// first-pass rung (read from the metrics stage each tick), when it
    /// is positive. `None` everywhere else, so every other configuration
    /// prices exactly as before.
    fn escalation_rate_for(&self, strategy: Strategy) -> Option<f64> {
        let c = self.cascade.as_ref()?;
        if !c.price_escalations || strategy != Strategy::Sm {
            return None;
        }
        let rate = c.first_pass_rate;
        (rate > 0.0).then_some(rate)
    }

    /// Solves Eq. 1 for the current demand via the planner stage and
    /// applies the result: worker level assignments plus the PASM (Argus)
    /// or the proportional map (PAC/Proteus). While switching to SM the
    /// demand is scaled by the switcher's margin (§4.6), so the SM
    /// allocation absorbs the transition.
    ///
    /// On heterogeneous fleets the problem decomposes by architecture:
    /// each pool gets its own latency/peak-QPM tables (and, when the
    /// pinned-ladder table pins it, its own strategy's ladder) and a
    /// demand share proportional to its maximum capacity, and the planner
    /// stage solves the per-pool allocations in pool order. Load
    /// distributions merge index-wise into one cluster-wide `ω` (every
    /// ladder has [`RUNGS`] rungs, slowest first, so the rung is the
    /// common currency).
    pub(crate) fn reallocate(&mut self, t: SimTime, demand_qpm: f64) {
        let global = self.pipeline.planning_strategy(&self.switcher);
        let active = ApproxLevel::ladder(global);
        // Alive workers grouped by architecture, in pool order.
        let pools: Vec<(GpuArch, Vec<WorkerId>)> = self
            .cluster
            .arches()
            .into_iter()
            .map(|gpu| (gpu, self.cluster.alive_on(gpu)))
            .filter(|(_, ws)| !ws.is_empty())
            .collect();
        if pools.is_empty() {
            return;
        }
        let total_demand = demand_qpm * self.switcher.demand_margin();
        let specs: Vec<PoolSpec> = pools
            .iter()
            .map(|(gpu, ws)| {
                let ladder = self.pinned.ladder(*gpu, active);
                let strategy = ladder[0].strategy();
                PoolSpec {
                    gpu: *gpu,
                    ladder,
                    workers: ws.len(),
                    overhead: self.pool_overhead(strategy),
                    escalation: self.escalation_rate_for(strategy),
                }
            })
            .collect();
        let (saturated, plans) = self.planner.plan(specs, total_demand);
        if saturated {
            // A minute counts once, however many solves it saw: set-up,
            // its tick, or an AC↔SM switch's re-solve.
            let minute = t.as_micros() / TICK.as_micros();
            if self.last_saturated_minute != Some(minute) {
                self.last_saturated_minute = Some(minute);
                self.saturated_minutes += 1;
            }
            self.tick_saturated = true;
        }
        for (plan, (_, ws)) in plans.iter().zip(&pools) {
            self.apply_allocation(plan.spec.ladder, &plan.workers_per_level, ws, t);
        }
        self.pool_plans = plans;
        self.refresh_distribution(global);
        self.check_transition_complete(t);
    }

    /// Re-merges the per-pool load vectors into the cluster-wide `ω` and
    /// refreshes the PASM (Argus) or the proportional map (PAC/Proteus).
    /// Shared by [`SystemSimulation::reallocate`] and the mid-minute
    /// re-split, so a partial re-solve updates routing consistently.
    fn refresh_distribution(&mut self, strategy: Strategy) {
        let n = self
            .pool_plans
            .first()
            .map(|p| p.omega_qpm.len())
            .unwrap_or(self.omega_norm.len());
        let mut omega_qpm = vec![0.0; n];
        for plan in &self.pool_plans {
            for (o, w) in omega_qpm.iter_mut().zip(&plan.omega_qpm) {
                *o += w;
            }
        }
        self.omega_norm = crate::solver::normalize_load(&omega_qpm);

        // PASM for Argus; proportional for the prompt-agnostic systems.
        if self.pipeline.uses_oda() {
            let phi = self.predictors[&strategy].phi();
            self.pasm = oda(&phi, &self.omega_norm).unwrap_or_else(|_| Pasm::identity(RUNGS));
        } else {
            self.pasm =
                Pasm::proportional(&self.omega_norm).unwrap_or_else(|_| Pasm::identity(RUNGS));
        }
    }

    /// Mid-minute demand re-splitting (`RunConfig::with_demand_resplit`):
    /// checked on every arrival, fires at most once per allocator tick.
    ///
    /// Two trigger rules, either sufficient:
    ///
    /// 1. **Backlog drain-rate**: a pool is *saturated intra-tick* when
    ///    its backlog, expressed as the drain rate needed to clear it by
    ///    the next tick (`jobs × 60 / seconds-remaining`), exceeds the
    ///    pool's planned capacity.
    /// 2. **Retrieval-overhead spike**: an AC pool whose plan priced
    ///    retrieval at the plan-time EWMA is effectively smaller when the
    ///    cache plane degrades mid-minute (every AC job pays the inflated
    ///    round trip before computing). When the current EWMA at least
    ///    doubles the plan-time estimate and has grown by ≥20 ms, the
    ///    pool's capacity is re-derated at the current overhead; the pool
    ///    is saturated if its planned share exceeds that effective
    ///    capacity.
    ///
    /// When at least one pool is saturated and at least one other has
    /// headroom, the aggregate excess rate is re-split across the
    /// unsaturated pools proportionally to their remaining capacity, each
    /// such pool is re-solved with its share grown by its portion, and
    /// ω/PASM are re-merged. The saturated pool's allocation is left
    /// untouched — it is already planned at capacity, and its queued jobs
    /// drain fastest on the levels they were planned for.
    fn maybe_resplit(&mut self, t: SimTime) {
        /// Leave the last stretch of a tick to the upcoming re-solve: a
        /// re-split this close to the boundary cannot move meaningful
        /// work before the allocator re-plans anyway.
        const MIN_WINDOW_SECS: f64 = 10.0;
        /// Overhead-spike trigger: the current retrieval EWMA must at
        /// least double the plan-time estimate…
        const SPIKE_FACTOR: f64 = 2.0;
        /// …and grow by an absolute floor, so a 2 ms → 5 ms wiggle on a
        /// healthy plane never re-splits.
        const SPIKE_FLOOR_SECS: f64 = 0.02;
        if !self.cfg.demand_resplit || self.resplit_done || self.pool_plans.len() < 2 {
            return;
        }
        let tick_secs = TICK.as_secs();
        let remaining_secs = tick_secs - t.as_secs() % tick_secs;
        if remaining_secs < MIN_WINDOW_SECS {
            return;
        }
        // The drain rate each pool needs to clear its backlog by the next
        // tick, against the capacity it was planned with — scaled to the
        // pool's *current* alive workers, so a mid-minute fault shows up
        // as lost capacity immediately. For AC pools under a retrieval
        // spike, the capacity is additionally re-derated at the current
        // overhead (a planner query).
        let cache_active = self.cache_active();
        // Each pool's (backlog drain rate, capacity), in a buffer kept
        // across arrivals.
        let mut pressure = std::mem::take(&mut self.resplit_pressure);
        pressure.clear();
        for plan in &self.pool_plans {
            let (alive, jobs) = self.cluster.pool_load(plan.spec.gpu);
            let backlog_qpm = jobs as f64 * 60.0 / remaining_secs;
            let mut cap = plan.current_cap_qpm(alive);
            let spiked = cache_active
                && plan.spec.strategy() == Strategy::Ac
                && self.retrieval_ewma > SPIKE_FACTOR * plan.spec.overhead
                && self.retrieval_ewma - plan.spec.overhead > SPIKE_FLOOR_SECS;
            if spiked {
                let spec = PoolSpec {
                    workers: alive.max(1),
                    overhead: self.retrieval_ewma,
                    // The spike re-derate fires for AC pools only,
                    // where escalation pricing is `None` by
                    // definition (cascades run the SM ladder).
                    escalation: None,
                    ..plan.spec
                };
                cap = cap.min(self.planner.capacity(&spec));
            }
            pressure.push((
                backlog_qpm.max(if spiked { plan.share_qpm } else { 0.0 }),
                cap,
            ));
        }
        let headroom = |&(b, cap): &(f64, f64)| if b > cap { 0.0 } else { (cap - b).max(0.0) };
        let excess: f64 = pressure
            .iter()
            .filter(|&&(b, cap)| b > cap)
            .map(|&(b, cap)| b - cap)
            .sum();
        let total_headroom: f64 = pressure.iter().map(headroom).sum();
        if excess <= 0.0 || total_headroom <= 0.0 {
            self.resplit_pressure = pressure;
            return;
        }

        self.resplit_done = true;
        self.demand_resplits += 1;
        for (i, pool) in pressure.iter().enumerate() {
            let extra = excess * headroom(pool) / total_headroom;
            if extra <= 0.0 {
                continue;
            }
            let plan = &self.pool_plans[i];
            let ws = self.cluster.alive_on(plan.spec.gpu);
            if ws.is_empty() {
                continue;
            }
            let strategy = plan.spec.strategy();
            let spec = PoolSpec {
                workers: ws.len(),
                overhead: self.pool_overhead(strategy),
                escalation: self.escalation_rate_for(strategy),
                ..plan.spec
            };
            let resolved = self.planner.solve(spec, plan.share_qpm + extra);
            self.apply_allocation(resolved.spec.ladder, &resolved.workers_per_level, &ws, t);
            // The stored spec and capacity keep their plan-time values:
            // the spike trigger and `current_cap_qpm` read them.
            let plan = &mut self.pool_plans[i];
            plan.share_qpm = resolved.share_qpm;
            plan.omega_qpm = resolved.omega_qpm;
            plan.workers_per_level = resolved.workers_per_level;
        }
        self.resplit_pressure = pressure;
        let strategy = self.pipeline.planning_strategy(&self.switcher);
        self.refresh_distribution(strategy);
    }

    /// Samples the per-architecture allocated-worker counts (alive
    /// workers holding or loading toward a level) — the
    /// [`PoolStats::mean_allocated_workers`] numerator.
    pub(crate) fn sample_pool_allocation(&mut self) {
        let counts: Vec<(GpuArch, u64)> = self
            .cluster
            .arches()
            .into_iter()
            .map(|gpu| {
                let allocated = self
                    .cluster
                    .alive_on(gpu)
                    .iter()
                    .filter(|&&w| {
                        let worker = self.cluster.worker(w);
                        worker.level().is_some() || worker.pending_level().is_some()
                    })
                    .count() as u64;
                (gpu, allocated)
            })
            .collect();
        for &(gpu, allocated) in &counts {
            self.obs_gauge_set(alloc_gauge_name(gpu), allocated as f64);
        }
        self.metrics.pool_alloc(&counts);
    }

    /// Moves the listed workers to the target per-level counts with the
    /// minimum number of model loads.
    fn apply_allocation(
        &mut self,
        ladder: &[ApproxLevel],
        counts: &[usize],
        alive: &[WorkerId],
        t: SimTime,
    ) {
        let mut used = vec![0usize; ladder.len()];
        let mut pool: Vec<WorkerId> = Vec::new();

        // First pass: keep workers already serving (or loading toward) a
        // still-needed level.
        for &w in alive {
            let worker = self.cluster.worker(w);
            let lvl = worker.pending_level().or(worker.level());
            let keep = lvl
                .and_then(|l| ladder.iter().position(|&x| x == l))
                .filter(|&i| used[i] < counts[i]);
            match keep {
                Some(i) => used[i] += 1,
                None => pool.push(w),
            }
        }
        // Second pass: fill deficits, preferring workers with the target
        // weights already resident (zero-cost switch).
        for lvl_idx in 0..ladder.len() {
            while used[lvl_idx] < counts[lvl_idx] {
                let Some(pos) = pool
                    .iter()
                    .position(|&w| {
                        self.cluster
                            .worker(w)
                            .resident_models()
                            .contains(&ladder[lvl_idx].resident_model())
                    })
                    .or_else(|| (!pool.is_empty()).then_some(0))
                else {
                    break;
                };
                let w = pool.remove(pos);
                self.assign_and_schedule(w, ladder[lvl_idx], t);
                used[lvl_idx] += 1;
            }
        }
        // Any leftover workers park at the slowest level (spare quality
        // headroom).
        for w in pool {
            self.assign_and_schedule(w, ladder[0], t);
        }
    }

    /// Gives recovered (level-less) workers the pipeline's static level.
    pub(crate) fn heal_unassigned(&mut self, t: SimTime) {
        let level = self.pipeline.static_level();
        for w in self.cluster.alive() {
            let worker = self.cluster.worker(w);
            if worker.level().is_none() && worker.pending_level().is_none() {
                self.assign_and_schedule(w, level, t);
            }
        }
    }

    /// Assigns `level` to `w`: an immediate switch may start a pass, a
    /// weight load schedules its completion.
    pub(crate) fn assign_and_schedule(&mut self, w: WorkerId, level: ApproxLevel, t: SimTime) {
        match self.cluster.assign_level(w, level, t) {
            SwitchOutcome::Immediate => self.maybe_start(w, t),
            SwitchOutcome::Loading(d) => {
                self.metrics.model_load(t);
                self.queue.schedule(t + d, Event::LoadDone(w));
            }
        }
    }

    /// Starts the cluster moving toward the switcher's new target strategy
    /// (called right after the switcher emits a command).
    fn begin_transition(&mut self, t: SimTime) {
        let demand = provisioning_target(self.arrival_rate.per_minute(t));
        self.reallocate(t, demand);
    }

    /// Completes a strategy transition once every alive worker serves a
    /// level of the target strategy.
    fn check_transition_complete(&mut self, t: SimTime) {
        let target = match self.switcher.state() {
            SwitcherState::SwitchingToSm => Strategy::Sm,
            SwitcherState::SwitchingToAc => Strategy::Ac,
            _ => return,
        };
        let done = self.cluster.alive().iter().all(|&w| {
            let worker = self.cluster.worker(w);
            // Pools pinned by `with_pool_strategy` never transition.
            self.pinned.strategy(worker.gpu()).is_some()
                || worker.level().is_some_and(|l| l.strategy() == target)
        });
        if done {
            self.switcher.on_transition_complete(t);
        }
    }
}
