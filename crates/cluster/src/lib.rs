//! # argus-cluster — GPU workers as explicit state machines
//!
//! The paper's testbed is 8 A100 workers, each running one model variant
//! in a Docker container (§4.7). This crate models each worker's state —
//! assigned approximation level, resident model weights, FIFO queue,
//! in-flight pass, background model loads, and failures — plus the
//! bookkeeping the evaluation needs (busy-time integral for the §5.7
//! utilization numbers, switch counts for the variant-switching-overhead
//! analysis).
//!
//! Two behaviours from §4.6 are modelled faithfully:
//!
//! * **Loads happen in the background**: a worker keeps serving its
//!   current model while the next variant loads (80 GB HBM holds two
//!   diffusion models), so switching costs throughput, not downtime.
//! * **Level changes within AC are free**: adjusting the skip step `K`
//!   needs no load, because every AC level runs the same SD-XL weights.
//!
//! The discrete-event loop lives in `argus-core`; this crate provides the
//! passive state machines it drives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use argus_des::{SimDuration, SimTime};
use argus_models::{latency::Loader, ApproxLevel, GpuArch, ModelVariant};

/// Identifier of a job queued on a worker (the core maps these to
/// prompts).
pub type JobId = u64;

/// Identifier of a worker within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub usize);

impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Maximum co-resident model variants per GPU (§4.6: 80 GB HBM holds two
/// diffusion models during switches).
pub const MAX_RESIDENT_MODELS: usize = 2;

/// Result of assigning a new approximation level to a worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwitchOutcome {
    /// The required weights are already resident; the level is active
    /// immediately (always the case within AC).
    Immediate,
    /// A background load of the returned duration began; the worker keeps
    /// serving its previous level until [`Worker::finish_load`] is called.
    Loading(SimDuration),
}

/// One GPU worker.
#[derive(Debug, Clone)]
pub struct Worker {
    id: WorkerId,
    gpu: GpuArch,
    /// The level the worker currently serves.
    level: Option<ApproxLevel>,
    /// Background load in progress: target level and completion time.
    pending: Option<(ApproxLevel, SimTime)>,
    /// Weights resident in HBM, most recently used last.
    resident: Vec<ModelVariant>,
    queue: std::collections::VecDeque<JobId>,
    /// Jobs currently executing as one pass, in start order. Unbatched
    /// serving keeps at most one.
    in_flight: Vec<JobId>,
    failed: bool,
    /// Preemption-warning drain: the worker finishes its in-flight pass
    /// but accepts no new work, and the dispatcher stops selecting it
    /// (it drops out of [`Cluster::alive`]). Billing continues — a
    /// draining spot instance is still rented until it disappears.
    draining: bool,
    /// HBM capacity in co-resident model variants. Argus keeps
    /// [`MAX_RESIDENT_MODELS`] (§4.6); systems that swap the serving model
    /// in place run with a single slot and pay a load on every switch.
    hbm_slots: usize,
    // --- statistics ---
    busy: SimDuration,
    busy_since: Option<SimTime>,
    created_at: SimTime,
    failed_total: SimDuration,
    failed_since: Option<SimTime>,
    completed: u64,
    loads: u64,
}

impl Worker {
    /// Creates an idle worker with no model loaded.
    pub fn new(id: WorkerId, gpu: GpuArch) -> Self {
        Worker {
            id,
            gpu,
            level: None,
            pending: None,
            resident: Vec::new(),
            queue: std::collections::VecDeque::new(),
            in_flight: Vec::new(),
            failed: false,
            draining: false,
            hbm_slots: MAX_RESIDENT_MODELS,
            busy: SimDuration::ZERO,
            busy_since: None,
            created_at: SimTime::ZERO,
            failed_total: SimDuration::ZERO,
            failed_since: None,
            completed: 0,
            loads: 0,
        }
    }

    /// Creates a worker mid-run, in the *provisioning* state: it counts
    /// as failed (invisible to dispatch, unbilled) until the caller
    /// brings it up with [`Worker::recover`] at the end of the cloud
    /// provisioning delay. `at` anchors its utilization accounting so
    /// pre-birth time never dilutes the busy fraction.
    pub fn provisioning(id: WorkerId, gpu: GpuArch, at: SimTime) -> Self {
        let mut w = Worker::new(id, gpu);
        w.created_at = at;
        w.failed = true;
        w.failed_since = Some(at);
        w
    }

    /// The worker id.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// The GPU architecture.
    pub fn gpu(&self) -> GpuArch {
        self.gpu
    }

    /// The currently served approximation level.
    pub fn level(&self) -> Option<ApproxLevel> {
        self.level
    }

    /// The level being loaded in the background, if any.
    pub fn pending_level(&self) -> Option<ApproxLevel> {
        self.pending.map(|(l, _)| l)
    }

    /// Whether the worker has failed.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Whether the worker is draining ahead of a preemption (see
    /// [`Worker::begin_drain`]).
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// When the worker was created (run start, or the provisioning
    /// instant for workers added by a scale-out).
    pub fn created_at(&self) -> SimTime {
        self.created_at
    }

    /// Whether a job is currently executing.
    pub fn is_busy(&self) -> bool {
        !self.in_flight.is_empty()
    }

    /// Number of queued (not yet started) jobs.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Number of jobs executing in the current (possibly batched) pass.
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    /// Queued plus in-flight job count — the `queue_w` of Eq. 3. A batch
    /// of `b` in-flight jobs counts as `b`.
    pub fn backlog(&self) -> usize {
        self.queue.len() + self.in_flight.len()
    }

    /// Resident model variants.
    pub fn resident_models(&self) -> &[ModelVariant] {
        &self.resident
    }

    /// Sets the HBM capacity in co-resident model variants.
    ///
    /// # Panics
    /// Panics if `slots == 0`.
    pub fn set_hbm_slots(&mut self, slots: usize) {
        assert!(slots > 0, "a worker needs at least one HBM slot");
        self.hbm_slots = slots;
        while self.resident.len() > self.hbm_slots {
            self.resident.remove(0);
        }
    }

    /// The HBM capacity in co-resident model variants.
    pub fn hbm_slots(&self) -> usize {
        self.hbm_slots
    }

    /// Assigns a new approximation level at time `now`.
    ///
    /// If the level's weights are resident the switch is immediate;
    /// otherwise a background load starts (Accelerate loader, Table 2) and
    /// the worker keeps serving its old level until [`Worker::finish_load`].
    ///
    /// # Panics
    /// Panics if the worker has failed.
    pub fn assign_level(&mut self, level: ApproxLevel, now: SimTime) -> SwitchOutcome {
        assert!(!self.failed, "cannot assign a level to a failed worker");
        let model = level.resident_model();
        if self.resident.contains(&model) {
            // Mark as most recently used.
            self.resident.retain(|&m| m != model);
            self.resident.push(model);
            self.level = Some(level);
            self.pending = None;
            return SwitchOutcome::Immediate;
        }
        let load =
            SimDuration::from_secs(argus_models::latency::load_secs(model, Loader::Accelerate));
        self.pending = Some((level, now + load));
        self.loads += 1;
        SwitchOutcome::Loading(load)
    }

    /// Completes the background load (call at the time reported by
    /// [`SwitchOutcome::Loading`]). Evicts the least-recently-used resident
    /// model if HBM would exceed [`MAX_RESIDENT_MODELS`]. No-op if the load
    /// was superseded or the worker failed meanwhile.
    pub fn finish_load(&mut self, now: SimTime) {
        if self.failed {
            return;
        }
        let Some((level, ready_at)) = self.pending else {
            return;
        };
        if now < ready_at {
            return;
        }
        let model = level.resident_model();
        self.resident.push(model);
        while self.resident.len() > self.hbm_slots {
            self.resident.remove(0);
        }
        self.level = Some(level);
        self.pending = None;
    }

    /// Pre-warms the worker with `level` active and its weights resident,
    /// without a load delay. Models pre-deployment warm-up: production
    /// clusters load models before accepting traffic (§4.7).
    ///
    /// # Panics
    /// Panics if the worker has failed.
    pub fn preload(&mut self, level: ApproxLevel) {
        assert!(!self.failed, "cannot preload a failed worker");
        let model = level.resident_model();
        if !self.resident.contains(&model) {
            self.resident.push(model);
            while self.resident.len() > self.hbm_slots {
                self.resident.remove(0);
            }
        }
        self.level = Some(level);
        self.pending = None;
    }

    /// Adds a job to the tail of the queue.
    ///
    /// # Panics
    /// Panics if the worker has failed.
    pub fn enqueue(&mut self, job: JobId) {
        assert!(!self.failed, "cannot enqueue on a failed worker");
        assert!(!self.draining, "cannot enqueue on a draining worker");
        self.queue.push_back(job);
    }

    /// Queued job ids in FIFO order.
    pub fn queued_jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.queue.iter().copied()
    }

    /// The `i`-th queued job in FIFO order, if any. A start drains the
    /// queue's prefix, so the caller walks it by index to compute per-job
    /// service estimates before committing to [`Worker::try_start_batch`].
    pub fn queued_job(&self, i: usize) -> Option<JobId> {
        self.queue.get(i).copied()
    }

    /// The first currently executing job, if any. Callers that schedule
    /// one completion event per start use this to detect events made
    /// stale by a failure.
    pub fn in_flight_job(&self) -> Option<JobId> {
        self.in_flight.first().copied()
    }

    /// All currently executing jobs, in start order.
    pub fn in_flight_jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.in_flight.iter().copied()
    }

    /// Whether this worker could start a job right now (idle, serving a
    /// level, not failed or draining, queue non-empty).
    pub fn can_start(&self) -> bool {
        !self.failed
            && !self.draining
            && self.in_flight.is_empty()
            && self.level.is_some()
            && !self.queue.is_empty()
    }

    /// Starts up to `count` queued jobs, the queue's prefix, as one pass
    /// at `now`; a batch of one is unbatched serving. Returns how many
    /// started: none if the worker is failed, draining, busy, level-less
    /// or has an empty queue. The caller decides the pass's duration and
    /// later calls [`Worker::finish_batch`].
    pub fn try_start_batch(&mut self, now: SimTime, count: usize) -> usize {
        if self.failed || self.draining || !self.in_flight.is_empty() || self.level.is_none() {
            return 0;
        }
        let n = count.min(self.queue.len());
        self.in_flight.extend(self.queue.drain(..n));
        if n > 0 {
            self.busy_since = Some(now);
        }
        n
    }

    /// Completes every in-flight job of the current pass at time `now`,
    /// returning the jobs in start order.
    ///
    /// # Panics
    /// Panics if no job is in flight.
    pub fn finish_batch(&mut self, now: SimTime) -> Vec<JobId> {
        assert!(!self.in_flight.is_empty(), "no job in flight");
        if let Some(since) = self.busy_since.take() {
            self.busy += now - since;
        }
        self.completed += self.in_flight.len() as u64;
        self.in_flight.drain(..).collect()
    }

    /// Begins a preemption-warning drain: queued jobs are handed back for
    /// migration, the in-flight pass (if any) runs to completion, and no
    /// new work starts. The worker stays alive for utilization/billing
    /// until [`Worker::fail`] (the preemption firing) or
    /// [`Worker::recover`] (a cancelled preemption) ends the drain.
    /// No-op on a failed or already-draining worker.
    pub fn begin_drain(&mut self, _now: SimTime) -> Vec<JobId> {
        if self.failed || self.draining {
            return Vec::new();
        }
        self.draining = true;
        self.queue.drain(..).collect()
    }

    /// Fails the worker at `now`, returning every job it held (queued and
    /// in-flight) so the caller can reroute or count them as violations.
    pub fn fail(&mut self, now: SimTime) -> Vec<JobId> {
        if self.failed {
            return Vec::new();
        }
        self.failed = true;
        self.draining = false;
        self.failed_since = Some(now);
        if let Some(since) = self.busy_since.take() {
            self.busy += now - since;
        }
        let mut lost: Vec<JobId> = self.queue.drain(..).collect();
        lost.append(&mut self.in_flight);
        self.pending = None;
        // Weights are gone: the container restarts cold.
        self.resident.clear();
        self.level = None;
        lost
    }

    /// Recovers a failed worker at `now` (cold: no model resident; the
    /// allocator must assign a level, incurring a load).
    pub fn recover(&mut self, now: SimTime) {
        if !self.failed {
            // A recover aimed at a draining worker cancels the drain (the
            // preemption warning was a false alarm); on a healthy worker
            // it stays the documented no-op.
            self.draining = false;
            return;
        }
        self.failed = false;
        self.draining = false;
        if let Some(since) = self.failed_since.take() {
            self.failed_total += now - since;
        }
    }

    /// Cumulative busy time (in-flight execution only).
    pub fn busy_time(&self, now: SimTime) -> SimDuration {
        let mut b = self.busy;
        if let Some(since) = self.busy_since {
            b += now - since;
        }
        b
    }

    /// Fraction of non-failed wall-clock time spent executing jobs.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let mut down = self.failed_total;
        if let Some(since) = self.failed_since {
            down += now - since;
        }
        let alive = (now - self.created_at).saturating_sub(down);
        if alive.is_zero() {
            0.0
        } else {
            self.busy_time(now) / alive
        }
    }

    /// Completed job count.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Model-load (switch) count.
    pub fn loads(&self) -> u64 {
        self.loads
    }
}

/// A cluster of GPU workers. The paper's testbed is a fixed 8×A100 fleet
/// (§1), and a cluster built once and never grown reproduces it exactly;
/// the elastic-fleet subsystem additionally grows membership mid-run via
/// [`Cluster::provision`] (workers join in the provisioning state and
/// come up through [`Worker::recover`]) and shrinks it by failing or
/// draining workers in place — ids are stable for the whole run.
///
/// Production fleets also mix generations: [`Cluster::heterogeneous`]
/// builds per-architecture pools with contiguous worker ids, and the
/// allocator solves Eq. 1 per pool.
#[derive(Debug, Clone)]
pub struct Cluster {
    workers: Vec<Worker>,
}

impl Cluster {
    /// Creates `n` workers on the given architecture.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, gpu: GpuArch) -> Self {
        Self::heterogeneous(&[(gpu, n)])
    }

    /// Creates a cluster from per-architecture pools; worker ids are
    /// assigned contiguously in pool order. Pools with a zero count are
    /// skipped.
    ///
    /// # Panics
    /// Panics if the pools sum to zero workers.
    pub fn heterogeneous(pools: &[(GpuArch, usize)]) -> Self {
        let total: usize = pools.iter().map(|&(_, n)| n).sum();
        assert!(total > 0, "cluster needs at least one worker");
        let mut workers = Vec::with_capacity(total);
        for &(gpu, n) in pools {
            for _ in 0..n {
                workers.push(Worker::new(WorkerId(workers.len()), gpu));
            }
        }
        Cluster { workers }
    }

    /// Distinct architectures present, in first-appearance (pool) order.
    pub fn arches(&self) -> Vec<GpuArch> {
        let mut seen = Vec::new();
        for w in &self.workers {
            if !seen.contains(&w.gpu()) {
                seen.push(w.gpu());
            }
        }
        seen
    }

    /// Ids of dispatchable (non-failed, non-draining) workers on the
    /// given architecture.
    pub fn alive_on(&self, gpu: GpuArch) -> Vec<WorkerId> {
        self.workers
            .iter()
            .filter(|w| !w.is_failed() && !w.is_draining() && w.gpu() == gpu)
            .map(|w| w.id())
            .collect()
    }

    /// Adds a worker on `gpu` in the provisioning state (see
    /// [`Worker::provisioning`]): it joins dispatch only once the caller
    /// recovers it at the end of the provisioning delay. Returns the new
    /// worker's id (ids are append-only and never reused).
    pub fn provision(&mut self, gpu: GpuArch, at: SimTime) -> WorkerId {
        let id = WorkerId(self.workers.len());
        self.workers.push(Worker::provisioning(id, gpu, at));
        id
    }

    /// Number of workers (failed included).
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the cluster is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Immutable worker access.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn worker(&self, id: WorkerId) -> &Worker {
        &self.workers[id.0]
    }

    /// Mutable worker access.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn worker_mut(&mut self, id: WorkerId) -> &mut Worker {
        &mut self.workers[id.0]
    }

    /// Iterates over all workers.
    pub fn iter(&self) -> impl Iterator<Item = &Worker> {
        self.workers.iter()
    }

    /// Iterates mutably over all workers.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Worker> {
        self.workers.iter_mut()
    }

    /// Ids of dispatchable workers (not failed, not draining).
    pub fn alive(&self) -> Vec<WorkerId> {
        self.workers
            .iter()
            .filter(|w| !w.is_failed() && !w.is_draining())
            .map(|w| w.id())
            .collect()
    }

    /// Dispatchable workers currently serving (or loading toward)
    /// `level`.
    pub fn workers_at_level(&self, level: ApproxLevel) -> Vec<WorkerId> {
        self.workers
            .iter()
            .filter(|w| {
                !w.is_failed()
                    && !w.is_draining()
                    && (w.level() == Some(level) || w.pending_level() == Some(level))
            })
            .map(|w| w.id())
            .collect()
    }

    /// Mean utilization over alive workers.
    pub fn mean_utilization(&self, now: SimTime) -> f64 {
        let alive: Vec<&Worker> = self.workers.iter().filter(|w| !w.is_failed()).collect();
        if alive.is_empty() {
            return 0.0;
        }
        alive.iter().map(|w| w.utilization(now)).sum::<f64>() / alive.len() as f64
    }

    /// Total completed jobs.
    pub fn total_completed(&self) -> u64 {
        self.workers.iter().map(|w| w.completed()).sum()
    }

    /// Total model loads (variant switches requiring weight movement).
    pub fn total_loads(&self) -> u64 {
        self.workers.iter().map(|w| w.loads()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_models::{AcLevel, ModelVariant};

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn ac_level_changes_are_immediate_after_base_load() {
        let mut w = Worker::new(WorkerId(0), GpuArch::A100);
        // First assignment: SD-XL must load.
        let out = w.assign_level(ApproxLevel::Ac(AcLevel(0)), t(0.0));
        let SwitchOutcome::Loading(d) = out else {
            panic!("expected load, got {out:?}");
        };
        assert!((d.as_secs() - 9.42).abs() < 1e-9); // Table 2 Accelerate
        assert_eq!(w.level(), None);
        w.finish_load(t(d.as_secs()));
        assert_eq!(w.level(), Some(ApproxLevel::Ac(AcLevel(0))));
        // Subsequent K changes are free (§4.6).
        for k in [5, 10, 25] {
            assert_eq!(
                w.assign_level(ApproxLevel::Ac(AcLevel(k)), t(20.0)),
                SwitchOutcome::Immediate
            );
            assert_eq!(w.level(), Some(ApproxLevel::Ac(AcLevel(k))));
        }
        assert_eq!(w.loads(), 1);
    }

    #[test]
    fn sm_switch_loads_in_background_while_serving() {
        let mut w = Worker::new(WorkerId(1), GpuArch::A100);
        w.assign_level(ApproxLevel::Sm(ModelVariant::SdXl), t(0.0));
        w.finish_load(t(9.42));
        // Begin switching to Tiny; the old level keeps serving.
        let out = w.assign_level(ApproxLevel::Sm(ModelVariant::TinySd), t(10.0));
        assert!(matches!(out, SwitchOutcome::Loading(_)));
        assert_eq!(w.level(), Some(ApproxLevel::Sm(ModelVariant::SdXl)));
        assert_eq!(
            w.pending_level(),
            Some(ApproxLevel::Sm(ModelVariant::TinySd))
        );
        w.enqueue(1);
        assert_eq!(w.try_start_batch(t(10.0), 1), 1);
        // Load completes; Tiny becomes active, both models resident.
        w.finish_load(t(13.0));
        assert_eq!(w.level(), Some(ApproxLevel::Sm(ModelVariant::TinySd)));
        assert_eq!(w.resident_models().len(), 2);
    }

    #[test]
    fn resident_memory_evicts_lru_beyond_two() {
        let mut w = Worker::new(WorkerId(2), GpuArch::A100);
        for v in [ModelVariant::SdXl, ModelVariant::Sd15, ModelVariant::TinySd] {
            w.assign_level(ApproxLevel::Sm(v), t(0.0));
            w.finish_load(t(100.0));
        }
        assert_eq!(
            w.resident_models(),
            &[ModelVariant::Sd15, ModelVariant::TinySd]
        );
        // Returning to a resident model is immediate; to an evicted one is
        // not.
        assert_eq!(
            w.assign_level(ApproxLevel::Sm(ModelVariant::Sd15), t(200.0)),
            SwitchOutcome::Immediate
        );
        assert!(matches!(
            w.assign_level(ApproxLevel::Sm(ModelVariant::SdXl), t(201.0)),
            SwitchOutcome::Loading(_)
        ));
    }

    #[test]
    fn fifo_queue_and_busy_accounting() {
        let mut w = Worker::new(WorkerId(3), GpuArch::A100);
        w.assign_level(ApproxLevel::Ac(AcLevel(0)), t(0.0));
        w.finish_load(t(9.42));
        w.enqueue(10);
        w.enqueue(11);
        assert_eq!(w.queue_len(), 2);
        assert_eq!(w.backlog(), 2);
        assert_eq!(w.queued_job(0), Some(10));
        assert_eq!(w.queued_job(2), None);
        assert_eq!(w.try_start_batch(t(11.0), 1), 1);
        assert_eq!(w.in_flight_job(), Some(10));
        assert!(w.is_busy());
        // 1 queued + 1 in flight; cannot start another while busy.
        assert_eq!(w.backlog(), 2);
        assert_eq!(w.try_start_batch(t(11.5), 1), 0);
        assert_eq!(w.finish_batch(t(15.2)), vec![10]);
        assert!((w.busy_time(t(15.2)).as_secs() - 4.2).abs() < 1e-9);
        assert_eq!(w.completed(), 1);
        assert_eq!(w.try_start_batch(t(15.2), 1), 1);
        assert_eq!(w.in_flight_job(), Some(11));
    }

    #[test]
    fn batched_start_drains_fifo_and_finishes_together() {
        let mut w = Worker::new(WorkerId(8), GpuArch::A100);
        w.assign_level(ApproxLevel::Ac(AcLevel(25)), t(0.0));
        w.finish_load(t(9.42));
        for j in 0..5 {
            w.enqueue(j);
        }
        // Batch bounded by `count`, FIFO order preserved.
        assert_eq!(w.try_start_batch(t(10.0), 3), 3);
        assert!(w.is_busy());
        assert_eq!(w.in_flight_count(), 3);
        assert_eq!(w.in_flight_job(), Some(0));
        assert_eq!(w.in_flight_jobs().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(w.backlog(), 5); // 2 queued + 3 in flight
        assert_eq!(w.queued_jobs().collect::<Vec<_>>(), vec![3, 4]);
        // Busy while the batch runs; cannot start another.
        assert_eq!(w.try_start_batch(t(11.0), 2), 0);
        let done = w.finish_batch(t(13.0));
        assert_eq!(done, vec![0, 1, 2]);
        assert_eq!(w.completed(), 3);
        assert!((w.busy_time(t(13.0)).as_secs() - 3.0).abs() < 1e-9);
        // Remainder bounded by the queue.
        assert_eq!(w.try_start_batch(t(13.0), 8), 2);
        assert_eq!(w.in_flight_jobs().collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn failure_drains_whole_batch() {
        let mut w = Worker::new(WorkerId(9), GpuArch::A100);
        w.assign_level(ApproxLevel::Ac(AcLevel(0)), t(0.0));
        w.finish_load(t(9.42));
        for j in 0..4 {
            w.enqueue(j);
        }
        w.try_start_batch(t(10.0), 3);
        let lost = w.fail(t(11.0));
        // Queued jobs first, then the in-flight batch in start order.
        assert_eq!(lost, vec![3, 0, 1, 2]);
        assert_eq!(w.in_flight_count(), 0);
    }

    #[test]
    fn idle_worker_without_level_cannot_start() {
        let mut w = Worker::new(WorkerId(4), GpuArch::A100);
        w.enqueue(1);
        assert_eq!(w.try_start_batch(t(0.0), 1), 0);
    }

    #[test]
    fn failure_drains_jobs_and_clears_state() {
        let mut w = Worker::new(WorkerId(5), GpuArch::A100);
        w.assign_level(ApproxLevel::Ac(AcLevel(10)), t(0.0));
        w.finish_load(t(9.42));
        w.enqueue(1);
        w.enqueue(2);
        w.try_start_batch(t(10.2), 1);
        let lost = w.fail(t(11.0));
        assert_eq!(lost, vec![2, 1]); // queued jobs first, then the in-flight one
        assert!(w.is_failed());
        assert_eq!(w.level(), None);
        assert!(w.resident_models().is_empty());
        // Double-fail is a no-op.
        assert!(w.fail(t(12.0)).is_empty());
        // Recovery is cold.
        w.recover(t(50.0));
        assert!(!w.is_failed());
        assert!(matches!(
            w.assign_level(ApproxLevel::Ac(AcLevel(0)), t(50.0)),
            SwitchOutcome::Loading(_)
        ));
    }

    #[test]
    #[should_panic(expected = "failed worker")]
    fn enqueue_on_failed_worker_panics() {
        let mut w = Worker::new(WorkerId(6), GpuArch::A100);
        w.fail(t(0.0));
        w.enqueue(1);
    }

    #[test]
    fn utilization_excludes_failed_time() {
        let mut w = Worker::new(WorkerId(7), GpuArch::A100);
        w.assign_level(ApproxLevel::Ac(AcLevel(0)), t(0.0));
        w.finish_load(t(10.0));
        w.enqueue(1);
        w.try_start_batch(t(10.0), 1);
        w.finish_batch(t(50.0));
        // 40 busy seconds over 100 alive seconds.
        assert!((w.utilization(t(100.0)) - 0.4).abs() < 1e-9);
        // Fail for 100 s: utilization over alive time only.
        w.fail(t(100.0));
        w.recover(t(200.0));
        assert!((w.utilization(t(200.0)) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn cluster_views() {
        let mut c = Cluster::new(4, GpuArch::A100);
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        let lvl = ApproxLevel::Ac(AcLevel(15));
        c.worker_mut(WorkerId(0)).assign_level(lvl, t(0.0));
        c.worker_mut(WorkerId(0)).finish_load(t(10.0));
        c.worker_mut(WorkerId(1)).assign_level(lvl, t(0.0));
        // Worker 1 still loading — counted via pending level.
        assert_eq!(c.workers_at_level(lvl).len(), 2);
        let lost = c.worker_mut(WorkerId(0)).fail(t(20.0));
        assert!(lost.is_empty());
        assert_eq!(c.alive().len(), 3);
        assert_eq!(c.workers_at_level(lvl), vec![WorkerId(1)]);
        assert_eq!(c.total_completed(), 0);
        assert_eq!(c.total_loads(), 2);
        assert!(c.mean_utilization(t(20.0)) >= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_cluster_rejected() {
        let _ = Cluster::new(0, GpuArch::A100);
    }

    #[test]
    fn heterogeneous_pools_get_contiguous_ids() {
        let c =
            Cluster::heterogeneous(&[(GpuArch::A100, 2), (GpuArch::A10G, 0), (GpuArch::V100, 3)]);
        assert_eq!(c.len(), 5);
        assert_eq!(c.worker(WorkerId(0)).gpu(), GpuArch::A100);
        assert_eq!(c.worker(WorkerId(1)).gpu(), GpuArch::A100);
        for i in 2..5 {
            assert_eq!(c.worker(WorkerId(i)).gpu(), GpuArch::V100);
        }
        // Zero-count pools vanish entirely.
        assert_eq!(c.arches(), vec![GpuArch::A100, GpuArch::V100]);
    }

    #[test]
    fn alive_on_filters_by_arch_and_failure() {
        let mut c = Cluster::heterogeneous(&[(GpuArch::A100, 2), (GpuArch::A10G, 2)]);
        c.worker_mut(WorkerId(0)).fail(t(1.0));
        c.worker_mut(WorkerId(3)).fail(t(1.0));
        assert_eq!(c.alive_on(GpuArch::A100), vec![WorkerId(1)]);
        assert_eq!(c.alive_on(GpuArch::A10G), vec![WorkerId(2)]);
        assert_eq!(c.alive_on(GpuArch::V100), Vec::<WorkerId>::new());
        assert_eq!(c.alive().len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn all_zero_pools_rejected() {
        let _ = Cluster::heterogeneous(&[(GpuArch::A100, 0), (GpuArch::V100, 0)]);
    }

    #[test]
    fn drain_hands_back_queue_and_finishes_in_flight() {
        let mut w = Worker::new(WorkerId(10), GpuArch::A100);
        w.assign_level(ApproxLevel::Ac(AcLevel(0)), t(0.0));
        w.finish_load(t(9.42));
        for j in 0..3 {
            w.enqueue(j);
        }
        w.try_start_batch(t(10.0), 1);
        let migrated = w.begin_drain(t(11.0));
        assert_eq!(migrated, vec![1, 2]); // in-flight job 0 keeps running
        assert!(w.is_draining());
        assert!(!w.is_failed());
        assert_eq!(w.in_flight_count(), 1);
        assert!(!w.can_start());
        assert_eq!(w.try_start_batch(t(11.5), 1), 0);
        // Double-drain is a no-op.
        assert!(w.begin_drain(t(11.5)).is_empty());
        // The pass completes normally during the warning window.
        assert_eq!(w.finish_batch(t(14.0)), vec![0]);
        // The preemption fires: nothing left to lose, drain state clears.
        assert!(w.fail(t(40.0)).is_empty());
        assert!(!w.is_draining());
    }

    #[test]
    fn recover_cancels_a_drain() {
        let mut w = Worker::new(WorkerId(11), GpuArch::A100);
        w.assign_level(ApproxLevel::Ac(AcLevel(0)), t(0.0));
        w.finish_load(t(9.42));
        w.begin_drain(t(10.0));
        assert!(w.is_draining());
        w.recover(t(12.0));
        assert!(!w.is_draining());
        assert!(!w.is_failed());
        // The level survived the cancelled preemption (no cold restart).
        assert_eq!(w.level(), Some(ApproxLevel::Ac(AcLevel(0))));
    }

    #[test]
    fn draining_workers_leave_the_dispatch_set() {
        let mut c = Cluster::new(3, GpuArch::A100);
        c.worker_mut(WorkerId(1)).begin_drain(t(1.0));
        assert_eq!(c.alive(), vec![WorkerId(0), WorkerId(2)]);
        assert_eq!(c.alive_on(GpuArch::A100).len(), 2);
        // Still not failed: billing-style views can see it.
        assert!(!c.worker(WorkerId(1)).is_failed());
    }

    #[test]
    fn provisioned_worker_joins_after_recover() {
        let mut c = Cluster::new(2, GpuArch::A100);
        let id = c.provision(GpuArch::A10G, t(100.0));
        assert_eq!(id, WorkerId(2));
        assert_eq!(c.len(), 3);
        // Invisible to dispatch until recovered.
        assert_eq!(c.alive().len(), 2);
        assert!(c.worker(id).is_failed());
        assert_eq!(c.worker(id).created_at(), t(100.0));
        c.worker_mut(id).recover(t(190.0));
        assert_eq!(c.alive().len(), 3);
        assert_eq!(c.alive_on(GpuArch::A10G), vec![id]);
        // Fresh workers start cold with zero utilization.
        assert_eq!(c.worker(id).utilization(t(200.0)), 0.0);
        assert_eq!(c.arches(), vec![GpuArch::A100, GpuArch::A10G]);
    }
}
