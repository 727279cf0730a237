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
//!
//! Every worker mutation goes through [`Cluster`], which takes a
//! [`WorkerId`] and changes the worker in place. That makes the cluster
//! the one owner of worker state, so it can keep a dispatch index in step
//! with every change: for each (level, architecture), the dispatchable
//! workers ordered by (backlog, id). The Eq. 3 Worker-Selector reads the
//! heads of those groups instead of scanning the fleet per candidate
//! rung (see [`Cluster::dispatch_head`]). No `&mut Worker` leaves the
//! crate, so no caller can change a backlog, a level or a failure flag
//! behind the index's back.

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
    /// serving its previous level until [`Cluster::finish_load`] is called.
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
    /// (it drops out of [`Cluster::alive`] and the dispatch index).
    /// Billing continues — a draining spot instance is still rented until
    /// it disappears.
    draining: bool,
    /// Drains begun so far: names the current drain, so a preemption
    /// warning can tell whether the drain it announced is still on.
    drains: u32,
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
}

impl Worker {
    /// Creates an idle worker with no model loaded.
    pub(crate) fn new(id: WorkerId, gpu: GpuArch) -> Self {
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
            drains: 0,
            hbm_slots: MAX_RESIDENT_MODELS,
            busy: SimDuration::ZERO,
            busy_since: None,
            created_at: SimTime::ZERO,
            failed_total: SimDuration::ZERO,
            failed_since: None,
        }
    }

    /// Creates a worker mid-run, in the *provisioning* state: it counts
    /// as failed (invisible to dispatch, unbilled) until the caller
    /// brings it up with [`Worker::recover`] at the end of the cloud
    /// provisioning delay. `at` anchors its utilization accounting so
    /// pre-birth time never dilutes the busy fraction.
    pub(crate) fn provisioning(id: WorkerId, gpu: GpuArch, at: SimTime) -> Self {
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
    /// [`Cluster::begin_drain`]).
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// How many preemption drains the worker has begun. While it is
    /// draining, this names the drain in progress: a drain that a
    /// recover cancelled, or a failure ended, is never current again.
    pub fn drains_begun(&self) -> u32 {
        self.drains
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
    pub(crate) fn set_hbm_slots(&mut self, slots: usize) {
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
    pub(crate) fn assign_level(&mut self, level: ApproxLevel, now: SimTime) -> SwitchOutcome {
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
        SwitchOutcome::Loading(load)
    }

    /// Completes the background load (call at the time reported by
    /// [`SwitchOutcome::Loading`]). Evicts the least-recently-used resident
    /// model if HBM would exceed [`MAX_RESIDENT_MODELS`]. No-op if the load
    /// was superseded or the worker failed meanwhile.
    pub(crate) fn finish_load(&mut self, now: SimTime) {
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
    pub(crate) fn preload(&mut self, level: ApproxLevel) {
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
    pub(crate) fn enqueue(&mut self, job: JobId) {
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
    /// service estimates before committing to [`Cluster::try_start_batch`].
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
    pub(crate) fn try_start_batch(&mut self, now: SimTime, count: usize) -> usize {
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
    /// appending the jobs to `done` in start order.
    ///
    /// # Panics
    /// Panics if no job is in flight.
    pub(crate) fn finish_batch(&mut self, now: SimTime, done: &mut Vec<JobId>) {
        assert!(!self.in_flight.is_empty(), "no job in flight");
        if let Some(since) = self.busy_since.take() {
            self.busy += now - since;
        }
        done.append(&mut self.in_flight);
    }

    /// Begins a preemption-warning drain: queued jobs are handed back for
    /// migration, the in-flight pass (if any) runs to completion, and no
    /// new work starts. The worker stays alive for utilization/billing
    /// until [`Worker::fail`] (the preemption firing) or
    /// [`Worker::recover`] (a cancelled preemption) ends the drain.
    /// No-op on a failed or already-draining worker.
    pub(crate) fn begin_drain(&mut self, _now: SimTime) -> Vec<JobId> {
        if self.failed || self.draining {
            return Vec::new();
        }
        self.draining = true;
        self.drains += 1;
        self.queue.drain(..).collect()
    }

    /// Fails the worker at `now`, returning every job it held (queued and
    /// in-flight) so the caller can reroute or count them as violations.
    pub(crate) fn fail(&mut self, now: SimTime) -> Vec<JobId> {
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
    pub(crate) fn recover(&mut self, now: SimTime) {
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
}

/// A worker's filing role in a dispatch group: keyed by
/// `level().or(pending_level())`, the one key the §4.7 spill, the
/// least-backlogged fallback and per-worker routing read.
const SERVING: usize = 0;
/// A worker's filing role in a dispatch group: keyed by the level it is
/// loading toward while it still serves another. Eq. 3 counts it as a
/// candidate there too (jobs queue behind the load).
const LOADING: usize = 1;

/// Packs a dispatch key so that `u64` order is (backlog, id) order.
fn pack(backlog: u32, id: WorkerId) -> u64 {
    let id = u32::try_from(id.0).expect("worker ids fit in 32 bits");
    (u64::from(backlog) << 32) | u64::from(id)
}

/// The (backlog, id) a key was packed from.
fn unpack(key: u64) -> (usize, WorkerId) {
    ((key >> 32) as usize, WorkerId((key & 0xFFFF_FFFF) as usize))
}

/// One role's members of a group: [`pack`]ed keys in ascending order, so
/// the first is the head.
///
/// A sorted `Vec` rather than a `BTreeSet`: a backlog change moves one key
/// by a rotation of the keys it passes, and at the group sizes a fleet
/// has (a few to a few hundred workers per level and architecture) that
/// is two to three times cheaper than a set's remove and insert.
#[derive(Debug, Clone, Default)]
struct Members(Vec<u64>);

impl Members {
    fn head(&self) -> Option<u64> {
        self.0.first().copied()
    }

    fn insert(&mut self, key: u64) {
        let at = self.0.binary_search(&key).expect_err("a key is filed once");
        self.0.insert(at, key);
    }

    fn remove(&mut self, key: u64) {
        let at = self.0.binary_search(&key).expect("the key is filed");
        self.0.remove(at);
    }

    /// Replaces `old` by `new`, shifting the keys between them by one.
    fn rekey(&mut self, old: u64, new: u64) {
        let from = self.0.binary_search(&old).expect("the key is filed");
        let to = self.0.binary_search(&new).expect_err("a key is filed once");
        if to > from {
            self.0[from..to].rotate_left(1);
            self.0[to - 1] = new;
        } else {
            self.0[to..=from].rotate_right(1);
            self.0[to] = new;
        }
    }
}

/// The dispatchable workers filed under one (level, architecture), per
/// role.
#[derive(Debug, Clone)]
struct Group {
    level: ApproxLevel,
    gpu: GpuArch,
    members: [Members; 2],
}

/// Where one worker is filed, and the backlog its keys carry.
#[derive(Debug, Clone, Copy, Default)]
struct Filing {
    /// Not failed and not draining: counted in its pool's load.
    dispatchable: bool,
    backlog: u32,
    /// Index into [`DispatchIndex::groups`], per role.
    groups: [Option<usize>; 2],
}

/// The dispatch index [`Cluster`] keeps in step with every worker
/// mutation.
///
/// Only two kinds of change reach it. A job arriving or a pass finishing
/// changes one worker's backlog and no other key, so the worker moves
/// inside the groups its [`Filing`] names, which need no lookup; a start
/// moves jobs from the queue to the pass and changes nothing. Everything
/// that can change a group — a level, a pending level, a failure, a
/// drain — comes from ticks, loads and faults, and re-files the worker
/// from scratch.
#[derive(Debug, Clone, Default)]
struct DispatchIndex {
    /// Groups in the order they were first filed. An emptied group stays
    /// for reuse.
    groups: Vec<Group>,
    /// Per worker id.
    filings: Vec<Filing>,
    /// Per architecture (`GpuArch as usize`): dispatchable workers and
    /// their summed backlog.
    pools: [(usize, usize); GpuArch::ALL.len()],
}

impl DispatchIndex {
    fn position(&self, level: ApproxLevel, gpu: GpuArch) -> Option<usize> {
        self.groups
            .iter()
            .position(|g| g.level == level && g.gpu == gpu)
    }

    fn group(&self, level: ApproxLevel, gpu: GpuArch) -> Option<&Group> {
        self.position(level, gpu).map(|g| &self.groups[g])
    }

    /// The group of (`level`, `gpu`), created empty on first use.
    fn group_index(&mut self, level: ApproxLevel, gpu: GpuArch) -> usize {
        self.position(level, gpu).unwrap_or_else(|| {
            self.groups.push(Group {
                level,
                gpu,
                members: Default::default(),
            });
            self.groups.len() - 1
        })
    }

    /// Files `w` from scratch under its current keys.
    fn refile(&mut self, w: &Worker) {
        let id = w.id();
        if self.filings.len() <= id.0 {
            self.filings.resize(id.0 + 1, Filing::default());
        }
        let old = self.filings[id.0];
        for (role, g) in old.groups.iter().enumerate() {
            if let Some(g) = *g {
                self.groups[g].members[role].remove(pack(old.backlog, id));
            }
        }
        let pool = &mut self.pools[w.gpu() as usize];
        if old.dispatchable {
            pool.0 -= 1;
            pool.1 -= old.backlog as usize;
        }
        let dispatchable = !w.is_failed() && !w.is_draining();
        let backlog = u32::try_from(w.backlog()).expect("a backlog fits in 32 bits");
        if dispatchable {
            pool.0 += 1;
            pool.1 += backlog as usize;
        }
        let mut groups = [None; 2];
        if dispatchable {
            let serving = w.level().or(w.pending_level());
            let loading = w
                .pending_level()
                .filter(|&l| w.level().is_some_and(|served| served != l));
            for (role, level) in [(SERVING, serving), (LOADING, loading)] {
                if let Some(level) = level {
                    let g = self.group_index(level, w.gpu());
                    self.groups[g].members[role].insert(pack(backlog, id));
                    groups[role] = Some(g);
                }
            }
        }
        self.filings[id.0] = Filing {
            dispatchable,
            backlog,
            groups,
        };
    }

    /// Moves `w` to its current backlog inside the groups it is filed in:
    /// the per-job path, where no other key changes.
    fn rekey_backlog(&mut self, w: &Worker) {
        let id = w.id();
        let backlog = u32::try_from(w.backlog()).expect("a backlog fits in 32 bits");
        let filing = &mut self.filings[id.0];
        if filing.backlog == backlog {
            return;
        }
        let (old, new) = (pack(filing.backlog, id), pack(backlog, id));
        for (role, g) in filing.groups.iter().enumerate() {
            if let Some(g) = *g {
                self.groups[g].members[role].rekey(old, new);
            }
        }
        if filing.dispatchable {
            let pool = &mut self.pools[w.gpu() as usize];
            pool.1 = pool.1 - filing.backlog as usize + backlog as usize;
        }
        filing.backlog = backlog;
    }
}

/// A cluster of GPU workers. The paper's testbed is a fixed 8×A100 fleet
/// (§1), and a cluster built once and never grown reproduces it exactly;
/// the elastic-fleet subsystem additionally grows membership mid-run via
/// [`Cluster::provision`] (workers join in the provisioning state and
/// come up through [`Cluster::recover`]) and shrinks it by failing or
/// draining workers in place — ids are stable for the whole run.
///
/// Production fleets also mix generations: [`Cluster::heterogeneous`]
/// builds per-architecture pools with contiguous worker ids, and the
/// allocator solves Eq. 1 per pool.
///
/// The cluster owns every worker mutation: each method below takes a
/// [`WorkerId`], changes that worker and updates the dispatch index in
/// the same call. The index files each dispatchable worker by (level,
/// architecture), ordered by (backlog, id), so the Eq. 3 argmin, the
/// §4.7 spill and the per-pool load totals are read from group heads
/// ([`Cluster::dispatch_head`], [`Cluster::serving_heads`],
/// [`Cluster::pool_load`]) rather than from a scan of every worker. A
/// `&mut Worker` handed out would let a caller change a key the index
/// does not see, so there is none.
#[derive(Debug, Clone)]
pub struct Cluster {
    workers: Vec<Worker>,
    index: DispatchIndex,
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
        let mut index = DispatchIndex::default();
        for w in &workers {
            index.refile(w);
        }
        Cluster { workers, index }
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

    /// Adds a worker on `gpu` in the provisioning state: it counts as
    /// failed (invisible to dispatch, unbilled) and joins dispatch only
    /// once the caller recovers it ([`Cluster::recover`]) at the end of
    /// the provisioning delay. `at` anchors its utilization accounting so
    /// pre-birth time never dilutes the busy fraction. Returns the new
    /// worker's id (ids are append-only and never reused).
    pub fn provision(&mut self, gpu: GpuArch, at: SimTime) -> WorkerId {
        let id = WorkerId(self.workers.len());
        self.workers.push(Worker::provisioning(id, gpu, at));
        self.index.refile(&self.workers[id.0]);
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

    /// Iterates over all workers.
    pub fn iter(&self) -> impl Iterator<Item = &Worker> {
        self.workers.iter()
    }

    /// Ids of dispatchable workers (not failed, not draining).
    pub fn alive(&self) -> Vec<WorkerId> {
        self.workers
            .iter()
            .filter(|w| !w.is_failed() && !w.is_draining())
            .map(|w| w.id())
            .collect()
    }

    // ---------------------------------------------------------------- //
    // The dispatch index
    // ---------------------------------------------------------------- //

    /// The Eq. 3 head of `level` on `gpu`: among dispatchable workers on
    /// `gpu` that serve `level` or are loading toward it, the one with the
    /// least backlog, ties to the lowest id, as `(backlog, id)`.
    pub fn dispatch_head(&self, level: ApproxLevel, gpu: GpuArch) -> Option<(usize, WorkerId)> {
        let group = self.index.group(level, gpu)?;
        group
            .members
            .iter()
            .filter_map(Members::head)
            .min()
            .map(unpack)
    }

    /// The heads of the serving groups, as `(level, gpu, backlog, id)`:
    /// for each (level, architecture) under which dispatchable workers are
    /// keyed by `level().or(pending_level())`, the one with the least
    /// backlog, ties to the lowest id. Every dispatchable worker with a
    /// level or a pending level sits in exactly one serving group; groups
    /// come in the order they were first filed.
    pub fn serving_heads(
        &self,
    ) -> impl Iterator<Item = (ApproxLevel, GpuArch, usize, WorkerId)> + '_ {
        self.index.groups.iter().filter_map(|g| {
            let (backlog, id) = unpack(g.members[SERVING].head()?);
            Some((g.level, g.gpu, backlog, id))
        })
    }

    /// The dispatchable workers on `gpu` and their summed backlog: the
    /// length of [`Cluster::alive_on`] and the sum of those workers'
    /// backlogs, kept as running totals.
    pub fn pool_load(&self, gpu: GpuArch) -> (usize, usize) {
        self.index.pools[gpu as usize]
    }

    // ---------------------------------------------------------------- //
    // Worker mutations: the only way to change a worker
    // ---------------------------------------------------------------- //

    /// Adds a job to the tail of worker `id`'s queue.
    ///
    /// # Panics
    /// Panics if the worker has failed or is draining.
    pub fn enqueue(&mut self, id: WorkerId, job: JobId) {
        let w = &mut self.workers[id.0];
        w.enqueue(job);
        self.index.rekey_backlog(w);
    }

    /// Starts up to `count` queued jobs of worker `id`, the queue's
    /// prefix, as one pass at `now`; a batch of one is unbatched serving.
    /// Returns how many started: none if the worker is failed, draining,
    /// busy, level-less or has an empty queue. The caller decides the
    /// pass's duration and later calls [`Cluster::finish_batch`]. A start
    /// moves jobs from the queue into the pass, so the backlog, and with
    /// it the dispatch index, is unchanged.
    pub fn try_start_batch(&mut self, id: WorkerId, now: SimTime, count: usize) -> usize {
        self.workers[id.0].try_start_batch(now, count)
    }

    /// Completes every in-flight job of worker `id`'s pass at `now`,
    /// appending the jobs to `done` in start order.
    ///
    /// # Panics
    /// Panics if no job is in flight.
    pub fn finish_batch(&mut self, id: WorkerId, now: SimTime, done: &mut Vec<JobId>) {
        let w = &mut self.workers[id.0];
        w.finish_batch(now, done);
        self.index.rekey_backlog(w);
    }

    /// Assigns a new approximation level to worker `id` at `now`.
    ///
    /// If the level's weights are resident the switch is immediate;
    /// otherwise a background load starts (Accelerate loader, Table 2)
    /// and the worker keeps serving its old level until
    /// [`Cluster::finish_load`].
    ///
    /// # Panics
    /// Panics if the worker has failed.
    pub fn assign_level(
        &mut self,
        id: WorkerId,
        level: ApproxLevel,
        now: SimTime,
    ) -> SwitchOutcome {
        let w = &mut self.workers[id.0];
        let outcome = w.assign_level(level, now);
        self.index.refile(w);
        outcome
    }

    /// Completes worker `id`'s background load (call at the time reported
    /// by [`SwitchOutcome::Loading`]). Evicts the least-recently-used
    /// resident model if HBM would overflow. No-op if the load was
    /// superseded or the worker failed meanwhile.
    pub fn finish_load(&mut self, id: WorkerId, now: SimTime) {
        let w = &mut self.workers[id.0];
        w.finish_load(now);
        self.index.refile(w);
    }

    /// Pre-warms worker `id` with `level` active and its weights
    /// resident, without a load delay. Models pre-deployment warm-up:
    /// production clusters load models before accepting traffic (§4.7).
    ///
    /// # Panics
    /// Panics if the worker has failed.
    pub fn preload(&mut self, id: WorkerId, level: ApproxLevel) {
        let w = &mut self.workers[id.0];
        w.preload(level);
        self.index.refile(w);
    }

    /// Sets worker `id`'s HBM capacity in co-resident model variants,
    /// evicting the least recently used weights beyond it. Residency is
    /// no dispatch key, so the index is untouched.
    ///
    /// # Panics
    /// Panics if `slots == 0`.
    pub fn set_hbm_slots(&mut self, id: WorkerId, slots: usize) {
        self.workers[id.0].set_hbm_slots(slots);
    }

    /// Begins a preemption-warning drain of worker `id`: queued jobs are
    /// handed back for migration, the in-flight pass (if any) runs to
    /// completion, and no new work starts. The worker leaves the dispatch
    /// index but stays alive for utilization and billing until
    /// [`Cluster::fail`] (the preemption firing) or [`Cluster::recover`]
    /// (a cancelled preemption) ends the drain. No-op on a failed or
    /// already-draining worker.
    pub fn begin_drain(&mut self, id: WorkerId, now: SimTime) -> Vec<JobId> {
        let w = &mut self.workers[id.0];
        let migrated = w.begin_drain(now);
        self.index.refile(w);
        migrated
    }

    /// Fails worker `id` at `now`, returning every job it held (queued
    /// first, then the in-flight pass in start order) so the caller can
    /// reroute them or count them lost. The weights are gone: the worker
    /// restarts cold.
    pub fn fail(&mut self, id: WorkerId, now: SimTime) -> Vec<JobId> {
        let w = &mut self.workers[id.0];
        let lost = w.fail(now);
        self.index.refile(w);
        lost
    }

    /// Recovers failed worker `id` at `now` (cold: no model resident; the
    /// allocator must assign a level, incurring a load). On a draining
    /// worker it cancels the drain; on a healthy one it is a no-op.
    pub fn recover(&mut self, id: WorkerId, now: SimTime) {
        let w = &mut self.workers[id.0];
        w.recover(now);
        self.index.refile(w);
    }

    // ---------------------------------------------------------------- //
    // Run statistics
    // ---------------------------------------------------------------- //

    /// Mean utilization over alive workers.
    pub fn mean_utilization(&self, now: SimTime) -> f64 {
        let alive: Vec<&Worker> = self.workers.iter().filter(|w| !w.is_failed()).collect();
        if alive.is_empty() {
            return 0.0;
        }
        alive.iter().map(|w| w.utilization(now)).sum::<f64>() / alive.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_models::{AcLevel, ModelVariant};

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// The jobs of `w`'s finished pass, in start order.
    fn finish(w: &mut Worker, now: SimTime) -> Vec<JobId> {
        let mut done = Vec::new();
        w.finish_batch(now, &mut done);
        done
    }

    /// Every Eq. 3 candidate for `level` on `gpu`, as the index files
    /// them: the serving role, then the loading role, each in (backlog, id)
    /// order.
    fn candidates(c: &Cluster, level: ApproxLevel, gpu: GpuArch) -> Vec<WorkerId> {
        c.index.group(level, gpu).map_or_else(Vec::new, |g| {
            g.members
                .iter()
                .flat_map(|m| &m.0)
                .map(|&key| unpack(key).1)
                .collect()
        })
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
        assert_eq!(finish(&mut w, t(15.2)), vec![10]);
        assert!((w.busy_time(t(15.2)).as_secs() - 4.2).abs() < 1e-9);
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
        let done = finish(&mut w, t(13.0));
        assert_eq!(done, vec![0, 1, 2]);
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
        finish(&mut w, t(50.0));
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
        c.assign_level(WorkerId(0), lvl, t(0.0));
        c.finish_load(WorkerId(0), t(10.0));
        c.assign_level(WorkerId(1), lvl, t(0.0));
        // Worker 1 still loading — counted via pending level.
        assert_eq!(
            candidates(&c, lvl, GpuArch::A100),
            vec![WorkerId(0), WorkerId(1)]
        );
        assert_eq!(c.dispatch_head(lvl, GpuArch::A100), Some((0, WorkerId(0))));
        let lost = c.fail(WorkerId(0), t(20.0));
        assert!(lost.is_empty());
        assert_eq!(c.alive().len(), 3);
        assert_eq!(candidates(&c, lvl, GpuArch::A100), vec![WorkerId(1)]);
        assert_eq!(c.dispatch_head(lvl, GpuArch::A100), Some((0, WorkerId(1))));
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
        c.fail(WorkerId(0), t(1.0));
        c.fail(WorkerId(3), t(1.0));
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
        assert_eq!(finish(&mut w, t(14.0)), vec![0]);
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
        assert_eq!(w.drains_begun(), 1);
        w.recover(t(12.0));
        assert!(!w.is_draining());
        assert!(!w.is_failed());
        // The level survived the cancelled preemption (no cold restart).
        assert_eq!(w.level(), Some(ApproxLevel::Ac(AcLevel(0))));
        // A second warning begins a new drain, told apart from the first.
        w.begin_drain(t(13.0));
        assert_eq!(w.drains_begun(), 2);
        assert!(w.begin_drain(t(13.5)).is_empty());
        assert_eq!(w.drains_begun(), 2, "a double drain is not a new drain");
    }

    #[test]
    fn draining_workers_leave_the_dispatch_set() {
        let mut c = Cluster::new(3, GpuArch::A100);
        c.begin_drain(WorkerId(1), t(1.0));
        assert_eq!(c.alive(), vec![WorkerId(0), WorkerId(2)]);
        assert_eq!(c.alive_on(GpuArch::A100).len(), 2);
        // Still not failed: billing-style views can see it.
        assert!(!c.worker(WorkerId(1)).is_failed());
    }

    #[test]
    fn loading_workers_are_candidates_at_both_levels() {
        let mut c = Cluster::heterogeneous(&[(GpuArch::A100, 2), (GpuArch::V100, 1)]);
        let served = ApproxLevel::Sm(ModelVariant::SdXl);
        let loading = ApproxLevel::Sm(ModelVariant::TinySd);
        for id in 0..3 {
            c.preload(WorkerId(id), served);
        }
        c.enqueue(WorkerId(0), 1);
        assert!(matches!(
            c.assign_level(WorkerId(1), loading, t(1.0)),
            SwitchOutcome::Loading(_)
        ));
        // Worker 1 serves SD-XL while Tiny-SD loads: an Eq. 3 candidate
        // at both levels, keyed by the level it serves everywhere else.
        assert_eq!(
            c.dispatch_head(served, GpuArch::A100),
            Some((0, WorkerId(1)))
        );
        assert_eq!(
            c.dispatch_head(loading, GpuArch::A100),
            Some((0, WorkerId(1)))
        );
        assert_eq!(c.dispatch_head(loading, GpuArch::V100), None);
        assert_eq!(
            c.dispatch_head(served, GpuArch::V100),
            Some((0, WorkerId(2)))
        );
        let heads: Vec<_> = c.serving_heads().collect();
        assert_eq!(
            heads,
            vec![
                (served, GpuArch::A100, 0, WorkerId(1)),
                (served, GpuArch::V100, 0, WorkerId(2)),
            ]
        );
        // The load lands: the worker moves to Tiny-SD in both roles.
        c.finish_load(WorkerId(1), t(100.0));
        assert_eq!(
            c.dispatch_head(served, GpuArch::A100),
            Some((1, WorkerId(0)))
        );
        assert_eq!(candidates(&c, loading, GpuArch::A100), vec![WorkerId(1)]);
        assert_eq!(c.pool_load(GpuArch::A100), (2, 1));
        assert_eq!(c.pool_load(GpuArch::V100), (1, 0));
        assert_eq!(c.pool_load(GpuArch::A10G), (0, 0));
    }

    /// The index's contents with group order and group indices factored
    /// out: members per (level, architecture, role), the pool totals, and
    /// each worker's (dispatchable, backlog) filing.
    type IndexView = (
        std::collections::BTreeMap<(ApproxLevel, GpuArch, usize), Vec<u64>>,
        [(usize, usize); 3],
        Vec<(bool, u32)>,
    );

    fn view(index: &DispatchIndex) -> IndexView {
        let mut groups = std::collections::BTreeMap::new();
        for g in &index.groups {
            for (role, members) in g.members.iter().enumerate() {
                if !members.0.is_empty() {
                    groups.insert((g.level, g.gpu, role), members.0.clone());
                }
            }
        }
        let filings = index
            .filings
            .iter()
            .map(|f| (f.dispatchable, f.backlog))
            .collect();
        (groups, index.pools, filings)
    }

    #[test]
    fn index_matches_a_rebuild_after_every_mutation() {
        let levels = [
            ApproxLevel::Ac(AcLevel(0)),
            ApproxLevel::Ac(AcLevel(15)),
            ApproxLevel::Sm(ModelVariant::SdXl),
            ApproxLevel::Sm(ModelVariant::TinySd),
        ];
        for seed in 1..=8u64 {
            let mut c = Cluster::heterogeneous(&[(GpuArch::A100, 4), (GpuArch::A10G, 3)]);
            // xorshift64*: a fixed, dependency-free mutation stream.
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = |bound: usize| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % bound
            };
            let mut now = 0.0;
            let mut job = 0;
            let mut done = Vec::new();
            for _ in 0..2_000 {
                now += 0.5;
                let id = WorkerId(next(c.len()));
                let (failed, draining) = (c.worker(id).is_failed(), c.worker(id).is_draining());
                match next(12) {
                    0..=2 if !failed && !draining => {
                        c.enqueue(id, job);
                        job += 1;
                    }
                    3 => {
                        c.try_start_batch(id, t(now), 1 + next(3));
                    }
                    4 if c.worker(id).is_busy() => {
                        done.clear();
                        c.finish_batch(id, t(now), &mut done);
                        assert!(!done.is_empty());
                    }
                    5 if !failed => {
                        c.assign_level(id, levels[next(levels.len())], t(now));
                    }
                    6 => c.finish_load(id, t(now + 10.0 * next(2) as f64)),
                    7 if !failed => c.preload(id, levels[next(levels.len())]),
                    8 => {
                        c.begin_drain(id, t(now));
                    }
                    9 => {
                        c.fail(id, t(now));
                    }
                    10 => c.recover(id, t(now)),
                    11 if next(8) == 0 => {
                        let gpu = [GpuArch::A100, GpuArch::V100][next(2)];
                        c.provision(gpu, t(now));
                    }
                    _ => c.set_hbm_slots(id, 1 + next(2)),
                }
                let mut rebuilt = DispatchIndex::default();
                for w in &c.workers {
                    rebuilt.refile(w);
                }
                assert_eq!(view(&c.index), view(&rebuilt), "seed {seed}");
                for gpu in GpuArch::ALL {
                    let alive = c.alive_on(gpu);
                    let backlog = alive.iter().map(|&w| c.worker(w).backlog()).sum();
                    assert_eq!(c.pool_load(gpu), (alive.len(), backlog), "seed {seed}");
                }
            }
        }
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
        c.recover(id, t(190.0));
        assert_eq!(c.alive().len(), 3);
        assert_eq!(c.alive_on(GpuArch::A10G), vec![id]);
        // Fresh workers start cold with zero utilization.
        assert_eq!(c.worker(id).utilization(t(200.0)), 0.0);
        assert_eq!(c.arches(), vec![GpuArch::A100, GpuArch::A10G]);
    }
}
