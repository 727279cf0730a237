//! The Eq. 1 allocator: worker-to-level assignment and load split.
//!
//! Given the predicted workload `Λ_t` (QPM), a fixed worker count, and the
//! profiled quality `q_v` / peak throughput `peak(v)` of each approximation
//! level, choose how many workers run each level (`g_{v,w}`) and how much
//! load each level serves (`ω(v)`), maximizing `Σ_v q_v · ω(v)` subject to
//! throughput and assignment constraints.
//!
//! Three interchangeable solvers:
//!
//! * [`AllocationProblem::solve_exact`] — enumerates worker compositions
//!   (the workers are interchangeable, so only the per-level *counts*
//!   matter) with an optimal greedy fill per composition. The reference
//!   the other two are tested and benched against.
//! * [`AllocationProblem::solve`] — branch-and-bound over the same
//!   composition space with a certified upper bound, returning the
//!   bit-identical optimum while visiting a tiny fraction of the
//!   `C(W + V − 1, V − 1)` compositions; this is what keeps the §5.7
//!   sub-100 ms allocation budget at 64–256-worker fleets.
//!   [`AllocationProblem::solve_cached`] runs the same search
//!   warm-started from the previous tick's optimum.
//! * [`AllocationProblem::solve_milp`] — the paper's integer linear
//!   program (linearized per-worker formulation) through `argus-ilp`,
//!   as solved by Gurobi in the authors' deployment. Used for
//!   cross-validation and the solver-scalability claim of §5.7.

use argus_models::ApproxLevel;

/// Profile of one approximation level as seen by the solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelProfile {
    /// The level.
    pub level: ApproxLevel,
    /// Profiled mean quality `q_v` (PickScore).
    pub quality: f64,
    /// Profiled peak serving throughput of one worker at this level, in
    /// queries per minute (includes any retrieval overhead for AC).
    pub peak_qpm: f64,
}

/// An allocation problem instance.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationProblem {
    /// Level profiles, ordered slowest (highest quality) first, matching
    /// [`ApproxLevel::ladder`].
    pub levels: Vec<LevelProfile>,
    /// Number of available workers.
    pub workers: usize,
    /// Predicted demand `Λ_t` in QPM.
    pub demand_qpm: f64,
}

/// The allocator's decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Workers assigned per level. Every worker is assigned: idle workers
    /// are parked on the level with the largest peak × quality (the
    /// scorer's headroom tie-break), which need not be the slowest one.
    pub workers_per_level: Vec<usize>,
    /// Load served per level in QPM (`ω(v)`, absolute).
    pub omega_qpm: Vec<f64>,
    /// Achievable total throughput under this assignment (min(demand,
    /// capacity)).
    pub served_qpm: f64,
    /// Whether demand exceeded the cluster's maximum capacity even at the
    /// deepest approximation — the §6 saturation signal for horizontal
    /// scaling.
    pub saturated: bool,
}

/// Normalizes a load vector to a distribution `ω(v) / Σω`. When nothing
/// is served, all mass lands on index 0 — the slowest, highest-quality
/// level. Shared by [`Allocation::omega_normalized`] and the
/// heterogeneous pool-merge path.
pub(crate) fn normalize_load(omega_qpm: &[f64]) -> Vec<f64> {
    let total: f64 = omega_qpm.iter().sum();
    if total <= 0.0 {
        let mut v = vec![0.0; omega_qpm.len()];
        if !v.is_empty() {
            v[0] = 1.0;
        }
        return v;
    }
    omega_qpm.iter().map(|w| w / total).collect()
}

impl Allocation {
    /// The normalized load distribution `ω(v) / Σω` (all mass on the
    /// slowest level if nothing is served).
    pub fn omega_normalized(&self) -> Vec<f64> {
        normalize_load(&self.omega_qpm)
    }

    /// Mean quality of the allocation: `Σ q_v ω(v) / Σ ω(v)`.
    pub fn mean_quality(&self, levels: &[LevelProfile]) -> f64 {
        let total: f64 = self.omega_qpm.iter().sum();
        if total <= 0.0 {
            return levels.first().map_or(0.0, |l| l.quality);
        }
        self.omega_qpm
            .iter()
            .zip(levels)
            .map(|(w, l)| w * l.quality)
            .sum::<f64>()
            / total
    }
}

impl AllocationProblem {
    /// Builds a problem from a ladder with profiled defaults on the given
    /// GPU, optionally inflating AC latency by a mean retrieval overhead.
    ///
    /// This is the paper's batch-1 profile — shorthand for
    /// [`AllocationProblem::from_capacity_model`] with
    /// [`crate::capacity::Batch1Model`] and a batch-1 context.
    pub fn from_ladder(
        ladder: &[ApproxLevel],
        gpu: argus_models::GpuArch,
        retrieval_overhead_secs: f64,
        workers: usize,
        demand_qpm: f64,
    ) -> Self {
        Self::from_capacity_model(
            &crate::capacity::Batch1Model,
            ladder,
            gpu,
            &crate::capacity::CapacityCtx::batch1(retrieval_overhead_secs),
            workers,
            demand_qpm,
        )
    }

    /// Builds a problem whose per-level peaks come from a pluggable
    /// [`crate::capacity::CapacityModel`] — the seam every capacity
    /// refinement (batching-aware planning, measured profiles, derating)
    /// plugs into. Qualities stay the profiled `q_v`; only the capacity
    /// estimate is delegated.
    pub fn from_capacity_model(
        model: &dyn crate::capacity::CapacityModel,
        ladder: &[ApproxLevel],
        gpu: argus_models::GpuArch,
        ctx: &crate::capacity::CapacityCtx,
        workers: usize,
        demand_qpm: f64,
    ) -> Self {
        let levels = ladder
            .iter()
            .map(|&level| LevelProfile {
                level,
                quality: level.profiled_quality(),
                peak_qpm: model.peak_qpm(level, gpu, ctx),
            })
            .collect();
        AllocationProblem {
            levels,
            workers,
            demand_qpm,
        }
    }

    /// Derates each level's peak throughput so that steady operation at
    /// "full" allocation keeps expected queueing delay within the latency
    /// SLO.
    ///
    /// With near-deterministic service times, an M/D/1 queue at
    /// utilization `ρ` waits ≈ `ρ / (2(1 − ρ))` service times. Solving for
    /// the largest `ρ` whose wait fits the per-level slack
    /// `c = SLO/s − 1` gives `ρ_max = 2c / (1 + 2c)` (capped at 0.95).
    /// Deep (fast) levels have more SLO slack and may run hotter — which
    /// is why graceful quality degradation, not flat over-provisioning, is
    /// the right response to load.
    pub fn with_slo_derating(self, slo_secs: f64) -> Self {
        let latencies: Vec<f64> = self.levels.iter().map(|l| 60.0 / l.peak_qpm).collect();
        self.with_slo_derating_latencies(slo_secs, &latencies)
    }

    /// [`AllocationProblem::with_slo_derating`] with explicit per-level
    /// per-job latencies. The default derating reads each level's latency
    /// off its throughput (`60 / peak`), which is only right at batch 1:
    /// a worker planned at batch `B` serves jobs at the amortized rate
    /// but each job *waits* the full inflated pass, so batching-aware
    /// capacity models hand the true wall latency here
    /// ([`crate::capacity::CapacityModel::job_latency_secs`]) and the
    /// allowed utilization shrinks accordingly.
    ///
    /// # Panics
    /// Panics on a non-positive SLO or a latency-count mismatch.
    pub fn with_slo_derating_latencies(mut self, slo_secs: f64, latencies: &[f64]) -> Self {
        assert!(slo_secs > 0.0, "SLO must be positive");
        assert_eq!(
            latencies.len(),
            self.levels.len(),
            "one latency per level required"
        );
        for (l, &service) in self.levels.iter_mut().zip(latencies) {
            let slack = (slo_secs / service - 1.0).max(0.1);
            let rho_max = (2.0 * slack / (1.0 + 2.0 * slack)).min(0.95);
            l.peak_qpm *= rho_max;
        }
        self
    }

    /// Validates problem invariants.
    ///
    /// # Panics
    /// Panics on an empty ladder, zero workers, or non-finite inputs.
    fn validate(&self) {
        assert!(!self.levels.is_empty(), "no approximation levels");
        assert!(self.workers > 0, "no workers");
        assert!(
            self.demand_qpm.is_finite() && self.demand_qpm >= 0.0,
            "invalid demand"
        );
        for l in &self.levels {
            assert!(l.peak_qpm > 0.0 && l.peak_qpm.is_finite(), "invalid peak");
            assert!(l.quality.is_finite(), "invalid quality");
        }
    }

    /// Maximum cluster throughput: every worker at the fastest level.
    pub fn max_capacity_qpm(&self) -> f64 {
        let fastest = self
            .levels
            .iter()
            .map(|l| l.peak_qpm)
            .fold(0.0f64, f64::max);
        fastest * self.workers as f64
    }

    /// Level indices sorted by quality descending (stable on ties) — the
    /// greedy-fill consumption order. Computed once per solve and shared,
    /// so both searches fill in the identical float-op sequence.
    fn quality_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.levels.len()).collect();
        order.sort_by(|&a, &b| {
            self.levels[b]
                .quality
                .partial_cmp(&self.levels[a].quality)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        order
    }

    /// Optimal greedy fill for fixed per-level worker counts: load goes to
    /// the highest-quality levels first (per `order`, from
    /// [`AllocationProblem::quality_order`]), up to capacity, until
    /// `demand` is covered. Returns (omega, served, quality_sum).
    fn greedy_fill(&self, counts: &[usize], demand: f64, order: &[usize]) -> (Vec<f64>, f64, f64) {
        let mut omega = vec![0.0; self.levels.len()];
        let mut remaining = demand;
        let mut quality_sum = 0.0;
        for &i in order {
            if remaining <= 0.0 {
                break;
            }
            let cap = counts[i] as f64 * self.levels[i].peak_qpm;
            let take = cap.min(remaining);
            omega[i] = take;
            quality_sum += take * self.levels[i].quality;
            remaining -= take;
        }
        (omega, demand - remaining.max(0.0), quality_sum)
    }

    /// Scores one complete composition: greedy-fill quality plus the
    /// 1e-9 idle-headroom tie-break. Returns `None` for compositions that
    /// cannot meet the target. Shared by every search so their scores are
    /// bit-identical for the same counts.
    fn score_composition(
        &self,
        counts: &[usize],
        target: f64,
        order: &[usize],
    ) -> Option<(f64, f64, Vec<f64>)> {
        let (omega, served, mut qsum) = self.greedy_fill(counts, target, order);
        if served + 1e-9 < target {
            return None; // infeasible composition: cannot meet target
        }
        // Tie-break: prefer compositions with the most peak × quality
        // capacity, so idle workers park on the level with the largest
        // `peak_qpm · quality` (cheap future headroom). That is not the
        // slowest level in general: on the derated A100 AC ladder K25
        // (≈429) outranks K0 (≈239).
        let headroom_quality: f64 = counts
            .iter()
            .zip(&self.levels)
            .map(|(&c, l)| (c as f64 * l.peak_qpm) * l.quality)
            .sum();
        qsum += 1e-9 * headroom_quality;
        Some((qsum, served, omega))
    }

    /// Exact solve by enumerating worker compositions over levels.
    ///
    /// Complexity `C(W + V − 1, V − 1)` compositions; fine for the paper's
    /// 8-worker testbed and up to a few dozen workers. Compositions are
    /// visited in lexicographic order of their count vectors and a later
    /// one must score strictly higher to replace the incumbent, so exact
    /// score ties keep the lexicographically smallest count vector. This
    /// is the reference every other search is checked against.
    ///
    /// # Panics
    /// Panics on invalid inputs (see [`AllocationProblem`]).
    pub fn solve_exact(&self) -> Allocation {
        self.validate();
        let n = self.levels.len();
        let capacity = self.max_capacity_qpm();
        let saturated = self.demand_qpm > capacity + 1e-9;
        let target = self.demand_qpm.min(capacity);

        let order = self.quality_order();
        let mut best: Option<(f64, f64, Vec<usize>, Vec<f64>)> = None;
        let mut counts = vec![0usize; n];
        self.enumerate(0, self.workers, &mut counts, &mut |counts| {
            let Some((qsum, served, omega)) = self.score_composition(counts, target, &order) else {
                return;
            };
            match &best {
                Some((bq, _, _, _)) if *bq >= qsum => {}
                _ => best = Some((qsum, served, counts.to_vec(), omega)),
            }
        });

        self.finish(best, capacity, saturated)
    }

    /// Solves Eq. 1 at every cluster size: depth-first branch-and-bound
    /// over worker compositions with a certified upper bound (LP-style
    /// relaxations of the unassigned suffix), pruning subtrees that
    /// provably cannot beat the incumbent.
    ///
    /// Returns the **same allocation as [`AllocationProblem::solve_exact`],
    /// bit for bit**: leaves are scored by the identical shared scorer, the
    /// incumbent rule selects the lexicographically-smallest count vector
    /// among score ties (which is exactly the composition the exhaustive
    /// lexicographic enumeration keeps), and the bound is inflated by a
    /// relative epsilon so float noise can only cause extra exploration,
    /// never a wrong prune.
    ///
    /// # Panics
    /// Panics on invalid inputs (see [`AllocationProblem`]).
    pub fn solve(&self) -> Allocation {
        self.solve_cached(&mut SolveCache::new())
    }

    /// [`AllocationProblem::solve`] warm-started from the `cache`'s
    /// previous result — the per-tick allocator case.
    ///
    /// The cache keeps the worker counts of its last result. When the
    /// level count and worker total still match and those counts can meet
    /// the new target, they are re-scored and seed the search as its
    /// incumbent, so the bound prunes from the first node. The result
    /// cannot change: pruning is strict, so no subtree holding an optimal
    /// composition is ever cut, and exact ties still go to the
    /// lexicographically smallest counts. Debug builds assert every warm
    /// result against a cold search.
    ///
    /// # Panics
    /// Panics on invalid inputs (see [`AllocationProblem`]).
    pub fn solve_cached(&self, cache: &mut SolveCache) -> Allocation {
        self.validate();
        let capacity = self.max_capacity_qpm();
        let saturated = self.demand_qpm > capacity + 1e-9;
        let target = self.demand_qpm.min(capacity);

        let seed = cache
            .last
            .take()
            .filter(|c| c.len() == self.levels.len() && c.iter().sum::<usize>() == self.workers);
        let tables = FastTables::compute(self);
        let seeded = seed.is_some();
        let best = self.search(&tables, target, seed);
        debug_assert!(
            !seeded || best == self.search(&tables, target, None),
            "warm-started search diverged from a cold search"
        );
        let allocation = self.finish(best, capacity, saturated);
        cache.last = Some(allocation.workers_per_level.clone());
        allocation
    }

    /// Runs the branch-and-bound over `tables`, optionally starting from a
    /// `seed` composition as the incumbent (ignored when it cannot meet
    /// the target).
    fn search(
        &self,
        tables: &FastTables,
        target: f64,
        seed: Option<Vec<usize>>,
    ) -> Option<(f64, f64, Vec<usize>, Vec<f64>)> {
        let best = seed.and_then(|counts| {
            let (qsum, served, omega) = self.score_composition(&counts, target, &tables.order)?;
            Some((qsum, served, counts, omega))
        });
        let mut search = FastSearch {
            counts: vec![0usize; self.levels.len()],
            best,
            p: self,
            t: tables,
            target,
        };
        search.branch(0, self.workers, 0.0, 0.0, Fill::new(target));
        search.best
    }

    /// Converts the best-found composition (or the all-fastest fallback
    /// when no composition can meet the target) into an [`Allocation`].
    fn finish(
        &self,
        best: Option<(f64, f64, Vec<usize>, Vec<f64>)>,
        capacity: f64,
        saturated: bool,
    ) -> Allocation {
        match best {
            Some((_, served, workers_per_level, omega_qpm)) => Allocation {
                workers_per_level,
                omega_qpm,
                served_qpm: served,
                saturated,
            },
            None => {
                // Demand exceeds even the all-fastest configuration: run
                // everything at the fastest level.
                let n = self.levels.len();
                let fastest = self.fastest_level();
                let mut workers_per_level = vec![0usize; n];
                workers_per_level[fastest] = self.workers;
                let mut omega_qpm = vec![0.0; n];
                omega_qpm[fastest] = capacity;
                Allocation {
                    workers_per_level,
                    omega_qpm,
                    served_qpm: capacity,
                    saturated,
                }
            }
        }
    }

    fn fastest_level(&self) -> usize {
        let mut idx = 0;
        for (i, l) in self.levels.iter().enumerate() {
            if l.peak_qpm > self.levels[idx].peak_qpm {
                idx = i;
            }
        }
        idx
    }

    fn enumerate(
        &self,
        level: usize,
        remaining: usize,
        counts: &mut Vec<usize>,
        visit: &mut impl FnMut(&[usize]),
    ) {
        if level == self.levels.len() - 1 {
            counts[level] = remaining;
            visit(counts);
            counts[level] = 0;
            return;
        }
        for c in 0..=remaining {
            counts[level] = c;
            self.enumerate(level + 1, remaining - c, counts, visit);
        }
        counts[level] = 0;
    }

    /// The paper's ILP (Eq. 1), linearized: binaries `g_{v,w}` select the
    /// level of each worker; continuous `y_{v,w}` carry per-worker load.
    ///
    /// # Errors
    /// Propagates [`argus_ilp::SolveError`] (e.g. node-limit on very large
    /// clusters).
    pub fn solve_milp(&self) -> Result<Allocation, argus_ilp::SolveError> {
        self.validate();
        let n = self.levels.len();
        let w = self.workers;
        let capacity = self.max_capacity_qpm();
        let saturated = self.demand_qpm > capacity + 1e-9;
        let target = self.demand_qpm.min(capacity);

        let mut b = argus_ilp::ProblemBuilder::maximize();
        let mut g = vec![vec![]; n];
        let mut y = vec![vec![]; n];
        for (v, level) in self.levels.iter().enumerate() {
            for k in 0..w {
                g[v].push(b.add_binary(&format!("g_{v}_{k}"), 0.0));
                y[v].push(b.add_var(
                    &format!("y_{v}_{k}"),
                    argus_ilp::VarKind::Continuous,
                    0.0,
                    level.peak_qpm,
                    level.quality,
                ));
            }
        }
        // Each worker runs at most one level; load only on the assigned
        // level; total load equals the target.
        for k in 0..w {
            let assign: Vec<_> = (0..n).map(|v| (g[v][k], 1.0)).collect();
            b.add_le(&assign, 1.0);
            for v in 0..n {
                // y_{v,k} ≤ peak_v · g_{v,k}
                b.add_le(&[(y[v][k], 1.0), (g[v][k], -self.levels[v].peak_qpm)], 0.0);
            }
        }
        let all_loads: Vec<_> = (0..n)
            .flat_map(|v| (0..w).map(move |k| (v, k)))
            .map(|(v, k)| (y[v][k], 1.0))
            .collect();
        b.add_eq(&all_loads, target);
        // Symmetry breaking: workers are interchangeable, so force the
        // level indices assigned to workers to be non-decreasing.
        for k in 1..w {
            let mut terms: Vec<_> = (0..n).map(|v| (g[v][k - 1], v as f64)).collect();
            terms.extend((0..n).map(|v| (g[v][k], -(v as f64))));
            // Also require earlier workers to be assigned whenever later
            // ones are (no "gaps").
            let mut used: Vec<_> = (0..n).map(|v| (g[v][k - 1], 1.0)).collect();
            used.extend((0..n).map(|v| (g[v][k], -1.0)));
            b.add_le(&terms, 0.0);
            b.add_ge(&used, 0.0);
        }

        // Size the branch-and-bound budget to the instance: the default
        // budget is calibrated for the 8-worker testbed, and the node count
        // grows with the `n × w` binary grid.
        let node_limit = 200_000 + 2_000 * n * w;
        let sol = argus_ilp::solve_with_node_limit(&b.build(), node_limit)?;
        let mut workers_per_level = vec![0usize; n];
        let mut omega_qpm = vec![0.0; n];
        for v in 0..n {
            for k in 0..w {
                if sol.value(g[v][k]) > 0.5 {
                    workers_per_level[v] += 1;
                }
                omega_qpm[v] += sol.value(y[v][k]);
            }
        }
        let served_qpm = omega_qpm.iter().sum();
        Ok(Allocation {
            workers_per_level,
            omega_qpm,
            served_qpm,
            saturated,
        })
    }
}

/// Greedy relaxation fill, one capacity chunk at a time: serve the target
/// from `(quality, capacity)` chunks in quality-descending order,
/// accumulating `Σ quality · take`. Filled to the end, this is the optimum
/// of the chunk-capacitated LP with an equality demand constraint, hence
/// an upper bound for any integer completion whose induced chunk loads
/// satisfy the same capacities.
///
/// The search keeps one `Fill` per node for its fixed prefix and extends
/// it by one chunk per child. That is the same float-op sequence as
/// sorting the prefix's chunks plus the relaxed suffix source and filling
/// from scratch: the prefix is pushed in branching order (quality
/// descending, stable on ties) and the relaxed source never outranks the
/// last prefix chunk (`qmax[d]` and every Lagrangian `ahat` are at most
/// the qualities already fixed), so the stable sort would move nothing.
#[derive(Debug, Clone, Copy)]
struct Fill {
    /// Demand not yet served by the chunks taken so far.
    remaining: f64,
    /// `Σ quality · take` over the chunks taken so far.
    value: f64,
}

impl Fill {
    fn new(amount: f64) -> Fill {
        Fill {
            remaining: amount,
            value: 0.0,
        }
    }

    /// The fill after serving from one more chunk.
    fn take(self, quality: f64, cap: f64) -> Fill {
        if self.remaining <= 0.0 {
            return self;
        }
        let take = cap.min(self.remaining);
        Fill {
            remaining: self.remaining - take,
            value: self.value + quality * take,
        }
    }
}

/// Branch-and-bound tables for one ladder of level profiles, built once
/// per solve: the branching order plus every per-depth suffix aggregate
/// the bound needs. A pure function of [`AllocationProblem::levels`].
struct FastTables {
    /// Branching order: quality-descending (greedy_fill's consumption
    /// order), so the prefix of a node is exactly the high-quality chunk
    /// set the bound needs.
    order: Vec<usize>,
    /// `pmax[d]` = max peak over the free suffix starting at position `d`.
    pmax: Vec<f64>,
    /// `qmax[d]` = max quality over the free suffix at `d`.
    qmax: Vec<f64>,
    /// `pqmax[d]` = max peak·quality over the free suffix at `d`
    /// (clamped at 0 — parking a worker is never worse than nothing).
    pqmax: Vec<f64>,
    /// Per depth: Lagrangian candidates `(λ, best adjusted free quality)`
    /// for the worker-budget constraint of the suffix relaxation.
    lambdas: Vec<Vec<(f64, f64)>>,
}

/// The warm-start seed [`AllocationProblem::solve_cached`] carries across
/// solves: the worker counts of the last result.
///
/// The allocator re-solves Eq. 1 every tick and demand moves little
/// between ticks, so the last result is usually a near-optimal incumbent
/// for the next search; the bound then prunes from the first node.
#[derive(Debug, Default)]
pub struct SolveCache {
    /// Worker counts of the last solve's allocation.
    last: Option<Vec<usize>>,
}

impl SolveCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        SolveCache::default()
    }
}

impl FastTables {
    fn compute(p: &AllocationProblem) -> FastTables {
        let order = p.quality_order();
        let n = order.len();
        let level = |d: usize| &p.levels[order[d]];
        let suffix_max = |f: &dyn Fn(&LevelProfile) -> f64| -> Vec<f64> {
            (0..=n)
                .map(|d| {
                    (d..n)
                        .map(|i| f(level(i)))
                        .fold(f64::NEG_INFINITY, f64::max)
                })
                .collect()
        };
        let pmax = suffix_max(&|l| l.peak_qpm);
        let qmax = suffix_max(&|l| l.quality);
        let pqmax: Vec<f64> = suffix_max(&|l| l.peak_qpm * l.quality)
            .into_iter()
            .map(|x| x.max(0.0))
            .collect();
        // Dual vertex candidates per suffix: λ = p_v (q_v − q_u) > 0 for a
        // free level v and any level u; each pairs with the best
        // λ-adjusted free quality max_w (q_w − λ/p_w). Any λ ≥ 0 yields a
        // sound bound, so the set only needs to be useful, not complete.
        let lambdas: Vec<Vec<(f64, f64)>> = (0..=n)
            .map(|d| {
                let mut raw = Vec::new();
                for i in d..n {
                    let (qv, pv) = (level(i).quality, level(i).peak_qpm);
                    // A free level marginal against any level's quality.
                    for u in &p.levels {
                        raw.push(pv * (qv - u.quality));
                    }
                    // Two free levels simultaneously marginal.
                    for j in d..n {
                        let (qw, pw) = (level(j).quality, level(j).peak_qpm);
                        let denom = 1.0 / pv - 1.0 / pw;
                        if denom.abs() > 1e-12 {
                            raw.push((qv - qw) / denom);
                        }
                    }
                }
                let mut set: Vec<(f64, f64)> = raw
                    .into_iter()
                    .filter(|l| *l > 0.0 && l.is_finite())
                    .map(|lambda| {
                        let ahat = (d..n)
                            .map(|w| level(w).quality - lambda / level(w).peak_qpm)
                            .fold(f64::NEG_INFINITY, f64::max);
                        (lambda, ahat)
                    })
                    .collect();
                set.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
                set.dedup_by(|a, b| (a.0 - b.0).abs() < 1e-12 * (1.0 + a.0.abs()));
                set
            })
            .collect();
        FastTables {
            order,
            pmax,
            qmax,
            pqmax,
            lambdas,
        }
    }
}

/// Depth-first branch-and-bound state for [`AllocationProblem::solve`].
///
/// Levels are branched in the quality-descending order of the
/// [`FastTables`]; position `d` in the recursion fixes the count of
/// `order[d]`. All suffix aggregates the bound needs are precomputed per
/// depth, and each node carries its prefix's [`Fill`], so every bound
/// costs one more fill step.
struct FastSearch<'a> {
    p: &'a AllocationProblem,
    t: &'a FastTables,
    target: f64,
    counts: Vec<usize>,
    best: Option<(f64, f64, Vec<usize>, Vec<f64>)>,
}

impl FastSearch<'_> {
    /// One node: positions `..depth` are fixed, `r` workers remain.
    /// `fixed_cap` / `fixed_headroom` are the running `Σ c·p` and
    /// `Σ c·p·q` of the fixed prefix, and `fill` its greedy fill of the
    /// target.
    fn branch(&mut self, depth: usize, r: usize, fixed_cap: f64, fixed_headroom: f64, fill: Fill) {
        let n = self.t.order.len();
        if depth == n - 1 {
            // The last position absorbs the remainder (compositions always
            // sum to the full worker count, exactly like the enumeration).
            self.counts[self.t.order[depth]] = r;
            if let Some((qsum, served, omega)) =
                self.p
                    .score_composition(&self.counts, self.target, &self.t.order)
            {
                let better = match &self.best {
                    Some((bq, _, bc, _)) => {
                        qsum > *bq || (qsum == *bq && self.counts.as_slice() < bc.as_slice())
                    }
                    None => true,
                };
                if better {
                    self.best = Some((qsum, served, self.counts.clone(), omega));
                }
            }
            self.counts[self.t.order[depth]] = 0;
            return;
        }

        // Try large counts first: on quality-sorted levels the optimum
        // loads the high-quality prefix heavily, so strong incumbents
        // appear early and the bound prunes the rest.
        let lvl = self.t.order[depth];
        let (pd, qd) = (self.p.levels[lvl].peak_qpm, self.p.levels[lvl].quality);
        for c in (0..=r).rev() {
            let cf = c as f64;
            let cap = fixed_cap + cf * pd;
            let headroom = fixed_headroom + cf * pd * qd;
            let child = fill.take(qd, cf * pd);
            self.counts[lvl] = c;
            if !self.subtree_may_beat(depth + 1, r - c, cap, headroom, child) {
                continue;
            }
            self.branch(depth + 1, r - c, cap, headroom, child);
        }
        self.counts[lvl] = 0;
    }

    /// Whether the subtree with `r` free workers below a fixed prefix
    /// could contain a feasible composition scoring at least the
    /// incumbent. Conservative: `true` on any doubt.
    fn subtree_may_beat(
        &self,
        d: usize,
        r: usize,
        fixed_cap: f64,
        fixed_headroom: f64,
        fill: Fill,
    ) -> bool {
        let rf = r as f64;
        // Feasibility: even the fastest-possible suffix cannot reach the
        // target (with slack, so borderline compositions still reach the
        // shared scorer and are rejected there, identically).
        if fixed_cap + rf * self.t.pmax[d] < self.target - 1e-6 {
            return false;
        }
        let Some((best_q, _, _, _)) = &self.best else {
            return true;
        };
        let best_q = *best_q;
        let headroom_ub = 1e-9 * (fixed_headroom + rf * self.t.pqmax[d]);

        // Cheap super-source bound first: the suffix pretends to carry its
        // best quality at its best per-worker throughput simultaneously.
        // Fixed levels enter as exact capacity chunks, so when the target
        // fits entirely in the prefix this bound is tight to the bit.
        let b1 = fill.take(self.t.qmax[d], rf * self.t.pmax[d]).value;
        if inflate(b1 + headroom_ub) < best_q {
            return false;
        }

        // Second chance: Lagrangian bounds on the suffix worker budget.
        // For any λ ≥ 0, charging free load λ/p per query and refunding
        // λ·r upper-bounds the constrained optimum.
        for &(lambda, ahat) in &self.t.lambdas[d] {
            let val = lambda * rf + fill.take(ahat, f64::INFINITY).value;
            if inflate(val + headroom_ub) < best_q {
                return false;
            }
        }
        true
    }
}

/// Inflates an upper bound so float noise in the bound arithmetic can only
/// cause extra exploration, never a wrong prune. The margin sits well above
/// accumulated rounding error (~1e-16 relative per op) and well below the
/// 1e-9-scale headroom tie-break distinctions the search must preserve.
fn inflate(bound: f64) -> f64 {
    bound + bound.abs() * 1e-12 + 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_models::{GpuArch, Strategy};
    use proptest::prelude::*;

    fn ac_problem(workers: usize, demand: f64) -> AllocationProblem {
        AllocationProblem::from_ladder(
            ApproxLevel::ladder(Strategy::Ac),
            GpuArch::A100,
            0.02,
            workers,
            demand,
        )
    }

    #[test]
    fn light_load_uses_only_the_base_level() {
        // 8 workers at K=0 serve ~114 QPM; demand 80 fits entirely.
        let a = ac_problem(8, 80.0).solve_exact();
        assert!(!a.saturated);
        assert!((a.served_qpm - 80.0).abs() < 1e-6);
        assert!((a.omega_qpm[0] - 80.0).abs() < 1e-6, "{a:?}");
        for v in 1..6 {
            assert_eq!(a.omega_qpm[v], 0.0);
        }
    }

    #[test]
    fn heavy_load_pushes_to_deeper_levels() {
        let p = ac_problem(8, 200.0);
        let a = p.solve_exact();
        assert!(!a.saturated);
        assert!((a.served_qpm - 200.0).abs() < 1e-6);
        // Some load must sit on approximated levels.
        let approx_load: f64 = a.omega_qpm[1..].iter().sum();
        assert!(approx_load > 50.0, "{a:?}");
        // Quality is between the extremes.
        let q = a.mean_quality(&p.levels);
        assert!(q > 17.6 && q < 21.0, "quality {q}");
    }

    #[test]
    fn saturation_flag_and_capacity_cap() {
        let p = ac_problem(8, 500.0);
        let a = p.solve_exact();
        assert!(a.saturated);
        assert!((a.served_qpm - p.max_capacity_qpm()).abs() < 1e-6);
        // Everything at the deepest level.
        assert_eq!(a.workers_per_level[5], 8, "{a:?}");
    }

    #[test]
    fn quality_degrades_monotonically_with_load() {
        let mut last_q = f64::INFINITY;
        for demand in [60.0, 100.0, 140.0, 180.0, 215.0] {
            let p = ac_problem(8, demand);
            let a = p.solve_exact();
            let q = a.mean_quality(&p.levels);
            assert!(
                q <= last_q + 1e-9,
                "quality should fall with load: {demand} → {q} (prev {last_q})"
            );
            last_q = q;
        }
    }

    #[test]
    fn zero_demand_parks_everything_slow() {
        let a = ac_problem(4, 0.0).solve_exact();
        assert_eq!(a.served_qpm, 0.0);
        assert!(!a.saturated);
        let norm = a.omega_normalized();
        assert_eq!(norm[0], 1.0); // degenerate distribution defaults to base
    }

    #[test]
    fn milp_matches_exact_objective() {
        for demand in [50.0, 120.0, 160.0, 190.0] {
            let p = ac_problem(6, demand);
            let exact = p.solve_exact();
            let milp = p.solve_milp().expect("milp solves");
            let qe = exact.mean_quality(&p.levels) * exact.served_qpm;
            let qm = milp.mean_quality(&p.levels) * milp.served_qpm;
            assert!(
                (qe - qm).abs() < 1e-3 * qe.abs().max(1.0),
                "demand {demand}: exact {qe} vs milp {qm}"
            );
            assert!((exact.served_qpm - milp.served_qpm).abs() < 1e-4);
        }
    }

    #[test]
    fn sm_ladder_also_solves() {
        let p = AllocationProblem::from_ladder(
            ApproxLevel::ladder(Strategy::Sm),
            GpuArch::A100,
            0.0,
            8,
            150.0,
        );
        let a = p.solve_exact();
        assert!((a.served_qpm - 150.0).abs() < 1e-6);
        assert_eq!(a.workers_per_level.iter().sum::<usize>(), 8);
    }

    #[test]
    fn retrieval_overhead_lowers_ac_capacity() {
        let healthy = ac_problem(8, 100.0);
        let congested = AllocationProblem::from_ladder(
            ApproxLevel::ladder(Strategy::Ac),
            GpuArch::A100,
            1.5,
            8,
            100.0,
        );
        assert!(congested.max_capacity_qpm() < healthy.max_capacity_qpm() * 0.7);
    }

    #[test]
    fn omega_normalized_sums_to_one() {
        let a = ac_problem(8, 150.0).solve_exact();
        let norm = a.omega_normalized();
        assert!((norm.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn slo_derating_scales_peaks_level_dependently() {
        let p = ac_problem(8, 100.0);
        let derated = p.clone().with_slo_derating(12.6);
        for (orig, der) in p.levels.iter().zip(&derated.levels) {
            assert!(der.peak_qpm < orig.peak_qpm, "{:?}", der.level);
            assert!(der.peak_qpm > 0.5 * orig.peak_qpm);
        }
        // Deep (fast) levels have more SLO slack → higher allowed ρ.
        let rho = |i: usize| derated.levels[i].peak_qpm / p.levels[i].peak_qpm;
        assert!(
            rho(5) > rho(0),
            "rho_deep {} vs rho_base {}",
            rho(5),
            rho(0)
        );
        // K=0 at 4.2 s against a 12.6 s SLO: ρ_max = 2·2/(1+2·2) = 0.8.
        assert!((rho(0) - 0.8).abs() < 0.02, "rho base {}", rho(0));
    }

    #[test]
    fn derated_problem_saturates_earlier() {
        let raw = ac_problem(8, 200.0);
        let derated = ac_problem(8, 200.0).with_slo_derating(12.6);
        assert!(derated.max_capacity_qpm() < raw.max_capacity_qpm());
        assert!(!raw.solve_exact().saturated);
    }

    #[test]
    #[should_panic(expected = "SLO must be positive")]
    fn derating_rejects_bad_slo() {
        let _ = ac_problem(2, 10.0).with_slo_derating(0.0);
    }

    #[test]
    #[should_panic(expected = "no workers")]
    fn zero_workers_rejected() {
        let mut p = ac_problem(1, 10.0);
        p.workers = 0;
        let _ = p.solve_exact();
    }

    #[test]
    fn fast_matches_exact_bit_for_bit_on_testbed_sizes() {
        for workers in [1, 2, 3, 5, 8, 13, 16] {
            for demand in [0.0, 40.0, 80.0, 130.0, 200.0, 500.0] {
                let p = ac_problem(workers, demand);
                let exact = p.solve_exact();
                let fast = p.solve();
                assert_eq!(exact, fast, "W={workers} demand={demand}");
            }
        }
    }

    #[test]
    fn fast_matches_exact_on_sm_ladder() {
        for demand in [30.0, 90.0, 160.0, 240.0] {
            let p = AllocationProblem::from_ladder(
                ApproxLevel::ladder(Strategy::Sm),
                GpuArch::A100,
                0.0,
                10,
                demand,
            )
            .with_slo_derating(12.6);
            assert_eq!(p.solve_exact(), p.solve(), "demand={demand}");
        }
    }

    #[test]
    fn fast_handles_large_clusters() {
        // 128 workers, full 6-level ladder: far beyond what enumeration
        // can visit; the search must still return a feasible optimum.
        for demand in [400.0, 1500.0, 2600.0] {
            let p = ac_problem(128, demand);
            let a = p.solve();
            let expect = demand.min(p.max_capacity_qpm());
            assert!(
                (a.served_qpm - expect).abs() < 1e-6,
                "demand={demand} {a:?}"
            );
            assert_eq!(a.workers_per_level.iter().sum::<usize>(), 128);
            for (v, w) in a.omega_qpm.iter().enumerate() {
                let cap = a.workers_per_level[v] as f64 * p.levels[v].peak_qpm;
                assert!(*w <= cap + 1e-6);
            }
            // Bit determinism of the search itself.
            assert_eq!(a, p.solve());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The branch-and-bound returns the enumeration's allocation
        /// bit-for-bit on random instances.
        #[test]
        fn prop_fast_matches_exact(
            workers in 1usize..14,
            demand in 0.0f64..400.0,
            q in proptest::collection::vec(15.0f64..22.0, 4),
            peak in proptest::collection::vec(8.0f64..40.0, 4),
        ) {
            let levels: Vec<LevelProfile> = (0..4)
                .map(|i| LevelProfile {
                    level: ApproxLevel::ladder(Strategy::Ac)[i],
                    quality: q[i],
                    peak_qpm: peak[i],
                })
                .collect();
            let p = AllocationProblem { levels, workers, demand_qpm: demand };
            prop_assert_eq!(p.solve_exact(), p.solve());
        }

        /// Exact and MILP solvers agree on objective for random instances.
        #[test]
        fn prop_exact_matches_milp(
            workers in 2usize..6,
            demand in 10.0f64..200.0,
            q in proptest::collection::vec(15.0f64..22.0, 3),
            peak in proptest::collection::vec(10.0f64..40.0, 3),
        ) {
            let levels: Vec<LevelProfile> = (0..3)
                .map(|i| LevelProfile {
                    level: ApproxLevel::ladder(Strategy::Ac)[i],
                    quality: q[i],
                    peak_qpm: peak[i],
                })
                .collect();
            let p = AllocationProblem { levels, workers, demand_qpm: demand };
            let exact = p.solve_exact();
            let milp = p.solve_milp().unwrap();
            let oe: f64 = exact.omega_qpm.iter().zip(&p.levels).map(|(w, l)| w * l.quality).sum();
            let om: f64 = milp.omega_qpm.iter().zip(&p.levels).map(|(w, l)| w * l.quality).sum();
            prop_assert!((oe - om).abs() < 1e-3 * oe.abs().max(1.0),
                "exact {oe} milp {om} ({p:?})");
        }

        /// The allocation always serves min(demand, capacity) and never
        /// exceeds per-level capacity.
        #[test]
        fn prop_allocation_feasible(
            workers in 1usize..10,
            demand in 0.0f64..400.0,
        ) {
            let p = ac_problem(workers, demand);
            let a = p.solve_exact();
            let expect = demand.min(p.max_capacity_qpm());
            prop_assert!((a.served_qpm - expect).abs() < 1e-6);
            for (v, w) in a.omega_qpm.iter().enumerate() {
                let cap = a.workers_per_level[v] as f64 * p.levels[v].peak_qpm;
                prop_assert!(*w <= cap + 1e-6);
            }
        }
    }
}
