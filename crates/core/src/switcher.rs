//! The AC ↔ SM strategy switcher (§4.6).
//!
//! Argus serves with approximate caching by default. It continuously
//! monitors cache-retrieval latencies; when the recent average exceeds a
//! threshold (or retrievals outright fail), it initiates an **AC → SM**
//! switch: workers first serve with the already-loaded SD-XL *without*
//! caching (no downtime), smaller models load concurrently, and the solver
//! diverts extra load to them with a 1.5× margin as they come online.
//! While in SM mode, background probes test the network; a streak of
//! healthy probes triggers the **SM → AC** switch back.

use argus_des::stats::MovingAverage;
use argus_des::SimTime;
use argus_models::Strategy;

/// Mean retrieval latency (seconds, over the monitoring window) above which
/// AC is considered degraded. Normal retrievals are ~20 ms; congestion
/// pushes seconds (Fig. 11), so 0.5 s separates cleanly.
const LATENCY_THRESHOLD_SECS: f64 = 0.5;
/// Fraction of failed retrievals in the window that forces a switch
/// regardless of latency.
const FAILURE_RATIO_THRESHOLD: f64 = 0.3;
/// Monitoring window, in retrievals.
const WINDOW: usize = 20;
/// Consecutive healthy probes required to switch back to AC.
const HEALTHY_PROBES_REQUIRED: usize = 4;
/// Load-diversion margin used by the solver during a switch (§4.6: "the
/// solver uses a 1.5× margin to divert more load to a smaller model to
/// cover for the throughput drop").
const SWITCH_MARGIN: f64 = 1.5;

/// The switcher's operating state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitcherState {
    /// Serving with approximate caching.
    Ac,
    /// AC → SM in progress: serving K=0 without caching while small
    /// models load.
    SwitchingToSm,
    /// Serving with smaller model variants; probing for recovery.
    Sm,
    /// SM → AC in progress: small models still serving while SD-XL loads.
    SwitchingToAc,
}

/// A switch decision emitted by the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchCommand {
    /// Begin the AC → SM transition.
    ToSm,
    /// Begin the SM → AC transition.
    ToAc,
}

/// Monitors retrieval health and drives the strategy state machine.
#[derive(Debug, Clone)]
pub struct StrategySwitcher {
    state: SwitcherState,
    latency: MovingAverage,
    failures: MovingAverage,
    healthy_streak: usize,
    switches_to_sm: u64,
    switches_to_ac: u64,
    last_transition: SimTime,
}

impl Default for StrategySwitcher {
    fn default() -> Self {
        StrategySwitcher::new()
    }
}

impl StrategySwitcher {
    /// Creates a switcher in the AC state.
    pub fn new() -> Self {
        StrategySwitcher {
            latency: MovingAverage::new(WINDOW),
            failures: MovingAverage::new(WINDOW),
            state: SwitcherState::Ac,
            healthy_streak: 0,
            switches_to_sm: 0,
            switches_to_ac: 0,
            last_transition: SimTime::ZERO,
        }
    }

    /// Current state.
    pub fn state(&self) -> SwitcherState {
        self.state
    }

    /// The strategy whose ladder the allocator should plan with right now.
    ///
    /// During `SwitchingToSm` the plan is already SM (small models are the
    /// target); during `SwitchingToAc` the plan is AC.
    pub fn planning_strategy(&self) -> Strategy {
        match self.state {
            SwitcherState::Ac | SwitcherState::SwitchingToAc => Strategy::Ac,
            SwitcherState::Sm | SwitcherState::SwitchingToSm => Strategy::Sm,
        }
    }

    /// Whether cache retrieval should be attempted for new requests.
    pub fn cache_enabled(&self) -> bool {
        self.state == SwitcherState::Ac
    }

    /// The factor the allocator scales its demand by: the §4.6 switch
    /// margin while switching to SM, otherwise 1.
    pub fn demand_margin(&self) -> f64 {
        if self.state == SwitcherState::SwitchingToSm {
            SWITCH_MARGIN
        } else {
            1.0
        }
    }

    /// Lifetime switch counts `(to_sm, to_ac)`.
    pub fn switch_counts(&self) -> (u64, u64) {
        (self.switches_to_sm, self.switches_to_ac)
    }

    /// Time of the last state transition.
    pub fn last_transition(&self) -> SimTime {
        self.last_transition
    }

    /// Feeds one cache-retrieval observation (only meaningful in AC).
    /// Returns a command when the health monitor trips.
    pub fn on_retrieval(
        &mut self,
        latency_secs: f64,
        ok: bool,
        now: SimTime,
    ) -> Option<SwitchCommand> {
        if self.state != SwitcherState::Ac {
            return None;
        }
        self.latency.push(latency_secs);
        self.failures.push(if ok { 0.0 } else { 1.0 });
        if !self.latency.is_saturated() {
            return None;
        }
        let lat = self.latency.value().unwrap_or(0.0);
        let fail = self.failures.value().unwrap_or(0.0);
        if lat > LATENCY_THRESHOLD_SECS || fail > FAILURE_RATIO_THRESHOLD {
            self.begin(SwitcherState::SwitchingToSm, now);
            self.switches_to_sm += 1;
            return Some(SwitchCommand::ToSm);
        }
        None
    }

    /// Feeds one background probe observation (only meaningful in SM).
    /// Returns a command once enough consecutive probes look healthy.
    pub fn on_probe(&mut self, latency_secs: f64, ok: bool, now: SimTime) -> Option<SwitchCommand> {
        if self.state != SwitcherState::Sm {
            return None;
        }
        if ok && latency_secs <= LATENCY_THRESHOLD_SECS {
            self.healthy_streak += 1;
        } else {
            self.healthy_streak = 0;
        }
        if self.healthy_streak >= HEALTHY_PROBES_REQUIRED {
            self.begin(SwitcherState::SwitchingToAc, now);
            self.switches_to_ac += 1;
            return Some(SwitchCommand::ToAc);
        }
        None
    }

    /// Notifies that the in-progress transition finished (target models
    /// loaded and serving).
    pub fn on_transition_complete(&mut self, now: SimTime) {
        match self.state {
            SwitcherState::SwitchingToSm => self.begin(SwitcherState::Sm, now),
            SwitcherState::SwitchingToAc => self.begin(SwitcherState::Ac, now),
            _ => {}
        }
    }

    fn begin(&mut self, state: SwitcherState, now: SimTime) {
        self.state = state;
        self.last_transition = now;
        self.healthy_streak = 0;
        // Reset monitors: observations from the previous regime are stale.
        self.latency = MovingAverage::new(WINDOW);
        self.failures = MovingAverage::new(WINDOW);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn switcher() -> StrategySwitcher {
        StrategySwitcher::new()
    }

    #[test]
    fn healthy_retrievals_keep_ac() {
        let mut s = switcher();
        for i in 0..100 {
            assert_eq!(s.on_retrieval(0.02, true, t(i as f64)), None);
        }
        assert_eq!(s.state(), SwitcherState::Ac);
        assert!(s.cache_enabled());
        assert_eq!(s.planning_strategy(), Strategy::Ac);
    }

    #[test]
    fn latency_spike_triggers_switch_to_sm() {
        let mut s = switcher();
        for i in 0..19 {
            s.on_retrieval(0.02, true, t(i as f64));
        }
        let mut cmd = None;
        for i in 0..30 {
            cmd = s.on_retrieval(2.0, true, t(20.0 + i as f64));
            if cmd.is_some() {
                break;
            }
        }
        assert_eq!(cmd, Some(SwitchCommand::ToSm));
        assert_eq!(s.state(), SwitcherState::SwitchingToSm);
        assert!(!s.cache_enabled());
        assert_eq!(s.planning_strategy(), Strategy::Sm);
        assert_eq!(s.switch_counts(), (1, 0));
    }

    #[test]
    fn outright_failures_trigger_switch_even_when_fast() {
        let mut s = switcher();
        let mut cmd = None;
        for i in 0..40 {
            // Failures report the timeout latency in practice, but even a
            // fast-failing endpoint must trip the failure-ratio rule.
            cmd = s.on_retrieval(0.01, i % 2 == 0, t(i as f64));
            if cmd.is_some() {
                break;
            }
        }
        assert_eq!(cmd, Some(SwitchCommand::ToSm));
    }

    #[test]
    fn full_cycle_ac_sm_ac() {
        let mut s = switcher();
        // Trip the monitor.
        for i in 0..40 {
            if s.on_retrieval(3.0, false, t(i as f64)).is_some() {
                break;
            }
        }
        assert_eq!(s.state(), SwitcherState::SwitchingToSm);
        // Probes during the transition are ignored.
        assert_eq!(s.on_probe(0.01, true, t(50.0)), None);
        s.on_transition_complete(t(60.0));
        assert_eq!(s.state(), SwitcherState::Sm);
        assert_eq!(s.planning_strategy(), Strategy::Sm);
        // Three healthy probes: not yet. One unhealthy resets the streak.
        assert_eq!(s.on_probe(0.01, true, t(70.0)), None);
        assert_eq!(s.on_probe(0.01, true, t(80.0)), None);
        assert_eq!(s.on_probe(4.0, true, t(90.0)), None);
        assert_eq!(s.on_probe(0.01, true, t(100.0)), None);
        assert_eq!(s.on_probe(0.01, true, t(110.0)), None);
        assert_eq!(s.on_probe(0.01, true, t(120.0)), None);
        let cmd = s.on_probe(0.01, true, t(130.0));
        assert_eq!(cmd, Some(SwitchCommand::ToAc));
        assert_eq!(s.state(), SwitcherState::SwitchingToAc);
        assert_eq!(s.planning_strategy(), Strategy::Ac);
        s.on_transition_complete(t(140.0));
        assert_eq!(s.state(), SwitcherState::Ac);
        assert!(s.cache_enabled());
        assert_eq!(s.switch_counts(), (1, 1));
        assert_eq!(s.last_transition(), t(140.0));
    }

    #[test]
    fn retrievals_ignored_outside_ac() {
        let mut s = switcher();
        for i in 0..40 {
            if s.on_retrieval(3.0, false, t(i as f64)).is_some() {
                break;
            }
        }
        s.on_transition_complete(t(50.0));
        assert_eq!(s.state(), SwitcherState::Sm);
        // A retrieval observation in SM must not flip anything.
        assert_eq!(s.on_retrieval(5.0, false, t(60.0)), None);
        assert_eq!(s.state(), SwitcherState::Sm);
    }

    #[test]
    fn monitor_resets_across_transitions() {
        let mut s = switcher();
        for i in 0..40 {
            if s.on_retrieval(3.0, false, t(i as f64)).is_some() {
                break;
            }
        }
        s.on_transition_complete(t(50.0));
        for i in 0..4 {
            s.on_probe(0.01, true, t(60.0 + i as f64));
        }
        s.on_transition_complete(t(70.0));
        assert_eq!(s.state(), SwitcherState::Ac);
        // Fresh window: a single slow retrieval must not instantly trip.
        assert_eq!(s.on_retrieval(3.0, true, t(71.0)), None);
    }

    #[test]
    fn default_config_matches_paper_margin() {
        let mut s = switcher();
        assert_eq!(s.demand_margin(), 1.0);
        for i in 0..40 {
            if s.on_retrieval(3.0, false, t(i as f64)).is_some() {
                break;
            }
        }
        assert_eq!(s.state(), SwitcherState::SwitchingToSm);
        assert_eq!(s.demand_margin(), 1.5);
        s.on_transition_complete(t(50.0));
        assert_eq!(s.demand_margin(), 1.0);
    }
}
