//! Control-plane stage profiling: call counters collected inside each
//! stage and surfaced on the run outcome at teardown.
//!
//! The driver is every stage's only caller and calls it directly, so the
//! counters are a pure function of the run: bit-identical across repeats
//! (see DESIGN.md §12).

/// Call counters a stage increments on every call the driver makes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Calls the stage ran, its teardown call included.
    pub processed: u64,
    /// Calls that returned a value to the driver.
    pub replies: u64,
}

impl StageCounters {
    /// Counts one call; `replied` says whether it returned a value.
    pub fn count(&mut self, replied: bool) {
        self.processed += 1;
        self.replies += u64::from(replied);
    }
}

/// The profile of one control-plane stage over a whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageProfile {
    /// Stage name (`"planner"`, `"cache-plane"`, `"metrics"`, `"fleet"`).
    pub stage: &'static str,
    /// Counters collected inside the stage.
    pub counters: StageCounters,
    /// Calls the driver made into the stage: always equal to
    /// `counters.processed`. Kept only because the repository benchmark
    /// reports it, until the next benchmark change drops it.
    pub sent: u64,
    /// Always 0: stages have no mailbox. Kept only because the repository
    /// benchmark reports it, until the next benchmark change drops it.
    pub mailbox_hwm: u64,
}

impl StageProfile {
    /// The profile of `stage` from the counters it collected.
    pub fn new(stage: &'static str, counters: StageCounters) -> Self {
        StageProfile {
            stage,
            counters,
            sent: counters.processed,
            mailbox_hwm: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_profile_counts_every_call_as_sent_and_has_no_mailbox() {
        let mut counters = StageCounters::default();
        counters.count(true);
        counters.count(false);
        counters.count(true);
        let p = StageProfile::new("planner", counters);
        assert_eq!((p.counters.processed, p.counters.replies), (3, 2));
        assert_eq!(p.sent, 3);
        assert_eq!(p.mailbox_hwm, 0);
    }
}
