//! The event queue at the heart of the simulation loop.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::SimTime;

/// A pending event: ordering is by time, then by insertion sequence so that
/// events scheduled for the same instant pop in FIFO order (critical for
/// reproducibility).
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is on top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
///
/// Events of type `E` are scheduled at absolute [`SimTime`] instants and
/// popped in non-decreasing time order; ties break in scheduling (FIFO)
/// order. Popping advances the queue's notion of [`now`](EventQueue::now).
///
/// A time-ordered stream too long to hold in the heap (a trace's
/// arrivals) can be merged ahead of it: the driver delivers the stream's
/// next item itself whenever it is due at or before
/// [`peek_time`](EventQueue::peek_time), and reports it with
/// [`advance`](EventQueue::advance), which moves the clock and the
/// processed count exactly as a pop would. The heap then holds only the
/// events in flight.
///
/// The simulation driver owns the loop:
///
/// ```
/// use argus_des::{EventQueue, SimTime, SimDuration};
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(1.0), "first");
/// let mut log = Vec::new();
/// while let Some((t, ev)) = q.pop() {
///     log.push((t.as_secs(), ev));
///     if ev == "first" {
///         q.schedule_after(t, SimDuration::from_secs(1.0), "second");
///     }
/// }
/// assert_eq!(log, vec![(1.0, "first"), (2.0, "second")]);
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// The current simulation time: the timestamp of the most recently
    /// popped event (or zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of events popped so far.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// The number of events still pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past (before [`now`](Self::now)) is clamped to
    /// `now`: the event will fire next, preserving causality. This mirrors
    /// how real schedulers handle "immediately" work.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
    }

    /// Schedules `event` at `base + delay`.
    pub fn schedule_after(&mut self, base: SimTime, delay: crate::SimDuration, event: E) {
        self.schedule(base + delay, event);
    }

    /// Removes and returns the earliest pending event, advancing the clock
    /// to its timestamp. Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "time went backwards");
        self.now = entry.time;
        self.popped += 1;
        Some((entry.time, entry.event))
    }

    /// Accounts for an event delivered from outside the heap at `at` (see
    /// the type docs): advances the clock to `at` and counts the event as
    /// processed, exactly as [`pop`](Self::pop) does for a heap event.
    pub fn advance(&mut self, at: SimTime) {
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.popped += 1;
    }

    /// The timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("processed", &self.popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3.0), 3);
        q.schedule(SimTime::from_secs(1.0), 1);
        q.schedule(SimTime::from_secs(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5.0), "a");
        q.schedule(SimTime::from_secs(2.0), "b");
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(2.0));
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5.0));
        assert_eq!(q.events_processed(), 2);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10.0), "late");
        q.pop();
        // Try to schedule in the past; it must fire at `now`, not before.
        q.schedule(SimTime::from_secs(1.0), "past");
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(10.0));
        assert_eq!(e, "past");
    }

    #[test]
    fn schedule_after_offsets_its_base() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1.0), 0u8);
        q.pop();
        q.schedule_after(q.now(), SimDuration::from_secs(2.0), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3.0)));
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(3.0), 2));
    }

    #[test]
    fn advance_counts_an_outside_event_like_a_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2.0), "heap");
        q.advance(SimTime::from_secs(1.0));
        assert_eq!(q.now(), SimTime::from_secs(1.0));
        assert_eq!(q.events_processed(), 1);
        assert_eq!(q.len(), 1, "the heap is untouched");
        // Scheduling stays relative to the advanced clock.
        q.schedule(SimTime::ZERO, "clamped");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "clamped")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2.0), "heap")));
        assert_eq!(q.events_processed(), 3);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        assert!(!format!("{q:?}").is_empty());
    }

    proptest! {
        /// Popped timestamps are always non-decreasing regardless of the
        /// scheduling order, and every scheduled event is delivered.
        #[test]
        fn prop_total_order(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_micros(t), i);
            }
            let mut last = SimTime::ZERO;
            let mut seen = vec![false; times.len()];
            while let Some((t, i)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
                seen[i] = true;
            }
            prop_assert!(seen.iter().all(|&s| s));
        }

        /// FIFO tie-break: events at an equal timestamp preserve insertion order.
        #[test]
        fn prop_fifo_at_equal_times(n in 1usize..100) {
            let mut q = EventQueue::new();
            let t = SimTime::from_secs(1.0);
            for i in 0..n {
                q.schedule(t, i);
            }
            let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
        }
    }
}
