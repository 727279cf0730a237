//! # argus-des — deterministic discrete-event simulation engine
//!
//! The Argus reproduction runs the entire serving system inside a
//! discrete-event simulation (DES): GPU workers, model loads, cache
//! retrievals, allocator ticks and request arrivals are all events on a
//! single virtual clock. This crate provides the engine:
//!
//! * [`SimTime`] / [`SimDuration`] — µs-resolution virtual time.
//! * [`EventQueue`] — a stable priority queue of `(time, event)` pairs with
//!   FIFO tie-breaking, the core of the simulation loop.
//! * [`rng`] — seeded, labelled random-number streams plus the statistical
//!   distributions the simulator needs (exponential, normal, log-normal,
//!   Poisson, Pareto), implemented from scratch because only the base `rand`
//!   crate is available offline.
//! * [`stats`] — percentiles, moving averages and windowed rate counters
//!   used by the metrics pipeline.
//!
//! # Example
//!
//! ```
//! use argus_des::{EventQueue, SimTime, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Arrive(u32), Done(u32) }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_secs(1.0), Ev::Arrive(7));
//! q.schedule_after(SimTime::ZERO, SimDuration::from_secs(2.0), Ev::Done(7));
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(t, SimTime::from_secs(1.0));
//! assert_eq!(ev, Ev::Arrive(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
pub mod rng;
pub mod stats;
mod time;

pub use queue::EventQueue;
pub use time::{SimDuration, SimTime};
