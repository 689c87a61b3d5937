//! # simkit — a small deterministic discrete-event simulation engine
//!
//! This crate provides the simulation substrate used by the unified
//! concurrency-control reproduction:
//!
//! * a virtual [`time::SimTime`] clock measured in microseconds,
//! * a deterministic [`event::EventQueue`] with stable tie-breaking,
//! * seeded random-number helpers and inverse-CDF samplers for the
//!   distributions the workload generator needs ([`dist`]),
//! * small online statistics accumulators ([`stats`]).
//!
//! The engine is intentionally single-threaded and fully deterministic:
//! given the same seed and configuration, every experiment in the paper
//! reproduction replays the exact same schedule, which is what makes the
//! serializability oracle and the property-based tests meaningful.
//!
//! ```
//! use simkit::event::{EventQueue, Scheduled};
//! use simkit::time::SimTime;
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::from_micros(20), "second");
//! q.schedule(SimTime::from_micros(10), "first");
//! let Scheduled { at, payload } = q.pop().unwrap();
//! assert_eq!(at, SimTime::from_micros(10));
//! assert_eq!(payload, "first");
//! ```

#![forbid(unsafe_code)]

pub mod dist;
pub mod event;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::{Distribution, Exponential, Fixed, Uniform, Zipfian};
pub use event::{EventQueue, Scheduled};
pub use rng::SimRng;
pub use stats::{Counter, Histogram, RunningStat};
pub use time::{Duration, SimTime};
