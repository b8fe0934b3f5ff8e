#![warn(missing_docs)]
//! Virtual time, discrete-event scheduling, and deterministic randomness.
//!
//! The Chrono reproduction is a *discrete-event simulation*: all latencies,
//! scan periods, and rate limits are expressed in simulated nanoseconds, and
//! the only way time moves is through [`Clock::advance`]. Policy daemons
//! (Ticking-scan, demotion, DCSC statistics collection) are modelled as
//! periodic events on an [`EventQueue`].
//!
//! Everything is deterministic: randomness comes from [`rng::DetRng`], a
//! seeded generator, so every experiment in the paper reproduction is exactly
//! repeatable.

pub mod clock;
pub mod event;
mod normal;
pub mod rng;

pub use clock::{Clock, Nanos, MICROSECOND, MILLISECOND, SECOND};
pub use event::{EventId, EventQueue};
pub use rng::DetRng;
