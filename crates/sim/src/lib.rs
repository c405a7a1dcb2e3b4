//! # pulse-sim
//!
//! Deterministic discrete-event simulation (DES) substrate for the `pulse`
//! reproduction workspace.
//!
//! The paper evaluates pulse on a physical rack (FPGA SmartNICs, a Tofino
//! switch, Xeon servers). This workspace reproduces that rack as a
//! simulation; every timed component is built from the four primitives here:
//!
//! * [`SimTime`] — integer-picosecond simulated time,
//! * [`EventQueue`] / [`Driver`] — totally-ordered event scheduling,
//! * [`SerialResource`] / [`ServerPool`] / [`CpuDispatch`] — contention
//!   models for links, DRAM channels, pipeline pools, and CPU-node
//!   dispatch engines,
//! * [`LatencyHistogram`] — measurement collection.
//!
//! [`Slab`] parks large event payloads behind `u32` handles, so the event
//! types stay small. [`IdHash`] hashes the integer keys the simulator
//! generates (cache lines, version granules) with one multiply.
//!
//! Determinism is a design requirement: identical configurations produce
//! byte-identical experiment reports, which is what makes the regenerated
//! paper tables meaningful.
//!
//! # Examples
//!
//! ```
//! use pulse_sim::{Driver, LatencyHistogram, SerialResource, SimTime};
//!
//! // Simulate three packets crossing a 100 Gbps link 1 us away.
//! let mut drv: Driver<u32> = Driver::new();
//! let mut link = SerialResource::new(100_000_000_000);
//! let mut lat = LatencyHistogram::new();
//! for id in 0..3u32 {
//!     let g = link.acquire(SimTime::ZERO, 1500);
//!     drv.schedule_at(g.end + SimTime::from_micros(1), id);
//! }
//! while let Some(_id) = drv.next_event() {
//!     lat.record(drv.now());
//! }
//! assert_eq!(lat.count(), 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod hash;
mod resource;
mod rng;
mod slab;
mod stats;
mod time;

pub use event::{Driver, EventQueue};
pub use hash::{IdHash, IdHasher};
pub use resource::{CpuDispatch, DispatchConfig, Grant, PoolGrant, SerialResource, ServerPool};
pub use rng::SplitMix64;
pub use slab::Slab;
pub use stats::{quantile_rank, LatencyHistogram, LatencySummary};
pub use time::SimTime;
