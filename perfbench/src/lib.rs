//! The repository benchmark: simulator speed and simulated SLO metrics on
//! four fixed-rate workloads, with per-layer numbers. See `README.md` in
//! this directory for every metric's unit, direction, and time base.

pub mod calibrate;
pub mod knee;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod workload;
