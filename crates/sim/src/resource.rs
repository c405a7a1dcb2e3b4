//! Shared-resource contention models.
//!
//! Two primitives cover every piece of contended hardware in the rack:
//!
//! * [`SerialResource`] — a pipe that serves one transfer at a time at a fixed
//!   byte rate (a network link, a DRAM channel, a switch port). Requests are
//!   served in arrival order; the model tracks the earliest time the pipe is
//!   free again.
//! * [`ServerPool`] — `k` identical servers with deterministic service times
//!   (logic pipelines, memory pipelines, RPC worker cores).

use crate::time::SimTime;

/// A serially-shared pipe with a fixed bandwidth.
///
/// # Examples
///
/// ```
/// use pulse_sim::{SerialResource, SimTime};
///
/// // A 100 Gbps link.
/// let mut link = SerialResource::new(100_000_000_000);
/// let a = link.acquire(SimTime::ZERO, 1250); // 100 ns of wire time
/// let b = link.acquire(SimTime::ZERO, 1250); // queued behind `a`
/// assert_eq!(a.start, SimTime::ZERO);
/// assert_eq!(b.start, a.end);
/// ```
#[derive(Debug, Clone)]
pub struct SerialResource {
    bits_per_sec: u64,
    next_free: SimTime,
    busy_time: SimTime,
    bytes_moved: u64,
}

/// The time window a [`SerialResource`] granted to one transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service begins (>= request time).
    pub start: SimTime,
    /// When service completes.
    pub end: SimTime,
}

impl Grant {
    /// Time spent waiting before service started.
    pub fn queueing(&self, requested_at: SimTime) -> SimTime {
        self.start.saturating_sub(requested_at)
    }
}

impl SerialResource {
    /// Creates a pipe with the given bandwidth in bits per second.
    pub fn new(bits_per_sec: u64) -> Self {
        SerialResource {
            bits_per_sec,
            next_free: SimTime::ZERO,
            busy_time: SimTime::ZERO,
            bytes_moved: 0,
        }
    }

    /// Reserves the pipe for `bytes` starting no earlier than `now`.
    pub fn acquire(&mut self, now: SimTime, bytes: u64) -> Grant {
        let start = now.max(self.next_free);
        let dur = SimTime::serialization(bytes, self.bits_per_sec);
        let end = start + dur;
        self.next_free = end;
        self.busy_time += dur;
        self.bytes_moved += bytes;
        Grant { start, end }
    }

    /// Reserves the pipe for a fixed occupancy rather than a byte count.
    pub fn acquire_for(&mut self, now: SimTime, dur: SimTime) -> Grant {
        let start = now.max(self.next_free);
        let end = start + dur;
        self.next_free = end;
        self.busy_time += dur;
        Grant { start, end }
    }

    /// Earliest instant the pipe is idle.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Total bytes that have been granted.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Fraction of `[0, horizon]` the pipe spent busy.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.demand(horizon).min(1.0)
    }

    /// Busy time booked so far over `horizon`, not capped at 1.0: work
    /// booked past the horizon (a backlog) reads above 1.0. 0.0 for an
    /// empty horizon.
    pub fn demand(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.busy_time.as_picos() as f64 / horizon.as_picos() as f64
    }

    /// Configured bandwidth in bits per second.
    pub fn bits_per_sec(&self) -> u64 {
        self.bits_per_sec
    }
}

/// A pool of `k` identical servers with deterministic service times.
///
/// `acquire` picks the server that frees up earliest — i.e. a central queue
/// feeding identical units, which matches how the pulse scheduler assigns
/// iterator steps to pipelines ("signals *one of* the memory pipelines").
///
/// # Examples
///
/// ```
/// use pulse_sim::{ServerPool, SimTime};
///
/// let mut pipes = ServerPool::new(2);
/// let t = SimTime::from_nanos(100);
/// let a = pipes.acquire(SimTime::ZERO, t);
/// let b = pipes.acquire(SimTime::ZERO, t);
/// let c = pipes.acquire(SimTime::ZERO, t);
/// assert_eq!(a.grant.start, SimTime::ZERO);
/// assert_eq!(b.grant.start, SimTime::ZERO); // second pipeline
/// assert_eq!(c.grant.start, t);             // queued behind the earliest
/// ```
#[derive(Debug, Clone)]
pub struct ServerPool {
    next_free: Vec<SimTime>,
    busy_time: SimTime,
    served: u64,
}

/// The outcome of a [`ServerPool::acquire`]: which server and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolGrant {
    /// Index of the server that takes the job.
    pub server: usize,
    /// Service window.
    pub grant: Grant,
}

impl ServerPool {
    /// Creates a pool of `k` servers.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "a server pool needs at least one server");
        ServerPool {
            next_free: vec![SimTime::ZERO; k],
            busy_time: SimTime::ZERO,
            served: 0,
        }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.next_free.len()
    }

    /// Always false; pools have at least one server.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Assigns a job of length `service` to the earliest-free server.
    pub fn acquire(&mut self, now: SimTime, service: SimTime) -> PoolGrant {
        let (server, &free) = self
            .next_free
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("pool is non-empty");
        let start = now.max(free);
        let end = start + service;
        self.next_free[server] = end;
        self.busy_time += service;
        self.served += 1;
        PoolGrant {
            server,
            grant: Grant { start, end },
        }
    }

    /// Earliest time any server is free.
    pub fn earliest_free(&self) -> SimTime {
        *self.next_free.iter().min().expect("pool is non-empty")
    }

    /// Number of jobs served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Mean per-server utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        let cap = horizon.as_picos() as f64 * self.next_free.len() as f64;
        (self.busy_time.as_picos() as f64 / cap).min(1.0)
    }
}

/// Configuration of a CPU node's request-dispatch engine: the software
/// path that issues packets toward the rack.
///
/// * `occupancy` — how long one dispatch context stays busy per issued
///   packet (request marshalling, doorbell, issue-queue bookkeeping). This
///   is *service time on a contended resource*: under load, packets queue
///   behind each other and the queueing delay accumulates — the CPU-side
///   saturation the extended evaluation attributes the RPC baseline's
///   collapse to. `SimTime::ZERO` disables contention entirely (the engine
///   is a free pass-through), reproducing the flat-latency-adder model
///   bit-for-bit.
/// * `contexts` — how many dispatch contexts (cores / issue queues) the
///   node runs in parallel. The engine's saturation rate is
///   `contexts / occupancy` packets per second.
///
/// Any flat per-packet software *latency* (pipeline depth rather than
/// occupancy) is charged by the caller on top of the engine's grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchConfig {
    /// Serial engine occupancy per dispatched packet.
    pub occupancy: SimTime,
    /// Parallel dispatch contexts per CPU node.
    pub contexts: usize,
}

impl Default for DispatchConfig {
    /// No contention: zero occupancy on a single context.
    fn default() -> Self {
        DispatchConfig {
            occupancy: SimTime::ZERO,
            contexts: 1,
        }
    }
}

impl DispatchConfig {
    /// A contended engine: each packet holds one of `contexts` contexts
    /// busy for `occupancy`.
    pub fn contended(occupancy: SimTime, contexts: usize) -> DispatchConfig {
        DispatchConfig {
            occupancy,
            contexts,
        }
    }

    /// Whether dispatches actually contend (nonzero occupancy).
    pub fn is_contended(&self) -> bool {
        self.occupancy > SimTime::ZERO
    }

    /// Packets per second the engine can sustain (`f64::INFINITY` when
    /// uncontended).
    pub fn saturation_rate(&self) -> f64 {
        if !self.is_contended() {
            return f64::INFINITY;
        }
        self.contexts.max(1) as f64 / self.occupancy.as_secs_f64()
    }
}

/// The busy-until/FIFO resource a [`DispatchConfig`] describes: one CPU
/// node's dispatch engine. Bookings must be issued in non-decreasing time
/// order (event-loop order), like every resource in this module.
///
/// # Examples
///
/// ```
/// use pulse_sim::{CpuDispatch, DispatchConfig, SimTime};
///
/// let occ = SimTime::from_nanos(500);
/// let mut engine = CpuDispatch::new(DispatchConfig::contended(occ, 1));
/// let a = engine.book(SimTime::ZERO);
/// let b = engine.book(SimTime::ZERO); // queues behind `a`
/// assert_eq!(a, occ);
/// assert_eq!(b, occ * 2);
///
/// // Zero occupancy is a free pass-through.
/// let mut free = CpuDispatch::new(DispatchConfig::default());
/// assert_eq!(free.book(SimTime::from_micros(3)), SimTime::from_micros(3));
/// ```
#[derive(Debug, Clone)]
pub struct CpuDispatch {
    cfg: DispatchConfig,
    /// Absent when the engine is uncontended (zero occupancy): booking is
    /// then a free pass-through and leaves no state behind, which is what
    /// keeps `occupancy: 0` traces bit-identical to the flat-adder model.
    pool: Option<ServerPool>,
    ops: u64,
}

impl CpuDispatch {
    /// Creates the engine. `contexts == 0` is treated as 1.
    pub fn new(cfg: DispatchConfig) -> CpuDispatch {
        CpuDispatch {
            cfg,
            pool: cfg
                .is_contended()
                .then(|| ServerPool::new(cfg.contexts.max(1))),
            ops: 0,
        }
    }

    /// Books one dispatch operation at `now` and returns when the packet
    /// leaves the engine: after queueing for a free context plus the
    /// configured occupancy, or immediately (`now`) when uncontended.
    pub fn book(&mut self, now: SimTime) -> SimTime {
        self.book_grant(now).end
    }

    /// [`Self::book`] exposing the full service window: `start` is when a
    /// context came free (so `start - now` is the queueing delay tracing
    /// attributes to `Queued`) and `end` is when the packet leaves.
    /// Uncontended engines return the degenerate `[now, now]` grant —
    /// identical state and arithmetic to [`Self::book`], so callers that
    /// only read `end` stay bit-identical.
    pub fn book_grant(&mut self, now: SimTime) -> Grant {
        self.ops += 1;
        match &mut self.pool {
            Some(pool) => pool.acquire(now, self.cfg.occupancy).grant,
            None => Grant {
                start: now,
                end: now,
            },
        }
    }

    /// Dispatch operations booked so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The configuration this engine runs.
    pub fn config(&self) -> DispatchConfig {
        self.cfg
    }

    /// Mean per-context utilization over `[0, horizon]` (0 when
    /// uncontended — a free engine is never busy).
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.pool.as_ref().map_or(0.0, |p| p.utilization(horizon))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_resource_serializes_transfers() {
        let mut r = SerialResource::new(8_000_000_000_000); // 1 TB/s => 1 ns per 1000 B
        let g1 = r.acquire(SimTime::ZERO, 1000);
        let g2 = r.acquire(SimTime::ZERO, 1000);
        assert_eq!(g1.end, SimTime::from_nanos(1));
        assert_eq!(g2.start, g1.end);
        assert_eq!(g2.queueing(SimTime::ZERO), SimTime::from_nanos(1));
        assert_eq!(r.bytes_moved(), 2000);
    }

    #[test]
    fn serial_resource_idles_between_requests() {
        let mut r = SerialResource::new(8_000_000_000_000);
        let _ = r.acquire(SimTime::ZERO, 1000);
        // Arriving long after the pipe went idle: no queueing.
        let g = r.acquire(SimTime::from_micros(5), 1000);
        assert_eq!(g.start, SimTime::from_micros(5));
        assert_eq!(g.queueing(SimTime::from_micros(5)), SimTime::ZERO);
    }

    #[test]
    fn serial_resource_utilization() {
        let mut r = SerialResource::new(8_000_000_000_000);
        let _ = r.acquire(SimTime::ZERO, 1000); // busy 1 ns
        let u = r.utilization(SimTime::from_nanos(4));
        assert!((u - 0.25).abs() < 1e-9, "{u}");
        assert_eq!(r.utilization(SimTime::ZERO), 0.0);
        // A horizon shorter than the booked work: demand reads the
        // backlog, utilization stops at 1.0.
        let half = SimTime::from_picos(500);
        assert!((r.demand(half) - 2.0).abs() < 1e-9);
        assert_eq!(r.utilization(half), 1.0);
        assert_eq!(r.demand(SimTime::ZERO), 0.0);
    }

    #[test]
    fn pool_spreads_then_queues() {
        let mut p = ServerPool::new(3);
        let svc = SimTime::from_nanos(10);
        let servers: Vec<usize> = (0..6)
            .map(|_| p.acquire(SimTime::ZERO, svc).server)
            .collect();
        // First three land on distinct servers; the rest reuse them.
        let mut first: Vec<usize> = servers[..3].to_vec();
        first.sort_unstable();
        assert_eq!(first, vec![0, 1, 2]);
        assert_eq!(p.served(), 6);
        // All six jobs finish by 20 ns (two rounds of 10 ns on 3 servers).
        assert_eq!(p.earliest_free(), SimTime::from_nanos(20));
    }

    #[test]
    fn pool_utilization_full_when_saturated() {
        let mut p = ServerPool::new(2);
        for _ in 0..4 {
            p.acquire(SimTime::ZERO, SimTime::from_nanos(5));
        }
        let u = p.utilization(SimTime::from_nanos(10));
        assert!((u - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_panics() {
        let _ = ServerPool::new(0);
    }

    #[test]
    fn dispatch_queues_past_saturation() {
        // 2 contexts, 100 ns each => 20 Mops/s. Issue 6 ops at t=0: the
        // last pair waits two full service rounds.
        let occ = SimTime::from_nanos(100);
        let mut d = CpuDispatch::new(DispatchConfig::contended(occ, 2));
        let ends: Vec<SimTime> = (0..6).map(|_| d.book(SimTime::ZERO)).collect();
        assert_eq!(ends[0], occ);
        assert_eq!(ends[1], occ);
        assert_eq!(ends[4], occ * 3);
        assert_eq!(ends[5], occ * 3);
        assert_eq!(d.ops(), 6);
        assert!((d.utilization(occ * 3) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uncontended_dispatch_is_free_and_stateless() {
        let mut d = CpuDispatch::new(DispatchConfig::default());
        assert!(!d.config().is_contended());
        assert_eq!(d.config().saturation_rate(), f64::INFINITY);
        for i in 0..4u64 {
            let t = SimTime::from_nanos(10 * i);
            assert_eq!(d.book(t), t, "pass-through must not queue");
        }
        assert_eq!(d.utilization(SimTime::from_micros(1)), 0.0);
        assert_eq!(d.ops(), 4);
    }

    #[test]
    fn book_grant_exposes_queueing_and_matches_book() {
        let occ = SimTime::from_nanos(100);
        let mut d = CpuDispatch::new(DispatchConfig::contended(occ, 1));
        let first = d.book_grant(SimTime::ZERO);
        assert_eq!((first.start, first.end), (SimTime::ZERO, occ));
        // The second booking queues: its grant exposes the wait.
        let second = d.book_grant(SimTime::ZERO);
        assert_eq!(second.start, occ);
        assert_eq!(second.end, occ * 2);
        assert_eq!(second.queueing(SimTime::ZERO), occ);
        // Uncontended: a degenerate [now, now] grant, no queueing.
        let mut free = CpuDispatch::new(DispatchConfig::default());
        let g = free.book_grant(SimTime::from_micros(3));
        assert_eq!(
            (g.start, g.end),
            (SimTime::from_micros(3), SimTime::from_micros(3))
        );
        assert_eq!(free.ops(), 1);
    }

    #[test]
    fn dispatch_saturation_rate_matches_contexts_over_occupancy() {
        let cfg = DispatchConfig::contended(SimTime::from_micros(1), 4);
        assert!((cfg.saturation_rate() - 4_000_000.0).abs() < 1e-6);
        // contexts == 0 is clamped to one context.
        let mut d = CpuDispatch::new(DispatchConfig::contended(SimTime::from_nanos(10), 0));
        let a = d.book(SimTime::ZERO);
        let b = d.book(SimTime::ZERO);
        assert_eq!(b, a + SimTime::from_nanos(10));
    }
}
