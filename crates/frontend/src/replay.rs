//! Admission loops for the swap-cache replay.
//!
//! The swap baseline prices its request stream through a
//! `serve(idx, ready) -> (end, traversal_pure, total_pure)` closure; the
//! admission discipline around it comes from here:
//!
//! * [`closed_loop`] — `concurrency` clients issue in order, each starting
//!   its next request at the previous one's completion;
//! * [`open_loop`] — request `i` *arrives* at `arrivals[i]` regardless of
//!   completions and waits FIFO for one of `concurrency` clients, so its
//!   latency includes queueing delay — the quantity latency-vs-load sweeps
//!   plot;
//! * [`drive`] — dispatches between them on the presence of an arrival
//!   schedule.

use pulse_sim::{LatencyHistogram, LatencySummary, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Closed-loop driver: `concurrency` clients issue `requests` in order;
/// `serve(idx, start) -> (end, traversal_pure, total_pure)` prices one
/// request. The *pure* times exclude cross-request queueing and feed the
/// Fig. 2(a) execution-time split; the latency histogram uses wall time.
///
/// Returns `(latency, makespan, traversal_total, busy_total)`.
pub fn closed_loop(
    total: usize,
    concurrency: usize,
    mut serve: impl FnMut(usize, SimTime) -> (SimTime, SimTime, SimTime),
) -> (LatencySummary, SimTime, SimTime, SimTime) {
    assert!(concurrency > 0 && total > 0);
    let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = (0..concurrency.min(total))
        .map(|c| Reverse((SimTime::ZERO, c)))
        .collect();
    let mut next_idx = concurrency.min(total);
    let mut hist = LatencyHistogram::new();
    let mut makespan = SimTime::ZERO;
    let mut traversal_total = SimTime::ZERO;
    let mut busy_total = SimTime::ZERO;
    let mut served = 0usize;
    let mut issued: Vec<usize> = (0..concurrency.min(total)).collect();
    while let Some(Reverse((ready, client))) = heap.pop() {
        let idx = issued[client];
        let (end, traversal, busy) = serve(idx, ready);
        hist.record(end - ready);
        busy_total += busy;
        traversal_total += traversal;
        makespan = makespan.max(end);
        served += 1;
        if next_idx < total {
            issued[client] = next_idx;
            next_idx += 1;
            heap.push(Reverse((end, client)));
        }
        if served == total {
            break;
        }
    }
    (hist.summary(), makespan, traversal_total, busy_total)
}

/// Open-loop driver: request `i` *arrives* at `arrivals[i]` regardless of
/// completions, waits FIFO for one of `concurrency` clients, and its
/// latency is measured from arrival — so it includes queueing delay, the
/// quantity latency-vs-load sweeps plot.
///
/// Admission order is arrival order; each ready time is
/// `max(arrival, earliest client free time)`, both non-decreasing, so the
/// resource bookings inside `serve` stay time-ordered exactly as in
/// [`closed_loop`].
pub fn open_loop(
    arrivals: &[SimTime],
    concurrency: usize,
    mut serve: impl FnMut(usize, SimTime) -> (SimTime, SimTime, SimTime),
) -> (LatencySummary, SimTime, SimTime, SimTime) {
    assert!(concurrency > 0 && !arrivals.is_empty());
    debug_assert!(
        arrivals.windows(2).all(|w| w[0] <= w[1]),
        "arrival times must be sorted"
    );
    let mut free: BinaryHeap<Reverse<SimTime>> =
        (0..concurrency).map(|_| Reverse(SimTime::ZERO)).collect();
    let mut hist = LatencyHistogram::new();
    let mut makespan = SimTime::ZERO;
    let mut traversal_total = SimTime::ZERO;
    let mut busy_total = SimTime::ZERO;
    for (idx, &arrive) in arrivals.iter().enumerate() {
        let Reverse(free_at) = free.pop().expect("concurrency > 0");
        let ready = arrive.max(free_at);
        let (end, traversal, busy) = serve(idx, ready);
        hist.record(end - arrive);
        busy_total += busy;
        traversal_total += traversal;
        makespan = makespan.max(end);
        free.push(Reverse(end));
    }
    (hist.summary(), makespan, traversal_total, busy_total)
}

/// Dispatches to [`closed_loop`] (no arrival schedule) or [`open_loop`].
pub fn drive(
    total: usize,
    concurrency: usize,
    arrivals: Option<&[SimTime]>,
    serve: impl FnMut(usize, SimTime) -> (SimTime, SimTime, SimTime),
) -> (LatencySummary, SimTime, SimTime, SimTime) {
    match arrivals {
        None => closed_loop(total, concurrency, serve),
        Some(times) => {
            assert_eq!(times.len(), total, "one arrival time per request");
            open_loop(times, concurrency, serve)
        }
    }
}

/// Completions per second: over the makespan for closed loop, over the
/// first-arrival-to-last-completion span for open loop.
pub fn measured_rate(completed: usize, makespan: SimTime, arrivals: Option<&[SimTime]>) -> f64 {
    let span = match arrivals {
        Some(times) if !times.is_empty() => makespan.saturating_sub(times[0]),
        _ => makespan,
    };
    completed as f64 / span.as_secs_f64().max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_pipelines_across_clients() {
        let svc = SimTime::from_micros(10);
        let (lat, makespan, _, busy) = closed_loop(8, 2, |_idx, ready| (ready + svc, svc, svc));
        assert_eq!(lat.mean, svc);
        // 8 requests over 2 clients at 10 us each: 4 rounds.
        assert_eq!(makespan, svc * 4);
        assert_eq!(busy, svc * 8);
    }

    #[test]
    fn open_loop_measures_from_arrival() {
        let svc = SimTime::from_micros(10);
        // Two arrivals at t=0 onto one client: the second queues 10 us.
        let arrivals = vec![SimTime::ZERO, SimTime::ZERO];
        let (lat, makespan, ..) = open_loop(&arrivals, 1, |_idx, ready| (ready + svc, svc, svc));
        assert_eq!(lat.max, svc * 2, "queued request pays the wait");
        assert_eq!(makespan, svc * 2);
    }

    #[test]
    fn measured_rate_spans() {
        let mk = SimTime::from_micros(100);
        let closed = measured_rate(10, mk, None);
        assert!((closed - 100_000.0).abs() < 1.0);
        let arrivals = vec![SimTime::from_micros(50)];
        let open = measured_rate(10, mk, Some(&arrivals));
        assert!(
            (open - 200_000.0).abs() < 1.0,
            "open loop spans from first arrival"
        );
    }
}
