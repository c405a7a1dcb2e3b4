//! Point-to-point links between endpoints and the switch.

use pulse_sim::{SerialResource, SimTime};

/// Link timing parameters. Every time charge a link makes is a pure
/// function of the message's byte count and these parameters: `tx`/`rx`
/// serialize exactly the bytes handed to them (no framing overhead).
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// One-way propagation incl. NIC processing on both ends of the hop.
    pub propagation: SimTime,
    /// Bandwidth in bits per second.
    pub bits_per_sec: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            // NIC tx + PHY + wire for one endpoint↔switch hop; calibrated so
            // one endpoint→switch→endpoint crossing plus switch pipeline
            // lands in the paper's observed 3.5–5 µs per node-crossing.
            propagation: SimTime::from_micros(1) + SimTime::from_nanos(500),
            bits_per_sec: 100_000_000_000,
        }
    }
}

/// A full-duplex endpoint↔switch link (independent tx/rx pipes).
///
/// # Examples
///
/// ```
/// use pulse_net::{Link, LinkConfig};
/// use pulse_sim::SimTime;
///
/// let mut link = Link::new(LinkConfig::default());
/// let arrive = link.tx(SimTime::ZERO, 1500);
/// assert!(arrive > SimTime::from_micros(1)); // propagation + serialization
/// ```
#[derive(Debug)]
pub struct Link {
    cfg: LinkConfig,
    tx: SerialResource,
    rx: SerialResource,
}

impl Link {
    /// Creates a link.
    pub fn new(cfg: LinkConfig) -> Link {
        Link {
            cfg,
            tx: SerialResource::new(cfg.bits_per_sec),
            rx: SerialResource::new(cfg.bits_per_sec),
        }
    }

    /// Sends `bytes` endpoint→switch starting at `now`; returns arrival time
    /// at the far end.
    pub fn tx(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.tx.acquire(now, bytes).end + self.cfg.propagation
    }

    /// Sends `bytes` switch→endpoint starting at `now`; returns arrival.
    pub fn rx(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.rx.acquire(now, bytes).end + self.cfg.propagation
    }

    /// Bytes sent endpoint→switch so far.
    pub fn tx_bytes(&self) -> u64 {
        self.tx.bytes_moved()
    }

    /// Bytes sent switch→endpoint so far.
    pub fn rx_bytes(&self) -> u64 {
        self.rx.bytes_moved()
    }

    /// Configured one-way propagation.
    pub fn propagation(&self) -> SimTime {
        self.cfg.propagation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_and_rx_are_independent_pipes() {
        let mut l = Link::new(LinkConfig {
            propagation: SimTime::from_nanos(100),
            bits_per_sec: 8_000_000_000, // 1 GB/s -> 1 ns/byte
        });
        let a = l.tx(SimTime::ZERO, 1000); // 1 us serialization
        let b = l.rx(SimTime::ZERO, 1000);
        assert_eq!(a, b, "duplex directions do not contend");
        assert_eq!(a, SimTime::from_micros(1) + SimTime::from_nanos(100));
        assert_eq!(l.tx_bytes(), 1000);
        assert_eq!(l.rx_bytes(), 1000);
    }

    #[test]
    fn same_direction_serializes() {
        let mut l = Link::new(LinkConfig {
            propagation: SimTime::ZERO,
            bits_per_sec: 8_000_000_000,
        });
        let a = l.tx(SimTime::ZERO, 1000);
        let b = l.tx(SimTime::ZERO, 1000);
        assert_eq!(b - a, SimTime::from_micros(1));
    }

    #[test]
    fn charge_is_a_pure_function_of_bytes() {
        // No flat magic-number costs: the occupancy a link charges equals
        // serialization(bytes) exactly, for any byte count, in both
        // directions.
        let cfg = LinkConfig {
            propagation: SimTime::from_nanos(100),
            bits_per_sec: 40_000_000_000,
        };
        let mut l = Link::new(cfg);
        let mut now = SimTime::ZERO;
        for bytes in [1u64, 64, 1500, 9000, 1 << 20] {
            let arrive = l.tx(now, bytes);
            let expect = now + SimTime::serialization(bytes, cfg.bits_per_sec) + cfg.propagation;
            assert_eq!(arrive, expect, "bytes {bytes}");
            now = arrive; // keep the pipe idle between probes
        }
        let cfg = LinkConfig::default();
        let mut l = Link::new(cfg);
        let arrive = l.rx(SimTime::ZERO, 4096);
        assert_eq!(
            arrive,
            SimTime::serialization(4096, cfg.bits_per_sec) + cfg.propagation
        );
    }

    #[test]
    fn back_to_back_sends_serialize_with_byte_spacing() {
        // Property (SplitMix64 case loop): N messages pushed through one
        // direction of a link depart at strictly increasing times, spaced at
        // least their own serialization time apart, and the whole schedule
        // is a deterministic function of the seed.
        use pulse_sim::SplitMix64;

        const BPS: u64 = 25_000_000_000;
        fn run(seed: u64) -> (Vec<u64>, Vec<SimTime>) {
            let mut rng = SplitMix64::new(seed);
            let mut l = Link::new(LinkConfig {
                propagation: SimTime::from_nanos(250),
                bits_per_sec: BPS,
            });
            let mut sizes = Vec::new();
            let mut arrivals = Vec::new();
            for _ in 0..200 {
                let at = SimTime::from_nanos(rng.next_below(2_000));
                let bytes = 1 + rng.next_below(16_384);
                sizes.push(bytes);
                arrivals.push(l.tx(at, bytes));
            }
            (sizes, arrivals)
        }

        for seed in [1u64, 42, 0xdead_beef] {
            let (sizes, arrivals) = run(seed);
            for (i, win) in arrivals.windows(2).enumerate() {
                let ser = SimTime::serialization(sizes[i + 1], BPS);
                assert!(win[1] > win[0], "seed {seed} case {i}: not increasing");
                assert!(
                    win[1] - win[0] >= ser,
                    "seed {seed} case {i}: spacing below bytes/bandwidth"
                );
            }
            // Idempotent across re-runs with the same seed.
            assert_eq!(arrivals, run(seed).1, "seed {seed} not deterministic");
        }
    }

    #[test]
    fn default_hop_is_in_band() {
        // One-way hop should be ~1.5 us so that a memory-node crossing
        // (mem -> switch -> mem, two hops + pipeline) is 3.5-5 us.
        let l = Link::new(LinkConfig::default());
        let us = l.propagation().as_micros_f64();
        assert!((1.0..2.5).contains(&us), "propagation {us} us");
    }
}
