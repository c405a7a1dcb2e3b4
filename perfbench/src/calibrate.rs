//! Machine-speed calibration for host-time metrics.
//!
//! The host this benchmark runs on is shared: its speed drifts by tens of
//! percent within seconds, for every program on it alike. A fixed
//! reference workload — this module's own code, which no change to the
//! repository can speed up or slow down — is timed right before every
//! timed pass, and each host-time metric is reported at nominal machine
//! speed. Machine drift then cancels; a change to the simulator does not.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Host seconds one reference round takes at nominal machine speed (about
/// its time on an idle 2-vCPU x86-64 host).
pub const NOMINAL_ROUND_S: f64 = 0.03;

/// Slots of the pointer-chase ring (4 MiB of `u32`, past the L2).
const RING: usize = 1 << 20;
/// Steps per round of each reference kernel.
const STEPS: u64 = 80_000;
/// Live entries the heap and map kernels hold.
const LIVE: usize = 16_384;

fn ring() -> &'static [u32] {
    static RING_CELL: OnceLock<Vec<u32>> = OnceLock::new();
    RING_CELL.get_or_init(|| {
        // One random cycle through every slot (Sattolo's algorithm).
        let mut next: Vec<u32> = (0..RING as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..RING).rev() {
            x = lcg(x);
            next.swap(i, (x >> 33) as usize % i);
        }
        next
    })
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// Times one round of the reference — a dependent pointer chase, a binary
/// heap and a hash map at steady size, and small allocations: the shapes
/// the simulator's hot loops are made of — in host seconds.
pub fn reference_round_s() -> f64 {
    let ring = ring();
    let t0 = Instant::now();
    let mut at = 0u32;
    for _ in 0..STEPS {
        at = ring[at as usize];
    }
    let mut heap = BinaryHeap::with_capacity(LIVE + 1);
    let mut map: HashMap<u64, Vec<u8>> = HashMap::with_capacity(LIVE + 1);
    let mut x = u64::from(at) | 1;
    for i in 0..STEPS {
        x = lcg(x);
        heap.push((x >> 16, [i; 6]));
        map.insert(x >> 40, vec![0u8; 32 + (x % 64) as usize]);
        if heap.len() > LIVE {
            black_box(heap.pop());
            let victim = lcg(x ^ i) >> 40;
            black_box(map.remove(&victim));
        }
    }
    black_box((at, heap.len(), map.len()));
    t0.elapsed().as_secs_f64()
}

/// How much slower than nominal the machine runs right now: a host rate
/// times this factor (a host duration divided by it) is its value at
/// nominal machine speed.
pub fn slowdown() -> f64 {
    reference_round_s() / NOMINAL_ROUND_S
}
