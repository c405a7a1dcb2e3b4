//! Differential test of `TraversalCache` against a reference model.
//!
//! `TraversalCache` keeps its lines inline in one slot array threaded as
//! the LRU list. The reference below is the plainest reading of the same
//! semantics: an `LruSet` of line tags beside a `HashMap` of heap-allocated
//! line snapshots, where aging a line out drops its snapshot but leaves its
//! tag (and recency) in the `LruSet`. SplitMix64 case loops drive both
//! with fills, probes, single-line and line-straddling reads, explicit
//! invalidations, memory writes that bump granule versions, and permission
//! flips that make refills fail; capacities of 2–16 lines keep eviction
//! busy. After every operation the two must agree on the return value, the
//! bytes read, `CacheStats` and `resident_lines`.
//!
//! A second loop checks that `prefix_walk`, which reuses one speculative
//! state per walk, matches a walk that clones the committed state before
//! every hop.

use pulse_frontend::{
    prefix_walk, CacheBus, CacheConfig, CacheStats, LruSet, TraversalCache, WalkOutcome,
};
use pulse_isa::{
    Cond, Interpreter, IterOutcome, IterState, MemBus, Operand, Place, Program, ProgramBuilder,
    Width,
};
use pulse_mem::{ClusterMemory, Perms};
use pulse_sim::SplitMix64;
use std::collections::HashMap;

const CASES: usize = 256;
const OPS: usize = 300;
/// An always-readable extent, then one whose permissions flip.
const STABLE: u64 = 0x1000;
const FLIPPY: u64 = 0x1400;
const EXTENT_LEN: u64 = 0x400;
const LINE: u64 = CacheConfig::LINE_BYTES;

// ----------------------------------------------------------- reference

struct RefLine {
    data: Vec<u8>,
    version: u64,
}

/// Tags in an `LruSet`, snapshots in a `HashMap`.
struct RefCache {
    lru: LruSet,
    lines: HashMap<u64, RefLine>,
    stats: CacheStats,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> RefCache {
        RefCache {
            lru: LruSet::new(cfg.lines()),
            lines: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    fn keys(addr: u64, len: u64) -> std::ops::RangeInclusive<u64> {
        addr / LINE..=(addr + len.max(1) - 1) / LINE
    }

    fn probe_range(&mut self, addr: u64, len: u64, mem: &ClusterMemory) -> bool {
        for k in Self::keys(addr, len) {
            match self.lines.get(&k) {
                None => return false,
                Some(line) => {
                    if mem.version_of(k * LINE, LINE) > line.version {
                        self.lines.remove(&k);
                        self.stats.invalidations += 1;
                        return false;
                    }
                }
            }
        }
        for k in Self::keys(addr, len) {
            self.lru.insert_evicting(k);
        }
        true
    }

    fn try_read(&mut self, addr: u64, buf: &mut [u8], mem: &ClusterMemory) -> bool {
        if !self.probe_range(addr, buf.len() as u64, mem) {
            return false;
        }
        for (i, b) in buf.iter_mut().enumerate() {
            let a = addr + i as u64;
            *b = self.lines[&(a / LINE)].data[(a % LINE) as usize];
        }
        true
    }

    fn fill_range(&mut self, addr: u64, len: u64, mem: &mut ClusterMemory) -> (u64, u64) {
        let epoch = mem.write_epoch();
        let (mut new_lines, mut new_bytes) = (0, 0);
        for key in Self::keys(addr, len) {
            if let Some(line) = self.lines.get(&key) {
                if mem.version_of(key * LINE, LINE) <= line.version {
                    self.lru.insert_evicting(key);
                    continue;
                }
                self.stats.invalidations += 1;
            }
            let mut data = vec![0u8; LINE as usize];
            if mem.read(key * LINE, &mut data).is_err() {
                continue;
            }
            if let Some(victim) = self.lru.insert_evicting(key) {
                self.lines.remove(&victim);
            }
            self.lines.insert(
                key,
                RefLine {
                    data,
                    version: epoch,
                },
            );
            self.stats.fills += 1;
            new_lines += 1;
            new_bytes += LINE;
        }
        (new_lines, new_bytes)
    }

    fn invalidate_range(&mut self, addr: u64, len: u64) {
        for key in Self::keys(addr, len) {
            if self.lines.remove(&key).is_some() {
                self.stats.invalidations += 1;
            }
        }
    }
}

// ----------------------------------------------------------- generators

fn memory() -> ClusterMemory {
    let mut mem = ClusterMemory::new(1);
    for start in [STABLE, FLIPPY] {
        mem.add_extent(start, EXTENT_LEN, 0, Perms::RW).unwrap();
    }
    for i in 0..2 * EXTENT_LEN / 8 {
        mem.write_word(STABLE + i * 8, i.wrapping_mul(0x0101_0101), 8)
            .unwrap();
    }
    mem
}

/// An address in or just around the two extents (a line below them is
/// unmapped), biased toward a small hot set so lines recur.
fn address(rng: &mut SplitMix64) -> u64 {
    if rng.chance(0.6) {
        STABLE + rng.next_below(6) * LINE + rng.next_below(LINE)
    } else {
        STABLE - LINE + rng.next_below(2 * EXTENT_LEN + 2 * LINE)
    }
}

fn length(rng: &mut SplitMix64) -> u64 {
    match rng.next_below(4) {
        0 => 0,
        1 | 2 => 1 + rng.next_below(24),
        _ => 1 + rng.next_below(3 * LINE),
    }
}

// ----------------------------------------------------------- cache ops

#[test]
fn cache_matches_reference_model() {
    let mut rng = SplitMix64::new(0xCAC4_E018);
    let mut seen = [0usize; 6];
    for case in 0..CASES {
        let lines = 2 + rng.next_below(15);
        let cfg = CacheConfig::sized(lines * LINE);
        let mut mem = memory();
        let mut cache = TraversalCache::new(cfg);
        let mut reference = RefCache::new(cfg);
        for op in 0..OPS {
            let what = rng.next_below(7) as usize;
            let (addr, len) = (address(&mut rng), length(&mut rng));
            let ctx = format!("case {case} op {op} ({what}) addr {addr:#x} len {len}");
            match what {
                0 | 1 => {
                    let got = cache.fill_range(addr, len, &mut mem);
                    let want = reference.fill_range(addr, len, &mut mem);
                    assert_eq!(got, want, "fill_range, {ctx}");
                    seen[0] += (got.0 > 0) as usize;
                }
                2 | 3 => {
                    let mut got = vec![0xAA; len as usize];
                    let mut want = vec![0x55; len as usize];
                    let hit = cache.try_read(addr, &mut got, &mem);
                    assert_eq!(hit, reference.try_read(addr, &mut want, &mem), "{ctx}");
                    if hit {
                        assert_eq!(got, want, "bytes read, {ctx}");
                        seen[1] += 1;
                        seen[2] += (addr / LINE != (addr + len.max(1) - 1) / LINE) as usize;
                    }
                }
                4 => {
                    let hit = cache.probe_range(addr, len, &mem);
                    assert_eq!(hit, reference.probe_range(addr, len, &mem), "{ctx}");
                    seen[3] += hit as usize;
                }
                5 => {
                    cache.invalidate_range(addr, len);
                    reference.invalidate_range(addr, len);
                }
                _ => {
                    if rng.chance(0.2) {
                        // Flip the second extent between readable and
                        // write-only: writes still bump versions while
                        // refills of its stale lines fail.
                        let readable = rng.chance(0.5);
                        let perms = if readable { Perms::RW } else { Perms::WRITE };
                        mem.set_perms(FLIPPY, perms);
                        seen[4] += !readable as usize;
                    } else {
                        let at = (STABLE + rng.next_below(2 * EXTENT_LEN)) & !7;
                        mem.write_word(at, rng.next_u64(), 8).unwrap();
                        seen[5] += 1;
                    }
                }
            }
            assert_eq!(cache.stats(), reference.stats, "stats, {ctx}");
            assert_eq!(
                cache.resident_lines(),
                reference.lines.len(),
                "resident lines, {ctx}"
            );
        }
    }
    for (n, what) in seen.iter().zip([
        "fills",
        "read hits",
        "straddling read hits",
        "probe hits",
        "write-only flips",
        "writes",
    ]) {
        assert!(*n >= 100, "only {n} {what} over {CASES} cases");
    }
}

/// Dead tags hold their slots: a line aged out by a write still counts
/// against capacity, so the next fill evicts the oldest tag instead of
/// taking the dead slot.
#[test]
fn aged_out_lines_keep_their_lru_slot() {
    let mut mem = memory();
    let mut cache = TraversalCache::new(CacheConfig::sized(2 * LINE));
    cache.fill_range(STABLE, 1, &mut mem);
    cache.fill_range(STABLE + LINE, 1, &mut mem);
    mem.write_word(STABLE + LINE, 7, 8).unwrap();
    assert!(!cache.probe_range(STABLE + LINE, 1, &mem), "stale line");
    assert_eq!(cache.resident_lines(), 1);
    // The dead tag of line 1 is the most recent, so line 0 is the victim.
    cache.fill_range(STABLE + 2 * LINE, 1, &mut mem);
    assert!(!cache.probe_range(STABLE, 1, &mem));
    assert_eq!(cache.resident_lines(), 1);
    // Refilling the dead tag reuses its slot and evicts nothing.
    assert_eq!(cache.fill_range(STABLE + LINE, 1, &mut mem), (1, LINE));
    assert!(cache.probe_range(STABLE + 2 * LINE, 1, &mem));
    assert_eq!(cache.resident_lines(), 2);
}

// ----------------------------------------------------------- prefix walk

const NODES: u64 = 24;
const NODE_BYTES: u64 = 24;

/// Sums node values into `sp[8]`, counts hops in `sp[16]`, and loads the
/// next node's key into `sp[24]` when the value is odd — an explicit
/// access after scratch writes, so a fault can abort a half-run hop.
/// Returns 0 on finding `sp[0]`, 1 at a null `next`.
fn summing_find() -> Program {
    let mut b = ProgramBuilder::new("sum-find", NODE_BYTES as u32, 32);
    let even = b.label();
    let miss = b.label();
    let absent = b.label();
    b.add(Place::sp_u64(8), Operand::sp_u64(8), Operand::node_u64(8));
    b.add(Place::sp_u64(16), Operand::sp_u64(16), Operand::Imm(1));
    b.cmp_jump(Cond::Eq, Operand::node_u64(16), Operand::Imm(0), even);
    b.alu(
        pulse_isa::AluOp::And,
        Place::sp_u64(24),
        Operand::node_u64(8),
        Operand::Imm(1),
    );
    b.cmp_jump(Cond::Eq, Operand::sp_u64(24), Operand::Imm(0), even);
    b.load(Place::sp_u64(24), Operand::node_u64(16), 0, Width::B8);
    b.bind(even);
    b.cmp_jump(Cond::Ne, Operand::node_u64(0), Operand::sp_u64(0), miss);
    b.ret(Operand::Imm(0));
    b.bind(miss);
    b.cmp_jump(Cond::Eq, Operand::node_u64(16), Operand::Imm(0), absent);
    b.next_iter(Operand::node_u64(16));
    b.bind(absent);
    b.ret(Operand::Imm(1));
    b.finish().unwrap()
}

/// The walk `prefix_walk` replaced: clone the committed state before every
/// hop and commit by assignment.
fn reference_walk(
    cache: &mut TraversalCache,
    mem: &ClusterMemory,
    program: &Program,
    state: &mut IterState,
) -> WalkOutcome {
    let mut interp = Interpreter::new();
    let mut hops = 0u32;
    loop {
        let mut attempt = state.clone();
        let mut bus = CacheBus {
            cache: &mut *cache,
            mem,
        };
        match interp.run_iteration(program, &mut attempt, &mut bus) {
            Ok(trace) => {
                *state = attempt;
                hops += 1;
                cache.note_hit();
                if let IterOutcome::Done { code } = trace.outcome {
                    return WalkOutcome::Done { code, hops };
                }
            }
            Err(_) => {
                cache.note_miss();
                return WalkOutcome::Stopped { hops };
            }
        }
    }
}

#[test]
fn prefix_walk_matches_clone_per_hop_walk() {
    let prog = summing_find();
    let mut rng = SplitMix64::new(0x9A1C_0018);
    let (mut done, mut long_stops) = (0, 0);
    for case in 0..CASES {
        let mut mem = memory();
        // A random acyclic chain through the node array, ending at null.
        let mut order: Vec<u64> = (0..NODES).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let len = 2 + rng.next_below(NODES - 1) as usize;
        let addr = |n: u64| STABLE + n * NODE_BYTES;
        for (i, &n) in order[..len].iter().enumerate() {
            let next = order[..len].get(i + 1).map_or(0, |&m| addr(m));
            mem.write_word(addr(n), n, 8).unwrap();
            mem.write_word(addr(n) + 8, rng.next_below(100), 8).unwrap();
            mem.write_word(addr(n) + 16, next, 8).unwrap();
        }
        let cfg = CacheConfig::sized((2 + rng.next_below(15)) * LINE);
        let (mut fast, mut slow) = (TraversalCache::new(cfg), TraversalCache::new(cfg));
        // Warm most of the chain's cells, plus some noise.
        let mut fills: Vec<(u64, u64)> = order[..len]
            .iter()
            .filter(|_| rng.chance(0.85))
            .map(|&n| (addr(n), NODE_BYTES))
            .collect();
        for _ in 0..rng.next_below(8) {
            fills.push((address(&mut rng), length(&mut rng)));
        }
        for (a, l) in fills {
            fast.fill_range(a, l, &mut mem);
            slow.fill_range(a, l, &mut mem);
        }
        if rng.chance(0.3) {
            let at = addr(order[rng.next_below(len as u64) as usize]) + 8;
            mem.write_word(at, rng.next_below(100), 8).unwrap();
        }
        let mut st = IterState::new(&prog, addr(order[0]));
        let key = if rng.chance(0.7) {
            order[rng.next_below(len as u64) as usize]
        } else {
            NODES + 1
        };
        st.set_scratch_u64(0, key);
        let mut want_state = st.clone();
        let got = prefix_walk(&mut fast, &mem, &prog, &mut st);
        let want = reference_walk(&mut slow, &mem, &prog, &mut want_state);
        assert_eq!(got, want, "case {case}");
        assert_eq!(st, want_state, "case {case}");
        assert_eq!(fast.stats(), slow.stats(), "case {case}");
        assert_eq!(fast.resident_lines(), slow.resident_lines(), "case {case}");
        done += matches!(got, WalkOutcome::Done { .. }) as usize;
        long_stops += matches!(got, WalkOutcome::Stopped { hops } if hops >= 2) as usize;
    }
    assert!(done >= 20, "only {done} walks completed locally");
    assert!(
        long_stops >= 20,
        "only {long_stops} walks stopped after 2+ hops"
    );
}
