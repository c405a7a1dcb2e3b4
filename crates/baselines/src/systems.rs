//! The compared systems (§6): Fastswap-style cache-based paging, and the
//! configuration of the RPC family (RPC on server-class CPUs, RPC on wimpy
//! ARM SmartNIC cores, and AIFM-style Cache+RPC).
//!
//! The swap system is an analytic replay: it executes the *same*
//! [`AppRequest`] streams as pulse functionally (results are
//! bit-identical) and prices each request's access trace through its own
//! timing model, with a fixed number of outstanding clients sharing the
//! contended resources (application threads, the swap pipe, the fabric).
//! The RPC family runs on the pulse rack's own event engine; see
//! [`RpcConfig`].

use pulse_frontend::replay::{drive, measured_rate};
use pulse_frontend::{CacheConfig, LruSet};
use pulse_isa::{CostModel, Interpreter};
use pulse_mem::{ClusterMemory, FaultEvent};
use pulse_net::{Endpoint, Fabric, FabricConfig, LinkConfig, SwitchConfig, TopologySpec};
use pulse_sim::{CpuDispatch, DispatchConfig, SerialResource, ServerPool, SimTime};
use pulse_trace::{LatencyBreakdown, Phase, RunMetrics};
use pulse_workloads::{execute_functional, Access, AppRequest};

pub use pulse_core::RpcFlavor;

/// Page-fill request frame size, bytes (header + page address).
const FRAME_BYTES: u64 = 128;

/// One endpoint→endpoint hop through the rack's switch: two link
/// propagations around the switch pipeline, the same constants the pulse
/// rack prices.
fn one_way() -> SimTime {
    LinkConfig::default().propagation * 2 + SwitchConfig::default().pipeline_latency
}

/// Builds the rack's routed fabric for `spec` over one CPU node and `nodes`
/// memory nodes, or `None` on the flat default.
fn build_fabric(spec: TopologySpec, nodes: usize) -> Option<Fabric> {
    spec.is_routed()
        .then(|| Fabric::new(spec.build(1, nodes), FabricConfig::default()))
}

/// Per-instruction time of the CPU node's Xeon Gold 6240-class core.
const INSN_TIME: SimTime = CostModel::xeon().insn_time;

/// The core's local DRAM access latency (a page-cache hit).
const DRAM_LATENCY: SimTime = SimTime::from_nanos(90);

/// What a swap run measured: the engine-neutral [`RunMetrics`]
/// (reachable through `Deref`) plus what only the replay prices. The
/// system's page cache is [`BaselineReport::cache_hit_ratio`]. The replay
/// is analytic, so its phase attribution comes from the priced
/// components: the residual (queueing on threads and the swap pipe)
/// lands in [`Phase::Queued`], and the per-phase sums still equal each
/// request's latency exactly.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// System label ("Cache-based").
    pub label: &'static str,
    /// The run outcome every engine reports.
    pub metrics: RunMetrics,
    /// Total time attributed to pointer traversal (Fig. 2(a)'s numerator).
    pub traversal_time: SimTime,
    /// Total request-resident time (Fig. 2(a)'s denominator).
    pub total_time: SimTime,
    /// Page-cache hit ratio.
    pub cache_hit_ratio: f64,
    /// Updates (requests with a store or an object write) that completed:
    /// all of them, since the swap system completes every request.
    pub completed_updates: u64,
}

impl std::ops::Deref for BaselineReport {
    type Target = RunMetrics;

    fn deref(&self) -> &RunMetrics {
        &self.metrics
    }
}

/// Peak CPU-downlink demand on a routed replay's fabric (0.0 without one),
/// normalized over the offered-load window in open loop (what the offered
/// rate asks of the link, however far the system falls behind it) and over
/// the makespan in closed loop (duty cycle).
fn link_demand(fabric: Option<&Fabric>, arrivals: Option<&[SimTime]>, makespan: SimTime) -> f64 {
    let horizon = match arrivals {
        Some(times) if times.len() > 1 => {
            let window = *times.last().expect("non-empty") - times[0];
            window.max(SimTime::from_nanos(1))
        }
        _ => makespan,
    };
    fabric.map_or(0.0, |f| f.cpu_downlink_demand(horizon))
}

impl BaselineReport {
    /// Fraction of execution time spent in pointer traversals (Fig. 2(a)).
    pub fn traversal_fraction(&self) -> f64 {
        if self.total_time == SimTime::ZERO {
            return 0.0;
        }
        self.traversal_time.as_picos() as f64 / self.total_time.as_picos() as f64
    }
}

// ------------------------------------------------------------- Cache-based

/// Page size of the swap system.
const PAGE_BYTES: u64 = 4096;

/// Kernel fault-handling software cost per major fault.
const FAULT_SOFTWARE: SimTime = SimTime::from_micros(5);

/// Swap-subsystem per-page service (reclaim + I/O issue) — the "could not
/// evict pages fast enough" ceiling of §6.1.
const SWAP_SERVICE: SimTime = SimTime::from_micros(4);

/// Application threads at the CPU node.
const SWAP_THREADS: usize = 16;

/// Fastswap-style swap cache configuration. The page size, fault and swap
/// costs, thread count and CPU are fixed constants of the model.
#[derive(Debug, Clone, Copy)]
pub struct SwapConfig {
    /// CPU-node DRAM used as page cache, bytes (2 GB in §6, scaled).
    pub cache_bytes: u64,
    /// CPU-node request-dispatch engine (the same contended-issue model the
    /// pulse rack runs, so pulse-vs-baseline sweeps stay apples-to-apples).
    /// Each request books one dispatch op at admission; the default is
    /// uncontended.
    pub dispatch: DispatchConfig,
    /// Rack geometry. On the flat default every page fill is priced with
    /// the rack's end-to-end link and switch constants; on a routed spec
    /// each fill is a request + page transfer over the fabric's finite
    /// links from the owning node.
    pub topology: TopologySpec,
    /// Record per-phase latency attribution
    /// ([`RunMetrics::phase`]). Off by default; the run's timing is
    /// identical either way.
    pub trace: bool,
}

impl Default for SwapConfig {
    fn default() -> Self {
        SwapConfig {
            cache_bytes: 64 << 20,
            dispatch: DispatchConfig::default(),
            topology: TopologySpec::Flat,
            trace: false,
        }
    }
}

impl SwapConfig {
    /// The system label every swap report and engine carries.
    pub fn label(&self) -> &'static str {
        "Cache-based"
    }
}

/// Runs the cache-based (swap) system over a request stream.
///
/// Every memory access in every request probes a 4 KiB-page LRU; misses pay
/// fault software + a network round trip + page transfer, serialized
/// through the swap pipe.
///
/// With `arrivals` `None` the stream runs closed-loop over `concurrency`
/// clients. With `Some(times)`, request `i` arrives at `times[i]` (sorted
/// ascending) and its latency is measured from that arrival, queueing
/// included; the report's throughput is then goodput over the
/// arrival-to-last-completion span.
pub fn run_swap_cache(
    mem: &mut ClusterMemory,
    requests: &[AppRequest],
    concurrency: usize,
    cfg: SwapConfig,
    arrivals: Option<&[SimTime]>,
) -> BaselineReport {
    let mut lru = LruSet::new((cfg.cache_bytes / PAGE_BYTES).max(1) as usize);
    let mut swap_pipe = SerialResource::new(u64::MAX); // fixed service per page
    let mut threads = ServerPool::new(SWAP_THREADS);
    // The CPU node's admission dispatch engine (the swap system's own page
    // cache stands in for a traversal cache).
    let mut dispatch = CpuDispatch::new(cfg.dispatch);
    let mut fabric = build_fabric(cfg.topology, mem.node_count());
    let routed = fabric.is_some();
    let mut net_bytes = 0u64;
    let mut mem_bytes = 0u64;
    let one_way = one_way();
    let page_wire = SimTime::serialization(PAGE_BYTES, LinkConfig::default().bits_per_sec);
    let miss_cost = FAULT_SOFTWARE + one_way * 2 + page_wire;
    let mut breakdown = cfg.trace.then(LatencyBreakdown::new);

    // Pre-execute functionally (results + traces).
    let mut interp = Interpreter::new();
    let traces: Vec<(Vec<Access>, SimTime)> = requests
        .iter()
        .map(|r| {
            let run = execute_functional(&mut interp, mem, r, 1 << 20).expect("functional run");
            (run.accesses, r.cpu_work)
        })
        .collect();

    // All contended resources are booked at the request's admission time so
    // bookings stay time-ordered across the closed loop (see module docs);
    // completion is the max over the uncontended path and each contended
    // resource's grant plus its downstream path.
    let (latency, makespan, traversal_total, latency_total) =
        drive(requests.len(), concurrency, arrivals, |idx, ready| {
            let (accesses, cpu_work) = &traces[idx];
            let mut pure = SimTime::ZERO;
            let mut traversal_pure = SimTime::ZERO;
            let mut misses = 0u64;
            let mut hits = 0u64;
            let mut insn_total = SimTime::ZERO;
            let mut fills: Vec<usize> = Vec::new();
            for a in accesses {
                let mut cost = INSN_TIME * a.insns as u64;
                insn_total += cost;
                let first = a.addr / PAGE_BYTES;
                let last = (a.addr + a.len.max(1) as u64 - 1) / PAGE_BYTES;
                for page in first..=last {
                    if lru.touch(page) {
                        cost += DRAM_LATENCY;
                        hits += 1;
                    } else {
                        cost += miss_cost;
                        misses += 1;
                        net_bytes += PAGE_BYTES;
                        mem_bytes += PAGE_BYTES;
                        if routed {
                            fills.push(mem.owner_of(page * PAGE_BYTES).unwrap_or(0));
                        }
                    }
                }
                pure += cost;
                if a.traversal {
                    traversal_pure += cost;
                }
            }
            pure += *cpu_work;
            // The request-dispatch engine admits the request (queueing +
            // occupancy under load), then an application thread hosts it
            // end-to-end.
            let admitted = dispatch.book_grant(ready).end;
            let slot = threads.acquire(admitted, pure);
            // The swap subsystem serves this request's misses.
            let mut pipe_end = slot.grant.start;
            let mut routed_wire = None;
            if misses > 0 {
                let g = swap_pipe.acquire_for(slot.grant.start, SWAP_SERVICE * misses);
                pipe_end = match fabric.as_mut() {
                    // Routed: each fill is a request to the owning node and
                    // a page riding back over the fabric's finite links.
                    Some(fab) => {
                        let mut cursor = g.end;
                        for &owner in &fills {
                            let req = fab
                                .send(cursor, Endpoint::Cpu(0), Endpoint::Mem(owner), FRAME_BYTES)
                                .expect("fabric covers every node");
                            cursor = fab
                                .send(req, Endpoint::Mem(owner), Endpoint::Cpu(0), PAGE_BYTES)
                                .expect("fabric covers every node");
                        }
                        routed_wire = Some(cursor - g.end);
                        cursor + FAULT_SOFTWARE + *cpu_work
                    }
                    None => g.end + one_way * 2 + FAULT_SOFTWARE + *cpu_work,
                };
            }
            let end = (slot.grant.start + pure).max(pipe_end);
            if let Some(b) = breakdown.as_mut() {
                let arrive = arrivals.map_or(ready, |a| a[idx]);
                let wire = routed_wire.unwrap_or_else(|| (one_way * 2 + page_wire) * misses);
                // Priced components; thread/pipe queueing and the pieces
                // hidden under the completion `max` fall to the residual.
                b.record_components(
                    end - arrive,
                    &[
                        (Phase::Queued, admitted - ready),
                        (Phase::CacheHit, DRAM_LATENCY * hits),
                        (
                            Phase::Dispatch,
                            insn_total + *cpu_work + FAULT_SOFTWARE * misses,
                        ),
                        (Phase::WireHop, wire),
                        (Phase::MemTrip, SWAP_SERVICE * misses),
                    ],
                );
            }
            (end, traversal_pure, pure)
        });

    let link_demand = link_demand(fabric.as_ref(), arrivals, makespan);
    BaselineReport {
        label: cfg.label(),
        metrics: RunMetrics {
            completed: requests.len() as u64,
            latency,
            throughput: measured_rate(requests.len(), makespan, arrivals),
            net_bytes: fabric
                .as_ref()
                .map_or(net_bytes, Fabric::host_injected_bytes),
            mem_bytes,
            link_utilization: link_demand.min(1.0),
            link_demand,
            queue_depth: fabric.as_ref().map_or(0, |f| f.max_queue_depth() as u64),
            phase: breakdown.as_ref().and_then(LatencyBreakdown::attribution),
            makespan,
            ..RunMetrics::default()
        },
        traversal_time: traversal_total,
        total_time: latency_total,
        cache_hit_ratio: lru.hit_ratio(),
        // The swap system completes every request.
        completed_updates: requests.iter().filter(|r| r.is_update()).count() as u64,
    }
}

// ------------------------------------------------------------------- RPC

/// RPC system configuration. RPC runs on the pulse rack's event engine
/// (`pulse_core::PulseMode::Rpc`): every request, bounce and reply crosses
/// the same fabric, faults and queues pulse's packets do, with the
/// flavour's worker cores serving traversals at the memory nodes. The
/// `pulse` façade's `BaselineEngine` builds that rack from this config
/// with one CPU node.
#[derive(Debug, Clone)]
pub struct RpcConfig {
    /// Flavour.
    pub flavor: RpcFlavor,
    /// The CPU node's request-dispatch engine — the extended evaluation
    /// attributes the RPC baseline's collapse to exactly this resource
    /// saturating. Every network issue books it: the initial request and
    /// the re-issue after every cross-node bounce. The default is
    /// uncontended.
    pub dispatch: DispatchConfig,
    /// Front-end traversal-cell cache (the rack's
    /// `pulse_frontend::TraversalCache`, disabled by default): leading
    /// traversal hops whose cells are resident and version-valid walk on
    /// the CPU at `CacheConfig::HIT_NS` each, the remainder is served
    /// remotely from the last cached pointer, the cells the workers read
    /// ride back with the reply (priced on the wire) to fill the cache,
    /// and writes age the touched lines out. This is "RPC+cache" in the
    /// sweep curves — the hypothetical the paper's framing argues cannot
    /// save pointer traversals.
    pub cache: CacheConfig,
    /// Rack geometry. Every shape, the flat default included, prices each
    /// request, bounce and reply hop by hop on the rack's fabric, so every
    /// bounce crosses the CPU node's down-link (the incast pulse's chained
    /// hops avoid).
    pub topology: TopologySpec,
    /// Scheduled faults — the *same* schedule the pulse rack runs, handled
    /// by the same rack: a packet headed for a dark node fails over to a
    /// live replica (`ClusterMemory::replicas_of`, governed by
    /// `ClusterMemory::set_replication` on the memory handed to the run),
    /// a packet lost with a node is re-planned by its CPU, a request with
    /// no live replica left fault-completes as unavailable, and a crash
    /// starts re-replicating the lost extents onto live nodes.
    pub faults: Vec<FaultEvent>,
    /// Record per-request spans and per-phase latency attribution
    /// ([`RunMetrics::phase`]). Off by default; the run's timing is
    /// identical either way.
    pub trace: bool,
}

impl RpcConfig {
    /// The paper's RPC-on-Xeon setup.
    pub fn rpc() -> RpcConfig {
        RpcConfig {
            flavor: RpcFlavor::Rpc,
            dispatch: DispatchConfig::default(),
            cache: CacheConfig::disabled(),
            topology: TopologySpec::Flat,
            faults: Vec::new(),
            trace: false,
        }
    }

    /// RPC on the Bluefield-2's ARM cores.
    pub fn rpc_arm() -> RpcConfig {
        RpcConfig {
            flavor: RpcFlavor::RpcArm,
            ..RpcConfig::rpc()
        }
    }

    /// AIFM-style Cache+RPC with a 2 GB-class (scaled) object cache.
    pub fn cache_rpc(cache_bytes: u64) -> RpcConfig {
        RpcConfig {
            flavor: RpcFlavor::CacheRpc { cache_bytes },
            ..RpcConfig::rpc()
        }
    }

    /// The system label every run of this flavour reports.
    pub fn label(&self) -> &'static str {
        match self.flavor {
            RpcFlavor::Rpc => "RPC",
            RpcFlavor::RpcArm => "RPC-ARM",
            RpcFlavor::CacheRpc { .. } => "Cache+RPC",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_ds::BuildCtx;
    use pulse_mem::{ClusterAllocator, Placement};
    use pulse_workloads::{Application, Distribution, WebService, WebServiceConfig};

    fn webservice_setup_dist(
        keys: u64,
        object_bytes: u32,
        distribution: Distribution,
    ) -> (ClusterMemory, Vec<AppRequest>) {
        let mut mem = ClusterMemory::new(4);
        let mut alloc = ClusterAllocator::new(Placement::Striped, 1 << 20);
        let mut app = {
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            WebService::build(
                &mut ctx,
                WebServiceConfig {
                    keys,
                    object_bytes,
                    distribution,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let reqs: Vec<AppRequest> = (0..300).map(|_| app.next_request()).collect();
        (mem, reqs)
    }

    fn webservice_setup(keys: u64, object_bytes: u32) -> (ClusterMemory, Vec<AppRequest>) {
        webservice_setup_dist(keys, object_bytes, Distribution::Zipfian)
    }

    #[test]
    fn warm_small_working_set_mostly_hits() {
        let (mut mem, reqs) = webservice_setup(200, 8192); // ~1.7 MB
        let swap = run_swap_cache(
            &mut mem,
            &reqs,
            4,
            SwapConfig {
                cache_bytes: 64 << 20, // everything fits
                ..SwapConfig::default()
            },
            None,
        );
        assert!(
            swap.cache_hit_ratio > 0.5,
            "hit ratio {:?}",
            swap.cache_hit_ratio
        );
    }

    #[test]
    fn traversal_fraction_grows_as_cache_shrinks() {
        // Fig. 2(a)'s core observation.
        let (mut mem, reqs) = webservice_setup_dist(200_000, 512, Distribution::Uniform);
        let mut fractions = Vec::new();
        for shift in [0u64, 3, 5] {
            let cache = (16u64 << 20) >> shift; // 16 MB, 2 MB, 0.5 MB
            let rep = run_swap_cache(
                &mut mem,
                &reqs,
                8,
                SwapConfig {
                    cache_bytes: cache,
                    ..SwapConfig::default()
                },
                None,
            );
            fractions.push(rep.traversal_fraction());
        }
        assert!(
            fractions[0] < fractions[2],
            "traversal fraction should grow with smaller caches: {fractions:?}"
        );
        assert!(fractions.iter().all(|&f| (0.0..=1.0).contains(&f)));
    }

    #[test]
    fn contended_dispatch_slows_swap_admission() {
        let (mut mem, reqs) = webservice_setup(200, 8192);
        let arrivals: Vec<SimTime> = (1..=reqs.len() as u64)
            .map(|i| SimTime::from_nanos(10_000 * i)) // 100 kops offered
            .collect();
        let base = SwapConfig::default();
        let free = run_swap_cache(&mut mem, &reqs, 8, base, Some(&arrivals));
        let contended = run_swap_cache(
            &mut mem,
            &reqs,
            8,
            SwapConfig {
                dispatch: DispatchConfig::contended(SimTime::from_micros(50), 1),
                ..base
            },
            Some(&arrivals),
        );
        assert!(
            contended.latency.p99 > free.latency.p99,
            "free {} contended {}",
            free.latency.p99,
            contended.latency.p99
        );
    }

    /// The swap replay executes the same write model as the rack: a mixed
    /// stream of seqlock-verified reads and locked update traversals
    /// replays through it, and the updates really mutate its memory copy.
    #[test]
    fn mixed_write_traversals_replay_through_swap() {
        use pulse_mutation::{
            locked_update_stage, retrying_request, verified_read_stage, MutationConfig,
        };
        use std::sync::Arc;

        let mut mem = ClusterMemory::new(2);
        let mut alloc = ClusterAllocator::new(Placement::Striped, 1 << 20);
        let map = {
            let mut ctx = BuildCtx::new(&mut mem, &mut alloc);
            let pairs: Vec<(u64, u64)> = (0..512).map(|k| (k, k)).collect();
            pulse_ds::HashMapDs::build_partitioned(&mut ctx, 8, &pairs, 2).unwrap()
        };
        let find = Arc::new(pulse_mutation::verified_find_program());
        let update = Arc::new(pulse_mutation::locked_update_program());
        let mc = MutationConfig::default();
        let mixed: Vec<AppRequest> = (0..100)
            .map(|k| {
                if k % 2 == 0 {
                    retrying_request(
                        locked_update_stage(&update, map.bucket_addr(k), k, k + 7_000),
                        mc,
                    )
                } else {
                    retrying_request(verified_read_stage(&find, map.bucket_addr(k), k), mc)
                }
            })
            .collect();
        let swap = run_swap_cache(&mut mem, &mixed, 8, SwapConfig::default(), None);
        assert_eq!(swap.completed, 100);
        assert_eq!(swap.completed_updates, 50);
        assert_eq!(map.get_host(&mut mem, 42).unwrap(), Some(42 + 7_000));
        assert_eq!(map.get_host(&mut mem, 43).unwrap(), Some(43));
    }

    #[test]
    fn routed_swap_fills_cross_the_fabric() {
        let (mut mem, reqs) = webservice_setup_dist(200_000, 512, Distribution::Uniform);
        let small = SwapConfig {
            cache_bytes: 1 << 20,
            ..SwapConfig::default()
        };
        let flat = run_swap_cache(&mut mem, &reqs, 8, small, None);
        let routed = run_swap_cache(
            &mut mem,
            &reqs,
            8,
            SwapConfig {
                topology: TopologySpec::LeafSpine {
                    leaves: 2,
                    spines: 1,
                },
                ..small
            },
            None,
        );
        assert_eq!(flat.link_utilization, 0.0);
        assert_eq!(flat.link_demand, 0.0);
        assert!(
            routed.link_utilization > 0.0,
            "page fills must show on the downlink"
        );
        assert!(routed.link_demand >= routed.link_utilization);
        assert!(routed.net_bytes > 0);
        assert_eq!(routed.completed, flat.completed);
    }

    #[test]
    fn traced_swap_attributes_phases_without_perturbing_timing() {
        let (mut mem, reqs) = webservice_setup(4_000, 8192);
        let plain = run_swap_cache(&mut mem, &reqs, 8, SwapConfig::default(), None);
        let traced = run_swap_cache(
            &mut mem,
            &reqs,
            8,
            SwapConfig {
                trace: true,
                ..SwapConfig::default()
            },
            None,
        );
        assert!(plain.phase.is_none(), "tracing is off by default");
        assert_eq!(plain.latency.mean, traced.latency.mean);
        assert_eq!(plain.latency.p99, traced.latency.p99);
        let attr = traced.phase.expect("attribution recorded");
        assert_eq!(attr.count, reqs.len() as u64);
        // Per-phase means partition the mean latency (each mean floors
        // picos independently, so the sum may undershoot by < PHASES ps).
        let sum: u64 = attr.mean.iter().map(|t| t.as_picos()).sum();
        let e2e = traced.latency.mean.as_picos();
        assert!(sum <= e2e && e2e - sum < pulse_trace::PHASES as u64);
    }

    #[test]
    fn results_are_deterministic() {
        let (mut mem, reqs) = webservice_setup(1_000, 8192);
        let a = run_swap_cache(&mut mem, &reqs, 8, SwapConfig::default(), None);
        let b = run_swap_cache(&mut mem, &reqs, 8, SwapConfig::default(), None);
        assert_eq!(a.latency.mean, b.latency.mean);
        assert_eq!(a.net_bytes, b.net_bytes);
    }
}
