//! The compared systems (§6): the configurations of Fastswap-style
//! cache-based paging and of the RPC family (RPC on server-class CPUs,
//! RPC on wimpy ARM SmartNIC cores, and AIFM-style Cache+RPC). Every one
//! runs on the pulse rack's own event engine; the `pulse` façade's
//! `BaselineEngine` builds that rack from the config.

use pulse_frontend::CacheConfig;
use pulse_mem::FaultEvent;
use pulse_net::TopologySpec;
use pulse_sim::DispatchConfig;

pub use pulse_core::RpcFlavor;

// ------------------------------------------------------------- Cache-based

/// Fastswap-style swap cache configuration. The system runs on the pulse
/// rack's event engine (`pulse_core::PulseMode::Swap`): the CPU node runs
/// each request over a 4 KiB-page LRU, and every missed page is a plain
/// read its memory node's DMA engine serves, crossing the same fabric as
/// pulse's packets. The page size, fault and swap costs and the CPU are
/// fixed constants of the model; the application threads are the run's
/// clients.
#[derive(Debug, Clone, Copy)]
pub struct SwapConfig {
    /// CPU-node DRAM used as page cache, bytes (2 GB in §6, scaled).
    pub cache_bytes: u64,
    /// CPU-node request-dispatch engine (the same contended-issue model the
    /// pulse rack runs, so pulse-vs-baseline sweeps stay apples-to-apples).
    /// Each request books one dispatch op at admission; the default is
    /// uncontended.
    pub dispatch: DispatchConfig,
    /// Rack geometry. Every shape, the flat default included, prices each
    /// page read and its page hop by hop on the rack's fabric.
    pub topology: TopologySpec,
    /// Record per-request spans and per-phase latency attribution
    /// ([`RunMetrics::phase`](pulse_trace::RunMetrics::phase)). Off by
    /// default; the run's timing is identical either way.
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
    /// The system label every swap engine and report carries.
    pub fn label(&self) -> &'static str {
        "Cache-based"
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
    /// ([`RunMetrics::phase`](pulse_trace::RunMetrics::phase)). Off by
    /// default; the run's timing is identical either way.
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
