//! The RPC baseline's old configuration, kept for perfbench alone.
//!
//! Every system, the four baselines included, is a
//! [`PulseMode`](crate::PulseMode) set with
//! [`PulseBuilder::mode`](crate::PulseBuilder::mode). This module holds no
//! logic: [`PulseBuilder::baseline_app`](crate::PulseBuilder::baseline_app)
//! forwards an [`RpcConfig`] onto the builder's own setters.

use pulse_core::{CacheConfig, DispatchConfig, RpcFlavor};
use pulse_net::TopologySpec;

/// Exists for perfbench's RPC deployment; new code sets
/// `.mode(PulseMode::Rpc(..))`, `.dispatch(..)`, `.topology(..)` and
/// `.cache(..)` on the builder. `flavor` stays because perfbench builds
/// this with struct-update syntax over the other three fields, which
/// clippy rejects when they are all of them.
#[derive(Debug, Clone)]
pub struct RpcConfig {
    /// The RPC flavour: the builder's `PulseMode::Rpc(flavor)`.
    pub flavor: RpcFlavor,
    /// The builder's [`dispatch`](crate::PulseBuilder::dispatch).
    pub dispatch: DispatchConfig,
    /// The builder's [`topology`](crate::PulseBuilder::topology).
    pub topology: TopologySpec,
    /// The builder's [`cache`](crate::PulseBuilder::cache).
    pub cache: CacheConfig,
}

impl RpcConfig {
    /// The paper's RPC-on-Xeon setup, every other setting at the
    /// builder's default.
    pub fn rpc() -> RpcConfig {
        RpcConfig {
            flavor: RpcFlavor::Rpc,
            dispatch: DispatchConfig::default(),
            topology: TopologySpec::Flat,
            cache: CacheConfig::disabled(),
        }
    }
}
