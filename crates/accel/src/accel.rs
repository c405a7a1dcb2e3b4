//! The pulse accelerator state machine (§4.2).
//!
//! One accelerator sits at each memory node and executes offloaded iterator
//! requests. Its architecture — the paper's core contribution — separates
//! *logic pipelines* from *memory pipelines* and multiplexes `m + n`
//! concurrent iterator workspaces across them, exploiting the two iterator
//! properties of §4.2: each iteration is a data fetch followed by a
//! dependent logic step, and offloaded iterators are memory-bound
//! (`t_c ≤ η·t_d`).
//!
//! The accelerator is written as a pure event-driven state machine:
//! [`Accelerator::on_packet`] and [`Accelerator::step`] consume an event and
//! hand timed outputs (internal events to re-schedule, or departing
//! packets) to a caller-owned [`AccelSink`], so a driver steps the
//! accelerator without allocating. A single-node harness and the full
//! cluster simulation both embed it unchanged.

use crate::config::{AccelConfig, AccelTiming, PipelineOrg};
use pulse_isa::{
    fused_hop_increment, CostModel, Fault, Interpreter, IterOutcome, IterTrace, MemFault,
};
use pulse_mem::{ClusterMemory, NodeId, RangeTable};
use pulse_net::{IterPacket, IterStatus};
use pulse_sim::{SerialResource, ServerPool, SimTime, Slab};
use std::collections::VecDeque;

/// Events the accelerator schedules for itself.
#[derive(Debug)]
pub enum AccelEvent {
    /// The network stack finished parsing an arriving request. The packet
    /// waits in the accelerator's RX-parse stage under this handle (see
    /// [`Accelerator::take_rx`]), keeping the event small.
    RxDone(u32),
    /// A memory pipeline completed the coalesced window fetch.
    FetchDone {
        /// Workspace index.
        ws: usize,
    },
    /// A logic pipeline reached `NEXT_ITER`/`RETURN`.
    LogicDone {
        /// Workspace index.
        ws: usize,
    },
}

/// Timed outputs of one event-handling step.
#[derive(Debug)]
pub enum AccelOutput {
    /// Schedule `event` back into this accelerator at `at`.
    Internal {
        /// Due time.
        at: SimTime,
        /// The event.
        event: AccelEvent,
    },
    /// A packet leaves the accelerator's network port at `at`.
    Depart {
        /// Transmission-complete time.
        at: SimTime,
        /// The outgoing packet (response or reroute; same format).
        pkt: IterPacket,
        /// Memory-pipeline time this node visit wasted on squashed
        /// speculative fetches (ISA v2); zero with speculation off. The
        /// cluster attributes it as a `spec_squash` trace span inside the
        /// accelerator-residency phase.
        squash: SimTime,
    },
}

/// Where an accelerator call puts its timed outputs, in the order it makes
/// them. A `Vec` collects them as [`AccelOutput`]s; an event loop can
/// schedule internal events as they come, provided it keeps them behind any
/// departure made before them (sequence numbers break same-instant ties).
///
/// The two kinds of output have a method each, so an internal event (most
/// of them: every fetch and logic completion) reaches an event loop as an
/// `(at, event)` pair and is never built into an [`AccelOutput`], which a
/// departure's packet makes 136 bytes long.
pub trait AccelSink {
    /// Takes the call's next output when it is an internal event: schedule
    /// `event` back into this accelerator at `at`.
    fn internal(&mut self, at: SimTime, event: AccelEvent);

    /// Takes the call's next output when it is a departure
    /// ([`AccelOutput::Depart`]).
    fn depart(&mut self, at: SimTime, pkt: IterPacket, squash: SimTime);
}

impl AccelSink for Vec<AccelOutput> {
    fn internal(&mut self, at: SimTime, event: AccelEvent) {
        self.push(AccelOutput::Internal { at, event });
    }

    fn depart(&mut self, at: SimTime, pkt: IterPacket, squash: SimTime) {
        self.push(AccelOutput::Depart { at, pkt, squash });
    }
}

/// Cumulative per-component busy time — the data behind Fig. 10.
#[derive(Debug, Clone, Copy, Default)]
pub struct ComponentTimes {
    /// Network stack (RX + TX).
    pub net_stack: SimTime,
    /// Scheduler decisions.
    pub scheduler: SimTime,
    /// TCAM translations.
    pub tcam: SimTime,
    /// Interconnect traversals.
    pub interconnect: SimTime,
    /// Memory controller + DRAM (incl. burst transfer).
    pub dram: SimTime,
    /// Logic pipeline execution.
    pub logic: SimTime,
    /// Memory-pipeline time wasted on squashed speculative fetches (ISA
    /// v2): trips that were issued early and discarded on a version or
    /// prediction mismatch. Also counted inside `dram`/`tcam`/
    /// `interconnect` — the pipes really were busy — this line isolates
    /// the mis-speculation tax.
    pub spec_waste: SimTime,
}

/// Counters for one accelerator.
#[derive(Debug, Clone, Copy, Default)]
pub struct AccelStats {
    /// Requests admitted (first arrival or continuation/reroute).
    pub requests_in: u64,
    /// Completed traversals (RETURN reached here).
    pub done: u64,
    /// Requests handed back to the switch mid-traversal (next pointer
    /// remote).
    pub rerouted: u64,
    /// Requests returned on the iteration budget.
    pub iter_limited: u64,
    /// Requests that faulted.
    pub faulted: u64,
    /// Iterations executed.
    pub iterations: u64,
    /// Bytes fetched from DRAM.
    pub dram_bytes: u64,
    /// Instructions executed by logic pipelines.
    pub insns: u64,
    /// Speculative next-hop fetches that validated and were consumed (ISA
    /// v2): the next iteration started with its window already in flight.
    pub spec_hits: u64,
    /// Speculative next-hop fetches squashed on a prediction or
    /// per-granule version mismatch (ISA v2), each a wasted memory trip.
    pub mis_speculations: u64,
    /// Extra iterations fused into an already-open same-node membus
    /// transaction (ISA v2 hop batching): hops that skipped their own
    /// TCAM + interconnect trip.
    pub batched_hops: u64,
    /// Per-component busy time.
    pub components: ComponentTimes,
}

#[derive(Debug)]
struct Workspace {
    pkt: IterPacket,
    /// Pre-executed iteration awaiting its logic-pipeline completion.
    pending: Option<PendingIter>,
    /// Seqlock input for speculation: (window base, len, granule version)
    /// of the current hop's cell as of its pre-execution. A foreign write
    /// to the cell after this point invalidates the predicted next pointer.
    /// Only populated with `speculate` on.
    seq_check: Option<(u64, u32, u64)>,
    /// Speculative next-window fetch issued at `FetchDone`, awaiting
    /// validation when the logic pipeline confirms the hop.
    spec: Option<SpecIssue>,
    /// Wasted speculative fetch time accumulated during this node visit,
    /// reported on the departing packet for trace attribution.
    squashed: SimTime,
}

impl Workspace {
    fn new(pkt: IterPacket) -> Workspace {
        Workspace {
            pkt,
            pending: None,
            seq_check: None,
            spec: None,
            squashed: SimTime::ZERO,
        }
    }
}

/// A speculative next-hop fetch in flight (ISA v2).
#[derive(Debug)]
struct SpecIssue {
    /// Predicted next `cur_ptr`.
    ptr: u64,
    /// Translated window base the fetch targeted.
    base: u64,
    /// Window length fetched.
    len: u32,
    /// `ClusterMemory` granule version of the window at issue time.
    version: u64,
    /// When the speculative fetch's pipe grant completes.
    ready: SimTime,
    /// Pipe service time booked — the waste if the fetch squashes.
    cost: SimTime,
}

#[derive(Debug)]
enum PendingIter {
    Ok {
        /// Combined trace of the hop — or of the whole fused group when
        /// same-node batching is on (`fused` > 1): instruction counts and
        /// extra trips are summed, `outcome` is the last hop's.
        trace: IterTrace,
        /// Iterations this pending group executed (1 without batching).
        fused: u32,
    },
    /// The translate stage rejected `cur_ptr` itself: the pointer is remote
    /// or invalid — the switch's global table decides which — so the packet
    /// reroutes in-flight.
    Remote,
    /// The iteration faulted *mid-execution* (an explicit `LOAD`/`STORE`/
    /// `CAS` to a bad or stale address, a protection violation, div-zero).
    /// Rerouting would be wrong — the switch routes by `cur_ptr`, which is
    /// valid and local, so the packet would bounce back here forever — the
    /// request fault-completes instead (the write-side mirror of PR 3's
    /// invalid-object-I/O fix).
    Fail(Fault),
}

/// What one memory-pipeline fetch of `len` bytes costs: `t_d`, and the
/// DRAM share of it charged to [`ComponentTimes::dram`]. Each carries a
/// serialization delay, a 128-bit division, so the accelerator keeps them
/// per length instead of per fetch.
#[derive(Debug, Clone, Copy)]
struct FetchCost {
    len: u32,
    t_d: SimTime,
    dram: SimTime,
}

impl FetchCost {
    fn new(t: &AccelTiming, len: u32) -> FetchCost {
        FetchCost {
            len,
            t_d: t.fetch_time(len),
            dram: t.dram_access + SimTime::serialization(len as u64, t.dram_bytes_per_sec * 8),
        }
    }
}

/// One pulse accelerator.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct Accelerator {
    cfg: AccelConfig,
    node: NodeId,
    xlate: RangeTable,
    workspaces: Vec<Option<Workspace>>,
    backlog: VecDeque<IterPacket>,
    /// Packets in the RX-parse stage, under their `RxDone` handles.
    rx_parked: Slab<IterPacket>,
    net_rx: SerialResource,
    net_tx: SerialResource,
    mem_pipes: ServerPool,
    logic_pipes: Option<ServerPool>,
    interp: Interpreter,
    /// The last window length's fetch cost (one program's windows are all
    /// one length).
    window_fetch: FetchCost,
    /// The cost of a secondary 8-byte load or store.
    word_fetch: FetchCost,
    stats: AccelStats,
}

impl Accelerator {
    /// Creates an accelerator for memory node `node` with local translation
    /// table `xlate`.
    pub fn new(cfg: AccelConfig, node: NodeId, xlate: RangeTable) -> Accelerator {
        let (mem_pipes, logic_pipes) = match cfg.org {
            PipelineOrg::Disaggregated { logic, memory } => {
                (ServerPool::new(memory), Some(ServerPool::new(logic)))
            }
            PipelineOrg::Coupled { cores } => (ServerPool::new(cores), None),
        };
        Accelerator {
            workspaces: (0..cfg.org.workspaces()).map(|_| None).collect(),
            backlog: VecDeque::new(),
            rx_parked: Slab::new(),
            // The network stack runs at a fixed per-packet processing time;
            // modelling it as a serially-occupied unit captures its
            // saturation point (~1/426.3 ns packets per second).
            net_rx: SerialResource::new(u64::MAX),
            net_tx: SerialResource::new(u64::MAX),
            mem_pipes,
            logic_pipes,
            interp: Interpreter::new(),
            window_fetch: FetchCost::new(&cfg.timing, 0),
            word_fetch: FetchCost::new(&cfg.timing, 8),
            stats: AccelStats::default(),
            cfg,
            node,
            xlate,
        }
    }

    /// The node this accelerator serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &AccelStats {
        &self.stats
    }

    /// Mean memory-pipeline utilization over `[0, horizon]`.
    pub fn memory_utilization(&self, horizon: SimTime) -> f64 {
        self.mem_pipes.utilization(horizon)
    }

    /// Mean logic-pipeline utilization over `[0, horizon]` (1.0 definitional
    /// for the coupled design, which has no separate logic pool).
    pub fn logic_utilization(&self, horizon: SimTime) -> f64 {
        match &self.logic_pipes {
            Some(p) => p.utilization(horizon),
            None => self.mem_pipes.utilization(horizon),
        }
    }

    /// Handles a packet arriving from the link at `now`, handing the
    /// resulting outputs to `out`.
    pub fn on_packet(&mut self, now: SimTime, pkt: IterPacket, out: &mut impl AccelSink) {
        // RX parse occupies the network stack for a fixed per-packet time.
        let g = self.net_rx.acquire_for(now, self.cfg.timing.net_stack);
        self.stats.components.net_stack += self.cfg.timing.net_stack;
        out.internal(g.end, AccelEvent::RxDone(self.rx_parked.insert(pkt)));
    }

    /// Removes the packet parked in the RX-parse stage under `handle`. The
    /// cluster calls this when an `RxDone` fires on a node that went dark
    /// meanwhile: [`Accelerator::abort_all`] leaves RX-parse packets alone,
    /// so such a packet is lost when its parse would have finished.
    ///
    /// # Panics
    ///
    /// Panics if `handle` parks no packet.
    pub fn take_rx(&mut self, handle: u32) -> IterPacket {
        self.rx_parked.take(handle)
    }

    /// Advances the state machine on one of its own events, handing the
    /// resulting outputs to `out`.
    ///
    /// `mem` is the rack's memory; the accelerator only touches extents
    /// owned by its node (enforced by the node-local bus).
    pub fn step(
        &mut self,
        now: SimTime,
        event: AccelEvent,
        mem: &mut ClusterMemory,
        out: &mut impl AccelSink,
    ) {
        match event {
            AccelEvent::RxDone(handle) => {
                let pkt = self.take_rx(handle);
                self.stats.requests_in += 1;
                self.stats.components.scheduler += self.cfg.timing.scheduler;
                let admit_at = now + self.cfg.timing.scheduler;
                match self.free_ws() {
                    Some(ws) => {
                        self.workspaces[ws] = Some(Workspace::new(pkt));
                        self.begin_iteration(admit_at, ws, mem, None, out);
                    }
                    None => self.backlog.push_back(pkt),
                }
            }
            AccelEvent::FetchDone { ws } => {
                // A completion for work that abort_all() already drained
                // (the node crashed mid-iteration) lands on an empty
                // workspace: drop it.
                if !matches!(&self.workspaces[ws], Some(w) if w.pending.is_some()) {
                    return;
                }
                // The fetch's data is in the workspace; hand to a logic
                // pipeline (scheduler signal, §4.2 step 2).
                let (insns, extra_mem_ops) = {
                    let w = self.ws(ws);
                    match w.pending.as_ref().expect("fetch without pending") {
                        PendingIter::Ok { trace, .. } => (
                            trace.insns_executed,
                            CostModel::extra_memory_trips(trace) as u32,
                        ),
                        // Faults discovered by the memory pipeline skip logic.
                        PendingIter::Remote | PendingIter::Fail(_) => (0, 0),
                    }
                };
                // ISA v2: with the window data in hand, predict the next
                // hop and issue its fetch before the logic pipeline
                // validates this one.
                if self.cfg.speculate {
                    self.maybe_issue_spec(now, ws, mem);
                }
                if insns == 0 && extra_mem_ops == 0 {
                    if let Some(w) = &self.workspaces[ws] {
                        if matches!(
                            w.pending,
                            Some(PendingIter::Remote) | Some(PendingIter::Fail(_))
                        ) {
                            return self.finish_iteration(now, ws, mem, out);
                        }
                    }
                }
                // Secondary loads/stores occupy a memory pipeline again.
                let mut ready = now;
                for _ in 0..extra_mem_ops {
                    let word = self.word_fetch;
                    let g = self.mem_pipes.acquire(ready, word.t_d);
                    self.charge_fetch(word);
                    ready = g.grant.end;
                }
                self.stats.components.scheduler += self.cfg.timing.scheduler;
                self.stats.insns += insns as u64;
                let t_c = self.cfg.timing.logic_time(insns);
                self.stats.components.logic += t_c;
                let end = match &mut self.logic_pipes {
                    Some(pool) => {
                        pool.acquire(ready + self.cfg.timing.scheduler, t_c)
                            .grant
                            .end
                    }
                    // Coupled core: logic time extends the same unit's
                    // occupancy; the fetch grant already covered t_d, so we
                    // serialize t_c on the same pool.
                    None => self.mem_pipes.acquire(ready, t_c).grant.end,
                };
                out.internal(end, AccelEvent::LogicDone { ws });
            }
            AccelEvent::LogicDone { ws } => {
                // Same stale-completion tolerance as `FetchDone`.
                if matches!(&self.workspaces[ws], Some(w) if w.pending.is_some()) {
                    self.finish_iteration(now, ws, mem, out);
                }
            }
        }
    }

    /// Aborts every in-flight and backlogged traversal: the node crashed
    /// (or its link partitioned, or the accelerator wedged) underneath
    /// them. Returns the lost packets so the cluster can notify the
    /// issuing CPU nodes; workspaces come back empty, and any internal
    /// events already scheduled for the aborted work are tolerated by
    /// [`Accelerator::step`] as no-ops. Packets still in the RX-parse
    /// stage stay parked; see [`Accelerator::take_rx`].
    pub fn abort_all(&mut self) -> Vec<IterPacket> {
        let mut lost: Vec<IterPacket> = self.backlog.drain(..).collect();
        for slot in &mut self.workspaces {
            if let Some(w) = slot.take() {
                lost.push(w.pkt);
            }
        }
        lost
    }

    fn ws(&self, ws: usize) -> &Workspace {
        self.workspaces[ws].as_ref().expect("workspace occupied")
    }

    fn free_ws(&self) -> Option<usize> {
        self.workspaces.iter().position(Option::is_none)
    }

    /// The cost of fetching a `len`-byte window, recomputed only when the
    /// length differs from the last window's.
    fn fetch_cost(&mut self, len: u32) -> FetchCost {
        if self.window_fetch.len != len {
            self.window_fetch = FetchCost::new(&self.cfg.timing, len);
        }
        self.window_fetch
    }

    fn charge_fetch(&mut self, cost: FetchCost) {
        let t = &self.cfg.timing;
        self.stats.components.tcam += t.tcam;
        self.stats.components.interconnect += t.interconnect;
        self.stats.components.dram += cost.dram;
        self.stats.dram_bytes += cost.len as u64;
    }

    /// Issues a speculative fetch for the predicted next hop of `ws` (ISA
    /// v2): called when the current window fetch completes, before the
    /// logic pipeline has validated the hop. Does nothing if the prediction
    /// target is remote, speculation is inhibited, or the pending group
    /// already ends the traversal.
    fn maybe_issue_spec(&mut self, now: SimTime, ws: usize, mem: &ClusterMemory) {
        let (predicted, window) = {
            let w = self.ws(ws);
            if w.spec.is_some() {
                return;
            }
            let trace = match w.pending.as_ref() {
                Some(PendingIter::Ok { trace, .. }) => trace,
                _ => return,
            };
            if trace.spec_inhibit || !matches!(trace.outcome, IterOutcome::Continue) {
                return;
            }
            // The continuation departs on the iteration budget; a prefetch
            // would be pure waste.
            if w.pkt.state.iters_done >= self.cfg.max_iters {
                return;
            }
            // Default prediction rule: the traversal's own next pointer as
            // pre-executed from the (possibly stale) fetched cell; a
            // `SPEC_HINT` overrides it.
            (
                trace.spec_next.unwrap_or(w.pkt.state.cur_ptr),
                w.pkt.code.program().window(),
            )
        };
        let base = predicted.wrapping_add(window.off as i64 as u64);
        // A remote prediction can't be fetched here; the hop will reroute.
        if self.xlate.translate(base, window.len, false).is_err() {
            return;
        }
        let fetch = self.fetch_cost(window.len);
        let t_d = fetch.t_d;
        let g = self.mem_pipes.acquire(now, t_d);
        self.charge_fetch(fetch);
        let version = mem.version_of(base, window.len as u64);
        let w = self.workspaces[ws].as_mut().expect("occupied");
        w.spec = Some(SpecIssue {
            ptr: predicted,
            base,
            len: window.len,
            version,
            ready: g.grant.end,
            cost: t_d,
        });
    }

    /// Starts one iteration for workspace `ws` at time `t`: translate,
    /// occupy a memory pipeline, and pre-execute the iteration functionally
    /// so the logic duration is known when the fetch completes.
    ///
    /// `prefetched` carries the completion time of a validated speculative
    /// fetch for this window: the memory pipeline was already occupied and
    /// the components charged at issue time, so the fetch completes at
    /// `max(t, prefetched)` with no new pipe grant.
    fn begin_iteration(
        &mut self,
        t: SimTime,
        ws: usize,
        mem: &mut ClusterMemory,
        prefetched: Option<SimTime>,
        out: &mut impl AccelSink,
    ) {
        let (window, cur_ptr) = {
            let w = self.ws(ws);
            (w.pkt.code.program().window(), w.pkt.state.cur_ptr)
        };
        let base = cur_ptr.wrapping_add(window.off as i64 as u64);

        // TCAM check first: a remote pointer is detected in the translation
        // stage, costing only the TCAM trip, and bounces to the switch.
        // Only `NotMapped` reroutes — the switch's global table can resolve
        // an address *this* node lacks. A window that splits a mapping
        // boundary or violates permissions would split/violate it on every
        // node, so rerouting those would ping-pong forever; they
        // fault-complete instead.
        if let Err(fault) = self.xlate.translate(base, window.len, false) {
            self.stats.components.tcam += self.cfg.timing.tcam;
            let g = self.mem_pipes.acquire(t, self.cfg.timing.tcam);
            let w = self.workspaces[ws].as_mut().expect("occupied");
            w.pending = Some(match fault {
                MemFault::NotMapped { .. } => PendingIter::Remote,
                other => PendingIter::Fail(Fault::Mem(other)),
            });
            out.internal(g.grant.end, AccelEvent::FetchDone { ws });
            return;
        }

        // Functional pre-execution against the node-local bus. Timing-wise
        // the logic runs after the fetch; executing it here just lets the
        // simulator know the durations and outcome up front.
        let node = self.node;
        let w = self.workspaces[ws].as_mut().expect("occupied");
        if self.cfg.collect_touched {
            // Ship this cell back with the response so the issuing CPU
            // node can fill its front-end cache (deduplicated: revisited
            // windows ride once).
            let cell = (base, window.len);
            if !w.pkt.touched.contains(&cell) {
                w.pkt.touched.push(cell);
            }
        }
        let program = w.pkt.code.program();
        let mut bus = mem.local_bus(node);
        let result = self
            .interp
            .run_iteration(program, &mut w.pkt.state, &mut bus);
        let mut pending = match result {
            Ok(trace) => PendingIter::Ok { trace, fused: 1 },
            Err(f) => PendingIter::Fail(f),
        };

        // ISA v2 same-node hop batching: keep pre-executing consecutive
        // iterations whose windows translate on this node, fusing them into
        // the open membus transaction. Each extra hop skips its own TCAM +
        // interconnect trip and is priced as `fused_hop_increment`. Fusion
        // stops at RETURN, the iteration budget, or the first pointer that
        // leaves this node — so `at_switch` crossing semantics (reroute on
        // the packet's own `cur_ptr`) are untouched.
        let mut batch_cost = SimTime::ZERO;
        if self.cfg.batch_hops > 1 {
            while let PendingIter::Ok { trace, fused } = &mut pending {
                if *fused >= self.cfg.batch_hops
                    || !matches!(trace.outcome, IterOutcome::Continue)
                    || w.pkt.state.iters_done >= self.cfg.max_iters
                {
                    break;
                }
                let next_base = w.pkt.state.cur_ptr.wrapping_add(window.off as i64 as u64);
                if self.xlate.translate(next_base, window.len, false).is_err() {
                    break;
                }
                if self.cfg.collect_touched {
                    let cell = (next_base, window.len);
                    if !w.pkt.touched.contains(&cell) {
                        w.pkt.touched.push(cell);
                    }
                }
                match self
                    .interp
                    .run_iteration(program, &mut w.pkt.state, &mut bus)
                {
                    Ok(t2) => {
                        trace.insns_executed += t2.insns_executed;
                        trace.extra_loads += t2.extra_loads;
                        trace.stores += t2.stores;
                        trace.store_bytes += t2.store_bytes;
                        trace.window_bytes += t2.window_bytes;
                        trace.outcome = t2.outcome;
                        trace.spec_next = t2.spec_next;
                        trace.spec_inhibit = t2.spec_inhibit;
                        *fused += 1;
                        let inc = fused_hop_increment(
                            self.cfg.timing.dram_access,
                            window.len,
                            self.cfg.timing.dram_bytes_per_sec * 8,
                        );
                        batch_cost += inc;
                        self.stats.components.dram += inc;
                        self.stats.dram_bytes += window.len as u64;
                        self.stats.batched_hops += 1;
                    }
                    // A mid-batch fault ends the request exactly as the
                    // unfused execution of that hop would have.
                    Err(f) => {
                        pending = PendingIter::Fail(f);
                        break;
                    }
                }
            }
        }
        // The next hop's pointer is known now, two events before the next
        // `begin_iteration` reads its window: start the host's load of
        // those bytes so it overlaps the events that run in between (this
        // request's `FetchDone`/`LogicDone`, other requests' hops). A host
        // cache hint only; nothing simulated reads it.
        if let PendingIter::Ok { trace, .. } = &pending {
            if matches!(trace.outcome, IterOutcome::Continue) {
                let next = w.pkt.state.cur_ptr.wrapping_add(window.off as i64 as u64);
                mem.prefetch(next, window.len);
            }
        }
        w.pending = Some(pending);
        if self.cfg.speculate {
            // Seqlock input: the version of the cell the prediction was
            // derived from, *after* this hop's own stores — only foreign
            // writes between now and validation invalidate it.
            w.seq_check = Some((base, window.len, mem.version_of(base, window.len as u64)));
        }

        let fetch_end = match prefetched {
            // Validated speculative fetch: pipe time and components were
            // booked at issue; only the batching increments (if any) still
            // need a pipe.
            Some(ready) => {
                let mut end = ready.max(t);
                if batch_cost > SimTime::ZERO {
                    end = end.max(self.mem_pipes.acquire(t, batch_cost).grant.end);
                }
                end
            }
            None => {
                let fetch = self.fetch_cost(window.len);
                let t_d = fetch.t_d + batch_cost;
                self.charge_fetch(fetch);
                self.mem_pipes.acquire(t, t_d).grant.end
            }
        };
        out.internal(fetch_end, AccelEvent::FetchDone { ws });
    }

    /// Applies a completed iteration's outcome: continue, depart, or fault.
    fn finish_iteration(
        &mut self,
        now: SimTime,
        ws: usize,
        mem: &mut ClusterMemory,
        out: &mut impl AccelSink,
    ) {
        let pending = {
            let w = self.workspaces[ws].as_mut().expect("occupied");
            w.pending.take().expect("iteration pending")
        };
        match pending {
            PendingIter::Ok { trace, fused } => {
                self.stats.iterations += fused as u64;
                match trace.outcome {
                    IterOutcome::Done { code } => {
                        self.stats.done += 1;
                        self.depart(now, ws, IterStatus::Done { code }, mem, out)
                    }
                    IterOutcome::Continue => {
                        let w = self.ws(ws);
                        if w.pkt.state.iters_done >= self.cfg.max_iters {
                            self.stats.iter_limited += 1;
                            return self.depart(now, ws, IterStatus::IterLimit, mem, out);
                        }
                        // Scheduler signals a memory pipeline (§4.2 step 3).
                        self.stats.components.scheduler += self.cfg.timing.scheduler;
                        // ISA v2: validate any speculative fetch against the
                        // actual next pointer and the per-granule write
                        // versions — both the cell the prediction came from
                        // (the seqlock check) and the speculated window
                        // itself must be untouched since issue.
                        let spec = {
                            let w = self.workspaces[ws].as_mut().expect("occupied");
                            w.spec.take()
                        };
                        let prefetched = spec.and_then(|s| {
                            let w = self.workspaces[ws].as_ref().expect("occupied");
                            let seq_ok = w
                                .seq_check
                                .is_none_or(|(b, l, v)| mem.version_of(b, l as u64) == v);
                            let valid = s.ptr == w.pkt.state.cur_ptr
                                && seq_ok
                                && mem.version_of(s.base, s.len as u64) == s.version;
                            if valid {
                                self.stats.spec_hits += 1;
                                Some(s.ready)
                            } else {
                                self.stats.mis_speculations += 1;
                                self.stats.components.spec_waste += s.cost;
                                let w = self.workspaces[ws].as_mut().expect("occupied");
                                w.squashed += s.cost;
                                None
                            }
                        });
                        self.begin_iteration(
                            now + self.cfg.timing.scheduler,
                            ws,
                            mem,
                            prefetched,
                            out,
                        )
                    }
                }
            }
            PendingIter::Remote => {
                // The pointer lives on another node (or is invalid — the
                // switch's global table decides): reroute, in-flight.
                self.stats.rerouted += 1;
                self.depart(now, ws, IterStatus::InFlight, mem, out)
            }
            PendingIter::Fail(f) => {
                self.stats.faulted += 1;
                let fault = match f {
                    Fault::Mem(m) => m,
                    Fault::DivideByZero { pc } => MemFault::Protection { addr: pc as u64 },
                };
                self.depart(now, ws, IterStatus::Faulted { fault }, mem, out)
            }
        }
    }

    /// Releases the workspace, transmits the packet, and admits backlog.
    fn depart(
        &mut self,
        now: SimTime,
        ws: usize,
        status: IterStatus,
        mem: &mut ClusterMemory,
        out: &mut impl AccelSink,
    ) {
        let mut w = self.workspaces[ws].take().expect("occupied");
        w.pkt.status = status;
        // A speculative fetch that never reached validation (the hop ended
        // the traversal some other way) is a squash too.
        if let Some(s) = w.spec.take() {
            self.stats.mis_speculations += 1;
            self.stats.components.spec_waste += s.cost;
            w.squashed += s.cost;
        }
        let g = self.net_tx.acquire_for(now, self.cfg.timing.net_stack);
        self.stats.components.net_stack += self.cfg.timing.net_stack;
        out.depart(g.end, w.pkt, w.squashed);
        if let Some(next) = self.backlog.pop_front() {
            self.stats.components.scheduler += self.cfg.timing.scheduler;
            let admit_at = now + self.cfg.timing.scheduler;
            self.workspaces[ws] = Some(Workspace::new(next));
            self.begin_iteration(admit_at, ws, mem, None, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_dispatch::{compile, samples};
    use pulse_mem::{ClusterAllocator, Perms, Placement};
    use pulse_net::{CodeBlob, RequestId};
    use pulse_sim::Driver;
    use std::sync::Arc;

    /// Builds a single-node memory holding a `len`-element chain keyed
    /// 0..len, returns (mem, head).
    fn chain_memory(len: u64) -> (ClusterMemory, u64) {
        use pulse_dispatch::samples::hash_layout as hl;
        use pulse_isa::MemBus;
        let mut mem = ClusterMemory::new(1);
        let mut alloc = ClusterAllocator::new(Placement::Single(0), 4096);
        let addrs: Vec<u64> = (0..len)
            .map(|_| alloc.alloc(&mut mem, hl::NODE_SIZE).unwrap())
            .collect();
        for (i, &a) in addrs.iter().enumerate() {
            mem.write_word(a + hl::KEY as u64, i as u64, 8).unwrap();
            mem.write_word(a + hl::VALUE as u64, i as u64 * 10, 8)
                .unwrap();
            let next = addrs.get(i + 1).copied().unwrap_or(0);
            mem.write_word(a + hl::NEXT as u64, next, 8).unwrap();
        }
        (mem, addrs[0])
    }

    fn accel_for(mem: &ClusterMemory, cfg: AccelConfig) -> Accelerator {
        let table = RangeTable::build(
            64,
            &mem.node_ranges(0)
                .iter()
                .map(|&(s, e)| (s, e, Perms::RW))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        Accelerator::new(cfg, 0, table)
    }

    fn find_packet(head: u64, key: u64, seq: u64) -> IterPacket {
        let prog = Arc::new(compile(&samples::hash_find_spec()).unwrap());
        let code = CodeBlob::new(prog.clone());
        let mut state = pulse_isa::IterState::new(&prog, head);
        state.set_scratch_u64(0, key);
        IterPacket {
            id: RequestId { cpu: 0, seq },
            code,
            state,
            status: IterStatus::InFlight,
            piggyback_bytes: 0,
            touched: Vec::new(),
        }
    }

    /// Drives one accelerator to quiescence; returns departed packets with
    /// their departure times.
    fn drive(
        accel: &mut Accelerator,
        mem: &mut ClusterMemory,
        arrivals: Vec<(SimTime, IterPacket)>,
    ) -> Vec<(SimTime, IterPacket)> {
        let mut drv: Driver<AccelEvent> = Driver::new();
        let mut departed = Vec::new();
        let mut pending: Vec<AccelOutput> = Vec::new();
        for (t, pkt) in arrivals {
            // on_packet needs the clock at t; emulate by scheduling a
            // zero-latency internal event via the driver: simplest is to
            // call on_packet immediately (arrivals are pre-sorted).
            accel.on_packet(t, pkt, &mut pending);
        }
        loop {
            for out in pending.drain(..) {
                match out {
                    AccelOutput::Internal { at, event } => drv.schedule_at(at, event),
                    AccelOutput::Depart { at, pkt, .. } => departed.push((at, pkt)),
                }
            }
            match drv.next_event() {
                Some(ev) => accel.step(drv.now(), ev, mem, &mut pending),
                None => break,
            }
        }
        departed.sort_by_key(|(t, p)| (*t, p.id.seq));
        departed
    }

    #[test]
    fn single_request_completes_with_correct_result() {
        let (mut mem, head) = chain_memory(8);
        let mut accel = accel_for(&mem, AccelConfig::default());
        let done = drive(
            &mut accel,
            &mut mem,
            vec![(SimTime::ZERO, find_packet(head, 5, 1))],
        );
        assert_eq!(done.len(), 1);
        let (t, pkt) = &done[0];
        assert_eq!(pkt.status, IterStatus::Done { code: 0 });
        assert_eq!(pkt.state.scratch_u64(8), 50);
        assert_eq!(accel.stats().iterations, 6); // keys 0..=5
        assert_eq!(accel.stats().done, 1);
        // Latency sanity: 2 net stack + 6*(fetch+logic) ~ 2.1 us, well
        // below 10 us and above 1 us.
        let us = t.as_micros_f64();
        assert!((1.0..10.0).contains(&us), "latency {us} us");
    }

    #[test]
    fn fig10_breakdown_shape() {
        let (mut mem, head) = chain_memory(32);
        let mut accel = accel_for(&mem, AccelConfig::default());
        let _ = drive(
            &mut accel,
            &mut mem,
            vec![(SimTime::ZERO, find_packet(head, 31, 1))],
        );
        let c = accel.stats().components;
        let iters = accel.stats().iterations as f64;
        // Per-iteration averages must match the configured constants.
        assert!((c.tcam.as_nanos_f64() / iters - 47.0).abs() < 1.0);
        assert!((c.interconnect.as_nanos_f64() / iters - 22.0).abs() < 1.0);
        let dram = c.dram.as_nanos_f64() / iters;
        assert!((110.0..112.0).contains(&dram), "dram {dram}");
        // Logic: the hash miss path is 3 instructions = 12 ns.
        let logic = c.logic.as_nanos_f64() / iters;
        assert!((11.0..14.0).contains(&logic), "logic {logic}");
        // Net stack: 2 packets per request regardless of iterations.
        assert!((c.net_stack.as_nanos_f64() - 2.0 * 426.3).abs() < 0.1);
    }

    #[test]
    fn absent_key_returns_not_found() {
        let (mut mem, head) = chain_memory(4);
        let mut accel = accel_for(&mem, AccelConfig::default());
        let done = drive(
            &mut accel,
            &mut mem,
            vec![(SimTime::ZERO, find_packet(head, 99, 1))],
        );
        assert_eq!(done[0].1.status, IterStatus::Done { code: 1 });
    }

    #[test]
    fn invalid_pointer_reroutes_as_inflight() {
        let (mut mem, _) = chain_memory(4);
        let mut accel = accel_for(&mem, AccelConfig::default());
        let done = drive(
            &mut accel,
            &mut mem,
            vec![(SimTime::ZERO, find_packet(0xdead_0000, 1, 1))],
        );
        assert_eq!(done[0].1.status, IterStatus::InFlight);
        assert_eq!(accel.stats().rerouted, 1);
        assert_eq!(accel.stats().done, 0);
    }

    #[test]
    fn store_to_stale_pointer_fault_completes() {
        // A traversal whose cur_ptr is valid and local but whose STORE aims
        // at a wild address must depart Faulted — not reroute in-flight,
        // which the switch would bounce straight back here forever.
        use pulse_isa::{Operand, ProgramBuilder, Width};
        let (mut mem, head) = chain_memory(4);
        let mut accel = accel_for(&mem, AccelConfig::default());
        let mut b = ProgramBuilder::new("wild-store", 24, 8);
        b.store(Operand::Imm(0xDEAD_0000), 0, Operand::Imm(1), Width::B8);
        b.ret(Operand::Imm(0));
        let prog = Arc::new(b.finish().unwrap());
        let code = CodeBlob::new(prog.clone());
        let pkt = IterPacket {
            id: RequestId { cpu: 0, seq: 1 },
            state: pulse_isa::IterState::new(&prog, head),
            code,
            status: IterStatus::InFlight,
            piggyback_bytes: 0,
            touched: Vec::new(),
        };
        let done = drive(&mut accel, &mut mem, vec![(SimTime::ZERO, pkt)]);
        assert_eq!(done.len(), 1);
        assert!(
            matches!(done[0].1.status, IterStatus::Faulted { .. }),
            "got {:?}",
            done[0].1.status
        );
        assert_eq!(accel.stats().faulted, 1);
        assert_eq!(accel.stats().rerouted, 0);
    }

    #[test]
    fn iteration_budget_returns_continuation() {
        let (mut mem, head) = chain_memory(64);
        let cfg = AccelConfig {
            max_iters: 16,
            ..AccelConfig::default()
        };
        let mut accel = accel_for(&mem, cfg);
        let done = drive(
            &mut accel,
            &mut mem,
            vec![(SimTime::ZERO, find_packet(head, 60, 1))],
        );
        let (_, pkt) = &done[0];
        assert_eq!(pkt.status, IterStatus::IterLimit);
        assert_eq!(pkt.state.iters_done, 16);
        // The continuation is resumable: run it again with a fresh budget.
        let mut cont = pkt.clone();
        cont.status = IterStatus::InFlight;
        let cfg2 = AccelConfig::default();
        let mut accel2 = accel_for(&mem, cfg2);
        let done2 = drive(&mut accel2, &mut mem, vec![(SimTime::ZERO, cont)]);
        assert_eq!(done2[0].1.status, IterStatus::Done { code: 0 });
        assert_eq!(done2[0].1.state.scratch_u64(8), 600);
    }

    #[test]
    fn concurrency_improves_throughput_up_to_memory_pipes() {
        // 8 concurrent 16-hop lookups on (1 logic, 2 memory) vs (1,1):
        // makespan should shrink close to 2x.
        let (mut mem, head) = chain_memory(64);
        let mk_arrivals = || {
            (0..8)
                .map(|i| (SimTime::ZERO, find_packet(head, 60, i)))
                .collect::<Vec<_>>()
        };
        let run = |org: PipelineOrg, mem: &mut ClusterMemory| {
            let cfg = AccelConfig {
                org,
                ..AccelConfig::default()
            };
            let mut accel = accel_for(mem, cfg);
            let done = drive(&mut accel, mem, mk_arrivals());
            done.iter().map(|(t, _)| *t).max().unwrap()
        };
        let t1 = run(
            PipelineOrg::Disaggregated {
                logic: 1,
                memory: 1,
            },
            &mut mem,
        );
        let t2 = run(
            PipelineOrg::Disaggregated {
                logic: 1,
                memory: 2,
            },
            &mut mem,
        );
        let t4 = run(
            PipelineOrg::Disaggregated {
                logic: 1,
                memory: 4,
            },
            &mut mem,
        );
        let s2 = t1.as_nanos_f64() / t2.as_nanos_f64();
        let s4 = t1.as_nanos_f64() / t4.as_nanos_f64();
        assert!(s2 > 1.6, "2 memory pipes speedup {s2}");
        assert!(s4 > 2.5, "4 memory pipes speedup {s4}");
        assert!(s4 > s2);
    }

    #[test]
    fn memory_pipes_saturate_under_load() {
        let (mut mem, head) = chain_memory(64);
        let cfg = AccelConfig {
            org: PipelineOrg::Disaggregated {
                logic: 1,
                memory: 2,
            },
            ..AccelConfig::default()
        };
        let mut accel = accel_for(&mem, cfg);
        let arrivals = (0..32)
            .map(|i| (SimTime::ZERO, find_packet(head, 60, i)))
            .collect();
        let done = drive(&mut accel, &mut mem, arrivals);
        let horizon = done.iter().map(|(t, _)| *t).max().unwrap();
        let util = accel.memory_utilization(horizon);
        assert!(util > 0.85, "memory pipes utilization {util}");
        // Logic pipes are mostly idle for this eta=0.07 workload.
        let lutil = accel.logic_utilization(horizon);
        assert!(lutil < 0.25, "logic utilization {lutil}");
    }

    #[test]
    fn coupled_design_is_slower_at_equal_unit_count() {
        // 2+2 disaggregated vs 2 coupled cores (same "pipeline pairs"):
        // pulse multiplexes fetch and logic of different iterators, so its
        // makespan under load is at most the coupled one.
        let (mut mem, head) = chain_memory(64);
        let arrivals = |n: u64| {
            (0..n)
                .map(|i| (SimTime::ZERO, find_packet(head, 60, i)))
                .collect::<Vec<_>>()
        };
        let cfg_d = AccelConfig {
            org: PipelineOrg::Disaggregated {
                logic: 2,
                memory: 2,
            },
            ..AccelConfig::default()
        };
        let cfg_c = AccelConfig {
            org: PipelineOrg::Coupled { cores: 2 },
            ..AccelConfig::default()
        };
        let mut a_d = accel_for(&mem, cfg_d);
        let t_d = drive(&mut a_d, &mut mem, arrivals(32))
            .iter()
            .map(|(t, _)| *t)
            .max()
            .unwrap();
        let mut a_c = accel_for(&mem, cfg_c);
        let t_c = drive(&mut a_c, &mut mem, arrivals(32))
            .iter()
            .map(|(t, _)| *t)
            .max()
            .unwrap();
        assert!(
            t_d <= t_c,
            "disaggregated {t_d} should not lag coupled {t_c}"
        );
    }

    #[test]
    fn results_identical_across_organizations() {
        // Timing differs; answers must not.
        let (mut mem, head) = chain_memory(32);
        for org in [
            PipelineOrg::Disaggregated {
                logic: 3,
                memory: 4,
            },
            PipelineOrg::Coupled { cores: 4 },
        ] {
            let cfg = AccelConfig {
                org,
                ..AccelConfig::default()
            };
            let mut accel = accel_for(&mem, cfg);
            let arrivals = (0..8)
                .map(|i| (SimTime::ZERO, find_packet(head, i * 3, i)))
                .collect();
            let done = drive(&mut accel, &mut mem, arrivals);
            for (_, pkt) in done {
                assert_eq!(pkt.status, IterStatus::Done { code: 0 });
                assert_eq!(pkt.state.scratch_u64(8), pkt.id.seq * 30);
            }
        }
    }

    /// A chain walk with an always-wrong `SPEC_HINT` (predicts the head on
    /// every hop) — every speculative fetch must squash on the prediction
    /// check.
    fn bad_hint_packet(head: u64, seq: u64) -> IterPacket {
        use pulse_dispatch::samples::hash_layout as hl;
        use pulse_isa::{Cond, Operand, ProgramBuilder};
        let mut b = ProgramBuilder::new("bad-hint", 24, 8);
        b.spec_hint(Operand::Imm(head as i64));
        let done = b.label();
        b.cmp_jump(
            Cond::Eq,
            Operand::node_u64(hl::NEXT as u16),
            Operand::Imm(0),
            done,
        );
        b.next_iter(Operand::node_u64(hl::NEXT as u16));
        b.bind(done);
        b.ret(Operand::Imm(0));
        let prog = Arc::new(b.finish().unwrap());
        let code = CodeBlob::new(prog.clone());
        IterPacket {
            id: RequestId { cpu: 0, seq },
            state: pulse_isa::IterState::new(&prog, head),
            code,
            status: IterStatus::InFlight,
            piggyback_bytes: 0,
            touched: Vec::new(),
        }
    }

    #[test]
    fn speculation_hits_on_stable_chain_and_is_faster() {
        let (mut mem, head) = chain_memory(16);
        let run = |speculate: bool, mem: &mut ClusterMemory| {
            let cfg = AccelConfig {
                speculate,
                ..AccelConfig::default()
            };
            let mut accel = accel_for(mem, cfg);
            let done = drive(
                &mut accel,
                mem,
                vec![(SimTime::ZERO, find_packet(head, 12, 1))],
            );
            (done[0].0, done[0].1.clone(), *accel.stats())
        };
        let (t_off, pkt_off, s_off) = run(false, &mut mem);
        let (t_on, pkt_on, s_on) = run(true, &mut mem);
        // Answers identical; timing strictly better (each validated
        // prefetch hides the logic + two scheduler trips of its hop).
        assert_eq!(pkt_off.status, IterStatus::Done { code: 0 });
        assert_eq!(pkt_on.status, pkt_off.status);
        assert_eq!(pkt_on.state.scratch_u64(8), pkt_off.state.scratch_u64(8));
        assert!(t_on < t_off, "spec {t_on} should beat base {t_off}");
        // Nobody writes the chain: every Continue hop's prediction
        // validates, nothing squashes.
        assert_eq!(s_off.spec_hits, 0);
        assert_eq!(s_off.mis_speculations, 0);
        assert_eq!(s_on.iterations, 13); // keys 0..=12
        assert_eq!(s_on.spec_hits, s_on.iterations - 1);
        assert_eq!(s_on.mis_speculations, 0);
        assert_eq!(s_on.components.spec_waste, SimTime::ZERO);
    }

    #[test]
    fn wrong_hint_squashes_and_charges_waste() {
        let (mut mem, head) = chain_memory(6);
        let cfg = AccelConfig {
            speculate: true,
            ..AccelConfig::default()
        };
        let mut accel = accel_for(&mem, cfg);
        let done = drive(
            &mut accel,
            &mut mem,
            vec![(SimTime::ZERO, bad_hint_packet(head, 1))],
        );
        assert_eq!(done[0].1.status, IterStatus::Done { code: 0 });
        let s = accel.stats();
        // 6 hops, 5 of them Continue; every prediction pointed at the head
        // and squashed on the pointer mismatch.
        assert_eq!(s.iterations, 6);
        assert_eq!(s.spec_hits, 0);
        assert_eq!(s.mis_speculations, 5);
        assert!(s.components.spec_waste > SimTime::ZERO);
    }

    #[test]
    fn foreign_write_between_issue_and_validate_squashes() {
        // Direct state-machine drive (no harness) so a foreign store can
        // land exactly between FetchDone (spec issue) and LogicDone
        // (validation) of one hop.
        use pulse_isa::MemBus;
        let (mut mem, head) = chain_memory(4);
        let cfg = AccelConfig {
            speculate: true,
            ..AccelConfig::default()
        };
        let mut accel = accel_for(&mem, cfg);
        let mut drv: Driver<AccelEvent> = Driver::new();
        let mut departed = Vec::new();
        let mut pending: Vec<AccelOutput> = Vec::new();
        accel.on_packet(SimTime::ZERO, find_packet(head, 3, 1), &mut pending);
        let mut wrote = false;
        loop {
            for out in pending.drain(..) {
                match out {
                    AccelOutput::Internal { at, event } => drv.schedule_at(at, event),
                    AccelOutput::Depart { at, pkt, squash } => departed.push((at, pkt, squash)),
                }
            }
            match drv.next_event() {
                Some(ev) => {
                    if !wrote && matches!(ev, AccelEvent::LogicDone { .. }) {
                        // Foreign CAS on the cell the prediction was read
                        // from: bumps its granule version, so the seqlock
                        // check must squash the in-flight prefetch.
                        let cur = mem.read_word(head, 8).unwrap();
                        mem.write_word(head, cur, 8).unwrap();
                        wrote = true;
                    }
                    accel.step(drv.now(), ev, &mut mem, &mut pending);
                }
                None => break,
            }
        }
        assert_eq!(departed.len(), 1);
        let (_, pkt, squash) = &departed[0];
        assert_eq!(pkt.status, IterStatus::Done { code: 0 });
        assert_eq!(pkt.state.scratch_u64(8), 30);
        assert!(
            accel.stats().mis_speculations >= 1,
            "foreign write must squash"
        );
        assert!(*squash > SimTime::ZERO, "squash time rides the departure");
    }

    #[test]
    fn no_spec_instruction_inhibits_prefetch() {
        use pulse_dispatch::samples::hash_layout as hl;
        use pulse_isa::{Cond, Operand, ProgramBuilder};
        let (mut mem, head) = chain_memory(6);
        let mut b = ProgramBuilder::new("no-spec-walk", 24, 8);
        b.no_spec();
        let done = b.label();
        b.cmp_jump(
            Cond::Eq,
            Operand::node_u64(hl::NEXT as u16),
            Operand::Imm(0),
            done,
        );
        b.next_iter(Operand::node_u64(hl::NEXT as u16));
        b.bind(done);
        b.ret(Operand::Imm(0));
        let prog = Arc::new(b.finish().unwrap());
        let pkt = IterPacket {
            id: RequestId { cpu: 0, seq: 1 },
            state: pulse_isa::IterState::new(&prog, head),
            code: CodeBlob::new(prog.clone()),
            status: IterStatus::InFlight,
            piggyback_bytes: 0,
            touched: Vec::new(),
        };
        let cfg = AccelConfig {
            speculate: true,
            ..AccelConfig::default()
        };
        let mut accel = accel_for(&mem, cfg);
        let done = drive(&mut accel, &mut mem, vec![(SimTime::ZERO, pkt)]);
        assert_eq!(done[0].1.status, IterStatus::Done { code: 0 });
        assert_eq!(accel.stats().spec_hits, 0);
        assert_eq!(accel.stats().mis_speculations, 0);
    }

    #[test]
    fn batching_fuses_local_hops_and_is_faster() {
        let (mut mem, head) = chain_memory(8);
        let run = |batch_hops: u32, mem: &mut ClusterMemory| {
            let cfg = AccelConfig {
                batch_hops,
                ..AccelConfig::default()
            };
            let mut accel = accel_for(mem, cfg);
            let done = drive(
                &mut accel,
                mem,
                vec![(SimTime::ZERO, find_packet(head, 5, 1))],
            );
            (done[0].0, done[0].1.clone(), *accel.stats())
        };
        let (t_base, pkt_base, s_base) = run(1, &mut mem);
        let (t_fused, pkt_fused, s_fused) = run(4, &mut mem);
        assert_eq!(pkt_base.status, IterStatus::Done { code: 0 });
        assert_eq!(pkt_fused.status, pkt_base.status);
        assert_eq!(pkt_fused.state.scratch_u64(8), 50);
        // Same iteration count, but 6 hops fuse into 4+2 transactions: 4 of
        // them ride an open membus transaction instead of paying full t_d.
        assert_eq!(s_base.batched_hops, 0);
        assert_eq!(s_fused.iterations, s_base.iterations);
        assert_eq!(s_fused.batched_hops, 4);
        assert!(
            t_fused < t_base,
            "batched {t_fused} should beat unbatched {t_base}"
        );
    }

    #[test]
    fn spec_and_batching_compose_without_changing_answers() {
        let (mut mem, head) = chain_memory(32);
        let run = |cfg: AccelConfig, mem: &mut ClusterMemory| {
            let mut accel = accel_for(mem, cfg);
            let arrivals = (0..8)
                .map(|i| (SimTime::ZERO, find_packet(head, i * 3, i)))
                .collect();
            drive(&mut accel, mem, arrivals)
        };
        let base = run(AccelConfig::default(), &mut mem);
        let fast = run(
            AccelConfig {
                speculate: true,
                batch_hops: 4,
                ..AccelConfig::default()
            },
            &mut mem,
        );
        for ((_, b), (_, f)) in base.iter().zip(&fast) {
            assert_eq!(b.id, f.id);
            assert_eq!(b.status, f.status);
            assert_eq!(b.state.scratch_u64(8), f.state.scratch_u64(8));
        }
    }

    /// What a test's event queue holds: an accelerator event, or a
    /// departure (described), which the cluster queues as its first hop.
    #[derive(Debug)]
    enum Queued {
        Accel(AccelEvent),
        Depart(String),
    }

    /// Puts one output onto `drv`, logging it in `scheduled`.
    fn schedule(
        drv: &mut Driver<Queued>,
        scheduled: &mut Vec<(SimTime, String)>,
        out: AccelOutput,
    ) {
        scheduled.push(output(&out));
        match out {
            AccelOutput::Internal { at, event } => drv.schedule_at(at, Queued::Accel(event)),
            AccelOutput::Depart { at, pkt, squash } => {
                drv.schedule_at(at, Queued::Depart(departure(&pkt, squash)))
            }
        }
    }

    /// A sink shaped like the cluster's: internal events go straight onto
    /// the queue until the call's first departure, and every output from
    /// there on waits in `deferred`. `made` logs each output as it comes;
    /// `late` counts the internal events that had to wait.
    struct Split<'a> {
        drv: &'a mut Driver<Queued>,
        scheduled: &'a mut Vec<(SimTime, String)>,
        deferred: &'a mut Vec<AccelOutput>,
        made: &'a mut Vec<(SimTime, String)>,
        late: &'a mut usize,
    }

    impl AccelSink for Split<'_> {
        fn internal(&mut self, at: SimTime, event: AccelEvent) {
            let out = AccelOutput::Internal { at, event };
            self.made.push(output(&out));
            if self.deferred.is_empty() {
                schedule(self.drv, self.scheduled, out);
            } else {
                *self.late += 1;
                self.deferred.push(out);
            }
        }

        fn depart(&mut self, at: SimTime, pkt: IterPacket, squash: SimTime) {
            let out = AccelOutput::Depart { at, pkt, squash };
            self.made.push(output(&out));
            self.deferred.push(out);
        }
    }

    fn departure(pkt: &IterPacket, squash: SimTime) -> String {
        let state = (
            pkt.state.cur_ptr,
            pkt.state.iters_done,
            pkt.state.scratch_u64(8),
        );
        format!("depart {} {:?} {state:?} {squash}", pkt.id, pkt.status)
    }

    fn output(out: &AccelOutput) -> (SimTime, String) {
        match out {
            AccelOutput::Internal { at, event } => (*at, format!("{event:?}")),
            AccelOutput::Depart { at, pkt, squash } => (*at, departure(pkt, *squash)),
        }
    }

    /// One run's record: outputs in the order the accelerator made them,
    /// in the order they entered the queue, and the queue's firing order.
    #[derive(Debug, Default, PartialEq)]
    struct Record {
        made: Vec<(SimTime, String)>,
        scheduled: Vec<(SimTime, String)>,
        fired: Vec<(SimTime, String)>,
    }

    /// One accelerator call's input.
    enum Input {
        Packet(IterPacket),
        Event(AccelEvent),
    }

    fn call(
        accel: &mut Accelerator,
        mem: &mut ClusterMemory,
        now: SimTime,
        input: Input,
        out: &mut impl AccelSink,
    ) {
        match input {
            Input::Packet(pkt) => accel.on_packet(now, pkt, out),
            Input::Event(ev) => accel.step(now, ev, mem, out),
        }
    }

    /// Pops `drv` up to its next accelerator event, logging what fires;
    /// departures fire here, as the cluster's first hop would.
    fn next_accel_event(
        drv: &mut Driver<Queued>,
        fired: &mut Vec<(SimTime, String)>,
    ) -> Option<AccelEvent> {
        loop {
            match drv.next_event()? {
                Queued::Accel(ev) => {
                    fired.push((drv.now(), format!("{ev:?}")));
                    return Some(ev);
                }
                Queued::Depart(d) => fired.push((drv.now(), d)),
            }
        }
    }

    /// Runs the sink-order scenario with `split` choosing the sink: the
    /// cluster-shaped [`Split`] sink, or a `Vec` whose outputs are queued
    /// after each call. Also returns [`Split`]'s `late` count.
    fn sink_order_run(split: bool) -> (Record, Accelerator, usize) {
        let (mut mem, head) = chain_memory(16);
        let cfg = AccelConfig {
            org: PipelineOrg::Disaggregated {
                logic: 1,
                memory: 1,
            },
            batch_hops: 4,
            ..AccelConfig::default()
        };
        let mut accel = accel_for(&mem, cfg);
        let mut drv: Driver<Queued> = Driver::new();
        let mut rec = Record::default();
        let mut outs: Vec<AccelOutput> = Vec::new();
        let mut late = 0;
        let mut arrivals = (0..6).map(|i| Input::Packet(find_packet(head, 5 + i, i)));
        while let Some(input) = arrivals
            .next()
            .or_else(|| next_accel_event(&mut drv, &mut rec.fired).map(Input::Event))
        {
            let now = drv.now();
            if split {
                let mut sink = Split {
                    drv: &mut drv,
                    scheduled: &mut rec.scheduled,
                    deferred: &mut outs,
                    made: &mut rec.made,
                    late: &mut late,
                };
                call(&mut accel, &mut mem, now, input, &mut sink);
            } else {
                call(&mut accel, &mut mem, now, input, &mut outs);
                rec.made.extend(outs.iter().map(output));
            }
            for out in outs.drain(..) {
                schedule(&mut drv, &mut rec.scheduled, out);
            }
        }
        (rec, accel, late)
    }

    #[test]
    fn split_sink_makes_the_vec_sinks_outputs_in_its_order() {
        // Multi-hop packets with hop batching on, two workspaces and six
        // requests, so departures admit backlogged requests in the same
        // call and that call's later internal events must queue behind
        // the departure. A cluster-shaped sink and a `Vec` sink must make,
        // queue and fire the same `(at, output)` sequence.
        let (vec_rec, _, _) = sink_order_run(false);
        let (split_rec, accel, late) = sink_order_run(true);
        assert_eq!(split_rec.made, vec_rec.made, "outputs diverged");
        assert_eq!(
            split_rec.scheduled, vec_rec.scheduled,
            "queued out of order"
        );
        assert_eq!(
            split_rec.fired, vec_rec.fired,
            "the queues fired differently"
        );
        assert!(accel.stats().batched_hops > 0, "batching never fired");
        let departs = |r: &Record| {
            r.fired
                .iter()
                .filter(|(_, o)| o.starts_with("depart"))
                .count()
        };
        assert_eq!(departs(&vec_rec), 6);
        // The case the deferral exists for: an internal event made after a
        // departure in the same call.
        assert!(late > 0, "no internal event followed a departure");
    }

    #[test]
    fn backlog_drains_in_fifo_order() {
        let (mut mem, head) = chain_memory(16);
        // 1+1 pipes, 2 workspaces, 6 requests: 4 must queue.
        let cfg = AccelConfig {
            org: PipelineOrg::Disaggregated {
                logic: 1,
                memory: 1,
            },
            ..AccelConfig::default()
        };
        let mut accel = accel_for(&mem, cfg);
        let arrivals = (0..6)
            .map(|i| (SimTime::ZERO, find_packet(head, 10, i)))
            .collect();
        let done = drive(&mut accel, &mut mem, arrivals);
        assert_eq!(done.len(), 6);
        let seqs: Vec<u64> = done.iter().map(|(_, p)| p.id.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "identical requests complete in order");
    }
}
