//! The interconnect simulation engines.
//!
//! Two engines share one timing model — input-buffered routers with
//! per-ingress virtual-channel FIFOs, credit-based backpressure per
//! `(ingress, VC)` lane, per-output arbitration (VC round-robin nested in
//! the configured policy), link serialization by packet size,
//! deterministic routing and VC assignment from the
//! [`crate::topology::Topology`], and multicast branch splitting by
//! `(egress port, VC)`:
//!
//! * [`NocSim`] — the **event-driven** production engine. Wakes are
//!   tracked at **(router, output-port) pair** granularity by
//!   [`crate::sched::PortSched`]: an arrival heap keyed by
//!   `(cycle, seq)` plus the injection cursor decide *which cycles* run,
//!   and within an attended cycle a deduplicated ready-set of pair ids
//!   decides *which ports* are examined — a port is visited only when
//!   something that could enable it changed. Runtime scales with the
//!   number of events (injections, hops, head changes, credit releases),
//!   not with simulated cycles × routers × ports — which is what keeps
//!   dense saturated bursts fast, not just sparse spike traffic.
//! * [`oracle::CycleSim`] — the **cycle-driven reference oracle**: the
//!   original engine advancing one cycle at a time and sweeping every
//!   router. Slow but simple enough to audit; the differential test suite
//!   (`tests/noc_properties.rs`) holds the event engine to byte-identical
//!   [`NocStats`] and delivery logs against it.
//!
//! # The per-port wake invariant, and why the outputs are identical
//!
//! In the oracle, output port `o` of router `r` forwards at cycle `t`
//! exactly when, at `r`'s position in the cycle-`t` sweep, three
//! conditions meet: the port is **idle** (`busy_until[o] <= t`), some
//! FIFO head at `r` **wants** an `(o, w)` slot, and the downstream
//! `(ingress, w)` lane has a **free credit**. The event engine gives every
//! pair the dense id `port_base[r] + o`, so ascending pair id *is* the
//! oracle's sweep order, and maintains:
//!
//! > every transition that can switch a pair's three-way conjunction from
//! > false to true schedules a wake for exactly that pair, at exactly the
//! > first cycle and sweep position at which the oracle could act on it.
//!
//! Case by case: **busy → idle** — every forward schedules the pair's own
//! busy expiry at `now + flits`; **want 0 → 1** — a packet becoming a
//! lane head (arrival or injection into an empty lane, or a pop exposing
//! the next packet) installs its route mask and wakes each newly wanted
//! pair; **credit full → free** — a pair that examines a wanted-but-full
//! `(o, w)` sets a *blocked* bit (the wanted-port reverse index), and the
//! full→free transition on that downstream lane (arrival fully stripped,
//! or the downstream head popped) clears the bit and wakes only the
//! blocked upstream pair. The blocked bit cannot go stale: while the
//! credit is full the wanting head cannot leave through `(o, w)`, so the
//! want count stays positive until the very transition that clears the
//! bit. A woken pair that turns out busy is covered by its expiry; one
//! that finds a full credit re-arms its blocked bit — so the invariant is
//! self-sustaining.
//!
//! In-cycle ordering matches the oracle because wakes are
//! position-aware: a wake raised while the sweep is at pair `P` targets
//! pair `q > P` in *this* cycle's ready heap (the oracle's later sweep
//! positions see in-cycle changes), targets `q < P` at `now + 1` (the
//! oracle re-sees it next cycle), and skips `q == P` (that pair just
//! forwarded; its busy expiry re-examines it). Ready-heap pops are
//! therefore strictly ascending within a cycle — the sweep order — and a
//! membership bitset dedups wakes so saturated drains cannot grow the
//! queues past the pair count. Pairs never woken are provable no-ops,
//! skipped cycles change no state, and both engines walk the same state
//! trajectory — bit-for-bit, including round-robin cursors, credit
//! occupancy, and the per-VC counters.
//!
//! Virtual channels do not weaken the argument: the added state (per-VC
//! credits, per-port VC cursors, per-VC statistics) also only changes at
//! forwards and arrivals, both of which schedule wakes, and the VC
//! assignment is a pure function of `(router, destination)` — nothing
//! time-dependent enters the arbitration beyond what already did.

use crate::config::NocConfig;
use crate::error::NocError;
use crate::keys::{sort_keys, with_words, KeyLayout};
use crate::packet::Packet;
use crate::router::pick_vc;
use crate::sched::{PortSched, TreeTable, PRE_SWEEP};
use crate::stats::{Counters, Delivery, NocStats, SchedCounters, SimTrace, VcCounters};
use crate::topology::{RouteLut, Topology};
use crate::trace::{TraceBuf, TraceEvent};
use crate::traffic::FlowSet;
use neuromap_hw::energy::EnergyModel;
use std::collections::{HashMap, VecDeque};

pub mod oracle;

/// Selects which interconnect engine a caller drives.
///
/// The engines are output-identical; the choice only trades speed
/// ([`EngineKind::EventDriven`]) against auditability
/// ([`EngineKind::CycleOracle`], useful for cross-checking and debugging).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The event-driven production engine ([`NocSim`]).
    #[default]
    EventDriven,
    /// The cycle-driven reference oracle ([`oracle::CycleSim`]).
    CycleOracle,
}

/// A packet in transit on a link, due to arrive at a router.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Arrival {
    pub(crate) cycle: u64,
    pub(crate) seq: u64,
    pub(crate) router: usize,
    /// FIFO *lane* on the receiving router ([`lane`]:
    /// `1 + ingress_port * vc_count + vc`). The lane identifies both
    /// which per-VC FIFO the packet enters and which credit it holds.
    pub(crate) ingress: usize,
    pub(crate) packet: Packet,
}

/// Event-engine arrival: like [`Arrival`] but carrying a slab id instead
/// of the packet, so the arrival queue and the FIFOs move 4-byte handles
/// while the packets themselves stay put in the schedule slab.
struct EvArrival {
    cycle: u64,
    router: usize,
    /// FIFO lane on the receiving router (see [`Arrival::ingress`]).
    ingress: usize,
    pid: u32,
}

/// FIFO-lane index of `(ingress port position, virtual channel)`; lane 0
/// is the VC-less local-injection queue. With one VC this is the classic
/// `1 + position` ingress index, so the layout (and therefore every
/// cursor and credit index) is bit-compatible with the pre-VC engines.
pub(crate) fn lane(position: usize, vc: usize, vc_count: usize) -> usize {
    1 + position * vc_count + vc
}

impl Ord for Arrival {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.cycle, self.seq).cmp(&(other.cycle, other.seq))
    }
}

impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The SNN duration [`NocSim::run`] assumes: one past the last send step
/// (at least 1).
pub(crate) fn inferred_duration(flows: &FlowSet) -> u32 {
    flows.send_steps().iter().map(|&s| s + 1).max().unwrap_or(1)
}

/// Rejects flows naming crossbars the topology does not serve. The error
/// names the first bad crossbar in flow order (each flow's destinations,
/// then its source).
pub(crate) fn validate_flows(topo: &dyn Topology, flows: &FlowSet) -> Result<(), NocError> {
    let nc = topo.num_crossbars();
    let bad = flows
        .iter()
        .flat_map(|f| {
            f.dst_crossbars
                .iter()
                .copied()
                .chain(std::iter::once(f.src_crossbar))
        })
        .find(|&c| c as usize >= nc);
    match bad {
        None => Ok(()),
        Some(crossbar) => Err(NocError::UnknownCrossbar {
            crossbar,
            available: nc,
        }),
    }
}

/// What a scheduled packet carries besides its destinations.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpikeHeader {
    /// Position of the spike in canonical injection order (stable across
    /// multicast splits; dense `0..spikes`).
    pub(crate) spike_id: u32,
    pub(crate) source_neuron: u32,
    pub(crate) src_crossbar: u32,
    pub(crate) send_step: u32,
    /// Cycle at which the packet enters the network (after AER encoding).
    pub(crate) inject_cycle: u64,
}

/// A scheduled packet: its header plus the range
/// `start..start + len` of its remaining destinations in the
/// [`Schedule`]'s shared arena. The range belongs to this packet alone,
/// so stripping or splitting destinations compacts it in place.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArenaPacket {
    pub(crate) head: SpikeHeader,
    pub(crate) start: u32,
    pub(crate) len: u32,
}

impl ArenaPacket {
    pub(crate) fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// An injection schedule: packets in inject order, with every packet's
/// destinations in one arena — no allocation per packet.
#[derive(Debug)]
pub(crate) struct Schedule {
    pub(crate) packets: Vec<ArenaPacket>,
    pub(crate) dests: Vec<u32>,
}

/// `len` as an arena index.
///
/// # Panics
///
/// Panics past 2³² entries.
pub(crate) fn arena_index(len: usize) -> u32 {
    u32::try_from(len).expect("destination arena holds < 2^32 entries")
}

/// Field positions of the canonical flow key.
const FLOW_MULTI: usize = 4;
const FLOW_INDEX: usize = 5;

/// Indices of the flows that have destinations, in the canonical
/// injection order of [`crate::traffic::canonical_cmp`]: send step,
/// source crossbar, source neuron, destination set, then flow index.
///
/// The flow index is a stable tiebreak: flows tied on everything else
/// are byte-equal and inject identically either way. A flow's first
/// destination and a multi-destination flag sit in the packed key, which
/// settles the destination-set order of every unicast flow: `[d]` sorts
/// before `[d, ..]` and like `d` against any other set. Only runs of
/// multi-destination flows equal in step, source, neuron and first
/// destination need the full set comparison afterwards.
fn canonical_order(flows: &FlowSet) -> Vec<u32> {
    let max = |s: &[u32]| u64::from(s.iter().copied().max().unwrap_or(0));
    let layout = KeyLayout::new([
        max(flows.send_steps()),
        max(flows.src_crossbars()),
        max(flows.source_neurons()),
        max(flows.all_dests()),
        1,
        flows.len() as u64,
    ]);
    with_words!(layout, W => canonical_order_w::<W>(flows, &layout))
}

fn canonical_order_w<const W: usize>(flows: &FlowSet, layout: &KeyLayout<6>) -> Vec<u32> {
    let (steps, srcs, neurons) = (
        flows.send_steps(),
        flows.src_crossbars(),
        flows.source_neurons(),
    );
    let mut keys: Vec<[u64; W]> = (0..flows.len())
        .filter_map(|i| {
            let dests = flows.dests(i);
            Some(layout.pack([
                u64::from(steps[i]),
                u64::from(srcs[i]),
                u64::from(neurons[i]),
                u64::from(*dests.first()?),
                u64::from(dests.len() > 1),
                i as u64,
            ]))
        })
        .collect();
    sort_keys(&mut keys);
    let mut order: Vec<u32> = keys
        .iter()
        .map(|k| layout.field(k, FLOW_INDEX) as u32)
        .collect();
    let mut s = 0;
    while s < keys.len() {
        if layout.field(&keys[s], FLOW_MULTI) == 0 {
            s += 1;
            continue;
        }
        let tie = layout.without(keys[s], FLOW_INDEX);
        let mut e = s + 1;
        while e < keys.len() && layout.without(keys[e], FLOW_INDEX) == tie {
            e += 1;
        }
        // stable: the run is in flow-index order, so equal sets keep it
        order[s..e].sort_by(|&a, &b| flows.dests(a as usize).cmp(flows.dests(b as usize)));
        s = e;
    }
    order
}

/// Expands flows into an injection schedule: canonical AER-encoder order,
/// one packet per crossbar per cycle. Shared by both engines so the
/// schedules they simulate are one and the same.
///
/// Spikes take their canonical position ([`canonical_order`]) as spike
/// id. Each crossbar's encoder emits one packet per cycle from the start
/// of the spike's step window, so a packet's inject cycle is
/// `step × cycles_per_step + rank`, its rank counting the packets its
/// crossbar already emitted in that window (one per spike under
/// multicast, one per destination otherwise). Packets are then ordered by
/// `(inject cycle, source crossbar, source neuron, generation)`, the
/// generation being the packet's creation index — a sort of one packed
/// integer key per packet ([`crate::keys`]). Finally every packet is
/// materialized once, in that order, with its destinations copied into
/// the schedule's arena.
///
/// Cost: two sorts of packed keys (flows, then packets), plus a
/// comparator sort of multi-destination flows tied on their first
/// destination; no allocation per flow or packet.
pub(crate) fn build_schedule(topo: &dyn Topology, config: &NocConfig, flows: &FlowSet) -> Schedule {
    let order = canonical_order(flows);
    let n_slots = if config.multicast {
        order.len()
    } else {
        flows.dest_count()
    };
    let max = |s: &[u32]| u64::from(s.iter().copied().max().unwrap_or(0));
    // an inject cycle is at most the last window's start plus one cycle
    // per packet
    let max_inject = max(flows.send_steps())
        .saturating_mul(config.cycles_per_step)
        .saturating_add(n_slots as u64);
    let layout = KeyLayout::new([
        max_inject,
        max(flows.src_crossbars()),
        max(flows.source_neurons()),
        n_slots as u64,
    ]);
    with_words!(layout, W => {
        schedule_w::<W>(topo.num_crossbars(), config, flows, &order, n_slots, &layout)
    })
}

fn schedule_w<const W: usize>(
    num_crossbars: usize,
    config: &NocConfig,
    flows: &FlowSet,
    order: &[u32],
    n_slots: usize,
    layout: &KeyLayout<4>,
) -> Schedule {
    let mut slots: Vec<[u64; W]> = Vec::with_capacity(n_slots);
    // (spike id, flow index, destination index) per generation
    let mut meta: Vec<(u32, u32, u32)> = Vec::with_capacity(n_slots);
    // per-crossbar rank within the current step window
    let mut rank: Vec<u64> = vec![0; num_crossbars];
    let mut current_step = u32::MAX;
    for (spike_id, &fi) in order.iter().enumerate() {
        let f = flows.get(fi as usize);
        if f.send_step != current_step {
            current_step = f.send_step;
            rank.iter_mut().for_each(|r| *r = 0);
        }
        let base = u64::from(f.send_step) * config.cycles_per_step;
        let n_dests = if config.multicast {
            1
        } else {
            f.dst_crossbars.len()
        };
        for di in 0..n_dests as u32 {
            let r = &mut rank[f.src_crossbar as usize];
            slots.push(layout.pack([
                base + *r,
                u64::from(f.src_crossbar),
                u64::from(f.source_neuron),
                meta.len() as u64,
            ]));
            meta.push((spike_id as u32, fi, di));
            *r += 1;
        }
    }
    sort_keys(&mut slots);

    let mut packets = Vec::with_capacity(n_slots);
    let mut dests = Vec::with_capacity(if config.multicast {
        flows.dest_count()
    } else {
        n_slots
    });
    for key in &slots {
        let (spike_id, fi, di) = meta[layout.field(key, 3) as usize];
        let f = flows.get(fi as usize);
        let start = arena_index(dests.len());
        if config.multicast {
            dests.extend_from_slice(f.dst_crossbars);
        } else {
            dests.push(f.dst_crossbars[di as usize]);
        }
        packets.push(ArenaPacket {
            head: SpikeHeader {
                spike_id,
                source_neuron: layout.field(key, 2) as u32,
                src_crossbar: layout.field(key, 1) as u32,
                send_step: f.send_step,
                inject_cycle: layout.field(key, 0),
            },
            start,
            len: arena_index(dests.len()) - start,
        });
    }
    Schedule { packets, dests }
}

/// Delivers (and removes) every destination in `dests` hosted at
/// `router`, compacting the rest to the front of the slice in their
/// original order; returns how many remain. With tracing on, each
/// delivery also emits a [`TraceEvent::Delivered`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn strip_local(
    hosted: &[u32],
    topo: &dyn Topology,
    router: usize,
    head: &SpikeHeader,
    dests: &mut [u32],
    now: u64,
    deliveries: &mut Vec<Delivery>,
    mut events: Option<&mut TraceBuf>,
) -> usize {
    debug_assert!(hosted.iter().all(|&k| topo.endpoint(k) == router));
    if dests.iter().all(|d| !hosted.contains(d)) {
        return dests.len();
    }
    let mut kept = 0;
    for i in 0..dests.len() {
        let d = dests[i];
        if hosted.contains(&d) {
            deliveries.push(Delivery::new(
                head.source_neuron,
                head.src_crossbar,
                d,
                head.send_step,
                head.inject_cycle,
                now,
            ));
            if let Some(t) = events.as_deref_mut() {
                t.push(TraceEvent::Delivered {
                    cycle: now,
                    spike_id: u64::from(head.spike_id),
                    router: router as u32,
                    dst_crossbar: d,
                });
            }
        } else {
            dests[kept] = d;
            kept += 1;
        }
    }
    kept
}

/// Builds the Steiner-tree routing table for a schedule, or `None` when
/// tree routing is off (unicast clones, or [`NocConfig::multicast_trees`]
/// unset) — in which case both engines fall back to the
/// destination-indexed unicast route masks, bit-identical to the
/// pre-tree behavior.
///
/// In multicast mode the schedule carries exactly one packet per spike
/// with dense `spike_id`s (`0..packets.len()`), so the table is indexed
/// directly by spike id. Packets sharing a source crossbar and a
/// destination list share a tree: each distinct `(source, destinations)`
/// key is routed once ([`tree_entries`]) through a per-call map that
/// borrows the schedule's destination slices, and every spike records
/// its key's tree index. Shared by both engines so they consume the same
/// trees.
pub(crate) fn build_tree_table(
    topo: &dyn Topology,
    config: &NocConfig,
    schedule: &Schedule,
) -> Option<TreeTable> {
    if !(config.multicast && config.multicast_trees) {
        return None;
    }
    let mut table = TreeTable::with_spikes(schedule.packets.len());
    let mut trees: HashMap<(u32, &[u32]), u32> = HashMap::new();
    let mut raw = Vec::new();
    for p in &schedule.packets {
        let src = p.head.src_crossbar;
        let dests = &schedule.dests[p.range()];
        let tree = *trees.entry((src, dests)).or_insert_with(|| {
            raw.clear();
            tree_entries(topo, config.vc_count, src, dests, &mut raw);
            table.push_tree(&mut raw)
        });
        table.assign(p.head.spike_id as usize, tree);
    }
    Some(table)
}

/// Appends the routing entries of one multicast tree to `out`: each
/// destination's tree path is walked from the source router, and every
/// hop records `(router, dest) → port * vc_count + vc` with the port
/// found by position in [`Topology::neighbors`] — tree hops need not
/// follow the unicast shortest path, so the route LUT cannot be used
/// here.
fn tree_entries(
    topo: &dyn Topology,
    vcs: usize,
    src: u32,
    dests: &[u32],
    out: &mut Vec<(u64, u16)>,
) {
    let src_router = topo.endpoint(src);
    let dest_routers: Vec<usize> = dests.iter().map(|&d| topo.endpoint(d)).collect();
    let paths = topo.multicast_route(src_router, &dest_routers, vcs);
    for (path, &d) in paths.iter().zip(dests) {
        let mut cur = src_router;
        for &(next, vc) in path {
            let port = topo
                .neighbors(cur)
                .iter()
                .position(|&n| n == next)
                .expect("tree hop must traverse a link of the topology");
            out.push((
                ((cur as u64) << 32) | u64::from(d),
                (port * vcs + vc) as u16,
            ));
            cur = next;
        }
        debug_assert_eq!(
            cur,
            topo.endpoint(d),
            "tree path must end at the dest router"
        );
    }
}

/// Per-router runtime state.
struct RouterState {
    /// Input FIFO lanes: lane 0 = local injection, then one lane per
    /// `(ingress port, VC)` pair in [`lane`] order. Lanes queue slab ids
    /// ([`EvArrival::pid`]); the packets live in the schedule slab.
    fifos: Vec<VecDeque<u32>>,
    /// Arbitration cursor per `(output port, VC)`:
    /// `rr_cursor[o * vc_count + vc]`, over FIFO-lane indices.
    rr_cursor: Vec<usize>,
    /// Round-robin cursor over VCs, per output port.
    vc_cursor: Vec<usize>,
    /// Output port busy (serializing) until this cycle (exclusive).
    busy_until: Vec<u64>,
    /// Credits consumed on each ingress FIFO lane of *this* router
    /// (occupancy + packets already in flight toward it).
    credits_used: Vec<usize>,
    /// Packets currently queued across this router's FIFOs.
    queued: usize,
}

/// The event-driven interconnect simulator.
///
/// See the crate-level docs for a usage example, and the module docs for
/// the event model and its equivalence argument against
/// [`oracle::CycleSim`].
pub struct NocSim {
    topo: std::sync::Arc<dyn Topology>,
    config: NocConfig,
    energy: EnergyModel,
    /// Event trace of the last successful run, present iff
    /// [`NocConfig::trace`] was set. See [`NocSim::take_trace`].
    trace: Option<TraceBuf>,
}

impl std::fmt::Debug for NocSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NocSim")
            .field("topology", &self.topo.name())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl NocSim {
    /// Creates a simulator over a topology with the given configuration and
    /// energy model.
    pub fn new(topo: Box<dyn Topology>, config: NocConfig, energy: EnergyModel) -> Self {
        Self::shared(std::sync::Arc::from(topo), config, energy)
    }

    /// Like [`NocSim::new`], but over a *shared* topology: the mapping
    /// pipeline's sweep stages build each router graph once and hand the
    /// same `Arc` to every simulator instance instead of re-deriving the
    /// topology per sweep point.
    pub fn shared(
        topo: std::sync::Arc<dyn Topology>,
        config: NocConfig,
        energy: EnergyModel,
    ) -> Self {
        Self {
            topo,
            config,
            energy,
            trace: None,
        }
    }

    /// The topology in use.
    pub fn topology(&self) -> &dyn Topology {
        self.topo.as_ref()
    }

    /// Takes the structured event trace of the last successful run.
    ///
    /// `Some` iff [`NocConfig::trace`] was set and the last run
    /// succeeded; taking it leaves `None` until the next traced run.
    pub fn take_trace(&mut self) -> Option<TraceBuf> {
        self.trace.take()
    }

    /// Runs the flows to completion and returns aggregate statistics.
    /// The SNN duration is inferred from the last send step.
    ///
    /// # Errors
    ///
    /// * [`NocError::InvalidConfig`] for invalid configurations.
    /// * [`NocError::UnknownCrossbar`] for flows naming absent crossbars.
    /// * [`NocError::CycleBudgetExhausted`] if traffic cannot drain.
    pub fn run(&mut self, flows: &FlowSet) -> Result<NocStats, NocError> {
        self.run_with_duration(flows, inferred_duration(flows))
            .map(|(stats, _)| stats)
    }

    /// Like [`NocSim::run`], but with an explicit SNN duration (timesteps)
    /// and returning the raw delivery log alongside the statistics.
    ///
    /// # Errors
    ///
    /// Same as [`NocSim::run`].
    pub fn run_with_duration(
        &mut self,
        flows: &FlowSet,
        duration_steps: u32,
    ) -> Result<(NocStats, Vec<Delivery>), NocError> {
        self.execute(flows, duration_steps, None)
    }

    /// Like [`NocSim::run_with_duration`], but also returning the
    /// scheduler trace ([`SimTrace`]): the attended cycles, the
    /// forward-progress cycles, and the [`SchedCounters`]. The liveness
    /// and wake-bound properties in `tests/noc_properties.rs` compare
    /// these against [`oracle::CycleSim::run_traced`].
    ///
    /// # Errors
    ///
    /// Same as [`NocSim::run`] (the trace is lost on error).
    pub fn run_traced(
        &mut self,
        flows: &FlowSet,
        duration_steps: u32,
    ) -> Result<(NocStats, Vec<Delivery>, SimTrace), NocError> {
        let mut trace = SimTrace::default();
        let (stats, deliveries) = self.execute(flows, duration_steps, Some(&mut trace))?;
        Ok((stats, deliveries, trace))
    }

    /// Validates, schedules, simulates and summarizes one run.
    fn execute(
        &mut self,
        flows: &FlowSet,
        duration_steps: u32,
        mut trace: Option<&mut SimTrace>,
    ) -> Result<(NocStats, Vec<Delivery>), NocError> {
        self.config.validate()?;
        validate_flows(self.topo.as_ref(), flows)?;
        let schedule = build_schedule(self.topo.as_ref(), &self.config, flows);
        self.trace = None;
        let mut events = self.config.trace.then(|| TraceBuf::new(&self.config));
        let (deliveries, counters, per_vc, sched) =
            self.simulate(schedule, trace.as_deref_mut(), events.as_mut())?;
        self.trace = events;
        if let Some(t) = trace {
            t.sched = sched;
        }
        let mut stats = NocStats::from_deliveries(
            &deliveries,
            counters,
            &self.energy,
            self.config.flits_per_packet,
            duration_steps,
            self.config.cycles_per_step,
        )
        .with_per_vc(per_vc);
        if self.config.sched_stats {
            stats = stats.with_sched(sched);
        }
        Ok((stats, deliveries))
    }

    /// The event-driven main loop.
    #[allow(clippy::type_complexity)]
    fn simulate(
        &self,
        schedule: Schedule,
        mut trace: Option<&mut SimTrace>,
        mut events: Option<&mut TraceBuf>,
    ) -> Result<(Vec<Delivery>, Counters, Vec<VcCounters>, SchedCounters), NocError> {
        let cfg = &self.config;
        let topo = self.topo.as_ref();
        let nr = topo.num_routers();
        let lut = RouteLut::new(topo);
        let vcs = cfg.vc_count;
        let nc = topo.num_crossbars();

        // crossbar → hosting router, and the reverse for arrival stripping
        let endpoint_of: Vec<usize> = (0..nc as u32).map(|k| topo.endpoint(k)).collect();
        let mut hosted: Vec<Vec<u32>> = vec![Vec::new(); nr];
        for (k, &r) in endpoint_of.iter().enumerate() {
            hosted[r].push(k as u32);
        }

        // per-router egress ports: (neighbor, our port position on the
        // neighbor — the downstream lane is derived per VC via `lane`)
        let ports: Vec<Vec<(usize, usize)>> = (0..nr)
            .map(|r| {
                topo.neighbors(r)
                    .iter()
                    .map(|&nbr| {
                        let down_pos = topo
                            .neighbors(nbr)
                            .iter()
                            .position(|&x| x == r)
                            .expect("links are bidirectional");
                        (nbr, down_pos)
                    })
                    .collect()
            })
            .collect();

        // flattened (router, dest crossbar) → wanted (egress port, VC) bit
        // table: one load replaces a route-LUT walk plus a VC-table walk
        // everywhere the engine asks "which (o, w) does dest d leave by".
        // Entries for locally hosted crossbars are never read: arrival
        // stripping removes local dests before any head is installed.
        let mut dest_bit: Vec<u16> = Vec::with_capacity(nr * nc);
        for r in 0..nr {
            for &er in endpoint_of.iter().take(nc) {
                if er == r {
                    dest_bit.push(0);
                } else {
                    let hv = if vcs == 1 { 0 } else { topo.hop_vc(r, er, vcs) };
                    dest_bit.push((lut.egress_port(r, er) as usize * vcs + hv) as u16);
                }
            }
        }
        // per-spike Steiner-tree table (None ⇒ unicast-route masks above)
        let tree = build_tree_table(topo, cfg, &schedule);
        let mut sched = PortSched::new(&ports, vcs, dest_bit, nc, tree);

        let mut routers: Vec<RouterState> = (0..nr)
            .map(|r| {
                let deg = ports[r].len();
                RouterState {
                    fifos: vec![VecDeque::new(); 1 + deg * vcs],
                    rr_cursor: vec![0; deg * vcs],
                    vc_cursor: vec![0; deg],
                    busy_until: vec![0; deg],
                    credits_used: vec![0; 1 + deg * vcs],
                    queued: 0,
                }
            })
            .collect();

        // (port, VC) lanes a whole-active-router sweep would examine, per
        // router — the cost unit of the retired global scheme, accumulated
        // per attended cycle over routers currently holding queued packets
        let lanes_of: Vec<u64> = (0..nr).map(|r| (ports[r].len() * vcs) as u64).collect();
        let mut active_lanes = 0u64;

        // the schedule doubles as the packet slab: FIFOs and the arrival
        // queue move u32 slab ids, and a forward that takes every
        // remaining dest re-forwards the same entry with zero packet
        // traffic. Slab entries are plain headers with a destination
        // range in `arena`; stripping delivered dests compacts a range in
        // place, and only a multicast branch point appends — a new slab
        // entry and the branch's dests at the arena's end
        let Schedule {
            packets: mut slab,
            dests: mut arena,
        } = schedule;
        // branch appends land past this bound — only the original schedule
        // entries are injection sources
        let num_injections = slab.len();
        let mut next_inject = 0usize;
        // every dest in the schedule becomes exactly one delivery
        let mut deliveries: Vec<Delivery> = Vec::with_capacity(arena.len());
        let mut counters = Counters::default();
        // per-VC counters, aggregated over all routers; empty (and never
        // updated) in the single-VC case so the serialized statistics
        // stay byte-identical to the pre-VC engines
        let mut per_vc: Vec<VcCounters> = if vcs > 1 {
            vec![VcCounters::default(); vcs]
        } else {
            Vec::new()
        };
        // arrivals are pushed at `now + hop_latency` with `now`
        // nondecreasing, so push order IS arrival order — a plain queue
        // replaces the oracle's arrival heap (no `O(log n)` sift per hop)
        let mut in_transit: VecDeque<EvArrival> = VecDeque::new();
        let mut candidates: Vec<(usize, u64)> = Vec::new();
        let mut queued_packets = 0usize; // packets sitting in any FIFO
        let mut now = 0u64;
        let flits = cfg.flits_per_packet;
        let hop_latency = cfg.hop_latency();

        // consume the slab in inject order (it is already sorted)
        while next_inject < num_injections || queued_packets > 0 || !in_transit.is_empty() {
            if now > cfg.max_cycles {
                return Err(NocError::CycleBudgetExhausted {
                    budget: cfg.max_cycles,
                    in_flight: queued_packets + in_transit.len(),
                });
            }

            // fast-forward across idle gaps — placed after the budget
            // check, like the oracle's, so an event due past the budget is
            // still processed once before the budget fires on the cycle
            // after it
            if queued_packets == 0 {
                let mut jump = u64::MAX;
                if next_inject < num_injections {
                    jump = jump.min(slab[next_inject].head.inject_cycle);
                }
                if let Some(a) = in_transit.front() {
                    jump = jump.min(a.cycle);
                }
                if jump > now && jump != u64::MAX {
                    now = jump;
                }
            }

            // this cycle is attended: collect pending per-port wakes —
            // next-cycle wakes raised by the previous sweep and every
            // busy expiry due by now — into the ready heap
            sched.begin_cycle(now);
            if let Some(t) = trace.as_deref_mut() {
                t.attended_cycles.push(now);
            }

            // 1. link arrivals due now
            while let Some(a) = in_transit.front() {
                if a.cycle > now {
                    break;
                }
                let a = in_transit.pop_front().expect("peeked");
                counters.router_traversals += 1;
                let packet = &mut slab[a.pid as usize];
                packet.len = strip_local(
                    &hosted[a.router],
                    topo,
                    a.router,
                    &packet.head,
                    &mut arena[packet.range()],
                    now,
                    &mut deliveries,
                    events.as_deref_mut(),
                ) as u32;
                if packet.len == 0 {
                    let state = &mut routers[a.router];
                    state.credits_used[a.ingress] -= 1;
                    if state.credits_used[a.ingress] == cfg.buffer_depth - 1 {
                        // full → free: wake the upstream pair if blocked
                        sched.credit_freed(a.router, a.ingress, PRE_SWEEP);
                        if let Some(t) = events.as_deref_mut() {
                            t.credit_freed(now, a.router as u32, a.ingress as u32);
                        }
                    }
                } else {
                    counters.buffer_flits += flits as u64;
                    let state = &mut routers[a.router];
                    state.fifos[a.ingress].push_back(a.pid);
                    debug_assert!(
                        state.fifos[a.ingress].len() <= cfg.buffer_depth,
                        "ingress FIFO overflows its credit-bounded depth"
                    );
                    if vcs > 1 {
                        let vc = &mut per_vc[(a.ingress - 1) % vcs];
                        vc.enqueued += 1;
                        vc.peak_occupancy =
                            vc.peak_occupancy.max(state.fifos[a.ingress].len() as u64);
                    }
                    if let Some(t) = events.as_deref_mut() {
                        t.push(TraceEvent::Enqueued {
                            cycle: now,
                            spike_id: u64::from(packet.head.spike_id),
                            router: a.router as u32,
                            lane: a.ingress as u32,
                            occupancy: state.fifos[a.ingress].len() as u32,
                        });
                    }
                    state.queued += 1;
                    if state.queued == 1 {
                        active_lanes += lanes_of[a.router];
                    }
                    queued_packets += 1;
                    if state.fifos[a.ingress].len() == 1 {
                        // the packet became a lane head: install its route
                        // mask and wake the pairs it wants
                        sched.set_head(
                            a.router,
                            a.ingress,
                            u64::from(packet.head.spike_id),
                            &arena[packet.range()],
                            packet.head.inject_cycle,
                            PRE_SWEEP,
                        );
                    }
                    // credit stays consumed until the packet leaves the FIFO
                }
            }

            // 2. injections due now
            while next_inject < num_injections && slab[next_inject].head.inject_cycle <= now {
                let pid = next_inject as u32;
                next_inject += 1;
                counters.packets_injected += 1;
                counters.router_traversals += 1;
                let p = &mut slab[pid as usize];
                let src_router = endpoint_of[p.head.src_crossbar as usize];
                if let Some(t) = events.as_deref_mut() {
                    t.push(TraceEvent::Injected {
                        cycle: now,
                        spike_id: u64::from(p.head.spike_id),
                        source_neuron: p.head.source_neuron,
                        src_crossbar: p.head.src_crossbar,
                        router: src_router as u32,
                    });
                }
                p.len = strip_local(
                    &hosted[src_router],
                    topo,
                    src_router,
                    &p.head,
                    &mut arena[p.range()],
                    now,
                    &mut deliveries,
                    events.as_deref_mut(),
                ) as u32;
                if p.len > 0 {
                    let state = &mut routers[src_router];
                    state.fifos[0].push_back(pid);
                    if let Some(t) = events.as_deref_mut() {
                        t.push(TraceEvent::Enqueued {
                            cycle: now,
                            spike_id: u64::from(p.head.spike_id),
                            router: src_router as u32,
                            lane: 0,
                            occupancy: state.fifos[0].len() as u32,
                        });
                    }
                    state.queued += 1;
                    if state.queued == 1 {
                        active_lanes += lanes_of[src_router];
                    }
                    queued_packets += 1;
                    if state.fifos[0].len() == 1 {
                        sched.set_head(
                            src_router,
                            0,
                            u64::from(p.head.spike_id),
                            &arena[p.range()],
                            p.head.inject_cycle,
                            PRE_SWEEP,
                        );
                    }
                }
            }
            sched.note_sweep(active_lanes);

            // 3. arbitration & forwarding over woken pairs only. Pops are
            // strictly ascending pair ids — the oracle's sweep order — and
            // a pair that was never woken is a provable no-op (its idle ∧
            // wanted ∧ credit-free conjunction cannot have turned true
            // since it was last examined; see the module docs)
            let mut progress = false;
            while let Some((pair, r, o)) = sched.pop_ready() {
                if routers[r].queued == 0 {
                    // router drained since the wake was raised (e.g. a
                    // stale busy expiry): no heads, so no candidates —
                    // the oracle's no-op sweep of an empty router
                    continue;
                }
                sched.count_visit(pair);
                let (nbr, down_pos) = ports[r][o];
                if routers[r].busy_until[o] > now {
                    // still serializing: its expiry wake re-examines it
                    continue;
                }
                // wake position for anything this pop changes: pairs ahead
                // of `pair` see it this cycle, pairs behind see it next
                let pos = pair + 1;
                // eligible VCs: a candidate head wants (o, w) and the
                // downstream (ingress, w) lane has a free credit. A wanted
                // VC found credit-full arms the blocked bit, so the
                // full→free transition wakes this pair again.
                let mut eligible = 0u32;
                for w in 0..vcs {
                    if !sched.wanted(pair, w) {
                        continue;
                    }
                    if routers[nbr].credits_used[lane(down_pos, w, vcs)] >= cfg.buffer_depth {
                        sched.set_blocked(pair, w);
                        continue; // backpressure on this VC
                    }
                    eligible |= 1 << w;
                }
                let Some(w) = pick_vc(eligible, routers[r].vc_cursor[o]) else {
                    continue;
                };
                // everything below (until the downstream credit take)
                // touches only router `r`: borrow it once
                let state = &mut routers[r];
                let bit = o * vcs + w;
                // candidates: FIFO lanes whose head routes some dest via
                // (o, w), in lane order like the oracle's scan — cut
                // short once the want count says every candidate is found
                candidates.clear();
                let nf = state.fifos.len();
                let mut remaining = sched.want_count(pair, w);
                for fi in 0..nf {
                    if sched.head_wants(r, fi, bit) {
                        candidates.push((fi, sched.head_inject(r, fi)));
                        remaining -= 1;
                        if remaining == 0 {
                            break;
                        }
                    }
                }
                let win_pos = cfg
                    .arbitration
                    .pick(&candidates, state.rr_cursor[bit])
                    .expect("an eligible VC has a candidate");
                let (fi, _) = candidates[win_pos];
                state.rr_cursor[bit] = fi + 1;
                state.vc_cursor[o] = w + 1;
                if vcs > 1 {
                    per_vc[w].forwarded += 1;
                    for (w2, vc_stat) in per_vc.iter_mut().enumerate() {
                        if w2 != w && eligible & (1 << w2) != 0 {
                            vc_stat.arb_losses += 1;
                        }
                    }
                }

                // split off the dests routed via this (port, VC). When
                // every remaining dest leaves here — unicast, and every
                // non-branching multicast hop — the slab entry itself is
                // forwarded: no packet is constructed or moved at all.
                let head_pid = *state.fifos[fi].front().expect("candidate fifo has a head");
                let head = slab[head_pid as usize];
                let head_spike = u64::from(head.head.spike_id);
                let all = arena[head.range()]
                    .iter()
                    .all(|&d| sched.route_bit(head_spike, r, d) == bit);
                // trace capture: occupancy after a pop, and whether the
                // pop freed our own previously-full ingress lane (emitted
                // after the branch, once the router borrow is released)
                let mut dequeued_occ: Option<u32> = None;
                let mut freed_own = false;
                let branch_pid = if all {
                    state.fifos[fi].pop_front().expect("head exists");
                    if events.is_some() {
                        dequeued_occ = Some(state.fifos[fi].len() as u32);
                    }
                    state.queued -= 1;
                    if state.queued == 0 {
                        active_lanes -= lanes_of[r];
                    }
                    queued_packets -= 1;
                    sched.clear_head(r, fi);
                    if fi > 0 {
                        state.credits_used[fi] -= 1;
                        if state.credits_used[fi] == cfg.buffer_depth - 1 {
                            // full → free on our own ingress lane
                            sched.credit_freed(r, fi, pos);
                            freed_own = true;
                        }
                    }
                    if let Some(&next_pid) = state.fifos[fi].front() {
                        // the pop exposed a new head: install its mask and
                        // wake the pairs it wants
                        let next_head = &slab[next_pid as usize];
                        sched.set_head(
                            r,
                            fi,
                            u64::from(next_head.head.spike_id),
                            &arena[next_head.range()],
                            next_head.head.inject_cycle,
                            pos,
                        );
                    }
                    head_pid
                } else {
                    // multicast split: the head stays, minus this branch.
                    // The branch's dests move to the arena's end, the
                    // rest close up in place, both keeping their order
                    let start = arena_index(arena.len());
                    let mut kept = 0;
                    for i in head.range() {
                        let d = arena[i];
                        if sched.route_bit(head_spike, r, d) == bit {
                            arena.push(d);
                        } else {
                            arena[head.start as usize + kept] = d;
                            kept += 1;
                        }
                    }
                    slab[head_pid as usize].len = kept as u32;
                    sched.shrink_head(r, fi, bit);
                    slab.push(ArenaPacket {
                        head: head.head,
                        start,
                        len: arena_index(arena.len()) - start,
                    });
                    (slab.len() - 1) as u32
                };
                if let Some(t) = events.as_deref_mut() {
                    let bp = &slab[branch_pid as usize];
                    t.push(TraceEvent::Forwarded {
                        cycle: now,
                        spike_id: u64::from(bp.head.spike_id),
                        router: r as u32,
                        port: o as u32,
                        vc: w as u32,
                        dests: bp.len,
                    });
                    if let Some(occupancy) = dequeued_occ {
                        t.push(TraceEvent::Dequeued {
                            cycle: now,
                            router: r as u32,
                            lane: fi as u32,
                            occupancy,
                        });
                    }
                    if freed_own {
                        t.credit_freed(now, r as u32, fi as u32);
                    }
                }

                counters.link_flits += flits as u64;
                state.busy_until[o] = now + flits as u64;
                sched.schedule_expiry(now + flits as u64, pair);
                let down_lane = lane(down_pos, w, vcs);
                routers[nbr].credits_used[down_lane] += 1;
                debug_assert!(
                    routers[nbr].credits_used[down_lane] <= cfg.buffer_depth,
                    "credits must never exceed the FIFO depth"
                );
                if routers[nbr].credits_used[down_lane] == cfg.buffer_depth {
                    if let Some(t) = events.as_deref_mut() {
                        t.credit_full(now, nbr as u32, down_lane as u32);
                    }
                }
                progress = true;
                debug_assert!(
                    in_transit
                        .back()
                        .is_none_or(|b| b.cycle <= now + hop_latency),
                    "arrival pushes must stay cycle-ordered"
                );
                in_transit.push_back(EvArrival {
                    cycle: now + hop_latency,
                    router: nbr,
                    ingress: down_lane,
                    pid: branch_pid,
                });
            }
            if progress {
                if let Some(t) = trace.as_deref_mut() {
                    t.progress_cycles.push(now);
                }
            }

            // 4. advance the clock to the next cycle that can matter
            if queued_packets == 0 {
                // empty network: step one cycle like the oracle does, so
                // the budget check lands on the same cycle before the
                // next iteration's fast-forward takes the big jump
                now += 1;
                continue;
            }
            let mut next = u64::MAX;
            if next_inject < num_injections {
                next = next.min(slab[next_inject].head.inject_cycle);
            }
            if let Some(a) = in_transit.front() {
                next = next.min(a.cycle);
            }
            // wakes raised for pairs the sweep had already passed are due
            // exactly next cycle; everything else that can enable a pair
            // is a busy expiry (every forward scheduled one), an arrival,
            // or an injection — all already in `next`
            if sched.has_next_wakes() {
                next = next.min(now + 1);
            }
            if let Some(e) = sched.next_expiry() {
                next = next.min(e);
            }
            if next == u64::MAX {
                // every queued packet is credit-starved with nothing in
                // flight to free credits: the oracle would idle up to the
                // budget and fail — jump straight to that outcome
                next = cfg.max_cycles + 1;
            }
            debug_assert!(next > now, "the clock must advance every iteration");
            now = next;
        }

        counters.deliveries = deliveries.len() as u64;
        Ok((deliveries, counters, per_vc, sched.counters))
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::CycleSim;
    use super::*;
    use crate::router::Arbitration;
    use crate::topology::{Mesh2D, NocTree, PointToPoint, Star, Torus};
    use crate::traffic::SpikeFlow;

    fn sim(topo: Box<dyn Topology>) -> NocSim {
        NocSim::new(topo, NocConfig::default(), EnergyModel::default())
    }

    #[test]
    fn canonical_order_matches_the_owned_comparator() {
        // ties on (step, source, neuron) everywhere, duplicate and
        // shared-first destinations, empty destination lists, and enough
        // flows for the bucketed key sort
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m) as u32
        };
        let owned: Vec<SpikeFlow> = (0..70_000)
            .map(|_| SpikeFlow {
                source_neuron: next(3),
                src_crossbar: next(4),
                send_step: next(40),
                dst_crossbars: (0..next(4)).map(|_| next(5)).collect(),
            })
            .collect();
        let order = canonical_order(&FlowSet::from(owned.clone()));
        let mut expect: Vec<usize> = (0..owned.len())
            .filter(|&i| !owned[i].dst_crossbars.is_empty())
            .collect();
        expect
            .sort_by(|&a, &b| crate::traffic::canonical_cmp(&owned[a], &owned[b]).then(a.cmp(&b)));
        let expect: Vec<u32> = expect.into_iter().map(|i| i as u32).collect();
        assert_eq!(order, expect);
    }

    /// Flows whose `(source, destination list)` keys repeat across
    /// neurons and steps, with duplicate destinations inside a list and
    /// one destination list shared by two sources.
    fn repeated_tree_flows() -> FlowSet {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m) as u32
        };
        let mut keys: Vec<(u32, Vec<u32>)> = (0..11)
            .map(|_| (next(16), (0..1 + next(6)).map(|_| next(16)).collect()))
            .collect();
        // one destination list from a second source
        keys.push(((keys[0].0 + 5) % 16, keys[0].1.clone()));
        let mut flows = FlowSet::new();
        for neuron in 0..300 {
            let (src, dsts) = &keys[next(keys.len() as u64) as usize];
            flows.push(neuron, *src, dsts, next(4));
        }
        flows
    }

    #[test]
    fn memoized_tree_table_matches_per_spike_routing() {
        let flows = repeated_tree_flows();
        let topos: Vec<Box<dyn Topology>> = vec![
            Box::new(Mesh2D::for_crossbars(16)),
            Box::new(Torus::for_crossbars(16)),
        ];
        for topo in topos {
            for vc_count in [1usize, 2] {
                let cfg = NocConfig {
                    multicast: true,
                    multicast_trees: true,
                    vc_count,
                    ..NocConfig::default()
                };
                let schedule = build_schedule(topo.as_ref(), &cfg, &flows);
                let table = build_tree_table(topo.as_ref(), &cfg, &schedule).expect("trees on");
                let mut trees = std::collections::HashSet::new();
                for p in &schedule.packets {
                    // the per-spike build: route this packet on its own
                    let mut expect = Vec::new();
                    let dests = &schedule.dests[p.range()];
                    tree_entries(
                        topo.as_ref(),
                        vc_count,
                        p.head.src_crossbar,
                        dests,
                        &mut expect,
                    );
                    expect.sort_unstable();
                    expect.dedup();
                    let spike = u64::from(p.head.spike_id);
                    assert_eq!(table.spike_entries(spike), &expect[..]);
                    for &(key, bit) in &expect {
                        let (r, d) = ((key >> 32) as usize, key as u32);
                        assert_eq!(table.bit(spike, r, d), usize::from(bit));
                    }
                    trees.insert(table.spike_entries(spike).as_ptr());
                }
                // the memo must actually share trees between spikes
                assert!(trees.len() <= 12 && schedule.packets.len() == 300);
            }
        }
    }

    #[test]
    fn single_packet_mesh() {
        let mut s = sim(Box::new(Mesh2D::for_crossbars(4)));
        let flows = FlowSet::from(SpikeFlow::unicast(1, 0, 3, 0));
        let stats = s.run(&flows).unwrap();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.counters.packets_injected, 1);
        // 2 hops × (router_delay 1 + flits 2 − 1) = 4 cycles minimum
        assert_eq!(stats.max_latency_cycles, 4);
    }

    #[test]
    fn all_topologies_deliver_everything() {
        let topos: Vec<Box<dyn Topology>> = vec![
            Box::new(Mesh2D::for_crossbars(8)),
            Box::new(Torus::for_crossbars(8)),
            Box::new(NocTree::new(8, 2)),
            Box::new(Star::new(8)),
            Box::new(PointToPoint::new(8)),
        ];
        let mut flows = FlowSet::new();
        for step in 0..5u32 {
            for src in 0..8u32 {
                flows.push_unicast(src * 100, src, (src + 3) % 8, step);
            }
        }
        for topo in topos {
            let name = topo.name();
            let mut s = sim(topo);
            let stats = s.run(&flows).unwrap();
            assert_eq!(stats.delivered, 40, "{name}");
        }
    }

    #[test]
    fn multicast_injects_fewer_packets_than_unicast() {
        let flows = FlowSet::from(vec![SpikeFlow::multicast(0, 0, vec![1, 2, 3], 0); 10]);
        let run = |multicast: bool| {
            let cfg = NocConfig {
                multicast,
                ..NocConfig::default()
            };
            let mut s = NocSim::new(Box::new(NocTree::new(4, 4)), cfg, EnergyModel::default());
            s.run(&flows).unwrap()
        };
        let mc = run(true);
        let uc = run(false);
        assert_eq!(mc.delivered, 30);
        assert_eq!(uc.delivered, 30);
        assert_eq!(mc.counters.packets_injected, 10);
        assert_eq!(uc.counters.packets_injected, 30);
        assert!(mc.counters.link_flits < uc.counters.link_flits);
        assert!(mc.global_energy_pj < uc.global_energy_pj);
    }

    #[test]
    fn congestion_raises_latency() {
        // many sources all talking to crossbar 0 in the same step
        let burst: FlowSet = (0..64)
            .map(|i| SpikeFlow::unicast(i, 1 + (i % 7), 0, 0))
            .collect();
        let single = FlowSet::from(SpikeFlow::unicast(0, 1, 0, 0));
        let mut s = sim(Box::new(Mesh2D::for_crossbars(8)));
        let lat_burst = s.run(&burst).unwrap().max_latency_cycles;
        let mut s = sim(Box::new(Mesh2D::for_crossbars(8)));
        let lat_single = s.run(&single).unwrap().max_latency_cycles;
        assert!(
            lat_burst > lat_single,
            "congestion must add latency: {lat_burst} !> {lat_single}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let flows: FlowSet = (0..50)
            .map(|i| SpikeFlow::unicast(i, i % 4, (i + 1) % 4, i / 10))
            .collect();
        let run = || {
            let mut s = sim(Box::new(NocTree::new(4, 2)));
            s.run(&flows).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unknown_crossbar_rejected() {
        let mut s = sim(Box::new(Star::new(2)));
        let err = s.run(&SpikeFlow::unicast(0, 0, 5, 0).into()).unwrap_err();
        assert!(matches!(err, NocError::UnknownCrossbar { crossbar: 5, .. }));
    }

    #[test]
    fn same_crossbar_flow_counts_as_immediate_delivery() {
        // a unicast flow whose destination equals its source is delivered
        // at injection with zero latency (degenerate but legal input)
        let mut s = sim(Box::new(Star::new(3)));
        let stats = s.run(&SpikeFlow::unicast(0, 1, 1, 0).into()).unwrap();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.max_latency_cycles, 0);
    }

    #[test]
    fn empty_flow_list() {
        let mut s = sim(Box::new(Mesh2D::for_crossbars(4)));
        let stats = s.run(&FlowSet::new()).unwrap();
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.avg_latency_cycles, 0.0);
    }

    #[test]
    fn serialization_spreads_same_step_spikes() {
        // 10 spikes from the same crossbar in one step are AER-serialized:
        // inject cycles are consecutive
        let flows: FlowSet = (0..10).map(|i| SpikeFlow::unicast(i, 0, 1, 0)).collect();
        let mut s = sim(Box::new(PointToPoint::new(2)));
        let (_, deliveries) = s.run_with_duration(&flows, 1).unwrap();
        let mut injects: Vec<u64> = deliveries.iter().map(|d| d.inject_cycle).collect();
        injects.sort_unstable();
        let expected: Vec<u64> = (0..10).collect();
        assert_eq!(injects, expected);
    }

    #[test]
    fn backpressure_does_not_lose_packets() {
        // tiny buffers + heavy burst through one tree root; the in-engine
        // debug assertions also bound credits and FIFO occupancy here
        let cfg = NocConfig {
            buffer_depth: 1,
            ..NocConfig::default()
        };
        let flows: FlowSet = (0..200)
            .map(|i| SpikeFlow::unicast(i, i % 4, ((i % 4) + 4) % 8, 0))
            .collect();
        let mut s = NocSim::new(Box::new(NocTree::new(8, 2)), cfg, EnergyModel::default());
        let stats = s.run(&flows).unwrap();
        assert_eq!(stats.delivered, 200);
    }

    #[test]
    fn oldest_first_reduces_disorder() {
        // cross traffic from many crossbars to one destination
        let mut flows = FlowSet::new();
        for step in 0..20u32 {
            for src in 1..9u32 {
                for k in 0..3u32 {
                    flows.push_unicast(src * 10 + k, src, 0, step);
                }
            }
        }
        let run = |arb| {
            let cfg = NocConfig {
                arbitration: arb,
                ..NocConfig::default()
            };
            let mut s = NocSim::new(
                Box::new(Mesh2D::for_crossbars(9)),
                cfg,
                EnergyModel::default(),
            );
            s.run(&flows).unwrap().disorder_fraction
        };
        let rr = run(Arbitration::RoundRobin);
        let of = run(Arbitration::OldestFirst);
        assert!(
            of <= rr,
            "oldest-first should not increase disorder: {of} !<= {rr}"
        );
    }

    #[test]
    fn latency_monotone_in_hops_without_congestion() {
        let mut s = sim(Box::new(Mesh2D::grid(4, 1, 4)));
        let near = s.run(&SpikeFlow::unicast(0, 0, 1, 0).into()).unwrap();
        let mut s = sim(Box::new(Mesh2D::grid(4, 1, 4)));
        let far = s.run(&SpikeFlow::unicast(0, 0, 3, 0).into()).unwrap();
        assert!(far.max_latency_cycles > near.max_latency_cycles);
    }

    #[test]
    fn round_robin_serves_every_contending_source() {
        // 4 leaves stream to leaf 0 through the star hub: all traffic
        // contends for the hub's single output port toward leaf 0. Under
        // round-robin no input FIFO may starve — within any window of
        // deliveries, every source keeps making progress.
        let spikes_per_src = 40u32;
        let mut flows = FlowSet::new();
        for step in 0..spikes_per_src {
            for src in 1..5u32 {
                flows.push_unicast(src * 1000 + step, src, 0, step);
            }
        }
        let mut s = NocSim::new(
            Box::new(Star::new(5)),
            NocConfig::default(),
            EnergyModel::default(),
        );
        let (stats, deliveries) = s.run_with_duration(&flows, spikes_per_src).unwrap();
        assert_eq!(stats.delivered, (4 * spikes_per_src) as u64);
        // fairness: in every window of 8 consecutive deliveries at the
        // destination, each of the 4 sources appears at least once
        let order: Vec<u32> = deliveries.iter().map(|d| d.src_crossbar).collect();
        for w in order.windows(8) {
            for src in 1..5u32 {
                assert!(
                    w.contains(&src),
                    "source {src} starved in delivery window {w:?}"
                );
            }
        }
    }

    #[test]
    fn vc_engines_agree_and_split_traffic_smoke() {
        // shallow-FIFO 4x4 torus with 2 VCs under multicast cross-ring
        // traffic: the engines must agree byte-for-byte, the per-VC
        // counters must be populated, and the dateline assignment must
        // actually route packets over both VCs (the cross-crate corpus
        // in tests/noc_properties.rs is the full campaign)
        let mut flows = FlowSet::new();
        for step in 0..6u32 {
            for src in 0..16u32 {
                flows.extend([SpikeFlow::multicast(
                    src * 17 + step,
                    src,
                    vec![(src + 2) % 16, (src + 9) % 16],
                    step,
                )]);
            }
        }
        let cfg = NocConfig {
            buffer_depth: 2,
            vc_count: 2,
            ..NocConfig::default()
        };
        let mut ev = NocSim::new(
            Box::new(Torus::for_crossbars(16)),
            cfg,
            EnergyModel::default(),
        );
        let mut or = CycleSim::new(
            Box::new(Torus::for_crossbars(16)),
            cfg,
            EnergyModel::default(),
        );
        let (es, ed) = ev.run_with_duration(&flows, 6).unwrap();
        let (os, od) = or.run_with_duration(&flows, 6).unwrap();
        assert_eq!(ed, od, "delivery logs must be identical");
        assert_eq!(
            es.digest().unwrap(),
            os.digest().unwrap(),
            "stats must be byte-identical"
        );
        assert_eq!(es.per_vc.len(), 2);
        assert!(es.per_vc.iter().all(|v| v.forwarded > 0), "{:?}", es.per_vc);
        assert_eq!(
            es.per_vc.iter().map(|v| v.forwarded).sum::<u64>() * u64::from(cfg.flits_per_packet),
            es.counters.link_flits,
            "per-VC forwards must partition the link traffic"
        );
        assert!(es
            .per_vc
            .iter()
            .all(|v| v.peak_occupancy <= cfg.buffer_depth as u64));
    }

    #[test]
    fn sched_counters_attach_only_when_enabled() {
        let flows: FlowSet = (0..40)
            .map(|i| SpikeFlow::unicast(i, i % 4, (i + 2) % 8, i / 8))
            .collect();
        let mut s = sim(Box::new(Mesh2D::for_crossbars(8)));
        let default_stats = s.run(&flows).unwrap();
        assert!(default_stats.sched.is_none(), "sched counters are opt-in");

        let cfg = NocConfig {
            sched_stats: true,
            ..NocConfig::default()
        };
        let mut s = NocSim::new(
            Box::new(Mesh2D::for_crossbars(8)),
            cfg,
            EnergyModel::default(),
        );
        let stats = s.run(&flows).unwrap();
        let sched = stats.sched.expect("enabled counters attach");
        assert!(sched.wake_cycles > 0);
        assert!(sched.port_wakes > 0);
        assert!(sched.head_updates > 0);
        // everything except the counter attachment is unchanged
        assert_eq!(stats.delivered, default_stats.delivered);
        assert_eq!(stats.counters, default_stats.counters);
        assert_ne!(stats.digest().unwrap(), default_stats.digest().unwrap());
    }

    #[test]
    fn saturated_drain_keeps_wake_queues_bounded() {
        // the dedup satellite: a hotspot burst into a 4x4 mesh re-wakes
        // the same few pairs thousands of times; the membership bitsets
        // must collapse that to at most one queue entry per pair, so the
        // peak queue sizes stay bounded by the pair count however long
        // the saturated drain runs
        let flows: FlowSet = (0..600)
            .map(|i| SpikeFlow::unicast(i, 1 + (i % 15), 0, 0))
            .collect();
        let mut s = sim(Box::new(Mesh2D::for_crossbars(16)));
        let (stats, _, trace) = s.run_traced(&flows, 1).unwrap();
        assert_eq!(stats.delivered, 600);
        // 4x4 mesh: 24 bidirectional links → 48 (router, port) pairs
        let pairs = 48;
        assert!(
            trace.sched.peak_ready <= pairs,
            "ready set must stay within the pair count: {} > {pairs}",
            trace.sched.peak_ready
        );
        assert!(
            trace.sched.peak_wake_heap <= 2 * pairs,
            "expiries (≤ pairs) + next-cycle wakes (≤ pairs) exceeded: {}",
            trace.sched.peak_wake_heap
        );
        // and the drain really was saturated enough to exercise dedup
        assert!(trace.sched.port_wakes > 2 * pairs);
    }

    #[test]
    fn traces_agree_between_engines() {
        let mut flows = FlowSet::new();
        for step in 0..5u32 {
            for src in 0..8u32 {
                flows.extend([SpikeFlow::multicast(
                    src * 13 + step,
                    src,
                    vec![(src + 1) % 8, (src + 4) % 8],
                    step,
                )]);
            }
        }
        let cfg = NocConfig {
            buffer_depth: 2,
            ..NocConfig::default()
        };
        let mut ev = NocSim::new(Box::new(NocTree::new(8, 2)), cfg, EnergyModel::default());
        let mut or = CycleSim::new(Box::new(NocTree::new(8, 2)), cfg, EnergyModel::default());
        let (es, ed, et) = ev.run_traced(&flows, 5).unwrap();
        let (os, od, ot) = or.run_traced(&flows, 5).unwrap();
        assert_eq!(ed, od);
        assert_eq!(es.digest().unwrap(), os.digest().unwrap());
        assert_eq!(
            et.progress_cycles, ot.progress_cycles,
            "both engines must forward at the same cycles"
        );
        // every progress cycle is an attended cycle, and attended cycles
        // are strictly ascending
        assert!(et.attended_cycles.windows(2).all(|w| w[0] < w[1]));
        let attended: std::collections::HashSet<u64> = et.attended_cycles.iter().copied().collect();
        assert!(et.progress_cycles.iter().all(|c| attended.contains(c)));
    }

    #[test]
    fn single_vc_config_produces_no_per_vc_counters() {
        let mut s = sim(Box::new(Mesh2D::for_crossbars(4)));
        let stats = s.run(&SpikeFlow::unicast(1, 0, 3, 0).into()).unwrap();
        assert!(stats.per_vc.is_empty());
    }

    #[test]
    fn cycle_budget_fires_instead_of_hanging() {
        // traffic that cannot drain within the budget must error out, and
        // both engines must report the identical error
        let cfg = NocConfig {
            max_cycles: 40,
            ..NocConfig::default()
        };
        let flows: FlowSet = (0..500)
            .map(|i| SpikeFlow::unicast(i, 1 + (i % 7), 0, 0))
            .collect();
        let mut ev = NocSim::new(
            Box::new(Mesh2D::for_crossbars(8)),
            cfg,
            EnergyModel::default(),
        );
        let mut or = CycleSim::new(
            Box::new(Mesh2D::for_crossbars(8)),
            cfg,
            EnergyModel::default(),
        );
        let e = ev.run(&flows).unwrap_err();
        assert!(matches!(
            e,
            NocError::CycleBudgetExhausted { budget: 40, .. }
        ));
        assert_eq!(e, or.run(&flows).unwrap_err());
    }

    #[test]
    fn budget_error_agrees_when_wake_jumps_past_budget() {
        // a lone injection far beyond the budget: the event engine jumps
        // straight over max_cycles and must still fail like the oracle,
        // which walks there cycle by cycle
        let cfg = NocConfig {
            max_cycles: 100,
            cycles_per_step: 1024,
            ..NocConfig::default()
        };
        let flows = FlowSet::from(SpikeFlow::unicast(0, 0, 3, 5)); // injects at cycle 5120
        let mut ev = NocSim::new(
            Box::new(Mesh2D::for_crossbars(4)),
            cfg,
            EnergyModel::default(),
        );
        let mut or = CycleSim::new(
            Box::new(Mesh2D::for_crossbars(4)),
            cfg,
            EnergyModel::default(),
        );
        assert_eq!(ev.run(&flows).unwrap_err(), or.run(&flows).unwrap_err());
    }

    #[test]
    fn event_engine_matches_oracle_smoke() {
        // the cross-crate differential proptest corpus is in
        // tests/noc_properties.rs; this is the in-crate smoke version
        let mut flows = FlowSet::new();
        for step in 0..10u32 {
            for src in 0..8u32 {
                flows.extend([SpikeFlow::multicast(
                    src * 31 + step,
                    src,
                    vec![(src + 1) % 8, (src + 3) % 8, (src + 5) % 8],
                    step,
                )]);
            }
        }
        let cfg = NocConfig {
            buffer_depth: 2,
            ..NocConfig::default()
        };
        let mut ev = NocSim::new(Box::new(NocTree::new(8, 2)), cfg, EnergyModel::default());
        let mut or = CycleSim::new(Box::new(NocTree::new(8, 2)), cfg, EnergyModel::default());
        let (es, ed) = ev.run_with_duration(&flows, 10).unwrap();
        let (os, od) = or.run_with_duration(&flows, 10).unwrap();
        assert_eq!(ed, od, "delivery logs must be identical");
        assert_eq!(es, os);
        assert_eq!(
            es.digest().unwrap(),
            os.digest().unwrap(),
            "stats must be byte-identical"
        );
    }

    #[test]
    fn event_trace_off_by_default_and_byte_identical_when_on() {
        let mut flows = FlowSet::new();
        for step in 0..6u32 {
            for src in 0..8u32 {
                flows.extend([SpikeFlow::multicast(
                    src * 19 + step,
                    src,
                    vec![(src + 1) % 8, (src + 5) % 8],
                    step,
                )]);
            }
        }
        // off (the default): no trace is retained, stats digest unchanged
        let mut plain = sim(Box::new(Mesh2D::for_crossbars(8)));
        let plain_stats = plain.run(&flows).unwrap();
        assert!(plain.take_trace().is_none(), "tracing is opt-in");

        let cfg = NocConfig {
            trace: true,
            ..NocConfig::default()
        };
        let mut ev = NocSim::new(
            Box::new(Mesh2D::for_crossbars(8)),
            cfg,
            EnergyModel::default(),
        );
        let mut or = CycleSim::new(
            Box::new(Mesh2D::for_crossbars(8)),
            cfg,
            EnergyModel::default(),
        );
        let es = ev.run(&flows).unwrap();
        let os = or.run(&flows).unwrap();
        assert_eq!(
            es.digest().unwrap(),
            plain_stats.digest().unwrap(),
            "tracing must not perturb the statistics"
        );
        let et = ev.take_trace().expect("traced run retains events");
        let ot = or.take_trace().expect("traced run retains events");
        assert!(!et.is_empty());
        assert_eq!(
            et.to_bytes(),
            ot.to_bytes(),
            "engines must emit byte-identical event streams"
        );
        assert_eq!(es.digest().unwrap(), os.digest().unwrap());
        // the stream accounts for every injection and delivery
        let injected = et
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Injected { .. }))
            .count() as u64;
        let delivered = et
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Delivered { .. }))
            .count() as u64;
        assert_eq!(injected, es.counters.packets_injected);
        assert_eq!(delivered, es.delivered);
        // a second take returns nothing until the next traced run
        assert!(ev.take_trace().is_none());
    }
}
