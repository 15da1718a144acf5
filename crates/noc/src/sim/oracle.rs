//! The cycle-driven reference oracle.
//!
//! [`CycleSim`] is the original interconnect engine: it advances the clock
//! one cycle at a time (fast-forwarding only across globally idle gaps)
//! and sweeps every router for arbitration each cycle. That makes it slow
//! — runtime scales with simulated cycles × routers — but easy to audit
//! against the hardware model, which is exactly what a differential oracle
//! needs to be.
//!
//! The production engine ([`super::NocSim`]) must produce byte-identical
//! [`NocStats`] and delivery logs; `tests/noc_properties.rs` enforces this
//! over a randomized corpus of topologies, buffer depths, multicast
//! fan-outs, and backpressured traffic, and `benches/noc.rs` measures the
//! speedup the event model buys. Keep changes to this file to a minimum:
//! its value is that it stays the simple, obviously-cycle-accurate
//! formulation.

use super::{
    build_schedule, inferred_duration, lane, strip_local, validate_flows, Arrival, Schedule,
};
use crate::config::NocConfig;
use crate::error::NocError;
use crate::packet::Packet;
use crate::router::pick_vc;
use crate::stats::{Counters, Delivery, NocStats, SimTrace, VcCounters};
use crate::topology::Topology;
use crate::trace::{TraceBuf, TraceEvent};
use crate::traffic::FlowSet;
use neuromap_hw::energy::EnergyModel;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Per-router runtime state (mirrors the event engine's, without the
/// queued-packet bookkeeping the wake list needs).
struct RouterState {
    /// Input FIFO lanes: lane 0 = local injection, then one lane per
    /// `(ingress port, VC)` pair in [`lane`] order.
    fifos: Vec<VecDeque<Packet>>,
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
}

/// The cycle-driven interconnect simulator (reference oracle).
///
/// Same public surface as [`super::NocSim`]; see the module docs for its
/// role.
pub struct CycleSim {
    topo: std::sync::Arc<dyn Topology>,
    config: NocConfig,
    energy: EnergyModel,
    /// Event trace of the last successful run, present iff
    /// [`NocConfig::trace`] was set (see [`CycleSim::take_trace`]).
    trace: Option<TraceBuf>,
}

impl std::fmt::Debug for CycleSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CycleSim")
            .field("topology", &self.topo.name())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl CycleSim {
    /// Creates a simulator over a topology with the given configuration and
    /// energy model.
    pub fn new(topo: Box<dyn Topology>, config: NocConfig, energy: EnergyModel) -> Self {
        Self::shared(std::sync::Arc::from(topo), config, energy)
    }

    /// Like [`CycleSim::new`], but over a topology already shared behind
    /// an `Arc` (see [`super::NocSim::shared`]).
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

    /// Takes the structured event trace of the last successful run
    /// (`Some` iff [`NocConfig::trace`] was set). The stream is
    /// byte-identical to [`super::NocSim::take_trace`]'s for the same
    /// workload — see [`crate::trace`].
    pub fn take_trace(&mut self) -> Option<TraceBuf> {
        self.trace.take()
    }

    /// Runs the flows to completion and returns aggregate statistics.
    /// The SNN duration is inferred from the last send step.
    ///
    /// # Errors
    ///
    /// Same as [`super::NocSim::run`].
    pub fn run(&mut self, flows: &FlowSet) -> Result<NocStats, NocError> {
        self.run_with_duration(flows, inferred_duration(flows))
            .map(|(stats, _)| stats)
    }

    /// Like [`CycleSim::run`], but with an explicit SNN duration
    /// (timesteps) and returning the raw delivery log alongside the
    /// statistics.
    ///
    /// # Errors
    ///
    /// Same as [`super::NocSim::run`].
    pub fn run_with_duration(
        &mut self,
        flows: &FlowSet,
        duration_steps: u32,
    ) -> Result<(NocStats, Vec<Delivery>), NocError> {
        self.execute(flows, duration_steps, None)
    }

    /// Like [`CycleSim::run_with_duration`], but also returning a
    /// [`SimTrace`] with the forward-progress cycles filled in (the
    /// attended-cycle log and scheduler counters stay empty — the oracle
    /// attends every cycle and has no scheduler). The liveness property in
    /// `tests/noc_properties.rs` compares this against
    /// [`super::NocSim::run_traced`].
    ///
    /// # Errors
    ///
    /// Same as [`super::NocSim::run`].
    pub fn run_traced(
        &mut self,
        flows: &FlowSet,
        duration_steps: u32,
    ) -> Result<(NocStats, Vec<Delivery>, SimTrace), NocError> {
        let mut trace = SimTrace::default();
        let (stats, deliveries) =
            self.execute(flows, duration_steps, Some(&mut trace.progress_cycles))?;
        Ok((stats, deliveries, trace))
    }

    /// Validates, schedules, simulates and summarizes one run.
    fn execute(
        &mut self,
        flows: &FlowSet,
        duration_steps: u32,
        progress: Option<&mut Vec<u64>>,
    ) -> Result<(NocStats, Vec<Delivery>), NocError> {
        self.config.validate()?;
        validate_flows(self.topo.as_ref(), flows)?;
        let schedule = build_schedule(self.topo.as_ref(), &self.config, flows);
        self.trace = None;
        let mut events = self.config.trace.then(|| TraceBuf::new(&self.config));
        let (deliveries, counters, per_vc) = self.simulate(schedule, progress, events.as_mut())?;
        self.trace = events;
        let stats = NocStats::from_deliveries(
            &deliveries,
            counters,
            &self.energy,
            self.config.flits_per_packet,
            duration_steps,
            self.config.cycles_per_step,
        )
        .with_per_vc(per_vc);
        Ok((stats, deliveries))
    }

    /// The cycle-by-cycle main loop. `progress`, when given, collects the
    /// cycles at which at least one packet was forwarded; `events`, when
    /// given, records the structured trace (same emission points and
    /// order as the event engine's — see [`crate::trace`]).
    #[allow(clippy::type_complexity)]
    fn simulate(
        &self,
        schedule: Schedule,
        mut progress: Option<&mut Vec<u64>>,
        mut events: Option<&mut TraceBuf>,
    ) -> Result<(Vec<Delivery>, Counters, Vec<VcCounters>), NocError> {
        let cfg = &self.config;
        let topo = self.topo.as_ref();
        let nr = topo.num_routers();
        let vcs = cfg.vc_count;

        // per-spike Steiner-tree table (shared builder with the event
        // engine); None ⇒ the per-destination unicast-route predicates
        let tree = super::build_tree_table(topo, cfg, &schedule);
        let tree = tree.as_ref();

        let mut routers: Vec<RouterState> = (0..nr)
            .map(|r| {
                let deg = topo.neighbors(r).len();
                RouterState {
                    fifos: vec![VecDeque::new(); 1 + deg * vcs],
                    rr_cursor: vec![0; deg * vcs],
                    vc_cursor: vec![0; deg],
                    busy_until: vec![0; deg],
                    credits_used: vec![0; 1 + deg * vcs],
                }
            })
            .collect();

        // crossbars hosted per router, for arrival stripping
        let mut hosted: Vec<Vec<u32>> = vec![Vec::new(); nr];
        for k in 0..topo.num_crossbars() as u32 {
            hosted[topo.endpoint(k)].push(k);
        }

        let mut deliveries: Vec<Delivery> = Vec::new();
        let mut counters = Counters::default();
        // per-VC counters; empty (never updated) in the single-VC case so
        // the statistics stay byte-identical to the pre-VC oracle
        let mut per_vc: Vec<VcCounters> = if vcs > 1 {
            vec![VcCounters::default(); vcs]
        } else {
            Vec::new()
        };
        let mut in_transit: BinaryHeap<Reverse<Arrival>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut next_inject = 0usize;
        let mut queued_packets = 0usize; // packets sitting in any FIFO
        let mut now = 0u64;
        let flits = cfg.flits_per_packet;
        let hop_latency = cfg.hop_latency();

        let total = schedule.packets.len();
        while next_inject < total || queued_packets > 0 || !in_transit.is_empty() {
            if now > cfg.max_cycles {
                return Err(NocError::CycleBudgetExhausted {
                    budget: cfg.max_cycles,
                    in_flight: queued_packets + in_transit.len(),
                });
            }

            // fast-forward across idle gaps
            if queued_packets == 0 {
                let mut jump = u64::MAX;
                if next_inject < total {
                    jump = jump.min(schedule.packets[next_inject].head.inject_cycle);
                }
                if let Some(Reverse(a)) = in_transit.peek() {
                    jump = jump.min(a.cycle);
                }
                if jump > now && jump != u64::MAX {
                    now = jump;
                }
            }

            // 1. link arrivals due now
            while let Some(Reverse(a)) = in_transit.peek() {
                if a.cycle > now {
                    break;
                }
                let Reverse(mut a) = in_transit.pop().expect("peeked");
                counters.router_traversals += 1;
                let kept = strip_local(
                    &hosted[a.router],
                    topo,
                    a.router,
                    &a.packet.header(),
                    &mut a.packet.dests,
                    now,
                    &mut deliveries,
                    events.as_deref_mut(),
                );
                a.packet.dests.truncate(kept);
                if a.packet.dests.is_empty() {
                    routers[a.router].credits_used[a.ingress] -= 1;
                    if let Some(t) = events.as_deref_mut() {
                        if routers[a.router].credits_used[a.ingress] == cfg.buffer_depth - 1 {
                            // full → free (the event engine wakes the
                            // blocked upstream pair here)
                            t.credit_freed(now, a.router as u32, a.ingress as u32);
                        }
                    }
                } else {
                    counters.buffer_flits += flits as u64;
                    let spike_id = a.packet.spike_id;
                    routers[a.router].fifos[a.ingress].push_back(a.packet);
                    debug_assert!(
                        routers[a.router].fifos[a.ingress].len() <= cfg.buffer_depth,
                        "ingress FIFO overflows its credit-bounded depth"
                    );
                    if vcs > 1 {
                        let vc = &mut per_vc[(a.ingress - 1) % vcs];
                        vc.enqueued += 1;
                        vc.peak_occupancy = vc
                            .peak_occupancy
                            .max(routers[a.router].fifos[a.ingress].len() as u64);
                    }
                    if let Some(t) = events.as_deref_mut() {
                        t.push(TraceEvent::Enqueued {
                            cycle: now,
                            spike_id,
                            router: a.router as u32,
                            lane: a.ingress as u32,
                            occupancy: routers[a.router].fifos[a.ingress].len() as u32,
                        });
                    }
                    queued_packets += 1;
                    // credit stays consumed until the packet leaves the FIFO
                }
            }

            // 2. injections due now
            while next_inject < total && schedule.packets[next_inject].head.inject_cycle <= now {
                // the oracle keeps its own packet copy with an owned
                // destination list, like the original engine
                let sp = schedule.packets[next_inject];
                let mut p = Packet {
                    spike_id: u64::from(sp.head.spike_id),
                    source_neuron: sp.head.source_neuron,
                    src_crossbar: sp.head.src_crossbar,
                    dests: schedule.dests[sp.range()].to_vec(),
                    send_step: sp.head.send_step,
                    inject_cycle: sp.head.inject_cycle,
                };
                next_inject += 1;
                counters.packets_injected += 1;
                counters.router_traversals += 1;
                let src_router = topo.endpoint(p.src_crossbar);
                if let Some(t) = events.as_deref_mut() {
                    t.push(TraceEvent::Injected {
                        cycle: now,
                        spike_id: p.spike_id,
                        source_neuron: p.source_neuron,
                        src_crossbar: p.src_crossbar,
                        router: src_router as u32,
                    });
                }
                let kept = strip_local(
                    &hosted[src_router],
                    topo,
                    src_router,
                    &p.header(),
                    &mut p.dests,
                    now,
                    &mut deliveries,
                    events.as_deref_mut(),
                );
                p.dests.truncate(kept);
                if !p.dests.is_empty() {
                    let spike_id = p.spike_id;
                    routers[src_router].fifos[0].push_back(p);
                    if let Some(t) = events.as_deref_mut() {
                        t.push(TraceEvent::Enqueued {
                            cycle: now,
                            spike_id,
                            router: src_router as u32,
                            lane: 0,
                            occupancy: routers[src_router].fifos[0].len() as u32,
                        });
                    }
                    queued_packets += 1;
                }
            }

            if queued_packets == 0 {
                // nothing to arbitrate; loop back and fast-forward
                if next_inject >= total && in_transit.is_empty() {
                    break;
                }
                now += 1;
                continue;
            }

            // 3. arbitration & forwarding, one winner per output port:
            // round-robin over eligible VCs, then the configured policy
            // over the candidate FIFO lanes of the winning VC
            let mut progressed = false;
            for r in 0..nr {
                let neighbors = topo.neighbors(r).to_vec();
                for (o, &nbr) in neighbors.iter().enumerate() {
                    if routers[r].busy_until[o] > now {
                        continue;
                    }
                    // our port position on the downstream router
                    let down_pos = topo
                        .neighbors(nbr)
                        .iter()
                        .position(|&x| x == r)
                        .expect("links are bidirectional");
                    // a head wants (this port, VC w) when some remaining
                    // destination routes via nbr on VC w
                    let head_wants = |head: &Packet, w: usize| match tree {
                        Some(t) => head
                            .dests
                            .iter()
                            .any(|&d| t.bit(head.spike_id, r, d) == o * vcs + w),
                        None => head.dests.iter().any(|&d| {
                            let dr = topo.endpoint(d);
                            topo.route_next(r, dr) == nbr && topo.hop_vc(r, dr, vcs) == w
                        }),
                    };
                    // eligible VCs: candidate present + free downstream
                    // credit on that VC's lane
                    let mut eligible = 0u32;
                    for w in 0..vcs {
                        if routers[nbr].credits_used[lane(down_pos, w, vcs)] >= cfg.buffer_depth {
                            continue; // backpressure on this VC
                        }
                        if routers[r]
                            .fifos
                            .iter()
                            .any(|fifo| fifo.front().is_some_and(|head| head_wants(head, w)))
                        {
                            eligible |= 1 << w;
                        }
                    }
                    let Some(w) = pick_vc(eligible, routers[r].vc_cursor[o]) else {
                        continue;
                    };
                    let mut candidates: Vec<(usize, u64)> = Vec::new();
                    for (fi, fifo) in routers[r].fifos.iter().enumerate() {
                        if let Some(head) = fifo.front() {
                            if head_wants(head, w) {
                                candidates.push((fi, head.inject_cycle));
                            }
                        }
                    }
                    let win_pos = cfg
                        .arbitration
                        .pick(&candidates, routers[r].rr_cursor[o * vcs + w])
                        .expect("an eligible VC has a candidate");
                    let (fi, _) = candidates[win_pos];
                    routers[r].rr_cursor[o * vcs + w] = fi + 1;
                    routers[r].vc_cursor[o] = w + 1;
                    if vcs > 1 {
                        per_vc[w].forwarded += 1;
                        for (w2, vc_stat) in per_vc.iter_mut().enumerate() {
                            if w2 != w && eligible & (1 << w2) != 0 {
                                vc_stat.arb_losses += 1;
                            }
                        }
                    }

                    // split off the dests routed via this (port, VC)
                    let head = routers[r].fifos[fi]
                        .front_mut()
                        .expect("candidate fifo has a head");
                    let spike = head.spike_id;
                    let via: Vec<u32> = head
                        .dests
                        .iter()
                        .copied()
                        .filter(|&d| match tree {
                            Some(t) => t.bit(spike, r, d) == o * vcs + w,
                            None => {
                                let dr = topo.endpoint(d);
                                topo.route_next(r, dr) == nbr && topo.hop_vc(r, dr, vcs) == w
                            }
                        })
                        .collect();
                    // trace capture, mirroring the event engine's order:
                    // Forwarded, then Dequeued on a pop, then the
                    // full→free span close on our own ingress lane
                    let mut dequeued_occ: Option<u32> = None;
                    let mut freed_own = false;
                    let branch = if via.len() == head.dests.len() {
                        let p = routers[r].fifos[fi].pop_front().expect("head exists");
                        if events.is_some() {
                            dequeued_occ = Some(routers[r].fifos[fi].len() as u32);
                        }
                        queued_packets -= 1;
                        if fi > 0 {
                            routers[r].credits_used[fi] -= 1;
                            if routers[r].credits_used[fi] == cfg.buffer_depth - 1 {
                                freed_own = true;
                            }
                        }
                        p
                    } else {
                        head.split(&via)
                    };
                    if let Some(t) = events.as_deref_mut() {
                        t.push(TraceEvent::Forwarded {
                            cycle: now,
                            spike_id: branch.spike_id,
                            router: r as u32,
                            port: o as u32,
                            vc: w as u32,
                            dests: branch.dests.len() as u32,
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
                    routers[r].busy_until[o] = now + flits as u64;
                    let down_lane = lane(down_pos, w, vcs);
                    routers[nbr].credits_used[down_lane] += 1;
                    debug_assert!(
                        routers[nbr].credits_used[down_lane] <= cfg.buffer_depth,
                        "credits must never exceed the FIFO depth"
                    );
                    if let Some(t) = events.as_deref_mut() {
                        if routers[nbr].credits_used[down_lane] == cfg.buffer_depth {
                            t.credit_full(now, nbr as u32, down_lane as u32);
                        }
                    }
                    seq += 1;
                    progressed = true;
                    in_transit.push(Reverse(Arrival {
                        cycle: now + hop_latency,
                        seq,
                        router: nbr,
                        ingress: down_lane,
                        packet: branch,
                    }));
                }
            }
            if progressed {
                if let Some(p) = progress.as_deref_mut() {
                    p.push(now);
                }
            }

            now += 1;
        }

        counters.deliveries = deliveries.len() as u64;
        Ok((deliveries, counters, per_vc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Mesh2D;
    use crate::traffic::SpikeFlow;

    #[test]
    fn oracle_single_packet_timing() {
        let mut s = CycleSim::new(
            Box::new(Mesh2D::for_crossbars(4)),
            NocConfig::default(),
            EnergyModel::default(),
        );
        let stats = s.run(&SpikeFlow::unicast(1, 0, 3, 0).into()).unwrap();
        assert_eq!(stats.delivered, 1);
        // 2 hops × (router_delay 1 + flits 2 − 1) = 4 cycles minimum
        assert_eq!(stats.max_latency_cycles, 4);
    }

    #[test]
    fn oracle_conserves_traffic() {
        let flows: FlowSet = (0..100)
            .map(|i| SpikeFlow::unicast(i, i % 4, (i + 1) % 4, i / 25))
            .collect();
        let mut s = CycleSim::new(
            Box::new(Mesh2D::for_crossbars(4)),
            NocConfig::default(),
            EnergyModel::default(),
        );
        assert_eq!(s.run(&flows).unwrap().delivered, 100);
    }
}
