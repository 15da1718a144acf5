//! Spike traffic: the injection schedule derived from a partitioned SNN.
//!
//! A flow is one spike of one neuron that must leave its crossbar: the
//! source crossbar, the set of destination crossbars holding its global
//! postsynaptic neurons, and the SNN timestep of the spike. The simulator
//! turns flows into AER packets, serializing simultaneous spikes of one
//! crossbar through its encoder (one packet per cycle), which fixes the
//! *intended* delivery order that the disorder metric is measured against.
//!
//! # Layout
//!
//! A [`FlowSet`] stores flows column-wise in CSR form: one column each
//! for the source neuron, source crossbar and send step, plus a single
//! destination arena with per-flow offsets. Building one costs a handful
//! of amortized `Vec` pushes per flow and no allocation of its own, which
//! is what per-synapse traffic needs: at paper scale it emits millions of
//! single-destination flows. Both engines, the pipeline's hop metrics and
//! flow validation read the set directly.
//!
//! [`SpikeFlow`] is the owned form of one flow, for building test and
//! benchmark traffic by hand; collect flows into a set with
//! [`FlowSet::from`] or [`FromIterator`].

use serde::{Deserialize, Serialize};

/// One spike event bound for one or more remote crossbars, as an owned
/// value. See [`FlowSet`] for the storage the engines consume.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpikeFlow {
    /// Global id of the spiking neuron.
    pub source_neuron: u32,
    /// Crossbar hosting the neuron.
    pub src_crossbar: u32,
    /// Destination crossbars (deduplicated, excluding the source crossbar).
    pub dst_crossbars: Vec<u32>,
    /// SNN timestep at which the neuron fired.
    pub send_step: u32,
}

impl SpikeFlow {
    /// A flow to a single destination.
    pub fn unicast(source_neuron: u32, src: u32, dst: u32, send_step: u32) -> Self {
        Self {
            source_neuron,
            src_crossbar: src,
            dst_crossbars: vec![dst],
            send_step,
        }
    }

    /// A flow to several destinations (candidates for multicast).
    ///
    /// Destinations are deduplicated and the source crossbar is removed.
    pub fn multicast(source_neuron: u32, src: u32, mut dsts: Vec<u32>, send_step: u32) -> Self {
        dsts.sort_unstable();
        dsts.dedup();
        dsts.retain(|&d| d != src);
        Self {
            source_neuron,
            src_crossbar: src,
            dst_crossbars: dsts,
            send_step,
        }
    }
}

/// Sorts flows into canonical injection order: by step, then source
/// crossbar, then source neuron, then destination set — the order the AER
/// encoders see them.
///
/// The destination set participates so the order is *total*: per-synapse
/// traffic emits several flows with the same `(step, crossbar, neuron)`
/// key (one per cut synapse), and a key-only sort would let the caller's
/// input order leak into the injection schedule. With a total order,
/// permuting the input flows cannot change the simulation. The engines'
/// schedule builder sorts a [`FlowSet`] into this same order.
pub fn sort_canonical(flows: &mut [SpikeFlow]) {
    flows.sort_by(canonical_cmp);
}

/// The total injection order of [`sort_canonical`], as a comparator.
pub fn canonical_cmp(a: &SpikeFlow, b: &SpikeFlow) -> std::cmp::Ordering {
    (
        a.send_step,
        a.src_crossbar,
        a.source_neuron,
        &a.dst_crossbars,
    )
        .cmp(&(
            b.send_step,
            b.src_crossbar,
            b.source_neuron,
            &b.dst_crossbars,
        ))
}

/// A borrowed view of one flow in a [`FlowSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRef<'a> {
    /// Global id of the spiking neuron.
    pub source_neuron: u32,
    /// Crossbar hosting the neuron.
    pub src_crossbar: u32,
    /// SNN timestep at which the neuron fired.
    pub send_step: u32,
    /// Destination crossbars.
    pub dst_crossbars: &'a [u32],
}

impl FlowRef<'_> {
    /// The flow as an owned [`SpikeFlow`].
    pub fn to_spike_flow(&self) -> SpikeFlow {
        SpikeFlow {
            source_neuron: self.source_neuron,
            src_crossbar: self.src_crossbar,
            dst_crossbars: self.dst_crossbars.to_vec(),
            send_step: self.send_step,
        }
    }
}

/// A set of flows in CSR form (see the module docs): per-flow columns
/// plus one destination arena, `dests[offsets[i]..offsets[i + 1]]` being
/// flow `i`'s destinations.
///
/// Flows keep their insertion order; destinations are stored exactly as
/// given. The engines sort flows into the canonical injection order
/// themselves, so the insertion order never changes a simulation.
///
/// Offsets are `u32`: a set holds fewer than 2³² destinations in total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSet {
    source_neuron: Vec<u32>,
    src_crossbar: Vec<u32>,
    send_step: Vec<u32>,
    offsets: Vec<u32>,
    dests: Vec<u32>,
}

impl Default for FlowSet {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// An empty set with room for `flows` flows and `dests` destinations
    /// in total.
    pub fn with_capacity(flows: usize, dests: usize) -> Self {
        let mut offsets = Vec::with_capacity(flows + 1);
        offsets.push(0);
        Self {
            source_neuron: Vec::with_capacity(flows),
            src_crossbar: Vec::with_capacity(flows),
            send_step: Vec::with_capacity(flows),
            offsets,
            dests: Vec::with_capacity(dests),
        }
    }

    /// Appends a flow with the given destinations, stored as given
    /// (argument order as in [`SpikeFlow::multicast`], which also
    /// deduplicates).
    ///
    /// # Panics
    ///
    /// Panics if the set would hold 2³² or more destinations.
    pub fn push(&mut self, source_neuron: u32, src_crossbar: u32, dsts: &[u32], send_step: u32) {
        self.dests.extend_from_slice(dsts);
        self.close_flow(source_neuron, src_crossbar, send_step);
    }

    /// Appends a single-destination flow (argument order as in
    /// [`SpikeFlow::unicast`]).
    ///
    /// # Panics
    ///
    /// Panics if the set would hold 2³² or more destinations.
    pub fn push_unicast(
        &mut self,
        source_neuron: u32,
        src_crossbar: u32,
        dst: u32,
        send_step: u32,
    ) {
        self.dests.push(dst);
        self.close_flow(source_neuron, src_crossbar, send_step);
    }

    fn close_flow(&mut self, source_neuron: u32, src_crossbar: u32, send_step: u32) {
        let end = u32::try_from(self.dests.len()).expect("a FlowSet holds < 2^32 destinations");
        self.source_neuron.push(source_neuron);
        self.src_crossbar.push(src_crossbar);
        self.send_step.push(send_step);
        self.offsets.push(end);
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.send_step.len()
    }

    /// Whether the set holds no flows.
    pub fn is_empty(&self) -> bool {
        self.send_step.is_empty()
    }

    /// Total destinations over all flows: the unicast packet count.
    pub fn dest_count(&self) -> usize {
        self.dests.len()
    }

    /// Flow `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> FlowRef<'_> {
        FlowRef {
            source_neuron: self.source_neuron[i],
            src_crossbar: self.src_crossbar[i],
            send_step: self.send_step[i],
            dst_crossbars: self.dests(i),
        }
    }

    /// Destinations of flow `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn dests(&self, i: usize) -> &[u32] {
        &self.dests[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The flows in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = FlowRef<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Source neuron per flow.
    pub fn source_neurons(&self) -> &[u32] {
        &self.source_neuron
    }

    /// Source crossbar per flow.
    pub fn src_crossbars(&self) -> &[u32] {
        &self.src_crossbar
    }

    /// Send step per flow.
    pub fn send_steps(&self) -> &[u32] {
        &self.send_step
    }

    /// The destination arena: every flow's destinations, concatenated in
    /// flow order.
    pub fn all_dests(&self) -> &[u32] {
        &self.dests
    }
}

impl From<SpikeFlow> for FlowSet {
    fn from(flow: SpikeFlow) -> Self {
        std::iter::once(flow).collect()
    }
}

impl From<Vec<SpikeFlow>> for FlowSet {
    fn from(flows: Vec<SpikeFlow>) -> Self {
        flows.into_iter().collect()
    }
}

impl FromIterator<SpikeFlow> for FlowSet {
    fn from_iter<I: IntoIterator<Item = SpikeFlow>>(iter: I) -> Self {
        let mut set = Self::new();
        set.extend(iter);
        set
    }
}

impl Extend<SpikeFlow> for FlowSet {
    fn extend<I: IntoIterator<Item = SpikeFlow>>(&mut self, iter: I) {
        for f in iter {
            self.push(
                f.source_neuron,
                f.src_crossbar,
                &f.dst_crossbars,
                f.send_step,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multicast_dedups_and_drops_source() {
        let f = SpikeFlow::multicast(1, 2, vec![3, 2, 3, 0], 5);
        assert_eq!(f.dst_crossbars, vec![0, 3]);
    }

    #[test]
    fn canonical_sort_orders_by_step_then_source() {
        let mut flows = vec![
            SpikeFlow::unicast(9, 1, 0, 2),
            SpikeFlow::unicast(1, 0, 1, 2),
            SpikeFlow::unicast(5, 0, 1, 1),
        ];
        sort_canonical(&mut flows);
        assert_eq!(flows[0].send_step, 1);
        assert_eq!(flows[1].src_crossbar, 0);
        assert_eq!(flows[2].src_crossbar, 1);
    }

    #[test]
    fn canonical_sort_is_total_over_destinations() {
        // same (step, crossbar, neuron) key, different destinations — the
        // per-synapse traffic shape; order must not depend on input order
        let a = SpikeFlow::unicast(5, 0, 3, 1);
        let b = SpikeFlow::unicast(5, 0, 1, 1);
        let mut fwd = vec![a.clone(), b.clone()];
        let mut rev = vec![b, a];
        sort_canonical(&mut fwd);
        sort_canonical(&mut rev);
        assert_eq!(fwd, rev);
        assert_eq!(fwd[0].dst_crossbars, vec![1]);
    }

    #[test]
    fn set_round_trips_owned_flows() {
        let flows = vec![
            SpikeFlow::multicast(0, 0, vec![1, 2, 3], 4),
            SpikeFlow::unicast(1, 1, 0, 0),
            SpikeFlow::multicast(2, 1, vec![1], 2), // no destination left
        ];
        let set = FlowSet::from(flows.clone());
        assert_eq!(set.len(), 3);
        assert_eq!(set.dest_count(), 4);
        assert_eq!(set.dests(0), &[1, 2, 3]);
        assert!(set.dests(2).is_empty());
        let back: Vec<SpikeFlow> = set.iter().map(|f| f.to_spike_flow()).collect();
        assert_eq!(back, flows);
        let collected: FlowSet = flows.into_iter().collect();
        assert_eq!(collected, set);
    }

    #[test]
    fn push_unicast_matches_the_owned_constructor() {
        let mut set = FlowSet::new();
        set.push_unicast(7, 1, 3, 9);
        assert_eq!(set, FlowSet::from(SpikeFlow::unicast(7, 1, 3, 9)));
        assert_eq!(set.get(0).dst_crossbars, &[3]);
    }
}
