//! Spike packets carried by the interconnect.

use crate::sim::SpikeHeader;
use serde::{Deserialize, Serialize};

/// A spike packet in flight: one AER event travelling toward one or more
/// destination crossbars.
///
/// With multicast enabled a packet starts with the full destination set of
/// its spike; the router replicates it only at branch points, splitting the
/// set — the Noxim++ multicast extension.
///
/// This owned form is the reference oracle's
/// ([`crate::sim::oracle::CycleSim`]): it copies each scheduled packet into
/// one at injection. The event engine keeps the same fields in a flat slab
/// with every packet's destinations in one shared arena instead.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Monotonically increasing id of the originating spike event
    /// (stable across multicast splits; used for tracing).
    pub spike_id: u64,
    /// Global id of the source neuron.
    pub source_neuron: u32,
    /// Crossbar the spike originated from.
    pub src_crossbar: u32,
    /// Remaining destination crossbars.
    pub dests: Vec<u32>,
    /// SNN timestep of the spike.
    pub send_step: u32,
    /// Cycle at which the packet entered the network (after AER encoding).
    pub inject_cycle: u64,
}

impl Packet {
    /// Splits off the destinations in `take` into a new packet, leaving the
    /// remainder in `self`. Used at multicast branch points.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `take` is not a subset of `self.dests`.
    pub fn split(&mut self, take: &[u32]) -> Packet {
        debug_assert!(take.iter().all(|d| self.dests.contains(d)));
        self.dests.retain(|d| !take.contains(d));
        Packet {
            spike_id: self.spike_id,
            source_neuron: self.source_neuron,
            src_crossbar: self.src_crossbar,
            dests: take.to_vec(),
            send_step: self.send_step,
            inject_cycle: self.inject_cycle,
        }
    }

    /// The packet's header fields.
    pub(crate) fn header(&self) -> SpikeHeader {
        SpikeHeader {
            spike_id: self.spike_id as u32,
            source_neuron: self.source_neuron,
            src_crossbar: self.src_crossbar,
            send_step: self.send_step,
            inject_cycle: self.inject_cycle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(dests: Vec<u32>) -> Packet {
        Packet {
            spike_id: 1,
            source_neuron: 5,
            src_crossbar: 0,
            dests,
            send_step: 3,
            inject_cycle: 42,
        }
    }

    #[test]
    fn split_partitions_destinations() {
        let mut p = packet(vec![1, 2, 3]);
        let q = p.split(&[2]);
        assert_eq!(p.dests, vec![1, 3]);
        assert_eq!(q.dests, vec![2]);
        assert_eq!(q.spike_id, p.spike_id);
        assert_eq!(q.inject_cycle, p.inject_cycle);
    }

    #[test]
    fn split_all_empties_original() {
        let mut p = packet(vec![1, 2]);
        let q = p.split(&[1, 2]);
        assert!(p.dests.is_empty());
        assert_eq!(q.dests, vec![1, 2]);
    }
}
