//! Per-(router, output-port) wake scheduling for the event engine.
//!
//! [`PortSched`] is the indexed ready-set that replaced [`crate::sim::NocSim`]'s
//! original global wake heap. Every output port of every router gets a
//! dense *pair id* (`port_base[r] + o`), ordered exactly like the
//! oracle's sweep (routers ascending, ports in neighbor order), and three
//! structures drive the clock:
//!
//! * a **ready bitset** of pair ids due this cycle, walked by a scan
//!   cursor — membership is the bit itself, so waking an already-queued
//!   pair is a no-op and the ready set is bounded by the total pair count
//!   however saturated the traffic gets. Pops are strictly ascending
//!   within a cycle (in-sweep wakes only ever target pairs ahead of the
//!   cursor), so a find-first-set word walk replaces a binary heap: in
//!   the dense regime, where nearly every pair is ready every cycle,
//!   examining a pair costs two bit operations instead of an
//!   `O(log pairs)` sift;
//! * a **next-cycle wake list** for triggers that target a pair the sweep
//!   already passed this cycle (the oracle would only see the change at
//!   `now + 1`);
//! * a **busy-expiry queue** of `(cycle, pair)` entries, one per forward —
//!   a draining port re-enqueues only itself, never a whole router. The
//!   queue arrives cycle-sorted for free: every expiry is scheduled at
//!   `now + flits` for a constant flit count.
//!
//! On top of the wake queues the scheduler keeps the persistent head
//! state the sweep used to recompute from scratch: per FIFO lane, the
//! bitmask of `(output port, VC)` slots its head packet wants (bit
//! `o * vcs + w`, variable-width so arbitrary-degree topologies fit), a
//! per-(pair, VC) count of heads wanting that slot (O(1) eligibility),
//! and a **blocked** bit per (pair, VC) — the wanted-port reverse index:
//! set when an idle sweep finds a head wanting a credit-full downstream
//! lane, so the credit release wakes exactly the pairs that were waiting
//! on it.
//!
//! See the [`crate::sim`] module docs for why this wake set covers every
//! cycle at which the cycle-driven oracle can make progress.

use std::collections::VecDeque;

use crate::stats::SchedCounters;

/// Sentinel pair id for "no upstream pair" (local-injection lanes).
const NO_PAIR: u32 = u32::MAX;

/// Multicast-tree routing table: for every spike and every router on one
/// of its destinations' tree paths, the `(egress port, VC)` bit that
/// destination's path takes out of the router
/// ([`crate::topology::Topology::multicast_route`]).
///
/// Built once per run by `sim::build_tree_table` (only when multicast
/// *and* tree routing are enabled — in that mode spike ids are dense
/// `0..schedule.packets.len()`, each appearing exactly once) and
/// consumed by both engines, which is what keeps them byte-identical
/// under tree routing.
///
/// Spikes from the same source crossbar to the same destination list
/// route the same tree, so the table stores one entry slice per
/// *distinct* tree and maps every spike to its tree's index.
/// Entries are keyed `(router << 32) | dest_crossbar` and sorted per
/// tree, so a lookup is a binary search over that tree's slice.
#[derive(Debug, Clone)]
pub(crate) struct TreeTable {
    /// Tree index of every spike.
    tree_of: Vec<u32>,
    /// Per-tree slice bounds into `entries` (`offsets.len()` = trees + 1).
    offsets: Vec<u32>,
    /// Sorted `((router << 32) | dest, (port, VC) bit)` entries per tree.
    entries: Vec<(u64, u16)>,
}

impl TreeTable {
    /// An empty table for `spikes` spikes, none assigned a tree yet.
    pub(crate) fn with_spikes(spikes: usize) -> Self {
        Self {
            tree_of: vec![u32::MAX; spikes],
            offsets: vec![0],
            entries: Vec::new(),
        }
    }

    /// Appends one tree from its raw entries (sorted and deduplicated
    /// here: duplicate destinations produce identical entries) and
    /// returns its index.
    pub(crate) fn push_tree(&mut self, raw: &mut Vec<(u64, u16)>) -> u32 {
        raw.sort_unstable();
        raw.dedup();
        self.entries.extend_from_slice(raw);
        self.offsets.push(self.entries.len() as u32);
        (self.offsets.len() - 2) as u32
    }

    /// Routes spike `spike` along tree `tree`.
    pub(crate) fn assign(&mut self, spike: usize, tree: u32) {
        debug_assert_eq!(
            self.tree_of[spike],
            u32::MAX,
            "spike {spike} scheduled twice"
        );
        self.tree_of[spike] = tree;
    }

    /// The sorted entry slice of spike `spike`'s tree.
    pub(crate) fn spike_entries(&self, spike: u64) -> &[(u64, u16)] {
        let t = self.tree_of[spike as usize] as usize;
        &self.entries[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }

    /// The `(port, VC)` bit destination `d` of spike `spike` takes out of
    /// router `r`.
    ///
    /// # Panics
    ///
    /// Panics if the spike's tree has no entry for `(r, d)` — a packet
    /// only ever holds destination `d` at routers on `d`'s tree path
    /// (splits follow the bits, which follow the paths), so a miss means
    /// the table and the simulation disagree.
    pub(crate) fn bit(&self, spike: u64, r: usize, d: u32) -> usize {
        let slice = self.spike_entries(spike);
        let key = (r as u64) << 32 | u64::from(d);
        let i = slice
            .binary_search_by_key(&key, |&(k, _)| k)
            .unwrap_or_else(|_| panic!("spike {spike} holds dest {d} off its tree at router {r}"));
        slice[i].1 as usize
    }
}

/// Wake position meaning "before the sweep started": every woken pair is
/// still ahead, so all wakes go to the ready heap.
pub(crate) const PRE_SWEEP: u32 = 0;

fn bit_test(bits: &[u64], i: usize) -> bool {
    bits[i / 64] & (1 << (i % 64)) != 0
}

fn bit_set(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

fn bit_clear(bits: &mut [u64], i: usize) {
    bits[i / 64] &= !(1 << (i % 64));
}

/// The per-(router, output-port) wake scheduler (see the module docs).
pub(crate) struct PortSched {
    vcs: usize,
    nc: usize,
    /// Pair id of router `r`'s port 0; last entry = total pair count.
    port_base: Vec<u32>,
    /// Router owning each pair id.
    router_of: Vec<u32>,
    /// Flat lane-slot base per router (slot = `lane_base[r] + fi`).
    lane_base: Vec<u32>,
    /// 64-bit words per lane head mask, per router.
    mask_words: Vec<u32>,
    /// Word offset of router `r`'s lane-0 mask.
    mask_base: Vec<u32>,
    /// Wanted-(port, VC) bitmask per lane head (zero for empty lanes).
    head_mask: Vec<u64>,
    /// Inject cycle of each lane head (arbitration tiebreak input).
    head_inject: Vec<u64>,
    /// Heads currently wanting `(pair, w)`, indexed `pair * vcs + w`.
    want: Vec<u32>,
    /// Blocked bit per `(pair, w)`: a head wants it but the downstream
    /// lane was credit-full at the pair's last idle sweep.
    blocked: Vec<u64>,
    /// Upstream pair feeding each ingress lane slot (`NO_PAIR` for the
    /// local-injection lane 0).
    ups_pair: Vec<u32>,
    /// Flattened `(router, dest crossbar) → wanted bit` routing table:
    /// one load replaces a route-LUT walk plus a VC-table walk per dest.
    dest_bit: Vec<u16>,
    /// Per-spike tree routing table overriding `dest_bit` when multicast
    /// tree routing is enabled (`None` otherwise — the unicast-route
    /// bit layout stays untouched).
    tree: Option<TreeTable>,
    /// Ready-set bitset (bit = pair id is due this cycle).
    ready: Vec<u64>,
    /// Word index the ascending ready scan has reached this cycle.
    scan: usize,
    /// Set bits in `ready` (peak-tracking only).
    ready_len: u32,
    next_wakes: Vec<u32>,
    in_next: Vec<u64>,
    /// Busy-port expiries, at most one live entry per pair (a busy port
    /// cannot forward again before its expiry fires). Every forward
    /// schedules its expiry at `now + flits` with `now` nondecreasing, so
    /// entries arrive cycle-sorted and a plain queue suffices.
    expiries: VecDeque<(u64, u32)>,
    last_router: u32,
    pub(crate) counters: SchedCounters,
}

impl PortSched {
    /// Builds the scheduler over the router graph. `ports[r]` lists
    /// router `r`'s egress ports as `(neighbor, our position on the
    /// neighbor)`; `dest_bit[r * nc + k]` is the `(egress port, VC)` bit
    /// a head at `r` wants for destination crossbar `k` (entries for
    /// locally hosted crossbars are never read); `tree` overrides the
    /// per-destination bits per spike under multicast tree routing.
    pub(crate) fn new(
        ports: &[Vec<(usize, usize)>],
        vcs: usize,
        dest_bit: Vec<u16>,
        nc: usize,
        tree: Option<TreeTable>,
    ) -> Self {
        let nr = ports.len();
        let mut port_base = Vec::with_capacity(nr + 1);
        let mut lane_base = Vec::with_capacity(nr + 1);
        let mut mask_words = Vec::with_capacity(nr);
        let mut mask_base = Vec::with_capacity(nr);
        let (mut pairs, mut lanes, mut words) = (0u32, 0u32, 0u32);
        for p in ports {
            let deg = p.len();
            let nf = 1 + deg * vcs;
            port_base.push(pairs);
            lane_base.push(lanes);
            mask_base.push(words);
            let w = ((deg * vcs).max(1)).div_ceil(64) as u32;
            mask_words.push(w);
            pairs += deg as u32;
            lanes += nf as u32;
            words += nf as u32 * w;
        }
        port_base.push(pairs);
        lane_base.push(lanes);

        let mut router_of = vec![0u32; pairs as usize];
        let mut ups_pair = vec![NO_PAIR; lanes as usize];
        for (r, p) in ports.iter().enumerate() {
            for o in 0..p.len() {
                router_of[(port_base[r] + o as u32) as usize] = r as u32;
            }
            // the lane block of our ingress port `pos` is fed by that
            // neighbor's egress pair pointing back at us
            for (pos, &(nbr, _)) in p.iter().enumerate() {
                let up = port_base[nbr]
                    + ports[nbr]
                        .iter()
                        .position(|&(x, _)| x == r)
                        .expect("links are bidirectional") as u32;
                for w in 0..vcs {
                    ups_pair[(lane_base[r] + 1 + (pos * vcs + w) as u32) as usize] = up;
                }
            }
        }

        let p = pairs as usize;
        Self {
            vcs,
            nc,
            port_base,
            router_of,
            lane_base,
            mask_words,
            mask_base,
            head_mask: vec![0; words as usize],
            head_inject: vec![0; lanes as usize],
            want: vec![0; p * vcs],
            blocked: vec![0; (p * vcs).div_ceil(64).max(1)],
            ups_pair,
            dest_bit,
            tree,
            ready: vec![0; p.div_ceil(64).max(1)],
            scan: 0,
            ready_len: 0,
            next_wakes: Vec::new(),
            in_next: vec![0; p.div_ceil(64).max(1)],
            expiries: VecDeque::new(),
            last_router: u32::MAX,
            counters: SchedCounters::default(),
        }
    }

    /// Total (router, output-port) pair count.
    #[cfg(test)]
    pub(crate) fn total_pairs(&self) -> u32 {
        *self.port_base.last().expect("non-empty")
    }

    /// The `(output port, VC)` bit a head of spike `spike` at router `r`
    /// wants for destination crossbar `d` — from the spike's tree when
    /// tree routing is on, from the unicast-route table otherwise.
    pub(crate) fn route_bit(&self, spike: u64, r: usize, d: u32) -> usize {
        match &self.tree {
            Some(t) => t.bit(spike, r, d),
            None => self.dest_bit[r * self.nc + d as usize] as usize,
        }
    }

    /// Starts an attended cycle: rewinds the ready scan, then drains the
    /// next-cycle wake list and every busy expiry due by `now` into the
    /// ready set.
    pub(crate) fn begin_cycle(&mut self, now: u64) {
        self.counters.wake_cycles += 1;
        self.last_router = u32::MAX;
        self.scan = 0;
        while let Some(p) = self.next_wakes.pop() {
            bit_clear(&mut self.in_next, p as usize);
            self.push_ready(p);
        }
        while let Some(&(c, p)) = self.expiries.front() {
            if c > now {
                break;
            }
            self.expiries.pop_front();
            self.push_ready(p);
        }
    }

    /// Accumulates the counterfactual whole-sweep cost for this cycle
    /// (`active_lanes` = Σ degree × VCs over routers with queued work).
    pub(crate) fn note_sweep(&mut self, active_lanes: u64) {
        self.counters.legacy_sweep_lanes += active_lanes;
    }

    fn push_ready(&mut self, pair: u32) {
        let (wi, wb) = (pair as usize / 64, 1u64 << (pair % 64));
        // a pair behind the scan cursor was already examined this cycle;
        // callers route those through `next_wakes` (see `wake`)
        debug_assert!(wi >= self.scan, "ready push behind the scan cursor");
        if self.ready[wi] & wb != 0 {
            return; // already queued this cycle — the dedup that keeps
                    // the ready set bounded under saturated drains
        }
        self.ready[wi] |= wb;
        self.ready_len += 1;
        self.counters.peak_ready = self.counters.peak_ready.max(u64::from(self.ready_len));
    }

    /// Wakes `pair` relative to the sweep position `pos` (the pair id
    /// currently being processed, plus one — [`PRE_SWEEP`] before the
    /// sweep): pairs still ahead join this cycle's ready set, pairs
    /// already passed wake next cycle, and the in-flight pair itself is
    /// skipped (it just forwarded, so its busy expiry re-examines it).
    fn wake(&mut self, pair: u32, pos: u32) {
        if pair >= pos {
            self.push_ready(pair);
        } else if pair + 1 < pos && !bit_test(&self.in_next, pair as usize) {
            bit_set(&mut self.in_next, pair as usize);
            self.next_wakes.push(pair);
            self.track_wake_heap();
        }
        // pair + 1 == pos: the pair being processed right now — it is
        // (or is about to be) busy, and its expiry wake covers it
    }

    /// Pops the lowest ready pair, returning `(pair, router, port)`.
    /// Pops are strictly ascending within a cycle (in-sweep wakes only
    /// ever target pairs ahead of the current position), which is what
    /// makes the pop order the oracle's sweep order. Call
    /// [`PortSched::count_visit`] once the pop turns out to be real work
    /// (the engine skips pairs on routers that drained empty — e.g. stale
    /// busy expiries — before counting, mirroring what the retired global
    /// scheme's active-router set never examined).
    pub(crate) fn pop_ready(&mut self) -> Option<(u32, usize, usize)> {
        let mut wi = self.scan;
        while wi < self.ready.len() {
            let word = self.ready[wi];
            if word != 0 {
                self.ready[wi] = word & (word - 1); // clear lowest set bit
                self.scan = wi;
                self.ready_len -= 1;
                let pair = (wi * 64) as u32 + word.trailing_zeros();
                let r = self.router_of[pair as usize];
                return Some((
                    pair,
                    r as usize,
                    (pair - self.port_base[r as usize]) as usize,
                ));
            }
            wi += 1;
        }
        self.scan = wi;
        None
    }

    /// Counts a popped pair as an examined port wake (see
    /// [`PortSched::pop_ready`]).
    pub(crate) fn count_visit(&mut self, pair: u32) {
        self.counters.port_wakes += 1;
        let r = self.router_of[pair as usize];
        if r != self.last_router {
            self.counters.router_visits += 1;
            self.last_router = r;
        }
    }

    /// Whether any head at the pair's router currently wants `(pair, w)`.
    pub(crate) fn wanted(&self, pair: u32, w: usize) -> bool {
        self.want[pair as usize * self.vcs + w] > 0
    }

    /// How many lane heads at the pair's router currently want
    /// `(pair, w)` — the candidate count, letting the arbitration scan
    /// stop as soon as it has found them all.
    pub(crate) fn want_count(&self, pair: u32, w: usize) -> u32 {
        self.want[pair as usize * self.vcs + w]
    }

    /// Marks `(pair, w)` as blocked on a full downstream lane; the
    /// credit release will wake the pair ([`PortSched::credit_freed`]).
    pub(crate) fn set_blocked(&mut self, pair: u32, w: usize) {
        bit_set(&mut self.blocked, pair as usize * self.vcs + w);
    }

    /// A credit on router `r`'s ingress lane `fi` went from full to free:
    /// wakes the upstream pair if it was blocked on that lane's VC.
    pub(crate) fn credit_freed(&mut self, r: usize, fi: usize, pos: u32) {
        let up = self.ups_pair[(self.lane_base[r] + fi as u32) as usize];
        debug_assert_ne!(up, NO_PAIR, "injection lanes hold no credits");
        let w = (fi - 1) % self.vcs;
        let bi = up as usize * self.vcs + w;
        if bit_test(&self.blocked, bi) {
            bit_clear(&mut self.blocked, bi);
            self.wake(up, pos);
        }
    }

    /// Installs the route mask of lane `fi`'s new head (a push onto an
    /// empty lane, or a pop exposing the next packet) and wakes every
    /// output port the head wants.
    pub(crate) fn set_head(
        &mut self,
        r: usize,
        fi: usize,
        spike: u64,
        dests: &[u32],
        inject: u64,
        pos: u32,
    ) {
        self.counters.head_updates += 1;
        let words = self.mask_words[r] as usize;
        let base = (self.mask_base[r] + fi as u32 * self.mask_words[r]) as usize;
        debug_assert!(
            self.head_mask[base..base + words].iter().all(|&m| m == 0),
            "stale head mask"
        );
        let want_base = self.port_base[r] as usize * self.vcs;
        self.head_inject[(self.lane_base[r] + fi as u32) as usize] = inject;
        for &d in dests {
            let bit = self.route_bit(spike, r, d);
            let (wi, wb) = (base + bit / 64, 1u64 << (bit % 64));
            if self.head_mask[wi] & wb == 0 {
                self.head_mask[wi] |= wb;
                self.want[want_base + bit] += 1;
                self.wake(self.port_base[r] + (bit / self.vcs) as u32, pos);
            }
        }
    }

    /// Removes lane `fi`'s head mask (its head was popped).
    pub(crate) fn clear_head(&mut self, r: usize, fi: usize) {
        let words = self.mask_words[r] as usize;
        let base = (self.mask_base[r] + fi as u32 * self.mask_words[r]) as usize;
        let want_base = self.port_base[r] as usize * self.vcs;
        for wi in 0..words {
            let mut m = self.head_mask[base + wi];
            self.head_mask[base + wi] = 0;
            while m != 0 {
                let bit = wi * 64 + m.trailing_zeros() as usize;
                self.want[want_base + bit] -= 1;
                m &= m - 1;
            }
        }
    }

    /// Clears one `(port, VC)` bit of lane `fi`'s head after a multicast
    /// split forwarded that branch (the head itself stays queued).
    pub(crate) fn shrink_head(&mut self, r: usize, fi: usize, bit: usize) {
        let base = (self.mask_base[r] + fi as u32 * self.mask_words[r]) as usize;
        let (wi, wb) = (base + bit / 64, 1u64 << (bit % 64));
        debug_assert!(self.head_mask[wi] & wb != 0, "split bit not in mask");
        self.head_mask[wi] &= !wb;
        self.want[self.port_base[r] as usize * self.vcs + bit] -= 1;
    }

    /// Whether lane `fi`'s head wants `(port, VC)` bit `bit`.
    pub(crate) fn head_wants(&self, r: usize, fi: usize, bit: usize) -> bool {
        let base = (self.mask_base[r] + fi as u32 * self.mask_words[r]) as usize;
        self.head_mask[base + bit / 64] & (1 << (bit % 64)) != 0
    }

    /// Inject cycle of lane `fi`'s head (valid while the lane has one).
    pub(crate) fn head_inject(&self, r: usize, fi: usize) -> u64 {
        self.head_inject[(self.lane_base[r] + fi as u32) as usize]
    }

    /// Schedules the pair's busy-expiry wake. Expiry cycles must be
    /// scheduled in nondecreasing order (they are `now + flits` for a
    /// constant `flits`), which keeps the queue sorted.
    pub(crate) fn schedule_expiry(&mut self, cycle: u64, pair: u32) {
        debug_assert!(
            self.expiries.back().is_none_or(|&(c, _)| c <= cycle),
            "expiries must be scheduled cycle-sorted"
        );
        self.expiries.push_back((cycle, pair));
        self.track_wake_heap();
    }

    /// Earliest pending busy expiry, if any.
    pub(crate) fn next_expiry(&self) -> Option<u64> {
        self.expiries.front().map(|&(c, _)| c)
    }

    /// Whether any wake is pending for the next cycle.
    pub(crate) fn has_next_wakes(&self) -> bool {
        !self.next_wakes.is_empty()
    }

    fn track_wake_heap(&mut self) {
        self.counters.peak_wake_heap = self
            .counters
            .peak_wake_heap
            .max((self.expiries.len() + self.next_wakes.len()) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2-router line, 1 VC: router 0 ↔ router 1, one crossbar each.
    fn line_sched() -> PortSched {
        let ports = vec![vec![(1usize, 0usize)], vec![(0usize, 0usize)]];
        // dest_bit: at router 0, crossbar 1 exits via port 0 (bit 0);
        // at router 1, crossbar 0 exits via port 0 (bit 0)
        PortSched::new(&ports, 1, vec![0, 0, 0, 0], 2, None)
    }

    #[test]
    fn pair_ids_follow_sweep_order() {
        let ports = vec![
            vec![(1, 0), (2, 0)], // router 0: 2 ports → pairs 0, 1
            vec![(0, 0)],         // router 1: pair 2
            vec![(0, 1)],         // router 2: pair 3
        ];
        let s = PortSched::new(&ports, 2, vec![0; 9], 3, None);
        assert_eq!(s.total_pairs(), 4);
        assert_eq!(s.port_base, vec![0, 2, 3, 4]);
        assert_eq!(s.router_of, vec![0, 0, 1, 2]);
    }

    #[test]
    fn duplicate_wakes_collapse_to_one_ready_entry() {
        let mut s = line_sched();
        for _ in 0..100 {
            s.wake(0, PRE_SWEEP);
            s.wake(1, PRE_SWEEP);
        }
        assert_eq!(s.ready_len, 2, "membership bitset must dedup");
        assert_eq!(s.counters.peak_ready, 2);
        assert_eq!(s.pop_ready().map(|(p, _, _)| p), Some(0));
        assert_eq!(s.pop_ready().map(|(p, _, _)| p), Some(1));
        assert!(s.pop_ready().is_none());
    }

    #[test]
    fn in_sweep_wakes_split_by_position() {
        let ports = vec![vec![(1, 0), (2, 0)], vec![(0, 0)], vec![(0, 1)]];
        let mut s = PortSched::new(&ports, 1, vec![0; 9], 3, None);
        // processing pair 1 (pos = 2): pair 3 is ahead → ready now;
        // pair 0 is behind → next cycle; pair 1 itself → skipped
        s.wake(3, 2);
        s.wake(0, 2);
        s.wake(1, 2);
        assert_eq!(s.ready_len, 1);
        assert!(s.has_next_wakes());
        assert_eq!(s.pop_ready().map(|(p, _, _)| p), Some(3));
        assert!(s.pop_ready().is_none(), "pair 1 must not self-wake");
        s.begin_cycle(10);
        assert_eq!(s.pop_ready().map(|(p, _, _)| p), Some(0));
        assert!(!s.has_next_wakes());
    }

    #[test]
    fn expiries_drain_only_when_due() {
        let mut s = line_sched();
        s.schedule_expiry(3, 0);
        s.schedule_expiry(5, 1);
        s.begin_cycle(2);
        assert!(s.pop_ready().is_none());
        s.begin_cycle(3);
        assert_eq!(s.pop_ready().map(|(p, _, _)| p), Some(0));
        s.begin_cycle(7);
        assert_eq!(s.pop_ready().map(|(p, _, _)| p), Some(1));
    }

    #[test]
    fn blocked_credit_release_wakes_the_upstream_pair() {
        let mut s = line_sched();
        // router 0's pair toward router 1 blocks on VC 0
        s.set_blocked(0, 0);
        // freeing router 1's ingress lane 1 (fed by pair 0) wakes pair 0
        s.credit_freed(1, 1, PRE_SWEEP);
        assert_eq!(s.pop_ready().map(|(p, _, _)| p), Some(0));
        // a second release without a blocked bit wakes nothing
        s.credit_freed(1, 1, PRE_SWEEP);
        assert!(s.pop_ready().is_none());
    }

    #[test]
    fn head_masks_track_want_counts() {
        let mut s = line_sched();
        s.set_head(0, 0, 0, &[1], 7, PRE_SWEEP);
        assert!(s.wanted(0, 0));
        assert!(s.head_wants(0, 0, 0));
        assert_eq!(s.head_inject(0, 0), 7);
        assert_eq!(s.pop_ready().map(|(p, _, _)| p), Some(0));
        s.clear_head(0, 0);
        assert!(!s.wanted(0, 0));
        assert!(!s.head_wants(0, 0, 0));
    }
}
