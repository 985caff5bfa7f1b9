//! The discrete-event queue.
//!
//! Events are totally ordered by `(time, key)`. The key is either an
//! insertion sequence ([`EventQueue::schedule`] — two events at the same
//! instant execute in the order they were scheduled) or an explicit
//! canonical key supplied by the caller ([`EventQueue::schedule_keyed`]).
//! The simulator uses canonical keys derived from the *originating* node
//! (see `crate::sim`). Either way, integer timestamps plus a total event
//! order make runs bit-reproducible.
//!
//! A queue holds node events only. Global events — forwarding swaps, fault
//! updates, fluid boundaries — live in the simulator's cursors (see
//! `crate::sim`) and never enter one.
//!
//! # Where a packet lives, and who frees it
//!
//! An entry in the ordered structures is 32 bytes: `(at, key)`, a tag and
//! two payload words. An 88-byte [`Packet`] never travels in one: it lives
//! in a `PacketSlab` (a `Vec<Packet>` plus a free list) the simulator owns,
//! and whatever holds it — an `Arrival` entry, a device queue —
//! holds its `u32` slot. A packet is parked once, when a device or a
//! local delivery takes it at its source (a send its source refuses is
//! never parked), and whoever ends its life frees the slot: delivery or a
//! drop. In between nothing copies it; the simulator drives the queue through
//! `EventQueue::schedule_slot` / `EventQueue::pop_slot`, which
//! move 32-byte entries only. The by-value [`Event`] API
//! ([`EventQueue::schedule`], [`EventQueue::pop`], ...) wraps those for
//! callers without a slab — the heap oracle, the benchmark's queue probes —
//! parking an arrival's packet in a slab the queue owns and taking it out
//! at the pop. One queue is driven through one API or the other, never both
//! (`debug_assert`ed at the pops): their slots index different slabs.
//!
//! # Two schedulers, one order
//!
//! * [`QueueKind::Heap`] — one `BinaryHeap`, O(log n) per operation. Never
//!   built by the simulator: it is the differential-testing oracle (and the
//!   baseline the benchmark's queue probes time the calendar against).
//! * [`QueueKind::Calendar`] (what [`EventQueue::new`] builds and the
//!   simulator runs on) — a two-level timing wheel over
//!   integer-ns time, where bucket indexing is a shift and a mask.
//!   Parking an event is O(1) however far ahead it is due:
//!   1. **Level 1**: [`NUM_SLOTS`] unsorted buckets, each [`SLOT_NS`] wide
//!      (a ~16.8 ms window sliding with the wheel). Packet-timescale
//!      events — serialization, propagation — land here directly.
//!   2. **Level 2**: [`NUM_SLOTS`] unsorted buckets, each one level-1
//!      rotation ([`SPAN_NS`], ~16.8 ms) wide and aligned to it, reaching
//!      ~69 s ahead. Pacing timers, RTO and delayed-ACK timers land
//!      here; when the wheel reaches a bucket's first slot the
//!      bucket is *cascaded*: each entry moves to its level-1 slot (or
//!      straight into the run, when due in that first slot).
//!   3. **Far heap**: a `BinaryHeap` for the few events beyond level 2.
//!
//!   The buckets of both levels are chains of fixed-size blocks from one
//!   pool per queue with a LIFO free list: the wheel stores what is
//!   pending plus at most one partly filled block per occupied bucket, and
//!   a push reuses the block a drain just handed back, still in cache.
//!
//!   Popping drains one level-1 bucket at a time as the wheel reaches it:
//!   its entries are gathered into the *run* and ordered latest first, so
//!   the next event is `Vec::pop` — O(1), nothing moves — where a heap
//!   would sift 32-byte entries down seven unpredictable levels per pop.
//!   Ordering is a count of the slot's 64-ns bins, a scatter into bin
//!   order and a sort of each bin's handful (a slot in one bin is sorted
//!   whole). Only what is scheduled into the slot *while* it drains
//!   (sub-slot delays) goes to a small side heap, `late`; the front of the
//!   queue is the earlier of the two fronts. Each level has an occupancy
//!   bitmap, so the wheel jumps straight to the next populated bucket.
//!
//! # The warm pass
//!
//! An arrival's packet was parked one propagation delay before it pops —
//! milliseconds, i.e. tens of thousands of events, earlier — so by then its
//! cache lines are cold, and a hop that starts by loading them stalls
//! for a full memory round trip, one hop after another. The ordered run
//! *is* the pop order, so when a slot is handed to the run the queue reads
//! every arrival's slab slot once, in that order — the fields a hop uses
//! (`dst`, `size_bytes`, `hops`: 14 adjacent bytes) and `id`, on the line a
//! trace record and the delivery read, not the whole packet: those loads
//! are independent and overlap in memory, and the pops that follow hit.
//! The reads are plain loads summed into a [`std::hint::black_box`],
//! not a prefetch intrinsic: `_mm_prefetch` measured only ≈ 4 % better and
//! would be the workspace's first `unsafe` block and first
//! `cfg(target_arch)`.
//!
//! [`QueueStats`] counts where inserts landed, how many entries were
//! cascaded, how many slots were drained and how full the fullest was, the
//! peak pending count, the pool's high-water mark and the most packets
//! alive at once.

use crate::packet::Packet;
use hypatia_util::SimTime;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::mem;
use std::ops::{Index, IndexMut};

/// Something that happens at an instant.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A device finished serializing its head-of-line packet.
    TxComplete {
        /// Owning node index.
        node: u32,
        /// Device index within the node.
        device: u32,
    },
    /// A packet arrives at a node (propagation complete).
    Arrival {
        /// Receiving node index.
        node: u32,
        /// The packet.
        packet: Packet,
    },
    /// An application timer fires.
    AppTimer {
        /// Application index.
        app: u32,
        /// Application-chosen timer id.
        timer_id: u64,
    },
}

/// Which [`Event`] variant a [`Scheduled`] entry stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tag {
    TxComplete,
    Arrival,
    AppTimer,
}

/// A pending event as the ordered structures hold it, and as the slot-level
/// calls hand it over: the `(at, key)` sort key plus the variant's fields
/// packed into `a`/`b` (an [`Tag::Arrival`]'s `b` is its packet's slab slot).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scheduled {
    pub(crate) at: SimTime,
    pub(crate) key: u64,
    pub(crate) b: u64,
    pub(crate) a: u32,
    pub(crate) tag: Tag,
}

const _: () = assert!(mem::size_of::<Scheduled>() <= 32);

impl Scheduled {
    /// Absolute level-1 slot index of this entry.
    fn slot(&self) -> u64 {
        self.at.nanos() >> SLOT_NS_SHIFT
    }
}

// Ordered by (time, key), *reversed*: `BinaryHeap` is a max-heap and the
// earliest entry must surface first (and a sorted `Vec` ends with it).
impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

/// The packets alive in the simulator (module doc). Freed slots are reused
/// last-freed-first, so a steady-state run touches the same few cache lines.
/// Slot numbers are never serialized and never observable.
#[derive(Debug, Default)]
pub(crate) struct PacketSlab {
    slots: Vec<Packet>,
    free: Vec<u32>,
}

impl PacketSlab {
    pub(crate) fn park(&mut self, packet: Packet) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = packet;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("packet slab index space");
                self.slots.push(packet);
                slot
            }
        }
    }

    /// End the life of the packet in `slot`.
    pub(crate) fn free(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// [`Self::free`], handing the packet out.
    pub(crate) fn take(&mut self, slot: u32) -> Packet {
        self.free(slot);
        self.slots[slot as usize]
    }

    /// Load the line(s) a hop reads and writes — `dst` and `hops` are the
    /// ends of that span, `id` covers what a trace record and the delivery
    /// read, see `warm_pass_covers_the_fields_a_hop_uses` — without taking
    /// the packet; the caller `black_box`es the value.
    fn touch(&self, slot: u32) -> u64 {
        let p = &self.slots[slot as usize];
        p.id ^ p.dst.0 as u64 ^ p.hops as u64
    }

    /// Packets alive now.
    pub(crate) fn occupied(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Most packets ever alive at once (a slot is added only when all are).
    pub(crate) fn peak(&self) -> usize {
        self.slots.len()
    }
}

impl Index<u32> for PacketSlab {
    type Output = Packet;
    fn index(&self, slot: u32) -> &Packet {
        &self.slots[slot as usize]
    }
}

impl IndexMut<u32> for PacketSlab {
    fn index_mut(&mut self, slot: u32) -> &mut Packet {
        &mut self.slots[slot as usize]
    }
}

/// Which scheduler implementation backs an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Binary min-heap over `(time, key)`.
    Heap,
    /// Two-level timing-wheel calendar queue (the default).
    #[default]
    Calendar,
}

/// Where an [`EventQueue`]'s inserts landed, for the manifest's `perf`
/// block. The split depends on the scheduler (a heap queue counts every
/// insert as `far_inserts`) and restarts at a resume, so it is run
/// telemetry, never a simulation observable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Inserts within the level-1 window (including the slot being drained).
    pub level1_inserts: u64,
    /// Inserts into a level-2 bucket.
    pub level2_inserts: u64,
    /// Inserts into a binary heap: beyond level 2, or any insert at all
    /// under [`QueueKind::Heap`].
    pub far_inserts: u64,
    /// Entries moved from a level-2 bucket into level 1.
    pub cascaded: u64,
    /// Largest number of events pending at once.
    pub peak_pending: u64,
    /// Times the wheel advanced to a new slot (zero under
    /// [`QueueKind::Heap`], like the two counts below).
    pub refills: u64,
    /// Largest slot population ordered into the run at once: ~100 at line
    /// rate, 10⁶ when a million in-phase timers share one slot.
    pub peak_run: u64,
    /// Inserts into the slot being drained (a subset of `level1_inserts`):
    /// the only ones that pay a heap push.
    pub late_inserts: u64,
    /// Most packets alive at once in the slab the arrivals index: the
    /// simulator's (on a wire or at a device), the queue's own when driven by value.
    pub slab_peak: u64,
    /// Most entries the wheel's block pool had room for, to read against
    /// `peak_pending` (zero under [`QueueKind::Heap`]).
    pub pool_peak: u64,
}

impl QueueStats {
    /// Fold in another queue's counts: inserts and refills add up, a peak
    /// is the larger of the two (queues of different simulations peak
    /// independently).
    pub fn merge(&mut self, other: &QueueStats) {
        self.level1_inserts += other.level1_inserts;
        self.level2_inserts += other.level2_inserts;
        self.far_inserts += other.far_inserts;
        self.cascaded += other.cascaded;
        self.peak_pending = self.peak_pending.max(other.peak_pending);
        self.refills += other.refills;
        self.peak_run = self.peak_run.max(other.peak_run);
        self.late_inserts += other.late_inserts;
        self.slab_peak = self.slab_peak.max(other.slab_peak);
        self.pool_peak = self.pool_peak.max(other.pool_peak);
    }
}

/// log2 of the level-1 bucket width: 2^12 ns = 4.096 µs per slot. Narrow
/// slots keep each bucket's population — and therefore the run the wheel
/// sorts and pops from — small and cache-hot even when tens of thousands of
/// packet events are in flight (the high-goodput end of Fig. 2, where a
/// global heap's sift path is all cache misses).
const SLOT_NS_SHIFT: u32 = 12;
/// Level-1 bucket width in nanoseconds.
pub const SLOT_NS: u64 = 1 << SLOT_NS_SHIFT;
/// log2 of the bucket count of either wheel level.
const WHEEL_BITS: u32 = 12;
/// Buckets per wheel level. At level 1, 4096 slots of 4.096 µs give a
/// ~16.8 ms window — past one serialization plus one typical propagation
/// delay, so the packet events that dominate the hot loop never leave
/// level 1. At level 2, 4096 buckets of one such window reach ~69 s: every
/// pacing, RTO and delayed-ACK timer.
pub const NUM_SLOTS: usize = 1 << WHEEL_BITS;
const SLOT_MASK: u64 = NUM_SLOTS as u64 - 1;
/// Level-2 bucket width in nanoseconds: one level-1 rotation.
pub const SPAN_NS: u64 = SLOT_NS << WHEEL_BITS;

/// Occupancy-bitmap words (one bit per bucket).
const BITMAP_WORDS: usize = NUM_SLOTS / 64;

/// Entries per pool block: 16 × 32 B = 512 B. With every level-1 bucket
/// occupied the partly filled blocks waste ≤ 2 MB, and a line-rate slot of
/// ~100 entries is a chain of seven blocks, so the drain follows few links.
const BLOCK: usize = 16;
/// Blocks per pool chunk (128 KB): the pool grows a chunk at a time and
/// never moves an entry, so it holds ≤ one chunk more than it hands out.
const CHUNK: usize = 256;
/// End of a chain or of the free list.
const NIL: u32 = u32::MAX;

/// log2 of the drain's bin width: a slot's 12 in-slot time bits make 64
/// bins (one `u64` of occupancy), one or two entries each at line rate.
const BIN_SHIFT: u32 = 6;
const BINS: usize = 1 << (SLOT_NS_SHIFT - BIN_SHIFT);
const _: () = assert!(BINS == 64, "a slot's bins are the bits of one u64");

/// What fills a pool slot that holds no entry.
const VACANT: Scheduled = Scheduled { at: SimTime::ZERO, key: 0, b: 0, a: 0, tag: Tag::AppTimer };

/// The blocks both wheel levels store their buckets in: block `i` is
/// `chunks[i / CHUNK][i % CHUNK]`, and `next[i]` links it on in its chain
/// or, once released, in the LIFO free list (grown only when that is empty).
#[derive(Debug)]
struct Pool {
    chunks: Vec<Box<[[Scheduled; BLOCK]]>>,
    next: Vec<u32>,
    /// Head of the free list, or [`NIL`].
    free: u32,
}

impl Pool {
    fn alloc(&mut self) -> u32 {
        if self.free != NIL {
            let block = self.free;
            self.free = self.next[block as usize];
            return block;
        }
        if self.next.len() == self.chunks.len() * CHUNK {
            self.chunks.push(vec![[VACANT; BLOCK]; CHUNK].into_boxed_slice());
        }
        let block = u32::try_from(self.next.len()).expect("event pool index space");
        self.next.push(NIL);
        block
    }

    /// Hand the blocks `head..=tail` of one chain back, in one link.
    fn release(&mut self, head: u32, tail: u32) {
        self.next[tail as usize] = self.free;
        self.free = head;
    }

    /// The entries of `chain`, block by block, in insertion order.
    fn blocks(&self, chain: Chain) -> impl Iterator<Item = &[Scheduled]> + '_ {
        let (mut block, mut left) = (chain.head as usize, chain.len as usize);
        std::iter::from_fn(move || {
            let n = left.min(BLOCK);
            let entries = (n > 0).then(|| &self.chunks[block / CHUNK][block % CHUNK][..n])?;
            (left, block) = (left - n, self.next[block] as usize);
            Some(entries)
        })
    }
}

/// One bucket: a chain of pool blocks, all full but the last.
#[derive(Debug, Clone, Copy, Default)]
struct Chain {
    head: u32,
    tail: u32,
    len: u32,
}

/// One wheel level: [`NUM_SLOTS`] unsorted buckets addressed by an
/// absolute index (a slot number at level 1, a span number at level 2)
/// modulo the wheel size, each a chain of blocks in the queue's [`Pool`].
/// The caller guarantees that live indices span less than one rotation,
/// so a position holds entries of one index only. `occupied` has a bit
/// set iff that bucket is non-empty, so finding the next populated bucket
/// is a word-sized bitmap scan instead of touching 4096 chain headers.
#[derive(Debug)]
struct Wheel {
    chains: Vec<Chain>,
    occupied: [u64; BITMAP_WORDS],
    /// Entries held across all buckets.
    len: usize,
}

impl Wheel {
    fn new() -> Self {
        Wheel { chains: vec![Chain::default(); NUM_SLOTS], occupied: [0; BITMAP_WORDS], len: 0 }
    }

    fn push(&mut self, pool: &mut Pool, index: u64, s: Scheduled) {
        let pos = (index & SLOT_MASK) as usize;
        let chain = &mut self.chains[pos];
        let fill = chain.len as usize % BLOCK;
        if fill == 0 {
            let block = pool.alloc();
            if chain.len == 0 {
                chain.head = block;
                self.occupied[pos / 64] |= 1 << (pos % 64);
            } else {
                pool.next[chain.tail as usize] = block;
            }
            chain.tail = block;
        }
        pool.chunks[chain.tail as usize / CHUNK][chain.tail as usize % CHUNK][fill] = s;
        chain.len += 1;
        self.len += 1;
    }

    /// Absolute index of the nearest occupied bucket after `cur` (whose
    /// own bucket must be empty), or `None` when the level holds nothing.
    /// A circular find-first-set: at most `BITMAP_WORDS + 1` word reads,
    /// all within one 512-byte array.
    fn next_occupied(&self, cur: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let cur_pos = (cur & SLOT_MASK) as usize;
        let start = (cur_pos + 1) % NUM_SLOTS;
        let mut word_idx = start / 64;
        let mut word = self.occupied[word_idx] & (!0u64 << (start % 64));
        for _ in 0..=BITMAP_WORDS {
            if word != 0 {
                let pos = word_idx * 64 + word.trailing_zeros() as usize;
                let distance = ((pos + NUM_SLOTS - cur_pos - 1) % NUM_SLOTS) + 1;
                debug_assert!(distance < NUM_SLOTS, "bucket of the current index is occupied");
                return Some(cur + distance as u64);
            }
            word_idx = (word_idx + 1) % BITMAP_WORDS;
            word = self.occupied[word_idx];
        }
        unreachable!("wheel level holds entries but its occupancy bitmap is empty")
    }

    /// Empty the bucket of `index`, handing its chain to the caller to release.
    fn take(&mut self, index: u64) -> Chain {
        let pos = (index & SLOT_MASK) as usize;
        self.occupied[pos / 64] &= !(1 << (pos % 64));
        let chain = mem::take(&mut self.chains[pos]);
        self.len -= chain.len as usize;
        chain
    }

    fn iter<'a>(&'a self, pool: &'a Pool) -> impl Iterator<Item = &'a Scheduled> {
        self.chains.iter().flat_map(|&chain| pool.blocks(chain)).flatten()
    }
}

/// Where [`CalendarQueue::schedule`] parked an entry.
enum Tier {
    Level1,
    Level2,
    Far,
}

/// The calendar queue: two wheel levels plus a far heap.
///
/// Invariants (slot = `at >> 12`, span = `slot >> 12`):
/// * `run` and `late` together hold the events of every slot
///   `<= cur_slot`: `run` is what the slot held when the wheel reached it,
///   ordered latest-first so the next one is `run.pop()`; `late` is a
///   min-heap (by `(at, key)`) of what was scheduled into the slot since —
///   a side heap, not an insertion into `run`, so a late insert into a
///   populated slot is O(log late-population) instead of an O(population)
///   memmove;
/// * `level1` holds exactly the wheel-resident events of slots in
///   `(cur_slot, cur_slot + NUM_SLOTS)`: a bucket is drained when the
///   wheel reaches it, before its position can be reused one rotation
///   later;
/// * `level2` holds events that were at least one level-1 window ahead
///   when scheduled, by span, for spans in
///   `(cur_span, cur_span + NUM_SLOTS)`. A bucket is cascaded into
///   `level1` when the wheel reaches the first slot of its span — never
///   later, so every span `<= cur_span` is empty;
/// * `far` holds events at least one level-2 rotation ahead when
///   scheduled, pulled into `run` once their slot becomes current.
#[derive(Debug)]
struct CalendarQueue {
    run: Vec<Scheduled>,
    /// Where a bucketed drain scatters the run to (then the two swap).
    spare: Vec<Scheduled>,
    late: BinaryHeap<Scheduled>,
    /// Absolute index of the slot being drained.
    cur_slot: u64,
    level1: Wheel,
    level2: Wheel,
    /// Where both levels' buckets keep their entries.
    pool: Pool,
    far: BinaryHeap<Scheduled>,
    len: usize,
    /// The [`QueueStats`] fields of the same names, so far.
    refills: u64,
    peak_run: usize,
    late_inserts: u64,
}

impl CalendarQueue {
    fn new() -> Self {
        CalendarQueue {
            run: Vec::new(),
            spare: Vec::new(),
            late: BinaryHeap::new(),
            cur_slot: 0,
            level1: Wheel::new(),
            level2: Wheel::new(),
            pool: Pool { chunks: Vec::new(), next: Vec::new(), free: NIL },
            far: BinaryHeap::new(),
            len: 0,
            refills: 0,
            peak_run: 0,
            late_inserts: 0,
        }
    }

    fn schedule(&mut self, s: Scheduled) -> Tier {
        self.len += 1;
        let slot = s.slot();
        if slot <= self.cur_slot {
            // At (or before) the slot being drained: the run is ordered
            // already, so it waits beside it.
            self.late.push(s);
            self.late_inserts += 1;
            Tier::Level1
        } else if slot - self.cur_slot < NUM_SLOTS as u64 {
            self.level1.push(&mut self.pool, slot, s);
            Tier::Level1
        } else {
            // At least a level-1 window ahead, so in a later span.
            let span = slot >> WHEEL_BITS;
            if span - (self.cur_slot >> WHEEL_BITS) < NUM_SLOTS as u64 {
                self.level2.push(&mut self.pool, span, s);
                Tier::Level2
            } else {
                self.far.push(s);
                Tier::Far
            }
        }
    }

    /// Advance the wheel (requires an empty run, an empty late heap and
    /// `len > 0`): jump straight to the earliest populated slot — a level-1
    /// bucket, the first slot of a level-2 bucket, or the far heap's front,
    /// whichever is due first — and move what is due there into the run,
    /// ordered, its parked packets warmed. A level-2 bucket reached this way
    /// is cascaded; when none of its entries sits in that first slot the
    /// run stays empty and the caller refills again, now from level 1.
    fn refill(&mut self, packets: &PacketSlab) {
        debug_assert!(self.run.is_empty() && self.late.is_empty() && self.len > 0);
        let level1_next = self.level1.next_occupied(self.cur_slot);
        let level2_next = self.level2.next_occupied(self.cur_slot >> WHEEL_BITS);
        let level2_slot = level2_next.map(|span| span << WHEEL_BITS);
        let far_slot = self.far.peek().map(Scheduled::slot);
        let target = [level1_next, level2_slot, far_slot]
            .into_iter()
            .flatten()
            .min()
            .expect("pending events but every tier is empty");
        debug_assert!(target > self.cur_slot);
        self.cur_slot = target;

        // Gather the slot from all three tiers, noting the bins it fills,
        // into a run sized once: the level-1 bucket and all of a cascading
        // bucket are an upper bound on what is due, a far entry aside.
        let chain = self.level1.take(target);
        let cascading =
            (level2_slot == Some(target)).then(|| self.level2.take(target >> WHEEL_BITS));
        let (run, mut bins) = (&mut self.run, 0u64);
        run.reserve_exact(chain.len as usize + cascading.map_or(0, |c| c.len as usize));
        let mut gather = |entries: &[Scheduled]| {
            run.extend_from_slice(entries);
            bins = entries.iter().fold(bins, |bins, s| bins | 1 << bin(s));
        };
        self.pool.blocks(chain).for_each(&mut gather);
        if chain.len > 0 {
            self.pool.release(chain.head, chain.tail);
        }
        if let Some(chain) = cascading {
            // The rest cascades to level 1, into each block as it frees it.
            let (mut block, mut left) = (chain.head as usize, chain.len as usize);
            while left > 0 {
                let n = left.min(BLOCK);
                let entries = self.pool.chunks[block / CHUNK][block % CHUNK];
                let next = self.pool.next[block] as usize;
                self.pool.release(block as u32, block as u32);
                for &s in &entries[..n] {
                    if s.slot() == target {
                        gather(&[s]);
                    } else {
                        self.level1.push(&mut self.pool, s.slot(), s);
                    }
                }
                (block, left) = (next, left - n);
            }
        }
        while self.far.peek().is_some_and(|top| top.slot() <= target) {
            gather(&[self.far.pop().expect("peeked entry vanished")]);
        }
        order(&mut self.run, &mut self.spare, bins);
        self.refills += 1;
        self.peak_run = self.peak_run.max(self.run.len());

        // The warm pass (module doc): one read per arrival, in pop order.
        let arrivals = self.run.iter().rev().filter(|s| s.tag == Tag::Arrival);
        black_box(arrivals.fold(0, |sum: u64, s| sum.wrapping_add(packets.touch(s.b as u32))));
    }

    /// Whether the next event sits in `late` rather than at the end of
    /// `run`. (`None < Some(_)`, and the reversed `Ord` makes the earlier
    /// entry the greater one.)
    fn front_is_late(&self) -> bool {
        self.late.peek() > self.run.last()
    }

    /// Borrow the next event in `(time, key)` order without removing it.
    fn front(&mut self, packets: &PacketSlab) -> Option<&Scheduled> {
        if self.len == 0 {
            return None;
        }
        while self.run.is_empty() && self.late.is_empty() {
            self.refill(packets);
        }
        if self.front_is_late() {
            self.late.peek()
        } else {
            self.run.last()
        }
    }

    fn pop_before(&mut self, t_end: SimTime, packets: &PacketSlab) -> Option<Scheduled> {
        if self.front(packets)?.at > t_end {
            return None;
        }
        self.len -= 1;
        if self.front_is_late() {
            self.late.pop()
        } else {
            self.run.pop()
        }
    }

    fn iter(&self) -> impl Iterator<Item = &Scheduled> {
        self.run
            .iter()
            .chain(self.late.iter())
            .chain(self.level1.iter(&self.pool))
            .chain(self.level2.iter(&self.pool))
            .chain(self.far.iter())
    }
}

/// The 64-ns bin of an entry's slot it falls in.
fn bin(s: &Scheduled) -> usize {
    (s.at.nanos() >> BIN_SHIFT) as usize & (BINS - 1)
}

/// Order a slot's gathered `run`, whose entries fill the bins set in
/// `bins`, latest first (`Ord` is reversed, so an ascending sort does
/// that): count each 64-ns bin, scatter every entry to its bin's range of
/// `spare` (latest bin first), swap the two and sort each bin on its own.
/// A run in one bin — `flows_1m`'s million in-phase timers — is sorted
/// whole, where pdqsort's run detection finds it ordered already.
fn order(run: &mut Vec<Scheduled>, spare: &mut Vec<Scheduled>, bins: u64) {
    if bins.count_ones() <= 1 {
        run.sort_unstable();
        return;
    }
    let mut counts = [0u32; BINS];
    for s in run.iter() {
        counts[bin(s)] += 1;
    }
    // Bin `b` ends where the earlier bins' ranges begin. The passes over
    // bins visit only the occupied ones: a sparse slot costs no more.
    let (mut fill, mut end, mut left) = ([0u32; BINS], run.len() as u32, bins);
    while left != 0 {
        let b = left.trailing_zeros() as usize;
        left &= left - 1;
        fill[b] = end;
        end -= counts[b];
    }
    // Each bin fills back to front, so entries gathered in order stay so.
    spare.clear();
    spare.resize(run.len(), VACANT);
    for s in run.iter() {
        let at = &mut fill[bin(s)];
        *at -= 1;
        spare[*at as usize] = *s;
    }
    mem::swap(run, spare);
    let mut left = bins;
    while left != 0 {
        let b = left.trailing_zeros() as usize;
        left &= left - 1;
        run[fill[b] as usize..][..counts[b] as usize].sort_unstable();
    }
}

#[derive(Debug)]
enum QueueImpl {
    Heap(BinaryHeap<Scheduled>),
    // Boxed: two occupancy bitmaps make CalendarQueue >1 KB inline.
    Calendar(Box<CalendarQueue>),
}

impl QueueImpl {
    /// `packets` is the slab the arrivals' slots index (for the warm pass).
    fn pop_before(&mut self, t_end: SimTime, packets: &PacketSlab) -> Option<Scheduled> {
        match self {
            QueueImpl::Heap(heap) => {
                if heap.peek()?.at > t_end {
                    return None;
                }
                heap.pop()
            }
            QueueImpl::Calendar(cal) => cal.pop_before(t_end, packets),
        }
    }

    fn peek_time(&mut self, packets: &PacketSlab) -> Option<SimTime> {
        match self {
            QueueImpl::Heap(heap) => heap.peek().map(|s| s.at),
            QueueImpl::Calendar(cal) => cal.front(packets).map(|s| s.at),
        }
    }
}

/// The event queue.
#[derive(Debug)]
pub struct EventQueue {
    imp: QueueImpl,
    /// The by-value API's packets; empty on a queue driven by slot.
    own: PacketSlab,
    /// Pending [`Tag::Arrival`] entries.
    arrivals: usize,
    seq: u64,
    stats: QueueStats,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue backed by the default scheduler (calendar).
    pub fn new() -> Self {
        Self::with_kind(QueueKind::default())
    }

    /// An empty queue backed by the given scheduler. Pop order is
    /// identical for every kind; the heap exists to be compared against.
    pub fn with_kind(kind: QueueKind) -> Self {
        let imp = match kind {
            QueueKind::Heap => QueueImpl::Heap(BinaryHeap::new()),
            QueueKind::Calendar => QueueImpl::Calendar(Box::new(CalendarQueue::new())),
        };
        EventQueue { imp, own: Default::default(), arrivals: 0, seq: 0, stats: Default::default() }
    }

    /// The backing scheduler kind.
    pub fn kind(&self) -> QueueKind {
        match self.imp {
            QueueImpl::Heap(_) => QueueKind::Heap,
            QueueImpl::Calendar(_) => QueueKind::Calendar,
        }
    }

    /// Schedule `event` at absolute time `at`, tie-broken by insertion
    /// order among same-instant events.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.schedule_keyed(at, seq, event);
    }

    /// Schedule `event` at `at` with an explicit tie-break key. Same-instant
    /// events pop in increasing key order regardless of insertion order.
    /// Callers must not mix auto-sequenced and keyed scheduling on one
    /// queue unless they can rule out `(at, key)` collisions.
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, event: Event) {
        let own = &mut self.own;
        let (tag, a, b) = pack(event, |packet| own.park(packet));
        self.schedule_slot(at, key, tag, a, b);
    }

    /// [`Self::schedule_keyed`] at slot level: the entry's fields as they
    /// are stored, an arrival's `b` being a slot of the caller's slab.
    pub(crate) fn schedule_slot(&mut self, at: SimTime, key: u64, tag: Tag, a: u32, b: u64) {
        let s = Scheduled { at, key, b, a, tag };
        self.arrivals += (tag == Tag::Arrival) as usize;
        let tier = match &mut self.imp {
            QueueImpl::Heap(heap) => {
                heap.push(s);
                Tier::Far
            }
            QueueImpl::Calendar(cal) => cal.schedule(s),
        };
        match tier {
            Tier::Level1 => self.stats.level1_inserts += 1,
            Tier::Level2 => self.stats.level2_inserts += 1,
            Tier::Far => self.stats.far_inserts += 1,
        }
        self.stats.peak_pending = self.stats.peak_pending.max(self.len() as u64);
    }

    /// Pop the next event if any, returning `(time, event)`.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_before(SimTime::MAX)
    }

    /// Pop the next event only if it is due at or before `t_end` — the
    /// main loop's peek-then-pop collapsed into one queue operation.
    pub fn pop_before(&mut self, t_end: SimTime) -> Option<(SimTime, Event)> {
        self.pop_entry_before(t_end).map(|(t, _, event)| (t, event))
    }

    /// [`Self::pop_before`], but also returning the event's tie-break key.
    pub fn pop_entry_before(&mut self, t_end: SimTime) -> Option<(SimTime, u64, Event)> {
        debug_assert_eq!(self.arrivals, self.own.occupied(), "queue is driven by slot");
        let s = self.imp.pop_before(t_end, &self.own)?;
        self.arrivals -= (s.tag == Tag::Arrival) as usize;
        let own = &mut self.own;
        Some((s.at, s.key, unpack(&s, |slot| own.take(slot))))
    }

    /// [`Self::pop_entry_before`] at slot level: the entry as stored, an
    /// arrival's packet left where it is in `packets`. The simulator tags
    /// trace records with its key, which places them in `(time, key)`
    /// order.
    pub(crate) fn pop_slot(&mut self, t_end: SimTime, packets: &PacketSlab) -> Option<Scheduled> {
        debug_assert_eq!(self.own.occupied(), 0, "queue is driven by value");
        let s = self.imp.pop_before(t_end, packets)?;
        self.arrivals -= (s.tag == Tag::Arrival) as usize;
        Some(s)
    }

    /// Time of the next event without removing it. (The calendar backend
    /// may advance its wheel to locate the front, hence `&mut`.)
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.imp.peek_time(&self.own)
    }

    /// [`Self::peek_time`] on a queue driven by slot.
    pub(crate) fn next_time(&mut self, packets: &PacketSlab) -> Option<SimTime> {
        debug_assert_eq!(self.own.occupied(), 0, "queue is driven by value");
        self.imp.peek_time(packets)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.imp {
            QueueImpl::Heap(heap) => heap.len(),
            QueueImpl::Calendar(cal) => cal.len,
        }
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Packets parked by the by-value API — exactly its pending
    /// [`Event::Arrival`]s.
    pub fn parked_packets(&self) -> usize {
        self.own.occupied()
    }

    /// Pending arrival entries: the packets on a wire, in whichever slab.
    pub(crate) fn pending_arrivals(&self) -> usize {
        self.arrivals
    }

    /// Every pending `(time, key, event)` in pop order, leaving the queue
    /// untouched.
    pub fn pending_in_order(&self) -> Vec<(SimTime, u64, Event)> {
        let entries = self.pending_slots();
        entries.iter().map(|s| (s.at, s.key, unpack(s, |slot| self.own[slot]))).collect()
    }

    /// Every pending entry in pop order, leaving the queue untouched
    /// (checkpoints serialize this).
    pub(crate) fn pending_slots(&self) -> Vec<Scheduled> {
        let mut entries: Vec<Scheduled> = match &self.imp {
            QueueImpl::Heap(heap) => heap.iter().copied().collect(),
            QueueImpl::Calendar(cal) => cal.iter().copied().collect(),
        };
        entries.sort_unstable_by_key(|s| (s.at, s.key));
        entries
    }

    /// Insert, cascade and refill counts so far, and the queue's peaks.
    pub fn stats(&self) -> QueueStats {
        let mut stats = QueueStats { slab_peak: self.own.peak() as u64, ..self.stats };
        if let QueueImpl::Calendar(cal) = &self.imp {
            // Whatever entered level 2 and is no longer there was cascaded.
            stats.cascaded = stats.level2_inserts - cal.level2.len as u64;
            stats.refills = cal.refills;
            stats.peak_run = cal.peak_run as u64;
            stats.late_inserts = cal.late_inserts;
            stats.pool_peak = (cal.pool.chunks.len() * CHUNK * BLOCK) as u64;
        }
        stats
    }
}

/// The `(tag, a, b)` an [`Event`] is stored as; `park` gives an arrival's
/// packet its slab slot.
pub(crate) fn pack(event: Event, park: impl FnOnce(Packet) -> u32) -> (Tag, u32, u64) {
    match event {
        Event::TxComplete { node, device } => (Tag::TxComplete, node, device as u64),
        Event::Arrival { node, packet } => (Tag::Arrival, node, park(packet) as u64),
        Event::AppTimer { app, timer_id } => (Tag::AppTimer, app, timer_id),
    }
}

/// Rebuild the [`Event`] an entry stands for; `packet` resolves an
/// arrival's slab slot (taking it, or merely reading it).
pub(crate) fn unpack(s: &Scheduled, packet: impl FnOnce(u32) -> Packet) -> Event {
    match s.tag {
        Tag::TxComplete => Event::TxComplete { node: s.a, device: s.b as u32 },
        Tag::Arrival => Event::Arrival { node: s.a, packet: packet(s.b as u32) },
        Tag::AppTimer => Event::AppTimer { app: s.a, timer_id: s.b },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{Snap, SnapReader, SnapWriter};
    use crate::packet::{Payload, Segment};
    use hypatia_constellation::NodeId;
    use hypatia_util::rng::DetRng;

    /// One level-2 rotation: the far heap starts this far ahead.
    const LEVEL2_NS: u64 = SPAN_NS * NUM_SLOTS as u64;

    fn both_kinds() -> [EventQueue; 2] {
        [EventQueue::with_kind(QueueKind::Heap), EventQueue::with_kind(QueueKind::Calendar)]
    }

    /// A packet whose every field is a function of `id`, so a popped
    /// packet can be checked field for field without remembering it.
    fn packet_of(id: u64) -> Packet {
        let payload = match id % 4 {
            0 => Payload::Ping { seq: id ^ 0x55 },
            1 => Payload::Pong { seq: id, ping_injected_at: SimTime::from_nanos(id * 3) },
            2 => Payload::Udp { flow: id as u32, seq: id + 9, payload_bytes: (id % 1441) as u32 },
            _ => Payload::Seg(Segment {
                seq: id * 1380,
                payload_bytes: 1380,
                ack: id / 2,
                ts: SimTime::from_nanos(id * 5),
                ts_echo: SimTime::from_nanos(id * 7),
                fin: id % 8 == 3,
            }),
        };
        Packet {
            id,
            src: NodeId(id as u32),
            dst: NodeId(!id as u32),
            src_port: (id % 65_521) as u16,
            dst_port: (id % 251) as u16,
            size_bytes: 60 + (id % 1441) as u32,
            payload,
            injected_at: SimTime::from_nanos(id * 11),
            hops: (id % 40) as u16,
            flow_hash: id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Every third event is an `Arrival` carrying `packet_of(id)`.
    fn event_of(id: u64) -> Event {
        if id.is_multiple_of(3) {
            Event::Arrival { node: id as u32, packet: packet_of(id) }
        } else {
            Event::AppTimer { app: 0, timer_id: id }
        }
    }

    fn assert_intact(event: &Event) {
        if let Event::Arrival { node, packet } = event {
            assert_eq!(*packet, packet_of(packet.id), "packet {} came back altered", packet.id);
            assert_eq!(*node, packet.id as u32);
        }
    }

    /// What `Simulator::checkpoint` / `Simulator::restore` do with a queue: list the
    /// pending entries in order without disturbing it, write them through
    /// the snapshot container, re-schedule them into a fresh queue of the
    /// same kind. Returns the listing and the restored queue.
    fn snapshot_round_trip(q: &EventQueue) -> (Vec<(SimTime, u64, Event)>, EventQueue) {
        const FP: u64 = 0x51AB;
        let (len, parked) = (q.len(), q.parked_packets());
        let entries = q.pending_in_order();
        assert_eq!((q.len(), q.parked_packets()), (len, parked), "listing disturbed the queue");
        assert_eq!(entries.len(), len);
        assert!(entries.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        // The O(1) arrival count is a recount of the entries, not of the slab.
        let arrivals = q.pending_slots().iter().filter(|s| s.tag == Tag::Arrival).count();
        assert_eq!((q.pending_arrivals(), parked), (arrivals, arrivals));
        let mut w = SnapWriter::new(FP);
        for (t, key, event) in &entries {
            (*t, *key).put(&mut w);
            event.put(&mut w);
        }
        let mut r = SnapReader::from_bytes(w.finish(), FP).expect("valid image");
        let mut restored = EventQueue::with_kind(q.kind());
        for _ in 0..len {
            let (t, key) = r.get().unwrap();
            let mut event = Event::AppTimer { app: 0, timer_id: 0 };
            event.restore(&mut r).unwrap();
            restored.schedule_keyed(t, key, event);
        }
        r.expect_end().unwrap();
        assert_eq!(restored.parked_packets(), parked);
        (entries, restored)
    }

    /// Schedule `event_of(*id)` at `(at_ns, key)` on every queue.
    fn put(queues: &mut [EventQueue], id: &mut u64, at_ns: u64, key: u64) {
        for q in queues {
            q.schedule_keyed(SimTime::from_nanos(at_ns), key, event_of(*id));
        }
        *id += 1;
    }

    /// Pop once from every queue (the first is the oracle); all must agree.
    fn pop_all(queues: &mut [EventQueue], what: &str) -> Option<(SimTime, u64, Event)> {
        let want = queues[0].pop_entry_before(SimTime::MAX);
        for q in &mut queues[1..] {
            assert_eq!(q.pop_entry_before(SimTime::MAX), want, "{what}");
        }
        if let Some((_, _, event)) = &want {
            assert_intact(event);
        }
        want
    }

    #[test]
    fn default_is_calendar() {
        assert_eq!(EventQueue::new().kind(), QueueKind::Calendar);
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in both_kinds() {
            q.schedule(SimTime::from_millis(30), Event::AppTimer { app: 0, timer_id: 3 });
            q.schedule(SimTime::from_millis(10), Event::AppTimer { app: 0, timer_id: 1 });
            q.schedule(SimTime::from_millis(20), Event::AppTimer { app: 0, timer_id: 2 });
            let order: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(_, e)| match e {
                    Event::AppTimer { timer_id, .. } => timer_id,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(order, vec![1, 2, 3]);
        }
    }

    #[test]
    fn fifo_within_same_instant() {
        for mut q in both_kinds() {
            let t = SimTime::from_secs(1);
            for timer_id in 0..10 {
                q.schedule(t, Event::AppTimer { app: 0, timer_id });
            }
            let order: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(_, e)| match e {
                    Event::AppTimer { timer_id, .. } => timer_id,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(order, (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn peek_does_not_remove() {
        for mut q in both_kinds() {
            q.schedule(SimTime::from_secs(5), Event::AppTimer { app: 0, timer_id: 7 });
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
            assert_eq!(q.len(), 1);
            assert!(q.pop().is_some());
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
        }
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        for mut q in both_kinds() {
            q.schedule(SimTime::from_secs(2), Event::AppTimer { app: 0, timer_id: 2 });
            q.schedule(SimTime::from_secs(1), Event::AppTimer { app: 0, timer_id: 1 });
            let (t1, _) = q.pop().unwrap();
            assert_eq!(t1, SimTime::from_secs(1));
            q.schedule(SimTime::from_millis(1500), Event::AppTimer { app: 0, timer_id: 15 });
            let (t2, e2) = q.pop().unwrap();
            assert_eq!(t2, SimTime::from_millis(1500));
            assert!(matches!(e2, Event::AppTimer { timer_id: 15, .. }));
        }
    }

    #[test]
    fn pop_before_is_inclusive_and_leaves_later_events() {
        for mut q in both_kinds() {
            q.schedule(SimTime::from_millis(10), Event::AppTimer { app: 0, timer_id: 1 });
            q.schedule(SimTime::from_millis(20), Event::AppTimer { app: 0, timer_id: 2 });
            assert!(q.pop_before(SimTime::from_millis(5)).is_none());
            assert_eq!(q.len(), 2, "pop_before must not remove a later event");
            // Inclusive at exactly t_end.
            let (t, _) = q.pop_before(SimTime::from_millis(10)).unwrap();
            assert_eq!(t, SimTime::from_millis(10));
            assert!(q.pop_before(SimTime::from_millis(19)).is_none());
            let (t, _) = q.pop_before(SimTime::from_millis(25)).unwrap();
            assert_eq!(t, SimTime::from_millis(20));
            assert!(q.pop_before(SimTime::MAX).is_none());
        }
    }

    #[test]
    fn keyed_scheduling_orders_same_instant_events_by_key() {
        for mut q in both_kinds() {
            let t = SimTime::from_millis(5);
            // Insertion order deliberately disagrees with key order.
            q.schedule_keyed(t, 30, Event::AppTimer { app: 0, timer_id: 3 });
            q.schedule_keyed(t, 10, Event::AppTimer { app: 0, timer_id: 1 });
            q.schedule_keyed(SimTime::from_millis(1), 99, Event::AppTimer { app: 0, timer_id: 0 });
            q.schedule_keyed(t, 20, Event::AppTimer { app: 0, timer_id: 2 });
            let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop_entry_before(SimTime::MAX))
                .map(|(_, key, e)| match e {
                    Event::AppTimer { timer_id, .. } => (key, timer_id),
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(order, vec![(99, 0), (10, 1), (20, 2), (30, 3)]);
        }
    }

    #[test]
    fn pop_entry_before_matches_pop_before() {
        for mut q in both_kinds() {
            q.schedule_keyed(SimTime::from_millis(10), 7, Event::AppTimer { app: 0, timer_id: 1 });
            assert!(q.pop_entry_before(SimTime::from_millis(9)).is_none());
            let (t, key, _) = q.pop_entry_before(SimTime::from_millis(10)).unwrap();
            assert_eq!((t, key), (SimTime::from_millis(10), 7));
            assert!(q.is_empty());
        }
    }

    #[test]
    fn calendar_handles_same_slot_and_cross_slot_ties() {
        let mut q = EventQueue::with_kind(QueueKind::Calendar);
        // Two events in the same wheel slot, one a slot ahead, one far in
        // the overflow, then a same-instant tie with the overflow event.
        let in_slot = SimTime::from_nanos(SLOT_NS / 2);
        let far = SimTime::from_secs(30);
        q.schedule(far, Event::AppTimer { app: 9, timer_id: 0 });
        q.schedule(in_slot, Event::AppTimer { app: 1, timer_id: 0 });
        q.schedule(in_slot, Event::AppTimer { app: 2, timer_id: 0 });
        q.schedule(SimTime::from_nanos(SLOT_NS + 1), Event::AppTimer { app: 3, timer_id: 0 });
        q.schedule(far, Event::AppTimer { app: 10, timer_id: 0 });
        let apps: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::AppTimer { app, .. } => app,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(apps, vec![1, 2, 3, 9, 10]);
    }

    #[test]
    fn calendar_jumps_over_long_empty_stretches() {
        let mut q = EventQueue::with_kind(QueueKind::Calendar);
        // Hours apart: forces the wheel-empty jump path repeatedly.
        for h in (1..=5u64).rev() {
            q.schedule(SimTime::from_secs(h * 3600), Event::AppTimer { app: 0, timer_id: h });
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::AppTimer { timer_id, .. } => timer_id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    /// Tier-boundary edges: events landing exactly on, one nanosecond
    /// before and just after the level-1 window's end, a level-2 span's
    /// first slot, and the level-2 horizon must pop in exactly heap order —
    /// on a fresh wheel, after level 1 has wrapped, after level 2 has
    /// wrapped, and hours in, where every index has wrapped many times.
    #[test]
    fn tier_boundaries_pop_identically_before_and_after_wrap() {
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        let mut cal = EventQueue::with_kind(QueueKind::Calendar);
        let mut id = 0u64;
        let mut now = 0u64;
        for jump in
            [0, SPAN_NS + 5 * SLOT_NS + 17, LEVEL2_NS + 3 * SPAN_NS + 1, 3 * 3600 * 1_000_000_000]
        {
            // Run both queues forward to `now + jump`, ending on a popped
            // event (a peek would move the wheel on to the next one).
            let target = now + jump;
            while now < target {
                if heap.is_empty() {
                    for q in [&mut heap, &mut cal] {
                        let timer_id = target;
                        q.schedule(
                            SimTime::from_nanos(target),
                            Event::AppTimer { app: 0, timer_id },
                        );
                    }
                }
                let (a, b) = (heap.pop(), cal.pop());
                assert_eq!(a, b, "diverged on the way to {target}");
                now = a.expect("queue drained early").0.nanos();
            }
            let slot_start = now >> SLOT_NS_SHIFT << SLOT_NS_SHIFT;
            let span_start = now / SPAN_NS * SPAN_NS;
            let mut ats = vec![now, now + 1, slot_start + SLOT_NS - 1, slot_start + SLOT_NS];
            for edge in [
                slot_start + SPAN_NS,       // first slot past the level-1 window
                span_start + SPAN_NS,       // first slot of the next level-2 span
                span_start + 2 * SPAN_NS,   // ... and of the one after
                span_start + LEVEL2_NS,     // first span past level 2
                slot_start + LEVEL2_NS,     // one level-2 rotation from the cursor
                span_start + 2 * LEVEL2_NS, // deep in the far heap
            ] {
                ats.extend([
                    edge - SLOT_NS,
                    edge - 1,
                    edge,
                    edge,
                    edge + 1,
                    edge + SLOT_NS,
                    edge + 7,
                ]);
            }
            // Reversed, so insertion order disagrees with time order.
            for &at in ats.iter().rev() {
                for q in [&mut heap, &mut cal] {
                    q.schedule(SimTime::from_nanos(at), event_of(id));
                }
                id += 1;
            }
            // Drain half, so the next round starts from a wheel mid-flight
            // with entries still parked in every tier.
            for step in 0..ats.len() / 2 {
                let (a, b) = (heap.pop(), cal.pop());
                assert_eq!(a, b, "pop {step} diverged after jumping to {now}");
                let (t, event) = a.expect("queue drained early");
                assert_intact(&event);
                assert!(t.nanos() >= now);
                now = t.nanos();
            }
        }
        let stats = cal.stats();
        assert!(stats.level2_inserts > 0 && stats.far_inserts > 0 && stats.cascaded > 0);
        loop {
            let (a, b) = (heap.pop(), cal.pop());
            assert_eq!(a, b, "tail diverged");
            let Some((_, event)) = a else { break };
            assert_intact(&event);
        }
        assert_eq!((cal.len(), cal.parked_packets()), (0, 0));
        assert_eq!(cal.stats().cascaded, stats.level2_inserts, "level 2 fully cascaded");
    }

    /// The differential property test the calendar queue's correctness
    /// argument rests on: both backends, driven by the same random mix of
    /// schedule/pop/pop_before/peek operations — same-instant ties,
    /// sub-slot deltas, level-1, level-2 and far-heap distances, exact
    /// span boundaries, timers and packet-carrying arrivals — must agree on
    /// every popped `(time, event)` and on `len()` at every step, every
    /// arrival's packet must come back field for field however often its
    /// slab slot was recycled, and a full drain must leave nothing behind.
    /// Simulated time crosses several level-2 rotations, so every index
    /// wraps.
    #[test]
    fn differential_calendar_equals_heap_on_random_schedules() {
        let mut rng = DetRng::new(0xC0FFEE);
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        let mut cal = EventQueue::with_kind(QueueKind::Calendar);
        // `now` mirrors the simulator contract: never schedule in the past.
        let mut now = SimTime::ZERO;
        let mut scheduled = 0u64;
        let mut popped = 0u64;
        for op in 0..60_000u64 {
            match rng.next_below(10) {
                // 0..5: schedule (keeps the queues populated).
                0..=4 => {
                    let at_ns = match rng.next_below(9) {
                        0 => now.nanos(),
                        1 => now.nanos() + rng.next_below(SLOT_NS),
                        2 => now.nanos() + rng.next_below(16 * SLOT_NS),
                        3 => now.nanos() + rng.next_below(SPAN_NS),
                        4 => now.nanos() + rng.next_below(200_000_000),
                        5 => now.nanos() + rng.next_below(20_000_000_000),
                        6 => now.nanos() + rng.next_below(3 * LEVEL2_NS),
                        // Exactly the first nanosecond of a span, a few
                        // spans (or a level-2 rotation and a few) ahead.
                        7 => (now.nanos() / SPAN_NS + 1 + rng.next_below(4)) * SPAN_NS,
                        _ => (now.nanos() / SPAN_NS + 1 + rng.next_below(4)) * SPAN_NS + LEVEL2_NS,
                    };
                    let at = SimTime::from_nanos(at_ns);
                    heap.schedule(at, event_of(op));
                    cal.schedule(at, event_of(op));
                    scheduled += 1;
                }
                // 5..8: pop.
                5..=7 => {
                    let a = heap.pop();
                    let b = cal.pop();
                    assert_eq!(a, b, "pop diverged at op {op}");
                    if let Some((t, event)) = a {
                        assert!(t >= now, "heap order itself regressed");
                        assert_intact(&event);
                        now = t;
                        popped += 1;
                    }
                }
                // 8: pop_before a horizon a random distance ahead.
                8 => {
                    let t_end = SimTime::from_nanos(now.nanos() + rng.next_below(500_000_000));
                    let a = heap.pop_before(t_end);
                    let b = cal.pop_before(t_end);
                    assert_eq!(a, b, "pop_before diverged at op {op}");
                    if let Some((t, event)) = a {
                        assert!(t <= t_end);
                        assert_intact(&event);
                        now = t;
                        popped += 1;
                    }
                }
                // 9: peek.
                _ => {
                    assert_eq!(heap.peek_time(), cal.peek_time(), "peek diverged at op {op}");
                }
            }
            assert_eq!(heap.len(), cal.len(), "len diverged at op {op}");
            assert_eq!(heap.parked_packets(), cal.parked_packets());
            assert_eq!(cal.pending_arrivals(), cal.parked_packets(), "arrival count drifted");
        }
        assert!(scheduled > 25_000 && popped > 15_000, "exercise both paths: {scheduled}/{popped}");
        assert!(now.nanos() > 2 * LEVEL2_NS, "level 2 never wrapped: now = {now:?}");
        let stats = cal.stats();
        for (tier, n) in [
            ("level 1", stats.level1_inserts),
            ("level 2", stats.level2_inserts),
            ("far heap", stats.far_inserts),
            ("cascade", stats.cascaded),
        ] {
            assert!(n > 1000, "{tier} barely exercised: {stats:?}");
        }
        assert_eq!(stats.level1_inserts + stats.level2_inserts + stats.far_inserts, scheduled);
        assert_eq!(heap.stats().far_inserts, scheduled, "a heap queue counts every insert as far");
        assert_eq!(heap.stats().peak_pending, stats.peak_pending);
        assert!(stats.late_inserts >= 1000, "late inserts barely exercised: {stats:?}");
        assert!(stats.refills > 1000 && stats.peak_run > 1, "{stats:?}");
        let h = heap.stats();
        assert_eq!((h.refills, h.peak_run, h.late_inserts), (0, 0, 0), "a heap has no run");
        // Slots were recycled: far fewer were ever allocated than arrivals parked.
        assert!(cal.own.slots.len() < scheduled as usize / 6, "slab never reused its slots");
        assert_eq!(stats.slab_peak, cal.own.slots.len() as u64, "a by-value queue reports its own");
        assert_eq!(h.slab_peak, stats.slab_peak, "same schedule, same packets alive");
        // Drain both completely: the tails must agree too.
        loop {
            let a = heap.pop();
            let b = cal.pop();
            assert_eq!(a, b, "drain diverged");
            let Some((_, event)) = a else { break };
            assert_intact(&event);
        }
        for q in [&heap, &cal] {
            assert_eq!(
                (q.len(), q.parked_packets()),
                (0, 0),
                "drained queue still holds something"
            );
            assert_eq!(q.own.free.len(), q.own.slots.len(), "leaked slab slots");
        }
    }

    /// A burst of same-instant events (what a million in-phase pacing
    /// timers look like) parked a level-2 distance ahead: keys inserted in
    /// shuffled order must pop in key order, arrivals intact.
    #[test]
    fn hundred_thousand_same_instant_ties_pop_in_key_order() {
        const N: u64 = 120_000;
        let mut rng = DetRng::new(0x7715);
        let mut keys: Vec<u64> = (0..N).collect();
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let at = SimTime::from_millis(750);
        for mut q in both_kinds() {
            // A little earlier traffic, so the wheel is mid-flight.
            q.schedule_keyed(SimTime::from_millis(3), 1, Event::AppTimer { app: 0, timer_id: 0 });
            for &key in &keys {
                q.schedule_keyed(at, key, event_of(key));
            }
            assert_eq!(q.len() as u64, N + 1);
            assert!(q.pop().is_some());
            for want in 0..N {
                let (t, key, event) = q.pop_entry_before(at).expect("tie popped early");
                assert_eq!((t, key), (at, want));
                assert_eq!(event, event_of(want));
            }
            assert!(q.is_empty() && q.parked_packets() == 0);
            let stats = q.stats();
            assert_eq!(stats.peak_pending, N + 1);
            if q.kind() == QueueKind::Calendar {
                assert_eq!((stats.level2_inserts, stats.cascaded), (N, N));
            }
        }
    }

    /// A snapshot round trip with entries in the run, level 1, level 2 and
    /// the far heap: the restored queue and the (untouched) original drain
    /// identically, in the listed order.
    #[test]
    fn checkpoint_restore_drain_with_entries_in_every_tier() {
        for kind in [QueueKind::Heap, QueueKind::Calendar] {
            let mut q = EventQueue::with_kind(kind);
            let mut rng = DetRng::new(0x5A7E);
            // Advance the wheel off zero, then park entries at every distance.
            q.schedule(SimTime::from_millis(40), Event::AppTimer { app: 0, timer_id: 0 });
            let now = q.pop().expect("clock event").0.nanos();
            let mut id = 0;
            for reach in [SLOT_NS / 4, SPAN_NS / 2, 20 * SPAN_NS, LEVEL2_NS / 2, 3 * LEVEL2_NS] {
                for _ in 0..40 {
                    let at = SimTime::from_nanos(now + rng.next_below(reach));
                    q.schedule_keyed(at, 1000 - id, event_of(id));
                    id += 1;
                }
            }
            q.schedule_keyed(SimTime::from_secs(500), 7, Event::AppTimer { app: 0, timer_id: 9 });
            q.schedule_keyed(SimTime::from_secs(500), 3, Event::AppTimer { app: 0, timer_id: 4 });
            q.schedule_keyed(SimTime::from_millis(41), 0, Event::TxComplete { node: 5, device: 2 });
            if kind == QueueKind::Calendar {
                let stats = q.stats();
                assert!(
                    stats.level1_inserts > 20
                        && stats.level2_inserts > 20
                        && stats.far_inserts > 20,
                    "a tier is missing: {stats:?}"
                );
            }

            let (entries, restored) = snapshot_round_trip(&q);
            let mut queues = [q, restored];
            for (i, entry) in entries.iter().enumerate() {
                let popped = pop_all(&mut queues, "restored queue diverged");
                assert_eq!(popped.as_ref(), Some(entry), "diverged from the listing at {i}");
            }
            for q in &queues {
                assert_eq!((q.len(), q.parked_packets()), (0, 0));
            }
        }
    }

    /// The drain path's other half: events scheduled into the slot being
    /// drained wait in `late` and must interleave with the sorted run
    /// exactly as one heap would — earlier than the run's front, tied with
    /// it on `at` (smaller and larger key), between and tied with later
    /// run entries, at `now` itself, and into a slot the wheel has already
    /// passed. A snapshot taken mid-slot sees run, late heap and every
    /// tier at once.
    #[test]
    fn late_inserts_merge_with_the_run_in_heap_order() {
        let mut queues =
            [EventQueue::with_kind(QueueKind::Heap), EventQueue::with_kind(QueueKind::Calendar)];
        let mut id = 0u64;
        let base = 100 * SLOT_NS;
        // Forty events in slot 100, 100 ns apart, and one in every tier beyond.
        for i in 0..40 {
            put(&mut queues, &mut id, base + 100 * i, 1000 + i);
        }
        for ahead in [10 * SLOT_NS, 3 * SPAN_NS, 2 * LEVEL2_NS] {
            put(&mut queues, &mut id, base + ahead, 0);
        }
        for _ in 0..10 {
            pop_all(&mut queues, "sorted run");
        }
        // now = base + 900; the run's front is (base + 1000, key 1010).
        assert_eq!(queues[1].peek_time(), Some(SimTime::from_nanos(base + 1000)));
        let late = [
            (base + 950, 5),     // earlier than the front
            (base + 1000, 7),    // same instant, smaller key
            (base + 1000, 2000), // same instant, larger key
            (base + 1250, 1),    // between two run entries
            (base + 1500, 3),    // tied with a later run entry, either side
            (base + 1500, 3000),
            (base + 4000, 0), // after the whole run, still in the slot
        ];
        for (at_ns, key) in late {
            put(&mut queues, &mut id, at_ns, key);
        }
        assert_eq!(queues[1].stats().late_inserts, late.len() as u64);
        let QueueImpl::Calendar(cal) = &queues[1].imp else { unreachable!() };
        let held = [cal.run.len(), cal.late.len(), cal.level1.len, cal.level2.len, cal.far.len()];
        assert_eq!(held, [30, late.len(), 1, 1, 1], "run, late, level 1, level 2, far");

        // Mid-slot snapshot: both kinds list the same sequence, and a queue
        // restored from the listing drains in exactly that order.
        let (entries, mut restored) = snapshot_round_trip(&queues[1]);
        assert_eq!(entries, queues[0].pending_in_order(), "calendar listing != heap listing");
        for entry in &entries {
            assert_eq!(restored.pop_entry_before(SimTime::MAX).as_ref(), Some(entry));
        }
        assert_eq!((restored.len(), restored.parked_packets()), (0, 0));

        // Drain the slot, scheduling at `now` itself on the way.
        for step in 0..30 + late.len() {
            let (now, key, _) = pop_all(&mut queues, "run + late").expect("slot drained early");
            assert!(now.nanos() < base + SLOT_NS);
            if step % 8 == 0 {
                put(&mut queues, &mut id, now.nanos(), key + 1);
                let next = pop_all(&mut queues, "insert at now").expect("just scheduled");
                assert_eq!((next.0, next.1), (now, key + 1), "an insert at now pops next");
            }
        }
        // A peek moves the wheel on to slot 110; slots 101..110 are now
        // behind it, yet an event scheduled there must still pop first.
        assert_eq!(queues[1].peek_time(), Some(SimTime::from_nanos(base + 10 * SLOT_NS)));
        put(&mut queues, &mut id, base + 2 * SLOT_NS + 5, 9);
        put(&mut queues, &mut id, base + 10 * SLOT_NS, u64::MAX);
        let mut tail = Vec::new();
        while let Some((t, key, _)) = pop_all(&mut queues, "tail") {
            tail.push((t.nanos() - base, key));
        }
        let want = [
            (2 * SLOT_NS + 5, 9),
            (10 * SLOT_NS, 0),
            (10 * SLOT_NS, u64::MAX),
            (3 * SPAN_NS, 0),
            (2 * LEVEL2_NS, 0),
        ];
        assert_eq!(tail, want);
        for q in &queues {
            assert_eq!((q.len(), q.parked_packets()), (0, 0));
            assert_eq!(q.own.free.len(), q.own.slots.len(), "leaked slab slots");
        }
    }

    /// A million events in one 4 µs slot (what `flows_1m`'s in-phase flow
    /// timers are), inserted shuffled with distinct `(at, key)`, a tenth of
    /// them arrivals: the whole slot is one sorted run, late inserts on the
    /// way interleave with it, and every packet comes back field for field.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "10^6-entry sort: release only (scripts/check.sh)")]
    fn million_entry_slot_drains_as_one_run() {
        const N: u64 = 1_000_000;
        let mut rng = DetRng::new(0x1E_5107);
        let mut ids: Vec<u64> = (0..N).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let event = |i: u64| match i % 10 {
            0 => Event::Arrival { node: i as u32, packet: packet_of(i) },
            _ => Event::AppTimer { app: 1, timer_id: i },
        };
        let mut queues =
            [EventQueue::with_kind(QueueKind::Heap), EventQueue::with_kind(QueueKind::Calendar)];
        let base = 50 * SLOT_NS;
        for &i in &ids {
            for q in &mut queues {
                q.schedule_keyed(SimTime::from_nanos(base + i % SLOT_NS), i, event(i));
            }
        }
        let (mut late, mut popped) = (0u64, 0u64);
        let mut last = (SimTime::ZERO, 0);
        while let Some((t, key, _)) = pop_all(&mut queues, "pile-up") {
            assert!((t, key) > last, "order regressed at pop {popped}");
            last = (t, key);
            popped += 1;
            if popped % 997 == 0 && t.nanos() + 1 < base + SLOT_NS {
                // Into the slot being drained: at `now` and just after it.
                for (at_ns, key) in [(t.nanos(), N + late), (t.nanos() + 1, N + late)] {
                    for q in &mut queues {
                        q.schedule_keyed(SimTime::from_nanos(at_ns), key, event(10 * late));
                    }
                }
                late += 1;
            }
        }
        assert_eq!(popped, N + 2 * late);
        let stats = queues[1].stats();
        assert_eq!((stats.peak_run, stats.refills), (N, 1), "the slot was not one run");
        let QueueImpl::Calendar(cal) = &queues[1].imp else { unreachable!("a calendar queue") };
        assert_eq!(cal.run.capacity() as u64, N, "the run was not allocated once, to the slot");
        assert_eq!(stats.late_inserts, 2 * late);
        assert!(late > 900, "late inserts barely exercised: {late}");
        for q in &queues {
            assert_eq!((q.len(), q.parked_packets()), (0, 0));
            assert_eq!(q.own.free.len(), q.own.slots.len(), "leaked slab slots");
        }
    }

    /// The drain's every shape against the heap: one slot filled with
    /// entries on bin edges (`at & 63` = 0 and 63), in one bin, anywhere
    /// in the slot, or at one instant with keys ascending, descending or shuffled
    /// up to `u64::MAX`; in populations of one, two (two bins or one) and
    /// around the block size, and line-rate ones; arriving from the
    /// far heap, from a level-2 bucket (cascaded through level 1, or
    /// straight into the run when the slot opens its span) and from the
    /// first level. Half-way through, a listing must equal the heap's, and
    /// late inserts land in the slot being drained.
    #[test]
    fn bucketed_drain_shapes_pop_in_heap_order() {
        let mut rng = DetRng::new(0xB1_25);
        let pops = [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 100, 200];
        for (case, (shape, n, keys, skew)) in (0..4)
            .flat_map(|shape| pops.map(move |n| (shape, n)))
            .flat_map(|(shape, n)| (0..3).map(move |keys| (shape, n, keys)))
            .flat_map(|(shape, n, keys)| [0, 7].map(|skew| (shape, n, keys, skew)))
            .enumerate()
        {
            let what = format!("case {case}: shape {shape}, {n} entries, keys {keys}, skew {skew}");
            let slot_ns = LEVEL2_NS + 5 * SPAN_NS + skew * SLOT_NS;
            let offset = |i: u64, rng: &mut DetRng| match shape {
                0 => i % 64 * 64 + if i % 128 < 64 { 0 } else { 63 },
                1 => 37 * 64 + rng.next_below(64),
                2 => rng.next_below(SLOT_NS),
                _ => 100,
            };
            let mut key_of: Vec<u64> = match keys {
                0 => (0..n as u64).collect(),
                1 => (0..n as u64).map(|i| u64::MAX - i).collect(),
                _ => (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect(),
            };
            if keys == 2 {
                key_of[n / 2] = u64::MAX;
                for i in (1..n).rev() {
                    key_of.swap(i, rng.next_below(i as u64 + 1) as usize);
                }
            }
            let mut queues = both_kinds();
            let mut id = 0;
            // Clock events: the far entries go in at time 0, the level-2
            // ones at `t1`, the level-1 ones at `t2`.
            let (t1, t2) = (slot_ns - 3 * SPAN_NS, slot_ns - SPAN_NS / 2);
            put(&mut queues, &mut id, t1, 0);
            put(&mut queues, &mut id, t2, 0);
            let ats: Vec<u64> = (0..n as u64).map(|i| slot_ns + offset(i, &mut rng)).collect();
            for phase in 0..3 {
                for i in (phase..n).step_by(3) {
                    put(&mut queues, &mut id, ats[i], key_of[i]);
                }
                if phase < 2 {
                    let (t, _, _) = pop_all(&mut queues, &what).expect("clock event");
                    assert_eq!(t.nanos(), [t1, t2][phase], "{what}");
                }
            }
            let stats = queues[1].stats();
            assert_eq!(stats.far_inserts as usize, n.div_ceil(3) + 2, "{what}");
            assert_eq!(stats.level2_inserts as usize, (n + 1) / 3, "{what}");
            let mut now = 0;
            for _ in 0..n.div_ceil(2) {
                now = pop_all(&mut queues, &what).expect("slot drained early").0.nanos();
            }
            let (entries, _) = snapshot_round_trip(&queues[1]);
            assert_eq!(entries, queues[0].pending_in_order(), "{what}: mid-drain listing");
            for j in 0..5 {
                let at = (now + j * 301).min(slot_ns + SLOT_NS - 1);
                put(&mut queues, &mut id, at, (1 << 62) + j);
            }
            while pop_all(&mut queues, &what).is_some() {}
            let stats = queues[1].stats();
            assert_eq!((stats.peak_run, stats.late_inserts), (n as u64, 5), "{what}");
        }
    }

    /// Storage follows what is pending: a line-rate-shaped load — 2 000
    /// chains of events, each begetting the next a serialization or a
    /// propagation delay later, a tenth of them also arming a level-2
    /// timer — runs 150 000 events across many wheel rotations, and the
    /// pool never holds more than twice the peak pending count plus one
    /// partly filled block per occupied bucket.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "1.5 * 10^5 events: release only (scripts/check.sh)")]
    fn pool_storage_stays_within_pending_plus_a_block_per_bucket() {
        const TIMER: u64 = 1;
        let mut rng = DetRng::new(0x5709);
        let mut q = EventQueue::new();
        let mut key = 0u64;
        let mut schedule = |q: &mut EventQueue, at: u64, timer_id: u64| {
            q.schedule_keyed(SimTime::from_nanos(at), key, Event::AppTimer { app: 0, timer_id });
            key += 1;
        };
        for _ in 0..2_000 {
            schedule(&mut q, rng.next_below(SPAN_NS / 4), 0);
        }
        let mut most_occupied = 0;
        for _ in 0..150_000 {
            let (t, event) = q.pop().expect("a held population never drains");
            if event == (Event::AppTimer { app: 0, timer_id: TIMER }) {
                continue;
            }
            let now = t.nanos();
            let delay = match rng.next_below(10) {
                0..=4 => 12_000 + rng.next_below(1_000),
                5..=8 => 2_000_000 + rng.next_below(13_000_000),
                _ => {
                    schedule(&mut q, now + 50_000_000 + rng.next_below(SPAN_NS), TIMER);
                    20_000 + rng.next_below(20_000)
                }
            };
            schedule(&mut q, now + delay, 0);
            let QueueImpl::Calendar(cal) = &q.imp else { unreachable!() };
            let occupied = |w: &Wheel| w.occupied.iter().map(|b| b.count_ones()).sum::<u32>();
            most_occupied = most_occupied.max(occupied(&cal.level1) + occupied(&cal.level2));
        }
        let stats = q.stats();
        assert!(q.peek_time().unwrap().nanos() > 4 * SPAN_NS, "too few rotations");
        assert!(stats.level2_inserts > 10_000 && stats.cascaded > 5_000, "{stats:?}");
        let bound = 2 * stats.peak_pending + (BLOCK as u64) * most_occupied as u64;
        assert!(stats.pool_peak <= bound, "pool {} > {bound}: {stats:?}", stats.pool_peak);
        assert!(stats.pool_peak >= stats.peak_pending / 2, "{stats:?}");
    }

    /// `PacketSlab::touch` is only a warm-up if the three fields it reads
    /// cover every cache line the fields a hop uses lie on: `dst` and
    /// `size_bytes` (read at the arrival), `hops` (written at
    /// `tx_complete`), and `id` and `flow_hash` (read by every trace record
    /// of a traced run, and by multipath forwarding). Field order is the
    /// compiler's to choose and slab entries start wherever `size_of` puts
    /// them, so pin what the warm pass assumes — `dst`, `size_bytes`, `hops`
    /// are adjacent, `dst` first, `hops` last, so they span at most two
    /// lines and each line holds one of the two; `flow_hash` shares a line
    /// with `id` or with `dst`.
    #[test]
    fn warm_pass_covers_the_fields_a_hop_uses() {
        const LINE: usize = 64;
        let p = packet_of(1);
        let offset = |field: usize| field - &p as *const Packet as usize;
        let (id, flow_hash) =
            (offset(&p.id as *const u64 as usize), offset(&p.flow_hash as *const u64 as usize));
        let touched =
            [offset(&p.dst as *const NodeId as usize), offset(&p.hops as *const u16 as usize), id];
        let used = [
            touched[0],
            offset(&p.size_bytes as *const u32 as usize),
            touched[1] + 1,
            id,
            id + 7,
            flow_hash,
            flow_hash + 7,
        ];
        for start in (0..LINE).step_by(mem::align_of::<Packet>()) {
            for byte in used {
                let line = (start + byte) / LINE;
                assert!(
                    touched.iter().any(|&o| (start + o) / LINE == line),
                    "a packet at {start} mod 64 keeps byte {byte} cold: touched {touched:?}"
                );
            }
        }
        // And the warm pass is cheap because they are close: two fills at most.
        assert!(touched[1] + 2 - touched[0] <= LINE, "per-hop fields span {touched:?}");
    }

    /// The simulator's way in: entries go in and come out by slot, the packets
    /// stay in a slab of the caller's (which the warm pass reads), and the
    /// queue's own slab is never touched.
    #[test]
    fn slot_level_calls_leave_the_packets_where_they_are() {
        for mut q in both_kinds() {
            let mut slab = PacketSlab::default();
            let mut want = Vec::new();
            for id in 0..300u64 {
                let at = SimTime::from_nanos(id * 7919 * SLOT_NS % (3 * SPAN_NS));
                if id % 3 == 0 {
                    let slot = slab.park(packet_of(id));
                    q.schedule_slot(at, id, Tag::Arrival, id as u32, slot as u64);
                } else {
                    q.schedule_slot(at, id, Tag::AppTimer, 0, id);
                }
                want.push((at, id));
            }
            want.sort_unstable();
            assert_eq!((q.pending_arrivals(), q.parked_packets(), slab.occupied()), (100, 0, 100));
            assert_eq!(q.next_time(&slab), Some(want[0].0));
            for &(at, key) in &want {
                let s = q.pop_slot(SimTime::MAX, &slab).expect("queue drained early");
                assert_eq!((s.at, s.key), (at, key));
                if s.tag == Tag::Arrival {
                    assert_eq!((s.a, slab.take(s.b as u32)), (key as u32, packet_of(key)));
                }
            }
            assert_eq!((q.len(), q.pending_arrivals(), slab.occupied()), (0, 0, 0));
            assert_eq!(
                (slab.peak(), q.stats().slab_peak),
                (100, 0),
                "the simulator reports its slab"
            );
        }
    }

    /// Slots of the two APIs index different slabs, so a debug build
    /// refuses to pop by slot what was scheduled by value.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "driven by value")]
    fn mixing_the_two_apis_is_refused() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), event_of(0));
        q.pop_slot(SimTime::MAX, &PacketSlab::default());
    }

    /// And the other way round.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "driven by slot")]
    fn popping_by_value_what_was_scheduled_by_slot_is_refused() {
        let mut q = EventQueue::new();
        q.schedule_slot(SimTime::from_nanos(1), 0, Tag::Arrival, 0, 0);
        q.pop();
    }

    /// A drained queue holds nothing — no entry, no slab slot — and the
    /// next burst reuses the freed slots instead of growing the slab.
    #[test]
    fn drained_queue_leaks_no_slab_slots() {
        for mut q in both_kinds() {
            for round in 0..3u64 {
                for i in 0..500u64 {
                    let id = 3 * (round * 500 + i); // multiples of 3: all arrivals
                    q.schedule(
                        SimTime::from_nanos(round * LEVEL2_NS + i * 40_000_000),
                        event_of(id),
                    );
                }
                // Locating the front sorts a slot and warms its packets;
                // neither may take, free or move a slab slot.
                let free = q.own.free.clone();
                assert!(q.peek_time().is_some());
                assert_eq!(q.own.free, free);
                assert_eq!((q.len(), q.parked_packets()), (500, 500));
                while let Some((_, event)) = q.pop() {
                    assert_intact(&event);
                }
                assert_eq!((q.len(), q.parked_packets()), (0, 0), "round {round} leaked");
                assert_eq!(q.own.slots.len(), 500, "round {round} grew the slab");
            }
        }
    }
}
