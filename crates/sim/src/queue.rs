//! The kernel's event queue: a hierarchical timing wheel.
//!
//! The simulator's hot loop is `push`/`pop` on the pending-event set,
//! totally ordered by [`EventKey`] `(time, seq)`. A binary heap makes
//! both O(log n) with poor locality; the timing wheel here makes the
//! common near-future push O(1) while preserving the *exact* pop order
//! the heap would produce — the determinism gate demands bit-identical
//! schedules, so order equivalence is load-bearing, tested by unit
//! tests and a seeded property test against a reference heap.
//!
//! # Design
//!
//! Virtual time (nanoseconds) is quantized into ticks of `2^GRAN_BITS`
//! ns. The wheel has `LEVELS` levels of 64 slots; level `k` spans
//! windows of `64^(k+1)` ticks. A *cursor* tracks the tick of the most
//! recently surfaced event, and each pending event lives in exactly one
//! of three places:
//!
//! * `current` — a small 4-ary heap of events whose tick is `<=` the
//!   cursor (due now; also orders events *within* one tick),
//! * a wheel slot — the event's tick is ahead of the cursor but shares
//!   its level-`(k+1)` window; slot index is the tick's level-`k` digit,
//! * `overflow` — a heap for events beyond the wheel's horizon
//!   (`64^LEVELS` ticks ≈ 19.5 h at the default granularity).
//!
//! `pop` drains `current`; when it empties, the cursor advances to the
//! next occupied slot (a bitmap scan per level), whose events are
//! re-placed — cascading one level down each hop — until the earliest
//! tick lands in `current`. When the whole wheel empties, overflow
//! events migrate in. Order correctness falls out of three invariants:
//! every wheel event's tick is strictly ahead of the cursor, every
//! overflow event is later than every wheel event, and `current` is a
//! real heap on the full key. Advancing the cursor during a peek is
//! safe for the same reason: surfaced events keep their total order
//! inside `current`, and new pushes at-or-before the cursor join that
//! same heap.
//!
//! # Looking and re-filing (model checker only)
//!
//! The kernel's hot path is `push`/`pop`/`peek_key` and nothing else.
//! The model checker additionally needs to look at every pending event,
//! take one out of order and rewrite keys in place. Two crate-private
//! primitives serve it without a second queue: `EventQueue::for_each`
//! visits the pool read-only, in no particular order;
//! `EventQueue::refile` resets the cursor to zero — where a fresh queue
//! starts — and files every event its callback keeps again, under a key
//! the callback may rewrite, freeing the rest. Pool and heaps keep their capacity, so a re-file allocates
//! nothing. Keys are unique, so re-filing the same keys pops the same
//! sequence; the property test below interleaves re-files with pushes
//! and pops against the reference heap.

use crate::time::SimTime;

/// Total order on pending events: virtual time, then push sequence.
///
/// The sequence number is assigned by the kernel at push time, so ties
/// at one instant resolve in push order — the property that makes
/// same-seed runs bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Virtual time the event is due.
    pub time: SimTime,
    /// Kernel-assigned push sequence number (unique per run).
    pub seq: u64,
}

/// log2 of the tick granularity in nanoseconds (1.024 µs ticks).
const GRAN_BITS: u32 = 10;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; horizon is `2^(GRAN_BITS + LEVELS*SLOT_BITS)` ns.
const LEVELS: usize = 6;

/// Freelist/list terminator for pool node indices.
const NIL: u32 = u32::MAX;

/// Pool-resident event. The value parks here from push to pop; wheel
/// slots and heaps refer to it by index, so cascading a slot down a
/// level relinks nodes instead of copying values.
struct Node<T> {
    key: EventKey,
    /// `None` only while the node sits on the freelist.
    value: Option<T>,
    /// Next node in this slot's list (or on the freelist); [`NIL`] ends.
    next: u32,
}

/// Heap entry for `current`/`overflow`: the packed key plus the pool
/// index of the node holding the value. Sifting moves these entries,
/// never the value.
#[derive(Clone, Copy)]
struct Entry {
    /// `(time << 64) | seq` — one wide compare orders the full
    /// [`EventKey`] exactly (time major, seq minor).
    key: u128,
    node: u32,
}

#[inline]
fn pack(key: EventKey) -> u128 {
    ((key.time.as_nanos() as u128) << 64) | key.seq as u128
}

#[inline]
fn unpack(key: u128) -> EventKey {
    EventKey {
        time: SimTime::from_nanos((key >> 64) as u64),
        seq: key as u64,
    }
}

/// A 4-ary min-heap over [`Entry`], ordered by packed key.
///
/// Hand-rolled because the kernel's profile is dominated by heap
/// traffic: four-way fan-out halves the sift depth of a binary heap
/// and the single `u128` compare keeps each level branch-lean. Keys
/// are unique (the kernel's `seq` is), so *any* correct min-heap pops
/// the identical sequence — heap shape cannot affect determinism.
struct MinHeap {
    v: Vec<Entry>,
}

impl MinHeap {
    const fn new() -> Self {
        MinHeap { v: Vec::new() }
    }

    fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    fn clear(&mut self) {
        self.v.clear();
    }

    #[inline]
    fn peek(&self) -> Option<&Entry> {
        self.v.first()
    }

    #[inline]
    fn push(&mut self, e: Entry) {
        self.v.push(e);
        let mut i = self.v.len() - 1;
        while i > 0 {
            let p = (i - 1) >> 2;
            if self.v[p].key <= e.key {
                break;
            }
            self.v[i] = self.v[p];
            i = p;
        }
        self.v[i] = e;
    }

    #[inline]
    fn pop(&mut self) -> Option<Entry> {
        let top = *self.v.first()?;
        let last = self.v.pop().expect("non-empty");
        let len = self.v.len();
        if len > 0 {
            // Sift the displaced tail entry down from the root, moving
            // the smallest child up into the hole each level.
            let mut i = 0;
            loop {
                let c0 = (i << 2) + 1;
                if c0 >= len {
                    break;
                }
                let mut m = c0;
                let mut mk = self.v[c0].key;
                for c in (c0 + 1)..(c0 + 4).min(len) {
                    if self.v[c].key < mk {
                        m = c;
                        mk = self.v[c].key;
                    }
                }
                if last.key <= mk {
                    break;
                }
                self.v[i] = self.v[m];
                i = m;
            }
            self.v[i] = last;
        }
        Some(top)
    }
}

/// A priority queue over [`EventKey`] with timing-wheel internals.
///
/// Pop order is exactly ascending `(time, seq)` — equivalent to
/// `BinaryHeap<Reverse<_>>` on the same keys, which the tests prove.
pub struct EventQueue<T> {
    /// Tick of the most recently surfaced position; wheel events are
    /// strictly ahead of it.
    cursor: u64,
    /// Head node index of each slot's singly-linked list.
    slots: [[u32; SLOTS]; LEVELS],
    /// Per-level occupancy bitmaps: bit `i` set iff slot `i` is non-empty.
    occupied: [u64; LEVELS],
    /// Node storage; grows to the high-water mark of pending events and
    /// is recycled through `free_head` — steady state never allocates.
    pool: Vec<Node<T>>,
    free_head: u32,
    /// Events due at or before the cursor, heap-ordered by full key.
    current: MinHeap,
    /// Events beyond the wheel horizon, heap-ordered by full key.
    overflow: MinHeap,
    len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

fn tick_of(key: EventKey) -> u64 {
    key.time.as_nanos() >> GRAN_BITS
}

impl<T> EventQueue<T> {
    /// An empty queue anchored at time zero.
    pub fn new() -> Self {
        EventQueue {
            cursor: 0,
            slots: [[NIL; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            pool: Vec::new(),
            free_head: NIL,
            current: MinHeap::new(),
            overflow: MinHeap::new(),
            len: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an event. Keys must be unique (the kernel's `seq` is);
    /// times must not precede an already-popped event's time, which the
    /// kernel guarantees because handlers can only schedule at or after
    /// *now*.
    #[inline]
    pub fn push(&mut self, key: EventKey, value: T) {
        self.len += 1;
        let node = if self.free_head != NIL {
            let idx = self.free_head;
            let n = &mut self.pool[idx as usize];
            self.free_head = n.next;
            n.key = key;
            n.value = Some(value);
            n.next = NIL;
            idx
        } else {
            self.pool.push(Node {
                key,
                value: Some(value),
                next: NIL,
            });
            (self.pool.len() - 1) as u32
        };
        self.place(node, key);
    }

    /// Remove and return the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(EventKey, T)> {
        loop {
            if let Some(e) = self.current.pop() {
                self.len -= 1;
                let node = &mut self.pool[e.node as usize];
                let value = node.value.take().expect("popped node has no value");
                node.next = self.free_head;
                self.free_head = e.node;
                return Some((unpack(e.key), value));
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// The key of the earliest event without removing it. Takes `&mut
    /// self` because it may advance the wheel cursor to surface that
    /// event — invisible to pop order (see module docs).
    #[inline]
    pub fn peek_key(&mut self) -> Option<EventKey> {
        loop {
            if let Some(e) = self.current.peek() {
                return Some(unpack(e.key));
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Visit every pending event. Promises no order and changes nothing.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&EventKey, &T)) {
        for node in &self.pool {
            if let Some(value) = &node.value {
                f(&node.key, value);
            }
        }
    }

    /// Re-file every pending event in place. `f` is handed each event's
    /// key, which it may rewrite, and its value; returning the value keeps
    /// the event under the (possibly new) key, `None` frees it. The cursor
    /// restarts at zero, as in a fresh queue, so a kept key may be any
    /// time at all; the pool and both heaps keep their capacity. Kept keys
    /// must stay unique. Visit order is unspecified.
    pub(crate) fn refile(&mut self, mut f: impl FnMut(&mut EventKey, T) -> Option<T>) {
        self.cursor = 0;
        self.slots = [[NIL; SLOTS]; LEVELS];
        self.occupied = [0; LEVELS];
        self.current.clear();
        self.overflow.clear();
        self.free_head = NIL;
        self.len = 0;
        for idx in 0..self.pool.len() {
            let node = &mut self.pool[idx];
            match node.value.take().and_then(|v| f(&mut node.key, v)) {
                Some(value) => {
                    node.value = Some(value);
                    let key = node.key;
                    self.len += 1;
                    self.place(idx as u32, key);
                }
                None => {
                    node.next = self.free_head;
                    self.free_head = idx as u32;
                }
            }
        }
    }

    /// File a pool node under the position its key demands: the
    /// `current` heap (due now), a wheel slot (pending), or `overflow`
    /// (beyond horizon). Slot filing is two writes — relink the node as
    /// the new list head.
    fn place(&mut self, node: u32, key: EventKey) {
        let tick = tick_of(key);
        if tick <= self.cursor {
            self.current.push(Entry {
                key: pack(key),
                node,
            });
            return;
        }
        // Smallest level whose parent window the tick shares with the
        // cursor — read off the highest differing bit, no loop. Its
        // slot index there is strictly ahead of the cursor's (same
        // parent window + bigger tick), which is what `advance`'s
        // strictly-above bitmap scan relies on.
        let diff_bit = 63 - (tick ^ self.cursor).leading_zeros();
        let k = (diff_bit / SLOT_BITS) as usize;
        if k < LEVELS {
            let idx = ((tick >> (k as u32 * SLOT_BITS)) & (SLOTS as u64 - 1)) as usize;
            self.pool[node as usize].next = self.slots[k][idx];
            self.slots[k][idx] = node;
            self.occupied[k] |= 1 << idx;
            return;
        }
        self.overflow.push(Entry {
            key: pack(key),
            node,
        });
    }

    /// Move the cursor to the next occupied position and surface its
    /// events toward `current`. Returns false when nothing is pending
    /// outside `current`.
    fn advance(&mut self) -> bool {
        for k in 0..LEVELS {
            let idx = ((self.cursor >> (k as u32 * SLOT_BITS)) & (SLOTS as u64 - 1)) as u32;
            let above = if idx as usize >= SLOTS - 1 {
                0
            } else {
                self.occupied[k] & (!0u64 << (idx + 1))
            };
            if above == 0 {
                continue;
            }
            let slot = above.trailing_zeros() as u64;
            let window_shift = (k as u32 + 1) * SLOT_BITS;
            // Jump to the slot's base tick: same parent window, this
            // slot's digit at level k, zero below. Draining re-places
            // each node at least one level lower (or into `current`),
            // so the cascade terminates. Within-slot list order is
            // irrelevant: placement depends only on each key, and
            // `current` re-establishes the total order.
            self.cursor =
                ((self.cursor >> window_shift) << window_shift) | (slot << (k as u32 * SLOT_BITS));
            let mut head = self.slots[k][slot as usize];
            self.slots[k][slot as usize] = NIL;
            self.occupied[k] &= !(1 << slot);
            while head != NIL {
                let n = &self.pool[head as usize];
                let (next, key) = (n.next, n.key);
                self.place(head, key);
                head = next;
            }
            return true;
        }
        if self.overflow.is_empty() {
            return false;
        }
        // Wheel is empty: re-anchor at the earliest overflow event and
        // migrate everything that now fits the horizon. The overflow
        // heap yields ascending keys, so migration stops at the first
        // event outside the new top-level window.
        let top_shift = LEVELS as u32 * SLOT_BITS;
        self.cursor = tick_of(unpack(
            self.overflow.peek().expect("overflow non-empty").key,
        ));
        while let Some(e) = self.overflow.peek() {
            if tick_of(unpack(e.key)) >> top_shift != self.cursor >> top_shift {
                break;
            }
            let Some(e) = self.overflow.pop() else {
                break;
            };
            self.place(e.node, unpack(e.key));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check, tuple3, u64_in, vec_of};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn key(time_ns: u64, seq: u64) -> EventKey {
        EventKey {
            time: SimTime::from_nanos(time_ns),
            seq,
        }
    }

    /// Drain a queue fully, asserting internal length bookkeeping.
    fn drain(q: &mut EventQueue<u32>) -> Vec<EventKey> {
        let mut out = Vec::new();
        while let Some((k, _)) = q.pop() {
            out.push(k);
        }
        assert!(q.is_empty());
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(key(5000, 2), 0);
        q.push(key(1000, 3), 0);
        q.push(key(5000, 1), 0);
        q.push(key(0, 4), 0);
        let order = drain(&mut q);
        assert_eq!(
            order,
            vec![key(0, 4), key(1000, 3), key(5000, 1), key(5000, 2)]
        );
    }

    #[test]
    fn same_tick_orders_by_full_key() {
        // All inside one 1.024µs tick: the `current` heap must order
        // sub-tick times exactly, not at tick granularity.
        let mut q = EventQueue::new();
        q.push(key(700, 1), 0);
        q.push(key(300, 2), 0);
        q.push(key(300, 1), 0);
        assert_eq!(drain(&mut q), vec![key(300, 1), key(300, 2), key(700, 1)]);
    }

    #[test]
    fn far_future_goes_through_overflow() {
        let horizon_ns = 1u64 << (GRAN_BITS + LEVELS as u32 * SLOT_BITS);
        let mut q = EventQueue::new();
        q.push(key(3 * horizon_ns, 1), 0);
        q.push(key(10, 2), 0);
        q.push(key(3 * horizon_ns + 5, 3), 0);
        assert_eq!(
            drain(&mut q),
            vec![
                key(10, 2),
                key(3 * horizon_ns, 1),
                key(3 * horizon_ns + 5, 3)
            ]
        );
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(key(10_000, 1), 0);
        q.push(key(2_000_000, 2), 0);
        assert_eq!(q.pop().unwrap().0, key(10_000, 1));
        // Push behind the surfaced-but-unpopped frontier (the kernel
        // pushes at `now` routinely) and ahead of it.
        q.push(key(10_500, 3), 0);
        q.push(key(70_000_000, 4), 0);
        assert_eq!(q.pop().unwrap().0, key(10_500, 3));
        assert_eq!(q.pop().unwrap().0, key(2_000_000, 2));
        assert_eq!(q.pop().unwrap().0, key(70_000_000, 4));
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_key_matches_pop_and_preserves_order() {
        let mut q = EventQueue::new();
        for (i, t) in [5_000_000u64, 40, 900_000, 40, 77].into_iter().enumerate() {
            q.push(key(t, i as u64 + 1), 0);
        }
        let mut out = Vec::new();
        while let Some(k) = q.peek_key() {
            assert_eq!(q.pop().unwrap().0, k, "peek/pop disagree");
            out.push(k);
        }
        assert_eq!(
            out,
            vec![
                key(40, 2),
                key(40, 4),
                key(77, 5),
                key(900_000, 3),
                key(5_000_000, 1)
            ]
        );
    }

    #[test]
    fn len_tracks_push_and_pop() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        for i in 0..100u64 {
            q.push(key(i * 123_456, i), 0);
        }
        assert_eq!(q.len(), 100);
        q.pop();
        assert_eq!(q.len(), 99);
        drain(&mut q);
        assert_eq!(q.len(), 0);
    }

    /// The load-bearing test: any schedule of (time, seq-in-push-order)
    /// pops from the wheel in exactly the order the reference heap
    /// produces, including tie-breaks on equal times and across in-place
    /// re-files — seeded property test, shrinking to a minimal
    /// counterexample on failure.
    #[test]
    fn property_wheel_order_equals_reference_heap() {
        // Times span sub-tick (< 2^10 ns), in-wheel, and overflow
        // (> ~70_000 s) ranges; interleave pops to exercise cursor
        // advancement mid-stream. A non-zero third component re-files
        // the queue the way the model checker does: it drops a subset of
        // the events and clamps every key below a floor up to it.
        let schedule = vec_of(
            tuple3(u64_in(0, 200_000_000_000_000), u64_in(0, 3), u64_in(0, 4)),
            0,
            200,
        );
        check("timing wheel ≡ reference heap", &schedule, |ops| {
            let mut wheel = EventQueue::new();
            let mut heap: BinaryHeap<Reverse<EventKey>> = BinaryHeap::new();
            let mut popped = Vec::new();
            let mut reference = Vec::new();
            let mut floor = 0u64; // pushes must not precede popped time
            for (i, &(t, pop_after, refile)) in ops.iter().enumerate() {
                let k = key(floor + t, i as u64 + 1);
                wheel.push(k, k.seq);
                heap.push(Reverse(k));
                // Duplicate the *time* under a fresh seq to force ties.
                let tie = key(floor + t, i as u64 + 1_000_000);
                wheel.push(tie, tie.seq);
                heap.push(Reverse(tie));
                if refile > 0 {
                    let clamp = SimTime::from_nanos(floor + t);
                    let rekey = |k: &mut EventKey| {
                        let keep = !(k.seq + refile).is_multiple_of(3);
                        k.time = k.time.max(clamp);
                        keep
                    };
                    wheel.refile(|k, v| rekey(k).then_some(v));
                    heap = heap
                        .into_iter()
                        .filter_map(|Reverse(mut k)| rekey(&mut k).then_some(Reverse(k)))
                        .collect();
                }
                for _ in 0..pop_after {
                    let w = wheel.pop().map(|(k, v)| {
                        assert_eq!(k.seq, v, "value left its key");
                        k
                    });
                    let h = heap.pop().map(|Reverse(k)| k);
                    if let Some(k) = h {
                        floor = k.time.as_nanos();
                    }
                    popped.push(w);
                    reference.push(h);
                }
            }
            while let Some((k, _)) = wheel.pop() {
                popped.push(Some(k));
            }
            while let Some(Reverse(k)) = heap.pop() {
                reference.push(Some(k));
            }
            assert_eq!(popped, reference);
        });
    }

    #[test]
    fn scattered_times_pop_globally_sorted() {
        // Pushes scattered across many wheel levels in one batch; pop
        // order must still be globally sorted.
        let mut q = EventQueue::new();
        let times: Vec<u64> = (0..64u64).map(|i| (i * 7_777_777) % 100_000_000).collect();
        for (i, &t) in times.iter().enumerate() {
            q.push(key(t, i as u64 + 1), 0u32);
        }
        let mut sorted: Vec<EventKey> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| key(t, i as u64 + 1))
            .collect();
        sorted.sort();
        assert_eq!(drain(&mut q), sorted);
    }

    /// Keys spread over `current` (sub-tick), every wheel level and
    /// overflow (beyond the ~19.5 h horizon).
    fn spread_keys(n: u64) -> Vec<EventKey> {
        let horizon_ns = 1u64 << (GRAN_BITS + LEVELS as u32 * SLOT_BITS);
        (0..n)
            .map(|i| {
                let time = match i % 4 {
                    0 => i * 7,
                    1 => i * 7_777_777,
                    2 => i * 987_654_321_987,
                    _ => horizon_ns + i * 1_000_003,
                };
                key(time, i + 1)
            })
            .collect()
    }

    #[test]
    fn for_each_visits_exactly_the_pending_multiset() {
        let mut q = EventQueue::new();
        for k in spread_keys(64) {
            q.push(k, 0u32);
        }
        // Pop a few so the cursor has moved and events sit in `current`,
        // in wheel slots and in overflow at once.
        for _ in 0..5 {
            q.pop();
        }
        let mut seen = Vec::new();
        q.for_each(|k, _| seen.push(*k));
        seen.sort();
        assert_eq!(seen.len(), q.len());
        assert_eq!(seen, drain(&mut q));
    }

    #[test]
    fn refile_reuses_the_pool_and_both_heaps() {
        let mut q = EventQueue::new();
        let keys = spread_keys(64);
        for &k in &keys {
            q.push(k, 0u32);
        }
        let capacity = |q: &EventQueue<u32>| {
            (
                q.pool.capacity(),
                q.current.v.capacity(),
                q.overflow.v.capacity(),
            )
        };
        let before = capacity(&q);
        assert!(before.1 > 0 && before.2 > 0, "both heaps are in use");
        for _ in 0..1_000 {
            q.refile(|_, v| Some(v));
        }
        assert_eq!(capacity(&q), before, "a re-file allocated");
        let mut sorted = keys;
        sorted.sort();
        assert_eq!(drain(&mut q), sorted);
    }
}
