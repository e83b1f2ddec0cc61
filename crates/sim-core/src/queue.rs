//! The pending-event set: slab-allocated events behind a two-band
//! scheduler — a 64-slot calendar for in-flight packets, a binary heap for
//! timer deadlines. The calendar's slots are lists threaded through the
//! slab, so the queue holds memory in proportion to what is pending.
//! `DESIGN.md` §6c has the measurements that chose this pair over a
//! timing wheel and over a single heap.

use crate::fault::FaultEvent;
use crate::packet::Packet;
use crate::time::Time;
use hbh_topo::graph::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

pub(crate) enum EventKind<M, T, C> {
    Arrive { node: NodeId, pkt: Packet<M> },
    Timer { node: NodeId, timer: T, id: u64 },
    Command { node: NodeId, cmd: C },
    Fault(FaultEvent),
}

/// Near/far split for the two-band scheduler. Per-hop packet delays are
/// single link costs (small integers), while every protocol timer is at
/// least one refresh period (≥ 100 time units by [`Timing` defaults]):
/// the workload is bimodal with nothing near the boundary. Banding is a
/// performance hint only — `pop` compares both band heads on the full
/// `(at, seq)` key, so dispatch order is exact no matter which band an
/// event landed in. Must be a power of two (slot index is `at % 64`).
const NEAR_HORIZON: u64 = 64;

/// The end of a list threaded through the slab.
const NIL: u32 = u32::MAX;

/// Scheduling key: `(due time, global sequence, slab index)`. `seq` is
/// globally unique, so comparing keys totally orders events.
pub(crate) type EventKey = (Time, u64, u32);

/// One slab entry: a pending event with its key, or a vacant entry.
struct Event<M, T, C> {
    at: Time,
    seq: u64,
    /// The next entry of the calendar slot or free list this one is on;
    /// [`NIL`] ends both.
    next: u32,
    kind: Option<EventKind<M, T, C>>,
}

/// The head and tail of one calendar slot's list ([`NIL`] when empty).
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

/// A slot with no events.
const EMPTY: Slot = Slot {
    head: NIL,
    tail: NIL,
};

/// The pending-event set: a two-band scheduler over `(at, seq, slab
/// index)` keys with the events in a slab.
///
/// Event bodies (notably `Arrive`, which carries a whole `Packet<M>`) are
/// large; keeping them in place means scheduling moves indices, not
/// events. Vacant entries form a free list threaded through `next`, so
/// steady-state scheduling performs no allocation, and the slab is as
/// long as the most events ever pending at once.
///
/// The two bands exploit the bimodal delay distribution:
///
/// * **Near band** — events due within [`NEAR_HORIZON`] of their push
///   time (in-flight packets): a 64-slot calendar indexed by `at % 64`,
///   each slot a singly linked list threaded through the slab's `next`.
///   All pending events lie in `[now, now + 64)`, so a slot holds exactly
///   one distinct due time and an O(1) append at its tail keeps it in seq
///   order; `occ` (bit `s` ⇔ slot `s` nonempty) turns earliest-slot
///   lookup into a rotate + trailing_zeros. The slots own no memory of
///   their own, so a burst leaves nothing behind once it has drained.
/// * **Far band** — longer-dated events (timer expiries): a min-heap on
///   the full key.
pub(crate) struct EventQueue<M, T, C> {
    wheel: [Slot; NEAR_HORIZON as usize],
    /// Occupancy bitmask: bit `s` set iff `wheel[s]` is nonempty.
    occ: u64,
    far: BinaryHeap<Reverse<EventKey>>,
    slab: Vec<Event<M, T, C>>,
    /// Head of the vacant entries' list.
    free: u32,
    /// Scheduled-but-undispatched `Arrive` events carrying data-class
    /// packets. Data forwarding is strictly arrival-driven (no protocol
    /// re-emits a data packet from a timer), so when this hits zero every
    /// data packet in the simulation has fully propagated — the
    /// early-termination signal for probe windows.
    pub(crate) pending_data: u64,
    /// Scheduled-but-undispatched `Command` and `Fault` events: inputs
    /// from outside the protocol, which a fast-forward must not jump.
    pub(crate) pending_inputs: u64,
}

impl<M, T, C> EventQueue<M, T, C> {
    pub(crate) fn new() -> Self {
        EventQueue {
            wheel: [EMPTY; NEAR_HORIZON as usize],
            occ: 0,
            far: BinaryHeap::new(),
            slab: Vec::new(),
            free: NIL,
            pending_data: 0,
            pending_inputs: 0,
        }
    }

    /// How `kind` moves the two pending counters: `(data, inputs)`.
    fn counts(kind: &EventKind<M, T, C>) -> (u64, u64) {
        match kind {
            EventKind::Arrive { pkt, .. } => {
                (u64::from(pkt.class == crate::packet::PacketClass::Data), 0)
            }
            EventKind::Timer { .. } => (0, 0),
            EventKind::Command { .. } | EventKind::Fault(_) => (0, 1),
        }
    }

    pub(crate) fn push(&mut self, now: Time, at: Time, seq: u64, kind: EventKind<M, T, C>) {
        let (data, inputs) = Self::counts(&kind);
        self.pending_data += data;
        self.pending_inputs += inputs;
        let event = Event {
            at,
            seq,
            next: NIL,
            kind: Some(kind),
        };
        let idx = if self.free != NIL {
            let i = self.free;
            self.free = self.slab[i as usize].next;
            self.slab[i as usize] = event;
            i
        } else {
            let i = u32::try_from(self.slab.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("event queue overflow");
            self.slab.push(event);
            i
        };
        self.schedule(now, idx);
    }

    /// Files slab entry `idx` in the band its due time falls in, seen from
    /// `now`.
    fn schedule(&mut self, now: Time, idx: u32) {
        let e = &mut self.slab[idx as usize];
        let at = e.at;
        if at.0.saturating_sub(now.0) < NEAR_HORIZON {
            e.next = NIL;
            let s = (at.0 % NEAR_HORIZON) as usize;
            let slot = &mut self.wheel[s];
            if slot.head == NIL {
                slot.head = idx;
            } else {
                // A slot's entries always share one due time: two distinct
                // times in [now, now + 64) cannot collide mod 64.
                debug_assert_eq!(self.slab[slot.tail as usize].at, at);
                self.slab[slot.tail as usize].next = idx;
            }
            slot.tail = idx;
            self.occ |= 1 << s;
        } else {
            self.far.push(Reverse((at, e.seq, idx)));
        }
    }

    /// Every pending event's key, in dispatch (`(at, seq)`) order, into
    /// `out` (cleared first).
    pub(crate) fn keys(&self, out: &mut Vec<EventKey>) {
        out.clear();
        for slot in &self.wheel {
            let mut i = slot.head;
            while i != NIL {
                let e = &self.slab[i as usize];
                out.push((e.at, e.seq, i));
                i = e.next;
            }
        }
        out.extend(self.far.iter().map(|k| k.0));
        out.sort_unstable();
    }

    /// The body of the pending event `key` names.
    pub(crate) fn body(&self, key: EventKey) -> &EventKind<M, T, C> {
        self.slab[key.2 as usize]
            .kind
            .as_ref()
            .expect("a pending key names a live slab entry")
    }

    /// Moves every pending event `by` later, the clock going from `now`
    /// to `now + by` with them: each keeps its sequence number, so
    /// dispatch order is unchanged. `keys` is scratch.
    pub(crate) fn delay_all(&mut self, now: Time, by: u64, keys: &mut Vec<EventKey>) {
        self.keys(keys);
        self.wheel.fill(EMPTY);
        self.occ = 0;
        self.far.clear();
        // In key order, so that each slot's list is relinked in seq order.
        for &(_, _, idx) in keys.iter() {
            self.slab[idx as usize].at += by;
            self.schedule(now + by, idx);
        }
    }

    /// The earliest-due wheel slot at `now`, if any. All pending wheel
    /// events lie in `[now, now + 64)`, so scanning the occupancy bits
    /// upward from `now`'s slot (wrapping) visits slots in due-time order.
    fn wheel_slot(&self, now: Time) -> Option<usize> {
        if self.occ == 0 {
            return None;
        }
        let base = (now.0 % NEAR_HORIZON) as u32;
        let off = self.occ.rotate_right(base).trailing_zeros();
        Some(((base + off) as u64 % NEAR_HORIZON) as usize)
    }

    fn wheel_head(&self, now: Time) -> Option<EventKey> {
        let s = self.wheel_slot(now)?;
        let i = self.wheel[s].head;
        let e = &self.slab[i as usize];
        Some((e.at, e.seq, i))
    }

    /// Time of the earliest pending event. `now` must not exceed any
    /// pending event's due time (the kernel clock guarantees this).
    pub(crate) fn peek_at(&self, now: Time) -> Option<Time> {
        match (self.wheel_head(now), self.far.peek()) {
            (Some(n), Some(Reverse(f))) => Some(n.0.min(f.0)),
            (Some(n), None) => Some(n.0),
            (None, f) => f.map(|k| k.0 .0),
        }
    }

    /// Pops the earliest event in `(at, seq)` order.
    pub(crate) fn pop(&mut self, now: Time) -> Option<(Time, EventKind<M, T, C>)> {
        let idx = match (self.wheel_head(now), self.far.peek()) {
            // seq is globally unique, so full-key comparison totally
            // orders the two heads; < vs <= is immaterial.
            (Some(n), Some(&Reverse(f))) if n < f => self.pop_wheel(now),
            (Some(_), None) => self.pop_wheel(now),
            (_, Some(_)) => self.far.pop().expect("caller saw a far head").0 .2,
            (None, None) => return None,
        };
        let e = &mut self.slab[idx as usize];
        let kind = e.kind.take().expect("slab entry vacated early");
        e.next = self.free;
        self.free = idx;
        let (data, inputs) = Self::counts(&kind);
        self.pending_data -= data;
        self.pending_inputs -= inputs;
        Some((e.at, kind))
    }

    /// Unlinks the head of the earliest-due wheel slot; its slab index.
    fn pop_wheel(&mut self, now: Time) -> u32 {
        let s = self.wheel_slot(now).expect("caller saw a wheel head");
        let slot = &mut self.wheel[s];
        let idx = slot.head;
        slot.head = self.slab[idx as usize].next;
        if slot.head == NIL {
            slot.tail = NIL;
            self.occ &= !(1 << s);
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `q` from `now`, returning `(at, cmd)` in dispatch order.
    fn drain(q: &mut EventQueue<(), (), u64>, mut now: Time) -> Vec<(Time, u64)> {
        let mut out = Vec::new();
        while let Some((at, kind)) = q.pop(now) {
            now = at;
            match kind {
                EventKind::Command { cmd, .. } => out.push((at, cmd)),
                _ => unreachable!("tests only push commands"),
            }
        }
        out
    }

    fn push_cmd(q: &mut EventQueue<(), (), u64>, now: Time, at: Time, seq: u64) {
        q.push(
            now,
            at,
            seq,
            EventKind::Command {
                node: NodeId(0),
                cmd: seq,
            },
        );
    }

    #[test]
    fn deadlines_decades_apart_pop_in_order() {
        // Deadlines from just past the near band to 7e10, pushed shuffled,
        // must come back in (at, seq) order.
        let mut q: EventQueue<(), (), u64> = EventQueue::new();
        let ats = [
            20_000_000u64,
            70,
            1_500_000_000,
            5_000,
            70_000_000_000,
            300_000,
            70, // same time, later seq
        ];
        for (seq, &at) in ats.iter().enumerate() {
            push_cmd(&mut q, Time::ZERO, Time(at), seq as u64);
        }
        let mut expect: Vec<(Time, u64)> = ats
            .iter()
            .enumerate()
            .map(|(seq, &at)| (Time(at), seq as u64))
            .collect();
        expect.sort_unstable();
        assert_eq!(drain(&mut q, Time::ZERO), expect);
    }

    #[test]
    fn far_insert_behind_consumed_cursor_stays_ordered() {
        // A long far backlog, a partially consumed prefix, then inserts due
        // *earlier* than everything still pending (a sorted-Vec far band
        // once mis-ordered exactly this). Order must stay exact throughout.
        let mut q: EventQueue<(), (), u64> = EventQueue::new();
        let mut seq = 0u64;
        // Backlog: 500 far events at t = 10_000 .. 10_500.
        for i in 0..500u64 {
            push_cmd(&mut q, Time::ZERO, Time(10_000 + i), seq);
            seq += 1;
        }
        // Consume 100 of them.
        let mut now = Time::ZERO;
        let mut got = Vec::new();
        for _ in 0..100 {
            let (at, kind) = q.pop(now).unwrap();
            now = at;
            match kind {
                EventKind::Command { cmd, .. } => got.push((at, cmd)),
                _ => unreachable!(),
            }
        }
        assert_eq!(now, Time(10_099));
        // Now insert a burst due before the whole remaining backlog.
        for i in 0..200u64 {
            push_cmd(&mut q, now, Time(10_100 + i % 7), seq);
            seq += 1;
        }
        got.extend(drain(&mut q, now));
        let mut expect = Vec::new();
        let mut s = 0u64;
        for i in 0..500u64 {
            expect.push((Time(10_000 + i), s));
            s += 1;
        }
        for i in 0..200u64 {
            expect.push((Time(10_100 + i % 7), s));
            s += 1;
        }
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    mod queue_order_props {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        /// Deadline deltas from inside the near band out to 1e11, one band
        /// per factor of 64, plus a few ticks ahead, so that calendar slots
        /// often hold several events of one due time.
        fn delta() -> impl Strategy<Value = u64> {
            prop_oneof![
                0u64..4,
                0u64..64,
                64u64..4096,
                4096u64..262_144,
                262_144u64..16_777_216,
                16_777_216u64..1_073_741_824,
                1_073_741_824u64..100_000_000_000,
            ]
        }

        /// One step against the queue: pop (0–2), push `d` ahead (3–5),
        /// [`EventQueue::delay_all`] by `d` (6) or a [`EventQueue::keys`]
        /// walk (7).
        fn step() -> impl Strategy<Value = (u8, u64)> {
            (0u8..8, delta())
        }

        /// The reference's pending `(at, seq)` pairs, in dispatch order.
        fn sorted(heap: &BinaryHeap<Reverse<(Time, u64)>>) -> Vec<(Time, u64)> {
            let mut want: Vec<(Time, u64)> = heap.iter().map(|r| r.0).collect();
            want.sort_unstable();
            want
        }

        /// The two-band queue (near calendar threaded through the slab +
        /// far heap) dispatches in exactly the order a reference binary
        /// heap over `(at, seq)` does, under random interleaved push and
        /// pop, with shifts of every pending event relinking the slots and
        /// key walks reading them in between.
        fn matches_reference_heap(ops: &[(u8, u64)]) -> Result<(), TestCaseError> {
            let mut q: EventQueue<(), (), u64> = EventQueue::new();
            let mut heap: BinaryHeap<Reverse<(Time, u64)>> = BinaryHeap::new();
            let mut keys = Vec::new();
            let mut now = Time::ZERO;
            let mut seq = 0u64;
            for &(op, d) in ops {
                match op {
                    0..=2 => match (q.pop(now), heap.pop()) {
                        (Some((at, EventKind::Command { cmd, .. })), Some(Reverse(want))) => {
                            prop_assert_eq!((at, cmd), want);
                            now = at;
                        }
                        (None, None) => {}
                        _ => prop_assert!(false, "queue and heap disagree"),
                    },
                    3..=5 => {
                        let at = Time(now.0 + d);
                        push_cmd(&mut q, now, at, seq);
                        heap.push(Reverse((at, seq)));
                        seq += 1;
                    }
                    6 => {
                        q.delay_all(now, d, &mut keys);
                        now += d;
                        heap = heap
                            .into_iter()
                            .map(|Reverse((at, s))| Reverse((at + d, s)))
                            .collect();
                    }
                    _ => {
                        q.keys(&mut keys);
                        let got: Vec<(Time, u64)> = keys.iter().map(|k| (k.0, k.1)).collect();
                        prop_assert_eq!(got, sorted(&heap));
                        for &key in &keys {
                            let cmd = match q.body(key) {
                                EventKind::Command { cmd, .. } => *cmd,
                                _ => unreachable!(),
                            };
                            prop_assert_eq!(cmd, key.1, "the key names its own body");
                        }
                    }
                }
            }
            while let Some((at, kind)) = q.pop(now) {
                now = at;
                let cmd = match kind {
                    EventKind::Command { cmd, .. } => cmd,
                    _ => unreachable!(),
                };
                let want = heap.pop();
                prop_assert!(want.is_some(), "queue had more events than heap");
                prop_assert_eq!(Some(Reverse((at, cmd))), want);
            }
            prop_assert!(heap.is_empty(), "heap had more events than queue");
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
            #[test]
            fn queue_pops_in_reference_heap_order(
                ops in proptest::collection::vec(step(), 1..300),
            ) {
                matches_reference_heap(&ops)?;
            }
        }

        // At 64× the cases: too slow for tier-1, run by CI with
        // `cargo test --release -p hbh-sim-core -- --ignored`.
        proptest! {
            #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]
            #[test]
            #[ignore = "4,096 cases: CI runs it in release"]
            fn queue_pops_in_reference_heap_order_at_length(
                ops in proptest::collection::vec(step(), 1..300),
            ) {
                matches_reference_heap(&ops)?;
            }
        }
    }
}
