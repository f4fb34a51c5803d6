//! The pending-event queue of a [`World`](crate::World).
//!
//! Events dispatch in `(time, seq)` order, where `seq` is the queue's push
//! counter: same-time events run in the order they were scheduled, and a
//! model checker can name any pending event by its `seq`.
//!
//! The binary heap only holds small `(time, seq, slot)` keys. The event
//! bodies — a delivery carries the whole message inline — live in a slab
//! that recycles its slots through a free list, so a heap sift moves 24
//! bytes instead of the full event, and scheduling an event allocates
//! nothing once the slab has grown to the peak number of pending events.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A heap entry: the dispatch key plus the slab slot of the event body.
#[derive(Clone, Copy, Debug)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    /// Reversed `(time, seq)`: `BinaryHeap` is a max-heap and the earliest
    /// event must come out first. `seq` is unique, so the order is total.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A priority queue of events `E` keyed by `(time, seq)`.
#[derive(Debug)]
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Key>,
    /// Event bodies; `None` marks a free slot.
    slab: Vec<Option<E>>,
    /// Free slots of `slab`, reused last-freed first.
    free: Vec<u32>,
    /// The `seq` the next pushed event gets.
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Schedules `event` at `time`, returning its `seq`.
    pub(crate) fn push(&mut self, time: SimTime, event: E) -> u64 {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Key { time, seq, slot });
        seq
    }

    /// The time of the earliest event, if any.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|key| key.time)
    }

    /// Removes and returns the earliest event as `(time, seq, event)`.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        let key = self.heap.pop()?;
        Some((key.time, key.seq, self.take(key.slot)))
    }

    /// Removes the event with sequence number `seq`, wherever it is in the
    /// order, returning `(time, event)`; `None` when no such event is
    /// pending. O(n) in the pending events: this is the model checker's
    /// path, not the run loop's.
    pub(crate) fn remove(&mut self, seq: u64) -> Option<(SimTime, E)> {
        let mut keys = std::mem::take(&mut self.heap).into_vec();
        let found = keys.iter().position(|key| key.seq == seq);
        let key = found.map(|pos| keys.swap_remove(pos));
        self.heap = BinaryHeap::from(keys);
        let key = key?;
        Some((key.time, self.take(key.slot)))
    }

    /// The pending event with sequence number `seq`.
    pub(crate) fn get(&self, seq: u64) -> Option<&E> {
        let key = self.heap.iter().find(|key| key.seq == seq)?;
        self.slab[key.slot as usize].as_ref()
    }

    /// Every pending event as `(time, seq, event)`, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SimTime, u64, &E)> + '_ {
        self.heap.iter().map(|key| {
            let event = self.slab[key.slot as usize]
                .as_ref()
                .expect("a queued key points at a live slot");
            (key.time, key.seq, event)
        })
    }

    /// Every pending event as `(time, seq, event)`, in dispatch order.
    pub(crate) fn sorted(&self) -> Vec<(SimTime, u64, &E)> {
        let mut events: Vec<_> = self.iter().collect();
        events.sort_unstable_by_key(|&(time, seq, _)| (time, seq));
        events
    }

    /// Number of pending events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no event is pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// A copy of the queue with every event passed through `copy(seq,
    /// event)`. Keys, slots and the `seq` counter are kept, so events keep
    /// their names and the copy dispatches in exactly the same order.
    pub(crate) fn try_copy<F, X>(
        &self,
        mut copy: impl FnMut(u64, &E) -> Result<F, X>,
    ) -> Result<EventQueue<F>, X> {
        let mut slab: Vec<Option<F>> = Vec::with_capacity(self.slab.len());
        slab.resize_with(self.slab.len(), || None);
        for key in self.heap.iter() {
            let event = self.slab[key.slot as usize]
                .as_ref()
                .expect("a queued key points at a live slot");
            slab[key.slot as usize] = Some(copy(key.seq, event)?);
        }
        Ok(EventQueue {
            heap: self.heap.clone(),
            slab,
            free: self.free.clone(),
            next_seq: self.next_seq,
        })
    }

    fn take(&mut self, slot: u32) -> E {
        let event = self.slab[slot as usize]
            .take()
            .expect("a queued key points at a live slot");
        self.free.push(slot);
        event
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;

    use proptest::prelude::*;

    use super::*;

    /// The reference model: the plain heap of `(time, seq)` pairs the queue
    /// replaced, with the event body stored next to its key.
    #[derive(Clone, Default)]
    struct Model {
        heap: BinaryHeap<(Reverse<SimTime>, Reverse<u64>, u32)>,
        next_seq: u64,
    }

    impl Model {
        fn push(&mut self, time: SimTime, event: u32) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push((Reverse(time), Reverse(seq), event));
            seq
        }

        fn pop(&mut self) -> Option<(SimTime, u64, u32)> {
            self.heap
                .pop()
                .map(|(Reverse(time), Reverse(seq), event)| (time, seq, event))
        }

        fn get(&self, seq: u64) -> Option<u32> {
            self.heap.iter().find(|e| e.1 .0 == seq).map(|e| e.2)
        }

        fn remove(&mut self, seq: u64) -> Option<(SimTime, u32)> {
            let mut entries = std::mem::take(&mut self.heap).into_vec();
            let pos = entries.iter().position(|e| e.1 .0 == seq);
            let removed = pos.map(|pos| entries.swap_remove(pos));
            self.heap = BinaryHeap::from(entries);
            removed.map(|(Reverse(time), _, event)| (time, event))
        }

        fn sorted(&self) -> Vec<(SimTime, u64, u32)> {
            let mut all: Vec<_> = self
                .heap
                .iter()
                .map(|&(Reverse(time), Reverse(seq), event)| (time, seq, event))
                .collect();
            all.sort_unstable();
            all
        }
    }

    fn sorted(queue: &EventQueue<u32>) -> Vec<(SimTime, u64, u32)> {
        queue
            .sorted()
            .into_iter()
            .map(|(time, seq, &event)| (time, seq, event))
            .collect()
    }

    /// Pops both to empty and checks they agree event by event.
    fn drain_both(mut queue: EventQueue<u32>, mut model: Model) {
        loop {
            let (got, want) = (queue.pop(), model.pop());
            assert_eq!(got, want);
            if got.is_none() {
                return;
            }
        }
    }

    #[test]
    fn same_time_events_dispatch_in_push_order() {
        let mut queue = EventQueue::default();
        let t = SimTime::from_millis(5);
        assert_eq!(queue.push(t, 'a'), 0);
        assert_eq!(queue.push(SimTime::from_millis(1), 'b'), 1);
        assert_eq!(queue.push(t, 'c'), 2);
        assert_eq!(queue.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(queue.pop().map(|e| e.2), Some('b'));
        assert_eq!(queue.pop().map(|e| e.2), Some('a'));
        assert_eq!(queue.pop().map(|e| e.2), Some('c'));
        assert!(queue.pop().is_none() && queue.is_empty());
    }

    #[test]
    fn slots_are_recycled() {
        let mut queue = EventQueue::default();
        for round in 0..100u64 {
            queue.push(SimTime::from_micros(round), round);
            queue.push(SimTime::from_micros(round), round);
            queue.pop();
            queue.pop();
        }
        assert_eq!(queue.slab.len(), 2, "two live events at most");
        assert_eq!(queue.len(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random push / pop / remove-by-seq / copy sequences: the queue and
        /// the reference heap dispatch the same events in the same order,
        /// and a copy taken mid-way dispatches exactly as the original.
        #[test]
        fn queue_matches_reference_heap(
            ops in proptest::collection::vec((0u8..4, 0u64..8, 0u32..1000), 0..120),
        ) {
            let mut queue: EventQueue<u32> = EventQueue::default();
            let mut model = Model::default();
            let mut copies: Vec<(EventQueue<u32>, Model)> = Vec::new();
            for (op, time, event) in ops {
                match op {
                    0 | 1 => {
                        // Coarse times make same-time ties common.
                        let time = SimTime::from_micros(time);
                        prop_assert_eq!(queue.push(time, event), model.push(time, event));
                    }
                    2 => {
                        if event % 3 == 0 {
                            // Remove (dispatch_key) a seq that may or may not
                            // be pending, including ones long popped.
                            let seq = u64::from(event) % (model.next_seq + 1);
                            prop_assert_eq!(queue.get(seq).copied(), model.get(seq));
                            prop_assert_eq!(queue.remove(seq), model.remove(seq));
                        } else {
                            prop_assert_eq!(queue.peek_time(), model.heap.peek().map(|e| e.0 .0));
                            prop_assert_eq!(queue.pop(), model.pop());
                        }
                    }
                    _ => {
                        let copy = queue
                            .try_copy(|_, &e| Ok::<u32, ()>(e))
                            .expect("plain events copy");
                        copies.push((copy, model.clone()));
                    }
                }
                prop_assert_eq!(queue.is_empty(), model.heap.is_empty());
                prop_assert_eq!(sorted(&queue), model.sorted());
            }
            for (copy, model) in copies {
                drain_both(copy, model);
            }
            drain_both(queue, model);
        }
    }
}
