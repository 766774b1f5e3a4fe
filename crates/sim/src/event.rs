//! A cycle-keyed event wheel.
//!
//! Most of the simulator is ticked every cycle, but several components
//! sleep for a statically-known duration: a core executing a compute
//! segment, the OS completing a context switch, a DRAM access finishing.
//! [`EventWheel`] stores `(due_cycle, payload)` pairs and pops payloads in
//! due-cycle order, with FIFO ordering among events due the same cycle so
//! that simulation stays deterministic.

use crate::Cycle;
use std::collections::BinaryHeap;

/// One pending entry: ordered by due cycle, then by insertion sequence.
#[derive(Debug)]
struct Entry<T> {
    due: Cycle,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (due, seq) pops
        // first.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-queue of events keyed by absolute [`Cycle`].
///
/// # Example
///
/// ```
/// use inpg_sim::{Cycle, EventWheel};
/// let mut wheel = EventWheel::new();
/// wheel.schedule(Cycle::new(10), 'b');
/// wheel.schedule(Cycle::new(10), 'c'); // same cycle: FIFO
/// wheel.schedule(Cycle::new(1), 'a');
/// let now = Cycle::new(10);
/// let drained: Vec<char> = wheel.drain_due(now).collect();
/// assert_eq!(drained, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventWheel<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> EventWheel<T> {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        EventWheel { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `payload` to become due at cycle `due`.
    pub fn schedule(&mut self, due: Cycle, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { due, seq, payload });
    }

    /// Pops the earliest event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<T> {
        if self.heap.peek().is_some_and(|e| e.due <= now) {
            Some(self.heap.pop().expect("peeked entry exists").payload)
        } else {
            None
        }
    }

    /// Drains every event due at or before `now`, in (due, FIFO) order.
    pub fn drain_due(&mut self, now: Cycle) -> DrainDue<'_, T> {
        DrainDue { wheel: self, now }
    }

    /// The due cycle of the earliest pending event, if any: the first
    /// cycle at which [`pop_due`](Self::pop_due) can return something,
    /// so an owner whose only timed work lives here can skip its tick
    /// until then.
    pub fn next_due(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.due)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Iterator returned by [`EventWheel::drain_due`].
#[derive(Debug)]
pub struct DrainDue<'a, T> {
    wheel: &'a mut EventWheel<T>,
    now: Cycle,
}

impl<T> Iterator for DrainDue<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.wheel.pop_due(self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_due_order() {
        let mut wheel = EventWheel::new();
        wheel.schedule(Cycle::new(30), 3);
        wheel.schedule(Cycle::new(10), 1);
        wheel.schedule(Cycle::new(20), 2);
        assert_eq!(wheel.pop_due(Cycle::new(100)), Some(1));
        assert_eq!(wheel.pop_due(Cycle::new(100)), Some(2));
        assert_eq!(wheel.pop_due(Cycle::new(100)), Some(3));
        assert_eq!(wheel.pop_due(Cycle::new(100)), None);
    }

    #[test]
    fn does_not_pop_future_events() {
        let mut wheel = EventWheel::new();
        wheel.schedule(Cycle::new(10), "later");
        assert_eq!(wheel.pop_due(Cycle::new(9)), None);
        assert_eq!(wheel.pop_due(Cycle::new(10)), Some("later"));
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut wheel = EventWheel::new();
        for i in 0..50 {
            wheel.schedule(Cycle::new(5), i);
        }
        let order: Vec<i32> = wheel.drain_due(Cycle::new(5)).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn next_due_reports_earliest() {
        let mut wheel = EventWheel::new();
        assert_eq!(wheel.next_due(), None);
        wheel.schedule(Cycle::new(8), ());
        wheel.schedule(Cycle::new(3), ());
        assert_eq!(wheel.next_due(), Some(Cycle::new(3)));
    }

    #[test]
    fn len_and_is_empty() {
        let mut wheel = EventWheel::new();
        assert!(wheel.is_empty());
        wheel.schedule(Cycle::new(1), ());
        assert_eq!(wheel.len(), 1);
        assert!(!wheel.is_empty());
    }

    #[test]
    fn drain_due_stops_at_now() {
        let mut wheel = EventWheel::new();
        wheel.schedule(Cycle::new(1), 1);
        wheel.schedule(Cycle::new(2), 2);
        wheel.schedule(Cycle::new(3), 3);
        let drained: Vec<i32> = wheel.drain_due(Cycle::new(2)).collect();
        assert_eq!(drained, vec![1, 2]);
        assert_eq!(wheel.len(), 1);
    }
}
