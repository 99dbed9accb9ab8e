//! The engine's pending-event queue: a sorted deque keyed by [`SimTime`].
//!
//! Pending events sit in one `VecDeque` in `(time, push-order)` order — the
//! same total order a `BinaryHeap` keyed `(time, seq)` would produce — and
//! [`CalendarQueue::pop_batch`] takes the whole earliest-instant batch off
//! the front into a caller-owned reusable buffer, FIFO within the instant.
//!
//! A sorted deque is enough because the queue stays shallow. Measured with a
//! counting probe at seed 42, it never holds more than 3 events on the
//! closed paper grid, 4 on a single-kernel open stream and 27 on an
//! overloaded Type-2 stream held at a 128-job backlog:
//!
//! * the open driver admits each job just in time, so the queue never holds
//!   the stream's future arrivals, only the in-flight completions, fault
//!   events and the next admission;
//! * a closed workload pushes its `Arrive` events sorted by `(time, node)`
//!   up front, so each of them appends and a long arrival vector costs one
//!   sort, not a quadratic run of inserts.
//!
//! A push before the back entry binary-searches its place after every entry
//! at or before its instant, and `VecDeque::insert` shifts whichever side of
//! that place is shorter. Such pushes are common — the same probe counted
//! 69% of pushes on the closed grid, 38% on the single-kernel stream and 92%
//! on the overloaded one, where a job's same-instant arrivals land ahead of
//! in-flight completions — but at these depths each moves at most 13
//! entries and never sifts. Once the deque reaches its peak depth, pushing
//! and popping allocate nothing.
//!
//! Popped times are monotonically non-decreasing; a debug assertion fires if
//! an event is ever scheduled before the last popped instant. The property
//! test `tests/calendar_order.rs` pins the pop order against a heap model.

use apt_base::SimTime;
use std::collections::VecDeque;

/// One pending event.
#[derive(Debug, Clone, Copy)]
struct Entry<E> {
    time: SimTime,
    event: E,
}

/// A monotone event queue over copyable events, kept sorted by
/// `(time, push-order)`. See the module docs.
#[derive(Debug, Clone)]
pub struct CalendarQueue<E> {
    entries: VecDeque<Entry<E>>,
    /// Time of the last popped batch (monotonicity assertion).
    last_batch: SimTime,
}

impl<E: Copy> CalendarQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            entries: VecDeque::new(),
            last_batch: SimTime::ZERO,
        }
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no event is pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Schedule `event` at instant `t`. Events at the same instant are
    /// popped in push order (FIFO). `t` must not precede the last popped
    /// batch — the engine only ever schedules at or after *now*.
    pub fn push(&mut self, t: SimTime, event: E) {
        debug_assert!(
            t >= self.last_batch,
            "event scheduled at {t:?}, before the last popped instant {:?}",
            self.last_batch
        );
        let entry = Entry { time: t, event };
        match self.entries.back() {
            Some(back) if t < back.time => {
                let at = self.entries.partition_point(|e| e.time <= t);
                self.entries.insert(at, entry);
            }
            _ => self.entries.push_back(entry),
        }
    }

    /// The earliest pending instant, without popping anything. `None` when
    /// the queue is empty.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.entries.front().map(|e| e.time)
    }

    /// Pop the complete batch of events sharing the earliest pending
    /// instant into `out` (cleared first), preserving push order within the
    /// batch. Returns that instant, or `None` when the queue is empty.
    pub fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        out.clear();
        let t = self.peek_time()?;
        debug_assert!(t >= self.last_batch, "time ran backwards");
        while let Some(e) = self.entries.front() {
            if e.time != t {
                break;
            }
            out.push(e.event);
            self.entries.pop_front();
        }
        self.last_batch = t;
        Some(t)
    }
}

impl<E: Copy> Default for CalendarQueue<E> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(q: &mut CalendarQueue<u32>) -> Vec<(u64, Vec<u32>)> {
        let mut out = Vec::new();
        let mut batch = Vec::new();
        while let Some(t) = q.pop_batch(&mut batch) {
            out.push((t.as_ns(), batch.clone()));
        }
        out
    }

    /// Same-instant events come out as ONE batch, in push order, regardless
    /// of how their pushes interleave with other instants.
    #[test]
    fn same_instant_events_pop_as_one_fifo_batch() {
        let mut q = CalendarQueue::new();
        let t = SimTime::from_ms(5);
        q.push(t, 1);
        q.push(SimTime::from_ms(9), 99);
        q.push(t, 2);
        q.push(SimTime::from_ms(2), 50);
        q.push(t, 3);
        assert_eq!(q.len(), 5);
        assert_eq!(
            drain_all(&mut q),
            vec![
                (SimTime::from_ms(2).as_ns(), vec![50]),
                (SimTime::from_ms(5).as_ns(), vec![1, 2, 3]),
                (SimTime::from_ms(9).as_ns(), vec![99]),
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn empty_queue_pops_none_and_clears_the_buffer() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        let mut batch = vec![7, 8];
        assert_eq!(q.pop_batch(&mut batch), None);
        assert!(batch.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    /// Far-future events pushed out of time order still come out in global
    /// time order, and a same-instant pair split by a later push pops as one
    /// batch.
    #[test]
    fn overflow_refill_preserves_order() {
        let mut q = CalendarQueue::new();
        let far = SimTime::from_ms(600_000);
        let farther = SimTime::from_ms(600_000 * 3);
        q.push(far, 1);
        q.push(SimTime::from_ms(1), 0); // inserted before the back
        q.push(farther, 9);
        q.push(far, 2); // same instant as the first push, behind it
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime::from_ms(1)));
        assert_eq!(batch, vec![0]);
        // Both `far` entries must come out together, in push order.
        assert_eq!(q.pop_batch(&mut batch), Some(far));
        assert_eq!(batch, vec![1, 2]);
        assert_eq!(q.pop_batch(&mut batch), Some(farther));
        assert_eq!(batch, vec![9]);
        assert_eq!(q.pop_batch(&mut batch), None);
    }

    /// Events minutes out, one nanosecond apart, keep their order and their
    /// FIFO same-instant batch when a near event is inserted ahead of them.
    #[test]
    fn beyond_far_horizon_events_cross_both_levels() {
        let mut q = CalendarQueue::new();
        let way_out = SimTime::from_ns(209_379_655_680);
        let way_out_2 = SimTime::from_ns(209_379_655_681);
        q.push(way_out, 1);
        q.push(way_out_2, 2); // next nanosecond
        q.push(SimTime::from_ms(1), 0); // inserted at the front
        q.push(way_out, 3); // same instant as the first push, before the back
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime::from_ms(1)));
        assert_eq!(batch, vec![0]);
        assert_eq!(q.peek_time(), Some(way_out));
        assert_eq!(q.pop_batch(&mut batch), Some(way_out));
        assert_eq!(batch, vec![1, 3]);
        assert_eq!(q.pop_batch(&mut batch), Some(way_out_2));
        assert_eq!(batch, vec![2]);
        assert!(q.is_empty());
    }

    /// After a pop jumps far ahead, pushes near the new `now` interleave
    /// correctly with an older, still farther event.
    #[test]
    fn pushes_after_window_advance_keep_global_order() {
        let mut q = CalendarQueue::new();
        let jump = SimTime::from_ns(139_586_437_120);
        let beyond = SimTime::from_ns(348_966_092_800);
        q.push(jump, 0);
        q.push(beyond, 9);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(jump));
        assert_eq!(batch, vec![0]);
        // New events shortly after `jump` go in ahead of `beyond`.
        let soon = jump + apt_base::SimDuration::from_ms(5);
        let later = jump + apt_base::SimDuration::from_ms(5_000);
        q.push(later, 2);
        q.push(soon, 1);
        assert_eq!(q.pop_batch(&mut batch), Some(soon));
        assert_eq!(batch, vec![1]);
        assert_eq!(q.pop_batch(&mut batch), Some(later));
        assert_eq!(batch, vec![2]);
        assert_eq!(q.pop_batch(&mut batch), Some(beyond));
        assert_eq!(batch, vec![9]);
    }

    /// Pushes at the just-popped instant (zero-length work) join a *new*
    /// batch at the same time rather than being lost or reordered.
    #[test]
    fn push_at_current_instant_is_allowed() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_ms(3), 1);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime::from_ms(3)));
        q.push(SimTime::from_ms(3), 2);
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime::from_ms(3)));
        assert_eq!(batch, vec![2]);
    }

    /// `peek_time` reports the next batch instant without consuming it.
    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_ms(7), 1);
        q.push(SimTime::from_ms(3), 2);
        q.push(SimTime::from_ms(900_000), 3);
        let mut batch = Vec::new();
        while let Some(t) = q.peek_time() {
            assert_eq!(q.pop_batch(&mut batch), Some(t));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn default_queue_is_empty() {
        let mut q: CalendarQueue<u32> = CalendarQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        assert_eq!(drain_all(&mut q), vec![]);
    }

    /// A clone owns its entries: draining it leaves the original intact,
    /// and both yield the same batches.
    #[test]
    fn a_clone_drains_independently() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_ms(4), 1);
        q.push(SimTime::from_ms(2), 2);
        q.push(SimTime::from_ms(4), 3);
        let mut copy = q.clone();
        let from_copy = drain_all(&mut copy);
        assert!(copy.is_empty());
        assert_eq!(q.len(), 3);
        assert_eq!(drain_all(&mut q), from_copy);
        assert_eq!(
            from_copy,
            vec![
                (SimTime::from_ms(2).as_ns(), vec![2]),
                (SimTime::from_ms(4).as_ns(), vec![1, 3]),
            ]
        );
    }

    /// A push that lands before the back entry goes after every entry
    /// already at its instant, and before every later one.
    #[test]
    fn an_insert_lands_behind_every_entry_at_its_instant() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_ms(1), 10);
        q.push(SimTime::from_ms(5), 50);
        q.push(SimTime::from_ms(5), 51);
        q.push(SimTime::from_ms(8), 80);
        q.push(SimTime::from_ms(5), 52); // before the back, at a shared instant
        q.push(SimTime::from_ms(3), 30); // before the back, at a new instant
        assert_eq!(
            drain_all(&mut q),
            vec![
                (SimTime::from_ms(1).as_ns(), vec![10]),
                (SimTime::from_ms(3).as_ns(), vec![30]),
                (SimTime::from_ms(5).as_ns(), vec![50, 51, 52]),
                (SimTime::from_ms(8).as_ns(), vec![80]),
            ]
        );
    }

    /// Pushing in strictly descending time order — every push lands at the
    /// front — still pops one batch per instant in ascending order.
    #[test]
    fn descending_pushes_pop_in_ascending_order() {
        let mut q = CalendarQueue::new();
        for i in (0..200u32).rev() {
            q.push(SimTime::from_us(u64::from(i) * 7 + 1), i);
        }
        let popped = drain_all(&mut q);
        assert_eq!(popped.len(), 200);
        for (i, (t, batch)) in popped.iter().enumerate() {
            assert_eq!(*t, SimTime::from_us(i as u64 * 7 + 1).as_ns());
            assert_eq!(batch, &vec![i as u32]);
        }
    }

    /// `len` counts pending events: pushes add one each, a pop removes its
    /// whole batch.
    #[test]
    fn len_counts_pending_events_across_pops() {
        let mut q = CalendarQueue::new();
        for (i, ms) in [6u64, 2, 6, 6, 9].into_iter().enumerate() {
            q.push(SimTime::from_ms(ms), i as u32);
        }
        assert_eq!(q.len(), 5);
        let mut batch = Vec::new();
        q.pop_batch(&mut batch);
        assert_eq!((batch.len(), q.len()), (1, 4));
        q.pop_batch(&mut batch);
        assert_eq!((batch.len(), q.len()), (3, 1));
        q.push(SimTime::from_ms(7), 5);
        assert_eq!(q.len(), 2);
        q.pop_batch(&mut batch);
        q.pop_batch(&mut batch);
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    /// Instants one nanosecond apart are distinct batches.
    #[test]
    fn adjacent_nanoseconds_pop_as_separate_batches() {
        let mut q = CalendarQueue::new();
        let t = SimTime::from_ns(1_000_000_007);
        q.push(SimTime::from_ns(t.as_ns() + 1), 2);
        q.push(t, 1);
        q.push(SimTime::from_ns(t.as_ns() + 1), 3);
        q.push(t, 0);
        assert_eq!(
            drain_all(&mut q),
            vec![(t.as_ns(), vec![1, 0]), (t.as_ns() + 1, vec![2, 3])]
        );
    }

    /// `SimTime::MAX`, the engine's "no deadline" sentinel, is an ordinary
    /// instant to the queue: it pops last, after events pushed behind it.
    #[test]
    fn events_at_the_end_of_time_pop_last() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::MAX, 9);
        q.push(SimTime::from_ms(1), 1);
        q.push(SimTime::MAX, 10);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime::from_ms(1)));
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime::MAX));
        assert_eq!(batch, vec![9, 10]);
        assert!(q.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before the last popped instant")]
    fn scheduling_into_the_past_asserts() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_ms(10), 1);
        let mut batch = Vec::new();
        q.pop_batch(&mut batch);
        q.push(SimTime::from_ms(1), 2);
    }
}
