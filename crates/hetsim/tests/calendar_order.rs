//! Differential property test: [`CalendarQueue`] must dequeue in exactly
//! the `(time, seq)` order the engine's old `BinaryHeap<Reverse<(SimTime,
//! u64, E)>>` produced, on arbitrary interleavings of pushes and batch pops
//! — including the monotone-push constraint the engine guarantees (events
//! are only ever scheduled at or after the current instant).
//!
//! The batch semantics under test: one `pop_batch` returns *every* event at
//! the earliest pending instant, FIFO within the instant, and nothing else.

use apt_base::SimTime;
use apt_hetsim::CalendarQueue;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reference model: the old heap, drained batch-wise by peeking.
struct HeapModel {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    seq: u64,
}

impl HeapModel {
    fn new() -> Self {
        HeapModel {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn push(&mut self, t: SimTime, event: u32) {
        self.heap.push(Reverse((t, self.seq, event)));
        self.seq += 1;
    }

    /// The seed engine's pop + peek-drain loop, as one batch.
    fn pop_batch(&mut self) -> Option<(SimTime, Vec<u32>)> {
        let Reverse((t, _, first)) = self.heap.pop()?;
        let mut batch = vec![first];
        while let Some(Reverse((t2, _, _))) = self.heap.peek() {
            if *t2 != t {
                break;
            }
            let Reverse((_, _, e)) = self.heap.pop().expect("peeked");
            batch.push(e);
        }
        Some((t, batch))
    }
}

/// An operation script: positive offsets schedule an event that far past
/// the current instant (0 ⇒ at the current instant), `None` pops a batch.
fn run_script(offsets_ns: &[Option<u64>]) {
    let mut queue: CalendarQueue<u32> = CalendarQueue::new();
    let mut model = HeapModel::new();
    let mut now = SimTime::ZERO;
    let mut next_event = 0u32;
    let mut batch = Vec::new();
    for op in offsets_ns {
        match op {
            Some(offset) => {
                let t = SimTime::from_ns(now.as_ns() + offset);
                queue.push(t, next_event);
                model.push(t, next_event);
                next_event += 1;
            }
            None => {
                let got = queue.pop_batch(&mut batch).map(|t| (t, batch.clone()));
                let expected = model.pop_batch();
                assert_eq!(got, expected, "batch diverged from the heap order");
                if let Some((t, _)) = got {
                    now = t;
                }
            }
        }
    }
    // Drain both to the end: every remaining batch must agree too.
    loop {
        let got = queue.pop_batch(&mut batch).map(|t| (t, batch.clone()));
        let expected = model.pop_batch();
        assert_eq!(got, expected, "drain diverged from the heap order");
        if got.is_none() {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary push/pop interleavings with offsets from 0 ns to an hour:
    /// equal instants (placed after every entry at their instant), near
    /// offsets that land before a farther back entry (the binary-searched
    /// insert) and far ones that append: the sorted deque's dequeue
    /// sequence is the heap's, batch for batch.
    #[test]
    fn dequeues_in_heap_order(
        ops in prop::collection::vec(
            prop::sample::select(vec![
                None, None, None,            // ~30% pops
                Some(0u64),                  // same instant as `now`
                Some(1), Some(7),            // ns apart: ties and near inserts
                Some(1 << 24),               // ~17 ms: kernel-sized offsets,
                Some(5_000_000),             // usually inserted before a
                Some(93_000_000),            // farther back entry
                Some((64u64 << 24) + 1),     // ~1.1 s
                Some(600_000_000_000),       // minutes out: mostly appends
                Some((65u64 << 30) + 3),     // ~70 s: inserts before those
                Some(3_600_000_000_000),     // an hour out: the back entry
            ]),
            0..120,
        ),
    ) {
        run_script(&ops);
    }

    /// Million-stream shape: a long monotone arrival ramp pushed up front
    /// (gaps from 0 ns to 17 s, so every push appends), popped while new
    /// near-term completions keep arriving — the exact access pattern of the
    /// open-stream driver. Order must still be the heap's.
    #[test]
    fn arrival_ramp_with_interleaved_completions(
        gaps in prop::collection::vec(
            prop::sample::select(vec![0u64, 50_000, 400_000_000, 17_000_000_000]),
            1..60,
        ),
        completions in prop::collection::vec(
            prop::sample::select(vec![1_000u64, 93_000_000, 106_000_000]),
            1..30,
        ),
    ) {
        // Arrivals: cumulative gaps from t = 0, all pushed before any pop.
        let mut ops: Vec<Option<u64>> = Vec::new();
        let mut t = 0u64;
        let mut arrivals = Vec::new();
        for g in &gaps {
            t += g;
            arrivals.push(t);
        }
        // Absolute arrival instants are offsets from now = 0 at push time.
        ops.extend(arrivals.iter().map(|&a| Some(a)));
        // Then interleave pops with near-term completion pushes.
        for c in &completions {
            ops.push(None);
            ops.push(Some(*c));
            ops.push(None);
        }
        run_script(&ops);
    }

    /// Duplicate instants reached via *different* offset paths still form
    /// single FIFO batches.
    #[test]
    fn duplicate_instants_batch_together(
        times in prop::collection::vec(prop::sample::select(
            vec![0u64, 1, 93_000, 93_000, 106_000_000, 106_000_000, 600_000_000_000],
        ), 1..40),
    ) {
        // All pushes up front (arrival-style), then drain.
        let ops: Vec<Option<u64>> = times.iter().map(|&t| Some(t)).collect();
        run_script(&ops);
    }
}

/// Unit pin (non-proptest) of the engine-facing batch contract: completions
/// scheduled at one instant from different pushes come back as one batch in
/// push order, and a later batch at the same instant stays separate.
#[test]
fn same_instant_batch_semantics_pin() {
    let mut q: CalendarQueue<u32> = CalendarQueue::new();
    let t = SimTime::from_ms(106);
    q.push(SimTime::from_ms(212), 30);
    q.push(t, 10);
    q.push(t, 11);
    q.push(SimTime::from_ms(212), 31);
    q.push(t, 12);

    let mut batch = Vec::new();
    assert_eq!(q.pop_batch(&mut batch), Some(t));
    assert_eq!(batch, vec![10, 11, 12], "FIFO within the instant");
    // Events scheduled *after* an instant was drained may still land on the
    // same clock reading; they form a new batch (the engine consults the
    // policy in between).
    q.push(t, 13);
    assert_eq!(q.pop_batch(&mut batch), Some(t));
    assert_eq!(batch, vec![13]);
    assert_eq!(q.pop_batch(&mut batch), Some(SimTime::from_ms(212)));
    assert_eq!(batch, vec![30, 31]);
    assert_eq!(q.pop_batch(&mut batch), None);
    assert!(q.is_empty());
}
