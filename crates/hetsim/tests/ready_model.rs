//! Model test for [`ReadySet`]: random interleavings of `set_seq`,
//! `set_prio`, `set_class`, `insert`, `remove` and `grow`, with recycled
//! ids, equal priorities and sequences, and more than 64 classes, checked
//! after every step against a plain model: a member list sorted by
//! `(prio, seq, node)`.
//!
//! Every read is checked: `iter`, `first`, `len`, the screened walk (each
//! entry with its class) against a linear mask-filtered walk under an idle
//! set that shrinks between steps, `for_each_screened` against the same
//! filter without the shrinking, and `first_in_class` against a scan of
//! the model filtered by class and a skip list. Both modes run the same
//! script; the bitset mode ignores the sequence and priority steps and
//! orders by node id.

use apt_dfg::NodeId;
use apt_hetsim::{ClassId, ReadyEntry, ReadySet};
use proptest::prelude::*;

/// Classes the scripts draw from: more than one word of live-class bits.
const CLASSES: u32 = 100;

/// One step: `(kind, id, value)`.
type Step = (u8, usize, u64);

/// The plain model: per-node keys and membership.
struct Model {
    ordered: bool,
    seq: Vec<u64>,
    prio: Vec<u64>,
    class: Vec<ClassId>,
    member: Vec<bool>,
}

impl Model {
    fn new(ordered: bool, universe: usize) -> Model {
        Model {
            ordered,
            seq: vec![0; universe],
            prio: vec![0; universe],
            class: vec![0; universe],
            member: vec![false; universe],
        }
    }

    fn grow(&mut self, universe: usize) {
        if universe > self.member.len() {
            self.seq.resize(universe, 0);
            self.prio.resize(universe, 0);
            self.class.resize(universe, 0);
            self.member.resize(universe, false);
        }
    }

    /// The members in the set's order, each with its entry.
    fn sorted(&self) -> Vec<ReadyEntry> {
        let mut entries: Vec<ReadyEntry> = (0..self.member.len())
            .filter(|&i| self.member[i])
            .map(|i| ReadyEntry {
                prio: if self.ordered { self.prio[i] } else { 0 },
                seq: if self.ordered { self.seq[i] } else { i as u64 },
                node: NodeId::new(i),
                class: self.class[i],
            })
            .collect();
        entries.sort();
        entries
    }
}

/// The idle-set update both walks apply on a visit: the `n`-th visit
/// claims the lowest processor of `masks[class] & idle` when `n % 3 != 1`,
/// and claims nothing otherwise (a kernel that waits).
fn claim(n: usize, mask: u64, idle: u64) -> u64 {
    let open = mask & idle;
    if n % 3 == 1 || open == 0 {
        idle
    } else {
        idle & !(1 << open.trailing_zeros())
    }
}

/// Check every read of `set` against `model`.
fn check(set: &ReadySet, model: &Model, masks: &[u64], idle: u64) {
    let sorted = model.sorted();
    let nodes: Vec<NodeId> = sorted.iter().map(|e| e.node).collect();
    assert_eq!(set.iter().collect::<Vec<_>>(), nodes, "iter");
    assert_eq!(set.first(), nodes.first().copied(), "first");
    assert_eq!(set.len(), nodes.len(), "len");
    assert_eq!(set.is_empty(), nodes.is_empty(), "is_empty");

    // The screened walk against the linear walk with a mask test.
    let mut expected = Vec::new();
    let mut left = idle;
    for e in &sorted {
        if left == 0 {
            break;
        }
        let mask = masks[e.class as usize];
        if mask & left != 0 {
            expected.push((*e, left));
            left = claim(expected.len(), mask, left);
        }
    }
    let mut walked = Vec::new();
    set.walk_screened(masks, idle, |e, now| {
        walked.push((e, now));
        claim(walked.len(), masks[e.class as usize], now)
    });
    assert_eq!(walked, expected, "walk_screened from idle {idle:#b}");

    // The unordered visit: the same members as the filter, in any order.
    let mut visited = Vec::new();
    set.for_each_screened(masks, idle, |e| visited.push(e));
    visited.sort();
    let filtered: Vec<ReadyEntry> = sorted
        .into_iter()
        .filter(|e| masks[e.class as usize] & idle != 0)
        .collect();
    assert_eq!(visited, filtered, "for_each_screened from idle {idle:#b}");
}

/// Run one script in one mode. `masks` holds a processor mask per class
/// (six processors); step `n`'s check screens from `idles[n % idles.len()]`.
fn run(ordered: bool, universe: usize, steps: &[Step], masks: &[u64], idles: &[u64]) {
    drive(ordered, universe, steps, |set, model, n| {
        check(set, model, masks, idles[n % idles.len()]);
    });
}

/// Check `first_in_class` for every class up to two past `classes` (so
/// some are never stamped) against the first model member of that class
/// that is not in `skip`.
fn check_first_in_class(set: &ReadySet, model: &Model, classes: u32, skip: &[NodeId]) {
    let sorted = model.sorted();
    for class in 0..classes + 2 {
        let expected = sorted
            .iter()
            .find(|e| e.class == class && !skip.contains(&e.node))
            .copied();
        assert_eq!(
            set.first_in_class(class, skip),
            expected,
            "first_in_class({class}) skipping {skip:?}"
        );
    }
}

/// Apply one script to a fresh set and the model, calling `check(set,
/// model, n)` after step `n` and after every removal of the final drain
/// (with `n = 0`).
fn drive(
    ordered: bool,
    universe: usize,
    steps: &[Step],
    mut check: impl FnMut(&ReadySet, &Model, usize),
) {
    let mut set = if ordered {
        ReadySet::new_ordered(universe)
    } else {
        ReadySet::new(universe)
    };
    let mut model = Model::new(ordered, universe);
    for (n, &(kind, id, value)) in steps.iter().enumerate() {
        let size = model.member.len();
        if kind == 5 {
            // Grow by up to 70 ids, across a word boundary now and then.
            let to = size + (value as usize % 70);
            set.grow(to);
            model.grow(to);
            check(&set, &model, n);
            continue;
        }
        if size == 0 {
            continue;
        }
        let i = id % size;
        let node = NodeId::new(i);
        let member = model.member[i];
        match kind {
            // Keys change only on non-members (the set's contract). Small
            // ranges make equal priorities and sequences common.
            0 if !member && ordered => {
                set.set_seq(node, value % 16);
                model.seq[i] = value % 16;
            }
            1 if !member && ordered => {
                set.set_prio(node, value % 4);
                model.prio[i] = value % 4;
            }
            2 if !member => {
                let class = (value % CLASSES as u64) as ClassId;
                set.set_class(node, class);
                model.class[i] = class;
            }
            3 => {
                assert_eq!(set.insert(node), !member, "insert");
                model.member[i] = true;
            }
            4 => {
                assert_eq!(set.remove(node), member, "remove");
                model.member[i] = false;
            }
            _ => {}
        }
        check(&set, &model, n);
    }
    // Drain in set order: every removal keeps the rest consistent.
    while let Some(node) = set.first() {
        assert!(set.remove(node));
        model.member[node.index()] = false;
        check(&set, &model, 0);
    }
}

/// The EDF churn of a deep open stream: `classes` class lists of
/// `per_class` members each, then rounds that either pop the set's first
/// member or insert a recycled id under a rising sequence, the priority
/// `n + spread` for round `n` and the class `class % classes`, checked
/// against the model after every step. Pops take class heads and so open a
/// gap at the front of a list; a small spread lands an insert in the front
/// half of its list, where the gap takes it; and a list filled close to its
/// capacity soon meets a tail insert into a full buffer with a gap.
fn run_head_heavy(classes: u32, per_class: usize, rounds: &[(bool, u64, u32)], masks: &[u64]) {
    let universe = classes as usize * per_class + rounds.len();
    let mut set = ReadySet::new_ordered(universe);
    let mut model = Model::new(true, universe);
    let mut free: Vec<usize> = (0..universe).rev().collect();
    let mut seq = 0;
    let mut add = |set: &mut ReadySet, model: &mut Model, i: usize, prio: u64, class: ClassId| {
        let node = NodeId::new(i);
        seq += 1;
        set.set_seq(node, seq);
        set.set_prio(node, prio);
        set.set_class(node, class);
        assert!(set.insert(node), "insert");
        (model.seq[i], model.prio[i], model.class[i]) = (seq, prio, class);
        model.member[i] = true;
    };
    for n in 0..classes as usize * per_class {
        let i = free.pop().expect("the universe covers the fill");
        add(&mut set, &mut model, i, n as u64, n as ClassId % classes);
    }
    check(&set, &model, masks, 0b11_1111);
    for (n, &(pop, spread, class)) in rounds.iter().enumerate() {
        if pop {
            let node = set.first().expect("rounds never drain the set");
            assert!(set.remove(node), "remove");
            model.member[node.index()] = false;
            free.push(node.index());
        } else {
            let i = free.pop().expect("the universe covers every insert");
            add(&mut set, &mut model, i, n as u64 + spread, class % classes);
        }
        check(&set, &model, masks, 0b11_1111 >> (n % 6));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random scripts over a small universe, so ids recycle constantly.
    #[test]
    fn ready_set_matches_a_sorted_model(
        universe in 0usize..80,
        steps in prop::collection::vec((0u8..6, 0usize..1_000, 0u64..1_000), 0..220),
        masks in prop::collection::vec(0u64..64, CLASSES as usize..CLASSES as usize + 1),
        idles in prop::collection::vec(0u64..64, 1..8),
    ) {
        run(true, universe, &steps, &masks, &idles);
        run(false, universe, &steps, &masks, &idles);
    }

    /// Scripts that insert far more than they remove, so that long class
    /// lists and many live classes meet in one merge.
    #[test]
    fn a_deep_set_matches_a_sorted_model(
        steps in prop::collection::vec(
            (prop::sample::select(vec![0u8, 1, 2, 3, 3, 3, 3, 4, 5]), 0usize..1_000, 0u64..1_000),
            100..400,
        ),
        masks in prop::collection::vec(0u64..64, CLASSES as usize..CLASSES as usize + 1),
        idles in prop::collection::vec(1u64..64, 1..8),
    ) {
        run(true, 200, &steps, &masks, &idles);
    }

    /// `first_in_class` in both modes, over few classes so each has
    /// several members: recycled ids, growth across word boundaries after
    /// classes are stamped, nodes left at class 0, and skip lists of up to
    /// 64 nodes (members or not). Step `n` skips the first `n % 65` ids of
    /// `skips`, taken modulo the universe.
    #[test]
    fn first_in_class_matches_a_filtered_scan(
        universe in 0usize..80,
        steps in prop::collection::vec((0u8..6, 0usize..1_000, 0u64..1_000), 0..160),
        skips in prop::collection::vec(0usize..1_000, 64..65),
    ) {
        const FEW: u64 = 6;
        // Stamp classes from a small range only.
        let steps: Vec<Step> = steps
            .into_iter()
            .map(|(kind, id, value)| (kind, id, if kind == 2 { value % FEW } else { value }))
            .collect();
        for ordered in [true, false] {
            drive(ordered, universe, &steps, |set, model, n| {
                let size = model.member.len().max(1);
                let skip: Vec<NodeId> =
                    skips[..n % 65].iter().map(|&id| NodeId::new(id % size)).collect();
                check_first_in_class(set, model, FEW as u32, &skip);
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Few long class lists under head pops and rising-key inserts. A list
    /// of up to 24 short of 128 or 256 members starts near a full buffer.
    #[test]
    fn a_head_heavy_set_matches_a_sorted_model(
        classes in 1u32..5,
        full in prop::sample::select(vec![128usize, 256, 400]),
        short in 0usize..24,
        rounds in prop::collection::vec((any::<bool>(), 0u64..800, 0u32..4), 200..300),
        masks in prop::collection::vec(1u64..64, 4..5),
    ) {
        run_head_heavy(classes, full - short, &rounds, &masks);
    }
}
