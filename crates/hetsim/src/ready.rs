//! The ready set `I`, as an index-backed bitset.
//!
//! The seed engine kept `I` as a sorted `Vec<NodeId>`, paying an O(n)
//! memmove on every assignment (`Vec::remove`) and readiness event
//! (`Vec::insert`), plus an O(log n) binary search to validate membership.
//! This bitset keeps the exact same deterministic iteration order (ascending
//! node id — the FCFS order every dynamic policy's documentation appeals to)
//! while making insert / remove / membership O(1) and iteration O(n/64)
//! words: on the paper's 157-kernel graphs the whole set is three machine
//! words.
//!
//! ## Ordered mode (open streams)
//!
//! In the closed-world engine, node ids are assigned in stream order, so
//! ascending-id iteration *is* first-come-first-serve. The open-stream
//! engine recycles arena slots, which breaks that identity: a later job can
//! occupy a lower slot id. [`ReadySet::new_ordered`] therefore attaches an
//! explicit per-node admission *sequence* and keeps a small sorted-by-seq
//! index next to the bitset, so `iter()` yields FCFS order regardless of
//! slot ids — the exact iteration the closed engine would have produced if
//! the whole stream had been materialized up front (this is what makes the
//! open/closed differential test byte-identical). Membership stays O(1);
//! insert/remove pay an O(ready) memmove, which is fine because an open
//! stream's ready set holds only in-flight kernels, not the whole workload.
//!
//! ## Priority ordering (deadline-aware streams)
//!
//! Ordered mode additionally carries an optional per-node *priority*
//! ([`ReadySet::set_prio`], default 0): members iterate ascending by
//! `(priority, sequence)`. With priorities left untouched this is exactly
//! the FCFS order above; the deadline-aware open engine sets each slot's
//! priority to its job's absolute deadline in nanoseconds, which turns
//! `iter()` into earliest-deadline-first with FCFS tie-breaking — the EDF
//! ready mode `apt-slo` builds on.
//!
//! ## Cost classes
//!
//! Each node also carries its [`ClassId`] ([`ReadySet::set_class`], stamped
//! by both engines from the cost model), and [`ReadySet::iter_classes`]
//! yields `(node, class)` pairs in the set's order. In ordered mode the
//! index stores each sorted member next to its class, so that walk is one
//! linear slice read: a policy that screens kernels on a per-class table
//! (APT's admissible-processor masks) never touches the cost model for a
//! kernel it skips.

use crate::cost::ClassId;
use apt_dfg::NodeId;

/// Index of the ordered mode: per-node `(priority, sequence)` sort keys plus
/// the ready members sorted by key. Priorities default to 0, making the
/// order pure FCFS (ascending admission sequence).
#[derive(Debug, Clone, PartialEq, Eq)]
struct OrderedIndex {
    /// Admission sequence per node id (universe-sized).
    seq: Vec<u64>,
    /// Priority per node id (universe-sized; 0 unless set). Sorts *before*
    /// the sequence, so equal-priority members keep FCFS order.
    prio: Vec<u64>,
    /// Current members with their classes, sorted ascending by
    /// `(prio[node], seq[node])`.
    items: Vec<(NodeId, ClassId)>,
}

impl OrderedIndex {
    /// The sort key of one node.
    #[inline]
    fn key(&self, node: NodeId) -> (u64, u64) {
        (self.prio[node.index()], self.seq[node.index()])
    }
}

/// A fixed-universe set of node ids with deterministic iteration order:
/// ascending node id by default, ascending admission sequence in ordered
/// mode (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadySet {
    words: Vec<u64>,
    len: usize,
    /// Cost class per node id (universe-sized; 0 unless set).
    class: Vec<ClassId>,
    order: Option<OrderedIndex>,
}

impl ReadySet {
    /// An empty set over the universe `0..universe` node ids, iterating in
    /// ascending node-id order.
    pub fn new(universe: usize) -> ReadySet {
        ReadySet {
            words: vec![0; universe.div_ceil(64)],
            len: 0,
            class: vec![0; universe],
            order: None,
        }
    }

    /// An empty set over `0..universe` that iterates in ascending
    /// *admission-sequence* order. Set each node's sequence with
    /// [`ReadySet::set_seq`] before inserting it.
    pub fn new_ordered(universe: usize) -> ReadySet {
        ReadySet {
            words: vec![0; universe.div_ceil(64)],
            len: 0,
            class: vec![0; universe],
            order: Some(OrderedIndex {
                seq: vec![0; universe],
                prio: vec![0; universe],
                items: Vec::new(),
            }),
        }
    }

    /// Widen the universe to `0..universe` (no-op if already that wide).
    /// Existing members, sequences and classes are unchanged.
    pub fn grow(&mut self, universe: usize) {
        let words = universe.div_ceil(64);
        if words > self.words.len() {
            self.words.resize(words, 0);
        }
        if universe > self.class.len() {
            self.class.resize(universe, 0);
        }
        if let Some(order) = &mut self.order {
            if universe > order.seq.len() {
                order.seq.resize(universe, 0);
                order.prio.resize(universe, 0);
            }
        }
    }

    /// Set the admission sequence of `node` (ordered mode only; panics
    /// otherwise). Must not be called while `node` is a member.
    pub fn set_seq(&mut self, node: NodeId, seq: u64) {
        debug_assert!(!self.contains(node), "reseq of a current member");
        let order = self
            .order
            .as_mut()
            .expect("set_seq requires an ordered ReadySet");
        order.seq[node.index()] = seq;
    }

    /// Set the priority of `node` (ordered mode only; panics otherwise).
    /// Iteration ascends by `(priority, sequence)`, so priority 0 for every
    /// node — the default — is plain FCFS. Must not be called while `node`
    /// is a member.
    pub fn set_prio(&mut self, node: NodeId, prio: u64) {
        debug_assert!(!self.contains(node), "reprioritization of a current member");
        let order = self
            .order
            .as_mut()
            .expect("set_prio requires an ordered ReadySet");
        order.prio[node.index()] = prio;
    }

    /// Set the cost class of `node` (both modes), reported next to it by
    /// [`ReadySet::iter_classes`]. Must not be called while `node` is a
    /// member.
    pub fn set_class(&mut self, node: NodeId, class: ClassId) {
        debug_assert!(!self.contains(node), "reclassing a current member");
        self.class[node.index()] = class;
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no node is ready.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// O(1) membership test. Out-of-universe ids are never members.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        let i = node.index();
        match self.words.get(i / 64) {
            Some(w) => (w >> (i % 64)) & 1 == 1,
            None => false,
        }
    }

    /// Insert a node; returns `false` if it was already present.
    /// Panics when `node` is outside the universe.
    #[inline]
    pub fn insert(&mut self, node: NodeId) -> bool {
        let i = node.index();
        let word = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.len += 1;
        if let Some(order) = &mut self.order {
            let key = order.key(node);
            let pos = order.items.partition_point(|&(n, _)| order.key(n) < key);
            order.items.insert(pos, (node, self.class[i]));
        }
        true
    }

    /// Remove a node; returns `false` if it was not present.
    #[inline]
    pub fn remove(&mut self, node: NodeId) -> bool {
        let i = node.index();
        let Some(word) = self.words.get_mut(i / 64) else {
            return false;
        };
        let bit = 1u64 << (i % 64);
        if *word & bit == 0 {
            return false;
        }
        *word &= !bit;
        self.len -= 1;
        if let Some(order) = &mut self.order {
            let key = order.key(node);
            let start = order.items.partition_point(|&(n, _)| order.key(n) < key);
            let off = order.items[start..]
                .iter()
                .position(|&(n, _)| n == node)
                .expect("bitset and ordered index agree");
            order.items.remove(start + off);
        }
        true
    }

    /// The first ready node in iteration order (the FCFS head), if any.
    #[inline]
    pub fn first(&self) -> Option<NodeId> {
        self.iter().next()
    }

    /// Iterate members in this set's deterministic order (ascending node id,
    /// or ascending admission sequence in ordered mode).
    #[inline]
    pub fn iter(&self) -> ReadyIter<'_> {
        ReadyIter {
            seq: self.order.as_ref().map(|o| o.items.iter()),
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterate `(node, class)` pairs in the same order as
    /// [`ReadySet::iter`]. In ordered mode this walks the sorted
    /// `(member, class)` array; in bitset mode it reads each member's class
    /// by node id.
    #[inline]
    pub fn iter_classes(&self) -> ClassIter<'_> {
        match &self.order {
            Some(o) => ClassIter::Ordered(o.items.iter()),
            None => ClassIter::Bits {
                nodes: self.iter(),
                class: &self.class,
            },
        }
    }
}

impl<'a> IntoIterator for &'a ReadySet {
    type Item = NodeId;
    type IntoIter = ReadyIter<'a>;
    fn into_iter(self) -> ReadyIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`ReadySet`] in its deterministic order.
#[derive(Debug, Clone)]
pub struct ReadyIter<'a> {
    /// `Some` in ordered mode: the FCFS slice walk.
    seq: Option<std::slice::Iter<'a, (NodeId, ClassId)>>,
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for ReadyIter<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if let Some(items) = &mut self.seq {
            return items.next().map(|&(n, _)| n);
        }
        while self.current == 0 {
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(NodeId::new(self.word_idx * 64 + bit))
    }
}

/// Iterator over a [`ReadySet`]'s `(node, class)` pairs in its
/// deterministic order ([`ReadySet::iter_classes`]). The variants are
/// public so that a hot loop can match once and run on the concrete
/// iterator of the set's mode instead of re-dispatching per member.
#[derive(Debug, Clone)]
pub enum ClassIter<'a> {
    /// Ordered mode: the sorted members with their classes.
    Ordered(std::slice::Iter<'a, (NodeId, ClassId)>),
    /// Bitset mode: ascending node ids, each class read by id.
    Bits {
        /// The plain member walk.
        nodes: ReadyIter<'a>,
        /// The set's per-node classes.
        class: &'a [ClassId],
    },
}

impl Iterator for ClassIter<'_> {
    type Item = (NodeId, ClassId);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, ClassId)> {
        match self {
            ClassIter::Ordered(it) => it.next().copied(),
            ClassIter::Bits { nodes, class } => nodes.next().map(|n| (n, class[n.index()])),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = ReadySet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(NodeId::new(3)));
        assert!(s.insert(NodeId::new(128)));
        assert!(!s.insert(NodeId::new(3)), "double insert reports false");
        assert_eq!(s.len(), 2);
        assert!(s.contains(NodeId::new(3)));
        assert!(!s.contains(NodeId::new(4)));
        assert!(s.remove(NodeId::new(3)));
        assert!(!s.remove(NodeId::new(3)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.first(), Some(NodeId::new(128)));
    }

    #[test]
    fn iteration_is_ascending() {
        let mut s = ReadySet::new(200);
        for i in [150usize, 0, 63, 64, 7, 199] {
            s.insert(NodeId::new(i));
        }
        let order: Vec<usize> = s.iter().map(|n| n.index()).collect();
        assert_eq!(order, vec![0, 7, 63, 64, 150, 199]);
    }

    #[test]
    fn ordered_mode_iterates_by_sequence_not_id() {
        let mut s = ReadySet::new_ordered(8);
        // Slot ids are recycled out of order; sequences carry FCFS.
        for (id, seq) in [(5usize, 10u64), (1, 30), (7, 20), (0, 40)] {
            s.set_seq(NodeId::new(id), seq);
            s.insert(NodeId::new(id));
        }
        let order: Vec<usize> = s.iter().map(|n| n.index()).collect();
        assert_eq!(order, vec![5, 7, 1, 0]);
        assert_eq!(s.first(), Some(NodeId::new(5)));
        // Remove from the middle; order of the rest is stable.
        assert!(s.remove(NodeId::new(7)));
        let order: Vec<usize> = s.iter().map(|n| n.index()).collect();
        assert_eq!(order, vec![5, 1, 0]);
        assert!(s.contains(NodeId::new(1)));
        assert!(!s.contains(NodeId::new(7)));
        // Recycle slot 7 under a later sequence.
        s.set_seq(NodeId::new(7), 99);
        s.insert(NodeId::new(7));
        assert_eq!(s.iter().last(), Some(NodeId::new(7)));
    }

    #[test]
    fn priority_orders_before_sequence() {
        let mut s = ReadySet::new_ordered(8);
        // Three members with priorities (deadlines) out of seq order; two
        // share a priority and must keep FCFS between them.
        for (id, seq, prio) in [
            (2usize, 10u64, 500u64),
            (4, 20, 100),
            (6, 30, 500),
            (1, 40, 0),
        ] {
            s.set_seq(NodeId::new(id), seq);
            s.set_prio(NodeId::new(id), prio);
            s.insert(NodeId::new(id));
        }
        let order: Vec<usize> = s.iter().map(|n| n.index()).collect();
        assert_eq!(order, vec![1, 4, 2, 6]);
        assert_eq!(s.first(), Some(NodeId::new(1)));
        // Removal from the middle of a priority class keeps the rest sorted.
        assert!(s.remove(NodeId::new(2)));
        let order: Vec<usize> = s.iter().map(|n| n.index()).collect();
        assert_eq!(order, vec![1, 4, 6]);
        // Recycling a slot under a new priority re-sorts it.
        s.set_seq(NodeId::new(2), 50);
        s.set_prio(NodeId::new(2), 50);
        s.insert(NodeId::new(2));
        let order: Vec<usize> = s.iter().map(|n| n.index()).collect();
        assert_eq!(order, vec![1, 2, 4, 6]);
    }

    #[test]
    fn default_priority_is_pure_fcfs() {
        // Untouched priorities (all 0) reproduce the admission-seq order
        // exactly — the invariant the open/closed equivalence rests on.
        let mut a = ReadySet::new_ordered(8);
        let mut b = ReadySet::new_ordered(8);
        for (id, seq) in [(5usize, 10u64), (1, 30), (7, 20), (0, 40)] {
            a.set_seq(NodeId::new(id), seq);
            a.insert(NodeId::new(id));
            b.set_seq(NodeId::new(id), seq);
            b.set_prio(NodeId::new(id), 0);
            b.insert(NodeId::new(id));
        }
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
    }

    #[test]
    fn grow_widens_both_modes() {
        let mut s = ReadySet::new(10);
        s.insert(NodeId::new(9));
        s.grow(300);
        s.insert(NodeId::new(299));
        assert_eq!(s.len(), 2);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![NodeId::new(9), NodeId::new(299)]
        );

        let mut o = ReadySet::new_ordered(2);
        o.set_seq(NodeId::new(1), 5);
        o.insert(NodeId::new(1));
        o.grow(70);
        o.set_seq(NodeId::new(69), 1);
        o.insert(NodeId::new(69));
        assert_eq!(
            o.iter().collect::<Vec<_>>(),
            vec![NodeId::new(69), NodeId::new(1)]
        );
    }

    /// `iter_classes` yields exactly `iter()`'s order, each node next to
    /// the class stamped on it, through inserts, middle removals, recycled
    /// slots restamped with another class, and `grow` — in both modes.
    #[test]
    fn classes_stay_aligned_in_both_modes() {
        /// Stamp `class` (recorded in `stamped`) and insert `id`.
        fn add(s: &mut ReadySet, stamped: &mut [ClassId], id: usize, prio: u64, class: ClassId) {
            let node = NodeId::new(id);
            stamped[id] = class;
            s.set_class(node, class);
            if s.order.is_some() {
                s.set_seq(node, 100 + id as u64);
                s.set_prio(node, prio);
            }
            s.insert(node);
        }
        fn check(s: &ReadySet, stamped: &[ClassId]) {
            let expected: Vec<(NodeId, ClassId)> =
                s.iter().map(|n| (n, stamped[n.index()])).collect();
            assert_eq!(s.iter_classes().collect::<Vec<_>>(), expected);
            assert_eq!(expected.len(), s.len());
        }
        for mut s in [ReadySet::new(4), ReadySet::new_ordered(4)] {
            let mut stamped = vec![0; 80];
            add(&mut s, &mut stamped, 3, 5, 1);
            add(&mut s, &mut stamped, 0, 1, 2);
            add(&mut s, &mut stamped, 2, 5, 3);
            check(&s, &stamped);
            assert!(s.remove(NodeId::new(0)));
            check(&s, &stamped);
            s.grow(80);
            add(&mut s, &mut stamped, 70, 0, 4);
            add(&mut s, &mut stamped, 0, 5, 7); // recycled under a new class
            check(&s, &stamped);
            assert!(s.remove(NodeId::new(3)));
            assert!(s.remove(NodeId::new(70)));
            add(&mut s, &mut stamped, 65, 2, 1);
            check(&s, &stamped);
        }
    }

    #[test]
    fn out_of_universe_queries_are_safe() {
        let s = ReadySet::new(10);
        assert!(!s.contains(NodeId::new(500)));
        let mut s = s;
        assert!(!s.remove(NodeId::new(500)));
    }

    #[test]
    fn empty_universe() {
        let s = ReadySet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.first(), None);
    }
}
