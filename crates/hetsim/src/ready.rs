//! The ready set `I`: an index-backed bitset, with per-class sorted lists
//! for open streams.
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
//! explicit per-node admission *sequence* and iterates by it regardless of
//! slot ids — the exact iteration the closed engine would have produced if
//! the whole stream had been materialized up front (this is what makes the
//! open/closed differential test byte-identical).
//!
//! Next to the bitset, ordered mode keeps the members in one sorted list
//! per cost class (below), each entry a [`ReadyEntry`] with its sort keys
//! and class inline, plus a bitset of the classes that have members.
//! Membership stays O(1). Each class list is a sorted buffer whose members
//! are `buf[head..]`, one contiguous slice, with a gap of stale entries in
//! front. Removing a list's head advances `head` and moves nothing: that is
//! EDF's pop of the earliest deadline. Any other removal binary-searches the
//! list and shifts the entries behind its place, as a plain `Vec` would. An
//! insert binary-searches its place and moves the entries on its nearer
//! side: in the front half, the ones before it shift into the gap when the
//! gap has a slot; otherwise the ones behind it shift toward the end. A
//! ready successor of an early job carries an early deadline, so many
//! inserts land in the front half. An insert into a full buffer that has a
//! gap closes the gap (moving every entry once) before it would grow, so a
//! buffer's capacity never passes what a plain `Vec` of the same peak
//! length would hold.
//! [`ReadySet::iter`] merges the heads of the live class lists, one
//! comparison per live class per member; a single live class is read in
//! place.
//!
//! ## Priority ordering (deadline-aware streams)
//!
//! Ordered mode additionally carries an optional per-node *priority*
//! ([`ReadySet::set_prio`], default 0): members iterate ascending by
//! `(priority, sequence)`. With priorities left untouched this is exactly
//! the FCFS order above; the deadline-aware open engine sets each slot's
//! priority to its job's absolute deadline in nanoseconds, which turns
//! `iter()` into earliest-deadline-first with FCFS tie-breaking — the EDF
//! ready mode `apt-slo` builds on. Members with equal `(priority,
//! sequence)`, which the open engine never produces since it numbers every
//! slot it admits, go by ascending node id.
//!
//! ## Cost classes
//!
//! Each node also carries its [`ClassId`] ([`ReadySet::set_class`], stamped
//! by both engines from the cost model). Both modes index the members by
//! class: ordered mode through its class lists, bitset mode through one
//! member bitset per class, laid out class-major next to the plain bitset.
//! [`ReadySet::first_in_class`] reads one class's index only, so a policy
//! that ranks kernels by class (SPN's shortest pair) probes the few classes
//! it needs instead of walking every member.
//!
//! A policy that screens kernels on a per-class table of processor masks
//! (APT's admissible processors, MET's fastest ones) walks the set with
//! [`ReadySet::walk_screened`]: it visits, in set order, only the members
//! whose class mask meets an idle set that the caller shrinks as it
//! assigns. In ordered mode that walk merges only the heads of the classes
//! some idle processor can take, and drops a class as soon as the idle set
//! stops meeting its mask, so a decision costs what it could assign rather
//! than what is queued. In bitset mode it is the linear walk over the plain
//! bitset plus one mask test per member. A policy that sorts the screened
//! members by a key of its own reads them class by class, with no merge,
//! through [`ReadySet::for_each_screened`].

use crate::cost::ClassId;
use apt_dfg::NodeId;

/// A member with its place in its set's order: members iterate ascending
/// by `(prio, seq, node)`, which is this type's `Ord` (`class` never
/// decides, since members are distinct nodes). In ordered mode `prio` and
/// `seq` are the values given to [`ReadySet::set_prio`] and
/// [`ReadySet::set_seq`]; a bitset-mode set reports priority 0 and the
/// node id as the sequence, which is that mode's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReadyEntry {
    /// The priority (0 unless set): sorts first.
    pub prio: u64,
    /// The admission sequence: orders equal priorities.
    pub seq: u64,
    /// The member itself: orders equal `(prio, seq)`.
    pub node: NodeId,
    /// The member's cost class.
    pub class: ClassId,
}

/// The entry of member `i` of `class` in a bitset-mode set: priority 0,
/// and the node id as the sequence.
#[inline]
fn bitset_entry(i: usize, class: ClassId) -> ReadyEntry {
    ReadyEntry {
        prio: 0,
        seq: i as u64,
        node: NodeId::new(i),
        class,
    }
}

/// One class's members, sorted ascending, with a gap at the front: the
/// members are `buf[head..]`, and `buf[..head]` holds stale entries that an
/// insert may overwrite (module docs).
#[derive(Debug, Clone, Default)]
struct ClassList {
    buf: Vec<ReadyEntry>,
    head: usize,
}

impl ClassList {
    /// The members, ascending.
    #[inline]
    fn live(&self) -> &[ReadyEntry] {
        &self.buf[self.head..]
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// Insert `entry`, moving the members on the nearer side of its place:
    /// the front ones into the gap when it has a slot, or the back ones
    /// toward the end. A full buffer closes its gap before it grows.
    #[inline]
    fn insert(&mut self, entry: ReadyEntry) {
        let (head, len) = (self.head, self.buf.len() - self.head);
        let pos = self.live().partition_point(|e| *e < entry);
        let at = head + pos;
        if head > 0 && pos < len - pos {
            self.buf.copy_within(head..at, head - 1);
            self.buf[at - 1] = entry;
            self.head -= 1;
        } else if head > 0 && self.buf.len() == self.buf.capacity() {
            self.buf.copy_within(head..at, 0);
            self.buf.copy_within(at.., pos + 1);
            self.buf[pos] = entry;
            self.buf.truncate(len + 1);
            self.head = 0;
        } else {
            self.buf.insert(at, entry);
        }
    }

    /// Remove `entry`, a member: the head leaves by advancing `head`, any
    /// other member by shifting the ones behind it.
    #[inline]
    fn remove(&mut self, entry: ReadyEntry) {
        let live = self.live();
        if live.first() == Some(&entry) {
            self.head += 1;
        } else {
            let pos = live
                .binary_search(&entry)
                .expect("bitset and class lists agree");
            self.buf.remove(self.head + pos);
        }
    }
}

/// Index of the ordered mode: per-node `(priority, sequence)` sort keys plus
/// the ready members, one sorted list per cost class. Priorities default to
/// 0, making the order pure FCFS (ascending admission sequence).
#[derive(Debug, Clone)]
struct OrderedIndex {
    /// Admission sequence per node id (universe-sized).
    seq: Vec<u64>,
    /// Priority per node id (universe-sized; 0 unless set). Sorts *before*
    /// the sequence, so equal-priority members keep FCFS order.
    prio: Vec<u64>,
    /// `lists[c]`: the members of class `c`.
    lists: Vec<ClassList>,
    /// Bit `c` set ⇔ `lists[c]` is not empty.
    live: Vec<u64>,
}

impl OrderedIndex {
    /// The entry of one node of `class`.
    #[inline]
    fn entry(&self, node: NodeId, class: ClassId) -> ReadyEntry {
        ReadyEntry {
            prio: self.prio[node.index()],
            seq: self.seq[node.index()],
            node,
            class,
        }
    }

    #[inline]
    fn insert(&mut self, node: NodeId, class: ClassId) {
        let entry = self.entry(node, class);
        let c = class as usize;
        if c >= self.lists.len() {
            self.lists.resize_with(c + 1, ClassList::default);
            self.live.resize(self.lists.len().div_ceil(64), 0);
        }
        self.lists[c].insert(entry);
        self.live[c / 64] |= 1 << (c % 64);
    }

    #[inline]
    fn remove(&mut self, node: NodeId, class: ClassId) {
        let entry = self.entry(node, class);
        let c = class as usize;
        let list = &mut self.lists[c];
        list.remove(entry);
        if list.is_empty() {
            self.live[c / 64] &= !(1 << (c % 64));
        }
    }

    /// The live classes, ascending.
    #[inline]
    fn live_classes(&self) -> Bits<'_> {
        Bits::new(&self.live)
    }
}

/// A fixed-universe set of node ids with deterministic iteration order:
/// ascending node id by default, ascending admission sequence in ordered
/// mode (see the module docs).
#[derive(Debug, Clone)]
pub struct ReadySet {
    words: Vec<u64>,
    len: usize,
    /// Cost class per node id (universe-sized; 0 unless set).
    class: Vec<ClassId>,
    /// Bitset mode's members by class, class-major: words
    /// `c * words.len()..(c + 1) * words.len()` hold class `c`'s members.
    /// Covers class 0 (every node's class until stamped), the classes laid
    /// out by [`ReadySet::with_classes`] and every class stamped so far;
    /// empty in ordered mode, whose class lists answer the same questions.
    by_class: Vec<u64>,
    order: Option<OrderedIndex>,
}

impl ReadySet {
    /// An empty set over the universe `0..universe` node ids, iterating in
    /// ascending node-id order.
    pub fn new(universe: usize) -> ReadySet {
        ReadySet::with_classes(universe, 1)
    }

    /// [`ReadySet::new`] with the class-major bitsets laid out for classes
    /// `0..classes` up front, so stamping those classes never widens them.
    pub(crate) fn with_classes(universe: usize, classes: usize) -> ReadySet {
        let words = universe.div_ceil(64);
        ReadySet {
            words: vec![0; words],
            len: 0,
            class: vec![0; universe],
            by_class: vec![0; classes.max(1) * words],
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
            by_class: Vec::new(),
            order: Some(OrderedIndex {
                seq: vec![0; universe],
                prio: vec![0; universe],
                lists: Vec::new(),
                live: Vec::new(),
            }),
        }
    }

    /// Widen the universe to `0..universe` (no-op if already that wide).
    /// Existing members, sequences and classes are unchanged.
    pub fn grow(&mut self, universe: usize) {
        let words = universe.div_ceil(64);
        let stride = self.words.len();
        if words > stride {
            self.words.resize(words, 0);
            if self.order.is_none() {
                // Re-lay the class-major bitsets at the wider stride; an
                // empty universe had no words, but class 0 is covered.
                let classes = match stride {
                    0 => 1,
                    _ => self.by_class.len() / stride,
                };
                let mut wider = vec![0; classes * words];
                if stride > 0 {
                    for (to, from) in wider.chunks_mut(words).zip(self.by_class.chunks(stride)) {
                        to[..stride].copy_from_slice(from);
                    }
                }
                self.by_class = wider;
            }
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
    /// [`ReadySet::walk_screened`]. Must not be called while `node` is a
    /// member.
    pub fn set_class(&mut self, node: NodeId, class: ClassId) {
        debug_assert!(!self.contains(node), "reclassing a current member");
        self.class[node.index()] = class;
        let need = (class as usize + 1) * self.words.len();
        if self.order.is_none() && self.by_class.len() < need {
            self.by_class.resize(need, 0);
        }
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
        let class = self.class[i];
        match &mut self.order {
            Some(order) => order.insert(node, class),
            None => self.by_class[class as usize * self.words.len() + i / 64] |= bit,
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
        let class = self.class[i];
        match &mut self.order {
            Some(order) => order.remove(node, class),
            None => self.by_class[class as usize * self.words.len() + i / 64] &= !bit,
        }
        true
    }

    /// The first ready node in iteration order (the FCFS head), if any. In
    /// ordered mode, the least of the live class lists' heads.
    #[inline]
    pub fn first(&self) -> Option<NodeId> {
        match &self.order {
            None => self.iter().next(),
            Some(o) => o
                .live_classes()
                .map(|c| o.lists[c].live()[0])
                .min()
                .map(|e| e.node),
        }
    }

    /// The first member of `class` in this set's order that is not in
    /// `skip`, with its place in that order. Bitset mode reads the class's
    /// own member bits, ordered mode the class's list; neither looks at
    /// another class.
    #[inline]
    pub fn first_in_class(&self, class: ClassId, skip: &[NodeId]) -> Option<ReadyEntry> {
        let c = class as usize;
        match &self.order {
            None => {
                let stride = self.words.len();
                let members = self.by_class.get(c * stride..(c + 1) * stride)?;
                Bits::new(members)
                    .find(|&i| !skip.contains(&NodeId::new(i)))
                    .map(|i| bitset_entry(i, class))
            }
            Some(o) => o
                .lists
                .get(c)?
                .live()
                .iter()
                .find(|e| !skip.contains(&e.node))
                .copied(),
        }
    }

    /// Iterate members in this set's deterministic order (ascending node id,
    /// or ascending `(priority, sequence)` in ordered mode).
    #[inline]
    pub fn iter(&self) -> ReadyIter<'_> {
        ReadyIter(Members::new(self))
    }

    /// Walk, in this set's order, the members whose class mask meets an
    /// idle set the caller shrinks as it goes (module docs). `masks[c]` is
    /// the processor mask of class `c` and must cover every member's class;
    /// `idle` is the idle set at the start. `visit(entry, idle)` gets each
    /// member whose `masks[entry.class]` meets the current `idle`, with its
    /// place in the set's order, and returns the idle set after it, which
    /// must be a subset of `idle`. The walk ends when the set is exhausted
    /// or the idle set is empty.
    #[inline]
    pub fn walk_screened(
        &self,
        masks: &[u64],
        mut idle: u64,
        mut visit: impl FnMut(ReadyEntry, u64) -> u64,
    ) {
        let Some(order) = &self.order else {
            // Bitset mode: the linear walk plus one mask test per member.
            for i in Bits::new(&self.words) {
                if idle == 0 {
                    return;
                }
                let class = self.class[i];
                if masks[class as usize] & idle != 0 {
                    idle = visit(bitset_entry(i, class), idle);
                }
            }
            return;
        };
        let admits = |c: usize, idle: u64| masks[c] & idle != 0;
        let mut admissible = order.live_classes().filter(|&c| admits(c, idle));
        let Some(first) = admissible.next() else {
            return;
        };
        let Some(second) = admissible.next() else {
            // One admissible class: its list in place, no merge.
            for &e in order.lists[first].live() {
                if !admits(first, idle) {
                    return;
                }
                idle = visit(e, idle);
            }
            return;
        };
        let mut inline: [&[ReadyEntry]; INLINE_HEADS] = [&[]; INLINE_HEADS];
        let mut spill = Vec::new();
        let heads: &mut [&[ReadyEntry]] = if order.lists.len() <= INLINE_HEADS {
            &mut inline
        } else {
            spill.resize(order.lists.len(), &[][..]);
            &mut spill
        };
        let mut n = 0;
        for c in [first, second].into_iter().chain(admissible) {
            heads[n] = order.lists[c].live();
            n += 1;
        }
        let mut screened_for = idle;
        while idle != 0 {
            if idle != screened_for {
                // The idle set shrank: drop the classes it no longer meets.
                let mut i = 0;
                while i < n {
                    if admits(heads[i][0].class as usize, idle) {
                        i += 1;
                    } else {
                        n -= 1;
                        heads.swap(i, n);
                    }
                }
                screened_for = idle;
            }
            let Some(e) = pop_least(heads, &mut n) else {
                return;
            };
            idle = visit(e, idle);
        }
    }

    /// Call `f(entry)` for every member whose class mask meets `idle`
    /// (`masks` as for [`ReadySet::walk_screened`]), in no particular order:
    /// class list by class list in ordered mode, skipping whole classes
    /// whose mask misses `idle`, and by node id in bitset mode. Sorting the
    /// visits by [`ReadyEntry`] gives the set's order, so a policy that
    /// sorts by its own key first and by the entry second keeps the set's
    /// order among equal keys without paying for a merge.
    pub fn for_each_screened(&self, masks: &[u64], idle: u64, mut f: impl FnMut(ReadyEntry)) {
        match &self.order {
            None => {
                for i in Bits::new(&self.words) {
                    let class = self.class[i];
                    if masks[class as usize] & idle != 0 {
                        f(bitset_entry(i, class));
                    }
                }
            }
            Some(o) => {
                for c in o.live_classes() {
                    if masks[c] & idle != 0 {
                        o.lists[c].live().iter().copied().for_each(&mut f);
                    }
                }
            }
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

/// The set bits of a word slice, ascending: node ids in bitset mode, live
/// classes in ordered mode.
#[derive(Debug, Clone)]
struct Bits<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl<'a> Bits<'a> {
    #[inline]
    fn new(words: &'a [u64]) -> Bits<'a> {
        Bits {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for Bits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * 64 + bit)
    }
}

/// Up to how many cost classes [`ReadySet::walk_screened`] keeps its merge
/// on the stack: more than the paper's lookup table has rows, so a
/// paper-machine decision never allocates.
const INLINE_HEADS: usize = 32;

/// Take the least head among the first `n` unread, non-empty list rests,
/// advancing its list. A list read to its end is swapped out of the first
/// `n`; their order does not matter to the scan.
#[inline]
fn pop_least(heads: &mut [&[ReadyEntry]], n: &mut usize) -> Option<ReadyEntry> {
    let heads = &mut heads[..*n];
    let mut b = 0;
    let mut least = heads.first()?[0];
    for (i, rest) in heads.iter().enumerate().skip(1) {
        if rest[0] < least {
            least = rest[0];
            b = i;
        }
    }
    if heads[b].len() == 1 {
        *n -= 1;
        heads.swap(b, *n);
    } else {
        heads[b] = &heads[b][1..];
    }
    Some(least)
}

/// A walk over a set's members in its order, in either mode. Ordered mode
/// merges the live class lists, reading a single one in place.
#[derive(Debug, Clone)]
enum Members<'a> {
    Bits(Bits<'a>),
    /// At most one list (an empty rest is the end).
    One(&'a [ReadyEntry]),
    /// Several lists: the first `.1` rests of `.0`.
    Merge(Vec<&'a [ReadyEntry]>, usize),
}

impl<'a> Members<'a> {
    fn new(set: &'a ReadySet) -> Members<'a> {
        let Some(order) = &set.order else {
            return Members::Bits(Bits::new(&set.words));
        };
        let mut lists = order.live_classes().map(|c| order.lists[c].live());
        match (lists.next(), lists.next()) {
            (None, _) => Members::One(&[]),
            (Some(only), None) => Members::One(only),
            (Some(a), Some(b)) => {
                let heads: Vec<_> = [a, b].into_iter().chain(lists).collect();
                let n = heads.len();
                Members::Merge(heads, n)
            }
        }
    }
}

/// Iterator over a [`ReadySet`] in its deterministic order.
#[derive(Debug, Clone)]
pub struct ReadyIter<'a>(Members<'a>);

impl Iterator for ReadyIter<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        let e = match &mut self.0 {
            Members::Bits(bits) => return bits.next().map(NodeId::new),
            Members::One(rest) => {
                let (first, tail) = rest.split_first()?;
                *rest = tail;
                *first
            }
            Members::Merge(heads, n) => pop_least(heads, n)?,
        };
        Some(e.node)
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

    /// An unscreened `walk_screened` yields exactly `iter()`'s order, each
    /// node next to the class stamped on it, through inserts, middle
    /// removals, recycled slots restamped with another class, and `grow` —
    /// in both modes.
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
            let mut walked = Vec::new();
            s.walk_screened(&[!0; 8], !0, |e, idle| {
                walked.push((e.node, e.class));
                idle
            });
            assert_eq!(walked, expected);
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

    /// A class list under EDF's steady churn, a head pop and a tail insert
    /// per round, never holds more capacity than a `Vec` grown to the same
    /// peak length, whichever of the two comes first in a round.
    #[test]
    fn a_class_list_stays_within_a_vec_of_its_peak_length() {
        fn vec_capacity(len: usize) -> usize {
            let mut v = Vec::new();
            for i in 0..len {
                v.push(bitset_entry(i, 0));
            }
            v.capacity()
        }
        for steady in [1usize, 3, 4, 5, 31, 59, 60, 63, 64, 100] {
            for pop_first in [true, false] {
                let bound = vec_capacity(if pop_first { steady } else { steady + 1 });
                let mut s = ReadySet::new_ordered(steady + 1);
                let mut next_seq = 0;
                let mut add = |s: &mut ReadySet, node: NodeId| {
                    s.set_seq(node, next_seq);
                    next_seq += 1;
                    assert!(s.insert(node));
                };
                for i in 0..steady {
                    add(&mut s, NodeId::new(i));
                }
                let mut free = NodeId::new(steady);
                for round in 0..10_000 {
                    let head = s.first().expect("the list holds `steady` members");
                    if pop_first {
                        assert!(s.remove(head));
                        add(&mut s, head);
                    } else {
                        add(&mut s, free);
                        assert!(s.remove(head));
                        free = head;
                    }
                    assert_eq!(s.len(), steady);
                    let list = &s.order.as_ref().unwrap().lists[0];
                    assert!(
                        list.buf.capacity() <= bound,
                        "length {steady}, round {round}: capacity {} over {bound}",
                        list.buf.capacity(),
                    );
                    assert!(list.live().is_sorted());
                }
            }
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
