//! Runtime storage for one GRETA graph (paper §7, Fig. 11).
//!
//! Vertices live in a slab ([`VertexStore`]). For predecessor lookup they
//! are indexed by **Time Pane** → **template state** → **Vertex Tree**:
//!
//! * panes are consecutive time intervals of length `gcd(within, slide)`;
//!   window boundaries align with pane boundaries, so a whole pane (and its
//!   trees) is batch-deleted once its last window closed;
//! * each pane holds one ordered tree per template state, sorted by the
//!   attribute of that state's range-form edge predicate (falling back to
//!   event time), so edge predicates are answered with range queries.
//!
//! Edges are **not** stored: each edge is traversed exactly once, when the
//! newer event's aggregate is computed (paper §7).

use crate::agg::{AggState, TrendNum};
use crate::window::{pane_start, WindowId};
use greta_query::ast::CmpOp;
use greta_query::StateId;
use greta_types::{shared_heap_size, EventRef, Time};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound;

/// Slab index of a vertex.
pub type VertexId = u32;

/// Totally ordered f64 key for the vertex trees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(pub f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A graph vertex: one matched event at one template state, carrying one
/// aggregate per window it falls into (paper §4.2 / §6).
#[derive(Debug, Clone)]
pub struct Vertex<N: TrendNum> {
    /// The matched event, shared with the ingest path and every other
    /// vertex instantiated from it (zero-copy event plane).
    pub event: EventRef,
    /// Template state this vertex instantiates.
    pub state: StateId,
    /// Arrival sequence within the owning partition graph (selection
    /// semantics; see `Semantics`).
    pub seq: u64,
    /// Latest start time over all (sub-)trends ending at this vertex —
    /// propagated like an aggregate; drives Definition 5 invalidation.
    pub latest_start: Time,
    /// Per-window aggregates, sorted by window id.
    pub aggs: Vec<(WindowId, AggState<N>)>,
}

impl<N: TrendNum> Vertex<N> {
    /// Aggregate for a window, if the vertex falls into it.
    pub fn agg(&self, wid: WindowId) -> Option<&AggState<N>> {
        self.aggs
            .binary_search_by_key(&wid, |(w, _)| *w)
            .ok()
            .map(|i| &self.aggs[i].1)
    }

    /// Approximate heap bytes of this vertex. The shared event payload is
    /// amortized over its current holders ([`shared_heap_size`]), so an
    /// event referenced by many vertices/shards is counted once overall —
    /// not once per reference.
    pub fn heap_size(&self) -> usize {
        std::mem::size_of::<Self>()
            + shared_heap_size(&self.event)
            + self
                .aggs
                .iter()
                .map(|(_, a)| std::mem::size_of::<(WindowId, AggState<N>)>() + a.heap_size())
                .sum::<usize>()
    }
}

/// Slab of vertices with free-list reuse and running byte accounting.
///
/// The byte charge of a vertex is recorded at insert time: with shared
/// `EventRef` payloads, [`Vertex::heap_size`] depends on the Arc strong
/// count at the moment of the call, so subtracting a *recomputed* size at
/// removal could drift (or underflow) as sharing changes. Each slot
/// remembers exactly what it charged.
#[derive(Debug, Default)]
pub struct VertexStore<N: TrendNum> {
    slots: Vec<Option<(Vertex<N>, usize)>>,
    free: Vec<VertexId>,
    live: usize,
    bytes: usize,
}

impl<N: TrendNum> VertexStore<N> {
    /// Empty store.
    pub fn new() -> Self {
        VertexStore {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            bytes: 0,
        }
    }

    /// Insert a vertex, returning its id.
    pub fn insert(&mut self, v: Vertex<N>) -> VertexId {
        let charged = v.heap_size();
        self.bytes += charged;
        self.live += 1;
        match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = Some((v, charged));
                id
            }
            None => {
                self.slots.push(Some((v, charged)));
                (self.slots.len() - 1) as VertexId
            }
        }
    }

    /// Shared access.
    pub fn get(&self, id: VertexId) -> &Vertex<N> {
        &self.slots[id as usize].as_ref().expect("live vertex").0
    }

    /// Remove a vertex (pane purge / trend pruning).
    pub fn remove(&mut self, id: VertexId) {
        if let Some((_, charged)) = self.slots[id as usize].take() {
            self.bytes = self.bytes.saturating_sub(charged);
            self.live -= 1;
            self.free.push(id);
        }
    }

    /// Number of live vertices.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Running byte estimate of live vertices.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

/// Ordered index of one state's vertices within one pane.
#[derive(Debug, Default)]
struct StateTree {
    tree: BTreeMap<(OrdF64, u64), VertexId>,
}

/// Per-entry overhead estimate for memory accounting (key + value + BTree
/// node amortization).
pub const TREE_ENTRY_BYTES: usize = 48;

impl StateTree {
    fn insert(&mut self, key: f64, seq: u64, id: VertexId) {
        self.tree.insert((OrdF64(key), seq), id);
    }

    fn remove(&mut self, key: f64, seq: u64) {
        self.tree.remove(&(OrdF64(key), seq));
    }

    /// Visit ids whose key satisfies `key ⟨op⟩ bound`; `None` visits all.
    fn visit(&self, range: Option<(CmpOp, f64)>, f: &mut impl FnMut(VertexId)) {
        use Bound::*;
        type Key = (OrdF64, u64);
        let full = (
            (OrdF64(f64::NEG_INFINITY), 0),
            (OrdF64(f64::INFINITY), u64::MAX),
        );
        let (lo, hi): (Bound<Key>, Bound<Key>) = match range {
            None => (Included(full.0), Included(full.1)),
            Some((op, b)) => match op {
                CmpOp::Lt => (Included(full.0), Excluded((OrdF64(b), 0))),
                CmpOp::Le => (Included(full.0), Included((OrdF64(b), u64::MAX))),
                CmpOp::Gt => (Excluded((OrdF64(b), u64::MAX)), Included(full.1)),
                CmpOp::Ge => (Included((OrdF64(b), 0)), Included(full.1)),
                CmpOp::Eq => (Included((OrdF64(b), 0)), Included((OrdF64(b), u64::MAX))),
                // Ne cannot be a contiguous range: visit all, caller filters.
                CmpOp::Ne => (Included(full.0), Included(full.1)),
            },
        };
        for (_, id) in self.tree.range((lo, hi)) {
            f(*id);
        }
    }
}

/// One time pane: state-indexed vertex trees (Fig. 11). Trees are a dense
/// vector indexed by `StateId` (template states are small dense ids), so
/// the per-event lookup is an array index, not a hash.
#[derive(Debug)]
pub struct Pane {
    /// Pane start time (covers `[start, start + pane_len)`).
    pub start: Time,
    trees: Vec<StateTree>,
    entries: usize,
}

impl Pane {
    fn new(start: Time, n_states: usize) -> Pane {
        Pane {
            start,
            trees: (0..n_states).map(|_| StateTree::default()).collect(),
            entries: 0,
        }
    }

    /// Ids stored in this pane (all states).
    pub fn all_ids(&self) -> Vec<VertexId> {
        let mut v: Vec<VertexId> = self
            .trees
            .iter()
            .flat_map(|t| t.tree.values().copied())
            .collect();
        v.sort_unstable();
        v
    }
}

/// Pane-partitioned, state-indexed vertex storage for one GRETA graph.
///
/// Holds graph state only. What the query fixes — the pane length, the
/// number of template states and each state's sort attribute — lives in
/// the engine's plan and is handed to the calls that need it.
#[derive(Debug, Default)]
pub struct GraphStorage<N: TrendNum> {
    /// Vertex slab.
    pub store: VertexStore<N>,
    panes: VecDeque<Pane>,
}

impl<N: TrendNum> GraphStorage<N> {
    /// Empty storage.
    pub fn new() -> Self {
        GraphStorage {
            store: VertexStore::new(),
            panes: VecDeque::new(),
        }
    }

    /// Insert a vertex under `key`, its state's sort key (the attribute of
    /// that state's range-form edge predicate, else the event time), into
    /// the pane of length `pane_len` its time falls in; a new pane gets one
    /// tree per template state (`n_states`). Returns the vertex id.
    pub fn insert(&mut self, v: Vertex<N>, key: f64, pane_len: u64, n_states: usize) -> VertexId {
        let t = v.event.time;
        let state = v.state.0 as usize;
        let seq = v.seq;
        let id = self.store.insert(v);
        let ps = pane_start(t, pane_len);
        // In-order arrival: the pane is the last one or a new one.
        if self.panes.back().is_none_or(|p| p.start < ps) {
            self.panes.push_back(Pane::new(ps, n_states));
        }
        let pane = self
            .panes
            .iter_mut()
            .rev()
            .find(|p| p.start <= t && t.ticks() < p.start.ticks() + pane_len)
            .expect("pane exists for in-order insert");
        pane.trees[state].insert(key, seq, id);
        pane.entries += 1;
        id
    }

    /// Visit candidate predecessors of `state` with event time in
    /// `[lo, hi)`, optionally restricted by a range predicate on the
    /// state's sort attribute.
    pub fn visit_candidates(
        &self,
        state: StateId,
        lo: Time,
        hi: Time,
        pane_len: u64,
        range: Option<(CmpOp, f64)>,
        mut f: impl FnMut(VertexId, &Vertex<N>),
    ) {
        for pane in &self.panes {
            if pane.start >= hi {
                break;
            }
            // Skip panes entirely before lo (latest pane time = start+len-1).
            if pane.start.ticks() + pane_len <= lo.ticks() {
                continue;
            }
            if let Some(tree) = pane.trees.get(state.0 as usize) {
                tree.visit(range, &mut |id| {
                    let v = self.store.get(id);
                    if v.event.time >= lo && v.event.time < hi {
                        f(id, v);
                    }
                });
            }
        }
    }

    /// Visit **all** vertices of a state (deferred final aggregation).
    pub fn visit_state(&self, state: StateId, mut f: impl FnMut(VertexId, &Vertex<N>)) {
        for pane in &self.panes {
            if let Some(tree) = pane.trees.get(state.0 as usize) {
                tree.visit(None, &mut |id| f(id, self.store.get(id)));
            }
        }
    }

    /// Batch-delete the oldest panes while `dead(pane start)` holds (their
    /// last window closed). Returns the number of vertices purged.
    pub fn purge_panes_while(&mut self, dead: impl Fn(Time) -> bool) -> usize {
        let mut purged = 0;
        while self.panes.front().is_some_and(|p| dead(p.start)) {
            let pane = self.panes.pop_front().expect("front pane checked above");
            for id in pane.all_ids() {
                self.store.remove(id);
                purged += 1;
            }
        }
        purged
    }

    /// Remove all vertices with event time ≤ `cutoff` (finished-trend
    /// pruning in negative graphs, Example 5 / Theorem 5.1). Returns the
    /// number purged.
    pub fn purge_vertices_up_to(&mut self, cutoff: Time) -> usize {
        let mut purged = 0;
        for pane in &mut self.panes {
            if pane.start > cutoff {
                break;
            }
            for tree in pane.trees.iter_mut() {
                let doomed: Vec<((OrdF64, u64), VertexId)> = tree
                    .tree
                    .iter()
                    .filter(|(_, id)| self.store.get(**id).event.time <= cutoff)
                    .map(|(k, id)| (*k, *id))
                    .collect();
                for (k, id) in doomed {
                    tree.remove(k.0 .0, k.1);
                    self.store.remove(id);
                    pane.entries -= 1;
                    purged += 1;
                }
            }
        }
        purged
    }

    /// Number of live vertices.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when no vertices are stored.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Approximate bytes of live state (vertices + index entries).
    pub fn bytes(&self) -> usize {
        let entries: usize = self.panes.iter().map(|p| p.entries).sum();
        self.store.bytes()
            + entries * TREE_ENTRY_BYTES
            + std::mem::size_of::<Pane>() * self.panes.len()
    }

    /// Pane iterator (tests / diagnostics).
    pub fn panes(&self) -> impl Iterator<Item = &Pane> {
        self.panes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggLayout;
    use greta_types::{AttrId, Event, TypeId, Value};

    fn vertex(t: u64, attr: f64, state: u16, seq: u64) -> Vertex<f64> {
        let layout = AggLayout::default();
        Vertex {
            event: Event::new_unchecked(TypeId(0), Time(t), vec![Value::Float(attr)]).into_ref(),
            state: StateId(state),
            seq,
            latest_start: Time(t),
            aggs: vec![(0, AggState::zero(&layout))],
        }
    }

    /// Insert into 5-tick panes of two states, sorted by event time — or
    /// by attribute 0 when `by_attr` (the plan's job in the engine).
    fn ins(s: &mut GraphStorage<f64>, v: Vertex<f64>, by_attr: bool) {
        let key = if by_attr {
            v.event.attr(AttrId(0)).as_f64()
        } else {
            v.event.time.ticks() as f64
        };
        s.insert(v, key, 5, 2);
    }

    fn purge_before(s: &mut GraphStorage<f64>, deadline: u64) -> usize {
        s.purge_panes_while(|ps| ps.ticks() + 5 <= deadline)
    }

    #[test]
    fn insert_and_candidates_time_bounds() {
        let mut s = GraphStorage::new();
        for t in [1, 3, 7, 12] {
            ins(&mut s, vertex(t, 0.0, 0, t), false);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.panes().count(), 3); // panes [0,5) [5,10) [10,15)
        let mut seen = Vec::new();
        s.visit_candidates(StateId(0), Time(2), Time(12), 5, None, |_, v| {
            seen.push(v.event.time.ticks())
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![3, 7]); // in [2, 12)
    }

    #[test]
    fn range_queries_on_sort_attr() {
        let mut s = GraphStorage::new();
        for (t, a) in [(1, 10.0), (2, 8.0), (3, 6.0), (4, 9.0)] {
            ins(&mut s, vertex(t, a, 0, t), true);
        }
        let collect = |op, b| {
            let mut v = Vec::new();
            s.visit_candidates(StateId(0), Time(0), Time(100), 5, Some((op, b)), |_, x| {
                v.push(x.event.attr(AttrId(0)).as_f64())
            });
            v.sort_by(f64::total_cmp);
            v
        };
        assert_eq!(collect(CmpOp::Lt, 9.0), vec![6.0, 8.0]);
        assert_eq!(collect(CmpOp::Le, 9.0), vec![6.0, 8.0, 9.0]);
        assert_eq!(collect(CmpOp::Gt, 8.0), vec![9.0, 10.0]);
        assert_eq!(collect(CmpOp::Ge, 8.0), vec![8.0, 9.0, 10.0]);
        assert_eq!(collect(CmpOp::Eq, 8.0), vec![8.0]);
        // Ne falls back to full scan (caller filters).
        assert_eq!(collect(CmpOp::Ne, 8.0).len(), 4);
    }

    #[test]
    fn state_separation() {
        let mut s = GraphStorage::new();
        ins(&mut s, vertex(1, 0.0, 0, 1), false);
        ins(&mut s, vertex(2, 0.0, 1, 2), false);
        let mut n0 = 0;
        s.visit_candidates(StateId(0), Time(0), Time(10), 5, None, |_, _| n0 += 1);
        let mut n1 = 0;
        s.visit_candidates(StateId(1), Time(0), Time(10), 5, None, |_, _| n1 += 1);
        assert_eq!((n0, n1), (1, 1));
    }

    #[test]
    fn pane_purge_batch_deletes() {
        let mut s = GraphStorage::new();
        for t in [1, 3, 7, 12] {
            ins(&mut s, vertex(t, 0.0, 0, t), false);
        }
        let purged = purge_before(&mut s, 10); // panes [0,5) and [5,10)
        assert_eq!(purged, 3);
        assert_eq!(s.len(), 1);
        let mut seen = Vec::new();
        s.visit_state(StateId(0), |_, v| seen.push(v.event.time.ticks()));
        assert_eq!(seen, vec![12]);
    }

    #[test]
    fn vertex_purge_up_to_cutoff() {
        let mut s = GraphStorage::new();
        for t in [1, 3, 7] {
            ins(&mut s, vertex(t, 0.0, 0, t), false);
        }
        let purged = s.purge_vertices_up_to(Time(3));
        assert_eq!(purged, 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn bytes_accounting_shrinks_on_purge() {
        let mut s = GraphStorage::new();
        for t in [1, 2, 3, 8] {
            ins(&mut s, vertex(t, 0.0, 0, t), false);
        }
        let before = s.bytes();
        purge_before(&mut s, 5);
        assert!(s.bytes() < before);
    }

    #[test]
    fn vertex_agg_lookup() {
        let layout = AggLayout::default();
        let mut v = vertex(1, 0.0, 0, 1);
        v.aggs = vec![(2, AggState::zero(&layout)), (5, AggState::zero(&layout))];
        assert!(v.agg(2).is_some());
        assert!(v.agg(5).is_some());
        assert!(v.agg(3).is_none());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Range-assisted candidate visits return exactly the vertices a
            /// naive filter over all inserted vertices would.
            #[test]
            fn visit_candidates_matches_naive_filter(
                inserts in proptest::collection::vec((0u64..40, -10i32..10), 0..40),
                lo in 0u64..40,
                hi in 0u64..45,
                op_idx in 0usize..6,
                bound in -10i32..10,
            ) {
                let mut sorted = inserts.clone();
                sorted.sort_by_key(|(t, _)| *t); // in-order arrival
                let mut st = GraphStorage::new();
                for (seq, (t, a)) in sorted.iter().enumerate() {
                    ins(&mut st, vertex(*t, *a as f64, 0, seq as u64), true);
                }
                let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];
                let op = ops[op_idx];
                let mut got: Vec<(u64, f64)> = Vec::new();
                st.visit_candidates(StateId(0), Time(lo), Time(hi), 5, Some((op, bound as f64)), |_, v| {
                    got.push((v.event.time.ticks(), v.event.attr(AttrId(0)).as_f64()));
                });
                // Ne is answered by a full visit (the caller filters), so
                // emulate that here.
                let mut expect: Vec<(u64, f64)> = sorted
                    .iter()
                    .filter(|(t, a)| {
                        *t >= lo && *t < hi && (op == CmpOp::Ne || op.eval((*a as f64).total_cmp(&(bound as f64))))
                    })
                    .map(|(t, a)| (*t, *a as f64))
                    .collect();
                got.sort_by(|x, y| x.partial_cmp(y).unwrap());
                expect.sort_by(|x, y| x.partial_cmp(y).unwrap());
                prop_assert_eq!(got, expect);
            }

            /// Pane purge removes exactly the vertices strictly before the
            /// deadline pane boundary.
            #[test]
            fn pane_purge_is_exact(
                times in proptest::collection::vec(0u64..60, 0..40),
                deadline in 0u64..70,
            ) {
                let mut sorted = times.clone();
                sorted.sort_unstable();
                let mut st = GraphStorage::<f64>::new();
                for (seq, t) in sorted.iter().enumerate() {
                    ins(&mut st, vertex(*t, 0.0, 0, seq as u64), false);
                }
                purge_before(&mut st, deadline);
                let mut remaining = Vec::new();
                st.visit_state(StateId(0), |_, v| remaining.push(v.event.time.ticks()));
                remaining.sort_unstable();
                // A vertex survives iff its pane [p, p+5) ends after deadline.
                let mut expect: Vec<u64> = sorted
                    .iter()
                    .copied()
                    .filter(|t| (t / 5) * 5 + 5 > deadline)
                    .collect();
                expect.sort_unstable();
                prop_assert_eq!(remaining, expect);
            }
        }
    }

    #[test]
    fn shared_event_bytes_counted_once_not_per_vertex() {
        // Two vertices holding the SAME EventRef must together charge the
        // event payload about once; two vertices over deep copies charge it
        // twice. Use a long string payload so the difference dominates.
        let layout = AggLayout::default();
        let long = "X".repeat(4096);
        let mk = |e: &EventRef, seq: u64| Vertex::<f64> {
            event: e.clone(),
            state: StateId(0),
            seq,
            latest_start: Time(1),
            aggs: vec![(0, AggState::zero(&layout))],
        };
        let shared =
            Event::new_unchecked(TypeId(0), Time(1), vec![Value::from(long.clone())]).into_ref();
        let mut with_sharing = VertexStore::<f64>::new();
        // Hold both vertices' refs before charging so the amortized charge
        // sees the final strong count.
        let (v1, v2) = (mk(&shared, 1), mk(&shared, 2));
        with_sharing.insert(v1);
        with_sharing.insert(v2);

        let mut without_sharing = VertexStore::<f64>::new();
        for seq in [1, 2] {
            let copy = Event::new_unchecked(TypeId(0), Time(1), vec![Value::from(long.clone())])
                .into_ref();
            without_sharing.insert(mk(&copy, seq));
        }
        assert!(
            with_sharing.bytes() < without_sharing.bytes() * 3 / 4,
            "shared: {}, deep-copied: {}",
            with_sharing.bytes(),
            without_sharing.bytes()
        );
        // Removal subtracts the recorded charge exactly: no drift/underflow
        // even though the strong count changed since insertion.
        drop(shared);
        with_sharing.remove(0);
        with_sharing.remove(1);
        assert_eq!(with_sharing.bytes(), 0);
        assert_eq!(with_sharing.len(), 0);
    }

    #[test]
    fn store_reuses_slots() {
        let mut st = VertexStore::<f64>::new();
        let a = st.insert(vertex(1, 0.0, 0, 1));
        st.remove(a);
        let b = st.insert(vertex(2, 0.0, 0, 2));
        assert_eq!(a, b);
        assert_eq!(st.len(), 1);
    }
}
