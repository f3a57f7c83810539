//! Runtime storage for one GRETA graph (paper §7, Fig. 11).
//!
//! Vertices are indexed by **Time Pane** → **template state** → **run**:
//!
//! * panes are consecutive time intervals of length `gcd(within, slide)`;
//!   window boundaries align with pane boundaries, so a whole pane (and its
//!   runs) is batch-deleted once its last window closed;
//! * each pane holds one [`Run`] per template state: the state's vertices
//!   as [`Row`]s kept sorted by the attribute of that state's range-form
//!   edge predicate (falling back to event time). An edge predicate is then
//!   a contiguous row range found by two binary searches — the paper's
//!   Vertex Tree, stored as a sorted vector;
//! * the pane length divides both `slide` and `within`, so **every vertex
//!   of a pane falls into the same windows**. The pane stores their first
//!   id and their number `k` once, and a run keeps its rows' aggregates as
//!   a row-major block of `rows × k` cells ([`Cells`]): no window ids per
//!   vertex, no search per window, no allocation per cell;
//! * a vertex keeps no event. Its run holds, beside its aggregates, the
//!   event's values of the attributes the state's outgoing residual edge
//!   predicates read — the state's **projection**, fixed by the plan — as
//!   one flat block strided by the projection's width. A state no residual
//!   predicate reads from stores nothing there.
//!
//! Edges are **not** stored: each edge is traversed exactly once, when the
//! newer event's aggregate is computed (paper §7).
//!
//! Memory accounting is analytic and a function of what is held, never of
//! who else holds a value: a row is charged `size_of::<Row>()`, its
//! projected values with their string bytes, and its `k` cells with their
//! carriers' heap; a pane `size_of::<Pane>()` while it holds a row. None of
//! it changes after insert, so what a cutoff purge removes is recomputed
//! from the run, and the totals are kept per pane and per storage, so a
//! pane purge subtracts a pane in O(1).

use crate::agg::{retain_rows, Cells, TrendNum};
use crate::window::{pane_start, WindowId};
use greta_query::ast::CmpOp;
use greta_query::StateId;
use greta_types::{Time, Value};
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::ops::Range;

/// A graph vertex: one matched event at one template state. Its per-window
/// aggregates (paper §4.2 / §6) and its projected values sit at the same
/// row of its run's blocks.
#[derive(Debug)]
pub struct Row {
    /// Sort key within the run: the state's range-predicate attribute, or
    /// the event time.
    pub key: f64,
    /// Arrival sequence within the owning partition graph (selection
    /// semantics; see `Semantics`). Ties on `key` sort by it.
    pub seq: u64,
    /// The event's time.
    pub time: Time,
    /// Latest start time over all (sub-)trends ending at this vertex —
    /// propagated like an aggregate; drives Definition 5 invalidation.
    pub latest_start: Time,
}

/// The bytes a row is charged for its projected `values`: the values and
/// their string bytes.
fn values_bytes(values: &[Value]) -> usize {
    let strs = values.iter().map(|v| v.as_str().map_or(0, str::len));
    std::mem::size_of_val(values) + strs.sum::<usize>()
}

/// One state's vertices within one pane: rows ascending by
/// `(key.total_cmp, seq)`, their projected values row-major, `width` per
/// row, and their aggregates row-major, `k` cells per row.
#[derive(Debug)]
pub struct Run<N: TrendNum> {
    rows: Vec<Row>,
    values: Vec<Value>,
    cells: Cells<N>,
}

impl<N: TrendNum> Run<N> {
    /// The rows, in run order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The projected values of row `r` of a state whose projection is
    /// `width` attributes wide.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn values(&self, r: usize, width: usize) -> &[Value] {
        &self.values[r * width..(r + 1) * width]
    }

    /// The rows' cells: row `r`'s `k` cells, by ascending window, are cells
    /// `r · k ..`.
    pub fn cells(&self) -> &Cells<N> {
        &self.cells
    }

    /// The rows whose key satisfies `key ⟨op⟩ bound` under `total_cmp`;
    /// `None` is every row, and so is `Ne`, which is no contiguous range
    /// (the caller filters).
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn range(&self, range: Option<(CmpOp, f64)>) -> Range<usize> {
        let below = |b: f64| {
            self.rows
                .partition_point(|r| r.key.total_cmp(&b) == Ordering::Less)
        };
        let up_to = |b: f64| {
            self.rows
                .partition_point(|r| r.key.total_cmp(&b) != Ordering::Greater)
        };
        let len = self.rows.len();
        match range {
            None | Some((CmpOp::Ne, _)) => 0..len,
            Some((CmpOp::Lt, b)) => 0..below(b),
            Some((CmpOp::Le, b)) => 0..up_to(b),
            Some((CmpOp::Gt, b)) => up_to(b)..len,
            Some((CmpOp::Ge, b)) => below(b)..len,
            Some((CmpOp::Eq, b)) => below(b)..up_to(b),
        }
    }

    /// Insert `row` at its sorted position, with its projected `values`
    /// and its cells (drained from `cells`); returns the bytes it is
    /// charged.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn insert<'v>(
        &mut self,
        row: Row,
        values: impl ExactSizeIterator<Item = &'v Value>,
        cells: &mut Cells<N>,
    ) -> usize {
        let at = self.rows.partition_point(|r| {
            r.key.total_cmp(&row.key).then(r.seq.cmp(&row.seq)) == Ordering::Less
        });
        self.rows.insert(at, row);
        let w = values.len();
        let mut charge = std::mem::size_of::<Row>() + cells.bytes();
        if w > 0 {
            // A `Value` copies a scalar or bumps a string's `Arc`: nothing
            // allocates but the block's own growth.
            self.values.splice(at * w..at * w, values.cloned());
            charge += values_bytes(self.values(at, w));
        }
        self.cells.insert_row(at, cells);
        charge
    }

    /// Bytes charged for the run's rows (module docs).
    fn bytes(&self) -> usize {
        std::mem::size_of_val(self.rows.as_slice())
            + values_bytes(&self.values)
            + self.cells.bytes()
    }

    /// Remove the rows with time ≤ `cutoff`; returns their number and the
    /// bytes they were charged.
    fn purge_up_to(&mut self, cutoff: Time) -> (usize, usize) {
        if self.rows.iter().all(|r| r.time > cutoff) {
            return (0, 0);
        }
        let (n_rows, before) = (self.rows.len(), self.bytes());
        let rows = &self.rows;
        let keep = |r: usize| rows[r].time > cutoff;
        self.cells.retain_rows(n_rows, keep);
        retain_rows(&mut self.values, n_rows, &keep);
        self.rows.retain(|r| r.time > cutoff);
        (n_rows - self.rows.len(), before - self.bytes())
    }
}

/// One time pane: a run per template state (Fig. 11), dense by `StateId`
/// (template states are small dense ids), and the windows all its vertices
/// fall into.
#[derive(Debug)]
pub struct Pane<N: TrendNum> {
    /// Pane start time (covers `[start, start + pane_len)`).
    pub start: Time,
    /// First window of the pane's vertices.
    w_lo: WindowId,
    /// Number of windows of the pane's vertices: the cells per row of its
    /// runs. Zero when `WITHIN < SLIDE` leaves the pane between two windows.
    k: usize,
    runs: Vec<Run<N>>,
    /// Rows over all runs.
    rows: usize,
    /// Bytes charged over all rows, and for the pane itself while it
    /// holds any.
    charged: usize,
}

impl<N: TrendNum> Pane<N> {
    fn new(start: Time, w_lo: WindowId, k: usize, n_states: usize) -> Pane<N> {
        let run = || Run {
            rows: Vec::new(),
            values: Vec::new(),
            cells: Cells::default(),
        };
        Pane {
            start,
            w_lo,
            k,
            runs: (0..n_states).map(|_| run()).collect(),
            rows: 0,
            charged: 0,
        }
    }

    /// The run of `state`.
    pub fn run(&self, state: StateId) -> &Run<N> {
        &self.runs[state.0 as usize]
    }

    /// The runs with their states, ascending by state.
    pub fn runs(&self) -> impl Iterator<Item = (StateId, &Run<N>)> {
        let states = (0u16..).map(StateId);
        states.zip(&self.runs)
    }

    /// Number of windows of this pane's vertices (aggregates per row).
    pub fn k(&self) -> usize {
        self.k
    }

    /// First window of this pane's vertices.
    pub fn w_lo(&self) -> WindowId {
        self.w_lo
    }

    /// Position of window `wid` among a row's aggregates, if the pane's
    /// vertices fall into it.
    pub fn window_index(&self, wid: WindowId) -> Option<usize> {
        let i = usize::try_from(wid.checked_sub(self.w_lo)?).ok()?;
        (i < self.k).then_some(i)
    }

    /// The aggregates a row of this pane shares with a vertex of this or a
    /// later pane whose `n` windows start at `e_lo`, as positions within the
    /// row: windows only slide forward, so the shared ones are the newer
    /// vertex's **first** `min(k − (e_lo − w_lo), n)` — none when the panes
    /// have no window in common.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn shared_windows(&self, e_lo: WindowId, n: usize) -> Range<usize> {
        let off = usize::try_from(e_lo - self.w_lo).map_or(self.k, |off| off.min(self.k));
        off..off + (self.k - off).min(n)
    }
}

/// Pane-partitioned, state-indexed vertex storage for one GRETA graph.
///
/// Holds graph state only. What the query fixes — the pane length, the
/// number of template states, each state's sort attribute and projection —
/// lives in the engine's plan and is handed to the calls that need it.
#[derive(Debug, Default)]
pub struct GraphStorage<N: TrendNum> {
    panes: VecDeque<Pane<N>>,
    /// Rows over all panes.
    rows: usize,
    /// Bytes charged over all rows.
    charged: usize,
}

impl<N: TrendNum> GraphStorage<N> {
    /// Empty storage.
    pub fn new() -> Self {
        GraphStorage {
            panes: VecDeque::new(),
            rows: 0,
            charged: 0,
        }
    }

    /// Insert a vertex of `state`: `row` (its key is the state's sort key),
    /// its projected `values` (as many as the state's projection is wide)
    /// and its cells for `windows`, one each, drained from `cells`. It goes
    /// into the pane of length `pane_len` its time falls in; a new pane gets
    /// one run per template state (`n_states`) and takes its windows from
    /// this, its first, vertex.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    #[expect(
        clippy::too_many_arguments,
        reason = "what the plan fixes is handed in, not kept (type docs)"
    )]
    pub fn insert<'v>(
        &mut self,
        state: StateId,
        row: Row,
        values: impl ExactSizeIterator<Item = &'v Value>,
        cells: &mut Cells<N>,
        windows: Range<WindowId>,
        pane_len: u64,
        n_states: usize,
    ) {
        let (w_lo, k) = (windows.start, (windows.end - windows.start) as usize);
        let ps = pane_start(row.time, pane_len);
        // In-order arrival: the pane is the last one or a new last one.
        let at = match self.panes.back() {
            Some(p) if p.start == ps => self.panes.len() - 1,
            _ => {
                let at = self.panes.partition_point(|p| p.start < ps);
                if self.panes.get(at).is_none_or(|p| p.start != ps) {
                    self.panes.insert(at, Pane::new(ps, w_lo, k, n_states));
                }
                at
            }
        };
        let pane = &mut self.panes[at];
        debug_assert_eq!((pane.w_lo, pane.k), (w_lo, k));
        // A pane is charged while it holds a vertex: an emptied one stays
        // for reuse, and an import, which rebuilds panes from vertices,
        // has none.
        let pane_bytes = std::mem::size_of::<Pane<N>>();
        let opened = if pane.rows == 0 { pane_bytes } else { 0 };
        let charged = opened + pane.runs[state.0 as usize].insert(row, values, cells);
        pane.rows += 1;
        pane.charged += charged;
        self.rows += 1;
        self.charged += charged;
    }

    /// The panes holding any time in `[lo, hi)`, oldest first.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn panes_between(
        &self,
        lo: Time,
        hi: Time,
        pane_len: u64,
    ) -> impl Iterator<Item = &Pane<N>> {
        self.panes
            .iter()
            .skip_while(move |p| p.start.ticks() + pane_len <= lo.ticks())
            .take_while(move |p| p.start < hi)
    }

    /// All panes, oldest first.
    pub fn panes(&self) -> impl Iterator<Item = &Pane<N>> {
        self.panes.iter()
    }

    /// Batch-delete the oldest panes while `dead(pane start)` holds (their
    /// last window closed). Returns the number of vertices purged.
    pub fn purge_panes_while(&mut self, dead: impl Fn(Time) -> bool) -> usize {
        let mut purged = 0;
        while self.panes.front().is_some_and(|p| dead(p.start)) {
            let pane = self.panes.pop_front().expect("front pane checked above");
            purged += pane.rows;
            self.charged -= pane.charged;
        }
        self.rows -= purged;
        purged
    }

    /// Remove all vertices with event time ≤ `cutoff` (finished-trend
    /// pruning in negative graphs, Example 5 / Theorem 5.1). Returns the
    /// number purged.
    pub fn purge_vertices_up_to(&mut self, cutoff: Time) -> usize {
        let mut purged = 0;
        for pane in self.panes.iter_mut().take_while(|p| p.start <= cutoff) {
            let (mut n, mut bytes) = (0, 0);
            for run in &mut pane.runs {
                let (rn, rbytes) = run.purge_up_to(cutoff);
                n += rn;
                bytes += rbytes;
            }
            if n > 0 && n == pane.rows {
                bytes += std::mem::size_of::<Pane<N>>();
            }
            pane.rows -= n;
            pane.charged -= bytes;
            self.charged -= bytes;
            purged += n;
        }
        self.rows -= purged;
        purged
    }

    /// Number of live vertices.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no vertices are stored.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Approximate bytes of live state (rows with their aggregates, panes).
    pub fn bytes(&self) -> usize {
        self.charged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggLayout, CellsRef};
    use crate::window::windows_of;
    use greta_query::WindowSpec;
    use greta_types::{AttrId, TypeId};

    /// A row at time `t` with sort key `key`.
    fn row(t: u64, key: f64, seq: u64) -> Row {
        Row {
            key,
            seq,
            time: Time(t),
            latest_start: Time(t),
        }
    }

    /// Insert a vertex at time `t` whose one projected value is `attr` as a
    /// vertex of `state` into 5-tick panes of two states under tumbling
    /// `WITHIN 5 SLIDE 5` (one window per pane), sorted by time — or by
    /// `attr` when `by_attr` (the plan's job in the engine).
    fn ins(s: &mut GraphStorage<f64>, (t, attr): (u64, f64), state: u16, seq: u64, by_attr: bool) {
        let key = if by_attr { attr } else { t as f64 };
        let mut cells = Cells::default();
        cells.reset(1, &AggLayout::default());
        let w = t / 5;
        let values = [Value::Float(attr)];
        s.insert(
            StateId(state),
            row(t, key, seq),
            values.iter(),
            &mut cells,
            w..w + 1,
            5,
            2,
        );
        assert_eq!(cells.bytes(), 0, "the cells move into the run");
    }

    /// One cell's values, owned: its numeric slots and its extrema.
    type Cell = (Vec<f64>, Vec<f64>);

    /// A block of the given cells.
    fn block(cells: &[Cell]) -> Cells<f64> {
        let nums = cells.iter().flat_map(|c| c.0.iter().copied()).collect();
        let exts = cells.iter().flat_map(|c| c.1.iter().copied()).collect();
        Cells::from_slots(nums, exts)
    }

    /// Cell `i` of `run`, owned.
    fn cell(run: &Run<f64>, i: usize, layout: &AggLayout) -> Cell {
        let c = run.cells().slice(i..i + 1, layout);
        let nums = (0..layout.nums()).map(|j| *c.num(j)).collect();
        (nums, (0..layout.exts()).map(|j| c.ext(j)).collect())
    }

    /// The counts of row `r`'s `k` cells.
    fn counts(run: &Run<f64>, r: usize, k: usize, layout: &AggLayout) -> Vec<f64> {
        let cells = run.cells().slice(r * k..(r + 1) * k, layout);
        cells
            .cells(layout)
            .map(|c: CellsRef<'_, f64>| *c.count())
            .collect()
    }

    /// Times of the rows of `state` with time in `[lo, hi)` passing `range`.
    fn candidates(
        s: &GraphStorage<f64>,
        state: u16,
        (lo, hi): (u64, u64),
        range: Option<(CmpOp, f64)>,
    ) -> Vec<(u64, f64)> {
        let mut seen = Vec::new();
        for pane in s.panes_between(Time(lo), Time(hi), 5) {
            let run = pane.run(StateId(state));
            for r in run.range(range) {
                let row = &run.rows()[r];
                if row.time >= Time(lo) && row.time < Time(hi) {
                    seen.push((row.time.ticks(), run.values(r, 1)[0].as_f64()));
                }
            }
        }
        seen.sort_by(|x, y| x.partial_cmp(y).unwrap());
        seen
    }

    fn purge_before(s: &mut GraphStorage<f64>, deadline: u64) -> usize {
        s.purge_panes_while(|ps| ps.ticks() + 5 <= deadline)
    }

    fn times(s: &GraphStorage<f64>, state: u16) -> Vec<u64> {
        let runs = s.panes().map(|p| p.run(StateId(state)));
        let mut t: Vec<u64> = runs
            .flat_map(|r| r.rows().iter().map(|row| row.time.ticks()))
            .collect();
        t.sort_unstable();
        t
    }

    #[test]
    fn insert_and_candidates_time_bounds() {
        let mut s = GraphStorage::new();
        for t in [1, 3, 7, 12] {
            ins(&mut s, (t, 0.0), 0, t, false);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.panes().count(), 3); // panes [0,5) [5,10) [10,15)
        let seen = candidates(&s, 0, (2, 12), None);
        assert_eq!(seen, vec![(3, 0.0), (7, 0.0)], "in [2, 12)");
        // Only the panes that can hold such a time are offered.
        assert_eq!(s.panes_between(Time(5), Time(10), 5).count(), 1);
        assert_eq!(s.panes_between(Time(4), Time(11), 5).count(), 3);
        assert_eq!(s.panes_between(Time(10), Time(10), 5).count(), 0);
    }

    #[test]
    fn range_queries_on_sort_attr() {
        let mut s = GraphStorage::new();
        for (t, a) in [(1, 10.0), (2, 8.0), (3, 6.0), (4, 9.0)] {
            ins(&mut s, (t, a), 0, t, true);
        }
        let collect = |op, b| -> Vec<f64> {
            let seen = candidates(&s, 0, (0, 100), Some((op, b)));
            let mut v: Vec<f64> = seen.into_iter().map(|(_, a)| a).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        assert_eq!(collect(CmpOp::Lt, 9.0), vec![6.0, 8.0]);
        assert_eq!(collect(CmpOp::Le, 9.0), vec![6.0, 8.0, 9.0]);
        assert_eq!(collect(CmpOp::Gt, 8.0), vec![9.0, 10.0]);
        assert_eq!(collect(CmpOp::Ge, 8.0), vec![8.0, 9.0, 10.0]);
        assert_eq!(collect(CmpOp::Eq, 8.0), vec![8.0]);
        // Ne falls back to the whole run (caller filters).
        assert_eq!(collect(CmpOp::Ne, 8.0).len(), 4);
    }

    #[test]
    fn rows_and_aggregates_stay_aligned_in_run_order() {
        // Keys arrive out of order; every row's aggregates must sit at the
        // row's own position of the matrix, for k = 2.
        let mut s = GraphStorage::<f64>::new();
        let layout = AggLayout::default();
        for (seq, key) in [
            (1u64, 5.0),
            (2, 1.0),
            (3, 9.0),
            (4, 1.0),
            (5, -0.0),
            (6, 0.0),
        ] {
            let aggs = [(vec![seq as f64], vec![]), (vec![-(seq as f64)], vec![])];
            let values = [Value::Int(seq as i64), Value::from(format!("v{seq}"))];
            let (row, cells) = (row(seq, key, seq), &mut block(&aggs));
            s.insert(StateId(0), row, values.iter(), cells, 7..9, 10, 1);
        }
        let pane = s.panes().next().unwrap();
        assert_eq!((pane.w_lo(), pane.k()), (7, 2));
        let run = pane.run(StateId(0));
        let order: Vec<u64> = run.rows().iter().map(|r| r.seq).collect();
        assert_eq!(order, vec![5, 6, 2, 4, 1, 3]); // -0.0 < 0.0 < 1.0(seq 2, 4) < 5 < 9
        for (r, row) in run.rows().iter().enumerate() {
            let want = vec![row.seq as f64, -(row.seq as f64)];
            assert_eq!(counts(run, r, 2, &layout), want);
            let seq = row.seq as i64;
            let values = [Value::Int(seq), Value::from(format!("v{seq}"))];
            assert_eq!(run.values(r, 2), values);
        }
    }

    #[test]
    fn state_separation() {
        let mut s = GraphStorage::new();
        ins(&mut s, (1, 0.0), 0, 1, false);
        ins(&mut s, (2, 0.0), 1, 2, false);
        assert_eq!(candidates(&s, 0, (0, 10), None).len(), 1);
        assert_eq!(candidates(&s, 1, (0, 10), None).len(), 1);
    }

    #[test]
    fn pane_purge_batch_deletes() {
        let mut s = GraphStorage::new();
        for t in [1, 3, 7, 12] {
            ins(&mut s, (t, 0.0), 0, t, false);
        }
        let purged = purge_before(&mut s, 10); // panes [0,5) and [5,10)
        assert_eq!(purged, 3);
        assert_eq!(s.len(), 1);
        assert_eq!(times(&s, 0), vec![12]);
    }

    #[test]
    fn vertex_purge_up_to_cutoff() {
        let mut s = GraphStorage::new();
        for t in [1, 3, 7] {
            ins(&mut s, (t, 0.0), 0, t, false);
        }
        let before = s.bytes();
        let purged = s.purge_vertices_up_to(Time(3));
        assert_eq!(purged, 2);
        assert_eq!(s.len(), 1);
        assert_eq!(times(&s, 0), vec![7]);
        assert!(s.bytes() < before);
        // The surviving row kept its own aggregates.
        let pane = s.panes().nth(1).unwrap();
        let run = pane.run(StateId(0));
        assert_eq!(counts(run, 0, 1, &AggLayout::default()), vec![0.0]);
    }

    #[test]
    fn bytes_return_to_the_empty_figure_after_purging_everything() {
        let mut s = GraphStorage::new();
        assert_eq!(s.bytes(), 0);
        for t in [1, 2, 3, 8] {
            ins(&mut s, (t, 0.0), 0, t, false);
        }
        let before = s.bytes();
        purge_before(&mut s, 5);
        assert!(s.bytes() < before);
        assert!(s.bytes() > 0);
        purge_before(&mut s, 10);
        assert_eq!((s.len(), s.bytes()), (0, 0));
        // Row by row instead of pane by pane: the emptied panes stay, and
        // are charged nothing until they hold a row again.
        for t in [11, 17] {
            ins(&mut s, (t, 0.0), 1, t, false);
        }
        assert_eq!(s.purge_vertices_up_to(Time(17)), 2);
        assert_eq!((s.panes().count(), s.bytes()), (2, 0));
        ins(&mut s, (12, 0.0), 1, 18, false);
        let one = std::mem::size_of::<Row>() + std::mem::size_of::<Value>() + 8;
        assert_eq!(s.bytes(), one + std::mem::size_of::<Pane<f64>>());
    }

    #[test]
    fn window_positions_shared_with_a_newer_vertex() {
        // WITHIN 10 SLIDE 4: pane 2, a vertex falls into 2 or 3 windows.
        let w = WindowSpec::new(10, 4);
        let pane_of = |t: u64| {
            let ws = windows_of(Time(t), &w);
            Pane::<f64>::new(Time(t / 2 * 2), *ws.start(), ws.count(), 1)
        };
        for old in (0..40u64).step_by(2) {
            let pane = pane_of(old);
            assert!(pane.k() <= 3);
            for new in old..old + 14 {
                let ws = windows_of(Time(new), &w);
                let shared = pane.shared_windows(*ws.start(), ws.clone().count());
                // Position by position: the pane's window there is the
                // newer vertex's i-th, and no common window is left out.
                let pane_ws: Vec<WindowId> = windows_of(Time(old), &w).collect();
                let got: Vec<WindowId> = pane_ws[shared].to_vec();
                let want: Vec<WindowId> = ws.clone().filter(|x| pane_ws.contains(x)).collect();
                assert_eq!(got, want, "old {old} new {new}");
                assert!(ws.clone().zip(&got).all(|(a, b)| a == *b));
                for wid in 0..16 {
                    let at = pane.window_index(wid);
                    assert_eq!(at, pane_ws.iter().position(|x| *x == wid));
                }
            }
        }
    }

    #[test]
    fn a_pane_between_two_windows_holds_rows_without_aggregates() {
        // WITHIN 3 SLIDE 10: times 3..=9 of every ten fall into no window.
        let w = WindowSpec::new(3, 10);
        let mut s = GraphStorage::<f64>::new();
        for (seq, t) in [2u64, 5, 6, 11].into_iter().enumerate() {
            let ws = windows_of(Time(t), &w);
            let (w_lo, k) = (*ws.start(), ws.clone().count());
            let mut cells = Cells::default();
            cells.reset(k, &AggLayout::default());
            let (row, none) = (row(t, t as f64, seq as u64), std::iter::empty());
            s.insert(
                StateId(0),
                row,
                none,
                &mut cells,
                w_lo..w_lo + k as u64,
                1,
                1,
            );
        }
        let ks: Vec<usize> = s.panes().map(Pane::k).collect();
        assert_eq!(ks, vec![1, 0, 0, 1]);
        let gap = s.panes().nth(1).unwrap();
        assert_eq!(gap.run(StateId(0)).rows().len(), 1);
        assert!(counts(gap.run(StateId(0)), 0, 0, &AggLayout::default()).is_empty());
        assert_eq!(gap.window_index(0), None);
        assert_eq!(gap.window_index(1), None);
        // A later vertex shares nothing with it — and nothing with a pane
        // of the previous window either.
        let ws = windows_of(Time(11), &w);
        assert_eq!((*ws.start(), ws.clone().count()), (1, 1));
        assert!(gap.shared_windows(1, 1).is_empty());
        assert!(s.panes().next().unwrap().shared_windows(1, 1).is_empty());
        assert!(gap.shared_windows(1, 0).is_empty()); // from a vertex in no window
                                                      // Purging by cutoff leaves the zero-width matrix alone.
        assert_eq!(s.purge_vertices_up_to(Time(5)), 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.purge_panes_while(|_| true), 2);
        assert_eq!((s.len(), s.bytes()), (0, 0));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Range-assisted candidate visits return exactly the vertices a
            /// naive filter over all inserted vertices would — for all six
            /// operators, with duplicate keys and both zeros.
            #[test]
            fn run_range_matches_naive_filter(
                inserts in proptest::collection::vec((0u64..40, -4i32..5, any::<bool>()), 0..40),
                lo in 0u64..40,
                hi in 0u64..45,
                op_idx in 0usize..6,
                bound in -4i32..5,
                neg_zero_bound in any::<bool>(),
            ) {
                // Few distinct keys, so duplicates are the rule; an integer
                // key of 0 is stored as -0.0 or +0.0.
                let f = |a: i32, neg: bool| if a == 0 && neg { -0.0 } else { a as f64 };
                let mut sorted = inserts.clone();
                sorted.sort_by_key(|(t, _, _)| *t); // in-order arrival
                let mut st = GraphStorage::new();
                for (seq, (t, a, neg)) in sorted.iter().enumerate() {
                    ins(&mut st, (*t, f(*a, *neg)), 0, seq as u64, true);
                }
                let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];
                let (op, bound) = (ops[op_idx], f(bound, neg_zero_bound));
                let got = candidates(&st, 0, (lo, hi), Some((op, bound)));
                // Ne is answered by the whole run (the caller filters), so
                // emulate that here.
                let mut expect: Vec<(u64, f64)> = sorted
                    .iter()
                    .map(|(t, a, neg)| (*t, f(*a, *neg)))
                    .filter(|(t, a)| {
                        *t >= lo && *t < hi && (op == CmpOp::Ne || op.eval(a.total_cmp(&bound)))
                    })
                    .collect();
                expect.sort_by(|x, y| x.partial_cmp(y).unwrap());
                let bits = |v: &[(u64, f64)]| -> Vec<(u64, u64)> {
                    let mut b: Vec<(u64, u64)> = v.iter().map(|(t, a)| (*t, a.to_bits())).collect();
                    b.sort_unstable();
                    b
                };
                prop_assert_eq!(bits(&got), bits(&expect));
                // Every run stays sorted by (key, seq).
                for pane in st.panes() {
                    let rows = pane.run(StateId(0)).rows();
                    prop_assert!(rows.windows(2).all(|w| {
                        w[0].key.total_cmp(&w[1].key).then(w[0].seq.cmp(&w[1].seq)).is_lt()
                    }));
                }
            }

            /// Pane purge removes exactly the vertices strictly before the
            /// deadline pane boundary.
            #[test]
            fn pane_purge_is_exact(
                times_in in proptest::collection::vec(0u64..60, 0..40),
                deadline in 0u64..70,
            ) {
                let mut sorted = times_in.clone();
                sorted.sort_unstable();
                let mut st = GraphStorage::<f64>::new();
                for (seq, t) in sorted.iter().enumerate() {
                    ins(&mut st, (*t, 0.0), 0, seq as u64, false);
                }
                let purged = purge_before(&mut st, deadline);
                // A vertex survives iff its pane [p, p+5) ends after deadline.
                let expect: Vec<u64> = sorted
                    .iter()
                    .copied()
                    .filter(|t| (t / 5) * 5 + 5 > deadline)
                    .collect();
                prop_assert_eq!(purged, sorted.len() - expect.len());
                prop_assert_eq!(st.len(), expect.len());
                prop_assert_eq!(times(&st, 0), expect);
            }

            /// Cutoff purge removes exactly the vertices at or before the
            /// cutoff, and every survivor keeps the projected values and
            /// the cells it was inserted with — every slot kind, k ∈ 0..=3
            /// windows by pane — while the byte total stays the sum of the
            /// survivors' charges and the panes that hold any, and returns
            /// to zero once all are gone.
            #[test]
            fn purged_runs_keep_every_cell_and_charge(
                times_in in proptest::collection::vec((0u64..30, -5i32..5), 0..30),
                ks in proptest::collection::vec(0usize..=3, 6..7),
                cutoff in 0u64..32,
            ) {
                use greta_query::compile::{AggKind, CompiledAgg};
                let (t, a) = (TypeId(0), AttrId(0));
                let kinds = [
                    AggKind::Count(t),
                    AggKind::Min(t, a),
                    AggKind::Max(t, a),
                    AggKind::Sum(t, a),
                    AggKind::Count(TypeId(1)),
                ];
                let aggs: Vec<CompiledAgg> = kinds
                    .into_iter()
                    .map(|kind| CompiledAgg { label: String::new(), kind })
                    .collect();
                let layout = AggLayout::new(&aggs);
                let mut sorted = times_in.clone();
                sorted.sort_by_key(|(t, _)| *t);
                let mut st = GraphStorage::<f64>::new();
                let mut inserted = Vec::new();
                for (seq, (t, a)) in sorted.iter().enumerate() {
                    // k windows by pane; the cells name their row and window.
                    let k = ks[(t / 5) as usize];
                    // count, COUNT(E) ×2, SUM; MIN, MAX.
                    let states: Vec<Cell> = (0..k)
                        .map(|w| {
                            let v = (seq * 4 + w) as f64 + 1.0;
                            (vec![v, v + 0.25, v + 0.25, v * 3.0], vec![-v, v + 0.5])
                        })
                        .collect();
                    // A string as long as the row's seq, and a scalar.
                    let name = "s".repeat(seq);
                    let values = vec![Value::from(name.as_str()), Value::Float(*a as f64)];
                    let charge = std::mem::size_of::<Row>()
                        + 2 * std::mem::size_of::<Value>()
                        + seq
                        + k * (layout.nums() + layout.exts()) * 8;
                    let row = row(*t, *a as f64, seq as u64);
                    let (cells, w) = (&mut block(&states), t / 5);
                    st.insert(StateId(0), row, values.iter(), cells, w..w + k as u64, 5, 1);
                    inserted.push((*t, states, values, charge));
                }
                let purged = st.purge_vertices_up_to(Time(cutoff));
                let survivors: Vec<_> = inserted.iter().filter(|v| v.0 > cutoff).collect();
                prop_assert_eq!(purged, sorted.len() - survivors.len());
                let want: Vec<u64> = survivors.iter().map(|v| v.0).collect();
                prop_assert_eq!(times(&st, 0), want);
                for pane in st.panes() {
                    let (run, k) = (pane.run(StateId(0)), pane.k());
                    for (r, row) in run.rows().iter().enumerate() {
                        let got: Vec<Cell> =
                            (r * k..(r + 1) * k).map(|i| cell(run, i, &layout)).collect();
                        let (_, cells, values, _) = &inserted[row.seq as usize];
                        prop_assert_eq!(&got, cells);
                        prop_assert_eq!(run.values(r, 2), values.as_slice());
                    }
                }
                let held = st.panes().filter(|p| !p.run(StateId(0)).rows().is_empty());
                let panes = held.count() * std::mem::size_of::<Pane<f64>>();
                let charged: usize = survivors.iter().map(|v| v.3).sum();
                prop_assert_eq!(st.bytes(), charged + panes);
                st.purge_vertices_up_to(Time(40));
                prop_assert_eq!(st.bytes(), 0);
            }
        }
    }

    #[test]
    fn a_rows_charge_is_its_own_data_however_shared() {
        // Two vertices projecting one long string: whether the string is
        // one `Arc` both hold or two copies, each row is charged its bytes
        // in full — the figure depends on the rows, never on who else
        // holds a value. A purge gives back exactly what insert charged.
        let long = "X".repeat(4096);
        let shared = Value::from(long.as_str());
        let charge = |copies: [Value; 2]| {
            let mut s = GraphStorage::<f64>::new();
            for (seq, v) in copies.iter().enumerate() {
                let mut cells = Cells::default();
                cells.reset(1, &AggLayout::default());
                let row = row(1, 1.0, seq as u64);
                s.insert(StateId(0), row, std::iter::once(v), &mut cells, 0..1, 5, 1);
            }
            let bytes = s.bytes();
            assert_eq!(s.purge_vertices_up_to(Time(1)), 2);
            assert_eq!((s.len(), s.bytes()), (0, 0));
            bytes
        };
        let one_arc = charge([shared.clone(), shared]);
        let two_copies = charge([Value::from(long.as_str()), Value::from(long.as_str())]);
        assert_eq!(one_arc, two_copies);
        let row = std::mem::size_of::<Row>() + std::mem::size_of::<Value>() + 4096 + 8;
        assert_eq!(one_arc, 2 * row + std::mem::size_of::<Pane<f64>>());
    }
}
