//! Incremental aggregation calculus (paper Theorem 4.3 and Theorem 9.1).
//!
//! Every vertex carries, per sliding window, an aggregate *cell*: the
//! aggregate of all (sub-)trends that start at a START event and end at this
//! vertex. When a new event is inserted, its cells are the *merge* of its
//! predecessors' cells plus its own contribution — each edge is traversed
//! exactly once, which is what makes GRETA quadratic instead of exponential.
//!
//! Every aggregate the engine holds is a cell of a flat [`Cells`] block
//! strided by the query's [`AggLayout`]: per cell `count`, `counts_e` and
//! `sums` in a block of `N`, `mins` and `maxs` in a block of `f64`. A run
//! keeps its rows' cells in one, the DP loop its accumulators, a window its
//! finals per group (the Results Hash Table of Fig. 11). Every numeric slot
//! merges by addition, so merging a predecessor's cells is one element-wise
//! add plus an extrema fold. One codec writes and reads a cell, checking
//! its slot counts against the layout, and rendering reads a final cell at
//! offsets the layout resolved once per `RETURN` aggregate.
//!
//! `COUNT`/`SUM` values grow like 2ⁿ under skip-till-any-match, so the
//! numeric carrier is pluggable via [`TrendNum`]: `u64` (saturating),
//! `f64` (exact below 2⁵³, then approximate), or [`greta_bignum::BigUint`]
//! (always exact).

use greta_bignum::BigUint;
use greta_query::compile::{AggKind, CompiledAgg};
use greta_types::codec::{put_u32, put_u64, Reader};
use greta_types::{AttrId, CodecError, Event, TypeId};
use std::ops::Range;

/// Numeric carrier for trend counts and sums.
pub trait TrendNum: Clone + Default + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity (one trend).
    fn one() -> Self;
    /// True iff zero.
    fn is_zero(&self) -> bool;
    /// `self += other`.
    fn add_assign(&mut self, other: &Self);
    /// `attr · count` — the per-event contribution to `SUM(E.attr)`
    /// (Theorem 9.1: `e.sum = e.attr * e.count + Σ p.sum`).
    fn scale_by_attr(count: &Self, attr: f64) -> Self;
    /// Lossy conversion for reporting and AVG.
    fn to_f64(&self) -> f64;
    /// Exact decimal rendering.
    fn display(&self) -> String;
    /// Heap bytes beyond `size_of::<Self>()` (memory accounting).
    fn heap_size(&self) -> usize {
        0
    }
    /// Append the binary encoding (durability snapshots).
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode a value written by [`encode`](Self::encode).
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>
    where
        Self: Sized;
}

impl TrendNum for u64 {
    fn zero() -> Self {
        0
    }
    fn one() -> Self {
        1
    }
    fn is_zero(&self) -> bool {
        *self == 0
    }
    fn add_assign(&mut self, other: &Self) {
        *self = self.saturating_add(*other);
    }
    fn scale_by_attr(count: &Self, attr: f64) -> Self {
        let a = attr.max(0.0).round() as u64;
        count.saturating_mul(a)
    }
    fn to_f64(&self) -> f64 {
        *self as f64
    }
    fn display(&self) -> String {
        self.to_string()
    }
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u64()
    }
}

impl TrendNum for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn is_zero(&self) -> bool {
        *self == 0.0
    }
    fn add_assign(&mut self, other: &Self) {
        *self += *other;
    }
    fn scale_by_attr(count: &Self, attr: f64) -> Self {
        count * attr
    }
    fn to_f64(&self) -> f64 {
        *self
    }
    fn display(&self) -> String {
        if self.fract() == 0.0 && self.abs() < 1e15 {
            format!("{}", *self as i64)
        } else {
            format!("{self}")
        }
    }
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.to_bits());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(r.u64()?))
    }
}

impl TrendNum for BigUint {
    fn zero() -> Self {
        BigUint::zero()
    }
    fn one() -> Self {
        BigUint::one()
    }
    fn is_zero(&self) -> bool {
        BigUint::is_zero(self)
    }
    fn add_assign(&mut self, other: &Self) {
        self.add_assign_ref(other);
    }
    fn scale_by_attr(count: &Self, attr: f64) -> Self {
        // Exact SUM over BigUint requires non-negative integral attributes.
        let mut c = count.clone();
        c.mul_u64(attr.max(0.0).round() as u64);
        c
    }
    fn to_f64(&self) -> f64 {
        BigUint::to_f64(self)
    }
    fn display(&self) -> String {
        self.to_string()
    }
    fn heap_size(&self) -> usize {
        BigUint::heap_size(self)
    }
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.limb_count() as u32);
        for &l in self.limbs() {
            put_u64(out, l);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.seq_len(8)?;
        let mut limbs = Vec::with_capacity(n);
        for _ in 0..n {
            limbs.push(r.u64()?);
        }
        Ok(BigUint::from_limbs(limbs))
    }
}

/// Dense per-event-type accessor of an [`AggLayout`]: the slots (and
/// attribute indexes) an event of one type contributes to, as positions in
/// a cell, resolved once at plan time so an event's own contribution
/// indexes straight into a cell instead of scanning every target per event.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct TypeAggOps {
    /// Numeric slots after `count`: `COUNT(E)` ones (`None`: add the count)
    /// and `SUM(E.attr)` ones (add the count times the attribute).
    nums: Vec<(usize, Option<AttrId>)>,
    /// Extrema slots: a `MIN` below the layout's number of mins, else a
    /// `MAX`.
    exts: Vec<(usize, AttrId)>,
}

/// Where one `RETURN` aggregate reads its value in a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Read {
    /// A numeric slot as it is: `COUNT(*)` (slot 0), `COUNT(E)`, `SUM`.
    Num(usize),
    /// An extrema slot: `MIN`, `MAX`.
    Ext(usize),
    /// `AVG`: a `SUM` slot over a `COUNT(E)` slot, both numeric.
    Avg {
        /// The `SUM(E.attr)` slot.
        sum: usize,
        /// The `COUNT(E)` slot.
        count: usize,
    },
}

/// Physical layout of an aggregate cell, derived from the query's aggregates.
/// Distinct targets are deduplicated: `AVG(E.a)` shares the `COUNT(E)` and
/// `SUM(E.a)` slots with any other aggregate needing them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AggLayout {
    /// `COUNT(E)` slots (also AVG denominators).
    pub count_targets: Vec<TypeId>,
    /// `MIN(E.attr)` slots.
    pub min_targets: Vec<(TypeId, AttrId)>,
    /// `MAX(E.attr)` slots.
    pub max_targets: Vec<(TypeId, AttrId)>,
    /// `SUM(E.attr)` slots (also AVG numerators).
    pub sum_targets: Vec<(TypeId, AttrId)>,
    /// Per-type slot table, indexed by `TypeId` (compiled accessor).
    ops: Vec<TypeAggOps>,
    /// Per `RETURN` aggregate, in order, where it reads a cell.
    pub(crate) reads: Vec<Read>,
}

impl AggLayout {
    /// Build the layout for a list of compiled aggregates.
    pub fn new(aggs: &[CompiledAgg]) -> AggLayout {
        let mut l = AggLayout::default();
        // The targets first, each aggregate's slots as positions in their
        // lists ...
        let at: Vec<(usize, usize)> = aggs
            .iter()
            .map(|a| match a.kind {
                AggKind::CountStar => (0, 0),
                AggKind::Count(t) => (push_unique(&mut l.count_targets, t), 0),
                AggKind::Min(t, a) => (push_unique(&mut l.min_targets, (t, a)), 0),
                AggKind::Max(t, a) => (push_unique(&mut l.max_targets, (t, a)), 0),
                AggKind::Sum(t, a) => (push_unique(&mut l.sum_targets, (t, a)), 0),
                AggKind::Avg(t, a) => (
                    push_unique(&mut l.count_targets, t),
                    push_unique(&mut l.sum_targets, (t, a)),
                ),
            })
            .collect();
        // ... then as offsets in a cell: `count`, `counts_e`, `sums`; then
        // `mins`, `maxs`.
        let (sums, maxs) = (1 + l.count_targets.len(), l.min_targets.len());
        l.reads = aggs
            .iter()
            .zip(at)
            .map(|(a, (i, j))| match a.kind {
                AggKind::CountStar => Read::Num(0),
                AggKind::Count(_) => Read::Num(1 + i),
                AggKind::Sum(..) => Read::Num(sums + i),
                AggKind::Min(..) => Read::Ext(i),
                AggKind::Max(..) => Read::Ext(maxs + i),
                AggKind::Avg(..) => Read::Avg {
                    sum: sums + j,
                    count: 1 + i,
                },
            })
            .collect();
        l.build_ops();
        l
    }

    /// Resolve the dense per-type slot table from the target lists.
    fn build_ops(&mut self) {
        let max_ty = self
            .count_targets
            .iter()
            .copied()
            .chain(self.min_targets.iter().map(|(t, _)| *t))
            .chain(self.max_targets.iter().map(|(t, _)| *t))
            .chain(self.sum_targets.iter().map(|(t, _)| *t))
            .map(|t| t.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut ops = vec![TypeAggOps::default(); max_ty];
        let (n_counts, n_mins) = (self.count_targets.len(), self.min_targets.len());
        for (i, t) in self.count_targets.iter().enumerate() {
            ops[t.0 as usize].nums.push((i, None));
        }
        for (i, (t, a)) in self.sum_targets.iter().enumerate() {
            ops[t.0 as usize].nums.push((n_counts + i, Some(*a)));
        }
        for (i, (t, a)) in self.min_targets.iter().enumerate() {
            ops[t.0 as usize].exts.push((i, *a));
        }
        for (i, (t, a)) in self.max_targets.iter().enumerate() {
            ops[t.0 as usize].exts.push((n_mins + i, *a));
        }
        self.ops = ops;
    }

    /// `N` slots per cell: `count`, then `counts_e`, then `sums`.
    pub fn nums(&self) -> usize {
        1 + self.count_targets.len() + self.sum_targets.len()
    }

    /// `f64` slots per cell: `mins`, then `maxs`.
    pub fn exts(&self) -> usize {
        self.min_targets.len() + self.max_targets.len()
    }
}

/// The position of `x` in `v`, pushed first if it is not there.
fn push_unique<T: PartialEq>(v: &mut Vec<T>, x: T) -> usize {
    v.iter().position(|y| *y == x).unwrap_or_else(|| {
        v.push(x);
        v.len() - 1
    })
}

/// A block of aggregate cells, row-major and strided by an [`AggLayout`]:
/// per cell [`AggLayout::nums`] values of `N` — `count`, then `counts_e`,
/// then `sums` — and [`AggLayout::exts`] `f64`s — `mins`, then `maxs`.
/// Which cell is which is the owner's business: a vertex's per-window
/// accumulators, a run's rows of `k` cells each, a window's finals.
#[derive(Debug, Default)]
pub struct Cells<N: TrendNum> {
    nums: Vec<N>,
    exts: Vec<f64>,
}

/// Consecutive cells borrowed from a [`Cells`] block.
#[derive(Debug)]
pub struct CellsRef<'a, N> {
    nums: &'a [N],
    exts: &'a [f64],
}

impl<N> Clone for CellsRef<'_, N> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<N> Copy for CellsRef<'_, N> {}

impl<N: TrendNum> Cells<N> {
    /// Make the block `n` all-zero cells, keeping its capacity.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub(crate) fn reset(&mut self, n: usize, layout: &AggLayout) {
        self.nums.clear();
        self.nums.resize_with(n * layout.nums(), N::zero);
        self.exts.clear();
        for _ in 0..n {
            let mins = std::iter::repeat_n(f64::INFINITY, layout.min_targets.len());
            let maxs = std::iter::repeat_n(f64::NEG_INFINITY, layout.max_targets.len());
            self.exts.extend(mins.chain(maxs));
        }
    }

    /// Append one all-zero cell.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub(crate) fn push_zero(&mut self, layout: &AggLayout) {
        let nums = self.nums.len() + layout.nums();
        self.nums.resize_with(nums, N::zero);
        let mins = std::iter::repeat_n(f64::INFINITY, layout.min_targets.len());
        let maxs = std::iter::repeat_n(f64::NEG_INFINITY, layout.max_targets.len());
        self.exts.extend(mins.chain(maxs));
    }

    /// Merge `from` into this block's first cells, cell for cell: one
    /// element-wise add over the numeric slots, then the extrema fold.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub(crate) fn merge(&mut self, from: CellsRef<'_, N>, layout: &AggLayout) {
        for (a, b) in self.nums.iter_mut().zip(from.nums) {
            a.add_assign(b);
        }
        // `max(1)`: an empty extrema block has no chunk of any size.
        let (ext, n_min) = (layout.exts().max(1), layout.min_targets.len());
        let (to, from) = (self.exts.chunks_exact_mut(ext), from.exts.chunks_exact(ext));
        for (a, b) in to.zip(from) {
            for (i, (x, y)) in a.iter_mut().zip(b).enumerate() {
                *x = if i < n_min { x.min(*y) } else { x.max(*y) };
            }
        }
    }

    /// Merge the one cell `from` into cell `at`.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub(crate) fn merge_at(&mut self, at: usize, from: CellsRef<'_, N>, layout: &AggLayout) {
        let (num, ext) = (layout.nums(), layout.exts());
        for (a, b) in self.nums[at * num..(at + 1) * num]
            .iter_mut()
            .zip(from.nums)
        {
            a.add_assign(b);
        }
        let n_min = layout.min_targets.len();
        let to = &mut self.exts[at * ext..(at + 1) * ext];
        for (i, (x, y)) in to.iter_mut().zip(from.exts).enumerate() {
            *x = if i < n_min { x.min(*y) } else { x.max(*y) };
        }
    }

    /// Apply the inserted event's own contribution (Theorem 9.1) to every
    /// cell, after all predecessor cells have been merged:
    ///
    /// * START events increment `count` by one (they begin a new trend);
    /// * if the event's type is a tracked target, fold its attribute into
    ///   `counts_e` / `mins` / `maxs` / `sums` weighted by the final count.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub(crate) fn apply_own(&mut self, event: &Event, is_start: bool, layout: &AggLayout) {
        // Dense accessor: one index by type id, then only the slots this
        // type actually feeds (resolved once in `AggLayout::new`).
        let ops = layout.ops.get(event.type_id.0 as usize);
        let (ext, n_mins) = (layout.exts(), layout.min_targets.len());
        for (i, cell) in self.nums.chunks_exact_mut(layout.nums()).enumerate() {
            let (count, rest) = cell.split_first_mut().expect("a cell has a count slot");
            if is_start {
                count.add_assign(&N::one());
            }
            let Some(ops) = ops else { continue };
            // e.countE = e.count + Σ p.countE and e.sum = e.attr · e.count +
            // Σ p.sum: the Σ parts are already here from merge().
            for &(j, attr) in &ops.nums {
                match attr {
                    None => rest[j].add_assign(count),
                    Some(a) => rest[j].add_assign(&N::scale_by_attr(count, event.attr(a).as_f64())),
                }
            }
            let exts = &mut self.exts[i * ext..(i + 1) * ext];
            for &(j, a) in &ops.exts {
                let fold = if j < n_mins { f64::min } else { f64::max };
                exts[j] = fold(exts[j], event.attr(a).as_f64());
            }
        }
    }

    /// The cells at positions `cells`.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn slice(&self, cells: Range<usize>, layout: &AggLayout) -> CellsRef<'_, N> {
        let (num, ext) = (layout.nums(), layout.exts());
        CellsRef {
            nums: &self.nums[cells.start * num..cells.end * num],
            exts: &self.exts[cells.start * ext..cells.end * ext],
        }
    }

    /// Bytes the values take, with their carriers' heap (memory
    /// accounting).
    pub(crate) fn bytes(&self) -> usize {
        let (nums, exts) = (&self.nums, &self.exts);
        CellsRef { nums, exts }.bytes()
    }

    /// Move every cell of `row` into this block of rows, as row `at`: the
    /// stride of a row is the size of `row`.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub(crate) fn insert_row(&mut self, at: usize, row: &mut Cells<N>) {
        let (num, ext) = (row.nums.len(), row.exts.len());
        self.nums.splice(at * num..at * num, row.nums.drain(..));
        self.exts.splice(at * ext..at * ext, row.exts.drain(..));
    }

    /// Keep the cells of the rows (of `rows` equal rows) for which `keep`
    /// holds.
    pub(crate) fn retain_rows(&mut self, rows: usize, keep: impl Fn(usize) -> bool) {
        retain_rows(&mut self.nums, rows, &keep);
        retain_rows(&mut self.exts, rows, &keep);
    }

    /// Decode one cell written by [`CellsRef::encode`] and append it. The
    /// record's slot counts are not trusted: one that does not match
    /// `layout` is refused.
    pub(crate) fn decode(
        &mut self,
        r: &mut Reader<'_>,
        layout: &AggLayout,
    ) -> Result<(), CodecError> {
        let slots = |r: &mut Reader<'_>, n: usize| match r.u32()? as usize {
            got if got == n => Ok(n),
            _ => Err(CodecError(
                "aggregate slots do not match the query's".into(),
            )),
        };
        self.nums.push(N::decode(r)?);
        for _ in 0..slots(r, layout.count_targets.len())? {
            self.nums.push(N::decode(r)?);
        }
        for n in [layout.min_targets.len(), layout.max_targets.len()] {
            for _ in 0..slots(r, n)? {
                self.exts.push(f64::from_bits(r.u64()?));
            }
        }
        for _ in 0..slots(r, layout.sum_targets.len())? {
            self.nums.push(N::decode(r)?);
        }
        Ok(())
    }
}

#[cfg(test)]
impl<N: TrendNum> Cells<N> {
    /// A block of the given slots, cell after cell.
    pub(crate) fn from_slots(nums: Vec<N>, exts: Vec<f64>) -> Self {
        Cells { nums, exts }
    }
}

/// Keep the elements of the rows (of `rows` equal rows of `v`) for which
/// `keep` holds.
pub(crate) fn retain_rows<T>(v: &mut Vec<T>, rows: usize, keep: &impl Fn(usize) -> bool) {
    let (stride, mut i) = (v.len() / rows.max(1), 0);
    v.retain(|_| {
        i += 1;
        keep((i - 1) / stride)
    });
}

impl<'a, N: TrendNum> CellsRef<'a, N> {
    /// One cell laid out by an [`AggLayout`], from its numeric slots
    /// (`count`, `counts_e`, `sums`) and its extrema (`mins`, `maxs`).
    pub fn new(nums: &'a [N], exts: &'a [f64]) -> Self {
        CellsRef { nums, exts }
    }

    /// The cells one by one.
    pub fn cells(self, layout: &AggLayout) -> impl ExactSizeIterator<Item = CellsRef<'a, N>> {
        let (num, ext) = (layout.nums(), layout.exts());
        (0..self.nums.len() / num).map(move |i| CellsRef {
            nums: &self.nums[i * num..(i + 1) * num],
            exts: &self.exts[i * ext..(i + 1) * ext],
        })
    }

    /// The trend count of the first cell (`e.count`).
    pub fn count(&self) -> &'a N {
        &self.nums[0]
    }

    /// Numeric slot `i` of the first cell.
    pub(crate) fn num(&self, i: usize) -> &'a N {
        &self.nums[i]
    }

    /// Extrema slot `i` of the first cell.
    pub(crate) fn ext(&self, i: usize) -> f64 {
        self.exts[i]
    }

    /// Bytes the values take, with their carriers' heap (memory
    /// accounting).
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of_val(self.nums)
            + std::mem::size_of_val(self.exts)
            + self.nums.iter().map(TrendNum::heap_size).sum::<usize>()
    }

    /// Append every cell as one record: `count`, then the `counts_e`,
    /// `mins`, `maxs` and `sums` slots, each list after its length.
    pub(crate) fn encode(self, layout: &AggLayout, out: &mut Vec<u8>) {
        let n_counts = layout.count_targets.len();
        let n_mins = layout.min_targets.len();
        for cell in self.cells(layout) {
            let (count, rest) = cell.nums.split_at(1);
            let (counts_e, sums) = rest.split_at(n_counts);
            let (mins, maxs) = cell.exts.split_at(n_mins);
            count[0].encode(out);
            put_u32(out, counts_e.len() as u32);
            counts_e.iter().for_each(|n| n.encode(out));
            for ext in [mins, maxs] {
                put_u32(out, ext.len() as u32);
                ext.iter().for_each(|m| put_u64(out, m.to_bits()));
            }
            put_u32(out, sums.len() as u32);
            sums.iter().for_each(|n| n.encode(out));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greta_query::compile::CompiledAgg;
    use greta_types::{Time, Value};

    fn layout() -> AggLayout {
        // COUNT(A), MIN(A.0), MAX(A.0), SUM(A.0), AVG(A.0) over TypeId(0)
        let t = TypeId(0);
        let a = AttrId(0);
        AggLayout::new(&[
            CompiledAgg {
                label: "c".into(),
                kind: AggKind::Count(t),
            },
            CompiledAgg {
                label: "mn".into(),
                kind: AggKind::Min(t, a),
            },
            CompiledAgg {
                label: "mx".into(),
                kind: AggKind::Max(t, a),
            },
            CompiledAgg {
                label: "s".into(),
                kind: AggKind::Sum(t, a),
            },
            CompiledAgg {
                label: "avg".into(),
                kind: AggKind::Avg(t, a),
            },
        ])
    }

    fn ev(ty: u16, attr: f64, t: u64) -> Event {
        Event::new_unchecked(TypeId(ty), Time(t), vec![Value::Float(attr)])
    }

    #[test]
    fn layout_dedups_avg_slots() {
        let l = layout();
        assert_eq!(l.count_targets.len(), 1); // COUNT(A) and AVG share
        assert_eq!(l.sum_targets.len(), 1); // SUM and AVG share
        assert_eq!(l.min_targets.len(), 1);
        assert_eq!(l.max_targets.len(), 1);
        // Where each `RETURN` aggregate reads: numeric slots `count`,
        // `COUNT(A)`, `SUM(A.0)`; extrema `MIN`, `MAX`.
        let avg = Read::Avg { sum: 2, count: 1 };
        let want = [Read::Num(1), Read::Ext(0), Read::Ext(1), Read::Num(2), avg];
        assert_eq!(l.reads, want);
    }

    /// A vertex of one window: its predecessors' cells merged, then `e`'s
    /// own contribution.
    fn vertex<N: TrendNum>(l: &AggLayout, preds: &[&Cells<N>], e: &Event, start: bool) -> Cells<N> {
        let mut c = Cells::default();
        c.reset(1, l);
        for p in preds {
            c.merge(p.slice(0..1, l), l);
        }
        c.apply_own(e, start, l);
        c
    }

    /// Cell `i` of `c` under the test layout, slot by slot.
    #[derive(Debug, PartialEq)]
    struct Slots<N> {
        count: N,
        count_a: N,
        min: f64,
        max: f64,
        sum: N,
    }

    fn state<N: TrendNum>(c: &Cells<N>, i: usize, l: &AggLayout) -> Slots<N> {
        let cell = c.slice(i..i + 1, l);
        let (count, count_a, sum) = (cell.num(0), cell.num(1), cell.num(2));
        Slots {
            count: count.clone(),
            count_a: count_a.clone(),
            min: cell.ext(0),
            max: cell.ext(1),
            sum: sum.clone(),
        }
    }

    #[test]
    fn start_event_contribution() {
        let l = layout();
        let s = state(&vertex::<u64>(&l, &[], &ev(0, 5.0, 1), true), 0, &l);
        assert_eq!(s.count, 1);
        assert_eq!(s.count_a, 1);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.sum, 5);
    }

    #[test]
    fn untracked_type_contributes_count_only() {
        let l = layout();
        // type B, not tracked
        let s = state(&vertex::<u64>(&l, &[], &ev(1, 99.0, 1), true), 0, &l);
        assert_eq!(s.count, 1);
        assert_eq!(s.count_a, 0);
        assert_eq!(s.min, f64::INFINITY);
        assert_eq!(s.sum, 0);
    }

    #[test]
    fn figure_12_a4_state() {
        // Reproduce a4's intermediate aggregates from Fig. 12:
        // preds a1 (count 1, min 5, sum 5), b2 (count 1, carries a1's aggs),
        // a3 (count 3, min 5, sum 28). a4.attr = 4.
        let l = layout();
        let a1 = vertex::<u64>(&l, &[], &ev(0, 5.0, 1), true);
        let b2 = vertex(&l, &[&a1], &ev(1, 0.0, 2), false);
        assert_eq!(state(&b2, 0, &l).count, 1);
        assert_eq!(state(&b2, 0, &l).count_a, 1);

        let a3 = vertex(&l, &[&a1, &b2], &ev(0, 6.0, 3), true);
        assert_eq!(state(&a3, 0, &l).count, 3);
        assert_eq!(state(&a3, 0, &l).count_a, 1 + 1 + 3); // 5
        assert_eq!(state(&a3, 0, &l).sum, 5 + 5 + 6 * 3); // 28

        let a4 = state(&vertex(&l, &[&a1, &b2, &a3], &ev(0, 4.0, 4), true), 0, &l);
        assert_eq!(a4.count, 6); // 1 + (1+1+3)
        assert_eq!(a4.count_a, 1 + 1 + 5 + 6); // 13
        assert_eq!(a4.min, 4.0);
        assert_eq!(a4.max, 6.0);
        assert_eq!(a4.sum, 5 + 5 + 28 + 4 * 6); // 62
    }

    #[test]
    fn carriers_agree_on_small_counts() {
        let l = layout();
        let (mut u, mut f) = (
            vertex::<u64>(&l, &[], &ev(0, 0.0, 0), true),
            Cells::<f64>::default(),
        );
        let mut b = vertex::<BigUint>(&l, &[], &ev(0, 0.0, 0), true);
        f.reset(1, &l);
        f.apply_own(&ev(0, 0.0, 0), true, &l);
        for i in 1..20 {
            let (e, start) = (ev(0, i as f64, i), i % 2 == 0);
            u = vertex(&l, &[&u, &u], &e, start);
            f = vertex(&l, &[&f, &f], &e, start);
            b = vertex(&l, &[&b, &b], &e, start);
        }
        let (u, f, b) = (state(&u, 0, &l), state(&f, 0, &l), state(&b, 0, &l));
        assert_eq!(u.count as f64, f.count);
        assert_eq!(b.count.to_f64(), f.count);
        assert_eq!(u.sum as f64, f.sum);
        assert_eq!(b.sum.to_f64(), f.sum);
    }

    #[test]
    fn a_block_merges_cell_for_cell() {
        // Three cells of every slot kind: merging a two-cell slice touches
        // the first two cells only, each with its own partner, and a state
        // merged from a cell equals one merged from that cell's state.
        let l = layout();
        let mut acc = Cells::<f64>::default();
        acc.reset(3, &l);
        let mut from = Cells::<f64>::default();
        from.reset(2, &l);
        from.apply_own(&ev(0, 7.0, 1), true, &l);
        let mut other = Cells::default();
        other.reset(2, &l);
        other.apply_own(&ev(0, -2.0, 2), true, &l);
        from.merge(other.slice(1..2, &l), &l); // cell 0 only
        acc.merge(from.slice(0..2, &l), &l);
        let got: Vec<(f64, f64, f64, f64, f64)> = (0..3)
            .map(|i| {
                let s = state(&acc, i, &l);
                (s.count, s.count_a, s.min, s.max, s.sum)
            })
            .collect();
        let inf = f64::INFINITY;
        let want = vec![
            (2.0, 2.0, -2.0, 7.0, 5.0),
            (1.0, 1.0, 7.0, 7.0, 7.0),
            (0.0, 0.0, inf, -inf, 0.0),
        ];
        assert_eq!(got, want);
        // Into a later cell: that cell only, as if it were the first.
        let mut at = Cells::<f64>::default();
        at.reset(3, &l);
        at.merge_at(2, from.slice(0..1, &l), &l);
        assert_eq!(state(&at, 2, &l), state(&from, 0, &l));
        assert_eq!(state(&at, 0, &l), state(&acc, 2, &l));
        assert_eq!(state(&at, 1, &l), state(&acc, 2, &l));
    }

    #[test]
    fn merge_is_commutative_on_extrema() {
        let l = layout();
        let s1 = vertex::<f64>(&l, &[], &ev(0, 3.0, 1), true);
        let s2 = vertex::<f64>(&l, &[], &ev(0, 7.0, 2), true);
        let a = state(&vertex(&l, &[&s1, &s2], &ev(1, 0.0, 3), false), 0, &l);
        let b = state(&vertex(&l, &[&s2, &s1], &ev(1, 0.0, 3), false), 0, &l);
        assert_eq!(a, b);
    }

    #[test]
    fn u64_saturates_instead_of_overflowing() {
        let mut x = u64::MAX - 1;
        TrendNum::add_assign(&mut x, &5u64);
        assert_eq!(x, u64::MAX);
        assert_eq!(u64::scale_by_attr(&u64::MAX, 2.0), u64::MAX);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TrendNum::display(&42u64), "42");
        assert_eq!(TrendNum::display(&42.0f64), "42");
        assert_eq!(TrendNum::display(&42.5f64), "42.5");
        assert_eq!(TrendNum::display(&BigUint::from_u64(42)), "42");
    }
}
