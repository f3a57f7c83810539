//! Runtime GRETA graphs for one stream partition (paper §4.2, Algorithm 2,
//! extended with negation §5.2, sliding windows §6 and selection semantics
//! §9).
//!
//! What the query fixes is compiled **once per hosted query** into an
//! [`EnginePlan`] — the query, its schemas, its validated routing, the
//! engine configuration and the per-graph accessors — and shared by `Arc`
//! between every engine that runs it; a [`Partition`] is only graph state —
//! per alternative and graph (the positive root plus negative sub-patterns)
//! one [`GraphStorage`] and one [`InvalidationLog`]. Processing an event:
//!
//! 1. offer it to every graph/state whose event type matches (Case-3
//!    negation may drop it, Fig. 8(b));
//! 2. filter by vertex predicates;
//! 3. scan the predecessors, per predecessor state: the panes that can hold
//!    a time inside the window, oldest first; in each pane the state's run,
//!    narrowed to a contiguous row range by the range-form edge predicate;
//!    each row tested against one time bound (window start, Definition-5
//!    invalidation threshold, strictly before the event), the residual edge
//!    predicates — over the values the row keeps of its event, the state's
//!    projection — and the selection semantics;
//! 4. every row that passes is an edge: in the same pass its aggregates for
//!    the windows it shares with the event are merged into the event's
//!    accumulators (Theorem 9.1). Nothing is collected and revisited;
//! 5. insert iff START or some edge was found (Algorithm 2 line 5), after
//!    applying the event's own contribution: the accumulators move into the
//!    run as the new row's aggregates, beside the event's values at the
//!    state's projection;
//! 6. END events: root graphs report their aggregate to the caller;
//!    negative graphs append to their [`InvalidationLog`] and prune the
//!    finished trend (Example 5).
//!
//! **Fold order is the invariant** that makes results byte-identical across
//! storage layouts (`f64` sums do not commute in their last bit):
//! predecessor states in `StateOps::preds` order; panes oldest → newest;
//! rows ascending `(key, seq)`; each row merged into each shared window's
//! accumulator in that order; skip-till-next's single best row after its
//! state's scan; the event's own contribution last.
//! [`Partition::collect_final`] walks END rows in the same pane and run
//! order, and the engine folds the partitions of a group ascending by key.

use crate::agg::{AggLayout, Cells, CellsRef, TrendNum};
use crate::engine::EngineConfig;
use crate::grouping::{PartitionKey, StreamRouting};
use crate::negation::{
    end_event_valid_at_close, insertion_dropped, invalidation_threshold, needs_deferred_final,
    DepMode, Dependency, InvalidationLog,
};
use crate::semantics::Semantics;
use crate::state::{decode_vertex, encode_vertex};
use crate::storage::{GraphStorage, Row};
use crate::window::{last_window_of_pane, pane_length, windows_of, WindowId};
use crate::EngineError;
use greta_query::ast::CmpOp;
use greta_query::compile::{AltPlan, GraphSpec};
use greta_query::predicate::{CompiledExpr, EdgePredicate, RangeForm};
use greta_query::{CompiledQuery, StateId};
use greta_types::codec::{put_u32, put_u64};
use greta_types::{AttrId, CodecError, Event, EventRef, Reader, SchemaRegistry, Time, TypeId};
use std::sync::Arc;

/// Everything a hosted query fixes: built once per query, shared by `Arc`
/// between every engine that runs it (and, in an executor, the query's
/// registry slot and route group), passed down by reference. What it
/// derives from the query must stay in step with the query, so those fields
/// are the crate's to read and nobody's to write.
pub struct EnginePlan {
    /// The compiled query.
    pub(crate) query: CompiledQuery,
    /// The schemas it was compiled against.
    pub(crate) registry: SchemaRegistry,
    /// Event classification (root vs broadcast types, key extraction) —
    /// the same view the executor shards by. Validated: every root-graph
    /// type carries the full partition key.
    pub(crate) routing: StreamRouting,
    /// Selection semantics and the range-index switch.
    pub(crate) config: EngineConfig,
    /// Aggregate layout of the query.
    pub layout: AggLayout,
    /// True when final aggregates must be computed at window close instead
    /// of incrementally (trailing negation on some root graph, Case 2).
    pub deferred_final: bool,
    /// Length of a time pane, `gcd(within, slide)`.
    pane_len: u64,
    /// Per alternative, its graphs (index 0 is the positive root).
    alts: Vec<Vec<GraphOps>>,
}

/// Compiled per-state accessors of one graph (no per-event name/hash
/// lookups or predicate scans on the hot path): dispatch table from event
/// type to candidate states, hoisted vertex and edge predicate lists,
/// START/END flags, the range-query predicate per predecessor state, and
/// what each state's vertices keep of their event.
struct GraphOps {
    /// Index of the graph within its alternative (0 is the positive root);
    /// its storage and log sit at this index in every partition.
    gi: usize,
    /// `TypeId.0` → indices into [`GraphOps::states`].
    dispatch: Vec<Box<[usize]>>,
    /// Per-state ops, in `state_types` order.
    states: Vec<StateOps>,
    /// Dependencies on child (negative) graphs.
    deps: Vec<Dependency>,
    /// Sort attribute per state, dense by `StateId` (from the range-form
    /// edge predicate whose previous state this is); `None` sorts by event
    /// time. Its length is the number of runs per pane.
    sort_attr: Vec<Option<AttrId>>,
    /// Projection per state, dense by `StateId`: the attributes its
    /// outgoing residual edge predicates read from a predecessor, ascending.
    /// A vertex keeps its event's values of these and nothing else.
    projection: Vec<Box<[AttrId]>>,
    /// The template's END state.
    end: StateId,
}

/// Compiled accessors for one template state.
struct StateOps {
    state: StateId,
    is_start: bool,
    is_end: bool,
    /// Local filters of this state (§6), hoisted out of the per-event scan.
    vertex_preds: Vec<CompiledExpr>,
    /// One entry per predecessor state, hoisted out of the per-event
    /// `predecessors()` + `edge_preds()` collection.
    preds: Vec<PredOps>,
}

/// Compiled edge-predicate set for one `(prev_state, state)` pair.
struct PredOps {
    p_state: StateId,
    /// Width of `p_state`'s projection.
    width: usize,
    /// The predicate the sorted run answers as a row range; `None` for
    /// every pair when the engine was configured with
    /// `use_range_index: false`.
    range: Option<RangeForm>,
    /// The other predicates, reading `p_state`'s projection as `Prev`.
    residual: Vec<CompiledExpr>,
}

impl EnginePlan {
    /// Compile `query` for the engines that will run it under `config` —
    /// once; they share the value returned. Refuses a query
    /// whose partitioning is ambiguous (§6): every event type of a root
    /// graph must carry the full partition key.
    pub fn new(
        query: CompiledQuery,
        registry: SchemaRegistry,
        config: EngineConfig,
    ) -> Result<Arc<EnginePlan>, EngineError> {
        let routing = StreamRouting::new(&query, &registry);
        let roots = query
            .alternatives
            .iter()
            .flat_map(|a| &a.graphs[0].state_types);
        let partial = |t: &TypeId| !routing.extractor().has_full_key(*t);
        if let Some(tid) = roots.map(|(_, t)| *t).filter(partial).min() {
            let schema = registry.schema(tid);
            let lacks = |a: &&String| schema.attr(a).is_none();
            let attr = query.partition_attrs.iter().find(lacks).cloned();
            return Err(EngineError::PartitionAttr {
                attr: attr.unwrap_or_default(),
                ty: schema.name.clone(),
            });
        }
        let compile = |plan: &AltPlan| -> Vec<GraphOps> {
            let ops = |spec| GraphOps::new(plan, spec, config.use_range_index);
            plan.graphs.iter().map(ops).collect()
        };
        let alts: Vec<Vec<GraphOps>> = query.alternatives.iter().map(compile).collect();
        Ok(Arc::new(EnginePlan {
            layout: AggLayout::new(&query.aggregates),
            deferred_final: alts
                .iter()
                .any(|graphs| needs_deferred_final(&graphs[0].deps)),
            pane_len: pane_length(&query.window),
            alts,
            query,
            registry,
            routing,
            config,
        }))
    }
}

impl GraphOps {
    fn new(plan: &AltPlan, spec: &GraphSpec, use_range_index: bool) -> GraphOps {
        let n_states = spec
            .template
            .states
            .iter()
            .map(|s| s.occ.0 as usize + 1)
            .max()
            .unwrap_or(0);
        // Sort attribute per state: first range-form edge predicate using
        // this state as the previous side. `!=` is no row range: it stays
        // a residual predicate.
        let ranged = |e: &EdgePredicate| e.range.clone().filter(|r| r.op != CmpOp::Ne);
        let mut sort_attr: Vec<Option<AttrId>> = vec![None; n_states];
        for s in &spec.template.states {
            sort_attr[s.occ.0 as usize] = plan
                .predicates
                .edges
                .iter()
                .filter(|e| e.prev_state == s.occ)
                .find_map(|e| ranged(e).map(|r| r.prev_attr));
        }
        // Per predecessor pair, the predicate the sorted run answers and
        // the residual ones; a state's projection is what the residual
        // predicates of its outgoing pairs read.
        let split = |p_state: StateId, sid: StateId| {
            let sorted_on = sort_attr[p_state.0 as usize].filter(|_| use_range_index);
            let (mut range, mut residual) = (None, Vec::new());
            for ep in plan.predicates.edge_preds(p_state, sid) {
                match ranged(ep) {
                    Some(r) if range.is_none() && sorted_on == Some(r.prev_attr) => range = Some(r),
                    _ => residual.push(&ep.expr),
                }
            }
            (range, residual)
        };
        let mut projection: Vec<Vec<AttrId>> = vec![Vec::new(); n_states];
        for (sid, _) in &spec.state_types {
            for p_state in spec.template.predecessors(*sid) {
                for expr in split(p_state, *sid).1 {
                    expr.prev_attrs(&mut projection[p_state.0 as usize]);
                }
            }
        }
        let mut states: Vec<StateOps> = Vec::with_capacity(spec.state_types.len());
        let mut dispatch: Vec<Vec<usize>> = Vec::new();
        for (sid, tid) in &spec.state_types {
            let ti = tid.0 as usize;
            if dispatch.len() <= ti {
                dispatch.resize(ti + 1, Vec::new());
            }
            dispatch[ti].push(states.len());
            let preds = spec
                .template
                .predecessors(*sid)
                .into_iter()
                .map(|p_state| {
                    let (range, residual) = split(p_state, *sid);
                    let projection = &projection[p_state.0 as usize];
                    PredOps {
                        p_state,
                        width: projection.len(),
                        range,
                        residual: residual
                            .into_iter()
                            .map(|expr| expr.over_projection(projection))
                            .collect(),
                    }
                })
                .collect();
            states.push(StateOps {
                state: *sid,
                is_start: spec.template.is_start(*sid),
                is_end: spec.template.is_end(*sid),
                vertex_preds: plan
                    .predicates
                    .vertex_preds(*sid)
                    .map(|p| p.expr.clone())
                    .collect(),
                preds,
            });
        }
        let deps = plan
            .children_of(spec.id)
            .map(|g| Dependency {
                child: g.id,
                mode: DepMode::of(g),
            })
            .collect();
        GraphOps {
            gi: spec.id.0 as usize,
            dispatch: dispatch.into_iter().map(Vec::into_boxed_slice).collect(),
            states,
            deps,
            sort_attr,
            projection: projection.into_iter().map(Vec::into_boxed_slice).collect(),
            end: spec.template.end,
        }
    }

    /// Sort key of `e` within the runs of `state`.
    fn sort_key(&self, state: StateId, e: &Event) -> f64 {
        match self.sort_attr[state.0 as usize] {
            Some(a) => e.attr(a).as_f64(),
            None => e.time.ticks() as f64,
        }
    }
}

/// The graphs of one stream partition — per compiled alternative the
/// storages, logs and counters of its graphs — plus the `GROUP-BY` prefix
/// of the partition's key.
pub struct Partition<N: TrendNum> {
    /// The output group this partition's trends count towards.
    pub group: PartitionKey,
    alts: Vec<AltRuntime<N>>,
}

/// Graph state of one compiled alternative within one partition.
struct AltRuntime<N: TrendNum> {
    /// One storage per graph of the alternative.
    storages: Vec<GraphStorage<N>>,
    /// Invalidations produced by each graph (non-empty only for negative
    /// graphs that finished trends), parallel to `storages`.
    logs: Vec<InvalidationLog>,
    /// Vertices inserted (statistics).
    vertices_inserted: u64,
    /// Edges traversed, i.e. predecessor pairs merged (statistics; the
    /// quadratic term of Theorem 8.1).
    edges_traversed: u64,
}

impl<N: TrendNum> Partition<N> {
    /// An empty partition of output group `group`.
    pub fn new(plan: &EnginePlan, group: PartitionKey) -> Partition<N> {
        let alts = plan.alts.iter().map(|g| AltRuntime::new(g.len())).collect();
        Partition { group, alts }
    }

    /// Process one event. `event_seq` is the engine-wide arrival index;
    /// `accs` is scratch the caller keeps across events (its contents are
    /// ignored): a new vertex's per-window accumulators are built in it and
    /// moved into the vertex's run. `on_root_end` is called with the partition's
    /// group once per window entry of every END vertex inserted into a
    /// **root** graph (drives incremental final aggregation, Algorithm 2
    /// line 8). Returns the `(vertices inserted, edges traversed)` this
    /// event added to [`counters`](Self::counters).
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn process(
        &mut self,
        plan: &EnginePlan,
        accs: &mut Cells<N>,
        e: &EventRef,
        event_seq: u64,
        mut on_root_end: impl FnMut(&PartitionKey, WindowId, CellsRef<'_, N>),
    ) -> (u64, u64) {
        let group = &self.group;
        let mut did = (0, 0);
        for (alt, graphs) in self.alts.iter_mut().zip(&plan.alts) {
            let before = (alt.vertices_inserted, alt.edges_traversed);
            for ops in graphs {
                alt.process_graph(plan, ops, accs, e, event_seq, &mut |w, st| {
                    on_root_end(group, w, st)
                });
            }
            did.0 += alt.vertices_inserted - before.0;
            did.1 += alt.edges_traversed - before.1;
        }
        did
    }

    /// Deferred final aggregation for Case-2 negation: per alternative,
    /// fold into `acc` (scratch, reset to one cell) the cells for window
    /// `wid` of the root graph's END vertices still valid at `close_time`,
    /// and hand the folded cell to `each`.
    pub fn collect_final(
        &self,
        plan: &EnginePlan,
        wid: WindowId,
        close_time: Time,
        acc: &mut Cells<N>,
        mut each: impl FnMut(CellsRef<'_, N>),
    ) {
        let layout = &plan.layout;
        for (alt, graphs) in self.alts.iter().zip(&plan.alts) {
            let root = &graphs[0];
            acc.reset(1, layout);
            for pane in alt.storages[0].panes() {
                let Some(at) = pane.window_index(wid) else {
                    continue;
                };
                let (run, k) = (pane.run(root.end), pane.k());
                for (r, row) in run.rows().iter().enumerate() {
                    if end_event_valid_at_close(&root.deps, &alt.logs, row.time, close_time) {
                        let cell = r * k + at;
                        acc.merge(run.cells().slice(cell..cell + 1, layout), layout);
                    }
                }
            }
            each(acc.slice(0..1, layout));
        }
    }

    /// Batch-delete, in all graphs, the panes whose last window is `closed`
    /// or earlier.
    pub fn purge_panes(&mut self, plan: &EnginePlan, closed: WindowId) {
        let dead = |ps| last_window_of_pane(ps, plan.pane_len, &plan.query.window) <= closed;
        for storage in self.alts.iter_mut().flat_map(|a| &mut a.storages) {
            storage.purge_panes_while(dead);
        }
    }

    /// Summed `(vertices inserted, edges traversed)` counters.
    pub fn counters(&self) -> (u64, u64) {
        self.alts.iter().fold((0, 0), |(v, e), a| {
            (v + a.vertices_inserted, e + a.edges_traversed)
        })
    }

    /// Approximate bytes of live state.
    pub fn bytes(&self) -> usize {
        let graphs = self
            .alts
            .iter()
            .flat_map(|a| a.storages.iter().zip(&a.logs));
        graphs.map(|(s, l)| s.bytes() + l.heap_size()).sum()
    }

    /// Append the binary encoding of the partition's state: per
    /// alternative the statistics counters, each graph's invalidation log,
    /// and every live vertex in canonical order — panes oldest first, in a
    /// pane by state, in a state's run by `(key, seq)` — straight from the
    /// rows, projected values and cells (durability snapshots). The group is
    /// a projection of the partition key and is not written.
    pub fn encode_state(&self, plan: &EnginePlan, out: &mut Vec<u8>) {
        put_u32(out, self.alts.len() as u32);
        for (alt, graphs) in self.alts.iter().zip(&plan.alts) {
            put_u64(out, alt.vertices_inserted);
            put_u64(out, alt.edges_traversed);
            put_u32(out, alt.storages.len() as u32);
            for ((storage, log), ops) in alt.storages.iter().zip(&alt.logs).zip(graphs) {
                log.encode(out);
                put_u32(out, storage.len() as u32);
                for pane in storage.panes() {
                    for (state, run) in pane.runs() {
                        let (k, width) = (pane.k(), ops.projection[state.0 as usize].len());
                        for (r, row) in run.rows().iter().enumerate() {
                            let cells = run.cells().slice(r * k..(r + 1) * k, &plan.layout);
                            let values = run.values(r, width);
                            encode_vertex(state, row, values, cells, &plan.layout, out);
                        }
                    }
                }
            }
        }
    }

    /// Rebuild a partition of `group` from state written by
    /// [`encode_state`](Self::encode_state) under the same plan. Vertices
    /// are re-inserted by pane, state and sort key, so any record order
    /// with the panes ascending rebuilds the same runs.
    pub fn decode_state(
        plan: &EnginePlan,
        group: PartitionKey,
        r: &mut Reader<'_>,
    ) -> Result<Partition<N>, CodecError> {
        let mismatch = |what: &str, got: usize, want: usize| {
            CodecError(format!(
                "{what} count mismatch: snapshot has {got}, query has {want}"
            ))
        };
        let n_alts = r.seq_len(16)?;
        if n_alts != plan.alts.len() {
            return Err(mismatch("alternative", n_alts, plan.alts.len()));
        }
        let mut part = Partition::new(plan, group);
        for (alt, graphs) in part.alts.iter_mut().zip(&plan.alts) {
            alt.vertices_inserted = r.u64()?;
            alt.edges_traversed = r.u64()?;
            let n = r.seq_len(8)?;
            if n != graphs.len() {
                return Err(mismatch("graph", n, graphs.len()));
            }
            for ops in graphs {
                let gi = ops.gi;
                alt.logs[gi] = InvalidationLog::decode(r)?;
                let nv = r.seq_len(42)?;
                let n_states = ops.sort_attr.len();
                let mut cells = Cells::default();
                for _ in 0..nv {
                    let v = decode_vertex(r, &plan.layout, &mut cells)?;
                    let Some(projection) = ops.projection.get(v.state.0 as usize) else {
                        let s = v.state.0;
                        return Err(CodecError(format!(
                            "vertex state {s} out of range: the graph has {n_states}"
                        )));
                    };
                    let t = v.row.time.ticks();
                    if v.values.len() != projection.len() {
                        let (got, want) = (v.values.len(), projection.len());
                        return Err(CodecError(format!(
                            "vertex at time {t} keeps {got} values, its state projects {want}"
                        )));
                    }
                    // A pane's rows share one set of windows: the record's
                    // must be the ones its time falls into.
                    let ws = windows_of(v.row.time, &plan.query.window);
                    if v.cells != ws.clone().count() {
                        return Err(CodecError(format!(
                            "vertex at time {t} does not carry the windows of its time"
                        )));
                    }
                    let windows = *ws.start()..*ws.start() + v.cells as u64;
                    let storage = &mut alt.storages[gi];
                    let values = v.values.iter();
                    storage.insert(
                        v.state,
                        v.row,
                        values,
                        &mut cells,
                        windows,
                        plan.pane_len,
                        n_states,
                    );
                }
            }
        }
        Ok(part)
    }
}

impl<N: TrendNum> AltRuntime<N> {
    fn new(n_graphs: usize) -> AltRuntime<N> {
        AltRuntime {
            storages: (0..n_graphs).map(|_| GraphStorage::new()).collect(),
            logs: vec![InvalidationLog::default(); n_graphs],
            vertices_inserted: 0,
            edges_traversed: 0,
        }
    }

    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn process_graph(
        &mut self,
        plan: &EnginePlan,
        ops: &GraphOps,
        accs: &mut Cells<N>,
        e: &EventRef,
        event_seq: u64,
        on_root_end: &mut impl FnMut(WindowId, CellsRef<'_, N>),
    ) {
        let gi = ops.gi;
        // Compiled dispatch: event type → candidate states, one array index.
        let Some(state_idxs) = ops.dispatch.get(e.type_id.0 as usize) else {
            return;
        };
        // Case-3 negation: drop events arriving strictly after the first
        // finished trend of a DropFollowing child (Fig. 8(b)).
        if state_idxs.is_empty() || insertion_dropped(&ops.deps, &self.logs, e.time) {
            return;
        }
        // The event's windows, and with them those of every vertex of its
        // pane: `n` consecutive ids from `w_lo`.
        let windows = windows_of(e.time, &plan.query.window);
        let (w_lo, n) = (*windows.start(), windows.count());
        let layout = &plan.layout;
        let lo = Time(e.time.ticks().saturating_sub(plan.query.window.within - 1));

        for &si in state_idxs.iter() {
            let so = &ops.states[si];
            let state = so.state;
            // Vertex predicates (local filters, §6), hoisted at plan time.
            if !so.vertex_preds.iter().all(|p| p.eval_bool(None, e)) {
                continue;
            }
            let is_start = so.is_start;
            let is_end = so.is_end;

            // --- predecessor scan + aggregate propagation (Theorem 9.1) -----
            // One accumulator per window of the event; every edge found is
            // merged into them on the spot, in fold order (module docs).
            accs.reset(n, layout);
            let mut edges = 0u64;
            let mut latest_start = if is_start { e.time } else { Time::ZERO };
            let mut link = |row: &Row, shared: CellsRef<'_, N>| {
                edges += 1;
                latest_start = latest_start.max(row.latest_start);
                accs.merge(shared, layout);
            };
            let (storage, logs) = (&self.storages[gi], &self.logs);
            for po in &so.preds {
                let p_state = po.p_state;
                // Range form answered by the sorted run (if it sorts on the
                // predicate's attribute; resolved at plan time).
                let range = po.range.as_ref().map(|r| r.bound(e));
                // Inside the window and not invalidated (Definition 5): one
                // lower time bound for every row of this state.
                let valid_from = lo.max(invalidation_threshold(
                    &ops.deps, logs, p_state, state, e.time,
                ));

                let mut best: Option<(&Row, CellsRef<'_, N>)> = None; // skip-till-next
                for pane in storage.panes_between(valid_from, e.time, plan.pane_len) {
                    let (run, k) = (pane.run(p_state), pane.k());
                    // A row may pass every filter from a pane that shares
                    // no window with the event (its windows closed and it is
                    // here through replay, or `WITHIN < SLIDE` left it in
                    // none): still an edge, merging nothing.
                    let shared = pane.shared_windows(w_lo, n);
                    for r in run.range(range) {
                        let row = &run.rows()[r];
                        if row.time < valid_from || row.time >= e.time {
                            continue;
                        }
                        // Residual edge predicates (the range one is exact),
                        // over the row's projected values.
                        let prev = || run.values(r, po.width);
                        if !po.residual.iter().all(|p| p.eval_bool(Some(prev()), e)) {
                            continue;
                        }
                        let cells = r * k + shared.start..r * k + shared.end;
                        let row_aggs = run.cells().slice(cells, layout);
                        match plan.config.semantics {
                            Semantics::SkipTillAny => link(row, row_aggs),
                            Semantics::Contiguous => {
                                if row.seq + 1 == event_seq {
                                    link(row, row_aggs);
                                }
                            }
                            Semantics::SkipTillNext => {
                                if best.as_ref().is_none_or(|(b, _)| row.seq > b.seq) {
                                    best = Some((row, row_aggs));
                                }
                            }
                        }
                    }
                }
                if let Some((row, row_aggs)) = best {
                    link(row, row_aggs);
                }
            }

            // Algorithm 2 line 5: MID/END events need a predecessor.
            if !is_start && edges == 0 {
                continue;
            }
            self.edges_traversed += edges;
            accs.apply_own(e, is_start, layout);
            if is_end && gi == 0 {
                for (w, cell) in (w_lo..).zip(accs.slice(0..n, layout).cells(layout)) {
                    on_root_end(w, cell);
                }
            }

            let row = Row {
                key: ops.sort_key(state, e),
                seq: event_seq,
                time: e.time,
                latest_start,
            };
            // The vertex keeps the event's values its state projects.
            let values = ops.projection[state.0 as usize].iter().map(|a| e.attr(*a));
            let (n_states, windows) = (ops.sort_attr.len(), w_lo..w_lo + n as u64);
            let storage = &mut self.storages[gi];
            storage.insert(state, row, values, accs, windows, plan.pane_len, n_states);
            self.vertices_inserted += 1;

            if is_end && gi != 0 {
                // A negative trend finished: record the invalidation and
                // prune the dominated prefix (Example 5, Theorem 5.1).
                self.logs[gi].push(e.time, latest_start);
                self.storages[gi].purge_vertices_up_to(latest_start);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greta_query::CompiledQuery;
    use greta_types::{EventBuilder, SchemaRegistry};

    fn setup(pattern: &str) -> (SchemaRegistry, CompiledQuery) {
        let mut reg = SchemaRegistry::new();
        for t in ["A", "B", "C", "D", "E"] {
            reg.register_type(t, &["attr"]).unwrap();
        }
        let q = CompiledQuery::parse(
            &format!("RETURN COUNT(*) PATTERN {pattern} WITHIN 1000 SLIDE 1000"),
            &reg,
        )
        .unwrap();
        (reg, q)
    }

    fn plan_of(q: &CompiledQuery, reg: &SchemaRegistry, semantics: Semantics) -> Arc<EnginePlan> {
        let config = EngineConfig {
            semantics,
            ..Default::default()
        };
        EnginePlan::new(q.clone(), reg.clone(), config).unwrap()
    }

    fn run_count(pattern: &str, events: &[(&str, u64)]) -> f64 {
        let (reg, q) = setup(pattern);
        let plan = plan_of(&q, &reg, Semantics::SkipTillAny);
        let mut rt = Partition::<f64>::new(&plan, PartitionKey::default());
        let mut total = 0.0;
        for (seq, (ty, t)) in events.iter().enumerate() {
            let e = EventBuilder::new(&reg, ty)
                .unwrap()
                .at(Time(*t))
                .build()
                .into_ref();
            rt.process(
                &plan,
                &mut Cells::default(),
                &e,
                seq as u64 + 1,
                |_, _, st| total += *st.count(),
            );
        }
        total
    }

    #[test]
    fn figure_6c_count_43() {
        // (SEQ(A+, B))+ over {a1, b2, a3, a4, b7, a8, b9} = 43 trends (§4.2).
        let count = run_count(
            "(SEQ(A+, B))+",
            &[
                ("A", 1),
                ("B", 2),
                ("A", 3),
                ("A", 4),
                ("B", 7),
                ("A", 8),
                ("B", 9),
            ],
        );
        assert_eq!(count, 43.0);
    }

    #[test]
    fn example_1_count_11() {
        let count = run_count(
            "(SEQ(A+, B))+",
            &[("A", 1), ("B", 2), ("A", 3), ("A", 4), ("B", 7)],
        );
        assert_eq!(count, 11.0);
    }

    #[test]
    fn flat_kleene_counts_subsets() {
        // A+ over n a's: every non-empty subset in time order = 2^n - 1.
        let events: Vec<(&str, u64)> = (1..=6).map(|t| ("A", t)).collect();
        assert_eq!(run_count("A+", &events), 63.0);
    }

    #[test]
    fn seq_without_loop() {
        // SEQ(A+, B) over a1 a2 b3: trends (a1 b3), (a2 b3), (a1 a2 b3) = 3.
        assert_eq!(
            run_count("SEQ(A+, B)", &[("A", 1), ("A", 2), ("B", 3)]),
            3.0
        );
        // Irrelevant B first is skipped (no predecessor), Fig. 6(b).
        assert_eq!(
            run_count("SEQ(A+, B)", &[("B", 0), ("A", 1), ("A", 2), ("B", 3)]),
            3.0
        );
    }

    #[test]
    fn mid_events_need_predecessors() {
        // SEQ(A, B, C): b before any a is not inserted.
        assert_eq!(run_count("SEQ(A, B, C)", &[("B", 1), ("C", 2)]), 0.0);
        assert_eq!(
            run_count("SEQ(A, B, C)", &[("A", 1), ("B", 2), ("C", 3)]),
            1.0
        );
    }

    #[test]
    fn figure_6d_nested_negation() {
        // (SEQ(A+, NOT SEQ(C, NOT E, D), B))+ over
        // {a1, b2, c2, a3, e3, a4, c5, d6, b7, a8, b9} (Example 4):
        // e3 invalidates c2, so (c5,d6) is the only negative trend; it marks
        // a1,a3,a4 invalid for b's after t6. b7 has no valid predecessors
        // and is not inserted. The marked a's still connect to a8
        // ("the marked a's are valid to connect to new a's"), so
        // a8.count = 1 + (a1:1 + b2:1 + a3:3 + a4:6) = 12; b9 connects to
        // a8 only: b9.count = 12. Final = b2 (1) + b9 (12) = 13.
        let count = run_count(
            "(SEQ(A+, NOT SEQ(C, NOT E, D), B))+",
            &[
                ("A", 1),
                ("B", 2),
                ("C", 2),
                ("A", 3),
                ("E", 3),
                ("A", 4),
                ("C", 5),
                ("D", 6),
                ("B", 7),
                ("A", 8),
                ("B", 9),
            ],
        );
        assert_eq!(count, 13.0);
    }

    #[test]
    fn negative_graph_pruning_keeps_count_correct() {
        // Same as above but with another (C,D) pair later: pruning c5,d6
        // after the first finished trend must not lose the invalidation.
        let count = run_count(
            "SEQ(A+, NOT SEQ(C, D), B)",
            &[("A", 1), ("C", 2), ("D", 3), ("A", 4), ("B", 5)],
        );
        // (c2,d3) invalidates a1 for b's after t3, but a1 still connects to
        // a4 (A→A is unaffected, Example 4): trends (a4,b5) and (a1,a4,b5).
        assert_eq!(count, 2.0);
    }

    #[test]
    fn case3_drops_following_events() {
        // SEQ(NOT E, A+): e3 kills all later a's (Fig. 8(b)).
        let count = run_count("SEQ(NOT E, A+)", &[("A", 1), ("A", 2), ("E", 3), ("A", 4)]);
        // Valid: trends within {a1, a2} = 3.
        assert_eq!(count, 3.0);
    }

    #[test]
    fn contiguous_semantics_counts_runs() {
        let (reg, q) = setup("A+");
        let plan = plan_of(&q, &reg, Semantics::Contiguous);
        let mut rt = Partition::<f64>::new(&plan, PartitionKey::default());
        let mut total = 0.0;
        for (seq, t) in [1u64, 2, 3].iter().enumerate() {
            let e = EventBuilder::new(&reg, "A")
                .unwrap()
                .at(Time(*t))
                .build()
                .into_ref();
            rt.process(
                &plan,
                &mut Cells::default(),
                &e,
                seq as u64 + 1,
                |_, _, st| total += *st.count(),
            );
        }
        // Contiguous trends of a1 a2 a3: (a1),(a2),(a3),(a1a2),(a2a3),(a1a2a3) = 6
        assert_eq!(total, 6.0);
    }

    #[test]
    fn skip_till_next_is_polynomial() {
        let (reg, q) = setup("A+");
        let plan = plan_of(&q, &reg, Semantics::SkipTillNext);
        let mut rt = Partition::<f64>::new(&plan, PartitionKey::default());
        let mut total = 0.0;
        for (seq, t) in (1u64..=10).enumerate() {
            let e = EventBuilder::new(&reg, "A")
                .unwrap()
                .at(Time(t))
                .build()
                .into_ref();
            rt.process(
                &plan,
                &mut Cells::default(),
                &e,
                seq as u64 + 1,
                |_, _, st| total += *st.count(),
            );
        }
        // Each event links only to its immediate predecessor: runs = n(n+1)/2.
        assert_eq!(total, 55.0);
    }

    #[test]
    fn decode_refuses_a_vertex_state_the_plan_does_not_have() {
        // `SEQ(A, B)` has two states, `A+` one: a blob written under the
        // first must be refused under the second, not index past its
        // per-pane trees.
        let (reg, q) = setup("SEQ(A, B)");
        let plan = plan_of(&q, &reg, Semantics::SkipTillAny);
        let mut part = Partition::<f64>::new(&plan, PartitionKey::default());
        for (seq, (ty, t)) in [("A", 1), ("B", 2)].into_iter().enumerate() {
            let e = EventBuilder::new(&reg, ty).unwrap().at(Time(t)).build();
            part.process(
                &plan,
                &mut Cells::default(),
                &e.into_ref(),
                seq as u64 + 1,
                |_, _, _| {},
            );
        }
        let mut blob = Vec::new();
        part.encode_state(&plan, &mut blob);
        let decode = |q: &CompiledQuery| {
            let plan = plan_of(q, &reg, Semantics::SkipTillAny);
            let r = &mut Reader::new(&blob);
            Partition::<f64>::decode_state(&plan, PartitionKey::default(), r).map(|p| p.counters())
        };
        assert_eq!(decode(&q), Ok((2, 1)));
        let err = decode(&setup("A+").1).unwrap_err();
        assert!(err.0.contains("vertex state 1 out of range"), "{err:?}");
    }

    #[test]
    fn a_predecessor_sharing_no_window_is_still_an_edge() {
        // WITHIN 10 SLIDE 4. a6 falls into windows 0 and 1 ([0,10), [4,14)),
        // x15 into 2 and 3 ([8,18), [12,22)): fewer than `within` ticks
        // apart, yet in no common window. An engine has purged a6's pane by
        // then (both its windows closed at 14) unless a6 was replayed into
        // a partition created later; a partition on its own keeps it. The
        // edge a6 → x15 is logical: found, counted, enough to let a MID/END
        // event in (Algorithm 2 line 5 asks for a predecessor, not for a
        // shared window) — and it carries no aggregate.
        let mut reg = SchemaRegistry::new();
        reg.register_type("A", &["attr"]).unwrap();
        reg.register_type("B", &["attr"]).unwrap();
        let run = |pattern: &str, second: &str| {
            let text = format!("RETURN COUNT(*) PATTERN {pattern} WITHIN 10 SLIDE 4");
            let q = CompiledQuery::parse(&text, &reg).unwrap();
            let plan = plan_of(&q, &reg, Semantics::SkipTillAny);
            let mut part = Partition::<f64>::new(&plan, PartitionKey::default());
            let mut ends = Vec::new();
            for (seq, (ty, t)) in [("A", 6), (second, 15)].into_iter().enumerate() {
                let e = EventBuilder::new(&reg, ty).unwrap().at(Time(t)).build();
                let e = e.into_ref();
                let accs = &mut Cells::default();
                part.process(&plan, accs, &e, seq as u64 + 1, |_, w, st| {
                    ends.push((t, w, *st.count()))
                });
            }
            (part.counters(), ends)
        };
        let (counters, ends) = run("A+", "A");
        assert_eq!(counters, (2, 1));
        let singletons = vec![(6, 0, 1.0), (6, 1, 1.0), (15, 2, 1.0), (15, 3, 1.0)];
        assert_eq!(ends, singletons);
        let (counters, ends) = run("SEQ(A, B)", "B");
        assert_eq!(counters, (2, 1));
        assert_eq!(ends, vec![(15, 2, 0.0), (15, 3, 0.0)]);
    }

    #[test]
    fn stats_track_vertices_and_edges() {
        let (reg, q) = setup("A+");
        let plan = plan_of(&q, &reg, Semantics::SkipTillAny);
        let mut rt = Partition::<f64>::new(&plan, PartitionKey::default());
        for (seq, t) in (1u64..=4).enumerate() {
            let e = EventBuilder::new(&reg, "A")
                .unwrap()
                .at(Time(t))
                .build()
                .into_ref();
            rt.process(
                &plan,
                &mut Cells::default(),
                &e,
                seq as u64 + 1,
                |_, _, _| {},
            );
        }
        assert_eq!(rt.counters(), (4, 1 + 2 + 3));
        assert_eq!(rt.alts[0].storages[0].len(), 4);
        assert!(rt.bytes() > 0);
    }
}
