//! The GRETA engine (paper Fig. 4, runtime side): stream partitioning,
//! per-partition graphs, window lifecycle, result emission.
//!
//! A [`GretaEngine`] is an [`EnginePlan`] — everything the query fixes,
//! compiled once per hosted query and shared by `Arc` with every other
//! engine running it — plus stream state. Responsibilities:
//!
//! * **Partitioning** (§6): events are routed by the values of the
//!   partition attributes (`GROUP-BY` + equivalence predicates). Partitions
//!   live in a slab in open order; a root event finds its own by hashing
//!   and comparing its values in place, and a partition key is built only
//!   when one opens. Events of types carrying only a sub-key
//!   (negative-pattern types such as `Accident` in Q3) reach the matching
//!   partitions through an index per sub-key mask, and are kept in a
//!   window-deep replay buffer so that later-created partitions observe
//!   them too.
//! * **Windows** (§6): windows close when the watermark passes their end;
//!   results are rendered per group and panes whose last window closed are
//!   batch-purged (§7).
//! * **Final aggregation**: incremental (Algorithm 2 line 8) unless a
//!   trailing negation (Case 2) forces deferred per-close scans.
//! * **Metrics** (§10.1): events/vertices/edges counters and analytic
//!   memory accounting with peak tracking.

use crate::agg::{AggLayout, AggState, TrendNum};
use crate::graph::{EnginePlan, Partition};
use crate::grouping::{IdIndex, KeyExtractor, PartitionKey, StreamRouting};
use crate::memory::{MemoryFootprint, PeakTracker};
use crate::results::{render_aggregates, WindowResult};
use crate::semantics::Semantics;
use crate::window::{last_closed, window_close_time, windows_of, WindowId};
use crate::EngineError;
use greta_query::CompiledQuery;
use greta_types::{shared_heap_size, Event, EventRef, SchemaRegistry, Time};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Version byte of a [`GretaEngine::export_state`] blob (2: explicit
/// `seq` counter); [`GretaEngine::import_state`] refuses any other.
const ENGINE_STATE_VERSION: u8 = 2;

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Event selection semantics (default: skip-till-any-match, §2).
    pub semantics: Semantics,
    /// Use Vertex-Tree range queries for edge predicates (ablation switch;
    /// `false` falls back to scans with residual evaluation).
    pub use_range_index: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            semantics: Semantics::SkipTillAny,
            use_range_index: true,
        }
    }
}

/// Engine counters (§10.1 metrics).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Events consumed.
    pub events: u64,
    /// Vertices inserted across all partitions/graphs.
    pub vertices: u64,
    /// Edges traversed (predecessor merges).
    pub edges: u64,
    /// Result rows emitted.
    pub results: u64,
}

/// One window's final aggregates, per group.
type Groups<N> = HashMap<PartitionKey, AggState<N>>;

/// The GRETA engine. Generic over the aggregate carrier `N` (`f64` default
/// mirrors large-count behaviour; `u64` saturates; `BigUint` is exact).
pub struct GretaEngine<N: TrendNum = f64> {
    /// Everything the query fixes, compiled once per hosted query; the
    /// fields below are stream state and nothing else.
    plan: Arc<EnginePlan>,
    partitions: Slab<N>,
    /// Events of types that lack the full partition key (broadcast types),
    /// kept one window deep for replay into new partitions (shared refs —
    /// replay never copies payloads). Each entry records the bytes it was
    /// charged, so the running total never drifts as Arc sharing changes.
    replay: VecDeque<(EventRef, usize)>,
    /// Running byte total of the replay buffer.
    replay_bytes: usize,
    /// The open windows: every window an event fell into and the watermark
    /// has not closed yet, with its incremental per-group final aggregates
    /// (none under deferred finals, or while no END vertex reached it).
    open: BTreeMap<WindowId, Groups<N>>,
    /// Running byte total of the aggregates in `open`, kept by the three
    /// places that change them, so the per-event peak sample does not walk
    /// every open (window, group) aggregate.
    results_bytes: usize,
    /// Scratch of the DP loop, reused from event to event: the per-window
    /// accumulators of the vertex being built, moved into its run on insert.
    accs: Vec<AggState<N>>,
    emitted: Vec<WindowResult<N>>,
    watermark: Time,
    saw_event: bool,
    /// Arrival index handed to the graphs for selection semantics.
    /// Monotone per engine; decoupled from `stats.events` so that
    /// repartitioning can splice partitions from several engines into one
    /// without ever assigning a new vertex a sequence number below an
    /// existing vertex's (the merged engine resumes from the max).
    seq: u64,
    stats: EngineStats,
    peak: PeakTracker,
    /// Running byte total of partition graph state (updated incrementally
    /// per delivery; recomputed after batch purges at window close).
    live_bytes: usize,
}

/// The engine's partitions in open order, addressed by `u32` ids, their
/// keys beside them, and per key mask of the plan an index from the hash of
/// a key's projection to the ids (mask 0, the full key, is what a root
/// event probes). Nothing is removed.
struct Slab<N: TrendNum> {
    keys: Vec<PartitionKey>,
    parts: Vec<Partition<N>>,
    index: Vec<IdIndex>,
}

impl<N: TrendNum> Slab<N> {
    fn new(routing: &StreamRouting) -> Self {
        let index = routing.masks().iter().map(|_| IdIndex::default()).collect();
        Slab {
            keys: Vec::new(),
            parts: Vec::new(),
            index,
        }
    }

    /// Add a partition, filing it under every mask: the one insertion path.
    fn insert(&mut self, routing: &StreamRouting, key: PartitionKey, part: Partition<N>) -> usize {
        let id = self.parts.len();
        let id32 = u32::try_from(id).expect("fewer than 2^32 partitions");
        for (mask, index) in routing.masks().iter().zip(&mut self.index) {
            index.file(key.hash_on(mask), id32);
        }
        self.keys.push(key);
        self.parts.push(part);
        id
    }

    /// The partition of a root event, hashed and compared straight off it.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn probe(&self, ex: &KeyExtractor, e: &Event) -> Option<usize> {
        let mut ids = self.index[0].chain(ex.event_hash(e));
        ids.find(|&id| ex.event_matches(e, &self.keys[id]))
    }

    /// Hand a broadcast event to the partitions it matches, visiting only
    /// the ids filed under its projection's hash. The order is free: the
    /// plan refuses a root-graph type without the full key, so a broadcast
    /// event never reaches a root END vertex, hence no `f64` fold.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn broadcast(&mut self, routing: &StreamRouting, e: &EventRef, to: &mut Delivery<'_, N>) {
        let ex = routing.extractor();
        for id in self.index[routing.mask_of(e.type_id)].chain(ex.event_hash(e)) {
            if ex.event_matches(e, &self.keys[id]) {
                to.deliver(&mut self.parts[id], e);
            }
        }
    }

    /// Slab ids ascending by key.
    fn by_key(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.keys.len()).collect();
        ids.sort_unstable_by_key(|&id| &self.keys[id]);
        ids
    }
}

/// The engine fields one delivery writes, borrowed apart from the
/// partition slab the delivery's target came out of.
struct Delivery<'a, N: TrendNum> {
    plan: &'a EnginePlan,
    seq: u64,
    accs: &'a mut Vec<AggState<N>>,
    open: &'a mut BTreeMap<WindowId, Groups<N>>,
    results_bytes: &'a mut usize,
    stats: &'a mut EngineStats,
    live_bytes: &'a mut usize,
}

impl<N: TrendNum> Delivery<'_, N> {
    /// Hand `e` to `part`, folding what its root END vertices report into
    /// the open windows' finals.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn deliver(&mut self, part: &mut Partition<N>, e: &EventRef) {
        let before = part.bytes();
        let (plan, open, grew) = (self.plan, &mut *self.open, &mut *self.results_bytes);
        // Engine-wide arrival index: contiguous semantics counts *every*
        // stream event as a potential gap (Table 1: "skips none").
        let (vertices, edges) = part.process(plan, self.accs, e, self.seq, |group, w, st| {
            if !plan.deferred_final {
                *grew += merge_group(open.entry(w).or_default(), group, st, &plan.layout);
            }
        });
        self.stats.vertices += vertices;
        self.stats.edges += edges;
        *self.live_bytes = *self.live_bytes + part.bytes() - before;
    }
}

impl<N: TrendNum> GretaEngine<N> {
    /// Create an engine with default configuration.
    pub fn new(query: CompiledQuery, registry: SchemaRegistry) -> Result<Self, EngineError> {
        Self::with_config(query, registry, EngineConfig::default())
    }

    /// Create an engine with an explicit configuration: compiles the plan
    /// and runs it alone. Engines that run one query side by side share
    /// one plan through [`with_plan`](Self::with_plan).
    pub fn with_config(
        query: CompiledQuery,
        registry: SchemaRegistry,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        Ok(Self::with_plan(EnginePlan::new(query, registry, config)?))
    }

    /// An engine at the start of its stream, running `plan`.
    pub fn with_plan(plan: Arc<EnginePlan>) -> Self {
        GretaEngine {
            partitions: Slab::new(&plan.routing),
            plan,
            replay: VecDeque::new(),
            replay_bytes: 0,
            open: BTreeMap::new(),
            results_bytes: 0,
            accs: Vec::new(),
            emitted: Vec::new(),
            watermark: Time::ZERO,
            saw_event: false,
            seq: 0,
            stats: EngineStats::default(),
            peak: PeakTracker::default(),
            live_bytes: 0,
        }
    }

    /// The plan this engine runs — one value per hosted query, however
    /// many engines run it.
    pub fn plan(&self) -> &Arc<EnginePlan> {
        &self.plan
    }

    /// The compiled query.
    pub fn query(&self) -> &CompiledQuery {
        &self.plan.query
    }

    /// The schema registry.
    pub fn registry(&self) -> &SchemaRegistry {
        &self.plan.registry
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Number of live partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.parts.len()
    }

    /// Process one shared event (must arrive in-order by time, §2). The
    /// event is *not* copied: graph vertices and the broadcast replay
    /// buffer hold clones of the `Arc` handle. An event of a type outside
    /// the query advances time and allocates nothing; neither does one that
    /// reaches existing partitions only.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn process_ref(&mut self, e: &EventRef) -> Result<(), EngineError> {
        if self.saw_event && e.time < self.watermark {
            return Err(EngineError::OutOfOrder {
                watermark: self.watermark.ticks(),
                got: e.time.ticks(),
            });
        }
        self.advance_watermark(e.time);
        self.stats.events += 1;
        self.seq += 1;

        let (plan, routing) = (&*self.plan, &self.plan.routing);
        let root = routing.is_root(e.type_id);
        if root || routing.is_broadcast(e.type_id) {
            let mut to = Delivery {
                plan,
                seq: self.seq,
                accs: &mut self.accs,
                open: &mut self.open,
                results_bytes: &mut self.results_bytes,
                stats: &mut self.stats,
                live_bytes: &mut self.live_bytes,
            };
            if root {
                // One probe: the partition, opened if this is its first event.
                let slab = &mut self.partitions;
                let id = match slab.probe(routing.extractor(), e) {
                    Some(id) => id,
                    None => {
                        let key = routing.extractor().key_of(e);
                        let part = open_partition(plan, &key, &self.replay, to.accs);
                        *to.live_bytes += part.bytes();
                        slab.insert(routing, key, part)
                    }
                };
                to.deliver(&mut slab.parts[id], e);
            } else {
                self.partitions.broadcast(routing, e, &mut to);
                self.remember(e);
            }
        }

        for w in windows_of(e.time, &self.plan.query.window) {
            self.open.entry(w).or_default();
        }
        let bytes = self.memory_bytes();
        self.peak.observe(bytes);
        Ok(())
    }

    /// Keep a broadcast event for partitions opened later. The buffer is
    /// one window deep (ARCHITECTURE.md, "Inside a shard engine": Def-5
    /// effects for late-created partitions are window-bounded).
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn remember(&mut self, e: &EventRef) {
        let charge = shared_heap_size(e);
        self.replay_bytes += charge;
        #[expect(clippy::disallowed_methods, reason = "EventRef: an Arc refcount bump")]
        self.replay.push_back((e.clone(), charge));
        let cutoff = e.time.ticks().saturating_sub(self.plan.query.window.within);
        while self
            .replay
            .front()
            .is_some_and(|(old, _)| old.time.ticks() < cutoff)
        {
            if let Some((_, c)) = self.replay.pop_front() {
                self.replay_bytes = self.replay_bytes.saturating_sub(c);
            }
        }
    }

    /// Close (emit + purge) every window whose end is ≤ `t`.
    fn close_due(&mut self, t: Time) {
        while let Some(first) = self.open.first_entry() {
            let wid = *first.key();
            let close = window_close_time(wid, &self.plan.query.window);
            if close > t {
                break;
            }
            let finals = first.remove();
            self.emit_window(wid, close, finals);
            // Batch pane purge: panes whose last window just closed die.
            // Purges change many partitions at once: recompute the total.
            self.live_bytes = 0;
            for part in &mut self.partitions.parts {
                part.purge_panes(&self.plan, wid);
                self.live_bytes += part.bytes();
            }
        }
    }

    /// Emit the rows of window `wid`, closing at `close`: its incremental
    /// `finals`, or under deferred finals what the partitions' END vertices
    /// still valid at `close` fold to.
    fn emit_window(&mut self, wid: WindowId, close: Time, mut finals: Groups<N>) {
        let plan = &*self.plan;
        self.results_bytes -= groups_bytes(&finals);
        if plan.deferred_final {
            // A group may span partitions, and `f64` sums do not commute in
            // their last bit: fold them ascending by key, not in slab order.
            for id in self.partitions.by_key() {
                let part = &self.partitions.parts[id];
                for st in part.collect_final(plan, wid, close) {
                    if !st.count.is_zero() {
                        merge_group(&mut finals, &part.group, &st, &plan.layout);
                    }
                }
            }
        }
        let mut rows: Vec<WindowResult<N>> = finals
            .into_iter()
            .filter(|(_, st)| !st.count.is_zero())
            .map(|(group, st)| WindowResult {
                window: wid,
                group,
                values: render_aggregates(&st, &plan.query.aggregates, &plan.layout),
            })
            .collect();
        rows.sort_by(|a, b| a.group.cmp(&b.group));
        self.stats.results += rows.len() as u64;
        self.emitted.extend(rows);
    }

    /// Advance event time to `t` without an event: closes (and emits) every
    /// window whose end is ≤ `t`. Used by the
    /// [`StreamExecutor`](crate::executor::StreamExecutor) to propagate
    /// watermarks to shards that received no recent events. Later events
    /// with a time before `t` are rejected as out-of-order, exactly as if
    /// an event at `t` had been processed. Stale watermarks are ignored.
    pub fn advance_watermark(&mut self, t: Time) {
        if self.saw_event && t < self.watermark {
            return;
        }
        self.saw_event = true;
        self.watermark = t;
        self.close_due(t);
    }

    /// Drain results of windows closed so far.
    pub fn poll_results(&mut self) -> Vec<WindowResult<N>> {
        std::mem::take(&mut self.emitted)
    }

    /// The engine's *emission frontier*: the smallest window id this
    /// engine may still emit a result row for. Every window below it has
    /// either been closed (its rows are in the emitted buffer or already
    /// drained) or was never touched — the executor's ordered-emission
    /// merge releases a window once every shard's frontier has passed it.
    ///
    /// Two bounds compose: the watermark bound (windows whose close time
    /// the watermark passed cannot receive events) and the first still-open
    /// window. The second matters after a state import or a repartition,
    /// where the inherited watermark (the max across source engines) may
    /// already be past the close time of a window whose `close_due` simply
    /// has not run yet.
    pub fn emission_frontier(&self) -> WindowId {
        let closed = last_closed(self.watermark, &self.plan.query.window);
        let wm_bound = closed.filter(|_| self.saw_event).map_or(0, |w| w + 1);
        let first_open = self.open.keys().next();
        first_open.map_or(wm_bound, |&w| wm_bound.min(w))
    }

    /// Flush: close all remaining windows and drain every result.
    pub fn finish(&mut self) -> Vec<WindowResult<N>> {
        self.close_due(Time::MAX);
        self.poll_results()
    }

    /// Convenience: process a whole in-order batch, draining as windows
    /// close, and return all results — what one shard worker of a
    /// [`StreamExecutor`](crate::executor::StreamExecutor) does with zero
    /// slack.
    pub fn run(&mut self, events: &[Event]) -> Result<Vec<WindowResult<N>>, EngineError> {
        let mut out = Vec::new();
        for e in events {
            self.process_ref(&e.clone().into_ref())?;
            out.extend(self.poll_results());
        }
        out.extend(self.finish());
        Ok(out)
    }

    /// Serialize the engine's stream state (partitions with their graphs,
    /// the broadcast replay buffer, incremental per-window results, open
    /// windows, watermark, counters) into a snapshot blob. The plan is not
    /// in it: [`import_state`](Self::import_state) is handed the plan the
    /// blob was written under.
    pub fn export_state(&self) -> Vec<u8> {
        use crate::state::{encode_agg_state, encode_events, encode_key, encode_window_result};
        use greta_types::codec::{put_u32, put_u64};
        let mut out = Vec::new();
        out.push(ENGINE_STATE_VERSION);
        put_u64(&mut out, self.watermark.ticks());
        out.push(self.saw_event as u8);
        put_u64(&mut out, self.seq);
        put_u64(&mut out, self.stats.events);
        put_u64(&mut out, self.stats.vertices);
        put_u64(&mut out, self.stats.edges);
        put_u64(&mut out, self.stats.results);
        put_u64(&mut out, self.peak.peak() as u64);

        // Partitions, sorted by key for a deterministic blob.
        let ids = self.partitions.by_key();
        put_u32(&mut out, ids.len() as u32);
        for id in ids {
            encode_key(&self.partitions.keys[id], &mut out);
            self.partitions.parts[id].encode_state(&mut out);
        }

        encode_events(self.replay.iter().map(|(e, _)| e), &mut out);

        // The open windows, as the two sections the format has always
        // had: those with finals, then every id.
        let with_finals = || self.open.iter().filter(|(_, groups)| !groups.is_empty());
        put_u32(&mut out, with_finals().count() as u32);
        for (wid, groups) in with_finals() {
            put_u64(&mut out, *wid);
            let mut gkeys: Vec<&PartitionKey> = groups.keys().collect();
            gkeys.sort();
            put_u32(&mut out, gkeys.len() as u32);
            for g in gkeys {
                encode_key(g, &mut out);
                encode_agg_state(&groups[g], &mut out);
            }
        }
        put_u32(&mut out, self.open.len() as u32);
        for w in self.open.keys() {
            put_u64(&mut out, *w);
        }

        put_u32(&mut out, self.emitted.len() as u32);
        for row in &self.emitted {
            encode_window_result(row, &mut out);
        }
        out
    }

    /// Rebuild an engine from a blob written by
    /// [`export_state`](Self::export_state) under `plan` — the blob only
    /// carries the stream state. The restored engine continues the stream
    /// exactly where the exporter stopped: same results, same counters,
    /// same selection-semantics sequence numbers.
    pub fn import_state(plan: Arc<EnginePlan>, bytes: &[u8]) -> Result<Self, EngineError> {
        use crate::state::{decode_agg_state, decode_events, decode_key, decode_window_result};
        use greta_types::CodecError;
        let mut eng = Self::with_plan(plan);
        let r = &mut greta_types::Reader::new(bytes);
        let version = r.u8()?;
        if version != ENGINE_STATE_VERSION {
            return Err(CodecError(format!("unsupported engine-state version {version}")).into());
        }
        eng.watermark = Time(r.u64()?);
        eng.saw_event = r.u8()? != 0;
        eng.seq = r.u64()?;
        eng.stats.events = r.u64()?;
        eng.stats.vertices = r.u64()?;
        eng.stats.edges = r.u64()?;
        eng.stats.results = r.u64()?;
        eng.peak.observe(r.u64()? as usize);

        let n_group = eng.plan.query.group_by.len();
        let n_parts = r.seq_len(8)?;
        for _ in 0..n_parts {
            let key = decode_key(r)?;
            let part = Partition::decode_state(&eng.plan, key.group_prefix(n_group), r)?;
            eng.live_bytes += part.bytes();
            eng.partitions.insert(&eng.plan.routing, key, part);
        }

        for e in decode_events(r)? {
            let charge = shared_heap_size(&e);
            eng.replay_bytes += charge;
            eng.replay.push_back((e, charge));
        }

        let n_results = r.seq_len(12)?;
        for _ in 0..n_results {
            let wid = r.u64()?;
            let n_groups = r.seq_len(8)?;
            let mut groups = HashMap::with_capacity(n_groups);
            for _ in 0..n_groups {
                let g = decode_key(r)?;
                groups.insert(g, decode_agg_state(r)?);
            }
            eng.open.insert(wid, groups);
        }

        let n_touched = r.seq_len(8)?;
        for _ in 0..n_touched {
            eng.open.entry(r.u64()?).or_default();
        }

        let n_emitted = r.seq_len(9)?;
        for _ in 0..n_emitted {
            eng.emitted.push(decode_window_result(r)?);
        }
        if !r.is_empty() {
            return Err(CodecError(format!(
                "{} trailing bytes after engine state",
                r.remaining()
            ))
            .into());
        }
        eng.results_bytes = eng.open.values().map(groups_bytes).sum();
        Ok(eng)
    }

    /// Redistribute the state of several engines across a (possibly
    /// different) number of engines, moving whole groups: what recovery onto
    /// another shard count runs.
    ///
    /// `blobs` are [`export_state`](Self::export_state) snapshots of
    /// engines that together processed one partitioned stream under `plan`
    /// (each group owned by exactly one engine, broadcast events seen by
    /// all). `shard_of_group` maps a `GROUP-BY` prefix to its new owner in
    /// `0..new_shards`. Returns one ready-to-run engine per new shard, all
    /// sharing `plan` (nothing is recompiled, no re-serialization
    /// roundtrip), such that continuing the stream under the new assignment
    /// yields byte-identical results to never having moved anything:
    ///
    /// * partitions and their per-(window, group) incremental aggregates
    ///   follow their group atomically;
    /// * every new engine resumes from the **max** watermark / sequence
    ///   counter, so events released after the cut (which are ≥ every
    ///   engine's watermark) are accepted everywhere and new vertices never
    ///   sort below existing ones;
    /// * the broadcast replay buffer (identical on every source — broadcast
    ///   events reach all shards) is replicated to every new engine, so
    ///   partitions created later still observe past negative events;
    /// * engine counters are carried on the first new engine so the
    ///   *summed* stats across engines are preserved.
    pub fn repartition_states(
        plan: &Arc<EnginePlan>,
        blobs: &[Vec<u8>],
        new_shards: usize,
        mut shard_of_group: impl FnMut(&PartitionKey) -> usize,
    ) -> Result<Vec<Self>, EngineError> {
        if new_shards == 0 {
            return Err(EngineError::Config(
                "repartition_states needs ≥ 1 target shard".into(),
            ));
        }
        let olds = blobs
            .iter()
            .map(|b| Self::import_state(plan.clone(), b))
            .collect::<Result<Vec<Self>, _>>()?;
        let mut news: Vec<Self> = (0..new_shards)
            .map(|_| Self::with_plan(plan.clone()))
            .collect();

        let watermark = olds.iter().map(|e| e.watermark).max().unwrap_or(Time::ZERO);
        let saw_event = olds.iter().any(|e| e.saw_event);
        let seq = olds.iter().map(|e| e.seq).max().unwrap_or(0);
        let replay_src = olds.iter().max_by_key(|e| e.replay.len());
        for n in news.iter_mut() {
            n.watermark = watermark;
            n.saw_event = saw_event;
            n.seq = seq;
            if let Some(src) = replay_src {
                n.replay = src.replay.clone();
                n.replay_bytes = src.replay_bytes;
            }
        }

        let mut peak_sum = 0usize;
        for mut old in olds {
            let s0 = &mut news[0].stats;
            s0.events += old.stats.events;
            s0.vertices += old.stats.vertices;
            s0.edges += old.stats.edges;
            s0.results += old.stats.results;
            peak_sum += old.peak.peak();
            news[0].emitted.append(&mut old.emitted);
            for (key, part) in old.partitions.keys.into_iter().zip(old.partitions.parts) {
                let dest = &mut news[shard_of_group(&part.group) % new_shards];
                dest.live_bytes += part.bytes();
                dest.partitions.insert(&plan.routing, key, part);
            }
            for (wid, groups) in old.open {
                // Open windows close via the broadcast watermark on every
                // shard; emitting a window with no local groups is a no-op,
                // so replicating the union is always safe.
                for n in news.iter_mut() {
                    n.open.entry(wid).or_default();
                }
                for (group, st) in groups {
                    let n = &mut news[shard_of_group(&group) % new_shards];
                    let finals = n.open.entry(wid).or_default();
                    n.results_bytes += merge_group(finals, &group, &st, &plan.layout);
                }
            }
        }
        // Summed per-shard peaks are an executor-level metric; carry the
        // total on the first engine so the aggregate never shrinks.
        news[0].peak.observe(peak_sum);
        Ok(news)
    }
}

/// A new partition for `key`, shown the buffered broadcast events that
/// match it.
fn open_partition<N: TrendNum>(
    plan: &EnginePlan,
    key: &PartitionKey,
    replay: &VecDeque<(EventRef, usize)>,
    accs: &mut Vec<AggState<N>>,
) -> Partition<N> {
    let mut part = Partition::new(plan, key.group_prefix(plan.query.group_by.len()));
    let extractor = plan.routing.extractor();
    let matches = |old: &&EventRef| extractor.event_matches(old, key);
    for (i, old) in replay
        .iter()
        .map(|(old, _)| old)
        .filter(matches)
        .enumerate()
    {
        // Replayed events are historical; give them sequence numbers
        // below any live event's global index. Contiguous semantics is
        // approximate across replay (ARCHITECTURE.md, "Inside a shard
        // engine").
        part.process(plan, accs, old, i as u64, |_, _, _| {});
    }
    part
}

/// Merge `st` into `groups[group]`; the key is cloned only when the entry
/// is first created. Returns by how much [`groups_bytes`] of the map grew:
/// a new entry whole, a merge by what its carrier's heap gained (`BigUint`
/// limbs).
fn merge_group<N: TrendNum>(
    groups: &mut Groups<N>,
    group: &PartitionKey,
    st: &AggState<N>,
    layout: &AggLayout,
) -> usize {
    match groups.get_mut(group) {
        Some(slot) => {
            let before = slot.heap_size();
            slot.merge(st);
            slot.heap_size() - before
        }
        None => {
            let mut slot = AggState::zero(layout);
            slot.merge(st);
            let bytes = group_bytes(group, &slot);
            groups.insert(group.clone(), slot);
            bytes
        }
    }
}

/// Bytes one (group, aggregate) entry of a window's result map is charged.
fn group_bytes<N: TrendNum>(group: &PartitionKey, st: &AggState<N>) -> usize {
    group.heap_size() + st.heap_size() + 64
}

/// Bytes one window's result map is charged.
fn groups_bytes<N: TrendNum>(groups: &Groups<N>) -> usize {
    groups.iter().map(|(k, st)| group_bytes(k, st)).sum()
}

impl<N: TrendNum> MemoryFootprint for GretaEngine<N> {
    fn memory_bytes(&self) -> usize {
        debug_assert_eq!(
            self.results_bytes,
            self.open.values().map(groups_bytes).sum::<usize>()
        );
        self.live_bytes + self.results_bytes + self.replay_bytes
    }

    fn peak_memory_bytes(&self) -> usize {
        self.peak.peak()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greta_types::{EventBuilder, Value};

    fn reg_ab() -> SchemaRegistry {
        let mut r = SchemaRegistry::new();
        r.register_type("A", &["attr", "grp"]).unwrap();
        r.register_type("B", &["attr", "grp"]).unwrap();
        r.register_type("E", &["attr", "grp"]).unwrap();
        r
    }

    fn ev(r: &SchemaRegistry, ty: &str, t: u64, attr: f64, grp: i64) -> Event {
        EventBuilder::new(r, ty)
            .unwrap()
            .at(Time(t))
            .set("attr", attr)
            .unwrap()
            .set("grp", grp)
            .unwrap()
            .build()
    }

    #[test]
    fn example_1_all_aggregates() {
        // Figure 12: COUNT(*)=11, COUNT(A)=20, MIN=4, MAX=6, SUM=100, AVG=5.
        let r = reg_ab();
        let q = CompiledQuery::parse(
            "RETURN COUNT(*), COUNT(A), MIN(A.attr), MAX(A.attr), SUM(A.attr), AVG(A.attr) \
             PATTERN (SEQ(A+, B))+ WITHIN 100 SLIDE 100",
            &r,
        )
        .unwrap();
        let mut eng = GretaEngine::<u64>::new(q, r.clone()).unwrap();
        let evs = vec![
            ev(&r, "A", 1, 5.0, 0),
            ev(&r, "B", 2, 0.0, 0),
            ev(&r, "A", 3, 6.0, 0),
            ev(&r, "A", 4, 4.0, 0),
            ev(&r, "B", 7, 0.0, 0),
        ];
        let rows = eng.run(&evs).unwrap();
        assert_eq!(rows.len(), 1);
        let v: Vec<f64> = rows[0].values.iter().map(|x| x.to_f64()).collect();
        assert_eq!(v, vec![11.0, 20.0, 4.0, 6.0, 100.0, 5.0]);
    }

    #[test]
    fn grouping_partitions_results() {
        let r = reg_ab();
        let q = CompiledQuery::parse(
            "RETURN grp, COUNT(*) PATTERN A+ GROUP-BY grp WITHIN 100 SLIDE 100",
            &r,
        )
        .unwrap();
        let mut eng = GretaEngine::<u64>::new(q, r.clone()).unwrap();
        let evs = vec![
            ev(&r, "A", 1, 0.0, 1),
            ev(&r, "A", 2, 0.0, 2),
            ev(&r, "A", 3, 0.0, 1),
        ];
        let rows = eng.run(&evs).unwrap();
        assert_eq!(rows.len(), 2);
        // group 1: {a1}, {a3}, {a1,a3} = 3; group 2: {a2} = 1.
        let counts: Vec<f64> = rows.iter().map(|r| r.values[0].to_f64()).collect();
        assert_eq!(counts, vec![3.0, 1.0]);
        assert_eq!(eng.partition_count(), 2);
    }

    #[test]
    fn sliding_windows_share_the_graph() {
        // WITHIN 10 SLIDE 5 over a1 a3 a8: windows [0,10) and [5,15).
        // W0: trends over {a1,a3,a8} = 7; W1: {a8} = 1.
        let r = reg_ab();
        let q = CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 5", &r).unwrap();
        let mut eng = GretaEngine::<u64>::new(q, r.clone()).unwrap();
        let rows = eng
            .run(&[
                ev(&r, "A", 1, 0.0, 0),
                ev(&r, "A", 3, 0.0, 0),
                ev(&r, "A", 8, 0.0, 0),
            ])
            .unwrap();
        let mut by_window: Vec<(WindowId, f64)> = rows
            .iter()
            .map(|r| (r.window, r.values[0].to_f64()))
            .collect();
        by_window.sort_by_key(|a| a.0);
        assert_eq!(by_window, vec![(0, 7.0), (1, 1.0)]);
    }

    #[test]
    fn windows_close_incrementally_and_memory_shrinks() {
        let r = reg_ab();
        let q = CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10", &r).unwrap();
        let mut eng = GretaEngine::<u64>::new(q, r.clone()).unwrap();
        for t in 0..10 {
            eng.process_ref(&ev(&r, "A", t, 0.0, 0).into_ref()).unwrap();
        }
        assert!(eng.poll_results().is_empty()); // window not closed yet
        eng.process_ref(&ev(&r, "A", 25, 0.0, 0).into_ref())
            .unwrap();
        let rows = eng.poll_results();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values[0].to_f64(), 1023.0); // 2^10 - 1
                                                        // Old pane purged: memory bounded.
        assert!(eng.memory_bytes() < eng.peak_memory_bytes());
        let final_rows = eng.finish();
        assert_eq!(final_rows.len(), 1); // window of t=25
        assert_eq!(final_rows[0].values[0].to_f64(), 1.0);
    }

    #[test]
    fn out_of_order_rejected() {
        let r = reg_ab();
        let q = CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10", &r).unwrap();
        let mut eng = GretaEngine::<u64>::new(q, r.clone()).unwrap();
        eng.process_ref(&ev(&r, "A", 5, 0.0, 0).into_ref()).unwrap();
        let err = eng
            .process_ref(&ev(&r, "A", 3, 0.0, 0).into_ref())
            .unwrap_err();
        assert!(matches!(err, EngineError::OutOfOrder { .. }));
    }

    #[test]
    fn trailing_negation_defers_final() {
        // SEQ(A+, NOT E), Fig. 8(a): e3 marks the previous a's (a1, a2)
        // invalid — per Example 5 they are deleted, so they neither count
        // as END events at close nor connect to the later a4.
        let r = reg_ab();
        let q = CompiledQuery::parse(
            "RETURN COUNT(*) PATTERN SEQ(A+, NOT E) WITHIN 100 SLIDE 100",
            &r,
        )
        .unwrap();
        let mut eng = GretaEngine::<u64>::new(q, r.clone()).unwrap();
        let rows = eng
            .run(&[
                ev(&r, "A", 1, 0.0, 0),
                ev(&r, "A", 2, 0.0, 0),
                ev(&r, "E", 3, 0.0, 0),
                ev(&r, "A", 4, 0.0, 0),
            ])
            .unwrap();
        assert_eq!(rows.len(), 1);
        // Only a4 is a valid END at close and it has no valid predecessors:
        // final count = a4.count = 1.
        assert_eq!(rows[0].values[0].to_f64(), 1.0);
    }

    #[test]
    fn leading_negation_with_subkey_broadcast() {
        // Q3-style: accident lacks `vehicle`; positions partition by
        // (grp=segment, attr-ish vehicle). Accident must hit all matching
        // partitions.
        let mut r = SchemaRegistry::new();
        r.register_type("Accident", &["segment"]).unwrap();
        r.register_type("Position", &["vehicle", "segment"])
            .unwrap();
        let q = CompiledQuery::parse(
            "RETURN segment, COUNT(*) PATTERN SEQ(NOT Accident X, Position P+) \
             WHERE [P.vehicle, segment] GROUP-BY segment WITHIN 100 SLIDE 100",
            &r,
        )
        .unwrap();
        let mut eng = GretaEngine::<u64>::new(q, r.clone()).unwrap();
        let pos = |t: u64, v: i64, s: i64| {
            EventBuilder::new(&r, "Position")
                .unwrap()
                .at(Time(t))
                .set("vehicle", v)
                .unwrap()
                .set("segment", s)
                .unwrap()
                .build()
        };
        let acc = |t: u64, s: i64| {
            EventBuilder::new(&r, "Accident")
                .unwrap()
                .at(Time(t))
                .set("segment", s)
                .unwrap()
                .build()
        };
        let rows = eng
            .run(&[
                pos(1, 7, 1), // segment 1, vehicle 7
                acc(2, 1),    // accident in segment 1
                pos(3, 7, 1), // dropped (after accident)
                pos(4, 9, 1), // new partition (vehicle 9) — replay sees accident
                pos(5, 5, 2), // segment 2 unaffected
            ])
            .unwrap();
        // Segment 1: only the trend {pos(1)} (later positions dropped).
        // Segment 2: {pos(5)}.
        assert_eq!(rows.len(), 2);
        let counts: Vec<f64> = rows.iter().map(|x| x.values[0].to_f64()).collect();
        assert_eq!(counts, vec![1.0, 1.0]);
    }

    #[test]
    fn missing_partition_attr_on_root_type_rejected() {
        let mut r = SchemaRegistry::new();
        r.register_type("A", &["x"]).unwrap();
        let q = CompiledQuery::parse(
            "RETURN COUNT(*) PATTERN A+ WHERE [x] GROUP-BY x WITHIN 10 SLIDE 10",
            &r,
        )
        .unwrap();
        // x exists — fine.
        assert!(GretaEngine::<u64>::new(q, r.clone()).is_ok());
        let mut r2 = SchemaRegistry::new();
        r2.register_type("A", &["x"]).unwrap();
        r2.register_type("B", &["y"]).unwrap();
        let q2 = CompiledQuery::parse(
            "RETURN COUNT(*) PATTERN SEQ(A, B) GROUP-BY x WITHIN 10 SLIDE 10",
            &r2,
        )
        .unwrap();
        let err = GretaEngine::<u64>::new(q2, r2).map(|_| ()).unwrap_err();
        assert!(matches!(err, EngineError::PartitionAttr { .. }));
    }

    #[test]
    fn edge_predicate_filters_connections() {
        // A+ with attr strictly decreasing.
        let r = reg_ab();
        let q = CompiledQuery::parse(
            "RETURN COUNT(*) PATTERN A S+ WHERE S.attr > NEXT(S).attr WITHIN 100 SLIDE 100",
            &r,
        )
        .unwrap();
        let mut eng = GretaEngine::<u64>::new(q, r.clone()).unwrap();
        let rows = eng
            .run(&[
                ev(&r, "A", 1, 10.0, 0),
                ev(&r, "A", 2, 12.0, 0),
                ev(&r, "A", 3, 8.0, 0),
            ])
            .unwrap();
        // Down-trends: {a1},{a2},{a3},(a1,a3),(a2,a3) = 5.
        assert_eq!(rows[0].values[0].to_f64(), 5.0);
    }

    #[test]
    fn range_index_ablation_gives_same_results() {
        let r = reg_ab();
        let mk = || {
            CompiledQuery::parse(
                "RETURN COUNT(*) PATTERN A S+ WHERE S.attr > NEXT(S).attr WITHIN 100 SLIDE 100",
                &r,
            )
            .unwrap()
        };
        let evs: Vec<Event> = (0..30)
            .map(|i| ev(&r, "A", i, ((i * 37) % 19) as f64, 0))
            .collect();
        let mut e1 = GretaEngine::<u64>::new(mk(), r.clone()).unwrap();
        let mut e2 = GretaEngine::<u64>::with_config(
            mk(),
            r.clone(),
            EngineConfig {
                use_range_index: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(e1.run(&evs).unwrap(), e2.run(&evs).unwrap());
        // The switch is resolved at plan build: scanning instead of
        // range-querying finds the same predecessors, so the work counters
        // agree too, not only the rows.
        assert_eq!(e1.stats().vertices, e2.stats().vertices);
        assert_eq!(e1.stats().results, e2.stats().results);
    }

    #[test]
    fn export_import_resumes_mid_stream_exactly() {
        // Sliding windows + grouping + trailing negation (deferred finals)
        // + broadcast replay all survive a snapshot/restore round trip:
        // results and counters of (prefix → export → import → suffix) are
        // identical to an uninterrupted run, at every split point.
        let r = reg_ab();
        let q = CompiledQuery::parse(
            "RETURN grp, COUNT(*), SUM(A.attr) PATTERN SEQ(A+, NOT E) \
             GROUP-BY grp WITHIN 20 SLIDE 10",
            &r,
        )
        .unwrap();
        let events: Vec<Event> = (0..60u64)
            .map(|t| {
                let ty = if t % 9 == 5 { "E" } else { "A" };
                ev(&r, ty, t, ((t * 13) % 7) as f64, (t % 3) as i64)
            })
            .collect();
        let mut oracle = GretaEngine::<u64>::new(q.clone(), r.clone()).unwrap();
        let expect = oracle.run(&events).unwrap();
        for split in [0usize, 1, 17, 35, 59, 60] {
            let mut a = GretaEngine::<u64>::new(q.clone(), r.clone()).unwrap();
            let mut rows = Vec::new();
            for e in &events[..split] {
                a.process_ref(&e.clone().into_ref()).unwrap();
                rows.extend(a.poll_results());
            }
            let blob = a.export_state();
            let mut b = GretaEngine::<u64>::import_state(a.plan().clone(), &blob).unwrap();
            for e in &events[split..] {
                b.process_ref(&e.clone().into_ref()).unwrap();
                rows.extend(b.poll_results());
            }
            rows.extend(b.finish());
            assert_eq!(rows, expect, "split at {split}");
            assert_eq!(b.stats().events, a.stats().events + (60 - split) as u64);
            assert_eq!(b.stats().results, oracle.stats().results);
        }
    }

    #[test]
    fn repartition_moves_groups_between_engines_exactly() {
        // Split a grouped stream across 2 engines by grp parity, process a
        // prefix, repartition the two states onto 3 engines under a
        // different assignment (grp mod 3), process the suffix under the
        // new assignment — combined results and counters must match one
        // uninterrupted engine.
        let r = reg_ab();
        let q = CompiledQuery::parse(
            "RETURN grp, COUNT(*), SUM(A.attr) PATTERN SEQ(A+, NOT E) \
             GROUP-BY grp WITHIN 20 SLIDE 10",
            &r,
        )
        .unwrap();
        let events: Vec<Event> = (0..80u64)
            .map(|t| {
                let ty = if t % 9 == 5 { "E" } else { "A" };
                ev(&r, ty, t, ((t * 13) % 7) as f64, (t % 5) as i64)
            })
            .collect();
        let mut oracle = GretaEngine::<u64>::new(q.clone(), r.clone()).unwrap();
        let expect = oracle.run(&events).unwrap();
        let grp_of = |e: &Event| match e.attrs.last().unwrap() {
            greta_types::Value::Int(g) => *g,
            _ => unreachable!("grp is Int"),
        };

        let mut rows = Vec::new();
        let mut olds: Vec<GretaEngine<u64>> = (0..2)
            .map(|_| GretaEngine::new(q.clone(), r.clone()).unwrap())
            .collect();
        for e in &events[..40] {
            // "E" lacks no attrs here (full key) — route by parity.
            olds[(grp_of(e) % 2) as usize]
                .process_ref(&e.clone().into_ref())
                .unwrap();
            for eng in olds.iter_mut() {
                rows.extend(eng.poll_results());
            }
        }
        let blobs: Vec<Vec<u8>> = olds.iter().map(GretaEngine::export_state).collect();
        let plan = olds[0].plan().clone();
        let mut news =
            GretaEngine::<u64>::repartition_states(&plan, &blobs, 3, |g| match &g.0[0] {
                Some(greta_types::Value::Int(v)) => (*v % 3) as usize,
                _ => 0,
            })
            .unwrap();
        // One plan, however many engines: nothing was recompiled.
        assert!(news.iter().all(|e| Arc::ptr_eq(e.plan(), &plan)));
        assert_eq!(Arc::strong_count(&plan), 1 + 1 + news.len());
        for e in &events[40..] {
            news[(grp_of(e) % 3) as usize]
                .process_ref(&e.clone().into_ref())
                .unwrap();
            for eng in news.iter_mut() {
                rows.extend(eng.poll_results());
            }
        }
        let mut total_events = 0;
        for eng in news.iter_mut() {
            rows.extend(eng.finish());
            total_events += eng.stats().events;
        }
        rows.sort_by(|a, b| a.window.cmp(&b.window).then_with(|| a.group.cmp(&b.group)));
        let mut expect = expect;
        expect.sort_by(|a, b| a.window.cmp(&b.window).then_with(|| a.group.cmp(&b.group)));
        assert_eq!(rows, expect);
        // Summed counters are preserved across the repartition.
        assert_eq!(total_events, events.len() as u64);
    }

    #[test]
    fn a_broadcast_visits_exactly_the_matching_partitions() {
        // Q3's shape: positions partition by (segment, vehicle); an
        // accident carries the segment only and must reach every vehicle of
        // its segment and no other partition. Each partition it reaches
        // adds one vertex to that partition's negative graph.
        let mut r = SchemaRegistry::new();
        r.register_type("Accident", &["segment"]).unwrap();
        r.register_type("Position", &["vehicle", "segment"])
            .unwrap();
        let q = CompiledQuery::parse(
            "RETURN segment, COUNT(*) PATTERN SEQ(NOT Accident X, Position P+) \
             WHERE [P.vehicle, segment] GROUP-BY segment WITHIN 1000 SLIDE 1000",
            &r,
        )
        .unwrap();
        let mut eng = GretaEngine::<u64>::new(q, r.clone()).unwrap();
        let segment = |s: i64| match s % 3 {
            0 => Value::Int(s),
            1 => Value::Float(s as f64),
            _ => Value::from(format!("s{s}")),
        };
        let mut t = 0;
        let mut feed = |ty: &str, vals: &[(&str, Value)]| {
            t += 1;
            let mut b = EventBuilder::new(&r, ty).unwrap().at(Time(t));
            for (a, v) in vals {
                b = b.set(a, v.clone()).unwrap();
            }
            let before = eng.stats().vertices;
            eng.process_ref(&b.build().into_ref()).unwrap();
            eng.stats().vertices - before
        };
        for v in 0..40i64 {
            let s = v % 7;
            feed(
                "Position",
                &[("vehicle", Value::Int(v)), ("segment", segment(s))],
            );
        }
        for s in 0..9i64 {
            // Segments 7 and 8 have no partition; an `Int` segment matches
            // the partitions a `Float` of equal value opened.
            let probe = if s % 3 == 1 {
                Value::Int(s)
            } else {
                segment(s)
            };
            let matching = (0..40).filter(|v| v % 7 == s).count() as u64;
            assert_eq!(
                feed("Accident", &[("segment", probe)]),
                matching,
                "segment {s}"
            );
        }
        assert_eq!(eng.partition_count(), 40);
        // The index lists exactly the brute-force matches.
        let routing = &eng.plan.routing;
        let acc = EventBuilder::new(&r, "Accident").unwrap();
        let acc = acc.set("segment", segment(2)).unwrap().build();
        let slab = &eng.partitions;
        let mask = routing.mask_of(acc.type_id);
        let h = routing.extractor().event_hash(&acc);
        let mut via_index: Vec<usize> = slab.index[mask].chain(h).collect();
        via_index.sort_unstable();
        let key = routing.extractor().key_of(&acc);
        let brute: Vec<usize> = (0..slab.keys.len())
            .filter(|&id| key.matches(&slab.keys[id]))
            .collect();
        assert_eq!(via_index, brute);
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// FNV-1a 64 of an engine's `export_state` blob after `events`, and the
    /// blob's length.
    fn blob_digest(text: &str, r: &SchemaRegistry, events: &[Event]) -> (u64, usize) {
        let q = CompiledQuery::parse(text, r).unwrap();
        let mut eng = GretaEngine::<u64>::new(q, r.clone()).unwrap();
        for e in events {
            eng.process_ref(&e.clone().into_ref()).unwrap();
        }
        let blob = eng.export_state();
        (fnv1a(&blob), blob.len())
    }

    /// The first pinned stream: a positive query over sliding windows with
    /// an edge predicate, and its 48 events.
    const PINNED_Q1: &str = "RETURN grp, COUNT(*), SUM(S.attr), MIN(S.attr) PATTERN A S+ \
         WHERE [grp] AND S.attr > NEXT(S).attr GROUP-BY grp WITHIN 20 SLIDE 5";

    fn pinned_stream(r: &SchemaRegistry, other: &str) -> Vec<Event> {
        (0..48u64)
            .map(|t| {
                let ty = if t % 7 == 3 { other } else { "A" };
                ev(r, ty, t, ((t * 13) % 7) as f64, (t % 3) as i64)
            })
            .collect()
    }

    #[test]
    fn export_state_bytes_are_pinned_across_commits() {
        // Round trips prove a blob can be read back by the code that wrote
        // it; this proves the bytes did not move. Three fixed streams,
        // exported mid-stream with closed windows' rows still undrained:
        // a positive query over sliding windows with an edge predicate,
        // trailing negation (deferred finals), and leading negation with a
        // sub-key broadcast type (replay buffer, late-created partitions).
        // What is pinned is the record grammar (the lengths: they have not
        // moved since commit 86deefa) and the canonical record order —
        // partitions by key; a graph's vertices by pane, then state, then
        // `(sort key, seq)`. The digests were recorded when that order
        // replaced the slab-id order of b7ea7c9 and before, whose blobs
        // still import
        // (`a_blob_written_before_the_run_layout_imports_and_continues`);
        // they also cover the peak-memory reading the blob carries, which
        // fell with the charge per vertex. A change of a length is a
        // snapshot-format change and needs a version bump, not a new
        // constant; so does a new digest for bytes an importer of this
        // version could not read.
        let r = reg_ab();
        assert_eq!(
            blob_digest(PINNED_Q1, &r, &pinned_stream(&r, "A")),
            (PINNED_Q1_DIGEST, 6329)
        );
        assert_eq!(
            blob_digest(
                "RETURN grp, COUNT(*) PATTERN SEQ(A+, NOT E) GROUP-BY grp WITHIN 20 SLIDE 10",
                &r,
                &pinned_stream(&r, "E"),
            ),
            (13_643_123_703_393_432_663, 2509)
        );

        let mut r3 = SchemaRegistry::new();
        r3.register_type("Accident", &["segment"]).unwrap();
        r3.register_type("Position", &["vehicle", "segment"])
            .unwrap();
        let q3: Vec<Event> = (0..48u64)
            .map(|t| {
                let b = |ty| EventBuilder::new(&r3, ty).unwrap().at(Time(t));
                let segment = (t % 2) as i64;
                if t % 11 == 5 {
                    b("Accident").set("segment", segment).unwrap().build()
                } else {
                    let p = b("Position").set("vehicle", (t % 5) as i64).unwrap();
                    p.set("segment", segment).unwrap().build()
                }
            })
            .collect();
        assert_eq!(
            blob_digest(
                "RETURN segment, COUNT(*) PATTERN SEQ(NOT Accident X, Position P+) \
                 WHERE [P.vehicle, segment] GROUP-BY segment WITHIN 20 SLIDE 10",
                &r3,
                &q3,
            ),
            (17_037_076_917_590_881_296, 1305)
        );
    }

    const PINNED_Q1_DIGEST: u64 = 15_503_567_870_960_022_561;

    #[test]
    fn a_blob_written_before_the_run_layout_imports_and_continues() {
        // The upgrade path, stated as a recoverable prefix: the blob the
        // parent commit (b7ea7c9, vertices in slab-id order) exported after
        // the first pinned stream is a valid prefix for this code. It
        // imports, re-exports as the canonical bytes this code writes for
        // the same stream, and continues the stream to the rows an engine
        // that never stopped emits.
        let hex = include_str!("../tests/fixtures/engine_state_v2_b7ea7c9.hex");
        let digits: Vec<u8> = hex.bytes().filter(u8::is_ascii_hexdigit).collect();
        let nibble = |d: u8| (d as char).to_digit(16).unwrap() as u8;
        let parent_blob: Vec<u8> = digits
            .chunks(2)
            .map(|d| nibble(d[0]) << 4 | nibble(d[1]))
            .collect();
        assert_eq!(parent_blob.len(), 6329);
        assert_eq!(fnv1a(&parent_blob), 4_819_433_092_787_681_635);

        let r = reg_ab();
        let q = CompiledQuery::parse(PINNED_Q1, &r).unwrap();
        let prefix = pinned_stream(&r, "A");
        let suffix: Vec<Event> = (48..96u64)
            .map(|t| ev(&r, "A", t, ((t * 13) % 7) as f64, (t % 3) as i64))
            .collect();
        let feed = |eng: &mut GretaEngine<u64>, events: &[Event]| {
            let mut rows = Vec::new();
            for e in events {
                eng.process_ref(&e.clone().into_ref()).unwrap();
                rows.extend(eng.poll_results());
            }
            rows
        };

        // Like the parent's exporter: the prefix's rows are still undrained.
        let mut uninterrupted = GretaEngine::<u64>::new(q.clone(), r.clone()).unwrap();
        for e in &prefix {
            uninterrupted.process_ref(&e.clone().into_ref()).unwrap();
        }
        let canonical = uninterrupted.export_state();
        let mut expect = uninterrupted.poll_results();
        expect.extend(feed(&mut uninterrupted, &suffix));
        expect.extend(uninterrupted.finish());

        let plan = uninterrupted.plan().clone();
        let mut upgraded = GretaEngine::<u64>::import_state(plan, &parent_blob).unwrap();
        // Byte for byte but for one field: the blob carries the exporter's
        // peak-memory reading (8 bytes after the version, watermark, flag
        // and five counters), a measurement the parent took with its own,
        // larger charge per vertex, and a peak never falls.
        let reexported = upgraded.export_state();
        let peak_at = 1 + 8 + 1 + 5 * 8;
        let but_peak = |b: &[u8]| [&b[..peak_at], &b[peak_at + 8..]].concat();
        assert!(but_peak(&reexported) == but_peak(&canonical));
        assert!(upgraded.peak_memory_bytes() > uninterrupted.peak_memory_bytes());
        let mut rows = upgraded.poll_results();
        rows.extend(feed(&mut upgraded, &suffix));
        rows.extend(upgraded.finish());
        assert!(!rows.is_empty());
        assert_eq!(rows, expect);
        assert_eq!(upgraded.stats().edges, uninterrupted.stats().edges);
        assert_eq!(upgraded.memory_bytes(), uninterrupted.memory_bytes());
    }

    #[test]
    fn import_rejects_garbage() {
        let r = reg_ab();
        let q = CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10", &r).unwrap();
        // Truncated blob.
        let eng = GretaEngine::<u64>::new(q.clone(), r.clone()).unwrap();
        let blob = eng.export_state();
        let import = |bytes: &[u8]| GretaEngine::<u64>::import_state(eng.plan().clone(), bytes);
        for cut in [0, 1, blob.len() / 2] {
            assert!(import(&blob[..cut]).is_err());
        }
        assert!(import(&blob).is_ok());
        // A blob written under another query's plan: `SEQ(A, B)` has a
        // vertex state `A+` does not.
        let seq = CompiledQuery::parse("RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 SLIDE 10", &r);
        let mut other = GretaEngine::<u64>::new(seq.unwrap(), r.clone()).unwrap();
        for (ty, t) in [("A", 1), ("B", 2)] {
            other
                .process_ref(&ev(&r, ty, t, 0.0, 0).into_ref())
                .unwrap();
        }
        let err = import(&other.export_state()).map(|_| ()).unwrap_err();
        assert!(
            err.to_string().contains("vertex state 1 out of range"),
            "{err}"
        );
    }

    #[test]
    fn import_refuses_an_unknown_version() {
        let r = reg_ab();
        let q = CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10", &r).unwrap();
        let eng = GretaEngine::<u64>::new(q, r).unwrap();
        let mut blob = eng.export_state();
        assert_eq!(blob[0], ENGINE_STATE_VERSION);
        blob[0] = ENGINE_STATE_VERSION + 1;
        let err = GretaEngine::<u64>::import_state(eng.plan().clone(), &blob)
            .map(|_| ())
            .unwrap_err()
            .to_string();
        let expect = format!(
            "unsupported engine-state version {}",
            ENGINE_STATE_VERSION + 1
        );
        assert!(err.contains(&expect), "{err}");
    }

    #[test]
    fn stats_populated() {
        let r = reg_ab();
        let q = CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10", &r).unwrap();
        let mut eng = GretaEngine::<u64>::new(q, r.clone()).unwrap();
        eng.run(&[ev(&r, "A", 1, 0.0, 0), ev(&r, "A", 2, 0.0, 0)])
            .unwrap();
        let s = eng.stats();
        assert_eq!(s.events, 2);
        assert_eq!(s.vertices, 2);
        assert_eq!(s.edges, 1);
        assert_eq!(s.results, 1);
    }
}
