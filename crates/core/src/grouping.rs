//! Stream partitioning: `GROUP-BY` attributes + equivalence predicates
//! (paper §6). Each partition maintains its own GRETA graphs; final
//! aggregates are reported per **group** (the `GROUP-BY` projection of the
//! partition key).

use greta_query::CompiledQuery;
use greta_types::{AttrId, Event, SchemaRegistry, TypeId, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A partition / group key: attribute values in `partition_attrs` order.
/// `None` marks an attribute the event's type does not carry (sub-key
/// semantics for negative-pattern types, e.g. `Accident` lacking `vehicle`
/// in query Q3).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PartitionKey(pub Vec<Option<Value>>);

impl PartialOrd for PartitionKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PartitionKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            let ord = match (a, b) {
                (None, None) => Ordering::Equal,
                (None, Some(_)) => Ordering::Less,
                (Some(_), None) => Ordering::Greater,
                (Some(x), Some(y)) => x.total_cmp(y),
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

impl PartitionKey {
    /// True when `self` (a sub-key) matches `other` on every attribute both
    /// define.
    pub fn matches(&self, other: &PartitionKey) -> bool {
        self.0
            .iter()
            .zip(other.0.iter())
            .all(|(a, b)| match (a, b) {
                (Some(x), Some(y)) => x == y,
                _ => true,
            })
    }

    /// Hash of the attributes `mask` selects, slot by slot as
    /// [`KeyExtractor::event_hash`] reads them off an event whose type
    /// carries exactly those: a stored key and an event with equal values
    /// there hash equally.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub(crate) fn hash_on(&self, mask: &[bool]) -> u64 {
        let mut h = DefaultHasher::new();
        for (v, _) in self.0.iter().zip(mask).filter(|(_, m)| **m) {
            hash_group_slot(&mut h, v.as_ref());
        }
        h.finish()
    }

    /// Project onto the first `n` attributes (the `GROUP-BY` prefix).
    pub fn group_prefix(&self, n: usize) -> PartitionKey {
        PartitionKey(self.0.iter().take(n).cloned().collect())
    }

    /// Render as a display string (`sector=Tech, company=IBM`).
    pub fn display_with(&self, attrs: &[String]) -> String {
        if self.0.is_empty() {
            return String::from("()");
        }
        let parts: Vec<String> = self
            .0
            .iter()
            .zip(attrs.iter())
            .map(|(v, a)| match v {
                Some(v) => format!("{a}={v}"),
                None => format!("{a}=*"),
            })
            .collect();
        parts.join(", ")
    }

    /// Approximate heap size (memory accounting).
    pub fn heap_size(&self) -> usize {
        self.0.len() * std::mem::size_of::<Option<Value>>()
            + self
                .0
                .iter()
                .flatten()
                .map(|v| match v {
                    Value::Str(s) => s.len(),
                    _ => 0,
                })
                .sum::<usize>()
    }
}

/// Pre-resolved partition-attribute lookup: for each event type, the
/// attribute index of every partition attribute (or `None` if the type
/// lacks it). The table is dense by `TypeId` — schema names are resolved
/// **once** at plan time, and the per-event lookup is an array index, not
/// a hash (compiled attribute accessors).
#[derive(Debug, Clone, Default)]
pub struct KeyExtractor {
    /// `TypeId.0` → attribute slots; `None` for types outside the query.
    per_type: Vec<Option<Box<[Option<AttrId>]>>>,
    n_attrs: usize,
}

impl KeyExtractor {
    /// Build the extractor for a compiled query: resolves every partition
    /// attribute on every event type appearing in any graph.
    pub fn new(query: &CompiledQuery, reg: &SchemaRegistry) -> KeyExtractor {
        let mut per_type: Vec<Option<Box<[Option<AttrId>]>>> = Vec::new();
        for alt in &query.alternatives {
            for g in &alt.graphs {
                for (_, tid) in &g.state_types {
                    let ti = tid.0 as usize;
                    if per_type.len() <= ti {
                        per_type.resize(ti + 1, None);
                    }
                    if per_type[ti].is_none() {
                        let schema = reg.schema(*tid);
                        per_type[ti] = Some(
                            query
                                .partition_attrs
                                .iter()
                                .map(|a| schema.attr(a))
                                .collect(),
                        );
                    }
                }
            }
        }
        KeyExtractor {
            per_type,
            n_attrs: query.partition_attrs.len(),
        }
    }

    /// Resolved attribute slots of a type, if it appears in the query.
    #[inline]
    fn slots_of(&self, ty: TypeId) -> Option<&[Option<AttrId>]> {
        self.per_type.get(ty.0 as usize).and_then(|s| s.as_deref())
    }

    /// Extract the (sub-)key of an event.
    pub fn key_of(&self, e: &Event) -> PartitionKey {
        self.key_prefix_of(e, self.n_attrs)
    }

    /// Extract only the leading `n` attributes of the (sub-)key (the
    /// `GROUP-BY` prefix) without materializing the full key.
    pub fn key_prefix_of(&self, e: &Event, n: usize) -> PartitionKey {
        match self.slots_of(e.type_id) {
            Some(slots) => PartitionKey(
                slots
                    .iter()
                    .take(n)
                    .map(|s| s.map(|a| e.attr(a).clone()))
                    .collect(),
            ),
            None => PartitionKey(vec![None; self.n_attrs.min(n)]),
        }
    }

    /// Hash of the partition attributes `e`'s type carries, straight off the
    /// event: [`PartitionKey::hash_on`] of any key that agrees with `e` on
    /// them, under the type's mask. No key is built.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub(crate) fn event_hash(&self, e: &Event) -> u64 {
        let mut h = DefaultHasher::new();
        for a in self.slots_of(e.type_id).into_iter().flatten().flatten() {
            hash_group_slot(&mut h, Some(e.attr(*a)));
        }
        h.finish()
    }

    /// `self.key_of(e).matches(key)`, compared in place: `key` agrees with
    /// `e` on every partition attribute `e`'s type carries.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub(crate) fn event_matches(&self, e: &Event, key: &PartitionKey) -> bool {
        let slots = self.slots_of(e.type_id).unwrap_or_default();
        slots.iter().zip(&key.0).all(|(s, v)| match (s, v) {
            (Some(a), Some(v)) => v == e.attr(*a),
            _ => true,
        })
    }

    /// True when the event's type carries **all** partition attributes
    /// (complete key ⇒ the event belongs to exactly one partition).
    pub fn has_full_key(&self, ty: TypeId) -> bool {
        self.slots_of(ty)
            .is_none_or(|slots| slots.iter().all(Option::is_some))
    }

    /// Number of partition attributes.
    pub fn n_attrs(&self) -> usize {
        self.n_attrs
    }
}

/// Feed one group-key slot (present value or sub-key hole) into the
/// routing hash. The single definition both [`group_key_hash`] (off a
/// materialized key) and [`StreamRouting::group_hash`] (straight off an
/// event) encode through — they can never drift apart.
#[inline]
fn hash_group_slot(h: &mut DefaultHasher, v: Option<&Value>) {
    match v {
        Some(v) => {
            h.write_u8(1);
            v.hash(h);
        }
        None => h.write_u8(0),
    }
}

/// The deterministic 64-bit hash of a materialized group key. This is the
/// *routing hash*: [`StreamRouting::group_hash`] produces bit-identical
/// values straight off an event (no key materialization), and the shard
/// assignment keys on it, so the hot routing path never has to allocate a
/// [`PartitionKey`].
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
fn group_key_hash(key: &PartitionKey) -> u64 {
    let mut h = DefaultHasher::new();
    for v in &key.0 {
        hash_group_slot(&mut h, v.as_ref());
    }
    h.finish()
}

/// The shard assignment of a routing hash: the deterministic
/// `hash % shards` every group routes by. Single definition shared by the
/// event router and state repartitioning — they can never drift.
#[inline]
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
fn shard_of_hash(h: u64, shards: usize) -> usize {
    (h % shards.max(1) as u64) as usize
}

/// Unified routing view of a compiled query, shared by [`GretaEngine`]
/// (partition creation/broadcast) and the [`StreamExecutor`] so both
/// layers classify events identically. A hosted query's routing is built
/// (and its §6 precondition checked) once, with its
/// [`EnginePlan`](crate::graph::EnginePlan):
///
/// * **root types** appear in the root (positive) graph and carry the full
///   partition key — each such event belongs to exactly one partition and,
///   under sharding, exactly one shard;
/// * **broadcast types** appear only outside the root graph *or* carry a
///   sub-key (negative-pattern types such as `Accident` in Q3) — they must
///   be delivered to every matching partition, hence to every shard.
///
/// [`GretaEngine`]: crate::GretaEngine
/// [`StreamExecutor`]: crate::executor::StreamExecutor
#[derive(Debug, Clone)]
pub struct StreamRouting {
    extractor: KeyExtractor,
    /// Dense by `TypeId`: the per-event classification is an array index.
    root_types: Vec<bool>,
    broadcast_types: Vec<bool>,
    /// The distinct sets of partition attributes that root and broadcast
    /// types carry, as masks over the key; mask 0 is the full key.
    masks: Vec<Box<[bool]>>,
    /// Dense by `TypeId`: the number of the mask a root or broadcast type
    /// carries (0 for every other type).
    mask_of: Vec<usize>,
    n_group: usize,
}

impl StreamRouting {
    /// Classify every event type of `query`.
    pub fn new(query: &CompiledQuery, registry: &SchemaRegistry) -> StreamRouting {
        let extractor = KeyExtractor::new(query, registry);
        // The extractor's table spans every type of every graph.
        let mut root = vec![false; extractor.per_type.len()];
        let mut broadcast = root.clone();
        for alt in &query.alternatives {
            for (_, tid) in &alt.graphs[0].state_types {
                root[tid.0 as usize] = true;
            }
        }
        let graphs = query.alternatives.iter().flat_map(|alt| &alt.graphs);
        for (_, tid) in graphs.flat_map(|g| &g.state_types) {
            broadcast[tid.0 as usize] = !root[tid.0 as usize] || !extractor.has_full_key(*tid);
        }
        let mut masks: Vec<Box<[bool]>> = vec![vec![true; extractor.n_attrs].into()];
        let mut mask_of = vec![0; broadcast.len()];
        for (ty, slots) in extractor.per_type.iter().enumerate() {
            let Some(slots) = slots.as_deref().filter(|_| broadcast[ty]) else {
                continue;
            };
            let mask: Box<[bool]> = slots.iter().map(Option::is_some).collect();
            mask_of[ty] = masks.iter().position(|m| *m == mask).unwrap_or(masks.len());
            if mask_of[ty] == masks.len() {
                masks.push(mask);
            }
        }
        StreamRouting {
            extractor,
            root_types: root,
            broadcast_types: broadcast,
            masks,
            mask_of,
            n_group: query.group_by.len(),
        }
    }

    /// The key masks root and broadcast types carry (0: the full key).
    pub(crate) fn masks(&self) -> &[Box<[bool]>] {
        &self.masks
    }

    /// The number of the mask a root or broadcast type carries.
    pub(crate) fn mask_of(&self, ty: TypeId) -> usize {
        self.mask_of.get(ty.0 as usize).copied().unwrap_or(0)
    }

    /// The partition-key extractor.
    pub fn extractor(&self) -> &KeyExtractor {
        &self.extractor
    }

    /// True for root-graph types carrying the full key.
    pub fn is_root(&self, ty: TypeId) -> bool {
        let i = ty.0 as usize;
        self.root_types.get(i).copied().unwrap_or(false)
            && !self.broadcast_types.get(i).copied().unwrap_or(false)
    }

    /// True for types that must reach every shard.
    pub fn is_broadcast(&self, ty: TypeId) -> bool {
        self.broadcast_types
            .get(ty.0 as usize)
            .copied()
            .unwrap_or(false)
    }

    /// The event's `GROUP-BY` projection of the partition key.
    pub fn group_key(&self, e: &Event) -> PartitionKey {
        self.extractor.key_prefix_of(e, self.n_group)
    }

    /// Routing hash of the event's `GROUP-BY` group, computed straight off
    /// the event — bit-identical to hashing the materialized
    /// [`group_key`](Self::group_key), with no allocation. This one value
    /// drives the shard assignment (`hash % shards`).
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn group_hash(&self, e: &Event) -> u64 {
        let mut h = DefaultHasher::new();
        match self.extractor.slots_of(e.type_id) {
            Some(slots) => {
                for s in slots.iter().take(self.n_group) {
                    hash_group_slot(&mut h, s.map(|a| e.attr(a)));
                }
            }
            None => {
                for _ in 0..self.n_group.min(self.extractor.n_attrs) {
                    hash_group_slot(&mut h, None);
                }
            }
        }
        h.finish()
    }

    /// Shard owning the event's group, or `None` when the event must be
    /// broadcast. Deterministic for a given key and shard count, so the
    /// same stream always shards identically. The group values are hashed
    /// straight out of the event — no key is materialized per event.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn shard_of(&self, e: &Event, shards: usize) -> Option<usize> {
        if self.is_broadcast(e.type_id) {
            return None;
        }
        Some(shard_of_hash(self.group_hash(e), shards))
    }

    /// Hash a *materialized* group key to a shard, bit-identical to the
    /// off-event path of [`shard_of`](Self::shard_of): a key produced by
    /// [`group_key`](Self::group_key) lands on the same shard whichever
    /// entry point hashed it. Recovery onto another shard count
    /// repartitions engine state by it.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn shard_of_group_key(&self, key: &PartitionKey, shards: usize) -> usize {
        shard_of_hash(group_key_hash(key), shards)
    }

    /// True when `other` routes every event exactly like `self`: the same
    /// broadcast classification per event type and the same `GROUP-BY`
    /// attribute slots (so [`group_hash`](Self::group_hash) agrees on every
    /// event). Queries whose routings agree this way can share one routed
    /// event plane inside a multi-query
    /// executor: each event is classified and hashed once for the whole
    /// set.
    pub fn routes_like(&self, other: &StreamRouting) -> bool {
        self.n_group == other.n_group
            && self.root_types == other.root_types
            && self.broadcast_types == other.broadcast_types
            && self.extractor.n_attrs == other.extractor.n_attrs
            && self.extractor.per_type == other.extractor.per_type
    }
}

/// A `Hasher` that passes a `u64` through: the keys of an [`IdIndex`] are
/// hashes already.
#[derive(Default)]
pub(crate) struct Identity(u64);

impl Hasher for Identity {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(*b);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// Chain terminator of an [`IdIndex`].
const END: u32 = u32::MAX;

/// Slab ids filed under a 64-bit hash, chained through the slab: `heads`
/// maps a hash to the newest id filed under it, `next[id]` to the id filed
/// before it under the same hash. Filing costs no allocation beyond the
/// amortised growth of the two containers.
#[derive(Debug, Default)]
pub(crate) struct IdIndex {
    heads: HashMap<u64, u32, BuildHasherDefault<Identity>>,
    next: Vec<u32>,
}

impl IdIndex {
    /// File `id` — the next slab id, one past the last filed — under `h`.
    pub(crate) fn file(&mut self, h: u64, id: u32) {
        debug_assert_eq!(self.next.len(), id as usize);
        self.next.push(self.heads.insert(h, id).unwrap_or(END));
    }

    /// The ids filed under `h`, newest first; a hash collision may add ids
    /// whose key differs.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub(crate) fn chain(&self, h: u64) -> impl Iterator<Item = usize> + '_ {
        let head = self.heads.get(&h).copied();
        let next = |id: &u32| Some(self.next[*id as usize]).filter(|n| *n != END);
        std::iter::successors(head, next).map(|id| id as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greta_query::CompiledQuery;
    use greta_types::{EventBuilder, SchemaRegistry};

    fn q3_setup() -> (SchemaRegistry, CompiledQuery) {
        let mut reg = SchemaRegistry::new();
        reg.register_type("Accident", &["segment"]).unwrap();
        reg.register_type("Position", &["vehicle", "segment", "speed"])
            .unwrap();
        let q = CompiledQuery::parse(
            "RETURN segment, COUNT(*) PATTERN SEQ(NOT Accident A, Position P+) \
             WHERE [P.vehicle, segment] GROUP-BY segment WITHIN 300 SLIDE 60",
            &reg,
        )
        .unwrap();
        (reg, q)
    }

    #[test]
    fn full_and_partial_keys() {
        let (reg, q) = q3_setup();
        let ex = KeyExtractor::new(&q, &reg);
        assert_eq!(q.partition_attrs, vec!["segment", "vehicle"]);

        let p = EventBuilder::new(&reg, "Position")
            .unwrap()
            .set("vehicle", 7)
            .unwrap()
            .set("segment", 3)
            .unwrap()
            .build();
        let key = ex.key_of(&p);
        assert_eq!(
            key,
            PartitionKey(vec![Some(Value::Int(3)), Some(Value::Int(7))])
        );
        assert!(ex.has_full_key(p.type_id));

        let a = EventBuilder::new(&reg, "Accident")
            .unwrap()
            .set("segment", 3)
            .unwrap()
            .build();
        let akey = ex.key_of(&a);
        assert_eq!(akey, PartitionKey(vec![Some(Value::Int(3)), None]));
        assert!(!ex.has_full_key(a.type_id));
        // The accident's sub-key matches the position's partition.
        assert!(akey.matches(&key));
    }

    #[test]
    fn subkey_matching() {
        let a = PartitionKey(vec![Some(Value::Int(1)), None]);
        let b = PartitionKey(vec![Some(Value::Int(1)), Some(Value::Int(2))]);
        let c = PartitionKey(vec![Some(Value::Int(9)), Some(Value::Int(2))]);
        assert!(a.matches(&b));
        assert!(b.matches(&a));
        assert!(!b.matches(&c));
        assert!(!a.matches(&c));
    }

    #[test]
    fn group_prefix_projection() {
        let k = PartitionKey(vec![
            Some(Value::Int(1)),
            Some(Value::Int(2)),
            Some(Value::Int(3)),
        ]);
        assert_eq!(k.group_prefix(1), PartitionKey(vec![Some(Value::Int(1))]));
        assert_eq!(k.group_prefix(0), PartitionKey(vec![]));
    }

    #[test]
    fn display() {
        let k = PartitionKey(vec![Some(Value::from("Tech")), None]);
        assert_eq!(
            k.display_with(&["sector".into(), "company".into()]),
            "sector=Tech, company=*"
        );
        assert_eq!(PartitionKey::default().display_with(&[]), "()");
    }

    #[test]
    fn routing_classifies_and_shards_deterministically() {
        let (reg, q) = q3_setup();
        let routing = StreamRouting::new(&q, &reg);
        let acc_id = reg.type_id("Accident").unwrap();
        let pos_id = reg.type_id("Position").unwrap();
        assert!(routing.is_broadcast(acc_id));
        assert!(!routing.is_root(acc_id));
        assert!(routing.is_root(pos_id));
        let p = EventBuilder::new(&reg, "Position")
            .unwrap()
            .set("vehicle", 7)
            .unwrap()
            .set("segment", 3)
            .unwrap()
            .build();
        let a = EventBuilder::new(&reg, "Accident")
            .unwrap()
            .set("segment", 3)
            .unwrap()
            .build();
        assert_eq!(routing.shard_of(&a, 4), None); // broadcast
        let s = routing.shard_of(&p, 4).unwrap();
        assert!(s < 4);
        // Deterministic: same event, same shard, every time.
        for _ in 0..10 {
            assert_eq!(routing.shard_of(&p, 4), Some(s));
        }
        // GROUP-BY projection keeps only the leading `segment`.
        assert_eq!(routing.group_key(&p).0.len(), 1);
    }

    #[test]
    fn materialized_group_key_hashes_to_same_shard_as_event() {
        let (reg, q) = q3_setup();
        let routing = StreamRouting::new(&q, &reg);
        for (vehicle, segment) in [(1, 1), (7, 3), (200, 15), (0, 0)] {
            let p = EventBuilder::new(&reg, "Position")
                .unwrap()
                .set("vehicle", vehicle)
                .unwrap()
                .set("segment", segment)
                .unwrap()
                .build();
            for shards in [1usize, 2, 4, 7] {
                assert_eq!(
                    routing.shard_of(&p, shards),
                    Some(routing.shard_of_group_key(&routing.group_key(&p), shards)),
                    "vehicle={vehicle} segment={segment} shards={shards}"
                );
            }
            // The off-event routing hash is bit-identical to hashing the
            // materialized key: the router and a repartition keyed on
            // either can never disagree.
            assert_eq!(
                routing.group_hash(&p),
                group_key_hash(&routing.group_key(&p)),
                "vehicle={vehicle} segment={segment}"
            );
        }
    }

    #[test]
    fn event_hash_equals_stored_key_hash_for_every_key_shape() {
        // A root type carrying the full key (a, b, c) and three broadcast
        // types carrying {b}, {a, c} and nothing: four masks.
        let mut reg = SchemaRegistry::new();
        reg.register_type("R", &["c", "b", "a", "v"]).unwrap();
        reg.register_type("S", &["b"]).unwrap();
        reg.register_type("T", &["a", "c"]).unwrap();
        reg.register_type("U", &["v"]).unwrap();
        let q = CompiledQuery::parse(
            "RETURN a, COUNT(*) PATTERN SEQ(NOT S X, NOT U Z, R P+, NOT T Y) \
             WHERE [a, b, c] GROUP-BY a WITHIN 10 SLIDE 10",
            &reg,
        )
        .unwrap();
        let routing = StreamRouting::new(&q, &reg);
        let ex = routing.extractor();
        let ty = |name: &str| reg.type_id(name).unwrap();
        assert_eq!(routing.mask_of(ty("R")), 0);
        let masks: Vec<&[bool]> = ["R", "S", "T", "U"]
            .map(|name| &*routing.masks()[routing.mask_of(ty(name))])
            .to_vec();
        let expect: [&[bool]; 4] = [
            &[true, true, true],
            &[false, true, false],
            &[true, false, true],
            &[false, false, false],
        ];
        assert_eq!(masks, expect);
        assert_eq!(routing.masks().len(), 4);

        let event = |name: &str, vals: &[Value]| {
            let attrs = reg.schema(ty(name)).attributes.len();
            let mut all = vec![Value::Int(0); attrs];
            for (a, v) in ["a", "b", "c"].iter().zip(vals) {
                if let Some(slot) = reg.schema(ty(name)).attr(a) {
                    all[slot.0 as usize] = v.clone();
                }
            }
            Event::new_unchecked(ty(name), greta_types::Time(0), all)
        };
        let p53 = 1i64 << 53;
        let shapes: [[Value; 3]; 7] = [
            [Value::Int(3), Value::Int(-7), Value::Int(0)],
            [Value::from("north"), Value::Int(12), Value::from("")],
            [Value::Float(2.5), Value::from("x"), Value::Float(-0.0)],
            [
                Value::Int(i64::MAX),
                Value::Float(f64::NAN),
                Value::from("ü"),
            ],
            [Value::Bool(true), Value::Int(1), Value::Float(1e300)],
            // The neighbours of 2^53, where an `Int` stops being a float.
            [Value::Int(p53), Value::Int(p53 + 1), Value::Int(p53 - 1)],
            [
                Value::Int(-p53 - 1),
                Value::Float(p53 as f64),
                Value::Int(i64::MIN),
            ],
        ];
        for vals in &shapes {
            let key = ex.key_of(&event("R", vals));
            for name in ["R", "S", "T", "U"] {
                let e = event(name, vals);
                let mask = &routing.masks()[routing.mask_of(e.type_id)];
                assert_eq!(ex.event_hash(&e), key.hash_on(mask), "{name} {vals:?}");
                assert!(ex.event_matches(&e, &key), "{name} {vals:?}");
                assert!(ex.key_of(&e).matches(&key));
            }
        }
        // Equal values of two numeric kinds are one key value: an `Int`
        // event probes the partition a `Float` opened, and vice versa.
        let int = event("R", &[Value::Int(4), Value::Int(5), Value::Int(6)]);
        let float = event(
            "R",
            &[Value::Float(4.0), Value::Float(5.0), Value::Float(6.0)],
        );
        assert_eq!(ex.event_hash(&int), ex.key_of(&float).hash_on(&[true; 3]));
        assert!(ex.event_matches(&int, &ex.key_of(&float)));
        // Nor do two integers that round to one float.
        let above = event("R", &[Value::Int(p53 + 1), Value::Int(5), Value::Int(6)]);
        let at = event(
            "R",
            &[Value::Float(p53 as f64), Value::Int(5), Value::Int(6)],
        );
        assert_ne!(ex.event_hash(&above), ex.key_of(&at).hash_on(&[true; 3]));
        assert!(!ex.event_matches(&above, &ex.key_of(&at)));
        // A differing value on a carried attribute does not match.
        let other = event("S", &[Value::Int(4), Value::Int(9), Value::Int(6)]);
        assert!(!ex.event_matches(&other, &ex.key_of(&int)));
    }
}
