//! Events: time-stamped, typed tuples of attribute values (paper §2).

use crate::schema::{AttrId, SchemaRegistry, TypeId};
use crate::time::Time;
use crate::value::Value;
use crate::TypeError;
use std::fmt;
use std::sync::Arc;

/// A shared, immutable handle to an [`Event`].
///
/// The runtime allocates an event **once** at ingestion and shares it by
/// reference everywhere after: the reorder buffer, shard frames, broadcast
/// fan-out and the engines' broadcast replay buffers hold `EventRef`s, so a
/// broadcast to N shards is N pointer clones instead of N deep copies.
/// Graph vertices hold none: a vertex keeps only the values its edge
/// predicates read. `EventRef` derefs to [`Event`], so read-side code is
/// unchanged.
pub type EventRef = Arc<Event>;

/// A primitive event on the stream.
///
/// Events are immutable once built; the GRETA runtime stores each event at
/// most once per template state (paper §4.2: "each event is stored once").
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Occurrence time assigned by the event source.
    pub time: Time,
    /// Interned event type.
    pub type_id: TypeId,
    /// Attribute values in schema order.
    pub attrs: Box<[Value]>,
}

impl Event {
    /// Build an event, checking arity against the schema.
    pub fn new(
        registry: &SchemaRegistry,
        type_id: TypeId,
        time: Time,
        attrs: Vec<Value>,
    ) -> Result<Event, TypeError> {
        let schema = registry.schema(type_id);
        if schema.attributes.len() != attrs.len() {
            return Err(TypeError::ArityMismatch {
                ty: schema.name.clone(),
                expected: schema.attributes.len(),
                got: attrs.len(),
            });
        }
        Ok(Event {
            time,
            type_id,
            attrs: attrs.into_boxed_slice(),
        })
    }

    /// Build an event without schema validation (hot path in generators).
    #[inline]
    pub fn new_unchecked(type_id: TypeId, time: Time, attrs: Vec<Value>) -> Event {
        Event {
            time,
            type_id,
            attrs: attrs.into_boxed_slice(),
        }
    }

    /// Move this event behind a shared [`EventRef`] (the one allocation of
    /// the zero-copy event plane).
    #[inline]
    pub fn into_ref(self) -> EventRef {
        Arc::new(self)
    }

    /// Attribute value by index.
    #[inline]
    pub fn attr(&self, id: AttrId) -> &Value {
        &self.attrs[id.0 as usize]
    }

    /// Heap + inline size of this event in bytes (used by the memory
    /// accounting of §10.1's *memory* metric).
    pub fn heap_size(&self) -> usize {
        std::mem::size_of::<Event>()
            + self.attrs.len() * std::mem::size_of::<Value>()
            + self
                .attrs
                .iter()
                .map(|v| match v {
                    Value::Str(s) => s.len(),
                    _ => 0,
                })
                .sum::<usize>()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e[{} @{}](", self.type_id.0, self.time)?;
        for (i, v) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Fluent builder for events, resolving names through a [`SchemaRegistry`].
///
/// ```
/// use greta_types::{SchemaRegistry, EventBuilder, Time};
/// let mut reg = SchemaRegistry::new();
/// reg.register_type("Stock", &["price", "company"]).unwrap();
/// let e = EventBuilder::new(&reg, "Stock").unwrap()
///     .at(Time(3))
///     .set("price", 101.5).unwrap()
///     .set("company", "IBM").unwrap()
///     .build();
/// assert_eq!(e.time, Time(3));
/// ```
#[derive(Debug)]
pub struct EventBuilder<'r> {
    registry: &'r SchemaRegistry,
    type_id: TypeId,
    time: Time,
    attrs: Vec<Value>,
}

impl<'r> EventBuilder<'r> {
    /// Start building an event of the named type. All attributes default to
    /// `Int(0)` until set.
    pub fn new(registry: &'r SchemaRegistry, type_name: &str) -> Result<Self, TypeError> {
        let type_id = registry.type_id(type_name)?;
        let arity = registry.schema(type_id).attributes.len();
        Ok(EventBuilder {
            registry,
            type_id,
            time: Time::ZERO,
            attrs: vec![Value::Int(0); arity],
        })
    }

    /// Set the occurrence time.
    pub fn at(mut self, time: Time) -> Self {
        self.time = time;
        self
    }

    /// Set an attribute by name.
    pub fn set(mut self, attr: &str, value: impl Into<Value>) -> Result<Self, TypeError> {
        let schema = self.registry.schema(self.type_id);
        let aid = schema.attr(attr).ok_or_else(|| TypeError::UnknownAttr {
            ty: schema.name.clone(),
            attr: attr.to_string(),
        })?;
        self.attrs[aid.0 as usize] = value.into();
        Ok(self)
    }

    /// Finish, producing the event.
    pub fn build(self) -> Event {
        Event::new_unchecked(self.type_id, self.time, self.attrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> SchemaRegistry {
        let mut r = SchemaRegistry::new();
        r.register_type("Stock", &["price", "company"]).unwrap();
        r
    }

    #[test]
    fn arity_checked() {
        let r = reg();
        let tid = r.type_id("Stock").unwrap();
        let err = Event::new(&r, tid, Time(1), vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(
            err,
            TypeError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
        let ok = Event::new(&r, tid, Time(1), vec![Value::Int(1), "IBM".into()]).unwrap();
        assert_eq!(ok.attr(AttrId(1)).as_str(), Some("IBM"));
    }

    #[test]
    fn builder_resolves_names() {
        let r = reg();
        let e = EventBuilder::new(&r, "Stock")
            .unwrap()
            .at(Time(9))
            .set("price", 42.5)
            .unwrap()
            .build();
        assert_eq!(e.time, Time(9));
        assert_eq!(e.attr(AttrId(0)).as_f64(), 42.5);
        // Unset attribute defaults to 0.
        assert_eq!(e.attr(AttrId(1)), &Value::Int(0));
    }

    #[test]
    fn builder_rejects_unknown() {
        let r = reg();
        assert!(EventBuilder::new(&r, "Nope").is_err());
        let err = EventBuilder::new(&r, "Stock")
            .unwrap()
            .set("nope", 1)
            .unwrap_err();
        assert!(matches!(err, TypeError::UnknownAttr { .. }));
    }

    #[test]
    fn heap_size_counts_strings() {
        let r = reg();
        let short = EventBuilder::new(&r, "Stock").unwrap().build();
        let long = EventBuilder::new(&r, "Stock")
            .unwrap()
            .set("company", "A_RATHER_LONG_COMPANY_NAME")
            .unwrap()
            .build();
        assert!(long.heap_size() > short.heap_size());
    }
}
