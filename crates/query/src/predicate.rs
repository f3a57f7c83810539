//! Compiled predicates (paper §6).
//!
//! The query analyzer classifies `WHERE` conjuncts into:
//!
//! * **vertex predicates** — evaluated on single events before insertion
//!   (local filters; equivalence predicates become partition attributes);
//! * **edge predicates** — evaluated on pairs of adjacent events during
//!   graph construction. When an edge predicate is linear in one attribute
//!   of the *previous* event (`prev.attr · s + c ⟨op⟩ f(next)`), a
//!   [`RangeForm`] is extracted so the runtime can answer predecessor
//!   lookups with a Vertex-Tree range query instead of a scan (Fig. 11).

use crate::ast::{BinOp, CmpOp};
use greta_types::{AttrId, Event, Value};
use std::borrow::Cow;

use crate::template::StateId;

/// Which event an attribute reference reads in a compiled expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventRole {
    /// The earlier of the two adjacent events (edge predicates only).
    Prev,
    /// The event under evaluation (vertex predicates) / the later adjacent
    /// event (edge predicates; `NEXT(E).attr`).
    Cur,
}

/// Expression with attribute references resolved to `(role, AttrId)`.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledExpr {
    /// Literal.
    Const(Value),
    /// Attribute read.
    Attr(EventRole, AttrId),
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<CompiledExpr>,
        /// Right operand.
        rhs: Box<CompiledExpr>,
    },
}

impl CompiledExpr {
    /// Evaluate to a value. `prev` holds the values `Prev` attribute reads
    /// index — an event's `attrs`, or the projection a graph vertex keeps —
    /// and may be absent for vertex predicates.
    pub fn eval(&self, prev: Option<&[Value]>, cur: &Event) -> Value {
        self.eval_ref(prev, cur).into_owned()
    }

    /// Allocation-free evaluation core: attribute and constant leaves are
    /// *borrowed* from the event / expression (no `Value::Str` clones on
    /// the hot path); only computed `Bin` results are owned.
    fn eval_ref<'a>(&'a self, prev: Option<&'a [Value]>, cur: &'a Event) -> Cow<'a, Value> {
        match self {
            CompiledExpr::Const(v) => Cow::Borrowed(v),
            CompiledExpr::Attr(EventRole::Cur, a) => Cow::Borrowed(cur.attr(*a)),
            CompiledExpr::Attr(EventRole::Prev, a) => match prev {
                Some(p) => Cow::Borrowed(&p[a.0 as usize]),
                None => Cow::Owned(Value::Bool(false)),
            },
            CompiledExpr::Bin { op, lhs, rhs } => {
                let l = lhs.eval_ref(prev, cur);
                let r = rhs.eval_ref(prev, cur);
                Cow::Owned(match op {
                    BinOp::Add => Value::Float(l.as_f64() + r.as_f64()),
                    BinOp::Sub => Value::Float(l.as_f64() - r.as_f64()),
                    BinOp::Mul => Value::Float(l.as_f64() * r.as_f64()),
                    BinOp::Div => Value::Float(l.as_f64() / r.as_f64()),
                    BinOp::Mod => Value::Float(l.as_f64() % r.as_f64()),
                    BinOp::And => Value::Bool(truthy(&l) && truthy(&r)),
                    BinOp::Or => Value::Bool(truthy(&l) || truthy(&r)),
                    BinOp::Cmp(c) => Value::Bool(c.eval(l.total_cmp(&r))),
                })
            }
        }
    }

    /// Evaluate as a boolean predicate (no allocation).
    pub fn eval_bool(&self, prev: Option<&[Value]>, cur: &Event) -> bool {
        truthy(&self.eval_ref(prev, cur))
    }

    /// Evaluate as a number (no allocation).
    pub fn eval_f64(&self, prev: Option<&[Value]>, cur: &Event) -> f64 {
        self.eval_ref(prev, cur).as_f64()
    }

    /// True when the expression reads the given role.
    pub fn uses_role(&self, role: EventRole) -> bool {
        match self {
            CompiledExpr::Const(_) => false,
            CompiledExpr::Attr(r, _) => *r == role,
            CompiledExpr::Bin { lhs, rhs, .. } => lhs.uses_role(role) || rhs.uses_role(role),
        }
    }

    /// Add every attribute the expression reads from the `Prev` event to
    /// `out`, once each, keeping `out` ascending.
    pub fn prev_attrs(&self, out: &mut Vec<AttrId>) {
        match self {
            CompiledExpr::Const(_) | CompiledExpr::Attr(EventRole::Cur, _) => {}
            CompiledExpr::Attr(EventRole::Prev, a) => {
                if let Err(at) = out.binary_search(a) {
                    out.insert(at, *a);
                }
            }
            CompiledExpr::Bin { lhs, rhs, .. } => {
                lhs.prev_attrs(out);
                rhs.prev_attrs(out);
            }
        }
    }

    /// The expression over a projection of the `Prev` event: each `Prev`
    /// read of attribute `projection[i]` becomes a read of position `i`.
    /// `projection` must hold every attribute [`prev_attrs`](Self::prev_attrs)
    /// reports.
    pub fn over_projection(&self, projection: &[AttrId]) -> CompiledExpr {
        match self {
            CompiledExpr::Attr(EventRole::Prev, a) => {
                let at = projection
                    .iter()
                    .position(|p| p == a)
                    .expect("the projection holds every Prev attribute read");
                CompiledExpr::Attr(EventRole::Prev, AttrId(at as u16))
            }
            CompiledExpr::Bin { op, lhs, rhs } => CompiledExpr::Bin {
                op: *op,
                lhs: Box::new(lhs.over_projection(projection)),
                rhs: Box::new(rhs.over_projection(projection)),
            },
            other => other.clone(),
        }
    }
}

fn truthy(v: &Value) -> bool {
    match v {
        Value::Bool(b) => *b,
        Value::Int(i) => *i != 0,
        Value::Float(f) => *f != 0.0,
        Value::Str(s) => !s.is_empty(),
    }
}

/// A local filter on events of one template state.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexPredicate {
    /// State whose events are filtered.
    pub state: StateId,
    /// Predicate over the single event (all refs have role `Cur`).
    pub expr: CompiledExpr,
}

/// Linear range form of an edge predicate:
/// `prev.attr · scale + shift ⟨op⟩ eval(bound_expr, next)`.
///
/// The runtime computes `bound = (eval(bound_expr) − shift) / scale` and
/// issues `prev.attr ⟨op'⟩ bound` as a Vertex-Tree range query, where
/// `op'` is `op` flipped when `scale < 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeForm {
    /// Attribute of the previous event indexed by the Vertex Tree.
    pub prev_attr: AttrId,
    /// Comparison operator.
    pub op: CmpOp,
    /// The next-event side (roles restricted to `Cur`).
    pub bound_expr: CompiledExpr,
    /// Multiplicative coefficient on `prev.attr`.
    pub scale: f64,
    /// Additive coefficient.
    pub shift: f64,
}

impl RangeForm {
    /// Resolve the concrete bound and operator for a given next event.
    pub fn bound(&self, next: &Event) -> (CmpOp, f64) {
        let raw = self.bound_expr.eval_f64(None, next);
        let bound = (raw - self.shift) / self.scale;
        let op = if self.scale < 0.0 {
            self.op.flip()
        } else {
            self.op
        };
        (op, bound)
    }
}

/// A compiled edge predicate between two template states.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgePredicate {
    /// State of the earlier event.
    pub prev_state: StateId,
    /// State of the later event.
    pub next_state: StateId,
    /// Full predicate (`Prev` reads the earlier event, `Cur` the later).
    pub expr: CompiledExpr,
    /// Range form, if the predicate is linear in one prev attribute.
    pub range: Option<RangeForm>,
}

/// All compiled predicates of one query alternative.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PredicateSet {
    /// Partition attribute names (`GROUP-BY` + equivalence predicates);
    /// per-type resolution happens in `greta-core`.
    pub partition_attrs: Vec<String>,
    /// Local vertex filters.
    pub vertex: Vec<VertexPredicate>,
    /// Edge predicates.
    pub edges: Vec<EdgePredicate>,
}

impl PredicateSet {
    /// Vertex predicates of a state.
    pub fn vertex_preds(&self, s: StateId) -> impl Iterator<Item = &VertexPredicate> {
        self.vertex.iter().filter(move |v| v.state == s)
    }

    /// Edge predicates for a `(prev, next)` state pair.
    pub fn edge_preds(&self, prev: StateId, next: StateId) -> impl Iterator<Item = &EdgePredicate> {
        self.edges
            .iter()
            .filter(move |e| e.prev_state == prev && e.next_state == next)
    }
}

/// Try to express a `Prev`-side expression as `attr · scale + shift`.
/// Returns `None` when the expression is not linear in exactly one
/// attribute of the previous event.
pub fn linearize_prev(e: &CompiledExpr) -> Option<(AttrId, f64, f64)> {
    let lin = lin(e)?;
    lin.attr.map(|a| (a, lin.scale, lin.shift))
}

struct Lin {
    attr: Option<AttrId>,
    scale: f64,
    shift: f64,
}

fn lin(e: &CompiledExpr) -> Option<Lin> {
    match e {
        CompiledExpr::Const(v) => v.as_f64_opt().map(|c| Lin {
            attr: None,
            scale: 0.0,
            shift: c,
        }),
        CompiledExpr::Attr(EventRole::Prev, a) => Some(Lin {
            attr: Some(*a),
            scale: 1.0,
            shift: 0.0,
        }),
        CompiledExpr::Attr(EventRole::Cur, _) => None,
        CompiledExpr::Bin { op, lhs, rhs } => {
            let l = lin(lhs)?;
            let r = lin(rhs)?;
            match op {
                BinOp::Add => combine(l, r, 1.0),
                BinOp::Sub => combine(l, r, -1.0),
                BinOp::Mul => {
                    // one side must be constant
                    if l.attr.is_none() {
                        Some(Lin {
                            attr: r.attr,
                            scale: r.scale * l.shift,
                            shift: r.shift * l.shift,
                        })
                    } else if r.attr.is_none() {
                        Some(Lin {
                            attr: l.attr,
                            scale: l.scale * r.shift,
                            shift: l.shift * r.shift,
                        })
                    } else {
                        None
                    }
                }
                BinOp::Div => {
                    if r.attr.is_none() && r.shift != 0.0 {
                        Some(Lin {
                            attr: l.attr,
                            scale: l.scale / r.shift,
                            shift: l.shift / r.shift,
                        })
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
    }
}

fn combine(l: Lin, r: Lin, sign: f64) -> Option<Lin> {
    match (l.attr, r.attr) {
        (Some(a), None) => Some(Lin {
            attr: Some(a),
            scale: l.scale,
            shift: l.shift + sign * r.shift,
        }),
        (None, Some(a)) => Some(Lin {
            attr: Some(a),
            scale: sign * r.scale,
            shift: l.shift + sign * r.shift,
        }),
        (None, None) => Some(Lin {
            attr: None,
            scale: 0.0,
            shift: l.shift + sign * r.shift,
        }),
        (Some(_), Some(_)) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greta_types::{SchemaRegistry, Time};

    fn setup() -> (SchemaRegistry, Event, Event) {
        let mut reg = SchemaRegistry::new();
        let t = reg.register_type("S", &["price", "volume"]).unwrap();
        let prev = Event::new_unchecked(t, Time(1), vec![Value::Float(10.0), Value::Int(100)]);
        let next = Event::new_unchecked(t, Time(2), vec![Value::Float(8.0), Value::Int(50)]);
        (reg, prev, next)
    }

    fn attr(role: EventRole, i: u16) -> CompiledExpr {
        CompiledExpr::Attr(role, AttrId(i))
    }

    #[test]
    fn eval_arithmetic_and_comparison() {
        let (_, prev, next) = setup();
        // prev.price > next.price  (10 > 8)
        let e = CompiledExpr::Bin {
            op: BinOp::Cmp(CmpOp::Gt),
            lhs: Box::new(attr(EventRole::Prev, 0)),
            rhs: Box::new(attr(EventRole::Cur, 0)),
        };
        assert!(e.eval_bool(Some(&prev.attrs), &next));
        // prev.price * 0.5 > next.price  (5 > 8) = false
        let e = CompiledExpr::Bin {
            op: BinOp::Cmp(CmpOp::Gt),
            lhs: Box::new(CompiledExpr::Bin {
                op: BinOp::Mul,
                lhs: Box::new(attr(EventRole::Prev, 0)),
                rhs: Box::new(CompiledExpr::Const(Value::Float(0.5))),
            }),
            rhs: Box::new(attr(EventRole::Cur, 0)),
        };
        assert!(!e.eval_bool(Some(&prev.attrs), &next));
    }

    #[test]
    fn eval_logic() {
        let (_, _, next) = setup();
        let t = CompiledExpr::Const(Value::Bool(true));
        let f = CompiledExpr::Const(Value::Bool(false));
        let and = CompiledExpr::Bin {
            op: BinOp::And,
            lhs: Box::new(t.clone()),
            rhs: Box::new(f.clone()),
        };
        assert!(!and.eval_bool(None, &next));
        let or = CompiledExpr::Bin {
            op: BinOp::Or,
            lhs: Box::new(t),
            rhs: Box::new(f),
        };
        assert!(or.eval_bool(None, &next));
    }

    #[test]
    fn roles_detected() {
        let e = CompiledExpr::Bin {
            op: BinOp::Cmp(CmpOp::Lt),
            lhs: Box::new(attr(EventRole::Prev, 0)),
            rhs: Box::new(attr(EventRole::Cur, 1)),
        };
        assert!(e.uses_role(EventRole::Prev));
        assert!(e.uses_role(EventRole::Cur));
        assert!(!CompiledExpr::Const(Value::Int(1)).uses_role(EventRole::Prev));
    }

    #[test]
    fn a_projected_expression_reads_the_projection() {
        // prev.volume * prev.price > next.price, over the projection
        // [price, volume]: (10 · 100 > 8) either way.
        let (_, prev, next) = setup();
        let e = CompiledExpr::Bin {
            op: BinOp::Cmp(CmpOp::Gt),
            lhs: Box::new(CompiledExpr::Bin {
                op: BinOp::Mul,
                lhs: Box::new(attr(EventRole::Prev, 1)),
                rhs: Box::new(attr(EventRole::Prev, 0)),
            }),
            rhs: Box::new(attr(EventRole::Cur, 0)),
        };
        let mut read = Vec::new();
        e.prev_attrs(&mut read);
        attr(EventRole::Prev, 1).prev_attrs(&mut read);
        attr(EventRole::Cur, 2).prev_attrs(&mut read);
        assert_eq!(read, vec![AttrId(0), AttrId(1)]);
        // Only the volume, at position 0 of its projection.
        let volume_only = attr(EventRole::Prev, 1).over_projection(&[AttrId(1)]);
        assert_eq!(volume_only, attr(EventRole::Prev, 0));
        assert_eq!(
            volume_only.eval(Some(&[Value::Int(100)]), &next),
            Value::Int(100)
        );
        let projected = e.over_projection(&read);
        let values: Vec<Value> = read.iter().map(|a| prev.attr(*a).clone()).collect();
        assert!(projected.eval_bool(Some(&values), &next));
        assert!(e.eval_bool(Some(&prev.attrs), &next));
    }

    #[test]
    fn linearize_simple_attr() {
        let (a, s, c) = linearize_prev(&attr(EventRole::Prev, 0)).unwrap();
        assert_eq!((a, s, c), (AttrId(0), 1.0, 0.0));
    }

    #[test]
    fn linearize_scaled_shifted() {
        // prev.price * 1.05 + 2
        let e = CompiledExpr::Bin {
            op: BinOp::Add,
            lhs: Box::new(CompiledExpr::Bin {
                op: BinOp::Mul,
                lhs: Box::new(attr(EventRole::Prev, 0)),
                rhs: Box::new(CompiledExpr::Const(Value::Float(1.05))),
            }),
            rhs: Box::new(CompiledExpr::Const(Value::Int(2))),
        };
        let (a, s, c) = linearize_prev(&e).unwrap();
        assert_eq!(a, AttrId(0));
        assert!((s - 1.05).abs() < 1e-12);
        assert_eq!(c, 2.0);
    }

    #[test]
    fn linearize_rejects_nonlinear() {
        // prev.price * prev.volume
        let e = CompiledExpr::Bin {
            op: BinOp::Mul,
            lhs: Box::new(attr(EventRole::Prev, 0)),
            rhs: Box::new(attr(EventRole::Prev, 1)),
        };
        assert!(linearize_prev(&e).is_none());
        // expression referencing next
        assert!(linearize_prev(&attr(EventRole::Cur, 0)).is_none());
    }

    #[test]
    fn range_form_bound() {
        let (_, _, next) = setup();
        // prev.price * 2 < next.price  ⇒ prev.price < next.price / 2 = 4
        let rf = RangeForm {
            prev_attr: AttrId(0),
            op: CmpOp::Lt,
            bound_expr: attr(EventRole::Cur, 0),
            scale: 2.0,
            shift: 0.0,
        };
        let (op, b) = rf.bound(&next);
        assert_eq!(op, CmpOp::Lt);
        assert_eq!(b, 4.0);
        // negative scale flips the operator
        let rf = RangeForm { scale: -1.0, ..rf };
        let (op, b) = rf.bound(&next);
        assert_eq!(op, CmpOp::Gt);
        assert_eq!(b, -8.0);
    }

    #[test]
    fn predicate_set_lookup() {
        let mut set = PredicateSet::default();
        set.vertex.push(VertexPredicate {
            state: StateId(0),
            expr: CompiledExpr::Const(Value::Bool(true)),
        });
        set.edges.push(EdgePredicate {
            prev_state: StateId(0),
            next_state: StateId(1),
            expr: CompiledExpr::Const(Value::Bool(true)),
            range: None,
        });
        assert_eq!(set.vertex_preds(StateId(0)).count(), 1);
        assert_eq!(set.vertex_preds(StateId(1)).count(), 0);
        assert_eq!(set.edge_preds(StateId(0), StateId(1)).count(), 1);
        assert_eq!(set.edge_preds(StateId(1), StateId(0)).count(), 0);
    }
}
