//! Static GRETA template (paper §4.1, Algorithm 1).
//!
//! A positive pattern is translated into a finite-state-automaton-like
//! *template*: states correspond to event-type **occurrences** in the
//! pattern (unique [`StateId`]s support the multiple-occurrence extension of
//! §9 / Fig. 13), transitions correspond to the operators:
//!
//! * `SEQ(Pi, Pj)`  ⇒ transition `end(Pi) → start(Pj)` labeled `SEQ`
//! * `Pi+`          ⇒ transition `end(Pi) → start(Pi)` labeled `+`
//!
//! Events of the start (end) state's type are START (END) events; states may
//! be both. `predecessors(s)` lists the states whose events may immediately
//! precede an event of state `s` in a trend — the runtime connects events
//! along exactly these state pairs.

use crate::ast::Pattern;
use crate::error::QueryError;
use std::fmt;

/// Dense id of a template state (one per event-type occurrence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StateId(pub u16);

/// Transition label (paper Algorithm 1: `SEQ` or `+`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TransKind {
    /// Adjacency across an event sequence operator.
    Seq,
    /// Loop-back adjacency of a Kleene plus.
    Plus,
}

/// A *located* pattern: the AST restricted to `Type`/`Plus`/`Seq`/`Not`
/// (after desugaring) with a unique [`StateId`] stamped on every type leaf.
/// Ids are global across the whole pattern, including leaves inside `NOT`,
/// so that the split algorithm (§5.1) can reference parent states.
#[derive(Debug, Clone, PartialEq)]
pub enum LPattern {
    /// Event type occurrence.
    Type {
        /// Unique occurrence id (becomes the state id).
        occ: StateId,
        /// Schema type name.
        name: String,
        /// Alias binding (defaults to the type name).
        binding: String,
    },
    /// Kleene plus.
    Plus(Box<LPattern>),
    /// Event sequence (n-ary).
    Seq(Vec<LPattern>),
    /// Negative sub-pattern.
    Not(Box<LPattern>),
}

impl LPattern {
    /// Stamp occurrence ids onto a desugared pattern (leaf order).
    pub fn locate(p: &Pattern) -> Result<LPattern, QueryError> {
        let mut next = 0u16;
        Self::locate_inner(p, &mut next)
    }

    fn locate_inner(p: &Pattern, next: &mut u16) -> Result<LPattern, QueryError> {
        match p {
            Pattern::Type { name, alias } => {
                let occ = StateId(*next);
                *next += 1;
                Ok(LPattern::Type {
                    occ,
                    name: name.clone(),
                    binding: alias.clone().unwrap_or_else(|| name.clone()),
                })
            }
            Pattern::Plus(q) => Ok(LPattern::Plus(Box::new(Self::locate_inner(q, next)?))),
            Pattern::Seq(ps) => Ok(LPattern::Seq(
                ps.iter()
                    .map(|q| Self::locate_inner(q, next))
                    .collect::<Result<_, _>>()?,
            )),
            Pattern::Not(q) => Ok(LPattern::Not(Box::new(Self::locate_inner(q, next)?))),
            other => Err(QueryError::InvalidPattern(format!(
                "pattern must be desugared before template construction, found `{other}`"
            ))),
        }
    }

    /// `start(P)` of Algorithm 1 (lines 10–14): the occurrence that begins
    /// every trend of this (positive part of the) pattern.
    pub fn start(&self) -> StateId {
        match self {
            LPattern::Type { occ, .. } => *occ,
            LPattern::Plus(p) => p.start(),
            LPattern::Seq(ps) => ps
                .iter()
                .find(|p| !matches!(p, LPattern::Not(_)))
                .expect("validated: sequence has a positive element")
                .start(),
            LPattern::Not(p) => p.start(),
        }
    }

    /// `end(P)` of Algorithm 1 (lines 15–19).
    pub fn end(&self) -> StateId {
        match self {
            LPattern::Type { occ, .. } => *occ,
            LPattern::Plus(p) => p.end(),
            LPattern::Seq(ps) => ps
                .iter()
                .rev()
                .find(|p| !matches!(p, LPattern::Not(_)))
                .expect("validated: sequence has a positive element")
                .end(),
            LPattern::Not(p) => p.end(),
        }
    }

    /// True if this located pattern contains no `Not`.
    pub fn is_positive(&self) -> bool {
        match self {
            LPattern::Type { .. } => true,
            LPattern::Plus(p) => p.is_positive(),
            LPattern::Seq(ps) => ps.iter().all(LPattern::is_positive),
            LPattern::Not(_) => false,
        }
    }
}

impl fmt::Display for LPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LPattern::Type { name, binding, .. } => {
                if binding == name {
                    write!(f, "{name}")
                } else {
                    write!(f, "{name} {binding}")
                }
            }
            LPattern::Plus(p) => write!(f, "({p})+"),
            LPattern::Seq(ps) => {
                write!(f, "SEQ(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            LPattern::Not(p) => write!(f, "NOT {p}"),
        }
    }
}

/// A template state: one event-type occurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct StateInfo {
    /// Global occurrence id (shared with the located pattern).
    pub occ: StateId,
    /// Event type name (resolved to a `TypeId` at compile time).
    pub type_name: String,
    /// Alias binding used by predicates and aggregates.
    pub binding: String,
}

/// The GRETA template: automaton over event-type occurrences.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    /// States in occurrence order. NOTE: `StateId`s are *global* over the
    /// whole query pattern; use [`Template::state`] to look up by id.
    pub states: Vec<StateInfo>,
    /// Transitions `(from, to, kind)`.
    pub transitions: Vec<(StateId, StateId, TransKind)>,
    /// The start state (`start(P)`; unique per Theorem 4.1).
    pub start: StateId,
    /// The end state (`end(P)`; unique per Theorem 4.1).
    pub end: StateId,
}

impl Template {
    /// Algorithm 1: build the template for a **positive** located pattern.
    pub fn build(p: &LPattern) -> Result<Template, QueryError> {
        if !p.is_positive() {
            return Err(QueryError::InvalidPattern(
                "template construction requires a positive pattern; split negation first (§5.1)"
                    .into(),
            ));
        }
        let mut states = Vec::new();
        collect_states(p, &mut states);
        let mut transitions = Vec::new();
        collect_transitions(p, &mut transitions);
        Ok(Template {
            states,
            transitions,
            start: p.start(),
            end: p.end(),
        })
    }

    /// Look up state info by id.
    pub fn state(&self, id: StateId) -> Option<&StateInfo> {
        self.states.iter().find(|s| s.occ == id)
    }

    /// States whose events may immediately precede an event of `s` in a
    /// trend (`P.predTypes` of §4.1, at state granularity).
    pub fn predecessors(&self, s: StateId) -> Vec<StateId> {
        let mut v: Vec<StateId> = self
            .transitions
            .iter()
            .filter(|(_, to, _)| *to == s)
            .map(|(from, _, _)| *from)
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// State bound to the given alias/binding.
    pub fn state_of_binding(&self, binding: &str) -> Option<StateId> {
        self.states
            .iter()
            .find(|s| s.binding == binding)
            .map(|s| s.occ)
    }

    /// True when events of state `s` begin trends.
    pub fn is_start(&self, s: StateId) -> bool {
        self.start == s
    }

    /// True when events of state `s` may finish trends.
    pub fn is_end(&self, s: StateId) -> bool {
        self.end == s
    }
}

fn collect_states(p: &LPattern, out: &mut Vec<StateInfo>) {
    match p {
        LPattern::Type { occ, name, binding } => out.push(StateInfo {
            occ: *occ,
            type_name: name.clone(),
            binding: binding.clone(),
        }),
        LPattern::Plus(q) => collect_states(q, out),
        LPattern::Seq(ps) => ps.iter().for_each(|q| collect_states(q, out)),
        LPattern::Not(_) => unreachable!("positive pattern"),
    }
}

/// Algorithm 1 lines 3–8: one `SEQ` transition per adjacent pair in a
/// sequence, one `+` transition per Kleene plus.
fn collect_transitions(p: &LPattern, out: &mut Vec<(StateId, StateId, TransKind)>) {
    match p {
        LPattern::Type { .. } => {}
        LPattern::Plus(q) => {
            out.push((q.end(), q.start(), TransKind::Plus));
            collect_transitions(q, out);
        }
        LPattern::Seq(ps) => {
            for pair in ps.windows(2) {
                out.push((pair[0].end(), pair[1].start(), TransKind::Seq));
            }
            ps.iter().for_each(|q| collect_transitions(q, out));
        }
        LPattern::Not(_) => unreachable!("positive pattern"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_pattern;
    use crate::pattern::{desugar, simplify};

    fn template(s: &str) -> Template {
        let p = simplify(parse_pattern(s).unwrap());
        let alts = desugar(&p).unwrap();
        assert_eq!(alts.len(), 1, "test pattern must be star-free");
        let lp = LPattern::locate(&alts[0]).unwrap();
        Template::build(&lp).unwrap()
    }

    #[test]
    fn running_example_template() {
        // Figure 5: (SEQ(A+, B))+ — start A, end B,
        // predTypes(A) = {A, B}, predTypes(B) = {A}.
        let t = template("(SEQ(A+, B))+");
        assert_eq!(t.states.len(), 2);
        let a = t.state_of_binding("A").unwrap();
        let b = t.state_of_binding("B").unwrap();
        assert_eq!(t.start, a);
        assert_eq!(t.end, b);
        assert_eq!(t.predecessors(a), vec![a, b]);
        assert_eq!(t.predecessors(b), vec![a]);
        // Transitions: A+ loop (A→A), SEQ (A→B), outer plus (B→A).
        assert_eq!(t.transitions.len(), 3);
        assert!(t.transitions.contains(&(a, a, TransKind::Plus)));
        assert!(t.transitions.contains(&(a, b, TransKind::Seq)));
        assert!(t.transitions.contains(&(b, a, TransKind::Plus)));
    }

    #[test]
    fn flat_kleene() {
        // A+: A is both start and end; only the self-loop.
        let t = template("A+");
        let a = t.state_of_binding("A").unwrap();
        assert_eq!(t.start, a);
        assert_eq!(t.end, a);
        assert_eq!(t.transitions, vec![(a, a, TransKind::Plus)]);
        assert!(t.is_start(a) && t.is_end(a));
    }

    #[test]
    fn simple_seq_kleene() {
        // SEQ(A+, B): no B→A edge (Fig. 6(b): "no dashed edges").
        let t = template("SEQ(A+, B)");
        let a = t.state_of_binding("A").unwrap();
        let b = t.state_of_binding("B").unwrap();
        assert_eq!(t.predecessors(a), vec![a]);
        assert_eq!(t.predecessors(b), vec![a]);
        assert_eq!(t.start, a);
        assert_eq!(t.end, b);
    }

    #[test]
    fn q2_template() {
        let t = template("SEQ(Start S, Measurement M+, End E)");
        let s = t.state_of_binding("S").unwrap();
        let m = t.state_of_binding("M").unwrap();
        let e = t.state_of_binding("E").unwrap();
        assert_eq!(t.start, s);
        assert_eq!(t.end, e);
        assert_eq!(t.predecessors(s), vec![]);
        assert_eq!(t.predecessors(m), vec![s, m]);
        assert_eq!(t.predecessors(e), vec![m]);
    }

    #[test]
    fn multiple_occurrences_get_distinct_states() {
        // §9 / Fig. 13: SEQ(A+, B, A, A+, B+) with unique ids.
        let p = simplify(parse_pattern("SEQ(A A1+, B B2, A A3, A A4+, B B5+)").unwrap());
        let lp = LPattern::locate(&p).unwrap();
        let t = Template::build(&lp).unwrap();
        assert_eq!(t.states.len(), 5);
        let of_type = |ty: &str| t.states.iter().filter(|s| s.type_name == ty).count();
        assert_eq!((of_type("A"), of_type("B")), (3, 2));
        let a1 = t.state_of_binding("A1").unwrap();
        let b5 = t.state_of_binding("B5").unwrap();
        assert_eq!(t.start, a1);
        assert_eq!(t.end, b5);
        // A1's predecessors: only itself (its + loop).
        assert_eq!(t.predecessors(a1), vec![a1]);
    }

    #[test]
    fn start_end_unique_theorem_4_1() {
        // Several shapes; start/end always well-defined and stable.
        for s in ["A+", "SEQ(A, B)", "(SEQ(A+, B))+", "SEQ(A, SEQ(B, C)+, D)"] {
            let t = template(s);
            assert!(t.state(t.start).is_some(), "{s}");
            assert!(t.state(t.end).is_some(), "{s}");
        }
    }

    #[test]
    fn template_rejects_negative() {
        let p = simplify(parse_pattern("SEQ(A, NOT C, B)").unwrap());
        let lp = LPattern::locate(&p).unwrap();
        assert!(Template::build(&lp).is_err());
    }

    #[test]
    fn locate_rejects_sugar() {
        assert!(LPattern::locate(&parse_pattern("A*").unwrap()).is_err());
        assert!(LPattern::locate(&parse_pattern("A OR B").unwrap()).is_err());
    }
}
