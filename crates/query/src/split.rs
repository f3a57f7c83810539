//! Pattern split for nested negation (paper §5.1, Algorithm 3).
//!
//! A pattern with negative sub-patterns is split into a **positive** parent
//! pattern and a set of **negative** sub-patterns, each carrying its
//! *previous* and *following* connection into the parent template:
//!
//! * Case 1 `SEQ(Pi, NOT N, Pj)` — previous = `end(Pi)`, following = `start(Pj)`
//! * Case 2 `SEQ(Pi, NOT N)`     — previous = `end(Pi)`, no following
//! * Case 3 `SEQ(NOT N, Pj)`     — no previous, following = `start(Pj)`
//!
//! Negative sub-patterns may themselves contain negation (Example 2:
//! `(SEQ(A+, NOT SEQ(C, NOT E, D), B))+` splits into positive
//! `(SEQ(A+, B))+`, negative `SEQ(C, D)` hanging off it, and negative `E`
//! hanging off `SEQ(C, D)`), so the result is a tree of split patterns.
//!
//! Deviation from the paper (ARCHITECTURE.md, "Inside a shard engine"):
//! consecutive negatives `SEQ(P, NOT N1, NOT N2, Q)` are treated as two
//! *independent* constraints at the same gap rather than merged into
//! `NOT SEQ(N1, N2)`.

use crate::error::QueryError;
use crate::template::{LPattern, StateId};

/// Result of splitting: positive part plus negative children.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitPattern {
    /// The pattern with all `NOT` sub-patterns removed.
    pub positive: LPattern,
    /// Negative sub-patterns (each recursively split).
    pub negatives: Vec<NegativeSub>,
}

/// One negative sub-pattern with its connections to the parent.
#[derive(Debug, Clone, PartialEq)]
pub struct NegativeSub {
    /// The negative sub-pattern, recursively split (it may contain
    /// further negation).
    pub split: Box<SplitPattern>,
    /// `end(Pi)` — state in the **parent's positive** pattern whose events
    /// get invalidated (None for Case 3).
    pub previous: Option<StateId>,
    /// `start(Pj)` — state in the parent's positive pattern whose future
    /// events the invalidated events may no longer connect to (None for
    /// Case 2).
    pub following: Option<StateId>,
}

/// Split a located pattern (Algorithm 3). The input must be well-formed
/// (run [`crate::pattern::validate`] first); the outermost pattern must be
/// positive after removal of nested negation.
pub fn split_pattern(p: &LPattern) -> Result<SplitPattern, QueryError> {
    let mut negatives = Vec::new();
    let positive = strip(p, None, None, &mut negatives)?;
    let positive = positive.ok_or_else(|| {
        QueryError::InvalidPattern("negation may not be the outermost operator".into())
    })?;
    Ok(SplitPattern {
        positive,
        negatives,
    })
}

/// Remove `Not` nodes from `p`, recording them with their previous/following
/// connections. `prev_ctx`/`next_ctx` are the connections inherited from the
/// enclosing sequence (used when a negation sits at the boundary of a nested
/// sub-pattern).
fn strip(
    p: &LPattern,
    prev_ctx: Option<StateId>,
    next_ctx: Option<StateId>,
    negatives: &mut Vec<NegativeSub>,
) -> Result<Option<LPattern>, QueryError> {
    match p {
        LPattern::Type { .. } => Ok(Some(p.clone())),
        LPattern::Plus(q) => {
            let inner = strip(q, prev_ctx, next_ctx, negatives)?;
            Ok(inner.map(|q| LPattern::Plus(Box::new(q))))
        }
        LPattern::Seq(parts) => {
            // Previous connection for element i: end of the nearest positive
            // element before i (or the inherited context at the boundary).
            // Following: start of the nearest positive element after i.
            let positive_parts: Vec<Option<&LPattern>> = parts
                .iter()
                .map(|e| match e {
                    LPattern::Not(_) => None,
                    other => Some(other),
                })
                .collect();
            let mut out = Vec::new();
            for (i, part) in parts.iter().enumerate() {
                let prev = positive_parts[..i]
                    .iter()
                    .rev()
                    .flatten()
                    .next()
                    .map(|e| e.end())
                    .or(prev_ctx);
                let next = positive_parts[i + 1..]
                    .iter()
                    .flatten()
                    .next()
                    .map(|e| e.start())
                    .or(next_ctx);
                match part {
                    LPattern::Not(inner) => {
                        let split = split_pattern(inner)?;
                        negatives.push(NegativeSub {
                            split: Box::new(split),
                            previous: prev,
                            following: next,
                        });
                    }
                    other => {
                        if let Some(stripped) = strip(other, prev, next, negatives)? {
                            out.push(stripped);
                        }
                    }
                }
            }
            match out.len() {
                0 => Ok(None),
                1 => Ok(Some(out.pop().unwrap())),
                _ => Ok(Some(LPattern::Seq(out))),
            }
        }
        LPattern::Not(inner) => {
            // Bare negation (not inside a sequence) — only reachable when
            // the whole pattern is negative; record with inherited context.
            let split = split_pattern(inner)?;
            negatives.push(NegativeSub {
                split: Box::new(split),
                previous: prev_ctx,
                following: next_ctx,
            });
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_pattern;
    use crate::pattern::simplify;
    use crate::template::Template;

    fn located(s: &str) -> LPattern {
        LPattern::locate(&simplify(parse_pattern(s).unwrap())).unwrap()
    }

    /// Binding name of a state id, looked up in the *original* located
    /// pattern (ids are global).
    fn binding_of(p: &LPattern, id: StateId) -> String {
        fn walk(p: &LPattern, id: StateId, out: &mut Option<String>) {
            match p {
                LPattern::Type { occ, binding, .. } if *occ == id => {
                    *out = Some(binding.clone());
                }
                LPattern::Type { .. } => {}
                LPattern::Plus(q) | LPattern::Not(q) => walk(q, id, out),
                LPattern::Seq(ps) => ps.iter().for_each(|q| walk(q, id, out)),
            }
        }
        let mut out = None;
        walk(p, id, &mut out);
        out.unwrap()
    }

    #[test]
    fn example_2_nested_negation() {
        // (SEQ(A+, NOT SEQ(C, NOT E, D), B))+ →
        //   positive (SEQ(A+, B))+
        //   negative SEQ(C, D)  [prev = A, following = B]
        //     negative E        [prev = C, following = D]
        let lp = located("(SEQ(A+, NOT SEQ(C, NOT E, D), B))+");
        let split = split_pattern(&lp).unwrap();
        assert_eq!(split.positive.to_string(), "(SEQ((A)+, B))+");
        assert_eq!(split.negatives.len(), 1);

        let n1 = &split.negatives[0];
        assert_eq!(n1.split.positive.to_string(), "SEQ(C, D)");
        assert_eq!(binding_of(&lp, n1.previous.unwrap()), "A");
        assert_eq!(binding_of(&lp, n1.following.unwrap()), "B");

        assert_eq!(n1.split.negatives.len(), 1);
        let n2 = &n1.split.negatives[0];
        assert_eq!(n2.split.positive.to_string(), "E");
        assert!(n2.split.negatives.is_empty());
        assert_eq!(binding_of(&lp, n2.previous.unwrap()), "C");
        assert_eq!(binding_of(&lp, n2.following.unwrap()), "D");
    }

    #[test]
    fn case_2_trailing_negation() {
        // SEQ(A+, NOT E): previous = A, no following (Fig. 7(b)).
        let lp = located("SEQ(A+, NOT E)");
        let split = split_pattern(&lp).unwrap();
        assert_eq!(split.positive.to_string(), "(A)+");
        let n = &split.negatives[0];
        assert_eq!(binding_of(&lp, n.previous.unwrap()), "A");
        assert_eq!(n.following, None);
    }

    #[test]
    fn case_3_leading_negation() {
        // SEQ(NOT E, A+): no previous, following = A (Fig. 7(c)); query Q3.
        let lp = located("SEQ(NOT E, A+)");
        let split = split_pattern(&lp).unwrap();
        assert_eq!(split.positive.to_string(), "(A)+");
        let n = &split.negatives[0];
        assert_eq!(n.previous, None);
        assert_eq!(binding_of(&lp, n.following.unwrap()), "A");
    }

    #[test]
    fn positive_pattern_splits_to_itself() {
        let lp = located("(SEQ(A+, B))+");
        let split = split_pattern(&lp).unwrap();
        assert_eq!(split.positive, lp);
        assert!(split.negatives.is_empty());
    }

    #[test]
    fn consecutive_negatives_are_independent_constraints() {
        let lp = located("SEQ(A, NOT X, NOT Y, B)");
        let split = split_pattern(&lp).unwrap();
        assert_eq!(split.positive.to_string(), "SEQ(A, B)");
        assert_eq!(split.negatives.len(), 2);
        for n in &split.negatives {
            assert_eq!(binding_of(&lp, n.previous.unwrap()), "A");
            assert_eq!(binding_of(&lp, n.following.unwrap()), "B");
        }
    }

    #[test]
    fn negation_inside_nested_seq_inherits_outer_context() {
        // SEQ(SEQ(A, NOT X), B): X's following is B from the outer sequence.
        let lp = located("SEQ(SEQ(A, NOT X), B)");
        // simplify flattens nested SEQ, so force the nesting manually:
        let lp2 = match &lp {
            LPattern::Seq(_) => lp.clone(),
            _ => unreachable!(),
        };
        let split = split_pattern(&lp2).unwrap();
        let n = &split.negatives[0];
        assert_eq!(binding_of(&lp, n.previous.unwrap()), "A");
        assert_eq!(binding_of(&lp, n.following.unwrap()), "B");
    }

    #[test]
    fn negation_under_kleene() {
        // (SEQ(A+, NOT C, B))+ — prev/following resolved inside the loop body.
        let lp = located("(SEQ(A+, NOT C, B))+");
        let split = split_pattern(&lp).unwrap();
        assert_eq!(split.positive.to_string(), "(SEQ((A)+, B))+");
        let n = &split.negatives[0];
        assert_eq!(binding_of(&lp, n.previous.unwrap()), "A");
        assert_eq!(binding_of(&lp, n.following.unwrap()), "B");
    }

    #[test]
    fn split_positive_builds_valid_template() {
        // The positive part of a split must be template-constructible and
        // the connection states must exist in the parent template.
        let lp = located("(SEQ(A+, NOT SEQ(C, NOT E, D), B))+");
        let split = split_pattern(&lp).unwrap();
        let t = Template::build(&split.positive).unwrap();
        let n1 = &split.negatives[0];
        assert!(t.state(n1.previous.unwrap()).is_some());
        assert!(t.state(n1.following.unwrap()).is_some());
    }

    #[test]
    fn fully_negative_rejected() {
        let lp = located("SEQ(NOT A, NOT B)");
        assert!(split_pattern(&lp).is_err());
    }
}
