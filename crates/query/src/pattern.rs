//! Pattern normalization: validation (paper §2 well-formedness rules),
//! simplification, desugaring of `*` / `?` (§9), and unrolling for
//! minimal-trend-length constraints (§9).

use crate::ast::Pattern;
use crate::error::QueryError;

/// Simplify a pattern using the equivalences of paper §2:
///
/// * `NOT (P+) ≡ NOT P` and `(NOT P)+ ≡ NOT P`
/// * `(P+)+ ≡ P+`
///
/// plus flattening of nested/singleton sequences.
pub fn simplify(p: Pattern) -> Pattern {
    match p {
        Pattern::Type { .. } => p,
        Pattern::Plus(inner) => match simplify(*inner) {
            // (P+)+ = P+
            Pattern::Plus(q) => Pattern::Plus(q),
            // (NOT P)+ = NOT P
            Pattern::Not(q) => Pattern::Not(q),
            q => Pattern::Plus(Box::new(q)),
        },
        Pattern::Star(inner) => match simplify(*inner) {
            Pattern::Star(q) | Pattern::Plus(q) => Pattern::Star(q),
            q => Pattern::Star(Box::new(q)),
        },
        Pattern::Optional(inner) => Pattern::Optional(Box::new(simplify(*inner))),
        Pattern::Not(inner) => match simplify(*inner) {
            // NOT (P+) = NOT P
            Pattern::Plus(q) => Pattern::Not(q),
            Pattern::Not(q) => *q, // double negation: treat as positive
            q => Pattern::Not(Box::new(q)),
        },
        Pattern::Seq(parts) => {
            let mut out: Vec<Pattern> = Vec::with_capacity(parts.len());
            for part in parts {
                match simplify(part) {
                    // Flatten nested sequences: SEQ(SEQ(a,b),c) = SEQ(a,b,c).
                    Pattern::Seq(inner) => out.extend(inner),
                    q => out.push(q),
                }
            }
            if out.len() == 1 {
                out.pop().unwrap()
            } else {
                Pattern::Seq(out)
            }
        }
        Pattern::Or(a, b) => Pattern::Or(Box::new(simplify(*a)), Box::new(simplify(*b))),
        Pattern::And(a, b) => Pattern::And(Box::new(simplify(*a)), Box::new(simplify(*b))),
    }
}

/// Validate the well-formedness rules of paper §2 on a simplified pattern:
///
/// * negation only inside a sequence, applied to a sequence or event type;
/// * negation is not the outermost operator;
/// * `OR` / `AND` only at the top level with positive operands (`OR`
///   expands into alternatives; `AND` parses but is refused at expansion —
///   §9 count composition is not reproduced);
/// * the pattern matches no empty trend (Lemma 1).
pub fn validate(p: &Pattern) -> Result<(), QueryError> {
    match p {
        Pattern::Not(_) => Err(QueryError::InvalidPattern(
            "negation may not be the outermost operator (paper §2)".into(),
        )),
        Pattern::Or(a, b) | Pattern::And(a, b) => {
            if !a.is_positive() || !b.is_positive() {
                return Err(QueryError::Unsupported(
                    "OR/AND operands must be positive patterns (§9)".into(),
                ));
            }
            validate_inner(a)?;
            validate_inner(b)
        }
        other => validate_inner(other),
    }
}

fn validate_inner(p: &Pattern) -> Result<(), QueryError> {
    match p {
        Pattern::Type { .. } => Ok(()),
        Pattern::Plus(inner) | Pattern::Star(inner) | Pattern::Optional(inner) => {
            if matches!(**inner, Pattern::Not(_)) {
                return Err(QueryError::InvalidPattern(
                    "Kleene/optional over negation is not meaningful (paper §2)".into(),
                ));
            }
            validate_inner(inner)
        }
        Pattern::Seq(parts) => {
            if parts.len() < 2 {
                return Err(QueryError::InvalidPattern(
                    "SEQ needs at least two sub-patterns".into(),
                ));
            }
            if parts.iter().all(|q| matches!(q, Pattern::Not(_))) {
                return Err(QueryError::InvalidPattern(
                    "a sequence must contain a positive sub-pattern (paper §2)".into(),
                ));
            }
            for part in parts {
                match part {
                    Pattern::Not(inner) => match &**inner {
                        Pattern::Type { .. } | Pattern::Seq(_) => validate_inner(inner)?,
                        other => {
                            return Err(QueryError::InvalidPattern(format!(
                                "negation must be applied to an event sequence or type, found `{other}` (paper §2)"
                            )))
                        }
                    },
                    other => validate_inner(other)?,
                }
            }
            Ok(())
        }
        Pattern::Not(inner) => {
            // A NOT reached here is not directly inside a SEQ.
            Err(QueryError::InvalidPattern(format!(
                "negation must appear within an event sequence, found bare `NOT {inner}` (paper §2)"
            )))
        }
        Pattern::Or(_, _) | Pattern::And(_, _) => Err(QueryError::Unsupported(
            "nested OR/AND inside patterns is out of scope; use top-level composition (§9)".into(),
        )),
    }
}

/// Desugar `*` and `?` into **disjoint** star-free alternatives (paper §9:
/// `SEQ(Pi*, Pj) = SEQ(Pi+, Pj) ∨ Pj`, `SEQ(Pi?, Pj) = SEQ(Pi, Pj) ∨ Pj`).
///
/// The returned alternatives have pairwise-disjoint trend sets (each is
/// distinguished by whether the starred/optional sub-pattern occurs), so
/// aggregates combine by simple addition / min / max across alternatives.
/// An alternative that would match the empty trend is dropped (Lemma 1:
/// no positive pattern matches the empty string).
pub fn desugar(p: &Pattern) -> Result<Vec<Pattern>, QueryError> {
    let alts = expand(p)?;
    let alts: Vec<Pattern> = alts.into_iter().flatten().map(simplify).collect();
    if alts.is_empty() {
        return Err(QueryError::InvalidPattern(
            "pattern matches only the empty trend".into(),
        ));
    }
    Ok(alts)
}

/// Each alternative is `Some(pattern)` or `None` = the empty trend.
fn expand(p: &Pattern) -> Result<Vec<Option<Pattern>>, QueryError> {
    match p {
        Pattern::Type { .. } => Ok(vec![Some(p.clone())]),
        Pattern::Plus(inner) => {
            let non_empty: Vec<Pattern> = expand(inner)?.into_iter().flatten().collect();
            if non_empty.len() > 1 {
                // (A | B)+ is not a disjoint union of plus-patterns.
                return Err(QueryError::Unsupported(
                    "Kleene plus over an optional/star sub-pattern is out of scope".into(),
                ));
            }
            Ok(non_empty
                .into_iter()
                .map(|q| Some(Pattern::Plus(Box::new(q))))
                .collect())
        }
        Pattern::Star(inner) => {
            let mut out = expand(&Pattern::Plus(inner.clone()))?;
            out.push(None); // zero occurrences
            Ok(out)
        }
        Pattern::Optional(inner) => {
            let mut out = expand(inner)?;
            out.push(None);
            Ok(out)
        }
        Pattern::Not(inner) => {
            let inner_alts = expand(inner)?;
            if inner_alts.len() != 1 || inner_alts[0].is_none() {
                return Err(QueryError::Unsupported(
                    "star/optional inside negation is out of scope".into(),
                ));
            }
            Ok(vec![Some(Pattern::Not(Box::new(
                inner_alts.into_iter().next().unwrap().unwrap(),
            )))])
        }
        Pattern::Seq(parts) => {
            // Cartesian product of element alternatives; None elements drop
            // out of the sequence.
            let mut acc: Vec<Vec<Pattern>> = vec![Vec::new()];
            for part in parts {
                let part_alts = expand(part)?;
                let mut next = Vec::with_capacity(acc.len() * part_alts.len());
                for prefix in &acc {
                    for alt in &part_alts {
                        let mut seq = prefix.clone();
                        if let Some(q) = alt {
                            seq.push(q.clone());
                        }
                        next.push(seq);
                    }
                }
                acc = next;
            }
            Ok(acc
                .into_iter()
                .map(|seq| match seq.len() {
                    0 => None,
                    1 => Some(seq.into_iter().next().unwrap()),
                    _ => Some(Pattern::Seq(seq)),
                })
                .collect())
        }
        Pattern::Or(a, b) => {
            let mut out = expand(a)?;
            out.extend(expand(b)?);
            Ok(out)
        }
        Pattern::And(_, _) => Err(QueryError::Unsupported(
            "AND is not supported (§9 count composition is not reproduced)".into(),
        )),
    }
}

/// Unroll a Kleene plus to enforce a minimal trend length (paper §9:
/// `A+` with minimal length 3 becomes `SEQ(A, A, A+)`). Each unrolled copy
/// gets a distinct alias (`binding#i`) so the multiple-occurrence machinery
/// of §9 applies.
pub fn unroll_plus(p: &Pattern, min_len: usize) -> Result<Pattern, QueryError> {
    let Pattern::Plus(inner) = p else {
        return Err(QueryError::InvalidPattern(
            "minimal-length unrolling applies to Kleene plus patterns".into(),
        ));
    };
    if min_len <= 1 {
        return Ok(p.clone());
    }
    let mut parts = Vec::with_capacity(min_len);
    for i in 0..min_len - 1 {
        parts.push(rename_bindings(inner, i));
    }
    parts.push(Pattern::Plus(Box::new(rename_bindings(inner, min_len - 1))));
    Ok(Pattern::Seq(parts))
}

fn rename_bindings(p: &Pattern, copy: usize) -> Pattern {
    match p {
        Pattern::Type { name, alias } => {
            let base = alias.clone().unwrap_or_else(|| name.clone());
            Pattern::Type {
                name: name.clone(),
                alias: Some(format!("{base}#{copy}")),
            }
        }
        Pattern::Plus(q) => Pattern::Plus(Box::new(rename_bindings(q, copy))),
        Pattern::Star(q) => Pattern::Star(Box::new(rename_bindings(q, copy))),
        Pattern::Optional(q) => Pattern::Optional(Box::new(rename_bindings(q, copy))),
        Pattern::Not(q) => Pattern::Not(Box::new(rename_bindings(q, copy))),
        Pattern::Seq(ps) => Pattern::Seq(ps.iter().map(|q| rename_bindings(q, copy)).collect()),
        Pattern::Or(a, b) => Pattern::Or(
            Box::new(rename_bindings(a, copy)),
            Box::new(rename_bindings(b, copy)),
        ),
        Pattern::And(a, b) => Pattern::And(
            Box::new(rename_bindings(a, copy)),
            Box::new(rename_bindings(b, copy)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_pattern;

    #[test]
    fn simplify_kleene_negation_equivalences() {
        // NOT (P+) = NOT P
        let p = simplify(parse_pattern("SEQ(A, NOT (C+), B)").unwrap());
        assert_eq!(p.to_string(), "SEQ(A, NOT C, B)");
        // (P+)+ = P+
        let p = simplify(parse_pattern("(A+)+").unwrap());
        assert_eq!(p, Pattern::ty("A").plus());
        // singleton/nested SEQ flattening
        let p = simplify(parse_pattern("SEQ(SEQ(A, B), C)").unwrap());
        assert_eq!(
            p,
            Pattern::seq(vec![Pattern::ty("A"), Pattern::ty("B"), Pattern::ty("C")])
        );
    }

    #[test]
    fn validate_accepts_paper_queries() {
        for s in [
            "S+",
            "SEQ(S, M+, E)",
            "SEQ(NOT A, P+)",
            "(SEQ(A+, B))+",
            "(SEQ(A+, NOT SEQ(C, NOT E, D), B))+",
            "SEQ(A+, NOT E)",
        ] {
            let p = simplify(parse_pattern(s).unwrap());
            validate(&p).unwrap_or_else(|e| panic!("{s}: {e}"));
        }
    }

    #[test]
    fn validate_rejects_outer_negation() {
        let p = simplify(parse_pattern("NOT A").unwrap());
        assert!(matches!(validate(&p), Err(QueryError::InvalidPattern(_))));
    }

    #[test]
    fn validate_rejects_all_negative_seq() {
        let p = simplify(parse_pattern("SEQ(NOT A, NOT B)").unwrap());
        assert!(validate(&p).is_err());
    }

    #[test]
    fn validate_rejects_negation_outside_seq() {
        // NOT nested under Plus is simplified away; NOT under Plus within Seq:
        let p = Pattern::seq(vec![Pattern::ty("A"), Pattern::ty("B").not().plus()]);
        let p = simplify(p); // (NOT B)+ = NOT B, so this becomes valid
        validate(&p).unwrap();
        // But NOT applied to a Kleene sub-pattern that is not type/seq:
        let p = Pattern::seq(vec![
            Pattern::ty("A"),
            Pattern::Not(Box::new(Pattern::ty("B").plus())),
        ]);
        // simplify rewrites NOT(B+) to NOT B → valid per §2.
        validate(&simplify(p)).unwrap();
    }

    #[test]
    fn desugar_star_in_seq() {
        let alts = desugar(&parse_pattern("SEQ(A*, B)").unwrap()).unwrap();
        let strs: Vec<String> = alts.iter().map(|p| p.to_string()).collect();
        assert_eq!(strs, vec!["SEQ((A)+, B)", "B"]);
    }

    #[test]
    fn desugar_optional() {
        let alts = desugar(&parse_pattern("SEQ(A?, B, C?)").unwrap()).unwrap();
        let strs: Vec<String> = alts.iter().map(|p| p.to_string()).collect();
        assert_eq!(strs, vec!["SEQ(A, B, C)", "SEQ(A, B)", "SEQ(B, C)", "B"]);
    }

    #[test]
    fn desugar_rejects_pure_empty() {
        assert!(desugar(&parse_pattern("A?").unwrap()).is_ok()); // [A]
        let alts = desugar(&parse_pattern("A?").unwrap()).unwrap();
        assert_eq!(alts.len(), 1);
        assert!(desugar(&Pattern::Seq(vec![])).is_err());
    }

    #[test]
    fn desugar_or_produces_alternatives() {
        let alts = desugar(&parse_pattern("A+ OR B").unwrap()).unwrap();
        assert_eq!(alts.len(), 2);
    }

    #[test]
    fn desugar_passes_negation_through() {
        let alts = desugar(&parse_pattern("SEQ(A+, NOT C, B?)").unwrap()).unwrap();
        let strs: Vec<String> = alts.iter().map(|p| p.to_string()).collect();
        assert_eq!(strs, vec!["SEQ((A)+, NOT C, B)", "SEQ((A)+, NOT C)"]);
    }

    #[test]
    fn unroll_to_min_length() {
        let p = parse_pattern("A+").unwrap();
        let u = unroll_plus(&p, 3).unwrap();
        assert_eq!(u.to_string(), "SEQ(A A#0, A A#1, (A A#2)+)");
        // min_len 1 is a no-op
        assert_eq!(unroll_plus(&p, 1).unwrap(), p);
        // not a plus pattern
        assert!(unroll_plus(&Pattern::ty("A"), 2).is_err());
    }
}
