//! Recursive-descent parser for the query grammar of paper Fig. 2.
//!
//! ```text
//! q := RETURN ⟨A | attr⟩,…  PATTERN ⟨P⟩  (WHERE ⟨θ⟩)?  (GROUP-BY attrs)?
//!      WITHIN duration SLIDE duration
//! P := Type alias? | ⟨P⟩+ | ⟨P⟩* | ⟨P⟩? | NOT ⟨P⟩ | SEQ(⟨P⟩, …) | (P OR P) | (P AND P)
//! θ := const | E.attr | NEXT(E).attr | [equiv,…] | ⟨θ⟩ ⟨O⟩ ⟨θ⟩
//! ```
//!
//! Durations accept time units (`seconds`, `minutes`, `hours`); one tick is
//! one second, matching the paper's data sets.

use crate::ast::*;
use crate::error::QueryError;
use crate::lexer::{lex, Token, TokenKind};

/// Parse a full event trend aggregation query.
pub fn parse_query(input: &str) -> Result<QuerySpec, QueryError> {
    let toks = lex(input)?;
    let mut p = Parser { toks, i: 0 };
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

/// Parse a standalone pattern (testing / programmatic use).
pub fn parse_pattern(input: &str) -> Result<Pattern, QueryError> {
    let toks = lex(input)?;
    let mut p = Parser { toks, i: 0 };
    let pat = p.pattern()?;
    p.expect_eof()?;
    Ok(pat)
}

struct Parser {
    toks: Vec<Token>,
    i: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.toks[self.i].kind
    }

    fn pos(&self) -> usize {
        self.toks[self.i].pos
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.toks[self.i].kind.clone();
        if self.i + 1 < self.toks.len() {
            self.i += 1;
        }
        k
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, QueryError> {
        Err(QueryError::Parse {
            pos: self.pos(),
            msg: msg.into(),
        })
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), TokenKind::Sym(t) if *t == s) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &'static str) -> Result<(), QueryError> {
        match self.peek() {
            TokenKind::Sym(t) if *t == s => {
                self.i += 1;
                Ok(())
            }
            other => self.err(format!("expected `{s}`, found {other:?}")),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), TokenKind::Keyword(k) if *k == kw) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &'static str) -> Result<(), QueryError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            let found = self.peek().clone();
            self.err(format!("expected keyword {kw}, found {found:?}"))
        }
    }

    fn ident(&mut self) -> Result<String, QueryError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.i += 1;
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn expect_eof(&mut self) -> Result<(), QueryError> {
        if self.peek() == &TokenKind::Eof {
            Ok(())
        } else {
            let found = self.peek().clone();
            self.err(format!("trailing input: {found:?}"))
        }
    }

    // ---- query --------------------------------------------------------

    fn query(&mut self) -> Result<QuerySpec, QueryError> {
        self.expect_kw("RETURN")?;
        let mut return_attrs = Vec::new();
        let mut aggregates = Vec::new();
        loop {
            match self.peek().clone() {
                TokenKind::Keyword(k @ ("COUNT" | "MIN" | "MAX" | "SUM" | "AVG")) => {
                    self.i += 1;
                    aggregates.push(AggSpec::new(self.agg_func(k)?));
                }
                TokenKind::Ident(name) => {
                    self.i += 1;
                    return_attrs.push(name);
                }
                other => return self.err(format!("expected RETURN item, found {other:?}")),
            }
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_kw("PATTERN")?;
        let pattern = self.pattern()?;
        let where_expr = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP-BY") {
            loop {
                group_by.push(self.ident()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        self.expect_kw("WITHIN")?;
        let within = self.duration()?;
        self.expect_kw("SLIDE")?;
        let slide = self.duration()?;
        Ok(QuerySpec {
            return_attrs,
            aggregates,
            pattern,
            where_expr,
            group_by,
            window: WindowSpec::new(within, slide),
        })
    }

    fn agg_func(&mut self, kw: &str) -> Result<AggFunc, QueryError> {
        self.expect_sym("(")?;
        let func = if kw == "COUNT" {
            if self.eat_sym("*") {
                AggFunc::CountStar
            } else {
                AggFunc::Count(self.ident()?)
            }
        } else {
            let target = self.ident()?;
            self.expect_sym(".")?;
            let attr = self.ident()?;
            match kw {
                "MIN" => AggFunc::Min(target, attr),
                "MAX" => AggFunc::Max(target, attr),
                "SUM" => AggFunc::Sum(target, attr),
                "AVG" => AggFunc::Avg(target, attr),
                _ => unreachable!(),
            }
        };
        self.expect_sym(")")?;
        Ok(func)
    }

    fn duration(&mut self) -> Result<u64, QueryError> {
        let n = match self.bump() {
            TokenKind::Int(n) if n >= 0 => n as u64,
            other => return self.err(format!("expected duration, found {other:?}")),
        };
        // Optional unit identifier; 1 tick = 1 second.
        let mult = match self.peek().clone() {
            TokenKind::Ident(u) => {
                let m = match u.to_ascii_lowercase().as_str() {
                    "tick" | "ticks" | "s" | "sec" | "secs" | "second" | "seconds" => Some(1),
                    "m" | "min" | "mins" | "minute" | "minutes" => Some(60),
                    "h" | "hour" | "hours" => Some(3600),
                    _ => None,
                };
                if let Some(m) = m {
                    self.i += 1;
                    m
                } else {
                    1
                }
            }
            _ => 1,
        };
        Ok(n * mult)
    }

    // ---- patterns -----------------------------------------------------

    fn pattern(&mut self) -> Result<Pattern, QueryError> {
        // OR (lowest precedence), then AND, then postfix quantifiers.
        let mut lhs = self.pattern_and()?;
        while self.eat_kw("OR") {
            let rhs = self.pattern_and()?;
            lhs = Pattern::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn pattern_and(&mut self) -> Result<Pattern, QueryError> {
        let mut lhs = self.pattern_postfix()?;
        while self.eat_kw("AND") {
            let rhs = self.pattern_postfix()?;
            lhs = Pattern::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn pattern_postfix(&mut self) -> Result<Pattern, QueryError> {
        let mut p = self.pattern_primary()?;
        loop {
            if self.eat_sym("+") {
                p = p.plus();
            } else if self.eat_sym("*") {
                p = p.star();
            } else if self.eat_sym("?") {
                p = p.optional();
            } else {
                break;
            }
        }
        Ok(p)
    }

    fn pattern_primary(&mut self) -> Result<Pattern, QueryError> {
        match self.peek().clone() {
            TokenKind::Keyword("SEQ") => {
                self.i += 1;
                self.expect_sym("(")?;
                let mut parts = vec![self.pattern()?];
                while self.eat_sym(",") {
                    parts.push(self.pattern()?);
                }
                self.expect_sym(")")?;
                Ok(Pattern::Seq(parts))
            }
            TokenKind::Keyword("NOT") => {
                self.i += 1;
                let inner = self.pattern_postfix()?;
                Ok(inner.not())
            }
            TokenKind::Sym("(") => {
                self.i += 1;
                let inner = self.pattern()?;
                self.expect_sym(")")?;
                Ok(inner)
            }
            TokenKind::Ident(name) => {
                self.i += 1;
                // Optional alias: another bare identifier right after.
                if let TokenKind::Ident(alias) = self.peek().clone() {
                    self.i += 1;
                    Ok(Pattern::Type {
                        name,
                        alias: Some(alias),
                    })
                } else {
                    Ok(Pattern::Type { name, alias: None })
                }
            }
            other => self.err(format!("expected pattern, found {other:?}")),
        }
    }

    // ---- predicate expressions ----------------------------------------

    fn expr(&mut self) -> Result<Expr, QueryError> {
        let mut lhs = self.expr_and()?;
        while self.eat_kw("OR") {
            let rhs = self.expr_and()?;
            lhs = Expr::bin(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn expr_and(&mut self) -> Result<Expr, QueryError> {
        let mut lhs = self.expr_cmp()?;
        while self.eat_kw("AND") {
            let rhs = self.expr_cmp()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn expr_cmp(&mut self) -> Result<Expr, QueryError> {
        let lhs = self.expr_add()?;
        let op = match self.peek() {
            TokenKind::Sym("=") => Some(CmpOp::Eq),
            TokenKind::Sym("!=") => Some(CmpOp::Ne),
            TokenKind::Sym("<") => Some(CmpOp::Lt),
            TokenKind::Sym("<=") => Some(CmpOp::Le),
            TokenKind::Sym(">") => Some(CmpOp::Gt),
            TokenKind::Sym(">=") => Some(CmpOp::Ge),
            _ => None,
        };
        match op {
            Some(op) => {
                self.i += 1;
                let rhs = self.expr_add()?;
                Ok(Expr::bin(BinOp::Cmp(op), lhs, rhs))
            }
            None => Ok(lhs),
        }
    }

    fn expr_add(&mut self) -> Result<Expr, QueryError> {
        let mut lhs = self.expr_mul()?;
        loop {
            let op = match self.peek() {
                TokenKind::Sym("+") => BinOp::Add,
                TokenKind::Sym("-") => BinOp::Sub,
                _ => break,
            };
            self.i += 1;
            let rhs = self.expr_mul()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn expr_mul(&mut self) -> Result<Expr, QueryError> {
        let mut lhs = self.expr_primary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Sym("*") => BinOp::Mul,
                TokenKind::Sym("/") => BinOp::Div,
                TokenKind::Sym("%") => BinOp::Mod,
                _ => break,
            };
            self.i += 1;
            let rhs = self.expr_primary()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn expr_primary(&mut self) -> Result<Expr, QueryError> {
        match self.peek().clone() {
            TokenKind::Int(n) => {
                self.i += 1;
                Ok(Expr::Int(n))
            }
            TokenKind::Float(f) => {
                self.i += 1;
                Ok(Expr::Float(f))
            }
            TokenKind::Str(s) => {
                self.i += 1;
                Ok(Expr::Str(s))
            }
            TokenKind::Keyword("TRUE") => {
                self.i += 1;
                Ok(Expr::Bool(true))
            }
            TokenKind::Keyword("FALSE") => {
                self.i += 1;
                Ok(Expr::Bool(false))
            }
            TokenKind::Keyword("NEXT") => {
                self.i += 1;
                self.expect_sym("(")?;
                let target = self.ident()?;
                self.expect_sym(")")?;
                self.expect_sym(".")?;
                let attr = self.ident()?;
                Ok(Expr::NextAttr { target, attr })
            }
            TokenKind::Sym("[") => {
                self.i += 1;
                let mut attrs = Vec::new();
                loop {
                    let first = self.ident()?;
                    if self.eat_sym(".") {
                        let attr = self.ident()?;
                        attrs.push(EquivAttr {
                            target: Some(first),
                            attr,
                        });
                    } else {
                        attrs.push(EquivAttr {
                            target: None,
                            attr: first,
                        });
                    }
                    if !self.eat_sym(",") {
                        break;
                    }
                }
                self.expect_sym("]")?;
                Ok(Expr::Equiv(attrs))
            }
            TokenKind::Sym("(") => {
                self.i += 1;
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            TokenKind::Ident(target) => {
                self.i += 1;
                self.expect_sym(".")?;
                let attr = self.ident()?;
                Ok(Expr::Attr { target, attr })
            }
            other => self.err(format!("expected expression, found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_q1() {
        let q = parse_query(
            "RETURN sector, COUNT(*) PATTERN Stock S+ \
             WHERE [company, sector] AND S.price > NEXT(S).price \
             GROUP-BY sector WITHIN 10 minutes SLIDE 10 seconds",
        )
        .unwrap();
        assert_eq!(q.return_attrs, vec!["sector"]);
        assert_eq!(q.aggregates[0].func, AggFunc::CountStar);
        assert_eq!(q.pattern, Pattern::ty_as("Stock", "S").plus());
        assert_eq!(q.group_by, vec!["sector"]);
        assert_eq!(q.window, WindowSpec::new(600, 10));
        let conj = q.where_expr.as_ref().unwrap().conjuncts().len();
        assert_eq!(conj, 2);
    }

    #[test]
    fn parses_q2() {
        let q = parse_query(
            "RETURN mapper, SUM(M.cpu) \
             PATTERN SEQ(Start S, Measurement M+, End E) \
             WHERE [job, mapper] AND M.load < NEXT(M).load \
             GROUP-BY mapper WITHIN 1 minute SLIDE 30 seconds",
        )
        .unwrap();
        assert_eq!(q.aggregates[0].func, AggFunc::Sum("M".into(), "cpu".into()));
        assert_eq!(
            q.pattern,
            Pattern::seq(vec![
                Pattern::ty_as("Start", "S"),
                Pattern::ty_as("Measurement", "M").plus(),
                Pattern::ty_as("End", "E"),
            ])
        );
        assert_eq!(q.window, WindowSpec::new(60, 30));
    }

    #[test]
    fn parses_q3_with_negation() {
        let q = parse_query(
            "RETURN segment, COUNT(*), AVG(P.speed) \
             PATTERN SEQ(NOT Accident A, Position P+) \
             WHERE [P.vehicle, segment] AND P.speed > NEXT(P).speed \
             GROUP-BY segment WITHIN 5 minutes SLIDE 1 minute",
        )
        .unwrap();
        assert_eq!(q.aggregates.len(), 2);
        assert_eq!(
            q.pattern,
            Pattern::seq(vec![
                Pattern::ty_as("Accident", "A").not(),
                Pattern::ty_as("Position", "P").plus(),
            ])
        );
        match &q.where_expr.as_ref().unwrap().conjuncts()[0] {
            Expr::Equiv(attrs) => {
                assert_eq!(attrs[0].target.as_deref(), Some("P"));
                assert_eq!(attrs[0].attr, "vehicle");
                assert_eq!(attrs[1].target, None);
            }
            other => panic!("expected equivalence, got {other:?}"),
        }
    }

    #[test]
    fn nested_kleene_pattern() {
        let p = parse_pattern("(SEQ(A+, B))+").unwrap();
        assert_eq!(
            p,
            Pattern::seq(vec![Pattern::ty("A").plus(), Pattern::ty("B")]).plus()
        );
    }

    #[test]
    fn nested_negation_pattern() {
        let p = parse_pattern("(SEQ(A+, NOT SEQ(C, NOT E, D), B))+").unwrap();
        let expect = Pattern::seq(vec![
            Pattern::ty("A").plus(),
            Pattern::seq(vec![
                Pattern::ty("C"),
                Pattern::ty("E").not(),
                Pattern::ty("D"),
            ])
            .not(),
            Pattern::ty("B"),
        ])
        .plus();
        assert_eq!(p, expect);
    }

    #[test]
    fn star_optional_or_and() {
        assert_eq!(
            parse_pattern("SEQ(A*, B)").unwrap(),
            Pattern::seq(vec![Pattern::ty("A").star(), Pattern::ty("B")])
        );
        assert_eq!(
            parse_pattern("A? OR B").unwrap(),
            Pattern::Or(
                Box::new(Pattern::ty("A").optional()),
                Box::new(Pattern::ty("B"))
            )
        );
        assert_eq!(
            parse_pattern("A AND B").unwrap(),
            Pattern::And(Box::new(Pattern::ty("A")), Box::new(Pattern::ty("B")))
        );
    }

    #[test]
    fn expression_precedence() {
        // a.x * 2 + 1 < NEXT(a).y  parses as ((a.x*2)+1) < NEXT(a).y
        let text = "RETURN COUNT(*) PATTERN A a+ WHERE a.x * 2 + 1 < NEXT(a).y WITHIN 1 SLIDE 1";
        match parse_query(text).unwrap().where_expr.unwrap() {
            Expr::Bin {
                op: BinOp::Cmp(CmpOp::Lt),
                lhs,
                ..
            } => match *lhs {
                Expr::Bin { op: BinOp::Add, .. } => {}
                other => panic!("expected Add on lhs, got {other:?}"),
            },
            other => panic!("expected Cmp, got {other:?}"),
        }
    }

    #[test]
    fn duration_units() {
        let q = parse_query("RETURN COUNT(*) PATTERN A WITHIN 2 hours SLIDE 90").unwrap();
        assert_eq!(q.window, WindowSpec::new(7200, 90));
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_query("RETURN COUNT(*)").is_err());
        assert!(parse_query("PATTERN A WITHIN 1 SLIDE 1").is_err());
        assert!(parse_pattern("SEQ(A,)").is_err());
        assert!(parse_query("RETURN COUNT(*) PATTERN A WHERE a.x < WITHIN 1 SLIDE 1").is_err());
        assert!(parse_query("RETURN COUNT(*) PATTERN A WITHIN 1 SLIDE 1 trailing").is_err());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Random patterns over types A–D with optional aliases.
        fn arb_pattern() -> impl Strategy<Value = Pattern> {
            let leaf = (0u8..4, proptest::bool::ANY).prop_map(|(i, alias)| {
                let name = ["Alpha", "Beta", "Gamma", "Delta"][i as usize];
                if alias {
                    Pattern::ty_as(name, &format!("X{i}"))
                } else {
                    Pattern::ty(name)
                }
            });
            leaf.prop_recursive(3, 16, 3, |inner| {
                prop_oneof![
                    inner.clone().prop_map(Pattern::plus),
                    inner.clone().prop_map(Pattern::star),
                    inner.clone().prop_map(Pattern::optional),
                    proptest::collection::vec(inner.clone(), 2..4).prop_map(Pattern::seq),
                    inner.clone().prop_map(Pattern::not),
                    (inner.clone(), inner).prop_map(|(a, b)| Pattern::Or(Box::new(a), Box::new(b))),
                ]
            })
        }

        proptest! {
            /// `parse(display(p)) == p` for every constructible pattern.
            #[test]
            fn pattern_display_round_trips(p in arb_pattern()) {
                let text = p.to_string();
                let reparsed = parse_pattern(&text)
                    .unwrap_or_else(|e| panic!("`{text}`: {e}"));
                prop_assert_eq!(reparsed, p);
            }
        }
    }

    #[test]
    fn count_type_aggregate() {
        let q = parse_query("RETURN COUNT(A) PATTERN A+ WITHIN 10 SLIDE 10").unwrap();
        assert_eq!(q.aggregates[0].func, AggFunc::Count("A".into()));
    }
}
