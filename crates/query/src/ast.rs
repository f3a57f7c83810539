//! Abstract syntax for event trend aggregation queries (paper Fig. 2).

use std::fmt;

/// Kleene pattern (paper Definition 1, plus the §9 sugar `*`, `?`, `∨`, `∧`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// An event type, optionally with a query-local alias
    /// (`PATTERN Stock S+` binds alias `S`).
    Type {
        /// Schema event type name.
        name: String,
        /// Alias used in predicates/aggregates; defaults to the type name.
        alias: Option<String>,
    },
    /// Kleene plus `P+`: one or more matches of `P`.
    Plus(Box<Pattern>),
    /// Kleene star `P*` = `P+ | ε` (syntactic sugar, §9).
    Star(Box<Pattern>),
    /// Optional `P?` = `P | ε` (syntactic sugar, §9).
    Optional(Box<Pattern>),
    /// Event sequence. Stored n-ary, semantically left-nested binary `SEQ`.
    Seq(Vec<Pattern>),
    /// Negation `NOT P`; only valid inside a `SEQ` (paper §2).
    Not(Box<Pattern>),
    /// Disjunction `P ∨ Q` (§9).
    Or(Box<Pattern>, Box<Pattern>),
    /// Conjunction `P ∧ Q` (§9).
    And(Box<Pattern>, Box<Pattern>),
}

impl Pattern {
    /// Leaf pattern for an event type.
    pub fn ty(name: &str) -> Pattern {
        Pattern::Type {
            name: name.to_string(),
            alias: None,
        }
    }

    /// Leaf pattern with an alias.
    pub fn ty_as(name: &str, alias: &str) -> Pattern {
        Pattern::Type {
            name: name.to_string(),
            alias: Some(alias.to_string()),
        }
    }

    /// `self+`.
    pub fn plus(self) -> Pattern {
        Pattern::Plus(Box::new(self))
    }

    /// `self*`.
    pub fn star(self) -> Pattern {
        Pattern::Star(Box::new(self))
    }

    /// `self?`.
    pub fn optional(self) -> Pattern {
        Pattern::Optional(Box::new(self))
    }

    /// `SEQ(parts…)`.
    pub fn seq(parts: Vec<Pattern>) -> Pattern {
        Pattern::Seq(parts)
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)] // domain verb from the paper's grammar
    pub fn not(self) -> Pattern {
        Pattern::Not(Box::new(self))
    }

    /// The alias this leaf binds (alias if given, else the type name).
    /// Only meaningful on [`Pattern::Type`].
    pub fn binding(&self) -> Option<&str> {
        match self {
            Pattern::Type { name, alias } => Some(alias.as_deref().unwrap_or(name)),
            _ => None,
        }
    }

    /// Pattern size: number of event types and operators (paper Def. 1).
    pub fn size(&self) -> usize {
        match self {
            Pattern::Type { .. } => 1,
            Pattern::Plus(p) | Pattern::Star(p) | Pattern::Optional(p) | Pattern::Not(p) => {
                1 + p.size()
            }
            Pattern::Seq(ps) => 1 + ps.iter().map(Pattern::size).sum::<usize>(),
            Pattern::Or(a, b) | Pattern::And(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// True when the pattern contains no negation (paper Def. 1: *positive*).
    pub fn is_positive(&self) -> bool {
        match self {
            Pattern::Type { .. } => true,
            Pattern::Plus(p) | Pattern::Star(p) | Pattern::Optional(p) => p.is_positive(),
            Pattern::Seq(ps) => ps.iter().all(Pattern::is_positive),
            Pattern::Not(_) => false,
            Pattern::Or(a, b) | Pattern::And(a, b) => a.is_positive() && b.is_positive(),
        }
    }

    /// True when the pattern contains at least one Kleene plus/star
    /// (paper Def. 1: *Kleene pattern*).
    pub fn has_kleene(&self) -> bool {
        match self {
            Pattern::Type { .. } => false,
            Pattern::Plus(_) | Pattern::Star(_) => true,
            Pattern::Optional(p) | Pattern::Not(p) => p.has_kleene(),
            Pattern::Seq(ps) => ps.iter().any(Pattern::has_kleene),
            Pattern::Or(a, b) | Pattern::And(a, b) => a.has_kleene() || b.has_kleene(),
        }
    }

    /// All `(type name, binding)` leaves, left to right.
    pub fn leaves(&self) -> Vec<(&str, &str)> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves<'a>(&'a self, out: &mut Vec<(&'a str, &'a str)>) {
        match self {
            Pattern::Type { name, alias } => {
                out.push((name.as_str(), alias.as_deref().unwrap_or(name.as_str())))
            }
            Pattern::Plus(p) | Pattern::Star(p) | Pattern::Optional(p) | Pattern::Not(p) => {
                p.collect_leaves(out)
            }
            Pattern::Seq(ps) => ps.iter().for_each(|p| p.collect_leaves(out)),
            Pattern::Or(a, b) | Pattern::And(a, b) => {
                a.collect_leaves(out);
                b.collect_leaves(out);
            }
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Type { name, alias } => match alias {
                Some(a) if a != name => write!(f, "{name} {a}"),
                _ => write!(f, "{name}"),
            },
            Pattern::Plus(p) => write!(f, "({p})+"),
            Pattern::Star(p) => write!(f, "({p})*"),
            Pattern::Optional(p) => write!(f, "({p})?"),
            Pattern::Seq(ps) => {
                write!(f, "SEQ(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Pattern::Not(p) => write!(f, "NOT {p}"),
            Pattern::Or(a, b) => write!(f, "({a} OR {b})"),
            Pattern::And(a, b) => write!(f, "({a} AND {b})"),
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply to an ordering between two values.
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }

    /// Mirror the operator (swap operand sides): `a < b` ⇔ `b > a`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Binary operators of the predicate grammar (paper Fig. 2, production `O`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// Logical conjunction.
    And,
    /// Logical disjunction.
    Or,
    /// Comparison.
    Cmp(CmpOp),
}

/// Predicate / arithmetic expression (paper Fig. 2, production `θ`).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `E.attr` — attribute of the bound event (in edge predicates: the
    /// *earlier* of the two adjacent events).
    Attr {
        /// Alias or type name the attribute is read from.
        target: String,
        /// Attribute name.
        attr: String,
    },
    /// `NEXT(E).attr` — attribute of the *next* adjacent event in the trend.
    NextAttr {
        /// Alias or type name.
        target: String,
        /// Attribute name.
        attr: String,
    },
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Equivalence predicate `[attr, …]` (paper §6): all events in a trend
    /// carry equal values of these attributes.
    Equiv(Vec<EquivAttr>),
}

/// One attribute inside an equivalence predicate, optionally qualified
/// (`[P.vehicle, segment]` in query Q3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EquivAttr {
    /// Alias/type qualifier, if any.
    pub target: Option<String>,
    /// Attribute name.
    pub attr: String,
}

impl Expr {
    /// `lhs op rhs` convenience constructor.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `target.attr`.
    pub fn attr(target: &str, attr: &str) -> Expr {
        Expr::Attr {
            target: target.into(),
            attr: attr.into(),
        }
    }

    /// Split a conjunction into its top-level conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::Bin {
                op: BinOp::And,
                lhs,
                rhs,
            } => {
                let mut v = lhs.conjuncts();
                v.extend(rhs.conjuncts());
                v
            }
            other => vec![other],
        }
    }

    /// True if the expression mentions `NEXT(_)`.
    pub fn uses_next(&self) -> bool {
        match self {
            Expr::NextAttr { .. } => true,
            Expr::Bin { lhs, rhs, .. } => lhs.uses_next() || rhs.uses_next(),
            _ => false,
        }
    }

    /// Targets (aliases/type names) referenced without `NEXT`.
    pub fn plain_targets(&self) -> Vec<&str> {
        let mut v = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Attr { target, .. } = e {
                v.push(target.as_str());
            }
        });
        v
    }

    /// Targets referenced via `NEXT`.
    pub fn next_targets(&self) -> Vec<&str> {
        let mut v = Vec::new();
        self.walk(&mut |e| {
            if let Expr::NextAttr { target, .. } = e {
                v.push(target.as_str());
            }
        });
        v
    }

    fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        if let Expr::Bin { lhs, rhs, .. } = self {
            lhs.walk(f);
            rhs.walk(f);
        }
    }
}

/// Aggregation function (paper Def. 2 / Fig. 2 production `A`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` — number of trends per group.
    CountStar,
    /// `COUNT(E)` — number of `E` occurrences across all trends per group.
    Count(String),
    /// `MIN(E.attr)` over all `E` events in all trends per group.
    Min(String, String),
    /// `MAX(E.attr)`.
    Max(String, String),
    /// `SUM(E.attr)` — sums over every occurrence in every trend.
    Sum(String, String),
    /// `AVG(E.attr)` = `SUM(E.attr) / COUNT(E)`.
    Avg(String, String),
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggFunc::CountStar => write!(f, "COUNT(*)"),
            AggFunc::Count(t) => write!(f, "COUNT({t})"),
            AggFunc::Min(t, a) => write!(f, "MIN({t}.{a})"),
            AggFunc::Max(t, a) => write!(f, "MAX({t}.{a})"),
            AggFunc::Sum(t, a) => write!(f, "SUM({t}.{a})"),
            AggFunc::Avg(t, a) => write!(f, "AVG({t}.{a})"),
        }
    }
}

/// One aggregate in the `RETURN` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Output column label.
    pub label: String,
}

impl AggSpec {
    /// Aggregate with a default label derived from the function.
    pub fn new(func: AggFunc) -> AggSpec {
        let label = func.to_string();
        AggSpec { func, label }
    }
}

/// `WITHIN`/`SLIDE` window (durations in ticks; parser converts time units).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowSpec {
    /// Window length in ticks.
    pub within: u64,
    /// Slide in ticks.
    pub slide: u64,
}

impl WindowSpec {
    /// Construct, without validation (validated at compile time).
    pub fn new(within: u64, slide: u64) -> WindowSpec {
        WindowSpec { within, slide }
    }

    /// Number of windows a single event falls into (`k` of Theorem 8.1).
    pub fn windows_per_event(&self) -> u64 {
        self.within.div_ceil(self.slide)
    }
}

/// A complete event trend aggregation query (paper Definition 2).
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Plain attributes in the `RETURN` clause (must be grouping attributes).
    pub return_attrs: Vec<String>,
    /// Aggregates in the `RETURN` clause.
    pub aggregates: Vec<AggSpec>,
    /// The Kleene pattern.
    pub pattern: Pattern,
    /// Optional `WHERE` predicate.
    pub where_expr: Option<Expr>,
    /// `GROUP-BY` attributes.
    pub group_by: Vec<String>,
    /// `WITHIN … SLIDE …`.
    pub window: WindowSpec,
}

impl QuerySpec {
    /// Minimal query: one pattern, `COUNT(*)`, a single window covering
    /// `within` ticks tumbling by the same amount.
    pub fn count_star(pattern: Pattern, within: u64) -> QuerySpec {
        QuerySpec {
            return_attrs: vec![],
            aggregates: vec![AggSpec::new(AggFunc::CountStar)],
            pattern,
            where_expr: None,
            group_by: vec![],
            window: WindowSpec::new(within, within),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_constructors_and_display() {
        // (SEQ(A+, B))+ — the running example of §4.
        let p = Pattern::seq(vec![Pattern::ty("A").plus(), Pattern::ty("B")]).plus();
        assert_eq!(p.to_string(), "(SEQ((A)+, B))+");
        assert_eq!(p.size(), 5); // A, +, B, SEQ, +
        assert!(p.is_positive());
        assert!(p.has_kleene());
    }

    #[test]
    fn negative_pattern_flags() {
        let p = Pattern::seq(vec![
            Pattern::ty("A").plus(),
            Pattern::ty("C").not(),
            Pattern::ty("B"),
        ]);
        assert!(!p.is_positive());
        assert!(p.has_kleene());
        assert_eq!(p.leaves(), vec![("A", "A"), ("C", "C"), ("B", "B")]);
    }

    #[test]
    fn alias_binding() {
        let p = Pattern::ty_as("Stock", "S");
        assert_eq!(p.binding(), Some("S"));
        assert_eq!(p.to_string(), "Stock S");
        assert_eq!(Pattern::ty("B").binding(), Some("B"));
    }

    #[test]
    fn cmp_eval_and_flip() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Lt.eval(Less));
        assert!(!CmpOp::Lt.eval(Equal));
        assert!(CmpOp::Le.eval(Equal));
        assert!(CmpOp::Ne.eval(Greater));
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
    }

    #[test]
    fn conjunct_splitting() {
        let e = Expr::bin(
            BinOp::And,
            Expr::bin(
                BinOp::And,
                Expr::Equiv(vec![EquivAttr {
                    target: None,
                    attr: "company".into(),
                }]),
                Expr::Bool(true),
            ),
            Expr::bin(
                BinOp::Cmp(CmpOp::Gt),
                Expr::attr("S", "price"),
                Expr::NextAttr {
                    target: "S".into(),
                    attr: "price".into(),
                },
            ),
        );
        let cs = e.conjuncts();
        assert_eq!(cs.len(), 3);
        assert!(cs[2].uses_next());
        assert_eq!(cs[2].plain_targets(), vec!["S"]);
        assert_eq!(cs[2].next_targets(), vec!["S"]);
    }

    #[test]
    fn windows_per_event() {
        assert_eq!(WindowSpec::new(10, 3).windows_per_event(), 4);
        assert_eq!(WindowSpec::new(10, 10).windows_per_event(), 1);
        assert_eq!(WindowSpec::new(10, 5).windows_per_event(), 2);
    }
}
