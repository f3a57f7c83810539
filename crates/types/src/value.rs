//! Attribute values carried by events.
//!
//! Queries compare attributes with arithmetic and relational operators
//! (paper Fig. 2), so values expose total numeric coercion ([`Value::as_f64`])
//! plus exact equality for partitioning (equivalence predicates and
//! `GROUP-BY` hash on [`Value`] directly). Equality, order and hash never
//! round an `Int`: 2^53 and 2^53 + 1 are two keys.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A dynamically typed attribute value.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer (ids, volumes, positions).
    Int(i64),
    /// 64-bit float (prices, speeds, loads). In comparisons a NaN sorts
    /// by its sign bit, as [`f64::total_cmp`] places it: a positive NaN
    /// above every number, a negative one below.
    Float(f64),
    /// Interned string (company names, sectors).
    Str(Arc<str>),
    /// Boolean flag.
    Bool(bool),
}

impl Value {
    /// Coerce to `f64` for numeric comparison/arithmetic.
    /// Strings coerce to NaN→0.0 only through [`Value::as_f64_opt`] failing;
    /// use that method when failure must be observable.
    #[inline]
    pub fn as_f64(&self) -> f64 {
        self.as_f64_opt().unwrap_or(f64::NAN)
    }

    /// Numeric view of the value, `None` for strings.
    #[inline]
    pub fn as_f64_opt(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Str(_) => None,
        }
    }

    /// Integer view, `None` for non-integers.
    #[inline]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view, `None` for non-strings.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Total order used by predicate evaluation and keys: numerics compare
    /// by exact value (Int/Float/Bool interoperate, `Bool` as 0 or 1, −0.0
    /// as 0.0, no `Int` rounded), strings compare lexicographically,
    /// numerics sort before strings.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self.num(), other.num()) {
            (Some(Num::Int(a)), Some(Num::Int(b))) => a.cmp(&b),
            (Some(Num::Int(a)), Some(Num::Float(b))) => int_cmp_float(a, b),
            (Some(Num::Float(a)), Some(Num::Int(b))) => int_cmp_float(b, a).reverse(),
            (Some(Num::Float(a)), Some(Num::Float(b))) => a.total_cmp(&b),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => self
                .as_str()
                .unwrap_or("")
                .cmp(other.as_str().unwrap_or("")),
        }
    }

    /// The numeric view `total_cmp` and `Hash` share: integers and flags
    /// exact, floats with −0.0 made 0.0; `None` for strings.
    #[inline]
    fn num(&self) -> Option<Num> {
        match self {
            Value::Int(i) => Some(Num::Int(*i)),
            Value::Bool(b) => Some(Num::Int(*b as i64)),
            Value::Float(f) => Some(Num::Float(if *f == 0.0 { 0.0 } else { *f })),
            Value::Str(_) => None,
        }
    }
}

/// A numeric [`Value`] as it is compared and hashed.
#[derive(Clone, Copy)]
enum Num {
    Int(i64),
    Float(f64),
}

/// 2^63, the first float past `i64::MAX`.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// Order of `i` against `f`, exactly. Rounding to `f64` is monotone, so
/// `i as f64` orders against `f` as `i` does unless it lands on `f`. Then
/// `f` is a whole number: compare as integers below 2^63, and at 2^63
/// (where `i64::MAX` rounds to) `f` is the larger.
#[inline]
fn int_cmp_float(i: i64, f: f64) -> Ordering {
    match (i as f64).total_cmp(&f) {
        Ordering::Equal if f < TWO_POW_63 => i.cmp(&(f as i64)),
        Ordering::Equal => Ordering::Less,
        unequal => unequal,
    }
}

/// Whether `i` is exactly a `f64`. The rounded float is below 2^63 unless
/// `i` rounds up to it, which `i64::MAX as f64 as i64` would hide by
/// saturating back to `i64::MAX`.
#[inline]
fn exact_as_f64(i: i64) -> bool {
    let f = i as f64;
    f < TWO_POW_63 && f as i64 == i
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must agree with `eq`: 2i64 == 2.0f64, so a number that is exactly
        // a float hashes as that float's bits (−0.0 already made 0.0). An
        // integer that is not equals no float, so it hashes as itself under
        // its own tag.
        match self.num() {
            Some(Num::Int(i)) if !exact_as_f64(i) => {
                state.write_u8(2);
                state.write_i64(i);
            }
            Some(Num::Int(i)) => {
                state.write_u8(0);
                state.write_u64((i as f64).to_bits());
            }
            Some(Num::Float(f)) => {
                state.write_u8(0);
                state.write_u64(f.to_bits());
            }
            None => {
                state.write_u8(1);
                self.as_str().unwrap_or("").hash(state);
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_eq!(hash_of(&Value::Int(2)), hash_of(&Value::Float(2.0)));
        assert_ne!(Value::Int(2), Value::Float(2.5));
    }

    #[test]
    fn integers_past_2_pow_53_stay_apart() {
        let p = 1i64 << 53;
        assert_ne!(Value::Int(p), Value::Int(p + 1));
        assert_eq!(
            Value::Int(p + 1).total_cmp(&Value::Int(p)),
            Ordering::Greater
        );
        assert_ne!(hash_of(&Value::Int(p)), hash_of(&Value::Int(p + 1)));
        // 2^53 + 1 rounds to 2^53 as a float, but is not equal to it.
        assert_eq!(Value::Int(p), Value::Float(p as f64));
        assert_eq!(hash_of(&Value::Int(p)), hash_of(&Value::Float(p as f64)));
        assert_eq!(
            Value::Int(p + 1).total_cmp(&Value::Float(p as f64)),
            Ordering::Greater
        );
        assert_eq!(
            Value::Int(p - 1).total_cmp(&Value::Float(p as f64)),
            Ordering::Less
        );
        // i64::MAX rounds to 2^63, which is past it.
        let top = Value::Float(TWO_POW_63);
        assert_eq!(Value::Int(i64::MAX).total_cmp(&top), Ordering::Less);
        assert!(!exact_as_f64(i64::MAX));
        assert!(exact_as_f64(i64::MIN));
        assert_eq!(Value::Int(i64::MIN), Value::Float(-TWO_POW_63));
        // A NaN keeps its place by sign: a positive one above every number.
        let nan = Value::Float(f64::NAN);
        assert_eq!(Value::Int(i64::MAX).total_cmp(&nan), Ordering::Less);
        let neg_nan = Value::Float(-f64::NAN);
        assert_eq!(Value::Int(i64::MIN).total_cmp(&neg_nan), Ordering::Greater);
    }

    #[test]
    fn negative_zero_normalized() {
        assert_eq!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Float(0.0)));
    }

    #[test]
    fn strings_sort_after_numbers() {
        use std::cmp::Ordering;
        assert_eq!(
            Value::from("abc").total_cmp(&Value::Int(999)),
            Ordering::Greater
        );
        assert_eq!(
            Value::from("a").total_cmp(&Value::from("b")),
            Ordering::Less
        );
        assert_eq!(Value::from("x"), Value::from("x"));
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::Bool(true).as_f64(), 1.0);
        assert_eq!(Value::Int(7).as_i64(), Some(7));
        assert_eq!(Value::Float(7.0).as_i64(), None);
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert!(Value::from("s").as_f64().is_nan());
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::from("IBM").to_string(), "IBM");
    }
}
