//! Exact `Value` keys: equality, order and hash never round an `Int`.
//!
//! A partition or group key compares and hashes through `Value`. Integers
//! past 2^53 do not all fit in an `f64`, so a key that went through one
//! would merge neighbouring integers into one partition. The answers here
//! are literal: the brute-force oracle shares `Value`, so it cannot be the
//! reference for `Value` itself.

use greta::core::{ExecutorConfig, GretaEngine, StreamExecutor, WindowResult};
use greta::query::CompiledQuery;
use greta::types::{Event, SchemaRegistry, Time, Value};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const P53: i64 = 1 << 53;

fn rows_of(rows: &[WindowResult<f64>]) -> Vec<(u64, String, f64)> {
    let mut out: Vec<_> = rows
        .iter()
        .map(|r| (r.window, format!("{:?}", r.group.0), r.values[0].to_f64()))
        .collect();
    out.sort_by(|a, b| a.partial_cmp(b).unwrap());
    out
}

/// Companies 2^53 and 2^53 + 1 are two partitions and two groups, in the
/// engine and in the sharded executor: each has a single event, so each
/// row counts one trend.
#[test]
fn companies_past_2_pow_53_are_two_groups() {
    let mut reg = SchemaRegistry::new();
    let stock = reg.register_type("Stock", &["company", "price"]).unwrap();
    let q = CompiledQuery::parse(
        "RETURN company, COUNT(*) PATTERN Stock S+ WHERE [company] \
         GROUP-BY company WITHIN 10 SLIDE 10",
        &reg,
    )
    .unwrap();
    let events: Vec<Event> = [P53, P53 + 1]
        .iter()
        .enumerate()
        .map(|(t, &c)| {
            Event::new_unchecked(
                stock,
                Time(t as u64),
                vec![Value::Int(c), Value::Float(1.0)],
            )
        })
        .collect();
    let expect = vec![
        (0, format!("{:?}", [Some(Value::Int(P53))]), 1.0),
        (0, format!("{:?}", [Some(Value::Int(P53 + 1))]), 1.0),
    ];

    let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    assert_eq!(rows_of(&engine.run(&events).unwrap()), expect);

    let config = ExecutorConfig {
        shards: 2,
        ..Default::default()
    };
    let mut exec = StreamExecutor::<f64>::new(q, reg, config).unwrap();
    for e in events {
        exec.push(e).unwrap();
    }
    assert_eq!(rows_of(&exec.finish().unwrap()), expect);
}

fn hash_of(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Mixed values, weighted towards the places an order can go wrong:
/// integers around ±2^53 and at the ends of `i64`, floats that are exactly
/// those integers, −0.0, NaNs of both signs, infinities, flags, strings.
fn arb_value() -> impl Strategy<Value = Value> {
    let edges: Vec<i64> = vec![
        0,
        1,
        -1,
        P53 - 1,
        P53,
        P53 + 1,
        P53 + 2,
        -P53 - 1,
        -P53,
        -P53 + 1,
        i64::MAX,
        i64::MAX - 1,
        i64::MIN,
        i64::MIN + 1,
    ];
    let ints = edges.clone();
    let floats = edges;
    prop_oneof![
        (0usize..14, -2i8..3).prop_map(move |(i, d)| Value::Int(ints[i].saturating_add(d as i64))),
        any::<i64>().prop_map(Value::Int),
        (0usize..14).prop_map(move |i| Value::Float(floats[i] as f64)),
        (0usize..8).prop_map(|i| {
            let specials = [
                0.0,
                -0.0,
                f64::NAN,
                -f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                9_223_372_036_854_775_808.0, // 2^63, just past i64::MAX
                2.5,
            ];
            Value::Float(specials[i])
        }),
        any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
        any::<bool>().prop_map(Value::Bool),
        (0usize..3).prop_map(|i| Value::from(["", "a", "b"][i])),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

    /// `total_cmp` is a total order (antisymmetric and transitive), `eq`
    /// is its `Equal`, and equal values hash equally.
    #[test]
    fn total_cmp_is_a_total_order_consistent_with_eq_and_hash(
        a in arb_value(),
        b in arb_value(),
        c in arb_value(),
    ) {
        prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        prop_assert_eq!(a == b, a.total_cmp(&b) == Ordering::Equal);
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b), "{:?} == {:?}", a, b);
        }
        let (ab, bc) = (a.total_cmp(&b), b.total_cmp(&c));
        if ab == bc || bc == Ordering::Equal {
            prop_assert_eq!(a.total_cmp(&c), ab, "{:?} {:?} {:?}", a, b, c);
        } else if ab == Ordering::Equal {
            prop_assert_eq!(a.total_cmp(&c), bc, "{:?} {:?} {:?}", a, b, c);
        }
        // Two numbers are ordered as the exact reals they denote.
        if let (Some(x), Some(y)) = (exact(&a), exact(&b)) {
            prop_assert_eq!(a.total_cmp(&b), x.cmp(&y), "{:?} {:?}", a, b);
        }
    }
}

/// The exact value of an integer, a flag or a whole float within `i128`:
/// the cases that rounding through `f64` gets wrong.
fn exact(v: &Value) -> Option<i128> {
    match v {
        Value::Int(i) => Some(*i as i128),
        Value::Bool(b) => Some(*b as i128),
        Value::Float(f) if f.fract() == 0.0 && f.abs() < 1e38 => Some(*f as i128),
        _ => None,
    }
}
