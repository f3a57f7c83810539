//! Known defects, committed as tests of the right answer.
//!
//! Each test asserts what a correct engine computes, worked out by hand or
//! by a reference that does not share the defect, and is `#[ignore]`d with
//! the ROADMAP item that owns the fix. `tools/known_defects.sh` (a CI job)
//! runs each one alone and fails if any of them *passes*: the change that
//! fixes a defect deletes its `#[ignore]`, and the test joins the tier-1
//! suite from then on.
//!
//! Run them with `cargo test --release --test known_defects -- --ignored`.

use greta::baselines::oracle_run;
use greta::bignum::BigUint;
use greta::core::window::{window_close_time, window_start_time};
use greta::core::{GretaEngine, OutValue, TrendNum, WindowResult};
use greta::query::CompiledQuery;
use greta::types::{Event, SchemaRegistry, Time, Value};
use std::collections::BTreeMap;

/// The stream generators' SplitMix64, so the streams here are fixed by
/// their seed alone.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `(window, group)` → the row's first value, rendered by `show`.
fn by_key<N: TrendNum>(
    rows: &[WindowResult<N>],
    show: impl Fn(&N) -> String,
) -> BTreeMap<(u64, String), String> {
    rows.iter()
        .map(|r| {
            let value = match &r.values[0] {
                OutValue::Count(n) => show(n),
                other => other.to_string(),
            };
            ((r.window, format!("{:?}", r.group.0)), value)
        })
        .collect()
}

/// The one-window count of a query over `events`, by the engine.
fn engine_count(reg: &SchemaRegistry, text: &str, events: &[Event]) -> f64 {
    let q = CompiledQuery::parse(text, reg).unwrap();
    let rows = GretaEngine::<f64>::new(q, reg.clone())
        .unwrap()
        .run(events)
        .unwrap();
    rows.iter().map(|r| r.values[0].to_f64()).sum()
}

/// ROADMAP item 8. `q1_dense`'s query over 12 000 events of its shape (10
/// companies in 3 sectors, a uniform price per event, one event per tick,
/// seed 7) counts past 2^53. Every `f64` count must still equal the exact
/// `BigUint` count.
#[test]
#[ignore = "ROADMAP item 8: an f64 COUNT past 2^53 is rounded"]
fn f64_counts_equal_exact_counts_on_a_q1_dense_stream() {
    let mut reg = SchemaRegistry::new();
    let stock = reg
        .register_type(
            "Stock",
            &["price", "volume", "company", "sector", "kind", "txn"],
        )
        .unwrap();
    let mut rng = SplitMix64(7);
    let events: Vec<Event> = (0..12_000u64)
        .map(|i| {
            let company = rng.below(10);
            Event::new_unchecked(
                stock,
                Time(i),
                vec![
                    Value::Float(1.0 + 999.0 * rng.unit()),
                    Value::Int(1 + rng.below(1000) as i64),
                    Value::Int(company as i64),
                    Value::Int((company % 3) as i64),
                    Value::Int(rng.below(2) as i64),
                    Value::Int(i as i64),
                ],
            )
        })
        .collect();
    let q = CompiledQuery::parse(
        "RETURN sector, COUNT(*) PATTERN Stock S+ \
         WHERE [company, sector] AND S.price > NEXT(S).price \
         GROUP-BY sector WITHIN 4000 SLIDE 1000",
        &reg,
    )
    .unwrap();
    let exact = GretaEngine::<BigUint>::new(q.clone(), reg.clone())
        .unwrap()
        .run(&events)
        .unwrap();
    let rounded = GretaEngine::<f64>::new(q, reg)
        .unwrap()
        .run(&events)
        .unwrap();
    let exact = by_key(&exact, |n| n.to_string());
    let rounded = by_key(&rounded, |f| format!("{f:.0}"));
    assert_eq!(exact.len(), 36);
    let wrong: Vec<_> = exact
        .iter()
        .filter(|(k, v)| rounded.get(*k) != Some(*v))
        .map(|(k, v)| format!("{k:?}: exact {v}, f64 {:?}", rounded.get(k)))
        .collect();
    assert!(
        wrong.is_empty(),
        "{} of 36 rows:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

/// The windowed oracle: each window's rows are those of the brute-force
/// oracle run on exactly the events inside that window. Only windows that
/// close by `end` are evaluated.
fn windowed_oracle(
    q: &CompiledQuery,
    reg: &SchemaRegistry,
    events: &[Event],
    end: Time,
) -> Vec<WindowResult<f64>> {
    let w = &q.window;
    let mut rows = Vec::new();
    let mut wid = 0;
    while window_close_time(wid, w) <= end {
        let (lo, hi) = (window_start_time(wid, w), window_close_time(wid, w));
        let slice: Vec<Event> = events
            .iter()
            .filter(|e| e.time >= lo && e.time < hi)
            .cloned()
            .collect();
        rows.extend(
            oracle_run(q, reg, &slice)
                .into_iter()
                .filter(|r| r.window == wid),
        );
        wid += 1;
    }
    rows
}

/// ROADMAP item 17. §6 evaluates every window on its own, so under leading
/// negation a window's rows depend only on the events inside it. On 2 048
/// in-order events of `q3_disorder`'s query (one in 16 an `Accident` in
/// one of 40 segments, the rest `Position`s of 2 000 vehicles over 100
/// segments, seed 7), the engine's rows of every window that closes inside
/// the stream must equal the windowed oracle's.
#[test]
#[ignore = "ROADMAP item 17: leading negation is not evaluated per window"]
fn leading_negation_matches_the_windowed_oracle() {
    let mut reg = SchemaRegistry::new();
    let position = reg
        .register_type("Position", &["vehicle", "segment", "position", "speed"])
        .unwrap();
    let accident = reg.register_type("Accident", &["segment"]).unwrap();
    let mut rng = SplitMix64(7);
    let n = 2_048u64;
    let events: Vec<Event> = (0..n)
        .map(|i| {
            if rng.below(16) == 0 {
                let segment = Value::Int(rng.below(40) as i64);
                Event::new_unchecked(accident, Time(i), vec![segment])
            } else {
                let vehicle = rng.below(2_000) as i64;
                let vals = vec![
                    Value::Int(vehicle),
                    Value::Int(vehicle % 100),
                    Value::Int(0),
                    Value::Float(0.0),
                ];
                Event::new_unchecked(position, Time(i), vals)
            }
        })
        .collect();
    let q = CompiledQuery::parse(
        "RETURN segment, COUNT(*) PATTERN SEQ(NOT Accident X, Position P+) \
         WHERE [P.vehicle, segment] GROUP-BY segment WITHIN 1000 SLIDE 250",
        &reg,
    )
    .unwrap();
    let end = Time(n);
    let closed = |r: &WindowResult<f64>| window_close_time(r.window, &q.window) <= end;
    let engine = GretaEngine::<f64>::new(q.clone(), reg.clone())
        .unwrap()
        .run(&events)
        .unwrap();
    let engine: Vec<_> = engine.into_iter().filter(closed).collect();
    let show = |f: &f64| f.to_string();
    let (engine, oracle) = (
        by_key(&engine, show),
        by_key(&windowed_oracle(&q, &reg, &events, end), show),
    );
    let keys: std::collections::BTreeSet<_> = engine.keys().chain(oracle.keys()).collect();
    let wrong: Vec<_> = keys
        .into_iter()
        .filter(|k| engine.get(*k) != oracle.get(*k))
        .map(|k| {
            format!(
                "{k:?}: engine {:?}, windowed {:?}",
                engine.get(k),
                oracle.get(k)
            )
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "{} of {} rows differ, first: {:?}",
        wrong.len(),
        oracle.len(),
        wrong.first()
    );
}

/// ROADMAP item 18, the string form. An edge predicate over a string
/// attribute gets a range form and becomes a run's sort key, which is an
/// `f64`: every string key is NaN, so the row range is all rows or none
/// and the predicate itself is never evaluated. Over `A` events named x,
/// y, x the trends are the three singletons plus {x₁, x₃} under `=`, and
/// plus {x₁, y₂} under `<`: 4 each.
#[test]
#[ignore = "ROADMAP item 18: a string range predicate sorts runs by NaN keys"]
fn a_string_edge_predicate_is_evaluated() {
    let mut reg = SchemaRegistry::new();
    let a = reg.register_type("A", &["attr", "name"]).unwrap();
    let events: Vec<Event> = [(1, "x"), (1, "y"), (2, "x")]
        .iter()
        .enumerate()
        .map(|(t, &(attr, name))| {
            let vals = vec![Value::Int(attr), Value::from(name)];
            Event::new_unchecked(a, Time(t as u64 + 1), vals)
        })
        .collect();
    for op in ["=", "<"] {
        let text =
            format!("RETURN COUNT(*) PATTERN A+ WHERE A.name {op} NEXT(A).name WITHIN 10 SLIDE 10");
        assert_eq!(engine_count(&reg, &text, &events), 4.0, "{op}");
    }
}

/// ROADMAP item 18, the range form. `Value` compares integers exactly, but
/// a run still sorts its rows by an `f64` key, and 2^53 and 2^53 + 1 are
/// one key there. `S.x < NEXT(S).x` over x = 2^53, 2^53 + 1 holds, so the
/// trends are both singletons and the pair: 3.
#[test]
#[ignore = "ROADMAP item 18: run sort keys are f64, so an Int range predicate rounds"]
fn an_int_range_predicate_past_2_pow_53_is_exact() {
    let mut reg = SchemaRegistry::new();
    let tick = reg.register_type("Tick", &["x"]).unwrap();
    let p53 = 1i64 << 53;
    let events: Vec<Event> = [p53, p53 + 1]
        .iter()
        .enumerate()
        .map(|(t, &x)| Event::new_unchecked(tick, Time(t as u64 + 1), vec![Value::Int(x)]))
        .collect();
    let text = "RETURN COUNT(*) PATTERN Tick S+ WHERE S.x < NEXT(S).x WITHIN 10 SLIDE 10";
    assert_eq!(engine_count(&reg, text, &events), 3.0);
}
