//! Output checks: row digests, the event that makes a window closable, and
//! the brute-force oracle on a small prefix.

use greta_baselines::oracle::oracle_run;
use greta_core::{GretaEngine, StreamRouting, WindowResult};
use greta_query::CompiledQuery;
use greta_types::{Event, EventRef, SchemaRegistry};
use std::collections::HashMap;

/// FNV-1a over the row's wire encoding: equal digests mean byte-identical
/// rows.
pub fn row_digest(row: &WindowResult<f64>) -> u64 {
    let mut bytes = Vec::with_capacity(64);
    row.encode(&mut bytes);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Sorted row digests: the order-free fingerprint of a result set.
pub fn digests<'a>(rows: impl Iterator<Item = &'a WindowResult<f64>>) -> Vec<u64> {
    let mut d: Vec<u64> = rows.map(row_digest).collect();
    d.sort_unstable();
    d
}

/// One number for a whole result set (printed, so two runs can be compared
/// by eye).
pub fn fold(sorted_digests: &[u64]) -> u64 {
    sorted_digests
        .iter()
        .fold(sorted_digests.len() as u64, |h, d| {
            (h.rotate_left(5) ^ d).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        })
}

/// Rows missing plus rows extra: the size of the symmetric difference of two
/// sorted digest multisets.
pub fn mismatches(a: &[u64], b: &[u64]) -> u64 {
    let (mut i, mut j, mut diff) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                i += 1;
                diff += 1;
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                diff += 1;
            }
        }
    }
    diff + (a.len() - i) as u64 + (b.len() - j) as u64
}

/// Positions where two row sequences differ, plus the length difference:
/// the order-sensitive comparison for an ordered subscription.
pub fn sequence_mismatches(a: &[u64], b: &[u64]) -> u64 {
    let differing = a.iter().zip(b).filter(|(x, y)| x != y).count();
    (differing + a.len().abs_diff(b.len())) as u64
}

/// For each window id, the index of the arrival that made it closable: the
/// first one whose running-maximum time minus the slack reaches the window's
/// close time (`id · slide + within`). The vector's length is the number of
/// windows closable within `times`; later windows only close at the flush.
pub fn closing_arrivals(
    times: impl Iterator<Item = u64>,
    slack: u64,
    within: u64,
    slide: u64,
) -> Vec<u32> {
    let slide = slide.max(1);
    let mut closing = Vec::new();
    let mut max_seen = 0u64;
    for (i, t) in times.enumerate() {
        max_seen = max_seen.max(t);
        let horizon = max_seen.saturating_sub(slack);
        if horizon >= within {
            let closable = (horizon - within) / slide + 1;
            closing.resize((closable as usize).max(closing.len()), i as u32);
        }
    }
    closing
}

/// Length of the longest prefix of `released` in which no partition holds
/// more than `per_group` events — small enough for the exponential oracle —
/// and every event's time is below `before`.
///
/// `before` is the query's `WITHIN`. Past one window the two sides define
/// the reach of a broadcast negative event (an `Accident`) differently: the
/// oracle's batch splitter hands it to every matching partition, whenever
/// that partition first appears, while the engine replays it to new
/// partitions for one window only. Inside the first window they coincide.
pub fn oracle_prefix(
    released: &[EventRef],
    routing: &StreamRouting,
    per_group: usize,
    before: u64,
) -> usize {
    let mut seen: HashMap<_, usize> = HashMap::new();
    for (i, e) in released.iter().enumerate() {
        let n = seen.entry(routing.extractor().key_of(e)).or_default();
        *n += 1;
        if *n > per_group || e.time.ticks() >= before {
            return i;
        }
    }
    released.len()
}

/// Run the engine and the trend-enumerating oracle over the same small
/// in-order prefix; returns (rows compared, rows that differ).
pub fn against_oracle(
    query: &CompiledQuery,
    registry: &SchemaRegistry,
    prefix: &[EventRef],
) -> Result<(u64, u64), String> {
    let events: Vec<Event> = prefix.iter().map(|e| Event::clone(e)).collect();
    let expected = digests(oracle_run(query, registry, &events).iter());
    let mut engine =
        GretaEngine::<f64>::new(query.clone(), registry.clone()).map_err(|e| e.to_string())?;
    for e in prefix {
        engine.process_ref(e).map_err(|e| e.to_string())?;
    }
    let got = digests(engine.finish().iter());
    Ok((expected.len() as u64, mismatches(&expected, &got)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use greta_core::{OutValue, PartitionKey};
    use greta_types::Value;

    fn row(window: u64, group: i64, count: f64) -> WindowResult<f64> {
        WindowResult {
            window,
            group: PartitionKey(vec![Some(Value::Int(group))]),
            values: vec![OutValue::Count(count)],
        }
    }

    #[test]
    fn digest_is_order_free_and_sees_one_changed_value() {
        let a = [row(0, 1, 5.0), row(0, 2, 7.0), row(1, 1, 9.0)];
        let b = [row(1, 1, 9.0), row(0, 1, 5.0), row(0, 2, 7.0)];
        let c = [row(1, 1, 9.0), row(0, 1, 5.0), row(0, 2, 7.5)];
        assert_eq!(digests(a.iter()), digests(b.iter()));
        assert_eq!(fold(&digests(a.iter())), fold(&digests(b.iter())));
        // One corrupted row is one missing plus one extra.
        assert_eq!(mismatches(&digests(a.iter()), &digests(c.iter())), 2);
        assert_ne!(fold(&digests(a.iter())), fold(&digests(c.iter())));
        assert_eq!(mismatches(&digests(a.iter()), &digests(a[..2].iter())), 1);
    }

    #[test]
    fn sequence_comparison_sees_a_swap() {
        assert_eq!(sequence_mismatches(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(sequence_mismatches(&[1, 2, 3], &[1, 3, 2]), 2);
        assert_eq!(sequence_mismatches(&[1, 2, 3], &[1, 2]), 1);
    }

    #[test]
    fn closing_event_in_order() {
        // WITHIN 10 SLIDE 5, one event per tick: window 0 closes at t=10,
        // window 1 at t=15.
        let c = closing_arrivals(0..17, 0, 10, 5);
        assert_eq!(c, [10, 15]);
    }

    #[test]
    fn closing_event_waits_for_the_slack() {
        // Slack 3: window 0 ([0,10)) is closable once max − 3 ≥ 10.
        let c = closing_arrivals(0..20, 3, 10, 5);
        assert_eq!(c, [13, 18]);
    }

    #[test]
    fn closing_event_uses_the_running_maximum_under_disorder() {
        // Arrival 2 (t=14) pushes the horizon to 12 at once; the stragglers
        // after it change nothing; arrival 5 (t=21) closes window 1 (window 2 ends at 20, past the horizon of 19).
        let times = [3u64, 9, 14, 8, 11, 21];
        assert_eq!(closing_arrivals(times.into_iter(), 2, 10, 5), [2, 5]);
    }

    #[test]
    fn one_jump_closes_several_windows_and_short_streams_close_none() {
        assert_eq!(
            closing_arrivals([0u64, 100].into_iter(), 0, 10, 5).len(),
            19
        );
        assert!(closing_arrivals(0..10, 0, 10, 5).is_empty());
    }
}
