//! Binary (de)serialization of runtime state — the building blocks of
//! durability snapshots.
//!
//! Each piece of engine state gets a small, versionless record encoding
//! (the containing snapshot blob carries the version byte): partition keys,
//! graph vertices, and emitted result rows. An aggregate cell — a vertex's
//! per-window aggregate or a window's final per group — is one record of
//! the cell codec ([`CellsRef::encode`], [`Cells::decode`]), which checks
//! the record's slot counts against the plan's layout. Container modules
//! ([`graph`](crate::graph), [`engine`](crate::engine),
//! [`reorder`](crate::reorder)) compose these into whole-component state
//! blobs; the [`executor`](crate::executor) composes those into the
//! per-epoch snapshot the durability layer persists.

use crate::agg::{AggLayout, Cells, CellsRef, TrendNum};
use crate::grouping::PartitionKey;
use crate::results::{OutValue, WindowResult};
use crate::storage::Row;
use greta_query::StateId;
use greta_types::codec::{put_u16, put_u32, put_u64, Reader};
use greta_types::{CodecError, Event, EventRef, Time, Value};

/// Append a partition key (`None` marks a sub-key hole).
pub(crate) fn encode_key(k: &PartitionKey, out: &mut Vec<u8>) {
    put_u32(out, k.0.len() as u32);
    for v in &k.0 {
        match v {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

/// Decode a partition key written by [`encode_key`].
pub(crate) fn decode_key(r: &mut Reader<'_>) -> Result<PartitionKey, CodecError> {
    let n = r.seq_len(1)?;
    let mut vals = Vec::with_capacity(n);
    for _ in 0..n {
        vals.push(match r.u8()? {
            0 => None,
            1 => Some(Value::decode(r)?),
            t => return Err(CodecError(format!("bad key slot tag {t}"))),
        });
    }
    Ok(PartitionKey(vals))
}

/// A graph vertex as the snapshot records it: what [`encode_vertex`] wrote,
/// owned, before the storage files it under its pane, state and sort key.
/// Its cells went straight into the block [`decode_vertex`] was handed.
pub(crate) struct Vertex {
    pub state: StateId,
    pub row: Row,
    /// The event's values at the state's projection.
    pub values: Vec<Value>,
    /// How many cells (windows of the vertex's time) the record carried.
    pub cells: usize,
}

/// Append the vertex stored as `row` of a run of `state`, with its
/// projected `values`; `cells`, laid out by `layout`, are its aggregates
/// for the windows of its time.
pub(crate) fn encode_vertex<N: TrendNum>(
    state: StateId,
    row: &Row,
    values: &[Value],
    cells: CellsRef<'_, N>,
    layout: &AggLayout,
    out: &mut Vec<u8>,
) {
    put_u16(out, state.0);
    put_u64(out, row.time.ticks());
    put_u64(out, row.key.to_bits());
    put_u64(out, row.seq);
    put_u64(out, row.latest_start.ticks());
    put_u32(out, values.len() as u32);
    for v in values {
        v.encode(out);
    }
    put_u32(out, cells.cells(layout).len() as u32);
    cells.encode(layout, out);
}

/// Decode a graph vertex written by [`encode_vertex`] under `layout`,
/// appending its cells to `cells`.
pub(crate) fn decode_vertex<N: TrendNum>(
    r: &mut Reader<'_>,
    layout: &AggLayout,
    cells: &mut Cells<N>,
) -> Result<Vertex, CodecError> {
    let state = StateId(r.u16()?);
    let row = Row {
        time: Time(r.u64()?),
        key: f64::from_bits(r.u64()?),
        seq: r.u64()?,
        latest_start: Time(r.u64()?),
    };
    let n = r.seq_len(2)?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(Value::decode(r)?);
    }
    let n = r.seq_len(16)?;
    for _ in 0..n {
        cells.decode(r, layout)?;
    }
    Ok(Vertex {
        state,
        row,
        values,
        cells: n,
    })
}

/// Append a result row.
pub(crate) fn encode_window_result<N: TrendNum>(row: &WindowResult<N>, out: &mut Vec<u8>) {
    put_u64(out, row.window);
    encode_key(&row.group, out);
    put_u32(out, row.values.len() as u32);
    for v in &row.values {
        match v {
            OutValue::Count(n) => {
                out.push(0);
                n.encode(out);
            }
            OutValue::Float(f) => {
                out.push(1);
                put_u64(out, f.to_bits());
            }
        }
    }
}

/// Decode a result row written by [`encode_window_result`].
pub(crate) fn decode_window_result<N: TrendNum>(
    r: &mut Reader<'_>,
) -> Result<WindowResult<N>, CodecError> {
    let window = r.u64()?;
    let group = decode_key(r)?;
    let n = r.seq_len(1)?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(match r.u8()? {
            0 => OutValue::Count(N::decode(r)?),
            1 => OutValue::Float(f64::from_bits(r.u64()?)),
            t => return Err(CodecError(format!("bad OutValue tag {t}"))),
        });
    }
    Ok(WindowResult {
        window,
        group,
        values,
    })
}

/// Append a list of shared events.
pub(crate) fn encode_events<'a>(
    events: impl ExactSizeIterator<Item = &'a EventRef>,
    out: &mut Vec<u8>,
) {
    put_u32(out, events.len() as u32);
    for e in events {
        e.encode(out);
    }
}

/// Decode a list of events written by [`encode_events`].
pub(crate) fn decode_events(r: &mut Reader<'_>) -> Result<Vec<EventRef>, CodecError> {
    let n = r.seq_len(11)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(Event::decode(r)?.into_ref());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use greta_bignum::BigUint;
    use greta_types::TypeId;

    #[test]
    fn cell_roundtrip_all_carriers() {
        use greta_query::compile::{AggKind, CompiledAgg};
        let a = |kind| CompiledAgg {
            label: String::new(),
            kind,
        };
        let layout = AggLayout::new(&[
            a(AggKind::Count(TypeId(0))),
            a(AggKind::Count(TypeId(1))),
            a(AggKind::Min(TypeId(0), greta_types::AttrId(0))),
            a(AggKind::Max(TypeId(0), greta_types::AttrId(0))),
            a(AggKind::Sum(TypeId(1), greta_types::AttrId(1))),
        ]);
        fn check<N: TrendNum>(layout: &AggLayout, mk: impl Fn(u64) -> N) {
            // count, COUNT(A), COUNT(B), SUM(B.1); MIN(A.0), MAX(A.0).
            let nums = [mk(17), mk(3), mk(0), mk(123456789)];
            let exts = [-2.5, f64::NEG_INFINITY];
            let mut buf = Vec::new();
            CellsRef::new(&nums, &exts).encode(layout, &mut buf);
            let mut got = Cells::<N>::default();
            got.decode(&mut Reader::new(&buf), layout).unwrap();
            let mut again = Vec::new();
            got.slice(0..1, layout).encode(layout, &mut again);
            assert_eq!(again, buf);
            // Under a layout without the `MAX` slot the record is refused.
            let mut narrower = layout.clone();
            narrower.max_targets.clear();
            let err = Cells::<N>::default().decode(&mut Reader::new(&buf), &narrower);
            assert!(err.unwrap_err().0.contains("aggregate slots"));
        }
        check::<u64>(&layout, |v| v);
        check::<f64>(&layout, |v| v as f64);
        check::<BigUint>(&layout, BigUint::from_u64);
    }

    #[test]
    fn key_roundtrip_with_subkey_holes() {
        let k = PartitionKey(vec![
            Some(Value::Int(7)),
            None,
            Some(Value::from("IBM")),
            Some(Value::Float(1.25)),
        ]);
        let mut buf = Vec::new();
        encode_key(&k, &mut buf);
        assert_eq!(decode_key(&mut Reader::new(&buf)).unwrap(), k);
    }

    #[test]
    fn vertex_roundtrip() {
        let layout = AggLayout::default();
        let row = Row {
            key: -0.0,
            seq: 17,
            time: Time(99),
            latest_start: Time(90),
        };
        let values = [Value::Int(5), Value::from("IBM"), Value::Float(f64::NAN)];
        let (nums, exts) = ([42u64, 7], []);
        let mut buf = Vec::new();
        let two = CellsRef::new(&nums, &exts);
        encode_vertex(StateId(2), &row, &values, two, &layout, &mut buf);
        let mut cells = Cells::<u64>::default();
        let got = decode_vertex(&mut Reader::new(&buf), &layout, &mut cells).unwrap();
        assert_eq!(got.state, StateId(2));
        assert_eq!(got.row.key.to_bits(), row.key.to_bits());
        assert_eq!((got.row.seq, got.row.time), (row.seq, row.time));
        assert_eq!(got.row.latest_start, row.latest_start);
        assert_eq!(got.values[..2], values[..2]);
        assert!(got.values[2].as_f64().is_nan());
        assert_eq!(got.cells, 2);
        let counts: Vec<u64> = cells
            .slice(0..2, &layout)
            .cells(&layout)
            .map(|c| *c.count())
            .collect();
        assert_eq!(counts, nums);
        // Every prefix of the record is refused, never misread.
        for cut in 0..buf.len() {
            let r = &mut Reader::new(&buf[..cut]);
            assert!(decode_vertex(r, &layout, &mut Cells::<u64>::default()).is_err());
        }
    }

    #[test]
    fn window_result_roundtrip() {
        let row = WindowResult::<f64> {
            window: 9,
            group: PartitionKey(vec![Some(Value::Int(1))]),
            values: vec![OutValue::Count(8.0), OutValue::Float(f64::NAN)],
        };
        let mut buf = Vec::new();
        encode_window_result(&row, &mut buf);
        let got: WindowResult<f64> = decode_window_result(&mut Reader::new(&buf)).unwrap();
        assert_eq!(got.window, row.window);
        assert_eq!(got.group, row.group);
        assert_eq!(got.values[0], row.values[0]);
        // NaN round-trips bit-exactly even though NaN != NaN.
        match (&got.values[1], &row.values[1]) {
            (OutValue::Float(a), OutValue::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
            _ => panic!("expected floats"),
        }
    }
}
