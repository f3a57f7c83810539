//! Query results: one row per closed window per group (the *Results Hash
//! Table* of Fig. 11).

use crate::agg::{AggLayout, CellsRef, Read, TrendNum};
use crate::grouping::PartitionKey;
use crate::window::WindowId;
use std::fmt;

/// One output aggregate value.
#[derive(Debug, Clone, PartialEq)]
pub enum OutValue<N: TrendNum> {
    /// Exact count/sum in the engine's numeric carrier.
    Count(N),
    /// Floating-point value (MIN/MAX/AVG).
    Float(f64),
}

impl<N: TrendNum> OutValue<N> {
    /// Numeric view.
    pub fn to_f64(&self) -> f64 {
        match self {
            OutValue::Count(n) => n.to_f64(),
            OutValue::Float(f) => *f,
        }
    }
}

impl<N: TrendNum> fmt::Display for OutValue<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutValue::Count(n) => write!(f, "{}", n.display()),
            OutValue::Float(x) => write!(f, "{x}"),
        }
    }
}

/// One result row: the aggregates of one group in one closed window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowResult<N: TrendNum> {
    /// The window.
    pub window: WindowId,
    /// The group key (`GROUP-BY` attribute values).
    pub group: PartitionKey,
    /// Aggregate values, aligned with the query's `RETURN` aggregates.
    pub values: Vec<OutValue<N>>,
}

impl<N: TrendNum> WindowResult<N> {
    /// The row's stable result key, `(window, group)` — the canonical
    /// emission order. `(window, group)` identifies a row uniquely (each
    /// group is owned by exactly one shard and a window emits one row per
    /// group), so sorting by this key is a total order over any run's
    /// output, whatever the shard count.
    pub fn order_key(&self) -> (WindowId, &PartitionKey) {
        (self.window, &self.group)
    }

    /// Append the binary encoding of this row (`window, group, values`) —
    /// the same framing durability snapshots use, public so result rows
    /// can cross process boundaries (the network front-end streams them).
    pub fn encode(&self, out: &mut Vec<u8>) {
        crate::state::encode_window_result(self, out);
    }

    /// Decode a row written by [`encode`](Self::encode).
    pub fn decode(
        r: &mut greta_types::Reader<'_>,
    ) -> Result<WindowResult<N>, greta_types::CodecError> {
        crate::state::decode_window_result(r)
    }
}

/// Sort rows into the canonical `(window, group)` emission order — what
/// [`finish`](crate::executor::StreamExecutor::finish) returns under
/// unordered emission and what `WindowOrdered` streams incrementally.
pub fn sort_canonical<N: TrendNum>(rows: &mut [WindowResult<N>]) {
    rows.sort_by(|a, b| a.window.cmp(&b.window).then_with(|| a.group.cmp(&b.group)));
}

/// Render a final cell into the query's output values, one per `RETURN`
/// aggregate, each read where [`AggLayout::new`] resolved it.
pub fn render_aggregates<N: TrendNum>(
    cell: CellsRef<'_, N>,
    layout: &AggLayout,
) -> Vec<OutValue<N>> {
    let read = |r: &Read| match *r {
        Read::Num(i) => OutValue::Count(cell.num(i).clone()),
        Read::Ext(i) => OutValue::Float(cell.ext(i)),
        Read::Avg { sum, count } => {
            let (s, c) = (cell.num(sum).to_f64(), cell.num(count).to_f64());
            OutValue::Float(if c == 0.0 { f64::NAN } else { s / c })
        }
    };
    layout.reads.iter().map(read).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::Cells;
    use greta_query::compile::{AggKind, CompiledAgg};
    use greta_types::{AttrId, Event, Time, TypeId, Value};

    #[test]
    fn render_all_aggregate_kinds() {
        let t = TypeId(0);
        let at = AttrId(0);
        let aggs = vec![
            CompiledAgg {
                label: "COUNT(*)".into(),
                kind: AggKind::CountStar,
            },
            CompiledAgg {
                label: "COUNT(A)".into(),
                kind: AggKind::Count(t),
            },
            CompiledAgg {
                label: "MIN".into(),
                kind: AggKind::Min(t, at),
            },
            CompiledAgg {
                label: "MAX".into(),
                kind: AggKind::Max(t, at),
            },
            CompiledAgg {
                label: "SUM".into(),
                kind: AggKind::Sum(t, at),
            },
            CompiledAgg {
                label: "AVG".into(),
                kind: AggKind::Avg(t, at),
            },
        ];
        let layout = AggLayout::new(&aggs);
        let mut s = Cells::<u64>::default();
        s.reset(1, &layout);
        // Two "trends" of a single event with attr 4 and 6.
        for v in [4.0, 6.0] {
            let e = Event::new_unchecked(t, Time(1), vec![Value::Float(v)]);
            let mut x = Cells::<u64>::default();
            x.reset(1, &layout);
            x.apply_own(&e, true, &layout);
            s.merge(x.slice(0..1, &layout), &layout);
        }
        let vals = render_aggregates(s.slice(0..1, &layout), &layout);
        assert_eq!(vals[0].to_f64(), 2.0); // COUNT(*)
        assert_eq!(vals[1].to_f64(), 2.0); // COUNT(A)
        assert_eq!(vals[2].to_f64(), 4.0); // MIN
        assert_eq!(vals[3].to_f64(), 6.0); // MAX
        assert_eq!(vals[4].to_f64(), 10.0); // SUM
        assert_eq!(vals[5].to_f64(), 5.0); // AVG
    }

    #[test]
    fn avg_of_empty_group_is_nan() {
        let t = TypeId(0);
        let at = AttrId(0);
        let aggs = vec![CompiledAgg {
            label: "AVG".into(),
            kind: AggKind::Avg(t, at),
        }];
        let layout = AggLayout::new(&aggs);
        let mut s = Cells::<u64>::default();
        s.reset(1, &layout);
        let vals = render_aggregates(s.slice(0..1, &layout), &layout);
        assert!(vals[0].to_f64().is_nan());
    }

    #[test]
    fn display_of_values() {
        assert_eq!(OutValue::<u64>::Count(42).to_string(), "42");
        assert_eq!(OutValue::<u64>::Float(2.5).to_string(), "2.5");
    }
}
