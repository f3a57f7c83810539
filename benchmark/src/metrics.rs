//! The metric tables: every name the benchmark prints, with its unit, which
//! direction is better, and — for end-to-end metrics — the share of the
//! parent's median by which it may worsen before a change is a regression.
//! `BENCHMARK.json` repeats these tables for the driver; a unit test keeps
//! the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// What a user of the system sees. Three metrics of the issue are not here:
/// `failed_ops_pct` (the driver's contract wants metrics that are never 0
/// and carries failures in the result line's `attempted` / `failed`), and
/// the two row latencies, which do not repeat within any bound the contract
/// allows and are reported per layer as `paced.row_latency_p50_ms` and
/// `paced.row_latency_p99_ms` (see `README.md`).
pub static END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_eps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_event",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "state_peak_kib",
        unit: "KiB",
        better: Better::Lower,
        bound: 0.16,
    },
    EndToEnd {
        name: "rows_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that must repeat to the unit for one seed and commit.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

/// One layer = one module of the program; taken in the traced run.
pub static PER_LAYER: [PerLayer; 61] = [
    // greta_types::codec
    timed("codec.encode_ns_per_event", "ns"),
    timed("codec.decode_ns_per_event", "ns"),
    exact("codec.bytes_per_event", "B"),
    // greta_durability::wal
    timed("wal.append_ns_per_event", "ns"),
    timed("wal.sync_p50_us", "us"),
    timed("wal.syncs", "count"),
    exact("wal.bytes_per_event", "B"),
    // greta_core::reorder::ReorderBuffer
    timed("reorder.push_ns_per_event", "ns"),
    timed("reorder.max_buffered", "count"),
    timed("reorder.late_events", "count"),
    // greta_core::grouping::StreamRouting
    timed("grouping.route_ns_per_event", "ns"),
    timed("grouping.broadcast_share", "%"),
    timed("grouping.shard_skew", "ratio"),
    // greta_core::engine (+ graph, storage)
    timed("engine.inline_ns_per_event", "ns"),
    exact("engine.vertices_per_event", "count"),
    exact("engine.edges_per_event", "count"),
    exact("engine.rows", "count"),
    exact("engine.state_peak_bytes", "B"),
    timed("engine.export_state_ms", "ms"),
    timed("engine.snapshot_bytes", "B"),
    timed("engine.cpu_share", "%"),
    // greta_core::reorder::ResultMerge
    timed("merge.ns_per_row", "ns"),
    timed("merge.max_buffered_rows", "count"),
    // greta_core::executor
    timed("executor.push_p50_ns", "ns"),
    timed("executor.push_p99_ns", "ns"),
    timed("executor.poll_ns_per_call", "ns"),
    exact("executor.frames_per_kevent", "count"),
    timed("executor.watermarks", "count"),
    timed("executor.max_channel_occupancy", "count"),
    timed("executor.drain_share", "%"),
    timed("executor.finish_ms", "ms"),
    timed("executor.overhead_ns_per_event", "ns"),
    timed("executor.checkpoint_ms", "ms"),
    timed("executor.register_ms", "ms"),
    // allocator
    timed("alloc.count_per_event", "count"),
    timed("alloc.bytes_per_event", "B"),
    exact("alloc.engine.count_per_event", "count"),
    // greta_server::protocol / client / session
    timed("protocol.encode_ns_per_event", "ns"),
    timed("protocol.decode_ns_per_event", "ns"),
    exact("protocol.bytes_per_event", "B"),
    timed("serve.ack_rtt_p50_us", "us"),
    timed("serve.ack_rtt_p99_us", "us"),
    timed("serve.busy_ack_share", "%"),
    PerLayer {
        name: "serve.rows_per_frame_p50",
        unit: "count",
        better: Better::Higher,
        exact: false,
    },
    timed("serve.generator_late_p99_ms", "ms"),
    timed("serve.rate25.p99_ms", "ms"),
    timed("serve.rate50.p99_ms", "ms"),
    timed("serve.rate75.p99_ms", "ms"),
    timed("serve.backlog_growing", "count"),
    // the paced phases of the traced run: the frozen rate (25 % of seed
    // saturation) and twice it
    timed("paced.row_latency_p50_ms", "ms"),
    timed("paced.row_latency_p99_ms", "ms"),
    timed("paced.rate50.p50_ms", "ms"),
    timed("paced.rate50.p99_ms", "ms"),
    // set-up
    timed("query.compile_ms", "ms"),
    timed("workloads.generate_ms", "ms"),
    // the traced run itself
    timed("trace.overhead_pct", "%"),
    // the traced run's own end-to-end readings, for reference beside the
    // layer numbers they are to explain
    PerLayer {
        name: "traced.throughput_eps",
        unit: "1/s",
        better: Better::Higher,
        exact: false,
    },
    timed("traced.cpu_us_per_event", "us"),
    // shape counters the guards read
    timed("shape.rows_per_event", "count"),
    timed("shape.late_share", "%"),
    exact("shape.events", "count"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// One measured value on its way to the output.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn word(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for (i, n) in names.iter().enumerate() {
            assert!(name_ok(n), "{n}");
            assert!(!names[..i].contains(n), "{n} used twice");
        }
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)), "per-layer unit");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` sits one level above this package.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 << 10);
        let doc = Json::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect("an array");
        let text_of = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("missing {key}"))
                .to_string()
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text_of(j, "name"), w.name);
            assert_eq!(text_of(j, "why"), w.why);
            assert_eq!(j.as_obj().map(<[_]>::len), Some(2));
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text_of(j, "name"), m.name);
            assert_eq!(text_of(j, "unit"), m.unit);
            assert_eq!(text_of(j, "better"), word(m.better));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert_eq!(j.as_obj().map(<[_]>::len), Some(4));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text_of(j, "name"), m.name);
            assert_eq!(text_of(j, "unit"), m.unit);
            assert_eq!(text_of(j, "better"), word(m.better));
            assert_eq!(j.as_obj().map(<[_]>::len), Some(3));
        }
        let command: Vec<String> = list("command")
            .iter()
            .map(|c| c.as_str().expect("a string").to_string())
            .collect();
        assert_eq!(command, ["bash", "benchmark/run.sh"]);
        let paths: Vec<&str> = list("paths").iter().filter_map(Json::as_str).collect();
        assert_eq!(paths, ["benchmark"]);
        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("a number");
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
