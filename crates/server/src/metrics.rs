//! Prometheus text-format rendering of server and session metrics.
//!
//! Output follows the exposition format: one `# HELP` + `# TYPE` pair
//! per metric name, then the series. Every [`ExecutorStats`] counter is
//! exported; per-query counters carry a `query` label, per-shard vectors
//! a `shard` label, and every session series a `session` label.

use greta_core::ExecutorStats;
use std::fmt::Write as _;

/// Escape a label value per the exposition format (`\\`, `\"`, `\n`).
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One metric family: header emitted once, then any number of series.
pub(crate) struct Renderer {
    out: String,
}

impl Renderer {
    pub(crate) fn new() -> Renderer {
        Renderer { out: String::new() }
    }

    pub(crate) fn family(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    pub(crate) fn series(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        if labels.is_empty() {
            let _ = writeln!(self.out, "{name} {value}");
        } else {
            let rendered: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
                .collect();
            let _ = writeln!(self.out, "{name}{{{}}} {value}", rendered.join(","));
        }
    }

    pub(crate) fn finish(self) -> String {
        self.out
    }
}

/// A session's identity as the metrics page shows it.
pub(crate) struct SessionMetrics<'a> {
    /// Session id (the `session` label).
    pub id: u64,
    /// Query text (the `query` label on `greta_session_info`).
    pub query: &'a str,
    /// Whether the session has drained.
    pub drained: bool,
    /// Latest stats snapshot.
    pub stats: ExecutorStats,
    /// Query texts by id (every query the session ever hosted),
    /// joined with [`ExecutorStats::queries`] for the per-query series.
    pub queries: &'a [(u32, String)],
}

/// Server-level counters for the page header.
pub(crate) struct ServerMetrics {
    pub connections: u64,
    pub frames: u64,
    pub protocol_errors: u64,
    pub http_requests: u64,
    pub sessions: usize,
    pub draining: bool,
}

/// Render the whole `/metrics` document.
pub(crate) fn render(server: &ServerMetrics, sessions: &[SessionMetrics<'_>]) -> String {
    let mut r = Renderer::new();

    r.family(
        "greta_server_connections_total",
        "counter",
        "TCP connections accepted since start.",
    );
    r.series(
        "greta_server_connections_total",
        &[],
        server.connections as f64,
    );
    r.family(
        "greta_server_frames_total",
        "counter",
        "Binary protocol frames processed.",
    );
    r.series("greta_server_frames_total", &[], server.frames as f64);
    r.family(
        "greta_server_protocol_errors_total",
        "counter",
        "Malformed, oversized, or undecodable frames.",
    );
    r.series(
        "greta_server_protocol_errors_total",
        &[],
        server.protocol_errors as f64,
    );
    r.family(
        "greta_server_http_requests_total",
        "counter",
        "HTTP requests served (/metrics, /healthz).",
    );
    r.series(
        "greta_server_http_requests_total",
        &[],
        server.http_requests as f64,
    );
    r.family("greta_server_sessions", "gauge", "Live sessions.");
    r.series("greta_server_sessions", &[], server.sessions as f64);
    r.family(
        "greta_server_draining",
        "gauge",
        "1 while a server-wide shutdown drain is in progress.",
    );
    r.series("greta_server_draining", &[], server.draining as u8 as f64);

    r.family(
        "greta_session_info",
        "gauge",
        "Session identity: query text and drain state as labels, value 1.",
    );
    for s in sessions {
        let id = s.id.to_string();
        let drained = if s.drained { "true" } else { "false" };
        r.series(
            "greta_session_info",
            &[("session", &id), ("query", s.query), ("drained", drained)],
            1.0,
        );
    }

    // Scalar ExecutorStats counters/gauges, one family each, one series
    // per session: (family, type, help, getter).
    type StatGetter = fn(&ExecutorStats) -> f64;
    type ScalarFamily = (&'static str, &'static str, &'static str, StatGetter);
    let scalar: &[ScalarFamily] = &[
        (
            "greta_events_pushed_total",
            "counter",
            "Events accepted by push().",
            |s| s.pushed as f64,
        ),
        (
            "greta_events_released_total",
            "counter",
            "Events released from the reorder buffer to the shards.",
            |s| s.released as f64,
        ),
        (
            "greta_events_late_dropped_total",
            "counter",
            "Late events dropped under LatePolicy::Drop.",
            |s| s.late_dropped as f64,
        ),
        (
            "greta_events_late_diverted_total",
            "counter",
            "Late events diverted under LatePolicy::Divert.",
            |s| s.late_diverted as f64,
        ),
        (
            "greta_broadcast_events_total",
            "counter",
            "Events broadcast to every shard (no partition key), once per route group.",
            |s| s.broadcasts as f64,
        ),
        (
            "greta_watermarks_total",
            "counter",
            "Watermark advances propagated to the shards.",
            |s| s.watermarks as f64,
        ),
        (
            "greta_frames_sent_total",
            "counter",
            "Event frames sent over shard channels.",
            |s| s.frames as f64,
        ),
        (
            "greta_checkpoints_total",
            "counter",
            "Durability checkpoints taken.",
            |s| s.checkpoints as f64,
        ),
        (
            "greta_result_occupancy_rows",
            "gauge",
            "Rows waiting in the bounded result channel.",
            |s| s.result_occupancy as f64,
        ),
        (
            "greta_max_channel_occupancy_frames",
            "gauge",
            "High-water mark of shard input channel occupancy.",
            |s| s.max_channel_occupancy as f64,
        ),
        (
            "greta_peak_memory_bytes",
            "gauge",
            "Peak engine memory footprint.",
            |s| s.peak_memory_bytes as f64,
        ),
    ];
    for (name, kind, help, get) in scalar {
        r.family(name, kind, help);
        for s in sessions {
            let id = s.id.to_string();
            r.series(name, &[("session", &id)], get(&s.stats));
        }
    }

    // Per-query stream families: one series per (session, query), from
    // ExecutorStats::queries joined with the handle's query texts.
    r.family(
        "greta_query_epoch",
        "gauge",
        "Version of the session's query registry (bumps on every register/deregister barrier).",
    );
    for s in sessions {
        let id = s.id.to_string();
        r.series(
            "greta_query_epoch",
            &[("session", &id)],
            s.stats.query_epoch as f64,
        );
    }
    r.family(
        "greta_query_info",
        "gauge",
        "Hosted query identity: text and route group as labels, value 1.",
    );
    for s in sessions {
        let id = s.id.to_string();
        for q in &s.stats.queries {
            let qid = q.id.0.to_string();
            let text = s
                .queries
                .iter()
                .find(|(i, _)| *i == q.id.0)
                .map(|(_, t)| t.as_str())
                .unwrap_or("");
            let route_group = q.route_group.to_string();
            let active = if q.active { "true" } else { "false" };
            r.series(
                "greta_query_info",
                &[
                    ("session", &id),
                    ("query", &qid),
                    ("text", text),
                    ("route_group", &route_group),
                    ("active", active),
                ],
                1.0,
            );
        }
    }
    type QueryGetter = fn(&greta_core::QueryStreamStats) -> f64;
    type QueryFamily = (&'static str, &'static str, &'static str, QueryGetter);
    let per_query: &[QueryFamily] = &[
        (
            "greta_query_rows_total",
            "counter",
            "Result rows produced for this query (delivered or pending).",
            |q| q.rows as f64,
        ),
        (
            "greta_query_pending_rows",
            "gauge",
            "Rows buffered for this query awaiting poll.",
            |q| q.pending_rows as f64,
        ),
        (
            "greta_query_released_watermark",
            "gauge",
            "Windows below this id are fully released in canonical order (0 when unordered).",
            |q| q.released_to as f64,
        ),
        (
            "greta_query_min_frontier",
            "gauge",
            "Minimum cross-shard emission frontier: the window id every shard has passed.",
            |q| q.min_frontier as f64,
        ),
        (
            "greta_query_buffered_rows",
            "gauge",
            "Rows parked in this query's ordered merge awaiting slower shards.",
            |q| q.buffered_rows as f64,
        ),
        (
            "greta_query_active",
            "gauge",
            "1 while the query is registered, 0 after it detached.",
            |q| q.active as u8 as f64,
        ),
    ];
    for (name, kind, help, get) in per_query {
        r.family(name, kind, help);
        for s in sessions {
            let id = s.id.to_string();
            for q in &s.stats.queries {
                let qid = q.id.0.to_string();
                r.series(name, &[("session", &id), ("query", &qid)], get(q));
            }
        }
    }

    // Per-shard vectors: one series per (session, shard).
    r.family(
        "greta_shard_events_total",
        "counter",
        "Events routed to each shard by every route group (broadcasts count once per shard).",
    );
    for s in sessions {
        let id = s.id.to_string();
        for (shard, &n) in s.stats.events_per_shard.iter().enumerate() {
            let shard = shard.to_string();
            r.series(
                "greta_shard_events_total",
                &[("session", &id), ("shard", &shard)],
                n as f64,
            );
        }
    }
    r.family(
        "greta_shard_channel_occupancy_frames",
        "gauge",
        "Frames queued in each shard's input channel.",
    );
    for s in sessions {
        let id = s.id.to_string();
        for (shard, &n) in s.stats.channel_occupancy.iter().enumerate() {
            let shard = shard.to_string();
            r.series(
                "greta_shard_channel_occupancy_frames",
                &[("session", &id), ("shard", &shard)],
                n as f64,
            );
        }
    }
    r.family(
        "greta_query_frontier_lag_windows",
        "gauge",
        "Windows each shard's frontier in this query's ordered merge lags behind the most advanced shard.",
    );
    for s in sessions {
        let id = s.id.to_string();
        for q in &s.stats.queries {
            let qid = q.id.0.to_string();
            for (shard, &lag) in q.frontier_lag.iter().enumerate() {
                let shard = shard.to_string();
                r.series(
                    "greta_query_frontier_lag_windows",
                    &[("session", &id), ("query", &qid), ("shard", &shard)],
                    lag as f64,
                );
            }
        }
    }

    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(sessions: &[SessionMetrics<'_>]) -> String {
        render(
            &ServerMetrics {
                connections: 3,
                frames: 10,
                protocol_errors: 1,
                http_requests: 2,
                sessions: sessions.len(),
                draining: false,
            },
            sessions,
        )
    }

    #[test]
    fn renders_all_families_with_help_and_type() {
        let stats = ExecutorStats {
            pushed: 5,
            query_epoch: 2,
            queries: vec![
                greta_core::QueryStreamStats {
                    id: greta_core::QueryId(0),
                    rows: 7,
                    frontier_lag: vec![0, 4],
                    buffered_rows: 2,
                    active: true,
                    ..Default::default()
                },
                greta_core::QueryStreamStats {
                    id: greta_core::QueryId(1),
                    rows: 3,
                    pending_rows: 1,
                    route_group: 1,
                    active: true,
                    ..Default::default()
                },
            ],
            events_per_shard: vec![3, 2],
            channel_occupancy: vec![0, 1],
            ..Default::default()
        };
        let queries = vec![
            (0u32, "RETURN COUNT(*) PATTERN SEQ(A a)".to_string()),
            (1u32, "RETURN COUNT(*) PATTERN SEQ(B b)".to_string()),
        ];
        let text = page(&[SessionMetrics {
            id: 1,
            query: "RETURN COUNT(*) PATTERN SEQ(A a)",
            drained: false,
            stats,
            queries: &queries,
        }]);
        // Valid exposition format: every series line's metric name has a
        // preceding HELP/TYPE header.
        assert!(text.contains("# HELP greta_events_pushed_total"));
        assert!(text.contains("# TYPE greta_events_pushed_total counter"));
        assert!(text.contains("greta_events_pushed_total{session=\"1\"} 5"));
        assert!(text.contains("greta_shard_events_total{session=\"1\",shard=\"0\"} 3"));
        assert!(text
            .contains("greta_query_frontier_lag_windows{session=\"1\",query=\"0\",shard=\"1\"} 4"));
        assert!(text.contains("greta_query_buffered_rows{session=\"1\",query=\"0\"} 2"));
        assert!(text.contains("greta_session_info{session=\"1\",query="));
        // Per-query families: one series per (session, query).
        assert!(text.contains("greta_query_epoch{session=\"1\"} 2"));
        assert!(text.contains("greta_query_rows_total{session=\"1\",query=\"0\"} 7"));
        assert!(text.contains("greta_query_rows_total{session=\"1\",query=\"1\"} 3"));
        assert!(text.contains("greta_query_pending_rows{session=\"1\",query=\"1\"} 1"));
        assert!(text.contains(
            "greta_query_info{session=\"1\",query=\"1\",text=\"RETURN COUNT(*) PATTERN SEQ(B b)\""
        ));
        assert!(text.contains("route_group=\"1\""));
        // At least 12 distinct ExecutorStats-backed families.
        let families = text
            .lines()
            .filter(|l| l.starts_with("# TYPE greta_"))
            .count();
        assert!(families >= 12, "only {families} families");
    }

    #[test]
    fn label_values_are_escaped() {
        let text = page(&[SessionMetrics {
            id: 2,
            query: "line1\nline2 \"quoted\" back\\slash",
            drained: true,
            stats: ExecutorStats::default(),
            queries: &[],
        }]);
        assert!(text.contains("line1\\nline2 \\\"quoted\\\" back\\\\slash"));
    }
}
