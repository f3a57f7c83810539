//! Negation runtime (paper §5.2).
//!
//! Every **negative** GRETA graph produces an [`InvalidationLog`]: one entry
//! per finished trend `(end_time, start_time)`, where `start_time` is the
//! *latest* start over all trends finishing at that END event (propagated
//! through the graph like an aggregate — a later start invalidates strictly
//! more events, so it dominates).
//!
//! The dependent (parent) graph consumes the log per Definition 5: an event
//! of the *previous* type with time `< start_time` may not connect to an
//! event of the *following* type with time `> end_time`. Because streams
//! are in-order and thresholds only compare with strict inequalities, the
//! sequential engine needs no locking — this is the degenerate (and
//! correct) instance of the §7 stream-transaction scheduler.

use greta_query::compile::{GraphId, GraphSpec};
use greta_query::StateId;
use greta_types::Time;

/// Append-only log of finished negative trends.
///
/// Entries are appended in `end_time` order (END events arrive in-order).
/// `threshold_before(t)` answers "the largest trend start among trends that
/// finished strictly before `t`" in `O(log n)` via a prefix-max.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InvalidationLog {
    /// `(end_time, prefix_max_start)` with strictly increasing `end_time`.
    entries: Vec<(Time, Time)>,
    /// End time of the first finished trend (drives Case-3 event dropping).
    first_end: Option<Time>,
}

impl InvalidationLog {
    /// Record a finished negative trend.
    pub fn push(&mut self, end: Time, start: Time) {
        if self.first_end.is_none() {
            self.first_end = Some(end);
        }
        let pmax = match self.entries.last() {
            Some(&(last_end, last_max)) => {
                debug_assert!(last_end <= end, "END events arrive in-order");
                if last_end == end {
                    // merge same-time trends, keeping the dominating start
                    let m = last_max.max(start);
                    self.entries.last_mut().unwrap().1 = m;
                    return;
                }
                last_max.max(start)
            }
            None => start,
        };
        self.entries.push((end, pmax));
    }

    /// Largest trend-start among trends finished strictly before `t`
    /// (events with time `<` this threshold are invalid at time `t`).
    /// `None` when no trend finished before `t`.
    pub fn threshold_before(&self, t: Time) -> Option<Time> {
        // Find the last entry with end < t.
        let idx = self.entries.partition_point(|&(end, _)| end < t);
        if idx == 0 {
            None
        } else {
            Some(self.entries[idx - 1].1)
        }
    }

    /// End time of the first finished trend, if any (Case 3: all dependent
    /// events arriving strictly after this are dropped, Fig. 8(b)).
    pub fn first_end(&self) -> Option<Time> {
        self.first_end
    }

    /// Number of recorded (merged) trend completions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no trend finished yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate heap bytes.
    pub fn heap_size(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(Time, Time)>()
    }

    /// Append the binary encoding (durability snapshots).
    pub fn encode(&self, out: &mut Vec<u8>) {
        use greta_types::codec::{put_u32, put_u64};
        put_u32(out, self.entries.len() as u32);
        for (end, pmax) in &self.entries {
            put_u64(out, end.ticks());
            put_u64(out, pmax.ticks());
        }
        greta_types::codec::put_opt_u64(out, self.first_end.map(Time::ticks));
    }

    /// Decode a log written by [`encode`](Self::encode).
    pub fn decode(
        r: &mut greta_types::Reader<'_>,
    ) -> Result<InvalidationLog, greta_types::CodecError> {
        let n = r.seq_len(16)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push((Time(r.u64()?), Time(r.u64()?)));
        }
        let first_end = greta_types::codec::get_opt_u64(r)?.map(Time);
        Ok(InvalidationLog { entries, first_end })
    }
}

/// How a negative child graph constrains its parent (derived from the
/// previous/following connections of §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepMode {
    /// Case 1 `SEQ(Pi, NOT N, Pj)`: invalidation applies to connections
    /// from `previous`-state events to `following`-state events.
    Pair {
        /// `end(Pi)` in the parent template.
        previous: StateId,
        /// `start(Pj)` in the parent template.
        following: StateId,
    },
    /// Case 2 `SEQ(Pi, NOT N)`: invalidation applies to **all** parent
    /// connections and excludes invalid END events from final aggregates at
    /// window close (Fig. 8(a)).
    InvalidatePrevious,
    /// Case 3 `SEQ(NOT N, Pj)`: all parent events arriving strictly after
    /// the first finished trend are dropped (Fig. 8(b), Example 5).
    DropFollowing,
}

impl DepMode {
    /// Derive the mode from a compiled negative graph spec.
    pub fn of(spec: &GraphSpec) -> DepMode {
        match (spec.previous, spec.following) {
            (Some(previous), Some(following)) => DepMode::Pair {
                previous,
                following,
            },
            (Some(_), None) => DepMode::InvalidatePrevious,
            (None, _) => DepMode::DropFollowing,
        }
    }
}

/// A parent graph's view of one negative child.
#[derive(Debug, Clone, PartialEq)]
pub struct Dependency {
    /// The child graph producing invalidations.
    pub child: GraphId,
    /// How invalidations apply.
    pub mode: DepMode,
}

/// The log of child graph `g` among an alternative's per-graph `logs`.
fn log_of(logs: &[InvalidationLog], g: GraphId) -> Option<&InvalidationLog> {
    logs.get(g.0 as usize)
}

/// Definition 5 as one time bound: events of `prev_state` with a time
/// **before** the returned threshold may not connect to an event of
/// `next_state` arriving at `now`, given the dependency list and the
/// alternative's logs (one per graph, indexed by graph id). It is the
/// largest threshold over the dependencies that apply to the connection;
/// [`Time::ZERO`] when none invalidates anything.
pub fn invalidation_threshold(
    deps: &[Dependency],
    logs: &[InvalidationLog],
    prev_state: StateId,
    next_state: StateId,
    now: Time,
) -> Time {
    let applies = |d: &&Dependency| match d.mode {
        DepMode::Pair {
            previous,
            following,
        } => previous == prev_state && following == next_state,
        DepMode::InvalidatePrevious => true,
        DepMode::DropFollowing => false, // handled at insertion
    };
    let thresholds = deps
        .iter()
        .filter(applies)
        .filter_map(|d| log_of(logs, d.child)?.threshold_before(now));
    thresholds.max().unwrap_or(Time::ZERO)
}

/// Decide whether a candidate predecessor is valid for a connection
/// `prev_state → next_state` happening at time `now`: its time is not
/// before the connection's [`invalidation_threshold`]. The engine computes
/// the threshold once per predecessor state; the reference engines in
/// `crates/baselines` ask per candidate.
pub fn predecessor_valid(
    deps: &[Dependency],
    logs: &[InvalidationLog],
    prev_state: StateId,
    next_state: StateId,
    pred_time: Time,
    now: Time,
) -> bool {
    pred_time >= invalidation_threshold(deps, logs, prev_state, next_state, now)
}

/// Decide whether an END vertex still contributes to the final aggregate of
/// a window closing at `close_time` (Case 2 exclusion).
pub fn end_event_valid_at_close(
    deps: &[Dependency],
    logs: &[InvalidationLog],
    vertex_time: Time,
    close_time: Time,
) -> bool {
    for d in deps {
        if d.mode != DepMode::InvalidatePrevious {
            continue;
        }
        if let Some(log) = log_of(logs, d.child) {
            if let Some(thr) = log.threshold_before(close_time) {
                if vertex_time < thr {
                    return false;
                }
            }
        }
    }
    true
}

/// Decide whether a new event offered to the parent graph at `t` must be
/// dropped (Case 3).
pub fn insertion_dropped(deps: &[Dependency], logs: &[InvalidationLog], t: Time) -> bool {
    deps.iter().any(|d| {
        d.mode == DepMode::DropFollowing
            && log_of(logs, d.child)
                .and_then(InvalidationLog::first_end)
                .is_some_and(|end| t > end)
    })
}

/// Marker for result rows deferred to window close (Case 2 queries).
pub fn needs_deferred_final(deps: &[Dependency]) -> bool {
    deps.iter().any(|d| d.mode == DepMode::InvalidatePrevious)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_thresholds() {
        let mut log = InvalidationLog::default();
        assert_eq!(log.threshold_before(Time(10)), None);
        log.push(Time(6), Time(5)); // trend (5..6)
        log.push(Time(9), Time(3)); // trend (3..9) — weaker start
        assert_eq!(log.threshold_before(Time(6)), None); // strict <
        assert_eq!(log.threshold_before(Time(7)), Some(Time(5)));
        assert_eq!(log.threshold_before(Time(10)), Some(Time(5))); // prefix max
        log.push(Time(12), Time(11));
        assert_eq!(log.threshold_before(Time(13)), Some(Time(11)));
        assert_eq!(log.first_end(), Some(Time(6)));
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn log_merges_same_end_time() {
        let mut log = InvalidationLog::default();
        log.push(Time(5), Time(2));
        log.push(Time(5), Time(4));
        assert_eq!(log.len(), 1);
        assert_eq!(log.threshold_before(Time(6)), Some(Time(4)));
    }

    #[test]
    fn log_codec_round_trips_and_refuses_every_truncation() {
        let mut log = InvalidationLog::default();
        log.push(Time(5), Time(2));
        log.push(Time(5), Time(4)); // merged into the entry before
        log.push(Time(9), Time(1));
        assert_eq!(log.len(), 2);
        assert_eq!(log.first_end(), Some(Time(5)));
        let mut bytes = Vec::new();
        log.encode(&mut bytes);
        let decode = |b: &[u8]| InvalidationLog::decode(&mut greta_types::Reader::new(b));
        assert_eq!(decode(&bytes).unwrap(), log);
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "a {cut}-byte prefix decoded"
            );
        }
    }

    #[test]
    fn dep_mode_derivation() {
        use greta_query::CompiledQuery;
        use greta_types::SchemaRegistry;
        let mut reg = SchemaRegistry::new();
        for t in ["A", "B", "E"] {
            reg.register_type(t, &[]).unwrap();
        }
        let q = |s: &str| CompiledQuery::parse(s, &reg).unwrap();

        let q1 = q("RETURN COUNT(*) PATTERN SEQ(A+, NOT E, B) WITHIN 10 SLIDE 10");
        assert!(matches!(
            DepMode::of(&q1.alternatives[0].graphs[1]),
            DepMode::Pair { .. }
        ));
        let q2 = q("RETURN COUNT(*) PATTERN SEQ(A+, NOT E) WITHIN 10 SLIDE 10");
        assert_eq!(
            DepMode::of(&q2.alternatives[0].graphs[1]),
            DepMode::InvalidatePrevious
        );
        let q3 = q("RETURN COUNT(*) PATTERN SEQ(NOT E, A+) WITHIN 10 SLIDE 10");
        assert_eq!(
            DepMode::of(&q3.alternatives[0].graphs[1]),
            DepMode::DropFollowing
        );
    }

    #[test]
    fn predecessor_validity_pair_mode() {
        let mut log = InvalidationLog::default();
        log.push(Time(6), Time(5));
        let deps = vec![Dependency {
            child: GraphId(1),
            mode: DepMode::Pair {
                previous: StateId(0),
                following: StateId(1),
            },
        }];
        let logs = &[InvalidationLog::default(), log];
        // Connection A(0)→B(1) at t=7: preds before time 5 invalid.
        assert!(!predecessor_valid(
            &deps,
            logs,
            StateId(0),
            StateId(1),
            Time(4),
            Time(7)
        ));
        assert!(predecessor_valid(
            &deps,
            logs,
            StateId(0),
            StateId(1),
            Time(5),
            Time(7)
        ));
        // At t=6 (not strictly after end) nothing is invalid.
        assert!(predecessor_valid(
            &deps,
            logs,
            StateId(0),
            StateId(1),
            Time(4),
            Time(6)
        ));
        // One bound says all of that: the connection's threshold.
        let thr = |prev, next, now| invalidation_threshold(&deps, logs, prev, next, Time(now));
        assert_eq!(thr(StateId(0), StateId(1), 7), Time(5));
        assert_eq!(thr(StateId(0), StateId(1), 6), Time::ZERO);
        assert_eq!(thr(StateId(0), StateId(0), 7), Time::ZERO);
        // Other connections (A→A) unaffected.
        assert!(predecessor_valid(
            &deps,
            logs,
            StateId(0),
            StateId(0),
            Time(4),
            Time(7)
        ));
    }

    #[test]
    fn case2_close_filter_and_case3_drop() {
        let mut log = InvalidationLog::default();
        log.push(Time(3), Time(3)); // single-event trend at t=3
        let deps2 = vec![Dependency {
            child: GraphId(1),
            mode: DepMode::InvalidatePrevious,
        }];
        let logs = &[InvalidationLog::default(), log];
        assert!(!end_event_valid_at_close(&deps2, logs, Time(1), Time(10)));
        assert!(end_event_valid_at_close(&deps2, logs, Time(3), Time(10)));
        assert!(needs_deferred_final(&deps2));

        let deps3 = vec![Dependency {
            child: GraphId(1),
            mode: DepMode::DropFollowing,
        }];
        assert!(!insertion_dropped(&deps3, logs, Time(3))); // not strictly after
        assert!(insertion_dropped(&deps3, logs, Time(4)));
        assert!(!needs_deferred_final(&deps3));
    }
}
