//! Sliding-window arithmetic (paper §6).
//!
//! Window `wid` covers the half-open time interval
//! `[wid · slide, wid · slide + within)`. An event at time `t` falls into
//! `k = ⌈within / slide⌉` windows at most; the GRETA graph is shared across
//! them and each vertex keeps one aggregate per window id (Fig. 9(b)).

use greta_query::WindowSpec;
use greta_types::Time;

/// Window identifier: the window starting at `wid · slide`.
pub type WindowId = u64;

/// All window ids an event at time `t` falls into, ascending: a contiguous
/// id range, empty when `within < slide` leaves `t` between two windows.
///
/// ```
/// use greta_core::window::windows_of;
/// use greta_query::WindowSpec;
/// use greta_types::Time;
/// let w = WindowSpec::new(10, 3); // WITHIN 10 SLIDE 3
/// assert_eq!(windows_of(Time(9), &w).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
/// ```
pub fn windows_of(t: Time, w: &WindowSpec) -> std::ops::RangeInclusive<WindowId> {
    let t = t.ticks();
    let hi = t / w.slide; // last window starting at or before t
    let lo = if t >= w.within {
        // first window whose end (wid*slide + within) is after t
        (t - w.within) / w.slide + 1
    } else {
        0
    };
    lo..=hi
}

/// Close time of a window: the first time stamp **not** in the window.
pub fn window_close_time(wid: WindowId, w: &WindowSpec) -> Time {
    Time(wid * w.slide + w.within)
}

/// The last window closed once time stands at `t`: the largest `wid` with
/// [`window_close_time`]`(wid) ≤ t`, `None` while `t < within` (not even
/// window 0 has closed). The one statement of the window-close boundary —
/// an engine's emission frontier and the executor's watermark broadcast
/// both read it. A zero `slide` (never compiled) is read as 1.
pub fn last_closed(t: Time, w: &WindowSpec) -> Option<WindowId> {
    let past = t.ticks().checked_sub(w.within)?;
    Some(past / w.slide.max(1))
}

/// Start time of a window.
pub fn window_start_time(wid: WindowId, w: &WindowSpec) -> Time {
    Time(wid * w.slide)
}

/// Pane length: the gcd of `within` and `slide` (paper §7 / \[15\]); window
/// boundaries always align with pane boundaries.
pub fn pane_length(w: &WindowSpec) -> u64 {
    gcd(w.within, w.slide)
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The pane (by start time) containing time `t`.
pub fn pane_start(t: Time, pane_len: u64) -> Time {
    Time(t.ticks() / pane_len * pane_len)
}

/// Last window id that includes any part of the pane starting at `ps`
/// (used for batch pane purge: the pane is dead once this window closed).
pub fn last_window_of_pane(ps: Time, pane_len: u64, w: &WindowSpec) -> WindowId {
    // Last window whose start is before the pane's end.
    let pane_end = ps.ticks() + pane_len;
    (pane_end - 1) / w.slide
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wspec(within: u64, slide: u64) -> WindowSpec {
        WindowSpec::new(within, slide)
    }

    #[test]
    fn tumbling_window_membership() {
        let w = wspec(10, 10);
        assert_eq!(windows_of(Time(0), &w).collect::<Vec<_>>(), vec![0]);
        assert_eq!(windows_of(Time(9), &w).collect::<Vec<_>>(), vec![0]);
        assert_eq!(windows_of(Time(10), &w).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn figure_9_sliding_window() {
        // WITHIN 10 SLIDE 3 (Fig. 9): event at t=4 is in windows starting at
        // 0 and 3 (W1, W2 in the figure); event at t=9 in windows 0,3,6,9.
        let w = wspec(10, 3);
        assert_eq!(windows_of(Time(4), &w).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(
            windows_of(Time(9), &w).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        // k = ceil(10/3) = 4 windows at most
        assert!(windows_of(Time(100), &w).count() <= 4);
    }

    #[test]
    fn window_membership_is_consistent() {
        // t is in window wid  ⇔  wid ∈ windows_of(t)
        let w = wspec(7, 2);
        for t in 0..40u64 {
            for wid in 0..25u64 {
                let member = wid * 2 <= t && t < wid * 2 + 7;
                let listed = windows_of(Time(t), &w).any(|x| x == wid);
                assert_eq!(member, listed, "t={t} wid={wid}");
            }
        }
    }

    #[test]
    fn close_and_start_times() {
        let w = wspec(10, 3);
        assert_eq!(window_start_time(2, &w), Time(6));
        assert_eq!(window_close_time(2, &w), Time(16));
    }

    #[test]
    fn last_closed_is_the_inverse_of_close_time() {
        // Sliding, tumbling, and `WITHIN < SLIDE` (gaps between windows).
        for w in [wspec(10, 3), wspec(10, 10), wspec(3, 10)] {
            assert_eq!(last_closed(Time(w.within - 1), &w), None, "t < within");
            assert_eq!(last_closed(Time(w.within), &w), Some(0));
            for t in w.within..60 {
                let last = last_closed(Time(t), &w).unwrap();
                assert!(window_close_time(last, &w) <= Time(t));
                assert!(window_close_time(last + 1, &w) > Time(t));
            }
        }
        // In a gap of `WITHIN 3 SLIDE 10`: window 0 = [0,3) closed at 3,
        // window 1 = [10,13) still open at 12.
        assert_eq!(last_closed(Time(12), &wspec(3, 10)), Some(0));
        assert_eq!(last_closed(Time(13), &wspec(3, 10)), Some(1));
        // A zero slide is never compiled; it must not divide by zero.
        assert_eq!(last_closed(Time(4), &wspec(5, 0)), None);
        assert_eq!(last_closed(Time(7), &wspec(5, 0)), Some(2));
    }

    #[test]
    fn pane_arithmetic() {
        let w = wspec(10, 3);
        assert_eq!(pane_length(&w), 1);
        let w = wspec(12, 3);
        assert_eq!(pane_length(&w), 3);
        assert_eq!(pane_start(Time(7), 3), Time(6));
        // Pane [6,9) of WITHIN 12 SLIDE 3: last containing window starts at 6
        // (wid 2), since window 2 = [6,18).
        assert_eq!(last_window_of_pane(Time(6), 3, &w), 2);
    }

    #[test]
    fn pane_purge_window_is_tight() {
        // After last_window_of_pane closes, no later window overlaps the pane.
        let w = wspec(12, 4);
        let pl = pane_length(&w); // 4
        for ps in (0..40).step_by(pl as usize) {
            let last = last_window_of_pane(Time(ps), pl, &w);
            // window last+1 starts at (last+1)*slide >= ps+pl
            assert!((last + 1) * w.slide >= ps + pl);
            // window `last` overlaps the pane
            assert!(last * w.slide < ps + pl);
        }
    }
}
