//! Event streams (paper §2: "events are sent by event producers on an event
//! stream"; arrival is in-order by time stamps).

use crate::event::Event;

/// True when `events` is non-decreasing by time stamp (paper §2 assumes
/// in-order arrival; ties are allowed and handled by the stream-transaction
/// scheduler of §7).
pub fn check_in_order(events: &[Event]) -> bool {
    events.windows(2).all(|w| w[0].time <= w[1].time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaRegistry;
    use crate::Time;

    fn ev(reg: &SchemaRegistry, t: u64) -> Event {
        Event::new_unchecked(reg.type_id("A").unwrap(), Time(t), vec![])
    }

    fn reg() -> SchemaRegistry {
        let mut r = SchemaRegistry::new();
        r.register_type("A", &[]).unwrap();
        r
    }

    #[test]
    fn in_order_check() {
        let r = reg();
        assert!(check_in_order(&[ev(&r, 1), ev(&r, 1), ev(&r, 3)]));
        assert!(!check_in_order(&[ev(&r, 2), ev(&r, 1)]));
        assert!(check_in_order(&[]));
    }
}
