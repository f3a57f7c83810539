//! Process CPU time from `/proc/self/stat`.

use std::time::Duration;

/// The kernel reports `utime`/`stime` in `USER_HZ` units, which the Linux
/// ABI fixes at 100 on every architecture this repo builds for.
const USER_HZ: u64 = 100;

/// User + system CPU time of this process, all threads, live and exited.
/// `None` when `/proc` is absent or unreadable: the caller then omits the
/// metric rather than printing a zero.
pub fn process_cpu() -> Option<Duration> {
    parse_stat(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

fn parse_stat(stat: &str) -> Option<Duration> {
    // The command name (field 2) may hold spaces and parentheses; fields are
    // counted from the last ')'. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_nanos(
        (utime + stime) * (1_000_000_000 / USER_HZ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fields_after_a_hostile_command_name() {
        let stat = "4242 (a b) c) S 1 4242 4242 0 -1 4194560 500 0 0 0 \
                    123 77 0 0 20 0 3 0 1000 1 1";
        assert_eq!(parse_stat(stat), Some(Duration::from_millis(2000)));
    }

    #[test]
    fn unreadable_input_gives_none_not_zero() {
        assert_eq!(parse_stat(""), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
        assert_eq!(parse_stat("1 (x) S 1 2 3 4 5 6 7 8 9 10 u s"), None);
    }

    #[test]
    fn reads_this_process_on_linux() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(process_cpu().is_some());
        }
    }
}
