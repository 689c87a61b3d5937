//! Process accounting read from `/proc` (Linux only, like the sandbox).

use std::fs;

/// Kernel clock ticks per second as exported to user space (`USER_HZ`),
/// which is 100 on every Linux architecture this repo builds on.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in ticks from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The value of a `Key:   123 kB`-style line of `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Voluntary plus involuntary context switches of one task's `status`.
pub fn parse_ctx_switches(status: &str) -> Option<u64> {
    Some(
        parse_status_field(status, "voluntary_ctxt_switches")?
            + parse_status_field(status, "nonvoluntary_ctxt_switches")?,
    )
}

/// User + system CPU seconds this process has consumed (all threads,
/// including ones that already exited).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let ticks = parse_stat_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime");
    ticks as f64 / TICKS_PER_SECOND
}

/// Resident set size right now, in MB.
pub fn rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = parse_status_field(&status, "VmRSS").expect("/proc/self/status has VmRSS");
    kb as f64 / 1024.0
}

/// Context switches summed over every live thread of this process. A
/// thread's count disappears when it exits, so deltas are only meaningful
/// while the same threads are alive at both ends.
pub fn ctx_switches() -> u64 {
    let tasks = fs::read_dir("/proc/self/task").expect("/proc/self/task is readable");
    tasks
        .filter_map(|entry| {
            let status = fs::read_to_string(entry.ok()?.path().join("status")).ok()?;
            parse_ctx_switches(&status)
        })
        .sum()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc's `malloc_trim(3)`.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand the allocator's free pages back to the kernel. A process that opens
/// and drops one database after another otherwise creeps upward by
/// fragmentation (+25 % over 16 reps, +40 % across two passes), and a rep's
/// RSS would say more about the reps before it than about itself. Called
/// between reps, never inside a timed section. A no-op without glibc.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers and is safe to call from any
    // thread at any time; it only releases pages the allocator holds free.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 151 0 0 0 \
                    37 5 0 0 20 0 5 0 1234 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(42));
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no paren"), None);
    }

    #[test]
    fn status_fields_parse_by_exact_key() {
        let status = "Name:\tx\nVmHWM:\t  9000 kB\nVmRSS:\t    8124 kB\n\
                      voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_status_field(status, "VmRSS"), Some(8124));
        assert_eq!(parse_status_field(status, "VmSwap"), None);
        // "voluntary_…" must not match the "nonvoluntary_…" line.
        assert_eq!(parse_ctx_switches(status), Some(15));
    }

    #[test]
    fn live_readers_return_plausible_values() {
        assert!(rss_mb() > 0.5);
        assert!(cpu_seconds() >= 0.0);
        let before = ctx_switches();
        std::thread::yield_now();
        assert!(ctx_switches() >= before);
    }
}
