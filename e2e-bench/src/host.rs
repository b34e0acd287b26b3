//! Host-noise ledger: CPU steal from `/proc/stat`, this process's CPU
//! time and peak resident set from `getrusage`.
//!
//! Steal is time the hypervisor gave this machine's virtual CPUs to
//! someone else. Printed with every run, it lets a steadiness check tell
//! a host phase from a program change.

/// Aggregate `cpu` jiffies from `/proc/stat`: `(steal, total)`.
/// `None` where the file is missing or unreadable.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    parse_cpu_line(text.lines().next()?)
}

/// Parses the aggregate `cpu  user nice system idle iowait irq softirq
/// steal ...` line into `(steal, total)`; guest time is already folded
/// into user time, so only the first eight fields are summed.
pub fn parse_cpu_line(line: &str) -> Option<(u64, u64)> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let vals: Vec<u64> = fields
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if vals.len() < 8 {
        return None;
    }
    Some((vals[7], vals.iter().sum()))
}

/// Steal as a percentage of all CPU time between two samples.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage() -> Rusage {
    let mut r = Rusage::default();
    // SAFETY: `Rusage` matches the 64-bit Linux `struct rusage` layout
    // (two timevals followed by fourteen longs), and the pointer is valid
    // for the duration of the call.
    unsafe {
        getrusage(0, &mut r);
    }
    r
}

/// User plus system CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    let r = rusage();
    let t = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 / 1e6;
    t(&r.utime) + t(&r.stime)
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_aggregate_cpu_line() {
        let line = "cpu  100 5 50 800 10 1 2 32 0 0";
        assert_eq!(parse_cpu_line(line), Some((32, 1000)));
        assert_eq!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8"), None);
        assert_eq!(parse_cpu_line("cpu 1 2"), None);
    }

    #[test]
    fn steal_is_a_share_of_the_delta() {
        assert_eq!(steal_pct(Some((10, 1000)), Some((30, 1200))), 10.0);
        assert_eq!(steal_pct(None, Some((30, 1200))), 0.0);
    }

    #[test]
    fn rusage_reads_plausible_values() {
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        assert!(x != 1);
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 1.0);
    }
}
