//! Process-level readings from `/proc`: CPU time and resident memory.

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`. `sysconf(_SC_CLK_TCK)` needs libc, which this
/// zero-dependency workspace does not link; the value has been 100 on every
/// Linux architecture this runs on since 2.6.
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this
/// process: total work, independent of how many cores did it.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat (Linux only)");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime fields")
    };
    (ticks() + ticks()) / CLOCK_TICKS_PER_SECOND
}

/// A `Vm*` line of `/proc/self/status`, in MiB (`VmHWM` = peak resident set,
/// `VmRSS` = current).
pub fn status_mib(key: &str) -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status (Linux only)");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .unwrap_or_else(|| panic!("{key} missing from /proc/self/status"));
    kib / 1024.0
}

/// Worker threads every workload runs with: the machine's parallelism,
/// capped at four so a large box does not change what is measured.
pub fn worker_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
        assert!(status_mib("VmHWM") >= status_mib("VmRSS"));
        assert!(status_mib("VmRSS") > 0.0);
        assert!((1..=4).contains(&worker_threads()));
    }
}
