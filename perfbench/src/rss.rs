//! Resident-memory readers over `/proc/<pid>/status`.

use std::fs;

/// The value of a `kB` line such as `VmHWM:    1234 kB` in a
/// `/proc/<pid>/status` text.
pub fn status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        let mut words = rest.split_whitespace();
        let value = words.next()?.parse().ok()?;
        (words.next() == Some("kB")).then_some(value)
    })
}

fn read_kb(pid: Option<u32>, key: &str) -> Option<u64> {
    let path = pid.map_or_else(
        || "/proc/self/status".to_owned(),
        |p| format!("/proc/{p}/status"),
    );
    status_kb(&fs::read_to_string(path).ok()?, key)
}

/// Peak resident set (`VmHWM`) of process `pid`, or of this process.
pub fn peak_kb(pid: Option<u32>) -> Option<u64> {
    read_kb(pid, "VmHWM")
}

/// Current resident set (`VmRSS`) of process `pid`, or of this process.
pub fn current_kb(pid: Option<u32>) -> Option<u64> {
    read_kb(pid, "VmRSS")
}

/// Restarts this process's `VmHWM` at its current resident set, so the
/// next [`peak_kb`] covers only what ran since. Returns whether the kernel
/// accepted the reset.
pub fn reset_peak() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tlemra-server\nVmPeak:\t  120000 kB\n\
                          VmHWM:\t   45678 kB\nVmRSS:\t   40000 kB\nThreads:\t4\n";

    #[test]
    fn parses_kb_lines() {
        assert_eq!(status_kb(STATUS, "VmHWM"), Some(45_678));
        assert_eq!(status_kb(STATUS, "VmRSS"), Some(40_000));
        assert_eq!(status_kb(STATUS, "VmSwap"), None);
        // A key that is only a prefix of another line's key does not match.
        assert_eq!(status_kb(STATUS, "Vm"), None);
        // Lines without the kB unit are not memory sizes.
        assert_eq!(status_kb(STATUS, "Threads"), None);
    }

    #[test]
    fn reads_this_process() {
        let rss = current_kb(None).expect("procfs is mounted");
        let peak = peak_kb(None).expect("procfs is mounted");
        assert!(rss > 0 && peak >= rss);
        assert_eq!(
            peak_kb(Some(std::process::id())).map(|p| p >= rss),
            Some(true)
        );
    }

    #[test]
    fn peak_follows_a_large_allocation() {
        let before = peak_kb(None).expect("procfs is mounted");
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let after = peak_kb(None).expect("procfs is mounted");
        assert!(after >= before + 60 * 1024, "{before} kB -> {after} kB");
    }
}
