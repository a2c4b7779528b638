//! CPU time and memory of the process under test, read from its `/proc`
//! entry, so the generator's own threads and buffers never count.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// reports these in `USER_HZ`, which is 100 on every supported ABI.
pub const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system, all threads) of `pid` so far.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    parse_cpu_seconds(&fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// `utime + stime` from a `/proc/<pid>/stat` line, in seconds. The command
/// name sits in parentheses and may hold spaces or parentheses itself, so
/// the fields are counted from the last `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: state is field 3, utime field 14, stime field 15.
    let f: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = f.get(11)?.parse().ok()?;
    let stime: u64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Resident set size now and its high-water mark, in MiB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Memory {
    pub rss_mb: f64,
    pub hwm_mb: f64,
}

/// Memory of `pid` from `/proc/<pid>/status`.
pub fn memory(pid: u32) -> Option<Memory> {
    parse_memory(&fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// `VmRSS` and `VmHWM` (kB in the file) from a `/proc/<pid>/status` text.
pub fn parse_memory(status: &str) -> Option<Memory> {
    let kb = |key: &str| -> Option<f64> {
        let line = status.lines().find(|l| l.starts_with(key))?;
        let v: f64 = line[key.len()..].split_whitespace().next()?.parse().ok()?;
        Some(v / 1024.0)
    };
    Some(Memory {
        rss_mb: kb("VmRSS:")?,
        hwm_mb: kb("VmHWM:")?,
    })
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/self/mounts`), for the run record.
pub fn filesystem_of(path: &std::path::Path) -> String {
    let abs = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let abs = abs.to_string_lossy();
    let mounts = fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() >= 3).then(|| (f[1].to_string(), f[2].to_string()))
        })
        .filter(|(mnt, _)| {
            abs == mnt.as_str()
                || mnt == "/"
                || abs.starts_with(&format!("{}/", mnt.trim_end_matches('/')))
        })
        .max_by_key(|(mnt, _)| mnt.len())
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_counted_after_the_command_name() {
        // A name with spaces and a parenthesis must not shift the fields.
        let stat = "4242 (pdm (sut) x) S 1 4242 4242 0 -1 4194560 1530 0 0 0 \
                    250 75 0 0 20 0 6 0 12345 104857600 2048 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(3.25));
        assert_eq!(parse_cpu_seconds("garbage"), None);
    }

    #[test]
    fn memory_lines_in_mib() {
        let status = "Name:\tpdm\nVmPeak:\t  300000 kB\nVmHWM:\t   20480 kB\n\
                      VmRSS:\t   10240 kB\nThreads:\t6\n";
        assert_eq!(
            parse_memory(status),
            Some(Memory {
                rss_mb: 10.0,
                hwm_mb: 20.0
            })
        );
        assert_eq!(parse_memory("Name:\tpdm\n"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid).is_some());
        let m = memory(pid).expect("own status");
        assert!(m.hwm_mb >= m.rss_mb && m.rss_mb > 0.0);
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs (below 64) this thread may run on, lowest first.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: u64 = 0;
    // SAFETY: `mask` is a writable 8-byte CPU set that outlives the call,
    // and pid 0 names the calling thread.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) } == 0;
    (0..64).filter(|&c| ok && mask & (1 << c) != 0).collect()
}

/// Restrict the calling thread (and every thread it spawns later) to
/// `cpus`. Returns false when the kernel refuses.
pub fn pin_to(cpus: &[usize]) -> bool {
    let mask = cpus
        .iter()
        .filter(|&&c| c < 64)
        .fold(0u64, |m, &c| m | 1 << c);
    // SAFETY: `mask` is a valid 8-byte CPU set that outlives the call, and
    // pid 0 names the calling thread.
    mask != 0 && unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}
