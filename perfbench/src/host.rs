//! What the run record says about the host: the CPUs' reported clock,
//! their SMT siblings, and a fixed memory-latency probe timed before and
//! after the run, so that a shift in every time metric at once can be told
//! apart from a change in the program.

use std::fs;
use std::time::Instant;

use crate::procfs;

/// `cpu MHz` of each CPU in `/proc/cpuinfo`, as "min-max" (or one value).
pub fn cpu_mhz() -> String {
    let info = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let mut mhz: Vec<f64> = info
        .lines()
        .filter(|l| l.starts_with("cpu MHz"))
        .filter_map(|l| l.split(':').nth(1)?.trim().parse().ok())
        .collect();
    mhz.sort_by(f64::total_cmp);
    match (mhz.first(), mhz.last()) {
        (Some(a), Some(b)) if a == b => format!("{a:.0}"),
        (Some(a), Some(b)) => format!("{a:.0}-{b:.0}"),
        _ => "unknown".into(),
    }
}

/// SMT sibling list of each CPU in `cpus`, e.g. "0:[0] 1:[1]".
pub fn smt_siblings(cpus: &[usize]) -> String {
    cpus.iter()
        .map(|c| {
            let p = format!("/sys/devices/system/cpu/cpu{c}/topology/thread_siblings_list");
            let s = fs::read_to_string(p).unwrap_or_else(|_| "?".into());
            format!("{c}:[{}]", s.trim())
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Milliseconds for a fixed dependent-load chase through a 16 MiB cycle
/// (median of five), on `cpu` when given. The program is not involved;
/// the figure moves only with the host.
pub fn probe_ms(cpu: Option<usize>) -> f64 {
    std::thread::spawn(move || {
        if let Some(c) = cpu {
            procfs::pin_to(&[c]);
        }
        const N: usize = 1 << 22;
        const STEPS: usize = 300_000;
        // One cycle through all N slots, from a fixed-seed shuffle.
        let mut order: Vec<u32> = (0..N as u32).collect();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in (1..N).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; N];
        for i in 0..N {
            next[order[i] as usize] = order[(i + 1) % N];
        }
        let mut times: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                let mut j = 0usize;
                for _ in 0..STEPS {
                    j = next[j] as usize;
                }
                std::hint::black_box(j);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        times.sort_by(f64::total_cmp);
        times[2]
    })
    .join()
    .unwrap_or(f64::NAN)
}
