//! What the benchmark reads from the host: CPU time, peak memory, the cost
//! of its own clock reads, and the stamp written into every result file.

use std::time::Instant;

use crate::json::Json;
use crate::stats::median;

/// User + system CPU seconds this process has used, over all its threads
/// (dead ones included). 0 where the clock is missing.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // 64-bit Linux, which the cfg above pins) and the call writes nothing
    // else; the clock id is a constant the kernel either knows or rejects.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        0.0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> f64 {
    0.0
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where `/proc` is
/// missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Cost in nanoseconds of one `Instant::now()` / `elapsed()` pair, the
/// reading the program's kernel profiler takes around every dispatch:
/// median of 5 batches of 100 000 pairs.
pub fn timer_ns() -> f64 {
    const PAIRS: u32 = 100_000;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut acc = 0u128;
            for _ in 0..PAIRS {
                let t = Instant::now();
                acc += std::hint::black_box(t.elapsed()).as_nanos();
            }
            std::hint::black_box(acc);
            start.elapsed().as_nanos() as f64 / f64::from(PAIRS)
        })
        .collect();
    median(&batches)
}

/// Cores the host lets this process use.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The stamp on every result file: what was measured, how it was built and
/// on what.
pub fn stamp(seed: u64, timer_ns: f64) -> Json {
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    Json::obj([
        ("git_rev", Json::str(git_rev)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("host_parallelism", Json::Num(parallelism() as f64)),
        ("seed", Json::Num(seed as f64)),
        ("bench.timer_ns", Json::Num(timer_ns)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_cost_is_positive_and_below_a_microsecond() {
        let ns = timer_ns();
        assert!(ns > 0.0, "{ns}");
        assert!(ns < 1000.0, "{ns}");
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tx\nVmPeak:\t  100 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 10 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert!(peak_rss_mb() > 0.0);
    }
}
