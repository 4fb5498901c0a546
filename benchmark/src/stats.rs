//! Order statistics and the process-level meters (CPU time, allocations,
//! peak resident set) the end-to-end metrics are built from.

use std::time::Instant;

/// Median; the mean of the two middle values for an even count. `None`
/// for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Nearest-rank percentile (`p` in 0..=100): the smallest value with at
/// least `p` % of the samples at or below it. `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and declares the timespec of 64-bit Linux");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed by every thread of this process.
/// Nanosecond resolution, where `/proc/self/stat` counts 10 ms ticks.
pub fn process_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // 64-bit Linux, the only platform this benchmark supports) and the
    // clock id is a constant the kernel defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set (`VmHWM`) of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// What one metered call cost the whole process.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub allocs: u64,
}

/// Run `f` and meter wall time, process CPU time and allocations across it.
pub fn metered<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let allocs0 = crate::alloc::count();
    let cpu0 = process_cpu_secs();
    let t0 = Instant::now();
    let out = f();
    let cost = Cost {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: process_cpu_secs() - cpu0,
        allocs: crate::alloc::count() - allocs0,
    };
    (out, cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_empty_one_even_and_ties() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[2.0, 2.0, 2.0, 9.0]), Some(2.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[4.0], 0.0), Some(4.0));
        assert_eq!(percentile(&[4.0], 99.0), Some(4.0));
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 30.0), Some(20.0));
        assert_eq!(percentile(&v, 40.0), Some(20.0));
        assert_eq!(percentile(&v, 50.0), Some(35.0));
        assert_eq!(percentile(&v, 100.0), Some(50.0));
        // Ties: the rank lands inside a run of equal values.
        assert_eq!(percentile(&[1.0, 2.0, 2.0, 2.0, 3.0], 60.0), Some(2.0));
    }

    #[test]
    fn meters_move_forward() {
        let (sum, cost) = metered(|| {
            (0..100_000u64)
                .map(|i| vec![i; 2].len() as u64)
                .sum::<u64>()
        });
        assert_eq!(sum, 200_000);
        assert!(cost.wall_s > 0.0 && cost.cpu_s >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
