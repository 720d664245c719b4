//! Host facts: on-CPU time, the host's current speed, peak memory and
//! steal (64-bit Linux).
//!
//! A read that fails is an error: a benchmark that silently reported 0 s
//! of CPU would look like a speed-up.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    /// POSIX `clock_gettime`, from the C library the standard library
    /// already links.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads a CPU-time clock. Unlike `/proc/*/schedstat` and `/proc/*/stat`,
/// which advance only at scheduler ticks (4 to 10 ms), these clocks count
/// to the nanosecond, including the running slice.
fn cpu_clock_s(clock_id: i32) -> Result<f64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    if rc != 0 {
        return Err(format!(
            "clock_gettime({clock_id}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// On-CPU seconds of the calling thread.
pub fn thread_cpu_s() -> Result<f64, String> {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// On-CPU seconds of the whole process: every thread, exited ones
/// included.
pub fn process_cpu_s() -> Result<f64, String> {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// On-CPU seconds per thread of one pass of a fixed reference kernel on
/// each of `threads` threads at once. Each pass makes 600 000 random
/// inserts, removals and lookups on its own `BTreeMap` of up to 64 Ki
/// keys. Like the simulator, it is branchy, pointer-chasing code with a
/// working set of a few MiB, and it uses nothing of the code under test.
pub fn reference_cpu_s(threads: usize) -> Result<f64, String> {
    let start = process_cpu_s()?;
    let threads = threads.max(1);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(reference_kernel);
        }
    });
    Ok((process_cpu_s()? - start) / threads as f64)
}

fn reference_kernel() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut acc = 0u64;
    for _ in 0..600_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 65_536;
        match x >> 62 {
            0 => {
                map.insert(key, x);
            }
            1 => {
                map.remove(&key);
            }
            _ => acc = acc.wrapping_add(map.get(&key).copied().unwrap_or(1)),
        }
    }
    black_box(acc);
}

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

fn bad(path: &str) -> String {
    format!("unexpected format in {path}")
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    const PATH: &str = "/proc/self/status";
    let text = read(PATH)?;
    let kib: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| bad(PATH))?;
    Ok(kib as f64 / 1024.0)
}

/// Host-wide CPU time counters (`/proc/stat`, first line), in ticks.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Reads the counters now.
    pub fn now() -> Result<CpuTimes, String> {
        const PATH: &str = "/proc/stat";
        let text = read(PATH)?;
        let line = text
            .lines()
            .next()
            .filter(|l| l.starts_with("cpu "))
            .ok_or_else(|| bad(PATH))?;
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .map_while(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted in user, so only the first 8 add up.
        if v.len() < 8 {
            return Err(bad(PATH));
        }
        Ok(CpuTimes {
            total: v[..8].iter().sum(),
            steal: v[7],
        })
    }

    /// Share of all host CPU time since `earlier` that the hypervisor
    /// stole.
    pub fn steal_frac_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_and_counters_read_and_cpu_time_grows() {
        let t0 = thread_cpu_s().expect("thread clock");
        let p0 = process_cpu_s().expect("process clock");
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let (t1, p1) = (
            thread_cpu_s().expect("thread clock"),
            process_cpu_s().expect("process clock"),
        );
        assert!(t1 > t0 && p1 > p0);
        assert!(
            p1 - p0 >= t1 - t0 - 1e-3,
            "the process clock covers the thread's time"
        );
        assert!(peak_rss_mib().expect("status") > 0.0);
        let one = reference_cpu_s(1).expect("process clock");
        let two = reference_cpu_s(2).expect("process clock");
        assert!(one > 0.0 && two > 0.0);
        let c = CpuTimes::now().expect("stat");
        assert!((0.0..=1.0).contains(&c.steal_frac_since(&c)));
    }
}
