//! Host-side measurements: process CPU time, peak resident memory, and the
//! fingerprint every result is stamped with so that numbers from different
//! hosts are never compared.

use pudiannao_accel::json::Value;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU seconds consumed so far by every thread of this
/// process, including threads that have already exited.
///
/// # Panics
///
/// If the clock cannot be read, which Linux guarantees it can.
#[must_use]
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable value laid out as the 64-bit Linux
    // `struct timespec` (two 64-bit fields), which is the only target this
    // benchmark builds for; `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The host a result was measured on: core count, CPU model, the
/// `target-cpu` the workspace is compiled for, and the `REPRO_THREADS`
/// override the worker pool saw.
#[must_use]
pub fn fingerprint() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let target_cpu = std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|s| {
            let rest = &s[s.find("target-cpu=")? + "target-cpu=".len()..];
            Some(rest.split(|c: char| c == '"' || c.is_whitespace()).next()?.to_owned())
        })
        .unwrap_or_else(|| "default".to_owned());
    let repro_threads = std::env::var("REPRO_THREADS").unwrap_or_else(|_| "unset".to_owned());
    Value::object()
        .with("nproc", nproc as u64)
        .with("cpu_model", cpu_model)
        .with("target_cpu", target_cpu)
        .with("repro_threads", repro_threads)
}
