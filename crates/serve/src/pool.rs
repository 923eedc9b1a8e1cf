//! A deterministic fork-join harness for the reproduction experiments.
//!
//! [`run_indexed`] executes a list of independent jobs on scoped worker
//! threads ([`std::thread::scope`], no external dependencies) and returns
//! their results **in job order**, so callers that serialise the results
//! (e.g. `repro_all` writing `repro_summary.json`) produce byte-identical
//! output whether the jobs ran sequentially or on any number of workers.
//!
//! The worker count defaults to the machine's available parallelism and
//! can be capped (or forced to 1) with the `REPRO_THREADS` environment
//! variable. With one worker the jobs run inline on the calling thread —
//! no threads are spawned at all.
//!
//! Only *result order* is deterministic: jobs that print to stdout may
//! interleave their lines when more than one worker runs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};

/// Parses a `REPRO_THREADS`-style value: a positive worker count, or
/// `None` when unset or invalid. An invalid value is reported loudly on
/// stderr (once per process) instead of silently falling back — a typo'd
/// `REPRO_THREADS=fulll` should not quietly change the worker count.
fn parse_threads(raw: Option<&str>) -> Option<usize> {
    let raw = raw?;
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => {
            static WARN_ONCE: Once = Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "warning: ignoring invalid REPRO_THREADS={raw:?} \
                     (expected a positive integer); using the hardware default"
                );
            });
            None
        }
    }
}

/// The number of workers [`run_indexed`] will use for `jobs` jobs: the
/// `REPRO_THREADS` override if set (and a positive integer), otherwise
/// the machine's available parallelism, never more than the job count and
/// never less than 1.
///
/// The hardware count is read once per process (`available_parallelism`
/// re-reads cgroup files on every call); `REPRO_THREADS` is read on every
/// call.
#[must_use]
pub fn worker_count(jobs: usize) -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    let hardware = *HARDWARE.get_or_init(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let env = std::env::var("REPRO_THREADS").ok();
    parse_threads(env.as_deref()).unwrap_or(hardware).min(jobs.max(1))
}

/// Runs every job and returns the results in the jobs' original order.
///
/// Jobs are claimed work-stealing style (an atomic next-job counter), so
/// a slow job never blocks the others, and each result is stored in the
/// slot matching its job index — the output `Vec` is independent of
/// scheduling. A panicking job propagates its panic to the caller when
/// the scope joins.
pub fn run_indexed<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let workers = worker_count(n);
    if workers <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = slots[i]
                    .lock()
                    .expect("job mutex never poisoned: each slot is taken exactly once")
                    .take()
                    .expect("each job index is claimed by exactly one worker");
                let out = job();
                *results[i].lock().expect("result mutex never poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result mutex never poisoned")
                .expect("every claimed job stored its result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 2 ")), Some(2));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("-3")), None);
        assert_eq!(parse_threads(Some("lots")), None);
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn results_keep_job_order() {
        // Jobs finish in scrambled order (later jobs sleep less), but the
        // output must stay index-aligned.
        let jobs: Vec<_> = (0..16u64)
            .map(|i| {
                move || {
                    std::thread::sleep(std::time::Duration::from_millis((16 - i) % 5));
                    i * i
                }
            })
            .collect();
        let got = run_indexed(jobs);
        let want: Vec<u64> = (0..16).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let jobs: Vec<fn() -> u32> = Vec::new();
        assert!(run_indexed(jobs).is_empty());
        assert_eq!(worker_count(0), 1);
    }

    #[test]
    fn boxed_jobs_run() {
        let jobs: Vec<Box<dyn FnOnce() -> String + Send>> = vec![
            Box::new(|| "a".to_string()),
            Box::new(|| "b".to_string()),
            Box::new(|| "c".to_string()),
        ];
        assert_eq!(run_indexed(jobs), vec!["a", "b", "c"]);
    }

    #[test]
    fn repro_threads_caps_workers_on_every_call() {
        // The hardware count is cached; the override must not be. This
        // is the only test in the crate that sets the variable, and every
        // other test passes whatever worker count it reads.
        let saved = std::env::var("REPRO_THREADS").ok();
        std::env::set_var("REPRO_THREADS", "3");
        assert_eq!(worker_count(10), 3, "REPRO_THREADS caps the workers");
        assert_eq!(worker_count(2), 2, "never more workers than jobs");
        assert_eq!(worker_count(0), 1, "never fewer than one");
        std::env::set_var("REPRO_THREADS", "1");
        assert_eq!(worker_count(10), 1, "a changed override is read again");
        match saved {
            Some(v) => std::env::set_var("REPRO_THREADS", v),
            None => std::env::remove_var("REPRO_THREADS"),
        }
    }

    #[test]
    fn worker_count_never_exceeds_jobs() {
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(2) <= 2);
        assert!(worker_count(1000) >= 1);
    }
}
