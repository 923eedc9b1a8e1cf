//! The host-speed reference. The 2-vCPU hosts this benchmark runs on share
//! their cores, caches and memory with other tenants, and their speed
//! drifts by 10–50% over tens of seconds to minutes: ten runs of unchanged
//! code spread by up to 31% as measured, more than the largest bound a
//! metric may carry. So every untraced run also times a fixed reference
//! kernel, which lives in this file and does not change with the program,
//! in short blocks between set-up slices and between passes (never during
//! one), and reports each slice's and pass's host time rescaled to a host
//! on which that kernel takes [`NOMINAL_S`]:
//!
//! ```text
//! rescaled = measured * NOMINAL_S / median(kernel times of the blocks just before and after)
//! ```
//!
//! A change to the program moves the measured times and leaves the
//! reference alone, so it moves the rescaled times by the same share; a
//! slower or busier host moves both, and most of that cancels. The kernel
//! is a serial pseudo-random walk with one part in L1 and one part over a
//! 4 MiB table, because the workloads slow down both when the core is
//! shared (accel-exec's executor) and when the caches and memory are
//! (repro's trace generation, the fleet's cache replay). Over ten seeds in
//! an hour when the measured `wall_s` of every workload spread by 26–31%,
//! the rescaled one spread by 7–10% (`perfbench/README.md` has the tables).

use std::hint::black_box;
use std::time::Instant;

use crate::layers::median;

/// About the reference kernel's median time in a quiet hour on the host
/// the benchmark was sized on (2 vCPUs, `Intel(R) Xeon(R) Processor`), so
/// rescaled times read as seconds on that host when it is quiet.
pub const NOMINAL_S: f64 = 0.007;

/// Steps of each part of the kernel.
const STEPS: u32 = 1 << 20;
/// Table sizes, in `u32` words: 16 KiB (L1) and 4 MiB.
const L1_WORDS: usize = 1 << 12;
const MEMORY_WORDS: usize = 1 << 20;

/// The reference kernel's tables.
pub struct Reference {
    l1: Vec<u32>,
    memory: Vec<u32>,
}

impl Reference {
    /// Allocates and touches both tables, so that no run of the kernel
    /// pays a page fault.
    #[must_use]
    pub fn new() -> Reference {
        Reference { l1: vec![1; L1_WORDS], memory: vec![1; MEMORY_WORDS] }
    }

    /// One block: runs the kernel at least `reps` times and for at least
    /// `seconds`, and returns each run's time.
    pub fn block(&mut self, reps: usize, seconds: f64) -> Vec<f64> {
        let start = Instant::now();
        let mut times = Vec::new();
        while times.len() < reps || start.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            walk(&mut self.l1);
            walk(&mut self.memory);
            times.push(t.elapsed().as_secs_f64());
        }
        times
    }
}

/// The kernel's median time over the blocks just before and just after a
/// measured interval.
#[must_use]
pub fn around(before: &[f64], after: &[f64]) -> f64 {
    median(before.iter().chain(after).copied().collect())
}

/// `measured` seconds rescaled to the nominal host, given the kernel's
/// median time around the measurement.
#[must_use]
pub fn rescale(measured: f64, reference_s: f64) -> f64 {
    measured * NOMINAL_S / reference_s
}

/// [`STEPS`] dependent read-modify-writes at xorshift-chosen places of a
/// power-of-two table. Each step needs the one before, so the walk cannot
/// be vectorised and its speed does not depend on `target-cpu`.
fn walk(table: &mut [u32]) {
    let mask = table.len() - 1;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc: u32 = 0;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x as usize) & mask];
        acc = acc.wrapping_mul(31).wrapping_add(*slot ^ i);
        *slot = acc;
    }
    black_box(acc);
}
