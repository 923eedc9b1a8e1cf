//! Batched trace execution: pack kernel ops into SoA [`AccessBlock`]s
//! and stream them through [`Cache::access_soa`], instead of paying a
//! virtual `op()` round-trip into the cache for every SIMD operation.
//!
//! Three layers, each counter-for-counter equivalent to the per-op path
//! (all reduce to the same scalar access sequence — see
//! [`Cache::access_soa`]):
//!
//! * [`BatchSink`] — a [`TraceSink`] adapter that packs operand accesses
//!   into a bounded [`AccessBlock`] and flushes full blocks into an
//!   engine via [`SimdEngine::commit_block`]. Memory stays bounded
//!   (`FLUSH_ACCESSES` per-line entries) no matter how long the trace
//!   is, so even the hundred-million-access Section-2 sweeps can run
//!   batched.
//! * [`run_buffered`] — one workload through a reset engine via a
//!   [`BatchSink`]; the batched analogue of [`Workload::run`].
//! * [`run_batch`] — N independent workloads. With one worker the traces
//!   run back-to-back through the batched path; with more, each trace is
//!   packed on its own thread into a bounded channel and the caller's
//!   thread drains the channels round-robin, interleaving block passes
//!   over the independent caches so trace *generation* pipelines with
//!   cache *simulation*. Drained blocks return to their generator over a
//!   free-list channel, so the steady state recycles the same
//!   `CHANNEL_DEPTH + 1` blocks per trace instead of allocating one per
//!   chunk. Results are identical either way — each cache only ever sees
//!   its own trace, in order.
//!
//! [`Cache::access_soa`]: crate::Cache::access_soa

use crate::access::Access;
use crate::block::AccessBlock;
use crate::cache::CacheConfig;
use crate::engine::SimdEngine;
use crate::kernels::{KernelStats, TraceSink, Workload};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};

/// Per-line entries packed before a flush: large enough to amortise the
/// block dispatch, small enough that the scratch block stays
/// cache-resident (8192 × 13 bytes of SoA columns ≈ 104 KB).
pub const FLUSH_ACCESSES: usize = 8192;

/// Entry capacity a fresh scratch block reserves: the flush threshold
/// plus slack for the op that crosses it (a handful of operands, each
/// possibly split across two lines).
const BLOCK_CAPACITY: usize = FLUSH_ACCESSES + 32;

/// In-flight chunks per trace in pipelined [`run_batch`] mode.
const CHANNEL_DEPTH: usize = 4;

/// A [`TraceSink`] that packs ops into SoA blocks for an engine.
///
/// Dropping the sink flushes the remainder; [`BatchSink::finish`] does
/// the same with an explicit name for call sites where the flush is the
/// point.
pub struct BatchSink<'a> {
    engine: &'a mut SimdEngine,
    block: &'a mut AccessBlock,
}

impl<'a> BatchSink<'a> {
    /// Wraps `engine`, reusing `block` as scratch (cleared and re-armed
    /// for the engine's line size on entry).
    pub fn new(engine: &'a mut SimdEngine, block: &'a mut AccessBlock) -> BatchSink<'a> {
        block.rearm(engine.cache().config().line_bytes);
        BatchSink { engine, block }
    }

    /// Flushes any packed ops into the engine.
    pub fn finish(self) {
        // Drop does the work.
    }

    fn flush(&mut self) {
        if !self.block.is_empty() {
            self.engine.commit_block(self.block);
            self.block.clear();
        }
    }
}

impl TraceSink for BatchSink<'_> {
    fn op(&mut self, operands: &[Access]) {
        self.block.push_op(operands);
        if self.block.len() >= FLUSH_ACCESSES {
            self.flush();
        }
    }
}

impl Drop for BatchSink<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Runs `workload` through `engine` (reset first) via the batched path,
/// reusing `block` as scratch. Counters and cache state are identical to
/// [`Workload::run`]; wall-clock is not — this is the fast path.
pub fn run_buffered(
    workload: &dyn Workload,
    engine: &mut SimdEngine,
    block: &mut AccessBlock,
) -> KernelStats {
    engine.reset();
    let mut sink = BatchSink::new(engine, block);
    workload.trace(&mut sink);
    sink.finish();
    KernelStats::from_engine(engine)
}

/// A [`TraceSink`] that ships packed blocks over a bounded channel,
/// refilling its scratch from the executor's free-list before falling
/// back to a fresh allocation.
struct ChannelSink {
    tx: SyncSender<AccessBlock>,
    recycle: Receiver<AccessBlock>,
    block: AccessBlock,
    line_bytes: u32,
}

impl ChannelSink {
    fn flush(&mut self) {
        if self.block.is_empty() {
            return;
        }
        // Prefer a recycled block (already cleared by the executor;
        // `rearm` re-asserts the geometry for free) over allocating.
        let fresh = match self.recycle.try_recv() {
            Ok(mut recycled) => {
                recycled.rearm(self.line_bytes);
                recycled
            }
            Err(_) => AccessBlock::with_capacity(self.line_bytes, BLOCK_CAPACITY),
        };
        let full = std::mem::replace(&mut self.block, fresh);
        // A closed channel means the executor panicked; propagate by
        // ending this generator quietly (scope join reports the root
        // cause).
        let _ = self.tx.send(full);
    }
}

impl TraceSink for ChannelSink {
    fn op(&mut self, operands: &[Access]) {
        self.block.push_op(operands);
        if self.block.len() >= FLUSH_ACCESSES {
            self.flush();
        }
    }
}

/// Worker budget for pipelined mode: `REPRO_THREADS` when set to a valid
/// count (the same knob the serving pool honours), else the host's
/// available parallelism. The hardware count is read once per process;
/// `REPRO_THREADS` on every call.
fn batch_workers() -> usize {
    static HARDWARE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let configured = std::env::var("REPRO_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1);
    configured.unwrap_or_else(|| {
        *HARDWARE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Drives N independent workload traces to completion, one fresh engine
/// per workload, returning their stats in input order.
///
/// Deterministic by construction: every cache consumes exactly its own
/// workload's trace in order, so the results match N sequential
/// [`run_buffered`] calls bit for bit regardless of the worker budget or
/// chunk interleaving.
///
/// # Panics
///
/// Panics if `config` is invalid or a workload's generator panics.
#[must_use]
pub fn run_batch(config: &CacheConfig, workloads: &[&dyn Workload]) -> Vec<KernelStats> {
    let mut engines: Vec<SimdEngine> = workloads
        .iter()
        .map(|_| SimdEngine::new(config.clone()).expect("valid cache config"))
        .collect();
    if batch_workers() <= 1 || workloads.len() < 2 {
        let mut block = AccessBlock::with_capacity(config.line_bytes, BLOCK_CAPACITY);
        return workloads
            .iter()
            .zip(engines.iter_mut())
            .map(|(w, e)| run_buffered(*w, e, &mut block))
            .collect();
    }
    std::thread::scope(|scope| {
        let mut rxs: Vec<Option<Receiver<AccessBlock>>> = Vec::with_capacity(workloads.len());
        let mut recycle_txs: Vec<SyncSender<AccessBlock>> = Vec::with_capacity(workloads.len());
        for &workload in workloads {
            let (tx, rx) = sync_channel::<AccessBlock>(CHANNEL_DEPTH);
            // One extra slot so the executor can always park the block it
            // just drained even when the generator has a full pipeline of
            // replacements queued.
            let (recycle_tx, recycle_rx) = sync_channel::<AccessBlock>(CHANNEL_DEPTH + 1);
            let line_bytes = config.line_bytes;
            scope.spawn(move || {
                let mut sink = ChannelSink {
                    tx,
                    recycle: recycle_rx,
                    block: AccessBlock::with_capacity(line_bytes, BLOCK_CAPACITY),
                    line_bytes,
                };
                workload.trace(&mut sink);
                sink.flush();
            });
            rxs.push(Some(rx));
            recycle_txs.push(recycle_tx);
        }
        let mut live = rxs.len();
        while live > 0 {
            for ((engine, slot), recycle_tx) in
                engines.iter_mut().zip(rxs.iter_mut()).zip(recycle_txs.iter())
            {
                if let Some(rx) = slot {
                    match rx.recv() {
                        Ok(mut chunk) => {
                            engine.commit_block(&chunk);
                            chunk.clear();
                            // Hand the drained block back; if the
                            // free-list is full or the generator is done,
                            // the block just drops.
                            match recycle_tx.try_send(chunk) {
                                Ok(())
                                | Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {}
                            }
                        }
                        Err(_) => {
                            // Generator finished and dropped its sender.
                            *slot = None;
                            live -= 1;
                        }
                    }
                }
            }
        }
    });
    engines.iter().map(KernelStats::from_engine).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{self, run_fresh};

    #[test]
    fn buffered_run_matches_per_op_run() {
        let cfg = CacheConfig::paper_default();
        let shape = kernels::knn::DistanceShape { testing: 32, reference: 128, features: 32 };
        let tiled = kernels::knn::Tiled::bandwidth(shape, 16, 16);
        let reference = run_fresh(&tiled, &cfg);
        let mut engine = SimdEngine::new(cfg.clone()).expect("valid config");
        let mut block = AccessBlock::new(cfg.line_bytes);
        let batched = run_buffered(&tiled, &mut engine, &mut block);
        assert_eq!(batched, reference);
    }

    #[test]
    fn run_batch_matches_sequential_runs() {
        let cfg = CacheConfig::paper_default();
        let knn_shape = kernels::knn::DistanceShape { testing: 24, reference: 96, features: 32 };
        let svm_shape = kernels::svm::KernelMatrixShape { train: 48, features: 32 };
        let knn = kernels::knn::Tiled::bandwidth(knn_shape, 16, 16);
        let svm = kernels::svm::Tiled { shape: svm_shape, ti: 16, tj: 16 };
        let dnn = kernels::dnn::Tiled {
            shape: kernels::dnn::LayerShape { inputs: 512, outputs: 32 },
            t: 256,
        };
        let workloads: Vec<&dyn Workload> = vec![&knn, &svm, &dnn];
        let batched = run_batch(&cfg, &workloads);
        let sequential: Vec<KernelStats> = workloads.iter().map(|w| run_fresh(*w, &cfg)).collect();
        assert_eq!(batched, sequential);
    }

    #[test]
    fn flush_boundaries_do_not_change_counters() {
        // A trace far longer than one flush block: the mid-trace flushes
        // must be invisible in the counters.
        let cfg = CacheConfig::paper_default();
        let shape = kernels::kmeans::KMeansShape { instances: 512, centroids: 32, features: 32 };
        let w = kernels::kmeans::Tiled { shape, tc: 16, tn: 16 };
        let reference = run_fresh(&w, &cfg);
        assert!(
            reference.ops as usize * 2 > FLUSH_ACCESSES,
            "test workload too small to cross a flush boundary"
        );
        let mut engine = SimdEngine::new(cfg.clone()).expect("valid config");
        let mut block = AccessBlock::new(cfg.line_bytes);
        assert_eq!(run_buffered(&w, &mut engine, &mut block), reference);
    }

    #[test]
    fn repro_threads_is_read_on_every_call() {
        // The hardware count is cached; the override must not be. This
        // is the only test in the crate that sets the variable, and
        // run_batch's results do not depend on the worker count.
        let saved = std::env::var("REPRO_THREADS").ok();
        std::env::set_var("REPRO_THREADS", "3");
        assert_eq!(batch_workers(), 3);
        std::env::set_var("REPRO_THREADS", "1");
        assert_eq!(batch_workers(), 1, "a changed override is read again");
        std::env::set_var("REPRO_THREADS", "0");
        assert!(batch_workers() >= 1, "an invalid override falls back to the hardware");
        match saved {
            Some(v) => std::env::set_var("REPRO_THREADS", v),
            None => std::env::remove_var("REPRO_THREADS"),
        }
    }

    #[test]
    fn batch_sink_rearms_scratch_to_engine_geometry() {
        // A scratch block left armed for a different line size must be
        // re-split for the engine it is now feeding.
        let cfg = CacheConfig::paper_default(); // 64-byte lines
        let shape = kernels::knn::DistanceShape { testing: 16, reference: 64, features: 32 };
        let tiled = kernels::knn::Tiled::bandwidth(shape, 16, 16);
        let reference = run_fresh(&tiled, &cfg);
        let mut engine = SimdEngine::new(cfg).expect("valid config");
        let mut block = AccessBlock::new(32);
        assert_eq!(run_buffered(&tiled, &mut engine, &mut block), reference);
    }
}
