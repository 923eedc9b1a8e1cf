//! The differential suite for the batched and engine-level ways a trace
//! reaches the cache, against the [`RefCache`] oracle in `common`.
//!
//! Covered here: the batched [`Workload::run`] and [`run_buffered`], the
//! engine as a plain [`TraceSink`], [`SimdEngine::commit_block`]
//! interleaved across several engines, reset, and [`AccessBlock`]
//! packing and splicing. The single-cache entry points are pinned by the
//! sibling suites: `coalesce_equivalence` (per-op engine, scalar and SoA
//! passes), `soa_equivalence` (SoA pass vs the AoS scalar pass) and
//! `probe_paths` (SWAR and linear-scan lookups on every geometry).

mod common;

use common::{any_config, any_ops, check, pack, per_op_engine, ref_lines, RefCache};
use proptest::prelude::*;
use pudiannao_memsim::kernels::TraceSink;
use pudiannao_memsim::{
    run_buffered, Access, AccessBlock, AccessKind, Addr, BandwidthReport, Cache, CacheConfig,
    KernelStats, SimdEngine, Technique, VarClass, Workload,
};

/// A workload that replays a recorded op list.
struct Replay {
    ops: Vec<Vec<Access>>,
}

impl Workload for Replay {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn technique(&self) -> Technique {
        Technique::Knn
    }

    fn trace(&self, sink: &mut dyn TraceSink) {
        for op in &self.ops {
            sink.op(op);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Workload::run` (engine-owned scratch, reused across runs),
    /// `run_buffered` (caller scratch armed for another line size) and
    /// the engine as a plain `TraceSink` match per-op execution.
    #[test]
    fn workload_runs_match_per_op_execution(
        cfg in any_config(),
        first in any_ops(1..40),
        second in any_ops(1..40),
    ) {
        let mut engine = SimdEngine::new(cfg.clone()).unwrap();
        let mut block = AccessBlock::new(if cfg.line_bytes == 64 { 16 } else { 64 });
        for ops in [first, second] {
            let reference = RefCache::run(&cfg, &ops);
            let per_op = per_op_engine(&cfg, &ops);
            check(per_op.cache(), &reference, "SimdEngine::op");
            let expected = KernelStats::from_engine(&per_op);
            let w = Replay { ops };

            prop_assert_eq!(w.run(&mut engine), expected);
            check(engine.cache(), &reference, "Workload::run");

            prop_assert_eq!(run_buffered(&w, &mut engine, &mut block), expected);
            check(engine.cache(), &reference, "run_buffered");

            engine.reset();
            w.trace(&mut engine);
            prop_assert_eq!(engine.report(), per_op.report());
            check(engine.cache(), &reference, "TraceSink for SimdEngine");
        }
    }

    /// Round-robin `commit_block` of chunked traces across 2-5 engines is
    /// invisible: each engine ends exactly as its own trace alone would.
    #[test]
    fn interleaved_batch_matches_sequential(
        traces in proptest::collection::vec(any_ops(1..40), 2..6),
        chunk in 1usize..8,
    ) {
        let cfg = CacheConfig::paper_default();
        let mut engines: Vec<SimdEngine> =
            traces.iter().map(|_| SimdEngine::new(cfg.clone()).unwrap()).collect();
        let chunked: Vec<Vec<AccessBlock>> =
            traces.iter().map(|ops| pack(ops, cfg.line_bytes, chunk, 1)).collect();
        let rounds = chunked.iter().map(Vec::len).max().unwrap_or(0);
        for round in 0..rounds {
            for (engine, blocks) in engines.iter_mut().zip(&chunked) {
                if let Some(block) = blocks.get(round) {
                    engine.commit_block(block);
                }
            }
        }
        for (i, (engine, ops)) in engines.iter().zip(&traces).enumerate() {
            check(engine.cache(), &RefCache::run(&cfg, ops), &format!("engine {i}"));
            prop_assert_eq!(engine.report().ops, ops.len() as u64);
        }
    }

    /// Reset returns cache and engine to a pristine state: a trace
    /// replayed after `reset` behaves exactly like a fresh one.
    #[test]
    fn reset_is_pristine(
        cfg in any_config(),
        dirty in any_ops(1..40),
        ops in any_ops(1..40),
    ) {
        let reference = RefCache::run(&cfg, &ops);
        let mut cache = Cache::new(cfg.clone()).unwrap();
        for block in pack(&dirty, cfg.line_bytes, 4, 1) {
            cache.access_soa(&block);
        }
        cache.reset();
        for block in pack(&ops, cfg.line_bytes, 4, 1) {
            cache.access_soa(&block);
        }
        check(&cache, &reference, "access_soa after reset");

        let mut engine = per_op_engine(&cfg, &dirty);
        engine.reset();
        prop_assert_eq!(engine.report(), BandwidthReport::default());
        for op in &ops {
            engine.op(op);
        }
        check(engine.cache(), &reference, "SimdEngine::op after reset");
    }

    /// A packed block's entries are exactly the scalar line-split
    /// expansion of the op stream, wraps included, and its op count is
    /// conserved.
    #[test]
    fn pack_matches_scalar_expansion(ops in any_ops(1..40), l in 0usize..3) {
        let line_bytes: u32 = [1, 16, 64][l];
        let shift = line_bytes.trailing_zeros();
        let mut block = AccessBlock::new(line_bytes);
        for op in &ops {
            block.push_op(op);
        }
        prop_assert_eq!(block.ops(), ops.len() as u64);
        let expected: Vec<(u64, u32, AccessKind, VarClass)> = ops
            .iter()
            .flatten()
            .flat_map(|&a| ref_lines(a, shift).into_iter().map(move |l| (l, a.bytes, a.kind, a.class)))
            .collect();
        prop_assert_eq!(block.entries().collect::<Vec<_>>(), expected);
    }

    /// Splicing blocks with `extend_from_block` yields the very block
    /// packing the whole stream at once would.
    #[test]
    fn spliced_blocks_equal_one_block(ops in any_ops(2..40), chunk in 1usize..8) {
        let mut whole = AccessBlock::new(64);
        for op in &ops {
            whole.push_op(op);
        }
        prop_assert_eq!(pack(&ops, 64, chunk, ops.len()), vec![whole]);
    }
}

/// An access running past `u64::MAX` touches the top line, then line 0,
/// on every path.
#[test]
fn top_of_ring_access_wraps_on_every_path() {
    let cfg = CacheConfig::paper_default();
    let ops = vec![
        vec![Access::read(Addr(u64::MAX - 3), 32, VarClass::Hot)],
        vec![
            Access::write(Addr(u64::MAX - 60), 130, VarClass::Output),
            Access::read(Addr(8), 4, VarClass::Cold),
        ],
    ];
    let reference = RefCache::run(&cfg, &ops);
    assert_eq!(reference.stats.accesses(), 2 + 3 + 1);
    let engine = per_op_engine(&cfg, &ops);
    check(engine.cache(), &reference, "SimdEngine::op");
    let mut soa = Cache::new(cfg.clone()).unwrap();
    soa.access_soa(&pack(&ops, 64, 1, 2)[0]);
    check(&soa, &reference, "access_soa");
}
