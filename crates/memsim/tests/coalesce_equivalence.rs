//! Differential proptests pinning the cache's fast and per-op paths to
//! the [`RefCache`] oracle in `common`: the SoA pass with its line buffer
//! over arbitrarily chunked and spliced blocks, and per-op
//! [`SimdEngine::op`] over operand groups holding real same-line runs.
//! Both statistics and full line states must match.

mod common;

use common::{any_config, any_ops, check, pack, per_op_engine, RefCache};
use proptest::prelude::*;
use pudiannao_memsim::{AccessBlock, Cache, SimdEngine};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Cache::access_soa` (line buffer + SWAR or linear set lookup) over
    /// any chunking and splicing of the packed trace leaves statistics
    /// AND per-line state — tags, valid/dirty bits, LRU/FIFO stamps, and
    /// therefore every victim choice — identical to the reference model.
    #[test]
    fn fast_access_matches_reference(
        cfg in any_config(),
        ops in any_ops(1..60),
        chunk in 1usize..8,
        splice in 1usize..4,
    ) {
        let reference = RefCache::run(&cfg, &ops);
        let mut soa = Cache::new(cfg.clone()).unwrap();
        for block in pack(&ops, cfg.line_bytes, chunk, splice) {
            soa.access_soa(&block);
        }
        check(&soa, &reference, "access_soa");
    }

    /// Per-op `SimdEngine::op` over operand groups, one `commit_block`
    /// of the whole trace, and `access_scalar` access by access are each
    /// equivalent, counter for counter and stamp for stamp, to the
    /// reference model; the engine counts one op and one cycle per group.
    #[test]
    fn coalesced_run_matches_reference(cfg in any_config(), ops in any_ops(1..60)) {
        let reference = RefCache::run(&cfg, &ops);

        let engine = per_op_engine(&cfg, &ops);
        check(engine.cache(), &reference, "SimdEngine::op");
        prop_assert_eq!(engine.report().ops, ops.len() as u64);
        prop_assert_eq!(engine.report().cycles, ops.len() as u64);

        let mut block = AccessBlock::new(cfg.line_bytes);
        for op in &ops {
            block.push_op(op);
        }
        let mut batched = SimdEngine::new(cfg.clone()).unwrap();
        batched.commit_block(&block);
        check(batched.cache(), &reference, "SimdEngine::commit_block");
        prop_assert_eq!(batched.report(), engine.report());

        let mut scalar = Cache::new(cfg.clone()).unwrap();
        for &a in ops.iter().flatten() {
            scalar.access_scalar(a);
        }
        check(&scalar, &reference, "access_scalar");
    }
}
