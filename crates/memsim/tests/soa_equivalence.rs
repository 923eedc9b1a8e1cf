//! Differential proptest for the SoA block pipeline: [`Cache::access_soa`]
//! over a packed [`AccessBlock`] must leave the cache exactly where the
//! AoS reference pass, [`Cache::access_scalar`] over the flattened
//! `Access` stream, leaves it — stats AND line states — and both must
//! match the [`RefCache`] oracle in `common`.

mod common;

use common::{any_config, any_ops, check, states, RefCache};
use proptest::prelude::*;
use pudiannao_memsim::{AccessBlock, Cache};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The SoA pass over a packed block is bit-identical to the AoS pass
    /// over the flattened stream for every replacement/write-policy/
    /// geometry combination, including the write-around paths that
    /// consume the `bytes` column the write-back instantiations elide.
    #[test]
    fn soa_pass_matches_aos_pass(cfg in any_config(), ops in any_ops(1..60)) {
        let mut aos = Cache::new(cfg.clone()).unwrap();
        for &a in ops.iter().flatten() {
            aos.access_scalar(a);
        }

        let mut block = AccessBlock::new(cfg.line_bytes);
        for op in &ops {
            block.push_op(op);
        }
        let mut soa = Cache::new(cfg.clone()).unwrap();
        soa.access_soa(&block);

        prop_assert_eq!(soa.stats(), aos.stats());
        prop_assert_eq!(states(&soa), states(&aos));
        check(&soa, &RefCache::run(&cfg, &ops), "access_soa");
    }
}
