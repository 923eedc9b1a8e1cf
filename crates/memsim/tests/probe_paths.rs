//! Differential coverage of the set lookups behind [`Cache::access_soa`]
//! and [`Cache::access_scalar`].
//!
//! The geometry alone picks the lookup: the SWAR signature probe for
//! `ways <= 8`, a linear scan beyond. Every way count on either side of
//! that line, single-set caches and 1-byte lines (no line buffer, so
//! every access reaches the lookup) run through both entry points, and
//! both statistics and full line states must equal the [`RefCache`]
//! oracle in `common`.

mod common;

use common::{any_config, any_ops, check, config, pack, RefCache, CLASSES, WAYS};
use proptest::prelude::*;
use pudiannao_memsim::{Access, Addr, Cache, CacheConfig};

/// A conflict-heavy mixed trace: reads and writes striding through a
/// `window`-byte region so every set sees hits, misses and evictions.
fn mixed_trace(len: u64, window: u64) -> Vec<Vec<Access>> {
    (0..len)
        .map(|i| {
            let addr = Addr((i * 67) % window);
            let class = CLASSES[(i % 3) as usize];
            vec![if i % 5 == 0 {
                Access::write(addr, 8, class)
            } else {
                Access::read(addr, 32, class)
            }]
        })
        .collect()
}

/// Runs `ops` through `access_scalar` and one `access_soa` block on
/// fresh caches and checks both against the reference model.
fn check_both_paths(cfg: &CacheConfig, ops: &[Vec<Access>]) {
    let reference = RefCache::run(cfg, ops);
    let mut scalar = Cache::new(cfg.clone()).unwrap();
    for &a in ops.iter().flatten() {
        scalar.access_scalar(a);
    }
    check(&scalar, &reference, &format!("{cfg:?} access_scalar"));
    let mut soa = Cache::new(cfg.clone()).unwrap();
    soa.access_soa(&pack(ops, cfg.line_bytes, ops.len(), 1)[0]);
    check(&soa, &reference, &format!("{cfg:?} access_soa"));
}

const POLICIES: [(bool, bool); 4] = [(true, true), (true, false), (false, true), (false, false)];

/// Ways the SWAR probe handles without a power-of-two layout (3, 5) and
/// ways past its eight lanes (16, 24, linear scan) run a long
/// conflict-heavy trace correctly under every policy pair. The 64 KiB
/// window maps 64 lines onto each of the 16 sets, so even 24-way sets
/// fill and evict.
#[test]
fn odd_way_counts_fall_back_and_agree() {
    let ops = mixed_trace(6000, 64 * 1024);
    for ways in [3u32, 5, 16, 24] {
        for (lru, wb) in POLICIES {
            check_both_paths(&config(ways, 16, 64, lru, wb), &ops);
        }
    }
}

/// A single-set cache (every line aliases into set 0) exercises the
/// degenerate set-index masks on every lookup.
#[test]
fn single_set_caches_agree_on_every_path() {
    let ops = mixed_trace(4000, 4096);
    for ways in WAYS {
        for (lru, wb) in POLICIES {
            let cfg = config(ways, 1, 64, lru, wb);
            assert_eq!(cfg.sets(), 1);
            check_both_paths(&cfg, &ops);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both lookups, reached through both entry points, produce the
    /// reference statistics and line states on arbitrary traces and
    /// geometries.
    #[test]
    fn all_probe_paths_agree(cfg in any_config(), ops in any_ops(1..80)) {
        check_both_paths(&cfg, &ops);
    }
}
