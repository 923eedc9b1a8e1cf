//! The oracle and trace generators shared by the differential suites
//! (`cache_equivalence`, `coalesce_equivalence`, `probe_paths`,
//! `soa_equivalence`).
//!
//! The oracle is [`RefCache`], an independent per-set model in the style
//! the simulator started from: one `Vec<Vec<RefLine>>`, a linear scan
//! per access, first-invalid-then-lowest-stamp victim choice. [`check`]
//! compares [`Cache::line_states`] snapshots (not just counters), which
//! pins the exact victim choices and LRU/FIFO stamps, so a shortcut that
//! changed a single replacement decision fails even if the aggregate
//! statistics agreed.
//!
//! Geometries cover ways {1,2,3,4,5,8,16,24} (SWAR lookup up to 8 ways,
//! linear scan beyond), single-set caches, 1-byte lines (line buffer
//! off), both write policies and LRU/FIFO. Traces include line-crossing
//! accesses and accesses that run past the top of the `u64` address ring.

// Each suite is its own crate and uses a different subset of the helpers.
#![allow(dead_code)]

use proptest::prelude::*;
use pudiannao_memsim::{
    Access, AccessBlock, AccessKind, Addr, Cache, CacheConfig, CacheStats, ReplacementPolicy,
    SimdEngine, VarClass, WritePolicy,
};

#[derive(Clone, Copy, Default)]
pub struct RefLine {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

/// The reference cache: per-set line vectors, no line buffer, no packed
/// signatures, no batching.
pub struct RefCache {
    cfg: CacheConfig,
    sets: Vec<Vec<RefLine>>,
    pub stats: CacheStats,
    tick: u64,
    line_shift: u32,
    set_bits: u32,
    set_mask: u64,
}

/// `(set, way, tag-if-valid, valid, dirty, stamp)` per line.
pub type LineStates = Vec<(u32, u32, u64, bool, bool, u64)>;

/// The lines an access touches, walked one line at a time around the
/// wrapping `u64` address ring: after the top line comes line 0.
pub fn ref_lines(a: Access, line_shift: u32) -> Vec<u64> {
    let top = u64::MAX >> line_shift;
    let last = a.addr.0.wrapping_add(u64::from(a.bytes.max(1)) - 1) >> line_shift;
    let mut line = a.addr.0 >> line_shift;
    let mut lines = vec![line];
    while line != last {
        line = if line == top { 0 } else { line + 1 };
        lines.push(line);
    }
    lines
}

impl RefCache {
    pub fn new(cfg: CacheConfig) -> RefCache {
        let sets = cfg.sets();
        RefCache {
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            set_mask: u64::from(sets - 1),
            sets: vec![vec![RefLine::default(); cfg.ways as usize]; sets as usize],
            stats: CacheStats::default(),
            tick: 0,
            cfg,
        }
    }

    pub fn run(cfg: &CacheConfig, ops: &[Vec<Access>]) -> RefCache {
        let mut reference = RefCache::new(cfg.clone());
        for &a in ops.iter().flatten() {
            reference.access(a);
        }
        reference
    }

    pub fn access(&mut self, a: Access) {
        for line_addr in ref_lines(a, self.line_shift) {
            self.tick += 1;
            self.access_line(line_addr, a.kind, a.bytes);
        }
    }

    fn access_line(&mut self, line_addr: u64, kind: AccessKind, bytes: u32) {
        let line_bytes = u64::from(self.cfg.line_bytes);
        let set_idx = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_bits;
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            match kind {
                AccessKind::Read => self.stats.read_hits += 1,
                AccessKind::Write => {
                    self.stats.write_hits += 1;
                    match self.cfg.write_policy {
                        WritePolicy::WriteBackAllocate => line.dirty = true,
                        WritePolicy::WriteAroundNoAllocate => {
                            self.stats.offchip_write_bytes += u64::from(bytes).min(line_bytes);
                        }
                    }
                }
            }
            if self.cfg.replacement == ReplacementPolicy::Lru {
                line.stamp = self.tick;
            }
            return;
        }
        let fill_dirty = match kind {
            AccessKind::Read => {
                self.stats.read_misses += 1;
                self.stats.offchip_read_bytes += line_bytes;
                false
            }
            AccessKind::Write => {
                self.stats.write_misses += 1;
                match self.cfg.write_policy {
                    WritePolicy::WriteBackAllocate => {
                        // Fetch-on-write then dirty the line.
                        self.stats.offchip_read_bytes += line_bytes;
                        true
                    }
                    WritePolicy::WriteAroundNoAllocate => {
                        self.stats.offchip_write_bytes += u64::from(bytes).min(line_bytes);
                        return; // no allocation
                    }
                }
            }
        };
        // First invalid way, else the first way with the lowest stamp.
        let victim = set.iter().position(|l| !l.valid).unwrap_or_else(|| {
            set.iter().enumerate().min_by_key(|(w, l)| (l.stamp, *w)).expect("ways is non-zero").0
        });
        let line = &mut set[victim];
        if line.valid {
            self.stats.evictions += 1;
            if line.dirty {
                self.stats.offchip_write_bytes += line_bytes;
            }
        }
        *line = RefLine { tag, valid: true, dirty: fill_dirty, stamp: self.tick };
    }

    /// Same layout as [`states`]; tags of invalid lines are masked to 0
    /// so the comparison is about meaningful state only.
    pub fn line_states(&self) -> LineStates {
        self.sets
            .iter()
            .enumerate()
            .flat_map(|(s, set)| {
                set.iter().enumerate().map(move |(w, l)| {
                    (s as u32, w as u32, if l.valid { l.tag } else { 0 }, l.valid, l.dirty, l.stamp)
                })
            })
            .collect()
    }
}

pub fn states(cache: &Cache) -> LineStates {
    cache
        .line_states()
        .into_iter()
        .map(|l| (l.set, l.way, if l.valid { l.tag } else { 0 }, l.valid, l.dirty, l.stamp))
        .collect()
}

/// Asserts that `cache` ended exactly where `reference` did.
pub fn check(cache: &Cache, reference: &RefCache, path: &str) {
    assert_eq!(cache.stats(), &reference.stats, "{path}: stats");
    assert_eq!(states(cache), reference.line_states(), "{path}: line states");
}

/// Packs `ops` into one block per `chunk` ops, then splices every
/// `splice` consecutive chunks back together with `extend_from_block`.
pub fn pack(ops: &[Vec<Access>], line_bytes: u32, chunk: usize, splice: usize) -> Vec<AccessBlock> {
    let chunks: Vec<AccessBlock> = ops
        .chunks(chunk)
        .map(|ops| {
            let mut block = AccessBlock::new(line_bytes);
            for op in ops {
                block.push_op(op);
            }
            block
        })
        .collect();
    chunks
        .chunks(splice)
        .map(|group| {
            let mut spliced = AccessBlock::new(line_bytes);
            for block in group {
                spliced.extend_from_block(block);
            }
            spliced
        })
        .collect()
}

pub fn per_op_engine(cfg: &CacheConfig, ops: &[Vec<Access>]) -> SimdEngine {
    let mut engine = SimdEngine::new(cfg.clone()).unwrap();
    for op in ops {
        engine.op(op);
    }
    engine
}

pub const WAYS: [u32; 8] = [1, 2, 3, 4, 5, 8, 16, 24];
pub const CLASSES: [VarClass; 4] =
    [VarClass::Hot, VarClass::Cold, VarClass::Output, VarClass::Stream];

pub fn config(ways: u32, sets: u32, line_bytes: u32, lru: bool, wb: bool) -> CacheConfig {
    CacheConfig {
        capacity_bytes: line_bytes * ways * sets,
        line_bytes,
        ways,
        replacement: if lru { ReplacementPolicy::Lru } else { ReplacementPolicy::Fifo },
        write_policy: if wb {
            WritePolicy::WriteBackAllocate
        } else {
            WritePolicy::WriteAroundNoAllocate
        },
    }
}

/// Few sets force evictions and conflict misses.
pub fn any_config() -> impl Strategy<Value = CacheConfig> {
    ((0usize..WAYS.len(), 0usize..3, 0usize..3), (any::<bool>(), any::<bool>()))
        .prop_map(|((w, s, l), (lru, wb))| config(WAYS[w], [1, 2, 4][s], [1, 16, 64][l], lru, wb))
}

/// Accesses over a narrow window (heavy aliasing) with spans that often
/// cross lines; one in eight sits just below the top of the address ring,
/// so its span may wrap onto the lines at 0.
pub fn any_access() -> impl Strategy<Value = Access> {
    ((0u64..2048, 0u8..8), 0u32..97, any::<bool>(), 0usize..4).prop_map(
        |((offset, window), bytes, write, class)| {
            let addr = if window == 0 { u64::MAX - 127 + offset % 128 } else { offset };
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            Access { addr: Addr(addr), bytes, kind, class: CLASSES[class] }
        },
    )
}

/// SIMD ops of one to three operands, each op repeated up to three times
/// so the trace holds real same-line runs for the line buffer.
pub fn any_ops(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<Access>>> {
    proptest::collection::vec((proptest::collection::vec(any_access(), 1..4), 0usize..3), len)
        .prop_map(|ops| {
            ops.into_iter().flat_map(|(op, repeats)| std::iter::repeat_n(op, repeats + 1)).collect()
        })
}
