//! The serving catalog: 13 phases × 3 size tiers of pre-built memsim
//! workloads, each boxed behind the unified `Workload` trait.
//!
//! Serving-tier problems are deliberately small — a request should hold a
//! shard for microseconds, not the milliseconds the locality-study shapes
//! take — so these shapes are scaled-down cousins of the Section-2
//! figures, tiled the same way the paper tiles them. Two phases have no
//! dedicated memsim kernel and borrow the closest one:
//!
//! * **NB prediction** replays the NB *training* counting kernel at a
//!   smaller instance count: prediction streams testing instances through
//!   the same per-feature probability tables the training pass builds.
//! * **CT training** is counting-dominated (the paper groups it with NB
//!   for exactly this reason) and also maps to the NB counting kernel,
//!   with a CT-flavoured feature/value shape.
//!
//! ## Service-cost table
//!
//! Each `(phase, tier)` slot is a fixed instruction stream, so it costs
//! the same every time it runs: the memsim engine charges one cycle per
//! SIMD op and nothing for misses, so a slot's service time is its op
//! count however warm the cache is. The fleet therefore never replays a
//! trace per request. [`ServingCatalog::service_costs`] runs each slot
//! once through a fresh engine and returns one [`ServiceCost`] row per
//! slot; the fleet builds that table once per run and adds up rows.
//!
//! ## Trace-template cache
//!
//! [`TraceCache`] records each template's flattened [`AccessBlock`] once,
//! on first use, into a bounded arena; every later leg replays the packed
//! block with a single [`SimdEngine::commit_block`] call, which is
//! counter-identical to fresh generation. It is no longer on the fleet
//! path (the service-cost table replaced it there); it stays as a
//! standalone replay utility that the host-time benchmark probes.
//!
//! [`SimdEngine::commit_block`]: pudiannao_memsim::SimdEngine::commit_block

use pudiannao_codegen::phases::Phase;
use pudiannao_memsim::kernels::{self, ct, dnn, kmeans, knn, linreg, nb, svm, TraceSink};
use pudiannao_memsim::{Access, AccessBlock, BatchSink, CacheConfig, SimdEngine, Workload};

use crate::request::SizeTier;

/// Default [`TraceCache`] arena: comfortably holds every catalog template
/// on the paper-default cache geometry (~4 MB of packed entries across
/// all 39 slots), with 4x headroom for bigger tiers.
pub const TRACE_CACHE_BYTES: usize = 16 << 20;

/// What one request of a catalog slot costs a shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceCost {
    /// Service time in simulated ns (engine cycles at 1 GHz).
    pub service_ns: u64,
    /// SIMD operations executed.
    pub ops: u64,
    /// Off-chip bytes the slot moves on a cold cache.
    pub offchip_bytes: u64,
}

/// Position of a phase in [`Phase::ALL`], used to index the catalog.
#[must_use]
pub fn phase_index(phase: Phase) -> usize {
    Phase::ALL.iter().position(|p| *p == phase).expect("Phase::ALL covers every variant")
}

/// Number of `(phase, tier)` slots in the catalog (and in a
/// [`TraceCache`]).
#[must_use]
pub fn slot_count() -> usize {
    Phase::ALL.len() * SizeTier::ALL.len()
}

/// The catalog slot serving `(phase, tier)` requests.
#[must_use]
pub fn slot_index(phase: Phase, tier: SizeTier) -> usize {
    phase_index(phase) * SizeTier::ALL.len() + tier.index()
}

/// The fleet's workload table: one boxed [`Workload`] per (phase, tier).
pub struct ServingCatalog {
    entries: Vec<Box<dyn Workload>>,
}

impl ServingCatalog {
    /// Builds the default catalog used by `serve_bench` and the tests.
    #[must_use]
    pub fn paper_default() -> ServingCatalog {
        let mut entries: Vec<Box<dyn Workload>> = Vec::with_capacity(Phase::ALL.len() * 3);
        for phase in Phase::ALL {
            for tier in SizeTier::ALL {
                entries.push(build(phase, tier));
            }
        }
        ServingCatalog { entries }
    }

    /// The workload that serves `(phase, tier)` requests.
    #[must_use]
    pub fn get(&self, phase: Phase, tier: SizeTier) -> &dyn Workload {
        self.entries[slot_index(phase, tier)].as_ref()
    }

    /// The service-cost table: one row per slot, indexed by
    /// [`slot_index`], each from one cold run over `cache`.
    ///
    /// # Panics
    ///
    /// Panics if `cache` is invalid.
    #[must_use]
    pub fn service_costs(&self, cache: &CacheConfig) -> Vec<ServiceCost> {
        self.entries
            .iter()
            .map(|w| {
                let stats = kernels::run_fresh(w.as_ref(), cache);
                ServiceCost {
                    service_ns: stats.cycles,
                    ops: stats.ops,
                    offchip_bytes: stats.offchip_bytes,
                }
            })
            .collect()
    }
}

/// One `(phase, tier)` slot of a [`TraceCache`].
enum Slot {
    /// Never executed through this cache yet.
    Empty,
    /// Recorded; legs replay this packed block.
    Ready(AccessBlock),
    /// Recording would overflow the arena budget; legs for this slot
    /// generate fresh forever (bounded memory beats caching the giants).
    TooBig,
}

/// Bytes one packed per-line entry occupies across the three SoA columns
/// (`u64` line address + `u32` bytes + `u8` meta). Budget accounting uses
/// `len * ENTRY_BYTES` — a pure function of the recorded trace, so the
/// Ready/TooBig decision is identical on every shard and every run.
const ENTRY_BYTES: usize = 13;

/// Counters and footprint of a [`TraceCache`]. Never serialised into
/// the report JSON.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Legs served by replaying a recorded block.
    pub hits: u64,
    /// Legs that generated their trace fresh (first use or over-budget).
    pub misses: u64,
    /// Accounted bytes of recorded blocks resident across the caches.
    pub resident_bytes: u64,
    /// Slots holding a replayable block.
    pub ready_slots: u64,
    /// Slots whose template overflowed the budget.
    pub too_big_slots: u64,
}

/// A [`TraceSink`] that only packs — the recording arm of a first-use
/// leg. The whole template lands in one block, committed once; chunked
/// commits would be equivalent (flush boundaries are invisible), just
/// more calls.
struct PackSink<'a> {
    block: &'a mut AccessBlock,
}

impl TraceSink for PackSink<'_> {
    fn op(&mut self, operands: &[Access]) {
        self.block.push_op(operands);
    }
}

/// Trace-template cache: one slot per `(phase, tier)`, a byte budget
/// bounding the recorded arena, and hit/miss counters.
pub struct TraceCache {
    slots: Vec<Slot>,
    budget_bytes: usize,
    used_bytes: usize,
    hits: u64,
    misses: u64,
}

impl TraceCache {
    /// An empty cache whose recorded blocks may use at most
    /// `budget_bytes` (accounted as `entries × 13` packed bytes).
    #[must_use]
    pub fn new(budget_bytes: usize) -> TraceCache {
        TraceCache {
            slots: (0..slot_count()).map(|_| Slot::Empty).collect(),
            budget_bytes,
            used_bytes: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Executes one `(phase, tier)` leg through `engine`: replaying the
    /// recorded block on a hit, recording on first use, and generating
    /// fresh (via `scratch`, chunked) for over-budget templates.
    /// Counter-identical to streaming `catalog.get(phase, tier)` through
    /// a [`BatchSink`].
    pub fn execute(
        &mut self,
        catalog: &ServingCatalog,
        phase: Phase,
        tier: SizeTier,
        engine: &mut SimdEngine,
        scratch: &mut AccessBlock,
    ) {
        let idx = slot_index(phase, tier);
        match &self.slots[idx] {
            Slot::Ready(block) => {
                self.hits += 1;
                engine.commit_block(block);
            }
            Slot::TooBig => {
                self.misses += 1;
                let mut sink = BatchSink::new(engine, scratch);
                catalog.get(phase, tier).trace(&mut sink);
                sink.finish();
            }
            Slot::Empty => {
                self.misses += 1;
                let mut recording = AccessBlock::new(engine.cache().config().line_bytes);
                catalog.get(phase, tier).trace(&mut PackSink { block: &mut recording });
                engine.commit_block(&recording);
                let cost = recording.len() * ENTRY_BYTES;
                if self.used_bytes + cost <= self.budget_bytes {
                    self.used_bytes += cost;
                    self.slots[idx] = Slot::Ready(recording);
                } else {
                    self.slots[idx] = Slot::TooBig;
                }
            }
        }
    }

    /// This cache's counters and footprint.
    #[must_use]
    pub fn stats(&self) -> TraceCacheStats {
        let mut ready = 0;
        let mut too_big = 0;
        for s in &self.slots {
            match s {
                Slot::Ready(_) => ready += 1,
                Slot::TooBig => too_big += 1,
                Slot::Empty => {}
            }
        }
        TraceCacheStats {
            hits: self.hits,
            misses: self.misses,
            resident_bytes: self.used_bytes as u64,
            ready_slots: ready,
            too_big_slots: too_big,
        }
    }
}

/// Seed for the data-dependent kernels (NB feature values, CT branch
/// directions); fixed so the catalog is one deterministic artefact.
const DATA_SEED: u64 = 0x5eed_cafe;

/// Picks `(small, medium, large)` by tier.
fn pick<T: Copy>(tier: SizeTier, values: (T, T, T)) -> T {
    match tier {
        SizeTier::Small => values.0,
        SizeTier::Medium => values.1,
        SizeTier::Large => values.2,
    }
}

fn build(phase: Phase, tier: SizeTier) -> Box<dyn Workload> {
    match phase {
        Phase::KnnPrediction => {
            let (testing, reference) = pick(tier, ((16, 32), (16, 64), (32, 128)));
            let shape = knn::DistanceShape { testing, reference, features: 32 };
            Box::new(knn::Tiled::bandwidth(shape, 16, 16))
        }
        Phase::KMeansClustering => {
            let (instances, centroids) = pick(tier, ((32, 16), (64, 16), (128, 32)));
            let shape = kmeans::KMeansShape { instances, centroids, features: 32 };
            Box::new(kmeans::Tiled { shape, tc: 16, tn: 16 })
        }
        Phase::DnnPrediction => {
            let (inputs, outputs) = pick(tier, ((256, 16), (512, 32), (1024, 64)));
            Box::new(dnn::Tiled { shape: dnn::LayerShape { inputs, outputs }, t: 256 })
        }
        Phase::DnnPretraining => {
            let (inputs, outputs) = pick(tier, ((512, 8), (512, 24), (1024, 48)));
            Box::new(dnn::Tiled { shape: dnn::LayerShape { inputs, outputs }, t: 256 })
        }
        Phase::DnnGlobalTraining => {
            let (inputs, outputs) = pick(tier, ((256, 24), (768, 32), (1536, 48)));
            Box::new(dnn::Tiled { shape: dnn::LayerShape { inputs, outputs }, t: 256 })
        }
        Phase::LrTraining => {
            let (coefficients, instances) = pick(tier, ((256, 16), (512, 32), (1024, 64)));
            Box::new(linreg::Tiled {
                shape: linreg::LinRegShape { coefficients, instances },
                t: 256,
            })
        }
        Phase::LrPrediction => {
            let (coefficients, instances) = pick(tier, ((256, 8), (512, 16), (1024, 32)));
            Box::new(linreg::Tiled {
                shape: linreg::LinRegShape { coefficients, instances },
                t: 256,
            })
        }
        Phase::SvmTraining => {
            let train = pick(tier, (16, 32, 48));
            let shape = svm::KernelMatrixShape { train, features: 32 };
            Box::new(svm::Tiled { shape, ti: 16, tj: 16 })
        }
        Phase::SvmPrediction => {
            let (support, testing) = pick(tier, ((32, 16), (64, 16), (128, 32)));
            let shape = svm::prediction_shape(support, testing, 32);
            Box::new(knn::Tiled::bandwidth(shape, 16, 16))
        }
        Phase::NbTraining => {
            let instances = pick(tier, (16, 32, 64));
            let shape = nb::NbShape { instances, features: 8, values: 4, classes: 5 };
            Box::new(nb::Training { shape, seed: DATA_SEED })
        }
        Phase::NbPrediction => {
            let instances = pick(tier, (8, 16, 32));
            let shape = nb::NbShape { instances, features: 8, values: 4, classes: 5 };
            Box::new(nb::Training { shape, seed: DATA_SEED + 1 })
        }
        Phase::CtTraining => {
            let instances = pick(tier, (12, 24, 48));
            let shape = nb::NbShape { instances, features: 12, values: 3, classes: 4 };
            Box::new(nb::Training { shape, seed: DATA_SEED + 2 })
        }
        Phase::CtPrediction => {
            let instances = pick(tier, (16, 32, 64));
            let shape = ct::TreeShape { depth: 10, instances, features: 16 };
            Box::new(ct::PredictionTiled { shape, top_depth: 6, seed: DATA_SEED + 3 })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::technique_of;

    #[test]
    fn catalog_covers_every_phase_and_tier() {
        use pudiannao_memsim::Technique;
        let catalog = ServingCatalog::paper_default();
        for phase in Phase::ALL {
            // Two phases borrow another family's kernel (see module doc):
            // SVM prediction runs the kNN distance kernel, CT training the
            // NB counting kernel. Everything else matches its own family.
            let expected = match phase {
                Phase::SvmPrediction => Technique::Knn,
                Phase::CtTraining => Technique::Nb,
                _ => technique_of(phase),
            };
            for tier in SizeTier::ALL {
                let w = catalog.get(phase, tier);
                assert_eq!(
                    w.technique(),
                    expected,
                    "catalog entry for {phase:?}/{tier:?} configures the wrong kernel"
                );
            }
        }
    }

    #[test]
    fn tiers_grow_monotonically() {
        // A bigger tier must cost at least as many ops, or tiering is
        // meaningless for scheduling.
        let catalog = ServingCatalog::paper_default();
        let cfg = pudiannao_memsim::CacheConfig::paper_default();
        for phase in Phase::ALL {
            let mut prev = 0;
            for tier in SizeTier::ALL {
                let stats = pudiannao_memsim::kernels::run_fresh(catalog.get(phase, tier), &cfg);
                assert!(
                    stats.ops >= prev,
                    "{phase:?}: {tier:?} has {} ops, smaller tier had {prev}",
                    stats.ops
                );
                prev = stats.ops;
            }
        }
    }
}
