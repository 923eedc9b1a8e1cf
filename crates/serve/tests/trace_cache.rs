//! Trace-template-cache equivalence: a leg served by replaying a
//! recorded [`AccessBlock`] must leave the engine bit-identical — report,
//! cache stats, line states — to generating the trace fresh through a
//! [`BatchSink`], for every `(phase, tier)` in the catalog and for every
//! slot state (recording, replay, over-budget).

use pudiannao_codegen::phases::Phase;
use pudiannao_memsim::{batch, AccessBlock, BatchSink, CacheConfig, SimdEngine};
use pudiannao_serve::{ServingCatalog, SizeTier, TraceCache, TRACE_CACHE_BYTES};

fn engine() -> SimdEngine {
    SimdEngine::new(CacheConfig::paper_default()).expect("paper config is valid")
}

fn scratch() -> AccessBlock {
    AccessBlock::with_capacity(CacheConfig::paper_default().line_bytes, batch::FLUSH_ACCESSES + 32)
}

fn fresh_leg(catalog: &ServingCatalog, phase: Phase, tier: SizeTier, engine: &mut SimdEngine) {
    let mut block = scratch();
    let mut sink = BatchSink::new(engine, &mut block);
    catalog.get(phase, tier).trace(&mut sink);
    sink.finish();
}

fn states(engine: &SimdEngine) -> Vec<(u32, u32, u64, bool, bool, u64)> {
    engine
        .cache()
        .line_states()
        .into_iter()
        .map(|l| (l.set, l.way, if l.valid { l.tag } else { 0 }, l.valid, l.dirty, l.stamp))
        .collect()
}

fn assert_engines_equal(cached: &SimdEngine, fresh: &SimdEngine, what: &str) {
    assert_eq!(cached.report(), fresh.report(), "{what}: bandwidth report");
    assert_eq!(cached.cache_stats(), fresh.cache_stats(), "{what}: cache stats");
    assert_eq!(states(cached), states(fresh), "{what}: line states");
}

/// Every `(phase, tier)` leg, run twice — once recording, once replaying
/// — matches two fresh generations of the same trace. Small tiers cover
/// all 39 slots; the Large tier of each phase is the biggest template,
/// so it exercises the recording path hardest.
#[test]
fn cached_replay_matches_fresh_generation() {
    let catalog = ServingCatalog::paper_default();
    for phase in Phase::ALL {
        for tier in [SizeTier::Small, SizeTier::Large] {
            let mut cache = TraceCache::new(TRACE_CACHE_BYTES);
            let mut buf = scratch();
            let mut cached = engine();
            let mut fresh = engine();
            // First leg: the cache records while committing.
            cache.execute(&catalog, phase, tier, &mut cached, &mut buf);
            fresh_leg(&catalog, phase, tier, &mut fresh);
            assert_engines_equal(&cached, &fresh, &format!("{phase:?}/{tier:?} recording leg"));
            // Second leg: the cache replays the recorded block.
            cache.execute(&catalog, phase, tier, &mut cached, &mut buf);
            fresh_leg(&catalog, phase, tier, &mut fresh);
            assert_engines_equal(&cached, &fresh, &format!("{phase:?}/{tier:?} replay leg"));
            let stats = cache.stats();
            assert_eq!((stats.hits, stats.misses), (1, 1), "{phase:?}/{tier:?} counters");
            assert_eq!((stats.ready_slots, stats.too_big_slots), (1, 0));
        }
    }
}

/// A zero-budget cache can never go Ready: every leg generates fresh
/// (first use via the recording commit, afterwards via the chunked
/// `TooBig` path) and still matches plain `BatchSink` generation.
#[test]
fn over_budget_slots_still_match_fresh_generation() {
    let catalog = ServingCatalog::paper_default();
    let phase = Phase::KnnPrediction;
    let mut cache = TraceCache::new(0);
    let mut buf = scratch();
    let mut cached = engine();
    let mut fresh = engine();
    for round in 0..3 {
        cache.execute(&catalog, phase, SizeTier::Medium, &mut cached, &mut buf);
        fresh_leg(&catalog, phase, SizeTier::Medium, &mut fresh);
        assert_engines_equal(&cached, &fresh, &format!("zero-budget round {round}"));
    }
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (0, 3));
    assert_eq!((stats.ready_slots, stats.too_big_slots, stats.resident_bytes), (0, 1, 0));
}
