//! Differential test of the service-cost table against the path it
//! replaced. The reference replays every leg's memsim trace through a
//! `SimdEngine` that is reset once per batch, and reads each leg's
//! completion off the engine's cumulative cycle counter. The fleet, which
//! only adds up table rows, must give every leg the same completion time
//! and every shard the same op count.

use std::collections::BTreeMap;

use pudiannao_codegen::phases::Phase;
use pudiannao_memsim::kernels::run_fresh;
use pudiannao_memsim::{CacheConfig, SimdEngine};
use pudiannao_serve::{
    generate, run_fleet_observed, slot_count, slot_index, ChaosConfig, Defense, FleetConfig,
    GeneratorConfig, LegOutcome, ObserveConfig, Request, RequestKind, ServingCatalog, ShardChaos,
    SizeTier, SpanEvent, TraceConfig,
};

/// Every row is one cold run of its slot, and a slot's cycles do not
/// depend on how warm the cache is: the property the table rests on.
#[test]
fn every_row_matches_a_cold_run() {
    let catalog = ServingCatalog::paper_default();
    let cache = CacheConfig::paper_default();
    let costs = catalog.service_costs(&cache);
    assert_eq!(costs.len(), slot_count());
    for phase in Phase::ALL {
        for tier in SizeTier::ALL {
            let workload = catalog.get(phase, tier);
            let stats = run_fresh(workload, &cache);
            let row = costs[slot_index(phase, tier)];
            assert_eq!(
                (row.service_ns, row.ops, row.offchip_bytes),
                (stats.cycles, stats.ops, stats.offchip_bytes),
                "{phase:?}/{tier:?}"
            );
            let mut warm = SimdEngine::new(cache.clone()).expect("paper config is valid");
            workload.trace(&mut warm);
            workload.trace(&mut warm);
            assert_eq!(warm.report().cycles, 2 * row.service_ns, "{phase:?}/{tier:?} warm rerun");
        }
    }
}

/// Runs `requests` through a traced fleet and replays the recorded
/// batches through the reference engine.
fn check_against_replay(config: &FleetConfig, gen: &GeneratorConfig, chaos: &ChaosConfig) {
    let catalog = ServingCatalog::paper_default();
    let cache = CacheConfig::paper_default();
    let requests = generate(gen);
    let observe =
        ObserveConfig { trace: Some(TraceConfig::sized_for(gen.requests)), metrics: None };
    let defense = if chaos.is_off() { Defense::off() } else { Defense::full(140_000) };
    let report = run_fleet_observed(config, &cache, &catalog, &requests, chaos, &defense, &observe);
    let trace = report.trace.as_ref().expect("trace was on");
    assert_eq!(trace.events_dropped, 0, "the reference needs every batch");
    let slowdown: Vec<u64> = match &report.resilience {
        Some(res) => res.shards.iter().map(|s| s.slowdown_permille).collect(),
        None => vec![1000; config.shards],
    };
    let scale = |ns: u64, shard: usize| {
        u64::try_from(u128::from(ns) * u128::from(slowdown[shard]) / 1000).expect("fits")
    };
    let by_id: BTreeMap<u64, &Request> = requests.iter().map(|r| (r.id, r)).collect();

    let mut engine = SimdEngine::new(cache.clone()).expect("paper config is valid");
    let mut ops = vec![0u64; config.shards];
    let mut batch: Option<(usize, u64)> = None;
    let mut clean_latencies = Vec::new();
    let mut legs_checked = 0;
    for event in trace.events_iter() {
        match *event {
            SpanEvent::Batch { shard, exec_start_ns, .. } => {
                if let Some((prev, _)) = batch {
                    ops[prev] += engine.report().ops;
                }
                engine.reset();
                batch = Some((shard, exec_start_ns));
            }
            SpanEvent::Leg { id, attempt, hedge, shard, end_ns, outcome, .. } => {
                let (batch_shard, exec_start_ns) = batch.expect("a leg follows its batch");
                assert_eq!(shard, batch_shard);
                let request = by_id[&id];
                let RequestKind::Phase(phase) = request.kind else {
                    panic!("request {id} was dispatched without a phase");
                };
                catalog.get(phase, request.tier).trace(&mut engine);
                if outcome == LegOutcome::Crashed {
                    continue; // ends at the crash instant, not on the engine clock
                }
                let done_ns = exec_start_ns + scale(engine.report().cycles, shard);
                assert_eq!(end_ns, done_ns, "request {id} attempt {attempt} hedge {hedge}");
                legs_checked += 1;
                if report.resilience.is_none() {
                    clean_latencies.push(done_ns - request.arrival_ns);
                }
            }
            _ => {}
        }
    }
    if let Some((prev, _)) = batch {
        ops[prev] += engine.report().ops;
    }
    assert!(legs_checked > 0);
    let fleet_ops: Vec<u64> = report.shards.iter().map(|s| s.ops).collect();
    assert_eq!(fleet_ops, ops, "per-shard ops");
    if report.resilience.is_none() {
        clean_latencies.sort_unstable();
        assert_eq!(clean_latencies, report.latencies_sorted_ns, "per-request latencies");
    }
}

#[test]
fn fault_free_fleet_matches_trace_replay() {
    let gen = GeneratorConfig { requests: 800, ..GeneratorConfig::smoke(19) };
    check_against_replay(&FleetConfig::with_shards(2), &gen, &ChaosConfig::off());
    check_against_replay(&FleetConfig::with_shards(4), &gen, &ChaosConfig::off());
}

/// Under chaos, stragglers scale service time and crashes cut batches
/// short; every leg that ran to its end must still match the replay.
#[test]
fn chaos_fleet_matches_trace_replay() {
    let gen = GeneratorConfig { requests: 800, ..GeneratorConfig::smoke(23) };
    let chaos = ChaosConfig::intensity(11, 2);
    let config = FleetConfig::paper_default();
    let slow = (0..config.shards).filter(|&i| ShardChaos::new(&chaos, i).slowdown_permille > 1000);
    assert!(slow.count() > 0, "the plan must slow at least one shard");
    check_against_replay(&config, &gen, &chaos);
}
