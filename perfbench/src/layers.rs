//! Per-layer probes for the traced run. Each layer is timed from outside,
//! through its public functions, on the layer's own inputs: the workload's
//! stream and fleet report where it has them, otherwise an 8k-request
//! stream drawn from the same seed. Every probe call sits inside a span.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use pudiannao_accel::json;
use pudiannao_accel::profile::validate_timeline;
use pudiannao_accel::{Accelerator, ArchConfig, TraceConfig};
use pudiannao_bench::evaluation;
use pudiannao_codegen::phases::{self, model_phase, program_stats, Phase};
use pudiannao_memsim::kernels::{self, TraceSink};
use pudiannao_memsim::{
    batch, Access, AccessBlock, Addr, Cache, CacheConfig, SimdEngine, VarClass,
};
use pudiannao_serve::sweep::{chaos_fleet, CHAOS_SEED};
use pudiannao_serve::{
    fleet_timeline, generate, pool, run_fleet, serve_observed, serve_resilient, slot_index,
    AdmissionConfig, AdmissionQueue, ChaosConfig, Defense, FleetConfig, GeneratorConfig,
    ObserveConfig, Request, RequestKind, ServeReport, ServingCatalog, SizeTier, TraceCache,
    TRACE_CACHE_BYTES,
};
use pudiannao_softfp::{batch as fp_batch, F16};

use crate::trace::Tracer;
use crate::workloads::{accel_cases, baseline_estimates, gate_stream, Checks};

/// Rounds per timed probe; each probe reports the median round.
const ROUNDS: usize = 3;

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median seconds of one call of `f` over [`ROUNDS`] rounds.
fn time_median(mut f: impl FnMut()) -> f64 {
    median(
        (0..ROUNDS)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// Median seconds per call of `f`, over rounds of `iters` calls.
fn per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    time_median(|| {
        for _ in 0..iters {
            f();
        }
    }) / f64::from(iters)
}

struct Pack<'a>(&'a mut AccessBlock);

impl TraceSink for Pack<'_> {
    fn op(&mut self, operands: &[Access]) {
        self.0.push_op(operands);
    }
}

/// Every `(phase, tier)` slot of the catalog, in slot order.
fn slots() -> Vec<(Phase, SizeTier)> {
    let mut all: Vec<(Phase, SizeTier)> =
        Phase::ALL.iter().flat_map(|&p| SizeTier::ALL.iter().map(move |&t| (p, t))).collect();
    all.sort_by_key(|&(p, t)| slot_index(p, t));
    all
}

/// Probes every layer; returns each per-layer metric (except the
/// `bench.*` ones, which the caller measures) by name.
pub fn probe(
    tracer: &Tracer,
    workload: &str,
    seed: u64,
    fleet_report: Option<&ServeReport>,
    checks: &mut Checks,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let stream =
        if workload == "serve-heavy" { GeneratorConfig::heavy(seed) } else { gate_stream(seed) };
    let shards = if workload == "serve-chaos" {
        chaos_fleet().shards
    } else {
        FleetConfig::paper_default().shards
    };

    // serve::gen
    let mut requests: Vec<Request> = Vec::new();
    let gen_s = tracer.span("gen::generate", || time_median(|| requests = generate(&stream)));
    m.insert("serve.gen.generate_ms", gen_s * 1e3);

    // serve::fleet, plus the catalog and admission counters it reports
    let catalog = ServingCatalog::paper_default();
    let own;
    let report = if let Some(r) = fleet_report {
        r
    } else {
        own = tracer.span("fleet::run_fleet", || {
            run_fleet(
                &FleetConfig::paper_default(),
                &CacheConfig::paper_default(),
                &catalog,
                &requests,
            )
        });
        &own
    };
    let batches: u64 = report.shards.iter().map(|s| s.batches).sum();
    let served: u64 = report.shards.iter().map(|s| s.requests).sum();
    m.insert("serve.fleet.batches", batches as f64);
    m.insert("serve.fleet.requests_per_batch", served as f64 / batches.max(1) as f64);
    m.insert(
        "serve.fleet.reconfigs",
        report.shards.iter().map(|s| s.reconfigs).sum::<u64>() as f64,
    );
    let tc = report.trace_cache.unwrap_or_default();
    m.insert("serve.catalog.hit_ratio", tc.hits as f64 / (tc.hits + tc.misses).max(1) as f64);
    m.insert("serve.catalog.resident_kb", tc.resident_bytes as f64 / 1024.0);
    m.insert(
        "serve.admission.shed_ratio",
        report.counters.shed as f64 / report.counters.offered.max(1) as f64,
    );

    // serve::pool
    let us = tracer.span("pool::worker_count", || {
        per_call(2_000, || {
            black_box(pool::worker_count(shards));
        })
    });
    m.insert("serve.pool.worker_count_us", us * 1e6);
    let us = tracer.span("pool::run_indexed empty wave", || {
        per_call(200, || {
            let wave: Vec<_> = (0..shards).map(|i| move || black_box(i)).collect();
            black_box(pool::run_indexed(wave));
        })
    });
    m.insert("serve.pool.fork_join_us", us * 1e6);

    // serve::catalog — record on an Empty slot, replay on a Ready one,
    // weighted by how often the stream asks for each slot.
    let slots = slots();
    let mut mix = vec![0u64; slots.len()];
    for r in &requests {
        if let RequestKind::Phase(p) = r.kind {
            mix[slot_index(p, r.tier)] += 1;
        }
    }
    let cfg = CacheConfig::paper_default();
    let (record_us, replay_us) = tracer.span("catalog::TraceCache::execute", || {
        let mut engine = SimdEngine::new(cfg.clone()).expect("valid cache config");
        let mut scratch = AccessBlock::new(cfg.line_bytes);
        let mut record = vec![Vec::new(); mix.len()];
        let mut replay = vec![0.0; mix.len()];
        for _ in 0..ROUNDS {
            let mut cache = TraceCache::new(TRACE_CACHE_BYTES);
            for (slot, &(phase, tier)) in slots.iter().enumerate() {
                if mix[slot] == 0 {
                    continue;
                }
                engine.reset();
                let t = Instant::now();
                cache.execute(&catalog, phase, tier, &mut engine, &mut scratch);
                record[slot].push(t.elapsed().as_secs_f64());
            }
        }
        let mut cache = TraceCache::new(TRACE_CACHE_BYTES);
        for (slot, &(phase, tier)) in slots.iter().enumerate() {
            if mix[slot] == 0 {
                continue;
            }
            cache.execute(&catalog, phase, tier, &mut engine, &mut scratch);
            replay[slot] = per_call(8, || {
                engine.reset();
                cache.execute(&catalog, phase, tier, &mut engine, &mut scratch);
            });
        }
        let total = mix.iter().sum::<u64>().max(1) as f64;
        let weigh = |t: &dyn Fn(usize) -> f64| {
            (0..mix.len()).map(|s| mix[s] as f64 * t(s)).sum::<f64>() / total * 1e6
        };
        (weigh(&|s| median(record[s].clone())), weigh(&|s| replay[s]))
    });
    m.insert("serve.catalog.record_us", record_us);
    m.insert("serve.catalog.replay_us", replay_us);

    // serve::admission — the stream replayed through a standalone queue,
    // drained one batch whenever four batches are waiting.
    let admission = AdmissionConfig::paper_default();
    let max_batch = FleetConfig::paper_default().max_batch;
    let s = tracer.span("admission::AdmissionQueue::offer", || {
        time_median(|| {
            let mut queue = AdmissionQueue::new(admission);
            for r in &requests {
                queue.offer(*r);
                if queue.queued() >= 4 * max_batch {
                    black_box(queue.pick_batch(max_batch));
                }
            }
            while black_box(queue.pick_batch(max_batch)).is_some() {}
        })
    });
    m.insert("serve.admission.offer_ns", s / requests.len().max(1) as f64 * 1e9);
    drop(requests);

    chaos_and_trace(tracer, seed, workload, fleet_report, checks, &mut m);
    memsim(tracer, &catalog, &mut m);
    softfp(tracer, &mut m);

    // mlkit / datasets, codegen, baseline
    let s = tracer.span("evaluation::table1_precision", || time_once(evaluation::table1_precision));
    m.insert("mlkit.table1_ms", s * 1e3);
    let arch = ArchConfig::paper_default();
    let paper = phases::Workload::paper();
    let s = tracer.span("codegen::model_phase", || {
        time_median(|| {
            for phase in Phase::ALL {
                black_box(model_phase(&arch, phase, &paper).expect("phases model at paper scale"));
            }
        })
    });
    m.insert("codegen.model_phase_us", s / Phase::ALL.len() as f64 * 1e6);
    let mut cases = Vec::new();
    let s = tracer
        .span("codegen::generate", || time_median(|| cases = accel_cases(seed, &Tracer::new())));
    m.insert("codegen.generate_ms", s * 1e3);
    let s = tracer.span("codegen::program_stats", || {
        time_median(|| {
            for case in &cases {
                black_box(program_stats(&arch, &case.program));
            }
        })
    });
    m.insert("codegen.program_stats_us", s / cases.len() as f64 * 1e6);
    // Figure 13's GPU-vs-CPU comparison without its cached table: the
    // baseline models of the 13 paper-scale phases.
    let s = tracer.span("baseline::estimate", || {
        per_call(1_000, || {
            for phase in Phase::ALL {
                black_box(baseline_estimates(phase, &paper));
            }
        })
    });
    m.insert("baseline.fig13_ms", s * 1e3);

    // accel
    let mut plain = Accelerator::new(arch.clone()).expect("paper config is valid");
    let mut traced = Accelerator::builder(arch)
        .trace(TraceConfig::full())
        .build()
        .expect("paper config is valid");
    let (mut instructions, mut cycles) = (0u64, 0u64);
    for case in &mut cases {
        let mut untraced_out = None;
        let s = tracer.span("accel::Accelerator::run", || {
            time_median(|| untraced_out = Some(case.run(&mut plain)))
        });
        let (stats, out) = untraced_out.expect("ran");
        instructions += stats.instructions;
        cycles += stats.cycles;
        let name = match case.name {
            "kmeans" => "accel.kmeans.run_ms",
            "nb_predict" => "accel.nb_predict.run_ms",
            _ => "accel.tree_walk.run_ms",
        };
        m.insert(name, s * 1e3);
        if case.name == "kmeans" {
            let mut traced_out = None;
            let t = tracer.span("accel::Accelerator::run traced", || {
                time_median(|| traced_out = Some(case.run(&mut traced)))
            });
            m.insert("accel.trace_overhead_ratio", t / s - 1.0);
            checks.check(traced_out == Some((stats, out)), || {
                "kmeans: traced run differs from untraced".to_owned()
            });
        }
    }
    m.insert("accel.instructions", instructions as f64);
    m.insert("accel.sim_cycles", cycles as f64);

    // accel::json — a ServeReport and the phase reports round-tripped
    let phase_reports = evaluation::phase_reports_json();
    let mut texts = (String::new(), String::new());
    let s = tracer.span("json::to_string_pretty", || {
        time_median(|| {
            texts = (report.to_json().to_string_pretty(), phase_reports.to_string_pretty())
        })
    });
    m.insert("accel.json.serialise_ms", s * 1e3);
    let mut parsed = None;
    let s = tracer.span("json::parse", || {
        time_median(|| parsed = Some((json::parse(&texts.0), json::parse(&texts.1))))
    });
    m.insert("accel.json.parse_ms", s * 1e3);
    let round_trips = matches!(&parsed, Some((Ok(a), Ok(b)))
        if a.to_string_pretty() == texts.0 && b.to_string_pretty() == texts.1);
    checks.check(round_trips, || "JSON round trip changed a report".to_owned());
    m
}

fn time_once<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// serve::chaos and serve::trace / serve::metrics, on the mid-intensity,
/// full-defence cell of the 8k stream.
fn chaos_and_trace(
    tracer: &Tracer,
    seed: u64,
    workload: &str,
    fleet_report: Option<&ServeReport>,
    checks: &mut Checks,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let gen = gate_stream(seed);
    let p99 = match fleet_report {
        Some(r) if workload == "serve-chaos" => r.p99_ns,
        _ => tracer.span("fleet::serve", || pudiannao_serve::serve(&chaos_fleet(), &gen)).p99_ns,
    };
    let chaos = ChaosConfig::intensity(CHAOS_SEED, 1);
    let defense = Defense::full(p99);
    let mut plain = None;
    let cell = tracer.span("fleet::serve_resilient", || {
        time_median(|| plain = Some(serve_resilient(&chaos_fleet(), &gen, &chaos, &defense)))
    });
    m.insert("serve.chaos.cell_ms", cell * 1e3);
    let plain = plain.expect("ran");
    let res = plain.resilience.as_ref().expect("chaos cells are resilient runs");
    let admitted = plain.counters.admitted.max(1) as f64;
    m.insert(
        "serve.chaos.legs_per_request",
        (plain.counters.admitted + res.retries_scheduled + res.hedges_launched) as f64 / admitted,
    );
    let mut observed = None;
    let obs = tracer.span("fleet::serve_observed", || {
        time_median(|| {
            observed = Some(serve_observed(
                &chaos_fleet(),
                &gen,
                &chaos,
                &defense,
                &ObserveConfig::full(gen.requests),
            ));
        })
    });
    m.insert("serve.trace.overhead_ratio", obs / cell - 1.0);
    let observed = observed.expect("ran");
    let mut valid = false;
    let s = tracer.span("trace::fleet_timeline", || {
        time_median(|| {
            let doc = fleet_timeline(&observed);
            valid = doc.as_ref().is_some_and(|d| validate_timeline(d).is_ok());
            black_box(doc.map(|d| d.to_string()));
        })
    });
    m.insert("serve.trace.timeline_ms", s * 1e3);
    checks.check(valid, || "observed cell's fleet timeline does not validate".to_owned());
}

/// memsim: the SoA pass over the catalog's packed templates, fig02's
/// tiled kernel through `run_buffered`, and the engine reset.
fn memsim(tracer: &Tracer, catalog: &ServingCatalog, m: &mut BTreeMap<&'static str, f64>) {
    let cfg = CacheConfig::paper_default();
    let blocks: Vec<AccessBlock> = slots()
        .iter()
        .map(|&(phase, tier)| {
            let mut block = AccessBlock::new(cfg.line_bytes);
            catalog.get(phase, tier).trace(&mut Pack(&mut block));
            block
        })
        .collect();
    let entries: usize = blocks.iter().map(AccessBlock::len).sum();
    let mut cache = Cache::new(cfg.clone()).expect("valid cache config");
    let s = tracer.span("cache::Cache::access_soa", || {
        time_median(|| {
            cache.reset();
            for b in &blocks {
                cache.access_soa(b);
            }
        })
    });
    m.insert("memsim.soa_maccesses_per_s", entries as f64 / s / 1e6);
    let st = cache.stats();
    let hits = st.read_hits + st.write_hits;
    m.insert(
        "memsim.hit_ratio",
        hits as f64 / (hits + st.read_misses + st.write_misses).max(1) as f64,
    );

    let shape = kernels::knn::DistanceShape { testing: 512, reference: 2048, features: 32 };
    let tiled = kernels::knn::Tiled::bandwidth(shape, 32, 32);
    let mut engine = SimdEngine::new(cfg.clone()).expect("valid cache config");
    let mut block = AccessBlock::with_capacity(cfg.line_bytes, batch::FLUSH_ACCESSES + 32);
    let mut ops = 0;
    let s = tracer.span("batch::run_buffered", || {
        time_median(|| ops = batch::run_buffered(&tiled, &mut engine, &mut block).ops)
    });
    m.insert("memsim.run_buffered_mops_per_s", ops as f64 / s / 1e6);

    let warm = [Access::read(Addr(0), 32, VarClass::Hot)];
    let s = tracer.span("engine::SimdEngine::reset", || {
        per_call(20_000, || {
            engine.op(&warm);
            engine.reset();
        })
    });
    m.insert("memsim.engine_reset_ns", s * 1e9);
}

/// softfp: binary16 widening, narrowing, and the fused buffer quantise.
fn softfp(tracer: &Tracer, m: &mut BTreeMap<&'static str, f64>) {
    const SWEEP: f64 = 65_536.0;
    const SWEEPS: u32 = 40;
    let s = tracer.span("F16::to_f32", || {
        per_call(SWEEPS, || {
            let mut sink = 0.0f32;
            for bits in 0..=u16::MAX {
                sink += F16::from_bits(black_box(bits)).to_f32();
            }
            black_box(sink);
        })
    });
    m.insert("softfp.to_f32_ns", s / SWEEP * 1e9);
    let inputs: Vec<f32> = (0..1u32 << 16).map(|i| (i as f32 - 32768.0) * 0.3717).collect();
    let s = tracer.span("F16::from_f32", || {
        per_call(SWEEPS, || {
            let mut sink = 0u32;
            for &x in &inputs {
                sink = sink.wrapping_add(u32::from(F16::from_f32(black_box(x)).to_bits()));
            }
            black_box(sink);
        })
    });
    m.insert("softfp.from_f32_ns", s / SWEEP * 1e9);
    let mut dst = vec![0.0f32; inputs.len()];
    let s = tracer.span("batch::quantize_f32_into", || {
        per_call(SWEEPS, || {
            fp_batch::quantize_f32_into(black_box(&inputs), &mut dst);
            black_box(&dst);
        })
    });
    m.insert("softfp.quantize_ns", s / SWEEP * 1e9);
}
