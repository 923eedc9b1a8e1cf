//! Hot-path benchmark harness: times every reproduction experiment and
//! the softfp conversion kernels with `std::time::Instant`, then writes
//! `BENCH_repro.json`.
//!
//! Experiments run sequentially here regardless of `REPRO_THREADS` (each
//! timing must not contend with the others), with their stdout chatter
//! left enabled — the timed quantity is the full experiment, exactly
//! what `repro_all` runs. Softfp kernels are timed over fixed sweeps and
//! reported in nanoseconds per conversion, and the memsim section times
//! the cache's two entry points — the scalar reference (`access_scalar`)
//! and the SoA block pass (`access_soa`) — on the same operand stream,
//! the batched replay of packed kernel templates, and the
//! engine-build-vs-reset cost that motivates the locality engine pool.
//! Cache-path rounds are scored best-of (the host is a shared single
//! core; the minimum round is the code's speed, the rest is neighbour
//! noise), and every row prints its
//! percentage change against the previous `BENCH_repro.json` when one is
//! present.

use pudiannao_accel::json::{self, Value};
use pudiannao_bench::{evaluation, locality, ExperimentReport};
use pudiannao_memsim::{
    kernels, Access, AccessBlock, Addr, Cache, CacheConfig, SimdEngine, VarClass, Workload,
};
use pudiannao_softfp::{batch, F16};
use std::hint::black_box;
use std::time::Instant;

type Job = (&'static str, fn() -> ExperimentReport);

const EXPERIMENTS: &[Job] = &[
    ("fig02", locality::fig02_knn_tiling as fn() -> ExperimentReport),
    ("fig04", locality::fig04_kmeans_tiling),
    ("fig05", locality::fig05_dnn_tiling),
    ("fig08", locality::fig08_lr_tiling),
    ("fig09", locality::fig09_svm_tiling),
    ("fig10", locality::fig10_reuse_distance),
    ("table1", evaluation::table1_precision),
    ("table3", evaluation::table3_codegen),
    ("table5", evaluation::table5_layout),
    ("fig14", evaluation::fig14_floorplan),
    ("fig13", evaluation::fig13_gpu_vs_cpu),
    ("fig15", evaluation::fig15_speedup),
    ("fig16", evaluation::fig16_energy),
    ("ablation-buffers", evaluation::ablation_buffers),
    ("ablation-sorter", evaluation::ablation_sorter),
    ("ablation-interp", evaluation::ablation_interp),
    ("ablation-scaling", evaluation::ablation_scaling),
    ("section2-time", evaluation::time_fractions),
];

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The previous `BENCH_repro.json`, if one exists and parses — the
/// baseline for the inline delta column.
fn previous_record() -> Option<Value> {
    let text = std::fs::read_to_string("BENCH_repro.json").ok()?;
    json::parse(&text).ok()
}

/// Looks up `metric` in the `section` row whose `key` field equals `name`
/// (experiments key rows by `id`, the kernel sections by `name`).
fn previous_metric(
    prev: Option<&Value>,
    section: &str,
    key: &str,
    name: &str,
    metric: &str,
) -> Option<f64> {
    prev?
        .get(section)?
        .as_array()?
        .iter()
        .find(|row| row.get(key).and_then(Value::as_str) == Some(name))?
        .get(metric)
        .and_then(Value::as_f64)
}

/// `" (+12.3% vs last)"`, or empty when the previous record has no such
/// row. The sign always reports the metric's own direction — positive is
/// faster for throughput rows and slower for time rows.
fn delta_column(prev: Option<f64>, current: f64) -> String {
    match prev {
        Some(p) if p != 0.0 => format!(" ({:+.1}% vs last)", (current - p) / p * 100.0),
        _ => String::new(),
    }
}

/// Best-of-N round time in seconds.
fn best_of<F: FnMut()>(rounds: u32, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Times the widening path: every binary16 bit pattern through the LUT.
fn bench_to_f32(rounds: u32) -> (f64, u64) {
    let t = Instant::now();
    let mut sink = 0.0f32;
    for _ in 0..rounds {
        for bits in 0..=u16::MAX {
            sink += F16::from_bits(bits).to_f32();
        }
    }
    black_box(sink);
    (t.elapsed().as_secs_f64() * 1e9, u64::from(rounds) * 65_536)
}

/// Times the narrowing path: a dense f32 sweep through the fast rounder.
fn bench_from_f32(rounds: u32) -> (f64, u64) {
    let inputs: Vec<f32> = (0..1u32 << 16).map(|i| (i as f32 - 32768.0) * 0.3717).collect();
    let t = Instant::now();
    let mut sink = 0u32;
    for _ in 0..rounds {
        for &x in &inputs {
            sink = sink.wrapping_add(u32::from(F16::from_f32(x).to_bits()));
        }
    }
    black_box(sink);
    (t.elapsed().as_secs_f64() * 1e9, u64::from(rounds) * u64::from(1u32 << 16))
}

/// Times the fused batch round-trip used by the accelerator buffers.
fn bench_batch_quantize(rounds: u32) -> (f64, u64) {
    let src: Vec<f32> = (0..1u32 << 16).map(|i| (i as f32 - 32768.0) * 0.011).collect();
    let mut dst = vec![0.0f32; src.len()];
    let t = Instant::now();
    for _ in 0..rounds {
        batch::quantize_f32_into(&src, &mut dst);
        black_box(&dst);
    }
    (t.elapsed().as_secs_f64() * 1e9, u64::from(rounds) * src.len() as u64)
}

/// A k-NN-shaped operand stream (two 32-byte streaming reads plus the
/// accumulator write, 4 chunks per pair) — the same access pattern the
/// locality figures hammer the cache with.
fn knn_style_ops() -> Vec<[Access; 3]> {
    let mut ops = Vec::with_capacity(64 * 512 * 4);
    for i in 0..64u64 {
        for j in 0..512u64 {
            for c in 0..4u64 {
                ops.push([
                    Access::read(Addr(i * 128 + c * 32), 32, VarClass::Hot),
                    Access::read(Addr(0x0100_0000 + j * 128 + c * 32), 32, VarClass::Cold),
                    Access::write(Addr(0x0200_0000 + (i * 512 + j) * 4), 4, VarClass::Output),
                ]);
            }
        }
    }
    ops
}

/// Times the scalar reference path ([`Cache::access_scalar`]) and the
/// monomorphised SoA pass ([`Cache::access_soa`]) over the same operand
/// stream, the latter pre-packed into an [`AccessBlock`] — the replay
/// shape the serving trace-template cache hits. Returns
/// `(scalar_ns, soa_ns, accesses)`, each the best single pass.
fn bench_cache_paths(rounds: u32) -> (f64, f64, u64) {
    let ops = knn_style_ops();
    let cfg = CacheConfig::paper_default();
    let mut block = AccessBlock::new(cfg.line_bytes);
    for op in &ops {
        block.push_op(op);
    }
    let accesses = block.len() as u64;
    let mut cache = Cache::new(cfg).expect("valid cache config");

    let scalar_ns = best_of(rounds, || {
        cache.reset();
        for op in &ops {
            for a in op {
                cache.access_scalar(*a);
            }
        }
    }) * 1e9;
    black_box(cache.stats());

    let soa_ns = best_of(rounds, || {
        cache.reset();
        cache.access_soa(&block);
    }) * 1e9;
    black_box(cache.stats());

    (scalar_ns, soa_ns, accesses)
}

/// Times the batched executor's steady state: three independent tiled
/// kernel traces packed once into SoA [`AccessBlock`] templates (the
/// serving fleet's trace-template cache does exactly this on first use),
/// then each round replays every template through a fresh engine via
/// [`SimdEngine::commit_block`]. Generation + pack cost is paid once
/// outside the timed region — re-generating identical traces per round
/// is the waste this pipeline exists to eliminate, and the fresh-path
/// cost stays visible in the fig02–fig09 experiment rows above. Returns
/// `(ns, ops)` for the best round.
fn bench_batch_traces(rounds: u32) -> (f64, u64) {
    struct Pack<'a> {
        block: &'a mut AccessBlock,
    }
    impl kernels::TraceSink for Pack<'_> {
        fn op(&mut self, operands: &[Access]) {
            self.block.push_op(operands);
        }
    }

    let cfg = CacheConfig::paper_default();
    let knn_shape = kernels::knn::DistanceShape { testing: 64, reference: 512, features: 32 };
    let svm_shape = kernels::svm::KernelMatrixShape { train: 256, features: 32 };
    let knn = kernels::knn::Tiled::bandwidth(knn_shape, 32, 32);
    let svm = kernels::svm::Tiled { shape: svm_shape, ti: 32, tj: 32 };
    let dnn = kernels::dnn::Tiled {
        shape: kernels::dnn::LayerShape { inputs: 4096, outputs: 64 },
        t: 1024,
    };
    let workloads: Vec<&dyn Workload> = vec![&knn, &svm, &dnn];
    let templates: Vec<AccessBlock> = workloads
        .iter()
        .map(|w| {
            let mut block = AccessBlock::new(cfg.line_bytes);
            w.trace(&mut Pack { block: &mut block });
            block
        })
        .collect();
    let mut total_ops = 0u64;
    let ns = best_of(rounds, || {
        let mut ops = 0u64;
        for template in &templates {
            let mut engine = SimdEngine::new(cfg.clone()).expect("valid cache config");
            engine.commit_block(template);
            ops += engine.report().ops;
            black_box(engine.report());
        }
        total_ops = ops;
    }) * 1e9;
    (ns, total_ops)
}

/// Times building a fresh [`SimdEngine`] vs resetting a pooled one;
/// returns `(build_ns_per_iter, reset_ns_per_iter)`.
fn bench_engine_reuse(iters: u32) -> (f64, f64) {
    let cfg = CacheConfig::paper_default();
    let t = Instant::now();
    for _ in 0..iters {
        black_box(SimdEngine::new(cfg.clone()).expect("valid cache config"));
    }
    let build_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(iters);

    let mut engine = SimdEngine::new(cfg).expect("valid cache config");
    let warm = [Access::read(Addr(0), 32, VarClass::Hot)];
    let t = Instant::now();
    for _ in 0..iters {
        engine.op(&warm);
        engine.reset();
    }
    let reset_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(iters);
    black_box(engine.report());
    (build_ns, reset_ns)
}

fn main() {
    let total = Instant::now();
    let prev = previous_record();
    let prev = prev.as_ref();
    let mut experiment_rows = Vec::new();
    for &(id, job) in EXPERIMENTS {
        let t = Instant::now();
        let report = job();
        let ms = ms_since(t);
        let delta = delta_column(previous_metric(prev, "experiments", "id", id, "ms"), ms);
        println!("[bench] {id:<18} {ms:>10.1} ms   ({} checks){delta}", report.checks.len());
        experiment_rows
            .push(Value::object().with("id", id).with("ms", (ms * 1000.0).round() / 1000.0));
    }

    let mut softfp_rows = Vec::new();
    for (name, (ns, ops)) in [
        ("to_f32_lut", bench_to_f32(200)),
        ("from_f32_fast", bench_from_f32(200)),
        ("batch_quantize", bench_batch_quantize(200)),
    ] {
        let per_op = ns / ops as f64;
        let delta =
            delta_column(previous_metric(prev, "softfp", "name", name, "ns_per_op"), per_op);
        println!("[bench] softfp/{name:<20} {per_op:>8.3} ns/conversion{delta}");
        softfp_rows.push(
            Value::object()
                .with("name", name)
                .with("ns_per_op", (per_op * 1000.0).round() / 1000.0),
        );
    }

    let mut memsim_rows = Vec::new();
    let (scalar_ns, soa_ns, accesses) = bench_cache_paths(60);
    for (name, ns) in [("cache_scalar", scalar_ns), ("batch_soa", soa_ns)] {
        let maccesses_per_s = accesses as f64 / ns * 1e3;
        let delta = delta_column(
            previous_metric(prev, "memsim", "name", name, "maccesses_per_s"),
            maccesses_per_s,
        );
        println!("[bench] memsim/{name:<20} {maccesses_per_s:>8.1} Maccesses/s{delta}");
        memsim_rows.push(
            Value::object()
                .with("name", name)
                .with("maccesses_per_s", (maccesses_per_s * 1000.0).round() / 1000.0),
        );
    }
    let (batch_ns, batch_ops) = bench_batch_traces(8);
    let mops_per_s = batch_ops as f64 / batch_ns * 1e3;
    let delta = delta_column(
        previous_metric(prev, "memsim", "name", "batch_traces", "mops_per_s"),
        mops_per_s,
    );
    println!("[bench] memsim/{:<20} {mops_per_s:>8.1} Mops/s{delta}", "batch_traces");
    memsim_rows.push(
        Value::object()
            .with("name", "batch_traces")
            .with("mops_per_s", (mops_per_s * 1000.0).round() / 1000.0),
    );
    let (build_ns, reset_ns) = bench_engine_reuse(20_000);
    for (name, ns) in [("engine_build", build_ns), ("engine_reset", reset_ns)] {
        let delta = delta_column(previous_metric(prev, "memsim", "name", name, "ns_per_iter"), ns);
        println!("[bench] memsim/{name:<20} {ns:>8.1} ns/iter{delta}");
        memsim_rows.push(
            Value::object().with("name", name).with("ns_per_iter", (ns * 1000.0).round() / 1000.0),
        );
    }

    let total_ms = ms_since(total);
    let json = Value::object()
        .with("experiments", Value::array(experiment_rows))
        .with("softfp", Value::array(softfp_rows))
        .with("memsim", Value::array(memsim_rows))
        .with("total_ms", (total_ms * 1000.0).round() / 1000.0);
    std::fs::write("BENCH_repro.json", json.to_string_pretty())
        .expect("writable working directory");
    println!("[bench] total {total_ms:.1} ms; wrote BENCH_repro.json");
}
