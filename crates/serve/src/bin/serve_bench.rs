//! Serving-fleet benchmark: drives an open-loop request stream through a
//! pool of simulated PuDianNao devices and writes `serve_report.json`.
//!
//! ```text
//! serve_bench [--smoke] [--out PATH] [--trace] [--trace-out PATH]
//! ```
//!
//! Default mode runs the heavy 100k-request stream on a 4-shard fleet
//! plus the 1/2/4/8-shard scaling sweep; `--smoke` runs the scaled-down
//! CI stream (4k requests, 2 shards, no sweep). Lines tagged `[serve]`
//! are pinned by `scripts/check.sh --serve`; the JSON file is compared
//! byte-for-byte across `REPRO_THREADS` settings.
//!
//! `--trace` re-runs the same stream with the observability layer on
//! (spans + windowed metrics) and writes the fleet timeline (Chrome
//! trace JSON, openable in `chrome://tracing` or Perfetto) to
//! `--trace-out` (default `serve_timeline.json`). The report run stays
//! untraced, so `serve_report.json` is byte-identical either way.
//!
//! The run's wall-clock goes to stderr, so stdout stays reproducible.

use pudiannao_accel::json::Value;
use pudiannao_serve::{
    export_timeline, scaling_sweep, serve, serve_observed, sweep, ChaosConfig, Defense,
    FleetConfig, GeneratorConfig, ObserveConfig, ServeReport,
};

/// Seed for the default request stream (arbitrary but pinned: the smoke
/// counts in `scripts/check.sh` and the determinism test depend on it).
const STREAM_SEED: u64 = 0xd1a0_2015;

fn print_summary(mode: &str, report: &ServeReport) {
    println!("[serve] mode {mode}");
    println!("[serve] shards {}", report.shards_configured);
    println!("[serve] offered {}", report.counters.offered);
    println!("[serve] admitted {}", report.counters.admitted);
    println!("[serve] shed {}", report.counters.shed);
    println!("[serve] rejected {}", report.counters.rejected);
    println!("[serve] completed {}", report.completed);
    println!("[serve] shed_permille {}", report.shed_permille);
    println!(
        "[serve] latency_ns p50 {} p99 {} p999 {} max {}",
        report.p50_ns, report.p99_ns, report.p999_ns, report.max_ns
    );
    println!("[serve] throughput_rps {:.1}", report.throughput_rps);
    for (i, s) in report.shards.iter().enumerate() {
        println!(
            "[serve] shard {i} requests {} batches {} reconfigs {} utilization_permille {}",
            s.requests, s.batches, s.reconfigs, s.utilization_permille
        );
    }
}

fn main() {
    let mut smoke = false;
    let mut trace = false;
    let mut out = String::from("serve_report.json");
    let mut trace_out = String::from("serve_timeline.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--trace" => trace = true,
            "--out" => {
                out = args.next().unwrap_or_else(|| {
                    eprintln!("error: --out needs a path");
                    std::process::exit(2);
                });
            }
            "--trace-out" => {
                trace_out = args.next().unwrap_or_else(|| {
                    eprintln!("error: --trace-out needs a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "error: unknown argument {other:?} (usage: serve_bench [--smoke] [--out PATH] \
                     [--trace] [--trace-out PATH])"
                );
                std::process::exit(2);
            }
        }
    }

    let (gen, fleet, mode) = if smoke {
        (GeneratorConfig::smoke(STREAM_SEED), FleetConfig::with_shards(2), "smoke")
    } else {
        (GeneratorConfig::heavy(STREAM_SEED), FleetConfig::paper_default(), "heavy")
    };

    let wall_start = std::time::Instant::now();
    let report = serve(&fleet, &gen);
    let wall = wall_start.elapsed();
    print_summary(mode, &report);
    // Wall-clock is the one number that legitimately varies run to run,
    // so it goes to stderr: the determinism test compares stdout
    // verbatim across REPRO_THREADS settings.
    eprintln!("[serve] wall_ms {:.1} (unpinned)", wall.as_secs_f64() * 1e3);

    let mut doc = Value::object().with("mode", mode).with("report", report.to_json());
    if !smoke {
        let points = scaling_sweep(&sweep::gate_generator());
        let mut arr = Value::array(Vec::new());
        for p in &points {
            println!(
                "[serve] sweep shards {} completed {} throughput_rps {:.1} p99_ns {} \
                 util_permille {}",
                p.shards, p.completed, p.throughput_rps, p.p99_ns, p.util_permille
            );
            arr.push(p.to_json());
        }
        doc.set("scaling_sweep", arr);
    }

    let body = doc.to_string_pretty();
    if let Err(e) = std::fs::write(&out, body + "\n") {
        eprintln!("error: writing {out}: {e}");
        std::process::exit(1);
    }
    println!("[serve] wrote {out}");

    // `--trace`: one extra run of the same stream with spans and
    // windowed metrics on (chaos off, so the timeline shows the clean
    // baseline). The report run above already happened untraced.
    if trace {
        let traced = serve_observed(
            &fleet,
            &gen,
            &ChaosConfig::off(),
            &Defense::off(),
            &ObserveConfig::full(gen.requests),
        );
        let check = export_timeline(&traced, &trace_out).unwrap_or_else(|e| {
            eprintln!("error: exporting timeline: {e}");
            std::process::exit(1);
        });
        let obs = traced.observability.as_ref().expect("observed run carries observability");
        let metrics = obs.metrics.as_ref().expect("observed run carries metrics");
        println!("[trace] cell {mode} baseline");
        println!(
            "[trace] spans {} instants {} tracks {}",
            check.spans, check.instants, check.tracks
        );
        println!("[trace] events_dropped {}", obs.events_dropped);
        println!(
            "[trace] windows {} windowed_p99_max_ns {}",
            metrics.windows.len(),
            metrics.windowed_p99_max_ns
        );
        println!("[trace] wrote {trace_out}");
    }
}
