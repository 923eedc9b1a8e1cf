//! Host-time benchmark of the PuDianNao reproduction.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --out RESULT.json [--spans SPANS.json]
//! ```
//!
//! Runs one workload in this process: set-up several times, then timed
//! passes until `--seconds` is used up (`--trace 0`, end-to-end metrics),
//! or one untraced and one traced pass followed by the per-layer probes
//! (`--trace 1`). Untraced runs time the host-speed reference between
//! set-up slices and between passes and report each slice's and pass's
//! time rescaled by the reference runs around it (see `speed.rs`). Every
//! pass's outputs are checked. The result, stamped
//! with the host fingerprint, goes to `--out`; the spans of a traced run go
//! to `--spans` when the run ends. `perfbench/run.py` builds this binary
//! and prints the result.

mod host;
mod layers;
mod metrics;
mod speed;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use pudiannao_accel::json::Value;

use crate::layers::median;
use crate::speed::{around, rescale, Reference};
use crate::trace::Tracer;
use crate::workloads::{Checks, PassOutput, Workload};

/// Set-up runs in [`SETUP_SLICES`] slices before the first pass, each of
/// at least [`SETUP_SLICE_REPS`] repeats and [`SETUP_SLICE_S`] seconds; a
/// slice's sample is its mean repeat, and `setup_s` is the median sample.
/// One set-up takes from 0.1 ms (serve-chaos) to 50 ms (repro), far too
/// short to time alone on a shared host, and single repeats are bimodal
/// (fresh pages or reused ones, as the allocator happens to serve them).
/// After a pass the allocator's state differs from run to run, so all
/// slices run before the first pass, as a user's set-up would.
const SETUP_SLICES: usize = 5;
const SETUP_SLICE_REPS: usize = 2;
const SETUP_SLICE_S: f64 = 0.1;
/// Fewest timed passes per untraced run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Blocks of reference-kernel runs bracket every set-up slice and every
/// pass; a block is at least [`REFERENCE_REPS`] runs and, after a pass,
/// at least [`REFERENCE_SHARE`] of that pass's time.
const REFERENCE_REPS: usize = 2;
const REFERENCE_SHARE: f64 = 0.03;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flags.insert(flag.clone(), value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |k: &str| flags.remove(k).ok_or_else(|| format!("missing {k}"));
    let workload = take("--workload")?;
    let seed = take("--seed")?;
    let seed = match seed.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
        None => seed.parse(),
    }
    .map_err(|e| format!("bad --seed {seed:?}: {e}"))?;
    let seconds: f64 = take("--seconds")?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let out = take("--out")?;
    let spans = flags.remove("--spans");
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown argument {extra}"));
    }
    Ok(Args { workload, seed, seconds, trace, out, spans })
}

/// Host seconds of each set-up slice or pass, with the reference
/// kernel's median time around it.
#[derive(Default)]
struct Timings {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    reference: Vec<f64>,
}

impl Timings {
    /// Median of the measured `times`, each rescaled by the reference
    /// around it.
    fn rescaled_median(&self, times: &[f64]) -> f64 {
        median(times.iter().zip(&self.reference).map(|(&t, &r)| rescale(t, r)).collect())
    }
}

/// Set-up slices, each between two blocks of reference-kernel runs. A
/// slice's time is its mean repeat.
fn setup_slices(w: &mut dyn Workload, tracer: &Tracer, reference: &mut Reference) -> Timings {
    let mut t = Timings::default();
    let mut before = reference.block(REFERENCE_REPS, 0.0);
    for _ in 0..SETUP_SLICES {
        let (mut reps, slice) = (0, Instant::now());
        while reps < SETUP_SLICE_REPS || slice.elapsed().as_secs_f64() < SETUP_SLICE_S {
            tracer.span("bench::setup", || w.setup(tracer));
            reps += 1;
        }
        t.wall.push(slice.elapsed().as_secs_f64() / reps as f64);
        let after = reference.block(REFERENCE_REPS, 0.0);
        t.reference.push(around(&before, &after));
        before = after;
    }
    t
}

/// Timed passes until `seconds` would be overrun by one more (at least
/// [`MIN_PASSES`]), each between two blocks of reference-kernel runs;
/// every pass is checked, and must repeat the first byte for byte.
/// Returns the passes' timings and the peak RSS after the first pass.
///
/// Peak RSS is read after the first pass because every later pass runs on
/// fresh pool threads, and which allocator arenas they reuse, and so how
/// much memory stays mapped, varies from run to run (repro over ten runs:
/// 107 to 133 MB after three passes, 79 to 98 MB after one).
fn timed_passes(
    w: &mut dyn Workload,
    tracer: &Tracer,
    checks: &mut Checks,
    reference: &mut Reference,
    seconds: f64,
) -> (Timings, f64) {
    let start = Instant::now();
    let mut t = Timings::default();
    let mut rss = f64::NAN;
    let mut first: Option<PassOutput> = None;
    let mut before = reference.block(REFERENCE_REPS, 0.0);
    loop {
        let cpu0 = host::process_cpu_s();
        let t0 = Instant::now();
        w.pass(tracer);
        let wall = t0.elapsed().as_secs_f64();
        t.wall.push(wall);
        t.cpu.push(host::process_cpu_s() - cpu0);
        let after = reference.block(REFERENCE_REPS, REFERENCE_SHARE * wall);
        t.reference.push(around(&before, &after));
        before = after;
        let out = w.check(checks);
        match &first {
            None => first = Some(out),
            Some(f) => checks.check(f.canonical == out.canonical, || {
                format!("pass {} output differs from pass 1", t.wall.len())
            }),
        }
        if t.wall.len() == 1 {
            rss = host::peak_rss_mb().unwrap_or(f64::NAN);
        }
        let next_end = start.elapsed().as_secs_f64() + median(t.wall.clone());
        if t.wall.len() >= MIN_PASSES && next_end > seconds {
            break;
        }
    }
    (t, rss)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(mut w) = workloads::build(&args.workload, args.seed) else {
        eprintln!("error: unknown workload {:?} (one of {:?})", args.workload, metrics::WORKLOADS);
        return ExitCode::from(2);
    };
    let tracer = Tracer::new();
    tracer.set_on(args.trace);
    let mut checks = Checks::default();

    let mut reference = Reference::new();
    let setup = setup_slices(&mut *w, &tracer, &mut reference);
    tracer.span("bench::warm_up", || w.warm_up(&tracer));

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut samples = Value::object();
    let mut raw = Value::object();
    let passes;
    if args.trace {
        tracer.set_on(false);
        let t = Instant::now();
        w.pass(&tracer);
        let untraced = t.elapsed().as_secs_f64();
        let plain = w.check(&mut checks);
        tracer.set_on(true);
        let t = Instant::now();
        tracer.span("bench::pass", || w.pass(&tracer));
        let traced = t.elapsed().as_secs_f64();
        let out = w.check(&mut checks);
        values.insert("bench.sim_requests_per_s", plain.requests as f64 / untraced);
        values.insert("bench.sim_cycles_per_s", plain.cycles as f64 / untraced);
        checks.check(out.canonical == plain.canonical, || {
            "traced pass output differs from the untraced pass".to_owned()
        });
        values.extend(tracer.span("bench::layers", || {
            layers::probe(&tracer, &args.workload, args.seed, w.serve_report(), &mut checks)
        }));
        values.insert("bench.traced_pass_s", traced);
        values.insert("bench.trace_overhead_ratio", traced / untraced - 1.0);
        values.insert("bench.failed_ratio", checks.failed as f64 / checks.attempted.max(1) as f64);
        passes = 2;
    } else {
        let (t, rss) = timed_passes(&mut *w, &tracer, &mut checks, &mut reference, args.seconds);
        let list = |v: &[f64]| Value::array(v.iter().map(|&x| Value::from(x)).collect());
        samples = Value::object()
            .with("wall_s", list(&t.wall))
            .with("cpu_s", list(&t.cpu))
            .with("reference_s", list(&t.reference))
            .with("setup_s", list(&setup.wall))
            .with("setup_reference_s", list(&setup.reference));
        passes = t.wall.len();
        raw = Value::object()
            .with("setup_s", median(setup.wall.clone()))
            .with("wall_s", median(t.wall.clone()))
            .with("cpu_s", median(t.cpu.clone()))
            .with("reference_s", median(t.reference.clone()))
            .with("nominal_reference_s", speed::NOMINAL_S);
        values.insert("setup_s", setup.rescaled_median(&setup.wall));
        values.insert("wall_s", t.rescaled_median(&t.wall));
        values.insert("cpu_s", t.rescaled_median(&t.cpu));
        values.insert("peak_rss_mb", rss);
    }

    let catalogue = if args.trace { &metrics::PER_LAYER[..] } else { &metrics::END_TO_END[..] };
    let names: Vec<&str> = catalogue.iter().map(|m| m.0).collect();
    assert!(
        values.len() == names.len() && names.iter().all(|n| values.contains_key(n)),
        "the run must measure exactly the catalogued metrics"
    );

    let mut metric_json = Value::object();
    for name in names {
        metric_json.set(
            name,
            Value::object().with("value", values[name]).with("unit", metrics::unit_of(name)),
        );
    }
    let host = host::fingerprint();
    let result = Value::object()
        .with("correct", checks.failed == 0)
        .with("attempted", checks.attempted)
        .with("failed", checks.failed)
        .with("metrics", metric_json)
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("trace", args.trace)
        .with("passes", passes)
        .with("samples", samples)
        .with("raw", raw)
        .with("host", host.clone());
    if let Err(e) = std::fs::write(&args.out, result.to_string_pretty()) {
        eprintln!("error: writing {}: {e}", args.out);
        return ExitCode::FAILURE;
    }

    if args.trace {
        let spans = tracer.spans();
        eprintln!("[perfbench] {:<44} {:>6} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
        for (name, (count, total, own)) in trace::self_times(&spans) {
            eprintln!(
                "[perfbench] {name:<44} {count:>6} {:>12.3} {:>12.3}",
                total / 1e3,
                own / 1e3
            );
        }
        if let Some(path) = &args.spans {
            let other = Value::object()
                .with("workload", args.workload.as_str())
                .with("seed", args.seed)
                .with("host", host);
            if let Err(e) = std::fs::write(path, trace::chrome_trace(&spans, other).to_string()) {
                eprintln!("error: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
