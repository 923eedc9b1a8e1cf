//! The profiler reporting pipeline: a traced Figure-15-representative
//! phase for the timeline export, the per-phase bottleneck summary, and
//! the benchmark-history records behind the perf-regression gate.
//!
//! Three consumers sit on top:
//!
//! - the `profile` binary writes `trace_timeline.json` (Chrome Trace
//!   Event JSON from [`pudiannao_accel::profile::chrome_trace`]) and
//!   `phase_reports.json`, and prints the [`summary`] table;
//! - the `perf_diff` binary appends [`history_record`] lines to
//!   `BENCH_history.jsonl` and [`diff`]s the current run against the last
//!   recorded one;
//! - `scripts/check.sh --profile` / `--perf-gate` pin both outputs.
//!
//! [`diff`] flattens both records into `section/…/column` keys and checks
//! each against one table, [`GATES`]: `phases/*/cycles` and
//! `phases/*/energy_joules` fail above +2%, `serve/*/throughput_rps` and
//! `serve/*/util_permille` below −2%, `chaos/*/slo_overall_permille` below
//! −10 per-mille points, `metrics/windowed_p99_max_ns` above +5%;
//! `serve/*/p99_ns` and `metrics/overall_p99_ns` are informational. A
//! changed schema, fingerprint, phase list, shard list or metrics window,
//! or a gated key only one record carries, refuses the diff; a section or
//! column older records lack is skipped and named; keys without a row are
//! ignored.
//!
//! Everything here is a pure function of the built-in workloads and the
//! paper configuration: no wall-clock, no randomness, so every output is
//! byte-identical at any `REPRO_THREADS` setting.

use pudiannao_accel::json::Value;
use pudiannao_accel::profile::analyze;
use pudiannao_accel::{Accelerator, ArchConfig, Dram, Program, RunReport, TraceConfig};
use pudiannao_codegen::disasm;
use pudiannao_codegen::distance::{DistanceKernel, DistancePlan, DistancePost};
use std::fmt;
use Better::{Higher, Lower};
use Tolerance::{Info, Pct, Points};

/// Version stamp on every `BENCH_history.jsonl` line; bump when the
/// record shape changes so [`diff`] refuses to compare across
/// incompatible schemas.
pub const HISTORY_SCHEMA_VERSION: u64 = 1;

/// A functionally executed, fully traced run of a Figure-15-representative
/// phase: the k-Means distance kernel (Table 3's program shape) at a
/// scale small enough to execute every MAC, with the event ring sized to
/// hold the whole run.
pub struct TracedPhase {
    /// The configuration the run was measured on (the paper point).
    pub config: ArchConfig,
    /// The generated program.
    pub program: Program,
    /// One disassembly line per instruction ([`disasm::line`]), used to
    /// label the timeline spans.
    pub labels: Vec<String>,
    /// The traced report ([`RunReport::trace`] is always `Some`).
    pub report: RunReport,
}

/// Generates, executes and traces the scaled k-Means distance phase.
///
/// The full-paper-scale phases are analytic models (their operands are
/// symbolic DRAM addresses), so the timeline comes from this functional
/// stand-in: 64 centroids against 2048 streamed instances, 16 features —
/// the same resident-HotBuf / ping-pong-ColdBuf pattern as Table 3,
/// eight instructions long.
///
/// # Panics
///
/// Only if the built-in kernel stops generating or executing — a bug,
/// not an input condition.
#[must_use]
pub fn traced_phase() -> TracedPhase {
    let config = ArchConfig::paper_default();
    let kernel = DistanceKernel {
        name: "k-means",
        features: 16,
        hot_rows: 64,
        cold_rows: 2048,
        post: DistancePost::Sort { k: 1 },
    };
    let plan = DistancePlan { hot_dram: 0, cold_dram: 16_384, out_dram: 500_000 };
    let program = kernel.generate(&config, &plan).expect("built-in kernel generates");
    let labels: Vec<String> = program.instructions().iter().map(disasm::line).collect();

    let mut dram = Dram::new(1 << 20);
    // Deterministic operand fill (no RNG): smooth values in [0, 1).
    let fill = |dram: &mut Dram, base: u64, rows: usize| {
        for r in 0..rows {
            let row: Vec<f32> = (0..16).map(|c| ((r * 31 + c * 7) % 97) as f32 / 97.0).collect();
            dram.write_f32(base + (r * 16) as u64, &row);
        }
    };
    fill(&mut dram, plan.hot_dram, 64);
    fill(&mut dram, plan.cold_dram, 2048);

    let mut accel = Accelerator::builder(config.clone())
        .trace(TraceConfig::full())
        .build()
        .expect("paper config is valid");
    let report = accel.run(&program, &mut dram).expect("built-in kernel executes");
    assert!(report.trace.is_some(), "traced run carries a trace");
    TracedPhase { config, program, labels, report }
}

/// The human-readable bottleneck summary: one row per Figure-15 phase
/// with the verdict and the utilisation breakdown behind it, one
/// greppable `[profile] <phase> <verdict>` line per phase, and the
/// traced run's `events_dropped` count (a non-zero count means the
/// exported timeline is truncated).
#[must_use]
pub fn summary(reports: &[RunReport], config: &ArchConfig, events_dropped: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "  {:<10} {:<22} {:>8} {:>10} {:>9} {:>7}\n",
        "phase", "verdict", "fu-util", "dma-stall", "reconfig", "fault"
    ));
    let mut lines = String::new();
    for report in reports {
        let a = analyze(report, config);
        let label = report.label.as_deref().unwrap_or("?");
        out.push_str(&format!(
            "  {:<10} {:<22} {:>8.3} {:>10.3} {:>9.3} {:>7.3}\n",
            label,
            a.verdict.name(),
            a.fu_utilization,
            a.dma_stall_fraction,
            a.dma_reconfig_fraction,
            a.fault_overhead_fraction,
        ));
        lines.push_str(&format!("[profile] {} {}\n", label, a.verdict.name()));
    }
    out.push_str(&lines);
    out.push_str(&format!("[profile] events_dropped {events_dropped}\n"));
    out
}

/// One `BENCH_history.jsonl` line: the schema version, the configuration
/// fingerprint, and each Figure-15 phase's modelled cycles and energy.
/// Deliberately excludes anything non-deterministic (timestamps,
/// wall-clock, host details), so a record depends only on the model.
#[must_use]
pub fn history_record() -> Value {
    let mut record = record_from_reports(&crate::evaluation::phase_run_reports());
    record.set("serve", serve_sweep_points());
    record.set("chaos", chaos_headline());
    record.set("metrics", metrics_headline());
    record
}

/// The serving-layer half of a history record: the pinned 1/2/4/8-shard
/// scaling sweep from `pudiannao_serve` ([`pudiannao_serve::gate_sweep`]),
/// one point per shard count.
fn serve_sweep_points() -> Value {
    let mut points = Value::array(Vec::new());
    for p in pudiannao_serve::gate_sweep() {
        points.push(
            Value::object()
                .with("shards", p.shards as u64)
                .with("throughput_rps", p.throughput_rps)
                .with("p99_ns", p.p99_ns)
                .with("util_permille", p.util_permille),
        );
    }
    points
}

/// The resilience headline riding each history record: the mid-intensity
/// smoke chaos cell (2k requests of the gate shape on the widest sweep
/// fleet), undefended vs fully defended, as overall and per-tier SLO
/// attainment in per-mille. Small enough to run on every `--record`,
/// pinned enough that a defence regression moves it.
fn chaos_headline() -> Value {
    use pudiannao_serve::sweep::{chaos_fleet, defense_arm, gate_generator, CHAOS_SEED};
    use pudiannao_serve::{serve, serve_resilient, ChaosConfig, GeneratorConfig, Priority};
    let gen = GeneratorConfig { requests: 2_000, ..gate_generator() };
    let fleet = chaos_fleet();
    let p99 = serve(&fleet, &gen).p99_ns;
    let chaos = ChaosConfig::intensity(CHAOS_SEED, 1);
    let mut out = Value::object().with("intensity", "mid").with("baseline_p99_ns", p99);
    for arm in ["none", "full"] {
        let report = serve_resilient(&fleet, &gen, &chaos, &defense_arm(arm, p99));
        let res = report.resilience.as_ref().expect("chaos cells are resilient runs");
        let mut tiers = Value::object();
        for p in Priority::ALL {
            tiers.set(p.label(), res.tiers[p.index()].slo_met_permille);
        }
        out.set(
            arm,
            Value::object()
                .with("slo_overall_permille", res.overall_slo_permille())
                .with("slo_tiers_permille", tiers),
        );
    }
    out
}

/// The observability headline riding each history record: the windowed
/// latency metrics of a 2k-request gate-shape baseline run on the widest
/// sweep fleet (metrics on, tracing off, chaos off). The windowed p99
/// maximum is the burst-sensitive tail signal a whole-run p99 smooths
/// away — a batching or admission change that only hurts during bursts
/// moves this number first.
fn metrics_headline() -> Value {
    use pudiannao_serve::sweep::{chaos_fleet, gate_generator};
    use pudiannao_serve::{
        serve_observed, ChaosConfig, Defense, GeneratorConfig, MetricsConfig, ObserveConfig,
    };
    let gen = GeneratorConfig { requests: 2_000, ..gate_generator() };
    let observe = ObserveConfig { trace: None, metrics: Some(MetricsConfig::default()) };
    let report =
        serve_observed(&chaos_fleet(), &gen, &ChaosConfig::off(), &Defense::off(), &observe);
    let m =
        report.observability.as_ref().and_then(|o| o.metrics.as_ref()).expect("metrics were on");
    Value::object()
        .with("window_ns", m.window_ns)
        .with("overall_p99_ns", m.overall_p99_ns)
        .with("windowed_p99_max_ns", m.windowed_p99_max_ns)
        .with("windows", m.windows.len() as u64)
}

fn record_from_reports(reports: &[RunReport]) -> Value {
    let fingerprint = reports.first().map_or_else(String::new, |r| r.config_fingerprint.clone());
    let phases: Vec<Value> = reports
        .iter()
        .map(|r| {
            Value::object()
                .with("label", r.label.clone())
                .with("cycles", r.stats.cycles)
                .with("energy_joules", r.stats.energy.total())
        })
        .collect();
    Value::object()
        .with("schema_version", HISTORY_SCHEMA_VERSION)
        .with("config_fingerprint", fingerprint)
        .with("phases", Value::array(phases))
}

/// Returns `record` with every phase's cycle count inflated by `pct`
/// percent — the synthetic-regression hook behind `perf_diff
/// --inflate-cycles-pct`, used by the gate's self-check to prove a +5%
/// regression actually fails. Every other field rides along untouched.
#[must_use]
pub fn with_inflated_cycles(record: &Value, pct: f64) -> Value {
    let mut out = record.clone();
    let Value::Object(fields) = &mut out else { return out };
    for (_, section) in fields.iter_mut().filter(|(k, _)| k == "phases") {
        let Value::Array(phases) = section else { continue };
        for phase in phases {
            let Value::Object(columns) = phase else { continue };
            for (_, v) in columns.iter_mut().filter(|(k, _)| k == "cycles") {
                if let Some(cycles) = v.as_u64() {
                    *v = Value::UInt((cycles as f64 * (1.0 + pct / 100.0)).round() as u64);
                }
            }
        }
    }
    out
}

/// Which way a gated key should move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Cycles, joules, latency.
    Lower,
    /// Throughput, utilisation, SLO attainment.
    Higher,
}

/// How far a gated key may move the wrong way before the gate fails.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tolerance {
    /// Percent of the baseline value.
    Pct(f64),
    /// Absolute points in the key's unit (per-mille for SLO attainment).
    Points(f64),
    /// Reported as a percent change; never fails.
    Info,
}

/// One row of [`GATES`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gate {
    /// `section/…/column` key pattern; `*` matches one segment (a phase
    /// label, a shard count, a chaos defence arm).
    pub pattern: &'static str,
    /// The way an improvement moves the key.
    pub better: Better,
    /// How far the key may move the other way.
    pub tolerance: Tolerance,
}

/// The perf gate. Each key of a history record is checked against the
/// first row whose pattern matches it; keys no row matches
/// (`slo_tiers_permille`, `baseline_p99_ns`, …) are ignored.
pub static GATES: [Gate; 8] = [
    Gate { pattern: "phases/*/cycles", better: Lower, tolerance: Pct(2.0) },
    Gate { pattern: "phases/*/energy_joules", better: Lower, tolerance: Pct(2.0) },
    Gate { pattern: "serve/*/throughput_rps", better: Higher, tolerance: Pct(2.0) },
    // An open-loop p99 rises legitimately when bigger batches buy throughput.
    Gate { pattern: "serve/*/p99_ns", better: Lower, tolerance: Info },
    // Lower utilisation at the same throughput: the fleet stopped scaling.
    Gate { pattern: "serve/*/util_permille", better: Higher, tolerance: Pct(2.0) },
    // Deterministic model: any drop is a code change; the slack absorbs remodels.
    Gate { pattern: "chaos/*/slo_overall_permille", better: Higher, tolerance: Points(10.0) },
    // One window sets the maximum, so it is burstier than a whole-run p99.
    Gate { pattern: "metrics/windowed_p99_max_ns", better: Lower, tolerance: Pct(5.0) },
    Gate { pattern: "metrics/overall_p99_ns", better: Lower, tolerance: Info },
];

/// Sections and a column later records added: absent from either record,
/// they are skipped and named, so older baselines stay comparable. Any
/// other gated key only one record carries refuses the diff.
const OPTIONAL: [&str; 4] = ["serve", "chaos", "metrics", "serve/*/util_permille"];

/// One gated key's change between two history records, or a skip.
#[derive(Clone, Debug, PartialEq)]
pub struct Delta {
    /// The flat key (`phases/kNN/cycles`, `serve/4/util_permille`), or a
    /// bare section name (`chaos`) for a skipped section.
    pub key: String,
    /// The [`GATES`] row the key matched; `None` for a skipped section.
    pub gate: Option<&'static Gate>,
    /// The change, in points for a [`Tolerance::Points`] row and in
    /// percent otherwise; `None` for a skip.
    pub change: Option<f64>,
}

impl Delta {
    /// Whether the key moved the wrong way past its row's tolerance.
    #[must_use]
    pub fn regressed(&self) -> bool {
        let (Some(gate), Some(change)) = (self.gate, self.change) else { return false };
        let (Pct(limit) | Points(limit)) = gate.tolerance else { return false };
        match gate.better {
            Lower => change > limit,
            Higher => change < -limit,
        }
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (Some(gate), Some(change)) = (self.gate, self.change) else {
            return write!(f, "{} skipped: not in both records", self.key);
        };
        let sign = if gate.better == Lower { '+' } else { '-' };
        match gate.tolerance {
            Pct(t) => write!(f, "{} {change:+.2}% (gate {sign}{t}%)", self.key),
            Points(t) => write!(f, "{} {change:+} points (gate {sign}{t} points)", self.key),
            Info => write!(f, "{} {change:+.2}% (informational)", self.key),
        }
    }
}

/// Whether `key` matches a [`Gate::pattern`]-style pattern.
fn matches_pattern(pattern: &str, key: &str) -> bool {
    pattern.split('/').count() == key.split('/').count()
        && pattern.split('/').zip(key.split('/')).all(|(p, k)| p == "*" || p == k)
}

/// How an array element is keyed: phases by `label`, serving points by
/// `shards`, anything else by its index.
fn element_key(element: &Value, index: usize) -> String {
    match (element.get("label").and_then(Value::as_str), element.get("shards")) {
        (Some(label), _) => label.to_owned(),
        (None, Some(shards)) => shards.to_string(),
        (None, None) => index.to_string(),
    }
}

/// A record's numeric leaves under flat `section/…/column` keys, in record
/// order, and each array's element keys (records compare only over the
/// same phases and the same shard counts).
#[derive(Default)]
struct Flat {
    leaves: Vec<(String, f64)>,
    lists: Vec<(String, Vec<String>)>,
}

impl Flat {
    fn of(record: &Value) -> Flat {
        let mut flat = Flat::default();
        if let Value::Object(sections) = record {
            sections.iter().for_each(|(k, v)| flat.walk(k.clone(), v));
        }
        flat
    }

    fn walk(&mut self, path: String, v: &Value) {
        match v {
            Value::Object(f) => f.iter().for_each(|(k, c)| self.walk(format!("{path}/{k}"), c)),
            Value::Array(elements) => {
                let keys: Vec<String> =
                    elements.iter().enumerate().map(|(i, e)| element_key(e, i)).collect();
                keys.iter().zip(elements).for_each(|(k, e)| self.walk(format!("{path}/{k}"), e));
                self.lists.push((path, keys));
            }
            _ => self.leaves.extend(v.as_f64().map(|x| (path, x))),
        }
    }

    fn get(&self, key: &str) -> Option<f64> {
        self.leaves.iter().find(|(k, _)| k == key).map(|&(_, x)| x)
    }
}

/// Diffs two history records key by key against [`GATES`]: one skip per
/// optional section absent from either record, then one [`Delta`] per
/// gated key in record order (a skip for an absent optional column).
///
/// # Errors
///
/// When the records are not comparable: a schema or configuration
/// fingerprint mismatch, no `phases` array, a changed phase or shard list,
/// a changed `metrics/window_ns`, or a gated key only one record carries
/// in a section both carry (a missing chaos arm or metrics column).
pub fn diff(prev: &Value, cur: &Value) -> Result<Vec<Delta>, String> {
    let schema = |v: &Value| v.get("schema_version").and_then(Value::as_u64);
    let (ps, cs) = (schema(prev), schema(cur));
    if ps != cs || cs != Some(HISTORY_SCHEMA_VERSION) {
        return Err(format!("schema mismatch: history {ps:?} vs current {cs:?}"));
    }
    let fp = |v: &Value| v.get("config_fingerprint").and_then(Value::as_str).map(str::to_owned);
    let (pf, cf) = (fp(prev).unwrap_or_default(), fp(cur).unwrap_or_default());
    if pf != cf {
        return Err(format!(
            "config fingerprint mismatch: history {pf:?} vs current {cf:?} — refusing to \
             compare different hardware points"
        ));
    }
    if [prev, cur].iter().any(|v| v.get("phases").and_then(Value::as_array).is_none()) {
        return Err("record has no phases array".to_owned());
    }
    let (p, c) = (Flat::of(prev), Flat::of(cur));
    for (path, keys) in &c.lists {
        let was = p.lists.iter().find(|(q, _)| q == path).map_or(keys, |(_, was)| was);
        if was != keys {
            return Err(format!("{path} list changed: {was:?} vs {keys:?}"));
        }
    }

    let skipped: Vec<&str> = OPTIONAL
        .into_iter()
        .filter(|s| !s.contains('/') && (prev.get(s).is_none() || cur.get(s).is_none()))
        .collect();
    let mut deltas: Vec<Delta> =
        skipped.iter().map(|s| Delta { key: (*s).to_owned(), gate: None, change: None }).collect();
    let prev_only = p.leaves.iter().filter(|(k, _)| c.get(k).is_none());
    for key in c.leaves.iter().chain(prev_only).map(|(k, _)| k.as_str()) {
        if skipped.iter().any(|s| key.split('/').next() == Some(s)) {
            continue;
        }
        let (was, now) = (p.get(key), c.get(key));
        // Windowed maxima only compare at the same window.
        if key == "metrics/window_ns" && was != now {
            let show = |x: Option<f64>| x.map_or_else(|| "missing".to_owned(), |x| x.to_string());
            return Err(format!("{key} changed: {} vs {}", show(was), show(now)));
        }
        let Some(gate) = GATES.iter().find(|g| matches_pattern(g.pattern, key)) else { continue };
        let change = match (was, now) {
            (Some(a), Some(b)) if matches!(gate.tolerance, Points(_)) => Some(b - a),
            (Some(0.0), Some(b)) => Some(if b == 0.0 { 0.0 } else { f64::INFINITY }),
            (Some(a), Some(b)) => Some((b - a) / a * 100.0),
            _ if OPTIONAL.iter().any(|o| matches_pattern(o, key)) => None,
            (None, _) => return Err(format!("{key} is missing from the baseline")),
            (_, None) => return Err(format!("{key} is missing from the current record")),
        };
        deltas.push(Delta { key: key.to_owned(), gate: Some(gate), change });
    }
    Ok(deltas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pudiannao_accel::json::parse;
    use pudiannao_accel::profile::{chrome_trace, validate_timeline, Bottleneck};
    use std::sync::OnceLock;

    /// The current history record, computed once for every test here.
    fn record() -> &'static Value {
        static RECORD: OnceLock<Value> = OnceLock::new();
        RECORD.get_or_init(history_record)
    }

    /// The value under a flat key (array elements by their `label` or
    /// `shards`), mutably.
    fn at_mut<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        key.split('/').fold(v, |v, seg| match v {
            Value::Object(fields) => &mut fields.iter_mut().find(|(k, _)| k == seg).expect(seg).1,
            Value::Array(elements) => {
                elements
                    .iter_mut()
                    .enumerate()
                    .find(|(i, e)| element_key(e, *i) == seg)
                    .expect(seg)
                    .1
            }
            _ => panic!("{key}: {seg} is not inside a container"),
        })
    }

    /// `record` with `key` set to `value`.
    fn with_key(record: &Value, key: &str, value: impl Into<Value>) -> Value {
        let mut out = record.clone();
        *at_mut(&mut out, key) = value.into();
        out
    }

    /// `record` without `key` (a field, or an array element by its key).
    fn without_key(record: &Value, key: &str) -> Value {
        let mut out = record.clone();
        let (parent, last) = match key.rsplit_once('/') {
            Some((parent, last)) => (at_mut(&mut out, parent), last),
            None => (&mut out, key),
        };
        match parent {
            Value::Object(fields) => fields.retain(|(k, _)| k != last),
            Value::Array(elements) => {
                let at = elements.iter().enumerate().position(|(i, e)| element_key(e, i) == last);
                elements.remove(at.expect(last));
            }
            _ => panic!("{key}: parent is not a container"),
        }
        out
    }

    fn value(record: &Value, key: &str) -> f64 {
        Flat::of(record).get(key).unwrap_or_else(|| panic!("record has no {key}"))
    }

    fn regressed_keys(prev: &Value, cur: &Value) -> Vec<String> {
        diff(prev, cur).unwrap().into_iter().filter(Delta::regressed).map(|d| d.key).collect()
    }

    fn skipped_keys(prev: &Value, cur: &Value) -> Vec<String> {
        diff(prev, cur).unwrap().into_iter().filter(|d| d.change.is_none()).map(|d| d.key).collect()
    }

    #[test]
    fn traced_phase_yields_a_valid_labelled_timeline() {
        let traced = traced_phase();
        let trace = traced.report.trace.as_ref().unwrap();
        assert_eq!(trace.events_dropped, 0, "ring must hold the whole run");
        let doc = chrome_trace(&traced.config, &traced.program, trace, &traced.labels);
        let check = validate_timeline(&doc).unwrap();
        assert!(check.spans >= traced.program.len(), "at least one span per instruction");
        assert!(check.tracks >= 5);
        // The spans carry the disassembly labels (Table-3 rows).
        let text = doc.to_string();
        assert!(text.contains("k-means") && text.contains("LOAD") && text.contains("SORT1"));
    }

    #[test]
    fn summary_covers_all_phases_and_surfaces_drops() {
        let reports = crate::evaluation::phase_run_reports();
        let cfg = ArchConfig::paper_default();
        let text = summary(&reports, &cfg, 7);
        for report in &reports {
            let label = report.label.as_deref().unwrap();
            assert!(text.contains(&format!("[profile] {label} ")), "missing {label}");
        }
        assert!(text.contains("[profile] events_dropped 7"));
    }

    #[test]
    fn expected_phase_verdicts() {
        // The empirical Figure-15 attribution: LR's streaming phases are
        // bandwidth-bound, CT prediction pays descriptor reconfiguration,
        // everything else keeps the pipeline busy.
        let cfg = ArchConfig::paper_default();
        for report in crate::evaluation::phase_run_reports() {
            let verdict = analyze(&report, &cfg).verdict;
            let expected = match report.label.as_deref().unwrap() {
                "LR-train" | "LR-pred" => Bottleneck::Dma,
                "CT-pred" => Bottleneck::Reconfiguration,
                _ => Bottleneck::Pipeline,
            };
            assert_eq!(verdict, expected, "{:?}", report.label);
        }
    }

    #[test]
    fn history_record_round_trips_and_diffs_clean() {
        let parsed = parse(&record().to_string()).unwrap();
        let deltas = diff(&parsed, record()).unwrap();
        // 13 phases x (cycles, energy), 4 sweep points x (throughput,
        // p99, util), 2 chaos arms, 2 metrics columns.
        assert_eq!(deltas.len(), 13 * 2 + 4 * 3 + 2 + 2);
        assert!(deltas.iter().all(|d| d.change == Some(0.0) && d.gate.is_some()));
        assert!(!deltas.iter().any(Delta::regressed));
        assert_eq!(deltas[0].to_string(), "phases/kNN/cycles +0.00% (gate +2%)");
    }

    #[test]
    fn inflated_cycles_trip_the_gate() {
        let slow = with_inflated_cycles(record(), 5.0);
        let deltas = diff(record(), &slow).unwrap();
        let cycles: Vec<&Delta> = deltas.iter().filter(|d| d.key.ends_with("/cycles")).collect();
        assert_eq!(cycles.len(), 13);
        assert!(cycles.iter().all(|d| d.change.is_some_and(|c| c > 4.0 && c < 6.0)));
        assert!(cycles.iter().all(|d| d.regressed()));
        // Only cycles move: every other section rides along untouched.
        assert_eq!(deltas.iter().filter(|d| d.regressed()).count(), 13);
        // A change within tolerance does not fail.
        assert!(regressed_keys(record(), &with_inflated_cycles(record(), 1.0)).is_empty());
    }

    #[test]
    fn serve_sweep_rides_the_record_and_gates_throughput() {
        let sweep = record().get("serve").and_then(Value::as_array).expect("record carries sweep");
        assert_eq!(sweep.len(), 4, "1/2/4/8-shard sweep");
        // A 5% throughput drop at every point fails the gate.
        let mut slow = record().clone();
        for shards in ["1", "2", "4", "8"] {
            let key = format!("serve/{shards}/throughput_rps");
            *at_mut(&mut slow, &key) = Value::Float(value(record(), &key) * 0.95);
        }
        assert_eq!(regressed_keys(record(), &slow).len(), 4);
        // A baseline that predates the serving layer is skipped by name.
        let old = without_key(record(), "serve");
        assert_eq!(skipped_keys(&old, record()), ["serve"]);
    }

    #[test]
    fn chaos_headline_rides_the_record_and_old_baselines_skip() {
        let slo = |arm: &str| value(record(), &format!("chaos/{arm}/slo_overall_permille"));
        // The headline preserves the chaos_bench invariant: defended
        // strictly beats undefended at the pinned mid intensity.
        assert!(slo("full") > slo("none"), "full {} vs none {}", slo("full"), slo("none"));
        // A record written before the chaos headline existed skips cleanly
        // in both directions instead of erroring.
        let old = without_key(&without_key(record(), "metrics"), "chaos");
        assert_eq!(skipped_keys(&old, record()), ["chaos", "metrics"]);
        assert_eq!(skipped_keys(record(), &old), ["chaos", "metrics"]);
        // A genuine attainment collapse in the defended arm trips the gate.
        let sick = with_key(record(), "chaos/full/slo_overall_permille", slo("full") - 50.0);
        assert_eq!(regressed_keys(record(), &sick), ["chaos/full/slo_overall_permille"]);
        // A malformed headline is refused, not silently zeroed.
        let broken = with_key(record(), "chaos", Value::object());
        assert!(diff(record(), &broken).unwrap_err().contains("missing"));
    }

    #[test]
    fn metrics_headline_rides_the_record_and_old_baselines_skip() {
        let field = |key: &str| value(record(), &format!("metrics/{key}"));
        // A windowed maximum can never undercut the whole-run percentile
        // it is a max over.
        assert!(field("windowed_p99_max_ns") >= field("overall_p99_ns"));
        assert!(field("windows") > 0.0);
        // A record written before the metrics headline existed skips
        // cleanly in both directions instead of erroring.
        let old = without_key(record(), "metrics");
        assert_eq!(skipped_keys(&old, record()), ["metrics"]);
        assert_eq!(skipped_keys(record(), &old), ["metrics"]);
        // A genuine burst-tail collapse trips the gate.
        let key = "metrics/windowed_p99_max_ns";
        let sick = with_key(record(), key, field("windowed_p99_max_ns") * 2.0);
        assert_eq!(regressed_keys(record(), &sick), [key]);
        // A changed window size or a missing column is refused.
        let resized = with_key(record(), "metrics/window_ns", field("window_ns") * 2.0);
        assert!(diff(record(), &resized).unwrap_err().contains("window_ns changed"));
        let broken = with_key(record(), "metrics", Value::object());
        assert!(diff(record(), &broken).unwrap_err().contains("missing"));
    }

    #[test]
    fn incomparable_records_are_refused() {
        let other = with_key(record(), "config_fingerprint", "arch-0000000000000000");
        assert!(diff(record(), &other).unwrap_err().contains("fingerprint"));
        let newer = with_key(record(), "schema_version", HISTORY_SCHEMA_VERSION + 1);
        assert!(diff(&newer, &newer).unwrap_err().contains("schema"));
        assert!(diff(&newer, record()).unwrap_err().contains("schema"));
        // A zero baseline: no change stays 0%, any growth is an infinite rise.
        let idle = with_key(record(), "phases/kNN/cycles", 0u64);
        let kept = diff(&idle, &idle).unwrap();
        assert_eq!(kept[0].change, Some(0.0));
        let woke = diff(&idle, record()).unwrap();
        assert!(woke[0].change == Some(f64::INFINITY) && woke[0].regressed());
    }

    #[test]
    fn every_gate_row_fails_just_past_its_tolerance_and_passes_just_inside() {
        // The thresholds, spelled out here rather than read from `GATES`,
        // so a loosened row fails this test.
        let pinned = [
            ("phases/kNN/cycles", Lower, Pct(2.0)),
            ("phases/CT-pred/energy_joules", Lower, Pct(2.0)),
            ("serve/8/throughput_rps", Higher, Pct(2.0)),
            ("serve/1/p99_ns", Lower, Info),
            ("serve/4/util_permille", Higher, Pct(2.0)),
            ("chaos/full/slo_overall_permille", Higher, Points(10.0)),
            ("metrics/windowed_p99_max_ns", Lower, Pct(5.0)),
            ("metrics/overall_p99_ns", Lower, Info),
        ];
        for gate in &GATES {
            assert!(
                pinned.iter().any(|(key, ..)| matches_pattern(gate.pattern, key)),
                "no pinned case covers {}",
                gate.pattern
            );
        }
        for (key, better, tolerance) in pinned {
            let base = value(record(), key);
            let wrong_way = match better {
                Lower => 1.0,
                Higher => -1.0,
            };
            let shifted = |by: f64| match tolerance {
                Points(_) => base + wrong_way * by,
                Pct(_) | Info => base * (1.0 + wrong_way * by / 100.0),
            };
            let (inside, past) = match tolerance {
                Pct(t) => (shifted(t - 0.01), shifted(t + 0.01)),
                Points(t) => (shifted(t), shifted(t + 1.0)),
                // Informational rows never fail, however far they move.
                Info => (shifted(50.0), shifted(100.0)),
            };
            let within = with_key(record(), key, inside);
            assert!(regressed_keys(record(), &within).is_empty(), "{key} at {inside} vs {base}");
            let beyond = with_key(record(), key, past);
            let expected: &[&str] = if tolerance == Info { &[] } else { &[key] };
            assert_eq!(regressed_keys(record(), &beyond), expected, "{key} at {past} vs {base}");
            // Moving the improving way never fails.
            let improved = with_key(record(), key, base - wrong_way * base);
            assert!(regressed_keys(record(), &improved).is_empty(), "{key} improved");
        }
    }

    #[test]
    fn every_refusal_and_skip_is_hit() {
        let r = record();
        let refused = |cur: &Value, needle: &str| {
            let err = diff(r, cur).expect_err(needle);
            assert!(err.contains(needle), "{err:?} lacks {needle:?}");
            let err = diff(cur, r).expect_err(needle);
            assert!(err.contains(needle), "{err:?} lacks {needle:?}");
        };
        refused(&with_key(r, "schema_version", 0u64), "schema mismatch");
        refused(&with_key(r, "config_fingerprint", "arch-0"), "fingerprint mismatch");
        refused(&without_key(r, "phases"), "no phases array");
        refused(&without_key(r, "phases/CT-pred"), "phases list changed");
        refused(&with_key(r, "phases/kNN/label", "kNN-2"), "phases list changed");
        refused(&without_key(r, "serve/8"), "serve list changed");
        refused(&with_key(r, "serve/8/shards", 16u64), "serve list changed");
        refused(&with_key(r, "metrics/window_ns", 1u64), "metrics/window_ns changed");
        refused(&without_key(r, "metrics/window_ns"), "metrics/window_ns changed");
        refused(&without_key(r, "chaos/full"), "chaos/full/slo_overall_permille is missing");
        refused(&without_key(r, "chaos/none/slo_overall_permille"), "is missing");
        for column in ["windowed_p99_max_ns", "overall_p99_ns"] {
            refused(&without_key(r, &format!("metrics/{column}")), "is missing");
        }

        for section in ["serve", "chaos", "metrics"] {
            let old = without_key(r, section);
            assert_eq!(skipped_keys(&old, r), [section]);
            assert_eq!(skipped_keys(r, &old), [section]);
        }
        let no_util = without_key(r, "serve/2/util_permille");
        assert_eq!(skipped_keys(&no_util, r), ["serve/2/util_permille"]);
        assert_eq!(skipped_keys(r, &no_util), ["serve/2/util_permille"]);
        let skip = diff(r, &no_util).unwrap().into_iter().find(|d| d.change.is_none()).unwrap();
        assert_eq!(skip.to_string(), "serve/2/util_permille skipped: not in both records");

        // Keys without a row are ignored: changed or gone, they never fail
        // and never refuse.
        for key in ["chaos/full/slo_tiers_permille", "chaos/baseline_p99_ns", "metrics/windows"] {
            let gone = without_key(r, key);
            assert!(skipped_keys(r, &gone).is_empty() && regressed_keys(r, &gone).is_empty());
            let moved = with_key(r, key, 0u64);
            assert!(skipped_keys(r, &moved).is_empty() && regressed_keys(r, &moved).is_empty());
        }
    }

    #[test]
    fn every_committed_history_line_is_a_valid_baseline() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history.jsonl");
        let history = std::fs::read_to_string(path).expect("committed history is readable");
        // What each of the first eight records predates; later records
        // carry every section.
        let lacks: [&[&str]; 8] = [
            &["serve", "chaos", "metrics"],
            &["serve", "chaos", "metrics"],
            &["chaos", "metrics", "util_permille"],
            &["chaos", "metrics"],
            &["chaos", "metrics"],
            &["metrics"],
            &[],
            &[],
        ];
        let lines: Vec<&str> = history.lines().collect();
        assert!(lines.len() >= lacks.len(), "history lost records");
        for (i, line) in lines.iter().enumerate() {
            let baseline = parse(line).unwrap_or_else(|e| panic!("line {i}: {e:?}"));
            let deltas = diff(&baseline, record()).unwrap_or_else(|e| panic!("line {i}: {e}"));
            let failed: Vec<String> =
                deltas.iter().filter(|d| d.regressed()).map(ToString::to_string).collect();
            assert!(failed.is_empty(), "line {i} fails the gate: {failed:?}");
            let mut skipped: Vec<&str> = deltas
                .iter()
                .filter(|d| d.change.is_none())
                .map(|d| d.key.rsplit_once('/').map_or(d.key.as_str(), |(_, column)| column))
                .collect();
            skipped.dedup();
            assert_eq!(skipped, lacks.get(i).copied().unwrap_or_default(), "line {i}");
        }
    }
}
