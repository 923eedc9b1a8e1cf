//! The four workloads. Each one builds its inputs in [`Workload::setup`],
//! runs one timed pass through the crates' public functions in
//! [`Workload::pass`], and checks what the pass produced in
//! [`Workload::check`], outside the timed region.

use std::hint::black_box;

use pudiannao_accel::json::{self, Value};
use pudiannao_accel::profile::validate_timeline;
use pudiannao_accel::{Accelerator, ArchConfig, Dram, ExecStats, Program, TraceConfig};
use pudiannao_baseline as baseline;
use pudiannao_baseline::DeviceKind;
use pudiannao_bench::{evaluation, locality, parallel, ExperimentReport};
use pudiannao_codegen::ct::{HeapTree, TreeWalkKernel, TreeWalkPlan};
use pudiannao_codegen::distance::{DistanceKernel, DistancePlan, DistancePost};
use pudiannao_codegen::nb::{NbPredictKernel, NbPredictPlan};
use pudiannao_codegen::phases::{self, model_phase, program_stats, Phase};
use pudiannao_memsim::CacheConfig;
use pudiannao_serve::sweep::{chaos_fleet, chaos_sweep, ChaosCell, CHAOS_SEED};
use pudiannao_serve::{
    fleet_timeline, generate, run_fleet, run_fleet_observed, ChaosConfig, Defense, FleetConfig,
    GeneratorConfig, ObserveConfig, Request, ServeReport, ServingCatalog, SplitMix64,
};

use crate::trace::Tracer;

/// The stream seed `serve_report.json` was generated from.
pub const HEAVY_SEED: u64 = 0xd1a0_2015;
/// The stream seed of `gate_generator`, behind `chaos_report.json`.
pub const GATE_SEED: u64 = 0x5e7e_1234;

/// Counts output checks; a failed check is reported on stderr.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[perfbench] check failed: {}", what());
        }
    }
}

/// What one pass produced, once checked.
pub struct PassOutput {
    /// Serialised outputs: every pass of a run must agree byte for byte.
    pub canonical: String,
    /// Simulated requests the pass served (see the README for each
    /// workload's unit).
    pub requests: u64,
    /// Simulated device cycles the pass accounted.
    pub cycles: u64,
}

pub trait Workload {
    /// Builds the pass's inputs. Called several times; the last build is
    /// the one the passes use.
    fn setup(&mut self, tracer: &Tracer);
    /// Finishes lazy set-up that only the first pass would otherwise pay.
    fn warm_up(&mut self, _tracer: &Tracer) {}
    /// One timed pass.
    fn pass(&mut self, tracer: &Tracer);
    /// Checks the last pass's outputs.
    fn check(&mut self, checks: &mut Checks) -> PassOutput;
    /// The fleet report of the last pass, for the per-layer probes.
    fn serve_report(&self) -> Option<&ServeReport> {
        None
    }
}

/// Builds the named workload, or `None` for an unknown name.
#[must_use]
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "repro" => Box::new(Repro::default()),
        "serve-heavy" => Box::new(ServeHeavy::new(seed)),
        "serve-chaos" => Box::new(ServeChaos::new(seed)),
        "accel-exec" => Box::new(AccelExec::new(seed)),
        _ => return None,
    })
}

/// The 8k-request stream of the serve-chaos workload (`gate_generator`'s
/// shape at any seed).
#[must_use]
pub fn gate_stream(seed: u64) -> GeneratorConfig {
    GeneratorConfig { requests: 8_000, ..GeneratorConfig::heavy(seed) }
}

/// A fleet stream and the catalog it is served from.
#[derive(Default)]
struct ServeInputs {
    requests: Vec<Request>,
    catalog: Option<ServingCatalog>,
}

impl ServeInputs {
    fn build(tracer: &Tracer, stream: &GeneratorConfig) -> ServeInputs {
        let requests = tracer.span("gen::generate", || generate(stream));
        let catalog =
            tracer.span("catalog::ServingCatalog::paper_default", ServingCatalog::paper_default);
        ServeInputs { requests, catalog: Some(catalog) }
    }

    fn catalog(&self) -> &ServingCatalog {
        self.catalog.as_ref().expect("setup ran")
    }
}

/// GPU and CPU estimates of one paper-scale phase, as Figure 13 compares
/// them.
#[must_use]
pub fn baseline_estimates(
    phase: Phase,
    w: &phases::Workload,
) -> (baseline::DeviceEstimate, baseline::DeviceEstimate) {
    let c = baseline::characterize(phase, w);
    let on = |device, kind| baseline::estimate(&device, &baseline::efficiency(kind, phase), &c);
    (
        on(baseline::gpu_k20m(), DeviceKind::GpuK20m),
        on(baseline::cpu_e5_4620(), DeviceKind::CpuE5_4620),
    )
}

fn committed(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Every offered request resolves exactly once: `admitted + shed +
/// rejected == offered` for plain runs. Resilient runs count a request
/// evicted after admission both as admitted and as shed, so for them the
/// partition is checked on the outcome counts instead.
fn check_conservation(checks: &mut Checks, what: &str, report: &ServeReport, offered: u64) {
    let c = &report.counters;
    let resolved = match &report.resilience {
        None => c.admitted + c.shed + c.rejected,
        Some(res) => res.outcomes.total(),
    };
    checks.check(c.offered == offered && resolved == offered, || {
        format!("{what}: {resolved} requests resolved, {} offered, {offered} generated", c.offered)
    });
}

fn busy_ns(report: &ServeReport) -> u64 {
    report.shards.iter().map(|s| s.busy_ns).sum()
}

/// FNV-1a over a byte string, to compare large outputs without keeping
/// them.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

// ---------------------------------------------------------------- repro

type Job<'a> = Box<dyn FnOnce() -> ExperimentReport + Send + 'a>;
type Experiment = (&'static str, fn() -> ExperimentReport);

/// `repro_all`'s experiments, in its order.
const EXPERIMENTS: [Experiment; 18] = [
    ("locality::fig02_knn_tiling", locality::fig02_knn_tiling),
    ("locality::fig04_kmeans_tiling", locality::fig04_kmeans_tiling),
    ("locality::fig05_dnn_tiling", locality::fig05_dnn_tiling),
    ("locality::fig08_lr_tiling", locality::fig08_lr_tiling),
    ("locality::fig09_svm_tiling", locality::fig09_svm_tiling),
    ("locality::fig10_reuse_distance", locality::fig10_reuse_distance),
    ("evaluation::table1_precision", evaluation::table1_precision),
    ("evaluation::table3_codegen", evaluation::table3_codegen),
    ("evaluation::table5_layout", evaluation::table5_layout),
    ("evaluation::fig14_floorplan", evaluation::fig14_floorplan),
    ("evaluation::fig13_gpu_vs_cpu", evaluation::fig13_gpu_vs_cpu),
    ("evaluation::fig15_speedup", evaluation::fig15_speedup),
    ("evaluation::fig16_energy", evaluation::fig16_energy),
    ("evaluation::ablation_buffers", evaluation::ablation_buffers),
    ("evaluation::ablation_sorter", evaluation::ablation_sorter),
    ("evaluation::ablation_interp", evaluation::ablation_interp),
    ("evaluation::ablation_scaling", evaluation::ablation_scaling),
    ("evaluation::time_fractions", evaluation::time_fractions),
];

/// The paper-reproduction flow: `repro_all`'s 18 experiments on its pool,
/// then the 13 Figure-15 phase reports. Its inputs are the paper's fixed
/// problem sizes, so the seed changes nothing and the committed artifacts
/// are checked on every pass.
#[derive(Default)]
struct Repro {
    summary: String,
    phases: Option<Value>,
    phases_text: String,
}

impl Workload for Repro {
    /// The per-phase accelerator/GPU/CPU table that Figures 13, 15 and 16
    /// share. The experiments fill it once per process behind a
    /// `OnceLock`; built here through the same public functions, it can be
    /// timed more than once.
    fn setup(&mut self, tracer: &Tracer) {
        let cfg = ArchConfig::paper_default();
        let w = phases::Workload::paper();
        for phase in Phase::ALL {
            let stats = tracer
                .span("codegen::model_phase", || model_phase(&cfg, phase, &w))
                .expect("phases model at paper scale");
            let estimates = tracer.span("baseline::estimate", || baseline_estimates(phase, &w));
            black_box((stats, estimates));
        }
    }

    /// Fills the experiments' own phase table.
    fn warm_up(&mut self, tracer: &Tracer) {
        tracer.span("evaluation::fig13_gpu_vs_cpu", evaluation::fig13_gpu_vs_cpu);
    }

    fn pass(&mut self, tracer: &Tracer) {
        let reports = tracer.span("pool::run_indexed", || {
            let parent = Tracer::current();
            let jobs: Vec<Job> = EXPERIMENTS
                .iter()
                .map(|&(name, f)| Box::new(move || tracer.span_under(parent, name, f)) as Job)
                .collect();
            parallel::run_indexed(jobs)
        });
        self.summary = tracer.span("json::to_string_pretty", || {
            Value::array(reports.iter().map(ExperimentReport::to_json).collect()).to_string_pretty()
        });
        let phases = tracer.span("evaluation::phase_reports_json", evaluation::phase_reports_json);
        self.phases_text = tracer.span("json::to_string_pretty", || phases.to_string_pretty());
        self.phases = Some(phases);
    }

    fn check(&mut self, checks: &mut Checks) -> PassOutput {
        checks.check(committed("repro_summary.json").as_ref() == Some(&self.summary), || {
            "repro_summary.json differs from the pass's summary".to_owned()
        });
        checks.check(committed("phase_reports.json").as_ref() == Some(&self.phases_text), || {
            "phase_reports.json differs from the pass's phase reports".to_owned()
        });
        let cycles =
            self.phases.as_ref().and_then(Value::as_array).map_or(0, |a| {
                a.iter().filter_map(|r| r.get("stats")?.get("cycles")?.as_u64()).sum()
            });
        PassOutput {
            canonical: format!("{}{}", self.summary, self.phases_text),
            requests: EXPERIMENTS.len() as u64 + 1,
            cycles,
        }
    }
}

// ---------------------------------------------------------- serve-heavy

/// The steady-state serving hot path: the heavy 100k-request stream on the
/// paper's 4-shard fleet, chaos and observation off.
struct ServeHeavy {
    seed: u64,
    inputs: ServeInputs,
    report: Option<ServeReport>,
    text: String,
}

impl ServeHeavy {
    fn new(seed: u64) -> ServeHeavy {
        ServeHeavy { seed, inputs: ServeInputs::default(), report: None, text: String::new() }
    }
}

impl Workload for ServeHeavy {
    fn setup(&mut self, tracer: &Tracer) {
        // Drop the previous build first, so that memory holds one stream.
        self.inputs = ServeInputs::default();
        self.inputs = ServeInputs::build(tracer, &GeneratorConfig::heavy(self.seed));
    }

    fn pass(&mut self, tracer: &Tracer) {
        let inputs = &self.inputs;
        let report = tracer.span("fleet::run_fleet", || {
            run_fleet(
                &FleetConfig::paper_default(),
                &CacheConfig::paper_default(),
                inputs.catalog(),
                &inputs.requests,
            )
        });
        self.text = tracer.span("json::to_string_pretty", || report.to_json().to_string_pretty());
        self.report = Some(report);
    }

    fn check(&mut self, checks: &mut Checks) -> PassOutput {
        let report = self.report.as_ref().expect("a pass ran");
        check_conservation(checks, "serve-heavy", report, self.inputs.requests.len() as u64);
        if self.seed == HEAVY_SEED {
            let pinned = committed("serve_report.json")
                .and_then(|t| json::parse(&t).ok())
                .and_then(|doc| Some(doc.get("report")?.to_string_pretty()));
            checks.check(pinned.as_ref() == Some(&self.text), || {
                "serve_report.json's report differs from the pass's".to_owned()
            });
        }
        PassOutput {
            canonical: self.text.clone(),
            requests: report.counters.offered,
            cycles: busy_ns(report),
        }
    }

    fn serve_report(&self) -> Option<&ServeReport> {
        self.report.as_ref()
    }
}

// ---------------------------------------------------------- serve-chaos

/// Cold start, resilience and observability: the chaos-off baseline, the
/// 3 x 3 chaos sweep, and one observed cell whose timeline is built,
/// validated and serialised in memory.
struct ServeChaos {
    seed: u64,
    inputs: ServeInputs,
    out: Option<ChaosPass>,
}

struct ChaosPass {
    baseline: ServeReport,
    cells: Vec<ChaosCell>,
    observed: ServeReport,
    timeline: Result<usize, String>,
    timeline_hash: u64,
    doc: String,
}

impl ServeChaos {
    fn new(seed: u64) -> ServeChaos {
        ServeChaos { seed, inputs: ServeInputs::default(), out: None }
    }
}

impl Workload for ServeChaos {
    fn setup(&mut self, tracer: &Tracer) {
        self.inputs = ServeInputs::build(tracer, &gate_stream(self.seed));
    }

    fn pass(&mut self, tracer: &Tracer) {
        let (catalog, requests) = (self.inputs.catalog(), &self.inputs.requests);
        let gen = gate_stream(self.seed);
        let cache = CacheConfig::paper_default();
        let baseline = tracer
            .span("fleet::run_fleet", || run_fleet(&chaos_fleet(), &cache, catalog, requests));
        let p99 = baseline.p99_ns;
        let cells = tracer.span("sweep::chaos_sweep", || chaos_sweep(&gen, p99));
        let observed = tracer.span("fleet::run_fleet_observed", || {
            run_fleet_observed(
                &chaos_fleet(),
                &cache,
                catalog,
                requests,
                &ChaosConfig::intensity(CHAOS_SEED, 1),
                &Defense::full(p99),
                &ObserveConfig::full(gen.requests),
            )
        });
        let timeline = tracer.span("trace::fleet_timeline", || fleet_timeline(&observed));
        let (timeline, timeline_hash) = match timeline {
            Some(doc) => {
                let valid = tracer.span("profile::validate_timeline", || validate_timeline(&doc));
                let text = tracer.span("json::to_string", || doc.to_string());
                (valid.map(|c| c.spans), fnv1a(text.as_bytes()))
            }
            None => (Err("the observed cell carries no span ring".to_owned()), 0),
        };
        let doc = tracer.span("json::to_string_pretty", || {
            let cells_json = Value::array(cells.iter().map(ChaosCell::to_json).collect());
            Value::object()
                .with("mode", "full")
                .with("chaos_seed", CHAOS_SEED)
                .with("baseline_p99_ns", p99)
                .with("cells", cells_json)
                .to_string_pretty()
                + "\n"
        });
        self.out = Some(ChaosPass { baseline, cells, observed, timeline, timeline_hash, doc });
    }

    fn check(&mut self, checks: &mut Checks) -> PassOutput {
        let out = self.out.as_ref().expect("a pass ran");
        let offered = self.inputs.requests.len() as u64;
        check_conservation(checks, "serve-chaos baseline", &out.baseline, offered);
        for cell in &out.cells {
            check_conservation(checks, "serve-chaos cell", &cell.report, offered);
        }
        check_conservation(checks, "serve-chaos observed cell", &out.observed, offered);
        checks
            .check(out.timeline.is_ok(), || format!("fleet timeline invalid: {:?}", out.timeline));
        // Observation is read-only: without its additive sections the
        // observed cell is the plain mid-intensity, full-defence cell.
        let mut stripped = out.observed.clone();
        stripped.observability = None;
        stripped.trace = None;
        let plain = out.cells.iter().find(|c| c.intensity == 1 && c.defense == "full");
        checks.check(
            plain.is_some_and(|c| c.report.to_json().to_string() == stripped.to_json().to_string()),
            || "observed cell differs from the plain mid/full cell".to_owned(),
        );
        if self.seed == GATE_SEED {
            checks.check(committed("chaos_report.json").as_ref() == Some(&out.doc), || {
                "chaos_report.json differs from the pass's sweep".to_owned()
            });
            for intensity in 0..3 {
                let slo = |arm: &str| {
                    out.cells
                        .iter()
                        .find(|c| c.intensity == intensity && c.defense == arm)
                        .and_then(|c| c.report.resilience.as_ref())
                        .map_or(0, |r| r.overall_slo_permille())
                };
                checks.check(slo("full") > slo("none"), || {
                    format!("full defence does not beat none at intensity {intensity}")
                });
            }
        }
        let reports = || {
            std::iter::once(&out.baseline)
                .chain(out.cells.iter().map(|c| &c.report))
                .chain(std::iter::once(&out.observed))
        };
        PassOutput {
            canonical: format!(
                "{}{}\ntimeline {:016x}\n",
                out.doc,
                out.observed.to_json(),
                out.timeline_hash
            ),
            requests: reports().map(|r| r.counters.offered).sum(),
            cycles: reports().map(busy_ns).sum(),
        }
    }

    fn serve_report(&self) -> Option<&ServeReport> {
        self.out.as_ref().map(|o| &o.baseline)
    }
}

// ----------------------------------------------------------- accel-exec

/// One codegen-generated program with its DRAM image, ready to execute.
pub struct AccelCase {
    pub name: &'static str,
    pub program: Program,
    pub dram: Dram,
    /// DRAM range holding the program's outputs.
    pub out: (u64, usize),
    /// A DRAM range the program reads and rewrites, zeroed before a run.
    pub zero_before_run: Option<(u64, usize)>,
    /// Expected class per instance, for the tree walk.
    pub classes: Option<Vec<usize>>,
}

impl AccelCase {
    /// Executes the program once on `accel` and returns its statistics
    /// and output words.
    ///
    /// # Panics
    ///
    /// If the built-in program does not execute — a bug.
    pub fn run(&mut self, accel: &mut Accelerator) -> (ExecStats, Vec<f32>) {
        if let Some((addr, len)) = self.zero_before_run {
            self.dram.write_f32(addr, &vec![0.0; len]);
        }
        let report = accel.run(&self.program, &mut self.dram).expect("built-in program executes");
        (report.stats, self.dram.read_f32(self.out.0, self.out.1))
    }
}

/// Uniform values on a 1/16 grid, exact in binary16, so the accelerator's
/// fp16 datapath and an f32 reference make the same comparisons.
fn grid_values(rng: &mut SplitMix64, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.below(16) as f32 / 16.0).collect()
}

/// Sizes at which every MAC is executed: the `DistanceKernel` k-Means
/// shape of the `profile` timeline scaled to 16k streamed rows, plus the
/// NB-predict and tree-walk shapes of the model-vs-execution tests at 16k
/// rows and instances.
pub const KMEANS_ROWS: usize = 16_384;
pub const NB_ROWS: usize = 16_384;
pub const TREE_INSTANCES: usize = 16_384;

/// Generates the three programs and fills their DRAM images from `seed`.
///
/// # Panics
///
/// If a built-in kernel does not generate — a bug.
#[must_use]
pub fn accel_cases(seed: u64, tracer: &Tracer) -> Vec<AccelCase> {
    let cfg = ArchConfig::paper_default();
    let mut rng = SplitMix64::new(seed);

    let features = 16;
    let kmeans = DistanceKernel {
        name: "k-means",
        features,
        hot_rows: 64,
        cold_rows: KMEANS_ROWS,
        post: DistancePost::Sort { k: 1 },
    };
    let cold_dram = (64 * features) as u64;
    let out_dram = cold_dram + (KMEANS_ROWS * features) as u64;
    let plan = DistancePlan { hot_dram: 0, cold_dram, out_dram };
    let program = tracer.span("codegen::DistanceKernel::generate", || kmeans.generate(&cfg, &plan));
    let out_len = KMEANS_ROWS * kmeans.out_stride();
    let mut dram = Dram::new(out_dram as usize + out_len);
    tracer.span("accel::Dram::write_f32", || {
        dram.write_f32(0, &grid_values(&mut rng, (64 + KMEANS_ROWS) * features));
    });
    let kmeans = AccelCase {
        name: "kmeans",
        program: program.expect("k-means distance kernel generates"),
        dram,
        out: (out_dram, out_len),
        zero_before_run: None,
        classes: None,
    };

    let width = 9;
    let nb = NbPredictKernel { rows: NB_ROWS, width };
    let out_dram = (NB_ROWS * width) as u64;
    let program = tracer.span("codegen::NbPredictKernel::generate", || {
        nb.generate(&cfg, &NbPredictPlan { rows_dram: 0, out_dram })
    });
    let mut dram = Dram::new(out_dram as usize + NB_ROWS);
    tracer.span("accel::Dram::write_f32", || {
        let rows: Vec<f32> =
            grid_values(&mut rng, NB_ROWS * width).iter().map(|v| 0.5 + v / 2.0).collect();
        dram.write_f32(0, &rows);
    });
    let nb = AccelCase {
        name: "nb_predict",
        program: program.expect("NB-predict kernel generates"),
        dram,
        out: (out_dram, NB_ROWS),
        zero_before_run: None,
        classes: None,
    };

    let (depth, features) = (6u32, 4usize);
    let mut tree = HeapTree::new(depth);
    for i in 0..HeapTree::level_start(depth - 1) {
        tree.set_split(i, rng.below(features as u64) as usize, rng.below(16) as f32 / 16.0);
    }
    for i in HeapTree::level_start(depth - 1)..tree.nodes() {
        tree.set_leaf(i, rng.below(3) as usize);
    }
    let instances = grid_values(&mut rng, TREE_INSTANCES * features);
    let classes = instances.chunks(features).map(|x| tree.classify(x)).collect();
    let tree_words = tree.words().len() as u64;
    let plan = TreeWalkPlan {
        tree_dram: 0,
        instances_dram: tree_words,
        states_dram: tree_words + (TREE_INSTANCES * features) as u64,
    };
    let walk = TreeWalkKernel { depth, features, instances: TREE_INSTANCES };
    let program = tracer.span("codegen::TreeWalkKernel::generate", || walk.generate(&cfg, &plan));
    let mut dram = Dram::new(plan.states_dram as usize + TREE_INSTANCES);
    tracer.span("accel::Dram::write_f32", || {
        dram.write_f32(0, tree.words());
        dram.write_f32(plan.instances_dram, &instances);
    });
    let walk = AccelCase {
        name: "tree_walk",
        program: program.expect("tree-walk kernel generates"),
        dram,
        out: (plan.states_dram, TREE_INSTANCES),
        zero_before_run: Some((plan.states_dram, TREE_INSTANCES)),
        classes: Some(classes),
    };
    vec![kmeans, nb, walk]
}

/// The accelerator datapath doing the work: functional execution of three
/// codegen-generated programs, every MAC executed. Untraced in timed
/// passes; with the benchmark's tracer on, the accelerator's own trace is
/// on too, and the outputs must not change.
struct AccelExec {
    seed: u64,
    cases: Vec<AccelCase>,
    plain: Option<Accelerator>,
    traced: Option<Accelerator>,
    runs: Vec<(ExecStats, Vec<f32>)>,
}

impl AccelExec {
    fn new(seed: u64) -> AccelExec {
        AccelExec { seed, cases: Vec::new(), plain: None, traced: None, runs: Vec::new() }
    }
}

impl Workload for AccelExec {
    fn setup(&mut self, tracer: &Tracer) {
        self.cases = accel_cases(self.seed, tracer);
        let cfg = ArchConfig::paper_default();
        self.plain = Some(tracer.span("accel::Accelerator::new", || {
            Accelerator::new(cfg.clone()).expect("paper config is valid")
        }));
        self.traced = Some(tracer.span("accel::AcceleratorBuilder::build", || {
            Accelerator::builder(cfg)
                .trace(TraceConfig::full())
                .build()
                .expect("paper config is valid")
        }));
    }

    fn pass(&mut self, tracer: &Tracer) {
        let accel = if tracer.is_on() { &mut self.traced } else { &mut self.plain };
        let accel = accel.as_mut().expect("setup ran");
        self.runs = self
            .cases
            .iter_mut()
            .map(|case| tracer.span("accel::Accelerator::run", || case.run(accel)))
            .collect();
    }

    fn check(&mut self, checks: &mut Checks) -> PassOutput {
        let cfg = ArchConfig::paper_default();
        let mut canonical = String::new();
        for (case, (stats, out)) in self.cases.iter().zip(&self.runs) {
            let modelled = program_stats(&cfg, &case.program);
            checks.check(*stats == modelled, || {
                format!("{}: executed stats differ from codegen program_stats", case.name)
            });
            if let Some(classes) = &case.classes {
                let walked: Vec<Option<usize>> =
                    out.iter().map(|&s| TreeWalkKernel::decode_state(s)).collect();
                let expected: Vec<Option<usize>> = classes.iter().map(|&c| Some(c)).collect();
                checks.check(walked == expected, || {
                    format!("{}: classes differ from HeapTree::classify", case.name)
                });
            }
            let bits: Vec<u8> = out.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
            canonical += &format!("{} {} {:016x}\n", case.name, stats.to_json(), fnv1a(&bits));
        }
        PassOutput {
            canonical,
            requests: self.runs.len() as u64,
            cycles: self.runs.iter().map(|(s, _)| s.cycles).sum(),
        }
    }
}
