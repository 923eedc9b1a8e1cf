//! Section-2 locality experiments: Figures 2, 4, 5, 8, 9 and 10.
//!
//! The bandwidth figures run their untiled/tiled points as
//! [`crate::parallel::run_indexed`] jobs over an [`EnginePool`]: with one
//! `REPRO_THREADS` worker the points run in order and the second reuses
//! the first's engine allocation; with more workers each point claims its
//! own engine and the pair runs concurrently. Either way the reported
//! numbers are identical — they derive only from each point's own cache
//! statistics.

use crate::{banner, parallel, series_row, Check, ExperimentReport};
use pudiannao_memsim::{
    kernels, BandwidthReport, CacheConfig, ReuseProfiler, SimdEngine, Workload,
};
use std::sync::Mutex;

/// A pool of reusable [`SimdEngine`]s: jobs check one out, run, and
/// return it, so sequential jobs share one cache allocation (and scratch
/// block) while concurrent jobs each build their own on first use.
struct EnginePool {
    cfg: CacheConfig,
    free: Mutex<Vec<SimdEngine>>,
}

impl EnginePool {
    fn new(cfg: CacheConfig) -> EnginePool {
        EnginePool { cfg, free: Mutex::new(Vec::new()) }
    }

    fn with_engine<T>(&self, f: impl FnOnce(&mut SimdEngine) -> T) -> T {
        let pooled = self.free.lock().expect("engine pool lock").pop();
        let mut engine = pooled
            .unwrap_or_else(|| SimdEngine::new(self.cfg.clone()).expect("valid cache config"));
        let out = f(&mut engine);
        self.free.lock().expect("engine pool lock").push(engine);
        out
    }
}

/// Runs a figure's untiled and tiled points as parallel jobs over pooled
/// engines, dispatching both through [`Workload::run`] (the batched
/// trace path); returns `(untiled, tiled)`.
fn untiled_tiled_pair(
    cfg: &CacheConfig,
    untiled: &dyn Workload,
    tiled: &dyn Workload,
) -> (BandwidthReport, BandwidthReport) {
    let pool = EnginePool::new(cfg.clone());
    let jobs: Vec<Box<dyn FnOnce() -> BandwidthReport + Send + '_>> = vec![
        Box::new(|| pool.with_engine(|e| untiled.run(e).report())),
        Box::new(|| pool.with_engine(|e| tiled.run(e).report())),
    ];
    let mut reports = parallel::run_indexed(jobs);
    let t = reports.pop().expect("two jobs");
    let u = reports.pop().expect("two jobs");
    (u, t)
}

/// Figure 2: k-NN distance-calculation bandwidth, untiled vs tiled.
#[must_use]
pub fn fig02_knn_tiling() -> ExperimentReport {
    banner("fig02", "k-NN distance bandwidth, untiled vs 32x32 tiled");
    let cfg = CacheConfig::paper_default();
    // The paper's locality study: 32-dim fp32 instances, references far
    // beyond cache capacity.
    let shape = kernels::knn::DistanceShape { testing: 512, reference: 2048, features: 32 };
    let (untiled, tiled) = untiled_tiled_pair(
        &cfg,
        &kernels::knn::Untiled { shape },
        &kernels::knn::Tiled::bandwidth(shape, 32, 32),
    );
    series_row("untiled bandwidth", untiled.gb_per_s(), "GB/s");
    series_row("tiled bandwidth", tiled.gb_per_s(), "GB/s");
    let reduction = tiled.reduction_vs(&untiled);
    let check = Check::new("bandwidth reduction from tiling (%)", 93.9, reduction);
    check.print();
    ExperimentReport {
        id: "fig02".into(),
        title: "k-NN distance bandwidth vs tiling".into(),
        checks: vec![check],
    }
}

/// Figure 4: k-Means distance bandwidth (k = 64), untiled vs tiled.
#[must_use]
pub fn fig04_kmeans_tiling() -> ExperimentReport {
    banner("fig04", "k-Means distance bandwidth (k = 64), untiled vs tiled");
    let cfg = CacheConfig::paper_default();
    let shape = kernels::kmeans::KMeansShape { instances: 4096, centroids: 64, features: 32 };
    let (untiled, tiled) = untiled_tiled_pair(
        &cfg,
        &kernels::kmeans::Untiled { shape },
        &kernels::kmeans::Tiled { shape, tc: 32, tn: 32 },
    );
    series_row("untiled bandwidth", untiled.gb_per_s(), "GB/s");
    series_row("tiled bandwidth", tiled.gb_per_s(), "GB/s");
    let check =
        Check::new("bandwidth reduction from tiling (%)", 92.5, tiled.reduction_vs(&untiled));
    check.print();
    ExperimentReport {
        id: "fig04".into(),
        title: "k-Means distance bandwidth vs tiling".into(),
        checks: vec![check],
    }
}

/// Figure 5: DNN feedforward bandwidth (Na = 16384), untiled vs tiled.
#[must_use]
pub fn fig05_dnn_tiling() -> ExperimentReport {
    banner("fig05", "DNN feedforward bandwidth (Na = 16384), untiled vs tiled");
    let cfg = CacheConfig::paper_default();
    let shape = kernels::dnn::LayerShape { inputs: 16384, outputs: 256 };
    let (untiled, tiled) = untiled_tiled_pair(
        &cfg,
        &kernels::dnn::Untiled { shape },
        &kernels::dnn::Tiled { shape, t: 4096 },
    );
    series_row("untiled bandwidth", untiled.gb_per_s(), "GB/s");
    series_row("tiled bandwidth", tiled.gb_per_s(), "GB/s");
    let check =
        Check::new("bandwidth reduction from tiling (%)", 46.7, tiled.reduction_vs(&untiled));
    check.print();
    ExperimentReport {
        id: "fig05".into(),
        title: "DNN feedforward bandwidth vs tiling".into(),
        checks: vec![check],
    }
}

/// Figure 8: LR prediction bandwidth (d = 16384), untiled vs tiled.
#[must_use]
pub fn fig08_lr_tiling() -> ExperimentReport {
    banner("fig08", "LR prediction bandwidth (d = 16384), untiled vs tiled");
    let cfg = CacheConfig::paper_default();
    let shape = kernels::linreg::LinRegShape { coefficients: 16384, instances: 256 };
    let (untiled, tiled) = untiled_tiled_pair(
        &cfg,
        &kernels::linreg::Untiled { shape },
        &kernels::linreg::Tiled { shape, t: 4096 },
    );
    series_row("untiled bandwidth", untiled.gb_per_s(), "GB/s");
    series_row("tiled bandwidth", tiled.gb_per_s(), "GB/s");
    let check =
        Check::new("bandwidth reduction from tiling (%)", 46.7, tiled.reduction_vs(&untiled));
    check.print();
    ExperimentReport {
        id: "fig08".into(),
        title: "LR prediction bandwidth vs tiling".into(),
        checks: vec![check],
    }
}

/// Figure 9: SVM kernel-matrix bandwidth (d = 32), untiled vs tiled.
#[must_use]
pub fn fig09_svm_tiling() -> ExperimentReport {
    banner("fig09", "SVM kernel-matrix bandwidth (d = 32), untiled vs tiled");
    let cfg = CacheConfig::paper_default();
    let shape = kernels::svm::KernelMatrixShape { train: 2048, features: 32 };
    let (untiled, tiled) = untiled_tiled_pair(
        &cfg,
        &kernels::svm::Untiled { shape },
        &kernels::svm::Tiled { shape, ti: 32, tj: 32 },
    );
    series_row("untiled bandwidth", untiled.gb_per_s(), "GB/s");
    series_row("tiled bandwidth", tiled.gb_per_s(), "GB/s");
    let check =
        Check::new("bandwidth reduction from tiling (%)", 93.9, tiled.reduction_vs(&untiled));
    check.print();
    ExperimentReport {
        id: "fig09".into(),
        title: "SVM kernel-matrix bandwidth vs tiling".into(),
        checks: vec![check],
    }
}

/// Figure 10: per-variable reuse-distance clustering.
///
/// This figure finishes in ~15 ms, so it deliberately stays on the plain
/// hash-map [`ReuseProfiler`] run sequentially: an Olken-style tree (or
/// parallel points) would complicate the instrumentation for no
/// measurable `repro_all` win. The two traces do share one profiler via
/// [`Workload::profile`], reusing its slot-table allocation.
#[must_use]
pub fn fig10_reuse_distance() -> ExperimentReport {
    banner("fig10", "reuse-distance classes (tiled k-NN vs NB training)");
    let mut profiler = ReuseProfiler::new(4);
    // (a) tiled k-NN distance calculations: 3 classes.
    let shape = kernels::knn::DistanceShape { testing: 96, reference: 96, features: 32 };
    let knn = kernels::knn::Tiled::reuse(shape, 32, 32).profile(&mut profiler);
    let knn_classes = knn.classes(3.0);
    for (i, c) in knn_classes.iter().enumerate() {
        series_row(
            &format!("k-NN class {i} mean distance"),
            (c.min_distance + c.max_distance) / 2.0,
            &format!("instructions ({} vars)", c.members),
        );
    }
    // (b) NB training: 2 classes (instance data at ~1; counters spread).
    let nb_shape = kernels::nb::NbShape { instances: 512, features: 8, values: 4, classes: 5 };
    let nb = kernels::nb::Training { shape: nb_shape, seed: 42 }.profile(&mut profiler);
    let nb_classes = nb.classes(8.0);
    for (i, c) in nb_classes.iter().enumerate() {
        series_row(
            &format!("NB class {i} mean distance"),
            (c.min_distance + c.max_distance) / 2.0,
            &format!("instructions ({} vars)", c.members),
        );
    }
    let c1 = Check::new("tiled k-NN reuse-distance classes", 3.0, knn_classes.len() as f64);
    // The paper reports 2 classes; our finer-grained trace also separates
    // the candidate-value table, so >= 2 is the faithful statement.
    let c2 = Check::new("NB training reuse-distance classes (>=)", 2.0, nb_classes.len() as f64);
    c1.print();
    c2.print();
    ExperimentReport {
        id: "fig10".into(),
        title: "reuse-distance clustering".into(),
        checks: vec![c1, c2],
    }
}
