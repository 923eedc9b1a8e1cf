//! Runs every reproduction experiment and writes `repro_summary.json`
//! plus `phase_reports.json` (one machine-readable `RunReport` per
//! Figure-15 phase).
//!
//! The experiments are independent, so they run on the
//! `pudiannao_bench::parallel` worker pool (capped by `REPRO_THREADS`;
//! set it to 1 for fully sequential console output). Results are
//! collected in experiment order, so both JSON files are byte-identical
//! whatever the worker count — only the interleaving of the progress
//! lines on stdout changes.
//!
//! Both outputs are opened before the experiments run, so an unwritable
//! working directory fails at once (`error: cannot write …`, exit 1)
//! rather than after the whole run; a file already there keeps its bytes
//! until the new ones are ready.

use pudiannao_accel::json::Value;
use pudiannao_bench::{evaluation, locality, parallel, ExperimentReport};
use std::fs::File;
use std::io::Write;

type Job = Box<dyn FnOnce() -> ExperimentReport + Send>;

fn cannot_write(path: &str, e: &std::io::Error) -> ! {
    eprintln!("error: cannot write {path}: {e}");
    std::process::exit(1);
}

fn open(path: &str) -> File {
    File::options()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .unwrap_or_else(|e| cannot_write(path, &e))
}

fn replace_contents(mut file: File, path: &str, text: &str) {
    if let Err(e) = file.set_len(0).and_then(|()| file.write_all(text.as_bytes())) {
        cannot_write(path, &e);
    }
}

fn main() {
    let summary_file = open("repro_summary.json");
    let phases_file = open("phase_reports.json");
    let jobs: Vec<Job> = vec![
        Box::new(locality::fig02_knn_tiling),
        Box::new(locality::fig04_kmeans_tiling),
        Box::new(locality::fig05_dnn_tiling),
        Box::new(locality::fig08_lr_tiling),
        Box::new(locality::fig09_svm_tiling),
        Box::new(locality::fig10_reuse_distance),
        Box::new(evaluation::table1_precision),
        Box::new(evaluation::table3_codegen),
        Box::new(evaluation::table5_layout),
        Box::new(evaluation::fig14_floorplan),
        Box::new(evaluation::fig13_gpu_vs_cpu),
        Box::new(evaluation::fig15_speedup),
        Box::new(evaluation::fig16_energy),
        Box::new(evaluation::ablation_buffers),
        Box::new(evaluation::ablation_sorter),
        Box::new(evaluation::ablation_interp),
        Box::new(evaluation::ablation_scaling),
        Box::new(evaluation::time_fractions),
    ];
    let workers = parallel::worker_count(jobs.len());
    if workers > 1 {
        println!("running {} experiments on {workers} workers", jobs.len());
    }
    let reports = parallel::run_indexed(jobs);
    let json =
        Value::array(reports.iter().map(ExperimentReport::to_json).collect()).to_string_pretty();
    replace_contents(summary_file, "repro_summary.json", &json);
    println!("\nwrote repro_summary.json ({} experiments)", reports.len());

    let phase_json = evaluation::phase_reports_json();
    replace_contents(phases_file, "phase_reports.json", &phase_json.to_string_pretty());
    println!("wrote phase_reports.json (13 per-phase run reports)");
}
