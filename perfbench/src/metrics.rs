//! The names the benchmark emits, with unit and direction. `BENCHMARK.json`
//! must list exactly these; the test below holds the two together.

/// `(name, unit, better)` of one metric.
pub type Metric = (&'static str, &'static str, &'static str);

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["repro", "serve-heavy", "serve-chaos", "accel-exec"];

/// Reported by every untraced run (`--trace 0`).
pub const END_TO_END: [Metric; 4] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Reported by every traced run (`--trace 1`).
pub const PER_LAYER: [Metric; 41] = [
    ("serve.pool.worker_count_us", "us", "lower"),
    ("serve.pool.fork_join_us", "us", "lower"),
    ("serve.fleet.batches", "count", "lower"),
    ("serve.fleet.requests_per_batch", "req/batch", "higher"),
    ("serve.fleet.reconfigs", "count", "lower"),
    ("serve.catalog.replay_us", "us", "lower"),
    ("serve.catalog.record_us", "us", "lower"),
    ("serve.catalog.hit_ratio", "ratio", "higher"),
    ("serve.catalog.resident_kb", "KB", "lower"),
    ("serve.admission.offer_ns", "ns", "lower"),
    ("serve.admission.shed_ratio", "ratio", "lower"),
    ("serve.gen.generate_ms", "ms", "lower"),
    ("serve.chaos.cell_ms", "ms", "lower"),
    ("serve.chaos.legs_per_request", "legs/req", "lower"),
    ("serve.trace.overhead_ratio", "ratio", "lower"),
    ("serve.trace.timeline_ms", "ms", "lower"),
    ("memsim.soa_maccesses_per_s", "Maccesses/s", "higher"),
    ("memsim.run_buffered_mops_per_s", "Mops/s", "higher"),
    ("memsim.engine_reset_ns", "ns", "lower"),
    ("memsim.hit_ratio", "ratio", "higher"),
    ("softfp.to_f32_ns", "ns", "lower"),
    ("softfp.from_f32_ns", "ns", "lower"),
    ("softfp.quantize_ns", "ns", "lower"),
    ("mlkit.table1_ms", "ms", "lower"),
    ("codegen.model_phase_us", "us", "lower"),
    ("codegen.generate_ms", "ms", "lower"),
    ("codegen.program_stats_us", "us", "lower"),
    ("baseline.fig13_ms", "ms", "lower"),
    ("accel.kmeans.run_ms", "ms", "lower"),
    ("accel.nb_predict.run_ms", "ms", "lower"),
    ("accel.tree_walk.run_ms", "ms", "lower"),
    ("accel.trace_overhead_ratio", "ratio", "lower"),
    ("accel.instructions", "count", "lower"),
    ("accel.sim_cycles", "cycles", "lower"),
    ("accel.json.serialise_ms", "ms", "lower"),
    ("accel.json.parse_ms", "ms", "lower"),
    ("bench.sim_requests_per_s", "req/s", "higher"),
    ("bench.sim_cycles_per_s", "cycles/s", "higher"),
    ("bench.traced_pass_s", "s", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.failed_ratio", "ratio", "lower"),
];

/// The unit of a catalogued metric.
///
/// # Panics
///
/// If `name` is not catalogued — a bug in the benchmark.
#[must_use]
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
        .1
}

#[cfg(test)]
mod tests {
    use super::*;
    use pudiannao_accel::json::{self, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Value, key: &str) -> Vec<[String; 3]> {
        let field = |m: &Value, k: &str| {
            m.get(k).and_then(Value::as_str).expect("metric fields are strings").to_owned()
        };
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| [field(m, "name"), field(m, "unit"), field(m, "better")])
            .collect()
    }

    fn owned(metrics: &[Metric]) -> Vec<[String; 3]> {
        metrics.iter().map(|m| [m.0.to_owned(), m.1.to_owned(), m.2.to_owned()]).collect()
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn emitted_workloads_match_benchmark_json() {
        let doc = benchmark_json();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("workload name"))
            .collect();
        assert_eq!(names, WORKLOADS.to_vec());
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.0).collect();
        all.extend(WORKLOADS);
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
