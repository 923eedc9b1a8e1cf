//! Criterion benches for the Section-2 cache simulator — the tiling
//! experiments of Figures 2 and 4 as timed workloads.

use criterion::{criterion_group, criterion_main, Criterion};
use pudiannao_memsim::{kernels, Access, Addr, Cache, CacheConfig, VarClass};

use kernels::run_fresh;

fn bench_cache_throughput(c: &mut Criterion) {
    c.bench_function("memsim/cache_1m_sequential_reads", |b| {
        b.iter_batched(
            || Cache::new(CacheConfig::paper_default()).expect("valid"),
            |mut cache| {
                for i in 0..1_000_000u64 {
                    cache.access_scalar(Access::read(
                        Addr((i * 32) % (1 << 22)),
                        32,
                        VarClass::Hot,
                    ));
                }
                cache.stats().offchip_bytes()
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

fn bench_knn_tiling(c: &mut Criterion) {
    let cfg = CacheConfig::paper_default();
    let shape = kernels::knn::DistanceShape { testing: 64, reference: 512, features: 32 };
    c.bench_function("memsim/fig02_knn_untiled", |b| {
        b.iter(|| run_fresh(&kernels::knn::Untiled { shape }, &cfg));
    });
    c.bench_function("memsim/fig02_knn_tiled", |b| {
        b.iter(|| run_fresh(&kernels::knn::Tiled::bandwidth(shape, 32, 32), &cfg));
    });
}

fn bench_kmeans_tiling(c: &mut Criterion) {
    let cfg = CacheConfig::paper_default();
    let shape = kernels::kmeans::KMeansShape { instances: 1024, centroids: 64, features: 32 };
    c.bench_function("memsim/fig04_kmeans_tiled", |b| {
        b.iter(|| run_fresh(&kernels::kmeans::Tiled { shape, tc: 32, tn: 32 }, &cfg));
    });
}

fn config() -> Criterion {
    Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_cache_throughput, bench_knn_tiling, bench_kmeans_tiling
}
criterion_main!(benches);
