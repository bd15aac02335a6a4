//! Storage-mode ablation: materializing the CSR design vs regenerating
//! pools from seeds (the Fig. 2 large-n enabler), plus the two query
//! execution paths; and the serving tier's cold-miss layer at its shape
//! (n = 1000, m = 334, Γ = 500): one single-threaded sample per family
//! (plus a sparse Γ = 20 pool), and the durable tier's snapshot spill and
//! reload.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pooled_core::query::{execute_queries, execute_queries_support};
use pooled_core::signal::Signal;
use pooled_design::csr::CsrDesign;
use pooled_design::factory::DesignKind;
use pooled_design::streaming::StreamingDesign;
use pooled_engine::cache::DesignKey;
use pooled_engine::durability::snapshot::{load_design, spill_design};
use pooled_par::pool::pool_with_threads;
use pooled_rng::SeedSequence;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("design");
    group.sample_size(10);
    let n = 20_000;
    let m = 800;
    let seeds = SeedSequence::new(1905);

    group.bench_function("sample_csr", |b| {
        b.iter(|| black_box(CsrDesign::sample(n, m, n / 2, &seeds)));
    });

    let csr = CsrDesign::sample(n, m, n / 2, &seeds);
    let stream = StreamingDesign::new(n, m, n / 2, &seeds);
    let sigma = Signal::random(n, 20, &mut seeds.child("signal", 0).rng());

    group.bench_function("execute_csr_dense", |b| {
        b.iter(|| black_box(execute_queries(&csr, &sigma)));
    });
    group.bench_function("execute_csr_support", |b| {
        b.iter(|| black_box(execute_queries_support(&csr, &sigma)));
    });
    group.bench_function("execute_streaming", |b| {
        b.iter(|| black_box(execute_queries(&stream, &sigma)));
    });
    group.finish();

    let mut group = c.benchmark_group("serving_design");
    group.sample_size(20);
    let one_thread = pool_with_threads(1);
    for kind in DesignKind::ALL {
        let key = DesignKey { n: 1000, m: 334, kind, c_milli: 500, seed: 31 };
        group.bench_function(format!("sample_1t/{}", kind.name()), |b| {
            b.iter(|| one_thread.install(|| black_box(key.sample())));
        });
    }
    // Γ = 20 ≪ n: rows take the sort path instead of the count path.
    let sparse =
        DesignKey { n: 1000, m: 334, kind: DesignKind::RandomRegular, c_milli: 20, seed: 31 };
    group.bench_function("sample_1t/random_regular_sparse", |b| {
        b.iter(|| one_thread.install(|| black_box(sparse.sample())));
    });
    let key = DesignKey { c_milli: 500, ..sparse };
    let design = key.sample();
    let dir = std::env::temp_dir().join(format!("pooled-bench-snapshots-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("snapshot bench dir");
    group.bench_function("snapshot_spill", |b| {
        b.iter(|| spill_design(&dir, &key, black_box(&design)).expect("spill"));
    });
    group.bench_function("snapshot_load", |b| {
        b.iter(|| black_box(load_design(&dir, &key).expect("valid snapshot").expect("present")));
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench);
criterion_main!(benches);
