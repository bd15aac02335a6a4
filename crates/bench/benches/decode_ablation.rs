//! Decode-path ablation: scatter vs gather accumulation × top-k vs
//! full-sort selection — the design choices DESIGN.md calls out — plus
//! the served MN-family decoders at the serving shape.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use pooled_core::mn::{DecodeStrategy, MnDecoder, SelectionMethod};
use pooled_core::query::execute_queries;
use pooled_core::signal::Signal;
use pooled_design::factory::DesignKind;
use pooled_design::multigraph::{RandomRegularDesign, StorageMode};
use pooled_engine::cache::DesignKey;
use pooled_engine::job::DecoderKind;
use pooled_engine::registry::{decoder, DecodeScratch};
use pooled_par::pool::pool_with_threads;
use pooled_rng::SeedSequence;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode_ablation");
    group.sample_size(10);
    let n = 50_000;
    let k = 25; // ≈ n^0.3
    let m = 1500;
    let seeds = SeedSequence::new(1905);
    let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
    let design = RandomRegularDesign::sample_with(
        n,
        m,
        n / 2,
        &seeds.child("design", 0),
        StorageMode::Materialized,
    );
    let y = execute_queries(&design, &sigma);

    let cases: [(&str, DecodeStrategy, SelectionMethod); 4] = [
        ("scatter_topk", DecodeStrategy::Scatter, SelectionMethod::TopK),
        ("scatter_fullsort", DecodeStrategy::Scatter, SelectionMethod::FullSort),
        ("gather_topk", DecodeStrategy::Gather, SelectionMethod::TopK),
        ("gather_fullsort", DecodeStrategy::Gather, SelectionMethod::FullSort),
    ];
    for (name, strategy, selection) in cases {
        group.bench_function(name, |b| {
            let decoder = MnDecoder::new(k).with_strategy(strategy).with_selection(selection);
            b.iter(|| black_box(decoder.decode_design(&design, &y)));
        });
    }
    group.finish();
}

/// The three served MN-family decoders through the registry, as a worker
/// calls them, at the serving shape (n = 1000, m = 334, Γ = 500) on one
/// thread; the per-element time is per stored incidence (ns/nnz).
fn serving_decoders(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving_decoders");
    group.sample_size(20);
    let key =
        DesignKey { n: 1000, m: 334, kind: DesignKind::RandomRegular, c_milli: 500, seed: 31 };
    let design = key.sample();
    let k = 8;
    let seeds = SeedSequence::new(1906);
    let sigma = Signal::random(key.n, k, &mut seeds.child("signal", 0).rng());
    let y = execute_queries(&design, &sigma);
    group.throughput(Throughput::Elements(design.csr().nnz() as u64));
    let one_thread = pool_with_threads(1);
    for kind in [DecoderKind::Mn, DecoderKind::GeneralMn, DecoderKind::ThresholdMn] {
        let served = decoder(kind);
        let mut scratch = DecodeScratch::new();
        group.bench_function(kind.name(), |b| {
            one_thread.install(|| {
                b.iter(|| served.decode(&design, black_box(&y), k, 0, sigma.dense(), &mut scratch))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench, serving_decoders);
criterion_main!(benches);
