//! Per-job fused decode vs the two batched kernels.
//!
//! `per_job_fused/B{B}` runs `B` independent jobs through the single-job
//! fused kernel (`decode_sums_fused`) — `B` traversals of the design's
//! CSR index arrays. `batched/B{B}` serves the same `B` jobs through the
//! design-major dense kernel `decode_sums_fused_batch` — one traversal
//! with lane-major planes and a shared Δ*. `support/B{B}` serves them
//! through the support-driven, item-major kernel
//! `decode_sums_support_batch` that the engine's workers and the batched
//! Monte-Carlo trials run: y from each lane's support over the transpose,
//! Ψ gathered item by item for a chunk of 8 lanes at once. Same design,
//! same signals, bit-identical outputs. `finish/B{B}` adds the per-lane
//! selection tail (`decode_batch_with` semantics) so the end-to-end
//! decode is covered.
//!
//! Every benchmark reports its median per incidence per lane
//! (`thrpt: [… ns/elem]`, one element = one of the design's `nnz`
//! distinct incidences for one lane), so batch widths compare directly.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use pooled_core::batch::BatchWorkspace;
use pooled_core::mn::MnDecoder;
use pooled_core::signal::Signal;
use pooled_design::batched::{
    decode_sums_fused_batch, decode_sums_support_batch, support_plane_rows, LANE_CHUNK,
};
use pooled_design::csr::CsrDesign;
use pooled_design::fused::{decode_sums_fused, FusedArena};
use pooled_rng::SeedSequence;

const BATCHES: [usize; 5] = [1, 4, 8, 16, 32];

fn lane_signals(n: usize, k: usize, lanes: usize, seeds: &SeedSequence) -> Vec<Signal> {
    (0..lanes).map(|b| Signal::random(n, k, &mut seeds.child("signal", b as u64).rng())).collect()
}

fn bench_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_decode");
    group.sample_size(12);
    // The serving benchmark's shape (n=1000, Γ=n/2) — the hot path.
    let (n, m, k) = (1000usize, 334usize, 8usize);
    let seeds = SeedSequence::new(1905);
    let design = CsrDesign::sample(n, m, n / 2, &seeds.child("design", 0));
    // One worker, like an engine shard: the kernels are sequential and
    // the comparison is pure memory traffic, not parallel fan-out.
    let pool = pooled_par::pool::pool_with_threads(1);
    pool.install(|| {
        for &lanes in &BATCHES {
            group.throughput(Throughput::Elements((design.nnz() * lanes) as u64));
            let sigmas = lane_signals(n, k, lanes, &seeds);
            let xs: Vec<u8> = sigmas.iter().flat_map(|s| s.dense().iter().copied()).collect();
            let xs_u64: Vec<u64> = xs.iter().map(|&v| v as u64).collect();

            let mut arena = FusedArena::new();
            let (mut y, mut psi, mut dstar) = (vec![0u64; m], vec![0u64; n], vec![0u64; n]);
            group.bench_function(format!("per_job_fused/B{lanes}"), |b| {
                b.iter(|| {
                    for lane in 0..lanes {
                        decode_sums_fused(
                            &design,
                            &xs_u64[lane * n..(lane + 1) * n],
                            &mut y,
                            &mut psi,
                            &mut dstar,
                            &mut arena,
                        );
                    }
                    black_box(psi.first().copied())
                });
            });

            let (mut ys, mut psis, mut dstar_b) =
                (vec![0u64; lanes * m], vec![0u64; lanes * n], vec![0u64; n]);
            group.bench_function(format!("batched/B{lanes}"), |b| {
                b.iter(|| {
                    decode_sums_fused_batch(&design, &xs, lanes, &mut ys, &mut psis, &mut dstar_b);
                    black_box(psis.first().copied())
                });
            });

            let (mut supports, mut bounds) = (Vec::new(), vec![0]);
            for sigma in &sigmas {
                supports.extend_from_slice(sigma.support());
                bounds.push(supports.len());
            }
            let mut plane = vec![[0u64; LANE_CHUNK]; support_plane_rows(lanes, m)];
            group.bench_function(format!("support/B{lanes}"), |b| {
                b.iter(|| {
                    decode_sums_support_batch(
                        &design,
                        black_box(&supports),
                        &bounds,
                        &mut plane,
                        &mut psis,
                        &mut dstar_b,
                    );
                    black_box(psis.first().copied())
                });
            });

            // End-to-end batched decode including the per-lane finish.
            let decoder = MnDecoder::new(k);
            let mut bw = BatchWorkspace::new();
            decode_sums_fused_batch(&design, &xs, lanes, &mut ys, &mut psis, &mut dstar_b);
            let ys_known = ys.clone();
            group.bench_function(format!("finish/B{lanes}"), |b| {
                b.iter(|| {
                    let mut picked = 0usize;
                    decoder.decode_batch_with(&design, &ys_known, lanes, &mut bw, |_, ws| {
                        picked += ws.support().len();
                    });
                    black_box(picked)
                });
            });
        }
    });
    group.finish();
}

criterion_group!(benches, bench_batched);
criterion_main!(benches);
