//! Fused single-pass decode kernels with caller-provided buffers.
//!
//! A Monte-Carlo trial of Algorithm 1 is three sparse products over the same
//! design: `y = Aᵀσ` (query execution), `Ψ = M·y` and `Δ* = M·1` (the
//! decoder's neighborhood sums). The separate kernels in [`crate::matvec`]
//! walk the design once per product; the kernels here walk it **once in
//! total** — for each query row, the gathered `y_q` is scattered into Ψ/Δ*
//! while the row is still in cache — and write into caller-provided buffers,
//! so replicate loops reuse memory instead of allocating three vectors per
//! decode.
//!
//! Output guarantee: all sums are exact `u64` additions (commutative and
//! associative), so every kernel here is **bit-identical** to the
//! `pool_sums_u64` + `scatter_distinct_u64` composition it replaces, for any
//! worker count — the property suite pins this down.
//!
//! Three entry points:
//!
//! * [`decode_sums_fused`] — materialized CSR, one traversal for `y`/Ψ/Δ*.
//! * [`decode_sums_fused_stream`] — any design; each query's pool is
//!   produced **once** and double-used from a per-worker pair scratch
//!   (streaming designs otherwise pay two full regenerations).
//! * [`scatter_distinct_into`] — the workspace version of
//!   [`crate::matvec::scatter_distinct_u64`] for when `y` is already known
//!   (the decoder's usual entry): picks the direct / blocked / atomic kernel
//!   by the [`pooled_par::blocked::choose_scatter`] density heuristic.
//!
//! All kernels run allocation-free after [`FusedArena`] warm-up when one
//! worker is installed; with more workers the per-call cost is a handful of
//! range descriptors (the privatized planes themselves are reused).

use rayon::prelude::*;

use pooled_par::blocked::{choose_scatter, BlockedScatter, ScatterKind};
use pooled_par::chunks::even_ranges;
use pooled_par::scatter::AtomicCounters;

use crate::csr::CsrDesign;
use crate::PoolingDesign;

/// Reusable scratch for the fused kernels: privatized scatter planes, an
/// atomic fallback accumulator, and per-worker pool scratch for streaming
/// designs. Create once per worker/replicate loop and reuse.
#[derive(Default)]
pub struct FusedArena {
    /// Privatized Ψ/Δ* planes (blocked kernel).
    scatter: BlockedScatter,
    /// Atomic fallback for sparse workloads, reused across calls.
    atomic_psi: Option<AtomicCounters>,
    atomic_dstar: Option<AtomicCounters>,
    /// Per-worker `(entry, multiplicity)` pool scratch (streaming kernel).
    pools: Vec<Vec<(u32, u32)>>,
}

impl FusedArena {
    /// Empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn atomic_pair(&mut self, len: usize) -> (&AtomicCounters, &AtomicCounters) {
        for slot in [&mut self.atomic_psi, &mut self.atomic_dstar] {
            match slot {
                Some(counters) if counters.len() == len => counters.reset(),
                _ => *slot = Some(AtomicCounters::new(len)),
            }
        }
        (self.atomic_psi.as_ref().unwrap(), self.atomic_dstar.as_ref().unwrap())
    }
}

impl std::fmt::Debug for FusedArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusedArena").finish_non_exhaustive()
    }
}

/// Scatter one CSR query row into the Ψ/Δ* planes after gathering its `y_q`.
#[inline]
fn fuse_csr_row(
    design: &CsrDesign,
    x: &[u64],
    q: usize,
    psi: &mut [u64],
    dstar: &mut [u64],
) -> u64 {
    let (entries, mults) = design.query_row(q);
    let mut acc = 0u64;
    for (&e, &c) in entries.iter().zip(mults) {
        acc += x[e as usize] * c as u64;
    }
    for &e in entries {
        psi[e as usize] += acc;
        dstar[e as usize] += 1;
    }
    acc
}

/// The shared fused driver: partition queries across workers, let each
/// worker write its own `y`-slice directly while scattering into private
/// Ψ/Δ* planes (threading one element of `states` per worker), then merge
/// blockwise without atomics. Sequential — no machinery, no allocation —
/// when only one part is available; `states` must then hold at least one
/// element.
///
/// `row(state, q, psi_buf, dstar_buf)` processes one query and returns
/// `y_q`.
fn fused_drive<S, F>(
    scatter: &mut BlockedScatter,
    states: &mut [S],
    n: usize,
    y: &mut [u64],
    psi: &mut [u64],
    dstar: &mut [u64],
    row: F,
) where
    S: Send,
    F: Fn(&mut S, usize, &mut [u64], &mut [u64]) -> u64 + Sync,
{
    let m = y.len();
    let parts = states.len();
    if parts <= 1 {
        psi[..n].fill(0);
        dstar[..n].fill(0);
        let state = &mut states[0];
        for (q, y_q) in y.iter_mut().enumerate() {
            *y_q = row(state, q, psi, dstar);
        }
        return;
    }
    let ranges = even_ranges(m, parts);
    let mut y_parts: Vec<&mut [u64]> = Vec::with_capacity(parts);
    let mut rest = &mut y[..m];
    for range in &ranges {
        let (head, tail) = rest.split_at_mut(range.len());
        y_parts.push(head);
        rest = tail;
    }
    let (plane_a, plane_b) = scatter.planes(parts, n);
    plane_a
        .par_iter_mut()
        .zip(plane_b.par_iter_mut())
        .zip(states[..parts].par_iter_mut())
        .zip(y_parts.into_par_iter())
        .zip(ranges.into_par_iter())
        .for_each(|((((psi_buf, dstar_buf), state), y_slice), range)| {
            for (offset, q) in range.enumerate() {
                y_slice[offset] = row(state, q, psi_buf, dstar_buf);
            }
        });
    scatter.merge_pair_into(psi, dstar);
}

fn fused_parts(m: usize) -> usize {
    rayon::current_num_threads().max(1).min(m.max(1))
}

fn assert_fused_shapes(n: usize, m: usize, x: &[u64], y: &[u64], psi: &[u64], dstar: &[u64]) {
    assert_eq!(x.len(), n, "signal vector must have length n");
    assert_eq!(y.len(), m, "result vector must have length m");
    assert!(psi.len() >= n && dstar.len() >= n, "psi/dstar must have length n");
}

/// Fused trial kernel over a materialized design: computes `y = Aᵀx`,
/// `Ψ = M·y` and `Δ* = M·1` in a single traversal of the forward CSR.
///
/// `x` is the dense signal (`0`/`1` as `u64`, multiplicities apply);
/// `y`, `psi`, `dstar` are overwritten in full.
///
/// # Panics
/// Panics if `x.len() != n`, `y.len() != m`, or `psi`/`dstar` are shorter
/// than `n`.
pub fn decode_sums_fused(
    design: &CsrDesign,
    x: &[u64],
    y: &mut [u64],
    psi: &mut [u64],
    dstar: &mut [u64],
    arena: &mut FusedArena,
) {
    let (n, m) = (design.n(), design.m());
    assert_fused_shapes(n, m, x, y, psi, dstar);
    let parts = fused_parts(m);
    // Stateless rows: unit states (a Vec of ZSTs never allocates).
    let mut states = vec![(); parts];
    fused_drive(&mut arena.scatter, &mut states, n, y, psi, dstar, |_, q, psi_buf, dstar_buf| {
        fuse_csr_row(design, x, q, psi_buf, dstar_buf)
    });
}

/// Fused trial kernel for arbitrary (in particular streaming) designs.
///
/// Each query's distinct `(entry, multiplicity)` pool is produced **once**
/// into a per-worker scratch and then used twice — first to gather `y_q`,
/// then to scatter it — so streaming designs pay one regeneration per query
/// instead of the two that the `pool_sums_u64` + `scatter_distinct_u64`
/// composition costs.
///
/// Bit-identical output to [`decode_sums_fused`] on materialized designs.
///
/// # Panics
/// Same contract as [`decode_sums_fused`].
pub fn decode_sums_fused_stream<D: PoolingDesign + ?Sized>(
    design: &D,
    x: &[u64],
    y: &mut [u64],
    psi: &mut [u64],
    dstar: &mut [u64],
    arena: &mut FusedArena,
) {
    let (n, m) = (design.n(), design.m());
    assert_fused_shapes(n, m, x, y, psi, dstar);
    let parts = fused_parts(m);
    // Split borrows: planes live in `scatter`, per-worker pool scratch in
    // `pools` — both reused across calls.
    let FusedArena { scatter, pools, .. } = arena;
    if pools.len() < parts {
        pools.resize_with(parts, Vec::new);
    }
    fused_drive(scatter, &mut pools[..parts], n, y, psi, dstar, |pool, q, psi_buf, dstar_buf| {
        pool.clear();
        design.for_each_distinct(q, &mut |e, c| pool.push((e as u32, c)));
        let mut acc = 0u64;
        for &(e, c) in pool.iter() {
            acc += x[e as usize] * c as u64;
        }
        for &(e, _) in pool.iter() {
            psi_buf[e as usize] += acc;
            dstar_buf[e as usize] += 1;
        }
        acc
    });
}

/// Workspace version of [`crate::matvec::scatter_distinct_u64`]: accumulate
/// `psi[i] = Σ_{q ∋ i} w[q]` and `dstar[i] = |∂*x_i|` into caller buffers,
/// choosing the direct / blocked / atomic kernel by the density heuristic.
///
/// Bit-identical to the atomic and gather paths for any worker count.
///
/// # Panics
/// Panics if `w.len() != m` or `psi`/`dstar` are shorter than `n`.
pub fn scatter_distinct_into<D: PoolingDesign + ?Sized>(
    design: &D,
    w: &[u64],
    psi: &mut [u64],
    dstar: &mut [u64],
    arena: &mut FusedArena,
) {
    let (n, m) = (design.n(), design.m());
    assert_eq!(w.len(), m, "weight vector must have length m");
    assert!(psi.len() >= n && dstar.len() >= n, "psi/dstar must have length n");
    let threads = rayon::current_num_threads().max(1);
    let updates = m.saturating_mul(design.gamma());
    match choose_scatter(n, updates, threads) {
        ScatterKind::Direct => {
            psi[..n].fill(0);
            dstar[..n].fill(0);
            for (q, &wq) in w.iter().enumerate() {
                design.for_each_distinct(q, &mut |e, _| {
                    psi[e] += wq;
                    dstar[e] += 1;
                });
            }
        }
        ScatterKind::Blocked => {
            arena.scatter.scatter_pair(&mut psi[..n], &mut dstar[..n], m, |a, b, range| {
                for q in range {
                    let wq = w[q];
                    design.for_each_distinct(q, &mut |e, _| {
                        a[e] += wq;
                        b[e] += 1;
                    });
                }
            });
        }
        ScatterKind::Atomic => {
            let (psi_acc, dstar_acc) = arena.atomic_pair(n);
            (0..m).into_par_iter().for_each(|q| {
                let wq = w[q];
                design.for_each_distinct(q, &mut |e, _| {
                    psi_acc.add(e, wq);
                    dstar_acc.incr(e);
                });
            });
            psi_acc.copy_into(&mut psi[..n]);
            dstar_acc.copy_into(&mut dstar[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matvec::{pool_sums_u64, scatter_distinct_u64};
    use crate::streaming::StreamingDesign;
    use pooled_rng::SeedSequence;

    fn dense_signal(n: usize, seed: u64) -> Vec<u64> {
        // A deterministic not-quite-sparse 0/1 vector.
        (0..n).map(|i| u64::from((i as u64).wrapping_mul(seed).is_multiple_of(5))).collect()
    }

    fn reference(design: &CsrDesign, x: &[u64]) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let y = pool_sums_u64(design, x);
        let (psi, dstar) = scatter_distinct_u64(design, &y);
        (y, psi, dstar)
    }

    /// Ψ/Δ* over the CSR transpose: a reference independent of every
    /// scatter kernel (`scatter_distinct_u64` itself runs
    /// `scatter_distinct_into`).
    fn gathered(design: &CsrDesign, w: &[u64]) -> (Vec<u64>, Vec<u64>) {
        let (mut psi, mut dstar) = (vec![0u64; design.n()], vec![0u64; design.n()]);
        design.gather_distinct_into(w, &mut psi, &mut dstar);
        (psi, dstar)
    }

    #[test]
    fn fused_csr_matches_two_pass_composition() {
        for (n, m, gamma, seed) in
            [(200usize, 60usize, 100usize, 21u64), (999, 301, 499, 7), (64, 1, 32, 3)]
        {
            let design = CsrDesign::sample(n, m, gamma, &SeedSequence::new(seed));
            let x = dense_signal(n, seed | 1);
            let (want_y, want_psi, want_dstar) = reference(&design, &x);
            let mut y = vec![0u64; m];
            let mut psi = vec![0u64; n];
            let mut dstar = vec![0u64; n];
            let mut arena = FusedArena::new();
            decode_sums_fused(&design, &x, &mut y, &mut psi, &mut dstar, &mut arena);
            assert_eq!(y, want_y, "n={n} m={m}");
            assert_eq!(psi, want_psi, "n={n} m={m}");
            assert_eq!(dstar, want_dstar, "n={n} m={m}");
        }
    }

    #[test]
    fn fused_stream_matches_csr_on_both_representations() {
        let seeds = SeedSequence::new(99);
        let (n, m, gamma) = (300, 80, 150);
        let stream = StreamingDesign::new(n, m, gamma, &seeds);
        let csr = stream.materialize();
        let x = dense_signal(n, 5);
        let mut arena = FusedArena::new();
        let (mut y1, mut psi1, mut dstar1) = (vec![0; m], vec![0; n], vec![0; n]);
        decode_sums_fused(&csr, &x, &mut y1, &mut psi1, &mut dstar1, &mut arena);
        let (mut y2, mut psi2, mut dstar2) = (vec![0; m], vec![0; n], vec![0; n]);
        decode_sums_fused_stream(&stream, &x, &mut y2, &mut psi2, &mut dstar2, &mut arena);
        assert_eq!(y1, y2);
        assert_eq!(psi1, psi2);
        assert_eq!(dstar1, dstar2);
        let (mut y3, mut psi3, mut dstar3) = (vec![0; m], vec![0; n], vec![0; n]);
        decode_sums_fused_stream(&csr, &x, &mut y3, &mut psi3, &mut dstar3, &mut arena);
        assert_eq!(y1, y3);
        assert_eq!(psi1, psi3);
        assert_eq!(dstar1, dstar3);
    }

    #[test]
    fn scatter_into_matches_allocating_scatter() {
        let design = CsrDesign::sample(400, 120, 200, &SeedSequence::new(13));
        let w: Vec<u64> = (0..design.m() as u64).map(|q| 3 * q + 1).collect();
        let (want_psi, want_dstar) = gathered(&design, &w);
        assert_eq!(scatter_distinct_u64(&design, &w), (want_psi.clone(), want_dstar.clone()));
        let mut arena = FusedArena::new();
        let mut psi = vec![0u64; design.n()];
        let mut dstar = vec![0u64; design.n()];
        scatter_distinct_into(&design, &w, &mut psi, &mut dstar, &mut arena);
        assert_eq!(psi, want_psi);
        assert_eq!(dstar, want_dstar);
    }

    #[test]
    fn scatter_into_sparse_workload_takes_atomic_path() {
        // Tiny Γ relative to n drives the heuristic to the atomic kernel;
        // the result must be identical anyway.
        let design = CsrDesign::sample(50_000, 40, 8, &SeedSequence::new(17));
        let w: Vec<u64> = (0..design.m() as u64).map(|q| q + 1).collect();
        let (want_psi, want_dstar) = gathered(&design, &w);
        let mut arena = FusedArena::new();
        let mut psi = vec![0u64; design.n()];
        let mut dstar = vec![0u64; design.n()];
        scatter_distinct_into(&design, &w, &mut psi, &mut dstar, &mut arena);
        assert_eq!(psi, want_psi);
        assert_eq!(dstar, want_dstar);
        // Arena reuse across a second call with the same shape.
        scatter_distinct_into(&design, &w, &mut psi, &mut dstar, &mut arena);
        assert_eq!(psi, want_psi);
    }

    #[test]
    fn arena_reuse_across_shapes_is_sound() {
        let mut arena = FusedArena::new();
        for (n, m, gamma, seed) in [(100usize, 30usize, 50usize, 1u64), (500, 10, 250, 2)] {
            let design = CsrDesign::sample(n, m, gamma, &SeedSequence::new(seed));
            let x = dense_signal(n, seed + 10);
            let (want_y, want_psi, want_dstar) = reference(&design, &x);
            let (mut y, mut psi, mut dstar) = (vec![0; m], vec![0; n], vec![0; n]);
            decode_sums_fused(&design, &x, &mut y, &mut psi, &mut dstar, &mut arena);
            assert_eq!((y, psi, dstar), (want_y, want_psi, want_dstar), "n={n}");
        }
    }

    #[test]
    fn empty_design_is_handled() {
        let design = CsrDesign::sample(10, 0, 5, &SeedSequence::new(1));
        let x = vec![0u64; 10];
        let mut arena = FusedArena::new();
        let (mut y, mut psi, mut dstar) = (vec![], vec![9u64; 10], vec![9u64; 10]);
        decode_sums_fused(&design, &x, &mut y, &mut psi, &mut dstar, &mut arena);
        assert!(psi.iter().all(|&v| v == 0));
        assert!(dstar.iter().all(|&v| v == 0));
    }

    #[test]
    #[should_panic(expected = "length n")]
    fn wrong_signal_length_panics() {
        let design = CsrDesign::sample(10, 5, 5, &SeedSequence::new(1));
        let mut arena = FusedArena::new();
        let (mut y, mut psi, mut dstar) = (vec![0; 5], vec![0; 10], vec![0; 10]);
        decode_sums_fused(&design, &[0u64; 9], &mut y, &mut psi, &mut dstar, &mut arena);
    }
}
