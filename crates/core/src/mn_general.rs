//! The MN algorithm for arbitrary pool sizes and heterogeneous designs.
//!
//! [`crate::mn::MnDecoder`] hard-codes the paper's convention `Γ = n/2`,
//! where the centering term `Δ*_i·k/2` turns into the integer score
//! `2Ψ_i − k·Δ*_i`. For the pool-size ablation (`gamma_sweep`) and the
//! alternative design families (Bernoulli pools have *random* sizes) the
//! correct centering is per query: the expected contribution of query `q`
//! to `Ψ_i` under the null is `|a_q|·k/n`, so the score becomes
//!
//! ```text
//! score_i = n·Ψ_i − k·Σ_{q ∈ ∂*x_i} |a_q|        (exact, in i128)
//! ```
//!
//! where `|a_q|` is the number of draws of query `q` (with multiplicity).
//! For the regular design (`|a_q| = Γ` constant) this is `n·Ψ_i − kΓ·Δ*_i =
//! (n/2)·(2Ψ_i − k·Δ*_i)` at `Γ = n/2` — a positive multiple of the classic
//! score, so the two decoders rank identically (property-tested).
//!
//! Two accumulation paths share one selection:
//!
//! * [`GeneralMnDecoder::decode_with`] works on any [`PoolingDesign`]
//!   (streaming included) through two generic scatters — one of `y`, one
//!   of the pool sizes. It is the reference the served path is pinned to.
//! * [`GeneralMnDecoder::decode_csr_with`] gathers `Ψ_i` and
//!   `Σ_{q ∈ ∂*x_i} |a_q|` in one pass over the CSR transpose, the way
//!   `MnDecoder::decode_csr_with` serves the classic score.
//!
//! Selection is a partial `select_nth_unstable` on the exact `i128` keys
//! `(score desc, index asc)` followed by a sort of the `k` winners only —
//! the same winners in the same order as a full sort, since the key is a
//! total order.

use std::cmp::Reverse;

use rayon::prelude::*;

use pooled_design::fused::scatter_distinct_into;
use pooled_design::{CsrDesign, PoolingDesign};

use crate::signal::Signal;
use crate::workspace::MnWorkspace;

/// MN decoding for designs with arbitrary (even per-query) pool sizes.
#[derive(Clone, Copy, Debug)]
pub struct GeneralMnDecoder {
    k: usize,
}

/// Output of the Γ-general decoder.
#[derive(Clone, Debug)]
pub struct GeneralMnOutput {
    /// The reconstructed signal (weight exactly `min(k, n)`).
    pub estimate: Signal,
    /// Exact integer scores `n·Ψ_i − k·Σ_{q∈∂*x_i}|a_q|`.
    pub scores: Vec<i128>,
    /// Neighborhood sums `Ψ_i` (distinct queries only).
    pub psi: Vec<u64>,
    /// Distinct-query degrees `Δ*_i`.
    pub delta_star: Vec<u64>,
}

impl GeneralMnDecoder {
    /// Decoder for signals of known (or upper-bounded) weight `k`.
    pub fn new(k: usize) -> Self {
        Self { k }
    }

    /// The target weight `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Run the Γ-general MN algorithm on the query results `y`.
    ///
    /// Thin wrapper over [`Self::decode_with`] on a fresh workspace.
    ///
    /// # Panics
    /// Panics if `y.len() != design.m()`.
    pub fn decode<D: PoolingDesign + ?Sized>(&self, design: &D, y: &[u64]) -> GeneralMnOutput {
        let mut ws = MnWorkspace::new();
        self.decode_with(design, y, &mut ws);
        let n = design.n();
        GeneralMnOutput {
            estimate: ws.take_estimate_signal(n),
            scores: std::mem::take(&mut ws.scores_wide),
            psi: std::mem::take(&mut ws.psi),
            delta_star: std::mem::take(&mut ws.dstar),
        }
    }

    /// Workspace decode: identical results to [`Self::decode`] with all
    /// buffers (including the exact `i128` scores, read back via
    /// [`MnWorkspace::scores_wide`]) reused across calls. Works on any
    /// design; materialized ones are served faster by
    /// [`Self::decode_csr_with`].
    ///
    /// # Panics
    /// Panics if `y.len() != design.m()`.
    pub fn decode_with<D: PoolingDesign + ?Sized>(
        &self,
        design: &D,
        y: &[u64],
        ws: &mut MnWorkspace,
    ) {
        assert_eq!(y.len(), design.m(), "result vector length must equal m");
        let (n, m) = (design.n(), design.m());
        ws.prepare(n);
        {
            let (psi, dstar, arena) = ws.sums_mut();
            scatter_distinct_into(design, y, psi, dstar, arena);
        }
        // Per-entry sum of neighbor pool sizes: reuse the Ψ kernel with the
        // pool sizes as the query weights (Δ* recomputed into scratch).
        ws.pool_lens.clear();
        ws.pool_lens.extend((0..m).map(|q| design.pool_len(q) as u64));
        ws.gamma_sums.clear();
        ws.gamma_sums.resize(n, 0);
        ws.dstar_scratch.clear();
        ws.dstar_scratch.resize(n, 0);
        scatter_distinct_into(
            design,
            &ws.pool_lens,
            &mut ws.gamma_sums,
            &mut ws.dstar_scratch,
            &mut ws.arena,
        );
        let (n_i, k_i) = (n as i128, self.k as i128);
        ws.scores_wide.clear();
        ws.scores_wide.extend(
            ws.psi[..n]
                .iter()
                .zip(&ws.gamma_sums[..n])
                .map(|(&p, &g)| n_i * p as i128 - k_i * g as i128),
        );
        self.select_with(n, ws);
    }

    /// Transpose-gather decode over a materialized design: identical
    /// results to [`Self::decode_with`] on the design `csr` stores, in one
    /// entry-parallel pass over [`CsrDesign::entry_row`] instead of two
    /// generic scatters.
    ///
    /// `pool_lens[q]` is the draw count `|a_q|` of query `q` (with
    /// multiplicity) — the design family's `PoolingDesign::pool_len`, which
    /// the CSR arrays alone do not carry (a family may report a nominal `Γ`
    /// for every query). Each entry accumulates `Ψ_i = Σ y_q` and
    /// `G_i = Σ |a_q|` over its distinct queries, and scores
    /// `n·Ψ_i − k·G_i`. Allocation-free after warm-up.
    ///
    /// # Panics
    /// Panics if `y.len()` or `pool_lens.len()` differs from `csr.m()`.
    pub fn decode_csr_with(
        &self,
        csr: &CsrDesign,
        pool_lens: &[u64],
        y: &[u64],
        ws: &mut MnWorkspace,
    ) {
        let (n, m) = (csr.n(), csr.m());
        assert_eq!(y.len(), m, "result vector length must equal m");
        assert_eq!(pool_lens.len(), m, "pool length vector must equal m");
        ws.prepare(n);
        ws.scores_wide.resize(n, 0);
        let (n_i, k_i) = (n as i128, self.k as i128);
        ws.psi[..n]
            .par_iter_mut()
            .zip(ws.dstar[..n].par_iter_mut())
            .zip(ws.scores_wide.par_iter_mut())
            .enumerate()
            .for_each(|(i, ((psi, dstar), score))| {
                let (qs, _) = csr.entry_row(i);
                let (mut p, mut g) = (0u64, 0u64);
                for &q in qs {
                    p += y[q as usize];
                    g += pool_lens[q as usize];
                }
                *psi = p;
                *dstar = qs.len() as u64;
                *score = n_i * p as i128 - k_i * g as i128;
            });
        self.select_with(n, ws);
    }

    /// Rank `ws.scores_wide` by `(score desc, index asc)` — a total order,
    /// so the `k` winners and their order are unique — and write the
    /// support (rank order) and the dense estimate. A partial selection
    /// (`select_nth_unstable`) cuts the best `k`; only those are sorted.
    fn select_with(&self, n: usize, ws: &mut MnWorkspace) {
        let k = self.k.min(n);
        let key = |&(s, i): &(i128, u32)| (Reverse(s), i);
        let order = &mut ws.order_wide;
        order.clear();
        order.extend(ws.scores_wide.iter().enumerate().map(|(i, &s)| (s, i as u32)));
        if 0 < k && k < n {
            order.select_nth_unstable_by_key(k - 1, key);
        }
        let top = &mut order[..k];
        top.sort_unstable_by_key(key);
        ws.support.clear();
        ws.support.extend(top.iter().map(|&(_, i)| i as usize));
        ws.fill_estimate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mn::MnDecoder;
    use crate::query::execute_queries;
    use pooled_design::factory::DesignKind;
    use pooled_design::CsrDesign;
    use pooled_rng::SeedSequence;

    #[test]
    fn matches_classic_decoder_on_regular_design() {
        let seeds = SeedSequence::new(21);
        let n = 800;
        let sigma = Signal::random(n, 9, &mut seeds.child("signal", 0).rng());
        let design = CsrDesign::sample(n, 250, n / 2, &seeds.child("design", 0));
        let y = execute_queries(&design, &sigma);
        let classic = MnDecoder::new(9).decode(&design, &y);
        let general = GeneralMnDecoder::new(9).decode(&design, &y);
        assert_eq!(classic.estimate, general.estimate);
        // Scores are positive multiples of each other: identical ranking.
        let mut classic_rank: Vec<usize> = (0..n).collect();
        classic_rank.sort_by_key(|&i| (std::cmp::Reverse(classic.scores[i]), i));
        let mut general_rank: Vec<usize> = (0..n).collect();
        general_rank.sort_by_key(|&i| (std::cmp::Reverse(general.scores[i]), i));
        assert_eq!(classic_rank, general_rank);
    }

    #[test]
    fn recovers_with_large_pools() {
        // Pool fraction c = 1 (Γ = n, with replacement): the classic scorer
        // would mis-center, the general scorer handles it. m = 400 is
        // comfortably above the corrected d(1,θ)-threshold (≈ 235 at
        // n = 1000, θ = 0.3).
        let seeds = SeedSequence::new(22);
        let (n, k) = (1000, 8);
        let m = 400;
        let mut successes = 0;
        for trial in 0..10u64 {
            let s = seeds.child("trial", trial);
            let sigma = Signal::random(n, k, &mut s.child("signal", 0).rng());
            let design = CsrDesign::sample(n, m, n, &s.child("design", 0));
            let y = execute_queries(&design, &sigma);
            let out = GeneralMnDecoder::new(k).decode(&design, &y);
            if out.estimate == sigma {
                successes += 1;
            }
        }
        assert!(successes >= 8, "only {successes}/10 at Γ=n, m={m}");
    }

    #[test]
    fn smaller_pools_beat_full_pools_at_fixed_m() {
        // theory::gamma_opt's shift-corrected constant d_cor(c,θ) is
        // increasing in c, so at a fixed sub-threshold query budget the
        // paper's Γ = n/2 should beat Γ = n, and Γ = n/8 should not lose to
        // Γ = n/2 (±2 trials of sampling noise on 12 trials).
        let seeds = SeedSequence::new(27);
        let (n, k, m) = (1000, 8, 260);
        let (mut eighth, mut half, mut full) = (0i32, 0i32, 0i32);
        for trial in 0..12u64 {
            let s = seeds.child("trial", trial);
            let sigma = Signal::random(n, k, &mut s.child("signal", 0).rng());
            let ok = |gamma: usize| {
                let d = CsrDesign::sample(n, m, gamma, &s.child("design", gamma as u64));
                let y = execute_queries(&d, &sigma);
                (GeneralMnDecoder::new(k).decode(&d, &y).estimate == sigma) as i32
            };
            eighth += ok(n / 8);
            half += ok(n / 2);
            full += ok(n);
        }
        assert!(half >= full, "Γ=n/2: {half}/12 vs Γ=n: {full}/12");
        assert!(eighth + 2 >= half, "Γ=n/8: {eighth}/12 vs Γ=n/2: {half}/12");
    }

    #[test]
    fn recovers_on_every_design_family() {
        let seeds = SeedSequence::new(23);
        let (n, k, m) = (1000, 8, 420);
        for kind in DesignKind::ALL {
            let mut successes = 0;
            for trial in 0..6u64 {
                let s = seeds.child(kind.name(), trial);
                let sigma = Signal::random(n, k, &mut s.child("signal", 0).rng());
                let design = kind.sample(n, m, 0.5, &s.child("design", 0));
                let y = execute_queries(&design, &sigma);
                let out = GeneralMnDecoder::new(k).decode(&design, &y);
                if out.estimate == sigma {
                    successes += 1;
                }
            }
            assert!(successes >= 5, "{}: {successes}/6 recoveries", kind.name());
        }
    }

    #[test]
    fn estimate_weight_is_min_k_n() {
        let seeds = SeedSequence::new(24);
        let design = CsrDesign::sample(30, 20, 15, &seeds);
        let sigma = Signal::random(30, 5, &mut seeds.child("signal", 0).rng());
        let y = execute_queries(&design, &sigma);
        assert_eq!(GeneralMnDecoder::new(5).decode(&design, &y).estimate.weight(), 5);
        assert_eq!(GeneralMnDecoder::new(40).decode(&design, &y).estimate.weight(), 30);
    }

    #[test]
    fn streaming_design_decodes_identically_to_csr() {
        use pooled_design::StreamingDesign;
        let seeds = SeedSequence::new(28);
        let n = 400;
        let sigma = Signal::random(n, 6, &mut seeds.child("signal", 0).rng());
        let stream = StreamingDesign::new(n, 120, n / 2, &seeds.child("design", 0));
        let csr = stream.materialize();
        let y = execute_queries(&csr, &sigma);
        let a = GeneralMnDecoder::new(6).decode(&stream, &y);
        let b = GeneralMnDecoder::new(6).decode(&csr, &y);
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.scores, b.scores);
    }

    #[test]
    #[should_panic(expected = "length must equal m")]
    fn wrong_y_length_panics() {
        let seeds = SeedSequence::new(25);
        let design = CsrDesign::sample(20, 5, 10, &seeds);
        let _ = GeneralMnDecoder::new(2).decode(&design, &[0u64; 4]);
    }

    #[test]
    fn zero_scores_for_zero_results() {
        // All-zero y with nonzero pools: score = −k·Σ|a_q| ≤ 0, Ψ = 0.
        let seeds = SeedSequence::new(26);
        let design = CsrDesign::sample(40, 8, 20, &seeds);
        let y = vec![0u64; 8];
        let out = GeneralMnDecoder::new(3).decode(&design, &y);
        assert!(out.psi.iter().all(|&p| p == 0));
        assert!(out.scores.iter().all(|&s| s <= 0));
    }
}
