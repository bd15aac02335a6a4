//! Property-based equivalence of the fused / blocked / workspace kernels
//! against the seed paths they replace.
//!
//! Everything here must be **bit-identical** — the kernels are exact `u64`
//! accumulations, so no tolerance is involved anywhere.

use proptest::prelude::*;

use pooled_data::core::batch::BatchWorkspace;
use pooled_data::core::mn::MnDecoder;
use pooled_data::core::mn_general::GeneralMnDecoder;
use pooled_data::core::query::execute_queries;
use pooled_data::core::workspace::MnWorkspace;
use pooled_data::design::batched::{
    decode_sums_fused_batch, decode_sums_fused_batch_stream, decode_sums_support_batch,
    support_plane_rows, LANE_CHUNK,
};
use pooled_data::design::csr::CsrDesign;
use pooled_data::design::factory::{AnyDesign, DesignKind};
use pooled_data::design::fused::{
    decode_sums_fused, decode_sums_fused_stream, scatter_distinct_into, FusedArena,
};
use pooled_data::design::matvec::{pool_sums_u64, scatter_distinct_u64};
use pooled_data::design::StreamingDesign;
use pooled_data::design::{BernoulliDesign, EntryRegularDesign, NoReplaceDesign};
use pooled_data::engine::job::{digest_support, DecoderKind, Digest};
use pooled_data::engine::registry::{decoder, DecodeOutcome, DecodeScratch};
use pooled_data::par::blocked::BlockedScatter;
use pooled_data::par::pool::pool_with_threads;
use pooled_data::par::scatter::AtomicCounters;
use pooled_data::prelude::*;
use pooled_data::threshold::ThresholdMnDecoder;

/// A dense 0/1 `u64` signal derived from a seeded `Signal`.
fn dense_u64(n: usize, k: usize, seeds: &SeedSequence) -> Vec<u64> {
    let sigma = Signal::random(n, k.min(n), &mut seeds.child("signal", 0).rng());
    sigma.dense().iter().map(|&b| b as u64).collect()
}

/// A design of family `family` at pool size `Γ` (or its family analogue):
/// with-replacement draws for the regular family (`Γ > n` included), `Γ`
/// capped at `n` without replacement, membership probability `Γ/n` for
/// Bernoulli (random pool sizes), and `⌈Γ·m/n⌉` draws per entry for the
/// configuration model (which needs a query, so `m = 0` falls back to the
/// regular family).
fn family_design(
    family: usize,
    n: usize,
    m: usize,
    gamma: usize,
    seeds: &SeedSequence,
) -> AnyDesign {
    match DesignKind::ALL[family] {
        DesignKind::NoReplace => {
            AnyDesign::NoReplace(NoReplaceDesign::sample(n, m, gamma.min(n), seeds))
        }
        DesignKind::Bernoulli => {
            let p = (gamma as f64 / n as f64).min(1.0);
            AnyDesign::Bernoulli(BernoulliDesign::sample(n, m, p, seeds))
        }
        DesignKind::EntryRegular if m > 0 => {
            let delta = (gamma * m).div_ceil(n);
            AnyDesign::EntryRegular(EntryRegularDesign::sample(n, m, delta, seeds))
        }
        _ => AnyDesign::RandomRegular(CsrDesign::sample(n, m, gamma, seeds)),
    }
}

/// One decoder-equivalence case: the design, a hidden signal, and its
/// additive results. The choices cover every family,
/// `Γ ∈ {0, 1, n/16, n/2, n, 3n/2}` and `m ∈ {0, 1, 40}`.
fn decoder_case(
    family: usize,
    n: usize,
    m_choice: usize,
    gamma_choice: usize,
    seed: u64,
) -> (AnyDesign, Signal, Vec<u64>) {
    let seeds = SeedSequence::new(seed);
    let m = [0, 1, 40][m_choice];
    let gamma = [0, 1, n / 16, n / 2, n, 3 * n / 2][gamma_choice];
    let design = family_design(family, n, m, gamma, &seeds.child("d", 0));
    let weight = (2 + seed as usize % 9).min(n);
    let sigma = Signal::random(n, weight, &mut seeds.child("s", 0).rng());
    let y = execute_queries(&design, &sigma);
    (design, sigma, y)
}

/// The decoder weights every case is decoded at: the edges `0`, `1`,
/// `n − 1`, `n` and `k > n`, a small and a uniform one — every cut
/// position of the partial selection gets exercised.
fn decoder_weights(n: usize, seed: u64) -> [usize; 7] {
    let mix = seed.rotate_left(17) as usize;
    [0, 1, 2 + seed as usize % 9, mix % (n + 1), n - 1, n, n + 3]
}

/// Indices of the `k` best `scores` under `(score desc, index asc)` by a
/// full sort — the selection reference for both transpose-gather paths.
fn ranked<S: Ord + Copy>(scores: &[S], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(scores[i]), i));
    order.truncate(k);
    order
}

/// The registry outcome a decode with these winners and this score
/// digest must produce.
fn expected_outcome(support: &[usize], score_digest: u64, truth: &[u8]) -> (u64, u64, u32, u32) {
    let hits = support.iter().filter(|&&i| truth[i] == 1).count() as u32;
    (digest_support(support), score_digest, hits, support.len() as u32)
}

fn outcome_tuple(o: DecodeOutcome) -> (u64, u64, u32, u32) {
    (o.support_digest, o.score_digest, o.hits, o.weight)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `decode_sums_fused` (CSR) is bit-identical to the two-pass
    /// `pool_sums_u64` + `scatter_distinct_u64` composition.
    #[test]
    fn fused_csr_matches_two_pass(
        n in 4usize..250,
        m in 0usize..60,
        k in 0usize..20,
        seed in any::<u64>(),
    ) {
        let seeds = SeedSequence::new(seed);
        let gamma = (n / 2).max(1);
        let design = CsrDesign::sample(n, m, gamma, &seeds.child("d", 0));
        let x = dense_u64(n, k, &seeds);
        let want_y = pool_sums_u64(&design, &x);
        let (want_psi, want_dstar) = scatter_distinct_u64(&design, &want_y);
        let mut arena = FusedArena::new();
        let (mut y, mut psi, mut dstar) = (vec![0; m], vec![0; n], vec![0; n]);
        decode_sums_fused(&design, &x, &mut y, &mut psi, &mut dstar, &mut arena);
        prop_assert_eq!(y, want_y);
        prop_assert_eq!(psi, want_psi);
        prop_assert_eq!(dstar, want_dstar);
    }

    /// The streaming fused variant (single pool regeneration per query) is
    /// bit-identical to the two-pass composition on the *streaming*
    /// representation, and to the CSR kernel on the materialized twin.
    #[test]
    fn fused_stream_matches_two_pass(
        n in 4usize..200,
        m in 0usize..40,
        k in 0usize..15,
        seed in any::<u64>(),
    ) {
        let seeds = SeedSequence::new(seed);
        let gamma = (n / 2).max(1);
        let stream = StreamingDesign::new(n, m, gamma, &seeds.child("d", 0));
        let x = dense_u64(n, k, &seeds);
        let want_y = pool_sums_u64(&stream, &x);
        let (want_psi, want_dstar) = scatter_distinct_u64(&stream, &want_y);
        let mut arena = FusedArena::new();
        let (mut y, mut psi, mut dstar) = (vec![0; m], vec![0; n], vec![0; n]);
        decode_sums_fused_stream(&stream, &x, &mut y, &mut psi, &mut dstar, &mut arena);
        prop_assert_eq!(&y, &want_y);
        prop_assert_eq!(&psi, &want_psi);
        prop_assert_eq!(&dstar, &want_dstar);
        // And the CSR kernel on the materialized twin agrees.
        let csr = stream.materialize();
        let (mut y2, mut psi2, mut dstar2) = (vec![0; m], vec![0; n], vec![0; n]);
        decode_sums_fused(&csr, &x, &mut y2, &mut psi2, &mut dstar2, &mut arena);
        prop_assert_eq!(y2, want_y);
        prop_assert_eq!(psi2, want_psi);
        prop_assert_eq!(dstar2, want_dstar);
    }

    /// Blocked privatized scatter matches `AtomicCounters` on random
    /// designs (the decoder access pattern, both planes).
    #[test]
    fn blocked_scatter_matches_atomic(
        n in 2usize..300,
        m in 0usize..50,
        gamma in 1usize..80,
        seed in any::<u64>(),
    ) {
        let design = CsrDesign::sample(n, m, gamma, &SeedSequence::new(seed));
        let w: Vec<u64> = (0..m as u64).map(|q| q.wrapping_mul(2654435761) % 1000).collect();
        // Atomic reference.
        let psi_acc = AtomicCounters::new(n);
        let dstar_acc = AtomicCounters::new(n);
        for (q, &wq) in w.iter().enumerate() {
            pooled_data::design::PoolingDesign::for_each_distinct(&design, q, &mut |e, _| {
                psi_acc.add(e, wq);
                dstar_acc.incr(e);
            });
        }
        let (want_psi, want_dstar) = (psi_acc.into_vec(), dstar_acc.into_vec());
        // Blocked kernel.
        let mut blocked = BlockedScatter::new();
        let (mut psi, mut dstar) = (vec![0u64; n], vec![0u64; n]);
        blocked.scatter_pair(&mut psi, &mut dstar, m, |a, b, range| {
            for q in range {
                let wq = w[q];
                pooled_data::design::PoolingDesign::for_each_distinct(&design, q, &mut |e, _| {
                    a[e] += wq;
                    b[e] += 1;
                });
            }
        });
        prop_assert_eq!(&psi, &want_psi);
        prop_assert_eq!(&dstar, &want_dstar);
        // Heuristic dispatcher (any kernel it picks) agrees too.
        let mut arena = FusedArena::new();
        let (mut psi_h, mut dstar_h) = (vec![0u64; n], vec![0u64; n]);
        scatter_distinct_into(&design, &w, &mut psi_h, &mut dstar_h, &mut arena);
        prop_assert_eq!(psi_h, want_psi);
        prop_assert_eq!(dstar_h, want_dstar);
    }

    /// The workspace decode produces the same estimate, scores, Ψ and Δ* as
    /// the allocating API, and the workspace can be reused across problem
    /// shapes.
    #[test]
    fn decode_with_matches_decode(
        n in 8usize..200,
        m in 1usize..40,
        k in 0usize..12,
        seed in any::<u64>(),
    ) {
        let seeds = SeedSequence::new(seed);
        let design = CsrDesign::sample(n, m, (n / 2).max(1), &seeds.child("d", 0));
        let sigma = Signal::random(n, k.min(n), &mut seeds.child("s", 0).rng());
        let y = execute_queries(&design, &sigma);
        let want = MnDecoder::new(k).decode(&design, &y);
        let mut ws = MnWorkspace::new();
        MnDecoder::new(k).decode_with(&design, &y, &mut ws);
        prop_assert_eq!(ws.scores(), &want.scores[..]);
        prop_assert_eq!(ws.psi(), &want.psi[..]);
        prop_assert_eq!(ws.delta_star(), &want.delta_star[..]);
        prop_assert_eq!(ws.estimate_dense(), want.estimate.dense());
        // Reuse the same workspace on the general decoder.
        let want_general = GeneralMnDecoder::new(k).decode(&design, &y);
        GeneralMnDecoder::new(k).decode_with(&design, &y, &mut ws);
        prop_assert_eq!(ws.scores_wide(), &want_general.scores[..]);
        prop_assert_eq!(ws.estimate_dense(), want_general.estimate.dense());
    }

    /// The batched decode is bit-identical, lane by lane, to B independent
    /// `decode_csr_with` calls, for arbitrary B ∈ [1, 32], shapes and
    /// signals — reusing one batch workspace across cases.
    #[test]
    fn decode_batch_with_matches_independent_decodes(
        lanes in 1usize..=32,
        n in 8usize..160,
        m in 1usize..40,
        k in 0usize..10,
        seed in any::<u64>(),
    ) {
        let seeds = SeedSequence::new(seed);
        let design = CsrDesign::sample(n, m, (n / 2).max(1), &seeds.child("d", 0));
        // Lane-major stacked query results from independent signals.
        let mut ys = Vec::with_capacity(lanes * m);
        for b in 0..lanes {
            let sigma = Signal::random(n, k.min(n), &mut seeds.child("s", b as u64).rng());
            ys.extend(execute_queries(&design, &sigma));
        }
        let decoder = MnDecoder::new(k);
        let mut bw = BatchWorkspace::new();
        let mut single = MnWorkspace::new();
        let mut visited = 0usize;
        let mut failure: Option<String> = None;
        decoder.decode_batch_with(&design, &ys, lanes, &mut bw, |lane, ws| {
            decoder.decode_csr_with(&design, &ys[lane * m..(lane + 1) * m], &mut single);
            if ws.scores() != single.scores()
                || ws.support() != single.support()
                || ws.psi() != single.psi()
                || ws.delta_star() != single.delta_star()
                || ws.estimate_dense() != single.estimate_dense()
            {
                failure.get_or_insert_with(|| format!("lane {lane} diverged"));
            }
            visited += 1;
        });
        prop_assert_eq!(failure, None);
        prop_assert_eq!(visited, lanes);
    }

    /// The batched trial kernels (CSR and streaming) match the single-job
    /// fused kernel lane by lane: same y, same Ψ, and one shared Δ*.
    #[test]
    fn batched_trial_kernels_match_fused_per_lane(
        lanes in 1usize..=16,
        n in 4usize..120,
        m in 0usize..30,
        seed in any::<u64>(),
    ) {
        let seeds = SeedSequence::new(seed);
        let gamma = (n / 2).max(1);
        let stream = StreamingDesign::new(n, m, gamma, &seeds.child("d", 0));
        let csr = stream.materialize();
        let xs: Vec<u8> = (0..lanes * n)
            .map(|i| u8::from((i as u64).wrapping_mul(seed | 1).is_multiple_of(3)))
            .collect();
        let (mut ys, mut psis, mut dstar) =
            (vec![0u64; lanes * m], vec![0u64; lanes * n], vec![0u64; n]);
        decode_sums_fused_batch(&csr, &xs, lanes, &mut ys, &mut psis, &mut dstar);
        let mut pool = Vec::new();
        let (mut ys_s, mut psis_s, mut dstar_s) =
            (vec![0u64; lanes * m], vec![0u64; lanes * n], vec![0u64; n]);
        decode_sums_fused_batch_stream(
            &stream, &xs, lanes, &mut ys_s, &mut psis_s, &mut dstar_s, &mut pool,
        );
        prop_assert_eq!(&ys, &ys_s);
        prop_assert_eq!(&psis, &psis_s);
        prop_assert_eq!(&dstar, &dstar_s);
        let mut arena = FusedArena::new();
        for b in 0..lanes {
            let x: Vec<u64> = xs[b * n..(b + 1) * n].iter().map(|&v| v as u64).collect();
            let (mut y, mut psi, mut ds) = (vec![0u64; m], vec![0u64; n], vec![0u64; n]);
            decode_sums_fused(&csr, &x, &mut y, &mut psi, &mut ds, &mut arena);
            prop_assert_eq!(&ys[b * m..(b + 1) * m], &y[..], "lane {} y", b);
            prop_assert_eq!(&psis[b * n..(b + 1) * n], &psi[..], "lane {} psi", b);
            prop_assert_eq!(&dstar, &ds, "lane {} dstar", b);
        }
    }

    /// The support-driven, item-major kernel matches the design-major
    /// dense batch kernel lane by lane — y, Ψ and the shared Δ* — for any
    /// lane count (whole and partial lane chunks), lanes of weight 0, and
    /// every design family through `AnyDesign::csr()` (the with-replacement
    /// and configuration-model families carry multiplicities > 1).
    #[test]
    fn support_batch_kernel_matches_dense_batch_kernel(
        lanes in 1usize..=32,
        n in 4usize..160,
        m in 1usize..40,
        k in 0usize..12,
        family in 0usize..4,
        seed in any::<u64>(),
    ) {
        let seeds = SeedSequence::new(seed);
        let design = DesignKind::ALL[family].sample(n, m, 0.5, &seeds.child("d", 0));
        let csr = design.csr();
        let (mut supports, mut bounds, mut xs) = (Vec::new(), vec![0], Vec::new());
        for b in 0..lanes {
            // Lane weights cycle k, 0, 1, …: every batch of ≥ 2 has k = 0.
            let weight = ((k + b) % (k + 1)).min(n);
            let sigma = Signal::random(n, weight, &mut seeds.child("s", b as u64).rng());
            supports.extend_from_slice(sigma.support());
            bounds.push(supports.len());
            xs.extend_from_slice(sigma.dense());
        }
        let (mut want_ys, mut want_psis, mut want_dstar) =
            (vec![0u64; lanes * m], vec![0u64; lanes * n], vec![0u64; n]);
        decode_sums_fused_batch(csr, &xs, lanes, &mut want_ys, &mut want_psis, &mut want_dstar);
        let mut ys = vec![[u64::MAX; LANE_CHUNK]; support_plane_rows(lanes, m)];
        let (mut psis, mut dstar) = (vec![u64::MAX; lanes * n], vec![u64::MAX; n]);
        decode_sums_support_batch(csr, &supports, &bounds, &mut ys, &mut psis, &mut dstar);
        for b in 0..lanes.div_ceil(LANE_CHUNK) * LANE_CHUNK {
            for q in 0..m {
                let want = if b < lanes { want_ys[b * m + q] } else { 0 };
                prop_assert_eq!(ys[(b / LANE_CHUNK) * m + q][b % LANE_CHUNK], want, "lane {} y", b);
            }
        }
        for b in 0..lanes {
            prop_assert_eq!(
                &psis[b * n..(b + 1) * n], &want_psis[b * n..(b + 1) * n], "lane {} psi", b
            );
        }
        prop_assert_eq!(dstar, want_dstar);
    }

    /// `GeneralMnDecoder::decode_csr_with` (one gather over the transpose)
    /// matches the generic two-scatter decode: scores, Ψ, Δ*, estimate,
    /// and a support in full-sort ranking order; the registry serves the
    /// same digests on 1 and 2 threads.
    #[test]
    fn csr_general_mn_matches_generic(
        family in 0usize..4,
        n in 1usize..400,
        m_choice in 0usize..3,
        gamma_choice in 0usize..6,
        threads in 1usize..=2,
        seed in any::<u64>(),
    ) {
        let (design, sigma, y) = decoder_case(family, n, m_choice, gamma_choice, seed);
        let pool_lens: Vec<u64> = (0..design.m()).map(|q| design.pool_len(q) as u64).collect();
        let mut ws = MnWorkspace::new();
        let mut scratch = DecodeScratch::new();
        for k in decoder_weights(n, seed) {
            let want = GeneralMnDecoder::new(k).decode(&design, &y);
            let want_support = ranked(&want.scores, k);
            let mut scores = Digest::new();
            want.scores.iter().for_each(|&s| scores.push_i128(s));
            let want_outcome = expected_outcome(&want_support, scores.finish(), sigma.dense());
            pool_with_threads(threads).install(|| {
                GeneralMnDecoder::new(k).decode_csr_with(design.csr(), &pool_lens, &y, &mut ws);
                prop_assert_eq!(ws.scores_wide(), &want.scores[..], "k={}", k);
                prop_assert_eq!(ws.psi(), &want.psi[..], "k={}", k);
                prop_assert_eq!(ws.delta_star(), &want.delta_star[..], "k={}", k);
                prop_assert_eq!(ws.support(), &want_support[..], "k={}", k);
                prop_assert_eq!(ws.estimate_dense(), want.estimate.dense(), "k={}", k);
                let served = decoder(DecoderKind::GeneralMn)
                    .decode(&design, &y, k, seed, sigma.dense(), &mut scratch);
                prop_assert_eq!(outcome_tuple(served), want_outcome, "k={}", k);
            });
        }
    }

    /// `ThresholdMnDecoder::decode_csr_with` (bits `y ≥ t` folded into one
    /// gather) matches the generic bit decode: scores, Ψ⁺, Δ*, estimate,
    /// and a support in full-sort ranking order; the registry digests the
    /// ascending support, as the generic decoder's `Signal` reports it.
    #[test]
    fn csr_threshold_mn_matches_generic(
        family in 0usize..4,
        n in 1usize..400,
        m_choice in 0usize..3,
        gamma_choice in 0usize..6,
        t in 0u64..4,
        threads in 1usize..=2,
        seed in any::<u64>(),
    ) {
        let (design, sigma, y) = decoder_case(family, n, m_choice, gamma_choice, seed);
        let bits = |t: u64| -> Vec<u8> { y.iter().map(|&v| u8::from(v >= t)).collect() };
        let mut ws = MnWorkspace::new();
        let mut scratch = DecodeScratch::new();
        for k in decoder_weights(n, seed) {
            let want = ThresholdMnDecoder::new(k).decode(&design, &bits(t));
            let want_support = ranked(&want.scores, k);
            // The served channel: t = max(1, round(Γ·k/n)).
            let n64 = n as u64;
            let served_t = ((design.gamma() as u64 * k as u64 + n64 / 2) / n64).max(1);
            let served_want = ThresholdMnDecoder::new(k).decode(&design, &bits(served_t));
            let mut scores = Digest::new();
            served_want.scores.iter().for_each(|&s| scores.push(s as u64));
            let want_outcome =
                expected_outcome(served_want.estimate.support(), scores.finish(), sigma.dense());
            pool_with_threads(threads).install(|| {
                ThresholdMnDecoder::new(k).decode_csr_with(design.csr(), &y, t, &mut ws);
                prop_assert_eq!(ws.scores(), &want.scores[..], "k={}", k);
                prop_assert_eq!(ws.psi(), &want.psi_pos[..], "k={}", k);
                prop_assert_eq!(ws.delta_star(), &want.delta_star[..], "k={}", k);
                prop_assert_eq!(ws.support(), &want_support[..], "k={}", k);
                prop_assert_eq!(ws.estimate_dense(), want.estimate.dense(), "k={}", k);
                let served = decoder(DecoderKind::ThresholdMn)
                    .decode(&design, &y, k, seed, sigma.dense(), &mut scratch);
                prop_assert_eq!(outcome_tuple(served), want_outcome, "k={}", k);
            });
        }
    }
}
