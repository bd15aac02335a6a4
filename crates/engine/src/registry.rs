//! The decoder registry: every reconstruction algorithm the engine can
//! serve, behind one trait object.
//!
//! [`decoder`] maps a [`DecoderKind`] to a `&'static dyn EngineDecoder`.
//! The three served MN-family decoders (classic MN, Γ-general MN and
//! Threshold-MN) are transpose gathers: each scores every entry in one
//! pass over its row of the design's CSR transpose
//! (`CsrDesign::entry_row`) into the per-worker [`MnWorkspace`], and all
//! three are **allocation-free** after warm-up. The baseline decoders
//! reuse their crates' one-shot APIs (they allocate, and the registry
//! documents that — they exist for comparative traffic, not the hot path).
//!
//! A decoder's contract: given the design, the additive query results
//! `y`, the target weight `k` and the hidden truth (engine jobs are
//! self-checking synthetic instances), produce a [`DecodeOutcome`] whose
//! digests are a pure function of `(design, y, k, seed)` — never of
//! worker placement or timing. The determinism suite holds every
//! registered decoder to this.

use pooled_baselines::control::{PsiOnlyDecoder, RandomGuessDecoder};
use pooled_baselines::omp::OmpDecoder;
use pooled_baselines::AdditiveDecoder;
use pooled_core::mn::MnDecoder;
use pooled_core::mn_general::GeneralMnDecoder;
use pooled_core::workspace::MnWorkspace;
use pooled_design::factory::AnyDesign;
use pooled_design::PoolingDesign;
use pooled_rng::SeedSequence;
use pooled_threshold::decoder::ThresholdMnDecoder;

use crate::job::{digest_support, DecoderKind, Digest};

/// Per-worker scratch shared by every decoder: the MN workspace plus the
/// small per-job buffers of the Γ-general and threshold decoders.
#[derive(Default)]
pub struct DecodeScratch {
    /// Reusable MN decode workspace (buffers grow once per shape).
    pub ws: MnWorkspace,
    /// Per-query draw counts `|a_q|` (Γ-general centering).
    pool_lens: Vec<u64>,
    /// Threshold-MN winners in ascending order (the digest order).
    ascending: Vec<usize>,
}

impl DecodeScratch {
    /// Empty scratch; every buffer grows on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// What a decoder hands back to the worker (see module docs for the
/// determinism contract).
#[derive(Clone, Copy, Debug)]
pub struct DecodeOutcome {
    /// Order-sensitive digest of the selected support.
    pub support_digest: u64,
    /// Digest of the per-entry scores (0 when the decoder has none).
    pub score_digest: u64,
    /// Correctly recovered one-entries.
    pub hits: u32,
    /// Estimate weight.
    pub weight: u32,
}

/// One servable reconstruction algorithm.
pub trait EngineDecoder: Send + Sync {
    /// Stable identifier (matches [`DecoderKind::name`]).
    fn name(&self) -> &'static str;

    /// Whether steady-state serving through this decoder is
    /// allocation-free (pinned by `tests/alloc_free.rs` for the decoders
    /// that claim it).
    fn alloc_free(&self) -> bool {
        false
    }

    /// Decode `y` against `design`, scoring against the hidden `truth`.
    fn decode(
        &self,
        design: &AnyDesign,
        y: &[u64],
        k: usize,
        seed: u64,
        truth: &[u8],
        scratch: &mut DecodeScratch,
    ) -> DecodeOutcome;
}

/// The registry: one static decoder per [`DecoderKind`].
pub fn decoder(kind: DecoderKind) -> &'static dyn EngineDecoder {
    match kind {
        DecoderKind::Mn => &MnEngine,
        DecoderKind::GeneralMn => &GeneralMnEngine,
        DecoderKind::ThresholdMn => &ThresholdMnEngine,
        DecoderKind::PsiOnly => &PsiOnlyEngine,
        DecoderKind::RandomGuess => &RandomGuessEngine,
        DecoderKind::Omp => &OmpEngine,
        DecoderKind::PanicProbe => &PanicProbeEngine,
    }
}

/// Count support hits against the dense truth and fold the outcome.
fn outcome(support: &[usize], score_digest: u64, truth: &[u8]) -> DecodeOutcome {
    let hits = support.iter().filter(|&&i| truth[i] == 1).count() as u32;
    DecodeOutcome {
        support_digest: digest_support(support),
        score_digest,
        hits,
        weight: support.len() as u32,
    }
}

/// Algorithm 1 through the workspace gather path (allocation-free).
struct MnEngine;

impl EngineDecoder for MnEngine {
    fn name(&self) -> &'static str {
        "mn"
    }

    fn alloc_free(&self) -> bool {
        true
    }

    fn decode(
        &self,
        design: &AnyDesign,
        y: &[u64],
        k: usize,
        _seed: u64,
        truth: &[u8],
        scratch: &mut DecodeScratch,
    ) -> DecodeOutcome {
        MnDecoder::new(k).decode_csr_with(design.csr(), y, &mut scratch.ws);
        let mut d = Digest::new();
        for &s in scratch.ws.scores() {
            d.push(s as u64);
        }
        outcome(scratch.ws.support(), d.finish(), truth)
    }
}

/// Γ-general MN through the transpose gather (allocation-free). The
/// per-query pool sizes come from the design family (`pool_len`): `m`
/// dispatches, which keep Bernoulli's random sizes and every other
/// family's `Γ` exact.
struct GeneralMnEngine;

impl EngineDecoder for GeneralMnEngine {
    fn name(&self) -> &'static str {
        "mn_general"
    }

    fn alloc_free(&self) -> bool {
        true
    }

    fn decode(
        &self,
        design: &AnyDesign,
        y: &[u64],
        k: usize,
        _seed: u64,
        truth: &[u8],
        scratch: &mut DecodeScratch,
    ) -> DecodeOutcome {
        scratch.pool_lens.clear();
        scratch.pool_lens.extend((0..design.m()).map(|q| design.pool_len(q) as u64));
        GeneralMnDecoder::new(k).decode_csr_with(
            design.csr(),
            &scratch.pool_lens,
            y,
            &mut scratch.ws,
        );
        let mut d = Digest::new();
        for &s in scratch.ws.scores_wide() {
            d.push_i128(s);
        }
        outcome(scratch.ws.support(), d.finish(), truth)
    }
}

/// Threshold-MN on the median-threshold one-bit channel: the additive
/// results are collapsed to `y_q ≥ t` with `t = max(1, round(Γ·k/n))`
/// (the null mean, so bits split near 50/50) inside the transpose gather
/// (allocation-free).
struct ThresholdMnEngine;

impl EngineDecoder for ThresholdMnEngine {
    fn name(&self) -> &'static str {
        "threshold_mn"
    }

    fn alloc_free(&self) -> bool {
        true
    }

    fn decode(
        &self,
        design: &AnyDesign,
        y: &[u64],
        k: usize,
        _seed: u64,
        truth: &[u8],
        scratch: &mut DecodeScratch,
    ) -> DecodeOutcome {
        let n = design.n() as u64;
        let t = ((design.gamma() as u64 * k as u64 + n / 2) / n).max(1);
        ThresholdMnDecoder::new(k).decode_csr_with(design.csr(), y, t, &mut scratch.ws);
        let mut d = Digest::new();
        for &s in scratch.ws.scores() {
            d.push(s as u64);
        }
        // The support digest is over the ascending support (the order of
        // `Signal::support`), not the ranking order of the selection.
        scratch.ascending.clear();
        scratch.ascending.extend_from_slice(scratch.ws.support());
        scratch.ascending.sort_unstable();
        outcome(&scratch.ascending, d.finish(), truth)
    }
}

/// Ψ-only ablation baseline (no degree centering).
struct PsiOnlyEngine;

impl EngineDecoder for PsiOnlyEngine {
    fn name(&self) -> &'static str {
        "psi_only"
    }

    fn decode(
        &self,
        design: &AnyDesign,
        y: &[u64],
        k: usize,
        _seed: u64,
        truth: &[u8],
        _scratch: &mut DecodeScratch,
    ) -> DecodeOutcome {
        let estimate = PsiOnlyDecoder::new().reconstruct(design.csr(), y, k);
        outcome(estimate.support(), 0, truth)
    }
}

/// Random-guess control, seeded from the job so reruns are bit-identical.
struct RandomGuessEngine;

impl EngineDecoder for RandomGuessEngine {
    fn name(&self) -> &'static str {
        "random_guess"
    }

    fn decode(
        &self,
        design: &AnyDesign,
        y: &[u64],
        k: usize,
        seed: u64,
        truth: &[u8],
        _scratch: &mut DecodeScratch,
    ) -> DecodeOutcome {
        let guess = RandomGuessDecoder::new(SeedSequence::new(seed).child("guess", 0));
        let estimate = guess.reconstruct(design.csr(), y, k);
        outcome(estimate.support(), 0, truth)
    }
}

/// Orthogonal Matching Pursuit baseline (densifies the design: `m·n`
/// doubles — route only small instances here).
struct OmpEngine;

impl EngineDecoder for OmpEngine {
    fn name(&self) -> &'static str {
        "omp"
    }

    fn decode(
        &self,
        design: &AnyDesign,
        y: &[u64],
        k: usize,
        _seed: u64,
        truth: &[u8],
        _scratch: &mut DecodeScratch,
    ) -> DecodeOutcome {
        let estimate = OmpDecoder::new().reconstruct(design.csr(), y, k);
        outcome(estimate.support(), 0, truth)
    }
}

/// The hidden probe behind [`DecoderKind::PanicProbe`]: always panics.
/// Exists so the panic-containment tests can poison a worker's decode
/// stage on demand; never reachable from real traffic (the kind is not
/// in [`DecoderKind::ALL`]).
struct PanicProbeEngine;

impl EngineDecoder for PanicProbeEngine {
    fn name(&self) -> &'static str {
        "panic_probe"
    }

    fn decode(
        &self,
        _design: &AnyDesign,
        _y: &[u64],
        _k: usize,
        _seed: u64,
        _truth: &[u8],
        _scratch: &mut DecodeScratch,
    ) -> DecodeOutcome {
        panic!("panic probe decoder: deliberate decode-stage panic");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pooled_core::query::execute_queries;
    use pooled_core::Signal;
    use pooled_design::factory::DesignKind;

    fn instance(seed: u64) -> (AnyDesign, Signal, Vec<u64>, usize) {
        let seeds = SeedSequence::new(seed);
        let (n, k, m) = (300, 5, 220);
        let design = DesignKind::RandomRegular.sample(n, m, 0.5, &seeds.child("design", 0));
        let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
        let y = execute_queries(&design, &sigma);
        (design, sigma, y, k)
    }

    #[test]
    fn registry_names_match_kinds() {
        for kind in DecoderKind::ALL {
            assert_eq!(decoder(kind).name(), kind.name());
        }
    }

    #[test]
    fn every_decoder_produces_a_weight_k_estimate() {
        let (design, sigma, y, k) = instance(42);
        let mut scratch = DecodeScratch::new();
        for kind in DecoderKind::ALL {
            let out = decoder(kind).decode(&design, &y, k, 7, sigma.dense(), &mut scratch);
            assert_eq!(out.weight as usize, k, "{}", kind.name());
            assert!(out.hits <= out.weight, "{}", kind.name());
        }
    }

    #[test]
    fn decodes_are_reproducible() {
        let (design, sigma, y, k) = instance(43);
        let mut a = DecodeScratch::new();
        let mut b = DecodeScratch::new();
        for kind in DecoderKind::ALL {
            let x = decoder(kind).decode(&design, &y, k, 9, sigma.dense(), &mut a);
            let z = decoder(kind).decode(&design, &y, k, 9, sigma.dense(), &mut b);
            assert_eq!(x.support_digest, z.support_digest, "{}", kind.name());
            assert_eq!(x.score_digest, z.score_digest, "{}", kind.name());
            assert_eq!(x.hits, z.hits, "{}", kind.name());
        }
    }

    #[test]
    fn mn_recovers_an_easy_instance() {
        let (design, sigma, y, k) = instance(44);
        let mut scratch = DecodeScratch::new();
        let out = decoder(DecoderKind::Mn).decode(&design, &y, k, 0, sigma.dense(), &mut scratch);
        assert_eq!(out.hits as usize, k, "MN should recover at m comfortably above threshold");
    }

    #[test]
    fn decoders_disagree_on_scores() {
        // The registry must dispatch to genuinely different algorithms:
        // MN and Ψ-only produce different digests on a generic instance.
        let (design, sigma, y, k) = instance(45);
        let mut scratch = DecodeScratch::new();
        let mn = decoder(DecoderKind::Mn).decode(&design, &y, k, 0, sigma.dense(), &mut scratch);
        let gen =
            decoder(DecoderKind::GeneralMn).decode(&design, &y, k, 0, sigma.dense(), &mut scratch);
        // Same ranking on the regular design (property-tested in core),
        // but the score spaces differ.
        assert_eq!(mn.support_digest, gen.support_digest);
        assert_ne!(mn.score_digest, gen.score_digest);
    }
}
