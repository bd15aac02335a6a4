//! Seeded parallel trial execution.
//!
//! Every trial gets its own [`SeedSequence`] derived from the master seed,
//! so the set of trial results is a pure function of `(master, trials)` no
//! matter how rayon schedules them.
//!
//! Three execution paths:
//!
//! * [`run_trials`] — stateless closure per trial (the original API).
//! * [`run_trials_with`] — per-worker workspace threaded through the
//!   trials of each chunk, so sweeps reuse decode buffers instead of
//!   allocating per replicate. [`mn_trial_with`] is the canonical trial
//!   on that path: it decodes through the fused single-pass kernel
//!   (`pooled_design::fused`) and an [`MnTrialWorkspace`].
//! * [`run_mn_trials_batched`] — design-major batching: trials are
//!   grouped into batches of `B` lanes that share one sampled design, so
//!   one batched kernel call serves all `B` decodes
//!   (`pooled_design::batched`): on a materialized design the same
//!   support-driven, item-major kernel the serving engine runs
//!   (`BatchWorkspace::accumulate_supports`), on a streaming design the
//!   design-major kernel that regenerates each pool once per batch.
//!   With `B = 1` this is bit-identical to
//!   [`mn_trial_with`] trial by trial; with `B > 1` each batch draws one
//!   design and `B` independent signals — still an unbiased estimate of
//!   the success probability (which averages over design *and* signal),
//!   at a fraction of the memory traffic.

use rayon::prelude::*;

use pooled_core::batch::BatchWorkspace;
use pooled_core::workspace::MnWorkspace;
use pooled_rng::SeedSequence;

/// Run `trials` independent replicates of `trial_fn` in parallel.
///
/// `trial_fn` receives `(trial_index, seed_node)` and must be deterministic
/// given those inputs. Results come back in trial order.
pub fn run_trials<T, F>(master: &SeedSequence, trials: usize, trial_fn: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, SeedSequence) -> T + Sync,
{
    (0..trials).into_par_iter().map(|t| trial_fn(t, master.child("trial", t as u64))).collect()
}

/// Workspace variant of [`run_trials`]: each parallel worker builds one
/// workspace via `init` and threads it through all its trials, so
/// per-replicate buffers are reused. Results are independent of the worker
/// count (trials stay seeded by index).
pub fn run_trials_with<T, W, INIT, F>(
    master: &SeedSequence,
    trials: usize,
    init: INIT,
    trial_fn: F,
) -> Vec<T>
where
    T: Send,
    W: Send,
    INIT: Fn() -> W + Sync + Send,
    F: Fn(usize, SeedSequence, &mut W) -> T + Sync + Send,
{
    (0..trials)
        .into_par_iter()
        .map_init(init, |ws, t| trial_fn(t, master.child("trial", t as u64), ws))
        .collect()
}

/// One MN reconstruction trial outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrialOutcome {
    /// Whether `σ̃ = σ` exactly.
    pub exact: bool,
    /// Fraction of one-entries recovered.
    pub overlap: f64,
}

/// Reusable buffers for [`mn_trial_with`]: the decode workspace plus the
/// trial-local query-result and dense-signal vectors.
#[derive(Default)]
pub struct MnTrialWorkspace {
    /// Decode workspace (Ψ/Δ*/scores/selection/estimate + fused arena).
    pub mn: MnWorkspace,
    /// Query results `y` (filled by the fused kernel).
    pub y: Vec<u64>,
    /// The signal as dense `u64` (the fused kernel's input layout).
    pub x: Vec<u64>,
}

impl MnTrialWorkspace {
    /// Empty workspace; buffers grow on the first trial.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The canonical single trial every figure shares: sample `σ` and
/// `G(n, m, Γ=n/2)`, execute, decode with MN, compare.
///
/// Thin wrapper over [`mn_trial_with`] on a fresh workspace.
pub fn mn_trial(n: usize, k: usize, m: usize, seeds: &SeedSequence) -> TrialOutcome {
    mn_trial_with(n, k, m, seeds, &mut MnTrialWorkspace::new())
}

/// Workspace MN trial: identical outcome to [`mn_trial`], but query
/// execution and the decoder's Ψ/Δ* accumulation run in **one fused
/// traversal** of the design (`pooled_design::fused`), and every decode
/// buffer is reused from `ws` — replicate loops stop allocating per trial.
pub fn mn_trial_with(
    n: usize,
    k: usize,
    m: usize,
    seeds: &SeedSequence,
    ws: &mut MnTrialWorkspace,
) -> TrialOutcome {
    use pooled_core::mn::MnDecoder;
    use pooled_core::signal::Signal;
    use pooled_design::fused::{decode_sums_fused, decode_sums_fused_stream};
    use pooled_design::multigraph::RandomRegularDesign;

    let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
    let design = RandomRegularDesign::sample(n, m, &seeds.child("design", 0));
    // Dense u64 signal for the fused kernel.
    ws.x.clear();
    ws.x.extend(sigma.dense().iter().map(|&b| b as u64));
    ws.y.clear();
    ws.y.resize(m, 0);
    ws.mn.prepare(n);
    {
        let (psi, dstar, arena) = ws.mn.sums_mut();
        match &design {
            RandomRegularDesign::Csr(csr) => {
                decode_sums_fused(csr, &ws.x, &mut ws.y, psi, dstar, arena);
            }
            RandomRegularDesign::Streaming(stream) => {
                decode_sums_fused_stream(stream, &ws.x, &mut ws.y, psi, dstar, arena);
            }
        }
    }
    MnDecoder::new(k).finish_with(n, &mut ws.mn);
    let estimate = ws.mn.estimate_dense();
    TrialOutcome {
        exact: pooled_core::metrics::exact_recovery_dense(&sigma, estimate),
        overlap: pooled_core::metrics::overlap_fraction_dense(&sigma, estimate),
    }
}

/// Reusable planes for one batched-trial worker: the lanes' supports, the
/// batch decode workspace, and the streaming arm's lane-major signals,
/// query results and pool scratch. Allocation-free after warm-up at a stable
/// `(lanes, n, m)` shape (signal/design sampling still allocates, as in
/// the single-trial path).
#[derive(Default)]
pub struct MnBatchTrialWorkspace {
    /// Every lane's support, concatenated (materialized designs).
    supports: Vec<usize>,
    /// Lane `b`'s support is `supports[bounds[b]..bounds[b+1]]`.
    bounds: Vec<usize>,
    /// Hidden signals, lane-major `lanes × n` dense 0/1 (streaming designs).
    truths: Vec<u8>,
    /// Query results, lane-major `lanes × m` (streaming designs).
    ys: Vec<u64>,
    /// Ψ lanes + shared Δ* + y plane + per-lane finish scratch.
    bw: BatchWorkspace,
    /// Streaming-design pool scratch (one regeneration per query serves
    /// every lane).
    pool: Vec<(u32, u32)>,
    /// The lane signals, kept for scoring.
    sigmas: Vec<pooled_core::signal::Signal>,
}

impl MnBatchTrialWorkspace {
    /// Empty workspace; buffers grow on the first batch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One batch of MN trials sharing a design: the trial indices in
/// `trials`, decoded in **one** design traversal. The design is drawn
/// from the first trial's `"design"` substream (so a 1-lane batch is
/// bit-identical to [`mn_trial_with`] on that trial); each lane's signal
/// comes from its own trial's `"signal"` substream. Outcomes are appended
/// to `out` in lane order.
pub fn mn_trial_batch_with(
    n: usize,
    k: usize,
    m: usize,
    master: &SeedSequence,
    trials: std::ops::Range<usize>,
    ws: &mut MnBatchTrialWorkspace,
    out: &mut Vec<TrialOutcome>,
) {
    let (first, lanes) = (trials.start, trials.len());
    use pooled_core::metrics::{exact_recovery_dense, overlap_fraction_dense};
    use pooled_core::mn::MnDecoder;
    use pooled_core::signal::Signal;
    use pooled_design::batched::decode_sums_fused_batch_stream;
    use pooled_design::multigraph::RandomRegularDesign;

    let design =
        RandomRegularDesign::sample(n, m, &master.child("trial", first as u64).child("design", 0));
    ws.sigmas.clear();
    for b in 0..lanes {
        let seeds = master.child("trial", (first + b) as u64);
        ws.sigmas.push(Signal::random(n, k, &mut seeds.child("signal", 0).rng()));
    }
    match &design {
        RandomRegularDesign::Csr(csr) => {
            ws.supports.clear();
            ws.bounds.clear();
            ws.bounds.push(0);
            for sigma in &ws.sigmas {
                ws.supports.extend_from_slice(sigma.support());
                ws.bounds.push(ws.supports.len());
            }
            ws.bw.accumulate_supports(csr, &ws.supports, &ws.bounds);
        }
        RandomRegularDesign::Streaming(stream) => {
            ws.truths.clear();
            for sigma in &ws.sigmas {
                ws.truths.extend_from_slice(sigma.dense());
            }
            ws.ys.clear();
            ws.ys.resize(lanes * m, 0);
            ws.bw.prepare(lanes, n);
            let (psis, dstar) = ws.bw.sums_mut();
            decode_sums_fused_batch_stream(
                stream,
                &ws.truths,
                lanes,
                &mut ws.ys,
                psis,
                dstar,
                &mut ws.pool,
            );
        }
    }
    let decoder = MnDecoder::new(k);
    for (b, sigma) in ws.sigmas.iter().enumerate() {
        let lane_ws = ws.bw.finish_lane(&decoder, b);
        let estimate = lane_ws.estimate_dense();
        out.push(TrialOutcome {
            exact: exact_recovery_dense(sigma, estimate),
            overlap: overlap_fraction_dense(sigma, estimate),
        });
    }
}

/// Run `trials` MN trials in design-major batches of up to `batch` lanes,
/// parallel across batches. Results come back in trial order and are a
/// pure function of `(master, trials, batch, shape)`; `batch = 1`
/// reproduces [`mn_trial_with`] over [`run_trials_with`] bit for bit.
///
/// # Panics
/// Panics if `batch == 0`.
pub fn run_mn_trials_batched(
    master: &SeedSequence,
    trials: usize,
    batch: usize,
    n: usize,
    k: usize,
    m: usize,
) -> Vec<TrialOutcome> {
    assert!(batch > 0, "batch must be at least 1");
    let batches = trials.div_ceil(batch);
    (0..batches)
        .into_par_iter()
        .map_init(MnBatchTrialWorkspace::new, |ws, j| {
            let first = j * batch;
            let last = (first + batch).min(trials);
            let mut out = Vec::with_capacity(last - first);
            mn_trial_batch_with(n, k, m, master, first..last, ws, &mut out);
            out
        })
        .collect::<Vec<Vec<TrialOutcome>>>()
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_order_stable_and_deterministic() {
        let master = SeedSequence::new(42);
        let a = run_trials(&master, 32, |t, seeds| (t, seeds.seed()));
        let b = run_trials(&master, 32, |t, seeds| (t, seeds.seed()));
        assert_eq!(a, b);
        for (i, (t, _)) in a.iter().enumerate() {
            assert_eq!(i, *t);
        }
    }

    #[test]
    fn trials_get_distinct_seeds() {
        let master = SeedSequence::new(1);
        let seeds = run_trials(&master, 64, |_, s| s.seed());
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }

    #[test]
    fn mn_trial_is_deterministic() {
        let seeds = SeedSequence::new(7).child("x", 3);
        let a = mn_trial(300, 5, 120, &seeds);
        let b = mn_trial(300, 5, 120, &seeds);
        assert_eq!(a, b);
    }

    #[test]
    fn mn_trial_overlap_bounds() {
        let seeds = SeedSequence::new(9);
        for t in 0..8 {
            let out = mn_trial(200, 4, 40, &seeds.child("t", t));
            assert!((0.0..=1.0).contains(&out.overlap));
            if out.exact {
                assert_eq!(out.overlap, 1.0);
            }
        }
    }

    #[test]
    fn fused_trial_matches_classic_pipeline() {
        use pooled_core::metrics::{exact_recovery, overlap_fraction};
        use pooled_core::mn::MnDecoder;
        use pooled_core::query::execute_queries;
        use pooled_core::signal::Signal;
        use pooled_design::multigraph::RandomRegularDesign;

        let mut ws = MnTrialWorkspace::new();
        for seed in 0..6u64 {
            let (n, k, m) = (300, 5, 110);
            let seeds = SeedSequence::new(seed).child("t", 0);
            let got = mn_trial_with(n, k, m, &seeds, &mut ws);
            // Classic path: separate execute + decode.
            let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
            let design = RandomRegularDesign::sample(n, m, &seeds.child("design", 0));
            let y = execute_queries(&design, &sigma);
            let out = MnDecoder::new(k).decode_design(&design, &y);
            assert_eq!(got.exact, exact_recovery(&sigma, &out.estimate), "seed {seed}");
            assert_eq!(got.overlap, overlap_fraction(&sigma, &out.estimate), "seed {seed}");
        }
    }

    #[test]
    fn run_trials_with_matches_run_trials() {
        let master = SeedSequence::new(77);
        let stateless = run_trials(&master, 24, |t, seeds| (t, seeds.seed()));
        let stateful = run_trials_with(&master, 24, || 0u64, |t, seeds, _ws| (t, seeds.seed()));
        assert_eq!(stateless, stateful);
    }

    #[test]
    fn zero_trials_is_empty() {
        let master = SeedSequence::new(3);
        let v: Vec<u8> = run_trials(&master, 0, |_, _| 1);
        assert!(v.is_empty());
    }

    #[test]
    fn batched_trials_at_lane_one_match_the_single_trial_path() {
        // B = 1 must reproduce the legacy per-trial executor bit for bit
        // (same design substream, same signal substream, same kernel sums).
        let master = SeedSequence::new(55);
        let (n, k, m, trials) = (300, 5, 120, 17);
        let legacy = run_trials_with(&master, trials, MnTrialWorkspace::new, |_, seeds, ws| {
            mn_trial_with(n, k, m, &seeds, ws)
        });
        let batched = run_mn_trials_batched(&master, trials, 1, n, k, m);
        assert_eq!(legacy, batched);
    }

    #[test]
    fn batched_trials_are_deterministic_and_order_stable() {
        let master = SeedSequence::new(56);
        let (n, k, m, trials) = (250, 4, 100, 23);
        let a = run_mn_trials_batched(&master, trials, 8, n, k, m);
        let b = run_mn_trials_batched(&master, trials, 8, n, k, m);
        assert_eq!(a, b);
        assert_eq!(a.len(), trials);
        for o in &a {
            assert!((0.0..=1.0).contains(&o.overlap));
            if o.exact {
                assert_eq!(o.overlap, 1.0);
            }
        }
    }

    #[test]
    fn batched_trials_estimate_the_same_success_rate() {
        // Shared-design batches change which (design, signal) pairs are
        // drawn, not the distribution being estimated: at a comfortably
        // above-threshold m both executors should succeed essentially
        // always, and far below both should essentially always fail.
        let master = SeedSequence::new(57);
        let (n, k, trials) = (300, 5, 40);
        let rate = |outcomes: &[TrialOutcome]| {
            outcomes.iter().filter(|o| o.exact).count() as f64 / outcomes.len() as f64
        };
        let easy = run_mn_trials_batched(&master, trials, 8, n, k, 200);
        assert!(rate(&easy) >= 0.9, "easy rate {}", rate(&easy));
        let hard = run_mn_trials_batched(&master, trials, 8, n, k, 5);
        assert!(rate(&hard) <= 0.1, "hard rate {}", rate(&hard));
    }

    #[test]
    fn partial_final_batch_is_served() {
        let master = SeedSequence::new(58);
        // 10 trials at batch 4 → batches of 4, 4, 2.
        let out = run_mn_trials_batched(&master, 10, 4, 150, 3, 60);
        assert_eq!(out.len(), 10);
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn zero_batch_rejected() {
        let _ = run_mn_trials_batched(&SeedSequence::new(1), 4, 0, 10, 2, 5);
    }
}
