//! Per-shard job processing.
//!
//! Each worker owns a [`WorkerScratch`] — every buffer one job needs,
//! reused forever — and runs jobs end to end: draw the hidden signal,
//! simulate query execution (the paper's dominant cost), execute the
//! additive queries, decode through the registry, and score against the
//! truth. After warm-up at a stable job shape the MN paths perform zero
//! heap allocations per job (pinned by `tests/alloc_free.rs`).
//!
//! Query execution is **support-driven**: an engine job is a synthetic
//! instance whose lab measurement the worker simulates, so `y = Aᵀσ` is
//! computed from the sorted hidden support over the design's transpose
//! (`pooled_core::query::execute_queries_support_into`) — `O(k·Δ)`
//! incidences instead of a sweep over all `nnz`. This is the simulation
//! of the lab, not decoder input: the decoders still receive only `y`,
//! which is bit-identical to what the dense `execute_queries_dense_into`
//! computes (the reference the tests pin against).
//!
//! [`process_batch`] is the design-affinity fast path: a run of MN jobs
//! sharing one cached design is served by the support-driven, item-major
//! batch kernel (`pooled_core::batch::BatchWorkspace::accumulate_supports`)
//! — every lane's `y` from its support into a query-major, lane-inner
//! plane, then Ψ gathered item by item over the transpose for a whole
//! chunk of lanes at once, one shared Δ* (`entry_row(i).len()`), and one
//! overlapped query-latency sleep. Hits are scored against the sorted
//! supports, so no dense truth plane exists on this path. Every lane's
//! result is bit-identical to [`process_job`] on that spec alone.

use std::time::Instant;

use pooled_core::batch::BatchWorkspace;
use pooled_core::mn::MnDecoder;
use pooled_core::query::execute_queries_support_into;
use pooled_design::factory::AnyDesign;
use pooled_design::PoolingDesign;
use pooled_rng::shuffle::sample_distinct_floyd_into;
use pooled_rng::SeedSequence;

use crate::job::{DecoderKind, Digest, JobResult, JobSpec};
use crate::registry::{decoder, DecodeScratch};
use crate::telemetry::{FlightRecorder, JobTrace, Span};

/// All buffers a worker reuses across jobs.
pub struct WorkerScratch {
    /// This worker's shard index (stamped into results).
    worker: u32,
    /// Hidden-signal support, ascending.
    support: Vec<usize>,
    /// Hidden signal, dense 0/1 (the registry decoders score against it).
    truth: Vec<u8>,
    /// Additive query results.
    y: Vec<u64>,
    /// Decoder scratch (MN workspace + threshold bits); batched lanes are
    /// finished in its MN workspace too.
    decode: DecodeScratch,
    /// Batched-path planes (lane supports + the batch workspace).
    batch: BatchScratch,
}

/// Reusable planes for [`process_batch`].
#[derive(Default)]
struct BatchScratch {
    /// The widest run this worker may be handed (the engine's batch
    /// window); planes are capacity-reserved for it the first time a
    /// shape is seen (see [`WorkerScratch::prepare_shape`]).
    window: usize,
    /// Every lane's hidden support (ascending), concatenated.
    supports: Vec<usize>,
    /// Lane `b`'s support is `supports[bounds[b]..bounds[b+1]]`.
    bounds: Vec<usize>,
    /// Ψ lanes + shared Δ* + y plane.
    bw: BatchWorkspace,
}

impl WorkerScratch {
    /// Empty scratch for shard `worker`; buffers grow on first use.
    /// Equivalent to [`Self::with_batch_window`] at window 1.
    pub fn new(worker: u32) -> Self {
        Self::with_batch_window(worker, 1)
    }

    /// Empty scratch for shard `worker` serving runs of up to
    /// `batch_window` jobs: the batch planes reserve capacity for the
    /// full window the first time a traffic shape is seen, so run-length
    /// jitter (queue timing decides how many jobs a worker drains) can
    /// never trigger a mid-serving allocation after warm-up.
    pub fn with_batch_window(worker: u32, batch_window: usize) -> Self {
        Self {
            worker,
            support: Vec::new(),
            truth: Vec::new(),
            y: Vec::new(),
            decode: DecodeScratch::new(),
            batch: BatchScratch { window: batch_window.max(1), ..BatchScratch::default() },
        }
    }

    /// The shard index.
    pub fn worker(&self) -> u32 {
        self.worker
    }

    /// Clear the per-job buffers of *both* serving paths and pre-size
    /// them for `n`-entry, `m`-query jobs of weight up to `k`. Queue
    /// timing decides whether a job arrives alone ([`process_job`]) or in
    /// a run ([`process_batch`]), so whichever path sees a shape first
    /// sizes the other's buffers too (the batch planes for the full
    /// window), and after warm-up neither path allocates on its first use.
    fn prepare_shape(&mut self, n: usize, m: usize, k: usize) {
        self.truth.clear();
        self.truth.reserve(n);
        self.y.clear();
        self.y.reserve(m);
        let batch = &mut self.batch;
        batch.supports.clear();
        batch.bounds.clear();
        if batch.window > 1 {
            batch.bw.reserve(batch.window, n, m);
            batch.supports.reserve(batch.window * k);
            batch.bounds.reserve(batch.window + 1);
        }
    }
}

/// Whether `candidate` may join a batch anchored by `first`: both must
/// request the classic MN decoder (the batched kernel's algorithm) and
/// resolve to the same design key, so one traversal serves the run.
/// `k` and the job seed may differ per lane — each lane finishes with its
/// own decoder weight against its own hidden signal.
pub fn batch_compatible(first: &JobSpec, candidate: &JobSpec) -> bool {
    first.decoder == DecoderKind::Mn
        && candidate.decoder == DecoderKind::Mn
        && crate::cache::DesignKey::of(first) == crate::cache::DesignKey::of(candidate)
}

/// Run one job against its (cached) design. Deterministic: every random
/// draw derives from `spec.seed` / `spec.design.seed`, so the result
/// fingerprint is independent of worker placement and timing.
pub fn process_job(spec: &JobSpec, design: &AnyDesign, scratch: &mut WorkerScratch) -> JobResult {
    process_job_traced(spec, design, scratch, None)
}

/// [`process_job`] with span tracing: when `tracing` carries a flight
/// recorder and a live trace, the decode stage's entry and exit are
/// stamped on the recorder's clock (`decode_start` / `decode_end`).
/// Timestamps never feed a seed or a kernel input, so the result is
/// bit-identical to the untraced call — tracing is fingerprint-invisible
/// by construction.
pub fn process_job_traced(
    spec: &JobSpec,
    design: &AnyDesign,
    scratch: &mut WorkerScratch,
    mut tracing: Option<(&FlightRecorder, &mut JobTrace)>,
) -> JobResult {
    let started = Instant::now();
    let seeds = SeedSequence::new(spec.seed);
    scratch.prepare_shape(design.n(), design.m(), spec.k);

    // 1. Draw the hidden weight-k signal into reusable buffers.
    let mut rng = seeds.child("signal", 0).rng();
    sample_distinct_floyd_into(spec.n, spec.k, &mut rng, &mut scratch.support);
    scratch.truth.resize(spec.n, 0);
    for &i in &scratch.support {
        scratch.truth[i] = 1;
    }

    // 2. Simulate executing the pooled queries — the latency the paper's
    // parallel design exists to hide. Worker shards overlap these sleeps
    // exactly like parallel lab equipment.
    if spec.query_cost_micros > 0 {
        std::thread::sleep(std::time::Duration::from_micros(spec.query_cost_micros as u64));
    }

    // 3. Additive query results y = Aᵀσ: the simulated lab measurement,
    // from the support over the transpose.
    execute_queries_support_into(design.csr(), &scratch.support, &mut scratch.y);

    // 4. Decode through the registry.
    if let Some((recorder, trace)) = tracing.as_mut() {
        trace.stamp(Span::DecodeStart, recorder.now_micros());
    }
    let decode_started = Instant::now();
    let out = decoder(spec.decoder).decode(
        design,
        &scratch.y,
        spec.k,
        spec.seed,
        &scratch.truth,
        &mut scratch.decode,
    );
    let decode_micros = decode_started.elapsed().as_micros() as u64;
    if let Some((recorder, trace)) = tracing.as_mut() {
        trace.stamp(Span::DecodeEnd, recorder.now_micros());
    }

    JobResult {
        id: spec.id,
        decoder: spec.decoder,
        exact: out.hits as usize == spec.k && out.weight as usize == spec.k,
        hits: out.hits,
        weight: out.weight,
        support_digest: out.support_digest,
        score_digest: out.score_digest,
        decode_micros,
        // Service time only; the engine adds the queue wait it measured.
        queue_micros: 0,
        total_micros: started.elapsed().as_micros() as u64,
        worker: scratch.worker,
    }
}

/// Serve a whole run of batch-compatible jobs (see [`batch_compatible`])
/// against their shared design: one support-driven kernel call for every
/// lane's query execution and Ψ accumulation, one shared Δ*, and one
/// sleep for the batch's query latency (the simulated query executions
/// overlap — they would run on parallel lab equipment — so the batch
/// waits for the slowest lane, not the sum).
///
/// Appends one [`JobResult`] per spec, in spec order. Deterministic:
/// every lane's result fingerprint equals [`process_job`]'s for the same
/// spec (exact `u64` sums make the batched accumulation bit-identical);
/// only the timing fields differ — `decode_micros` is the batch's decode
/// time split evenly across lanes, and every lane shares the batch's
/// service time.
///
/// # Panics
/// Panics (debug) if the specs are not mutually batch-compatible.
pub fn process_batch(
    specs: &[JobSpec],
    design: &AnyDesign,
    scratch: &mut WorkerScratch,
    out: &mut Vec<JobResult>,
) {
    debug_assert!(specs.windows(2).all(|w| batch_compatible(&specs[0], &w[1])));
    if specs.is_empty() {
        return;
    }
    let started = Instant::now();
    let csr = design.csr();
    let lanes = specs.len();
    scratch.batch.window = scratch.batch.window.max(lanes);
    let k_max = specs.iter().map(|s| s.k).max().unwrap_or(0);
    scratch.prepare_shape(csr.n(), csr.m(), k_max);
    let batch = &mut scratch.batch;

    // 1. Draw every lane's hidden weight-k support.
    batch.bounds.push(0);
    for spec in specs {
        let mut rng = SeedSequence::new(spec.seed).child("signal", 0).rng();
        sample_distinct_floyd_into(spec.n, spec.k, &mut rng, &mut scratch.support);
        batch.supports.extend_from_slice(&scratch.support);
        batch.bounds.push(batch.supports.len());
    }

    // 2. One overlapped query-execution sleep for the whole batch.
    let cost = specs.iter().map(|s| s.query_cost_micros).max().unwrap_or(0);
    if cost > 0 {
        std::thread::sleep(std::time::Duration::from_micros(cost as u64));
    }

    // 3. Every lane's y = Aᵀσ and Ψ, plus the shared Δ*.
    let decode_started = Instant::now();
    batch.bw.accumulate_supports(csr, &batch.supports, &batch.bounds);

    // 4. Finish each lane with its own decoder weight and score it.
    let first = out.len();
    for (b, spec) in specs.iter().enumerate() {
        let ws = &mut scratch.decode.ws;
        MnDecoder::new(spec.k).finish_from_sums(batch.bw.lane_psi(b), batch.bw.dstar(), ws);
        let mut d = Digest::new();
        for &s in ws.scores() {
            d.push(s as u64);
        }
        let truth = &batch.supports[batch.bounds[b]..batch.bounds[b + 1]];
        let hits = ws.support().iter().filter(|i| truth.binary_search(i).is_ok()).count() as u32;
        let weight = ws.support().len() as u32;
        out.push(JobResult {
            id: spec.id,
            decoder: spec.decoder,
            exact: hits as usize == spec.k && weight as usize == spec.k,
            hits,
            weight,
            support_digest: crate::job::digest_support(ws.support()),
            score_digest: d.finish(),
            decode_micros: 0, // patched below once the batch is timed
            queue_micros: 0,  // the engine adds the wait it measured
            total_micros: 0,
            worker: scratch.worker,
        });
    }
    let decode_micros = decode_started.elapsed().as_micros() as u64 / lanes as u64;
    let total_micros = started.elapsed().as_micros() as u64;
    for result in &mut out[first..] {
        result.decode_micros = decode_micros;
        result.total_micros = total_micros;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DesignKey;
    use crate::job::{DecoderKind, DesignSpec};

    fn spec(seed: u64) -> JobSpec {
        JobSpec {
            id: seed,
            n: 400,
            k: 6,
            m: 300,
            design: DesignSpec::random_regular(11),
            decoder: DecoderKind::Mn,
            seed,
            query_cost_micros: 0,
        }
    }

    #[test]
    fn same_spec_same_fingerprint_different_scratch() {
        let spec = spec(5);
        let design = DesignKey::of(&spec).sample();
        let mut a = WorkerScratch::new(0);
        let mut b = WorkerScratch::new(3);
        let ra = process_job(&spec, &design, &mut a);
        let rb = process_job(&spec, &design, &mut b);
        assert_eq!(ra.fingerprint(), rb.fingerprint());
        assert_eq!(rb.worker, 3, "worker stamp reflects the shard");
    }

    #[test]
    fn different_seeds_give_different_instances() {
        let sa = spec(1);
        let sb = spec(2);
        let design = DesignKey::of(&sa).sample();
        let mut ws = WorkerScratch::new(0);
        let ra = process_job(&sa, &design, &mut ws);
        let rb = process_job(&sb, &design, &mut ws);
        assert_ne!(ra.fingerprint(), rb.fingerprint());
    }

    #[test]
    fn batch_fingerprints_match_per_job_processing() {
        // A batch of same-design MN jobs (different seeds, different k)
        // must produce bit-identical fingerprints to serving each spec
        // alone — the batcher's core contract.
        let mut specs: Vec<JobSpec> = (0..7).map(spec).collect();
        specs[3].k = 9; // mixed weights are batchable
        let design = DesignKey::of(&specs[0]).sample();
        let mut per_job = WorkerScratch::new(0);
        let want: Vec<u64> =
            specs.iter().map(|s| process_job(s, &design, &mut per_job).fingerprint()).collect();
        let mut batched = WorkerScratch::new(1);
        let mut out = Vec::new();
        process_batch(&specs, &design, &mut batched, &mut out);
        assert_eq!(out.len(), specs.len());
        let got: Vec<u64> = out.iter().map(|r| r.fingerprint()).collect();
        assert_eq!(got, want);
        assert!(out.iter().all(|r| r.worker == 1));
    }

    /// A job's fingerprint from the retained dense reference path only:
    /// dense truth, `execute_queries_dense_into`, the registry decoder.
    fn reference_fingerprint(spec: &JobSpec, design: &AnyDesign) -> u64 {
        use pooled_core::query::execute_queries_dense_into;
        let mut support = Vec::new();
        let mut rng = SeedSequence::new(spec.seed).child("signal", 0).rng();
        sample_distinct_floyd_into(spec.n, spec.k, &mut rng, &mut support);
        let mut truth = vec![0u8; spec.n];
        for &i in &support {
            truth[i] = 1;
        }
        let mut y = Vec::new();
        execute_queries_dense_into(design, &truth, &mut y);
        let out = decoder(spec.decoder).decode(
            design,
            &y,
            spec.k,
            spec.seed,
            &truth,
            &mut DecodeScratch::new(),
        );
        JobResult {
            id: spec.id,
            decoder: spec.decoder,
            exact: out.hits as usize == spec.k && out.weight as usize == spec.k,
            hits: out.hits,
            weight: out.weight,
            support_digest: out.support_digest,
            score_digest: out.score_digest,
            decode_micros: 0,
            queue_micros: 0,
            total_micros: 0,
            worker: 0,
        }
        .fingerprint()
    }

    #[test]
    fn support_driven_serving_matches_the_dense_reference() {
        use pooled_design::factory::DesignKind;
        let mut ws = WorkerScratch::with_batch_window(0, 16);
        // m = 300 decodes exactly; m = 40 is far below the threshold, so
        // partial hits and wrong supports are pinned too.
        for (kind, m) in DesignKind::ALL.into_iter().flat_map(|kind| [(kind, 300), (kind, 40)]) {
            let specs: Vec<JobSpec> = (0..11)
                .map(|seed| JobSpec {
                    design: DesignSpec { kind, c_milli: 500, seed: 17 },
                    k: [6, 9, 0][seed as usize % 3],
                    m,
                    ..spec(seed)
                })
                .collect();
            let design = DesignKey::of(&specs[0]).sample();
            let want: Vec<u64> = specs.iter().map(|s| reference_fingerprint(s, &design)).collect();
            let mut out = Vec::new();
            process_batch(&specs, &design, &mut ws, &mut out);
            let got: Vec<u64> = out.iter().map(|r| r.fingerprint()).collect();
            assert_eq!(got, want, "{kind:?} m={m} batch");
            for decoder in [DecoderKind::Mn, DecoderKind::GeneralMn, DecoderKind::ThresholdMn] {
                for s in specs.iter().filter(|s| s.k > 0) {
                    let s = JobSpec { decoder, ..*s };
                    let got = process_job(&s, &design, &mut ws).fingerprint();
                    let want = reference_fingerprint(&s, &design);
                    assert_eq!(got, want, "{kind:?} m={m} {decoder:?}");
                }
            }
        }
    }

    #[test]
    fn batch_compatibility_requires_mn_and_one_design() {
        let a = spec(1);
        let mut other_design = spec(2);
        other_design.design = DesignSpec::random_regular(99);
        let mut other_decoder = spec(3);
        other_decoder.decoder = DecoderKind::GeneralMn;
        let mut other_k = spec(4);
        other_k.k = 11;
        assert!(batch_compatible(&a, &spec(5)));
        assert!(batch_compatible(&a, &other_k), "k may vary per lane");
        assert!(!batch_compatible(&a, &other_design));
        assert!(!batch_compatible(&a, &other_decoder));
        assert!(!batch_compatible(&other_decoder, &a));
    }

    #[test]
    fn batch_sleeps_the_slowest_lane_once() {
        let mut specs: Vec<JobSpec> = (0..4).map(spec).collect();
        for (i, s) in specs.iter_mut().enumerate() {
            s.query_cost_micros = 5_000 * (i as u32 + 1);
        }
        let design = DesignKey::of(&specs[0]).sample();
        let mut ws = WorkerScratch::new(0);
        let started = Instant::now();
        let mut out = Vec::new();
        process_batch(&specs, &design, &mut ws, &mut out);
        let elapsed = started.elapsed().as_micros() as u64;
        assert!(elapsed >= 20_000, "batch must wait for the slowest lane ({elapsed}µs)");
        assert!(elapsed < 50_000, "batch slept lanes serially ({elapsed}µs ≥ sum of costs)");
    }

    #[test]
    fn query_cost_is_reflected_in_total_latency() {
        let mut s = spec(3);
        s.query_cost_micros = 20_000; // 20 ms
        let design = DesignKey::of(&s).sample();
        let mut ws = WorkerScratch::new(0);
        let r = process_job(&s, &design, &mut ws);
        assert!(r.total_micros >= 20_000, "total {}µs < simulated 20ms", r.total_micros);
        assert!(r.decode_micros < r.total_micros);
    }
}
