//! Allocation accounting for the workspace decode and serving paths.
//!
//! The acceptance bar for the workspace refactor: after warm-up, a
//! 100-replicate repeated decode through `MnDecoder::decode_with` performs
//! **zero** heap allocations. A counting wrapper around the system
//! allocator pins this down exactly (single-worker pool: with more workers
//! the scoped-thread fan-out itself allocates, which is outside the decode
//! path's contract).
//!
//! Counting is **per thread**, so the tests stay exact while the harness
//! runs them in parallel: each thread counts its own allocations, and a
//! test reads only the threads it drives. Engine shard threads (named
//! `engine-worker-{i}`) count into one shared engine counter instead; the
//! tests that read it take [`ENGINE_TESTS`], so at most one engine is
//! counted at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct CountingAllocator;

/// Where a thread's allocations are counted.
#[derive(Clone, Copy, PartialEq)]
enum Role {
    /// Not yet looked up (the thread has not allocated).
    Unknown,
    /// Looking up the thread name, which may itself allocate.
    Resolving,
    /// The thread's own counter ([`own_allocations`]).
    Own,
    /// An engine shard thread: the shared [`ENGINE_ALLOCATIONS`].
    Engine,
}

thread_local! {
    static ROLE: Cell<Role> = const { Cell::new(Role::Unknown) };
    static OWN_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

static ENGINE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count_allocation() {
    // `try_with`: allocations during thread teardown are simply uncounted.
    let _ = ROLE.try_with(|role| {
        if role.get() == Role::Unknown {
            role.set(Role::Resolving);
            let engine =
                std::thread::current().name().is_some_and(|name| name.starts_with("engine-"));
            role.set(if engine { Role::Engine } else { Role::Own });
        }
        match role.get() {
            Role::Own => {
                let _ = OWN_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            }
            Role::Engine => {
                ENGINE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            }
            Role::Unknown | Role::Resolving => {}
        }
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn own_allocations() -> u64 {
    OWN_ALLOCATIONS.with(Cell::get)
}

/// Serializes the tests that read [`ENGINE_ALLOCATIONS`]: shard threads of
/// two live engines would otherwise count into one another's window.
static ENGINE_TESTS: Mutex<()> = Mutex::new(());

/// Take [`ENGINE_TESTS`]; a failed engine test leaves nothing to repair.
fn engine_test_lock() -> MutexGuard<'static, ()> {
    ENGINE_TESTS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocations made so far by the calling thread plus every engine shard
/// thread — the whole serving path of an engine driven from this thread.
fn serving_allocations() -> u64 {
    own_allocations() + ENGINE_ALLOCATIONS.load(Ordering::Relaxed)
}

use pooled_data::core::mn::MnDecoder;
use pooled_data::core::query::execute_queries;
use pooled_data::core::workspace::MnWorkspace;
use pooled_data::design::csr::CsrDesign;
use pooled_data::engine::cache::DesignKey;
use pooled_data::engine::engine::{Engine, EngineConfig};
use pooled_data::engine::job::DecoderKind;
use pooled_data::engine::traffic::LoadProfile;
use pooled_data::engine::worker::{process_batch, process_job, WorkerScratch};
use pooled_data::par::pool::pool_with_threads;
use pooled_data::prelude::*;

#[test]
fn workspace_decode_is_allocation_free_after_warmup() {
    let (n, m, k) = (20_000usize, 600usize, 12usize);
    let seeds = SeedSequence::new(1905);
    let design = CsrDesign::sample(n, m, n / 2, &seeds.child("design", 0));
    let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
    let y = execute_queries(&design, &sigma);
    let decoder = MnDecoder::new(k);
    let reference = decoder.decode(&design, &y);

    let pool = pool_with_threads(1);
    pool.install(|| {
        let mut ws = MnWorkspace::new();
        // Warm-up: grows every buffer to the workload's shape.
        decoder.decode_with(&design, &y, &mut ws);
        decoder.decode_with(&design, &y, &mut ws);

        let before = own_allocations();
        for _ in 0..100 {
            decoder.decode_with(&design, &y, &mut ws);
        }
        let after = own_allocations();
        assert_eq!(
            after - before,
            0,
            "workspace decode allocated {} times across 100 replicates",
            after - before
        );

        // And it still computes the right answer.
        assert_eq!(ws.estimate_dense(), reference.estimate.dense());
        assert_eq!(ws.scores(), &reference.scores[..]);

        // The gather path (entry-parallel over the CSR transpose) must be
        // allocation-free too.
        decoder.decode_csr_with(&design, &y, &mut ws);
        let before = own_allocations();
        for _ in 0..100 {
            decoder.decode_csr_with(&design, &y, &mut ws);
        }
        let after = own_allocations();
        assert_eq!(
            after - before,
            0,
            "gather-path decode allocated {} times across 100 replicates",
            after - before
        );
        assert_eq!(ws.estimate_dense(), reference.estimate.dense());
    });
}

#[test]
fn engine_steady_state_serving_is_allocation_free_after_warmup() {
    let _serial = engine_test_lock();
    // The full serving path — submission queue, design-cache hit, signal
    // draw, query execution, workspace decode, telemetry, completion
    // queue, batch drain — performs zero heap allocations per job once
    // every worker has warmed its scratch to the traffic's shape. This is
    // the engine's core scaling contract: steady-state throughput cannot
    // degrade from allocator pressure.
    let profile = LoadProfile {
        distinct_designs: 1,
        decoders: vec![DecoderKind::Mn, DecoderKind::GeneralMn],
        query_cost: None,
        ..LoadProfile::default_mix(2000, 9, 300, 77)
    };
    let engine = Engine::start(EngineConfig {
        workers: 2,
        queue_capacity: 32,
        results_capacity: 32,
        design_cache_capacity: 4,
        batch_window: 1,
    });
    let specs = profile.specs(24);
    let mut results = Vec::with_capacity(256);

    // Warm-up: several passes so *both* workers have served both decoder
    // kinds at this shape (work stealing is nondeterministic, so one pass
    // is not a guarantee) and every queue/scratch buffer has grown.
    for _ in 0..6 {
        results.clear();
        engine.run_batch(&specs, &mut results);
    }
    let reference: Vec<(u64, u64)> = results.iter().map(|r| (r.id, r.fingerprint())).collect();

    results.clear();
    let before = serving_allocations();
    for _ in 0..4 {
        engine.run_batch(&specs, &mut results);
    }
    let after = serving_allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state engine serving allocated {} times across {} jobs",
        after - before,
        4 * specs.len()
    );

    // And the served results are still correct and deterministic.
    for pass in results.chunks(specs.len()) {
        let got: Vec<(u64, u64)> = pass.iter().map(|r| (r.id, r.fingerprint())).collect();
        assert_eq!(got, reference);
    }
    engine.shutdown();
}

#[test]
fn batched_engine_serving_is_allocation_free_after_warmup() {
    let _serial = engine_test_lock();
    // The design-affinity batched path — pop_run, one cache hit per run,
    // lane-major signal draw, the batched fused kernel, per-lane finish,
    // telemetry, completion queue — must also serve with zero heap
    // allocations per job at steady state. Same contract as the per-job
    // path, now with the batch planes in the worker scratch.
    let profile = LoadProfile {
        distinct_designs: 1,
        decoders: vec![DecoderKind::Mn],
        query_cost: None,
        ..LoadProfile::default_mix(2000, 9, 300, 78)
    };
    let engine = Engine::start(EngineConfig {
        workers: 2,
        queue_capacity: 32,
        results_capacity: 32,
        design_cache_capacity: 4,
        batch_window: 8,
    });
    let specs = profile.specs(24);
    let mut results = Vec::with_capacity(256);

    // Warm-up: both workers must have seen full and partial batches at
    // this shape (run lengths depend on queue timing, so several passes).
    for _ in 0..6 {
        results.clear();
        engine.run_batch(&specs, &mut results);
    }
    let reference: Vec<(u64, u64)> = results.iter().map(|r| (r.id, r.fingerprint())).collect();

    results.clear();
    let before = serving_allocations();
    for _ in 0..4 {
        engine.run_batch(&specs, &mut results);
    }
    let after = serving_allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state batched serving allocated {} times across {} jobs",
        after - before,
        4 * specs.len()
    );

    // Batched results remain correct, deterministic, and identical to the
    // per-job engine's fingerprints for the same traffic.
    for pass in results.chunks(specs.len()) {
        let got: Vec<(u64, u64)> = pass.iter().map(|r| (r.id, r.fingerprint())).collect();
        assert_eq!(got, reference);
    }
    engine.shutdown();

    let per_job = Engine::start(EngineConfig {
        workers: 2,
        queue_capacity: 32,
        results_capacity: 32,
        design_cache_capacity: 4,
        batch_window: 1,
    });
    let mut unbatched = Vec::new();
    per_job.run_batch(&specs, &mut unbatched);
    per_job.shutdown();
    let got: Vec<(u64, u64)> = unbatched.iter().map(|r| (r.id, r.fingerprint())).collect();
    assert_eq!(got, reference, "batching must be fingerprint-invisible");
}

#[test]
fn support_batch_runs_are_allocation_free_at_any_width() {
    // The worker's support-driven batched path, driven directly: after a
    // single one-lane warm-up run on a scratch sized for a window of 16,
    // runs of every width — one lane, a partial lane chunk, a chunk and a
    // bit, two full chunks — fit the planes reserved for the window.
    let profile = LoadProfile { query_cost: None, ..LoadProfile::default_mix(1000, 8, 334, 81) };
    let specs = profile.specs(16);
    let design = DesignKey::of(&specs[0]).sample();
    let widths = [1usize, 3, 9, 16];
    pool_with_threads(1).install(|| {
        let mut scratch = WorkerScratch::with_batch_window(0, 16);
        let mut out = Vec::with_capacity(64);
        process_batch(&specs[..1], &design, &mut scratch, &mut out);
        out.clear();
        let before = own_allocations();
        for width in widths {
            process_batch(&specs[..width], &design, &mut scratch, &mut out);
        }
        let after = own_allocations();
        assert_eq!(
            after - before,
            0,
            "support-driven batched serving allocated {} times across runs of {widths:?}",
            after - before
        );
        // Every run's lanes still match serving the spec alone.
        let mut per_job = WorkerScratch::new(1);
        let want: Vec<u64> = widths
            .iter()
            .flat_map(|&w| &specs[..w])
            .map(|s| process_job(s, &design, &mut per_job).fingerprint())
            .collect();
        let got: Vec<u64> = out.iter().map(|r| r.fingerprint()).collect();
        assert_eq!(got, want);
    });
}

#[test]
fn support_driven_process_job_is_allocation_free_after_warmup() {
    // Per-job serving executes queries from the hidden support over the
    // design's transpose; with both allocation-free decoders it performs
    // zero heap allocations per job once the scratch has grown.
    let profile = LoadProfile {
        decoders: vec![DecoderKind::Mn, DecoderKind::GeneralMn],
        query_cost: None,
        ..LoadProfile::default_mix(1000, 8, 334, 82)
    };
    let specs = profile.specs(24);
    let design = DesignKey::of(&specs[0]).sample();
    pool_with_threads(1).install(|| {
        let mut scratch = WorkerScratch::new(0);
        let reference: Vec<u64> =
            specs.iter().map(|s| process_job(s, &design, &mut scratch).fingerprint()).collect();
        let mut got = Vec::with_capacity(4 * specs.len());
        let before = own_allocations();
        for _ in 0..4 {
            got.extend(specs.iter().map(|s| process_job(s, &design, &mut scratch).fingerprint()));
        }
        let after = own_allocations();
        assert_eq!(
            after - before,
            0,
            "support-driven process_job allocated {} times across {} jobs",
            after - before,
            got.len()
        );
        for pass in got.chunks(specs.len()) {
            assert_eq!(pass, &reference[..]);
        }
    });
}

#[test]
fn serving_paths_warm_each_other() {
    // Queue timing decides whether a worker's next job arrives alone or
    // in a run, so a worker warmed on only one serving path must not
    // allocate on its first job through the other.
    let profile = LoadProfile { query_cost: None, ..LoadProfile::default_mix(2000, 9, 300, 83) };
    let specs = profile.specs(8);
    let design = DesignKey::of(&specs[0]).sample();
    pool_with_threads(1).install(|| {
        let mut out = Vec::with_capacity(64);
        let mut warm_per_job = WorkerScratch::with_batch_window(0, 8);
        for s in &specs {
            out.push(process_job(s, &design, &mut warm_per_job));
        }
        let mut warm_batched = WorkerScratch::with_batch_window(1, 8);
        process_batch(&specs[..3], &design, &mut warm_batched, &mut out);

        let before = own_allocations();
        process_batch(&specs, &design, &mut warm_per_job, &mut out);
        let first_batch = own_allocations() - before;
        let before = own_allocations();
        out.push(process_job(&specs[0], &design, &mut warm_batched));
        let first_job = own_allocations() - before;
        assert_eq!(
            (first_batch, first_job),
            (0, 0),
            "first use of the other serving path allocated (batch, job)"
        );
    });
}

#[test]
fn full_tracing_engine_serving_is_allocation_free_after_warmup() {
    let _serial = engine_test_lock();
    // The telemetry plane's zero-allocation contract: with every job
    // traced (sampling 1-in-1) and every span landing in the flight
    // recorder's ring, steady-state serving still performs zero heap
    // allocations per job. The ring overwrites its oldest slot instead
    // of growing, metric counters are fixed atomics, and JobTrace rides
    // the queue by value — so tracing at full rate must be invisible to
    // the allocator once workers are warm.
    use pooled_data::engine::telemetry::{Metric, TelemetryConfig};

    let profile = LoadProfile {
        distinct_designs: 1,
        decoders: vec![DecoderKind::Mn, DecoderKind::GeneralMn],
        query_cost: None,
        ..LoadProfile::default_mix(2000, 9, 300, 79)
    };
    let engine = Engine::start_with(
        EngineConfig {
            workers: 2,
            queue_capacity: 32,
            results_capacity: 32,
            design_cache_capacity: 4,
            batch_window: 1,
        },
        TelemetryConfig::full(),
    );
    let specs = profile.specs(24);
    let mut results = Vec::with_capacity(256);

    // Warm-up: same regime as the untraced test — both workers, both
    // decoder kinds, every ring and scratch buffer at final shape.
    for _ in 0..6 {
        results.clear();
        engine.run_batch(&specs, &mut results);
    }
    let reference: Vec<(u64, u64)> = results.iter().map(|r| (r.id, r.fingerprint())).collect();

    results.clear();
    let before = serving_allocations();
    for _ in 0..4 {
        engine.run_batch(&specs, &mut results);
    }
    let after = serving_allocations();
    assert_eq!(
        after - before,
        0,
        "full-tracing steady-state serving allocated {} times across {} jobs",
        after - before,
        4 * specs.len()
    );

    // Tracing actually happened (this wasn't a vacuous pass)...
    let metrics = engine.metrics();
    assert!(
        metrics.get(Metric::TracesRecorded) >= (10 * specs.len()) as u64,
        "full sampling must trace every job"
    );
    // ...and did not move a single result bit.
    for pass in results.chunks(specs.len()) {
        let got: Vec<(u64, u64)> = pass.iter().map(|r| (r.id, r.fingerprint())).collect();
        assert_eq!(got, reference);
    }
    engine.shutdown();
}

#[test]
fn allocating_api_allocates_per_decode() {
    // Sanity check on the counter itself: the one-shot API must allocate.
    let (n, m, k) = (2_000usize, 100usize, 6usize);
    let seeds = SeedSequence::new(3);
    let design = CsrDesign::sample(n, m, n / 2, &seeds.child("design", 0));
    let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
    let y = execute_queries(&design, &sigma);
    let decoder = MnDecoder::new(k);
    let before = own_allocations();
    std::hint::black_box(decoder.decode(&design, &y));
    let after = own_allocations();
    assert!(after > before, "counting allocator must observe the allocating path");
}
