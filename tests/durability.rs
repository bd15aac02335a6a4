//! The durable tier's correctness contract, end to end.
//!
//! Three layers, strictest first:
//!
//! 1. **WAL codec under damage** — property-tested: *every* truncation
//!    point and *every* single-bit flip of a write-ahead log recovers
//!    the exact valid record prefix (or errors cleanly) — never any
//!    other key set. Mirrors the transport codec's corruption proptests.
//! 2. **Crash recovery** — a durable engine dropped abruptly (the crash
//!    path: no shutdown checkpoint) restarts from its directory at full
//!    warmth: zero cold misses on its old working set, and result
//!    fingerprints **bit-identical** to a never-crashed run.
//! 3. **Storage-fault sweep** — deterministic crash-point / torn-write /
//!    bit-flip injection ([`StorageFault::roll`]) into the recovered
//!    directory across a seed sweep, pinning the headline invariant:
//!    recovery yields a correct prefix of the log or a clean error, and
//!    the recovered node's fingerprints never diverge.
//! 4. **Snapshot bytes and journal order** — a spilled snapshot is
//!    byte-identical to a field-by-field v1 encoder and reloads both
//!    orientations exactly; and the WAL records admissions and
//!    evictions in the order the cache applied them, even when an
//!    evicted key is re-admitted before its eviction is reported.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use pooled_data::design::factory::{AnyDesign, DesignKind};
use pooled_data::design::PoolingDesign;
use pooled_data::engine::cache::{DesignCache, DesignKey};
use pooled_data::engine::durability::fault::StorageFault;
use pooled_data::engine::durability::snapshot::{load_design, snapshot_file_name, spill_design};
use pooled_data::engine::durability::wal::{
    decode_record, replay_dir, segment_paths, WalRecord, WalWriter,
};
use pooled_data::engine::durability::{recover, DesignJournal, DurabilityConfig, WalJournal};
use pooled_data::engine::engine::{Engine, EngineConfig, EngineStats};
use pooled_data::engine::job::{DecoderKind, Digest, JobResult};
use pooled_data::engine::telemetry::{Metric, MetricsRegistry};
use pooled_data::engine::traffic::LoadProfile;

/// A fresh scratch directory under the OS temp dir, unique per process
/// and call.
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("pooled-durable-it-{}-{tag}-{seq}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Flat-copy a durability directory (WAL segments + snapshots).
fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("copy target");
    for entry in fs::read_dir(from).expect("source dir") {
        let entry = entry.expect("dir entry");
        fs::copy(entry.path(), to.join(entry.file_name())).expect("copy file");
    }
}

fn key(seed: u64) -> DesignKey {
    DesignKey { n: 64, m: 16, kind: DesignKind::RandomRegular, c_milli: 500, seed }
}

/// Apply `records` the way replay does, returning the live key set.
fn apply_prefix(records: &[WalRecord], upto: usize) -> Vec<DesignKey> {
    let mut keys: Vec<DesignKey> = Vec::new();
    for record in &records[..upto] {
        match record {
            WalRecord::Admit(k) => {
                keys.retain(|have| have != k);
                keys.push(*k);
            }
            WalRecord::Evict(k) => keys.retain(|have| have != k),
            WalRecord::Stats(_) => {}
        }
    }
    keys
}

/// Write an admit/evict sequence derived from `ops` into one segment;
/// returns the decoded record list and the segment's bytes.
fn build_log(dir: &Path, ops: &[u64]) -> (Vec<WalRecord>, PathBuf, Vec<u8>) {
    let metrics = Arc::new(MetricsRegistry::new());
    let mut writer = WalWriter::open(dir, u64::MAX, false, metrics).expect("open WAL");
    let mut records = Vec::new();
    for &op in ops {
        // Small key space so evictions actually hit resident keys.
        let record =
            if op % 3 == 0 { WalRecord::Evict(key(op % 5)) } else { WalRecord::Admit(key(op % 5)) };
        writer.append(&record).expect("append");
        records.push(record);
    }
    drop(writer);
    let (_, path) = segment_paths(dir).expect("segments").pop().expect("one segment");
    let bytes = fs::read(&path).expect("segment bytes");
    (records, path, bytes)
}

/// Byte offset where each record ends, in order.
fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut boundaries = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let (_, consumed) = decode_record(&bytes[at..]).expect("clean log");
        at += consumed;
        boundaries.push(at);
    }
    boundaries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every truncation point recovers the exact valid record prefix:
    /// the records wholly before the cut are applied, everything after
    /// is discarded, and a mid-record cut is flagged as a torn tail.
    #[test]
    fn every_wal_truncation_recovers_the_exact_valid_prefix(
        a in any::<u64>(), b in any::<u64>(), c in any::<u64>(), d in any::<u64>(),
        e in any::<u64>(), f in any::<u64>(), cut_sel in any::<u64>(),
    ) {
        let dir = scratch_dir("prop-trunc");
        let (records, path, bytes) = build_log(&dir, &[a, b, c, d, e, f]);
        let boundaries = record_boundaries(&bytes);
        let cut = (cut_sel % (bytes.len() as u64 + 1)) as usize;
        fs::write(&path, &bytes[..cut]).expect("truncate");
        let replay = replay_dir(&dir).expect("truncation is never a hard error");
        let whole = boundaries.iter().filter(|&&end| end <= cut).count();
        prop_assert_eq!(&replay.keys, &apply_prefix(&records, whole));
        prop_assert_eq!(replay.records_replayed, whole as u64);
        let clean = cut == 0 || boundaries.contains(&cut);
        prop_assert_eq!(replay.torn_tail, !clean, "cut at {} of {:?}", cut, boundaries);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Every single-bit flip stops replay exactly at the damaged record:
    /// the prefix before it survives, nothing after it is applied, and
    /// the outcome is never some other key set.
    #[test]
    fn every_wal_bit_flip_recovers_the_prefix_before_the_damage(
        a in any::<u64>(), b in any::<u64>(), c in any::<u64>(), d in any::<u64>(),
        e in any::<u64>(), f in any::<u64>(), flip_sel in any::<u64>(), flip_bit in 0u32..8,
    ) {
        let dir = scratch_dir("prop-flip");
        let (records, path, bytes) = build_log(&dir, &[a, b, c, d, e, f]);
        let boundaries = record_boundaries(&bytes);
        let flip = (flip_sel % bytes.len() as u64) as usize;
        let mut damaged = bytes.clone();
        damaged[flip] ^= 1 << flip_bit;
        fs::write(&path, &damaged).expect("corrupt");
        let replay = replay_dir(&dir).expect("last-segment damage is a torn tail, not a hard error");
        // The record holding the flipped byte is the first rejected one.
        let whole = boundaries.iter().filter(|&&end| end <= flip).count();
        prop_assert_eq!(&replay.keys, &apply_prefix(&records, whole));
        prop_assert!(replay.torn_tail, "flip at byte {} bit {} went undetected", flip, flip_bit);
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// A small, fast profile mixing decoders over two distinct designs.
fn profile(seed: u64) -> LoadProfile {
    LoadProfile {
        distinct_designs: 2,
        decoders: vec![DecoderKind::Mn, DecoderKind::GeneralMn],
        query_cost: None,
        ..LoadProfile::default_mix(300, 5, 180, seed)
    }
}

fn config() -> EngineConfig {
    EngineConfig {
        workers: 2,
        queue_capacity: 32,
        results_capacity: 32,
        design_cache_capacity: 8,
        batch_window: 1,
    }
}

fn fingerprints(results: &[JobResult]) -> Vec<(u64, u64)> {
    results.iter().map(|r| (r.id, r.fingerprint())).collect()
}

/// Serve `jobs` of the profile on a non-durable engine (ground truth).
fn serve_cold(p: &LoadProfile, jobs: usize) -> (Vec<JobResult>, EngineStats) {
    let engine = Engine::start(config());
    let mut out = Vec::new();
    engine.run_batch(&p.specs(jobs), &mut out);
    let stats = engine.shutdown();
    (out, stats)
}

/// Serve on a durable engine; returns results, live stats, and the
/// engine itself so the caller chooses crash (drop) vs clean shutdown.
fn serve_durable(dir: &Path, p: &LoadProfile, jobs: usize) -> (Vec<JobResult>, Engine) {
    let engine =
        Engine::start_durable(config(), DurabilityConfig::new(dir)).expect("durable start");
    let mut out = Vec::new();
    engine.run_batch(&p.specs(jobs), &mut out);
    (out, engine)
}

#[test]
fn crash_recovery_is_warm_and_bit_identical_to_a_never_crashed_run() {
    let p = profile(2201);
    let jobs = 24;
    let (want, cold_stats) = serve_cold(&p, jobs);
    let want = fingerprints(&want);
    assert!(cold_stats.cache_misses > 0, "cold run must pay cold misses");

    let dir = scratch_dir("crash-warm");
    let (first, engine) = serve_durable(&dir, &p, jobs);
    assert_eq!(fingerprints(&first), want, "durable serving must not change results");
    let pre_crash = engine.stats();
    assert!(engine.metrics().get(Metric::WalAppends) > 0, "admissions must hit the WAL");
    drop(engine); // crash: no shutdown checkpoint

    // The replacement reaches full warmth before its first job: the
    // whole profile serves without one cold miss, and fingerprints are
    // bit-identical to the never-crashed ground truth.
    let (second, recovered) = serve_durable(&dir, &p, jobs);
    assert_eq!(fingerprints(&second), want, "recovered node diverged from ground truth");
    let stats = recovered.stats();
    assert_eq!(stats.cache_misses, 0, "recovered node paid cold misses: {stats:?}");
    assert!(stats.cache_hits > 0);
    assert!(
        stats.cache_hit_rate() >= pre_crash.cache_hit_rate(),
        "recovery must reach at least the pre-crash warm hit rate"
    );
    assert!(recovered.metrics().get(Metric::RecoveryRecordsReplayed) > 0);
    recovered.shutdown();
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn stats_and_histograms_survive_a_clean_restart_cycle() {
    let p = profile(3307);
    let dir = scratch_dir("stats-survive");

    let (_, engine) = serve_durable(&dir, &p, 12);
    let run1 = engine.shutdown(); // clean: checkpoints cumulative stats
    assert_eq!(run1.jobs_completed, 12);
    assert_eq!(run1.histogram.count(), 12);

    let (_, engine) = serve_durable(&dir, &p, 12);
    let merged = engine.stats();
    assert_eq!(merged.jobs_completed, 24, "restart must keep counting, not reset");
    assert_eq!(merged.histogram.count(), 24, "latency histogram must merge across restarts");
    assert_eq!(merged.total_latency.count(), 24);
    assert_eq!(merged.exact_recoveries, run1.exact_recoveries * 2, "same jobs, same outcomes");
    assert_eq!(merged.cache_misses, run1.cache_misses, "second run is fully warm");
    let run2 = engine.shutdown();

    // And the cycle composes: a third incarnation sees both runs.
    let (_, engine) = serve_durable(&dir, &p, 12);
    let third = engine.stats();
    assert_eq!(third.jobs_completed, 36);
    assert_eq!(third.histogram.count(), 36);
    assert!(third.total_latency.mean() > 0.0);
    assert_eq!(run2.jobs_completed, 24);
    engine.shutdown();
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn storage_fault_sweep_recovers_a_correct_prefix_never_a_wrong_design() {
    let p = profile(4403);
    let jobs = 16;
    let (want, _) = serve_cold(&p, jobs);
    let want = fingerprints(&want);

    // Build one healthy durability directory, then crash.
    let healthy = scratch_dir("sweep-healthy");
    let (_, engine) = serve_durable(&healthy, &p, jobs);
    let full_keys = {
        let replay = replay_dir(&healthy).expect("healthy replay");
        drop(engine); // crash after reading: replay keys are the admitted set
        replay.keys
    };
    assert!(!full_keys.is_empty());

    for seed in 0..24u64 {
        let damaged = scratch_dir(&format!("sweep-{seed}"));
        copy_dir(&healthy, &damaged);
        let (_, segment) =
            segment_paths(&damaged).expect("segments").pop().expect("at least one segment");
        let len = fs::metadata(&segment).expect("segment meta").len();
        let fault = StorageFault::roll(seed, len);
        pooled_data::engine::durability::fault::inject(&segment, &fault).expect("inject");

        // Damage to the newest segment is always the torn-tail shape:
        // recovery must succeed with a prefix of the admitted keys.
        let metrics = MetricsRegistry::new();
        let rec = recover(&DurabilityConfig::new(&damaged), &metrics)
            .unwrap_or_else(|e| panic!("seed {seed} ({fault:?}): tail damage must recover: {e}"));
        assert!(
            rec.keys.len() <= full_keys.len() && rec.keys.iter().all(|k| full_keys.contains(k)),
            "seed {seed} ({fault:?}): recovered keys are not a subset of the admitted set"
        );

        // And a node started from the damaged directory serves the
        // exact ground-truth fingerprints (missing keys just resample).
        let (results, engine) = serve_durable(&damaged, &p, jobs);
        assert_eq!(
            fingerprints(&results),
            want,
            "seed {seed} ({fault:?}): recovered node fingerprints diverged"
        );
        engine.shutdown();
        fs::remove_dir_all(&damaged).expect("cleanup");
    }
    fs::remove_dir_all(&healthy).expect("cleanup");
}

#[test]
fn corruption_behind_surviving_history_is_a_clean_refusal() {
    // A corrupt record *before* intact segments cannot satisfy the
    // prefix rule: the durable constructor must refuse with a clean
    // error — serving from a guessed key set is the one forbidden
    // outcome.
    let dir = scratch_dir("refuse");
    let metrics = Arc::new(MetricsRegistry::new());
    let mut writer = WalWriter::open(&dir, u64::MAX, false, metrics).expect("open WAL");
    writer.append(&WalRecord::Admit(key(1))).expect("append");
    writer.rotate().expect("rotate");
    writer.append(&WalRecord::Admit(key(2))).expect("append");
    drop(writer);
    let (_, first) = segment_paths(&dir).expect("segments").remove(0);
    let mut bytes = fs::read(&first).expect("first segment");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    fs::write(&first, bytes).expect("corrupt first segment");

    let err = Engine::start_durable(config(), DurabilityConfig::new(&dir))
        .err()
        .expect("corrupt history must refuse to start");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn corrupt_design_snapshots_are_rejected_and_resampled_not_served() {
    let p = profile(5501);
    let jobs = 16;
    let (want, _) = serve_cold(&p, jobs);
    let want = fingerprints(&want);

    let dir = scratch_dir("snap-fallback");
    let (_, engine) = serve_durable(&dir, &p, jobs);
    drop(engine); // crash

    // Corrupt every spilled design snapshot.
    let mut corrupted = 0;
    for entry in fs::read_dir(&dir).expect("dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "snap") {
            let mut bytes = fs::read(&path).expect("snapshot");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            fs::write(&path, bytes).expect("corrupt snapshot");
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "durable run must have spilled snapshots");

    let metrics = MetricsRegistry::new();
    let rec = recover(&DurabilityConfig::new(&dir), &metrics).expect("recover");
    assert_eq!(rec.snapshots_rejected, corrupted, "every corrupt snapshot must be rejected");
    assert_eq!(rec.snapshots_loaded, 0);
    assert!(!rec.keys.is_empty(), "the key set comes from the WAL, not the snapshots");

    // Recovery falls back to resampling: still warm before traffic,
    // still bit-identical.
    let (results, engine) = serve_durable(&dir, &p, jobs);
    assert_eq!(fingerprints(&results), want);
    assert_eq!(engine.stats().cache_misses, 0, "resampled prewarm must still be warm");
    engine.shutdown();
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn wal_and_recovery_counters_surface_in_the_expositions() {
    let p = profile(6607);
    let dir = scratch_dir("counters");
    let (_, engine) = serve_durable(&dir, &p, 8);
    drop(engine); // crash

    let (_, engine) = serve_durable(&dir, &p, 8);
    let snap = engine.metrics().snapshot();
    assert!(snap.get(Metric::RecoveryRecordsReplayed) > 0);
    assert!(snap.get(Metric::WalSegmentsCompacted) > 0, "recovery compacts the replayed log");
    let stats = engine.stats();
    let text = pooled_data::engine::render_prometheus(&stats, Some(&snap));
    for needle in [
        "pooled_wal_appends_total",
        "pooled_wal_bytes_total",
        "pooled_wal_fsyncs_total",
        "pooled_wal_segments_compacted_total",
        "pooled_recovery_records_replayed_total",
        "pooled_recovery_torn_tail_total",
    ] {
        assert!(text.contains(needle), "missing {needle} in exposition");
    }
    let json = pooled_data::engine::render_json(&stats, Some(&snap));
    assert!(json.contains("\"pooled_recovery_records_replayed_total\":"));
    engine.shutdown();
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// The v1 snapshot layout, encoded field by field: the fixed header,
/// `q_offsets` as u64 LE, entries then multiplicities as u32 LE, and the
/// frame checksum (a digest of the body length and its LE words, the
/// last one zero-padded) as the trailer.
fn reference_snapshot_v1(key: &DesignKey, design: &AnyDesign) -> Vec<u8> {
    let csr = design.csr();
    let kind_code = DesignKind::ALL.iter().position(|&k| k == key.kind).unwrap() as u8;
    let mut buf = vec![0xD7, 1, kind_code, 0];
    buf.extend_from_slice(&key.c_milli.to_le_bytes());
    for v in [csr.n() as u64, csr.m() as u64, key.seed, csr.gamma() as u64, csr.nnz() as u64] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    let mut offset = 0u64;
    buf.extend_from_slice(&offset.to_le_bytes());
    for q in 0..csr.m() {
        offset += csr.query_row(q).0.len() as u64;
        buf.extend_from_slice(&offset.to_le_bytes());
    }
    for q in 0..csr.m() {
        for &e in csr.query_row(q).0 {
            buf.extend_from_slice(&e.to_le_bytes());
        }
    }
    for q in 0..csr.m() {
        for &c in csr.query_row(q).1 {
            buf.extend_from_slice(&c.to_le_bytes());
        }
    }
    let mut d = Digest::new();
    d.push(buf.len() as u64);
    for chunk in buf.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        d.push(u64::from_le_bytes(word));
    }
    buf.extend_from_slice(&d.finish().to_le_bytes());
    buf
}

#[test]
fn spilled_snapshots_are_the_v1_bytes_and_reload_both_orientations() {
    let dir = scratch_dir("snap-v1-bytes");
    for (i, &kind) in DesignKind::ALL.iter().enumerate() {
        let key = DesignKey { n: 1000, m: 334, kind, c_milli: 500, seed: 90 + i as u64 };
        let design = key.sample();
        spill_design(&dir, &key, &design).unwrap();
        let bytes = fs::read(dir.join(snapshot_file_name(&key))).unwrap();
        assert!(bytes == reference_snapshot_v1(&key, &design), "{kind:?}: snapshot bytes differ");
        let loaded = load_design(&dir, &key).unwrap().expect("snapshot present");
        assert_eq!(loaded.kind(), kind);
        let (a, b) = (design.csr(), loaded.csr());
        assert_eq!((a.n(), a.m(), a.gamma()), (b.n(), b.m(), b.gamma()));
        assert_eq!(a.forward_arrays(), b.forward_arrays(), "{kind:?} forward rows");
        assert_eq!(a.transpose_arrays(), b.transpose_arrays(), "{kind:?} transpose");
        for q in 0..a.m() {
            assert_eq!(design.pool_len(q), loaded.pool_len(q), "{kind:?} pool {q}");
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Wraps the live WAL journal and parks the first eviction of `parked`
/// until `parked` has been admitted again, or a grace period passes.
///
/// A cache that journals in map order blocks the re-admission until
/// this eviction report returns, so the park always ends at the grace
/// period and the test's outcome does not depend on timing. A cache that
/// reported evictions after dropping its locks would let the
/// re-admission's `ADMIT` in first, ending the park early and leaving
/// the stale `EVICT` last in the WAL.
struct ParkingJournal {
    wal: WalJournal,
    parked: DesignKey,
    /// `(admissions of parked, eviction of parked has started)`.
    state: Mutex<(u32, bool)>,
    changed: Condvar,
}

impl DesignJournal for ParkingJournal {
    fn admitted(&self, key: &DesignKey, design: &AnyDesign) {
        self.wal.admitted(key, design);
        if *key == self.parked {
            self.state.lock().unwrap().0 += 1;
            self.changed.notify_all();
        }
    }

    fn evicted(&self, key: &DesignKey) {
        let mut state = self.state.lock().unwrap();
        if *key == self.parked && !state.1 {
            state.1 = true;
            self.changed.notify_all();
            let (_state, _timeout) = self
                .changed
                .wait_timeout_while(state, Duration::from_millis(300), |s| s.0 < 2)
                .unwrap();
        } else {
            drop(state);
        }
        self.wal.evicted(key);
    }
}

#[test]
fn the_wal_journals_admissions_and_evictions_in_cache_order() {
    let dir = scratch_dir("journal-order");
    let config = DurabilityConfig::new(&dir);
    let wal = WalJournal::open(&config, Arc::new(MetricsRegistry::new())).unwrap();
    let (x, y) = (key(1), key(2));
    let journal = Arc::new(ParkingJournal {
        wal,
        parked: y,
        state: Mutex::new((0, false)),
        changed: Condvar::new(),
    });
    let cache = Arc::new(DesignCache::new(1));
    cache.set_journal(Arc::clone(&journal) as Arc<dyn DesignJournal>);
    cache.get_or_sample(&y);
    // Admitting x evicts y; the eviction report parks.
    let evictor = {
        let cache = Arc::clone(&cache);
        std::thread::spawn(move || cache.get_or_sample(&x))
    };
    let state = journal.state.lock().unwrap();
    drop(journal.changed.wait_while(state, |s| !s.1).unwrap());
    // y misses again and is re-admitted while its eviction is pending.
    let readmitter = {
        let cache = Arc::clone(&cache);
        std::thread::spawn(move || cache.get_or_sample(&y))
    };
    evictor.join().unwrap();
    readmitter.join().unwrap();
    let mut resident = cache.keys();
    drop(cache);
    drop(journal);

    let rec = recover(&config, &MetricsRegistry::new()).unwrap();
    let mut live = rec.keys.clone();
    resident.sort_unstable_by_key(|k| k.seed);
    live.sort_unstable_by_key(|k| k.seed);
    assert_eq!(resident, vec![y]);
    assert_eq!(live, resident, "the WAL's live set must be the cache's resident set");
    assert_eq!(rec.snapshots_loaded, 1, "the resident design's snapshot must survive");
    fs::remove_dir_all(&dir).unwrap();
}
