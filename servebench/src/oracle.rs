//! The output oracle: every checked RESULT's fingerprint is compared
//! with a reference computed outside the timed phase by
//! `worker::process_job` — the engine's unbatched, single-job path — on
//! the same spec.

use std::collections::BTreeMap;

use pooled_engine::cache::DesignKey;
use pooled_engine::job::JobSpec;
use pooled_engine::worker::{process_job, WorkerScratch};

/// Threads the oracle runs on (the box has two cores).
const ORACLE_THREADS: usize = 2;

/// Reference fingerprints of `specs`, in input order. Each design is
/// sampled once and dropped before the next, so memory stays at one
/// design however large the working set.
pub fn reference_fingerprints(specs: &[JobSpec]) -> Vec<u64> {
    let mut by_key: BTreeMap<(u64, usize, usize), Vec<usize>> = BTreeMap::new();
    for (i, s) in specs.iter().enumerate() {
        by_key.entry((s.design.seed, s.n, s.m)).or_default().push(i);
    }
    let mut out = vec![0u64; specs.len()];
    for idx in by_key.values() {
        let design = DesignKey::of(&specs[idx[0]]).sample();
        let chunk = idx.len().div_ceil(ORACLE_THREADS);
        let results: Vec<Vec<(usize, u64)>> = std::thread::scope(|s| {
            let workers: Vec<_> = idx
                .chunks(chunk)
                .map(|part| {
                    let design = &design;
                    s.spawn(move || {
                        // One inner thread, exactly like an engine shard.
                        pooled_par::pool::install_with_threads(1, || {
                            let mut scratch = WorkerScratch::new(0);
                            part.iter()
                                .map(|&i| {
                                    (i, process_job(&specs[i], design, &mut scratch).fingerprint())
                                })
                                .collect()
                        })
                    })
                })
                .collect();
            workers.into_iter().map(|h| h.join().expect("oracle thread panicked")).collect()
        });
        for (i, fp) in results.into_iter().flatten() {
            out[i] = fp;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{SpecGen, Workload};
    use pooled_engine::engine::{Engine, EngineConfig};

    #[test]
    fn references_match_an_in_process_engine() {
        let gen = SpecGen::new(Workload::ColdMixedCluster, 3);
        let specs: Vec<JobSpec> =
            (0..6).map(|id| JobSpec { n: 200, m: 90, k: 4, ..gen.spec(id) }).collect();
        let engine = Engine::start(EngineConfig::with_workers(1));
        let mut results = Vec::new();
        engine.run_batch(&specs, &mut results);
        engine.shutdown();
        let expect: Vec<u64> = results.iter().map(|r| r.fingerprint()).collect();
        assert_eq!(reference_fingerprints(&specs), expect);
    }
}
