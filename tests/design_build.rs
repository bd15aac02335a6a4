//! Bit-identity of design construction.
//!
//! `CsrDesign::sample` writes each query's `(entry, multiplicity)` run
//! straight into flat arrays, choosing between counting and sorting by
//! pool density. Whatever path runs, and at any thread count, the result
//! must equal the textbook construction: sort each query's draws,
//! run-length encode them, and transpose. The golden digests pin every
//! design family at fixed keys against the digests the previous
//! per-query sort-and-encode builder produced.

use proptest::prelude::*;

use pooled_data::design::csr::CsrDesign;
use pooled_data::design::factory::DesignKind;
use pooled_data::engine::job::Digest;
use pooled_data::par::pool::pool_with_threads;
use pooled_data::prelude::*;
use pooled_data::rng::bounded::FixedBound;

/// All six CSR arrays: forward offsets, entries, multiplicities, then
/// the transpose's offsets, queries, multiplicities.
type CsrArrays = (Vec<u64>, Vec<u32>, Vec<u32>, Vec<u64>, Vec<u32>, Vec<u32>);

/// Query `q`'s draws, sorted and run-length encoded.
fn sample_query_rle(n: usize, gamma: usize, seeds: &SeedSequence, q: usize) -> Vec<(u32, u32)> {
    let mut rng = seeds.child("query", q as u64).rng();
    let fb = FixedBound::new(n as u64);
    let mut draws: Vec<u32> = (0..gamma).map(|_| fb.sample(&mut rng) as u32).collect();
    draws.sort_unstable();
    let mut out: Vec<(u32, u32)> = Vec::new();
    for x in draws {
        match out.last_mut() {
            Some((v, c)) if *v == x => *c += 1,
            _ => out.push((x, 1)),
        }
    }
    out
}

/// The reference construction of every CSR array.
fn reference_arrays(n: usize, m: usize, gamma: usize, seeds: &SeedSequence) -> CsrArrays {
    let rows: Vec<Vec<(u32, u32)>> = (0..m).map(|q| sample_query_rle(n, gamma, seeds, q)).collect();
    let mut q_offsets = vec![0u64];
    let (mut entries, mut mults) = (Vec::new(), Vec::new());
    let mut edges: Vec<(u32, u32, u32)> = Vec::new();
    for (q, row) in rows.iter().enumerate() {
        for &(e, c) in row {
            entries.push(e);
            mults.push(c);
            edges.push((e, q as u32, c));
        }
        q_offsets.push(entries.len() as u64);
    }
    edges.sort_unstable();
    let mut e_offsets = vec![0u64; n + 1];
    for &(e, _, _) in &edges {
        e_offsets[e as usize + 1] += 1;
    }
    for i in 0..n {
        e_offsets[i + 1] += e_offsets[i];
    }
    let queries = edges.iter().map(|&(_, q, _)| q).collect();
    let t_mults = edges.iter().map(|&(_, _, c)| c).collect();
    (q_offsets, entries, mults, e_offsets, queries, t_mults)
}

fn arrays(d: &CsrDesign) -> CsrArrays {
    let (qo, e, c) = d.forward_arrays();
    let (eo, q, tc) = d.transpose_arrays();
    (qo.to_vec(), e.to_vec(), c.to_vec(), eo.to_vec(), q.to_vec(), tc.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    /// `CsrDesign::sample` equals the sort-and-encode reference in every
    /// array, on both the counting and the sorting path, at 1 and 2
    /// threads.
    #[test]
    fn sample_matches_sort_and_encode_reference(
        n in 1usize..400,
        m in 0usize..40,
        shape in 0usize..6,
        threads in 1usize..3,
        seed in any::<u64>(),
    ) {
        let gamma = [0, 1, 3, (n / 16).max(1), n / 2, n + n / 2][shape];
        let seeds = SeedSequence::new(seed);
        let design = pool_with_threads(threads).install(|| CsrDesign::sample(n, m, gamma, &seeds));
        prop_assert_eq!(design.gamma(), gamma);
        prop_assert_eq!(arrays(&design), reference_arrays(n, m, gamma, &seeds));
    }
}

/// Order-sensitive digest of a design's dimensions and both orientations.
fn digest_csr(d: &CsrDesign) -> u64 {
    let mut h = Digest::new();
    for v in [d.n(), d.m(), d.gamma(), d.nnz()] {
        h.push(v as u64);
    }
    for q in 0..d.m() {
        let (es, cs) = d.query_row(q);
        h.push(es.len() as u64);
        es.iter().zip(cs).for_each(|(&e, &c)| {
            h.push(e as u64);
            h.push(c as u64);
        });
    }
    for i in 0..d.n() {
        let (qs, cs) = d.entry_row(i);
        h.push(qs.len() as u64);
        qs.iter().zip(cs).for_each(|(&q, &c)| {
            h.push(q as u64);
            h.push(c as u64);
        });
    }
    h.finish()
}

/// Every family at the serving shape, at a dense (`c = 1/2`, counted
/// rows) and a sparse (`c = 0.02`, sorted rows) density, matches the
/// digest of the per-query sort-and-encode builder it replaced.
#[test]
fn every_design_kind_matches_its_golden_digest() {
    const GOLDEN: [(DesignKind, f64, u64); 8] = [
        (DesignKind::RandomRegular, 0.5, 0x0837_ff4d_10e9_4185),
        (DesignKind::NoReplace, 0.5, 0x0c62_f7f4_56b8_26da),
        (DesignKind::Bernoulli, 0.5, 0xfda7_9f6b_2663_7520),
        (DesignKind::EntryRegular, 0.5, 0x97af_3984_2edd_8f8a),
        (DesignKind::RandomRegular, 0.02, 0x765d_1a77_6236_12d6),
        (DesignKind::NoReplace, 0.02, 0x7114_0260_60fd_951a),
        (DesignKind::Bernoulli, 0.02, 0xf30f_6ab7_64ac_3301),
        (DesignKind::EntryRegular, 0.02, 0x48ad_5e71_1e5a_678b),
    ];
    let seeds = SeedSequence::new(2026).child("design", 0);
    for (kind, c, want) in GOLDEN {
        for threads in [1, 2] {
            let d = pool_with_threads(threads).install(|| kind.sample(1000, 334, c, &seeds));
            assert_eq!(digest_csr(d.csr()), want, "{kind:?} at c={c}, {threads} threads");
        }
    }
}
