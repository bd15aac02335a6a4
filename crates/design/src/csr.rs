//! Materialized CSR storage of a pooling design.
//!
//! Per query we store the *distinct* member entries together with their draw
//! multiplicities (run-length encoding of the `Γ` draws), plus the transposed
//! entry→queries adjacency used by the decoder's gather path.
//!
//! Every constructor funnels into one flat builder. The forward rows are
//! written straight into `q_offsets`/`entries`/`mults`, in parallel over
//! contiguous chunks of queries, and the transpose is derived from them by
//! a plain count → scan → scatter (no atomics: the scatter is split over
//! disjoint entry ranges). A query's draws become its ascending
//! `(entry, multiplicity)` run either by counting them into an `n`-slot
//! array with a bitset of the drawn entries (dense pools, `Γ` within a
//! small factor of `n`) or by sorting them (sparse pools). Both emit the
//! same row, so the choice is only a cost model, and designs are
//! bit-identical whichever path ran and at any thread count.

use rayon::prelude::*;

use pooled_rng::bounded::FixedBound;
use pooled_rng::SeedSequence;

use crate::PoolingDesign;

/// Compressed sparse rows for both orientations of the bipartite multigraph.
#[derive(Clone, Debug)]
pub struct CsrDesign {
    n: usize,
    m: usize,
    gamma: usize,
    /// Row offsets into `entries`/`mults`, length `m + 1`.
    q_offsets: Vec<u64>,
    /// Distinct entries of each query, ascending within a row.
    entries: Vec<u32>,
    /// Draw multiplicities matching `entries` (`A_iq ≥ 1`).
    mults: Vec<u32>,
    /// Transpose row offsets, length `n + 1`.
    e_offsets: Vec<u64>,
    /// Distinct queries of each entry (ascending within a row).
    queries: Vec<u32>,
    /// Multiplicities matching `queries`.
    t_mults: Vec<u32>,
}

/// Why [`CsrDesign::try_from_forward_rows`] refused its input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CsrError {
    /// `n == 0`: a design needs at least one entry.
    NoEntries,
    /// The offsets are empty, do not start at 0, decrease, or do not end
    /// at `entries.len()`; or `entries` and `mults` differ in length.
    BadOffsets,
    /// Row `q` is not strictly ascending, holds an entry `≥ n`, or has a
    /// zero multiplicity.
    BadRow(usize),
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrError::NoEntries => write!(f, "design needs at least one entry"),
            CsrError::BadOffsets => write!(f, "row offsets contradict the row arrays"),
            CsrError::BadRow(q) => write!(f, "row {q} is not a strictly ascending run in range"),
        }
    }
}

impl std::error::Error for CsrError {}

impl CsrDesign {
    /// Sample the paper's design: `m` queries of `Γ = gamma` uniform draws
    /// with replacement from `{0, …, n−1}`, materialized.
    ///
    /// Query `q` draws from the substream `seeds.child("query", q)`, which is
    /// the exact contract [`crate::streaming::StreamingDesign`] follows — the
    /// two representations are bit-identical.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn sample(n: usize, m: usize, gamma: usize, seeds: &SeedSequence) -> Self {
        assert!(n > 0, "design needs at least one entry");
        let fb = FixedBound::new(n as u64);
        let mut design = Self::from_draw_rows(n, m, |q| {
            let mut rng = seeds.child("query", q as u64).rng();
            (0..gamma).map(move |_| fb.sample(&mut rng) as u32)
        });
        design.gamma = gamma;
        design
    }

    /// Build a design from explicit pools given as entry lists **with
    /// repetitions** (multi-edges), e.g. the worked example of Fig. 1.
    /// `Γ` is taken from the first pool (0 when there are no pools).
    ///
    /// # Panics
    /// Panics if `n == 0`, or any entry index is out of range.
    pub fn from_pools(n: usize, pools: &[Vec<usize>]) -> Self {
        assert!(n > 0, "design needs at least one entry");
        for &e in pools.iter().flatten() {
            assert!(e < n, "entry {e} out of range for n={n}");
        }
        Self::from_draw_rows(n, pools.len(), |q| pools[q].iter().map(|&e| e as u32))
    }

    /// Rebuild a design from its flat forward rows — exactly what
    /// [`Self::forward_arrays`] exposes — after checking every CSR
    /// invariant in one pass. The transpose is *not* an input: it is
    /// reassembled by the same count → scan → scatter every constructor
    /// uses, so a design round-tripped through its forward rows is
    /// bit-identical to the original (the durable tier's snapshot-reload
    /// path relies on this).
    ///
    /// # Errors
    /// [`CsrError`] if `n == 0`, the offsets are malformed, or a row is
    /// not a strictly ascending run of in-range entries with nonzero
    /// multiplicities.
    pub fn try_from_forward_rows(
        n: usize,
        gamma: usize,
        q_offsets: Vec<u64>,
        entries: Vec<u32>,
        mults: Vec<u32>,
    ) -> Result<Self, CsrError> {
        if n == 0 {
            return Err(CsrError::NoEntries);
        }
        let nnz = entries.len() as u64;
        if q_offsets.first() != Some(&0)
            || q_offsets.last() != Some(&nnz)
            || mults.len() != entries.len()
        {
            return Err(CsrError::BadOffsets);
        }
        for (q, w) in q_offsets.windows(2).enumerate() {
            if w[0] > w[1] || w[1] > nnz {
                return Err(CsrError::BadOffsets);
            }
            let (s, e) = (w[0] as usize, w[1] as usize);
            let row = &entries[s..e];
            let ascending = row.windows(2).all(|p| p[0] < p[1]);
            if !ascending
                || row.last().is_some_and(|&l| l as usize >= n)
                || mults[s..e].contains(&0)
            {
                return Err(CsrError::BadRow(q));
            }
        }
        Ok(Self::from_forward_rows(n, gamma, q_offsets, entries, mults))
    }

    /// The flat builder behind every constructor: `draws(q)` yields query
    /// `q`'s draws (entries with repetitions, each `< n`), and `Γ` is the
    /// draw count of query 0 (0 when `m == 0`). Rows are encoded in
    /// parallel, one contiguous chunk of queries per thread, and stitched
    /// in query order, so the result does not depend on the thread count.
    pub(crate) fn from_draw_rows<I, F>(n: usize, m: usize, draws: F) -> Self
    where
        I: ExactSizeIterator<Item = u32>,
        F: Fn(usize) -> I + Sync,
    {
        let chunks = rayon::current_num_threads().clamp(1, m.max(1));
        // The calling thread fills the first chunk, so the arrays the
        // design keeps are allocated by the caller, not a helper thread.
        let mut parts: Vec<ForwardChunk> = (0..chunks).map(|_| ForwardChunk::default()).collect();
        parts.par_iter_mut().enumerate().for_each(|(c, part)| {
            let mut encoder = RowEncoder::new(n);
            let rows = c * m / chunks..(c + 1) * m / chunks;
            for q in rows.clone() {
                let row = draws(q);
                if q == rows.start {
                    // Room for every row to be as long as the first, so
                    // the arrays rarely regrow (extra capacity is never
                    // touched, and is trimmed below).
                    let hint = rows.len() * row.len().min(n);
                    part.entries.reserve(hint);
                    part.mults.reserve(hint);
                }
                if q == 0 {
                    part.gamma = row.len();
                }
                encoder.push_row(row, &mut part.entries, &mut part.mults);
                part.row_ends.push(part.entries.len() as u64);
            }
        });
        // Stitch in query order, appending onto the first chunk's arrays.
        let gamma = parts[0].gamma;
        let nnz: usize = parts.iter().map(|p| p.entries.len()).sum();
        let mut parts = parts.into_iter();
        let ForwardChunk { row_ends, mut entries, mut mults, .. } =
            parts.next().expect("at least one chunk");
        let mut q_offsets = Vec::with_capacity(m + 1);
        q_offsets.push(0);
        q_offsets.extend_from_slice(&row_ends);
        entries.reserve_exact(nnz - entries.len());
        mults.reserve_exact(nnz - mults.len());
        for part in parts {
            let base = entries.len() as u64;
            q_offsets.extend(part.row_ends.iter().map(|&end| base + end));
            entries.extend_from_slice(&part.entries);
            mults.extend_from_slice(&part.mults);
        }
        entries.shrink_to_fit();
        mults.shrink_to_fit();
        Self::from_forward_rows(n, gamma, q_offsets, entries, mults)
    }

    /// Assemble the design from forward rows that already satisfy every
    /// CSR invariant, deriving the transpose: count each entry's degree,
    /// scan the counts into offsets, then scatter the rows in query order
    /// so every transpose row comes out ascending. The scatter runs in
    /// parallel over contiguous entry ranges: each range owns a disjoint
    /// slice of the transpose and finds its entries in every (ascending)
    /// forward row by binary search.
    fn from_forward_rows(
        n: usize,
        gamma: usize,
        q_offsets: Vec<u64>,
        entries: Vec<u32>,
        mults: Vec<u32>,
    ) -> Self {
        let m = q_offsets.len() - 1;
        let nnz = entries.len();
        let mut e_offsets = vec![0u64; n + 1];
        for &e in &entries {
            e_offsets[e as usize + 1] += 1;
        }
        for i in 0..n {
            e_offsets[i + 1] += e_offsets[i];
        }
        let mut queries = vec![0u32; nnz];
        let mut t_mults = vec![0u32; nnz];
        let parts = rayon::current_num_threads().clamp(1, n);
        let mut ranges = Vec::with_capacity(parts);
        let (mut qs_rest, mut cs_rest) = (&mut queries[..], &mut t_mults[..]);
        for p in 0..parts {
            let (lo, hi) = (p * n / parts, (p + 1) * n / parts);
            let len = (e_offsets[hi] - e_offsets[lo]) as usize;
            let (qs, q_tail) = std::mem::take(&mut qs_rest).split_at_mut(len);
            let (cs, c_tail) = std::mem::take(&mut cs_rest).split_at_mut(len);
            (qs_rest, cs_rest) = (q_tail, c_tail);
            ranges.push((lo..hi, qs, cs));
        }
        ranges.into_par_iter().for_each(|(range, qs, cs)| {
            let base = e_offsets[range.start];
            let mut cursors: Vec<usize> =
                e_offsets[range.clone()].iter().map(|&o| (o - base) as usize).collect();
            for (q, w) in q_offsets.windows(2).enumerate() {
                let row = &entries[w[0] as usize..w[1] as usize];
                let row_mults = &mults[w[0] as usize..w[1] as usize];
                let a = row.partition_point(|&e| (e as usize) < range.start);
                let b = a + row[a..].partition_point(|&e| (e as usize) < range.end);
                for (&e, &c) in row[a..b].iter().zip(&row_mults[a..b]) {
                    let at = &mut cursors[e as usize - range.start];
                    qs[*at] = q as u32;
                    cs[*at] = c;
                    *at += 1;
                }
            }
        });
        Self { n, m, gamma, q_offsets, entries, mults, e_offsets, queries, t_mults }
    }

    /// The forward rows as flat arrays: `(q_offsets, entries, mults)`,
    /// where query `q` owns `entries[q_offsets[q]..q_offsets[q + 1]]`.
    pub fn forward_arrays(&self) -> (&[u64], &[u32], &[u32]) {
        (&self.q_offsets, &self.entries, &self.mults)
    }

    /// The transpose as flat arrays: `(e_offsets, queries, t_mults)`,
    /// where entry `i` owns `queries[e_offsets[i]..e_offsets[i + 1]]`.
    pub fn transpose_arrays(&self) -> (&[u64], &[u32], &[u32]) {
        (&self.e_offsets, &self.queries, &self.t_mults)
    }

    /// Distinct entries of query `q` (ascending) with multiplicities.
    #[inline]
    pub fn query_row(&self, q: usize) -> (&[u32], &[u32]) {
        let (s, e) = (self.q_offsets[q] as usize, self.q_offsets[q + 1] as usize);
        (&self.entries[s..e], &self.mults[s..e])
    }

    /// Distinct queries containing entry `i` (ascending) with multiplicities.
    #[inline]
    pub fn entry_row(&self, i: usize) -> (&[u32], &[u32]) {
        let (s, e) = (self.e_offsets[i] as usize, self.e_offsets[i + 1] as usize);
        (&self.queries[s..e], &self.t_mults[s..e])
    }

    /// Total number of stored (entry, query) incidences (distinct pairs).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Gather-based Ψ/Δ* accumulation using the transpose (no atomics):
    /// `psi[i] = Σ_{q ∋ i} w[q]`, `dstar[i] = |∂*x_i|`, written into
    /// caller-provided buffers — allocation-free (entry-parallel). The
    /// allocating variant this replaced is gone on purpose: no decode
    /// path allocates per call.
    ///
    /// # Panics
    /// Panics if `w.len() != m` or the outputs are shorter than `n`.
    pub fn gather_distinct_into(&self, w: &[u64], psi: &mut [u64], dstar: &mut [u64]) {
        assert_eq!(w.len(), self.m, "weight vector length must equal m");
        assert!(psi.len() >= self.n && dstar.len() >= self.n, "psi/dstar must have length n");
        psi[..self.n].par_iter_mut().zip(dstar[..self.n].par_iter_mut()).enumerate().for_each(
            |(i, (p, d))| {
                let (qs, _) = self.entry_row(i);
                let mut acc = 0u64;
                for &q in qs {
                    acc += w[q as usize];
                }
                *p = acc;
                *d = qs.len() as u64;
            },
        );
    }
}

/// One thread's slice of the forward rows (see [`CsrDesign::from_draw_rows`]).
#[derive(Default)]
struct ForwardChunk {
    /// End offset of each row, relative to this chunk's first entry.
    row_ends: Vec<u64>,
    entries: Vec<u32>,
    mults: Vec<u32>,
    /// Draw count of query 0, if this chunk holds it.
    gamma: usize,
}

/// A row is counted rather than sorted once `COUNT_RATIO · Γ ≥ n`: the
/// count path costs `O(Γ + n/64 + distinct)` per row, the sort path
/// `O(Γ log Γ)`, and the count path's `n`-slot array stops fitting in
/// cache long before its scan cost matters.
const COUNT_RATIO: usize = 16;

/// Turns each query's draws into its ascending `(entry, multiplicity)`
/// run, appended to flat arrays. One per chunk, reused across its rows.
struct RowEncoder {
    n: usize,
    /// Per-entry draw counts, all zero between rows (allocated with
    /// `seen` on the first counted row).
    counts: Vec<u32>,
    /// Bitset of the entries drawn in the current row, so emitting the
    /// run visits only drawn entries instead of all `n` slots.
    seen: Vec<u64>,
    /// Draw buffer of the sort path.
    sorted: Vec<u32>,
}

impl RowEncoder {
    fn new(n: usize) -> Self {
        Self { n, counts: Vec::new(), seen: Vec::new(), sorted: Vec::new() }
    }

    fn push_row(
        &mut self,
        draws: impl ExactSizeIterator<Item = u32>,
        entries: &mut Vec<u32>,
        mults: &mut Vec<u32>,
    ) {
        if draws.len().saturating_mul(COUNT_RATIO) >= self.n {
            if self.counts.is_empty() {
                self.counts = vec![0; self.n];
                self.seen = vec![0; self.n.div_ceil(64)];
            }
            for d in draws {
                let d = d as usize;
                self.counts[d] += 1;
                self.seen[d / 64] |= 1 << (d % 64);
            }
            for (w, word) in self.seen.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let e = w * 64 + bits.trailing_zeros() as usize;
                    entries.push(e as u32);
                    mults.push(std::mem::take(&mut self.counts[e]));
                    bits &= bits - 1;
                }
            }
        } else {
            self.sorted.clear();
            self.sorted.extend(draws);
            self.sorted.sort_unstable();
            for run in self.sorted.chunk_by(|a, b| a == b) {
                entries.push(run[0]);
                mults.push(run.len() as u32);
            }
        }
    }
}

impl PoolingDesign for CsrDesign {
    fn n(&self) -> usize {
        self.n
    }

    fn m(&self) -> usize {
        self.m
    }

    fn gamma(&self) -> usize {
        self.gamma
    }

    fn for_each_draw(&self, q: usize, f: &mut dyn FnMut(usize)) {
        let (es, cs) = self.query_row(q);
        for (&e, &c) in es.iter().zip(cs) {
            for _ in 0..c {
                f(e as usize);
            }
        }
    }

    fn for_each_distinct(&self, q: usize, f: &mut dyn FnMut(usize, u32)) {
        let (es, cs) = self.query_row(q);
        for (&e, &c) in es.iter().zip(cs) {
            f(e as usize, c);
        }
    }

    fn distinct_len(&self, q: usize) -> usize {
        (self.q_offsets[q + 1] - self.q_offsets[q]) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_design() -> CsrDesign {
        CsrDesign::sample(50, 20, 25, &SeedSequence::new(42))
    }

    #[test]
    fn multiplicities_sum_to_gamma() {
        let d = small_design();
        for q in 0..d.m() {
            let (_, cs) = d.query_row(q);
            let total: u32 = cs.iter().sum();
            assert_eq!(total as usize, d.gamma(), "query {q}");
        }
    }

    #[test]
    fn rows_are_strictly_ascending() {
        let d = small_design();
        for q in 0..d.m() {
            let (es, _) = d.query_row(q);
            assert!(es.windows(2).all(|w| w[0] < w[1]), "query {q}: {es:?}");
        }
        for i in 0..d.n() {
            let (qs, _) = d.entry_row(i);
            assert!(qs.windows(2).all(|w| w[0] < w[1]), "entry {i}: {qs:?}");
        }
    }

    #[test]
    fn transpose_is_consistent() {
        let d = small_design();
        for q in 0..d.m() {
            let (es, cs) = d.query_row(q);
            for (&e, &c) in es.iter().zip(cs) {
                let (qs, tcs) = d.entry_row(e as usize);
                let pos = qs.binary_search(&(q as u32)).expect("missing transpose edge");
                assert_eq!(tcs[pos], c, "multiplicity mismatch at ({e},{q})");
            }
        }
        let forward_nnz: usize = (0..d.m()).map(|q| d.query_row(q).0.len()).sum();
        let backward_nnz: usize = (0..d.n()).map(|i| d.entry_row(i).0.len()).sum();
        assert_eq!(forward_nnz, backward_nnz);
        assert_eq!(forward_nnz, d.nnz());
    }

    #[test]
    fn sampling_is_deterministic_in_seed() {
        let a = CsrDesign::sample(100, 30, 50, &SeedSequence::new(7));
        let b = CsrDesign::sample(100, 30, 50, &SeedSequence::new(7));
        assert_eq!(a.entries, b.entries);
        assert_eq!(a.mults, b.mults);
        let c = CsrDesign::sample(100, 30, 50, &SeedSequence::new(8));
        assert_ne!(a.entries, c.entries);
    }

    #[test]
    fn from_pools_fig1_example() {
        // Fig. 1 of the paper: n=7, queries with multi-edges; the dashed
        // double edge means an entry drawn twice in the same query.
        let pools = vec![
            vec![0, 1, 2],
            vec![0, 1, 3],
            vec![0, 4, 4, 5], // entry 4 twice (multi-edge)
            vec![2, 4, 6],
            vec![4, 5, 6],
        ];
        let d = CsrDesign::from_pools(7, &pools);
        assert_eq!(d.m(), 5);
        let (es, cs) = d.query_row(2);
        assert_eq!(es, &[0, 4, 5]);
        assert_eq!(cs, &[1, 2, 1]);
        assert_eq!(d.distinct_len(2), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_pools_rejects_bad_entry() {
        let _ = CsrDesign::from_pools(3, &[vec![0, 3]]);
    }

    #[test]
    fn for_each_draw_respects_multiplicity() {
        let d = CsrDesign::from_pools(5, &[vec![1, 1, 1, 4]]);
        let mut draws = Vec::new();
        d.for_each_draw(0, &mut |e| draws.push(e));
        assert_eq!(draws, vec![1, 1, 1, 4]);
    }

    #[test]
    fn gather_matches_manual_sum() {
        let d = small_design();
        let w: Vec<u64> = (0..d.m() as u64).map(|q| q * q + 1).collect();
        let mut psi = vec![0u64; d.n()];
        let mut dstar = vec![0u64; d.n()];
        d.gather_distinct_into(&w, &mut psi, &mut dstar);
        for i in 0..d.n() {
            let (qs, _) = d.entry_row(i);
            let want: u64 = qs.iter().map(|&q| w[q as usize]).sum();
            assert_eq!(psi[i], want, "entry {i}");
            assert_eq!(dstar[i], qs.len() as u64);
        }
    }

    #[test]
    fn forward_rows_round_trip_rebuilds_identical_transpose() {
        // The snapshot-reload contract: a design rebuilt from its forward
        // rows matches the original in both orientations, bit for bit.
        let d = small_design();
        let (offsets, entries, mults) = d.forward_arrays();
        let rebuilt = CsrDesign::try_from_forward_rows(
            d.n(),
            d.gamma(),
            offsets.to_vec(),
            entries.to_vec(),
            mults.to_vec(),
        )
        .expect("a sampled design's rows are valid");
        assert_eq!(rebuilt.gamma(), d.gamma());
        assert_eq!(rebuilt.forward_arrays(), d.forward_arrays());
        assert_eq!(rebuilt.transpose_arrays(), d.transpose_arrays());
    }

    #[test]
    fn try_from_forward_rows_rejects_every_broken_invariant() {
        let rows = |offsets: &[u64], entries: &[u32], mults: &[u32]| {
            CsrDesign::try_from_forward_rows(
                5,
                2,
                offsets.to_vec(),
                entries.to_vec(),
                mults.to_vec(),
            )
            .map(|d| d.nnz())
        };
        assert_eq!(rows(&[0, 2], &[1, 3], &[1, 1]), Ok(2));
        assert_eq!(
            CsrDesign::try_from_forward_rows(0, 0, vec![0], vec![], vec![]).map(|d| d.nnz()),
            Err(CsrError::NoEntries)
        );
        assert_eq!(rows(&[], &[], &[]), Err(CsrError::BadOffsets));
        assert_eq!(rows(&[1, 2], &[1, 3], &[1, 1]), Err(CsrError::BadOffsets));
        assert_eq!(rows(&[0, 1], &[1, 3], &[1, 1]), Err(CsrError::BadOffsets));
        assert_eq!(rows(&[0, 2], &[1, 3], &[1]), Err(CsrError::BadOffsets));
        assert_eq!(rows(&[0, 3, 2], &[1, 3], &[1, 1]), Err(CsrError::BadOffsets));
        assert_eq!(rows(&[0, 2], &[3, 1], &[1, 1]), Err(CsrError::BadRow(0)));
        assert_eq!(rows(&[0, 1, 2], &[1, 1], &[1, 1]), Ok(2));
        assert_eq!(rows(&[0, 2], &[1, 1], &[1, 1]), Err(CsrError::BadRow(0)));
        assert_eq!(rows(&[0, 1, 2], &[1, 5], &[1, 1]), Err(CsrError::BadRow(1)));
        assert_eq!(rows(&[0, 1, 2], &[1, 4], &[1, 0]), Err(CsrError::BadRow(1)));
    }

    #[test]
    fn parallel_build_matches_sequential_build() {
        // Chunk boundaries move with the thread count; the rows must not.
        let one = pooled_par::pool::pool_with_threads(1)
            .install(|| CsrDesign::sample(300, 37, 40, &SeedSequence::new(5)));
        for t in [2, 3, 8] {
            let many = pooled_par::pool::pool_with_threads(t)
                .install(|| CsrDesign::sample(300, 37, 40, &SeedSequence::new(5)));
            assert_eq!(many.forward_arrays(), one.forward_arrays(), "{t} threads");
            assert_eq!(many.transpose_arrays(), one.transpose_arrays(), "{t} threads");
        }
    }

    #[test]
    fn empty_design_m_zero() {
        let d = CsrDesign::sample(10, 0, 5, &SeedSequence::new(1));
        assert_eq!(d.m(), 0);
        assert_eq!(d.nnz(), 0);
        let mut psi = vec![3u64; 10];
        let mut dstar = vec![3u64; 10];
        d.gather_distinct_into(&[], &mut psi, &mut dstar);
        assert!(psi.iter().all(|&x| x == 0));
        assert!(dstar.iter().all(|&x| x == 0));
    }

    #[test]
    fn gamma_zero_yields_empty_pools() {
        let d = CsrDesign::sample(10, 4, 0, &SeedSequence::new(1));
        for q in 0..4 {
            assert_eq!(d.distinct_len(q), 0);
        }
    }

    #[test]
    fn distinct_fraction_matches_expectation() {
        // E[#distinct]/n = 1 − (1−1/n)^Γ ≈ 1 − e^{−1/2} for Γ = n/2.
        let n = 2000;
        let d = CsrDesign::sample(n, 200, n / 2, &SeedSequence::new(99));
        let mean_distinct: f64 =
            (0..d.m()).map(|q| d.distinct_len(q) as f64).sum::<f64>() / d.m() as f64;
        let expect = n as f64 * (1.0 - (-0.5f64).exp());
        let rel = (mean_distinct - expect).abs() / expect;
        assert!(rel < 0.02, "mean distinct {mean_distinct} vs expected {expect}");
    }
}
