//! Measurement arithmetic: percentiles under the "ten samples beyond"
//! rule, job outcome accounting, and span self time.
//! Pure functions over numbers, so each rule is unit-tested on its own.

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (in `[0, 1]`) among `len`
/// samples (`len > 0`); the epsilon keeps `0.99 * 1000` at rank 990.
fn rank(len: usize, p: f64) -> usize {
    ((p * len as f64 - 1e-9).ceil() as usize).clamp(1, len)
}

/// Nearest-rank percentile `p` of ascending `sorted` (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly after the nearest-rank position of percentile `p`.
pub fn beyond(len: usize, p: f64) -> usize {
    if len == 0 {
        return 0;
    }
    len - rank(len, p)
}

/// The tail percentile to report: `p` itself when at least
/// [`MIN_BEYOND`] samples lie beyond it, otherwise the highest
/// percentile (in 0.1-point steps, at least the median) that has them.
/// Returns `(percentile used, value)`.
pub fn tail(sorted: &[f64], p: f64) -> (f64, f64) {
    let mut q = p;
    while q > 0.5 && beyond(sorted.len(), q) < MIN_BEYOND {
        q = ((q * 1000.0).round() - 1.0) / 1000.0;
    }
    (q, percentile(sorted, q))
}

/// Sorts a sample set in place and returns its `(median, (p_used, p99))`.
pub fn median_and_p99(samples: &mut [f64]) -> (f64, (f64, f64)) {
    samples.sort_by(f64::total_cmp);
    (percentile(samples, 0.5), tail(samples, 0.99))
}

/// Latency percentiles robust to a stall: split time-ordered samples into
/// up to `max_chunks` consecutive chunks of at least `min_chunk` samples
/// (one chunk if there are fewer), take each chunk's median and tail
/// percentile ([`tail`] of p99), and report the median of each across
/// chunks. Returns `(p50, (p_used, p99), chunks)`.
pub fn chunked_p50_p99(
    in_time_order: &[f64],
    min_chunk: usize,
    max_chunks: usize,
) -> (f64, (f64, f64), usize) {
    let chunks = (in_time_order.len() / min_chunk.max(1)).clamp(1, max_chunks.max(1));
    let size = in_time_order.len().div_ceil(chunks).max(1);
    let (mut p50s, mut p99s, mut used) = (Vec::new(), Vec::new(), 1.0f64);
    for chunk in in_time_order.chunks(size) {
        let mut c = chunk.to_vec();
        let (p50, (p, p99)) = median_and_p99(&mut c);
        p50s.push(p50);
        p99s.push(p99);
        used = used.min(p);
    }
    (median(&p50s), (used, median(&p99s)), p50s.len())
}

/// Median of an unsorted sample set (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 0.5)
}

/// How one attempted job ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// RESULT arrived and its fingerprint matched the reference (or the
    /// job lies outside the oracle's stride).
    Ok,
    /// Refused with REJECT.
    Reject,
    /// No reply before the job's deadline.
    Timeout,
    /// The cluster router failed the job terminally.
    RouterFailed,
    /// RESULT arrived with a fingerprint other than the reference's.
    Mismatch,
}

/// Outcome counts over the attempted jobs of a measured phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub ok: u64,
    pub reject: u64,
    pub timeout: u64,
    pub router_failed: u64,
    pub mismatch: u64,
}

impl Tally {
    pub fn add(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Reject => self.reject += 1,
            Outcome::Timeout => self.timeout += 1,
            Outcome::RouterFailed => self.router_failed += 1,
            Outcome::Mismatch => self.mismatch += 1,
        }
    }

    pub fn attempted(&self) -> u64 {
        self.ok + self.failed()
    }

    pub fn failed(&self) -> u64 {
        self.reject + self.timeout + self.router_failed + self.mismatch
    }

    pub fn failed_share(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            a => self.failed() as f64 / a as f64,
        }
    }
}

/// One timed interval recorded by the benchmark or read from the
/// program's traces, in ns from the benchmark's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same store, if any.
    pub parent: Option<u32>,
    pub job: u64,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children's intervals cover (children clipped to the parent, overlaps
/// counted once).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p as usize].push((a, b));
            }
        }
    }
    spans.iter().zip(children.iter_mut()).map(|(s, kids)| s.duration_ns() - covered(kids)).collect()
}

/// Length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail(&sorted, 0.99), (0.99, 990.0));
        // 999 samples leave only 9 beyond p99: fall back to p98.9.
        let short = &sorted[..999];
        assert_eq!(beyond(999, 0.99), 9);
        let (p, v) = tail(short, 0.99);
        assert!((p - 0.989).abs() < 1e-9, "fell back to {p}");
        assert!(beyond(999, p) >= MIN_BEYOND);
        assert_eq!(v, percentile(short, p));
        // Tiny samples bottom out at the median.
        assert_eq!(tail(&sorted[..5], 0.99).0, 0.5);
    }

    #[test]
    fn chunked_percentiles_shrug_off_one_stalled_chunk() {
        // Ten chunks of 1000 samples; one chunk is a stall at 100x.
        let mut samples: Vec<f64> = (0..10_000).map(|i| f64::from(1000 + i % 1000)).collect();
        for s in &mut samples[3000..4000] {
            *s *= 100.0;
        }
        let (p50, (p, p99), chunks) = chunked_p50_p99(&samples, 1000, 10);
        assert_eq!((chunks, p), (10, 0.99));
        // Each chunk holds 1000..=1999: nearest ranks 500 and 990.
        assert_eq!(p50, 1499.0);
        assert_eq!(p99, 1989.0);
        // Too few samples for two chunks: one chunk, tail rule applies.
        let (_, (p, _), chunks) = chunked_p50_p99(&samples[..1500], 1000, 10);
        assert_eq!((chunks, p), (1, 0.99));
        let (_, (p, _), _) = chunked_p50_p99(&samples[..500], 1000, 10);
        assert!(p < 0.99);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.5), 2.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn failed_share_counts_every_failure_class() {
        let mut t = Tally::default();
        for o in [Outcome::Ok; 6] {
            t.add(o);
        }
        for o in [Outcome::Timeout, Outcome::Mismatch, Outcome::RouterFailed] {
            t.add(o);
        }
        assert_eq!(t.attempted(), 9);
        assert_eq!(t.failed(), 3);
        assert!((t.failed_share() - 1.0 / 3.0).abs() < 1e-12);
        t.add(Outcome::Reject);
        assert_eq!((t.attempted(), t.failed()), (10, 4));
        assert_eq!(Tally::default().failed_share(), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span =
            |start_ns, end_ns, parent| SpanRec { name: "s", start_ns, end_ns, parent, job: 0 };
        let spans = [
            span(0, 100, None),     // root
            span(10, 30, Some(0)),  // child
            span(20, 50, Some(0)),  // overlaps the first child
            span(90, 140, Some(0)), // runs past the root: clipped to 90..100
            span(12, 18, Some(1)),  // grandchild: only its parent loses it
        ];
        let st = self_times(&spans);
        // Root: 100 - |10..50 ∪ 90..100| = 100 - 50.
        assert_eq!(st[0], 50);
        assert_eq!(st[1], 20 - 6);
        assert_eq!(st[2], 30);
        assert_eq!(st[3], 50);
        assert_eq!(st[4], 6);
    }
}
