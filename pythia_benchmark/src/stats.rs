//! Order statistics, speed calibration and failure accounting: the pure
//! arithmetic every workload shares (unit-tested at the bottom).

/// Calibration reference: the frozen kernel ([`calibrate`]) takes this long
/// on the box the benchmark was defined on, in the slower (and usual) of
/// its two speed modes. Timings are reported as if every round had run at
/// that speed, so on that box a calibrated number reads like a raw one.
pub const CALIB_REF_NS: f64 = 21_500_000.0;

/// Iterations of the calibration kernel.
const CALIB_ITERS: u32 = 1 << 22;

/// The frozen calibration kernel: a dependent multiply/xor-shift hash chain
/// with one data-dependent branch per step over a 4 KiB table, so it stays
/// L1-resident and is bound by core speed alone. Returns the ns `iters`
/// steps took. Frozen: any edit changes what every calibrated metric means.
fn kernel_ns(iters: u32) -> f64 {
    let mut table = [0u32; 1024];
    for (i, slot) in table.iter_mut().enumerate() {
        *slot = (i as u32).wrapping_mul(0x9e37_79b9) ^ 0x5bd1_e995;
    }
    let t0 = std::time::Instant::now();
    let mut h = 0x811c_9dc5u32;
    let mut taken = 0u32;
    for i in 0..iters {
        h = (h ^ table[(h & 1023) as usize]).wrapping_mul(0x0100_0193);
        h ^= h >> 15;
        if h & 4 != 0 {
            taken = taken.wrapping_add(h);
        } else {
            h = h.wrapping_add(i);
        }
    }
    std::hint::black_box((h, taken));
    t0.elapsed().as_nanos() as f64
}

/// Chunks the kernel is timed in.
const CALIB_CHUNKS: u32 = 16;

/// Times the calibration kernel (about 20 ms) in [`CALIB_CHUNKS`] chunks
/// and answers with the fastest chunk, scaled to the whole: what the core's
/// speed is, not what a burst of interference made of it. (A calibration
/// that a burst inflates makes the round beside it look fast, and the fast
/// side is what the estimator keeps.)
pub fn calibrate() -> f64 {
    let fastest = (0..CALIB_CHUNKS)
        .map(|_| kernel_ns(CALIB_ITERS / CALIB_CHUNKS))
        .fold(f64::INFINITY, f64::min);
    fastest * CALIB_CHUNKS as f64
}

/// A duration measured while the calibration kernel took `calib_ns`, as it
/// would read at the reference speed.
pub fn normalize_time(value: f64, calib_ns: f64) -> f64 {
    value * CALIB_REF_NS / calib_ns
}

/// A rate measured while the calibration kernel took `calib_ns`, as it
/// would read at the reference speed.
pub fn normalize_rate(value: f64, calib_ns: f64) -> f64 {
    value * calib_ns / CALIB_REF_NS
}

/// Median of `values` (mean of the two middle values for even counts).
/// Sorts in place; panics on an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The `k`-th of the `m - 1` cut points dividing ascending `sorted` into
/// `m` equal parts, by the "exclusive" method — the one Python's
/// `statistics.quantiles(values, n=m)` uses. Needs ≥ 2 samples.
fn cut_point(sorted: &[f64], k: usize, m: usize) -> f64 {
    let n = sorted.len();
    assert!(n >= 2, "quantiles need two samples");
    let pos = k * (n + 1);
    let j = (pos / m).clamp(1, n - 1);
    let delta = pos as f64 / m as f64 - j as f64;
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
}

/// First quartile, median and third quartile, as
/// `statistics.quantiles(values, n=4)` gives them, so a spread printed here
/// reads like the one the driver computes. Sorts in place.
pub fn quartiles(values: &mut [f64]) -> [f64; 3] {
    values.sort_by(f64::total_cmp);
    [1, 2, 3].map(|k| cut_point(values, k, 4))
}

/// The lower decile: the fast side of a timing's samples. Interference
/// from other tenants of the box only ever adds time, so the fast tail is
/// the program's own; the very minimum is not used, because it also
/// collects every calibration error in the timing's favour. Sorts in place.
pub fn lower_decile(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "decile of no samples");
    values.sort_by(f64::total_cmp);
    // Below nine samples the first cut point lies before the first sample
    // (the exclusive method would extrapolate): the minimum stands in.
    if values.len() < 9 {
        values[0]
    } else {
        cut_point(values, 1, 10)
    }
}

/// A percentile in hundredths of a percent (`9_999` is the 99.99th), so
/// ranks come out of integer arithmetic and `100 × 0.9` cannot read 89.99.
pub type Centipercent = usize;

/// The median.
pub const P50: Centipercent = 5_000;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: Centipercent) -> usize {
    (n * p).div_ceil(10_000).clamp(1, n)
}

/// Percentile `p` (nearest rank) of an ascending slice.
pub fn percentile_sorted(sorted: &[u64], p: Centipercent) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The tail percentile a sample of `n` supports: the highest of 99.99,
/// 99.9, 99, 95 and 90 % that leaves at least ten samples beyond it.
/// `None` below 100 samples, where not even p90 does.
pub fn supported_tail(n: usize) -> Option<Centipercent> {
    [9_999, 9_990, 9_900, 9_500, 9_000]
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= 10)
}

/// Value at [`supported_tail`] of an ascending slice, with the percentile
/// it was read at.
pub fn tail_sorted(sorted: &[u64]) -> Option<(Centipercent, u64)> {
    supported_tail(sorted.len()).map(|p| (p, percentile_sorted(sorted, p)))
}

/// Operations attempted and the ways one can fail to deliver. Everything
/// but `attempted` counts as failed: a refused, shed, withheld or wrong
/// answer misses whatever the caller wanted it for.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Caller-visible operations issued.
    pub attempted: u64,
    /// Events a recorder or channel lost.
    pub dropped: u64,
    /// `Busy`/`Draining` replies: the request was not applied.
    pub refused: u64,
    /// Replies whose admission was `Degraded` (tenant breaker open).
    pub degraded: u64,
    /// Queries a hardened facade answered with the uninformed default.
    pub suppressed: u64,
    /// Calls that returned an error or an unexpected reply.
    pub errored: u64,
    /// Outputs a correctness check found wrong.
    pub wrong: u64,
}

impl Tally {
    /// Operations that did not deliver.
    pub fn failed(&self) -> u64 {
        self.dropped + self.refused + self.degraded + self.suppressed + self.errored + self.wrong
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.dropped += other.dropped;
        self.refused += other.refused;
        self.degraded += other.degraded;
        self.suppressed += other.suppressed;
        self.errored += other.errored;
        self.wrong += other.wrong;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&mut v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&mut [16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // Two samples extrapolate, as Python does: [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&mut [1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn lower_decile_is_pythons_first_of_ten_cut_points() {
        // statistics.quantiles(range(1, 20), n=10)[0] == 2.0
        let mut v: Vec<f64> = (1..=19).rev().map(f64::from).collect();
        assert_eq!(lower_decile(&mut v), 2.0);
        // statistics.quantiles(range(1, 13), n=10)[0] == 1.3
        let mut v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert!((lower_decile(&mut v) - 1.3).abs() < 1e-12);
        // Too few samples to have a tenth: the minimum, never below it.
        assert_eq!(lower_decile(&mut [5.0, 3.0, 4.0]), 3.0);
        assert_eq!(lower_decile(&mut [7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, P50), 50);
        assert_eq!(percentile_sorted(&v, 9_900), 99);
        assert_eq!(percentile_sorted(&v, 10_000), 100);
        assert_eq!(percentile_sorted(&v[..3], P50), 2);
        assert_eq!(percentile_sorted(&[42], 9_900), 42);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(9_000));
        assert_eq!(supported_tail(199), Some(9_000));
        assert_eq!(supported_tail(200), Some(9_500));
        assert_eq!(supported_tail(999), Some(9_500));
        assert_eq!(supported_tail(1_000), Some(9_900));
        assert_eq!(supported_tail(10_000), Some(9_990));
        assert_eq!(supported_tail(100_000), Some(9_999));
        let v: Vec<u64> = (1..=1_000).collect();
        assert_eq!(tail_sorted(&v), Some((9_900, 990)));
        assert_eq!(tail_sorted(&v[..50]), None);
    }

    #[test]
    fn calibration_is_identity_at_reference_and_linear_elsewhere() {
        assert_eq!(normalize_time(123.5, CALIB_REF_NS), 123.5);
        assert_eq!(normalize_rate(123.5, CALIB_REF_NS), 123.5);
        // A box running at half speed (kernel takes twice as long) reads
        // twice the time and half the rate; normalising undoes both.
        assert_eq!(normalize_time(200.0, 2.0 * CALIB_REF_NS), 100.0);
        assert_eq!(normalize_rate(50.0, 2.0 * CALIB_REF_NS), 100.0);
        let a = normalize_time(10.0, 1.0e7);
        assert!((normalize_time(30.0, 1.0e7) - 3.0 * a).abs() < 1e-9);
        assert!((normalize_time(10.0, 2.0e7) - a / 2.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_kernel_scales_with_work() {
        // The kernel must not be optimised away: it takes measurable time.
        assert!(calibrate() > 100_000.0);
    }

    #[test]
    fn every_kind_of_failure_counts() {
        let mut t = Tally {
            attempted: 100,
            ..Tally::default()
        };
        assert_eq!(t.failed(), 0);
        assert_eq!(t.failed_ratio(), 0.0);
        t.refused = 1; // Busy
        t.degraded = 2;
        t.suppressed = 3;
        t.dropped = 4;
        t.errored = 5;
        t.wrong = 6;
        assert_eq!(t.failed(), 21);
        assert_eq!(t.failed_ratio(), 0.21);
        let mut sum = Tally::default();
        sum.absorb(&t);
        sum.absorb(&t);
        assert_eq!(sum.attempted, 200);
        assert_eq!(sum.failed(), 42);
        assert_eq!(Tally::default().failed_ratio(), 0.0);
    }
}
