//! The benchmark's own arithmetic: medians, the percentile-with-count
//! rule, failure fractions, shard wait and imbalance, and peak-RSS
//! parsing. Kept free of any simulation code so the unit tests pin it.

/// Median of `xs` (mean of the middle two for an even count); `None` for
/// an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Index into `n` sorted samples of their nearest-rank percentile `p`
/// (0 < p <= 100); `None` for no samples or `p` out of range.
pub fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    Some(rank.clamp(1, n) - 1)
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let i = nearest_rank(xs.len(), p)?;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[i])
}

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 90.0, 75.0, 50.0];

/// Samples a reported percentile needs beyond it.
const TAIL_SAMPLES: f64 = 10.0;

/// The highest percentile that `n` samples support: the one with at
/// least ten samples beyond it. `None` below twenty samples, where not
/// even the median has ten samples above it.
pub fn supported_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| n as f64 * (100.0 - p) / 100.0 >= TAIL_SAMPLES - 1e-9)
}

/// A latency summary: the median always, plus the highest percentile
/// the sample count supports, with the count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    /// `(percentile, value)`, when the count supports one above the median.
    pub tail: Option<(f64, f64)>,
    pub max: f64,
}

impl Summary {
    /// Summarizes `xs`; `None` for an empty slice.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        let p50 = median(xs)?;
        let tail = supported_percentile(xs.len())
            .filter(|&p| p > 50.0)
            .and_then(|p| percentile(xs, p).map(|v| (p, v)));
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(Summary {
            count: xs.len(),
            p50,
            tail,
            max,
        })
    }

    /// `p50=… p90=… n=…` for the human-readable report.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(" p{p}={v:.3} {unit}"),
            None => String::new(),
        };
        format!(
            "p50={:.3} {unit}{tail} max={:.3} {unit} n={}",
            self.p50, self.max, self.count
        )
    }
}

/// Failed ÷ attempted checkpoint-class operations (0 when nothing was
/// attempted, which the caller reports as a failed run anyway).
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Time shards spent not dispatching: `shards × wall − Σ busy`, clamped
/// at zero (busy clocks and the wall clock are read separately).
pub fn barrier_wait_ns(busy_ns: &[u64], wall_ns: u64) -> u64 {
    let total: u64 = busy_ns.iter().sum();
    (busy_ns.len() as u64 * wall_ns).saturating_sub(total)
}

/// Busiest shard ÷ mean shard busy time: 1.0 is perfect balance.
pub fn busy_imbalance(busy_ns: &[u64]) -> f64 {
    let total: u64 = busy_ns.iter().sum();
    if busy_ns.is_empty() || total == 0 {
        return 1.0;
    }
    let max = *busy_ns.iter().max().expect("non-empty") as f64;
    max / (total as f64 / busy_ns.len() as f64)
}

/// Peak resident set in MB (10^6 bytes) from the text of
/// `/proc/<pid>/status` (its `VmHWM:` line, in kB).
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kb as f64 * 1024.0 / 1e6),
        _ => None,
    }
}

/// This process's peak resident set, MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_peak_rss_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&xs, 0.0), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(39), Some(50.0));
        assert_eq!(supported_percentile(40), Some(75.0));
        assert_eq!(supported_percentile(99), Some(75.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_tail_only_when_supported() {
        let few: Vec<f64> = (1..=30).map(f64::from).collect();
        let s = Summary::of(&few).expect("non-empty");
        assert_eq!((s.count, s.p50, s.tail, s.max), (30, 15.5, None, 30.0));
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&many).expect("non-empty");
        assert_eq!(s.tail, Some((90.0, 90.0)));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn failed_fraction() {
        assert_eq!(failed_frac(0, 12), 0.0);
        assert_eq!(failed_frac(3, 12), 0.25);
        assert_eq!(failed_frac(0, 0), 0.0);
    }

    #[test]
    fn shard_wait_and_imbalance() {
        // Two shards over a 100 ns window, busy 80 and 40: 80 ns idle.
        assert_eq!(barrier_wait_ns(&[80, 40], 100), 80);
        assert!((busy_imbalance(&[80, 40]) - 80.0 / 60.0).abs() < 1e-12);
        assert_eq!(busy_imbalance(&[50, 50]), 1.0);
        // Clock skew between busy and wall never goes negative.
        assert_eq!(barrier_wait_ns(&[120, 90], 100), 0);
        assert_eq!(busy_imbalance(&[]), 1.0);
        assert_eq!(busy_imbalance(&[0, 0]), 1.0);
    }

    #[test]
    fn rss_parsing() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  576512 kB\nVmRSS:\t 1000 kB\n";
        let mb = parse_peak_rss_mb(status).expect("VmHWM present");
        assert!((mb - 576_512.0 * 1024.0 / 1e6).abs() < 1e-9);
        assert_eq!(parse_peak_rss_mb("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mb().expect("procfs on Linux") > 0.0);
    }
}
