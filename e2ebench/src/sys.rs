//! Process measurements from `/proc`, and order statistics.

use std::fs;

/// Sums the `utime` and `stime` fields (clock ticks) of a `stat` file.
fn stat_cpu_ticks(path: &str) -> u64 {
    let stat = fs::read_to_string(path).unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3,
    // utime field 14, stime field 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let get = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    get(11) + get(12)
}

/// CPU time of the whole process, in clock ticks.
pub fn process_cpu_ticks() -> u64 {
    stat_cpu_ticks("/proc/self/stat")
}

/// CPU time of the calling thread, in clock ticks.
pub fn thread_cpu_ticks() -> u64 {
    stat_cpu_ticks("/proc/thread-self/stat")
}

/// Clock ticks per second (`AT_CLKTCK` from the auxiliary vector;
/// 100 when unreadable).
pub fn clock_ticks_per_sec() -> u64 {
    const AT_CLKTCK: u64 = 17;
    let auxv = fs::read("/proc/self/auxv").unwrap_or_default();
    auxv.chunks_exact(16)
        .map(|c| {
            let k = u64::from_le_bytes(c[..8].try_into().expect("8 bytes"));
            let v = u64::from_le_bytes(c[8..].try_into().expect("8 bytes"));
            (k, v)
        })
        .find(|&(k, _)| k == AT_CLKTCK)
        .map_or(100, |(_, v)| v)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The `q`-quantile (nearest rank) of `sorted`, with `missing` extra
/// samples of infinite value above it; `None` when there is no sample.
pub fn quantile(sorted: &[u64], missing: u64, q: f64) -> Option<f64> {
    let n = sorted.len() as u64 + missing;
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n) - 1;
    Some(
        sorted
            .get(rank as usize)
            .map_or(f64::INFINITY, |&v| v as f64),
    )
}

/// Quantile of an unsorted sample in milliseconds (0 when empty).
pub fn quantile_ms(values: &mut [u64], q: f64) -> f64 {
    values.sort_unstable();
    quantile(values, 0, q).unwrap_or(0.0) / 1e6
}

/// Sub-buckets per power of two in a [`Hist`]: values are kept to
/// within 1/128 of themselves.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above `2^MAX_BITS` ns (~69 s) share the last bucket.
const MAX_BITS: u32 = 36;
const BUCKETS: usize = ((MAX_BITS - SUB_BITS + 1) as u64 * SUB) as usize;

/// A log-linear histogram of nanosecond values, fixed in size (~30 KiB)
/// however many values it holds, so that keeping latencies costs the
/// benchmark no memory that grows with the run.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let v = v.min((1 << MAX_BITS) - 1);
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((shift as u64 + 1) * SUB + (v >> shift) - SUB) as usize
    }

    /// The values bucket `b` holds: `lo..hi`.
    fn range(b: usize) -> (f64, f64) {
        let (b, sub) = (b as u64, SUB);
        if b < sub {
            return (b as f64, (b + 1) as f64);
        }
        let shift = b / sub - 1;
        let lo = (sub + b % sub) << shift;
        (lo as f64, (lo + (1 << shift)) as f64)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    pub fn add(&mut self, other: &Hist) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (nearest rank) with `missing` extra values of
    /// infinite size above the recorded ones; `None` when empty. Within
    /// its bucket the value is interpolated by rank.
    pub fn quantile(&self, missing: u64, q: f64) -> Option<f64> {
        let n = self.total + missing;
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        if rank > self.total {
            return Some(f64::INFINITY);
        }
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if below + c >= rank {
                let (lo, hi) = Self::range(b);
                return Some(lo + (hi - lo) * ((rank - below) as f64 - 0.5) / c as f64);
            }
            below += c;
        }
        unreachable!("rank within total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_count_missing_samples_as_infinite() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1, 0.99), Some(100.0));
        assert_eq!(quantile(&v, 2, 0.99), Some(f64::INFINITY));
        assert_eq!(quantile(&v, 50, 0.99), Some(f64::INFINITY));
        assert_eq!(quantile(&[], 0, 0.5), None);
    }

    #[test]
    fn hist_quantiles_stay_within_a_bucket_of_the_exact_ones() {
        let v: Vec<u64> = (0..100_000u64).map(|i| (i * 7919) % 50_000_000).collect();
        let mut sorted = v.clone();
        sorted.sort_unstable();
        let mut h = Hist::default();
        v.iter().for_each(|&x| h.record(x));
        for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
            let exact = quantile(&sorted, 0, q).unwrap();
            let got = h.quantile(0, q).unwrap();
            assert!(
                (got - exact).abs() <= exact / SUB as f64 + 1.0,
                "q {q}: {got} vs {exact}"
            );
        }
        assert_eq!(h.quantile(2_000, 0.99), Some(f64::INFINITY));
        assert_eq!(Hist::default().quantile(0, 0.5), None);
        let mut both = h.clone();
        both.add(&h);
        assert_eq!(both.count(), 200_000);
        for b in 0..BUCKETS {
            let (lo, hi) = Hist::range(b);
            assert_eq!(Hist::bucket(lo as u64), b);
            assert_eq!(Hist::bucket(hi as u64 - 1), b);
        }
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(clock_ticks_per_sec() > 0);
        assert!(peak_rss_mib() > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 50 {
            std::hint::black_box(spin.elapsed());
        }
        assert!(process_cpu_ticks() > 0);
    }
}
