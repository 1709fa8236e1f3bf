//! Small numeric helpers, the seeded generator inputs derive from, and the
//! host facts every run records.

use crate::Outcome;

/// Linear-interpolation quantile (`q` in `0..=1`) of unsorted samples;
/// `0` for no samples.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples; `0` for none.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Geometric mean of positive values; `0` for none.
#[must_use]
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// `a / b`, or `0` when `b` is zero.
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB; `0`
/// where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores the process may use.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// SplitMix64: the benchmark's own seeded generator, so inputs depend only
/// on the seed argument and an index.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream position `index` under `seed`.
    #[must_use]
    pub fn new(seed: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Records the run's provenance: host parallelism, compiler, source
/// revision, and the run's own arguments.
pub fn record_provenance(out: &mut Outcome, cfg: &crate::Config) {
    out.prov_str("workload", cfg.workload.name());
    out.prov("seed", cfg.seed);
    out.prov("seconds", crate::json_num(cfg.seconds));
    out.prov("traced", cfg.trace);
    out.prov("tiny", cfg.tiny);
    out.prov("available_parallelism", nproc());
    out.prov_str("rustc", env!("PERFBENCH_RUSTC_VERSION"));
    out.prov_str("git_describe", &git_describe());
}

/// `git describe --always --dirty` of the working directory, when it is
/// the root of a git checkout (never a parent directory's repository).
fn git_describe() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unavailable: not a git checkout".into();
    }
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unavailable: git failed".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean([1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn rng_is_a_function_of_seed_and_index() {
        assert_eq!(Rng::new(3, 9).next_u64(), Rng::new(3, 9).next_u64());
        assert_ne!(Rng::new(3, 9).next_u64(), Rng::new(3, 10).next_u64());
        assert_ne!(Rng::new(3, 9).next_u64(), Rng::new(4, 9).next_u64());
    }
}
