//! Helpers shared by the workloads and the traced run: the result digest,
//! order statistics, host facts and the JSON result line.

use efficsense_obs::json::escape;

/// FNV-1a taken a 64-bit word at a time. Each step is a bijection of the
/// state, so a change to any one word always changes the digest. The
/// benchmark owns this digest (rather than borrowing a fingerprint from the
/// program) so a change to the program's own hashing can never masquerade as
/// a change of results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word into the digest.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn finish(self) -> u64 {
        self.0
    }

    /// The digest of `words`, in order.
    pub fn of(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut d = Self::default();
        for w in words {
            d.word(w);
        }
        d.finish()
    }
}

/// Digest of one sweep point: its metric and total power, bit for bit.
pub fn point_hash(metric: f64, power_w: f64) -> u64 {
    Digest::of([metric.to_bits(), power_w.to_bits()])
}

/// Digest of one streamed signal: every output sample, bit for bit.
pub fn signal_hash(samples: &[f64]) -> u64 {
    Digest::of(samples.iter().map(|v| v.to_bits()))
}

/// Points of `got` that differ from `expected` (a missing or extra point
/// counts as a difference). This is how a perturbed result becomes a failed
/// operation.
pub fn mismatches(expected: &[u64], got: &[u64]) -> usize {
    let common = expected.iter().zip(got).filter(|(a, b)| a != b).count();
    common + expected.len().abs_diff(got.len())
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile `q` ∈ (0, 1]; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The sum over units of each unit's fastest time: `reps[r][u]` is the time
/// of unit `u` in repetition `r`, and every repetition has the same units.
/// 0 when there is no repetition.
pub fn fastest_total(reps: &[&[f64]]) -> f64 {
    let units = reps.first().map_or(0, |r| r.len());
    (0..units)
        .map(|u| reps.iter().map(|r| r[u]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The checkout's git revision when it is a git work tree, else `unknown`.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

/// The host block recorded beside every result.
pub fn host_json() -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"available_parallelism\": {cores}, \"rustc\": \"{}\", \"git_rev\": \"{}\"}}",
        escape(env!("BENCH_RUSTC_VERSION")),
        escape(&git_rev())
    )
}

/// `true` for a name the result contract accepts: a letter or digit first,
/// then up to 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
/// A non-finite value would not be JSON, so it is reported as 0 and makes
/// the run incorrect, as does a name outside the contract.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let finite = metrics
        .iter()
        .all(|m| m.value.is_finite() && valid_metric_name(m.name));
    let body = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        failed == 0 && finite && attempted > 0
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use efficsense_obs::json::Json;

    #[test]
    fn digest_is_stable_and_sees_one_bit() {
        let metric = 0.9375_f64;
        let a = point_hash(metric, 2.1e-6);
        assert_eq!(a, point_hash(metric, 2.1e-6));
        let flipped = f64::from_bits(metric.to_bits() ^ 1);
        assert_ne!(a, point_hash(flipped, 2.1e-6));
        let s = [1.0_f64, -2.5, 3.25];
        let mut t = s;
        t[2] = f64::from_bits(t[2].to_bits() ^ 1);
        assert_eq!(signal_hash(&s), signal_hash(&s));
        assert_ne!(signal_hash(&s), signal_hash(&t));
        assert_ne!(Digest::of([1, 2]), Digest::of([2, 1]), "order matters");
    }

    #[test]
    fn a_perturbed_result_counts_as_failed() {
        let expected = vec![point_hash(0.5, 1e-6), point_hash(0.75, 2e-6)];
        assert_eq!(mismatches(&expected, &expected), 0);
        let mut got = expected.clone();
        got[1] = point_hash(f64::from_bits(0.75_f64.to_bits() ^ 1), 2e-6);
        assert_eq!(mismatches(&expected, &got), 1);
        assert_eq!(
            mismatches(&expected, &expected[..1]),
            1,
            "a lost point fails"
        );
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        // Unit 0 is fastest in the second repetition, unit 1 in the first.
        assert_eq!(fastest_total(&[&[2.0, 1.0], &[1.5, 3.0]]), 2.5);
        assert_eq!(fastest_total(&[]), 0.0);
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in [
            "points_per_s",
            "cache.l1.hit_rate",
            "prefix.ct.hit_rate",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "has space", "p50%", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let line = result_line(96, 0, &[metric("setup_s", "s", 1.25)]);
        // The shared codec has no booleans, so the keys are checked as text
        // and the metrics object is parsed on its own.
        let metrics = line
            .strip_prefix("{\"correct\": true, \"attempted\": 96, \"failed\": 0, \"metrics\": ")
            .and_then(|rest| rest.strip_suffix('}'))
            .expect("exactly the contract keys, in order");
        let json = Json::parse(metrics).expect("metrics object is JSON");
        let m = json.get("setup_s").expect("metric");
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
        assert!(result_line(96, 1, &[]).contains("\"correct\": false"));
        assert!(result_line(1, 0, &[metric("x", "s", f64::NAN)]).contains("\"correct\": false"));
    }
}
