//! Order statistics over exact samples, output fingerprints and the result
//! line the benchmark prints.

use ccglib::matrix::HostComplexMatrix;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, linearly interpolated
/// between the two nearest ranks.  Returns NaN for an empty sample, which
/// the result writer refuses to print.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Most slices [`sliced_quantile`] cuts a run into.
pub const TAIL_SLICES: usize = 10;
/// Fewest samples in a slice, so that a slice's p99 rests on its ten
/// slowest samples rather than on its maximum.
pub const MIN_SLICE_SAMPLES: usize = 1000;

/// The median over consecutive slices of `values` (in time order) of each
/// slice's `q`-quantile: up to [`TAIL_SLICES`] slices of equal count, each
/// holding at least [`MIN_SLICE_SAMPLES`] (one slice if there are fewer).
///
/// On a shared host a tail percentile of a whole run moves with how many
/// seconds of it other guests took; the median over slices ignores an
/// episode that hits fewer than half of them.  A tail regression of the
/// program that is confined to fewer than half the slices is ignored too.
pub fn sliced_quantile(values: &[f64], q: f64) -> f64 {
    let slices = (values.len() / MIN_SLICE_SAMPLES).clamp(1, TAIL_SLICES);
    let per_slice: Vec<f64> = (0..slices)
        .map(|i| {
            let range = i * values.len() / slices..(i + 1) * values.len() / slices;
            quantile(&values[range], q)
        })
        .collect();
    median(&per_slice)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Completions per second from the completion times (seconds from any
/// origin) that fall in the measured window: `(n − 1)` intervals over the
/// time from the first to the last, so the rate is not quantised to
/// whole blocks per window.
pub fn rate_per_s(times_s: &[f64]) -> f64 {
    let first = times_s.iter().copied().fold(f64::INFINITY, f64::min);
    let last = times_s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if times_s.len() < 2 || last <= first {
        return f64::NAN;
    }
    (times_s.len() - 1) as f64 / (last - first)
}

/// `(steal, total)` CPU time of the machine so far, in clock ticks.  Steal
/// is time the hypervisor ran other guests while this one was ready to run;
/// it slows every wall-clock metric without any change to the program.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// A 64-bit fingerprint of a word stream.  Two outputs are taken as
/// bit-identical when their fingerprints agree.
fn fingerprint(len_tag: u64, words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0x243f_6a88_85a3_08d3 ^ len_tag, |h, w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// Fingerprint of a complex matrix's shape and exact bit pattern.
pub fn hash_matrix(m: &HostComplexMatrix) -> u64 {
    let tag = ((m.rows() as u64) << 32) ^ m.cols() as u64;
    fingerprint(
        tag,
        m.data()
            .iter()
            .map(|c| (u64::from(c.re.to_bits()) << 32) | u64::from(c.im.to_bits())),
    )
}

/// Fingerprint of an `f64` vector's exact bit pattern.
pub fn hash_f64s(values: &[f64]) -> u64 {
    fingerprint(values.len() as u64, values.iter().map(|v| v.to_bits()))
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in report order, rendered as the `metrics` object of the
/// result line.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }

    /// The JSON object `{"name": {"value": v, "unit": "u"}, ...}`; fails
    /// on a value JSON cannot carry (NaN or infinite).
    pub fn to_json(&self) -> Result<String, String> {
        let mut fields = Vec::with_capacity(self.0.len());
        for m in &self.0 {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!("{{{}}}", fields.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.99) - 3.97).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn sliced_quantiles_take_the_median_slice() {
        // Five slices of 1,000; the second holds a stall in its last 200.
        let mut v: Vec<f64> = (0..5000).map(|i| f64::from(i % 1000)).collect();
        v[1800..2000].fill(1e6);
        assert!((sliced_quantile(&v, 0.99) - 989.01).abs() < 1e-9);
        assert_eq!(quantile(&v, 0.99), 1e6);
        // Fewer than two slices' worth: one quantile over all samples.
        let short: Vec<f64> = (0..1999).map(f64::from).collect();
        assert_eq!(sliced_quantile(&short, 0.99), quantile(&short, 0.99));
    }

    #[test]
    fn rate_counts_intervals_between_completions() {
        assert_eq!(rate_per_s(&[0.5, 0.0, 1.0]), 2.0);
        assert!(rate_per_s(&[1.0]).is_nan());
    }

    #[test]
    fn fingerprints_see_every_bit() {
        let a = HostComplexMatrix::zeros(2, 3);
        let mut b = a.clone();
        assert_eq!(hash_matrix(&a), hash_matrix(&b));
        b.set(1, 2, tcbf_types::Complex::new(0.0, -0.0));
        assert_ne!(hash_matrix(&a), hash_matrix(&b));
        assert_ne!(
            hash_matrix(&a),
            hash_matrix(&HostComplexMatrix::zeros(3, 2))
        );
        assert_ne!(hash_f64s(&[0.0]), hash_f64s(&[-0.0]));
    }

    #[test]
    fn non_finite_metrics_are_refused() {
        let mut m = Metrics::default();
        m.push("a", 1.5, "ms");
        assert_eq!(
            m.to_json().unwrap(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}"
        );
        m.push("b", f64::NAN, "ms");
        assert!(m.to_json().is_err());
    }
}
