//! Percentiles from raw samples, and the named metrics a run reports.

use std::fmt::Write as _;

/// Nearest-rank quantile of raw samples (`q` in `(0, 1]`); sorts in place.
/// `None` when there are no samples.
pub fn quantile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    Some(samples[rank - 1])
}

/// Median of floats (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Raw samples behind a percentile or mean, where there are any.
    pub samples: Option<usize>,
}

/// The metrics of one run, in report order.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric and returns it, so a sample count can be set.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) -> &mut Metric {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
        self.0.last_mut().expect("just pushed")
    }

    /// Pushes the `q`-quantile of `samples` (in ns) divided by `div`, with
    /// the sample count beside it. An empty set reports 0 with count 0.
    pub fn push_quantile(
        &mut self,
        name: impl Into<String>,
        samples: &mut [u64],
        q: f64,
        div: f64,
        unit: &'static str,
    ) {
        let value = quantile(samples, q).map_or(0.0, |v| v as f64 / div);
        self.push(name, value, unit).samples = Some(samples.len());
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": u}, ...}`, plus each metric's
    /// `"samples"` count when `with_samples` is set.
    pub fn to_json(&self, with_samples: bool) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
                m.name,
                json_num(m.value),
                m.unit
            );
            if let (true, Some(n)) = (with_samples, m.samples) {
                let _ = write!(out, ", \"samples\": {n}");
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// A finite JSON number (non-finite values cannot be printed as JSON).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let _serial = crate::serial();
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50));
        assert_eq!(quantile(&mut v, 0.99), Some(99));
        assert_eq!(quantile(&mut v, 1.0), Some(100));
        assert_eq!(quantile(&mut [], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
