//! Order statistics, the metric record, and the result-fingerprint hash.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p < 100) of `xs`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it — a tail figure is
/// only reported when it rests on enough samples.
pub fn percentile(xs: &[f64], p: u32) -> Option<f64> {
    assert!(p > 0 && p < 100, "percentile {p} out of range");
    let n = xs.len();
    let rank = (p as usize * n).div_ceil(100).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a, 64-bit: a stable hash for result fingerprints.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in the order they were recorded.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record percentile `p` of `xs` as `name`; an error when the
    /// sample is too small to support it.
    pub fn put_pct(
        &mut self,
        name: &str,
        xs: &[f64],
        p: u32,
        unit: &'static str,
    ) -> Result<(), String> {
        let v = percentile(xs, p).ok_or_else(|| {
            format!(
                "{name}: {} samples cannot support p{p} (needs {MIN_BEYOND} beyond it)",
                xs.len()
            )
        })?;
        self.put(name, v, unit);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=56).map(f64::from).collect();
        // p80 of 56: rank 45, with 11 samples beyond it.
        assert_eq!(percentile(&xs, 80), Some(45.0));
        // p85 of 56: rank 48, only 8 beyond — refused.
        assert_eq!(percentile(&xs, 85), None);
        // p85 of 71: rank 61, exactly 10 beyond.
        let ys: Vec<f64> = (1..=71).map(f64::from).collect();
        assert_eq!(percentile(&ys, 85), Some(61.0));
        assert_eq!(percentile(&ys, 90), None);
        // The median of ten samples has only five beyond it.
        let zs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&zs, 50), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let xs: Vec<f64> = (1..=56).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), Some(28.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
