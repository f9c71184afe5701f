//! Order statistics and the metric-name grammar.

/// The `p`-th percentile (0–100) of `values`, interpolating linearly between the two
/// closest ranks (the common "type 7" definition).  `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method) gives them,
/// so run-to-run spreads computed here match the ones computed from the JSON results.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Arithmetic mean (`NaN` for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Per operation, the median of `value` over the rounds that repeat the same
/// operations (`rounds[r][i]` is operation `i` in round `r`).  Percentiles over
/// operations are then taken over these, so repeating a round steadies them.
pub fn per_op_medians<T>(rounds: &[Vec<T>], value: impl Fn(&T) -> f64) -> Vec<f64> {
    let ops = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..ops)
        .map(|i| {
            percentile(
                &rounds.iter().map(|r| value(&r[i])).collect::<Vec<_>>(),
                50.0,
            )
        })
        .collect()
}

/// Whether `name` is a valid metric name: 1–64 letters, digits, `_`, `.` and `-`,
/// starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 15.0);
        assert_eq!(percentile(&v, 50.0), 35.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert!((percentile(&v, 40.0) - 29.0).abs() < 1e-12);
        assert!((percentile(&v, 90.0) - 46.0).abs() < 1e-12);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&hundred, 99.0) - 99.01).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([4, 1, 3, 2, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0, 40.0]), [12.5, 25.0, 37.5]);
    }

    #[test]
    fn per_op_medians_take_each_operation_across_rounds() {
        let rounds = vec![vec![1.0, 10.0, 7.0], vec![3.0, 30.0, 7.0], vec![2.0, 20.0]];
        assert_eq!(per_op_medians(&rounds, |&v| v), [2.0, 20.0]);
        assert_eq!(
            per_op_medians(&rounds[..2], |&v| v * 2.0),
            [4.0, 40.0, 14.0]
        );
    }

    #[test]
    fn mean_of_known_values() {
        assert_eq!(mean(&[1.0, 2.0, 3.0, 6.0]), 3.0);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn metric_name_grammar() {
        for good in [
            "setup_s",
            "core.select_pivot_ms",
            "latency_ms_p99",
            "9lives",
            "a-b.c_d",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        let too_long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".dot",
            "-dash",
            "has space",
            "uni\u{e9}",
            "a/b",
            too_long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }
}
