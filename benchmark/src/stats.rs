//! Order statistics over a handful of repetitions, and span self-time.

/// The three quartile cut points of `values`, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// the numbers this benchmark prints can be checked against the driver's.
/// One value yields that value three times; none yields zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let cut = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, clamped into the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// The middle quartile.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// The quartile on the *good* side of a noisy host-time sample: the upper
/// one for a rate, the lower one for a duration. Interference from a
/// shared machine only ever makes a repetition slower, so the good-side
/// quartile is steadier than the median while still ignoring the one or
/// two luckiest repetitions that a best-of would report.
pub fn good_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    let q = quartiles(values);
    if higher_is_better {
        q[2]
    } else {
        q[0]
    }
}

/// One benchmark-side span: a call into a layer of the program.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Which call (`build`, `run`, `collect`, ...).
    pub name: &'static str,
    /// Seconds since the log was created.
    pub start: f64,
    /// Seconds since the log was created.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Traced repetition the span belongs to.
    pub rep: u32,
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end - s.start;
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(quartiles(&[]), [0.0; 3]);
    }

    #[test]
    fn good_quartile_picks_the_fast_side() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(good_quartile(&v, true), 8.25);
        assert_eq!(good_quartile(&v, false), 2.75);
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |name, start, end, parent| Span { name, start, end, parent, rep: 0 };
        let spans = [
            span("rep", 0.0, 10.0, None),
            span("run", 1.0, 7.0, Some(0)),
            span("encode", 2.0, 3.0, Some(1)),
            span("verify", 8.0, 9.5, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![10.0 - 6.0 - 1.5, 6.0 - 1.0, 1.0, 1.5]);
    }
}
