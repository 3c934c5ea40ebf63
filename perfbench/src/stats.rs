//! The benchmark's reporting rules: percentiles with enough samples beyond
//! them, the `max_rps` ladder, and counting failed operations.

/// A reported percentile must have at least this many samples beyond it;
/// p99 therefore needs 1000 samples.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` of `values`, refused unless at least
/// [`MIN_BEYOND`] samples lie beyond the reported rank.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, String> {
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} over {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed",
            q * 100.0
        ));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

/// What one rung of the offered-rate ladder saw.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests scheduled in the rung.
    pub scheduled: usize,
    /// Requests that completed with a 2xx status, with their latency from
    /// the scheduled send, milliseconds.
    pub ok_latencies_ms: Vec<f64>,
    /// Requests due but not yet answered, sampled evenly over the rung.
    pub backlog: Vec<usize>,
}

impl Rung {
    /// Backlog growth a rung may show from the burstiness of Poisson
    /// arrivals alone: 2% of its schedule, at least four requests.
    pub fn slack(&self) -> usize {
        (self.scheduled / 50).max(4)
    }

    /// A rung passes when at most 1% of its scheduled requests miss the
    /// latency limit (a request that failed or was never answered misses
    /// it), and the backlog did not grow: its mean over the last third of
    /// the samples exceeds the mean over the first third by no more than
    /// [`Rung::slack`] requests.
    pub fn passes(&self, limit_ms: f64) -> bool {
        if self.scheduled == 0 {
            return false;
        }
        let in_time = self
            .ok_latencies_ms
            .iter()
            .filter(|&&l| l <= limit_ms)
            .count();
        let missed = self.scheduled - in_time.min(self.scheduled);
        let p99_met = missed * 100 <= self.scheduled;
        let third = (self.backlog.len() / 3).max(1);
        let mean = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;
        let early = mean(&self.backlog[..third.min(self.backlog.len())]);
        let late = mean(&self.backlog[self.backlog.len().saturating_sub(third)..]);
        let steady = late <= early + self.slack() as f64;
        p99_met && steady
    }
}

/// The highest rung rate that passes, or `None` when none does. Every rung
/// is judged on its own: one noisy low rung does not cap the result.
pub fn max_rps(rungs: &[Rung], limit_ms: f64) -> Option<f64> {
    rungs
        .iter()
        .filter(|r| r.passes(limit_ms))
        .map(|r| r.rate)
        .max_by(f64::total_cmp)
}

/// Operations attempted and failed in a run. A failure is a non-2xx
/// status, a dropped request, or an output that differs from its oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok` is false for any kind of failure.
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts `n` arrivals the load generator never sent, each a failed
    /// operation: a stalled generator or server must not read as clean.
    pub fn note_unsent(&mut self, n: usize) {
        self.attempted += n as u64;
        self.failed += n as u64;
    }

    /// Succeeded over attempted (1.0 when nothing was attempted).
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 of 1000 leaves exactly ten samples beyond it.
        assert_eq!(percentile(&values, 0.99), Ok(990.0));
        assert!(percentile(&values[..999], 0.99).is_err());
        assert!(percentile(&values[..100], 0.99).is_err());
        assert_eq!(percentile(&values[..100], 0.5), Ok(50.0));
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut values: Vec<f64> = (1..=2000).map(f64::from).collect();
        values.reverse();
        assert_eq!(percentile(&values, 0.99), Ok(1980.0));
    }

    fn rung(rate: f64, scheduled: usize, slow: usize, backlog: (usize, usize)) -> Rung {
        // Backlog samples: the first third at `backlog.0`, the rest at `backlog.1`.
        let mut ok_latencies_ms = vec![1.0; scheduled - slow];
        ok_latencies_ms.extend(std::iter::repeat_n(100.0, slow));
        Rung {
            rate,
            scheduled,
            ok_latencies_ms,
            backlog: [backlog.0; 3].into_iter().chain([backlog.1; 7]).collect(),
        }
    }

    #[test]
    fn rung_allows_one_percent_over_the_limit() {
        assert!(rung(100.0, 1000, 10, (0, 0)).passes(10.0));
        assert!(!rung(100.0, 1000, 11, (0, 0)).passes(10.0));
    }

    #[test]
    fn unanswered_requests_miss_the_limit() {
        let mut r = rung(100.0, 1000, 0, (0, 0));
        r.ok_latencies_ms.truncate(980);
        assert!(!r.passes(10.0));
    }

    #[test]
    fn growing_backlog_fails_a_rung() {
        // 1000 scheduled: the backlog may grow by 20.
        assert!(rung(100.0, 1000, 0, (3, 23)).passes(10.0));
        assert!(!rung(100.0, 1000, 0, (3, 24)).passes(10.0));
        // Small rungs still allow four.
        assert!(rung(100.0, 100, 0, (0, 4)).passes(10.0));
        assert!(!rung(100.0, 100, 0, (0, 5)).passes(10.0));
    }

    #[test]
    fn a_passing_backlog_spike_is_not_growth() {
        let mut r = rung(100.0, 1000, 0, (0, 0));
        r.backlog[5] = 60;
        assert!(r.passes(10.0));
    }

    #[test]
    fn max_rps_is_the_highest_passing_rung() {
        let rungs = vec![
            rung(100.0, 100, 0, (0, 0)),
            rung(200.0, 200, 5, (0, 0)), // 2.5% slow: fails
            rung(300.0, 300, 0, (0, 1)),
            rung(400.0, 400, 0, (10, 40)), // backlog grows: fails
        ];
        assert_eq!(max_rps(&rungs, 10.0), Some(300.0));
        assert_eq!(max_rps(&rungs[1..2], 10.0), None);
    }

    #[test]
    fn tally_counts_mismatches_as_failures() {
        let mut t = Tally::default();
        t.note(true);
        t.note(true);
        t.note(false); // e.g. a 200 whose body differs from the oracle
        t.note(true);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.ok_ratio(), 0.75);
        assert_eq!(Tally::default().ok_ratio(), 1.0);
    }

    #[test]
    fn unsent_arrivals_count_as_failures() {
        let mut t = Tally::default();
        for _ in 0..6 {
            t.note(true);
        }
        t.note_unsent(2);
        assert_eq!((t.attempted, t.failed), (8, 2));
        assert_eq!(t.ok_ratio(), 0.75);
        t.note_unsent(0);
        assert_eq!((t.attempted, t.failed), (8, 2));
    }
}
