//! The benchmark's own arithmetic: percentiles, medians, self time of
//! nested spans, due-time latency accounting and the `max_rate_tps` rung
//! selection. Nothing here does I/O, so the self-tests below pin every
//! rule the reported numbers rest on.

/// A reported percentile must have at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Index of the `q` quantile (nearest rank) in a sorted sample of `n`
/// values, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond
/// it, in which case the sample cannot support that percentile.
pub fn percentile_index(n: usize, q: f64) -> Option<usize> {
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let idx = rank - 1;
    (n - 1 - idx >= MIN_BEYOND).then_some(idx)
}

/// The `q` quantile of an ascending sample, if the sample supports it.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    percentile_index(sorted.len(), q).map(|i| sorted[i])
}

/// Median of a sample (mean of the middle pair for an even count).
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

/// One recorded span: `[start_ns, end_ns)` on the benchmark's clock,
/// with its parent given as an index into the same span list.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name (the layer call it wraps).
    pub name: &'static str,
    /// Transaction (or replay batch) the span belongs to.
    pub txn: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the pass began.
    pub start_ns: u64,
    /// End, nanoseconds since the pass began.
    pub end_ns: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once, and a
/// child running past its parent counts only inside the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

/// One open-loop request: when it was due, when the generator actually
/// issued it and when its outcome was observed.
#[derive(Clone, Copy, Debug)]
pub struct Due {
    /// Scheduled send time, ns.
    pub due_ns: u64,
    /// Actual send time, ns (`>= due_ns`).
    pub issued_ns: u64,
    /// Outcome observed, ns.
    pub done_ns: u64,
    /// The transaction wrote, so it took the full two-phase path rather
    /// than the read-only one.
    pub update: bool,
}

impl Due {
    /// Latency charged to the request: from when it was *due*, so a
    /// generator or system stall is charged to every request it delayed.
    pub fn latency_us(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns) / 1_000
    }

    /// How late the generator sent the request.
    pub fn lag_us(&self) -> u64 {
        self.issued_ns.saturating_sub(self.due_ns) / 1_000
    }
}

/// What one rung of the open-loop rate ladder measured.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    /// Offered rate, transactions per second.
    pub rate: f64,
    /// p99 commit latency from due time, if the rung had enough samples.
    pub p99_us: Option<u64>,
    /// The rung's backlog outgrew what the latency limit allows.
    pub backlog_growing: bool,
}

impl Rung {
    /// The rung met the latency limit without a growing backlog.
    pub fn passes(&self, limit_us: u64) -> bool {
        !self.backlog_growing && self.p99_us.is_some_and(|p| p <= limit_us)
    }
}

/// The highest sustainable rate on an ascending ladder: the last rung
/// before the first failing one, moved toward that failing rung by where
/// the limit falls between their p99s on a log scale (latency grows
/// roughly exponentially into saturation). A failing rung with a growing
/// backlog or without a supported p99 adds nothing. `None` when the
/// first rung already fails; the top rung's rate when none fails.
pub fn max_rate(rungs: &[Rung], limit_us: u64) -> Option<f64> {
    let first_fail = rungs.iter().position(|r| !r.passes(limit_us));
    let Some(fail_at) = first_fail else {
        return rungs.last().map(|r| r.rate);
    };
    let pass = rungs[..fail_at].last()?;
    let fail = &rungs[fail_at];
    let p_pass = pass.p99_us.expect("a passing rung has a p99").max(1) as f64;
    let frac = match fail.p99_us {
        Some(p_fail) if !fail.backlog_growing && (p_fail as f64) > p_pass => {
            ((limit_us as f64).ln() - p_pass.ln()) / ((p_fail as f64).ln() - p_pass.ln())
        }
        _ => 0.0,
    };
    Some(pass.rate + (fail.rate - pass.rate) * frac.clamp(0.0, 1.0))
}

/// Searches an ascending ladder of `n` rungs for the last passing rung
/// by bisection, probing each chosen rung once; returns the probed rungs
/// in ascending rate order. The bottom and top rungs are probed first:
/// if the bottom fails or the top passes, that settles it. Otherwise the
/// result ends with an adjacent pass/fail pair, the bracket
/// [`max_rate`] interpolates in.
pub fn bisect_ladder(n: usize, limit_us: u64, mut probe: impl FnMut(usize) -> Rung) -> Vec<Rung> {
    let mut probed: Vec<(usize, Rung)> = Vec::new();
    let mut run = |i: usize, probed: &mut Vec<(usize, Rung)>| {
        let r = probe(i);
        probed.push((i, r));
        r.passes(limit_us)
    };
    if n > 0 && run(0, &mut probed) && n > 1 && !run(n - 1, &mut probed) {
        let (mut lo, mut hi) = (0, n - 1);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if run(mid, &mut probed) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    probed.sort_by_key(|(i, _)| *i);
    probed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        assert_eq!(percentile_index(1000, 0.99), Some(989));
        // One fewer sample leaves only nine beyond: unsupported.
        assert_eq!(percentile_index(999, 0.99), None);
        // Medians: 21 and 20 samples leave ten beyond, 19 only nine.
        assert_eq!(percentile_index(21, 0.5), Some(10));
        assert_eq!(percentile_index(20, 0.5), Some(9));
        assert_eq!(percentile_index(19, 0.5), None);
        assert_eq!(percentile_index(0, 0.5), None);
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.99), Some(990));
        assert_eq!(percentile(&sorted, 0.5), Some(500));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            txn: 1,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = vec![
            span("txn", None, 0, 100),
            span("issue", Some(0), 0, 30),
            span("begin", Some(1), 0, 5),
            span("work", Some(1), 5, 20),
            // Overlaps `work`: the shared 15..20 counts once.
            span("commit", Some(1), 15, 25),
            // Runs past its parent's end: only 90..100 is covered.
            span("wait", Some(0), 90, 130),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 30 - 10);
        assert_eq!(st[1], 30 - 25);
        assert_eq!(st[2], 5);
        assert_eq!(st[3], 15);
        assert_eq!(st[4], 10);
        assert_eq!(st[5], 40);
    }

    #[test]
    fn due_time_charges_a_stall_to_every_delayed_request() {
        // Requests due every ms; the generator stalls until 10 ms, sends
        // all ten at once and each completes 100 us after it is sent.
        let ms = 1_000_000;
        let reqs: Vec<Due> = (0..10)
            .map(|k| Due {
                due_ns: k * ms,
                issued_ns: 10 * ms,
                done_ns: 10 * ms + 100_000,
                update: true,
            })
            .collect();
        let lat: Vec<u64> = reqs.iter().map(Due::latency_us).collect();
        assert_eq!(
            lat[0], 10_100,
            "the first request waited through the whole stall"
        );
        assert_eq!(lat[9], 1_100);
        let lag: Vec<u64> = reqs.iter().map(Due::lag_us).collect();
        assert_eq!(lag[0], 10_000);
        assert_eq!(lag[9], 1_000);
        // Timing from send would have reported 100 us for all of them.
        assert!(reqs
            .iter()
            .all(|r| (r.done_ns - r.issued_ns) / 1_000 == 100));
    }

    fn rung(rate: f64, p99: Option<u64>, growing: bool) -> Rung {
        Rung {
            rate,
            p99_us: p99,
            backlog_growing: growing,
        }
    }

    #[test]
    fn max_rate_picks_the_last_passing_rung_and_interpolates() {
        let limit = 1_000;
        // Log-midway between 100 us and 10 ms is 1 ms: halfway in rate.
        let ladder = [
            rung(1_000.0, Some(50), false),
            rung(2_000.0, Some(100), false),
            rung(3_000.0, Some(10_000), false),
            rung(4_000.0, Some(200), false),
        ];
        let r = max_rate(&ladder, limit).unwrap();
        assert!((r - 2_500.0).abs() < 1e-6, "{r}");
        // A growing backlog fails the rung and adds nothing beyond the
        // last passing rate, even with a low p99.
        let ladder = [
            rung(1_000.0, Some(50), false),
            rung(2_000.0, Some(80), true),
        ];
        assert_eq!(max_rate(&ladder, limit), Some(1_000.0));
        // A failing rung without a supported p99 adds nothing either.
        let ladder = [rung(1_000.0, Some(50), false), rung(2_000.0, None, false)];
        assert_eq!(max_rate(&ladder, limit), Some(1_000.0));
        // Everything passes: the top rung.
        let ladder = [
            rung(1_000.0, Some(50), false),
            rung(2_000.0, Some(60), false),
        ];
        assert_eq!(max_rate(&ladder, limit), Some(2_000.0));
        // The first rung fails: no sustainable rate on this ladder.
        let ladder = [rung(1_000.0, Some(5_000), false)];
        assert_eq!(max_rate(&ladder, limit), None);
    }

    #[test]
    fn bisection_brackets_the_knee_with_adjacent_rungs() {
        // Rungs of 1000 * (i + 1) txn/s; p99 passes up to 7000 txn/s.
        let knee = |i: usize| {
            let rate = 1_000.0 * (i + 1) as f64;
            rung(
                rate,
                Some(if rate <= 7_000.0 { 500 } else { 50_000 }),
                false,
            )
        };
        let mut probes = 0;
        let rungs = bisect_ladder(20, 1_000, |i| {
            probes += 1;
            knee(i)
        });
        assert!(probes <= 2 + 5, "bisection probed {probes} rungs");
        let rates: Vec<f64> = rungs.iter().map(|r| r.rate).collect();
        assert!(
            rates.windows(2).all(|w| w[0] < w[1]),
            "ascending: {rates:?}"
        );
        assert!(
            rates.contains(&7_000.0) && rates.contains(&8_000.0),
            "{rates:?}"
        );
        let r = max_rate(&rungs, 1_000).unwrap();
        assert!((7_000.0..8_000.0).contains(&r), "{r}");
        // A bottom rung that fails ends the search at once.
        assert_eq!(
            bisect_ladder(20, 1_000, |_| rung(1.0, Some(9_999), false)).len(),
            1
        );
        // A top rung that passes too.
        assert_eq!(bisect_ladder(20, 1_000, |i| knee(i.min(3))).len(), 2);
    }
}
