//! Sample statistics: percentiles that refuse to extrapolate, and the
//! stage arithmetic that splits one request's time across layers.

use yask_util::stats::Summary;

/// The percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 4] = [0.99, 0.95, 0.90, 0.80];

/// How many samples must lie beyond a percentile before it is reported.
pub const BEYOND: usize = 10;

/// A sample of one quantity: [`Summary`]'s nearest-rank percentiles,
/// refused when too few samples lie beyond them.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    summary: Summary,
}

impl Sample {
    pub fn new(values: Vec<f64>) -> Sample {
        let mut summary = Summary::new();
        values.into_iter().for_each(|v| summary.record(v));
        Sample { summary }
    }

    /// The `q` percentile, or `None` when fewer than [`BEYOND`] samples
    /// lie above it: a p99 needs 1 000 samples.
    pub fn percentile(&mut self, q: f64) -> Option<f64> {
        let n = self.summary.len();
        let rank = nearest_rank(q, n)?;
        (n - rank >= BEYOND).then(|| self.summary.percentile(q * 100.0))
    }

    /// The median; `None` only for an empty sample.
    pub fn p50(&mut self) -> Option<f64> {
        (!self.summary.is_empty()).then(|| self.summary.median())
    }
}

/// Most windows [`windowed`] cuts a phase into.
const WINDOWS: usize = 5;
/// Samples a window needs before its median is taken.
const MEDIAN_WINDOW: usize = 20;

/// The highest percentile up to `q_max` that `values` support (the
/// median for `q_max` ≤ 0.5), taken per time window and reported as the
/// median across windows, so a host stall that lands in one window does
/// not move the figure. `values` are in the order the requests were due;
/// the phase is cut into as many equal windows, at most five, as still
/// support the percentile each, so a small sample is one window and the
/// plain percentile. Returns `(percentile, value)`.
pub fn windowed(values: &[f64], q_max: f64) -> Option<(f64, f64)> {
    let (q, mut per_window) = per_window(values, q_max);
    per_window.sort_by(f64::total_cmp);
    let m = per_window.len();
    let median = match m {
        0 => return None,
        _ if m % 2 == 1 => per_window[m / 2],
        _ => (per_window[m / 2 - 1] + per_window[m / 2]) / 2.0,
    };
    Some((q, median))
}

/// The percentile [`windowed`] reports and its value in each window, in
/// time order.
fn per_window(values: &[f64], q_max: f64) -> (f64, Vec<f64>) {
    let n = values.len();
    let q = if q_max <= 0.5 {
        0.5
    } else {
        tail_quantile(n, q_max)
    };
    let need = if q <= 0.5 {
        MEDIAN_WINDOW
    } else {
        // The epsilon keeps 10 / 0.1 at 100 despite rounding.
        (BEYOND as f64 / (1.0 - q) - 1e-9).ceil() as usize
    };
    let windows = (n / need).clamp(1, WINDOWS);
    let values = (0..windows)
        .filter_map(|w| {
            let mut s = Sample::new(values[w * n / windows..(w + 1) * n / windows].to_vec());
            s.percentile(q).or_else(|| s.p50())
        })
        .collect();
    (q, values)
}

/// The highest percentile of the ladder, up to `q_max`, that `n`
/// samples support; the median when none does.
pub fn tail_quantile(n: usize, q_max: f64) -> f64 {
    TAIL_LADDER
        .into_iter()
        .filter(|&q| q <= q_max)
        .find(|&q| nearest_rank(q, n).is_some_and(|rank| n - rank >= BEYOND))
        .unwrap_or(0.5)
}

/// The 1-based nearest rank of percentile `q` among `n` samples,
/// computed as [`Summary::percentile`] computes it from `q × 100`.
fn nearest_rank(q: f64, n: usize) -> Option<usize> {
    let p = q * 100.0;
    (n > 0).then(|| (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n))
}

/// One traced request's time, split at the boundaries the benchmark
/// can observe. All values are microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stages {
    /// Scheduled → sent: the wait for a free connection.
    pub wait: f64,
    /// Sent → complete minus the time inside the handler: socket, event
    /// loop, parse, dispatch and write.
    pub edge: f64,
    /// Handler time not covered by the program's top-level spans.
    pub api_self: f64,
    /// The program's top-level spans (cache lookups, scatter, why-not).
    pub spans: f64,
}

/// Raw timings of one traced request, in microseconds, from three
/// independent clocks: the generator's (`sched`, `sent`, `done`), the
/// handler wrapper's (`handler`) and the program's own trace (`total`,
/// the trace's duration, and `spans`, its top-level spans summed).
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub sched: f64,
    pub sent: f64,
    pub done: f64,
    pub handler: f64,
    pub total: f64,
    pub spans: f64,
}

/// Tolerance for nesting checks: the program rounds span durations to
/// nanoseconds and the clocks are read at slightly different points.
pub const STAGE_SLACK_US: f64 = 2.0;

impl Stages {
    /// Splits a timing into stages, which add up to the client-measured
    /// latency by construction. Fails when the intervals the three clocks
    /// measured do not nest: the spans must fit in the program's trace,
    /// the trace in the handler, the handler in the round trip, and the
    /// request must leave no earlier than it was due. A handler time
    /// matched to the wrong request, or a trace that overstates its
    /// request, shows here.
    pub fn split(t: &Timing) -> Result<Stages, String> {
        let rtt = t.done - t.sent;
        for (inner, outer, what) in [
            (t.sched, t.sent, "sent before it was due"),
            (t.spans, t.total, "top-level spans exceed the trace"),
            (t.total, t.handler, "trace exceeds the handler"),
            (t.handler, rtt, "handler exceeds the round trip"),
        ] {
            if inner > outer + STAGE_SLACK_US {
                return Err(format!("{what}: {t:?}"));
            }
        }
        Ok(Stages {
            wait: t.sent - t.sched,
            edge: rtt - t.handler,
            api_self: t.handler - t.spans,
            spans: t.spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_refuses_without_ten_samples_beyond_it() {
        let mut s = Sample::new((1..=999).map(f64::from).collect());
        assert_eq!(s.percentile(0.99), None);
        let mut s = Sample::new((1..=1000).map(f64::from).collect());
        assert_eq!(s.percentile(0.99), Some(990.0));
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(windowed(&v, 1.0), Some((0.90, 135.0)));
        assert_eq!(windowed(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), Some((0.5, 3.0)));
        assert_eq!(windowed(&[], 1.0), None);
        assert_eq!(tail_quantile(50, 1.0), 0.80);
        assert_eq!(tail_quantile(49, 1.0), 0.5);
    }

    #[test]
    fn windowed_percentiles_ignore_a_stalled_window() {
        // 500 requests of 1 ms, one window of them stalled at 9 ms.
        let mut v = vec![1.0; 500];
        v[100..200].iter_mut().for_each(|x| *x = 9.0);
        assert_eq!(windowed(&v, 0.5), Some((0.5, 1.0)));
        assert_eq!(windowed(&v, 0.9), Some((0.9, 1.0)));
        // Pooled, the stall shows in the p90.
        assert_eq!(Sample::new(v.clone()).percentile(0.9), Some(9.0));
        // Too few samples for two windows: the plain percentile.
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(windowed(&v, 0.9), Some((0.9, 135.0)));
        assert_eq!(windowed(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(Sample::new(vec![3.0, 1.0, 2.0]).p50(), Some(2.0));
        assert_eq!(Sample::new(vec![4.0, 1.0, 3.0, 2.0]).p50(), Some(2.0));
    }

    fn timing(handler: f64, total: f64, spans: f64) -> Timing {
        Timing {
            sched: 100.0,
            sent: 130.0,
            done: 530.0,
            handler,
            total,
            spans,
        }
    }

    #[test]
    fn stages_add_up_to_the_client_latency() {
        let t = timing(300.0, 290.0, 220.0);
        let s = Stages::split(&t).unwrap();
        assert_eq!(
            s,
            Stages {
                wait: 30.0,
                edge: 100.0,
                api_self: 80.0,
                spans: 220.0
            }
        );
        assert_eq!(s.wait + s.edge + s.api_self + s.spans, t.done - t.sched);
    }

    #[test]
    fn intervals_that_do_not_nest_are_rejected() {
        assert!(Stages::split(&timing(300.0, 290.0, 220.0)).is_ok());
        // Spans outside the trace, a trace outside the handler, a
        // handler outside the round trip.
        assert!(Stages::split(&timing(300.0, 200.0, 220.0)).is_err());
        assert!(Stages::split(&timing(300.0, 310.0, 220.0)).is_err());
        assert!(Stages::split(&timing(420.0, 290.0, 220.0)).is_err());
        let early = Timing {
            sent: 90.0,
            ..timing(300.0, 290.0, 220.0)
        };
        assert!(Stages::split(&early).is_err());
    }
}
