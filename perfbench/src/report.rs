//! What a workload run hands back to `main`, the loop that decides how
//! many iterations a run makes, and the host timings every workload
//! gathers the same way.

use std::time::Instant;

use crate::calib::{HostClock, Span};
use crate::stats::{median, peak_rss_mb, percentile};

/// One named measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload measured and checked in one run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Checkpoint-class operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; empty means correct.
    pub problems: Vec<String>,
    /// End-to-end metrics, from untraced iterations.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics; the layer times among them only when traced.
    pub per_layer: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Checks that an iteration's simulated outcome equals the first
    /// iteration's: same seed, so traced or not, every model output
    /// must repeat exactly.
    pub fn same_outcome<T: PartialEq>(&mut self, first: &mut Option<T>, outcome: T, traced: bool) {
        match first {
            None => *first = Some(outcome),
            Some(f) => self.check(*f == outcome, || {
                format!("simulated outcome differs from the first iteration's (traced: {traced})")
            }),
        }
    }
}

/// Untraced iterations every run makes, however short `--seconds` is.
const MIN_UNTRACED: usize = 3;

/// Closed-loop iteration schedule: iterations run back to back until the
/// run has measured for `seconds` and made [`MIN_UNTRACED`]. With
/// tracing on, iterations alternate untraced and traced, so one run
/// yields both the untraced baseline and the per-layer split.
pub struct Schedule {
    start: Instant,
    seconds: f64,
    trace: bool,
    done: usize,
}

impl Schedule {
    pub fn new(seconds: f64, trace: bool) -> Schedule {
        Schedule {
            start: Instant::now(),
            seconds,
            trace,
            done: 0,
        }
    }

    /// `Some(traced)` for the next iteration, `None` when the run is over.
    pub fn next_iteration(&mut self) -> Option<bool> {
        let per_untraced = if self.trace { 2 } else { 1 };
        let enough = self.done >= MIN_UNTRACED * per_untraced
            && self.start.elapsed().as_secs_f64() >= self.seconds;
        if enough {
            return None;
        }
        let traced = self.trace && self.done % 2 == 1;
        self.done += 1;
        Some(traced)
    }
}

/// Extra set-ups timed before each iteration, on top of the iteration's
/// own: set-up takes milliseconds, so its median needs more samples than
/// the timed phase, spread over the run like the iterations are.
const EXTRA_SETUPS: usize = 8;

/// Nearest-rank percentile of a run's untraced timed phases, at the
/// reference host speed, that `run_ref_s` reports: the lower quartile.
///
/// The host's load changes over seconds to minutes, and the calibration
/// tracks most but not all of it; load only ever slows an iteration, so
/// the fast side of a run is the steadier one. On a shared 2-vCPU host,
/// runs cut into windows of 6 to 16 iterations gave window-to-window
/// spreads of 0.05 to 0.08 for iperf_ckpt with either the lower quartile
/// or the median, and 0.06 to 0.16 (lower quartile) against 0.12 (median)
/// for scale_star.
pub const RUN_PERCENTILE: f64 = 25.0;

/// Host time of set-up and of the timed phase, per iteration, measured
/// with the [`HostClock`] so that every reported time is at the
/// reference host speed.
///
/// `run_ref_s` is the [`RUN_PERCENTILE`] of the run's untraced timed
/// phases. `setup_s` is the median over many set-ups spread across the
/// run.
///
/// `peak_rss_mb` is the process's peak resident set once the first
/// iteration is done: later iterations rebuild the same experiment, and
/// how many of them fit in a run depends on the host's speed, as does the
/// allocator fragmentation they leave.
#[derive(Default)]
pub struct Timings {
    pub clock: HostClock,
    setups: Vec<f64>,
    runs: Vec<Span>,
    traced_runs: Vec<Span>,
    peak_rss_mb: Option<f64>,
}

impl Timings {
    /// Times [`EXTRA_SETUPS`] stand-alone set-ups, dropping each result;
    /// call once per iteration.
    pub fn time_extra_setups<T>(&mut self, mut setup: impl FnMut() -> T) {
        for _ in 0..EXTRA_SETUPS {
            let mut span = Span::default();
            let (made, _) = self.clock.time(&mut span, &mut setup);
            drop(std::hint::black_box(made));
            self.setups.push(span.ref_s);
        }
    }

    pub fn push(&mut self, traced: bool, setup: Span, run: Span) {
        if self.peak_rss_mb.is_none() {
            self.peak_rss_mb = Some(peak_rss_mb().expect("procfs reports VmHWM"));
        }
        if traced {
            self.traced_runs.push(run);
        } else {
            self.setups.push(setup.ref_s);
            self.runs.push(run);
        }
    }

    pub fn untraced_runs(&self) -> usize {
        self.runs.len()
    }

    /// Adds `setup_s`, `run_ref_s`, `peak_rss_mb` and, for a traced run,
    /// `trace.overhead_frac` (traced over untraced timed phase at
    /// [`RUN_PERCENTILE`], minus 1).
    pub fn report(&self, res: &mut RunResult) {
        let at_ref = |xs: &[Span]| {
            let v: Vec<f64> = xs.iter().map(|s| s.ref_s).collect();
            percentile(&v, RUN_PERCENTILE)
        };
        let run = at_ref(&self.runs).expect("the schedule runs untraced iterations");
        res.notes.push(format!(
            "timed phase s (untraced) at reference speed: p{RUN_PERCENTILE} {run:.4} of {}",
            list(self.runs.iter().map(|s| s.ref_s))
        ));
        res.notes.push(format!(
            "timed phase s (untraced) wall: {}",
            list(self.runs.iter().map(|s| s.wall_s))
        ));
        res.notes.push(format!(
            "set-up s at reference speed: {}",
            list(self.setups.iter().copied())
        ));
        res.e2e("setup_s", median(&self.setups).expect("set-ups ran"), "s");
        res.e2e("run_ref_s", run, "s");
        res.e2e(
            "peak_rss_mb",
            self.peak_rss_mb.expect("an iteration ran"),
            "MB",
        );
        if let Some(traced) = at_ref(&self.traced_runs) {
            res.notes.push(format!(
                "timed phase s (traced) at reference speed: {}",
                list(self.traced_runs.iter().map(|s| s.ref_s))
            ));
            res.layer("trace.overhead_frac", traced / run - 1.0, "frac");
        }
    }
}

/// `xs` to four places, space-separated, for the notes.
fn list(xs: impl Iterator<Item = f64>) -> String {
    xs.map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_alternates_and_meets_minimum() {
        let mut s = Schedule::new(0.0, true);
        let seq: Vec<bool> = std::iter::from_fn(|| s.next_iteration()).collect();
        assert_eq!(seq, [false, true].repeat(MIN_UNTRACED));
        let mut s = Schedule::new(0.0, false);
        assert_eq!(
            std::iter::from_fn(|| s.next_iteration()).count(),
            MIN_UNTRACED
        );
    }

    #[test]
    fn outcome_mismatch_is_a_failed_check() {
        let mut res = RunResult::default();
        let mut first = None;
        res.same_outcome(&mut first, 7, false);
        res.same_outcome(&mut first, 7, true);
        assert!(res.problems.is_empty());
        res.same_outcome(&mut first, 8, true);
        assert_eq!(res.problems.len(), 1);
    }

    #[test]
    fn run_is_the_lower_quartile_at_reference_speed_and_setup_the_median() {
        let span = |ref_s: f64| Span {
            wall_s: 2.0 * ref_s,
            ref_s,
        };
        let mut t = Timings::default();
        for (setup, run) in [(0.1, 2.0), (0.3, 4.0), (0.2, 3.0), (0.4, 5.0), (0.5, 1.0)] {
            t.push(false, span(setup), span(run));
        }
        t.push(true, span(0.1), span(3.6));
        t.push(true, span(0.3), span(4.0));
        let mut res = RunResult::default();
        t.report(&mut res);
        let get = |v: &[Metric], n| v.iter().find(|m| m.name == n).map(|m| m.value);
        assert_eq!(get(&res.end_to_end, "setup_s"), Some(0.3));
        // Nearest rank: the 2nd of 5 sorted runs; the traced pair gives
        // its 1st of 2.
        assert_eq!(get(&res.end_to_end, "run_ref_s"), Some(2.0));
        let overhead = get(&res.per_layer, "trace.overhead_frac").expect("traced run");
        assert!((overhead - 0.8).abs() < 1e-12);
        assert!(get(&res.end_to_end, "peak_rss_mb").expect("recorded") > 0.0);
    }
}
