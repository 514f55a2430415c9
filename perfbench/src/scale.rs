//! `scale_star`: a 10,000-leaf star experiment, planned by
//! `emulab::ScalePlan`, lowered to the checkpoint scale lab and run
//! threaded on two shards of the sharded engine.

use checkpoint::{build_scale_lab, ScaleConfig, ScaleLab};
use emulab::{ExperimentSpec, ScalePlan};
use sim::SimDuration;

use crate::calib::{HostClock, Span};
use crate::report::{RunResult, Schedule, Timings, RUN_PERCENTILE};
use crate::stats::{barrier_wait_ns, busy_imbalance, nearest_rank};

const LEAVES: u32 = 10_000;
const SHARDS: u32 = 2;
const EPOCHS: u32 = 16;
const EPOCH_PERIOD: SimDuration = SimDuration::from_millis(200);
/// Simulated time per timed step, each followed by one
/// calibration-kernel call: one epoch period, a whole number of
/// lookahead windows, so the steps run the windows one run would.
const STEP: SimDuration = EPOCH_PERIOD;

/// The star spec, planned into relay groups of about 62 leaves.
fn plan() -> ScaleConfig {
    let spec = ExperimentSpec::star("scale", LEAVES, 100_000_000, SimDuration::from_millis(5));
    let plan = ScalePlan::from_spec(&spec, (LEAVES / 62).max(4)).expect("a star plans");
    let mut cfg = plan.to_scale_config(EPOCH_PERIOD, EPOCHS);
    cfg.gossip_period = SimDuration::from_millis(20);
    cfg
}

/// Simulated outcome; identical across same-seed iterations.
#[derive(Clone, Debug, PartialEq)]
struct Outcome {
    events: u64,
    epochs_committed: u64,
    bytes_captured: u64,
    fingerprint: u64,
    commits_ns: Vec<u64>,
    /// Median simulated round, start to commit (telemetry histogram).
    /// Rounds notify at once, so this is the capture's time from when it
    /// was due to its barrier, as `capture_sim_ms_p50` is everywhere.
    round_ms_p50: f64,
}

/// Host-side engine accounting of one traced iteration.
struct EngineClock {
    wall_ns: u64,
    busy_ns: Vec<u64>,
    critical_path_ns: u64,
    windows: u64,
}

/// Runs the lab to its horizon in [`STEP`]s, timing each.
fn run_timed(lab: &mut ScaleLab, clock: &mut HostClock) -> Span {
    let mut span = Span::default();
    let horizon = lab.horizon();
    while lab.engine.now() < horizon {
        let t = (lab.engine.now() + STEP).min(horizon);
        clock.time(&mut span, || lab.engine.run_until(t));
    }
    span
}

/// Set-up: plan the star and build the lab on its shards.
fn setup(seed: u64) -> ScaleLab {
    let mut lab = build_scale_lab(&plan(), seed, SHARDS);
    lab.engine.set_parallel(true);
    lab
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut res = RunResult::default();
    let mut times = Timings::default();
    let mut sched = Schedule::new(seconds, trace);
    let mut first: Option<Outcome> = None;
    let mut clocks = Vec::new();
    while let Some(traced) = sched.next_iteration() {
        times.time_extra_setups(|| setup(seed));
        let mut setup_span = Span::default();
        let (mut lab, _) = times.clock.time(&mut setup_span, || setup(seed));
        let span = run_timed(&mut lab, &mut times.clock);
        times.push(traced, setup_span, span);

        if let Err(e) = lab.check_invariants() {
            res.problems.push(format!("invariants: {e}"));
        }
        let o = lab.outcome();
        res.attempted += u64::from(EPOCHS);
        res.failed += u64::from(EPOCHS).saturating_sub(o.epochs_committed);
        let round_ns = lab
            .merged_telemetry()
            .histogram_summary("scale.coord.round_ns")
            .map_or(0.0, |h| h.p50);
        let outcome = Outcome {
            events: o.events,
            epochs_committed: o.epochs_committed,
            bytes_captured: o.bytes_captured,
            fingerprint: o.fingerprint_metrics,
            commits_ns: lab
                .records()
                .iter()
                .map(|r| r.committed_at.as_nanos())
                .collect(),
            round_ms_p50: round_ns / 1e6,
        };
        res.same_outcome(&mut first, outcome, traced);
        if traced {
            clocks.push(EngineClock {
                wall_ns: (span.wall_s * 1e9) as u64,
                busy_ns: lab.engine.busy_ns(),
                critical_path_ns: lab.engine.critical_path_ns(),
                windows: lab.engine.windows_run(),
            });
        }
    }
    let o = first.expect("the schedule runs at least one iteration");
    res.check(o.epochs_committed == u64::from(EPOCHS), || {
        format!("{} of {EPOCHS} epochs committed", o.epochs_committed)
    });
    res.notes.push(format!(
        "merged-telemetry fingerprint {:016x}",
        o.fingerprint
    ));
    times.report(&mut res);
    res.e2e("capture_sim_ms_p50", o.round_ms_p50, "ms");
    res.layer("sim.events", o.events as f64, "count");
    res.layer(
        "checkpoint.scale.epochs_committed",
        o.epochs_committed as f64,
        "count",
    );
    res.layer(
        "checkpoint.scale.mb_captured",
        o.bytes_captured as f64 / 1e6,
        "MB",
    );

    // Shard accounting from the traced iteration at the percentile of
    // wall time that run_ref_s uses.
    clocks.sort_by_key(|c| c.wall_ns);
    if let Some(c) = nearest_rank(clocks.len(), RUN_PERCENTILE).map(|i| &clocks[i]) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let busy_max = *c.busy_ns.iter().max().expect("the lab has shards");
        res.layer("shard.windows", c.windows as f64, "count");
        res.layer("shard.busy_ms_max", ms(busy_max), "ms");
        res.layer("shard.busy_ms_sum", ms(c.busy_ns.iter().sum()), "ms");
        res.layer("shard.critpath_ms", ms(c.critical_path_ns), "ms");
        res.layer(
            "shard.barrier_wait_ms",
            ms(barrier_wait_ns(&c.busy_ns, c.wall_ns)),
            "ms",
        );
        res.layer("shard.busy_imbalance", busy_imbalance(&c.busy_ns), "ratio");
    }
    res
}
