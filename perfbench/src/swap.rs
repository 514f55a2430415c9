//! `swap_travel`: a two-node `Testbed` experiment joined by a shaped
//! link. Node `a` writes fresh disk data every cycle; node `b` runs a
//! timer loop. Each cycle snapshots, runs on, travels back to the
//! snapshot, then swaps the experiment out and lazily back in. History
//! grows every cycle, so later snapshots and travels cost more.

use emulab::{ExperimentSpec, SnapshotId, Testbed};
use guestos::prog::FileId;
use guestos::Tid;
use sim::SimDuration;
use workloads::{FileWriter, UsleepLoop};

use crate::calib::{HostClock, Span};
use crate::report::{RunResult, Schedule, Timings};
use crate::stats::{median, Summary};

const EXP: &str = "st";
/// Cycles per iteration.
const CYCLES: u64 = 4;
/// Fresh data node `a` writes per cycle.
const WRITE_BYTES: u64 = 32 << 20;
/// Simulated time for a cycle's writes to land.
const WRITE_TIME: SimDuration = SimDuration::from_secs(15);
/// Simulated time run between a snapshot and the travel back to it.
const RUN_ON: SimDuration = SimDuration::from_secs(5);
/// Simulated time the experiment stays swapped out.
const SWAPPED: SimDuration = SimDuration::from_secs(5);
/// Simulated time run after a swap-in, over which the timer must advance.
const AFTER_SWAP_IN: SimDuration = SimDuration::from_secs(5);

/// Host milliseconds of each public call, one entry per call.
#[derive(Default)]
struct CallTimes {
    snapshot: Vec<f64>,
    travel: Vec<f64>,
    swap_out: Vec<f64>,
    swap_in: Vec<f64>,
    run: Vec<f64>,
}

/// The simulated outcome of one iteration; identical across same-seed
/// iterations, traced or not.
#[derive(Clone, Debug, Default, PartialEq)]
struct Outcome {
    events: u64,
    snapshot_logical_bytes: Vec<u64>,
    snapshot_new_bytes: Vec<u64>,
    progress_after_travel: Vec<usize>,
    swap_out_sim_ns: Vec<u64>,
    swap_in_sim_ns: Vec<u64>,
    swap_delta_bytes: Vec<u64>,
    swap_memory_bytes: Vec<u64>,
    eliminated_blocks: u64,
    dirty_resends: u64,
    dedup_ratio: f64,
    hash_cache_hits: u64,
    hash_cache_misses: u64,
    timer_samples: usize,
    /// Per coordinated capture (snapshots, travels and swap-outs all
    /// suspend through the coordinator), due → barrier, ns.
    capture_ns: Vec<u64>,
    epochs_attempted: u64,
    epochs_committed: u64,
    retries: u64,
    /// Median guest downtime per freeze (VmHost telemetry), ns.
    downtime_p50_ns: u64,
}

struct Iteration {
    setup: Span,
    run: Span,
    calls: CallTimes,
    outcome: Outcome,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// The timer loop's `(guest time, iteration length)` samples on node `b`.
fn timer_samples(tb: &Testbed, timer: Tid) -> Vec<(u64, u64)> {
    tb.kernel(EXP, "b", |k| {
        k.prog(timer)
            .expect("timer loop is alive")
            .as_any()
            .downcast_ref::<UsleepLoop>()
            .expect("timer loop type")
            .samples
            .clone()
    })
}

/// Whether a timer history read right after `travel_to` is the history
/// at the snapshot's capture instant. Both the snapshot and the travel
/// resume the guest for a few simulated milliseconds before returning,
/// so each read may extend the captured history by the one iteration in
/// flight at the capture (whose timing the two continuations need not
/// share); everything before it must match exactly, and the capture
/// came after the `before_call` iterations read before the snapshot.
fn restored_to_snapshot(
    before_call: usize,
    after_snapshot: &[(u64, u64)],
    restored: &[(u64, u64)],
) -> bool {
    let common = restored
        .iter()
        .zip(after_snapshot)
        .take_while(|(x, y)| x == y)
        .count();
    common >= before_call && restored.len() <= common + 1 && after_snapshot.len() <= common + 1
}

/// The timed phase's clock: each public call is one step.
struct Steps<'a> {
    clock: &'a mut HostClock,
    span: Span,
}

impl Steps<'_> {
    /// Runs one call as a step and records its host ms in `into`.
    fn timed<R>(&mut self, into: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
        let (r, wall_s) = self.clock.time(&mut self.span, f);
        into.push(wall_s * 1e3);
        r
    }
}

/// Set-up: a testbed, the two-node experiment swapped in, and the timer
/// loop started on node `b`.
fn setup(seed: u64) -> (Testbed, Tid) {
    let mut tb = Testbed::new(seed, 4);
    let spec = ExperimentSpec::new(EXP).node("a").node("b").link(
        "a",
        "b",
        100_000_000,
        SimDuration::from_millis(2),
        0.0,
    );
    tb.swap_in(spec).expect("the two-node spec swaps in");
    let timer = tb.spawn(EXP, "b", Box::new(UsleepLoop::new(10_000_000, usize::MAX)));
    tb.run_for(SimDuration::from_secs(1));
    (tb, timer)
}

fn iterate(seed: u64, clock: &mut HostClock) -> Iteration {
    let mut setup_span = Span::default();
    let ((mut tb, timer), _) = clock.time(&mut setup_span, || setup(seed));

    let mut steps = Steps {
        clock,
        span: Span::default(),
    };
    let mut calls = CallTimes::default();
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut out = Outcome::default();
    for cycle in 0..CYCLES {
        tb.spawn(
            EXP,
            "a",
            Box::new(FileWriter::new(FileId(100 + cycle), WRITE_BYTES)),
        );
        steps.timed(&mut calls.run, || tb.run_for(WRITE_TIME));

        attempted += 1;
        // The capture instant lies inside the call, so the timer's
        // progress there is at least its progress before the call.
        let before = timer_samples(&tb, timer).len();
        let snap: SnapshotId = steps.timed(&mut calls.snapshot, || {
            tb.snapshot(EXP, &format!("cycle{cycle}"))
        });
        let after_snapshot = timer_samples(&tb, timer);
        let s = tb.experiment(EXP).tt.get(snap);
        out.snapshot_logical_bytes.push(s.logical_bytes);
        out.snapshot_new_bytes.push(s.new_physical_bytes);
        steps.timed(&mut calls.run, || tb.run_for(RUN_ON));

        attempted += 1;
        match steps.timed(&mut calls.travel, || tb.try_travel_to(EXP, snap)) {
            Ok(()) => {
                let restored = timer_samples(&tb, timer);
                out.progress_after_travel.push(restored.len());
                if !restored_to_snapshot(before, &after_snapshot, &restored) {
                    problems.push(format!(
                        "cycle {cycle}: timer restored to {} iterations, not its progress at \
                         the snapshot (at least {before}, history as read after the snapshot: {})",
                        restored.len(),
                        after_snapshot.len()
                    ));
                }
            }
            Err(e) => {
                failed += 1;
                problems.push(format!("cycle {cycle}: travel_to failed: {e}"));
            }
        }

        attempted += 1;
        let before_swap = timer_samples(&tb, timer);
        let rep = steps.timed(&mut calls.swap_out, || tb.swap_out_stateful(EXP));
        out.swap_out_sim_ns.push(rep.total.as_nanos());
        out.swap_delta_bytes.push(rep.delta_bytes);
        out.swap_memory_bytes.push(rep.memory_bytes);
        out.eliminated_blocks += rep.eliminated_blocks;
        out.dirty_resends += rep.dirty_resends;
        steps.timed(&mut calls.run, || tb.run_for(SWAPPED));

        attempted += 1;
        let rep = steps.timed(&mut calls.swap_in, || tb.swap_in_stateful(EXP, true));
        out.swap_in_sim_ns.push(rep.total.as_nanos());
        if let Some(w) = rep.warning {
            failed += 1;
            problems.push(format!("cycle {cycle}: swap-in warning {w:?}"));
        }
        steps.timed(&mut calls.run, || tb.run_for(AFTER_SWAP_IN));
        let after_swap = timer_samples(&tb, timer);
        let monotone = after_swap.windows(2).all(|w| w[1].0 >= w[0].0);
        if after_swap.len() <= before_swap.len()
            || !after_swap.starts_with(&before_swap)
            || !monotone
        {
            problems.push(format!(
                "cycle {cycle}: timer {} -> {} iterations across the swap, guest time monotone: {monotone}",
                before_swap.len(),
                after_swap.len()
            ));
        }
    }

    let stats = tb.experiment(EXP).tt.stats();
    let tele = tb.telemetry();
    out.events = tb.engine.events_dispatched();
    out.dedup_ratio = stats.dedup_ratio;
    out.hash_cache_hits = tele
        .counter_value(sim::telemetry::names::CKPT_HASH_CACHE_HITS)
        .unwrap_or(0);
    out.hash_cache_misses = tele
        .counter_value(sim::telemetry::names::CKPT_HASH_CACHE_MISSES)
        .unwrap_or(0);
    out.timer_samples = timer_samples(&tb, timer).len();
    let coord = tb
        .engine
        .component_ref::<checkpoint::Coordinator>(tb.coordinator())
        .expect("testbed coordinator");
    out.capture_ns = crate::capture_latencies_ns(&coord.records, tb.strategy().trigger_mode());
    out.epochs_attempted = coord.records.len() as u64;
    out.epochs_committed = coord.outcome_counts().0;
    out.retries = coord.total_retries();
    out.downtime_p50_ns = tele
        .histogram_summary(sim::telemetry::names::VMHOST_DOWNTIME_NS)
        .map_or(0.0, |h| h.p50) as u64;
    Iteration {
        setup: setup_span,
        run: steps.span,
        calls,
        outcome: out,
        attempted,
        failed,
        problems,
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut res = RunResult::default();
    let mut times = Timings::default();
    let mut sched = Schedule::new(seconds, trace);
    let mut first: Option<Outcome> = None;
    // Host ms of every untraced call, per operation.
    let mut calls = CallTimes::default();
    // Per traced iteration: last-cycle snapshot and travel, total run_for.
    let (mut last_snapshot, mut last_travel, mut run_ms) = (Vec::new(), Vec::new(), Vec::new());
    while let Some(traced) = sched.next_iteration() {
        times.time_extra_setups(|| setup(seed));
        let it = iterate(seed, &mut times.clock);
        res.attempted += it.attempted;
        res.failed += it.failed;
        res.problems.extend(it.problems);
        res.same_outcome(&mut first, it.outcome, traced);
        times.push(traced, it.setup, it.run);
        if traced {
            last_snapshot.extend(it.calls.snapshot.last());
            last_travel.extend(it.calls.travel.last());
            run_ms.push(it.calls.run.iter().sum::<f64>());
        } else {
            calls.snapshot.extend(it.calls.snapshot);
            calls.travel.extend(it.calls.travel);
            calls.swap_out.extend(it.calls.swap_out);
            calls.swap_in.extend(it.calls.swap_in);
        }
    }
    let o = first.expect("the schedule runs at least one iteration");
    times.report(&mut res);
    let ms = |ns: &[u64]| ns.iter().map(|&v| v as f64 / 1e6).collect::<Vec<_>>();
    res.e2e(
        "capture_sim_ms_p50",
        median(&ms(&o.capture_ns)).expect("captures ran"),
        "ms",
    );

    let ops = [
        (
            "snapshot",
            &calls.snapshot,
            "snapshot_ms_p50",
            "snapshot_ms_tail",
        ),
        (
            "travel_to",
            &calls.travel,
            "travel_ms_p50",
            "travel_ms_tail",
        ),
        (
            "swap_out_stateful",
            &calls.swap_out,
            "swap_out_ms_p50",
            "swap_out_ms_tail",
        ),
        (
            "swap_in_stateful",
            &calls.swap_in,
            "swap_in_ms_p50",
            "swap_in_ms_tail",
        ),
    ];
    let mut tail_pct = 100.0;
    for (op, samples, p50, tail) in ops {
        let s = Summary::of(samples).expect("every cycle calls every operation");
        res.notes.push(format!("{op} host {}", s.describe("ms")));
        res.layer(p50, s.p50, "ms");
        let (pct, value) = s.tail.unwrap_or((100.0, s.max));
        res.layer(tail, value, "ms");
        tail_pct = pct;
    }
    res.layer("op_calls", calls.snapshot.len() as f64, "count");
    res.layer("tail_pct", tail_pct, "pct");
    let secs = |ns: &[u64]| ns.iter().map(|&v| v as f64 / 1e9).collect::<Vec<_>>();
    res.layer(
        "swap_out_sim_s",
        median(&secs(&o.swap_out_sim_ns)).expect("swap-outs ran"),
        "s",
    );
    res.layer(
        "swap_in_sim_s",
        median(&secs(&o.swap_in_sim_ns)).expect("swap-ins ran"),
        "s",
    );
    res.layer("downtime_sim_ms_p50", o.downtime_p50_ns as f64 / 1e6, "ms");
    res.layer("sim.events", o.events as f64, "count");
    res.layer(
        "checkpoint.epochs_attempted",
        o.epochs_attempted as f64,
        "count",
    );
    res.layer(
        "checkpoint.epochs_committed",
        o.epochs_committed as f64,
        "count",
    );
    res.layer("checkpoint.retries", o.retries as f64, "count");

    let mb = |b: &[u64]| b.iter().map(|&v| v as f64 / 1e6).collect::<Vec<_>>();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let logical_mb = mb(&o.snapshot_logical_bytes);
    // Logical MB captured per host second of `snapshot`, over the run.
    let snapshot_s = calls.snapshot.iter().sum::<f64>() / 1e3 / times.untraced_runs() as f64;
    let lookups = o.hash_cache_hits + o.hash_cache_misses;
    res.layer("ckptstore.snapshot_logical_mb", mean(&logical_mb), "MB");
    res.layer(
        "ckptstore.snapshot_new_mb",
        mean(&mb(&o.snapshot_new_bytes)),
        "MB",
    );
    res.layer(
        "ckptstore.capture_mb_per_s",
        logical_mb.iter().sum::<f64>() / snapshot_s,
        "MB/s",
    );
    res.layer("ckptstore.dedup_ratio", o.dedup_ratio, "ratio");
    res.layer(
        "ckptstore.hash_cache_hit_ratio",
        o.hash_cache_hits as f64 / lookups.max(1) as f64,
        "frac",
    );
    res.layer(
        "cowstore.swap_delta_mb",
        mean(&mb(&o.swap_delta_bytes)),
        "MB",
    );
    res.layer(
        "cowstore.eliminated_blocks",
        o.eliminated_blocks as f64,
        "count",
    );
    res.layer("cowstore.dirty_resends", o.dirty_resends as f64, "count");
    res.layer("vmm.swap_memory_mb", mean(&mb(&o.swap_memory_bytes)), "MB");
    if let (Some(snap), Some(travel), Some(run)) = (
        median(&last_snapshot),
        median(&last_travel),
        median(&run_ms),
    ) {
        res.layer("emulab.snapshot_ms_max", snap, "ms");
        res.layer("emulab.travel_ms_max", travel, "ms");
        res.layer("emulab.run_ms", run, "ms");
    }
    res
}

#[cfg(test)]
mod tests {
    use super::restored_to_snapshot;

    #[test]
    fn travel_progress_check() {
        let snap = [(10, 10), (20, 10), (30, 10)];
        // Exact restore, and a restore whose in-flight iteration ended
        // at a different guest time.
        assert!(restored_to_snapshot(2, &snap, &snap));
        assert!(restored_to_snapshot(
            2,
            &snap,
            &[(10, 10), (20, 10), (31, 11)]
        ));
        assert!(restored_to_snapshot(2, &snap, &[(10, 10), (20, 10)]));
        // Lost progress from before the snapshot call.
        assert!(!restored_to_snapshot(3, &snap, &[(10, 10), (20, 10)]));
        // Diverged history, or progress beyond the capture.
        assert!(!restored_to_snapshot(
            1,
            &snap,
            &[(10, 10), (21, 11), (31, 10)]
        ));
        assert!(!restored_to_snapshot(
            2,
            &snap,
            &[(10, 10), (20, 10), (30, 10), (40, 10), (50, 10)]
        ));
    }
}
