//! The repository benchmark: three closed-loop workloads over the
//! checkpointing stack, measured end to end and, in a separate traced
//! pass, layer by layer.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload iperf_ckpt --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Each run repeats its workload's set-up and timed phase until
//! `--seconds` have passed and reports host times at a reference host
//! speed (see `calib`), as medians and quartiles over the run's
//! iterations. Output is one line per metric, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: every end-to-end metric, or with `--trace 1`
//! every per-layer metric (zero where the workload does not exercise
//! that layer). Bad arguments exit with status 2 and print no result.

mod calib;
mod iperf;
mod report;
mod scale;
mod shim;
mod stats;
mod swap;

use std::process::ExitCode;

use report::{Metric, RunResult};

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["iperf_ckpt", "swap_travel", "scale_star"];

/// End-to-end metrics `(name, unit)`: every workload reports all of them.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_ref_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("capture_sim_ms_p50", "ms"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced pass.
const PER_LAYER: [(&str, &str); 57] = [
    ("trace.overhead_frac", "frac"),
    ("sim.events", "count"),
    ("sim.sched_ns_per_event", "ns"),
    ("vmm.host.events", "count"),
    ("vmm.host.ns_per_event", "ns"),
    ("vmm.host.busy_share", "frac"),
    ("checkpoint.delaynode.events", "count"),
    ("checkpoint.delaynode.ns_per_event", "ns"),
    ("checkpoint.delaynode.busy_share", "frac"),
    ("hwsim.link.events", "count"),
    ("hwsim.link.ns_per_event", "ns"),
    ("hwsim.link.busy_share", "frac"),
    ("hwsim.lan.events", "count"),
    ("checkpoint.coordinator.events", "count"),
    ("checkpoint.coordinator.busy_ms", "ms"),
    ("guestos.tcp.retransmissions", "count"),
    ("guestos.tcp.dup_acks", "count"),
    ("guestos.tcp.window_shrinks", "count"),
    ("checkpoint.epochs_attempted", "count"),
    ("checkpoint.epochs_committed", "count"),
    ("checkpoint.retries", "count"),
    ("goodput_mbps", "Mbit/s"),
    ("hold_sim_ms_p50", "ms"),
    ("downtime_sim_ms_p50", "ms"),
    ("snapshot_ms_p50", "ms"),
    ("snapshot_ms_tail", "ms"),
    ("travel_ms_p50", "ms"),
    ("travel_ms_tail", "ms"),
    ("swap_out_ms_p50", "ms"),
    ("swap_out_ms_tail", "ms"),
    ("swap_in_ms_p50", "ms"),
    ("swap_in_ms_tail", "ms"),
    ("op_calls", "count"),
    ("tail_pct", "pct"),
    ("swap_out_sim_s", "s"),
    ("swap_in_sim_s", "s"),
    ("emulab.snapshot_ms_max", "ms"),
    ("emulab.travel_ms_max", "ms"),
    ("emulab.run_ms", "ms"),
    ("ckptstore.snapshot_logical_mb", "MB"),
    ("ckptstore.snapshot_new_mb", "MB"),
    ("ckptstore.capture_mb_per_s", "MB/s"),
    ("ckptstore.dedup_ratio", "ratio"),
    ("ckptstore.hash_cache_hit_ratio", "frac"),
    ("cowstore.swap_delta_mb", "MB"),
    ("cowstore.eliminated_blocks", "count"),
    ("cowstore.dirty_resends", "count"),
    ("vmm.swap_memory_mb", "MB"),
    ("shard.windows", "count"),
    ("shard.busy_ms_max", "ms"),
    ("shard.busy_ms_sum", "ms"),
    ("shard.critpath_ms", "ms"),
    ("shard.barrier_wait_ms", "ms"),
    ("shard.busy_imbalance", "ratio"),
    ("checkpoint.scale.epochs_committed", "count"),
    ("checkpoint.scale.mb_captured", "MB"),
    ("failed_frac", "frac"),
];

/// Simulated time from the instant each epoch's capture was due to its
/// barrier completing: how long a coordinated capture takes in the
/// model. A scheduled trigger publishes "checkpoint at now + lead", so
/// the lead, a constant of the strategy, is not part of the capture.
pub fn capture_latencies_ns(
    records: &[checkpoint::EpochRecord],
    mode: checkpoint::TriggerMode,
) -> Vec<u64> {
    let lead = match mode {
        checkpoint::TriggerMode::Scheduled { lead } => lead,
        checkpoint::TriggerMode::EventDriven => sim::SimDuration::ZERO,
    };
    records
        .iter()
        .filter_map(|r| {
            r.barrier_done
                .map(|b| b.saturating_duration_since(r.published + lead).as_nanos())
        })
        .collect()
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                let known = WORKLOADS.iter().find(|&&k| k == w);
                workload = Some(*known.ok_or_else(|| format!("unknown workload {w}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, not {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Orders `measured` as `declared`. Metrics a workload did not measure
/// are zero when `zero_fill` (per-layer) and a bug otherwise.
fn assemble(
    declared: &[(&'static str, &'static str)],
    measured: &[Metric],
    zero_fill: bool,
) -> Vec<Metric> {
    for m in measured {
        assert!(
            declared.contains(&(m.name, m.unit)),
            "metric {} ({}) is not declared",
            m.name,
            m.unit
        );
    }
    declared
        .iter()
        .map(
            |&(name, unit)| match measured.iter().find(|m| m.name == name) {
                Some(m) => *m,
                None if zero_fill => Metric {
                    name,
                    value: 0.0,
                    unit,
                },
                None => panic!("workload did not report end-to-end metric {name}"),
            },
        )
        .collect()
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut res: RunResult = match args.workload {
        "iperf_ckpt" => iperf::run(args.seed, args.seconds, args.trace),
        "swap_travel" => swap::run(args.seed, args.seconds, args.trace),
        _ => scale::run(args.seed, args.seconds, args.trace),
    };
    let failed_frac = stats::failed_frac(res.failed, res.attempted);
    res.e2e("ok_frac", 1.0 - failed_frac, "frac");
    res.layer("failed_frac", failed_frac, "frac");

    let w = args.workload;
    for n in &res.notes {
        println!("{w}: {n}");
    }
    for p in &res.problems {
        println!("{w}: CHECK FAILED: {p}");
    }
    let e2e = assemble(&END_TO_END, &res.end_to_end, false);
    let layers = assemble(&PER_LAYER, &res.per_layer, true);
    for m in &e2e {
        println!("{w}: {} = {} {}", m.name, m.value, m.unit);
    }
    // Layer metrics that need no shim (counts, model outputs, call
    // latencies) are printed on every run; the JSON carries the per-layer
    // set only with `--trace 1`.
    for m in &res.per_layer {
        println!("{w}: {} = {} {}", m.name, m.value, m.unit);
    }
    let correct = res.problems.is_empty() && res.attempted > 0;
    let metrics = if args.trace { &layers } else { &e2e };
    println!(
        "{}",
        json_line(correct, res.attempted.max(1), res.failed, metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn argument_parsing() {
        let a = args("--workload scale_star --seed 7 --seconds 1.5 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("scale_star", 7, 1.5, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1").is_err());
        assert!(args("--workload scale_star --seconds 1").is_err());
        assert!(args("--workload scale_star --seed 1 --seconds -1").is_err());
        assert!(args("--workload scale_star --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload scale_star --seed 1 --seconds").is_err());
    }

    #[test]
    fn assembly_orders_and_zero_fills_layers() {
        let declared = [("a", "s"), ("b", "count")];
        let got = assemble(
            &declared,
            &[Metric {
                name: "b",
                value: 3.0,
                unit: "count",
            }],
            true,
        );
        assert_eq!(
            got.iter().map(|m| (m.name, m.value)).collect::<Vec<_>>(),
            [("a", 0.0), ("b", 3.0)]
        );
    }

    #[test]
    #[should_panic(expected = "did not report")]
    fn missing_end_to_end_metric_is_a_bug() {
        assemble(&[("a", "s")], &[], false);
    }

    #[test]
    fn capture_latency_excludes_the_scheduled_lead() {
        use checkpoint::{EpochRecord, GroupId, TriggerMode};
        use sim::{SimDuration, SimTime};
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        let record = |published, barrier_done: Option<u64>| EpochRecord {
            epoch: 1,
            group: GroupId(0),
            published: at(published),
            acked: None,
            barrier_done: barrier_done.map(at),
            resumed: None,
            captured_bytes: 0,
            outcome: None,
            retries: 0,
            excluded: 0,
        };
        let records = [record(1_000, Some(1_226)), record(2_000, None)];
        let scheduled = TriggerMode::Scheduled {
            lead: SimDuration::from_millis(200),
        };
        assert_eq!(capture_latencies_ns(&records, scheduled), [26_000_000]);
        assert_eq!(
            capture_latencies_ns(&records, TriggerMode::EventDriven),
            [226_000_000]
        );
    }

    #[test]
    fn json_result_line() {
        let m = [Metric {
            name: "setup_s",
            value: 0.5,
            unit: "s",
        }];
        assert_eq!(
            json_line(true, 4, 0, &m),
            r#"{"correct": true, "attempted": 4, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// workloads and metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| {
            let start = doc
                .find(&format!("\"{key}\""))
                .unwrap_or_else(|| panic!("no {key}"));
            let end = doc[start..].find(']').expect("section closes") + start;
            &doc[start..end]
        };
        let names = |text: &str| -> Vec<String> {
            text.match_indices("\"name\": \"")
                .map(|(i, pat)| {
                    let rest = &text[i + pat.len()..];
                    rest[..rest.find('"').expect("name closes")].to_string()
                })
                .collect()
        };
        assert_eq!(names(section("workloads")), WORKLOADS);
        let e2e = section("end_to_end");
        assert_eq!(names(e2e), END_TO_END.map(|m| m.0));
        for (name, unit) in END_TO_END {
            assert!(
                e2e.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        let layers = section("per_layer");
        assert_eq!(names(layers), PER_LAYER.map(|m| m.0));
        for (name, unit) in PER_LAYER {
            assert!(
                layers.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
    }
}
