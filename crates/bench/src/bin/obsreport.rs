//! OBSREPORT — per-epoch critical-path attribution over the causal trace
//! (ours; the observability layer's committed artifact).
//!
//! TAB-TIMELINE pins the raw trace ring byte-for-byte; this report walks
//! the same ring through [`sim::telemetry::critpath`] and answers the
//! operator's question: *where did each epoch's wall time go?* Every
//! round's notify→close span is partitioned into four contiguous
//! segments (notify fan-out, capture wait, barrier hold, resume release)
//! that sum to the wall time exactly, plus informational attributions
//! (slowest capturing host, store quorum-commit lag for held rounds).
//!
//! The scenario is a same-seed two-node experiment: a periodic-checkpoint
//! window (non-held rounds: barrier_hold == 0) followed by one stateful
//! swap cycle (a held suspend round whose barrier-hold segment covers the
//! swap-out state transfer, with a `flow.store_commit` step from the
//! file-server put). The run executes twice; the CSV must be
//! byte-identical.
//!
//! Artifacts:
//! - `results/tab_critpath.csv` — one row per analyzed epoch round,
//!   committed and CI-diffed;
//! - `BENCH_obs.json` (repo root) — labeled aggregate entries
//!   (segment-share percentages, held-round counts, CSV fingerprint)
//!   against the `tcd-bench-obs-v1` schema.
//!
//! Modes:
//! - default: run, write CSV, append one labeled JSON entry;
//! - `--smoke`: run + assertions + CSV, no JSON write (CI);
//! - `--check`: validate the committed JSON against the schema and exit;
//! - `--label <name>`: label for the appended entry (default "current").

use checkpoint::Strategy;
use emulab::{ExperimentSpec, Testbed};
use sim::telemetry::critpath::{self, EpochPath};
use sim::SimDuration;
use std::fmt::Write as _;
use tcd_bench::json::{parse_json, Json};
use tcd_bench::{banner, write_csv};
use workloads::{IperfReceiver, IperfSender};

/// Repo-root JSON artifact (path anchored to the crate, not the CWD).
const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
const SCHEMA: &str = "tcd-bench-obs-v1";

const SEED: u64 = 15_001;

fn run_scenario() -> Vec<EpochPath> {
    let mut tb = Testbed::with_strategy(SEED, 8, Strategy::Transparent);
    tb.swap_in(
        ExperimentSpec::new("obs").node("a").node("b").link(
            "a",
            "b",
            1_000_000_000,
            SimDuration::from_micros(100),
            0.0,
        ),
    )
    .expect("swap-in");
    tb.run_for(SimDuration::from_secs(20));
    let b_addr = tb.node_addr("obs", "b");
    tb.spawn("obs", "b", Box::new(IperfReceiver::new(5001)));
    tb.spawn("obs", "a", Box::new(IperfSender::new(b_addr, 5001)));
    tb.run_for(SimDuration::from_secs(2));
    tb.start_periodic_checkpoints(SimDuration::from_secs(5));
    tb.run_for(SimDuration::from_secs(16));
    tb.stop_periodic_checkpoints();
    tb.run_for(SimDuration::from_secs(2));
    // One stateful swap cycle: the suspend round is held while the state
    // image lands on the file server, so its path shows a non-zero
    // barrier_hold and a store-commit attribution.
    tb.swap_out_stateful("obs");
    let rep = tb.swap_in_stateful("obs", false);
    assert!(rep.warning.is_none(), "healthy swap cycle");
    tb.run_for(SimDuration::from_secs(2));

    critpath::analyze(&tb.telemetry().trace_events())
}

fn paths_csv(paths: &[EpochPath]) -> String {
    let mut csv = String::from(
        "group,epoch,begin_ns,end_ns,wall_ns,notify_fanout_ns,capture_wait_ns,\
         barrier_hold_ns,resume_release_ns,committed,participants,slowest_host,\
         slowest_capture_ns,store_commit_ns\n",
    );
    for p in paths {
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            p.group,
            p.epoch,
            p.begin_ns,
            p.end_ns,
            p.wall_ns(),
            p.notify_fanout_ns,
            p.capture_wait_ns,
            p.barrier_hold_ns,
            p.resume_release_ns,
            p.committed,
            p.participants,
            p.slowest_host,
            p.slowest_capture_ns,
            p.store_commit_ns
        );
    }
    csv
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

/// Required numeric fields per entry — the schema `--check` enforces.
const ENTRY_FIELDS: [&str; 8] = [
    "seed",
    "rounds",
    "committed_rounds",
    "held_rounds",
    "notify_fanout_pct",
    "capture_wait_pct",
    "barrier_hold_pct",
    "resume_release_pct",
];

fn check_schema(doc: &Json) -> Result<usize, String> {
    match doc.get("schema") {
        Some(Json::Str(s)) if s == SCHEMA => {}
        _ => return Err(format!("top-level 'schema' must be \"{SCHEMA}\"")),
    }
    let entries = match doc.get("entries") {
        Some(Json::Arr(items)) => items,
        _ => return Err("top-level 'entries' must be an array".into()),
    };
    if entries.is_empty() {
        return Err("'entries' must not be empty".into());
    }
    for (i, entry) in entries.iter().enumerate() {
        let fail = |msg: String| format!("entry {i}: {msg}");
        match entry.get("label") {
            Some(Json::Str(s)) if !s.is_empty() => {}
            _ => return Err(fail("missing non-empty 'label'".into())),
        }
        for f in ENTRY_FIELDS {
            entry
                .get(f)
                .and_then(Json::as_num)
                .ok_or_else(|| fail(format!("missing numeric '{f}'")))?;
        }
        let shares: f64 = [
            "notify_fanout_pct",
            "capture_wait_pct",
            "barrier_hold_pct",
            "resume_release_pct",
        ]
        .iter()
        .filter_map(|f| entry.get(f).and_then(Json::as_num))
        .sum();
        if !(99.0..=101.0).contains(&shares) {
            return Err(fail(format!(
                "segment shares must sum to ~100%, got {shares:.2}"
            )));
        }
        match entry.get("csv_fnv64") {
            Some(Json::Str(s)) if s.len() == 16 => {}
            _ => return Err(fail("missing 16-hex 'csv_fnv64'".into())),
        }
    }
    Ok(entries.len())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let label = args
        .iter()
        .position(|a| a == "--label")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "current".to_string());

    if check {
        let text =
            std::fs::read_to_string(OUT_PATH).unwrap_or_else(|e| panic!("read {OUT_PATH}: {e}"));
        let doc = parse_json(&text).unwrap_or_else(|e| panic!("{e}"));
        match check_schema(&doc) {
            Ok(n) => println!("BENCH_obs.json: schema ok, {n} entries"),
            Err(e) => panic!("BENCH_obs.json schema violation: {e}"),
        }
        return;
    }

    banner("OBSREPORT", "per-epoch critical-path attribution over the causal trace");
    eprintln!("[obsreport] run 1...");
    let paths = run_scenario();
    eprintln!("[obsreport] run 2 (same seed)...");
    let paths2 = run_scenario();
    let csv = paths_csv(&paths);
    assert_eq!(
        csv,
        paths_csv(&paths2),
        "same-seed critical-path CSVs must be byte-identical"
    );

    assert!(!paths.is_empty(), "scenario must produce analyzed rounds");
    let committed = paths.iter().filter(|p| p.committed).count();
    let held = paths.iter().filter(|p| p.barrier_hold_ns > 0).count();
    let wall: u64 = paths.iter().map(|p| p.wall_ns()).sum();
    let seg = |f: fn(&EpochPath) -> u64| -> f64 {
        let s: u64 = paths.iter().map(f).sum();
        (s as f64 / wall as f64 * 10_000.0).round() / 100.0
    };
    let notify_pct = seg(|p| p.notify_fanout_ns);
    let capture_pct = seg(|p| p.capture_wait_ns);
    let hold_pct = seg(|p| p.barrier_hold_ns);
    let resume_pct = seg(|p| p.resume_release_ns);

    println!(
        "  {:<5} {:>5} {:>12} {:>14} {:>14} {:>14} {:>14}  {:<9}",
        "group", "epoch", "wall_ms", "notify_us", "capture_ms", "hold_ms", "resume_us", "outcome"
    );
    for p in &paths {
        println!(
            "  {:<5} {:>5} {:>12.3} {:>14.1} {:>14.3} {:>14.3} {:>14.1}  {:<9}",
            p.group,
            p.epoch,
            p.wall_ns() as f64 / 1e6,
            p.notify_fanout_ns as f64 / 1e3,
            p.capture_wait_ns as f64 / 1e6,
            p.barrier_hold_ns as f64 / 1e6,
            p.resume_release_ns as f64 / 1e3,
            if p.committed { "committed" } else { "aborted" }
        );
    }
    println!(
        "\n  {} rounds ({committed} committed, {held} held); aggregate shares: \
         notify {notify_pct:.2}%, capture {capture_pct:.2}%, hold {hold_pct:.2}%, \
         resume {resume_pct:.2}%",
        paths.len()
    );

    for p in &paths {
        assert_eq!(
            p.segments_sum_ns(),
            p.wall_ns(),
            "group {} epoch {}: segments must partition the wall time",
            p.group,
            p.epoch
        );
    }
    assert!(committed > 0, "scenario must commit rounds");
    assert!(held > 0, "the swap cycle must contribute a held round");
    assert!(
        paths.iter().any(|p| p.store_commit_ns > 0),
        "the held round must carry a store-commit attribution"
    );

    let csv_path = write_csv("tab_critpath.csv", &csv);
    println!("  critical paths: {}", csv_path.display());

    if smoke {
        println!("\n  smoke mode: paths exercised, JSON not written");
        return;
    }

    let entry = Json::Obj(vec![
        ("label".into(), Json::Str(label.clone())),
        ("seed".into(), num(SEED as f64)),
        ("rounds".into(), num(paths.len() as f64)),
        ("committed_rounds".into(), num(committed as f64)),
        ("held_rounds".into(), num(held as f64)),
        ("notify_fanout_pct".into(), num(notify_pct)),
        ("capture_wait_pct".into(), num(capture_pct)),
        ("barrier_hold_pct".into(), num(hold_pct)),
        ("resume_release_pct".into(), num(resume_pct)),
        ("csv_fnv64".into(), Json::Str(format!("{:016x}", sim::fnv1a(csv.as_bytes())))),
    ]);

    let mut doc = match std::fs::read_to_string(OUT_PATH) {
        Ok(text) => parse_json(&text).unwrap_or_else(|e| panic!("existing {OUT_PATH} invalid: {e}")),
        Err(_) => Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("entries".into(), Json::Arr(Vec::new())),
        ]),
    };
    if let Json::Obj(fields) = &mut doc {
        if let Some((_, Json::Arr(entries))) = fields.iter_mut().find(|(k, _)| k == "entries") {
            entries.push(entry);
        } else {
            panic!("existing {OUT_PATH} has no 'entries' array");
        }
    } else {
        panic!("existing {OUT_PATH} is not an object");
    }
    check_schema(&doc).expect("generated entry must satisfy the schema");
    std::fs::write(OUT_PATH, doc.to_string_pretty()).expect("write BENCH_obs.json");
    println!("  appended entry '{label}' to BENCH_obs.json");
}
