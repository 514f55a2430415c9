//! `iperf_ckpt`: the two-node iperf-under-periodic-checkpoints lab
//! (hostA — delay node — hostB, plus the coordinator on the control
//! LAN). NTP settles, then iperf runs with a coordinated checkpoint
//! every five simulated seconds.
//!
//! Untraced iterations run the repository's reference lab,
//! `tcd_bench::lab::build_lab` with the default `LabConfig`. The traced
//! pass assembles the same lab here from the crates' public
//! constructors, so it can register every component inside a timing
//! shim; its simulated outcome must equal the reference lab's.

use std::rc::Rc;
use std::sync::Arc;

use checkpoint::{CheckpointAgent, Coordinator, DelayNodeHost, OutPort};
use cowstore::{BranchingStore, CowMode, GoldenImageBuilder, StoreLayout};
use dummynet::PipeConfig;
use guestos::{Kernel, KernelConfig};
use hwsim::{ControlLan, Endpoint, IfaceId, Link, NodeAddr, Pc3000};
use sim::{Component, ComponentId, Engine, SimDuration};
use tcd_bench::lab::{build_lab, Lab, LabConfig};
use vmm::{ExpPort, VmHost, VmHostConfig, VmmTuning};
use workloads::{IperfReceiver, IperfSender};

use crate::calib::{HostClock, Span};
use crate::report::{RunResult, Schedule, Timings, RUN_PERCENTILE};
use crate::shim::{LayerClock, Timed};
use crate::stats::{median, nearest_rank, Summary};

/// NTP settle before the experiment starts (part of set-up).
const SETTLE: SimDuration = SimDuration::from_secs(20);
/// iperf warm-up before the first checkpoint is scheduled.
const WARMUP: SimDuration = SimDuration::from_secs(2);
/// Checkpoint cadence.
const PERIOD: SimDuration = SimDuration::from_secs(5);
/// Simulated time iperf runs under periodic checkpoints.
const CHECKPOINTED: SimDuration = SimDuration::from_secs(15);
/// Drain after the periodic checkpoints stop: every epoch resolves.
const DRAIN: SimDuration = SimDuration::from_secs(2);
/// Simulated time per timed step: about 60 ms of host time, each step
/// followed by one calibration-kernel call.
const STEP: SimDuration = SimDuration::from_millis(500);

/// Per-layer handler clocks of a traced lab.
#[derive(Default)]
struct Clocks {
    lan: Rc<LayerClock>,
    coordinator: Rc<LayerClock>,
    host: Rc<LayerClock>,
    delaynode: Rc<LayerClock>,
    link: Rc<LayerClock>,
}

impl Clocks {
    fn all(&self) -> [&LayerClock; 5] {
        [
            &self.lan,
            &self.coordinator,
            &self.host,
            &self.delaynode,
            &self.link,
        ]
    }
}

/// A lab after set-up, with what its timed phase has measured so far.
struct Run {
    lab: Lab,
    /// Events dispatched by the end of set-up.
    events_after_setup: u64,
    /// iperf bytes delivered while the periodic checkpoints ran.
    delivered_checkpointed: u64,
}

/// Registers `c` inside a timing shim charged to the clock `pick` selects.
fn add(
    e: &mut Engine,
    clocks: &Clocks,
    pick: fn(&Clocks) -> &Rc<LayerClock>,
    c: Box<dyn Component>,
) -> ComponentId {
    e.add_component(Timed::wrap(c, pick(clocks)))
}

/// Builds and boots `build_lab(LabConfig { seed, ..Default::default() })`
/// with every component inside a timing shim: the same constructors,
/// topology, shaping, clock offsets and coordinator wiring.
fn build_traced(seed: u64, clocks: &Clocks) -> Lab {
    let cfg = LabConfig {
        seed,
        ..LabConfig::default()
    };
    let strategy = cfg.strategy;
    let mut e = Engine::new(cfg.seed);
    let profile = Pc3000::default();
    let lan = add(
        &mut e,
        clocks,
        |k| &k.lan,
        Box::new(ControlLan::new(
            profile.ctrl_lan_bps,
            profile.ctrl_lan_latency,
            profile.ctrl_lan_jitter,
        )),
    );
    let ops = NodeAddr(1000);
    let coord = add(
        &mut e,
        clocks,
        |k| &k.coordinator,
        Box::new(
            Coordinator::builder(ops, lan)
                .mode(strategy.trigger_mode())
                .build(),
        ),
    );
    let mk_host = |e: &mut Engine, node: NodeAddr, offset_ns: i64, drift_ppm: f64| {
        let golden = Arc::new(GoldenImageBuilder::new("fc4", 100_000, 4096, 7).build());
        let layout = StoreLayout::for_image(&golden);
        let store = BranchingStore::new(golden, CowMode::Branch, layout);
        let mut kcfg = KernelConfig::pc3000_guest(node);
        kcfg.disk_blocks = 100_000;
        let agent =
            CheckpointAgent::new(ops).with_processing_jitter(strategy.processing_jitter_mean());
        let host = VmHost::new(
            VmHostConfig {
                node,
                profile: Pc3000::default(),
                tuning: VmmTuning::default(),
                lan,
                ntp_server: ops,
                services: ops,
                clock_offset_ns: offset_ns,
                clock_drift_ppm: drift_ppm,
                auto_resume: false,
                conceal_downtime: strategy.conceals_downtime(),
            },
            store,
            Kernel::new(kcfg),
            Some(Box::new(agent)),
        );
        add(e, clocks, |k| &k.host, Box::new(host))
    };
    let (a_addr, b_addr, dn_addr) = (NodeAddr(1), NodeAddr(2), NodeAddr(3));
    let (offset_a, offset_b) = cfg.offsets_ns;
    let host_a = mk_host(&mut e, a_addr, offset_a, 40.0);
    let host_b = mk_host(&mut e, b_addr, offset_b, -25.0);
    let dn = add(
        &mut e,
        clocks,
        |k| &k.delaynode,
        Box::new(DelayNodeHost::new(dn_addr, lan, ops, 1_000_000, 15.0)),
    );
    let mk_link = |e: &mut Engine, host: ComponentId, dn_iface: u8| {
        add(
            e,
            clocks,
            |k| &k.link,
            Box::new(Link::new(
                Endpoint {
                    component: host,
                    iface: IfaceId::EXPERIMENT,
                },
                Endpoint {
                    component: dn,
                    iface: IfaceId(dn_iface),
                },
                1_000_000_000,
                SimDuration::from_micros(5),
                0.0,
            )),
        )
    };
    let link_a = mk_link(&mut e, host_a, 1);
    let link_b = mk_link(&mut e, host_b, 2);
    let shape = PipeConfig {
        bandwidth_bps: Some(1_000_000_000),
        delay: SimDuration::from_micros(100),
        plr: 0.0,
        queue_slots: 512,
    };
    e.with_component::<DelayNodeHost, _>(dn, |d, _| {
        d.add_path(
            IfaceId(1),
            shape,
            OutPort {
                link: link_b,
                end: 1,
            },
        );
        d.add_path(
            IfaceId(2),
            shape,
            OutPort {
                link: link_a,
                end: 1,
            },
        );
    });
    e.with_component::<VmHost, _>(host_a, |h, _| {
        h.add_exp_route(
            b_addr,
            ExpPort::LinkEnd {
                link: link_a,
                end: 0,
            },
        );
    });
    e.with_component::<VmHost, _>(host_b, |h, _| {
        h.add_exp_route(
            a_addr,
            ExpPort::LinkEnd {
                link: link_b,
                end: 0,
            },
        );
    });
    e.with_component::<ControlLan, _>(lan, |l, _| {
        l.attach(
            ops,
            Endpoint {
                component: coord,
                iface: IfaceId::CONTROL,
            },
        );
        l.attach(
            a_addr,
            Endpoint {
                component: host_a,
                iface: IfaceId::CONTROL,
            },
        );
        l.attach(
            b_addr,
            Endpoint {
                component: host_b,
                iface: IfaceId::CONTROL,
            },
        );
        l.attach(
            dn_addr,
            Endpoint {
                component: dn,
                iface: IfaceId::CONTROL,
            },
        );
    });
    e.with_component::<Coordinator, _>(coord, |c, _| {
        for addr in [a_addr, b_addr, dn_addr] {
            c.subscribe(addr);
        }
    });
    e.with_component::<VmHost, _>(host_a, |h, ctx| h.start(ctx));
    e.with_component::<VmHost, _>(host_b, |h, ctx| h.start(ctx));
    e.with_component::<DelayNodeHost, _>(dn, |d, ctx| d.start(ctx));
    Lab {
        engine: e,
        coordinator: coord,
        host_a,
        host_b,
        delay_node: dn,
        addr_b: b_addr,
    }
}

/// The simulated outcome of one iteration. Every field is a model
/// output, so two iterations with the same seed — traced or not — must
/// agree on all of them.
#[derive(Clone, Debug, PartialEq)]
struct Outcome {
    events: u64,
    /// Events dispatched by the timed phase alone.
    timed_events: u64,
    retransmissions: u64,
    dup_acks: u64,
    window_shrinks: u64,
    /// iperf payload bytes delivered while checkpoints ran.
    bytes_checkpointed: u64,
    epochs_attempted: u64,
    epochs_committed: u64,
    retries: u64,
    /// Per epoch that reached its barrier, due → barrier, ns.
    capture_ns: Vec<u64>,
    /// Per resumed epoch, barrier → resume hold, ns.
    hold_ns: Vec<u64>,
    /// Median guest downtime per freeze (VmHost telemetry), ns.
    downtime_p50_ns: u64,
}

/// Builds the lab — the reference one, or its shimmed copy when traced —
/// and lets NTP settle: the set-up phase. Layer clocks restart
/// afterwards, so they cover the timed phase alone.
fn setup(seed: u64, clocks: Option<&Clocks>) -> Run {
    let mut lab = match clocks {
        Some(k) => build_traced(seed, k),
        None => build_lab(LabConfig {
            seed,
            ..LabConfig::default()
        }),
    };
    lab.engine.run_for(SETTLE);
    if let Some(k) = clocks {
        k.all().iter().for_each(|c| c.reset());
    }
    Run {
        events_after_setup: lab.engine.events_dispatched(),
        delivered_checkpointed: 0,
        lab,
    }
}

fn delivered(lab: &Lab) -> u64 {
    lab.engine
        .component_ref::<VmHost>(lab.host_b)
        .expect("host b")
        .kernel()
        .net_totals()
        .bytes_delivered
}

/// Runs the engine for `d` in [`STEP`]s, timing each. Running to an
/// instant fires exactly the events up to it, so the steps run what one
/// `run_for(d)` would.
fn run_timed(lab: &mut Lab, d: SimDuration, clock: &mut HostClock, span: &mut Span) {
    let end = lab.engine.now() + d;
    while lab.engine.now() < end {
        let t = (lab.engine.now() + STEP).min(end);
        clock.time(span, || lab.engine.run_until(t));
    }
}

/// The timed phase: iperf under periodic checkpoints, then a drain.
fn timed_phase(run: &mut Run, clock: &mut HostClock) -> Span {
    let mut span = Span::default();
    let lab = &mut run.lab;
    let (a, b, b_addr, coord) = (lab.host_a, lab.host_b, lab.addr_b, lab.coordinator);
    lab.engine.with_component::<VmHost, _>(b, |h, _| {
        h.kernel_mut().spawn(Box::new(IperfReceiver::new(5001)));
    });
    lab.engine.with_component::<VmHost, _>(a, |h, _| {
        h.kernel_mut()
            .spawn(Box::new(IperfSender::new(b_addr, 5001)));
    });
    run_timed(lab, WARMUP, clock, &mut span);
    let before = delivered(lab);
    lab.engine
        .with_component::<Coordinator, _>(coord, |c, ctx| c.start_periodic(ctx, PERIOD));
    run_timed(lab, CHECKPOINTED, clock, &mut span);
    lab.engine
        .with_component::<Coordinator, _>(coord, |c, _| c.stop_periodic());
    run.delivered_checkpointed = delivered(lab) - before;
    run_timed(lab, DRAIN, clock, &mut span);
    span
}

fn outcome(run: &Run) -> Outcome {
    let lab = &run.lab;
    let net = |id| {
        lab.engine
            .component_ref::<VmHost>(id)
            .expect("host")
            .kernel()
            .net_totals()
    };
    let (ta, tb) = (net(lab.host_a), net(lab.host_b));
    let c = lab
        .engine
        .component_ref::<Coordinator>(lab.coordinator)
        .expect("coordinator");
    let downtime = lab
        .engine
        .telemetry()
        .histogram_summary(sim::telemetry::names::VMHOST_DOWNTIME_NS)
        .map_or(0.0, |h| h.p50);
    Outcome {
        events: lab.engine.events_dispatched(),
        timed_events: lab.engine.events_dispatched() - run.events_after_setup,
        retransmissions: ta.retransmissions + tb.retransmissions,
        dup_acks: ta.dup_acks + tb.dup_acks,
        window_shrinks: ta.window_shrinks + tb.window_shrinks,
        bytes_checkpointed: run.delivered_checkpointed,
        epochs_attempted: c.records.len() as u64,
        epochs_committed: c.outcome_counts().0,
        retries: c.total_retries(),
        capture_ns: crate::capture_latencies_ns(
            &c.records,
            LabConfig::default().strategy.trigger_mode(),
        ),
        hold_ns: c
            .records
            .iter()
            .filter_map(|r| r.barrier_hold().map(|d| d.as_nanos()))
            .collect(),
        downtime_p50_ns: downtime as u64,
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut res = RunResult::default();
    let mut times = Timings::default();
    let mut sched = Schedule::new(seconds, trace);
    let mut first: Option<Outcome> = None;
    // (clocks, timed-phase wall s, shim ns per event outside its spans)
    // of every traced iteration.
    let mut traced: Vec<(Clocks, f64, f64)> = Vec::new();
    let mut iterations = 0u64;
    while let Some(is_traced) = sched.next_iteration() {
        times.time_extra_setups(|| setup(seed, None));
        let clocks = is_traced.then(Clocks::default);
        let mut setup_span = Span::default();
        let (mut run, _) = times
            .clock
            .time(&mut setup_span, || setup(seed, clocks.as_ref()));
        let span = timed_phase(&mut run, &mut times.clock);
        times.push(is_traced, setup_span, span);
        if let Some(k) = clocks {
            traced.push((k, span.wall_s, crate::shim::ns_outside_span()));
        }
        res.same_outcome(&mut first, outcome(&run), is_traced);
        iterations += 1;
    }
    let o = first.expect("the schedule runs at least one iteration");
    res.attempted = o.epochs_attempted * iterations;
    res.failed = (o.epochs_attempted - o.epochs_committed) * iterations;
    res.check(o.retransmissions == 0, || {
        format!("{} retransmissions", o.retransmissions)
    });
    res.check(o.dup_acks == 0, || format!("{} duplicate ACKs", o.dup_acks));
    res.check(o.window_shrinks == 0, || {
        format!("{} window shrinks", o.window_shrinks)
    });
    res.check(o.epochs_attempted >= 2, || {
        format!("only {} epochs ran", o.epochs_attempted)
    });
    res.check(o.epochs_committed == o.epochs_attempted, || {
        format!(
            "{} of {} epochs committed",
            o.epochs_committed, o.epochs_attempted
        )
    });
    res.check(o.bytes_checkpointed > 0, || {
        "iperf delivered nothing".into()
    });

    let ms = |ns: &[u64]| ns.iter().map(|&v| v as f64 / 1e6).collect::<Vec<_>>();
    let capture = Summary::of(&ms(&o.capture_ns)).expect("epochs reached their barrier");
    let hold = median(&ms(&o.hold_ns)).expect("epochs resumed");
    let goodput = o.bytes_checkpointed as f64 * 8.0 / 1e6 / CHECKPOINTED.as_secs_f64();
    res.notes.push(format!(
        "epoch capture due->barrier (sim) {}",
        capture.describe("ms")
    ));
    times.report(&mut res);
    res.e2e("capture_sim_ms_p50", capture.p50, "ms");
    res.layer("goodput_mbps", goodput, "Mbit/s");
    res.layer("hold_sim_ms_p50", hold, "ms");
    res.layer("downtime_sim_ms_p50", o.downtime_p50_ns as f64 / 1e6, "ms");
    res.layer("sim.events", o.timed_events as f64, "count");
    res.layer(
        "guestos.tcp.retransmissions",
        o.retransmissions as f64,
        "count",
    );
    res.layer("guestos.tcp.dup_acks", o.dup_acks as f64, "count");
    res.layer(
        "guestos.tcp.window_shrinks",
        o.window_shrinks as f64,
        "count",
    );
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

    // Layer times from the traced iteration at the percentile of wall
    // time that run_ref_s uses.
    traced.sort_by(|x, y| x.1.total_cmp(&y.1));
    let at = nearest_rank(traced.len(), RUN_PERCENTILE);
    if let Some((k, wall_s, outside_ns)) = at.map(|i| &traced[i]) {
        let wall_ns = wall_s * 1e9;
        let handled: u64 = k.all().iter().map(|c| c.busy_ns()).sum();
        let shimmed: u64 = k.all().iter().map(|c| c.events()).sum();
        res.check(shimmed == o.timed_events, || {
            format!(
                "shims saw {shimmed} events, the engine dispatched {}",
                o.timed_events
            )
        });
        // Scheduler time per event: traced wall outside every handler,
        // less the shims' own cost there, which is measured right after
        // the iteration and would otherwise outweigh the scheduler's. What
        // the shims add inside their spans is charged to the handlers.
        res.layer(
            "sim.sched_ns_per_event",
            ((wall_ns - handled as f64) / o.timed_events as f64 - outside_ns).max(0.0),
            "ns",
        );
        for (c, events, ns_per_event, busy_share) in [
            (
                &k.host,
                "vmm.host.events",
                "vmm.host.ns_per_event",
                "vmm.host.busy_share",
            ),
            (
                &k.delaynode,
                "checkpoint.delaynode.events",
                "checkpoint.delaynode.ns_per_event",
                "checkpoint.delaynode.busy_share",
            ),
            (
                &k.link,
                "hwsim.link.events",
                "hwsim.link.ns_per_event",
                "hwsim.link.busy_share",
            ),
        ] {
            res.layer(events, c.events() as f64, "count");
            res.layer(
                ns_per_event,
                c.busy_ns() as f64 / c.events().max(1) as f64,
                "ns",
            );
            res.layer(busy_share, c.busy_ns() as f64 / wall_ns, "frac");
        }
        res.layer("hwsim.lan.events", k.lan.events() as f64, "count");
        res.layer(
            "checkpoint.coordinator.events",
            k.coordinator.events() as f64,
            "count",
        );
        res.layer(
            "checkpoint.coordinator.busy_ms",
            k.coordinator.busy_ns() as f64 / 1e6,
            "ms",
        );
    }
    res
}
