//! Fault-injection tests for the failure-tolerant coordinator: epochs
//! under control-plane loss, stragglers, and crashes must terminate
//! (commit, abort, or degrade — never wedge), abort deterministically,
//! and leave the guests untouched when they do commit.

use std::any::Any;
use std::sync::Arc;

use checkpoint::{
    CheckpointAgent, Coordinator, DelayNodeHost, EpochOutcome, FailurePolicy, GroupId, OutPort,
    Strategy,
};
use cowstore::{BranchingStore, CowMode, GoldenImageBuilder, StoreLayout};
use dummynet::PipeConfig;
use guestos::{GuestProg, Kernel, KernelConfig, Syscall, SysRet};
use hwsim::{ControlLan, Endpoint, IfaceId, Link, NodeAddr, Pc3000};
use sim::buggify::points;
use sim::{ComponentId, Engine, SimDuration, SimTime};
use vmm::{ExpPort, VmHost, VmHostConfig, VmmTuning};

// ---------------------------------------------------------------------
// Workload programs (iperf shape).
// ---------------------------------------------------------------------

#[derive(Clone)]
struct Sender {
    dst: NodeAddr,
    port: u16,
    fd: Option<guestos::prog::SockFd>,
}

impl GuestProg for Sender {
    fn step(&mut self, ret: SysRet) -> Syscall {
        match ret {
            SysRet::Start => Syscall::Connect {
                dst: self.dst,
                port: self.port,
            },
            SysRet::Sock(fd) => {
                self.fd = Some(fd);
                Syscall::Send {
                    fd,
                    bytes: 64 * 1024,
                    msg: None,
                }
            }
            SysRet::Sent(_) => Syscall::Send {
                fd: self.fd.expect("connected"),
                bytes: 64 * 1024,
                msg: None,
            },
            other => panic!("sender: unexpected {other:?}"),
        }
    }
    fn clone_box(&self) -> Box<dyn GuestProg> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[derive(Clone)]
struct Receiver {
    port: u16,
    fd: Option<guestos::prog::SockFd>,
    listening: bool,
}

impl GuestProg for Receiver {
    fn step(&mut self, ret: SysRet) -> Syscall {
        match ret {
            SysRet::Start => Syscall::Listen { port: self.port },
            SysRet::Ok if !self.listening => {
                self.listening = true;
                Syscall::Accept { port: self.port }
            }
            SysRet::Sock(fd) => {
                self.fd = Some(fd);
                Syscall::Recv { fd, max: u64::MAX }
            }
            SysRet::Recvd { .. } => Syscall::Recv {
                fd: self.fd.expect("accepted"),
                max: u64::MAX,
            },
            other => panic!("receiver: unexpected {other:?}"),
        }
    }
    fn clone_box(&self) -> Box<dyn GuestProg> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

// ---------------------------------------------------------------------
// Rig: the coordinated-checkpoint lab plus fault knobs.
// ---------------------------------------------------------------------

struct FaultCfg {
    seed: u64,
    /// Control-LAN frame loss: the forced `lan.send_drop` probability.
    loss: Option<f64>,
    /// Host B's control interface crashes at this instant.
    crash_b_at: Option<SimTime>,
    /// Done-report stall on host B (straggler).
    stall: Option<SimDuration>,
    policy: Option<FailurePolicy>,
    /// Subscribe host A in `GroupId(1)` and host B + delay node in
    /// `GroupId(2)` instead of putting everyone in the default group.
    split_groups: bool,
}

struct Lab {
    e: Engine,
    coord: ComponentId,
    host_a: ComponentId,
    host_b: ComponentId,
    dn: ComponentId,
}

/// hostA --link-- delaynode --link-- hostB, ops LAN + coordinator, with
/// the configured loss and crash applied to the control LAN.
fn build_lab(cfg: &FaultCfg) -> Lab {
    let mut e = Engine::new(cfg.seed);
    let profile = Pc3000::default();
    let faulty = cfg.loss.is_some() || cfg.crash_b_at.is_some();

    let lan_id = e.add_component(Box::new(ControlLan::new(
        profile.ctrl_lan_bps,
        profile.ctrl_lan_latency,
        profile.ctrl_lan_jitter,
    )));
    if let Some(p) = cfg.loss {
        e.buggify().force(points::LAN_SEND_DROP, p);
    }
    if let Some(at) = cfg.crash_b_at {
        e.with_component::<ControlLan, _>(lan_id, |l, _| l.crash_at(NodeAddr(2), at));
    }

    let ops_addr = NodeAddr(1000);
    let mut coord_builder =
        Coordinator::builder(ops_addr, lan_id).mode(Strategy::Transparent.trigger_mode());
    if let Some(policy) = cfg.policy {
        coord_builder = coord_builder.policy(policy);
    }
    let coord = e.add_component(Box::new(coord_builder.build()));

    let addr_a = NodeAddr(1);
    let addr_b = NodeAddr(2);
    let addr_dn = NodeAddr(3);

    let mk_host =
        |e: &mut Engine, node: NodeAddr, off: i64, drift: f64, stall: Option<SimDuration>| {
            let golden = Arc::new(GoldenImageBuilder::new("fc4", 100_000, 4096, 7).build());
            let layout = StoreLayout::for_image(&golden);
            let store = BranchingStore::new(golden, CowMode::Branch, layout);
            let mut kcfg = KernelConfig::pc3000_guest(node);
            kcfg.disk_blocks = 100_000;
            kcfg.cache_blocks = 8192;
            let kernel = Kernel::new(kcfg);
            let mut agent = CheckpointAgent::new(ops_addr);
            if let Some(stall) = stall {
                agent = agent.with_done_stall(stall);
            }
            if faulty {
                agent = agent.with_done_resend(SimDuration::from_millis(100));
            }
            let host = VmHost::new(
                VmHostConfig {
                    node,
                    profile: Pc3000::default(),
                    tuning: VmmTuning::default(),
                    lan: lan_id,
                    ntp_server: ops_addr,
                    services: ops_addr,
                    clock_offset_ns: off,
                    clock_drift_ppm: drift,
                    auto_resume: false,
                    conceal_downtime: true,
                },
                store,
                kernel,
                Some(Box::new(agent)),
            );
            e.add_component(Box::new(host))
        };

    let host_a = mk_host(&mut e, addr_a, 2_000_000, 40.0, None);
    let host_b = mk_host(&mut e, addr_b, -3_000_000, -25.0, cfg.stall);
    let dn = e.add_component(Box::new(DelayNodeHost::new(
        addr_dn, lan_id, ops_addr, 1_000_000, 15.0,
    )));

    let link_a = e.add_component(Box::new(Link::new(
        Endpoint { component: host_a, iface: IfaceId::EXPERIMENT },
        Endpoint { component: dn, iface: IfaceId(1) },
        1_000_000_000,
        SimDuration::from_micros(5),
        0.0,
    )));
    let link_b = e.add_component(Box::new(Link::new(
        Endpoint { component: host_b, iface: IfaceId::EXPERIMENT },
        Endpoint { component: dn, iface: IfaceId(2) },
        1_000_000_000,
        SimDuration::from_micros(5),
        0.0,
    )));

    let shape = PipeConfig {
        bandwidth_bps: Some(1_000_000_000),
        delay: SimDuration::from_micros(100),
        plr: 0.0,
        queue_slots: 512,
    };
    e.with_component::<DelayNodeHost, _>(dn, |d, _| {
        if faulty {
            d.set_done_resend(Some(SimDuration::from_millis(100)));
        }
        d.add_path(IfaceId(1), shape, OutPort { link: link_b, end: 1 });
        d.add_path(IfaceId(2), shape, OutPort { link: link_a, end: 1 });
    });

    e.with_component::<VmHost, _>(host_a, |h, _| {
        h.add_exp_route(addr_b, ExpPort::LinkEnd { link: link_a, end: 0 });
    });
    e.with_component::<VmHost, _>(host_b, |h, _| {
        h.add_exp_route(addr_a, ExpPort::LinkEnd { link: link_b, end: 0 });
    });

    e.with_component::<ControlLan, _>(lan_id, |lan, _| {
        lan.attach(ops_addr, Endpoint { component: coord, iface: IfaceId::CONTROL });
        lan.attach(addr_a, Endpoint { component: host_a, iface: IfaceId::CONTROL });
        lan.attach(addr_b, Endpoint { component: host_b, iface: IfaceId::CONTROL });
        lan.attach(addr_dn, Endpoint { component: dn, iface: IfaceId::CONTROL });
    });
    e.with_component::<Coordinator, _>(coord, |c, _| {
        if cfg.split_groups {
            c.subscribe_in(addr_a, GroupId(1));
            c.subscribe_in(addr_b, GroupId(2));
            c.subscribe_in(addr_dn, GroupId(2));
        } else {
            c.subscribe(addr_a);
            c.subscribe(addr_b);
            c.subscribe(addr_dn);
        }
    });

    e.with_component::<VmHost, _>(host_a, |h, ctx| h.start(ctx));
    e.with_component::<VmHost, _>(host_b, |h, ctx| h.start(ctx));
    e.with_component::<DelayNodeHost, _>(dn, |d, ctx| d.start(ctx));

    Lab { e, coord, host_a, host_b, dn }
}

/// Warm-up, iperf, periodic checkpoints for `secs`, then a drain window so
/// every in-flight epoch reaches a terminal outcome.
fn run_iperf(cfg: &FaultCfg, secs: u64) -> Lab {
    let mut lab = build_lab(cfg);
    lab.e.run_for(SimDuration::from_secs(20));
    let (a, b) = (lab.host_a, lab.host_b);
    lab.e.with_component::<VmHost, _>(b, |h, _| {
        h.kernel_mut().trace.enable();
        h.kernel_mut().spawn(Box::new(Receiver {
            port: 5001,
            fd: None,
            listening: false,
        }));
    });
    lab.e.with_component::<VmHost, _>(a, |h, _| {
        h.kernel_mut().spawn(Box::new(Sender {
            dst: NodeAddr(2),
            port: 5001,
            fd: None,
        }));
    });
    lab.e.run_for(SimDuration::from_secs(2));
    let coord = lab.coord;
    lab.e.with_component::<Coordinator, _>(coord, |c, ctx| {
        c.start_periodic(ctx, SimDuration::from_secs(5))
    });
    lab.e.run_for(SimDuration::from_secs(secs));
    lab.e
        .with_component::<Coordinator, _>(coord, |c, _| c.stop_periodic());
    lab.e.run_for(SimDuration::from_secs(4));
    lab
}

fn unresolved(c: &Coordinator) -> usize {
    c.records.iter().filter(|r| r.outcome.is_none()).count()
}

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

/// The acceptance scenario: 10% control-plane loss plus a straggler node.
/// Every epoch terminates, the failure detector retries cover the loss,
/// and the committed epochs leave the guest TCP stream untouched.
#[test]
fn epochs_terminate_under_loss_and_straggler() {
    let cfg = FaultCfg {
        seed: 61,
        loss: Some(0.10),
        crash_b_at: None,
        stall: Some(SimDuration::from_millis(50)),
        policy: Some(FailurePolicy {
            resume_repeats: 2,
            ..FailurePolicy::default()
        }),
        split_groups: false,
    };
    let lab = run_iperf(&cfg, 25);
    let coord = lab.e.component_ref::<Coordinator>(lab.coord).unwrap();
    assert_eq!(unresolved(coord), 0, "an epoch wedged");
    let (committed, aborted, degraded) = coord.outcome_counts();
    assert!(committed >= 4, "only {committed} commits under 10% loss");
    assert_eq!((aborted, degraded), (0, 0), "loss alone must not abort");

    // Transparency of committed epochs (§7.1 under faults).
    let a = lab.e.component_ref::<VmHost>(lab.host_a).unwrap();
    let b = lab.e.component_ref::<VmHost>(lab.host_b).unwrap();
    let sender = a.kernel().net_totals();
    let receiver = b.kernel().net_totals();
    assert_eq!(sender.retransmissions, 0, "retransmissions");
    assert_eq!(sender.timeouts, 0, "RTO timeouts");
    assert_eq!(sender.dup_acks, 0, "duplicate ACKs");
    assert_eq!(
        sender.window_shrinks + receiver.window_shrinks,
        0,
        "window shrinkage"
    );
    assert!(receiver.bytes_delivered > 50 << 20, "stream made progress");
    let dn = lab.e.component_ref::<DelayNodeHost>(lab.dn).unwrap();
    assert!(
        dn.stats.checkpoints >= 4,
        "the network core checkpointed through the loss"
    );
}

/// Same seed + same loss ⇒ the same aborts, the same world: the
/// abort path is as deterministic as the commit path.
#[test]
fn abort_path_is_deterministic() {
    let observe = |seed: u64| {
        let cfg = FaultCfg {
            seed,
            loss: Some(0.05),
            crash_b_at: None,
            stall: Some(SimDuration::from_secs(3)),
            policy: Some(FailurePolicy {
                resume_repeats: 2,
                ..FailurePolicy::default()
            }),
            split_groups: false,
        };
        let lab = run_iperf(&cfg, 15);
        let coord = lab.e.component_ref::<Coordinator>(lab.coord).unwrap();
        assert_eq!(unresolved(coord), 0);
        let dn = lab.e.component_ref::<DelayNodeHost>(lab.dn).unwrap();
        assert!(dn.stats.aborted >= 1, "the delay node rolled back too");
        let b = lab.e.component_ref::<VmHost>(lab.host_b).unwrap();
        let a = lab.e.component_ref::<VmHost>(lab.host_a).unwrap();
        (
            coord.outcome_counts(),
            coord.total_retries(),
            a.kernel().state_fingerprint(),
            b.kernel().state_fingerprint(),
            format!("{:?}", b.kernel().trace.records()),
        )
    };
    let first = observe(62);
    assert!(first.0 .1 >= 1, "the over-deadline straggler must abort");
    assert_eq!(first, observe(62), "identical seeds, identical aborts");
    assert_ne!(observe(63).2, first.2, "different seeds diverge");
}

/// An epoch that dies entirely on the wire (100% loss) is recorded as
/// aborted by the coordinator, and — because draw-free drops consume no
/// randomness — the guests end up byte-identical to a run where the
/// checkpoint was never attempted.
#[test]
fn fully_lost_epoch_aborts_without_touching_guests() {
    let observe = |trigger: bool| {
        let cfg = FaultCfg {
            seed: 64,
            loss: Some(1.0),
            crash_b_at: None,
            stall: None,
            policy: None,
            split_groups: false,
        };
        let mut lab = build_lab(&cfg);
        lab.e.run_for(SimDuration::from_secs(20));
        let (a, b) = (lab.host_a, lab.host_b);
        lab.e.with_component::<VmHost, _>(b, |h, _| {
            h.kernel_mut().trace.enable();
            h.kernel_mut().spawn(Box::new(Receiver {
                port: 5001,
                fd: None,
                listening: false,
            }));
        });
        lab.e.with_component::<VmHost, _>(a, |h, _| {
            h.kernel_mut().spawn(Box::new(Sender {
                dst: NodeAddr(2),
                port: 5001,
                fd: None,
            }));
        });
        lab.e.run_for(SimDuration::from_secs(2));
        if trigger {
            let coord = lab.coord;
            lab.e
                .with_component::<Coordinator, _>(coord, |c, ctx| c.trigger(ctx));
        }
        lab.e.run_for(SimDuration::from_secs(5));
        let coord = lab.e.component_ref::<Coordinator>(lab.coord).unwrap();
        let outcomes = coord.outcome_counts();
        let ha = lab.e.component_ref::<VmHost>(lab.host_a).unwrap();
        let hb = lab.e.component_ref::<VmHost>(lab.host_b).unwrap();
        (
            outcomes,
            ha.kernel().state_fingerprint(),
            hb.kernel().state_fingerprint(),
            format!("{:?}", hb.kernel().trace.records()),
            ha.stats.checkpoints + hb.stats.checkpoints,
        )
    };
    let attempted = observe(true);
    let untouched = observe(false);
    assert_eq!(attempted.0, (0, 1, 0), "the lost epoch aborted");
    assert_eq!(untouched.0, (0, 0, 0), "no epoch ran at all");
    assert_eq!(attempted.4, 0, "no node ever checkpointed");
    assert_eq!(attempted.1, untouched.1, "kernel A diverged");
    assert_eq!(attempted.2, untouched.2, "kernel B diverged");
    assert_eq!(attempted.3, untouched.3, "packet traces diverged");
}

/// A node whose control interface dies is excluded after the deadline:
/// the epoch commits degraded, and the survivors keep checkpointing.
#[test]
fn crashed_node_degrades_epochs_and_survivors_continue() {
    let cfg = FaultCfg {
        seed: 65,
        loss: None,
        crash_b_at: Some(SimTime::from_nanos(30_000_000_000)),
        stall: None,
        policy: Some(FailurePolicy {
            epoch_deadline: SimDuration::from_millis(500),
            resume_repeats: 2,
            ..FailurePolicy::default()
        }),
        split_groups: false,
    };
    let lab = run_iperf(&cfg, 25);
    let coord = lab.e.component_ref::<Coordinator>(lab.coord).unwrap();
    assert_eq!(unresolved(coord), 0, "an epoch wedged");
    let (committed, aborted, degraded) = coord.outcome_counts();
    assert!(committed >= 1, "epochs before the crash commit");
    assert!(degraded >= 2, "epochs after the crash degrade");
    assert_eq!(aborted, 0, "a crashed (never-acked) node degrades, not aborts");
    assert!(
        coord
            .records
            .iter()
            .filter(|r| r.outcome == Some(EpochOutcome::Degraded))
            .all(|r| r.excluded == 1),
        "degraded epochs excluded exactly the crashed node"
    );
    let a = lab.e.component_ref::<VmHost>(lab.host_a).unwrap();
    let b = lab.e.component_ref::<VmHost>(lab.host_b).unwrap();
    assert!(
        a.stats.checkpoints > b.stats.checkpoints,
        "survivor kept checkpointing ({} vs {})",
        a.stats.checkpoints,
        b.stats.checkpoints
    );
}

/// Two concurrent rounds in different groups under loss + straggler:
/// group 1 (host A) is clean, group 2 (host B + delay node) carries an
/// over-deadline straggler. Each group's epochs must resolve on their own
/// — group 1 commits while group 2's concurrent round is still in flight,
/// and group 2's aborts never leak into group 1's records.
#[test]
fn concurrent_group_rounds_fail_independently() {
    let cfg = FaultCfg {
        seed: 67,
        loss: Some(0.10),
        crash_b_at: None,
        // Host B stalls its done report past the 2 s epoch deadline, so
        // every group-2 round aborts; group 1 never sees that straggler.
        stall: Some(SimDuration::from_secs(3)),
        policy: Some(FailurePolicy {
            resume_repeats: 2,
            ..FailurePolicy::default()
        }),
        split_groups: true,
    };
    let mut lab = build_lab(&cfg);
    lab.e.run_for(SimDuration::from_secs(20));
    let (a, b) = (lab.host_a, lab.host_b);
    lab.e.with_component::<VmHost, _>(b, |h, _| {
        h.kernel_mut().spawn(Box::new(Receiver {
            port: 5001,
            fd: None,
            listening: false,
        }));
    });
    lab.e.with_component::<VmHost, _>(a, |h, _| {
        h.kernel_mut().spawn(Box::new(Sender {
            dst: NodeAddr(2),
            port: 5001,
            fd: None,
        }));
    });
    lab.e.run_for(SimDuration::from_secs(2));

    // Three rounds of simultaneous triggers: both groups get a round at
    // the same instant, then 6 s for each to reach a terminal outcome.
    let coord = lab.coord;
    for _ in 0..3 {
        lab.e.with_component::<Coordinator, _>(coord, |c, ctx| {
            c.trigger_in(ctx, GroupId(1));
            c.trigger_in(ctx, GroupId(2));
        });
        lab.e.run_for(SimDuration::from_secs(6));
    }

    let c = lab.e.component_ref::<Coordinator>(lab.coord).unwrap();
    assert_eq!(unresolved(c), 0, "an epoch wedged");
    let g1: Vec<_> = c.records.iter().filter(|r| r.group == GroupId(1)).collect();
    let g2: Vec<_> = c.records.iter().filter(|r| r.group == GroupId(2)).collect();
    assert_eq!((g1.len(), g2.len()), (3, 3), "three rounds per group");

    // The clean group commits every round; the straggler group aborts
    // every round. Neither outcome contaminates the other's records.
    assert_eq!(
        c.outcome_counts_in(GroupId(1)),
        (3, 0, 0),
        "group 1 must commit despite group 2's straggler"
    );
    assert_eq!(
        c.outcome_counts_in(GroupId(2)),
        (0, 3, 0),
        "group 2's over-deadline straggler must abort every round"
    );

    // The rounds really were concurrent: each pair was published at the
    // same instant, and group 1 resumed while group 2's round was still
    // unresolved (group 2 holds until its 2 s deadline).
    for (r1, r2) in g1.iter().zip(&g2) {
        assert_eq!(r1.published, r2.published, "triggers fired together");
        let resumed = r1.resumed.expect("group 1 committed");
        assert!(
            resumed.saturating_duration_since(r1.published) < SimDuration::from_secs(2),
            "group 1 resolved before any deadline"
        );
    }
    // Degraded never appears in either group and the totals line up with
    // the per-group views.
    assert_eq!(c.outcome_counts(), (3, 3, 0));
}

/// The full loss × straggler matrix (CI `--features props`): every cell
/// terminates, and cells whose epochs all committed are transparent.
#[cfg(feature = "props")]
#[test]
fn fault_matrix_terminates_everywhere() {
    for &loss in &[0.0, 0.05, 0.10, 0.20] {
        for &stall_ms in &[0u64, 50, 3000] {
            let cfg = FaultCfg {
                seed: 66,
                loss: Some(loss),
                crash_b_at: None,
                stall: (stall_ms > 0).then(|| SimDuration::from_millis(stall_ms)),
                policy: Some(FailurePolicy {
                    resume_repeats: 2,
                    ..FailurePolicy::default()
                }),
                split_groups: false,
            };
            let lab = run_iperf(&cfg, 15);
            let coord = lab.e.component_ref::<Coordinator>(lab.coord).unwrap();
            assert_eq!(
                unresolved(coord),
                0,
                "epoch wedged at loss {loss} stall {stall_ms} ms"
            );
            let (committed, aborted, degraded) = coord.outcome_counts();
            assert!(
                committed + aborted + degraded > 0,
                "no epochs ran at loss {loss} stall {stall_ms} ms"
            );
            if stall_ms >= 3000 {
                assert!(aborted >= 1, "over-deadline straggler must abort");
            }
            if aborted == 0 && degraded == 0 {
                let a = lab.e.component_ref::<VmHost>(lab.host_a).unwrap();
                let b = lab.e.component_ref::<VmHost>(lab.host_b).unwrap();
                let s = a.kernel().net_totals();
                let r = b.kernel().net_totals();
                assert_eq!(
                    s.retransmissions + s.timeouts + s.dup_acks + s.window_shrinks + r.window_shrinks,
                    0,
                    "committed epochs disturbed the guest at loss {loss} stall {stall_ms} ms"
                );
            }
        }
    }
}
