//! Frames, point-to-point links, and the Emulab control LAN.
//!
//! Experiment links are modeled as full-duplex wires with per-direction
//! serialization at line rate, propagation delay, and optional random loss.
//! Traffic *shaping* (the bandwidth/latency/loss an experimenter asks for)
//! is not done here: as in Emulab, it happens in interposed delay nodes
//! (the `dummynet` crate), and the raw wire stays fast and dumb.

use std::any::Any;
use std::sync::Arc;

use sim::buggify;
use sim::buggify::points as bg_points;
use sim::{transmission_time, Component, ComponentId, Ctx, Payload, SimDuration, SimTime};

/// A testbed-wide interface address (plays the role of a MAC address).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeAddr(pub u32);

impl NodeAddr {
    /// The broadcast address.
    pub const BROADCAST: NodeAddr = NodeAddr(u32::MAX);
}

/// Distinguishes the several NICs of one host (experiment vs control).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct IfaceId(pub u8);

impl IfaceId {
    /// Conventional id for a host's control-network interface.
    pub const CONTROL: IfaceId = IfaceId(0);
    /// Conventional id for a host's first experiment interface.
    pub const EXPERIMENT: IfaceId = IfaceId(1);
}

/// A layer-2 frame.
///
/// The payload is an immutable, shared, type-erased message (TCP segment,
/// control-plane RPC, …); `wire_bytes` is what the wire and shapers charge
/// for it. Frames are cheap to clone, which the delay-node checkpoint uses
/// to serialize queued packets non-destructively (paper §4.4).
#[derive(Clone)]
pub struct Frame {
    pub src: NodeAddr,
    pub dst: NodeAddr,
    pub wire_bytes: u32,
    payload: Arc<dyn Any + Send + Sync>,
}

impl Frame {
    /// Builds a frame around a typed payload.
    pub fn new<T: Any + Send + Sync>(src: NodeAddr, dst: NodeAddr, wire_bytes: u32, payload: T) -> Self {
        Frame {
            src,
            dst,
            wire_bytes,
            payload: Arc::new(payload),
        }
    }

    /// Downcasts the payload.
    pub fn payload<T: Any + Send + Sync>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Frame({:?} -> {:?}, {}B)",
            self.src, self.dst, self.wire_bytes
        )
    }
}

/// Message: hand a frame to a link for transmission.
///
/// `from_end` identifies which side of the link is sending (0 or 1).
pub struct LinkTransmit {
    pub from_end: usize,
    pub frame: Frame,
}

/// Message: a frame arrives at a component's interface.
pub struct LinkDeliver {
    pub iface: IfaceId,
    pub frame: Frame,
}

/// One endpoint of a link: the component and which of its NICs is attached.
#[derive(Clone, Copy, Debug)]
pub struct Endpoint {
    pub component: ComponentId,
    pub iface: IfaceId,
}

/// A full-duplex point-to-point wire.
///
/// Each direction serializes frames at `bw_bps` (FIFO behind the previous
/// frame), then delivers after `propagation`. `loss` drops frames i.i.d.
pub struct Link {
    ends: [Endpoint; 2],
    bw_bps: u64,
    propagation: SimDuration,
    loss: f64,
    busy_until: [SimTime; 2],
    /// Frames dropped by random loss.
    pub drops: u64,
    /// Frames delivered per direction.
    pub delivered: [u64; 2],
    /// Whether the link is administratively up.
    pub up: bool,
}

impl Link {
    /// Creates a link between two endpoints.
    pub fn new(a: Endpoint, b: Endpoint, bw_bps: u64, propagation: SimDuration, loss: f64) -> Self {
        assert!(bw_bps > 0, "zero-bandwidth link");
        assert!((0.0..=1.0).contains(&loss), "loss out of range");
        Link {
            ends: [a, b],
            bw_bps,
            propagation,
            loss,
            busy_until: [SimTime::ZERO; 2],
            drops: 0,
            delivered: [0; 2],
            up: true,
        }
    }

    /// The endpoint on side `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 1`.
    pub fn endpoint(&self, i: usize) -> Endpoint {
        self.ends[i]
    }
}

impl Component for Link {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let tx = match payload.downcast::<LinkTransmit>() {
            Ok(t) => t,
            Err(_) => panic!("Link received a non-LinkTransmit message"),
        };
        assert!(tx.from_end < 2, "bad link end");
        if !self.up {
            self.drops += 1;
            return;
        }
        let dir = tx.from_end;
        let ser = transmission_time(tx.frame.wire_bytes as u64, self.bw_bps);
        let start = self.busy_until[dir].max(ctx.now());
        let done = start + ser;
        self.busy_until[dir] = done;
        if self.loss > 0.0 && ctx.rng().chance(self.loss) {
            self.drops += 1;
            return;
        }
        let arrive = done + self.propagation;
        let dst = self.ends[1 - dir];
        self.delivered[dir] += 1;
        ctx.post_at(
            dst.component,
            arrive,
            LinkDeliver {
                iface: dst.iface,
                frame: tx.frame,
            },
        );
    }

    sim::component_boilerplate!();
}

/// The shared Emulab control LAN: a switched star joining every host and
/// the testbed servers.
///
/// Each member's uplink serializes at the port rate; the switch adds a base
/// forwarding latency plus exponential queueing jitter. This jitter is what
/// limits NTP accuracy (paper §4.3: "under perfect LAN conditions, NTP
/// provides ... error of 200 µs"), so it is modeled explicitly.
pub struct ControlLan {
    port_bps: u64,
    base_latency: SimDuration,
    jitter_mean: SimDuration,
    members: Vec<(NodeAddr, Endpoint)>,
    busy_until: Vec<SimTime>,
    /// Frames with no matching destination member.
    pub undeliverable: u64,
    /// Crash schedule: `(addr, at)` means `addr`'s control interface is
    /// dead from `at` on, until [`ControlLan::heal`] removes the entry.
    crashes: Vec<(NodeAddr, SimTime)>,
    /// Frames dropped by the `lan.send_drop` point or a crashed endpoint.
    pub fault_drops: u64,
    /// Frames delivered twice by the `lan.send_dup` point.
    pub fault_duplicates: u64,
    /// Frames delivered late by the `lan.send_delay` point.
    pub fault_delays: u64,
}

/// Message: transmit a frame onto the control LAN.
pub struct LanTransmit {
    pub frame: Frame,
}

impl ControlLan {
    /// Creates an empty LAN.
    pub fn new(port_bps: u64, base_latency: SimDuration, jitter_mean: SimDuration) -> Self {
        assert!(port_bps > 0, "zero-bandwidth LAN");
        ControlLan {
            port_bps,
            base_latency,
            jitter_mean,
            members: Vec::new(),
            busy_until: Vec::new(),
            undeliverable: 0,
            crashes: Vec::new(),
            fault_drops: 0,
            fault_duplicates: 0,
            fault_delays: 0,
        }
    }

    /// Crashes `addr`'s control interface at virtual time `at`: from
    /// then on every frame it sends or is sent is dropped (counted in
    /// `fault_drops`) and broadcasts skip it, until [`ControlLan::heal`].
    pub fn crash_at(&mut self, addr: NodeAddr, at: SimTime) {
        self.crashes.push((addr, at));
    }

    /// Ends `addr`'s crashes, scheduled or in progress: its traffic flows
    /// again from the next frame on.
    pub fn heal(&mut self, addr: NodeAddr) {
        self.crashes.retain(|&(a, _)| a != addr);
    }

    fn crashed(&self, addr: NodeAddr, now: SimTime) -> bool {
        self.crashes.iter().any(|&(a, at)| a == addr && at <= now)
    }

    /// Attaches a member with the given address.
    pub fn attach(&mut self, addr: NodeAddr, ep: Endpoint) {
        assert!(
            self.members.iter().all(|(a, _)| *a != addr),
            "duplicate LAN address {addr:?}"
        );
        self.members.push((addr, ep));
        self.busy_until.push(SimTime::ZERO);
    }

    /// Detaches a member (e.g. experiment swap-out).
    pub fn detach(&mut self, addr: NodeAddr) {
        if let Some(i) = self.members.iter().position(|(a, _)| *a == addr) {
            self.members.remove(i);
            self.busy_until.remove(i);
        }
    }

    fn member_index(&self, addr: NodeAddr) -> Option<usize> {
        self.members.iter().position(|(a, _)| *a == addr)
    }
}

impl Component for ControlLan {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let tx = match payload.downcast::<LanTransmit>() {
            Ok(t) => t,
            Err(_) => panic!("ControlLan received a non-LanTransmit message"),
        };
        let Some(src_idx) = self.member_index(tx.frame.src) else {
            self.undeliverable += 1;
            return;
        };
        // Buggified faults draw from their own per-point streams (never
        // from the LAN's jitter stream); a disarmed registry, or a point
        // forced to probability 0 or 1, draws nothing at all.
        let bg = ctx.buggify().clone();
        if buggify!(bg, bg_points::LAN_SEND_DROP) {
            self.fault_drops += 1;
            return;
        }
        let fault_dup = buggify!(bg, bg_points::LAN_SEND_DUP);
        if fault_dup {
            self.fault_duplicates += 1;
        }
        let fault_extra = if buggify!(bg, bg_points::LAN_SEND_DELAY) {
            self.fault_delays += 1;
            // Enough to blow past ack timeouts and skew NTP exchanges.
            SimDuration::from_micros(bg.magnitude(bg_points::LAN_SEND_DELAY, 50, 5_000))
        } else {
            SimDuration::ZERO
        };
        // Crashed endpoints are checked after the points, so a crash
        // schedule never shifts their streams. Faults act before the
        // LAN's own physics: a dropped frame never serializes and never
        // draws jitter, so healthy traffic's timing is untouched.
        let now = ctx.now();
        if self.crashed(tx.frame.src, now)
            || (tx.frame.dst != NodeAddr::BROADCAST && self.crashed(tx.frame.dst, now))
        {
            self.fault_drops += 1;
            return;
        }
        // Serialize on the source port.
        let ser = transmission_time(tx.frame.wire_bytes as u64, self.port_bps);
        let start = self.busy_until[src_idx].max(now);
        let done = start + ser;
        self.busy_until[src_idx] = done;

        let targets: Vec<Endpoint> = if tx.frame.dst == NodeAddr::BROADCAST {
            self.members
                .iter()
                .filter(|&&(a, _)| a != tx.frame.src && !self.crashed(a, now))
                .map(|&(_, ep)| ep)
                .collect()
        } else {
            match self.member_index(tx.frame.dst) {
                Some(i) => vec![self.members[i].1],
                None => {
                    self.undeliverable += 1;
                    return;
                }
            }
        };
        for ep in targets {
            let jitter =
                SimDuration::from_nanos(ctx.rng().exponential(self.jitter_mean.as_nanos() as f64)
                    as u64);
            let arrive = done + self.base_latency + jitter + fault_extra;
            ctx.post_at(
                ep.component,
                arrive,
                LinkDeliver {
                    iface: ep.iface,
                    frame: tx.frame.clone(),
                },
            );
            if fault_dup {
                // The duplicate trails by a switch-requeue delay; it is
                // deliberately jitter-free so duplication alone does not
                // shift the jitter stream for unrelated traffic.
                ctx.post_at(
                    ep.component,
                    arrive + SimDuration::from_micros(10),
                    LinkDeliver {
                        iface: ep.iface,
                        frame: tx.frame.clone(),
                    },
                );
            }
        }
    }

    sim::component_boilerplate!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Engine;

    /// Collects delivered frames with timestamps.
    struct Sink {
        got: Vec<(SimTime, IfaceId, Frame)>,
    }

    impl Component for Sink {
        fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
            let d = payload.downcast::<LinkDeliver>().expect("LinkDeliver");
            self.got.push((ctx.now(), d.iface, d.frame));
        }
        sim::component_boilerplate!();
    }

    fn setup_link(bw: u64, prop: SimDuration, loss: f64) -> (Engine, ComponentId, ComponentId) {
        let mut e = Engine::new(1);
        let sink = e.add_component(Box::new(Sink { got: vec![] }));
        let link = e.add_component(Box::new(Link::new(
            Endpoint { component: sink, iface: IfaceId(9) }, // end 0 (unused as dst here)
            Endpoint { component: sink, iface: IfaceId(1) }, // end 1
            bw,
            prop,
            loss,
        )));
        (e, sink, link)
    }

    fn frame(bytes: u32) -> Frame {
        Frame::new(NodeAddr(1), NodeAddr(2), bytes, ())
    }

    #[test]
    fn delivery_time_is_serialization_plus_propagation() {
        let (mut e, sink, link) = setup_link(1_000_000_000, SimDuration::from_micros(50), 0.0);
        e.post(link, SimDuration::ZERO, LinkTransmit { from_end: 0, frame: frame(1500) });
        e.run_to_completion();
        let got = &e.component_ref::<Sink>(sink).unwrap().got;
        assert_eq!(got.len(), 1);
        // 12 µs serialization + 50 µs propagation.
        assert_eq!(got[0].0.as_nanos(), 62_000);
        assert_eq!(got[0].1, IfaceId(1));
    }

    #[test]
    fn back_to_back_frames_queue_behind_each_other() {
        let (mut e, sink, link) = setup_link(1_000_000_000, SimDuration::ZERO, 0.0);
        for _ in 0..3 {
            e.post(link, SimDuration::ZERO, LinkTransmit { from_end: 0, frame: frame(1500) });
        }
        e.run_to_completion();
        let got = &e.component_ref::<Sink>(sink).unwrap().got;
        let times: Vec<u64> = got.iter().map(|g| g.0.as_nanos()).collect();
        assert_eq!(times, vec![12_000, 24_000, 36_000]);
    }

    #[test]
    fn full_duplex_directions_do_not_contend() {
        let (mut e, sink, link) = setup_link(1_000_000_000, SimDuration::ZERO, 0.0);
        e.post(link, SimDuration::ZERO, LinkTransmit { from_end: 0, frame: frame(1500) });
        e.post(link, SimDuration::ZERO, LinkTransmit { from_end: 1, frame: frame(1500) });
        e.run_to_completion();
        let got = &e.component_ref::<Sink>(sink).unwrap().got;
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0.as_nanos(), 12_000);
        assert_eq!(got[1].0.as_nanos(), 12_000, "directions are independent");
    }

    #[test]
    fn lossy_link_drops_some_frames() {
        let (mut e, sink, link) = setup_link(1_000_000_000, SimDuration::ZERO, 0.5);
        for _ in 0..200 {
            e.post(link, SimDuration::ZERO, LinkTransmit { from_end: 0, frame: frame(100) });
        }
        e.run_to_completion();
        let n = e.component_ref::<Sink>(sink).unwrap().got.len();
        assert!(n > 50 && n < 150, "got {n} of 200 at 50% loss");
        assert_eq!(e.component_ref::<Link>(link).unwrap().drops as usize, 200 - n);
    }

    #[test]
    fn downed_link_drops_everything() {
        let (mut e, sink, link) = setup_link(1_000_000_000, SimDuration::ZERO, 0.0);
        e.component_mut::<Link>(link).unwrap().up = false;
        e.post(link, SimDuration::ZERO, LinkTransmit { from_end: 0, frame: frame(100) });
        e.run_to_completion();
        assert!(e.component_ref::<Sink>(sink).unwrap().got.is_empty());
    }

    #[test]
    fn lan_unicast_and_broadcast() {
        let mut e = Engine::new(2);
        let s1 = e.add_component(Box::new(Sink { got: vec![] }));
        let s2 = e.add_component(Box::new(Sink { got: vec![] }));
        let s3 = e.add_component(Box::new(Sink { got: vec![] }));
        let mut lan = ControlLan::new(
            100_000_000,
            SimDuration::from_micros(20),
            SimDuration::from_micros(30),
        );
        lan.attach(NodeAddr(1), Endpoint { component: s1, iface: IfaceId::CONTROL });
        lan.attach(NodeAddr(2), Endpoint { component: s2, iface: IfaceId::CONTROL });
        lan.attach(NodeAddr(3), Endpoint { component: s3, iface: IfaceId::CONTROL });
        let lan = e.add_component(Box::new(lan));

        e.post(lan, SimDuration::ZERO, LanTransmit {
            frame: Frame::new(NodeAddr(1), NodeAddr(2), 100, ()),
        });
        e.post(lan, SimDuration::ZERO, LanTransmit {
            frame: Frame::new(NodeAddr(3), NodeAddr::BROADCAST, 100, ()),
        });
        e.run_to_completion();
        assert_eq!(e.component_ref::<Sink>(s1).unwrap().got.len(), 1, "s1: broadcast only");
        assert_eq!(e.component_ref::<Sink>(s2).unwrap().got.len(), 2, "s2: unicast + broadcast");
        assert_eq!(e.component_ref::<Sink>(s3).unwrap().got.len(), 0, "s3 sent the broadcast");
    }

    #[test]
    fn lan_to_unknown_address_counts_undeliverable() {
        let mut e = Engine::new(3);
        let s1 = e.add_component(Box::new(Sink { got: vec![] }));
        let mut lan = ControlLan::new(100_000_000, SimDuration::ZERO, SimDuration::from_nanos(1));
        lan.attach(NodeAddr(1), Endpoint { component: s1, iface: IfaceId::CONTROL });
        let lan = e.add_component(Box::new(lan));
        e.post(lan, SimDuration::ZERO, LanTransmit {
            frame: Frame::new(NodeAddr(1), NodeAddr(99), 100, ()),
        });
        e.run_to_completion();
        assert_eq!(e.component_ref::<ControlLan>(lan).unwrap().undeliverable, 1);
    }

    /// A LAN joining sinks at addresses 1, 2 and 3.
    fn lan_rig(seed: u64) -> (Engine, ComponentId, [ComponentId; 3]) {
        let mut e = Engine::new(seed);
        let mut lan = ControlLan::new(
            100_000_000,
            SimDuration::from_micros(20),
            SimDuration::from_micros(30),
        );
        let sinks = [1, 2, 3].map(|a| {
            let s = e.add_component(Box::new(Sink { got: vec![] }));
            lan.attach(
                NodeAddr(a),
                Endpoint {
                    component: s,
                    iface: IfaceId::CONTROL,
                },
            );
            s
        });
        let lan = e.add_component(Box::new(lan));
        (e, lan, sinks)
    }

    fn send_at(e: &mut Engine, lan: ComponentId, at_us: u64, src: u32, dst: NodeAddr) {
        let frame = Frame::new(NodeAddr(src), dst, 100, ());
        e.post(lan, SimDuration::from_micros(at_us), LanTransmit { frame });
    }

    fn received(e: &Engine, sink: ComponentId) -> usize {
        e.component_ref::<Sink>(sink).unwrap().got.len()
    }

    #[test]
    fn crashed_address_is_cut_off_until_healed() {
        let (mut e, lan, [s1, s2, s3]) = lan_rig(4);
        e.with_component::<ControlLan, _>(lan, |l, _| {
            l.crash_at(NodeAddr(2), SimTime::from_nanos(10_000_000));
        });
        // Before the crash instant node 2 is reachable.
        send_at(&mut e, lan, 0, 1, NodeAddr(2));
        e.run_for(SimDuration::from_millis(10));
        assert_eq!(received(&e, s2), 1, "delivered before the crash");

        // Crashed: unicast to it and from it is dropped and counted, and
        // a broadcast reaches only the live members.
        send_at(&mut e, lan, 0, 1, NodeAddr(2));
        send_at(&mut e, lan, 0, 2, NodeAddr(1));
        send_at(&mut e, lan, 0, 3, NodeAddr::BROADCAST);
        e.run_for(SimDuration::from_millis(10));
        assert_eq!(received(&e, s2), 1, "nothing reaches a crashed node");
        assert_eq!(received(&e, s1), 1, "s1: the broadcast only");
        assert_eq!(received(&e, s3), 0);
        assert_eq!(e.component_ref::<ControlLan>(lan).unwrap().fault_drops, 2);

        // Healed: the same three frames all get through.
        e.with_component::<ControlLan, _>(lan, |l, _| l.heal(NodeAddr(2)));
        send_at(&mut e, lan, 0, 1, NodeAddr(2));
        send_at(&mut e, lan, 0, 2, NodeAddr(1));
        send_at(&mut e, lan, 0, 3, NodeAddr::BROADCAST);
        e.run_for(SimDuration::from_millis(10));
        assert_eq!(received(&e, s2), 3, "unicast + broadcast after heal");
        assert_eq!(received(&e, s1), 3);
        assert_eq!(e.component_ref::<ControlLan>(lan).unwrap().fault_drops, 2);
    }

    #[test]
    fn forced_send_drop_is_banded_and_replays() {
        let run = || {
            let (mut e, lan, [_, s2, _]) = lan_rig(5);
            e.buggify().force(bg_points::LAN_SEND_DROP, 0.5);
            for i in 0..1_000 {
                send_at(&mut e, lan, i * 100, 1, NodeAddr(2));
            }
            e.run_to_completion();
            let drops = e.component_ref::<ControlLan>(lan).unwrap().fault_drops;
            let arrivals: Vec<SimTime> = e
                .component_ref::<Sink>(s2)
                .unwrap()
                .got
                .iter()
                .map(|g| g.0)
                .collect();
            (drops, arrivals)
        };
        let (drops, arrivals) = run();
        assert!((400..=600).contains(&drops), "{drops} drops at p = 0.5");
        assert_eq!(
            drops as usize + arrivals.len(),
            1_000,
            "every frame dropped or delivered"
        );
        assert_eq!(run(), (drops, arrivals), "same seed, same drops and timing");
    }
}
