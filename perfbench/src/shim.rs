//! The traced run's timing shim: wraps a registered engine component,
//! times every `handle` call, and forwards `as_any`/`as_any_mut` to the
//! wrapped value so `component_ref::<T>` and `with_component::<T>` still
//! downcast to the concrete type.

use std::any::Any;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use sim::{Component, Ctx, Payload};

/// Events and handler wall time accumulated by one layer's shims.
#[derive(Default, Debug)]
pub struct LayerClock {
    events: Cell<u64>,
    busy_ns: Cell<u64>,
}

impl LayerClock {
    pub fn events(&self) -> u64 {
        self.events.get()
    }

    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.get()
    }

    pub fn reset(&self) {
        self.events.set(0);
        self.busy_ns.set(0);
    }

    /// Runs `f`, charging one event and its wall time to this clock.
    #[inline]
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.busy_ns.set(self.busy_ns.get() + ns);
        self.events.set(self.events.get() + 1);
        r
    }
}

/// Host ns per event the shim spends outside the span it charges to a
/// layer (the tail of the closing clock read and the counter updates),
/// measured around an empty handler: the median of five rounds of
/// calls. A traced run's wall time outside every handler, less this per
/// event, is the time the engine itself spent between handlers.
pub fn ns_outside_span() -> f64 {
    const CALLS: u32 = 100_000;
    let mut rounds: Vec<f64> = (0..5)
        .map(|_| {
            let clock = LayerClock::default();
            let t0 = Instant::now();
            for _ in 0..CALLS {
                clock.time(|| std::hint::black_box(()));
            }
            let total = t0.elapsed().as_nanos() as f64;
            (total - clock.busy_ns() as f64).max(0.0) / f64::from(CALLS)
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[2]
}

/// A component wrapped in a timing shim charged to one layer's clock.
pub struct Timed {
    inner: Box<dyn Component>,
    clock: Rc<LayerClock>,
}

impl Timed {
    pub fn wrap(inner: Box<dyn Component>, clock: &Rc<LayerClock>) -> Box<dyn Component> {
        Box::new(Timed {
            inner,
            clock: Rc::clone(clock),
        })
    }
}

impl Component for Timed {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let inner = &mut self.inner;
        self.clock.time(|| inner.handle(ctx, payload));
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::{Engine, SimDuration};

    /// Counts pings and re-arms itself a fixed number of times.
    struct Pinger {
        seen: u32,
        limit: u32,
    }

    struct Ping;

    impl Component for Pinger {
        fn handle(&mut self, ctx: &mut Ctx<'_>, _payload: Payload) {
            self.seen += 1;
            if self.seen < self.limit {
                ctx.post_self(SimDuration::from_millis(1), Ping);
            }
        }
        sim::component_boilerplate!();
    }

    #[test]
    fn shim_forwards_downcasts_and_counts_events() {
        let clock = Rc::new(LayerClock::default());
        let mut e = Engine::new(1);
        let id = e.add_component(Timed::wrap(Box::new(Pinger { seen: 0, limit: 5 }), &clock));
        // Both downcast paths reach the wrapped value, not the shim.
        e.with_component::<Pinger, _>(id, |p, ctx| {
            ctx.post_self(SimDuration::from_millis(1), Ping);
            p.limit = 4;
        });
        e.run_for(SimDuration::from_secs(1));
        let p = e
            .component_ref::<Pinger>(id)
            .expect("downcast through the shim");
        assert_eq!(p.seen, 4);
        assert!(e.component_ref::<Timed>(id).is_none());
        assert_eq!(clock.events(), 4);
        assert_eq!(clock.events(), e.events_dispatched());
        e.component_mut::<Pinger>(id)
            .expect("mutable downcast")
            .seen = 0;
        assert_eq!(e.component_ref::<Pinger>(id).map(|p| p.seen), Some(0));
    }
}
