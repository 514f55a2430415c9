//! Host-speed calibration: a fixed reference kernel, timed after every
//! step of measured work, that turns each step's wall time into time at
//! a reference host speed.
//!
//! On a shared host, other tenants slow every instruction of this
//! process for seconds to minutes at a time; the CPU clock slows with
//! the wall clock, since the lost speed is not steal time. Neither can
//! tell that apart from the program getting slower. The kernel does the
//! same work on every call and uses no code of the system under test, so
//! its time tracks only the host. It mixes what the simulator's hot path
//! does: a priority queue of timestamped events, small heap allocations,
//! and scattered reads and writes over a working set a few MB large.
//!
//! Measured on a shared 2-vCPU Intel Xeon host (2.0 GHz), iperf_ckpt
//! iterations ran between 1.8 and 3.5 s wall as the host's load changed,
//! and log(iteration wall time) tracked log(mean kernel time) with
//! correlation 0.86 to 0.91; scale_star, threaded, 0.62. The workloads
//! slow more than the kernel does: the fitted slopes were 1.4 to 2.0 for
//! iperf_ckpt and 1.7 for scale_star. Each step's time is therefore
//! scaled by the square of the kernel's speed-up to reference
//! ([`SENSITIVITY`]). Scaled so, the spread (interquartile range over
//! median) of iperf_ckpt iterations fell from 0.17 and 0.26 to 0.09 and
//! 0.08, and of scale_star iterations from 0.28 to 0.19. A kernel with a
//! 32 MiB working set or a pure pointer chase tracked worse.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Events one kernel call pushes through its queue.
const EVENTS: u64 = 20_000;
/// Events kept pending, like a busy simulator's queue.
const PENDING: usize = 4096;
/// Working-set words (8 B each): 4 MiB.
const TABLE: usize = 1 << 19;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Times steps of work, each followed by one kernel call. Holds the
/// kernel's state, allocated once so that calls measure the host's speed
/// and not the allocator's first touch of fresh pages.
pub struct HostClock {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    table: Vec<u64>,
    // Boxed on purpose: one small allocation and free per eighth event.
    #[allow(clippy::vec_box)]
    live: Vec<Box<[u64; 8]>>,
    x: u64,
    now: u64,
    seq: u64,
}

impl Default for HostClock {
    fn default() -> Self {
        let mut c = HostClock {
            heap: BinaryHeap::with_capacity(PENDING + 1),
            table: vec![0u64; TABLE],
            live: Vec::with_capacity(64),
            x: 0x9e37_79b9_7f4a_7c15,
            now: 0,
            seq: 0,
        };
        // Fill the queue and touch the table once, outside any timing.
        c.kernel();
        c
    }
}

impl HostClock {
    /// Runs the reference work once and returns a checksum of it.
    fn kernel(&mut self) -> u64 {
        let mut acc = 0u64;
        for _ in 0..EVENTS {
            self.seq += 1;
            self.x = xorshift(self.x);
            let x = self.x;
            self.heap.push(Reverse((self.now + (x & 0xffff), self.seq)));
            if self.heap.len() > PENDING {
                let Reverse((t, j)) = self.heap.pop().expect("non-empty");
                self.now = t;
                let slot = (t ^ j.wrapping_mul(0x9e37_79b9)) as usize % TABLE;
                self.table[slot] = self.table[slot].wrapping_add(t);
                acc = acc.wrapping_add(self.table[(x >> 24) as usize % TABLE]);
            }
            if self.seq.is_multiple_of(8) {
                let mut b = Box::new([0u64; 8]);
                b[(x % 8) as usize] = acc;
                if self.live.len() == self.live.capacity() {
                    acc ^= self.live.swap_remove((x >> 8) as usize % self.live.len())[0];
                }
                self.live.push(black_box(b));
            }
        }
        black_box(acc)
    }

    /// Host seconds one kernel call takes right now.
    fn measure(&mut self) -> f64 {
        let t0 = Instant::now();
        self.kernel();
        t0.elapsed().as_secs_f64()
    }

    /// Runs `f` and adds its time to `span`; returns what `f` returned
    /// and the step's wall seconds. A step should last tens of
    /// milliseconds or more, so that the kernel call after it costs a
    /// small share of the run.
    pub fn time<R>(&mut self, span: &mut Span, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let r = f();
        let wall_s = t0.elapsed().as_secs_f64();
        span.add(wall_s, self.measure());
        (r, wall_s)
    }
}

/// The kernel's time per call at the reference host speed: about its
/// median on a quiet shared 2-vCPU Intel Xeon host (2.0 GHz). It sets
/// only the scale of the reported seconds.
pub const CAL_REF_S: f64 = 0.004;

/// How much more the workloads slow than the kernel, as an exponent:
/// a step that ran while the kernel took `k` times its reference time
/// counts its wall time divided by `k` to this power.
pub const SENSITIVITY: i32 = 2;

/// Host time of a measured phase: wall seconds, and the same time at the
/// reference host speed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Span {
    pub wall_s: f64,
    pub ref_s: f64,
}

impl Span {
    /// Adds one step that took `wall_s` while a kernel call took `cal_s`.
    pub fn add(&mut self, wall_s: f64, cal_s: f64) {
        self.wall_s += wall_s;
        self.ref_s += wall_s * (CAL_REF_S / cal_s).powi(SENSITIVITY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_scale_to_the_reference_speed() {
        let mut span = Span::default();
        // A host at half the reference speed: the kernel takes twice its
        // reference time, so the step counts a quarter of its wall time.
        span.add(2.0, 2.0 * CAL_REF_S);
        span.add(0.5, CAL_REF_S);
        assert_eq!(SENSITIVITY, 2);
        assert!((span.wall_s - 2.5).abs() < 1e-12);
        assert!((span.ref_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clock_times_a_step_and_calibrates() {
        let mut clock = HostClock::default();
        let mut span = Span::default();
        let (v, wall_s) = clock.time(&mut span, || std::hint::black_box(6 * 7));
        assert_eq!(v, 42);
        assert_eq!(span.wall_s, wall_s);
        assert!(span.ref_s >= 0.0);
    }
}
