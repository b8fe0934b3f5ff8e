//! Host clocks.
//!
//! [`now_ns`] reads the monotonic clock and times whole runs and windows.
//! [`span_ns`] times the decorators' spans: on x86-64 it reads the time
//! stamp counter, an inline instruction that disturbs the code around it
//! far less than a `clock_gettime` call and costs about half as much (28 ns
//! against 47 ns on a 2-CPU Firecracker VM), scaled to nanoseconds against
//! the monotonic clock once per process.
//! Spans carry the cost of one clock read, which [`Calibration`] measures so
//! span self times can be corrected for it.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn base() -> Instant {
    static BASE: OnceLock<Instant> = OnceLock::new();
    *BASE.get_or_init(Instant::now)
}

/// Monotonic host nanoseconds since the process's first clock read.
#[inline]
pub fn now_ns() -> u64 {
    u64::try_from(base().elapsed().as_nanos()).expect("a run lasts less than 584 years")
}

/// Nanoseconds per time-stamp-counter tick and the counter at the base
/// instant, measured over 20 ms of the monotonic clock.
#[cfg(target_arch = "x86_64")]
fn tsc_scale() -> (f64, u64) {
    static SCALE: OnceLock<(f64, u64)> = OnceLock::new();
    *SCALE.get_or_init(|| {
        let (t0, c0) = (now_ns(), tsc());
        std::thread::sleep(Duration::from_millis(20));
        let (t1, c1) = (now_ns(), tsc());
        let ns_per_tick = (t1 - t0) as f64 / (c1 - c0).max(1) as f64;
        (
            ns_per_tick,
            c0.saturating_sub((t0 as f64 / ns_per_tick) as u64),
        )
    })
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn tsc() -> u64 {
    // SAFETY: RDTSC exists on every x86-64 processor, takes no operands and
    // touches no memory. Linux allows it in user mode unless the process
    // opts out with PR_SET_TSC, which this one never does, so it cannot
    // fault.
    unsafe { std::arch::x86_64::_rdtsc() }
}

/// Span clock, nanoseconds: the time stamp counter on x86-64 (invariant on
/// any processor that advertises `constant_tsc`), the monotonic clock
/// elsewhere.
#[inline]
pub fn span_ns() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        let (ns_per_tick, c0) = tsc_scale();
        (tsc().saturating_sub(c0) as f64 * ns_per_tick) as u64
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        now_ns()
    }
}

/// Seconds elapsed since `t0` (a value of [`now_ns`]).
pub fn secs_since(t0: u64) -> f64 {
    now_ns().saturating_sub(t0) as f64 / 1e9
}

/// Measured cost of the span clock.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Mean duration of an empty span (two back-to-back clock reads): what a
    /// measured span over-reports by, subtracted from every span.
    pub empty_span_ns: f64,
    /// Mean cost of one clock read, charged to the traced run's overhead.
    pub read_ns: f64,
}

impl Calibration {
    /// Measures the span clock. Takes about 40 ms.
    pub fn measure() -> Calibration {
        let _ = span_ns();
        const READS: u64 = 400_000;
        let t0 = now_ns();
        let mut sink = 0u64;
        for _ in 0..READS {
            sink = sink.wrapping_add(black_box(span_ns()));
        }
        black_box(sink);
        let read_ns = (now_ns() - t0) as f64 / READS as f64;

        const PAIRS: u64 = 200_000;
        let mut total = 0u64;
        for _ in 0..PAIRS {
            let a = span_ns();
            let b = span_ns();
            total += b.saturating_sub(a);
        }
        let empty_span_ns = total as f64 / PAIRS as f64;

        Calibration {
            empty_span_ns,
            read_ns,
        }
    }
}

/// Mean host ns one [`busy_wait`]`(ns)` call really takes: the wait plus
/// its clock reads and overshoot. The median of eleven batches of about
/// 2 ms each, so a batch the host preempts does not skew it.
pub fn busy_wait_cost(ns: u64) -> f64 {
    let calls = (2_000_000 / ns.max(1)).clamp(10, 20_000);
    busy_wait(ns);
    let batches: Vec<f64> = (0..11)
        .map(|_| {
            let t0 = now_ns();
            for _ in 0..calls {
                busy_wait(black_box(ns));
            }
            (now_ns() - t0) as f64 / calls as f64
        })
        .collect();
    crate::report::median(&batches)
}

/// Busy-waits `ns` nanoseconds on the span clock. Waiting on the clock
/// rather than running a fixed instruction count keeps out-of-order
/// execution from overlapping the wait with the surrounding work.
#[inline]
pub fn busy_wait(ns: u64) {
    let end = span_ns() + ns;
    while span_ns() < end {
        std::hint::spin_loop();
    }
}
