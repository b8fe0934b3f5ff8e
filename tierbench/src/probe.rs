//! Decorators around the public [`Workload`] and [`TieringPolicy`] traits.
//!
//! The traced run wraps every workload and policy of a system in a
//! [`TappedWorkload`] / [`TappedPolicy`] pair sharing one [`Tap`], so spans
//! are recorded from the benchmark's side of each layer boundary and no
//! program file carries timing code. The same pair, in [`Mode::Delay`],
//! injects a fixed busy-wait at one call site for the sensitivity self-test.
//!
//! Per-access spans are sampled (one access in `every`): the workload
//! decorator times `next_access` and leaves its exit timestamp in the tap;
//! the policy decorator closes the `tiered_mem.access` span at the first
//! hook that follows and times `on_access`. Hint faults and daemon events
//! are timed in full. Durations are kept raw; [`Tap::spans`] subtracts the
//! calibrated empty-span cost once per span.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use tiered_mem::{AccessResult, ProcessId, TieredSystem, Vpn};
use tiering_policies::{decode_token, TieringPolicy};
use workloads::{AccessReq, Workload};

use crate::clock::{busy_wait, span_ns};

/// A value written only by the thread currently stepping the tap's system
/// and read after the run, so relaxed loads and stores are enough: the
/// sharded runner's thread joins order every write before the reads.
#[derive(Default)]
pub struct Cell64(AtomicU64);

impl Cell64 {
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed)
    }
    #[inline]
    pub fn add(&self, v: u64) {
        self.set(self.get().wrapping_add(v))
    }
}

/// Span kinds recorded by the decorators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `Workload::next_access` (sampled).
    NextAccess,
    /// From `next_access` returning to the first policy hook of the same
    /// access: `TieredSystem::access` plus the driver's histogram records
    /// (sampled).
    Access,
    /// `TieringPolicy::on_access` (sampled).
    OnAccess,
    /// `on_hint_fault` for a Ticking-scan fault.
    ScanFault,
    /// `on_hint_fault` for a DCSC probe fault.
    ProbeFault,
    /// `on_event`, by Chrono event kind (`decode_token` kind 1..=5).
    EvScan,
    EvMigrate,
    EvDemote,
    EvTune,
    EvDcsc,
    /// `on_event` with any other kind.
    EvOther,
}

impl Span {
    pub const ALL: [Span; 11] = [
        Span::NextAccess,
        Span::Access,
        Span::OnAccess,
        Span::ScanFault,
        Span::ProbeFault,
        Span::EvScan,
        Span::EvMigrate,
        Span::EvDemote,
        Span::EvTune,
        Span::EvDcsc,
        Span::EvOther,
    ];

    /// Whether the span is recorded for one access in `every` only.
    pub fn sampled(self) -> bool {
        matches!(self, Span::NextAccess | Span::Access | Span::OnAccess)
    }

    /// The span of an event token, by the Chrono event kinds
    /// (`chrono-core`'s `EV_SCAN` .. `EV_DCSC`).
    fn of_event(token: u64) -> Span {
        match decode_token(token).0 {
            1 => Span::EvScan,
            2 => Span::EvMigrate,
            3 => Span::EvDemote,
            4 => Span::EvTune,
            5 => Span::EvDcsc,
            _ => Span::EvOther,
        }
    }
}

/// A call site the sensitivity self-test can slow down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Every `Workload::next_access`.
    NextAccess,
    /// Every `on_hint_fault` taken on a DCSC probe.
    ProbeFault,
    /// Every DCSC round (`on_event` of kind `EV_DCSC`).
    DcscEvent,
}

impl Site {
    pub const ALL: [Site; 3] = [Site::NextAccess, Site::ProbeFault, Site::DcscEvent];

    pub fn name(self) -> &'static str {
        match self {
            Site::NextAccess => "next_access",
            Site::ProbeFault => "probe_fault",
            Site::DcscEvent => "dcsc_event",
        }
    }
}

/// What a tap does at its call sites.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Record spans; per-access spans for one access in `every`.
    Timed { every: u32 },
    /// Busy-wait `ns` at `site` and count the calls there; time nothing.
    Delay { site: Site, ns: u64 },
}

/// Window boundaries of a sharded run, published by the benchmark's barrier
/// audit hook before each step phase starts.
#[derive(Default)]
pub struct FleetClock {
    /// Index of the step phase about to run.
    pub index: Cell64,
    /// Simulated horizon of that phase, ns.
    pub horizon: Cell64,
}

/// One shard's step through one barrier window, in host ns.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub window: u64,
    pub start: u64,
    pub end: u64,
    pub thread: ThreadId,
}

struct WindowTap {
    clock: Arc<FleetClock>,
    /// `index + 1` of the last window this shard entered (0 = none).
    seen: Cell64,
    steps: Mutex<Vec<Step>>,
}

/// State shared by the decorators of one system.
pub struct Tap {
    mode: Mode,
    raw_ns: [Cell64; 11],
    spans: [Cell64; 11],
    reads: Cell64,
    /// Exit timestamp of a sampled `next_access` whose access span is open.
    pending: Cell64,
    /// Whether the current access is sampled (cleared by `on_access`).
    sampled: Cell64,
    /// Calls at the delayed site ([`Mode::Delay`]).
    delayed: Cell64,
    window: Option<WindowTap>,
}

impl Tap {
    pub fn new(mode: Mode) -> Arc<Tap> {
        Arc::new(Tap::build(mode, None))
    }

    /// A tap that also records the shard's step through every barrier
    /// window of a sharded run.
    pub fn with_windows(mode: Mode, clock: Arc<FleetClock>) -> Arc<Tap> {
        Arc::new(Tap::build(
            mode,
            Some(WindowTap {
                clock,
                seen: Cell64::default(),
                steps: Mutex::new(Vec::new()),
            }),
        ))
    }

    fn build(mode: Mode, window: Option<WindowTap>) -> Tap {
        Tap {
            mode,
            raw_ns: Default::default(),
            spans: Default::default(),
            reads: Cell64::default(),
            pending: Cell64::default(),
            sampled: Cell64::default(),
            delayed: Cell64::default(),
            window,
        }
    }

    /// Per span kind: `(self ns, spans)`, the empty-span cost subtracted
    /// once per span.
    pub fn spans(&self, empty_span_ns: f64) -> Vec<(Span, f64, u64)> {
        Span::ALL
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let n = self.spans[i].get();
                let raw = self.raw_ns[i].get() as f64;
                (s, (raw - n as f64 * empty_span_ns).max(0.0), n)
            })
            .collect()
    }

    /// Clock reads made by the decorators.
    pub fn reads(&self) -> u64 {
        self.reads.get()
    }

    /// Calls at the delayed site.
    pub fn delayed_calls(&self) -> u64 {
        self.delayed.get()
    }

    /// The shard's recorded window steps.
    pub fn steps(&self) -> Vec<Step> {
        self.window.as_ref().map_or_else(Vec::new, |w| {
            w.steps.lock().expect("tap step log poisoned").clone()
        })
    }

    #[inline]
    fn record(&self, span: Span, start: u64, end: u64) {
        let i = span as usize;
        self.raw_ns[i].add(end.saturating_sub(start));
        self.spans[i].add(1);
        self.reads.add(2);
    }

    #[inline]
    fn timed(&self) -> bool {
        matches!(self.mode, Mode::Timed { .. })
    }

    #[inline]
    fn delay(&self, site: Site) {
        if let Mode::Delay { site: s, ns } = self.mode {
            if s == site {
                self.delayed.add(1);
                if ns > 0 {
                    busy_wait(ns);
                }
            }
        }
    }

    /// Closes the open access span, if any, at hook entry time `t`.
    #[inline]
    fn close_access(&self, t: u64) {
        let p = self.pending.get();
        if p != 0 {
            self.pending.set(0);
            self.raw_ns[Span::Access as usize].add(t.saturating_sub(p));
            self.spans[Span::Access as usize].add(1);
        }
    }

    /// Opens a step record the first time the shard is called in a window.
    #[inline]
    fn enter_window(&self) {
        let Some(w) = &self.window else { return };
        let index = w.clock.index.get();
        if w.seen.get() == index + 1 {
            return;
        }
        w.seen.set(index + 1);
        let t = span_ns();
        self.reads.add(1);
        w.steps.lock().expect("tap step log poisoned").push(Step {
            window: index,
            start: t,
            end: t,
            thread: std::thread::current().id(),
        });
    }

    /// Moves the step's end forward when the system's next access lies at
    /// or past the window horizon, i.e. when the driver is about to return.
    #[inline]
    fn maybe_leave_window(&self, sys: &TieredSystem) {
        let Some(w) = &self.window else { return };
        let horizon = w.clock.horizon.get();
        if sys
            .min_vtime_process_and_time()
            .is_some_and(|(_, t)| t.as_nanos() < horizon)
        {
            return;
        }
        let t = span_ns();
        self.reads.add(1);
        if let Some(s) = w.steps.lock().expect("tap step log poisoned").last_mut() {
            s.end = t;
        }
    }
}

/// [`Workload`] decorator.
pub struct TappedWorkload {
    inner: Box<dyn Workload>,
    tap: Arc<Tap>,
    every: u32,
    countdown: u32,
}

impl TappedWorkload {
    pub fn new(inner: Box<dyn Workload>, tap: Arc<Tap>) -> TappedWorkload {
        let every = match tap.mode {
            Mode::Timed { every } => every.max(1),
            Mode::Delay { .. } => u32::MAX,
        };
        TappedWorkload {
            inner,
            tap,
            every,
            countdown: every,
        }
    }
}

impl Workload for TappedWorkload {
    #[inline]
    fn next_access(&mut self) -> Option<AccessReq> {
        self.tap.enter_window();
        if !self.tap.timed() {
            self.tap.delay(Site::NextAccess);
            return self.inner.next_access();
        }
        self.countdown -= 1;
        if self.countdown != 0 {
            return self.inner.next_access();
        }
        self.countdown = self.every;
        let t0 = span_ns();
        let r = self.inner.next_access();
        let t1 = span_ns();
        self.tap.record(Span::NextAccess, t0, t1);
        if r.is_some() {
            self.tap.pending.set(t1);
            self.tap.sampled.set(1);
        }
        r
    }

    fn address_space_pages(&self) -> u32 {
        self.inner.address_space_pages()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// [`TieringPolicy`] decorator.
pub struct TappedPolicy {
    inner: Box<dyn TieringPolicy>,
    tap: Arc<Tap>,
}

impl TappedPolicy {
    pub fn new(inner: Box<dyn TieringPolicy>, tap: Arc<Tap>) -> TappedPolicy {
        TappedPolicy { inner, tap }
    }
}

impl TieringPolicy for TappedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, sys: &mut TieredSystem) {
        self.inner.init(sys);
    }

    fn on_event(&mut self, sys: &mut TieredSystem, token: u64) {
        self.tap.enter_window();
        let span = Span::of_event(token);
        if !self.tap.timed() {
            if span == Span::EvDcsc {
                self.tap.delay(Site::DcscEvent);
            }
            self.inner.on_event(sys, token);
            return;
        }
        let t0 = span_ns();
        self.inner.on_event(sys, token);
        let t1 = span_ns();
        self.tap.record(span, t0, t1);
        self.tap.maybe_leave_window(sys);
    }

    fn on_hint_fault(
        &mut self,
        sys: &mut TieredSystem,
        pid: ProcessId,
        vpn: Vpn,
        write: bool,
        res: &AccessResult,
    ) {
        if !self.tap.timed() {
            if res.probed_fault {
                self.tap.delay(Site::ProbeFault);
            }
            self.inner.on_hint_fault(sys, pid, vpn, write, res);
            return;
        }
        let t0 = span_ns();
        self.tap.close_access(t0);
        self.inner.on_hint_fault(sys, pid, vpn, write, res);
        let t1 = span_ns();
        let span = if res.probed_fault {
            Span::ProbeFault
        } else {
            Span::ScanFault
        };
        self.tap.record(span, t0, t1);
    }

    #[inline]
    fn on_access(&mut self, sys: &mut TieredSystem, pid: ProcessId, vpn: Vpn, write: bool) {
        if self.tap.sampled.get() == 0 {
            self.inner.on_access(sys, pid, vpn, write);
        } else {
            self.tap.sampled.set(0);
            let t0 = span_ns();
            self.tap.close_access(t0);
            self.inner.on_access(sys, pid, vpn, write);
            let t1 = span_ns();
            self.tap.record(Span::OnAccess, t0, t1);
        }
        self.tap.maybe_leave_window(sys);
    }
}
