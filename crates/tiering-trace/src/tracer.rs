//! The recording handle embedded in the simulated system.

use sim_clock::Nanos;

use crate::event::TraceEvent;
use crate::export;
use crate::period::PeriodSample;
use crate::ring::EventRing;

/// Default bound on the discrete-event ring.
pub const DEFAULT_EVENT_CAP: usize = 1 << 16;

/// Records period samples and discrete events when enabled; a disabled
/// tracer is a single-bool no-op on every path.
///
/// # Examples
///
/// ```
/// use tiering_trace::{TraceEvent, Tracer};
/// use sim_clock::Nanos;
///
/// let mut off = Tracer::disabled();
/// off.emit(Nanos(1), || TraceEvent::Thrash { pages: 1 });
/// assert_eq!(off.events().count(), 0);
///
/// let mut on = Tracer::enabled(16);
/// on.emit(Nanos(1), || TraceEvent::Thrash { pages: 1 });
/// assert_eq!(on.events().count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    ring: EventRing,
    periods: Vec<PeriodSample>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::disabled()
    }
}

impl Tracer {
    /// The default: recording off, nothing allocated.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ring: EventRing::new(0),
            periods: Vec::new(),
        }
    }

    /// A recording tracer whose event ring holds at most `event_cap`
    /// entries (period samples are unbounded — one per scan period is tiny).
    pub fn enabled(event_cap: usize) -> Tracer {
        Tracer {
            enabled: true,
            ring: EventRing::new(event_cap),
            periods: Vec::new(),
        }
    }

    /// Whether recording is on. Emit sites may check this to skip preparing
    /// expensive arguments, but [`Tracer::emit`] already defers construction
    /// via its closure.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a discrete event. The closure runs only when enabled, so a
    /// disabled tracer never constructs the event.
    #[inline(always)]
    pub fn emit(&mut self, at: Nanos, ev: impl FnOnce() -> TraceEvent) {
        if self.enabled {
            self.ring.push(at, ev());
        }
    }

    /// Records a period sample. The closure runs only when enabled.
    #[inline(always)]
    pub fn record_period(&mut self, sample: impl FnOnce() -> PeriodSample) {
        if self.enabled {
            self.periods.push(sample());
        }
    }

    /// Recorded period samples, oldest first.
    pub fn periods(&self) -> &[PeriodSample] {
        &self.periods
    }

    /// Recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(Nanos, TraceEvent)> {
        self.ring.iter()
    }

    /// Events shed by the bounded ring.
    pub fn dropped_events(&self) -> u64 {
        self.ring.dropped()
    }

    /// Stable 64-bit digest of everything recorded: every period sample and
    /// every ring event (plus the dropped-event count), in order. Two runs of
    /// the same seeded simulation must produce the same digest; see
    /// [`crate::digest::TraceDigest`] for the encoding.
    pub fn digest(&self) -> u64 {
        let mut d = crate::digest::TraceDigest::new();
        d.u64(self.periods.len() as u64);
        for s in &self.periods {
            d.period(s);
        }
        for (at, ev) in self.ring.iter() {
            d.event(*at, ev);
        }
        d.u64(self.ring.dropped());
        d.value()
    }

    /// Renders the period samples as a JSON document.
    pub fn periods_json(&self, label: &str) -> String {
        export::periods_to_json(label, &self.periods)
    }

    /// Renders the period samples as CSV.
    pub fn periods_csv(&self) -> String {
        export::periods_to_csv(&self.periods)
    }

    /// Renders the event ring as JSON Lines.
    pub fn events_jsonl(&self) -> String {
        export::events_to_jsonl(self.ring.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing_and_never_runs_closures() {
        let mut t = Tracer::disabled();
        t.emit(Nanos(1), || panic!("must not construct when disabled"));
        t.record_period(|| panic!("must not sample when disabled"));
        assert!(t.periods().is_empty());
        assert_eq!(t.events().count(), 0);
    }

    #[test]
    fn enabled_records_both_streams() {
        let mut t = Tracer::enabled(4);
        t.emit(Nanos(1), || TraceEvent::Thrash { pages: 3 });
        t.record_period(|| PeriodSample {
            timestamp: Nanos(2),
            ..Default::default()
        });
        assert_eq!(t.events().count(), 1);
        assert_eq!(t.periods().len(), 1);
        assert_eq!(t.periods()[0].timestamp, Nanos(2));
    }

    #[test]
    fn ring_bound_applies() {
        let mut t = Tracer::enabled(2);
        for i in 0..5 {
            t.emit(Nanos(i), || TraceEvent::Thrash { pages: i });
        }
        assert_eq!(t.events().count(), 2);
        assert_eq!(t.dropped_events(), 3);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let record = |pages: u64| {
            let mut t = Tracer::enabled(4);
            t.emit(Nanos(1), || TraceEvent::Thrash { pages });
            t.record_period(|| PeriodSample {
                timestamp: Nanos(2),
                ..Default::default()
            });
            t.digest()
        };
        assert_eq!(record(3), record(3));
        assert_ne!(record(3), record(4));
        assert_eq!(Tracer::disabled().digest(), Tracer::disabled().digest());
    }

    #[test]
    fn exports_render() {
        let mut t = Tracer::enabled(4);
        t.record_period(PeriodSample::default);
        t.emit(Nanos(1), || TraceEvent::Thrash { pages: 1 });
        assert!(t.periods_json("x").contains("\"periods\":[{"));
        assert!(t.periods_csv().lines().count() == 2);
        assert!(t.events_jsonl().contains("thrash"));
    }
}
