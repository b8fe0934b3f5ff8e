//! Optional export of traced runs to disk.
//!
//! The CLI's `--json <dir>` and `--trace <dir>` flags configure a global
//! sink; while one is set, every experiment run (each is a
//! [`crate::runner::Testbed`]) enables the system tracer and, on
//! completion, writes:
//!
//! - `<json-dir>/<experiment>__<label>__<n>.json` — per-scan-period counter
//!   rows (plus a `.csv` twin with the same columns), and
//! - `<trace-dir>/<experiment>__<label>__<n>.jsonl` — the discrete-event
//!   ring, one JSON object per line.
//!
//! With neither flag set the sink is inert and tracing stays disabled, so
//! plain runs pay nothing.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tiered_mem::TieredSystem;
use tiering_trace::DEFAULT_EVENT_CAP;

struct Sink {
    json_dir: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    experiment: String,
}

static STATE: Mutex<Option<Sink>> = Mutex::new(None);
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Activates the sink. Either directory may be `None`; passing both as
/// `None` deactivates it.
pub fn configure(json_dir: Option<PathBuf>, trace_dir: Option<PathBuf>) {
    let mut st = STATE.lock().expect("sink lock");
    *st = if json_dir.is_none() && trace_dir.is_none() {
        None
    } else {
        Some(Sink {
            json_dir,
            trace_dir,
            experiment: "run".to_string(),
        })
    };
}

/// Whether any export destination is configured.
pub fn active() -> bool {
    STATE.lock().expect("sink lock").is_some()
}

/// Tags subsequent runs with the experiment id (used in file names).
pub fn set_experiment(id: &str) {
    if let Some(sink) = STATE.lock().expect("sink lock").as_mut() {
        sink.experiment = sanitize(id);
    }
}

/// Turns tracing on for a system when the sink is active.
pub fn arm(sys: &mut TieredSystem) {
    if active() {
        sys.enable_tracing(DEFAULT_EVENT_CAP);
    }
}

/// Writes the system's trace (if any) to the configured directories.
pub fn finish_run(label: &str, sys: &TieredSystem) {
    let st = STATE.lock().expect("sink lock");
    let Some(sink) = st.as_ref() else {
        return;
    };
    if !sys.trace.is_enabled() {
        return;
    }
    let stem = format!(
        "{}__{}__{}",
        sink.experiment,
        sanitize(label),
        SEQ.fetch_add(1, Ordering::Relaxed)
    );
    if let Some(dir) = &sink.json_dir {
        write_or_warn(
            dir.join(format!("{stem}.json")),
            sys.trace.periods_json(label),
        );
        write_or_warn(dir.join(format!("{stem}.csv")), sys.trace.periods_csv());
    }
    if let Some(dir) = &sink.trace_dir {
        write_or_warn(dir.join(format!("{stem}.jsonl")), sys.trace.events_jsonl());
    }
}

fn write_or_warn(path: PathBuf, content: String) {
    if let Err(e) = fs::write(&path, content) {
        eprintln!("warning: could not write {}: {}", path.display(), e);
    }
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_by_default_and_sanitizes() {
        // Note: the sink is process-global; this test only checks the pure
        // helpers to avoid interfering with any configured state.
        assert_eq!(sanitize("Chrono (manual)"), "Chrono--manual-");
        assert_eq!(sanitize("fig10a"), "fig10a");
    }
}
