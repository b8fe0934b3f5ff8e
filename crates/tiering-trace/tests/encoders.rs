//! Byte pins for the trace encoders: the JSONL line and digest of every
//! event kind, and the JSON, CSV and digest of two period rows.
//!
//! Every field carries a distinct non-zero value, so a field dropped,
//! renamed, reordered or retyped changes a pin, and one NaN pins the
//! `null` a non-finite float exports as. The constants are the output of
//! the hand-written per-encoder field lists the schemas replaced.

use sim_clock::Nanos;
use tiering_trace::export::{events_to_jsonl, periods_to_csv, periods_to_json};
use tiering_trace::{MigrateDir, PeriodSample, PolicyTraceState, TraceDigest, TraceEvent};

/// One event of each of the 17 kinds.
fn events() -> [TraceEvent; 17] {
    [
        TraceEvent::Scan {
            pid: 1,
            visited: 1001,
        },
        TraceEvent::HintFault {
            pid: 2,
            vpn: 1002,
            cit: Nanos(20_003),
            below_threshold: true,
        },
        TraceEvent::Enqueue {
            pid: 3,
            vpn: 1003,
            pages: 4,
        },
        TraceEvent::MigrateBegin {
            pid: 4,
            vpn: 1004,
            pages: 5,
            dir: MigrateDir::Promote,
        },
        TraceEvent::MigrateAbort {
            pid: 5,
            vpn: 1005,
            pages: 6,
            dir: MigrateDir::Demote,
        },
        TraceEvent::MigrateComplete {
            pid: 6,
            vpn: 1006,
            pages: 7,
            dir: MigrateDir::Promote,
        },
        TraceEvent::Thrash { pages: 8 },
        TraceEvent::Tune {
            cit_threshold: Nanos(9_000),
            rate_limit_bps: 10_000,
        },
        TraceEvent::DcscOverlap {
            cutoff_bucket: 11,
            misplaced_pages: 12.5,
            misplacement_ratio: f64::NAN,
        },
        TraceEvent::CopyFault {
            pid: 7,
            vpn: 1007,
            pages: 13,
            dir: MigrateDir::Demote,
            transient: false,
        },
        TraceEvent::Quarantine { tier: 2, pfn: 1014 },
        TraceEvent::FramePoison { pid: 8, vpn: 1015 },
        TraceEvent::Capacity {
            tier: 1,
            offlined: 16,
            restored: 17,
            usable: 18,
        },
        TraceEvent::Retry {
            pid: 9,
            vpn: 1019,
            attempt: 20,
        },
        TraceEvent::Breaker {
            open: true,
            failure_ratio: 0.21,
        },
        TraceEvent::Admission {
            tenant: 22,
            granted: 23,
            in_flight: 24,
            starvation: 25,
        },
        TraceEvent::TierHealth { tier: 2, state: 3 },
    ]
}

const EVENT_PINS: &str = r#"140610fb5a426cf9 {"t_ns":100,"kind":"scan","pid":1,"visited":1001}
107d63866656132f {"t_ns":101,"kind":"hint_fault","pid":2,"vpn":1002,"cit_ns":20003,"below_threshold":true}
c5f0cf6a81bec81d {"t_ns":102,"kind":"enqueue","pid":3,"vpn":1003,"pages":4}
465cffcaaa9d8842 {"t_ns":103,"kind":"migrate_begin","pid":4,"vpn":1004,"pages":5,"dir":"promote"}
e66f6509247c041a {"t_ns":104,"kind":"migrate_abort","pid":5,"vpn":1005,"pages":6,"dir":"demote"}
682e0929da44e576 {"t_ns":105,"kind":"migrate_complete","pid":6,"vpn":1006,"pages":7,"dir":"promote"}
56875e735cb8cca2 {"t_ns":106,"kind":"thrash","pages":8}
bbf9cd54c132d4dc {"t_ns":107,"kind":"tune","cit_threshold_ns":9000,"rate_limit_bps":10000}
610e7ba29151f721 {"t_ns":108,"kind":"dcsc_overlap","cutoff_bucket":11,"misplaced_pages":12.500000,"misplacement_ratio":null}
67cf3649a834ff23 {"t_ns":109,"kind":"copy_fault","pid":7,"vpn":1007,"pages":13,"dir":"demote","transient":false}
2e9fce0ba9a37925 {"t_ns":110,"kind":"quarantine","tier":2,"pfn":1014}
cfe337cd9250f488 {"t_ns":111,"kind":"frame_poison","pid":8,"vpn":1015}
b54c2f3e8e35436a {"t_ns":112,"kind":"capacity","tier":1,"offlined":16,"restored":17,"usable":18}
ddc0ef824627d2ad {"t_ns":113,"kind":"retry","pid":9,"vpn":1019,"attempt":20}
1eeedbac199e842f {"t_ns":114,"kind":"breaker","open":true,"failure_ratio":0.210000}
e98d543678be9a46 {"t_ns":115,"kind":"admission","tenant":22,"granted":23,"in_flight":24,"starvation":25}
e59ff7abd71061c1 {"t_ns":116,"kind":"tier_health","tier":2,"state":3}
"#;

#[test]
fn every_event_kind_keeps_its_jsonl_line_and_digest() {
    let mut got = String::new();
    for (i, ev) in events().into_iter().enumerate() {
        let at = Nanos(100 + i as u64);
        let line = events_to_jsonl(std::iter::once(&(at, ev)));
        let digest = TraceDigest::new().event(at, &ev).hex();
        got.push_str(&format!("{digest} {line}"));
    }
    assert_eq!(got, EVENT_PINS, "\n{got}");
}

/// Two rows with distinct non-zero fields: all tiers healthy, then one
/// tier unhealthy.
fn periods() -> [PeriodSample; 2] {
    let row = |base: u64, tier_health: u32| PeriodSample {
        timestamp: Nanos(base),
        policy: PolicyTraceState {
            cit_threshold: Nanos(base + 1),
            rate_limit_bps: base + 2,
            queue_depth: base + 3,
            enqueued_pages: base + 4,
            dequeued_pages: base + 5,
            dropped_pages: base + 6,
            heat_overlap_ratio: 0.125,
        },
        promoted_pages: base + 7,
        demoted_pages: base + 8,
        thrash_events: base + 9,
        hint_faults: base + 10,
        period_fmar: 0.9447668694040765,
        fmar: 1.0 / 3.0,
        fast_used_frames: base + 11,
        slow_used_frames: base + 12,
        in_flight_migrations: base + 13,
        quarantined_frames: base + 14,
        offlined_frames: base + 15,
        tier_health,
    };
    [row(1000, 0), row(2000, 0x30)]
}

const PERIODS_JSON: &str = concat!(
    r#"{"label":"pin","periods":[{"timestamp_ns":1000,"cit_threshold_ns":1001,"rate_limit_bps":1002,"queue_depth":1003,"enqueued_pages":1004,"dequeued_pages":1005,"dropped_pages":1006,"heat_overlap_ratio":0.125000,"promoted_pages":1007,"demoted_pages":1008,"thrash_events":1009,"hint_faults":1010,"period_fmar":0.944767,"fmar":0.333333,"fast_used_frames":1011,"slow_used_frames":1012,"in_flight_migrations":1013,"quarantined_frames":1014,"offlined_frames":1015,"tier_health":0},"#,
    r#"{"timestamp_ns":2000,"cit_threshold_ns":2001,"rate_limit_bps":2002,"queue_depth":2003,"enqueued_pages":2004,"dequeued_pages":2005,"dropped_pages":2006,"heat_overlap_ratio":0.125000,"promoted_pages":2007,"demoted_pages":2008,"thrash_events":2009,"hint_faults":2010,"period_fmar":0.944767,"fmar":0.333333,"fast_used_frames":2011,"slow_used_frames":2012,"in_flight_migrations":2013,"quarantined_frames":2014,"offlined_frames":2015,"tier_health":48}]}"#,
);

const PERIODS_CSV: &str = "\
timestamp_ns,cit_threshold_ns,rate_limit_bps,queue_depth,enqueued_pages,dequeued_pages,dropped_pages,heat_overlap_ratio,promoted_pages,demoted_pages,thrash_events,hint_faults,period_fmar,fmar,fast_used_frames,slow_used_frames,in_flight_migrations,quarantined_frames,offlined_frames,tier_health\n\
1000,1001,1002,1003,1004,1005,1006,0.125,1007,1008,1009,1010,0.9447668694040765,0.3333333333333333,1011,1012,1013,1014,1015,0\n\
2000,2001,2002,2003,2004,2005,2006,0.125,2007,2008,2009,2010,0.9447668694040765,0.3333333333333333,2011,2012,2013,2014,2015,48\n\
";

const PERIOD_DIGESTS: [&str; 2] = ["d318c3f7466f1645", "aeac6ce0e5800035"];

#[test]
fn period_rows_keep_their_json_csv_and_digests() {
    let rows = periods();
    assert_eq!(periods_to_json("pin", &rows), PERIODS_JSON);
    assert_eq!(periods_to_csv(&rows), PERIODS_CSV);
    let digests = rows.map(|r| TraceDigest::new().period(&r).hex());
    assert_eq!(digests, PERIOD_DIGESTS);
}
