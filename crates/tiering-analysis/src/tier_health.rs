//! Exhaustive small-scope model checking of the tier failure-domain
//! lifecycle.
//!
//! The state of one tier, as far as the failure-domain subsystem is
//! concerned, is its [`tiered_mem::TierHealth`] variant plus two abstractions of what
//! `TieredSystem` tracks per tier: a saturating residency level (none /
//! some / more — enough to distinguish "last page left" from "still
//! draining") and whether an emergency-evacuation copy is in flight off
//! the tier. That is 5 × 3 × 2 = 30 states, packed into a 6-bit word —
//! small enough to enumerate the reachable set *exactly*. The transition
//! relation below restates, as pure functions, what
//! `TieredSystem::apply_tier_event`, `pump_evacuation`, the forced
//! deadline drain, and `finish_offline` actually do to a tier, and a BFS
//! from the fresh `Online` state visits everything those functions can
//! ever produce.
//!
//! `harness model-check` asserts that no reachable state violates the
//! declared [`health_legality_rules`] — above all that `Offline` (and
//! `Rejoining`, which re-enters the chain empty) can never co-occur with
//! residency or an open evacuation transaction, the static mirror of the
//! runtime oracle's `tier_offline_residency` invariant — and diffs the
//! rendered reachable set against its committed golden. The injected
//! `Offline`-with-residency transition self-test proves the checker can
//! actually fail.

use crate::model::{explore, LegalityRule, ModelReport, Transition};

/// Health-state codes, mirrored from [`TierHealth::code`] (a unit test
/// holds the two in sync).
///
/// [`TierHealth::code`]: tiered_mem::TierHealth::code
pub const ONLINE: u32 = 0;
/// `Degrading { .. }` — still a full chain member.
pub const DEGRADING: u32 = 1;
/// `Evacuating { .. }` — draining toward the deadline.
pub const EVACUATING: u32 = 2;
/// `Offline` — spliced out, zero residency.
pub const OFFLINE: u32 = 3;
/// `Rejoining` — back but not yet re-admitted.
pub const REJOINING: u32 = 4;

/// Saturating residency levels: no resident pages, some, or more (the
/// third level keeps "drain one page" from collapsing into "drained").
pub const MAX_RESIDENCY: u32 = 2;

/// Total packed state space: 3 health bits, 2 residency bits, 1 in-flight
/// bit. Encodings with health > [`REJOINING`] or residency >
/// [`MAX_RESIDENCY`] are simply never produced or visited.
pub const HEALTH_STATE_SPACE: usize = 1 << 6;

/// Packs `(health, residency, inflight)` into one state word.
pub fn pack(health: u32, residency: u32, inflight: bool) -> u32 {
    debug_assert!(health <= REJOINING && residency <= MAX_RESIDENCY);
    (health << 3) | (residency << 1) | u32::from(inflight)
}

/// Health code of a packed state.
pub fn health_of(s: u32) -> u32 {
    s >> 3
}

/// Residency level of a packed state.
pub fn residency_of(s: u32) -> u32 {
    (s >> 1) & 0b11
}

/// Whether an evacuation copy is in flight off the tier.
pub fn inflight_of(s: u32) -> bool {
    s & 1 != 0
}

/// Whether the packed health accepts new residency — the model-side
/// mirror of [`tiered_mem::TierHealth::accepts_pages`].
fn accepts_pages(s: u32) -> bool {
    matches!(health_of(s), ONLINE | DEGRADING)
}

/// The full transition relation. Each entry cites the `TieredSystem` code
/// it abstracts; guards and effects must be kept in sync with those sites
/// (the committed golden fails loudly when they drift).
pub fn health_transitions() -> Vec<Transition> {
    vec![
        // demand_map / begin_migrate_txn admission: only a tier whose
        // health accepts_pages() ever gains residency.
        Transition {
            name: "admit_page",
            apply: |s| {
                if accepts_pages(s) && residency_of(s) < MAX_RESIDENCY {
                    vec![pack(health_of(s), residency_of(s) + 1, inflight_of(s))]
                } else {
                    vec![]
                }
            },
        },
        // Ordinary migration-out, swap-out, or unmap: any chain member
        // (including an Evacuating donor — swapping accelerates the
        // drain) can lose residency at any time. An open evacuation copy
        // pins its source page: every unmap path (swap_out, split) aborts
        // the in-flight transaction first, which in the model is
        // evac_fault followed by this.
        Transition {
            name: "page_leave",
            apply: |s| {
                if health_of(s) <= EVACUATING && residency_of(s) > u32::from(inflight_of(s)) {
                    vec![pack(health_of(s), residency_of(s) - 1, inflight_of(s))]
                } else {
                    vec![]
                }
            },
        },
        // apply_tier_event(Degrade): Online → Degrading. A Degrade event
        // on an already-Degrading tier just extends the window.
        Transition {
            name: "degrade_event",
            apply: |s| {
                if matches!(health_of(s), ONLINE | DEGRADING) {
                    vec![pack(DEGRADING, residency_of(s), inflight_of(s))]
                } else {
                    vec![]
                }
            },
        },
        // The degrade window lapsing on the clock: Degrading → Online.
        Transition {
            name: "degrade_expire",
            apply: |s| {
                if health_of(s) == DEGRADING {
                    vec![pack(ONLINE, residency_of(s), inflight_of(s))]
                } else {
                    vec![]
                }
            },
        },
        // apply_tier_event(Offline { deadline }): a live chain member
        // enters Evacuating; copies INTO the tier are aborted first, so
        // no new residency arrives from here on.
        Transition {
            name: "offline_event",
            apply: |s| {
                if accepts_pages(s) {
                    vec![pack(EVACUATING, residency_of(s), inflight_of(s))]
                } else {
                    vec![]
                }
            },
        },
        // pump_evacuation: the emergency lane opens an evacuation copy
        // off the tier (bounded by edge bandwidth and admission).
        Transition {
            name: "evac_issue",
            apply: |s| {
                if health_of(s) == EVACUATING && residency_of(s) > 0 && !inflight_of(s) {
                    vec![pack(EVACUATING, residency_of(s), true)]
                } else {
                    vec![]
                }
            },
        },
        // complete_txn on an evacuation transaction: the page is rehomed
        // (or spilled to swap) and leaves the tier. An Online event can
        // cancel the drain while the copy is in flight, so completion is
        // legal in any chain-member health, not just Evacuating.
        Transition {
            name: "evac_complete",
            apply: |s| {
                if health_of(s) <= EVACUATING && inflight_of(s) && residency_of(s) > 0 {
                    vec![pack(health_of(s), residency_of(s) - 1, false)]
                } else {
                    vec![]
                }
            },
        },
        // abort_migration on an evacuation transaction (write race,
        // swap-out of the source, or device fault): the copy retires into
        // evac_faulted_pages and the page stays put — the next pump
        // re-issues it fresh.
        Transition {
            name: "evac_fault",
            apply: |s| {
                if health_of(s) <= EVACUATING && inflight_of(s) {
                    vec![pack(health_of(s), residency_of(s), false)]
                } else {
                    vec![]
                }
            },
        },
        // The deadline passing: pump_evacuation switches to the forced
        // synchronous drain — open copies aborted, every remaining page
        // rehomed or swapped in one pass.
        Transition {
            name: "forced_drain",
            apply: |s| {
                if health_of(s) == EVACUATING {
                    vec![pack(EVACUATING, 0, false)]
                } else {
                    vec![]
                }
            },
        },
        // finish_offline: only a fully drained tier (no residency, no
        // open evacuation) goes Offline; its frames are offlined and the
        // chain spliced around it.
        Transition {
            name: "finish_offline",
            apply: |s| {
                if health_of(s) == EVACUATING && residency_of(s) == 0 && !inflight_of(s) {
                    vec![pack(OFFLINE, 0, false)]
                } else {
                    vec![]
                }
            },
        },
        // apply_tier_event(Online) mid-evacuation: the drain is called
        // off and the tier resumes as a full member, pages still on it.
        // Open evacuation copies are not aborted — they retire normally.
        Transition {
            name: "online_event_cancels_drain",
            apply: |s| {
                if health_of(s) == EVACUATING {
                    vec![pack(ONLINE, residency_of(s), inflight_of(s))]
                } else {
                    vec![]
                }
            },
        },
        // apply_tier_event(Online) on an Offline tier: the device is
        // back; frames restore but the splice holds until re-admission.
        Transition {
            name: "online_event_rejoins",
            apply: |s| {
                if health_of(s) == OFFLINE {
                    vec![pack(REJOINING, 0, false)]
                } else {
                    vec![]
                }
            },
        },
        // The next migration-completion pass re-splices the chain and
        // re-admits the tier: Rejoining → Online, still empty.
        Transition {
            name: "readmit",
            apply: |s| {
                if health_of(s) == REJOINING {
                    vec![pack(ONLINE, 0, false)]
                } else {
                    vec![]
                }
            },
        },
    ]
}

/// The declared legal-state rules for the tier lifecycle.
pub fn health_legality_rules() -> Vec<LegalityRule> {
    vec![
        // The headline invariant: an Offline tier holds nothing — no
        // resident pages and no open evacuation copy. The runtime twin is
        // the oracle's `tier_offline_residency` check.
        LegalityRule {
            name: "offline_holds_nothing",
            illegal: |s| health_of(s) == OFFLINE && (residency_of(s) > 0 || inflight_of(s)),
        },
        // A Rejoining tier came back from Offline and has not been
        // re-admitted: it must still be empty.
        LegalityRule {
            name: "rejoining_is_empty",
            illegal: |s| health_of(s) == REJOINING && (residency_of(s) > 0 || inflight_of(s)),
        },
        // An open evacuation copy has a source page still on the tier —
        // every unmap path aborts the transaction before taking the page.
        LegalityRule {
            name: "evac_txn_requires_residency",
            illegal: |s| inflight_of(s) && residency_of(s) == 0,
        },
    ]
}

/// Human label for a packed state's health code.
fn health_label(code: u32) -> &'static str {
    match code {
        ONLINE => "online",
        DEGRADING => "degrading",
        EVACUATING => "evacuating",
        OFFLINE => "offline",
        REJOINING => "rejoining",
        _ => "invalid",
    }
}

/// Renders a packed state for reports: `health/res=N[/evac]`.
pub fn describe_health_state(s: u32) -> String {
    let mut out = format!("{}/res={}", health_label(health_of(s)), residency_of(s));
    if inflight_of(s) {
        out.push_str("/evac");
    }
    out
}

/// Enumerates the exact reachable set from the fresh state (`Online`,
/// empty, no evacuation in flight) under `ts`, then applies `rules`.
pub fn check_health_model(ts: &[Transition], rules: &[LegalityRule]) -> ModelReport {
    explore(pack(ONLINE, 0, false), HEALTH_STATE_SPACE, ts, rules)
}

/// Renders a report in the committed-golden format: a header, then one
/// line per reachable state (`hex  description`).
pub fn render_health_report(report: &ModelReport) -> String {
    let mut out = String::new();
    out.push_str(
        "# Tier failure-domain lifecycle reachability (regenerate: harness model-check --bless)\n",
    );
    out.push_str(&format!(
        "# reachable: {} of {} packed states (5 health x 3 residency x 2 evac-in-flight)\n",
        report.reachable.len(),
        HEALTH_STATE_SPACE,
    ));
    for &s in &report.reachable {
        out.push_str(&format!("{:02x} {}\n", s, describe_health_state(s)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_clock::Nanos;
    use tiered_mem::TierHealth;

    #[test]
    fn health_codes_mirror_tier_health() {
        // The model-side codes must mirror TierHealth::code exactly, or
        // the model checks a lifecycle the substrate does not run.
        for (code, h) in [
            (ONLINE, TierHealth::Online),
            (DEGRADING, TierHealth::Degrading { until: Nanos(1) }),
            (EVACUATING, TierHealth::Evacuating { deadline: Nanos(1) }),
            (OFFLINE, TierHealth::Offline),
            (REJOINING, TierHealth::Rejoining),
        ] {
            assert_eq!(code, u32::from(h.code()));
            // And the model's admission guard mirrors accepts_pages.
            assert_eq!(accepts_pages(pack(code, 1, false)), h.accepts_pages());
        }
    }

    #[test]
    fn reachable_lifecycle_is_legal_and_complete() {
        let report = check_health_model(&health_transitions(), &health_legality_rules());
        let pretty: Vec<String> = report
            .illegal
            .iter()
            .map(|(s, r)| format!("{r}: {:02x} {}", s, describe_health_state(*s)))
            .collect();
        assert!(
            pretty.is_empty(),
            "illegal reachable states:\n{}",
            pretty.join("\n")
        );
        assert!(
            report.dead_transitions.is_empty(),
            "dead: {:?}",
            report.dead_transitions
        );
        // Key lifecycle states must be reachable...
        for (state, why) in [
            (
                pack(EVACUATING, MAX_RESIDENCY, true),
                "mid-drain with a copy in flight",
            ),
            (pack(OFFLINE, 0, false), "fully offlined tier"),
            (
                pack(REJOINING, 0, false),
                "device back, awaiting re-admission",
            ),
            (pack(DEGRADING, MAX_RESIDENCY, false), "degraded but loaded"),
            (
                pack(ONLINE, 1, true),
                "drain cancelled with the copy still in flight",
            ),
        ] {
            assert!(report.reachable.contains(&state), "{why} must be reachable");
        }
        // ...and the illegal ones must not be.
        for (state, why) in [
            (pack(OFFLINE, 1, false), "offline tier with residency"),
            (
                pack(OFFLINE, 0, true),
                "offline tier with an open evac copy",
            ),
            (pack(REJOINING, 1, false), "rejoining tier with residency"),
            (
                pack(ONLINE, 0, true),
                "evac copy with no source page resident",
            ),
        ] {
            assert!(
                !report.reachable.contains(&state),
                "{why} must be unreachable"
            );
        }
    }

    #[test]
    fn self_test_offline_with_residency_is_caught() {
        // The checker must actually be able to fail: inject a buggy
        // finish_offline that skips the drained-and-idle guard (the exact
        // bug the runtime oracle's tier_offline_residency invariant
        // exists to catch) and assert the violation is reported against
        // the right rule.
        let mut ts = health_transitions();
        ts.push(Transition {
            name: "buggy_finish_offline_without_drain",
            apply: |s| {
                if health_of(s) == EVACUATING && residency_of(s) > 0 {
                    vec![pack(OFFLINE, residency_of(s), inflight_of(s))]
                } else {
                    vec![]
                }
            },
        });
        let report = check_health_model(&ts, &health_legality_rules());
        assert!(
            report
                .illegal
                .iter()
                .any(|(s, rule)| *rule == "offline_holds_nothing"
                    && health_of(*s) == OFFLINE
                    && residency_of(*s) > 0),
            "injected Offline-with-residency transition was not reported"
        );
    }

    #[test]
    fn render_is_stable_and_parseable() {
        let report = check_health_model(&health_transitions(), &[]);
        let text = render_health_report(&report);
        assert!(text.starts_with("# Tier failure-domain lifecycle reachability"));
        let body: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(body.len(), report.reachable.len());
        assert!(body[0].starts_with("00 online/res=0"));
    }

    #[test]
    #[ignore = "writes the tier-health golden; run explicitly to (re)bless it"]
    fn bless_tier_health_golden_only() {
        let report = check_health_model(&health_transitions(), &health_legality_rules());
        assert!(report.illegal.is_empty() && report.dead_transitions.is_empty());
        let path = crate::tier_health_golden_path();
        std::fs::write(&path, render_health_report(&report)).expect("write tier-health golden");
    }
}
