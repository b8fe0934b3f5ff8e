//! Exhaustive small-scope model checking of the page lifecycle.
//!
//! The state of one page, as far as the substrate and every policy are
//! concerned, is its 16-bit [`PageFlags`] word (the residency tier is the
//! two-bit index spread across `TIER_LO`/`TIER_HI`) plus one bit of
//! promotion-queue membership. That is 2^17 = 131072 states — small enough
//! to enumerate the reachable set *exactly* rather than sample it, which is
//! the whole trick: the transition relation below restates, as pure
//! functions, what `TieredSystem`, `AddressSpace`, `ChronoPolicy`, and the
//! baseline policies actually do to a page's flags (scan-unmap, hint-fault,
//! DCSC probes, candidate filtering, enqueue, two-phase migration
//! begin/abort/complete along adjacent tier edges, split, swap-out/in,
//! reclaim, LRU rotation), and a BFS from the zero state visits everything
//! those functions can ever produce.
//!
//! Two consumers:
//!
//! - `harness model-check` asserts that no reachable state violates the
//!   declared [`legality_rules`] (e.g. `PROT_NONE ∧ ¬PRESENT`,
//!   `HUGE_HEAD ∧ HUGE_SPLIT`, `PRESENT ∧ SWAPPED` must be unreachable) and
//!   diffs the rendered reachable set against the committed golden.
//! - The tiering-verify oracle calls [`flag_word_reachable`] after every
//!   fuzz op: every flag word observed at runtime must be ⊆ the statically
//!   reachable set (the runtime ⊆ static *bridge check*). The model is a
//!   deliberate over-approximation — transitions fire from any state
//!   satisfying their guard, ignoring cross-page context — so the bridge
//!   direction is sound: a runtime word outside the set is always a bug in
//!   either the substrate or the model's claims, never fuzzer bad luck.

use std::sync::OnceLock;

use tiered_mem::{PageFlags, MAX_TIERS};

/// Model-only bit: the page sits in a policy promotion queue. Lives just
/// above the real flag bits so one `u32` holds the whole model state.
pub const QUEUED: u32 = 1 << PageFlags::BITS;

/// Total model state space: every flag bit plus the queued bit.
pub const STATE_SPACE: usize = 1 << (PageFlags::BITS + 1);

const P: u32 = PageFlags::PRESENT as u32;
const PN: u32 = PageFlags::PROT_NONE as u32;
const A: u32 = PageFlags::ACCESSED as u32;
const D: u32 = PageFlags::DIRTY as u32;
const PB: u32 = PageFlags::PROBED as u32;
const DEM: u32 = PageFlags::DEMOTED as u32;
const HH: u32 = PageFlags::HUGE_HEAD as u32;
const HS: u32 = PageFlags::HUGE_SPLIT as u32;
const TL: u32 = PageFlags::TIER_LO as u32;
const TH: u32 = PageFlags::TIER_HI as u32;
const LA: u32 = PageFlags::LRU_ACTIVE as u32;
const C: u32 = PageFlags::CANDIDATE as u32;
const POL: u32 = PageFlags::POLICY_BIT as u32;
const SW: u32 = PageFlags::SWAPPED as u32;
const MIG: u32 = PageFlags::MIGRATING as u32;
const PSN: u32 = PageFlags::POISONED as u32;
const MASK: u32 = PageFlags::MASK as u32;

fn has(s: u32, m: u32) -> bool {
    s & m == m
}

/// Decodes the residency tier index from the two tier bits (`TIER_LO` is
/// stored inverted) — the model-side mirror of `PageFlags::tier`.
fn tier_of(s: u32) -> u8 {
    (u8::from(s & TH != 0) << 1) | u8::from(s & TL == 0)
}

/// Encodes tier index `t` into the tier bits of `s` — the model-side mirror
/// of `PageFlags::set_tier`.
fn with_tier(s: u32, t: u8) -> u32 {
    debug_assert!((t as usize) < MAX_TIERS);
    let mut s = s & !(TL | TH);
    if t & 1 == 0 {
        s |= TL;
    }
    if t >> 1 != 0 {
        s |= TH;
    }
    s
}

/// Whether the page sits in the top (fast) tier.
fn in_fast(s: u32) -> bool {
    tier_of(s) == 0
}

/// Flag bits a never-mapped huge-block tail entry can carry: its tier (set
/// by `demand_map`/`migrate` on the whole block) and the accessed/dirty
/// stamps `TieredSystem::access` leaves on the faulted base offset.
const TAIL_MASK: u32 = TL | TH | A | D;

/// One named transition of a lifecycle model (this page model or the
/// tier-health model): `apply` returns every successor state (empty when
/// the guard rejects the state).
pub struct Transition {
    /// Name used in reports and the self-test.
    pub name: &'static str,
    /// The pure transition function.
    pub apply: fn(u32) -> Vec<u32>,
}

/// The full transition relation. Each entry cites the code it abstracts;
/// guards and effects must be kept in sync with those sites (the bridge
/// check and the committed golden both fail loudly when they drift).
pub fn transitions() -> Vec<Transition> {
    vec![
        // TieredSystem::access → demand_map (+ swap-in): maps the PTE page,
        // clearing SWAPPED, choosing a tier (pick_alloc_tier can spill into
        // any tier of the chain), optionally as a huge head, and inserting
        // into the active LRU; the access then stamps A (and D on writes).
        // A split block can never be huge-mapped again.
        Transition {
            name: "demand_fault",
            apply: |s| {
                if has(s, P) {
                    return vec![];
                }
                let mut out = Vec::new();
                for tier in 0..MAX_TIERS as u8 {
                    for dirty in [0, D] {
                        let base = (with_tier(s & !SW, tier) | P | LA | A | dirty) & !PN;
                        out.push(base);
                        if !has(s, HS) {
                            out.push(base | HH);
                        }
                    }
                }
                out
            },
        },
        // TieredSystem::access on a present page: a hint fault consumes
        // PROT_NONE; the hardware bits are stamped.
        Transition {
            name: "access_present",
            apply: |s| {
                if !has(s, P) {
                    return vec![];
                }
                vec![(s & !PN) | A, (s & !PN) | A | D]
            },
        },
        // demand_map/migrate on a huge block: tail entries (never PRESENT
        // while the block is intact) get only their tier flipped.
        Transition {
            name: "tail_set_tier",
            apply: |s| {
                if has(s, P) || s & !TAIL_MASK != 0 {
                    return vec![];
                }
                (0..MAX_TIERS as u8).map(|t| with_tier(s, t)).collect()
            },
        },
        // TieredSystem::access on a huge mapping: the faulted base offset's
        // tail entry is stamped A/D without ever becoming PRESENT.
        Transition {
            name: "tail_touch",
            apply: |s| {
                if has(s, P) || s & !TAIL_MASK != 0 {
                    return vec![];
                }
                vec![s | A, s | A | D]
            },
        },
        // Ticking-scan / NUMA-balancing scan: poison a present PTE. The
        // linux_nb and autotiering scanners poison every tier, so the guard
        // is presence alone.
        Transition {
            name: "scan_unmap",
            apply: |s| if has(s, P) { vec![s | PN] } else { vec![] },
        },
        // ChronoPolicy::issue_probes: PG_probed + PROT_NONE on a present,
        // unpoisoned, unprobed page.
        Transition {
            name: "probe_issue",
            apply: |s| {
                if has(s, P) && !has(s, PN) && !has(s, PB) {
                    vec![s | PB | PN]
                } else {
                    vec![]
                }
            },
        },
        // ChronoPolicy::handle_probe_fault, first round: re-arm the poison,
        // keeping PG_probed.
        Transition {
            name: "probe_rearm",
            apply: |s| {
                if has(s, P | PB) && !has(s, PN) {
                    vec![s | PN]
                } else {
                    vec![]
                }
            },
        },
        // ChronoPolicy::handle_probe_fault, second round: the probe
        // completes (the hint fault itself already cleared PROT_NONE).
        Transition {
            name: "probe_complete",
            apply: |s| {
                if has(s, P | PB) && !has(s, PN) {
                    vec![s & !PB]
                } else {
                    vec![]
                }
            },
        },
        // ChronoPolicy::expire_stale_probes: drop the probe and its poison.
        Transition {
            name: "probe_expire",
            apply: |s| {
                if has(s, PB) {
                    vec![s & !(PB | PN)]
                } else {
                    vec![]
                }
            },
        },
        // ChronoPolicy::handle_scan_fault (and the memtis/flexmem deferred
        // queues): a page below the top tier that passed the candidate
        // filter is marked CANDIDATE and enqueued for promotion.
        Transition {
            name: "candidate_enqueue",
            apply: |s| {
                if has(s, P) && !in_fast(s) && !has(s, C) {
                    vec![s | C | QUEUED]
                } else {
                    vec![]
                }
            },
        },
        // PromotionQueue drain / deferred-queue drop: leaving the queue
        // always clears CANDIDATE (promotion itself is a separate step).
        Transition {
            name: "dequeue",
            apply: |s| {
                if has(s, QUEUED) {
                    vec![s & !(QUEUED | C)]
                } else {
                    vec![]
                }
            },
        },
        // TieredSystem::begin_migrate: opens a two-phase transaction on the
        // head of a present unit that is not already in flight. The PTE is
        // otherwise untouched — the old copy keeps serving reads.
        Transition {
            name: "migrate_begin",
            apply: |s| {
                if has(s, P) && !has(s, MIG) {
                    vec![s | MIG]
                } else {
                    vec![]
                }
            },
        },
        // TieredSystem::abort_migration: a write to the in-flight unit (or
        // a split/swap-out racing the copy) kills the transaction. The
        // write-abort path re-dirties; the split/swap paths just clear.
        Transition {
            name: "migrate_abort",
            apply: |s| {
                if has(s, P | MIG) {
                    vec![s & !MIG, (s & !MIG) | D]
                } else {
                    vec![]
                }
            },
        },
        // TieredSystem::complete_txn on an up edge (both the compat
        // `migrate` wrapper and clock-driven completion retire through it):
        // the page moves one tier toward the top, clearing the transaction
        // mark and the transient marks (poison, candidacy, probe, thrash
        // watch, frame poisoning — the bad source frame is quarantined, the
        // page now sits on a healthy one), landing on the active LRU of the
        // destination tier.
        Transition {
            name: "promote",
            apply: |s| {
                let t = tier_of(s);
                if has(s, P | MIG) && t > 0 {
                    vec![with_tier(s & !(PN | C | PB | DEM | MIG | PSN), t - 1) | LA]
                } else {
                    vec![]
                }
            },
        },
        // TieredSystem::complete_txn on a down edge: same clears minus the
        // thrash watch; lands on the inactive LRU one tier below.
        Transition {
            name: "demote",
            apply: |s| {
                let t = tier_of(s);
                if has(s, P | MIG) && (t as usize) < MAX_TIERS - 1 {
                    vec![with_tier(s & !(PN | C | PB | LA | MIG | PSN), t + 1)]
                } else {
                    vec![]
                }
            },
        },
        // TieredSystem::poison_frame (fault injection): an uncorrectable
        // error marks the resident page; any in-flight transaction is
        // aborted first, and huge mappings are split before the specific
        // base page is marked, so neither MIG nor HUGE_HEAD co-occur with
        // the poisoning itself. Soft-offline then retires the page through
        // the ordinary migrate (promote/demote clear PSN and quarantine the
        // bad frame) or swap-out paths.
        Transition {
            name: "frame_poison",
            apply: |s| {
                if has(s, P) && !has(s, MIG) && !has(s, PSN) && !has(s, HH) {
                    vec![s | PSN]
                } else {
                    vec![]
                }
            },
        },
        // ChronoPolicy::proactive_demote, after a successful demotion: arm
        // the thrashing monitor and poison for the re-fault.
        Transition {
            name: "thrash_arm",
            apply: |s| {
                if has(s, P) && !in_fast(s) {
                    vec![s | DEM | PN]
                } else {
                    vec![]
                }
            },
        },
        // ChronoPolicy::handle_scan_fault on a watched page: the thrash is
        // recorded and the watch cleared.
        Transition {
            name: "thrash_clear",
            apply: |s| {
                if has(s, P | DEM) && !in_fast(s) {
                    vec![s & !DEM]
                } else {
                    vec![]
                }
            },
        },
        // flexmem's two-touch marker: POLICY_BIT toggles on present
        // lower-tier pages (it may then persist across promotions).
        Transition {
            name: "policy_bit_toggle",
            apply: |s| {
                if has(s, P) && !in_fast(s) {
                    vec![s | POL, s & !POL]
                } else {
                    vec![]
                }
            },
        },
        // Clock-style scanners (telescope, multiclock) and LRU aging read
        // and clear the accessed bit of present pages.
        Transition {
            name: "clear_accessed",
            apply: |s| if has(s, P) { vec![s & !A] } else { vec![] },
        },
        // lru_insert(Active|Inactive) via aging, rotation, or the fuzzer's
        // LruMove: flips the list bit of a present page.
        Transition {
            name: "lru_rotate",
            apply: |s| {
                if has(s, P) {
                    vec![s | LA, s & !LA]
                } else {
                    vec![]
                }
            },
        },
        // TieredSystem::swap_out: an in-flight migration is aborted first,
        // then the head loses presence and every transient mark; the tier
        // bits, LRU_ACTIVE, HUGE_HEAD, HUGE_SPLIT and POLICY_BIT are left
        // stale (and queue membership is unaffected — the drain discovers
        // the eviction later). A poisoned page's freed frame is quarantined
        // and the mark cleared — the swap copy is clean data on a clean
        // device.
        Transition {
            name: "swap_out",
            apply: |s| {
                if has(s, P) {
                    vec![(s & !(P | PN | A | D | PB | DEM | C | MIG | PSN)) | SW]
                } else {
                    vec![]
                }
            },
        },
        // TieredSystem::split_block: an in-flight migration of the block is
        // aborted, then the head trades HUGE_HEAD for HUGE_SPLIT; every
        // tail inherits the head's post-abort word minus HUGE_HEAD (tails
        // keep their own pfn/stamp but not their flags).
        Transition {
            name: "split",
            apply: |s| {
                if has(s, HS) {
                    return vec![];
                }
                vec![(s | HS) & !(HH | MIG), s & !(HH | MIG)]
            },
        },
    ]
}

/// A legality predicate over model states: `illegal` returns true for
/// states that must be unreachable. The page model's rules read flag bits
/// only, never [`QUEUED`].
pub struct LegalityRule {
    /// Stable name used in reports.
    pub name: &'static str,
    /// The predicate (true ⇒ the state is illegal).
    pub illegal: fn(u32) -> bool,
}

/// The declared legal-state rules. These are the combination rules that
/// previously lived only in comments and the runtime oracle.
pub fn legality_rules() -> Vec<LegalityRule> {
    vec![
        // A poisoned PTE with nothing mapped (covers PROT_NONE ∧ SWAPPED):
        // a hint fault on it would demand-map instead of hinting.
        LegalityRule {
            name: "prot_none_requires_present",
            illegal: |s| has(s, PN) && !has(s, P),
        },
        // A page cannot be both resident and on the swap device.
        LegalityRule {
            name: "present_excludes_swapped",
            illegal: |s| has(s, P | SW),
        },
        // A block is either an intact huge mapping or split, never both.
        LegalityRule {
            name: "huge_head_excludes_split",
            illegal: |s| has(s, HH | HS),
        },
        // The thrashing monitor only watches resident lower-tier pages.
        LegalityRule {
            name: "demoted_requires_present",
            illegal: |s| has(s, DEM) && !has(s, P),
        },
        LegalityRule {
            name: "demoted_excludes_fast",
            illegal: |s| has(s, DEM) && in_fast(s),
        },
        // Promotion candidacy means "resident below the top tier".
        LegalityRule {
            name: "candidate_requires_present",
            illegal: |s| has(s, C) && !has(s, P),
        },
        LegalityRule {
            name: "candidate_excludes_fast",
            illegal: |s| has(s, C) && in_fast(s),
        },
        // A DCSC probe outlives neither its page nor a migration.
        LegalityRule {
            name: "probed_requires_present",
            illegal: |s| has(s, PB) && !has(s, P),
        },
        // swap_out scrubs the hardware bits; nothing re-stamps a swapped
        // page without first demand-mapping it.
        LegalityRule {
            name: "swapped_is_clean",
            illegal: |s| has(s, SW) && s & (A | D) != 0,
        },
        // A migration transaction is only ever open on a mapped head; every
        // unmap path (swap-out, split of the head) aborts it first.
        LegalityRule {
            name: "migrating_requires_present",
            illegal: |s| has(s, MIG) && !has(s, P),
        },
        // Frame poisoning marks a *resident* page awaiting soft-offline;
        // every unmap path (migrate-complete, swap-out) quarantines the bad
        // frame and clears the mark in the same step.
        LegalityRule {
            name: "poisoned_requires_present",
            illegal: |s| has(s, PSN) && !has(s, P),
        },
        // Huge mappings are split before the specific base page is marked,
        // so an intact huge head is never itself poisoned.
        LegalityRule {
            name: "poisoned_excludes_huge_head",
            illegal: |s| has(s, PSN | HH),
        },
    ]
}

/// Result of one exhaustive enumeration.
pub struct ModelReport {
    /// Every reachable state word, sorted.
    pub reachable: Vec<u32>,
    /// Reachable states violating a legality rule, with the rule name.
    pub illegal: Vec<(u32, &'static str)>,
    /// Transitions that never fired from any reachable state (dead
    /// transitions indicate a guard typo).
    pub dead_transitions: Vec<&'static str>,
}

/// Enumerates the exact reachable set of a model whose states are the
/// words below `space`, from `start` under `ts`, then applies `rules` to
/// every reachable state.
pub fn explore(start: u32, space: usize, ts: &[Transition], rules: &[LegalityRule]) -> ModelReport {
    let mut seen = vec![false; space];
    let mut fired = vec![false; ts.len()];
    let mut frontier = vec![start];
    seen[start as usize] = true;
    while let Some(s) = frontier.pop() {
        for (i, t) in ts.iter().enumerate() {
            for succ in (t.apply)(s) {
                debug_assert!(
                    (succ as usize) < space,
                    "{} produced out-of-space state {succ:#x}",
                    t.name
                );
                fired[i] = true;
                if !seen[succ as usize] {
                    seen[succ as usize] = true;
                    frontier.push(succ);
                }
            }
        }
    }
    let reachable: Vec<u32> = (0..space).filter(|&s| seen[s]).map(|s| s as u32).collect();
    let mut illegal = Vec::new();
    for &s in &reachable {
        for r in rules {
            if (r.illegal)(s) {
                illegal.push((s, r.name));
            }
        }
    }
    let dead_transitions = ts
        .iter()
        .zip(&fired)
        .filter(|(_, &f)| !f)
        .map(|(t, _)| t.name)
        .collect();
    ModelReport {
        reachable,
        illegal,
        dead_transitions,
    }
}

/// Enumerates the page lifecycle from the zero state (a fresh
/// `PageEntry::default()` word) under `ts`, then applies `rules`. States
/// are flag bits plus [`QUEUED`].
pub fn check_model(ts: &[Transition], rules: &[LegalityRule]) -> ModelReport {
    explore(0, STATE_SPACE, ts, rules)
}

/// Words in the flag-word reachability bitmap (one bit per possible word).
const BITMAP_WORDS: usize = (1usize << PageFlags::BITS) / 64;

/// The statically reachable *flag-word* projection (queue bit dropped),
/// as a bitmap over every possible flag word. Computed once, lazily.
fn reachable_words() -> &'static [u64; BITMAP_WORDS] {
    static WORDS: OnceLock<[u64; BITMAP_WORDS]> = OnceLock::new();
    WORDS.get_or_init(|| {
        let report = check_model(&transitions(), &[]);
        let mut bits = [0u64; BITMAP_WORDS];
        for s in report.reachable {
            let w = s & MASK;
            bits[(w >> 6) as usize] |= 1 << (w & 63);
        }
        bits
    })
}

/// The bridge check: whether a runtime-observed `PageFlags` word is inside
/// the statically reachable set. Every word the substrate can legitimately
/// produce must satisfy this; the tiering-verify oracle asserts it after
/// every fuzz op.
pub fn flag_word_reachable(word: u16) -> bool {
    let w = word as u32;
    reachable_words()[(w >> 6) as usize] & (1 << (w & 63)) != 0
}

/// Renders a report in the committed-golden format: a header, then one
/// line per reachable state (`hex  [Q|]NAMES`).
pub fn render_report(report: &ModelReport) -> String {
    let mut out = String::new();
    out.push_str("# PageFlags lifecycle reachability (regenerate: harness model-check --bless)\n");
    out.push_str(&format!(
        "# reachable: {} of {} states ({} flag bits + queued)\n",
        report.reachable.len(),
        STATE_SPACE,
        PageFlags::BITS,
    ));
    let words: std::collections::BTreeSet<u32> =
        report.reachable.iter().map(|&s| s & MASK).collect();
    out.push_str(&format!("# distinct flag words: {}\n", words.len()));
    for &s in &report.reachable {
        let q = if s & QUEUED != 0 { "Q|" } else { "" };
        out.push_str(&format!(
            "{:05x} {}{}\n",
            s,
            q,
            PageFlags::from_bits((s & MASK) as u16).describe()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The historical fast-tier word shape: `TIER_LO` set, `TIER_HI` clear —
    /// exactly the old single-bit `IN_FAST` encoding.
    const F: u32 = TL;

    #[test]
    fn reachable_set_is_legal_and_nontrivial() {
        let report = check_model(&transitions(), &legality_rules());
        let pretty: Vec<String> = report
            .illegal
            .iter()
            .map(|(s, r)| {
                format!(
                    "{r}: {:05x} {}",
                    s,
                    PageFlags::from_bits((s & MASK) as u16).describe()
                )
            })
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
        // Sanity bounds: far more than the handful of states a trivial
        // model would produce, far less than the whole space.
        assert!(report.reachable.len() > 100, "{}", report.reachable.len());
        assert!(
            report.reachable.len() < STATE_SPACE / 2,
            "{}",
            report.reachable.len()
        );
    }

    #[test]
    fn tier_codec_matches_page_flags() {
        // The model-side tier codec must mirror PageFlags::tier/set_tier
        // exactly, or the bridge check silently diverges from the substrate.
        for t in 0..MAX_TIERS as u8 {
            let s = with_tier(P | A, t);
            assert_eq!(tier_of(s), t);
            let mut f = PageFlags::from_bits((P | A) as u16);
            f.set_tier(tiered_mem::TierId(t));
            assert_eq!(s, f.bits() as u32);
        }
        // The zero state decodes as tier 1 (slow), like a default entry.
        assert_eq!(tier_of(0), 1);
        assert!(in_fast(F));
    }

    #[test]
    fn key_states_classified_correctly() {
        // Paper-meaningful states that must be reachable.
        for (word, why) in [
            (0u32, "fresh entry"),
            (P | A | LA | F, "hot fast page on the active list"),
            (P | PN | PB, "mid-probe DCSC page"),
            (P | DEM | PN, "thrash-watched page after proactive demotion"),
            (P | C, "enqueued candidate"),
            (SW | LA | F, "swapped page with stale fast/LRU bits"),
            (P | HS | A, "present head of a split block"),
            (A | D | F, "touched tail of an intact fast huge block"),
            (
                P | A | LA | F | MIG,
                "fast page mid-demotion, copy in flight",
            ),
            (
                P | A | D | MIG,
                "slow page mid-promotion after a write-abort race",
            ),
            (P | PSN | A, "poisoned resident page awaiting soft-offline"),
            (
                P | PSN | MIG | F,
                "poisoned fast page with the soft-offline copy in flight",
            ),
            (P | PSN | HS, "poisoned base page of a split huge block"),
            // Deep-chain states: the tier-2 and tier-3 encodings.
            (with_tier(P | A | LA, 2), "hot page resident in tier 2"),
            (with_tier(P | C, 3) | QUEUED, "queued candidate in tier 3"),
            (
                with_tier(P | DEM | PN, 2),
                "thrash-watched page demoted into tier 2",
            ),
            (with_tier(A | D, 3), "touched tail of a tier-3 huge block"),
        ] {
            assert!(
                flag_word_reachable((word & MASK) as u16),
                "{why}: {:05x} should be reachable",
                word
            );
        }
        // Declared-illegal states that must not be.
        for (word, why) in [
            (PN, "poison without presence"),
            (P | SW, "present and swapped"),
            (HH | HS | P, "head and split at once"),
            (DEM, "thrash watch on an unmapped page"),
            (C | F | P, "fast-tier candidate"),
            (SW | D, "dirty swapped page"),
            (MIG, "transaction on an unmapped page"),
            (SW | MIG, "transaction on a swapped page"),
            (PSN, "poison mark on an unmapped page"),
            (SW | PSN, "poison mark surviving a swap-out"),
            (P | PSN | HH, "poison mark on an intact huge head"),
        ] {
            assert!(
                !flag_word_reachable(word as u16),
                "{why}: {:05x} should be unreachable",
                word
            );
        }
        // TIER_HI alone is a valid word now: an unmapped tier-3 tail. The
        // old model asserted bit 15 unreachable; the tier-index encoding
        // deliberately claimed it.
        assert!(flag_word_reachable(PageFlags::TIER_HI));
    }

    #[test]
    fn self_test_injected_illegal_transition_is_reported() {
        // The model checker must actually be able to fail: add a buggy
        // transition that arms the thrashing monitor without checking
        // presence (the guard the real proactive_demote relies on) and
        // assert the violation is caught and attributed.
        let mut ts = transitions();
        ts.push(Transition {
            name: "buggy_thrash_arm_without_present",
            apply: |s| if !has(s, P) { vec![s | DEM] } else { vec![] },
        });
        let report = check_model(&ts, &legality_rules());
        assert!(
            report
                .illegal
                .iter()
                .any(|(s, rule)| *rule == "demoted_requires_present" && !has(*s, P)),
            "injected illegal transition was not reported"
        );
    }

    #[test]
    fn render_is_stable_and_parseable() {
        let report = check_model(&transitions(), &[]);
        let text = render_report(&report);
        assert!(text.starts_with("# PageFlags lifecycle reachability"));
        // One body line per reachable state, each starting with its hex word.
        let body: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(body.len(), report.reachable.len());
        assert!(body[0].starts_with("00000 "));
    }
}
