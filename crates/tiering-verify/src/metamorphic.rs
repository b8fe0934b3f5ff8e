//! Metamorphic relations over the Chrono control components.
//!
//! These checks perturb one control input and assert the *direction* of the
//! response, which catches sign/direction bugs that absolute-value tests
//! miss. Directions follow the mechanics, not folklore:
//!
//! - **CIT classification**: a page is hot when its captured idle time is at
//!   most the threshold (`cit <= threshold`), so *raising* the threshold
//!   admits **more** pages — the classified-hot count is monotonically
//!   non-decreasing in the threshold.
//! - **Rate limiting**: lowering the promotion rate limit can never increase
//!   the pages a queue dequeues for an identical offer/drain schedule.
//! - **Huge/base accounting**: migration byte accounting must agree with the
//!   page counters regardless of mapping granularity (512-page blocks vs
//!   base pages move through the same counters).

use chrono_core::queue::PendingPromotion;
use chrono_core::{ChronoConfig, ChronoPolicy, PromotionQueue};
use sim_clock::{DetRng, Nanos};
use tiered_mem::{PageSize, ProcessId, SystemConfig, TieredSystem, Vpn, BASE_PAGE_BYTES};
use tiering_policies::{DriverConfig, SimulationDriver};
use tiering_trace::TraceEvent;
use workloads::{PmbenchConfig, PmbenchWorkload, Workload};

use crate::oracle::InvariantOracle;

/// One round of the rate-limit monotonicity relation: an identical seeded
/// offer/drain schedule is fed to two queues whose only difference is the
/// rate limit (`lo <= hi`). At every drain the lower-rate queue may trail by
/// at most one oversized (huge-block) release, and at the end of the
/// schedule it must not have dequeued more than the higher-rate queue.
pub fn check_queue_rate_monotonicity(seed: u64) -> Result<(), String> {
    let mut rng = DetRng::seed(seed ^ 0x4A7E_11117);
    let page = BASE_PAGE_BYTES;
    let rate_lo = (1 + rng.below(50)) * page;
    let rate_hi = rate_lo * (1 + rng.below(8));
    let mut q_lo = PromotionQueue::new(rate_lo, 1 << 12);
    let mut q_hi = PromotionQueue::new(rate_hi, 1 << 12);
    let interval = Nanos::from_millis(10 + rng.below(90));

    let mut vpn = 0u32;
    for step in 0..400 {
        // Identical arrivals into both queues.
        let arrivals = rng.below(4);
        for _ in 0..arrivals {
            let pages = if rng.chance(0.05) {
                512
            } else {
                1 + rng.below(8) as u32
            };
            let p = PendingPromotion {
                pid: ProcessId(0),
                vpn: Vpn(vpn),
                pages,
            };
            vpn += pages;
            q_lo.enqueue(p);
            q_hi.enqueue(p);
        }
        q_lo.drain(interval);
        q_hi.drain(interval);
        if q_lo.dequeued_pages() > q_hi.dequeued_pages() + 512 {
            return Err(format!(
                "seed {seed:#x} step {step}: rate {rate_lo} dequeued {} pages, \
                 rate {rate_hi} only {}",
                q_lo.dequeued_pages(),
                q_hi.dequeued_pages()
            ));
        }
    }
    // Settle: with no further arrivals both queues finish their backlogs at
    // their own pace; the lower rate must never end ahead.
    for _ in 0..20_000 {
        q_lo.drain(interval);
        q_hi.drain(interval);
    }
    if q_lo.dequeued_pages() > q_hi.dequeued_pages() {
        return Err(format!(
            "seed {seed:#x} final: rate {rate_lo} dequeued {} > rate {rate_hi} dequeued {}",
            q_lo.dequeued_pages(),
            q_hi.dequeued_pages()
        ));
    }
    if !q_lo.flow().conserved() || !q_hi.flow().conserved() {
        return Err(format!(
            "seed {seed:#x}: flow not conserved: lo {:?} hi {:?}",
            q_lo.flow(),
            q_hi.flow()
        ));
    }
    Ok(())
}

/// Records the CIT stream of a traced Chrono run and asserts classifier
/// monotonicity in the threshold: for thresholds `t1 <= t2`, the pages the
/// heat-map bucketing classifies at-or-below `t1` are a subset of those for
/// `t2`. Uses the real [`ChronoConfig::bucket_of`] quantization, so a
/// direction or rounding bug in the bucket mapping trips the check.
pub fn check_cit_classifier_monotonicity(seed: u64) -> Result<(), String> {
    let cits = record_cit_stream(seed)?;
    let cfg = ChronoConfig::scaled(Nanos::from_millis(5), 512);
    // Thresholds swept across every bucket boundary (plus zero and beyond
    // the last bucket).
    let thresholds: Vec<Nanos> = (0..cfg.buckets + 1).map(|b| cfg.bucket_floor(b)).collect();
    let mut prev = 0usize;
    let mut prev_t = Nanos::ZERO;
    for &t in &thresholds {
        let admitted = cits
            .iter()
            .filter(|&&cit| cfg.bucket_of(cit) <= cfg.bucket_of(t))
            .count();
        if admitted < prev {
            return Err(format!(
                "seed {seed:#x}: raising CIT threshold {prev_t:?} -> {t:?} shrank the \
                 hot set {prev} -> {admitted} (of {} samples)",
                cits.len()
            ));
        }
        prev = admitted;
        prev_t = t;
    }
    // The sweep must end having admitted every sample.
    if prev != cits.len() {
        return Err(format!(
            "seed {seed:#x}: max threshold admitted {prev} of {} samples",
            cits.len()
        ));
    }
    Ok(())
}

/// Runs semi-auto Chrono over a seeded workload and collects every measured
/// CIT from the trace's hint-fault events.
fn record_cit_stream(seed: u64) -> Result<Vec<Nanos>, String> {
    let mut rng = DetRng::seed(seed ^ 0xC17_57AE);
    let mut sys = TieredSystem::new(SystemConfig::quarter_fast(2048));
    sys.enable_tracing(1 << 14);
    let w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(1024, 0.7, rng.next_u64()));
    sys.add_process(w.address_space_pages(), PageSize::Base);
    let mut wls: Vec<Box<dyn Workload>> = vec![Box::new(w)];
    let mut policy =
        ChronoPolicy::new(ChronoConfig::scaled(Nanos::from_millis(5), 512).variant_twice());
    SimulationDriver::new(DriverConfig {
        run_for: Nanos::from_millis(40),
        ..Default::default()
    })
    .run(&mut sys, &mut wls, &mut policy);
    let cits: Vec<Nanos> = sys
        .trace
        .events()
        .filter_map(|(_, ev)| match ev {
            TraceEvent::HintFault { cit, .. } => Some(*cit),
            _ => None,
        })
        .collect();
    if cits.is_empty() {
        return Err(format!(
            "seed {seed:#x}: traced run produced no hint faults to classify"
        ));
    }
    Ok(cits)
}

/// Drives a 2 MiB huge-page system through a migration-heavy schedule and
/// asserts the huge-path and base-path accounting agree: the oracle's
/// `migration_accounting` identity (`migration_bytes == moved_pages × 4096`)
/// plus full substrate consistency, where every huge migration moves
/// 512-page units through the same counters base pages use.
pub fn check_huge_base_accounting(seed: u64) -> Result<(), String> {
    let cfg = crate::ops::CaseConfig {
        fast_frames: 1024,
        mid_frames: None,
        slow_frames: 4096,
        procs: vec![(2048, PageSize::Huge2M)],
        // Two 512-frame reservations at most: the free pool never drops
        // below a whole block, so demand paging cannot OOM.
        migration: tiered_mem::MigrationSpec {
            inflight_slots: 2,
            backlog_cap: Nanos::from_millis(10),
        },
        fault_plan: None,
    };
    let ops = crate::profile::CLEAN_MIX.generate(&cfg, seed ^ 0x40E6_BA5E, 1200);
    let sys = crate::ops::run_case(&cfg, &ops)
        .map_err(|f| format!("seed {seed:#x}: huge-page schedule failed: {f}"))?;
    let moved = sys.stats.promoted_pages + sys.stats.demoted_pages;
    if sys.stats.migration_bytes != moved * BASE_PAGE_BYTES {
        return Err(format!(
            "seed {seed:#x}: migration_bytes {} != moved {} * {}",
            sys.stats.migration_bytes, moved, BASE_PAGE_BYTES
        ));
    }

    // With split ops filtered out the same system must move whole 512-page
    // blocks only — base-granularity movement can appear solely through an
    // explicit split.
    let unsplit: Vec<crate::ops::FuzzOp> = ops
        .iter()
        .copied()
        .filter(|op| !matches!(op, crate::ops::FuzzOp::Split { .. }))
        .collect();
    let sys = crate::ops::run_case(&cfg, &unsplit)
        .map_err(|f| format!("seed {seed:#x}: split-free schedule failed: {f}"))?;
    let moved = sys.stats.promoted_pages + sys.stats.demoted_pages;
    if !moved.is_multiple_of(u64::from(tiered_mem::HUGE_2M_PAGES)) {
        return Err(format!(
            "seed {seed:#x}: split-free huge system moved {moved} pages — not \
             a whole number of 512-page blocks"
        ));
    }
    Ok(())
}

/// Metamorphic relation over in-flight huge migrations: two identical runs
/// open a 2 MiB demotion transaction; one splits the block mid-flight, the
/// other just waits. The split run must abort (moving zero pages, releasing
/// all 512 reserved frames), the control run must complete (moving exactly
/// 512) — and both must stay oracle-clean throughout.
pub fn check_split_aborts_inflight_huge(seed: u64) -> Result<(), String> {
    use tiered_mem::{MigrateMode, TierId};
    let mut rng = DetRng::seed(seed ^ 0x5B11_7AB0);
    let blocks = 1 + rng.below(3) as u32;
    let page_in_block = rng.below(512) as u32;
    let target = rng.below(blocks as u64) as u32 * 512;
    let build = || {
        let mut cfg = SystemConfig::dram_pmem(blocks * 512 + 512, blocks * 512 + 512);
        cfg.migration.inflight_slots = 1;
        let mut sys = TieredSystem::new(cfg);
        let pid = sys.add_process(blocks * 512, PageSize::Huge2M);
        for b in 0..blocks {
            sys.access(pid, Vpn(b * 512 + page_in_block), false);
        }
        sys.begin_migrate(pid, Vpn(target), TierId::SLOW, MigrateMode::Async)
            .map(|_| (sys, pid))
    };

    let (mut split_run, pid) = build().map_err(|e| format!("seed {seed:#x}: begin: {e:?}"))?;
    let mut oracle = InvariantOracle::new();
    if let Some(v) = oracle.check(&split_run).into_iter().next() {
        return Err(format!("seed {seed:#x}: in-flight state dirty: {v}"));
    }
    split_run.split_block(pid, Vpn(target + page_in_block));
    split_run.clock.advance(Nanos::from_millis(20));
    split_run.complete_due_migrations();

    let (mut control, _) = build().map_err(|e| format!("seed {seed:#x}: begin: {e:?}"))?;
    control.clock.advance(Nanos::from_millis(20));
    control.complete_due_migrations();

    for (name, sys) in [("split", &split_run), ("control", &control)] {
        if let Some(v) = oracle.check(sys).into_iter().next() {
            return Err(format!("seed {seed:#x}: {name} run dirty: {v}"));
        }
    }
    if split_run.stats.aborted_migrations != 1
        || split_run.stats.demoted_pages != 0
        || split_run.migration_reserved_frames(TierId::SLOW) != 0
    {
        return Err(format!(
            "seed {seed:#x}: split run expected 1 abort / 0 moved / 0 reserved, got \
             {} / {} / {}",
            split_run.stats.aborted_migrations,
            split_run.stats.demoted_pages,
            split_run.migration_reserved_frames(TierId::SLOW)
        ));
    }
    if control.stats.aborted_migrations != 0 || control.stats.demoted_pages != 512 {
        return Err(format!(
            "seed {seed:#x}: control run expected 0 aborts / 512 moved, got {} / {}",
            control.stats.aborted_migrations, control.stats.demoted_pages
        ));
    }
    Ok(())
}

/// Runs every metamorphic relation across `rounds` seeds derived from
/// `seed_base`; returns all failures (empty = pass).
pub fn run_all(seed_base: u64, rounds: u64) -> Vec<String> {
    let mut failures = Vec::new();
    for i in 0..rounds {
        let seed = seed_base.wrapping_add(i);
        if let Err(e) = check_queue_rate_monotonicity(seed) {
            failures.push(format!("queue-rate-monotonicity: {e}"));
        }
        if let Err(e) = check_huge_base_accounting(seed) {
            failures.push(format!("huge-base-accounting: {e}"));
        }
        if let Err(e) = check_split_aborts_inflight_huge(seed) {
            failures.push(format!("split-aborts-inflight-huge: {e}"));
        }
    }
    // The classifier check replays a full policy run; one seed suffices per
    // invocation (the stream itself contains thousands of samples).
    if let Err(e) = check_cit_classifier_monotonicity(seed_base) {
        failures.push(format!("cit-classifier-monotonicity: {e}"));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_rate_monotonicity_holds() {
        for seed in 0..16u64 {
            check_queue_rate_monotonicity(seed).unwrap();
        }
    }

    #[test]
    fn cit_classifier_monotonicity_holds() {
        check_cit_classifier_monotonicity(0xC17).unwrap();
    }

    #[test]
    fn huge_base_accounting_agrees() {
        for seed in 0..4u64 {
            check_huge_base_accounting(seed).unwrap();
        }
    }

    #[test]
    fn split_abort_relation_holds() {
        for seed in 0..8u64 {
            check_split_aborts_inflight_huge(seed).unwrap();
        }
    }
}
