use super::*;
use crate::fault::{CapacityKind, DegradeWindow, FaultPlan, TierEvent, TierEventKind};
use crate::page::PageFlags;

fn small_sys() -> TieredSystem {
    // 64 fast + 192 slow frames; watermarks floor at min=4/low=6/high=8.
    TieredSystem::new(SystemConfig::dram_pmem(64, 192))
}

#[test]
fn scan_budget_saturates_instead_of_wrapping() {
    // The shape every daemon uses: fast-tier frames × event interval /
    // scan period. 1M frames pro-rated over a 100 s interval against a
    // 1 µs period is 10^14 pages — the old `as u32` wrapped this to a
    // near-zero budget and the daemon silently stopped aging.
    let frames = 1 << 20;
    let interval = Nanos(100_000_000_000);
    let period = Nanos(1_000);
    let wrapped = (frames as u64 * interval.as_nanos() / period.as_nanos().max(1)) as u32;
    assert_ne!(
        wrapped,
        scan_budget_pages(frames, interval, period),
        "regression sentinel: the bare cast really does wrap here"
    );
    assert_eq!(scan_budget_pages(frames, interval, period), u32::MAX);
    // Sane in-range behaviour: 1000 frames, interval == period / 4.
    assert_eq!(scan_budget_pages(1000, Nanos(250), Nanos(1_000)), 250);
    // Zero-length period must not divide by zero.
    assert_eq!(scan_budget_pages(7, Nanos(3), Nanos(0)), 21);
}

#[test]
fn first_touch_fills_fast_then_slow() {
    let mut sys = small_sys();
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    // Fast tier keeps `high`=8 frames free; 56 pages land fast, 72 slow.
    let [fast, slow, ..] = sys.process(pid).space.resident_pages();
    assert_eq!(fast, 56);
    assert_eq!(slow, 72);
    assert_eq!(sys.stats.demand_faults, 128);
}

#[test]
fn access_latency_reflects_tier() {
    let mut sys = small_sys();
    let pid = sys.add_process(4, PageSize::Base);
    let r1 = sys.access(pid, Vpn(0), false);
    assert_eq!(r1.tier, TierId::FAST);
    assert!(r1.demand_fault);
    let r2 = sys.access(pid, Vpn(0), false);
    assert!(!r2.demand_fault);
    assert!(r2.latency < r1.latency);
    // Fast read ≈ cpu_op + 80ns.
    assert_eq!(r2.latency.as_nanos(), 15 + 80);
}

#[test]
fn writes_cost_more_on_slow_tier() {
    let mut sys = small_sys();
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    let read = sys.access(pid, Vpn(100), false);
    let write = sys.access(pid, Vpn(100), true);
    assert_eq!(read.tier, TierId::SLOW);
    assert!(write.latency > read.latency);
}

#[test]
fn prot_none_faults_once_and_clears() {
    let mut sys = small_sys();
    let pid = sys.add_process(4, PageSize::Base);
    sys.access(pid, Vpn(0), false);
    sys.process_mut(pid)
        .space
        .entry_mut(Vpn(0))
        .flags
        .set(PageFlags::PROT_NONE);
    let r = sys.access(pid, Vpn(0), false);
    assert!(r.hint_fault);
    let r2 = sys.access(pid, Vpn(0), false);
    assert!(!r2.hint_fault);
    assert_eq!(sys.stats.hint_faults, 1);
}

#[test]
fn probed_flag_reported_on_fault() {
    let mut sys = small_sys();
    let pid = sys.add_process(4, PageSize::Base);
    sys.access(pid, Vpn(1), false);
    let e = sys.process_mut(pid).space.entry_mut(Vpn(1));
    e.flags.set(PageFlags::PROT_NONE | PageFlags::PROBED);
    let r = sys.access(pid, Vpn(1), false);
    assert!(r.hint_fault);
    assert!(r.probed_fault);
}

#[test]
fn migrate_moves_frames_between_tiers() {
    let mut sys = small_sys();
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    let slow_used_before = sys.used_frames(TierId::SLOW);
    let moved = sys
        .migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
        .unwrap();
    assert_eq!(moved, 1);
    assert_eq!(sys.process(pid).space.entry(Vpn(100)).tier(), TierId::FAST);
    assert_eq!(sys.used_frames(TierId::SLOW), slow_used_before - 1);
    assert_eq!(sys.stats.promoted_pages, 1);
    assert_eq!(sys.stats.migration_bytes, 4096);
}

#[test]
fn migrate_same_tier_rejected() {
    let mut sys = small_sys();
    let pid = sys.add_process(4, PageSize::Base);
    sys.access(pid, Vpn(0), false);
    assert_eq!(
        sys.migrate(pid, Vpn(0), TierId::FAST, MigrateMode::Async),
        Err(MigrateError::SameTier)
    );
}

#[test]
fn migrate_unmapped_rejected() {
    let mut sys = small_sys();
    let pid = sys.add_process(4, PageSize::Base);
    assert_eq!(
        sys.migrate(pid, Vpn(0), TierId::FAST, MigrateMode::Async),
        Err(MigrateError::NotPresent)
    );
}

#[test]
fn sync_migration_stalls_the_waiter() {
    let mut sys = small_sys();
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    let before = sys.process(pid).vtime;
    sys.migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Sync(pid))
        .unwrap();
    assert!(sys.process(pid).vtime > before);
}

#[test]
fn async_migration_builds_backlog_not_stall() {
    let mut sys = small_sys();
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    let before = sys.process(pid).vtime;
    sys.migrate(pid, Vpn(101), TierId::FAST, MigrateMode::Async)
        .unwrap();
    assert_eq!(sys.process(pid).vtime, before);
    assert!(sys.migration_backlog() > Nanos::ZERO);
}

#[test]
fn promote_with_reclaim_demotes_victims() {
    let mut sys = small_sys();
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    // Fast tier is at watermark; fill it completely by promoting until
    // free, forcing reclaim of cold fast pages.
    // First exhaust free frames.
    let mut v = 60;
    while sys.free_frames(TierId::FAST) > 0 {
        let _ = sys.migrate(pid, Vpn(v), TierId::FAST, MigrateMode::Async);
        v += 1;
    }
    let demoted_before = sys.stats.demoted_pages;
    let r = sys.promote_with_reclaim_to(pid, Vpn(v), TierId::FAST, MigrateMode::Async);
    assert_eq!(r, Ok(1));
    assert!(sys.stats.demoted_pages > demoted_before);
    assert_eq!(sys.process(pid).space.entry(Vpn(v)).tier(), TierId::FAST);
}

#[test]
fn pop_inactive_victim_gives_second_chance() {
    let mut sys = small_sys();
    let pid = sys.add_process(8, PageSize::Base);
    for i in 0..8 {
        sys.access(pid, Vpn(i), false);
    }
    // All pages are on the active list with accessed bits set. First they
    // are aged (bit cleared), then an untouched page becomes a victim.
    let victim = sys.pop_inactive_victim(TierId::FAST);
    assert!(victim.is_some());
    let (_vp, vv) = victim.unwrap();
    // The victim's accessed bit must be clear (it got no second touch).
    assert!(!sys
        .process(pid)
        .space
        .entry(vv)
        .flags
        .has(PageFlags::ACCESSED));
}

#[test]
fn huge_mapping_faults_and_migrates_as_block() {
    let mut sys = TieredSystem::new(SystemConfig::dram_pmem(2048, 2048));
    let pid = sys.add_process(1024, PageSize::Huge2M);
    let r = sys.access(pid, Vpn(700), false);
    assert!(r.demand_fault);
    // One demand fault mapped the whole 512-page block.
    assert_eq!(sys.stats.demand_faults, 1);
    let [fast, ..] = sys.process(pid).space.resident_pages();
    assert_eq!(fast, 512);
    // Accessing another page of the block does not fault.
    let r2 = sys.access(pid, Vpn(701), false);
    assert!(!r2.demand_fault);
    // Migrating any page of the block moves all 512 pages.
    let moved = sys
        .migrate(pid, Vpn(700), TierId::SLOW, MigrateMode::Async)
        .unwrap();
    assert_eq!(moved, 512);
    assert_eq!(sys.stats.demoted_pages, 512);
    assert_eq!(sys.used_frames(TierId::SLOW), 512);
}

#[test]
fn huge_block_needs_contiguous_space_budget() {
    // Slow tier too small for a 512-page block: allocation must go fast.
    let mut sys = TieredSystem::new(SystemConfig::dram_pmem(1024, 100));
    let pid = sys.add_process(512, PageSize::Huge2M);
    sys.access(pid, Vpn(0), false);
    assert_eq!(sys.process(pid).space.entry(Vpn(0)).tier(), TierId::FAST);
    assert_eq!(
        sys.migrate(pid, Vpn(0), TierId::SLOW, MigrateMode::Async),
        Err(MigrateError::NoSpace)
    );
}

#[test]
fn min_vtime_scheduling_is_fair() {
    let mut sys = small_sys();
    let a = sys.add_process(4, PageSize::Base);
    let b = sys.add_process(4, PageSize::Base);
    let next = |sys: &TieredSystem| sys.min_vtime_process_and_time().map(|(pid, _)| pid);
    assert_eq!(next(&sys), Some(a));
    sys.access(a, Vpn(0), false);
    assert_eq!(next(&sys), Some(b));
    sys.process_mut(b).running = false;
    assert_eq!(next(&sys), Some(a));
}

#[test]
fn kernel_charge_accounting() {
    let mut sys = small_sys();
    let pid = sys.add_process(4, PageSize::Base);
    sys.charge_kernel(Some(pid), Nanos(500));
    assert_eq!(sys.stats.kernel_time, Nanos(500));
    assert_eq!(sys.process(pid).vtime, Nanos(500));
    sys.charge_kernel(None, Nanos(100));
    assert_eq!(sys.stats.kernel_time, Nanos(600));
    assert_eq!(sys.process(pid).vtime, Nanos(500));
}

#[test]
fn swap_out_and_major_fault_round_trip() {
    let mut sys = small_sys();
    let pid = sys.add_process(16, PageSize::Base);
    sys.access(pid, Vpn(3), true);
    assert_eq!(sys.process(pid).resident_frames, 1);
    let freed = sys.swap_out(pid, Vpn(3)).unwrap();
    assert_eq!(freed, 1);
    assert_eq!(sys.process(pid).resident_frames, 0);
    assert!(!sys.process(pid).space.entry(Vpn(3)).present());
    assert!(sys
        .process(pid)
        .space
        .entry(Vpn(3))
        .flags
        .has(PageFlags::SWAPPED));
    assert_eq!(sys.stats.swapped_out_pages, 1);
    // Next access is a major fault, slower than a demand fault.
    let demand_latency = {
        let mut s2 = small_sys();
        let p2 = s2.add_process(4, PageSize::Base);
        s2.access(p2, Vpn(0), false).latency
    };
    let r = sys.access(pid, Vpn(3), false);
    assert!(r.demand_fault);
    assert_eq!(sys.stats.swap_in_faults, 1);
    assert!(r.latency > demand_latency);
    assert!(sys.process(pid).space.entry(Vpn(3)).present());
    assert!(!sys
        .process(pid)
        .space
        .entry(Vpn(3))
        .flags
        .has(PageFlags::SWAPPED));
}

#[test]
fn swap_out_unmapped_fails() {
    let mut sys = small_sys();
    let pid = sys.add_process(4, PageSize::Base);
    assert_eq!(sys.swap_out(pid, Vpn(0)), Err(MigrateError::NotPresent));
}

#[test]
fn memory_limit_accounting() {
    let mut sys = small_sys();
    let pid = sys.add_process(64, PageSize::Base);
    sys.set_memory_limit(pid, Some(10));
    for i in 0..20 {
        sys.access(pid, Vpn(i), false);
    }
    assert_eq!(sys.over_limit_frames(pid), 10);
    for i in 0..10 {
        sys.swap_out(pid, Vpn(i)).unwrap();
    }
    assert_eq!(sys.over_limit_frames(pid), 0);
    sys.set_memory_limit(pid, None);
    assert_eq!(sys.over_limit_frames(pid), 0);
}

#[test]
fn huge_swap_moves_whole_block() {
    let mut sys = TieredSystem::new(SystemConfig::dram_pmem(2048, 2048));
    let pid = sys.add_process(1024, PageSize::Huge2M);
    sys.access(pid, Vpn(100), false);
    assert_eq!(sys.process(pid).resident_frames, 512);
    let freed = sys.swap_out(pid, Vpn(100)).unwrap();
    assert_eq!(freed, 512);
    assert_eq!(sys.stats.swapped_out_pages, 512);
    let r = sys.access(pid, Vpn(100), false);
    assert!(r.demand_fault);
    assert_eq!(sys.stats.swap_in_faults, 1);
    assert_eq!(sys.process(pid).resident_frames, 512);
}

fn huge_sys() -> (TieredSystem, ProcessId) {
    let mut sys = TieredSystem::new(SystemConfig::dram_pmem(2048, 2048));
    let pid = sys.add_process(1024, PageSize::Huge2M);
    sys.access(pid, Vpn(700), false);
    (sys, pid)
}

#[test]
fn begin_migrate_leaves_old_copy_mapped_until_completion() {
    let mut sys = small_sys();
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    let fast_free = sys.free_frames(TierId::FAST);
    let moved = sys
        .begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
        .unwrap();
    assert_eq!(moved, 1);
    // In flight: reservation holds a fast frame, the PTE still points at
    // the slow copy, and reads keep hitting it without aborting.
    assert_eq!(sys.free_frames(TierId::FAST), fast_free - 1);
    assert_eq!(sys.migration_reserved_frames(TierId::FAST), 1);
    assert_eq!(sys.migration_in_flight_count(), 1);
    let e = sys.process(pid).space.entry(Vpn(100));
    assert_eq!(e.tier(), TierId::SLOW);
    assert!(e.flags.has(PageFlags::MIGRATING));
    let r = sys.access(pid, Vpn(100), false);
    assert_eq!(r.tier, TierId::SLOW);
    assert_eq!(sys.stats.promoted_pages, 0);
    // Completion is clock-driven.
    assert_eq!(sys.complete_due_migrations(), 0);
    sys.clock.advance(Nanos::from_millis(1));
    assert_eq!(sys.complete_due_migrations(), 1);
    let e = sys.process(pid).space.entry(Vpn(100));
    assert_eq!(e.tier(), TierId::FAST);
    assert!(!e.flags.has(PageFlags::MIGRATING));
    assert_eq!(sys.stats.promoted_pages, 1);
    assert_eq!(sys.stats.begun_migrations, 1);
    assert_eq!(sys.stats.completed_migrations, 1);
    assert_eq!(sys.migration_in_flight_count(), 0);
    assert_eq!(sys.migration_reserved_frames(TierId::FAST), 0);
}

#[test]
fn write_aborts_in_flight_migration_and_redirties() {
    let mut sys = small_sys();
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    let fast_free = sys.free_frames(TierId::FAST);
    sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
        .unwrap();
    sys.access(pid, Vpn(100), true);
    assert_eq!(sys.stats.aborted_migrations, 1);
    assert_eq!(sys.migration_in_flight_count(), 0);
    // The reservation was released and the page stays slow, dirty.
    assert_eq!(sys.free_frames(TierId::FAST), fast_free);
    let e = sys.process(pid).space.entry(Vpn(100));
    assert_eq!(e.tier(), TierId::SLOW);
    assert!(!e.flags.has(PageFlags::MIGRATING));
    assert!(e.flags.has(PageFlags::DIRTY));
    // Nothing left to complete.
    sys.clock.advance(Nanos::from_millis(1));
    assert_eq!(sys.complete_due_migrations(), 0);
    assert_eq!(sys.stats.promoted_pages, 0);
    assert_eq!(
        sys.stats.begun_migrations,
        sys.stats.completed_migrations + sys.stats.aborted_migrations
    );
}

#[test]
fn backpressure_when_slots_exhausted() {
    let mut cfg = SystemConfig::dram_pmem(64, 192);
    cfg.migration.inflight_slots = 1;
    let mut sys = TieredSystem::new(cfg);
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
        .unwrap();
    assert_eq!(
        sys.begin_migrate(pid, Vpn(101), TierId::FAST, MigrateMode::Async),
        Err(MigrateError::Backpressure)
    );
    assert_eq!(
        sys.stats.failed_fast_migrations[MigrateError::Backpressure.index()],
        1
    );
    // Draining the table restores admission.
    sys.clock.advance(Nanos::from_millis(1));
    sys.complete_due_migrations();
    assert!(sys
        .begin_migrate(pid, Vpn(101), TierId::FAST, MigrateMode::Async)
        .is_ok());
}

#[test]
fn backpressure_when_backlog_cap_exhausted() {
    let mut cfg = SystemConfig::dram_pmem(64, 192);
    cfg.migration.backlog_cap = Nanos::from_micros(4);
    let mut sys = TieredSystem::new(cfg);
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    // Each async copy queues ~3 µs on the fast channel; the second one
    // exceeds the 4 µs cap.
    sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
        .unwrap();
    sys.begin_migrate(pid, Vpn(101), TierId::FAST, MigrateMode::Async)
        .unwrap();
    assert_eq!(
        sys.begin_migrate(pid, Vpn(102), TierId::FAST, MigrateMode::Async),
        Err(MigrateError::Backpressure)
    );
    assert!(sys.migration_backlog() > Nanos::from_micros(4));
}

#[test]
fn duplicate_begin_on_in_flight_unit_backpressures() {
    let mut sys = small_sys();
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
        .unwrap();
    assert_eq!(
        sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async),
        Err(MigrateError::Backpressure)
    );
    // The in-flight page also refuses the compat (instant) path.
    assert_eq!(
        sys.migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async),
        Err(MigrateError::Backpressure)
    );
}

#[test]
fn sync_begin_charges_waiter_and_completes_on_next_pump() {
    let mut sys = small_sys();
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    let before = sys.process(pid).vtime;
    sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Sync(pid))
        .unwrap();
    assert!(sys.process(pid).vtime > before);
    // The waiter already paid: the copy is due immediately, even with
    // the clock unmoved.
    assert_eq!(sys.complete_due_migrations(), 1);
    assert_eq!(sys.process(pid).space.entry(Vpn(100)).tier(), TierId::FAST);
}

#[test]
fn begin_migrate_charges_the_slower_endpoints_copy_time() {
    // Pinned copy times: 4 KiB and 2 MiB over 8 GiB/s (DRAM -> CXL, an
    // adjacent hop) and over 4 GiB/s (PMem -> DRAM across the offline CXL
    // tier, a spliced hop). Each async begin adds exactly that plus the
    // fixed remap cost to kernel time.
    for (page_size, adjacent, spliced) in [
        (PageSize::Base, Nanos(476), Nanos(953)),
        (PageSize::Huge2M, Nanos(244_140), Nanos(488_281)),
    ] {
        let mut sys = TieredSystem::new(SystemConfig::three_tier(2048, 2048, 2048));
        let fixed = sys.config().cost.migrate_fixed;
        let pid = sys.add_process(1024, page_size);
        sys.access(pid, Vpn(0), false);
        assert_eq!(sys.process(pid).space.entry(Vpn(0)).tier(), TierId::FAST);
        let before = sys.stats.kernel_time;
        sys.begin_migrate(pid, Vpn(0), TierId(1), MigrateMode::Async)
            .unwrap();
        assert_eq!(sys.stats.kernel_time, before + adjacent + fixed);
        sys.clock.advance(Nanos::from_millis(10));
        assert_eq!(sys.complete_due_migrations(), 1);
        // The zero-deadline offline force-drains the unit one hop down and
        // splices the chain, so PMem -> DRAM becomes one hop.
        sys.apply_tier_event(TierEvent {
            at: Nanos(0),
            tier: TierId(1),
            kind: TierEventKind::Offline { deadline: Nanos(0) },
        });
        assert_eq!(sys.process(pid).space.entry(Vpn(0)).tier(), TierId(2));
        let before = sys.stats.kernel_time;
        sys.begin_migrate(pid, Vpn(0), TierId::FAST, MigrateMode::Async)
            .unwrap();
        assert_eq!(sys.stats.kernel_time, before + spliced + fixed);
    }
}

#[test]
fn huge_write_abort_releases_all_512_reserved_frames() {
    let (mut sys, pid) = huge_sys();
    assert_eq!(sys.free_frames(TierId::SLOW), 2048);
    let moved = sys
        .begin_migrate(pid, Vpn(700), TierId::SLOW, MigrateMode::Async)
        .unwrap();
    assert_eq!(moved, 512);
    assert_eq!(sys.migration_reserved_frames(TierId::SLOW), 512);
    assert_eq!(sys.free_frames(TierId::SLOW), 2048 - 512);
    // A store to any page of the block kills the whole transaction.
    sys.access(pid, Vpn(701), true);
    assert_eq!(sys.stats.aborted_migrations, 1);
    assert_eq!(sys.migration_reserved_frames(TierId::SLOW), 0);
    assert_eq!(sys.free_frames(TierId::SLOW), 2048);
    assert_eq!(sys.stats.demoted_pages, 0);
    let e = sys.process(pid).space.entry(Vpn(700).huge_head());
    assert!(!e.flags.has(PageFlags::MIGRATING));
    assert_eq!(e.tier(), TierId::FAST);
}

#[test]
fn split_during_in_flight_huge_migration_aborts() {
    let (mut sys, pid) = huge_sys();
    sys.begin_migrate(pid, Vpn(700), TierId::SLOW, MigrateMode::Async)
        .unwrap();
    sys.split_block(pid, Vpn(700));
    assert_eq!(sys.stats.aborted_migrations, 1);
    assert_eq!(sys.migration_reserved_frames(TierId::SLOW), 0);
    assert_eq!(sys.migration_in_flight_count(), 0);
    let head = Vpn(700).huge_head();
    let e = sys.process(pid).space.entry(head);
    assert!(!e.flags.has(PageFlags::MIGRATING));
    assert!(e.flags.has(PageFlags::HUGE_SPLIT));
    // Late pump finds nothing; the block stays fast, now as base pages.
    sys.clock.advance(Nanos::from_millis(10));
    assert_eq!(sys.complete_due_migrations(), 0);
    assert_eq!(sys.stats.demoted_pages, 0);
}

fn arm_probe(sys: &mut TieredSystem, pid: ProcessId, vpn: Vpn) {
    let e = sys.process_mut(pid).space.entry_mut(vpn);
    e.flags.set(PageFlags::PROBED | PageFlags::PROT_NONE);
}

#[test]
fn probe_clears_are_logged_once_per_set_bit() {
    let mut sys = small_sys();
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    // Migration completion, both the async pump and the sync wrapper.
    arm_probe(&mut sys, pid, Vpn(100));
    sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
        .unwrap();
    sys.clock.advance(Nanos::from_millis(1));
    assert_eq!(sys.complete_due_migrations(), 1);
    arm_probe(&mut sys, pid, Vpn(101));
    sys.migrate(pid, Vpn(101), TierId::FAST, MigrateMode::Async)
        .unwrap();
    // Reclaim to swap.
    arm_probe(&mut sys, pid, Vpn(102));
    sys.swap_out(pid, Vpn(102)).unwrap();
    // The policy-side clear, which also takes the extra bits it is given.
    arm_probe(&mut sys, pid, Vpn(103));
    sys.clear_probed(pid, Vpn(103), PageFlags::PROT_NONE);
    let e = sys.process(pid).space.entry(Vpn(103));
    assert!(!e.flags.has_any(PageFlags::PROBED | PageFlags::PROT_NONE));
    for v in 100..=102 {
        let e = sys.process(pid).space.entry(Vpn(v));
        assert!(!e.flags.has(PageFlags::PROBED), "vpn {v} kept PG_probed");
    }
    let logged: Vec<(ProcessId, Vpn)> = (100..=103).map(|v| (pid, Vpn(v))).collect();
    assert_eq!(sys.take_probe_clears(), logged);
    assert!(
        sys.take_probe_clears().is_empty(),
        "drain must empty the log"
    );

    // The same paths on unprobed pages log nothing, and clearing an
    // already clear bit logs nothing.
    sys.begin_migrate(pid, Vpn(104), TierId::FAST, MigrateMode::Async)
        .unwrap();
    sys.clock.advance(Nanos::from_millis(1));
    assert_eq!(sys.complete_due_migrations(), 1);
    sys.migrate(pid, Vpn(105), TierId::FAST, MigrateMode::Async)
        .unwrap();
    sys.swap_out(pid, Vpn(106)).unwrap();
    sys.clear_probed(pid, Vpn(103), PageFlags::PROT_NONE);
    sys.clear_probed(pid, Vpn(107), 0);
    assert!(sys.take_probe_clears().is_empty());
}

#[test]
fn abort_and_split_log_no_probe_clears() {
    let mut sys = small_sys();
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    // An aborted copy leaves the probe armed on the source page.
    arm_probe(&mut sys, pid, Vpn(100));
    sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
        .unwrap();
    assert!(sys.abort_migration(pid, Vpn(100), true));
    assert!(sys
        .process(pid)
        .space
        .entry(Vpn(100))
        .flags
        .has(PageFlags::PROBED));
    assert!(sys.take_probe_clears().is_empty());

    // A split copies the head's flags to the tails and clears nothing.
    let (mut sys, pid) = huge_sys();
    let head = Vpn(700).huge_head();
    arm_probe(&mut sys, pid, head);
    sys.begin_migrate(pid, head, TierId::SLOW, MigrateMode::Async)
        .unwrap();
    sys.split_block(pid, head);
    assert_eq!(sys.stats.aborted_migrations, 1);
    assert!(sys
        .process(pid)
        .space
        .entry(head)
        .flags
        .has(PageFlags::PROBED));
    assert!(sys.take_probe_clears().is_empty());
}

#[test]
fn swap_out_aborts_in_flight_migration() {
    let mut sys = small_sys();
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    let fast_free = sys.free_frames(TierId::FAST);
    sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
        .unwrap();
    sys.swap_out(pid, Vpn(100)).unwrap();
    assert_eq!(sys.stats.aborted_migrations, 1);
    assert_eq!(sys.free_frames(TierId::FAST), fast_free);
    assert!(!sys.process(pid).space.entry(Vpn(100)).present());
}

#[test]
fn failed_victim_demotions_are_counted_not_swallowed() {
    // 64 fast + 8 slow: demand paging fills both tiers completely
    // (56 fast, 8 slow, then the last 8 fast), so every reclaim victim
    // demotion hits a full slow tier.
    let mut sys = TieredSystem::new(SystemConfig::dram_pmem(64, 8));
    let pid = sys.add_process(72, PageSize::Base);
    for i in 0..72 {
        sys.access(pid, Vpn(i), false);
    }
    assert_eq!(sys.free_frames(TierId::FAST), 0);
    assert_eq!(sys.free_frames(TierId::SLOW), 0);
    let r = sys.promote_with_reclaim_to(pid, Vpn(60), TierId::FAST, MigrateMode::Async);
    assert_eq!(r, Err(MigrateError::NoSpace));
    // The attempt budget is 4 × unit; every victim demotion failed with
    // NoSpace and was counted instead of silently dropped.
    assert_eq!(sys.stats.failed_demotions, 4);
    assert!(sys.stats.failed_promotions > 0);
}

#[test]
fn failed_fast_migrations_table_covers_every_reason() {
    let mut sys = small_sys();
    let pid = sys.add_process(128, PageSize::Base);
    sys.access(pid, Vpn(0), false);
    // NotPresent.
    assert!(sys
        .migrate(pid, Vpn(5), TierId::FAST, MigrateMode::Async)
        .is_err());
    // SameTier (page 0 landed fast).
    assert!(sys
        .migrate(pid, Vpn(0), TierId::FAST, MigrateMode::Async)
        .is_err());
    assert_eq!(
        sys.stats.failed_fast_migrations[MigrateError::NotPresent.index()],
        1
    );
    assert_eq!(
        sys.stats.failed_fast_migrations[MigrateError::SameTier.index()],
        1
    );
    // Demotion failures stay out of the fast-tier table.
    assert!(sys
        .migrate(pid, Vpn(5), TierId::SLOW, MigrateMode::Async)
        .is_err());
    assert_eq!(
        sys.stats.failed_fast_migrations[MigrateError::NotPresent.index()],
        1
    );
    // NoSpace keeps feeding the historical counter too.
    let mut full = TieredSystem::new(SystemConfig::dram_pmem(8, 600));
    let p2 = full.add_process(512, PageSize::Base);
    for i in 0..512 {
        full.access(p2, Vpn(i), false);
    }
    while full.free_frames(TierId::FAST) > 0 {
        let v = 512 - 1 - full.free_frames(TierId::FAST);
        let _ = full.migrate(p2, Vpn(v), TierId::FAST, MigrateMode::Async);
    }
    let before = full.stats.failed_promotions;
    assert_eq!(
        full.migrate(p2, Vpn(500), TierId::FAST, MigrateMode::Async),
        Err(MigrateError::NoSpace)
    );
    assert_eq!(full.stats.failed_promotions, before + 1);
    assert_eq!(
        full.stats.failed_fast_migrations[MigrateError::NoSpace.index()],
        full.stats.failed_promotions
    );
}

#[test]
fn compat_migrate_preserves_flow_conservation() {
    let mut sys = small_sys();
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    sys.migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
        .unwrap();
    sys.begin_migrate(pid, Vpn(101), TierId::FAST, MigrateMode::Async)
        .unwrap();
    sys.access(pid, Vpn(101), true); // abort
    sys.begin_migrate(pid, Vpn(102), TierId::FAST, MigrateMode::Async)
        .unwrap();
    assert_eq!(sys.stats.begun_migrations, 3);
    assert_eq!(
        sys.stats.begun_migrations,
        sys.stats.completed_migrations
            + sys.stats.aborted_migrations
            + sys.migration_in_flight_count() as u64
    );
}

#[test]
fn compat_migrate_leaves_in_flight_promotions_untouched() {
    let mut sys = small_sys();
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    for v in 100..103 {
        sys.begin_migrate(pid, Vpn(v), TierId::FAST, MigrateMode::Async)
            .unwrap();
    }
    let in_flight = |sys: &TieredSystem| {
        sys.in_flight_migrations()
            .map(|t| (t.id, t.head, t.complete_at))
            .collect::<Vec<_>>()
    };
    let before = in_flight(&sys);
    let front = before[0].2;
    // A demotion on the idle down channel, then a promotion queued behind
    // the in-flight ones on the up channel: each is opened and retired in
    // the same call.
    for (vpn, to) in [(Vpn(0), TierId::SLOW), (Vpn(103), TierId::FAST)] {
        sys.migrate(pid, vpn, to, MigrateMode::Async).unwrap();
        assert_eq!(sys.process(pid).space.entry(vpn).tier(), to);
        assert_eq!(in_flight(&sys), before);
        assert!(!sys.engine.any_due(Nanos(front.as_nanos() - 1)));
        assert!(sys.engine.any_due(front));
    }
    assert_eq!(sys.migration_reserved_frames(TierId::FAST), 3);
}

/// Every `MigrateError` variant, in `index()` order. The exhaustive
/// match inside `migrate_error_reasons_table_is_exhaustive` forces a
/// compile error here whenever a variant is added without updating
/// `COUNT`/`REASONS` (the `[&str; COUNT]` type already pins the array
/// length at compile time).
const ALL_ERRORS: [MigrateError; MigrateError::COUNT] = [
    MigrateError::NotPresent,
    MigrateError::SameTier,
    MigrateError::NoSpace,
    MigrateError::Backpressure,
    MigrateError::CopyFault,
    MigrateError::Poisoned,
    MigrateError::NonAdjacent,
    MigrateError::TierOffline,
];

#[test]
fn migrate_error_reasons_table_is_exhaustive() {
    for (i, e) in ALL_ERRORS.iter().enumerate() {
        assert_eq!(e.index(), i, "{:?} out of index order", e);
        let expect = match e {
            MigrateError::NotPresent => "not_present",
            MigrateError::SameTier => "same_tier",
            MigrateError::NoSpace => "no_space",
            MigrateError::Backpressure => "backpressure",
            MigrateError::CopyFault => "copy_fault",
            MigrateError::Poisoned => "poisoned",
            MigrateError::NonAdjacent => "non_adjacent",
            MigrateError::TierOffline => "tier_offline",
        };
        assert_eq!(MigrateError::REASONS[i], expect);
    }
}

/// Drives every `MigrateError` variant through the promotion path and
/// checks each lands in its own `failed_fast_migrations` cell.
#[test]
fn every_migrate_error_reaches_its_failure_cell() {
    // NotPresent / SameTier on a plain system.
    let mut sys = small_sys();
    let pid = sys.add_process(128, PageSize::Base);
    sys.access(pid, Vpn(0), false);
    let _ = sys.migrate(pid, Vpn(5), TierId::FAST, MigrateMode::Async);
    let _ = sys.migrate(pid, Vpn(0), TierId::FAST, MigrateMode::Async);
    // Backpressure via a second begin on the same in-flight unit.
    for i in 1..128 {
        sys.access(pid, Vpn(i), false);
    }
    sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
        .unwrap();
    let _ = sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async);
    let t = &sys.stats.failed_fast_migrations;
    assert_eq!(t[MigrateError::NotPresent.index()], 1);
    assert_eq!(t[MigrateError::SameTier.index()], 1);
    assert_eq!(t[MigrateError::Backpressure.index()], 1);

    // NoSpace on a full fast tier.
    let mut full = TieredSystem::new(SystemConfig::dram_pmem(8, 600));
    let p2 = full.add_process(512, PageSize::Base);
    for i in 0..512 {
        full.access(p2, Vpn(i), false);
    }
    while full.free_frames(TierId::FAST) > 0 {
        let v = 512 - 1 - full.free_frames(TierId::FAST);
        let _ = full.migrate(p2, Vpn(v), TierId::FAST, MigrateMode::Async);
    }
    assert_eq!(
        full.migrate(p2, Vpn(500), TierId::FAST, MigrateMode::Async),
        Err(MigrateError::NoSpace)
    );
    assert_eq!(
        full.stats.failed_fast_migrations[MigrateError::NoSpace.index()],
        full.stats.failed_promotions
    );

    // CopyFault / Poisoned via deterministic fault plans.
    for (err, plan) in [
        (MigrateError::CopyFault, {
            let mut p = FaultPlan::inert(1);
            p.copy_transient = 1.0;
            p
        }),
        (MigrateError::Poisoned, {
            let mut p = FaultPlan::inert(1);
            p.copy_poison = 1.0;
            p
        }),
    ] {
        let mut cfg = SystemConfig::dram_pmem(64, 192);
        cfg.fault_plan = Some(plan);
        let mut fsys = TieredSystem::new(cfg);
        let fp = fsys.add_process(128, PageSize::Base);
        for i in 0..128 {
            fsys.access(fp, Vpn(i), false);
        }
        assert_eq!(
            fsys.migrate(fp, Vpn(100), TierId::FAST, MigrateMode::Async),
            Err(err)
        );
        assert_eq!(fsys.stats.failed_fast_migrations[err.index()], 1);
    }

    // NonAdjacent: a two-hop move on a three-tier chain.
    let mut tri = TieredSystem::new(SystemConfig::three_tier(16, 512, 512));
    let p3 = tri.add_process(256, PageSize::Base);
    for i in 0..256 {
        tri.access(p3, Vpn(i), false);
    }
    // Allocation spilled past the tiny fast tier into the middle tier;
    // push one page down to the bottom, then ask for the illegal 2→0 hop.
    let mid_page = (0..256)
        .map(Vpn)
        .find(|&v| tri.process(p3).space.entry(v).tier() == TierId(1))
        .expect("some page landed in the middle tier");
    tri.migrate(p3, mid_page, TierId(2), MigrateMode::Async)
        .unwrap();
    assert_eq!(
        tri.migrate(p3, mid_page, TierId::FAST, MigrateMode::Async),
        Err(MigrateError::NonAdjacent)
    );
    assert_eq!(
        tri.stats.failed_fast_migrations[MigrateError::NonAdjacent.index()],
        1
    );

    // TierOffline: aim a demotion at a tier that has gone offline. The
    // per-reason table only counts promotions, and tier 0 can never go
    // offline, so this variant is checked on the error return alone.
    tri.apply_tier_event(TierEvent {
        at: Nanos(0),
        tier: TierId(2),
        kind: TierEventKind::Offline { deadline: Nanos(0) },
    });
    let still_mid = (0..256)
        .map(Vpn)
        .find(|&v| tri.process(p3).space.entry(v).tier() == TierId(1))
        .expect("a page still sits in the middle tier");
    assert_eq!(
        tri.migrate(p3, still_mid, TierId(2), MigrateMode::Async),
        Err(MigrateError::TierOffline)
    );
}

#[test]
fn transient_copy_fault_releases_reservation_and_reports() {
    let mut cfg = SystemConfig::dram_pmem(64, 192);
    let mut plan = FaultPlan::inert(3);
    plan.copy_transient = 1.0;
    cfg.fault_plan = Some(plan);
    let mut sys = TieredSystem::new(cfg);
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    let fast_free = sys.free_frames(TierId::FAST);
    sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
        .unwrap();
    sys.clock.advance(Nanos::from_millis(1));
    // The copy comes due but the roll fails it: nothing completed.
    assert_eq!(sys.complete_due_migrations(), 0);
    assert_eq!(sys.stats.transient_copy_faults, 1);
    assert_eq!(sys.free_frames(TierId::FAST), fast_free);
    let e = sys.process(pid).space.entry(Vpn(100));
    assert_eq!(e.tier(), TierId::SLOW);
    assert!(!e.flags.has(PageFlags::MIGRATING));
    let failures = sys.take_migration_failures();
    assert_eq!(
        failures,
        vec![MigrationFailure {
            pid,
            head: Vpn(100),
            unit: 1,
            from: TierId::SLOW,
            to: TierId::FAST,
            reason: MigrateError::CopyFault,
        }]
    );
    assert!(
        sys.take_migration_failures().is_empty(),
        "drain is one-shot"
    );
    // A retry of the same migration is valid and (with the dice removed)
    // would succeed: admission accepts it again.
    assert!(sys
        .begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
        .is_ok());
}

#[test]
fn poison_copy_fault_quarantines_one_destination_frame() {
    let mut cfg = SystemConfig::dram_pmem(64, 192);
    let mut plan = FaultPlan::inert(4);
    plan.copy_poison = 1.0;
    cfg.fault_plan = Some(plan);
    let mut sys = TieredSystem::new(cfg);
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    let fast_free = sys.free_frames(TierId::FAST);
    sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
        .unwrap();
    sys.clock.advance(Nanos::from_millis(1));
    assert_eq!(sys.complete_due_migrations(), 0);
    assert_eq!(sys.stats.poisoned_copy_faults, 1);
    assert_eq!(sys.stats.quarantined_frames, 1);
    assert_eq!(sys.quarantined_frames(TierId::FAST), 1);
    // One frame went bad: the free pool is one short of where it was.
    assert_eq!(sys.free_frames(TierId::FAST), fast_free - 1);
    assert_eq!(sys.total_frames(TierId::FAST), 63);
    // The source mapping survived.
    assert_eq!(sys.process(pid).space.entry(Vpn(100)).tier(), TierId::SLOW);
}

#[test]
fn poison_frame_soft_offlines_resident_page() {
    let mut sys = small_sys();
    let pid = sys.add_process(16, PageSize::Base);
    sys.access(pid, Vpn(3), false);
    let e = sys.process(pid).space.entry(Vpn(3));
    assert_eq!(e.tier(), TierId::FAST);
    let bad = e.pfn;
    assert!(sys.poison_frame(TierId::FAST, bad));
    // Soft-offline ran inline: the page moved to the slow tier, the bad
    // frame is quarantined, and the POISONED flag cleared with the move.
    let e = sys.process(pid).space.entry(Vpn(3));
    assert_eq!(e.tier(), TierId::SLOW);
    assert!(!e.flags.has(PageFlags::POISONED));
    assert!(sys.frame_is_quarantined(TierId::FAST, bad));
    assert_eq!(sys.stats.quarantined_frames, 1);
    assert_eq!(sys.total_frames(TierId::FAST), 63);
    // Poisoning the same frame again is a no-op.
    assert!(!sys.poison_frame(TierId::FAST, bad));
    assert_eq!(sys.stats.quarantined_frames, 1);
}

#[test]
fn poison_mid_tier_frame_rehomes_to_nearest_healthy_neighbor() {
    // Three-tier chain with room everywhere: demote a few pages into
    // the CXL mid tier, then poison one of their frames. Soft-offline
    // must pick the nearest *healthy* neighbor — slower side on a
    // healthy chain, the fast tier once the slower side is gone.
    let mut sys = TieredSystem::new(SystemConfig::three_tier(64, 128, 64));
    let pid = sys.add_process(40, PageSize::Base);
    for i in 0..40 {
        sys.access(pid, Vpn(i), false);
    }
    for i in 0..8 {
        sys.migrate(pid, Vpn(i), TierId(1), MigrateMode::Async)
            .unwrap();
    }
    let bad = sys.process(pid).space.entry(Vpn(3)).pfn;
    assert!(sys.poison_frame(TierId(1), bad));
    // Healthy chain: the mid tier's soft-offline destination is one
    // hop down (slower side preferred), never two hops to the top.
    let e = sys.process(pid).space.entry(Vpn(3));
    assert_eq!(e.tier(), TierId(2));
    assert!(!e.flags.has(PageFlags::POISONED));
    assert!(sys.frame_is_quarantined(TierId(1), bad));

    // Take the bottom tier offline (zero-deadline forced drain pushes
    // its one page back to the mid tier and splices the chain): the
    // slower neighbor no longer accepts pages, so the next mid-tier
    // poison must rehome *up* to the fast tier instead.
    sys.apply_tier_event(TierEvent {
        at: Nanos(0),
        tier: TierId(2),
        kind: TierEventKind::Offline { deadline: Nanos(0) },
    });
    assert_eq!(sys.tier_health(TierId(2)), TierHealth::Offline);
    let bad = sys.process(pid).space.entry(Vpn(5)).pfn;
    assert_eq!(sys.process(pid).space.entry(Vpn(5)).tier(), TierId(1));
    assert!(sys.poison_frame(TierId(1), bad));
    let e = sys.process(pid).space.entry(Vpn(5));
    assert_eq!(e.tier(), TierId::FAST);
    assert!(!e.flags.has(PageFlags::POISONED));
    assert!(sys.frame_is_quarantined(TierId(1), bad));
}

#[test]
fn poison_free_frame_quarantines_directly() {
    let mut sys = small_sys();
    let pid = sys.add_process(4, PageSize::Base);
    sys.access(pid, Vpn(0), false);
    let pfn = sys.process(pid).space.entry(Vpn(0)).pfn;
    sys.swap_out(pid, Vpn(0)).unwrap();
    assert!(sys.poison_frame(TierId::FAST, pfn));
    assert!(sys.frame_is_quarantined(TierId::FAST, pfn));
    assert_eq!(sys.stats.quarantined_frames, 1);
}

#[test]
fn poison_reserved_copy_destination_aborts_and_quarantines() {
    let mut sys = small_sys();
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
        .unwrap();
    let dest = sys
        .in_flight_migrations()
        .next()
        .expect("one txn in flight")
        .dest_pfns[0];
    assert!(sys.poison_frame(TierId::FAST, dest));
    assert_eq!(sys.stats.aborted_migrations, 1);
    assert_eq!(sys.migration_in_flight_count(), 0);
    assert!(sys.frame_is_quarantined(TierId::FAST, dest));
    // The source page survived untouched in the slow tier.
    let e = sys.process(pid).space.entry(Vpn(100));
    assert_eq!(e.tier(), TierId::SLOW);
    assert!(!e.flags.has(PageFlags::MIGRATING));
}

#[test]
fn poison_huge_mapped_frame_splits_before_poisoning() {
    let (mut sys, pid) = huge_sys();
    let head = Vpn(700).huge_head();
    let bad = sys.process(pid).space.entry(Vpn(703)).pfn;
    assert!(sys.poison_frame(TierId::FAST, bad));
    // The block was split so the poison stays on one base page; that
    // page soft-offlined to the slow tier.
    assert!(!sys.process(pid).space.is_huge_mapped(head));
    let e = sys.process(pid).space.entry(Vpn(703));
    assert_eq!(e.tier(), TierId::SLOW);
    assert!(!e.flags.has(PageFlags::POISONED));
    assert!(sys.frame_is_quarantined(TierId::FAST, bad));
    // Its neighbours stayed fast.
    assert_eq!(sys.process(pid).space.entry(Vpn(702)).tier(), TierId::FAST);
}

#[test]
fn swap_out_quarantines_poisoned_frame() {
    // Fill the slow tier so soft-offline migration fails and the
    // POISONED flag stays set, then reclaim the page.
    let mut sys = TieredSystem::new(SystemConfig::dram_pmem(64, 8));
    let pid = sys.add_process(72, PageSize::Base);
    for i in 0..72 {
        sys.access(pid, Vpn(i), false);
    }
    assert_eq!(sys.free_frames(TierId::SLOW), 0);
    // Vpn(0) landed fast; its soft-offline has nowhere to go.
    let bad = sys.process(pid).space.entry(Vpn(0)).pfn;
    assert!(sys.poison_frame(TierId::FAST, bad));
    let e = sys.process(pid).space.entry(Vpn(0));
    assert!(e.flags.has(PageFlags::POISONED), "soft-offline had no room");
    assert_eq!(sys.stats.quarantined_frames, 0);
    sys.swap_out(pid, Vpn(0)).unwrap();
    assert!(sys.frame_is_quarantined(TierId::FAST, bad));
    assert_eq!(sys.stats.quarantined_frames, 1);
    let e = sys.process(pid).space.entry(Vpn(0));
    assert!(!e.flags.has(PageFlags::POISONED));
    assert!(e.flags.has(PageFlags::SWAPPED));
}

#[test]
fn fast_tier_shrink_offlines_and_rescales_watermarks() {
    let mut sys = small_sys();
    let pid = sys.add_process(32, PageSize::Base);
    for i in 0..32 {
        sys.access(pid, Vpn(i), false);
    }
    assert_eq!(sys.total_frames(TierId::FAST), 64);
    let wm_before = sys.watermarks;
    let got = sys.shrink_tier(TierId::FAST, 16);
    assert_eq!(got, 16);
    assert_eq!(sys.total_frames(TierId::FAST), 48);
    assert_eq!(sys.offlined_frames(TierId::FAST), 16);
    assert_eq!(sys.stats.offlined_frames, 16);
    assert_eq!(sys.tier_shrink_debt(TierId::FAST), 0);
    assert!(sys.watermarks.well_ordered());
    assert!(sys.watermarks.pro <= (48u32 / 4).max(sys.watermarks.high));
    let _ = wm_before;
    // Grow restores them and the usable size returns.
    assert_eq!(sys.grow_tier(TierId::FAST, 16), 16);
    assert_eq!(sys.total_frames(TierId::FAST), 64);
    assert_eq!(sys.stats.restored_frames, 16);
}

#[test]
fn shrink_debt_is_retired_as_frames_free_up() {
    let mut sys = small_sys();
    let pid = sys.add_process(64, PageSize::Base);
    for i in 0..64 {
        sys.access(pid, Vpn(i), false);
    }
    // 56 fast frames used, 8 free; ask for more than the free pool.
    let got = sys.shrink_tier(TierId::FAST, 20);
    assert_eq!(got, 8);
    assert_eq!(sys.tier_shrink_debt(TierId::FAST), 12);
    assert_eq!(sys.total_frames(TierId::FAST), 56);
    // Demote pages; the pump retires debt from the freed frames.
    for i in 0..12 {
        sys.migrate(pid, Vpn(i), TierId::SLOW, MigrateMode::Async)
            .unwrap();
    }
    sys.complete_due_migrations();
    assert_eq!(sys.tier_shrink_debt(TierId::FAST), 0);
    assert_eq!(sys.offlined_frames(TierId::FAST), 20);
    assert_eq!(sys.total_frames(TierId::FAST), 44);
    assert_eq!(sys.stats.offlined_frames, 20);
    // Grow first cancels debt, then restores offlined frames.
    assert_eq!(sys.grow_tier(TierId::FAST, 20), 20);
    assert_eq!(sys.total_frames(TierId::FAST), 64);
}

#[test]
fn planned_capacity_event_fires_at_its_time() {
    let mut cfg = SystemConfig::dram_pmem(64, 192);
    let mut plan = FaultPlan::inert(5);
    plan.capacity_events = vec![crate::fault::CapacityEvent {
        at: Nanos::from_millis(10),
        kind: CapacityKind::ShrinkTierFraction {
            tier: TierId::FAST,
            fraction: 0.25,
        },
    }];
    cfg.fault_plan = Some(plan);
    let mut sys = TieredSystem::new(cfg);
    let pid = sys.add_process(16, PageSize::Base);
    for i in 0..16 {
        sys.access(pid, Vpn(i), false);
    }
    sys.clock.advance(Nanos::from_millis(5));
    sys.complete_due_migrations();
    assert_eq!(sys.total_frames(TierId::FAST), 64, "not due yet");
    sys.clock.advance(Nanos::from_millis(6));
    sys.complete_due_migrations();
    assert_eq!(sys.total_frames(TierId::FAST), 48, "25% shrink fired");
}

#[test]
fn degrade_window_stretches_copy_backlog() {
    let healthy = {
        let mut sys = small_sys();
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
            .unwrap();
        sys.migration_backlog()
    };
    let mut sys = small_sys();
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    sys.degrade_channel(DegradeWindow {
        tier: TierId::FAST,
        from: Nanos::ZERO,
        until: Nanos::from_secs(1),
        cost_multiplier: 4.0,
    });
    sys.begin_migrate(pid, Vpn(100), TierId::FAST, MigrateMode::Async)
        .unwrap();
    let degraded = sys.migration_backlog();
    assert!(
        degraded > healthy,
        "degraded backlog {:?} should exceed healthy {:?}",
        degraded,
        healthy
    );
}

#[test]
fn fault_free_run_draws_nothing_and_changes_nothing() {
    // The same access pattern with and without an inert fault plan must
    // be byte-identical in stats: the plan only matters when armed.
    let run = |plan: Option<FaultPlan>| {
        let mut cfg = SystemConfig::dram_pmem(64, 192);
        cfg.fault_plan = plan;
        let mut sys = TieredSystem::new(cfg);
        let pid = sys.add_process(128, PageSize::Base);
        for i in 0..128 {
            sys.access(pid, Vpn(i), false);
        }
        for i in 64..80 {
            let _ = sys.migrate(pid, Vpn(i), TierId::FAST, MigrateMode::Async);
        }
        sys.clock.advance(Nanos::from_millis(2));
        sys.complete_due_migrations();
        (
            sys.stats.promoted_pages,
            sys.stats.completed_migrations,
            sys.stats.transient_copy_faults,
            sys.free_frames(TierId::FAST),
        )
    };
    assert_eq!(run(None), run(Some(FaultPlan::inert(99))));
}

#[test]
fn stats_track_tier_split() {
    let mut sys = small_sys();
    let pid = sys.add_process(128, PageSize::Base);
    for i in 0..128 {
        sys.access(pid, Vpn(i), false);
    }
    // 56 fast + 72 slow demand accesses.
    assert_eq!(sys.stats.reads[TierId::FAST.index()], 56);
    assert_eq!(sys.stats.reads[TierId::SLOW.index()], 72);
    let fmar = sys.stats.fmar();
    assert!((fmar - 56.0 / 128.0).abs() < 1e-12);
}
