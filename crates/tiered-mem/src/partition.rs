//! Mutex-free partitioned frame allocation for multi-tenant sharding.
//!
//! A [`PartitionPlan`] carves one global pool of frames per managed tier into
//! per-tenant partitions. Each tenant's shard owns its partition exclusively
//! — the shard constructs its own frame tables over local PFNs `0..n` and
//! the plan records the global base of each range — so allocation needs no
//! locks at all: exclusivity is enforced by ownership (each `TenantShard`
//! holds its partition's tables by value), not by a mutex. Cross-tenant
//! identity questions ("is this physical frame mapped by two tenants?") are
//! answered by translating local PFNs through the plan: partitions are
//! contiguous, disjoint, and exhaustive by construction, which the
//! `tiering-verify` oracle re-checks as the *PFN exclusivity across tenants*
//! invariant.
//!
//! Splitting is deterministic: weighted largest-remainder apportionment with
//! ties broken by tenant id, and a per-tenant floor so every tenant can hold
//! at least a few resident pages plus working watermarks.

use crate::tier::{TierId, MAX_TIERS};

/// Minimum fast-tier frames any tenant partition receives (watermark floor).
pub const MIN_FAST_FRAMES: u32 = 16;
/// Minimum frames any tenant partition receives in each lower tier.
pub const MIN_SLOW_FRAMES: u32 = 32;

/// One tenant's slice of the global frame space: a contiguous range per
/// managed tier. Stays `Copy` — fixed-size arrays sized by [`MAX_TIERS`],
/// with slots past the chain length zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FramePartition {
    /// Owning tenant (index into the plan).
    pub tenant: u32,
    frames: [u32; MAX_TIERS],
    bases: [u64; MAX_TIERS],
    ntiers: u8,
}

impl FramePartition {
    /// Number of managed tiers this partition spans.
    pub fn num_tiers(&self) -> usize {
        self.ntiers as usize
    }

    /// Frames this partition holds in `tier`.
    pub fn frames(&self, tier: TierId) -> u32 {
        debug_assert!(tier.index() < self.num_tiers());
        self.frames[tier.index()]
    }

    /// Global PFN of this partition's first frame in `tier`.
    pub fn base(&self, tier: TierId) -> u64 {
        debug_assert!(tier.index() < self.num_tiers());
        self.bases[tier.index()]
    }

    /// Translates a shard-local PFN in `tier` to its global frame number.
    pub fn global_pfn(&self, tier: TierId, local: u32) -> u64 {
        debug_assert!(local < self.frames(tier), "local PFN outside partition");
        self.bases[tier.index()] + local as u64
    }
}

/// A deterministic partitioning of the global frame pools across tenants.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    parts: Vec<FramePartition>,
    totals: [u32; MAX_TIERS],
    ntiers: u8,
}

/// Largest-remainder apportionment of `total` units across `weights`, with a
/// per-share floor of `min`. Ties in the remainder ranking break toward the
/// lower index, so the split is a pure function of its arguments.
fn apportion(total: u32, weights: &[u64], min: u32) -> Vec<u32> {
    let n = weights.len();
    assert!(n > 0, "cannot partition across zero tenants");
    assert!(
        total as u64 >= min as u64 * n as u64,
        "{total} frames cannot give {n} tenants the {min}-frame floor"
    );
    let spare = total - min * n as u32;
    let sum_w: u128 = weights.iter().map(|&w| w.max(1) as u128).sum();
    let mut shares: Vec<u32> = Vec::with_capacity(n);
    // (remainder numerator, tenant) pairs for the leftover ranking.
    let mut rem: Vec<(u128, usize)> = Vec::with_capacity(n);
    let mut assigned = 0u32;
    for (i, &w) in weights.iter().enumerate() {
        let num = spare as u128 * w.max(1) as u128;
        let floor = (num / sum_w) as u32;
        shares.push(min + floor);
        assigned += floor;
        rem.push((num % sum_w, i));
    }
    // Hand the unassigned remainder out by largest fractional part; ties go
    // to the lower tenant id (sort is stable on the descending key).
    rem.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let leftover = spare - assigned;
    for &(_, i) in rem.iter().take(leftover as usize) {
        shares[i] += 1;
    }
    shares
}

impl PartitionPlan {
    /// Splits per-tier frame pools (`totals[t]` frames in tier `t`, one slot
    /// per managed tier) across `weights.len()` tenants proportionally to
    /// `weights` (zero weights count as one). Tier 0 uses the
    /// [`MIN_FAST_FRAMES`] floor, every deeper tier [`MIN_SLOW_FRAMES`].
    /// Panics if any pool cannot cover its floor.
    pub fn split_weighted_tiers(totals: &[u32], weights: &[u64]) -> PartitionPlan {
        PartitionPlan::split_tiers_inner(totals, weights, None)
    }

    fn split_tiers_inner(
        totals: &[u32],
        weights: &[u64],
        excluded: Option<TierId>,
    ) -> PartitionPlan {
        assert!(
            (2..=MAX_TIERS).contains(&totals.len()),
            "a partition plan spans 2..={MAX_TIERS} tiers, got {}",
            totals.len()
        );
        let ntiers = totals.len();
        let mut shares: Vec<Vec<u32>> = Vec::with_capacity(ntiers);
        for (t, &total) in totals.iter().enumerate() {
            // A spliced-out tier contributes nothing: zero pool, zero floor.
            let spliced = excluded.is_some_and(|e| e.index() == t);
            let (pool, min) = if spliced {
                (0, 0)
            } else if t == 0 {
                (total, MIN_FAST_FRAMES)
            } else {
                (total, MIN_SLOW_FRAMES)
            };
            shares.push(apportion(pool, weights, min));
        }
        let tenants = weights.len();
        let mut parts = Vec::with_capacity(tenants);
        let mut cursors = [0u64; MAX_TIERS];
        for i in 0..tenants {
            let mut frames = [0u32; MAX_TIERS];
            let mut bases = [0u64; MAX_TIERS];
            for (t, tier_shares) in shares.iter().enumerate() {
                frames[t] = tier_shares[i];
                bases[t] = cursors[t];
                cursors[t] += u64::from(tier_shares[i]);
            }
            parts.push(FramePartition {
                tenant: i as u32,
                frames,
                bases,
                ntiers: ntiers as u8,
            });
        }
        let mut padded = [0u32; MAX_TIERS];
        padded[..ntiers].copy_from_slice(totals);
        if let Some(e) = excluded {
            padded[e.index()] = 0;
        }
        PartitionPlan {
            parts,
            totals: padded,
            ntiers: ntiers as u8,
        }
    }

    /// Re-splits this plan's global pools with `offline`'s pool withdrawn —
    /// the chain-healing shape after a tier goes [`Offline`] and is spliced
    /// out. Every tenant's share in that tier collapses to zero frames (no
    /// floor applies to a spliced-out tier), while every healthy tier keeps
    /// its floor-enforced weighted split, byte-identical to a fresh
    /// [`split_weighted_tiers`] over the same pools. The result still
    /// [`covers_exactly`]: the withdrawn tier's recorded total is zero, so
    /// the contiguous/disjoint/exhaustive identity holds per tier.
    ///
    /// [`Offline`]: crate::tier::TierHealth::Offline
    /// [`split_weighted_tiers`]: PartitionPlan::split_weighted_tiers
    /// [`covers_exactly`]: PartitionPlan::covers_exactly
    pub fn resplit_excluding(&self, offline: TierId, weights: &[u64]) -> PartitionPlan {
        assert!(
            offline.index() < self.num_tiers(),
            "cannot splice tier {} out of a {}-tier plan",
            offline.index(),
            self.num_tiers()
        );
        assert_eq!(
            weights.len(),
            self.tenants(),
            "re-split must keep the tenant count"
        );
        let totals: Vec<u32> = (0..self.num_tiers()).map(|t| self.totals[t]).collect();
        PartitionPlan::split_tiers_inner(&totals, weights, Some(offline))
    }

    /// Number of tenant partitions.
    pub fn tenants(&self) -> usize {
        self.parts.len()
    }

    /// Number of managed tiers the plan spans.
    pub fn num_tiers(&self) -> usize {
        self.ntiers as usize
    }

    /// One tenant's partition.
    pub fn part(&self, tenant: usize) -> &FramePartition {
        &self.parts[tenant]
    }

    /// All partitions in tenant order.
    pub fn parts(&self) -> &[FramePartition] {
        &self.parts
    }

    /// Global frames the plan was built over in `tier`.
    pub fn total(&self, tier: TierId) -> u32 {
        debug_assert!(tier.index() < self.num_tiers());
        self.totals[tier.index()]
    }

    /// Whether the partitions are contiguous, disjoint, and exhaustive —
    /// every global frame in every tier belongs to exactly one tenant. This
    /// is the static half of the *PFN exclusivity across tenants* invariant;
    /// the dynamic half (each shard's frame tables sized to its partition)
    /// is the oracle's to check.
    pub fn covers_exactly(&self) -> bool {
        let ntiers = self.num_tiers();
        let mut cursors = [0u64; MAX_TIERS];
        for (i, p) in self.parts.iter().enumerate() {
            if u64::from(p.tenant) != i as u64 || p.num_tiers() != ntiers {
                return false;
            }
            for (t, cursor) in cursors.iter_mut().enumerate().take(ntiers) {
                if p.bases[t] != *cursor {
                    return false;
                }
                *cursor += u64::from(p.frames[t]);
            }
        }
        (0..ntiers).all(|t| cursors[t] == u64::from(self.totals[t]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAST: TierId = TierId::FAST;
    const SLOW: TierId = TierId::SLOW;

    #[test]
    fn even_split_conserves_and_covers() {
        let plan = PartitionPlan::split_weighted_tiers(&[1000, 3000], &[1; 7]);
        assert_eq!(plan.tenants(), 7);
        assert_eq!(plan.num_tiers(), 2);
        assert_capacity_identity(&plan);
        assert_eq!((plan.total(FAST), plan.total(SLOW)), (1000, 3000));
        // Even weights: shares differ by at most one frame.
        let fast = plan.parts().iter().map(|p| p.frames(FAST));
        assert!(fast.clone().max().unwrap() - fast.min().unwrap() <= 1);
    }

    #[test]
    fn weighted_split_is_proportional_with_floor() {
        let weights = [100u64, 1, 1, 1];
        let plan = PartitionPlan::split_weighted_tiers(&[1024, 4096], &weights);
        assert!(plan.covers_exactly());
        for p in plan.parts() {
            assert!(p.frames(FAST) >= MIN_FAST_FRAMES);
            assert!(p.frames(SLOW) >= MIN_SLOW_FRAMES);
        }
        // The heavy tenant dominates the spare pool beyond the floors.
        assert!(plan.part(0).frames(FAST) > 900);
    }

    #[test]
    fn split_is_deterministic() {
        let weights = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let a = PartitionPlan::split_weighted_tiers(&[2048, 6144], &weights);
        let b = PartitionPlan::split_weighted_tiers(&[2048, 6144], &weights);
        assert_eq!(a.parts(), b.parts());
    }

    #[test]
    fn global_pfns_are_disjoint_across_tenants() {
        let plan = PartitionPlan::split_weighted_tiers(&[64, 128], &[1; 3]);
        let mut seen = std::collections::BTreeSet::new();
        for p in plan.parts() {
            for l in 0..p.frames(FAST) {
                assert!(seen.insert(("fast", p.global_pfn(FAST, l))));
            }
            for l in 0..p.frames(SLOW) {
                assert!(seen.insert(("slow", p.global_pfn(SLOW, l))));
            }
        }
        assert_eq!(seen.len(), 64 + 128);
    }

    #[test]
    #[should_panic(expected = "floor")]
    fn underprovisioned_pool_panics() {
        PartitionPlan::split_weighted_tiers(&[MIN_FAST_FRAMES * 2 - 1, 4096], &[1; 2]);
    }

    /// Asserts the capacity identity for a plan: contiguous/disjoint/
    /// exhaustive cover and per-tier sums equal to the global pools.
    fn assert_capacity_identity(plan: &PartitionPlan) {
        assert!(plan.covers_exactly());
        for t in 0..plan.num_tiers() {
            let tier = TierId(t as u8);
            let sum: u64 = plan.parts().iter().map(|p| p.frames(tier) as u64).sum();
            assert_eq!(sum, u64::from(plan.total(tier)));
        }
    }

    #[test]
    fn zero_weight_tenant_still_gets_the_floor_and_a_share() {
        // Zero weights behave as one: the tenant is not starved below the
        // floor, and the capacity identity still holds exactly.
        let weights = [0u64, 7, 0, 7];
        let plan = PartitionPlan::split_weighted_tiers(&[1024, 4096], &weights);
        assert_capacity_identity(&plan);
        for p in plan.parts() {
            assert!(p.frames(FAST) >= MIN_FAST_FRAMES);
            assert!(p.frames(SLOW) >= MIN_SLOW_FRAMES);
        }
        // Zero behaves as weight 1, so both zero-weight tenants receive the
        // same share and strictly less than the weight-7 tenants.
        assert_eq!(plan.part(0).frames(FAST), plan.part(2).frames(FAST));
        assert!(plan.part(0).frames(FAST) < plan.part(1).frames(FAST));
        // And identically to an explicit weight-1 plan.
        let ones = PartitionPlan::split_weighted_tiers(&[1024, 4096], &[1, 7, 1, 7]);
        assert_eq!(plan.parts(), ones.parts());
    }

    #[test]
    fn floor_dominated_tiny_pools_split_exactly() {
        // Pools sized exactly at the floors: the spare pool is zero, every
        // tenant gets precisely the floor regardless of weight skew, and
        // nothing is lost to rounding.
        let weights = [1000u64, 1, 1];
        let n = weights.len() as u32;
        let plan = PartitionPlan::split_weighted_tiers(
            &[MIN_FAST_FRAMES * n, MIN_SLOW_FRAMES * n],
            &weights,
        );
        assert_capacity_identity(&plan);
        for p in plan.parts() {
            assert_eq!(p.frames(FAST), MIN_FAST_FRAMES);
            assert_eq!(p.frames(SLOW), MIN_SLOW_FRAMES);
        }
        // One spare frame past the floors lands on the heaviest tenant.
        let plus_one = PartitionPlan::split_weighted_tiers(
            &[MIN_FAST_FRAMES * n + 1, MIN_SLOW_FRAMES * n],
            &weights,
        );
        assert_capacity_identity(&plus_one);
        assert_eq!(plus_one.part(0).frames(FAST), MIN_FAST_FRAMES + 1);
        assert_eq!(plus_one.part(1).frames(FAST), MIN_FAST_FRAMES);
    }

    #[test]
    fn single_tenant_plan_is_degenerate_and_exact() {
        // One tenant owns the whole pool: bases at zero, shares equal to the
        // totals, capacity identity trivially exact — the shape the classic
        // single-tenant compat path builds.
        let plan = PartitionPlan::split_weighted_tiers(&[777, 2048], &[5]);
        assert_capacity_identity(&plan);
        let p = plan.part(0);
        assert_eq!((p.base(TierId::FAST), p.base(TierId::SLOW)), (0, 0));
        assert_eq!((p.frames(FAST), p.frames(SLOW)), (777, 2048));
        assert_eq!(p.global_pfn(FAST, 776), 776);
        assert_eq!(p.global_pfn(SLOW, 2047), 2047);
    }

    #[test]
    fn resplit_excluding_offline_tier_keeps_identity_and_floors() {
        let weights = [5u64, 1, 3];
        let plan = PartitionPlan::split_weighted_tiers(&[256, 512, 1024], &weights);
        assert_capacity_identity(&plan);
        let mid = TierId(1);
        let healed = plan.resplit_excluding(mid, &weights);
        // The healed plan still spans three tier slots but the spliced-out
        // tier's pool is withdrawn entirely: zero total, zero per tenant.
        assert_eq!(healed.num_tiers(), 3);
        assert_capacity_identity(&healed);
        assert_eq!(healed.total(mid), 0);
        for p in healed.parts() {
            assert_eq!(p.frames(mid), 0);
            assert!(p.frames(TierId::FAST) >= MIN_FAST_FRAMES);
            assert!(p.frames(TierId(2)) >= MIN_SLOW_FRAMES);
        }
        // Healthy tiers re-split byte-identically to the original plan: the
        // withdrawn pool never fed the other tiers' apportionment.
        for t in [TierId::FAST, TierId(2)] {
            assert_eq!(healed.total(t), plan.total(t));
            for (a, b) in plan.parts().iter().zip(healed.parts()) {
                assert_eq!(a.frames(t), b.frames(t));
                assert_eq!(a.base(t), b.base(t));
            }
        }
        // Deterministic: re-splitting twice gives the same partitions.
        let again = plan.resplit_excluding(mid, &weights);
        assert_eq!(healed.parts(), again.parts());
    }

    #[test]
    fn resplit_excluding_edge_tiers_covers_exactly() {
        // Splicing out either end of the chain (dying FAST device, dying
        // capacity tier) still yields an exact cover with floors intact on
        // the survivors — the floor rule is per healthy tier, not global.
        let weights = [2u64, 2, 1, 1];
        let plan = PartitionPlan::split_weighted_tiers(&[128, 256, 512], &weights);
        for dead in [TierId::FAST, TierId(2)] {
            let healed = plan.resplit_excluding(dead, &weights);
            assert_capacity_identity(&healed);
            assert_eq!(healed.total(dead), 0);
            for p in healed.parts() {
                assert_eq!(p.frames(dead), 0);
            }
            for t in (0..3).map(|i| TierId(i as u8)).filter(|&t| t != dead) {
                let floor = if t == TierId::FAST {
                    MIN_FAST_FRAMES
                } else {
                    MIN_SLOW_FRAMES
                };
                assert!(healed.parts().iter().all(|p| p.frames(t) >= floor));
            }
        }
    }

    #[test]
    #[should_panic(expected = "tenant count")]
    fn resplit_excluding_rejects_tenant_count_change() {
        let plan = PartitionPlan::split_weighted_tiers(&[256, 512], &[1; 3]);
        plan.resplit_excluding(TierId(1), &[1, 1]);
    }

    #[test]
    fn three_tier_plan_partitions_every_tier() {
        let weights = [2u64, 1];
        let plan = PartitionPlan::split_weighted_tiers(&[128, 256, 512], &weights);
        assert_eq!(plan.num_tiers(), 3);
        assert_capacity_identity(&plan);
        let mid = TierId(1);
        let cold = TierId(2);
        // Second tenant's ranges start where the first tenant's end, per tier.
        let (a, b) = (plan.part(0), plan.part(1));
        for t in [TierId::FAST, mid, cold] {
            assert_eq!(b.base(t), a.base(t) + u64::from(a.frames(t)));
            assert!(a.frames(t) > b.frames(t), "weight-2 tenant gets more");
        }
        assert_eq!(plan.total(cold), 512);
    }
}
