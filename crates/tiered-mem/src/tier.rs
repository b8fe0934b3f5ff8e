//! Memory tiers, their performance characteristics, and the tier chain.
//!
//! The substrate models an ordered *chain* of managed tiers — tier 0 is the
//! fastest (DRAM), higher indices are progressively slower/larger (CXL
//! memory, PMem) — with migration allowed only between adjacent tiers, each
//! copy running at the slower endpoint's bandwidth
//! ([`TierChain::copy_time`]). Swap remains the unmanaged
//! terminal backstop behind the last tier ([`TierChain::backstop`]): no
//! hotness tracking, just a place reclaimed pages go and major faults come
//! from. The classic two-tier DRAM+PMem shape of the paper's testbed is the
//! chain `[dram, pmem]`.

use sim_clock::Nanos;

use crate::addr::BASE_PAGE_BYTES;
use crate::config::SwapSpec;

/// Maximum number of managed tiers a chain may hold. Bounded by the 2-bit
/// tier-index encoding in [`crate::PageFlags`].
pub const MAX_TIERS: usize = 4;

/// Identifier of one managed tier: a dense index into the tier chain.
/// Tier 0 is the fastest; larger indices are slower.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TierId(pub u8);

impl TierId {
    /// The fastest tier (DRAM) — index 0.
    pub const FAST: TierId = TierId(0);
    /// The second tier — the "slow" tier of the classic two-tier shape.
    pub const SLOW: TierId = TierId(1);

    /// Dense index for per-tier arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the fastest (top) tier.
    #[inline]
    pub fn is_top(self) -> bool {
        self.0 == 0
    }

    /// The adjacent faster tier, or `None` at the top of the chain.
    #[inline]
    pub fn faster(self) -> Option<TierId> {
        self.0.checked_sub(1).map(TierId)
    }

    /// The adjacent slower tier (the caller must know the chain length).
    #[inline]
    pub fn slower(self) -> TierId {
        TierId(self.0 + 1)
    }
}

/// Health of one tier's failure domain. Driven by scheduled
/// [`crate::fault::TierEvent`]s (or the explicit
/// [`crate::TieredSystem::apply_tier_event`] API); the lifecycle is
/// `Online → Degrading → Evacuating → Offline → Rejoining → Online`, with
/// `Degrading` optional and `Rejoining` flipping back to `Online` on the
/// next migration-completion pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierHealth {
    /// Fully healthy: allocation, migration, and residency all allowed.
    Online,
    /// Device-level degradation until the given time: still a full chain
    /// member, but copies into the tier pay the degrade-window multiplier.
    Degrading {
        /// When the degradation window ends (exclusive).
        until: Nanos,
    },
    /// Being drained: no new residency, the emergency evacuation lane is
    /// pushing resident pages to the nearest healthy neighbor, and by
    /// `deadline` the tier force-drains and goes `Offline`.
    Evacuating {
        /// Absolute time by which the tier must be empty.
        deadline: Nanos,
    },
    /// Out of the chain: zero residency (oracle-enforced), frames offlined,
    /// and the chain spliced around the tier.
    Offline,
    /// Back from `Offline` but not yet re-admitted: frames are restored and
    /// the splice undone on the next migration-completion pass.
    Rejoining,
}

impl TierHealth {
    /// Whether the tier is a live chain member that may hold and accept
    /// pages (`Online` or `Degrading`).
    #[inline]
    pub fn accepts_pages(self) -> bool {
        matches!(self, TierHealth::Online | TierHealth::Degrading { .. })
    }

    /// Whether the tier has been spliced out of the chain (`Offline`, or
    /// still `Rejoining`). Evacuating tiers remain chain members so the
    /// drain can use their edges.
    #[inline]
    pub fn spliced_out(self) -> bool {
        matches!(self, TierHealth::Offline | TierHealth::Rejoining)
    }

    /// Compact code for trace digests and gauges (0 = Online so an
    /// all-healthy chain packs to 0 and fault-free digests are unchanged).
    #[inline]
    pub fn code(self) -> u8 {
        match self {
            TierHealth::Online => 0,
            TierHealth::Degrading { .. } => 1,
            TierHealth::Evacuating { .. } => 2,
            TierHealth::Offline => 3,
            TierHealth::Rejoining => 4,
        }
    }

    /// Short human label for traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            TierHealth::Online => "online",
            TierHealth::Degrading { .. } => "degrading",
            TierHealth::Evacuating { .. } => "evacuating",
            TierHealth::Offline => "offline",
            TierHealth::Rejoining => "rejoining",
        }
    }
}

/// Performance and capacity specification of one tier.
///
/// Defaults model the paper's testbed: DDR4 DRAM (~80 ns loads) and Intel
/// Optane PMem in a CPU-less NUMA node (~200 ns loads, markedly slower
/// stores — the asymmetry behind Chrono's larger wins on write-heavy
/// workloads in Fig 6).
#[derive(Debug, Clone)]
pub struct TierSpec {
    /// Capacity in base-page frames.
    pub frames: u32,
    /// Unloaded latency of a load served by this tier.
    pub read_latency: Nanos,
    /// Unloaded latency of a store served by this tier.
    pub write_latency: Nanos,
    /// Sustained bandwidth available for page migration, bytes/second.
    pub migration_bandwidth: u64,
    /// Random-access service capacity in operations/second; beyond ~70 %
    /// utilization, queueing inflates latency (Optane's on-DIMM buffering
    /// collapses under random traffic — the saturation behaviour
    /// characterized by Xiang et al. \[82\] that the paper's workloads hit).
    pub access_capacity_ops: u64,
    /// Device occupancy of a store relative to a load (Optane writes consume
    /// ~2.5× the device time of reads).
    pub write_weight: f64,
}

impl TierSpec {
    /// DRAM-like tier with the given frame count.
    pub fn dram(frames: u32) -> TierSpec {
        TierSpec {
            frames,
            read_latency: Nanos(80),
            write_latency: Nanos(90),
            migration_bandwidth: 10 * 1024 * 1024 * 1024, // 10 GiB/s
            access_capacity_ops: 400_000_000,
            write_weight: 1.0,
        }
    }

    /// Optane-PMem-like tier with the given frame count.
    pub fn pmem(frames: u32) -> TierSpec {
        TierSpec {
            frames,
            read_latency: Nanos(250),
            write_latency: Nanos(450),
            migration_bandwidth: 4 * 1024 * 1024 * 1024, // 4 GiB/s
            access_capacity_ops: 20_000_000,
            write_weight: 2.5,
        }
    }

    /// CXL-attached-DRAM-like tier (symmetric, ~200 ns) with the given frames.
    pub fn cxl(frames: u32) -> TierSpec {
        TierSpec {
            frames,
            read_latency: Nanos(200),
            write_latency: Nanos(220),
            migration_bandwidth: 8 * 1024 * 1024 * 1024,
            access_capacity_ops: 120_000_000,
            write_weight: 1.2,
        }
    }

    /// Capacity in bytes.
    pub fn bytes(&self) -> u64 {
        self.frames as u64 * BASE_PAGE_BYTES
    }

    /// Time to copy `pages` base pages over this tier's migration bandwidth.
    pub fn transfer_time(&self, pages: u64) -> Nanos {
        let bytes = pages * BASE_PAGE_BYTES;
        Nanos(bytes.saturating_mul(1_000_000_000) / self.migration_bandwidth.max(1))
    }
}

/// An ordered chain of managed tiers and the unmanaged swap backstop behind
/// the last tier.
#[derive(Debug, Clone)]
pub struct TierChain {
    /// Managed tiers, fastest first. Length 2..=[`MAX_TIERS`].
    pub tiers: Vec<TierSpec>,
    /// The unmanaged terminal: the swap device behind the last tier.
    pub backstop: SwapSpec,
}

impl TierChain {
    /// Builds a chain from tier specs with the default swap backstop.
    ///
    /// Panics if the chain has fewer than 2 or more than [`MAX_TIERS`] tiers.
    pub fn new(tiers: Vec<TierSpec>) -> TierChain {
        assert!(
            (2..=MAX_TIERS).contains(&tiers.len()),
            "tier chain must hold 2..={} tiers, got {}",
            MAX_TIERS,
            tiers.len()
        );
        TierChain {
            tiers,
            backstop: SwapSpec::default(),
        }
    }

    /// Number of managed tiers.
    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    /// A chain always holds at least two tiers.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The slowest (last) managed tier's id.
    pub fn last(&self) -> TierId {
        TierId(self.tiers.len() as u8 - 1)
    }

    /// Iterates the tier ids, fastest first.
    pub fn ids(&self) -> impl Iterator<Item = TierId> {
        (0..self.tiers.len() as u8).map(TierId)
    }

    /// The spec of one tier.
    pub fn tier(&self, id: TierId) -> &TierSpec {
        &self.tiers[id.index()]
    }

    /// Whether two tiers are adjacent in the chain.
    pub fn adjacent(&self, a: TierId, b: TierId) -> bool {
        let (a, b) = (a.index(), b.index());
        a < self.len() && b < self.len() && a.abs_diff(b) == 1
    }

    /// Time to copy `pages` base pages between tiers `a` and `b`, over an
    /// adjacent or a spliced hop alike: the transfer time at the slower
    /// endpoint's migration bandwidth. One division at the `min` bandwidth
    /// equals the `max` of the two per-tier transfer times bit for bit.
    pub fn copy_time(&self, a: TierId, b: TierId, pages: u64) -> Nanos {
        let bw = self
            .tier(a)
            .migration_bandwidth
            .min(self.tier(b).migration_bandwidth);
        Nanos((pages * BASE_PAGE_BYTES).saturating_mul(1_000_000_000) / bw.max(1))
    }

    /// Total capacity in frames across all managed tiers.
    pub fn total_frames(&self) -> u32 {
        self.tiers.iter().map(|t| t.frames).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense() {
        assert_eq!(TierId::FAST.index(), 0);
        assert_eq!(TierId::SLOW.index(), 1);
        assert!(TierId::FAST.is_top());
        assert!(!TierId::SLOW.is_top());
    }

    #[test]
    fn chain_neighbours() {
        assert_eq!(TierId::FAST.faster(), None);
        assert_eq!(TierId::SLOW.faster(), Some(TierId::FAST));
        assert_eq!(TierId::FAST.slower(), TierId::SLOW);
        assert_eq!(TierId(2).faster(), Some(TierId::SLOW));
    }

    #[test]
    fn pmem_has_write_asymmetry() {
        let t = TierSpec::pmem(1024);
        assert!(t.write_latency > t.read_latency);
    }

    #[test]
    fn dram_is_faster_than_pmem() {
        let d = TierSpec::dram(1024);
        let p = TierSpec::pmem(1024);
        assert!(d.read_latency < p.read_latency);
        assert!(d.write_latency < p.write_latency);
    }

    #[test]
    fn transfer_time_scales_with_pages() {
        let t = TierSpec::dram(1024);
        let one = t.transfer_time(1);
        let many = t.transfer_time(512);
        let ratio = many.as_nanos() as f64 / one.as_nanos() as f64;
        assert!((ratio - 512.0).abs() / 512.0 < 0.01, "ratio was {}", ratio);
        // 4 KiB over 10 GiB/s ≈ 381 ns.
        assert!(one.as_nanos() > 300 && one.as_nanos() < 500, "{:?}", one);
    }

    #[test]
    fn capacity_in_bytes() {
        assert_eq!(TierSpec::dram(256).bytes(), 256 * 4096);
    }

    #[test]
    fn chain_derives_adjacent_edges() {
        let c = TierChain::new(vec![
            TierSpec::dram(64),
            TierSpec::cxl(128),
            TierSpec::pmem(256),
        ]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.last(), TierId(2));
        assert_eq!(c.total_frames(), 64 + 128 + 256);
        assert!(c.adjacent(TierId(0), TierId(1)));
        assert!(c.adjacent(TierId(2), TierId(1)));
        assert!(!c.adjacent(TierId(0), TierId(2)));
        assert!(!c.adjacent(TierId(0), TierId(0)));
        let ids: Vec<u8> = c.ids().map(|t| t.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn copy_time_is_the_slower_endpoints_transfer_time() {
        // Pinned: 4 KiB and 2 MiB over 8 GiB/s (DRAM<->CXL) and 4 GiB/s
        // (either tier <-> PMem), in both directions, adjacent or not.
        let c = TierChain::new(vec![
            TierSpec::dram(64),
            TierSpec::cxl(128),
            TierSpec::pmem(256),
        ]);
        let pinned = [
            ((0, 1), 476, 244_140),
            ((1, 2), 953, 488_281),
            ((0, 2), 953, 488_281),
        ];
        for ((a, b), base, huge) in pinned {
            let (a, b) = (TierId(a), TierId(b));
            for (x, y) in [(a, b), (b, a)] {
                assert_eq!(c.copy_time(x, y, 1), Nanos(base));
                assert_eq!(c.copy_time(x, y, 512), Nanos(huge));
                // The max of the two per-tier transfer times, bit for bit.
                for pages in [1u64, 7, 512, 4096] {
                    let (tx, ty) = (c.tier(x), c.tier(y));
                    let max = tx.transfer_time(pages).max(ty.transfer_time(pages));
                    assert_eq!(c.copy_time(x, y, pages), max);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "tier chain must hold")]
    fn chain_rejects_single_tier() {
        TierChain::new(vec![TierSpec::dram(64)]);
    }

    #[test]
    fn tier_health_codes_are_dense_and_online_is_zero() {
        let states = [
            TierHealth::Online,
            TierHealth::Degrading { until: Nanos(1) },
            TierHealth::Evacuating { deadline: Nanos(1) },
            TierHealth::Offline,
            TierHealth::Rejoining,
        ];
        for (i, s) in states.iter().enumerate() {
            assert_eq!(s.code() as usize, i, "codes are dense in lifecycle order");
        }
        assert_eq!(TierHealth::Online.code(), 0, "all-healthy packs to zero");
        let labels: std::collections::BTreeSet<&str> = states.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), states.len(), "labels are distinct");
        assert!(TierHealth::Online.accepts_pages());
        assert!(TierHealth::Degrading { until: Nanos(1) }.accepts_pages());
        assert!(!TierHealth::Evacuating { deadline: Nanos(1) }.accepts_pages());
        assert!(!TierHealth::Offline.accepts_pages());
        assert!(!TierHealth::Rejoining.accepts_pages());
        assert!(TierHealth::Offline.spliced_out());
        assert!(TierHealth::Rejoining.spliced_out());
        assert!(!TierHealth::Evacuating { deadline: Nanos(1) }.spliced_out());
    }
}
