//! Per-process virtual address spaces.

use crate::addr::{PageSize, Vpn, HUGE_2M_PAGES};
use crate::page::{PageEntry, PageFlags};
use crate::tier::{TierId, MAX_TIERS};

/// One process's page table: a dense array of [`PageEntry`]s.
///
/// The mapping granularity is chosen at creation: base 4 KiB pages, or 2 MiB
/// huge pages. Under huge mappings the *head* entry of each 512-page block
/// carries the block's PTE state (present/`PROT_NONE`/accessed bits and
/// policy words) — mirroring a PMD-level mapping — until the block is split,
/// after which its base entries act independently.
#[derive(Debug)]
pub struct AddressSpace {
    entries: Vec<PageEntry>,
    page_size: PageSize,
}

impl AddressSpace {
    /// Creates an address space covering `pages` base pages.
    ///
    /// For huge mappings, `pages` is rounded up to a whole number of blocks.
    pub fn new(pages: u32, page_size: PageSize) -> AddressSpace {
        let pages = match page_size {
            PageSize::Base => pages,
            PageSize::Huge2M => pages.div_ceil(HUGE_2M_PAGES) * HUGE_2M_PAGES,
        };
        AddressSpace {
            entries: vec![PageEntry::default(); pages as usize],
            page_size,
        }
    }

    /// Number of base pages in the space.
    pub fn pages(&self) -> u32 {
        self.entries.len() as u32
    }

    /// The mapping granularity of this space.
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Whether this space uses 2 MiB huge mappings.
    pub fn is_huge(&self) -> bool {
        self.page_size == PageSize::Huge2M
    }

    /// The page whose PTE governs an access to `vpn`: `vpn` itself for base
    /// mappings and split blocks, the block head for intact huge mappings.
    pub fn pte_page(&self, vpn: Vpn) -> Vpn {
        match self.page_size {
            PageSize::Base => vpn,
            PageSize::Huge2M => {
                let head = vpn.huge_head();
                if self.entries[head.0 as usize]
                    .flags
                    .has(PageFlags::HUGE_SPLIT)
                {
                    vpn
                } else {
                    head
                }
            }
        }
    }

    /// Whether the block containing `vpn` is mapped huge and unsplit.
    pub fn is_huge_mapped(&self, vpn: Vpn) -> bool {
        self.is_huge()
            && !self.entries[vpn.huge_head().0 as usize]
                .flags
                .has(PageFlags::HUGE_SPLIT)
    }

    /// Base pages in the mapping unit of `vpn`: a whole block while it is
    /// mapped huge, one page otherwise.
    pub fn unit_pages(&self, vpn: Vpn) -> u32 {
        if self.is_huge_mapped(vpn) {
            HUGE_2M_PAGES
        } else {
            1
        }
    }

    /// Immutable access to a page entry.
    #[inline]
    pub fn entry(&self, vpn: Vpn) -> &PageEntry {
        &self.entries[vpn.0 as usize]
    }

    /// Mutable access to a page entry.
    #[inline]
    pub fn entry_mut(&mut self, vpn: Vpn) -> &mut PageEntry {
        &mut self.entries[vpn.0 as usize]
    }

    /// Marks a block as split: subsequent accesses use base-page PTEs. The
    /// head's PTE state is copied to all tail entries so the block's pages
    /// keep their mapping (Memtis-style huge page splitting).
    pub fn split_block(&mut self, head: Vpn) {
        debug_assert!(head.is_huge_head(), "split must target a block head");
        let head_idx = head.0 as usize;
        let template = self.entries[head_idx];
        for off in 1..HUGE_2M_PAGES as usize {
            let e = &mut self.entries[head_idx + off];
            // Tail entries already carry their own frames (allocated at map
            // time); they inherit the head's flags and policy words.
            let pfn = e.pfn;
            let stamp = e.lru_stamp;
            *e = template;
            e.pfn = pfn;
            e.lru_stamp = stamp;
            e.flags.clear(PageFlags::HUGE_HEAD);
        }
        self.entries[head_idx].flags.set(PageFlags::HUGE_SPLIT);
        self.entries[head_idx].flags.clear(PageFlags::HUGE_HEAD);
    }

    /// Iterates over the PTE-carrying pages of a wrapped range of the address
    /// space, calling `f` for each *present* PTE page.
    ///
    /// This is the primitive behind Ticking-scan and the NUMA-balancing scan:
    /// `start` is a base-page cursor; `len` is in base pages; the walk visits
    /// one entry per mapping unit (so a huge block counts as 512 base pages of
    /// progress but a single callback). Returns the new cursor.
    pub fn walk_range<F>(&mut self, start: Vpn, len: u32, mut f: F) -> Vpn
    where
        F: FnMut(Vpn, &mut PageEntry),
    {
        let total = self.pages();
        if total == 0 {
            return start;
        }
        let mut pos = start.0 % total;
        let mut remaining = len.min(total);
        // Base mappings have no block logic, so the sweep is just the backing
        // slice in at most two contiguous segments (pre-wrap, post-wrap);
        // iterating the slices directly lets the compiler hoist the bounds
        // and modulo work out of the per-page loop.
        if self.page_size == PageSize::Base {
            let first = remaining.min(total - pos);
            for (off, e) in self.entries[pos as usize..(pos + first) as usize]
                .iter_mut()
                .enumerate()
            {
                if e.present() {
                    f(Vpn(pos + off as u32), e);
                }
            }
            let rest = (remaining - first) as usize;
            for (off, e) in self.entries[..rest].iter_mut().enumerate() {
                if e.present() {
                    f(Vpn(off as u32), e);
                }
            }
            return Vpn((pos + remaining) % total);
        }
        while remaining > 0 {
            let vpn = Vpn(pos);
            let unit = if self.is_huge_mapped(vpn) {
                let head = vpn.huge_head();
                // Step to the end of the block regardless of where we are in
                // it, but only fire the callback from the head: a cursor that
                // lands mid-block (stale after a split was re-collapsed, or a
                // wrap into a block interior) would otherwise visit the head
                // here AND again when the walk comes back around to it.
                if vpn == head && self.entries[head.0 as usize].present() {
                    f(head, &mut self.entries[head.0 as usize]);
                }
                HUGE_2M_PAGES - vpn.huge_offset()
            } else {
                if self.entries[pos as usize].present() {
                    f(vpn, &mut self.entries[pos as usize]);
                }
                1
            };
            pos = (pos + unit) % total;
            remaining = remaining.saturating_sub(unit);
        }
        Vpn(pos)
    }

    /// Counts resident base pages per tier (diagnostic; O(n)). Slots past
    /// the configured chain length stay zero.
    pub fn resident_pages(&self) -> [u32; MAX_TIERS] {
        let mut counts = [0u32; MAX_TIERS];
        let mut i = 0usize;
        while i < self.entries.len() {
            let vpn = Vpn(i as u32);
            if self.is_huge_mapped(vpn) && vpn.is_huge_head() {
                let e = &self.entries[i];
                if e.present() {
                    counts[e.tier().index()] += HUGE_2M_PAGES;
                }
                i += HUGE_2M_PAGES as usize;
            } else {
                let e = &self.entries[i];
                if e.present() {
                    counts[e.tier().index()] += 1;
                }
                i += 1;
            }
        }
        counts
    }

    /// Fraction of resident pages in the fast tier, or `None` if nothing is
    /// resident yet.
    pub fn fast_tier_fraction(&self) -> Option<f64> {
        let counts = self.resident_pages();
        let total: u32 = counts.iter().sum();
        if total == 0 {
            None
        } else {
            Some(counts[TierId::FAST.index()] as f64 / total as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Pfn;

    fn mapped_entry(tier: TierId) -> PageEntry {
        let mut e = PageEntry {
            pfn: Pfn(0),
            ..Default::default()
        };
        e.flags.set(PageFlags::PRESENT);
        e.flags.set_tier(tier);
        e
    }

    #[test]
    fn base_space_pte_page_is_identity() {
        let s = AddressSpace::new(64, PageSize::Base);
        assert_eq!(s.pte_page(Vpn(17)), Vpn(17));
        assert!(!s.is_huge_mapped(Vpn(17)));
    }

    #[test]
    fn huge_space_rounds_up_and_uses_heads() {
        let s = AddressSpace::new(600, PageSize::Huge2M);
        assert_eq!(s.pages(), 1024);
        assert_eq!(s.pte_page(Vpn(700)), Vpn(512));
        assert!(s.is_huge_mapped(Vpn(700)));
    }

    #[test]
    fn split_block_devolves_to_base_ptes() {
        let mut s = AddressSpace::new(1024, PageSize::Huge2M);
        *s.entry_mut(Vpn(0)) = mapped_entry(TierId::FAST);
        s.entry_mut(Vpn(0)).flags.set(PageFlags::HUGE_HEAD);
        for i in 1..512 {
            s.entry_mut(Vpn(i)).pfn = Pfn(i);
        }
        s.split_block(Vpn(0));
        assert_eq!(s.pte_page(Vpn(100)), Vpn(100));
        assert!(!s.is_huge_mapped(Vpn(100)));
        // Tail entries inherited the head's present flag and tier.
        assert!(s.entry(Vpn(100)).present());
        assert_eq!(s.entry(Vpn(100)).tier(), TierId::FAST);
        // But kept their own frames.
        assert_eq!(s.entry(Vpn(100)).pfn, Pfn(100));
    }

    #[test]
    fn walk_range_wraps_around() {
        let mut s = AddressSpace::new(8, PageSize::Base);
        for i in 0..8 {
            *s.entry_mut(Vpn(i)) = mapped_entry(TierId::SLOW);
        }
        let mut seen = Vec::new();
        let next = s.walk_range(Vpn(6), 4, |v, _| seen.push(v.0));
        assert_eq!(seen, vec![6, 7, 0, 1]);
        assert_eq!(next, Vpn(2));
    }

    #[test]
    fn walk_range_skips_unmapped() {
        let mut s = AddressSpace::new(4, PageSize::Base);
        *s.entry_mut(Vpn(2)) = mapped_entry(TierId::FAST);
        let mut seen = Vec::new();
        s.walk_range(Vpn(0), 4, |v, _| seen.push(v.0));
        assert_eq!(seen, vec![2]);
    }

    #[test]
    fn walk_range_visits_huge_block_once() {
        let mut s = AddressSpace::new(1024, PageSize::Huge2M);
        for head in [0u32, 512] {
            *s.entry_mut(Vpn(head)) = mapped_entry(TierId::SLOW);
            s.entry_mut(Vpn(head)).flags.set(PageFlags::HUGE_HEAD);
        }
        let mut seen = Vec::new();
        let next = s.walk_range(Vpn(0), 1024, |v, _| seen.push(v.0));
        assert_eq!(seen, vec![0, 512]);
        assert_eq!(next, Vpn(0));
    }

    #[test]
    fn walk_range_mid_block_entry_does_not_double_visit_head() {
        // Regression: a cursor entering a huge block mid-way fired the
        // callback on the block head and then fired it again after wrapping
        // back to the head, double-counting the block in one sweep.
        let mut s = AddressSpace::new(1024, PageSize::Huge2M);
        for head in [0u32, 512] {
            *s.entry_mut(Vpn(head)) = mapped_entry(TierId::SLOW);
            s.entry_mut(Vpn(head)).flags.set(PageFlags::HUGE_HEAD);
        }
        let mut seen = Vec::new();
        let next = s.walk_range(Vpn(600), 1024, |v, _| seen.push(v.0));
        // Mid-block entry skips to the block end without a visit; one full
        // sweep then sees each head exactly once.
        assert_eq!(seen, vec![0, 512]);
        // Progress still counts the partial block: 424 pages to the block
        // end, then two full blocks exhaust the budget back at the origin.
        assert_eq!(next, Vpn(0));
    }

    #[test]
    fn resident_counts_by_tier() {
        let mut s = AddressSpace::new(10, PageSize::Base);
        *s.entry_mut(Vpn(0)) = mapped_entry(TierId::FAST);
        *s.entry_mut(Vpn(1)) = mapped_entry(TierId::SLOW);
        *s.entry_mut(Vpn(2)) = mapped_entry(TierId::SLOW);
        *s.entry_mut(Vpn(3)) = mapped_entry(TierId(2));
        assert_eq!(s.resident_pages(), [1, 2, 1, 0]);
        let f = s.fast_tier_fraction().unwrap();
        assert!((f - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_space_has_no_fraction() {
        let s = AddressSpace::new(4, PageSize::Base);
        assert_eq!(s.fast_tier_fraction(), None);
    }
}
