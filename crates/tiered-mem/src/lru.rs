//! Linux-style two-list (active/inactive) LRU with lazy deletion.
//!
//! List entries carry the page's `lru_stamp` at insertion time. Removing a
//! page from the lists is O(1): bump the stamp in its
//! [`PageEntry`](crate::page::PageEntry) and any queued entries become
//! stale, to be discarded when they surface. This mirrors how the simulator
//! avoids the intrusive doubly-linked `struct page` lists of the kernel
//! without changing eviction order.

use std::collections::VecDeque;

use crate::addr::{ProcessId, Vpn};

/// Which of the two lists an entry sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LruKind {
    /// Recently/frequently used pages.
    Active,
    /// Reclaim/demotion candidates.
    Inactive,
}

/// A queued page reference; live only while its stamp matches the page's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LruEntry {
    /// Owning process.
    pub pid: ProcessId,
    /// Page within the process.
    pub vpn: Vpn,
    /// Stamp snapshot; compare against `PageEntry::lru_stamp`.
    pub stamp: u16,
}

/// The two LRU lists of one tier.
///
/// Queue discipline: new/rotated pages are pushed to the *tail*; aging and
/// reclaim pop from the *head* — oldest first, as in the kernel.
#[derive(Debug, Default)]
pub struct LruLists {
    active: VecDeque<LruEntry>,
    inactive: VecDeque<LruEntry>,
}

impl LruLists {
    /// Creates empty lists.
    pub fn new() -> LruLists {
        LruLists::default()
    }

    /// Pushes an entry onto the tail of the chosen list.
    pub fn push(&mut self, kind: LruKind, entry: LruEntry) {
        match kind {
            LruKind::Active => self.active.push_back(entry),
            LruKind::Inactive => self.inactive.push_back(entry),
        }
    }

    /// Pops the oldest entry of the chosen list (may be stale; the caller
    /// validates against the page table and retries).
    pub fn pop(&mut self, kind: LruKind) -> Option<LruEntry> {
        match kind {
            LruKind::Active => self.active.pop_front(),
            LruKind::Inactive => self.inactive.pop_front(),
        }
    }

    /// Iterates the chosen list oldest-first, stale entries included (the
    /// caller filters by stamp). Backs external invariant checking.
    pub fn iter(&self, kind: LruKind) -> impl Iterator<Item = &LruEntry> {
        match kind {
            LruKind::Active => self.active.iter(),
            LruKind::Inactive => self.inactive.iter(),
        }
    }

    /// Queue length including stale entries (an upper bound on live pages).
    pub fn queued(&self, kind: LruKind) -> usize {
        match kind {
            LruKind::Active => self.active.len(),
            LruKind::Inactive => self.inactive.len(),
        }
    }

    /// Drops all entries (used when reconfiguring a system between runs).
    pub fn clear(&mut self) {
        self.active.clear();
        self.inactive.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(vpn: u32, stamp: u16) -> LruEntry {
        LruEntry {
            pid: ProcessId(0),
            vpn: Vpn(vpn),
            stamp,
        }
    }

    #[test]
    fn fifo_order_within_list() {
        let mut l = LruLists::new();
        l.push(LruKind::Inactive, e(1, 0));
        l.push(LruKind::Inactive, e(2, 0));
        l.push(LruKind::Inactive, e(3, 0));
        assert_eq!(l.pop(LruKind::Inactive).unwrap().vpn, Vpn(1));
        assert_eq!(l.pop(LruKind::Inactive).unwrap().vpn, Vpn(2));
        assert_eq!(l.pop(LruKind::Inactive).unwrap().vpn, Vpn(3));
        assert!(l.pop(LruKind::Inactive).is_none());
    }

    #[test]
    fn lists_are_independent() {
        let mut l = LruLists::new();
        l.push(LruKind::Active, e(1, 0));
        l.push(LruKind::Inactive, e(2, 0));
        assert_eq!(l.queued(LruKind::Active), 1);
        assert_eq!(l.queued(LruKind::Inactive), 1);
        assert_eq!(l.pop(LruKind::Active).unwrap().vpn, Vpn(1));
        assert_eq!(l.queued(LruKind::Active), 0);
        assert_eq!(l.queued(LruKind::Inactive), 1);
    }

    #[test]
    fn clear_empties_both() {
        let mut l = LruLists::new();
        l.push(LruKind::Active, e(1, 0));
        l.push(LruKind::Inactive, e(2, 0));
        l.clear();
        assert_eq!(l.queued(LruKind::Active), 0);
        assert_eq!(l.queued(LruKind::Inactive), 0);
    }
}
