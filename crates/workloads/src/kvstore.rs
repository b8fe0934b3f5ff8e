//! An in-memory key-value store workload (Memcached / Redis, Section 5.3).
//!
//! Models the memory behaviour that matters for tiering: a hash-bucket array
//! region, an item-data region (and, for Redis, a separate object-metadata
//! region mirroring its `robj`/`sds` split), driven by memtier-style
//! Gaussian-popularity SET/GET operations. Items are initialized
//! sequentially, as the paper does to equalize the starting page placement.

use sim_clock::{DetRng, Nanos};
use tiered_mem::Vpn;

use crate::{AccessReq, Workload};

/// Bytes per page.
const PAGE_BYTES: u64 = 4096;
/// CPU work per operation (hashing, protocol handling); memtier keeps deep
/// pipelines per connection, so per-op CPU overlaps with memory time.
const OP_THINK: Nanos = Nanos(60);
/// Key popularity: Gaussian over the key space around the middle key, with
/// σ this fraction of the key space (memtier's Gaussian key pattern, the
/// paper's configuration).
const SIGMA_FRAC: f64 = 0.15;

/// Which store to model; they differ in per-item overhead and layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvFlavor {
    /// Slab-allocated items; key+value+header contiguous.
    Memcached,
    /// Separate object header (`robj`) region and value (`sds`) region: each
    /// operation touches one extra metadata page.
    Redis,
}

#[derive(Debug, Clone)]
/// KV workload configuration.
pub struct KvStoreConfig {
    /// Number of items in the store.
    pub items: u32,
    /// Value size in bytes (the paper's 160 GB / 500 M items ≈ 320 B/item).
    pub value_bytes: u32,
    /// Store flavour.
    pub flavor: KvFlavor,
    /// SET fraction (1:10 Set/Get → 1/11; 1:1 → 0.5).
    pub set_ratio: f64,
    /// Slab-allocator address-space spread: the data region's virtual span
    /// is `spread x` its dense size, with gaps between used pages. Real
    /// allocators scatter items this way, and it is what makes huge-page
    /// systems *bloat* (Memtis's 145 % average bloat rate in Section 5.3): a
    /// 2 MiB mapping unit in the hot region carries `1/spread` useful pages.
    pub layout_spread: f64,
    /// RNG seed.
    pub seed: u64,
    /// Operations to issue after initialization; `u64::MAX` = unbounded.
    pub total_ops: u64,
}

impl KvStoreConfig {
    /// A store sized to roughly `pages` base pages of data.
    pub fn sized_to_pages(
        pages: u32,
        flavor: KvFlavor,
        set_ratio: f64,
        seed: u64,
    ) -> KvStoreConfig {
        let value_bytes = 320u32;
        let item_bytes = value_bytes + flavor_overhead(flavor);
        let items_per_page = (PAGE_BYTES / item_bytes as u64).max(1);
        // Reserve ~15 % of pages for buckets/metadata, and account for the
        // slab spread so the *virtual* footprint lands near `pages`.
        let spread = 1.5f64;
        let data_pages = ((pages as u64 * 85) / 100) as f64 / spread;
        let data_pages = data_pages as u64;
        KvStoreConfig {
            items: (data_pages * items_per_page).max(64) as u32,
            value_bytes,
            flavor,
            set_ratio,
            layout_spread: 1.5,
            seed,
            total_ops: u64::MAX,
        }
    }
}

fn flavor_overhead(flavor: KvFlavor) -> u32 {
    match flavor {
        KvFlavor::Memcached => 56,
        KvFlavor::Redis => 32, // header lives in the separate robj region
    }
}

/// A running KV-store process.
pub struct KvStoreWorkload {
    cfg: KvStoreConfig,
    rng: DetRng,
    items_per_page: u32,
    bucket_pages: u32,
    meta_pages: u32,
    data_pages: u32,
    init_cursor: u32,
    issued_ops: u64,
    pending: Option<AccessReq>,
    pending2: Option<AccessReq>,
}

impl KvStoreWorkload {
    /// Instantiates the store; the first `items` operations are the
    /// sequential initialization pass.
    pub fn new(cfg: KvStoreConfig) -> KvStoreWorkload {
        let item_bytes = cfg.value_bytes + flavor_overhead(cfg.flavor);
        let items_per_page = (PAGE_BYTES / item_bytes as u64).max(1) as u32;
        let data_pages = cfg.items.div_ceil(items_per_page);
        // One 8-byte bucket per item, 512 buckets per page.
        let bucket_pages = cfg.items.div_ceil(512).max(1);
        // Redis: one 16-byte robj per item, 256 per page.
        let meta_pages = match cfg.flavor {
            KvFlavor::Memcached => 0,
            KvFlavor::Redis => cfg.items.div_ceil(256).max(1),
        };
        KvStoreWorkload {
            rng: DetRng::seed(cfg.seed),
            cfg,
            items_per_page,
            bucket_pages,
            meta_pages,
            data_pages,
            init_cursor: 0,
            issued_ops: 0,
            pending: None,
            pending2: None,
        }
    }

    fn bucket_page(&self, item: u32) -> Vpn {
        // Bucket index is a hash of the key, scattering popularity.
        let h = (item as u64).wrapping_mul(0x9E3779B97F4A7C15);
        Vpn((h % self.bucket_pages as u64) as u32)
    }

    fn meta_page(&self, item: u32) -> Vpn {
        Vpn(self.bucket_pages + item / 256)
    }

    fn data_page(&self, item: u32) -> Vpn {
        // Dense data-page index, spread over the slab region: injective for
        // spread >= 1, preserving locality while leaving allocator gaps.
        let dense = item / self.items_per_page;
        let spread = (dense as f64 * self.cfg.layout_spread) as u32;
        Vpn(self.bucket_pages + self.meta_pages + spread)
    }

    /// Samples an item id from the Gaussian key popularity.
    fn sample_item(&mut self) -> u32 {
        let n = self.cfg.items as f64;
        self.rng
            .normal_index(n / 2.0, n * SIGMA_FRAC, self.cfg.items)
    }

    /// Ground truth for classification experiments: whether an item's data
    /// page lies within ±1σ of the Gaussian popularity centre.
    pub fn in_hot_center(&self, vpn: Vpn) -> bool {
        let n = self.cfg.items as f64;
        let lo_item = (n / 2.0 - n * SIGMA_FRAC) as u32;
        let hi_item = (n / 2.0 + n * SIGMA_FRAC) as u32;
        let lo = self.data_page(lo_item);
        let hi = self.data_page(hi_item);
        (lo.0..=hi.0).contains(&vpn.0)
    }
}

impl Workload for KvStoreWorkload {
    fn next_access(&mut self) -> Option<AccessReq> {
        if let Some(req) = self.pending.take() {
            return Some(req);
        }
        if let Some(req) = self.pending2.take() {
            self.pending = None;
            return Some(req);
        }

        // Initialization pass: write every item once, in order.
        if self.init_cursor < self.cfg.items {
            let item = self.init_cursor;
            self.init_cursor += 1;
            self.pending = Some(AccessReq {
                vpn: self.data_page(item),
                write: true,
                think: Nanos::ZERO,
            });
            if self.cfg.flavor == KvFlavor::Redis {
                self.pending2 = self.pending.take();
                self.pending = Some(AccessReq {
                    vpn: self.meta_page(item),
                    write: true,
                    think: Nanos::ZERO,
                });
            }
            return Some(AccessReq {
                vpn: self.bucket_page(item),
                write: true,
                think: OP_THINK,
            });
        }

        if self.issued_ops >= self.cfg.total_ops {
            return None;
        }
        self.issued_ops += 1;

        let item = self.sample_item();
        let is_set = self.rng.chance(self.cfg.set_ratio);
        // Op = bucket lookup (read) → [robj read/write] → item read/write.
        self.pending = Some(AccessReq {
            vpn: self.data_page(item),
            write: is_set,
            think: Nanos::ZERO,
        });
        if self.cfg.flavor == KvFlavor::Redis {
            self.pending2 = self.pending.take();
            self.pending = Some(AccessReq {
                vpn: self.meta_page(item),
                write: is_set,
                think: Nanos::ZERO,
            });
        }
        Some(AccessReq {
            vpn: self.bucket_page(item),
            write: false,
            think: OP_THINK,
        })
    }

    fn address_space_pages(&self) -> u32 {
        let spread_pages = (self.data_pages as f64 * self.cfg.layout_spread).ceil() as u32 + 1;
        self.bucket_pages + self.meta_pages + spread_pages
    }

    fn label(&self) -> String {
        format!(
            "{:?}(items={},set={:.2})",
            self.cfg.flavor, self.cfg.items, self.cfg.set_ratio
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(flavor: KvFlavor) -> KvStoreConfig {
        KvStoreConfig {
            items: 10_000,
            value_bytes: 320,
            flavor,
            set_ratio: 1.0 / 11.0,
            layout_spread: 1.0,
            seed: 5,
            total_ops: 1000,
        }
    }

    #[test]
    fn initialization_touches_every_data_page() {
        let mut w = KvStoreWorkload::new(cfg(KvFlavor::Memcached));
        let mut touched = std::collections::HashSet::new();
        // Init = items × 2 accesses (bucket + data).
        for _ in 0..(10_000 * 2) {
            let r = w.next_access().unwrap();
            assert!(r.write, "init accesses are writes");
            touched.insert(r.vpn.0);
        }
        let data_pages = w.address_space_pages() - w.bucket_pages;
        assert!(touched.len() as u32 >= data_pages);
    }

    #[test]
    fn redis_touches_extra_metadata_page() {
        let a = {
            let mut w = KvStoreWorkload::new(cfg(KvFlavor::Memcached));
            let mut n = 0u64;
            while w.next_access().is_some() {
                n += 1;
            }
            n
        };
        let b = {
            let mut w = KvStoreWorkload::new(cfg(KvFlavor::Redis));
            let mut n = 0u64;
            while w.next_access().is_some() {
                n += 1;
            }
            n
        };
        // Redis issues 3 accesses per op/init vs Memcached's 2.
        assert!(b > a, "redis {} <= memcached {}", b, a);
    }

    #[test]
    fn set_ratio_reflected_in_data_writes() {
        let mut c = cfg(KvFlavor::Memcached);
        c.total_ops = 50_000;
        let mut w = KvStoreWorkload::new(c);
        // Drain the init pass.
        for _ in 0..(10_000 * 2) {
            w.next_access().unwrap();
        }
        let mut data_writes = 0u64;
        let mut data_accesses = 0u64;
        while let Some(r) = w.next_access() {
            if r.vpn.0 >= w.bucket_pages {
                data_accesses += 1;
                data_writes += r.write as u64;
            }
        }
        let frac = data_writes as f64 / data_accesses as f64;
        assert!((frac - 1.0 / 11.0).abs() < 0.02, "set fraction {}", frac);
    }

    #[test]
    fn popularity_is_centered() {
        let mut c = cfg(KvFlavor::Memcached);
        c.total_ops = 20_000;
        let mut w = KvStoreWorkload::new(c);
        for _ in 0..(10_000 * 2) {
            w.next_access().unwrap();
        }
        let mut hot = 0u64;
        let mut data = 0u64;
        while let Some(r) = w.next_access() {
            if r.vpn.0 >= w.bucket_pages {
                data += 1;
                hot += w.in_hot_center(r.vpn) as u64;
            }
        }
        let frac = hot as f64 / data as f64;
        assert!(frac > 0.6, "hot-center fraction {}", frac);
    }

    #[test]
    fn sized_to_pages_is_close() {
        let c = KvStoreConfig::sized_to_pages(4096, KvFlavor::Memcached, 0.5, 1);
        let w = KvStoreWorkload::new(c);
        let pages = w.address_space_pages();
        assert!(
            (pages as i64 - 4096).unsigned_abs() < 800,
            "sized to {}",
            pages
        );
    }

    #[test]
    fn deterministic_stream() {
        let mut a = KvStoreWorkload::new(cfg(KvFlavor::Redis));
        let mut b = KvStoreWorkload::new(cfg(KvFlavor::Redis));
        for _ in 0..5000 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn slab_spread_leaves_allocator_gaps() {
        let mut c = cfg(KvFlavor::Memcached);
        c.layout_spread = 1.5;
        let mut w = KvStoreWorkload::new(c);
        let mut touched = std::collections::HashSet::new();
        for _ in 0..(10_000 * 2) {
            touched.insert(w.next_access().unwrap().vpn.0);
        }
        // The data region spans ~1.5x its dense size but only ~2/3 of its
        // pages are ever mapped: the huge-page bloat substrate.
        let span = w.address_space_pages() - w.bucket_pages;
        let data_touched = touched.iter().filter(|v| **v >= w.bucket_pages).count() as u32;
        let density = data_touched as f64 / span as f64;
        assert!(density < 0.75, "density {:.2}", density);
        assert!(density > 0.55, "density {:.2}", density);
    }

    #[test]
    fn gaussian_stream_is_pinned() {
        // First 16 requests after the init pass of the Gaussian store,
        // recorded before the draws moved to `DetRng::normal_index`, as
        // page and write flag: bucket and data page of eight GETs.
        const VPNS: [u32; 16] = [
            8, 340, 2, 167, 18, 690, 11, 590, 10, 468, 17, 517, 0, 198, 1, 427,
        ];
        const WRITES: [bool; 16] = [false; 16];
        let mut w = KvStoreWorkload::new(cfg(KvFlavor::Memcached));
        for _ in 0..(10_000 * 2) {
            w.next_access().unwrap(); // drain init
        }
        for (i, want) in VPNS.into_iter().zip(WRITES).enumerate() {
            let r = w.next_access().unwrap();
            assert_eq!((r.vpn.0, r.write), want, "request {i}");
        }
    }
}
