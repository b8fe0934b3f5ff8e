//! Access-trace recording and replay.
//!
//! Lets any workload be captured once and replayed deterministically —
//! useful for regression-testing policies against a frozen access stream,
//! for cross-policy comparisons on *identical* inputs, and for importing
//! externally collected traces.
//!
//! In memory an access is one 4-byte [`TraceRecord`] (`vpn | write << 31`);
//! think times live in a side table on [`Trace`] that stays empty while
//! every think is zero, so the open-loop generators most traces come from
//! cost 4 bytes per access. On disk the format is a simple little-endian
//! record stream with a magic header — 13 bytes per access (vpn, write
//! flag, think) — and no external serialization dependencies.

use std::io::{self, Read, Write};

use sim_clock::Nanos;
use tiered_mem::Vpn;

use crate::{AccessReq, Workload};

const MAGIC: &[u8; 8] = b"CHRTRC01";

/// One recorded access, packed: the page in the low 31 bits and the store
/// flag in the top bit. Think time is kept apart, in [`Trace`]; pids are
/// implicit (one trace per process).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord(u32);

impl TraceRecord {
    const WRITE: u32 = 1 << 31;

    /// Largest page a record can hold.
    pub const MAX_VPN: u32 = Self::WRITE - 1;

    /// Packs an access.
    ///
    /// # Panics
    ///
    /// If `vpn` exceeds [`TraceRecord::MAX_VPN`].
    #[inline]
    pub fn new(vpn: u32, write: bool) -> TraceRecord {
        assert!(
            vpn <= Self::MAX_VPN,
            "page {vpn} does not fit a trace record (pages must be < 2^31)"
        );
        TraceRecord(vpn | (write as u32) << 31)
    }

    /// Target page.
    #[inline]
    pub fn vpn(self) -> u32 {
        self.0 & Self::MAX_VPN
    }

    /// Store flag.
    #[inline]
    pub fn write(self) -> bool {
        self.0 & Self::WRITE != 0
    }
}

/// An in-memory access trace for one process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Address-space size the trace was recorded against.
    pub pages: u32,
    /// The recorded accesses. [`Trace::record`] and [`Trace::read_from`]
    /// keep the think table parallel to it, so build traces through them.
    pub records: Vec<TraceRecord>,
    /// Think time before each access, nanoseconds, parallel to `records`.
    /// Empty while every think is zero; back-filled with zeros at the first
    /// nonzero one.
    think_ns: Vec<u64>,
}

impl Trace {
    /// Captures up to `max_accesses` from a workload.
    ///
    /// # Panics
    ///
    /// If the workload emits a page above [`TraceRecord::MAX_VPN`].
    pub fn record<W: Workload>(workload: &mut W, max_accesses: usize) -> Trace {
        // The vectors grow as accesses arrive instead of reserving the bound.
        // A finite workload may stop far short of it, and an exact reservation
        // of a multi-MiB trace left more resident when traces are recorded
        // and dropped in turn: glibc then serves that size from the heap,
        // where two traces' worth stays mapped (DESIGN §7.6).
        let mut trace = Trace {
            pages: workload.address_space_pages(),
            ..Trace::default()
        };
        while trace.records.len() < max_accesses {
            match workload.next_access() {
                Some(req) => trace.push(req),
                None => break,
            }
        }
        trace
    }

    #[inline]
    fn push(&mut self, req: AccessReq) {
        self.records.push(TraceRecord::new(req.vpn.0, req.write));
        let think = req.think.as_nanos();
        if self.think_ns.is_empty() {
            if think == 0 {
                return;
            }
            self.think_ns.resize(self.records.len() - 1, 0);
        }
        self.think_ns.push(think);
    }

    /// The `i`-th recorded access, or `None` past the end.
    #[inline]
    fn get(&self, i: usize) -> Option<AccessReq> {
        let r = *self.records.get(i)?;
        let think = if self.think_ns.is_empty() {
            0
        } else {
            self.think_ns[i]
        };
        Some(AccessReq {
            vpn: Vpn(r.vpn()),
            write: r.write(),
            think: Nanos(think),
        })
    }

    /// Serializes the trace.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&self.pages.to_le_bytes())?;
        w.write_all(&(self.records.len() as u64).to_le_bytes())?;
        for i in 0..self.records.len() {
            let r = self.get(i).expect("index within records");
            w.write_all(&r.vpn.0.to_le_bytes())?;
            w.write_all(&[r.write as u8])?;
            w.write_all(&r.think.as_nanos().to_le_bytes())?;
        }
        Ok(())
    }

    /// Deserializes a trace written by [`Trace::write_to`].
    pub fn read_from<R: Read>(mut r: R) -> io::Result<Trace> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a chrono-repro trace (bad magic)",
            ));
        }
        let mut b4 = [0u8; 4];
        let mut b8 = [0u8; 8];
        r.read_exact(&mut b4)?;
        let pages = u32::from_le_bytes(b4);
        r.read_exact(&mut b8)?;
        let count = u64::from_le_bytes(b8) as usize;
        let mut trace = Trace {
            pages,
            records: Vec::with_capacity(count.min(1 << 24)),
            think_ns: Vec::new(),
        };
        for _ in 0..count {
            r.read_exact(&mut b4)?;
            let vpn = u32::from_le_bytes(b4);
            if vpn > TraceRecord::MAX_VPN {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("trace page {vpn} does not fit 31 bits"),
                ));
            }
            let mut flag = [0u8; 1];
            r.read_exact(&mut flag)?;
            r.read_exact(&mut b8)?;
            trace.push(AccessReq {
                vpn: Vpn(vpn),
                write: flag[0] != 0,
                think: Nanos(u64::from_le_bytes(b8)),
            });
        }
        Ok(trace)
    }

    /// Turns the trace into a replayable workload.
    pub fn into_workload(self) -> TraceWorkload {
        TraceWorkload {
            trace: self,
            cursor: 0,
        }
    }
}

/// Replays a recorded trace as a [`Workload`].
#[derive(Debug)]
pub struct TraceWorkload {
    trace: Trace,
    cursor: usize,
}

impl Workload for TraceWorkload {
    fn next_access(&mut self) -> Option<AccessReq> {
        let req = self.trace.get(self.cursor)?;
        self.cursor += 1;
        Some(req)
    }

    fn address_space_pages(&self) -> u32 {
        self.trace.pages
    }

    fn label(&self) -> String {
        format!("trace({} records)", self.trace.records.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KvFlavor, KvStoreConfig, KvStoreWorkload, PmbenchConfig, PmbenchWorkload};

    /// 16 set-up touches with zero think, then 48 accesses at 190 ns each:
    /// exercises the back-fill of the think table.
    fn think_bearing() -> PmbenchWorkload {
        PmbenchWorkload::new(PmbenchConfig::fig9_tenant(16, 10, 21))
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Replaying `trace` yields exactly the next `n` accesses of `live`.
    fn assert_replays(trace: Trace, live: &mut dyn Workload, n: usize) {
        assert_eq!(trace.records.len(), n);
        let mut replay = trace.into_workload();
        for i in 0..n {
            let a = live.next_access().unwrap();
            let b = replay.next_access().unwrap();
            assert_eq!(
                (a.vpn, a.write, a.think),
                (b.vpn, b.write, b.think),
                "at {i}"
            );
        }
        assert!(replay.next_access().is_none(), "trace length respected");
    }

    #[test]
    fn records_pack_into_four_bytes() {
        assert_eq!(std::mem::size_of::<TraceRecord>(), 4);
        for (vpn, write) in [
            (0, false),
            (0, true),
            (TraceRecord::MAX_VPN, true),
            (77, false),
        ] {
            let r = TraceRecord::new(vpn, write);
            assert_eq!((r.vpn(), r.write()), (vpn, write));
        }
    }

    #[test]
    fn replay_matches_live_generation() {
        // Trace-driven runs are only honest if replay is bit-exact with live
        // generation: same vpn, same write bit, same think.
        let cfg = || PmbenchConfig::paper_skewed(512, 0.7, 77);
        let trace = Trace::record(&mut PmbenchWorkload::new(cfg()), 10_000);
        assert_eq!(trace.pages, 512);
        assert!(trace.think_ns.is_empty(), "zero think needs no table");
        assert_replays(trace, &mut PmbenchWorkload::new(cfg()), 10_000);
    }

    #[test]
    fn think_times_replay_exactly() {
        let trace = Trace::record(&mut think_bearing(), 64);
        assert_eq!(trace.think_ns.len(), 64, "back-filled at the first think");
        assert_eq!(trace.think_ns[..16], [0; 16]);

        let kv =
            || KvStoreWorkload::new(KvStoreConfig::sized_to_pages(256, KvFlavor::Redis, 0.5, 9));
        let trace = Trace::record(&mut kv(), 2000);
        assert!(!trace.think_ns.is_empty());
        assert_replays(trace, &mut kv(), 2000);
    }

    #[test]
    fn on_disk_bytes_are_pinned() {
        // The 13-byte on-disk record predates the packed in-memory layout;
        // the digest was taken from the unpacked `TraceRecord`'s output.
        let trace = Trace::record(&mut think_bearing(), 64);
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), 8 + 4 + 8 + 64 * 13);
        assert_eq!(fnv1a(&buf), 0xd1ed_81d5_dc43_845b);
    }

    #[test]
    fn serialization_round_trips() {
        let mut w = PmbenchWorkload::new(PmbenchConfig::paper_skewed(256, 0.5, 3));
        let trace = Trace::record(&mut w, 500);
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        assert_eq!(Trace::read_from(&buf[..]).unwrap(), trace);

        let trace = Trace::record(&mut think_bearing(), 64);
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        let back = Trace::read_from(&buf[..]).unwrap();
        assert_eq!(back, trace);
        assert_replays(back, &mut think_bearing(), 64);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Trace::read_from(&b"not a trace at all"[..]).is_err());
        let mut buf = Vec::new();
        Trace::default().write_to(&mut buf).unwrap();
        buf[0] ^= 0xFF;
        assert!(Trace::read_from(&buf[..]).is_err());
    }

    #[test]
    fn rejects_pages_past_31_bits() {
        let mut buf = Vec::new();
        Trace::record(&mut think_bearing(), 3)
            .write_to(&mut buf)
            .unwrap();
        // The second record's vpn sits after the 20-byte header and one
        // 13-byte record.
        buf[20 + 13..20 + 17].copy_from_slice(&(1u32 << 31).to_le_bytes());
        let err = Trace::read_from(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    #[should_panic(expected = "page 2147483648 does not fit")]
    fn record_refuses_pages_past_31_bits() {
        struct Huge;
        impl Workload for Huge {
            fn next_access(&mut self) -> Option<AccessReq> {
                Some(AccessReq {
                    vpn: Vpn(1 << 31),
                    write: false,
                    think: Nanos::ZERO,
                })
            }
            fn address_space_pages(&self) -> u32 {
                u32::MAX
            }
            fn label(&self) -> String {
                "huge".into()
            }
        }
        Trace::record(&mut Huge, 1);
    }

    #[test]
    fn finite_workloads_truncate_naturally() {
        let mut cfg = PmbenchConfig::paper_skewed(64, 0.5, 1);
        cfg.total_accesses = 10;
        let mut w = PmbenchWorkload::new(cfg);
        let trace = Trace::record(&mut w, usize::MAX);
        // 64 init accesses + 10 measured.
        assert_eq!(trace.records.len(), 74);
        // Storage follows what was recorded, not the bound.
        assert!(trace.records.capacity() < 2 * 74);
    }
}
