//! Stable trace digests for determinism and golden-snapshot checks.
//!
//! A digest folds every recorded period sample and ring event into one
//! 64-bit FNV-1a hash over a fixed byte encoding of each record's field
//! list: integers as little-endian `u64`, floats via `f64::to_bits`
//! (bit-exact, so two runs match only if every float matches), events
//! behind a stable per-kind tag. Two runs of the same seeded simulation
//! must produce identical digests; any divergence — `HashMap` iteration
//! order leaking into decisions, a nondeterministic tie-break — flips the
//! hash.

use sim_clock::Nanos;

use crate::event::{MigrateDir, TraceEvent};
use crate::export::Value;
use crate::period::PeriodSample;

/// Incremental 64-bit FNV-1a hasher over a stable encoding.
#[derive(Debug, Clone, Copy)]
pub struct TraceDigest(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for TraceDigest {
    fn default() -> TraceDigest {
        TraceDigest::new()
    }
}

impl TraceDigest {
    /// Starts a digest at the FNV offset basis.
    pub fn new() -> TraceDigest {
        TraceDigest(FNV_OFFSET)
    }

    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Folds a `u64` as 8 little-endian bytes.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds an `f64` bit-exactly.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Folds one record field.
    fn field(&mut self, v: Value) -> &mut Self {
        match v {
            Value::U64(v) => self.u64(v),
            Value::F64(v) => self.f64(v),
            Value::Bool(v) => self.u64(v.into()),
            Value::Dir(MigrateDir::Promote) => self.u64(0),
            Value::Dir(MigrateDir::Demote) => self.u64(1),
            // An all-Online gauge packs to 0 and is skipped, keeping every
            // digest of a fault-free run what it was before the gauge.
            Value::Health(0) => self,
            Value::Health(v) => self.u64(v.into()),
        }
    }

    /// The current hash value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// The hash as a fixed-width lower-case hex string.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    /// Folds one period sample: every field, in list order.
    pub fn period(&mut self, s: &PeriodSample) -> &mut Self {
        s.fields(|_, v| {
            self.field(v);
        });
        self
    }

    /// Folds one discrete event: its timestamp, its kind's tag, then every
    /// field in list order.
    pub fn event(&mut self, at: Nanos, ev: &TraceEvent) -> &mut Self {
        self.u64(at.as_nanos()).u64(ev.tag());
        ev.fields(|_, v| {
            self.field(v);
        });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vector() {
        // FNV-1a 64 of "a" is a published vector.
        let mut d = TraceDigest::new();
        d.bytes(b"a");
        assert_eq!(d.value(), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn field_order_matters() {
        let mut a = TraceDigest::new();
        a.u64(1).u64(2);
        let mut b = TraceDigest::new();
        b.u64(2).u64(1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn float_bits_are_exact() {
        let mut a = TraceDigest::new();
        a.f64(0.1 + 0.2);
        let mut b = TraceDigest::new();
        b.f64(0.3);
        assert_ne!(a.value(), b.value(), "0.1+0.2 != 0.3 bit-wise");
    }

    #[test]
    fn hex_is_fixed_width() {
        assert_eq!(TraceDigest::new().hex().len(), 16);
    }
}
