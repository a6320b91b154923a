//! Vocabulary for the parallel sweep service: stable config hashing, cell
//! identities, typed per-cell outcomes, and bounded retry backoff.
//!
//! The sweep runner in `batmem-bench` expands a cartesian plan into cells,
//! each identified by a [`CellId`] — a stable 64-bit content hash of the
//! cell's full configuration. The hash must be reproducible across
//! processes and Rust versions (it keys the on-disk artifact store that
//! crash-resume depends on), so it is a hand-rolled FNV-1a rather than
//! `std::hash`, whose `SipHash` keys are randomized per process in spirit
//! and unspecified across releases in letter.

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher with a stable, documented output:
/// the same byte stream always produces the same hash, in any process, on
/// any platform, under any Rust release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds a string field followed by a `\x1f` separator, so adjacent
    /// fields cannot collide by concatenation (`("ab","c")` ≠ `("a","bc")`).
    pub fn field(&mut self, s: &str) -> &mut Self {
        self.write(s.as_bytes()).write(&[0x1f])
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish()
}

/// The identity of one sweep cell: a stable content hash of its full
/// configuration (workload, policy, scale, ratio, seed, injection, …).
///
/// Rendered as 16 lowercase hex digits; that rendering is the artifact
/// store's file-name key, so it round-trips through [`FromStr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(u64);

impl CellId {
    /// Wraps a precomputed stable hash.
    pub fn from_hash(hash: u64) -> Self {
        Self(hash)
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl FromStr for CellId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 16 {
            return Err(format!("cell id must be 16 hex digits, got `{s}`"));
        }
        u64::from_str_radix(s, 16).map(CellId).map_err(|e| format!("cell id `{s}` is not hex: {e}"))
    }
}

/// How one sweep cell ended, as recorded in the artifact store and the
/// quarantine report. The discriminant is stable text (see
/// [`OutcomeKind::label`]) so artifacts survive enum evolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutcomeKind {
    /// The run finished and produced a metrics row.
    Completed,
    /// The run returned a typed error (`SimError`/harness error).
    Failed,
    /// The run exceeded its wall-clock deadline and was abandoned.
    TimedOut,
    /// The run panicked; the panic was caught and demoted to this record.
    Panicked,
}

impl OutcomeKind {
    /// Stable lowercase discriminant used in artifacts.
    pub fn label(self) -> &'static str {
        match self {
            OutcomeKind::Completed => "completed",
            OutcomeKind::Failed => "failed",
            OutcomeKind::TimedOut => "timed_out",
            OutcomeKind::Panicked => "panicked",
        }
    }

    /// Parses the stable discriminant back; `None` for unknown text.
    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "completed" => OutcomeKind::Completed,
            "failed" => OutcomeKind::Failed,
            "timed_out" => OutcomeKind::TimedOut,
            "panicked" => OutcomeKind::Panicked,
            _ => return None,
        })
    }

    /// Whether a cell with this outcome is terminal-successful (skipped on
    /// resume rather than re-run).
    pub fn is_success(self) -> bool {
        self == OutcomeKind::Completed
    }
}

impl fmt::Display for OutcomeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Bounded exponential backoff: attempt `n` (1-based) waits
/// `base × 2^(n-1)`, capped at `cap`.
///
/// The schedule is fully determined by the config — no jitter — so retry
/// timing is reproducible in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Delay before the first retry.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
}

impl Default for Backoff {
    /// 100 ms doubling up to 5 s — a sweep-friendly schedule that retries
    /// transient failures quickly without hammering a persistently broken
    /// cell.
    fn default() -> Self {
        Self { base: Duration::from_millis(100), cap: Duration::from_secs(5) }
    }
}

impl Backoff {
    /// A schedule starting at `base` and capped at `cap`.
    pub fn new(base: Duration, cap: Duration) -> Self {
        Self { base, cap }
    }

    /// The delay before retry attempt `attempt` (1-based: the first retry
    /// is attempt 1). Attempt 0 returns zero.
    pub fn delay(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let factor = 1u32 << (attempt - 1).min(20);
        self.base.saturating_mul(factor).min(self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn field_separation_prevents_concat_collisions() {
        let mut a = StableHasher::new();
        a.field("ab").field("c");
        let mut b = StableHasher::new();
        b.field("a").field("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn cell_id_roundtrips_through_hex() {
        let id = CellId::from_hash(0x0123_4567_89ab_cdef);
        let s = id.to_string();
        assert_eq!(s, "0123456789abcdef");
        assert_eq!(s.parse::<CellId>().unwrap(), id);
        assert!("xyz".parse::<CellId>().is_err());
        assert!("0123".parse::<CellId>().is_err());
    }

    #[test]
    fn outcome_labels_roundtrip() {
        for k in [
            OutcomeKind::Completed,
            OutcomeKind::Failed,
            OutcomeKind::TimedOut,
            OutcomeKind::Panicked,
        ] {
            assert_eq!(OutcomeKind::from_label(k.label()), Some(k));
        }
        assert_eq!(OutcomeKind::from_label("exploded"), None);
        assert!(OutcomeKind::Completed.is_success());
        assert!(!OutcomeKind::TimedOut.is_success());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let b = Backoff::new(Duration::from_millis(100), Duration::from_secs(1));
        assert_eq!(b.delay(0), Duration::ZERO);
        assert_eq!(b.delay(1), Duration::from_millis(100));
        assert_eq!(b.delay(2), Duration::from_millis(200));
        assert_eq!(b.delay(3), Duration::from_millis(400));
        assert_eq!(b.delay(4), Duration::from_millis(800));
        assert_eq!(b.delay(5), Duration::from_secs(1)); // capped
        assert_eq!(b.delay(30), Duration::from_secs(1)); // shift-safe
    }
}
