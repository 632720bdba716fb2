//! Address-keyed memo maps for shared `Arc<str>` labels.
//!
//! The crawl's org, bidder and slot labels are `Arc<str>`s cloned from a
//! small fixed set, so memoizing a per-string computation by allocation
//! address replaces hundreds of thousands of string-keyed tree lookups with
//! hash hits. The analysis index and the byte codec's label table both key
//! on it.

// analyzer:allow(AD03) -- Hash collections here back address-keyed memo maps that are only probed, never iterated; nothing ordered is derived from them
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Identity key of a shared label: the `Arc` allocation address.
///
/// Distinct allocations holding equal text get distinct keys, so a memo
/// keyed here must either recompute the same value for them or fall back
/// to a text-keyed lookup; either way results stay a pure function of the
/// string content.
#[inline]
pub(crate) fn arc_key(s: &Arc<str>) -> usize {
    Arc::as_ptr(s) as *const u8 as usize
}

/// Fibonacci-multiply hasher for the `usize` allocation-address keys above —
/// the default SipHash costs more than the lookups it replaces.
#[derive(Default)]
pub(crate) struct AddrHasher(u64);

impl std::hash::Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }
    fn write_usize(&mut self, n: usize) {
        self.0 = (n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

// analyzer:allow(AD03) -- lookup-only memo keyed by Arc pointer address; iteration order never reaches an output
pub(crate) type AddrMap<V> = HashMap<usize, V, std::hash::BuildHasherDefault<AddrHasher>>;
// analyzer:allow(AD03) -- lookup-only dedup set keyed by Arc pointer address; never iterated
pub(crate) type AddrSet = HashSet<usize, std::hash::BuildHasherDefault<AddrHasher>>;
