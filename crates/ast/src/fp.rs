//! The shared 128-bit FNV-1a fingerprint core.
//!
//! Every content-addressed key of the module-level result cache in
//! `localias-bench` hashes source text with this one core. Keys are
//! *domain-separated*: each keying domain prefixes its own domain string
//! (which embeds [`ANALYSIS_VERSION`]), so a key of one kind can never
//! collide with a key of another, and bumping the version invalidates
//! every cached result at once.
//!
//! The core lives in `localias-ast` (the root of the crate graph);
//! bench re-exports these items.

/// Bumped whenever any analysis stage changes observable results, so a
/// stale on-disk module store can never serve wrong answers. Mixed into
/// every fingerprint domain.
///
/// v2: the checker moved to the frozen-analysis, call-graph-scheduled
/// pipeline and the store grew the generic `"v"` payload.
///
/// v3: havoc (calls into recursive cycles) became total — untouched
/// locations drop to Top and the clobber propagates through summaries —
/// fixing a soundness hole where a cycle's lock effects were invisible
/// to callers (found by `localias fuzz`; see DESIGN.md §12).
pub const ANALYSIS_VERSION: u32 = 3;

/// FNV-1a 128-bit offset basis.
pub const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;

/// FNV-1a 128-bit prime.
pub const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Folds `bytes` into a running FNV-1a hash state.
pub fn fnv1a(mut h: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One-shot domain-separated fingerprint: hashes the domain prefix, then
/// the payload. Distinct domains partition the key space; two calls
/// collide only if both domain and payload agree.
pub fn fingerprint(domain: &str, payload: &str) -> u128 {
    fnv1a(fnv1a(FNV_OFFSET, domain.as_bytes()), payload.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_separates_domains_and_payloads() {
        assert_eq!(fingerprint("d;", "x"), fingerprint("d;", "x"));
        assert_ne!(fingerprint("d;", "x"), fingerprint("e;", "x"));
        assert_ne!(fingerprint("d;", "x"), fingerprint("d;", "y"));
        // FNV-1a streams bytes with no implicit boundary, so the split
        // point between domain and payload is invisible to the hash:
        assert_eq!(fingerprint("ab", "c"), fingerprint("a", "bc"));
        // Separation therefore rests on the call-site convention that
        // domains are fixed `;`-terminated literals of which none is a
        // prefix of another — under it, differing domains diverge before
        // the payload can compensate at a matching offset.
        assert_ne!(fingerprint("raw;v2;", "x"), fingerprint("item;v2;", "x"));
    }

    #[test]
    fn core_matches_the_historical_cache_constants() {
        // These literals are frozen: the on-disk store from earlier
        // releases was keyed with them, and changing either would
        // silently invalidate (or worse, mis-hit) existing caches.
        assert_eq!(FNV_OFFSET, 0x6c62272e07bb014262b821756295c58d);
        assert_eq!(FNV_PRIME, 0x0000000001000000000000000000013b);
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
    }
}
