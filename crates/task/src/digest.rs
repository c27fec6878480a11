//! The 64-bit FNV-1a hash: one definition shared by shard routing, CRPD
//! working-set bucketing and every decision/event digest, so all of them
//! agree bit for bit.

/// FNV-1a offset basis (64-bit): the digest of the empty byte string and
/// the starting accumulator of [`fnv1a_combine`] chains.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over a byte string.
///
/// ```
/// use spms_task::fnv1a;
/// assert_eq!(fnv1a(b""), spms_task::FNV_OFFSET);
/// assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    extend(FNV_OFFSET, bytes)
}

/// Order-sensitive combination of digests: continues the FNV-1a state
/// `acc` over the little-endian bytes of `digest`.
pub fn fnv1a_combine(acc: u64, digest: u64) -> u64 {
    extend(acc, &digest.to_le_bytes())
}

fn extend(acc: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(acc, |acc, b| (acc ^ u64::from(*b)).wrapping_mul(FNV_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combining_continues_the_hash_over_little_endian_bytes() {
        let d = 0x0123_4567_89ab_cdef_u64;
        assert_eq!(fnv1a_combine(FNV_OFFSET, d), fnv1a(&d.to_le_bytes()));
        assert_ne!(
            fnv1a_combine(fnv1a_combine(FNV_OFFSET, 1), 2),
            fnv1a_combine(fnv1a_combine(FNV_OFFSET, 2), 1)
        );
    }
}
