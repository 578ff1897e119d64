//! Known answers for the fingerprint kernel behind both cache keys,
//! MurmurHash3 x64_128 (`localias_ast::fp::Murmur3`).
//!
//! Two answers come from the reference implementation: SMHasher's
//! verification code for `MurmurHash3_x64_128` and the digest of
//! `"hello"`. The third check holds the streaming state to the one-shot
//! digest wherever the input is split.

use localias_ast::fp::Murmur3;
use localias_prng::Rng64;

/// The digest of `bytes` under `seed` in one write: the reference's
/// `(h1, h2)`.
fn murmur3_x64_128(seed: u32, bytes: &[u8]) -> (u64, u64) {
    let mut h = Murmur3::new(seed);
    h.write(bytes);
    h.finish()
}

/// The 16 output bytes of the reference: `h1` then `h2`, little-endian.
fn out_bytes((h1, h2): (u64, u64)) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&h1.to_le_bytes());
    out[8..].copy_from_slice(&h2.to_le_bytes());
    out
}

/// SMHasher's `VerificationTest`: hash the keys `[]`, `[0]`, `[0, 1]`, …,
/// `[0, …, 254]`, each with seed `256 - len`; hash the 256 digests laid
/// end to end with seed 0; the low 32 bits of that digest's `h1` are the
/// hash's verification code, `0x6384BA69` for MurmurHash3_x64_128.
#[test]
fn smhasher_verification_code_matches() {
    let key: Vec<u8> = (0..=255u8).collect();
    let mut digests = Vec::with_capacity(16 * 256);
    for len in 0..256usize {
        let seed = (256 - len) as u32;
        digests.extend_from_slice(&out_bytes(murmur3_x64_128(seed, &key[..len])));
    }
    let (h1, _) = murmur3_x64_128(0, &digests);
    assert_eq!(h1 as u32, 0x6384_BA69, "verification code");
}

#[test]
fn hello_matches_the_reference_digest() {
    assert_eq!(
        murmur3_x64_128(0, b"hello"),
        (0xcbd8_a7b3_41bd_9b02, 0x5b1e_906a_48ae_1d19)
    );
}

/// Every way of cutting a random buffer into two writes, and the buffer
/// written a byte at a time, gives the one-shot digest, for every length
/// up to five blocks (so every tail length and every pending offset).
#[test]
fn streaming_equals_one_shot_at_every_split() {
    let mut rng = Rng64::seed_from_u64(0x6d75_726d);
    let buf: Vec<u8> = (0..80).map(|_| rng.next_u64() as u8).collect();
    for len in 0..=buf.len() {
        let data = &buf[..len];
        let seed = rng.next_u64() as u32;
        let want = murmur3_x64_128(seed, data);
        for split in 0..=len {
            let mut h = Murmur3::new(seed);
            h.write(&data[..split]);
            h.write(&data[split..]);
            assert_eq!(h.finish(), want, "len {len}, split at {split}");
        }
        let mut bytewise = Murmur3::new(seed);
        for b in data.chunks(1) {
            bytewise.write(b);
        }
        assert_eq!(bytewise.finish(), want, "len {len}, byte by byte");
    }
}
