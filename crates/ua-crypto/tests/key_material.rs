//! Pins the key material the generators draw from a seeded RNG.
//!
//! Primes, keys and certificates in the simulated fleet stay byte-identical
//! across changes to the arithmetic only if prime generation and
//! Miller–Rabin keep consuming the RNG the same way: the same candidates
//! and witnesses, drawn in the same order, rejected at the same step. This
//! test hashes, for 32 seeds, primes at widths on both sides of
//! every limb boundary, 192- and 512-bit keys with a signature each,
//! `is_probable_prime` verdicts on random odd inputs, and the RNG's next
//! draw, and compares the SHA-256 against a recorded value. Any change in
//! what is drawn or in what is computed from it moves the hash.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use ua_crypto::{generate_prime, is_probable_prime, sha256, BigUint, HashAlgorithm, RsaPrivateKey};

const SEEDS: u64 = 32;
const PRIME_BITS: [usize; 11] = [8, 16, 33, 64, 65, 80, 96, 128, 192, 256, 300];
/// SHA-256 of the stream below as computed by a Miller–Rabin that ran a
/// full `mod_pow` per round; the Montgomery-domain rounds must reproduce
/// it.
const EXPECTED: &str = "8e97e212a947d932b84c1d544bae988d71c32cec58d36509577ab92ee14c0ab5";

fn push(out: &mut Vec<u8>, v: &BigUint) {
    let bytes = v.to_bytes_be();
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(&bytes);
}

#[test]
fn key_material_is_pinned() {
    let mut stream = Vec::new();
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for bits in PRIME_BITS {
            push(&mut stream, &generate_prime(&mut rng, bits));
        }
        for bits in [192, 512] {
            let key = RsaPrivateKey::generate(&mut rng, bits, 2048);
            for v in [&key.p, &key.q, &key.public.n, &key.d] {
                push(&mut stream, v);
            }
            stream.extend_from_slice(&key.sign(HashAlgorithm::Sha256, &seed.to_be_bytes()));
        }
        for _ in 0..16 {
            let bits = rng.gen_range(2..300usize);
            let n = BigUint::random_bits(&mut rng, bits);
            let n = if n.is_even() {
                n.add(&BigUint::one())
            } else {
                n
            };
            stream.push(is_probable_prime(&n, &mut rng) as u8);
        }
        stream.extend_from_slice(&rng.next_u64().to_be_bytes());
    }
    let digest = ua_crypto::hash::to_hex(&sha256(&stream));
    assert_eq!(
        digest, EXPECTED,
        "key material drawn from seeds 0..{SEEDS} changed"
    );
}
