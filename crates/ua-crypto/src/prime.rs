//! Prime generation and primality testing for RSA key generation.
//!
//! Trial division runs on `u64` residues without allocating, and the
//! Miller–Rabin rounds of one candidate share one [`Montgomery`] context,
//! whose kernel holds candidates of up to 256 bits in stack arrays. Which
//! candidates and witnesses are drawn, in which order, and where each is
//! rejected is part of the contract: every key of the simulated fleet is
//! a function of its seed (`tests/key_material.rs` pins them).

use crate::bigint::{BigUint, Kernel, KernelTask, Montgomery};
use rand::Rng;

/// The odd primes up to 211, used to pre-sieve candidates before
/// Miller–Rabin, in runs whose products fit in a `u64`: trial division
/// reduces the candidate once per run, then divides that `u64` residue
/// by each prime of the run.
const SMALL_PRIME_RUNS: [&[u64]; 5] = [
    &[3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53],
    &[59, 61, 67, 71, 73, 79, 83, 89, 97, 101],
    &[103, 107, 109, 113, 127, 131, 137, 139, 149],
    &[151, 157, 163, 167, 173, 179, 181, 191],
    &[193, 197, 199, 211],
];

/// The product of each run of [`SMALL_PRIME_RUNS`]; an overflowing run
/// fails to compile.
const RUN_PRODUCTS: [u64; 5] = {
    let mut out = [1u64; 5];
    let mut r = 0;
    while r < out.len() {
        let mut i = 0;
        while i < SMALL_PRIME_RUNS[r].len() {
            out[r] *= SMALL_PRIME_RUNS[r][i];
            i += 1;
        }
        r += 1;
    }
    out
};

/// Number of Miller–Rabin rounds; 2^-128 error bound for random candidates.
const MR_ROUNDS: usize = 24;

/// Probabilistic primality test (Miller–Rabin with random bases).
///
/// Draws from `rng` only in the Miller–Rabin rounds: one
/// `random_below(n − 3) + 2` witness per round, up to 24 rounds, stopping
/// at the first witness of compositeness.
pub fn is_probable_prime<R: Rng + ?Sized>(n: &BigUint, rng: &mut R) -> bool {
    if n.bit_length() <= 64 {
        let v = n.low_u64();
        if v < 4 {
            return v >= 2;
        }
        if SMALL_PRIME_RUNS.iter().any(|run| run.contains(&v)) {
            return true;
        }
    }
    if n.is_even() {
        return false;
    }
    for (run, &product) in SMALL_PRIME_RUNS.iter().zip(&RUN_PRODUCTS) {
        let r = n.rem_u64(product);
        if run.iter().any(|&p| r.is_multiple_of(p)) {
            return false;
        }
    }
    // n is odd and above 211 here, so it has a context.
    Montgomery::new(n).is_some_and(|ctx| ctx.run(MillerRabin { n, rng }))
}

/// The Miller–Rabin rounds on one odd candidate `n > 3`, in the
/// Montgomery domain of `n`: each witness enters the domain once, its
/// `d`-th power and the `s − 1` squarings stay there, and the results are
/// compared against the domain forms of 1 and `n − 1`. Elements are fully
/// reduced, so those comparisons are exact.
struct MillerRabin<'a, R: ?Sized> {
    n: &'a BigUint,
    rng: &'a mut R,
}

impl<R: Rng + ?Sized> KernelTask for MillerRabin<'_, R> {
    type Output = bool;

    fn run<K: Kernel>(self, mut kernel: K) -> bool {
        let MillerRabin { n, rng } = self;
        // Write n-1 = d * 2^s with d odd.
        let one = BigUint::one();
        let n_minus_1 = n.sub(&one);
        let s = n_minus_1.trailing_zeros();
        let d = n_minus_1.shr(s);
        let two = BigUint::from_u64(2);
        let n_minus_3 = n.sub(&BigUint::from_u64(3));
        let one_m = kernel.enter(&one);
        let minus_one_m = kernel.enter(&n_minus_1);

        'witness: for _ in 0..MR_ROUNDS {
            // a in [2, n-2]
            let a = BigUint::random_below(rng, &n_minus_3).add(&two);
            let a_m = kernel.enter(&a);
            let mut x = kernel.pow(&a_m, &d);
            if x == one_m || x == minus_one_m {
                continue 'witness;
            }
            for _ in 0..s.saturating_sub(1) {
                kernel.sqr_assign(&mut x);
                if x == minus_one_m {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// The candidate's two top bits are set (so products of two such primes
/// have exactly `2*bits` bits, as RSA key generation requires) and the low
/// bit is set (odd): the draw gets `2^(bits−2)` *added*, then 1 if it is
/// even, and a draw that carries past `bits` is rejected for a new one.
pub fn generate_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    assert!(bits >= 8, "prime too small to be useful");
    let second_bit = BigUint::one().shl(bits - 2);
    loop {
        let mut candidate = BigUint::random_bits(rng, bits).add(&second_bit);
        if candidate.bit_length() > bits {
            continue;
        }
        // Force odd.
        if candidate.is_even() {
            candidate = candidate.add(&BigUint::one());
            if candidate.bit_length() > bits {
                continue;
            }
        }
        if is_probable_prime(&candidate, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn small_primes_recognized() {
        let mut rng = StdRng::seed_from_u64(1);
        // 223 is the first prime past the trial divisors, 2^64 − 59 the
        // largest one-limb prime.
        for p in [
            2u64,
            3,
            5,
            7,
            11,
            13,
            101,
            211,
            223,
            65537,
            2147483647,
            u64::MAX - 58,
        ] {
            assert!(
                is_probable_prime(&BigUint::from_u64(p), &mut rng),
                "{p} should be prime"
            );
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        for c in [
            0u64,
            1,
            4,
            6,
            9,
            15,
            21,
            25,
            100,
            65536,
            3 * 211,
            1009 * 1013,
            // A strong pseudoprime to bases 2, 3, 5 and 7 (151 · 751 · 28351).
            3215031751,
            // 2^64 − 1 and the square of 2^32 − 5.
            u64::MAX,
            4294967291 * 4294967291,
        ] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), &mut rng),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // 561, 1105, 1729, 41041 are Carmichael numbers (Fermat liars
        // for all bases, but not Miller-Rabin liars).
        let mut rng = StdRng::seed_from_u64(3);
        for c in [561u64, 1105, 1729, 41041, 825265] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), &mut rng),
                "Carmichael {c} must be rejected"
            );
        }
    }

    #[test]
    fn large_known_prime() {
        // 2^127 - 1 is a Mersenne prime.
        let mut rng = StdRng::seed_from_u64(4);
        let m127 = BigUint::one().shl(127).sub(&BigUint::one());
        assert!(is_probable_prime(&m127, &mut rng));
        // 2^128 - 1 = 3 * 5 * 17 * 257 * ... is composite.
        let c = BigUint::one().shl(128).sub(&BigUint::one());
        assert!(!is_probable_prime(&c, &mut rng));
        // Products of two 96-bit primes, the population's key shape,
        // pass trial division and must fall to Miller–Rabin.
        for _ in 0..8 {
            let p = generate_prime(&mut rng, 96);
            let q = generate_prime(&mut rng, 96);
            assert!(is_probable_prime(&p, &mut rng));
            assert!(!is_probable_prime(&p.mul(&q), &mut rng), "{p} * {q}");
        }
    }

    #[test]
    fn generated_primes_have_exact_bits() {
        let mut rng = StdRng::seed_from_u64(5);
        for bits in [32usize, 64, 128, 192] {
            let p = generate_prime(&mut rng, bits);
            assert_eq!(p.bit_length(), bits);
            assert!(!p.is_even());
            assert!(p.bit(bits - 2), "second-highest bit must be set");
        }
    }

    #[test]
    fn generated_primes_differ() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = generate_prime(&mut rng, 96);
        let b = generate_prime(&mut rng, 96);
        assert_ne!(a, b);
    }
}
