//! Randomized cross-checks of the subquadratic arithmetic against the
//! schoolbook/legacy reference paths, over 1000+ mixed-width operands.
//!
//! * Karatsuba `mul` vs. schoolbook `mul_schoolbook` (widths straddling
//!   the Karatsuba threshold in both balanced and lopsided shapes);
//! * Montgomery `mod_pow` vs. the legacy square-and-multiply
//!   `mod_pow_legacy` (odd moduli), plus the documented fallback for
//!   even moduli, on both kernels (fixed-width up to 4 limbs, `Vec`
//!   above) and across every sliding-window width;
//! * Knuth division against the identity `q·v + r = u`, `r < v`;
//! * edge cases: zero, one, modulus − 1, and single-limb extremes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ua_crypto::bigint::KARATSUBA_THRESHOLD;
use ua_crypto::{BigUint, Montgomery};

/// A random value of exactly `bits` bits, or zero when `bits == 0`.
fn random_exact(rng: &mut StdRng, bits: usize) -> BigUint {
    if bits == 0 {
        BigUint::zero()
    } else {
        BigUint::random_bits(rng, bits)
    }
}

/// Mixed operand widths in bits: small, around one limb, around the
/// Karatsuba threshold (32 limbs = 2048 bits), and well above it.
fn mixed_widths(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..6u32) {
        0 => rng.gen_range(0..65) as usize,
        1 => rng.gen_range(65..256) as usize,
        2 => rng.gen_range(256..1024) as usize,
        3 => rng.gen_range(1900..2200) as usize, // straddles the threshold
        4 => rng.gen_range(2200..4096) as usize,
        _ => rng.gen_range(4096..6000) as usize,
    }
}

#[test]
fn karatsuba_matches_schoolbook_on_1000_mixed_pairs() {
    let mut rng = StdRng::seed_from_u64(0x6b61_7261);
    for i in 0..1000 {
        let wa = mixed_widths(&mut rng);
        let wb = mixed_widths(&mut rng);
        let a = random_exact(&mut rng, wa);
        let b = random_exact(&mut rng, wb);
        let fast = a.mul(&b);
        let reference = a.mul_schoolbook(&b);
        assert_eq!(fast, reference, "iteration {i}: {a} * {b}");
        // Commutativity as a second, independent path through the split.
        assert_eq!(b.mul(&a), reference, "iteration {i} (swapped)");
    }
}

#[test]
fn karatsuba_handles_lopsided_operands() {
    let mut rng = StdRng::seed_from_u64(0x6c6f_7073);
    for _ in 0..100 {
        // One operand far above the threshold, the other barely at it:
        // exercises the unbalanced split-at-min path.
        let wide = rng.gen_range(8000..12000) as usize;
        let a = random_exact(&mut rng, wide);
        let narrow = (KARATSUBA_THRESHOLD * 64) + rng.gen_range(0..128) as usize;
        let b = random_exact(&mut rng, narrow);
        assert_eq!(a.mul(&b), a.mul_schoolbook(&b));
    }
}

#[test]
fn montgomery_mod_pow_matches_legacy_on_odd_moduli() {
    let mut rng = StdRng::seed_from_u64(0x6d6f_6e74);
    for i in 0..250 {
        let bits = match rng.gen_range(0..4u32) {
            0 => rng.gen_range(2..64) as usize,
            1 => rng.gen_range(64..256) as usize,
            2 => rng.gen_range(256..1024) as usize,
            _ => rng.gen_range(1024..2100) as usize,
        };
        let mut modulus = BigUint::random_bits(&mut rng, bits);
        if modulus.is_even() {
            modulus = modulus.add(&BigUint::one());
        }
        if modulus.is_one() {
            continue;
        }
        let base = BigUint::random_below(&mut rng, &modulus);
        let ebits = rng.gen_range(0..600) as usize;
        let exponent = random_exact(&mut rng, ebits);
        assert_eq!(
            base.mod_pow(&exponent, &modulus),
            base.mod_pow_legacy(&exponent, &modulus),
            "iteration {i}: {base}^{exponent} mod {modulus}"
        );
    }
}

#[test]
fn mod_pow_matches_legacy_at_every_limb_count() {
    // 1 to 4 limbs run on the fixed-width kernel, 5 on the `Vec` one.
    // Each width gets moduli at its top-limb extremes (top limb 1 and
    // all ones) and random ones; exponents 0, 1 and 2, and random ones
    // of every length around the window-width boundaries (23/24, 79/80,
    // 239/240 and 671/672 bits).
    let mut rng = StdRng::seed_from_u64(0x6c69_6d62);
    let one = BigUint::one();
    let mut exponents: Vec<BigUint> = (0..3).map(BigUint::from_u64).collect();
    for boundary in [23usize, 79, 239, 671] {
        for bits in boundary - 1..=boundary + 2 {
            exponents.push(BigUint::random_bits(&mut rng, bits));
        }
    }
    for limbs in 1..=5usize {
        let top_one = one.shl(64 * (limbs - 1));
        let low = BigUint::random_below(&mut rng, &top_one).add(&top_one);
        let high = one.shl(64 * limbs).sub(&one);
        let mut moduli = vec![low, high];
        moduli.extend((0..2).map(|_| BigUint::random_bits(&mut rng, 64 * limbs)));
        for modulus in moduli {
            let modulus = if modulus.is_even() {
                modulus.add(&one)
            } else {
                modulus
            };
            if modulus.is_one() {
                continue;
            }
            let ctx = Montgomery::new(&modulus).expect("odd modulus");
            let base = BigUint::random_below(&mut rng, &modulus);
            for e in &exponents {
                let reference = base.mod_pow_legacy(e, &modulus);
                assert_eq!(
                    base.mod_pow(e, &modulus),
                    reference,
                    "{base}^{e} mod {modulus}"
                );
                assert_eq!(
                    ctx.pow(&base, e),
                    reference,
                    "{base}^{e} mod {modulus} (context)"
                );
            }
        }
    }
}

/// A limb drawn from values that stress carries and quotient estimates
/// half of the time, and uniformly otherwise.
fn edgy_limb(rng: &mut StdRng) -> u64 {
    const EDGES: [u64; 6] = [0, 1, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1];
    if rng.gen_bool(0.5) {
        EDGES[rng.gen_range(0..EDGES.len())]
    } else {
        rng.gen()
    }
}

/// The value of little-endian `limbs`.
fn from_limbs(limbs: &[u64]) -> BigUint {
    let bytes: Vec<u8> = limbs.iter().rev().flat_map(|l| l.to_be_bytes()).collect();
    BigUint::from_bytes_be(&bytes)
}

#[test]
fn div_rem_satisfies_the_division_identity() {
    // Mixed widths up to 200 limbs, checked against the identity, which
    // uses only multiply and add, not the division under test. Edge-valued
    // limbs drive Knuth's quotient estimate into its correction branch.
    // Every fourth pair has the add-back shape: the divisor's top limbs
    // are 2⁶³ and 0 above a nonzero tail, and the dividend's window at the
    // first step is 2⁶³−1, 2⁶³ over zeros. The first quotient estimate,
    // 2⁶⁴−1, survives the two-limb test and then overshoots by the tail.
    let mut rng = StdRng::seed_from_u64(0x6469_7672);
    for i in 0..1500 {
        let vlimbs = rng.gen_range(1..120usize);
        let ulimbs = rng.gen_range(1..201usize);
        let (u, v) = if i % 4 == 0 && vlimbs >= 3 {
            let mut v: Vec<u64> = (0..vlimbs - 2).map(|_| edgy_limb(&mut rng)).collect();
            v[0] |= 1;
            v.extend([0, 1 << 63]);
            let mut u: Vec<u64> = (0..ulimbs).map(|_| edgy_limb(&mut rng)).collect();
            u.extend(std::iter::repeat_n(0, vlimbs - 1));
            u.extend([1 << 63, (1 << 63) - 1]);
            (from_limbs(&u), from_limbs(&v))
        } else {
            let u: Vec<u64> = (0..ulimbs).map(|_| edgy_limb(&mut rng)).collect();
            let v: Vec<u64> = (0..vlimbs).map(|_| edgy_limb(&mut rng)).collect();
            (from_limbs(&u), from_limbs(&v))
        };
        if v.is_zero() {
            continue;
        }
        let (q, r) = u.div_rem(&v);
        assert!(r < v, "iteration {i}: remainder not below divisor");
        assert_eq!(q.mul(&v).add(&r), u, "iteration {i}: {u} / {v}");
    }
}

#[test]
fn mod_pow_falls_back_for_even_moduli() {
    // Montgomery needs gcd(n, 2⁶⁴) = 1; even moduli must reject the
    // context and the public mod_pow must still answer via the legacy
    // path.
    let mut rng = StdRng::seed_from_u64(0x6576_656e);
    for _ in 0..100 {
        let mbits = rng.gen_range(2..300) as usize;
        let mut modulus = BigUint::random_bits(&mut rng, mbits);
        if !modulus.is_even() {
            modulus = modulus.add(&BigUint::one());
        }
        assert!(
            Montgomery::new(&modulus).is_none(),
            "even modulus {modulus}"
        );
        let base = BigUint::random_below(&mut rng, &modulus);
        let ebits = rng.gen_range(0..200) as usize;
        let exponent = random_exact(&mut rng, ebits);
        assert_eq!(
            base.mod_pow(&exponent, &modulus),
            base.mod_pow_legacy(&exponent, &modulus),
        );
    }
}

#[test]
fn mod_pow_edge_cases() {
    let mut rng = StdRng::seed_from_u64(0x6564_6765);
    let one = BigUint::one();
    for bits in [3usize, 64, 65, 192, 1024, 2048] {
        let mut n = BigUint::random_bits(&mut rng, bits);
        if n.is_even() {
            n = n.add(&one);
        }
        let n_minus_1 = n.sub(&one);
        let e = BigUint::random_bits(&mut rng, 64);

        // 0^e = 0 (e > 0), x^0 = 1, 1^e = 1.
        assert_eq!(BigUint::zero().mod_pow(&e, &n), BigUint::zero());
        assert_eq!(n_minus_1.mod_pow(&BigUint::zero(), &n), one);
        assert_eq!(one.mod_pow(&e, &n), one);
        // (n−1)² ≡ 1 (mod n): n−1 is its own inverse.
        assert_eq!(n_minus_1.mod_pow(&BigUint::from_u64(2), &n), one);
        // Base ≥ modulus is reduced first.
        let big_base = n.add(&n_minus_1);
        assert_eq!(
            big_base.mod_pow(&e, &n),
            big_base.rem(&n).mod_pow_legacy(&e, &n)
        );
        // mod 1 = 0 regardless of path.
        assert_eq!(n_minus_1.mod_pow(&e, &one), BigUint::zero());
    }
    // Montgomery rejects a modulus of one (and zero is a caller error).
    assert!(Montgomery::new(&one).is_none());
    assert!(Montgomery::new(&BigUint::zero()).is_none());
}

#[test]
fn montgomery_context_is_reusable_across_exponents() {
    // One context, many exponentiations — the RSA verification pattern.
    let mut rng = StdRng::seed_from_u64(0x7265_7573);
    let mut n = BigUint::random_bits(&mut rng, 512);
    if n.is_even() {
        n = n.add(&BigUint::one());
    }
    let ctx = Montgomery::new(&n).expect("odd modulus");
    assert_eq!(ctx.modulus(), &n);
    for _ in 0..25 {
        let base = BigUint::random_below(&mut rng, &n);
        let e = BigUint::random_bits(&mut rng, 128);
        assert_eq!(ctx.pow(&base, &e), base.mod_pow_legacy(&e, &n));
    }
}

#[test]
fn mul_mod_fast_paths() {
    let mut rng = StdRng::seed_from_u64(0x6d6d_6f64);
    let m = BigUint::random_bits(&mut rng, 200);
    let a = BigUint::random_bits(&mut rng, 300);
    assert_eq!(BigUint::zero().mul_mod(&a, &m), BigUint::zero());
    assert_eq!(a.mul_mod(&BigUint::zero(), &m), BigUint::zero());
    assert_eq!(BigUint::one().mul_mod(&a, &m), a.rem(&m));
    assert_eq!(a.mul_mod(&BigUint::one(), &m), a.rem(&m));
    assert_eq!(a.mul_mod(&a, &m), a.mul(&a).rem(&m));
}

#[test]
fn exact_serialization_roundtrips() {
    // to_bytes_be / to_hex are sized exactly from the bit length; check
    // lengths and roundtrips across widths including limb boundaries.
    let mut rng = StdRng::seed_from_u64(0x7365_7269);
    for bits in [1usize, 7, 8, 9, 63, 64, 65, 127, 128, 129, 511, 2048] {
        let v = BigUint::random_bits(&mut rng, bits);
        let bytes = v.to_bytes_be();
        assert_eq!(bytes.len(), bits.div_ceil(8), "bits={bits}");
        assert_ne!(bytes[0], 0, "no leading zero byte at bits={bits}");
        assert_eq!(BigUint::from_bytes_be(&bytes), v);
        let hex = v.to_hex();
        assert_eq!(hex.len(), bits.div_ceil(4), "bits={bits}");
        assert_eq!(BigUint::from_hex(&hex), Some(v));
    }
    assert!(BigUint::zero().to_bytes_be().is_empty());
    assert_eq!(BigUint::zero().to_hex(), "0");
}
