//! Shared-prime detection across RSA moduli.
//!
//! §5.3 of the paper: *"we have not found any evidence of key material that
//! is subject to insufficient randomness by pairwise checking the keys of
//! all received certificates for shared primes."* This module implements
//! both the naive pairwise check and the scalable batch GCD of Heninger et
//! al. (USENIX Security 2012), which the paper cites as motivation (its
//! reference \[27\]): a product tree over the moduli, then a remainder
//! tree that hands every modulus the product of all the others, reduced
//! modulo itself.

use crate::bigint::BigUint;

/// A detected common factor between two moduli.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedFactor {
    /// Index of the first modulus.
    pub a: usize,
    /// Index of the second modulus.
    pub b: usize,
    /// The common factor (a prime, for honest RSA moduli).
    pub factor: BigUint,
}

/// Naive O(n²) pairwise GCD scan. Exact and simple; the tests use it as
/// the reference implementation for [`find_shared_factors`].
pub fn pairwise_shared_factors(moduli: &[BigUint]) -> Vec<SharedFactor> {
    let mut out = Vec::new();
    for i in 0..moduli.len() {
        for j in (i + 1)..moduli.len() {
            if moduli[i].is_zero() || moduli[j].is_zero() {
                continue;
            }
            let g = moduli[i].gcd(&moduli[j]);
            if !g.is_one() && !g.is_zero() {
                out.push(SharedFactor {
                    a: i,
                    b: j,
                    factor: g,
                });
            }
        }
    }
    out
}

/// The product tree over a set of moduli: level 0 holds the moduli,
/// each level above holds the products of sibling pairs (an odd last
/// node is carried up unchanged), and the root their full product. The
/// inner nodes grow far past the Karatsuba threshold within a few levels.
struct ProductTree {
    levels: Vec<Vec<BigUint>>,
}

impl ProductTree {
    /// Builds the tree bottom-up. Level 0 is `moduli`.
    fn build(moduli: Vec<BigUint>) -> ProductTree {
        let mut levels = vec![moduli];
        while let Some(prev) = levels.last().filter(|level| level.len() > 1) {
            let next = prev
                .chunks(2)
                .map(|pair| match pair {
                    [a, b] => a.mul(b),
                    _ => pair[0].clone(),
                })
                .collect();
            levels.push(next);
        }
        ProductTree { levels }
    }

    /// For every leaf `n_i`, `(∏_{j≠i} n_j) mod n_i`, by a descent over
    /// sibling products: the root gets 1 (nothing lies outside it), a
    /// node `c` with sibling `s` gets `(r_parent · s) mod c`, and an odd
    /// carried node inherits `r_parent`, since it equals its parent.
    ///
    /// Each step reduces `r_parent`, about twice the node's size, modulo
    /// the node, multiplies by the sibling and reduces again: two
    /// divisions of twice the node's size by the node. The classic
    /// descent, `r_parent mod c²`, divides four times the node's size by
    /// twice it and squares every node on top, so this does half the
    /// division work.
    fn cofactor_remainders(&self) -> Vec<BigUint> {
        let mut rems = vec![BigUint::one()];
        for level in self.levels.iter().rev().skip(1) {
            rems = level
                .iter()
                .enumerate()
                .map(|(i, node)| {
                    let parent = &rems[i / 2];
                    match level.get(i ^ 1) {
                        Some(sibling) => parent.rem(node).mul(sibling).rem(node),
                        None => parent.clone(),
                    }
                })
                .collect();
        }
        rems
    }
}

/// Product-tree/remainder-tree batch GCD: returns, for each modulus `n_i`,
/// `gcd(n_i, prod_{j != i} n_j)`. A result of 1 means no shared factor.
///
/// A modulus of 0 (a certificate can deliver one) is left out of the
/// product: it reports 0 and shares a factor with nothing, as in
/// [`pairwise_shared_factors`].
///
/// Runs in quasi-linear big-number operations instead of the naive
/// quadratic scan, and — fed the *deduplicated* moduli the incremental
/// assessor accumulates — its input shrinks by exactly the certificate
/// reuse factor the paper measured (§5.2).
pub fn batch_gcd(moduli: &[BigUint]) -> Vec<BigUint> {
    let live: Vec<usize> = (0..moduli.len())
        .filter(|&i| !moduli[i].is_zero())
        .collect();
    let tree = ProductTree::build(live.iter().map(|&i| moduli[i].clone()).collect());
    let mut gcds = vec![BigUint::zero(); moduli.len()];
    for (&i, rem) in live.iter().zip(tree.cofactor_remainders()) {
        gcds[i] = moduli[i].gcd(&rem);
    }
    gcds
}

/// Convenience wrapper: runs [`batch_gcd`] and expands hits into concrete
/// pairs by factoring out the shared primes (falling back to pairwise GCD
/// restricted to the flagged indices, which is tiny in practice).
pub fn find_shared_factors(moduli: &[BigUint]) -> Vec<SharedFactor> {
    let hits: Vec<usize> = batch_gcd(moduli)
        .into_iter()
        .enumerate()
        .filter(|(_, g)| !g.is_one() && !g.is_zero())
        .map(|(i, _)| i)
        .collect();
    if hits.is_empty() {
        return Vec::new();
    }
    let subset: Vec<BigUint> = hits.iter().map(|&i| moduli[i].clone()).collect();
    pairwise_shared_factors(&subset)
        .into_iter()
        .map(|sf| SharedFactor {
            a: hits[sf.a],
            b: hits[sf.b],
            factor: sf.factor,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::generate_prime;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn moduli_with_share(seed: u64, count: usize) -> (Vec<BigUint>, usize, usize, BigUint) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut moduli = Vec::new();
        let shared = generate_prime(&mut rng, 96);
        for _ in 0..count {
            let p = generate_prime(&mut rng, 96);
            let q = generate_prime(&mut rng, 96);
            moduli.push(p.mul(&q));
        }
        // Plant the shared prime into two moduli.
        let qa = generate_prime(&mut rng, 96);
        let qb = generate_prime(&mut rng, 96);
        let ia = moduli.len();
        moduli.push(shared.mul(&qa));
        let ib = moduli.len();
        moduli.push(shared.mul(&qb));
        (moduli, ia, ib, shared)
    }

    #[test]
    fn pairwise_finds_planted_share() {
        let (moduli, ia, ib, shared) = moduli_with_share(11, 6);
        let found = pairwise_shared_factors(&moduli);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].a, ia);
        assert_eq!(found[0].b, ib);
        assert_eq!(found[0].factor, shared);
    }

    #[test]
    fn batch_gcd_flags_planted_share() {
        let (moduli, ia, ib, shared) = moduli_with_share(12, 9);
        let gcds = batch_gcd(&moduli);
        assert_eq!(gcds.len(), moduli.len());
        for (i, g) in gcds.iter().enumerate() {
            if i == ia || i == ib {
                assert_eq!(g, &shared, "index {i}");
            } else {
                assert!(g.is_one(), "index {i} should be clean, got {g}");
            }
        }
    }

    #[test]
    fn find_shared_factors_matches_pairwise() {
        let (moduli, _, _, _) = moduli_with_share(13, 12);
        let a = find_shared_factors(&moduli);
        let b = pairwise_shared_factors(&moduli);
        assert_eq!(a, b);
        // Random sets of 1 to 40 moduli, odd counts among them, built
        // from a small pool of 64-bit primes so that shared primes and
        // duplicate moduli are common.
        let mut rng = StdRng::seed_from_u64(17);
        let pool: Vec<BigUint> = (0..24).map(|_| generate_prime(&mut rng, 64)).collect();
        for _ in 0..40 {
            let count = rng.gen_range(1..41usize);
            let moduli: Vec<BigUint> = (0..count)
                .map(|_| {
                    let p = &pool[rng.gen_range(0..pool.len())];
                    let q = &pool[rng.gen_range(0..pool.len())];
                    p.mul(q)
                })
                .collect();
            assert_eq!(
                find_shared_factors(&moduli),
                pairwise_shared_factors(&moduli)
            );
        }
    }

    #[test]
    fn zero_and_one_moduli_pair_with_nothing() {
        // A certificate can deliver a modulus of 0 or 1. Zero is left out
        // of the product and reports 0; one divides everything but shares
        // no factor above 1.
        let zero = BigUint::zero();
        let one = BigUint::one();
        let fifteen = BigUint::from_u64(15);
        assert_eq!(batch_gcd(std::slice::from_ref(&zero)), vec![zero.clone()]);
        assert_eq!(
            batch_gcd(&[zero.clone(), fifteen.clone()]),
            vec![zero.clone(), one.clone()]
        );
        let (mut moduli, _, _, _) = moduli_with_share(18, 5);
        for (i, m) in [zero.clone(), one.clone(), zero, one]
            .into_iter()
            .enumerate()
        {
            moduli.insert(3 * i, m);
        }
        let found = find_shared_factors(&moduli);
        assert_eq!(found, pairwise_shared_factors(&moduli));
        assert_eq!(found.len(), 1);
        let gcds = batch_gcd(&moduli);
        for (m, g) in moduli.iter().zip(&gcds) {
            if m.is_zero() {
                assert!(g.is_zero());
            } else if m.is_one() {
                assert!(g.is_one());
            }
        }
    }

    #[test]
    fn clean_set_yields_no_findings() {
        let mut rng = StdRng::seed_from_u64(14);
        let moduli: Vec<BigUint> = (0..10)
            .map(|_| {
                let p = generate_prime(&mut rng, 80);
                let q = generate_prime(&mut rng, 80);
                p.mul(&q)
            })
            .collect();
        assert!(pairwise_shared_factors(&moduli).is_empty());
        assert!(batch_gcd(&moduli).iter().all(|g| g.is_one()));
        assert!(find_shared_factors(&moduli).is_empty());
    }

    #[test]
    fn edge_cases() {
        assert!(batch_gcd(&[]).is_empty());
        let one_mod = vec![BigUint::from_u64(15)];
        assert_eq!(batch_gcd(&one_mod), vec![BigUint::one()]);
        // Duplicate modulus: gcd is the full modulus.
        let m = BigUint::from_u64(77);
        let gcds = batch_gcd(&[m.clone(), m.clone()]);
        assert_eq!(gcds[0], m);
        assert_eq!(gcds[1], m);
    }

    #[test]
    fn odd_count_product_tree() {
        // Exercise the odd-node-count carry in the product tree.
        let (moduli, ia, ib, shared) = moduli_with_share(15, 5); // 7 total
        assert_eq!(moduli.len() % 2, 1);
        let gcds = batch_gcd(&moduli);
        assert_eq!(gcds[ia], shared);
        assert_eq!(gcds[ib], shared);
    }

    #[test]
    fn three_way_share_detected() {
        let mut rng = StdRng::seed_from_u64(16);
        let shared = generate_prime(&mut rng, 80);
        let mut moduli: Vec<BigUint> = (0..3)
            .map(|_| shared.mul(&generate_prime(&mut rng, 80)))
            .collect();
        moduli.push(generate_prime(&mut rng, 80).mul(&generate_prime(&mut rng, 80)));
        let found = find_shared_factors(&moduli);
        // 3 choose 2 = 3 pairs.
        assert_eq!(found.len(), 3);
        assert!(found.iter().all(|f| f.factor == shared));
    }
}
