//! Shared-prime detection across RSA moduli.
//!
//! §5.3 of the paper: *"we have not found any evidence of key material that
//! is subject to insufficient randomness by pairwise checking the keys of
//! all received certificates for shared primes."* This module implements
//! both the naive pairwise check and the scalable product-/remainder-tree
//! batch GCD of Heninger et al. (USENIX Security 2012), which the paper
//! cites as motivation (its reference \[27\]).

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
/// each level above holds pairwise products, the root their full
/// product.
///
/// Built once per batch; the inner nodes use [`BigUint::mul`]'s
/// Karatsuba path (tree nodes grow far past the threshold within a few
/// levels) and the remainder-tree descent uses [`BigUint::sqr`] for the
/// `child²` moduli. [`ProductTree::leaf_remainders`] ping-pongs between
/// two reusable level buffers instead of allocating a fresh vector per
/// level.
#[derive(Debug, Clone)]
pub struct ProductTree {
    levels: Vec<Vec<BigUint>>,
}

impl ProductTree {
    /// Builds the tree bottom-up. Level 0 is `moduli` verbatim.
    pub fn build(moduli: &[BigUint]) -> ProductTree {
        let mut levels: Vec<Vec<BigUint>> = vec![moduli.to_vec()];
        // ua-lint: allow(panic-hygiene) -- `levels` starts with one level and only grows
        while levels.last().expect("at least one level").len() > 1 {
            // ua-lint: allow(panic-hygiene) -- `levels` starts with one level and only grows
            let prev = levels.last().expect("at least one level");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                if pair.len() == 2 {
                    next.push(pair[0].mul(&pair[1]));
                } else {
                    next.push(pair[0].clone());
                }
            }
            levels.push(next);
        }
        ProductTree { levels }
    }

    /// The product of all moduli.
    pub fn root(&self) -> &BigUint {
        // ua-lint: allow(panic-hygiene) -- `build` always leaves at least one level
        &self.levels.last().expect("at least one level")[0]
    }

    /// Remainder-tree descent: returns `root mod n_i²` for every leaf,
    /// by pushing `rem[child] = parent_rem mod child²` down the levels.
    /// Two level buffers are reused (swap per level) so the descent
    /// performs one allocation pair total, not one per level.
    pub fn leaf_remainders(&self) -> Vec<BigUint> {
        let mut cur: Vec<BigUint> = vec![self.root().clone()];
        let mut next: Vec<BigUint> = Vec::new();
        for level in (0..self.levels.len() - 1).rev() {
            let nodes = &self.levels[level];
            next.clear();
            next.reserve(nodes.len());
            for (i, node) in nodes.iter().enumerate() {
                let parent = &cur[i / 2];
                next.push(parent.rem(&node.sqr()));
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }
}

/// Product-tree/remainder-tree batch GCD: returns, for each modulus `n_i`,
/// `gcd(n_i, prod_{j != i} n_j)`. A result of 1 means no shared factor.
///
/// Runs in quasi-linear big-number operations instead of the naive
/// quadratic scan, and — fed the *deduplicated* moduli the incremental
/// assessor accumulates — its input shrinks by exactly the certificate
/// reuse factor the paper measured (§5.2).
pub fn batch_gcd(moduli: &[BigUint]) -> Vec<BigUint> {
    let n = moduli.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![BigUint::one()];
    }

    let tree = ProductTree::build(moduli);
    let rems = tree.leaf_remainders();

    // gcd(n_i, rem_i / n_i)
    moduli
        .iter()
        .zip(rems.iter())
        .map(|(m, r)| {
            if m.is_zero() {
                return BigUint::zero();
            }
            let (q, _) = r.div_rem(m);
            m.gcd(&q)
        })
        .collect()
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
    use rand::SeedableRng;

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
