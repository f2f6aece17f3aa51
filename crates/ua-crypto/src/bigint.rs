//! Arbitrary-precision unsigned integers.
//!
//! A compact big-integer implementation sufficient for RSA key generation,
//! signing, verification, and the shared-prime analysis of §5.3 of the
//! paper. Limbs are `u64`, stored little-endian and normalized (no trailing
//! zero limbs; zero is the empty limb vector).
//!
//! The hot paths are subquadratic where it pays off at campaign scale:
//!
//! * [`BigUint::mul`] switches from schoolbook to Karatsuba above
//!   [`KARATSUBA_THRESHOLD`] limbs — the product tree of
//!   [`crate::batch_gcd`](mod@crate::batch_gcd) multiplies thousands of
//!   moduli into numbers far past the threshold;
//! * [`BigUint::sqr`] exploits the symmetry of squaring (~1.5× cheaper
//!   than a general multiply), which the remainder tree and modular
//!   exponentiation hit on every step;
//! * [`BigUint::mod_pow`] runs 4-bit-windowed exponentiation in a
//!   [`Montgomery`] context for odd moduli — zero divisions per step —
//!   and falls back to the classic square-and-multiply
//!   ([`BigUint::mod_pow_legacy`], one Knuth division per step) only for
//!   even moduli. RSA moduli are odd, so signature verification and the
//!   Miller–Rabin witnesses of [`crate::prime`] always take the fast
//!   path. The legacy path stays as the randomized tests' reference.
//!
//! Division stays Knuth Algorithm D and GCD stays binary — correct for
//! arbitrary sizes (tested up to 4096 bit) and auditable.

use rand::Rng;
use std::cmp::Ordering;
use std::fmt;

/// Limb count above which [`BigUint::mul`] switches to Karatsuba.
/// Below ~32 limbs (2048 bits) the recursion overhead beats the saved
/// limb products on current hardware.
pub const KARATSUBA_THRESHOLD: usize = 32;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs; invariant: `limbs.last() != Some(&0)`.
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut out = BigUint {
            limbs: vec![lo, hi],
        };
        out.normalize();
        out
    }

    /// Builds from big-endian bytes (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut acc: u64 = 0;
        let mut shift = 0u32;
        for &b in bytes.iter().rev() {
            acc |= (b as u64) << shift;
            shift += 8;
            if shift == 64 {
                limbs.push(acc);
                acc = 0;
                shift = 0;
            }
        }
        if acc != 0 || shift != 0 {
            limbs.push(acc);
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Serializes to big-endian bytes without leading zeros (`0` → empty).
    /// Sized exactly from the bit length: one allocation, no trimming.
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let len = self.bit_length().div_ceil(8);
        let mut out = vec![0u8; len];
        for i in 0..len {
            let limb = i / 8;
            let shift = (i % 8) * 8;
            out[len - 1 - i] = (self.limbs[limb] >> shift) as u8;
        }
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padding with
    /// zeros. Panics if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit into {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parses a hexadecimal string (no prefix, case-insensitive).
    pub fn from_hex(s: &str) -> Option<Self> {
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let chars: Vec<u8> = s.bytes().collect();
        if chars.is_empty() {
            return None;
        }
        let mut iter = chars.chunks_exact(2).peekable();
        let mut out = Vec::new();
        if chars.len() % 2 == 1 {
            out.push(hex_val(chars[0])?);
            iter = chars[1..].chunks_exact(2).peekable();
        }
        for pair in iter {
            out.push(hex_val(pair[0])? * 16 + hex_val(pair[1])?);
        }
        bytes.extend_from_slice(&out);
        Some(Self::from_bytes_be(&bytes))
    }

    /// Lowercase hex representation (`"0"` for zero). Sized exactly from
    /// the bit length: one allocation, digits emitted in place.
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".into();
        }
        let digits = self.bit_length().div_ceil(4);
        let mut s = String::with_capacity(digits);
        for i in (0..digits).rev() {
            let limb = i / 16;
            let shift = (i % 16) * 4;
            let d = ((self.limbs[limb] >> shift) & 0xF) as u32;
            // ua-lint: allow(panic-hygiene) -- `d` is masked to 0..=15, always a hex digit
            s.push(char::from_digit(d, 16).expect("nibble in range"));
        }
        s
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_length(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Returns the low 64 bits.
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (a, b) = if self.limbs.len() >= other.limbs.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = Vec::with_capacity(a.limbs.len() + 1);
        let mut carry = 0u64;
        for i in 0..a.limbs.len() {
            let bi = b.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.limbs[i].overflowing_add(bi);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// `self - other`; panics on underflow.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self >= other, "BigUint subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let bi = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(bi);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// `self * other`: schoolbook below [`KARATSUBA_THRESHOLD`] limbs,
    /// Karatsuba above it.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut r = BigUint {
            limbs: mul_limbs(&self.limbs, &other.limbs),
        };
        r.normalize();
        r
    }

    /// `self * other` via schoolbook multiplication only, at any size.
    /// The O(n²) reference path — kept public so the randomized tests
    /// can cross-check Karatsuba against it.
    pub fn mul_schoolbook(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut r = BigUint {
            limbs: schoolbook_mul(&self.limbs, &other.limbs),
        };
        r.normalize();
        r
    }

    /// `self * self`, exploiting the symmetry of squaring: the cross
    /// products `aᵢ·aⱼ` (i≠j) are computed once and doubled, roughly
    /// 1.5× cheaper than `self.mul(self)`. Karatsuba-split above the
    /// threshold like [`Self::mul`].
    pub fn sqr(&self) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let mut r = BigUint {
            limbs: sqr_limbs(&self.limbs),
        };
        r.normalize();
        r
    }

    /// `self * m` for a single limb.
    pub fn mul_u64(&self, m: u64) -> BigUint {
        if m == 0 || self.is_zero() {
            return BigUint::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &a in &self.limbs {
            let cur = (a as u128) * (m as u128) + carry;
            out.push(cur as u64);
            carry = cur >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// `self << bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// `self >> bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            let src = &self.limbs[limb_shift..];
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (64 - bit_shift)
                } else {
                    0
                };
                out.push(lo | hi);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Division with remainder: returns `(quotient, remainder)`.
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return (q, BigUint::from_u64(r));
        }
        self.div_rem_knuth(divisor)
    }

    /// Fast path: divide by a single limb.
    pub fn div_rem_u64(&self, d: u64) -> (BigUint, u64) {
        assert!(d != 0, "division by zero");
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem: u128 = 0;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            out[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        let mut q = BigUint { limbs: out };
        q.normalize();
        (q, rem as u64)
    }

    /// Knuth Algorithm D (TAOCP Vol. 2, 4.3.1) for multi-limb divisors.
    fn div_rem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        // Normalize so the divisor's top limb has its high bit set.
        // ua-lint: allow(panic-hygiene) -- callers reach Knuth division only with multi-limb divisors
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let v = divisor.shl(shift);
        let mut u = self.shl(shift).limbs;
        let n = v.limbs.len();
        let m = u.len() - n;
        u.push(0); // extra headroom limb u[m + n]

        let v_limbs = &v.limbs;
        let v_top = v_limbs[n - 1];
        let v_next = v_limbs[n - 2];

        let mut q = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // Estimate qhat from the top two (three) limbs.
            let numerator = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut qhat = numerator / v_top as u128;
            let mut rhat = numerator % v_top as u128;
            // Correct qhat (at most two iterations).
            while qhat >= 1 << 64 || qhat * v_next as u128 > ((rhat << 64) | u[j + n - 2] as u128) {
                qhat -= 1;
                rhat += v_top as u128;
                if rhat >= 1 << 64 {
                    break;
                }
            }
            // Multiply and subtract: u[j..j+n+1] -= qhat * v.
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let p = qhat * v_limbs[i] as u128 + carry;
                carry = p >> 64;
                let sub = (u[j + i] as i128) - (p as u64 as i128) + borrow;
                u[j + i] = sub as u64;
                borrow = sub >> 64; // arithmetic shift: 0 or -1
            }
            let sub = (u[j + n] as i128) - (carry as i128) + borrow;
            u[j + n] = sub as u64;
            borrow = sub >> 64;

            if borrow != 0 {
                // qhat was one too large: add the divisor back.
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = u[j + i] as u128 + v_limbs[i] as u128 + carry;
                    u[j + i] = s as u64;
                    carry = s >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u64);
            }
            q[j] = qhat as u64;
        }

        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        let mut rem = BigUint { limbs: u };
        rem.normalize();
        (quotient, rem.shr(shift))
    }

    /// `self mod modulus`.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// `(self * other) mod modulus`, with fast paths when either operand
    /// is zero or one (no multiply, at most one reduction).
    pub fn mul_mod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        if self.is_one() {
            return other.rem(modulus);
        }
        if other.is_one() {
            return self.rem(modulus);
        }
        self.mul(other).rem(modulus)
    }

    /// `self^exponent mod modulus`.
    ///
    /// Odd moduli (every RSA modulus, every Miller–Rabin candidate) run
    /// 4-bit-windowed exponentiation in a [`Montgomery`] context — zero
    /// divisions per square/multiply step. Even moduli fall back to
    /// [`Self::mod_pow_legacy`], the classic square-and-multiply with a
    /// full division per step (Montgomery reduction needs
    /// `gcd(modulus, 2⁶⁴) = 1`).
    pub fn mod_pow(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        if exponent.is_zero() {
            return BigUint::one();
        }
        match Montgomery::new(modulus) {
            Some(ctx) => ctx.pow(self, exponent),
            None => self.mod_pow_legacy(exponent, modulus),
        }
    }

    /// `self^exponent mod modulus` via left-to-right square-and-multiply
    /// with a schoolbook multiply and a full Knuth division per step —
    /// the pre-Montgomery implementation, frozen (it deliberately does
    /// *not* pick up the Karatsuba dispatch) so the randomized tests
    /// have an independent reference. Also the documented fallback for
    /// even moduli, where [`Montgomery`] reduction is undefined.
    pub fn mod_pow_legacy(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        let base = self.rem(modulus);
        if exponent.is_zero() {
            return BigUint::one();
        }
        let mut result = BigUint::one();
        let bits = exponent.bit_length();
        for i in (0..bits).rev() {
            result = result.mul_schoolbook(&result).rem(modulus);
            if exponent.bit(i) {
                result = result.mul_schoolbook(&base).rem(modulus);
            }
        }
        result
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        let mut a = self.clone();
        let mut b = other.clone();
        // Factor out common powers of two.
        let a_tz = a.trailing_zeros();
        let b_tz = b.trailing_zeros();
        let common = a_tz.min(b_tz);
        a = a.shr(a_tz);
        b = b.shr(b_tz);
        loop {
            match a.cmp(&b) {
                Ordering::Equal => break,
                Ordering::Greater => {
                    a = a.sub(&b);
                    a = a.shr(a.trailing_zeros());
                }
                Ordering::Less => {
                    b = b.sub(&a);
                    b = b.shr(b.trailing_zeros());
                }
            }
        }
        a.shl(common)
    }

    /// Number of trailing zero bits (0 for zero value).
    pub fn trailing_zeros(&self) -> usize {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return i * 64 + l.trailing_zeros() as usize;
            }
        }
        0
    }

    /// Modular multiplicative inverse: `self^-1 mod modulus`, or `None`
    /// when `gcd(self, modulus) != 1`.
    pub fn mod_inverse(&self, modulus: &BigUint) -> Option<BigUint> {
        // Extended Euclid over signed coefficients.
        if modulus.is_zero() {
            return None;
        }
        let mut r0 = modulus.clone();
        let mut r1 = self.rem(modulus);
        // Coefficients of `self` modulo `modulus`: (sign, magnitude).
        let mut t0 = (false, BigUint::zero());
        let mut t1 = (false, BigUint::one());
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // t2 = t0 - q * t1
            let qt1 = q.mul(&t1.1);
            let t2 = signed_sub(t0.clone(), (t1.0, qt1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return None;
        }
        // Normalize t0 into [0, modulus).
        let (neg, mag) = t0;
        let mag = mag.rem(modulus);
        Some(if neg && !mag.is_zero() {
            modulus.sub(&mag)
        } else {
            mag
        })
    }

    /// Uniform random integer with exactly `bits` significant bits
    /// (top bit set).
    pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits > 0);
        let limbs = bits.div_ceil(64);
        let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
        let top_bits = bits - (limbs - 1) * 64;
        let mask = if top_bits == 64 {
            u64::MAX
        } else {
            (1u64 << top_bits) - 1
        };
        let last = limbs - 1;
        v[last] &= mask;
        v[last] |= 1u64 << (top_bits - 1); // force exact bit length
        let mut r = BigUint { limbs: v };
        r.normalize();
        r
    }

    /// Uniform random integer in `[0, bound)` by rejection sampling.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero());
        let bits = bound.bit_length();
        loop {
            let limbs = bits.div_ceil(64);
            let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
            let top_bits = bits - (limbs - 1) * 64;
            let mask = if top_bits == 64 {
                u64::MAX
            } else {
                (1u64 << top_bits) - 1
            };
            let last = limbs - 1;
            v[last] &= mask;
            let mut r = BigUint { limbs: v };
            r.normalize();
            if &r < bound {
                return r;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Limb-slice multiplication kernels
// ---------------------------------------------------------------------------
//
// These operate on raw little-endian limb slices (trailing zeros allowed)
// so Karatsuba can recurse on sub-slices without constructing
// intermediate `BigUint`s.

/// Schoolbook product; output has exactly `a.len() + b.len()` limbs
/// (possibly with trailing zeros).
fn schoolbook_mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let cur = out[i + j] as u128 + (ai as u128) * (bj as u128) + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        out[i + b.len()] = carry as u64;
    }
    out
}

/// Schoolbook square: cross products computed once and doubled, then the
/// diagonal squares added — ~1.5× cheaper than `schoolbook_mul(a, a)`.
fn schoolbook_sqr(a: &[u64]) -> Vec<u64> {
    let n = a.len();
    let mut out = vec![0u64; 2 * n];
    // Off-diagonal products a[i]·a[j], i < j.
    for i in 0..n {
        if a[i] == 0 {
            continue;
        }
        let mut carry = 0u128;
        for j in (i + 1)..n {
            let cur = out[i + j] as u128 + (a[i] as u128) * (a[j] as u128) + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        out[i + n] = carry as u64;
    }
    // Double them.
    let carry = shl1_in_place(&mut out);
    debug_assert_eq!(carry, 0);
    // Add the diagonal squares.
    let mut carry = 0u64;
    for (i, &ai) in a.iter().enumerate() {
        let sq = (ai as u128) * (ai as u128);
        let lo = out[2 * i] as u128 + (sq as u64 as u128) + carry as u128;
        out[2 * i] = lo as u64;
        let hi = out[2 * i + 1] as u128 + ((sq >> 64) as u64 as u128) + (lo >> 64);
        out[2 * i + 1] = hi as u64;
        carry = (hi >> 64) as u64;
    }
    debug_assert_eq!(carry, 0);
    out
}

/// Shifts the limbs left by one bit in place, returning the bit
/// carried out of the top.
fn shl1_in_place(limbs: &mut [u64]) -> u64 {
    let mut carry = 0u64;
    for limb in limbs.iter_mut() {
        let next = *limb >> 63;
        *limb = (*limb << 1) | carry;
        carry = next;
    }
    carry
}

/// Limb-wise sum of two slices (lengths may differ).
fn add_slices(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for (i, &l) in long.iter().enumerate() {
        let bi = short.get(i).copied().unwrap_or(0);
        let (s1, c1) = l.overflowing_add(bi);
        let (s2, c2) = s1.overflowing_add(carry);
        out.push(s2);
        carry = (c1 as u64) + (c2 as u64);
    }
    out.push(carry);
    out
}

/// `a -= b` in place; the caller guarantees `a >= b`.
fn sub_in_place(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for (i, limb) in a.iter_mut().enumerate() {
        let bi = b.get(i).copied().unwrap_or(0);
        let (d1, b1) = limb.overflowing_sub(bi);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *limb = d2;
        borrow = (b1 as u64) + (b2 as u64);
        if borrow == 0 && i >= b.len() {
            break;
        }
    }
    debug_assert_eq!(borrow, 0, "limb subtraction underflow");
}

/// `out[offset..] += add`, propagating the carry. The caller guarantees
/// the sum fits in `out`.
fn add_at(out: &mut [u64], add: &[u64], offset: usize) {
    // Trailing zero limbs carry no value but would index past `out`.
    let mut len = add.len();
    while len > 0 && add[len - 1] == 0 {
        len -= 1;
    }
    let mut carry = 0u64;
    for i in 0..len {
        let (s1, c1) = out[offset + i].overflowing_add(add[i]);
        let (s2, c2) = s1.overflowing_add(carry);
        out[offset + i] = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
    let mut k = offset + len;
    while carry != 0 {
        let (s, c) = out[k].overflowing_add(carry);
        out[k] = s;
        carry = c as u64;
        k += 1;
    }
}

/// Karatsuba dispatch; output has exactly `a.len() + b.len()` limbs.
fn mul_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.len().min(b.len()) < KARATSUBA_THRESHOLD {
        return schoolbook_mul(a, b);
    }
    // Split both operands at the same point (half of the shorter one):
    // a = a0 + a1·B^s, b = b0 + b1·B^s.
    let split = a.len().min(b.len()) / 2;
    let (a0, a1) = a.split_at(split);
    let (b0, b1) = b.split_at(split);
    let z0 = mul_limbs(a0, b0);
    let z2 = mul_limbs(a1, b1);
    // z1 = (a0+a1)(b0+b1) − z0 − z2 = a0·b1 + a1·b0.
    let mut z1 = mul_limbs(&add_slices(a0, a1), &add_slices(b0, b1));
    sub_in_place(&mut z1, &z0);
    sub_in_place(&mut z1, &z2);
    let mut out = vec![0u64; a.len() + b.len()];
    add_at(&mut out, &z0, 0);
    add_at(&mut out, &z1, split);
    add_at(&mut out, &z2, 2 * split);
    out
}

/// Karatsuba-split squaring; output has exactly `2 * a.len()` limbs.
fn sqr_limbs(a: &[u64]) -> Vec<u64> {
    if a.len() < KARATSUBA_THRESHOLD {
        return schoolbook_sqr(a);
    }
    let split = a.len() / 2;
    let (a0, a1) = a.split_at(split);
    let z0 = sqr_limbs(a0);
    let z2 = sqr_limbs(a1);
    // (a0 + a1·B^s)² = z0 + 2·a0·a1·B^s + z2·B^(2s)
    let mut z1 = mul_limbs(a0, a1);
    let carry = shl1_in_place(&mut z1);
    z1.push(carry);
    let mut out = vec![0u64; 2 * a.len()];
    add_at(&mut out, &z0, 0);
    add_at(&mut out, &z1, split);
    add_at(&mut out, &z2, 2 * split);
    out
}

// ---------------------------------------------------------------------------
// Montgomery modular arithmetic
// ---------------------------------------------------------------------------

/// Precomputed context for modular arithmetic over an **odd** modulus
/// `n` in Montgomery form (`x·R mod n` with `R = 2^(64k)`, `k` the limb
/// count of `n`).
///
/// Construction precomputes `n' = −n⁻¹ mod 2⁶⁴` (one Newton–Hensel
/// iteration chain, no division) and `R² mod n` (one division, paid once
/// per modulus). Every subsequent multiply/square is a CIOS Montgomery
/// reduction: pure limb arithmetic, zero divisions — the reason
/// [`BigUint::mod_pow`] beats [`BigUint::mod_pow_legacy`] by an order of
/// magnitude at RSA sizes.
///
/// [`Montgomery::pow`] runs left-to-right 4-bit-windowed exponentiation
/// (a 16-entry table, four squarings plus at most one multiply per
/// window) and reuses two scratch buffers across all steps, so a full
/// 2048-bit exponentiation performs no allocation inside the loop.
#[derive(Debug, Clone)]
pub struct Montgomery {
    modulus: BigUint,
    /// Modulus limbs (length `k`, top limb nonzero).
    n: Vec<u64>,
    /// `−n⁻¹ mod 2⁶⁴`.
    n0_inv: u64,
    /// `R² mod n`, zero-padded to `k` limbs.
    r2: Vec<u64>,
}

impl Montgomery {
    /// Builds a context for `modulus`; `None` when the modulus is even
    /// or smaller than 2 (Montgomery reduction requires
    /// `gcd(modulus, 2⁶⁴) = 1` — callers fall back to
    /// [`BigUint::mod_pow_legacy`]).
    pub fn new(modulus: &BigUint) -> Option<Montgomery> {
        if modulus.is_even() || modulus.is_one() {
            return None;
        }
        let k = modulus.limbs.len();
        // Newton–Hensel inversion of n₀ mod 2⁶⁴: each step doubles the
        // number of correct low bits; 6 steps from a 1-bit seed cover 64.
        let n0 = modulus.limbs[0];
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let mut r2 = BigUint::one().shl(128 * k).rem(modulus).limbs;
        r2.resize(k, 0);
        Some(Montgomery {
            modulus: modulus.clone(),
            n: modulus.limbs.clone(),
            n0_inv: inv.wrapping_neg(),
            r2,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// Fused (FIOS-style) Montgomery multiplication:
    /// `out = a·b·R⁻¹ mod n`. The multiply-accumulate and the reduction
    /// run in one pass per outer limb with two independent carry
    /// chains, halving the traversals of the scratch accumulator.
    /// `a`, `b`, `out` are `k`-limb Montgomery-domain values; `t` is a
    /// reusable scratch buffer of `k + 2` limbs.
    fn mont_mul(&self, a: &[u64], b: &[u64], t: &mut [u64], out: &mut [u64]) {
        let k = self.n.len();
        let n = &self.n[..k];
        let b = &b[..k];
        let t = &mut t[..k + 1];
        t.fill(0);
        for &ai in &a[..k] {
            // Column 0 decides the reduction multiplier m, chosen so the
            // low limb of t + ai·b + m·n vanishes.
            let c0 = t[0] as u128 + (ai as u128) * (b[0] as u128);
            let m = (c0 as u64).wrapping_mul(self.n0_inv);
            let r0 = (c0 as u64) as u128 + (m as u128) * (n[0] as u128);
            debug_assert_eq!(r0 as u64, 0);
            let mut carry_mul = c0 >> 64; // carry of the ai·b column sums
            let mut carry_red = r0 >> 64; // carry of the m·n reduction
            for j in 1..k {
                let cur = t[j] as u128 + (ai as u128) * (b[j] as u128) + carry_mul;
                carry_mul = cur >> 64;
                let red = (cur as u64) as u128 + (m as u128) * (n[j] as u128) + carry_red;
                carry_red = red >> 64;
                t[j - 1] = red as u64;
            }
            // Fold both carries into the (shifted) top; the CIOS bound
            // t < 2n keeps the overflow limb in {0, 1}.
            let top = t[k] as u128 + carry_mul + carry_red;
            t[k - 1] = top as u64;
            t[k] = (top >> 64) as u64;
        }
        // Result in t[0..k] with a possible overflow bit in t[k]:
        // conditionally subtract n once.
        let ge = t[k] != 0 || {
            let mut ge = true; // equal counts as ≥
            for j in (0..k).rev() {
                match t[j].cmp(&n[j]) {
                    Ordering::Greater => break,
                    Ordering::Less => {
                        ge = false;
                        break;
                    }
                    Ordering::Equal => {}
                }
            }
            ge
        };
        if ge {
            let mut borrow = 0u64;
            for j in 0..k {
                let (d1, b1) = t[j].overflowing_sub(n[j]);
                let (d2, b2) = d1.overflowing_sub(borrow);
                out[j] = d2;
                borrow = (b1 as u64) + (b2 as u64);
            }
            debug_assert_eq!(borrow, t[k]);
        } else {
            out.copy_from_slice(&t[..k]);
        }
    }

    /// `base^exponent mod n` via 4-bit-windowed Montgomery
    /// exponentiation.
    pub fn pow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        if exponent.is_zero() {
            return BigUint::one();
        }
        let k = self.n.len();
        let mut scratch = vec![0u64; k + 2];
        let mut tmp = vec![0u64; k];

        // Enter the Montgomery domain: x·R = mont_mul(x, R²).
        let mut base_limbs = base.rem(&self.modulus).limbs;
        base_limbs.resize(k, 0);
        let mut base_m = vec![0u64; k];
        self.mont_mul(&base_limbs, &self.r2, &mut scratch, &mut base_m);
        let mut one_limbs = vec![0u64; k];
        one_limbs[0] = 1;
        let mut one_m = vec![0u64; k];
        self.mont_mul(&one_limbs, &self.r2, &mut scratch, &mut one_m);

        // table[w] = base^w in the Montgomery domain.
        let mut table: Vec<Vec<u64>> = Vec::with_capacity(16);
        table.push(one_m);
        for w in 1..16 {
            let mut next = vec![0u64; k];
            self.mont_mul(&table[w - 1], &base_m, &mut scratch, &mut next);
            table.push(next);
        }

        let bits = exponent.bit_length();
        let windows = bits.div_ceil(4);
        let window_at = |w: usize| -> usize {
            let bit = 4 * w;
            let limb = bit / 64;
            let shift = bit % 64; // 4 | 64, so a window never straddles limbs
            ((exponent.limbs.get(limb).copied().unwrap_or(0) >> shift) & 0xF) as usize
        };

        let mut acc = table[window_at(windows - 1)].clone();
        for w in (0..windows - 1).rev() {
            for _ in 0..4 {
                self.mont_mul(&acc, &acc, &mut scratch, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
            let digit = window_at(w);
            if digit != 0 {
                self.mont_mul(&acc, &table[digit], &mut scratch, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }

        // Leave the Montgomery domain: x = mont_mul(x·R, 1).
        self.mont_mul(&acc, &one_limbs, &mut scratch, &mut tmp);
        let mut out = BigUint { limbs: tmp };
        out.normalize();
        out
    }
}

/// `a - b` over signed (sign, magnitude) pairs.
fn signed_sub(a: (bool, BigUint), b: (bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        // a - b with both positive.
        (false, false) => {
            if a.1 >= b.1 {
                (false, a.1.sub(&b.1))
            } else {
                (true, b.1.sub(&a.1))
            }
        }
        // a - (-b) = a + b
        (false, true) => (false, a.1.add(&b.1)),
        // -a - b = -(a + b)
        (true, false) => (true, a.1.add(&b.1)),
        // -a - (-b) = b - a
        (true, true) => {
            if b.1 >= a.1 {
                (false, b.1.sub(&a.1))
            } else {
                (true, a.1.sub(&b.1))
            }
        }
    }
}

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn big(s: &str) -> BigUint {
        BigUint::from_hex(s).unwrap()
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(!BigUint::one().is_zero());
        assert_eq!(BigUint::zero().bit_length(), 0);
        assert_eq!(BigUint::one().bit_length(), 1);
    }

    #[test]
    fn bytes_roundtrip() {
        let v = big("0123456789abcdef0123456789abcdef01");
        let bytes = v.to_bytes_be();
        assert_eq!(BigUint::from_bytes_be(&bytes), v);
        // Leading zeros in input are accepted.
        let mut padded = vec![0u8, 0u8];
        padded.extend_from_slice(&bytes);
        assert_eq!(BigUint::from_bytes_be(&padded), v);
    }

    #[test]
    fn padded_bytes() {
        let v = BigUint::from_u64(0x1234);
        assert_eq!(v.to_bytes_be_padded(4), vec![0, 0, 0x12, 0x34]);
    }

    #[test]
    #[should_panic]
    fn padded_bytes_too_small_panics() {
        BigUint::from_u64(0x123456).to_bytes_be_padded(2);
    }

    #[test]
    fn hex_roundtrip() {
        for s in [
            "0",
            "1",
            "ff",
            "100",
            "deadbeefcafebabe",
            "1234567890abcdef1234567890abcdef",
        ] {
            let v = BigUint::from_hex(s).unwrap();
            let expect = s.trim_start_matches('0');
            let expect = if expect.is_empty() { "0" } else { expect };
            assert_eq!(v.to_hex(), expect);
        }
        assert!(BigUint::from_hex("xyz").is_none());
        assert!(BigUint::from_hex("").is_none());
    }

    #[test]
    fn add_sub() {
        let a = big("ffffffffffffffffffffffffffffffff");
        let one = BigUint::one();
        let sum = a.add(&one);
        assert_eq!(sum, big("100000000000000000000000000000000"));
        assert_eq!(sum.sub(&one), a);
        assert_eq!(a.sub(&a), BigUint::zero());
    }

    #[test]
    #[should_panic]
    fn sub_underflow_panics() {
        BigUint::one().sub(&BigUint::from_u64(2));
    }

    #[test]
    fn mul_small() {
        let a = BigUint::from_u64(0xffff_ffff_ffff_ffff);
        let sq = a.mul(&a);
        assert_eq!(sq, big("fffffffffffffffe0000000000000001"));
        assert_eq!(a.mul(&BigUint::zero()), BigUint::zero());
        assert_eq!(a.mul_u64(2), a.add(&a));
    }

    #[test]
    fn shifts() {
        let a = big("123456789abcdef");
        assert_eq!(a.shl(0), a);
        assert_eq!(a.shl(4), big("123456789abcdef0"));
        assert_eq!(a.shl(68).shr(68), a);
        assert_eq!(a.shr(200), BigUint::zero());
        assert_eq!(BigUint::zero().shl(100), BigUint::zero());
    }

    #[test]
    fn div_rem_simple() {
        let a = big("deadbeefcafebabe1234567890");
        let b = big("abcdef");
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    }

    #[test]
    fn div_rem_multi_limb() {
        let a = big("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
        let b = big("fedcba9876543210fedcba9876543210");
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    }

    #[test]
    fn div_rem_equal_and_smaller() {
        let a = big("1234");
        assert_eq!(a.div_rem(&a), (BigUint::one(), BigUint::zero()));
        let (q, r) = BigUint::one().div_rem(&a);
        assert!(q.is_zero());
        assert!(r.is_one());
    }

    #[test]
    #[should_panic]
    fn div_by_zero_panics() {
        BigUint::one().div_rem(&BigUint::zero());
    }

    #[test]
    fn mod_pow_known() {
        // 5^117 mod 19 = 1 (Fermat: 5^18 = 1 mod 19, 117 = 6*18+9; 5^9 mod 19 = 1)
        let b = BigUint::from_u64(5);
        let e = BigUint::from_u64(117);
        let m = BigUint::from_u64(19);
        assert_eq!(b.mod_pow(&e, &m), BigUint::one());
        // 4^13 mod 497 = 445 (classic example)
        assert_eq!(
            BigUint::from_u64(4).mod_pow(&BigUint::from_u64(13), &BigUint::from_u64(497)),
            BigUint::from_u64(445)
        );
        // x^0 = 1
        assert_eq!(b.mod_pow(&BigUint::zero(), &m), BigUint::one());
        // mod 1 = 0
        assert_eq!(b.mod_pow(&e, &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn gcd_known() {
        assert_eq!(
            BigUint::from_u64(48).gcd(&BigUint::from_u64(18)),
            BigUint::from_u64(6)
        );
        assert_eq!(
            BigUint::zero().gcd(&BigUint::from_u64(5)),
            BigUint::from_u64(5)
        );
        assert_eq!(
            BigUint::from_u64(5).gcd(&BigUint::zero()),
            BigUint::from_u64(5)
        );
        let p = big("e3e70682c2094cac629f6fbed82c07cd");
        let a = p.mul(&big("f728b4fa42485e3a0a5d2f346baa9455"));
        let b = p.mul(&big("eb1167b367a9c3787c65c1e582e2e662"));
        assert_eq!(a.gcd(&b), p);
    }

    #[test]
    fn mod_inverse_known() {
        // 3^-1 mod 7 = 5
        assert_eq!(
            BigUint::from_u64(3).mod_inverse(&BigUint::from_u64(7)),
            Some(BigUint::from_u64(5))
        );
        // gcd != 1 -> None
        assert_eq!(
            BigUint::from_u64(4).mod_inverse(&BigUint::from_u64(8)),
            None
        );
        // Large: inverse times self = 1 mod m
        let m = big("fedcba9876543210fedcba9876543211");
        let a = big("123456789abcdef");
        let inv = a.mod_inverse(&m).unwrap();
        assert!(a.mul_mod(&inv, &m).is_one());
    }

    #[test]
    fn random_bits_has_exact_length() {
        let mut rng = StdRng::seed_from_u64(7);
        for bits in [1usize, 5, 63, 64, 65, 127, 128, 200, 512] {
            let v = BigUint::random_bits(&mut rng, bits);
            assert_eq!(v.bit_length(), bits, "bits={bits}");
        }
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let bound = big("10000000000000001");
        for _ in 0..50 {
            let v = BigUint::random_below(&mut rng, &bound);
            assert!(v < bound);
        }
    }

    #[test]
    fn ordering() {
        assert!(big("ff") < big("100"));
        assert!(big("100") > big("ff"));
        assert_eq!(big("abc").cmp(&big("abc")), Ordering::Equal);
    }

    #[test]
    fn display_and_debug() {
        let v = BigUint::from_u64(0xbeef);
        assert_eq!(format!("{v}"), "0xbeef");
        assert!(format!("{v:?}").contains("beef"));
    }

    #[test]
    fn bit_accessor() {
        let v = BigUint::from_u64(0b1010);
        assert!(!v.bit(0));
        assert!(v.bit(1));
        assert!(!v.bit(2));
        assert!(v.bit(3));
        assert!(!v.bit(64));
    }

    #[test]
    fn div_rem_u64_matches_div_rem() {
        let a = big("123456789abcdef0123456789abcdef0123456789");
        let (q1, r1) = a.div_rem_u64(0x1_0001);
        let (q2, r2) = a.div_rem(&BigUint::from_u64(0x1_0001));
        assert_eq!(q1, q2);
        assert_eq!(BigUint::from_u64(r1), r2);
    }

    #[test]
    fn knuth_add_back_case() {
        // A crafted case that exercises the rare "add back" branch:
        // dividend chosen so the first qhat estimate overshoots.
        let u = big("7fffffffffffffff8000000000000000000000000000000000000000");
        let v = big("800000000000000080000000000000000000000000000001");
        let (q, r) = u.div_rem(&v);
        assert_eq!(q.mul(&v).add(&r), u);
        assert!(r < v);
    }
}
