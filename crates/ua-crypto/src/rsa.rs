//! RSA key generation, signatures, and encryption.
//!
//! OPC UA's asymmetric security (certificate signatures, OpenSecureChannel
//! encryption) is RSA-based. This module provides a from-scratch RSA over
//! [`crate::bigint::BigUint`].
//!
//! Every raw RSA operation (`m^e mod n`, `c^d mod n`) goes through
//! [`BigUint::mod_pow`], which — RSA moduli being odd — always takes the
//! sliding-window [`crate::bigint::Montgomery`] path: zero divisions per
//! square/multiply step, on stack arrays for moduli of up to 256 bits.
//! At campaign scale this is what makes signing and verifying thousands
//! of certificates cheap; the Miller–Rabin tests behind key generation
//! run on the same kernels.
//!
//! # Nominal vs. actual key size
//!
//! The paper assesses key lengths of 1024/2048/4096 bits (Table 1). Real
//! keys of those sizes are expensive to generate in the volume the
//! simulation needs (thousands of certificates), so a key carries two
//! sizes:
//!
//! * `nominal_bits` — the advertised modulus length that the assessment
//!   pipeline sees and that Figure 4 buckets by;
//! * the *actual* modulus, which is smaller so that millions of
//!   operations stay cheap: 192 bits for the simulated fleet's keys, 256
//!   bits for the default `ua-server` and `ua-client` keys.
//!
//! All arithmetic (sign/verify/encrypt/decrypt, shared-prime GCD) is real
//! arithmetic on the actual modulus, so every code path a real key would
//! take is exercised; only the magnitude is scaled. Tests exercise
//! full-size (512/1024-bit actual) keys as well.
//!
//! # Padding
//!
//! Signatures use a PKCS#1 v1.5-like encoding: `0x00 0x01 0xFF… 0x00 ||
//! alg-id(2 bytes) || digest`, with the digest truncated if the modulus is
//! too small to hold it (only possible with scaled-down simulation keys;
//! full-size keys never truncate). Encryption uses PKCS#1 v1.5 type-2
//! random padding.

use crate::bigint::BigUint;
use crate::hash::HashAlgorithm;
use crate::prime::generate_prime;
use rand::Rng;

/// Errors from RSA operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsaError {
    /// Message too large for the modulus.
    MessageTooLong,
    /// Ciphertext or signature is not smaller than the modulus.
    ValueOutOfRange,
    /// Padding check failed on decryption.
    BadPadding,
}

impl std::fmt::Display for RsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsaError::MessageTooLong => write!(f, "message too long for RSA modulus"),
            RsaError::ValueOutOfRange => write!(f, "value out of range for RSA modulus"),
            RsaError::BadPadding => write!(f, "bad RSA padding"),
        }
    }
}

impl std::error::Error for RsaError {}

/// An RSA public key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RsaPublicKey {
    /// Modulus `n = p * q`.
    pub n: BigUint,
    /// Public exponent (65537 by convention).
    pub e: BigUint,
    /// Advertised key length in bits (what certificates claim; see module
    /// docs for the nominal/actual distinction).
    pub nominal_bits: u32,
}

impl RsaPublicKey {
    /// Modulus size in bytes (actual).
    pub fn modulus_len(&self) -> usize {
        self.n.bit_length().div_ceil(8)
    }

    /// Heap bytes of the modulus and exponent limbs.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.n.heap_bytes() + self.e.heap_bytes()
    }

    /// Raw RSA public operation `m^e mod n`.
    pub fn raw(&self, m: &BigUint) -> Result<BigUint, RsaError> {
        if m >= &self.n {
            return Err(RsaError::ValueOutOfRange);
        }
        Ok(m.mod_pow(&self.e, &self.n))
    }

    /// Verifies a signature over `message` hashed with `alg`.
    pub fn verify(&self, alg: HashAlgorithm, message: &[u8], signature: &[u8]) -> bool {
        let s = BigUint::from_bytes_be(signature);
        let em = match self.raw(&s) {
            Ok(v) => v.to_bytes_be_padded(self.modulus_len()),
            Err(_) => return false,
        };
        match pkcs1_sign_encode(alg, message, self.modulus_len()) {
            Ok(expected) => constant_time_eq(&em, &expected),
            Err(_) => false,
        }
    }

    /// Encrypts `plaintext` with PKCS#1 v1.5 type-2 padding.
    ///
    /// This is what an OPC UA client does with its secret nonce during an
    /// OpenSecureChannel handshake on an encrypting policy.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        plaintext: &[u8],
    ) -> Result<Vec<u8>, RsaError> {
        let k = self.modulus_len();
        if plaintext.len() + 11 > k {
            return Err(RsaError::MessageTooLong);
        }
        let mut em = Vec::with_capacity(k);
        em.push(0x00);
        em.push(0x02);
        for _ in 0..(k - plaintext.len() - 3) {
            // Nonzero random padding bytes.
            loop {
                let b: u8 = rng.gen();
                if b != 0 {
                    em.push(b);
                    break;
                }
            }
        }
        em.push(0x00);
        em.extend_from_slice(plaintext);
        let m = BigUint::from_bytes_be(&em);
        Ok(self.raw(&m)?.to_bytes_be_padded(k))
    }

    /// Maximum plaintext bytes per encrypted block.
    pub fn max_plaintext_len(&self) -> usize {
        self.modulus_len().saturating_sub(11)
    }
}

/// An RSA private key (with public half and prime factors).
#[derive(Debug, Clone)]
pub struct RsaPrivateKey {
    /// The public half.
    pub public: RsaPublicKey,
    /// Prime factor `p` (kept for the shared-prime experiment and tests).
    pub p: BigUint,
    /// Prime factor `q`.
    pub q: BigUint,
    /// Private exponent `d = e^-1 mod lcm(p-1, q-1)`.
    pub d: BigUint,
}

impl RsaPrivateKey {
    /// Heap bytes the key owns beyond its own struct: the limbs of its
    /// public half, its primes and its private exponent, from their
    /// lengths.
    pub fn heap_bytes(&self) -> usize {
        self.public.heap_bytes() + self.p.heap_bytes() + self.q.heap_bytes() + self.d.heap_bytes()
    }

    /// Generates a key with an actual modulus of `actual_bits` and an
    /// advertised length of `nominal_bits` (see module docs).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, actual_bits: usize, nominal_bits: u32) -> Self {
        assert!(actual_bits >= 64, "modulus too small");
        let half = actual_bits / 2;
        loop {
            let p = generate_prime(rng, half);
            let q = generate_prime(rng, actual_bits - half);
            if p == q {
                continue;
            }
            if let Some(key) = Self::from_primes(p, q, nominal_bits) {
                return key;
            }
        }
    }

    /// Generates a key reusing a known prime `shared_p`. The population
    /// plants weak key pairs this way (its shared-prime hosts), so that
    /// the batch-GCD check the paper ran, and found nothing with, has
    /// something to find; tests use it the same way.
    pub fn generate_with_shared_prime<R: Rng + ?Sized>(
        rng: &mut R,
        shared_p: &BigUint,
        other_bits: usize,
        nominal_bits: u32,
    ) -> Self {
        loop {
            let q = generate_prime(rng, other_bits);
            if &q == shared_p {
                continue;
            }
            if let Some(key) = Self::from_primes(shared_p.clone(), q, nominal_bits) {
                return key;
            }
        }
    }

    /// Assembles a key from two primes; `None` if `e` is not invertible.
    pub fn from_primes(p: BigUint, q: BigUint, nominal_bits: u32) -> Option<Self> {
        let one = BigUint::one();
        let n = p.mul(&q);
        let p1 = p.sub(&one);
        let q1 = q.sub(&one);
        // λ(n) = lcm(p-1, q-1) = (p-1)(q-1)/gcd(p-1, q-1)
        let g = p1.gcd(&q1);
        let lambda = p1.mul(&q1).div_rem(&g).0;
        let e = BigUint::from_u64(65537);
        let d = e.mod_inverse(&lambda)?;
        Some(RsaPrivateKey {
            public: RsaPublicKey { n, e, nominal_bits },
            p,
            q,
            d,
        })
    }

    /// Raw RSA private operation `c^d mod n`.
    pub fn raw(&self, c: &BigUint) -> Result<BigUint, RsaError> {
        if c >= &self.public.n {
            return Err(RsaError::ValueOutOfRange);
        }
        Ok(c.mod_pow(&self.d, &self.public.n))
    }

    /// Signs `message` (hashed with `alg`) with PKCS#1 v1.5-style padding.
    pub fn sign(&self, alg: HashAlgorithm, message: &[u8]) -> Vec<u8> {
        let k = self.public.modulus_len();
        // ua-lint: allow(panic-hygiene) -- generated keys are always wide enough for a digest block
        let em = pkcs1_sign_encode(alg, message, k).expect("modulus large enough for digest");
        let m = BigUint::from_bytes_be(&em);
        self.raw(&m)
            // ua-lint: allow(panic-hygiene) -- the encoded block is k bytes with a zero top byte, below n
            .expect("encoded message below modulus")
            .to_bytes_be_padded(k)
    }

    /// Decrypts a PKCS#1 v1.5 type-2 ciphertext.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, RsaError> {
        let k = self.public.modulus_len();
        if ciphertext.len() != k {
            return Err(RsaError::ValueOutOfRange);
        }
        let c = BigUint::from_bytes_be(ciphertext);
        let em = self.raw(&c)?.to_bytes_be_padded(k);
        if em.len() < 11 || em[0] != 0x00 || em[1] != 0x02 {
            return Err(RsaError::BadPadding);
        }
        let sep = em[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(RsaError::BadPadding)?;
        if sep < 8 {
            return Err(RsaError::BadPadding); // at least 8 padding bytes
        }
        Ok(em[2 + sep + 1..].to_vec())
    }
}

/// Algorithm identifier bytes embedded in the signature encoding (a compact
/// stand-in for the DER `DigestInfo` prefix).
fn alg_id(alg: HashAlgorithm) -> [u8; 2] {
    match alg {
        HashAlgorithm::Md5 => [0x30, 0x05],
        HashAlgorithm::Sha1 => [0x30, 0x21],
        HashAlgorithm::Sha256 => [0x30, 0x31],
    }
}

/// Builds the padded encoded message for signing:
/// `0x00 0x01 FF.. 0x00 alg-id digest`.
///
/// If the modulus is too small for the full digest (scaled-down simulation
/// keys only), the digest is truncated; a minimum of 8 digest bytes and 8
/// padding bytes is enforced.
fn pkcs1_sign_encode(alg: HashAlgorithm, message: &[u8], k: usize) -> Result<Vec<u8>, RsaError> {
    let digest = alg.digest(message);
    let id = alg_id(alg);
    // 3 framing bytes + 2 alg-id + >=8 padding.
    let room = k
        .checked_sub(3 + id.len() + 8)
        .ok_or(RsaError::MessageTooLong)?;
    let dlen = digest.len().min(room);
    if dlen < 8 {
        return Err(RsaError::MessageTooLong);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.extend(std::iter::repeat_n(0xff, k - dlen - id.len() - 3));
    em.push(0x00);
    em.extend_from_slice(&id);
    em.extend_from_slice(&digest[..dlen]);
    debug_assert_eq!(em.len(), k);
    Ok(em)
}

fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key(bits: usize) -> RsaPrivateKey {
        let mut rng = StdRng::seed_from_u64(bits as u64);
        RsaPrivateKey::generate(&mut rng, bits, 2048)
    }

    #[test]
    fn keygen_produces_valid_key() {
        let k = key(256);
        assert_eq!(k.public.n, k.p.mul(&k.q));
        assert_eq!(k.public.nominal_bits, 2048);
        assert!(k.public.n.bit_length() >= 255);
        // e*d = 1 mod lambda — verified indirectly by a raw roundtrip.
        let m = BigUint::from_u64(0x1234_5678);
        let c = k.public.raw(&m).unwrap();
        assert_eq!(k.raw(&c).unwrap(), m);
    }

    #[test]
    fn sign_verify_roundtrip_all_algs() {
        let k = key(256);
        for alg in [
            HashAlgorithm::Md5,
            HashAlgorithm::Sha1,
            HashAlgorithm::Sha256,
        ] {
            let sig = k.sign(alg, b"easing the conscience");
            assert!(k.public.verify(alg, b"easing the conscience", &sig));
            assert!(!k.public.verify(alg, b"easing the conscienze", &sig));
        }
    }

    #[test]
    fn full_size_key_no_truncation() {
        // A 512-bit actual key holds a full SHA-256 DigestInfo; exercise the
        // untruncated path that real-world keys would take.
        let k = key(512);
        let sig = k.sign(HashAlgorithm::Sha256, b"full size");
        assert_eq!(sig.len(), k.public.modulus_len());
        assert!(k.public.verify(HashAlgorithm::Sha256, b"full size", &sig));
    }

    #[test]
    fn wrong_key_rejects_signature() {
        let k1 = key(256);
        let mut rng = StdRng::seed_from_u64(777);
        let k2 = RsaPrivateKey::generate(&mut rng, 256, 2048);
        let sig = k1.sign(HashAlgorithm::Sha256, b"msg");
        assert!(!k2.public.verify(HashAlgorithm::Sha256, b"msg", &sig));
    }

    #[test]
    fn wrong_alg_rejects_signature() {
        let k = key(256);
        let sig = k.sign(HashAlgorithm::Sha1, b"msg");
        assert!(!k.public.verify(HashAlgorithm::Sha256, b"msg", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let k = key(256);
        let mut sig = k.sign(HashAlgorithm::Sha256, b"msg");
        sig[0] ^= 0x80;
        assert!(!k.public.verify(HashAlgorithm::Sha256, b"msg", &sig));
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let k = key(256);
        let mut rng = StdRng::seed_from_u64(42);
        let msg = b"nonce1234";
        let ct = k.public.encrypt(&mut rng, msg).unwrap();
        assert_eq!(ct.len(), k.public.modulus_len());
        assert_eq!(k.decrypt(&ct).unwrap(), msg);
    }

    #[test]
    fn encrypt_too_long_fails() {
        let k = key(256);
        let mut rng = StdRng::seed_from_u64(42);
        let msg = vec![7u8; k.public.max_plaintext_len() + 1];
        assert_eq!(
            k.public.encrypt(&mut rng, &msg),
            Err(RsaError::MessageTooLong)
        );
    }

    #[test]
    fn decrypt_garbage_fails() {
        let k = key(256);
        let garbage = vec![0xabu8; k.public.modulus_len()];
        assert!(k.decrypt(&garbage).is_err());
        assert_eq!(k.decrypt(&[1, 2, 3]), Err(RsaError::ValueOutOfRange));
    }

    #[test]
    fn shared_prime_keys_share_gcd() {
        let mut rng = StdRng::seed_from_u64(55);
        let k1 = RsaPrivateKey::generate(&mut rng, 256, 1024);
        let k2 = RsaPrivateKey::generate_with_shared_prime(&mut rng, &k1.p, 128, 1024);
        let g = k1.public.n.gcd(&k2.public.n);
        assert_eq!(g, k1.p);
    }

    #[test]
    fn independent_keys_are_coprime() {
        let mut rng = StdRng::seed_from_u64(56);
        let k1 = RsaPrivateKey::generate(&mut rng, 192, 1024);
        let k2 = RsaPrivateKey::generate(&mut rng, 192, 1024);
        assert!(k1.public.n.gcd(&k2.public.n).is_one());
    }

    #[test]
    fn raw_out_of_range_rejected() {
        let k = key(256);
        let too_big = k.public.n.add(&BigUint::one());
        assert_eq!(k.public.raw(&too_big), Err(RsaError::ValueOutOfRange));
        assert_eq!(k.raw(&too_big), Err(RsaError::ValueOutOfRange));
    }
}
