//! # ua-crypto
//!
//! Cryptographic substrate for the OPC UA measurement study reproduction.
//!
//! The paper ("Easing the Conscience with OPC UA", IMC 2020) assesses the
//! *cryptographic configuration* of Internet-facing OPC UA servers:
//! signature hash functions, key lengths, certificate reuse, and shared
//! prime factors. Reproducing that requires a real (if scaled-down) crypto
//! stack, implemented here from scratch:
//!
//! * [`bigint`] — arbitrary-precision unsigned integers: Karatsuba
//!   multiplication above [`bigint::KARATSUBA_THRESHOLD`] and
//!   [`Montgomery`]-form sliding-window exponentiation for odd moduli,
//!   on stack arrays up to four limbs; both Montgomery kernels square
//!   through their multiply (the legacy division-per-step path stays
//!   available as [`BigUint::mod_pow_legacy`] for even moduli and as
//!   the randomized tests' reference);
//! * [`prime`] — Miller–Rabin primality testing and prime generation,
//!   with trial division on `u64` residues and one Montgomery context per
//!   candidate;
//! * [`rsa`] — RSA keys, PKCS#1-style signatures, and encryption
//!   (verification rides the Montgomery `mod_pow` path);
//! * [`hash`] — MD5 / SHA-1 / SHA-256, HMAC, and the OPC UA `P_SHA` KDF;
//! * [`der`] — a minimal DER-style TLV codec;
//! * [`x509`] — X.509-like application-instance certificates, plus the
//!   campaign-wide [`CertStore`] interner: a certificate served by N
//!   hosts is parsed/thumbprinted/identity-checked once, not N times;
//! * [`batch_gcd`](mod@batch_gcd) — pairwise and product-tree shared-prime detection
//!   (Heninger et al.), used for the §5.3 weak-key analysis; the product
//!   tree runs on the Karatsuba kernel, the remainder tree descends over
//!   sibling products, and the input is the deduplicated moduli.
//!
//! ## Security note
//!
//! This crate exists to *study* insecure configurations; MD5/SHA-1 and
//! PKCS#1 v1.5 are implemented deliberately, and key sizes are scaled for
//! simulation throughput. Do not use it to secure anything.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod batch_gcd;
pub mod bigint;
pub mod der;
pub mod hash;
pub mod prime;
pub mod rsa;
pub mod x509;

pub use aes::{cbc_decrypt, cbc_encrypt, Aes, AesError};
pub use batch_gcd::{batch_gcd, find_shared_factors, pairwise_shared_factors, SharedFactor};
pub use bigint::{BigUint, Montgomery};
pub use hash::{hmac, md5, p_sha, sha1, sha256, HashAlgorithm};
pub use prime::{generate_prime, is_probable_prime};
pub use rsa::{RsaError, RsaPrivateKey, RsaPublicKey};
pub use x509::{
    CertStore, CertStoreStats, Certificate, CertificateBuilder, DistinguishedName, ParsedCert,
    TbsCertificate, Thumbprint,
};
