//! X.509-like certificates for OPC UA application instances.
//!
//! OPC UA servers authenticate with X.509v3 certificates whose
//! `subjectAltName` carries the server's ApplicationURI. The paper's
//! analysis (§5.2–§5.5) revolves around certificate properties: signature
//! hash function, (nominal) key length, self- vs. CA-signed, validity
//! window (`NotBefore`), per-host reuse (by thumbprint), and shared prime
//! factors. This module models exactly those properties.
//!
//! ## Campaign-wide interning
//!
//! The paper found certificates massively *reused*: one certificate can
//! be served by 1,000+ hosts (§5.2). A scanner that re-parses and
//! re-hashes the same DER once per host does the same cryptographic work
//! N times over. [`CertStore`] interns certificates by their DER bytes:
//! the first sighting parses, thumbprints, and self-signature-checks the
//! certificate into an [`Arc<ParsedCert>`]; every later sighting is a
//! map hit handing out the same `Arc`. Because a [`ParsedCert`] is a
//! pure function of the DER, interning is order- and thread-insensitive
//! — the scanner's worker-count byte-identity guarantee survives it.

use crate::bigint::BigUint;
use crate::der::{tag, DerError, Reader, Writer};
use crate::hash::{sha1, to_hex, HashAlgorithm};
use crate::rsa::{RsaPrivateKey, RsaPublicKey};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A distinguished name, reduced to the fields the study inspects.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DistinguishedName {
    /// Common name (CN).
    pub common_name: String,
    /// Organization (O) — the paper identified a manufacturer through this
    /// field in a massively reused certificate (§5.3).
    pub organization: String,
    /// Country (C).
    pub country: String,
}

impl DistinguishedName {
    /// Creates a DN with the given common name and organization.
    pub fn new(common_name: impl Into<String>, organization: impl Into<String>) -> Self {
        DistinguishedName {
            common_name: common_name.into(),
            organization: organization.into(),
            country: String::new(),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.common_name.len() + self.organization.len() + self.country.len()
    }

    fn encode(&self, w: &mut Writer) {
        w.nested(tag::SEQUENCE, |w| {
            w.utf8(&self.common_name);
            w.utf8(&self.organization);
            w.utf8(&self.country);
        });
    }

    fn decode(r: &mut Reader) -> Result<Self, DerError> {
        let mut seq = r.nested(tag::SEQUENCE)?;
        let dn = DistinguishedName {
            common_name: seq.utf8()?.to_string(),
            organization: seq.utf8()?.to_string(),
            country: seq.utf8()?.to_string(),
        };
        seq.expect_end()?;
        Ok(dn)
    }
}

/// The to-be-signed portion of a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TbsCertificate {
    /// Serial number.
    pub serial: u64,
    /// Hash algorithm of the signature (duplicated into the outer
    /// certificate, as X.509 does).
    pub signature_hash: HashAlgorithm,
    /// Issuer DN.
    pub issuer: DistinguishedName,
    /// Start of validity (unix seconds). The paper's §5.5 analyses
    /// `NotBefore` against the 2017 SHA-1 policy deprecation.
    pub not_before: i64,
    /// End of validity (unix seconds).
    pub not_after: i64,
    /// Subject DN.
    pub subject: DistinguishedName,
    /// Subject public key.
    pub public_key: RsaPublicKey,
    /// ApplicationURI carried in subjectAltName (OPC UA Part 6 requires
    /// this to match the server's ApplicationDescription).
    pub application_uri: String,
    /// Optional DNS/host names in subjectAltName (these are the fields the
    /// dataset release blackens for anonymization).
    pub dns_names: Vec<String>,
    /// CA flag (basicConstraints).
    pub is_ca: bool,
}

impl TbsCertificate {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.nested(tag::SEQUENCE, |w| {
            w.integer_u64(self.serial);
            w.integer_u64(hash_alg_code(self.signature_hash));
            self.issuer.encode(w);
            w.nested(tag::SEQUENCE, |w| {
                w.time(self.not_before);
                w.time(self.not_after);
            });
            self.subject.encode(w);
            // SubjectPublicKeyInfo: nominal bits + modulus + exponent.
            w.nested(tag::SEQUENCE, |w| {
                w.integer_u64(self.public_key.nominal_bits as u64);
                w.integer_bytes(&self.public_key.n.to_bytes_be());
                w.integer_bytes(&self.public_key.e.to_bytes_be());
            });
            // Extensions.
            w.nested(tag::CONTEXT_0, |w| {
                w.boolean(self.is_ca);
                w.utf8(&self.application_uri);
                w.nested(tag::CONTEXT_1, |w| {
                    for name in &self.dns_names {
                        w.utf8(name);
                    }
                });
            });
        });
        w.finish()
    }

    fn decode(r: &mut Reader) -> Result<Self, DerError> {
        let mut seq = r.nested(tag::SEQUENCE)?;
        let serial = seq.integer_u64()?;
        let hash = code_hash_alg(seq.integer_u64()?)?;
        let issuer = DistinguishedName::decode(&mut seq)?;
        let mut validity = seq.nested(tag::SEQUENCE)?;
        let not_before = validity.time()?;
        let not_after = validity.time()?;
        validity.expect_end()?;
        let subject = DistinguishedName::decode(&mut seq)?;
        let mut spki = seq.nested(tag::SEQUENCE)?;
        let nominal_bits = spki.integer_u64()? as u32;
        let n = BigUint::from_bytes_be(spki.integer_bytes()?);
        let e = BigUint::from_bytes_be(spki.integer_bytes()?);
        spki.expect_end()?;
        let mut ext = seq.nested(tag::CONTEXT_0)?;
        let is_ca = ext.boolean()?;
        let application_uri = ext.utf8()?.to_string();
        let mut alt = ext.nested(tag::CONTEXT_1)?;
        let mut dns_names = Vec::new();
        while !alt.is_empty() {
            dns_names.push(alt.utf8()?.to_string());
        }
        ext.expect_end()?;
        seq.expect_end()?;
        Ok(TbsCertificate {
            serial,
            signature_hash: hash,
            issuer,
            not_before,
            not_after,
            subject,
            public_key: RsaPublicKey { n, e, nominal_bits },
            application_uri,
            dns_names,
            is_ca,
        })
    }
}

/// A `String`'s header (pointer, capacity, length), charged per DNS
/// name by [`Certificate::heap_bytes`].
const STRING_BYTES: usize = 24;

/// A signed certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The signed payload.
    pub tbs: TbsCertificate,
    /// RSA signature over the encoded TBS bytes.
    pub signature: Vec<u8>,
}

impl Certificate {
    /// Heap bytes the certificate owns beyond its own struct, from
    /// lengths: its names, key limbs, application URI, DNS names and
    /// signature.
    pub fn heap_bytes(&self) -> usize {
        let tbs = &self.tbs;
        tbs.issuer.heap_bytes()
            + tbs.subject.heap_bytes()
            + tbs.public_key.heap_bytes()
            + tbs.application_uri.len()
            + tbs
                .dns_names
                .iter()
                .map(|d| STRING_BYTES + d.len())
                .sum::<usize>()
            + self.signature.len()
    }

    /// Serializes the full certificate.
    pub fn to_der(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.nested(tag::SEQUENCE, |w| {
            let tbs = self.tbs.encode();
            w.tlv(tag::OCTET_STRING, &tbs);
            w.integer_u64(hash_alg_code(self.tbs.signature_hash));
            w.tlv(tag::BIT_STRING, &self.signature);
        });
        w.finish()
    }

    /// Parses a certificate from its serialized form.
    pub fn from_der(bytes: &[u8]) -> Result<Self, DerError> {
        let mut r = Reader::new(bytes);
        let mut seq = r.nested(tag::SEQUENCE)?;
        let tbs_raw = seq.expect(tag::OCTET_STRING)?;
        let mut tbs_reader = Reader::new(tbs_raw);
        let tbs = TbsCertificate::decode(&mut tbs_reader)?;
        tbs_reader.expect_end()?;
        let outer_alg = code_hash_alg(seq.integer_u64()?)?;
        if outer_alg != tbs.signature_hash {
            // X.509 requires inner and outer algorithms to agree.
            return Err(DerError::UnexpectedTag {
                expected: hash_alg_code(tbs.signature_hash) as u8,
                found: hash_alg_code(outer_alg) as u8,
            });
        }
        let signature = seq.expect(tag::BIT_STRING)?.to_vec();
        seq.expect_end()?;
        r.expect_end()?;
        Ok(Certificate { tbs, signature })
    }

    /// SHA-1 thumbprint of the serialized certificate — OPC UA identifies
    /// certificates by this value, and the paper clusters reused
    /// certificates by it (Figure 5).
    pub fn thumbprint(&self) -> [u8; 20] {
        sha1(&self.to_der())
    }

    /// Thumbprint as lowercase hex.
    pub fn thumbprint_hex(&self) -> String {
        to_hex(&self.thumbprint())
    }

    /// Verifies the signature with the given issuer key.
    pub fn verify_signature(&self, issuer_key: &RsaPublicKey) -> bool {
        issuer_key.verify(self.tbs.signature_hash, &self.tbs.encode(), &self.signature)
    }

    /// True if issuer equals subject and the embedded key verifies the
    /// signature (the paper found 99 % of OPC UA certs self-signed).
    pub fn is_self_signed(&self) -> bool {
        self.tbs.issuer == self.tbs.subject && self.verify_signature(&self.tbs.public_key)
    }

    /// True if `at_unix` falls in the validity window.
    pub fn is_valid_at(&self, at_unix: i64) -> bool {
        self.tbs.not_before <= at_unix && at_unix <= self.tbs.not_after
    }

    /// Advertised key length in bits (nominal; see `ua-crypto::rsa` docs).
    pub fn key_bits(&self) -> u32 {
        self.tbs.public_key.nominal_bits
    }

    /// Hash algorithm of the certificate signature.
    pub fn signature_hash(&self) -> HashAlgorithm {
        self.tbs.signature_hash
    }
}

/// Builds certificates for OPC UA applications.
#[derive(Debug, Clone)]
pub struct CertificateBuilder {
    serial: u64,
    subject: DistinguishedName,
    not_before: i64,
    not_after: i64,
    application_uri: String,
    dns_names: Vec<String>,
}

impl CertificateBuilder {
    /// Starts a builder for `subject`.
    pub fn new(subject: DistinguishedName) -> Self {
        CertificateBuilder {
            serial: 1,
            subject,
            not_before: 0,
            not_after: i64::MAX,
            application_uri: String::new(),
            dns_names: Vec::new(),
        }
    }

    /// Sets the serial number.
    pub fn serial(mut self, serial: u64) -> Self {
        self.serial = serial;
        self
    }

    /// Sets the validity window (unix seconds).
    pub fn validity(mut self, not_before: i64, not_after: i64) -> Self {
        self.not_before = not_before;
        self.not_after = not_after;
        self
    }

    /// Sets the ApplicationURI (subjectAltName URI).
    pub fn application_uri(mut self, uri: impl Into<String>) -> Self {
        self.application_uri = uri.into();
        self
    }

    /// Adds a DNS name to subjectAltName.
    pub fn dns_name(mut self, name: impl Into<String>) -> Self {
        self.dns_names.push(name.into());
        self
    }

    /// Self-signs with `key` using `hash`.
    pub fn self_signed(self, hash: HashAlgorithm, key: &RsaPrivateKey) -> Certificate {
        let issuer = self.subject.clone();
        self.signed_by(hash, issuer, key, &key.public)
    }

    /// Signs with an external issuer.
    pub fn issued_by(
        self,
        hash: HashAlgorithm,
        issuer: DistinguishedName,
        issuer_key: &RsaPrivateKey,
        subject_public: &RsaPublicKey,
    ) -> Certificate {
        self.signed_by(hash, issuer, issuer_key, subject_public)
    }

    fn signed_by(
        self,
        hash: HashAlgorithm,
        issuer: DistinguishedName,
        issuer_key: &RsaPrivateKey,
        subject_public: &RsaPublicKey,
    ) -> Certificate {
        let tbs = TbsCertificate {
            serial: self.serial,
            signature_hash: hash,
            issuer,
            not_before: self.not_before,
            not_after: self.not_after,
            subject: self.subject,
            public_key: subject_public.clone(),
            application_uri: self.application_uri,
            dns_names: self.dns_names,
            // Every certificate the simulation signs is an end entity.
            is_ca: false,
        };
        let signature = issuer_key.sign(hash, &tbs.encode());
        Certificate { tbs, signature }
    }
}

/// A certificate parsed, thumbprinted, and identity-checked exactly
/// once, shared by every host that serves the same DER bytes.
///
/// Precomputed at intern time:
///
/// * the SHA-1 thumbprint of the DER (what OPC UA identifies
///   certificates by, and what reuse clustering keys on);
/// * the parsed [`Certificate`] (or the parse error, for hosts serving
///   garbage where a certificate belongs);
/// * the self-signed verdict — an RSA verification, by far the most
///   expensive per-certificate step, now paid once per *distinct*
///   certificate instead of once per host.
pub struct ParsedCert {
    der: Vec<u8>,
    thumbprint: [u8; 20],
    parsed: Result<Certificate, DerError>,
    self_signed: bool,
}

impl ParsedCert {
    /// Parses and thumbprints `der`. Never fails: unparseable bytes
    /// yield a handle whose [`Self::certificate`] is `None` (the
    /// assessment treats those hosts as serving no usable certificate).
    pub fn parse(der: Vec<u8>) -> ParsedCert {
        let thumbprint = sha1(&der);
        let parsed = Certificate::from_der(&der);
        let self_signed = parsed.as_ref().map(Certificate::is_self_signed) == Ok(true);
        ParsedCert {
            der,
            thumbprint,
            parsed,
            self_signed,
        }
    }

    /// The raw DER bytes as delivered.
    pub fn der(&self) -> &[u8] {
        &self.der
    }

    /// SHA-1 thumbprint of the DER bytes.
    pub fn thumbprint(&self) -> [u8; 20] {
        self.thumbprint
    }

    /// Thumbprint as lowercase hex.
    pub fn thumbprint_hex(&self) -> String {
        to_hex(&self.thumbprint)
    }

    /// The parsed certificate, `None` when the DER did not parse.
    pub fn certificate(&self) -> Option<&Certificate> {
        self.parsed.as_ref().ok()
    }

    /// The parse error, `None` when the DER parsed cleanly.
    pub fn parse_error(&self) -> Option<&DerError> {
        self.parsed.as_ref().err()
    }

    /// The RSA modulus of the subject key, `None` for unparseable DER.
    pub fn modulus(&self) -> Option<&BigUint> {
        self.certificate().map(|c| &c.tbs.public_key.n)
    }

    /// Precomputed self-signed verdict (`false` for unparseable DER).
    pub fn is_self_signed(&self) -> bool {
        self.self_signed
    }
}

impl PartialEq for ParsedCert {
    fn eq(&self, other: &Self) -> bool {
        // Everything else is derived from the DER.
        self.der == other.der
    }
}

impl Eq for ParsedCert {}

impl std::hash::Hash for ParsedCert {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.der.hash(state);
    }
}

impl std::fmt::Debug for ParsedCert {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParsedCert")
            .field("thumbprint", &self.thumbprint_hex())
            .field("der_len", &self.der.len())
            .field("parsed", &self.parsed.is_ok())
            .field("self_signed", &self.self_signed)
            .finish()
    }
}

/// Observability counters of a [`CertStore`]: how many certificates
/// were sighted versus how many were actually distinct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CertStoreStats {
    /// Intern calls — one per certificate-bearing endpoint snapshot.
    pub sightings: u64,
    /// Distinct DER payloads behind those sightings.
    pub distinct: u64,
}

impl CertStoreStats {
    /// Share of sightings served from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.sightings == 0 {
            0.0
        } else {
            1.0 - self.distinct as f64 / self.sightings as f64
        }
    }
}

/// A SHA-1 certificate thumbprint, used as a first-class identity.
///
/// OPC UA identifies certificates by this value, and the longitudinal
/// study leans on it twice over: reused certificates cluster by
/// thumbprint within one campaign (§5.3), and *across* campaigns the
/// thumbprint is the cross-week host identity — a host that keeps its
/// certificate while DHCP hands it a new address is recognizably the
/// same deployment (§4.3's stable-key-despite-IP-churn matching).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Thumbprint(pub [u8; 20]);

impl Thumbprint {
    /// The thumbprint of serialized certificate bytes.
    pub fn of_der(der: &[u8]) -> Thumbprint {
        Thumbprint(sha1(der))
    }

    /// Lowercase hex rendering.
    pub fn to_hex(self) -> String {
        to_hex(&self.0)
    }
}

impl From<[u8; 20]> for Thumbprint {
    fn from(bytes: [u8; 20]) -> Self {
        Thumbprint(bytes)
    }
}

impl std::fmt::Display for Thumbprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl std::fmt::Debug for Thumbprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Thumbprint({})", self.to_hex())
    }
}

impl ParsedCert {
    /// The thumbprint as a typed identity (see [`Thumbprint`]).
    pub fn identity(&self) -> Thumbprint {
        Thumbprint(self.thumbprint)
    }
}

/// A campaign-wide certificate interner keyed by DER bytes.
///
/// Thread-safe behind a single mutex whose critical section is only a
/// map probe/insert — the expensive work (DER parse, thumbprint, RSA
/// self-signature check) runs *outside* the lock, so scanner shards
/// never stall behind each other's parses. Two shards racing on the
/// same fresh DER may both parse it; the first insert wins, and since
/// a [`ParsedCert`] is a pure function of the DER the loser's handle
/// is an equal value — determinism is unaffected.
#[derive(Debug, Default)]
pub struct CertStore {
    inner: Mutex<CertStoreInner>,
}

#[derive(Debug, Default)]
struct CertStoreInner {
    by_der: HashMap<Vec<u8>, Arc<ParsedCert>>,
    sightings: u64,
}

impl CertStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Single acquisition point for the store lock. Guard scopes are a
    /// map probe or insert; a poisoned store means a sibling probe
    /// worker panicked and the dedup counters can no longer be
    /// trusted — propagate.
    fn locked(&self) -> std::sync::MutexGuard<'_, CertStoreInner> {
        // ua-lint: allow(panic-hygiene) -- poisoned cert store: a worker panicked; propagate it
        self.inner.lock().expect("cert store poisoned")
    }

    /// Interns `der`: parses and hashes on first sighting, hands out the
    /// shared handle on every later one.
    pub fn intern(&self, der: &[u8]) -> Arc<ParsedCert> {
        {
            let mut inner = self.locked();
            inner.sightings += 1;
            if let Some(hit) = inner.by_der.get(der) {
                return Arc::clone(hit);
            }
        }
        // Miss: parse without holding the lock, then insert
        // first-wins.
        let parsed = Arc::new(ParsedCert::parse(der.to_vec()));
        let mut inner = self.locked();
        Arc::clone(inner.by_der.entry(der.to_vec()).or_insert(parsed))
    }

    /// Current sighting/distinct counters.
    pub fn stats(&self) -> CertStoreStats {
        let inner = self.locked();
        CertStoreStats {
            sightings: inner.sightings,
            distinct: inner.by_der.len() as u64,
        }
    }
}

fn hash_alg_code(alg: HashAlgorithm) -> u64 {
    match alg {
        HashAlgorithm::Md5 => 1,
        HashAlgorithm::Sha1 => 2,
        HashAlgorithm::Sha256 => 3,
    }
}

fn code_hash_alg(code: u64) -> Result<HashAlgorithm, DerError> {
    match code {
        1 => Ok(HashAlgorithm::Md5),
        2 => Ok(HashAlgorithm::Sha1),
        3 => Ok(HashAlgorithm::Sha256),
        _ => Err(DerError::BadLength),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::RsaPrivateKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_key(seed: u64) -> RsaPrivateKey {
        let mut rng = StdRng::seed_from_u64(seed);
        RsaPrivateKey::generate(&mut rng, 256, 2048)
    }

    fn sample_cert(key: &RsaPrivateKey, hash: HashAlgorithm) -> Certificate {
        CertificateBuilder::new(DistinguishedName::new("device-1", "Acme Automation"))
            .serial(42)
            .validity(1_483_228_800, 1_893_456_000) // 2017-01-01 .. 2030-01-01
            .application_uri("urn:acme:device-1")
            .dns_name("device-1.factory.example")
            .self_signed(hash, key)
    }

    #[test]
    fn der_roundtrip() {
        let key = test_key(1);
        let cert = sample_cert(&key, HashAlgorithm::Sha256);
        let der = cert.to_der();
        let parsed = Certificate::from_der(&der).unwrap();
        assert_eq!(parsed, cert);
        assert_eq!(parsed.tbs.subject.common_name, "device-1");
        assert_eq!(parsed.tbs.application_uri, "urn:acme:device-1");
        assert_eq!(parsed.key_bits(), 2048);
    }

    #[test]
    fn self_signed_verifies() {
        let key = test_key(2);
        let cert = sample_cert(&key, HashAlgorithm::Sha256);
        assert!(cert.is_self_signed());
        assert!(cert.verify_signature(&key.public));
    }

    #[test]
    fn ca_signed_verifies_with_issuer_only() {
        let ca_key = test_key(3);
        let dev_key = test_key(4);
        let cert = CertificateBuilder::new(DistinguishedName::new("dev", "Op"))
            .application_uri("urn:op:dev")
            .issued_by(
                HashAlgorithm::Sha256,
                DistinguishedName::new("Acme CA", "Acme"),
                &ca_key,
                &dev_key.public,
            );
        assert!(!cert.is_self_signed());
        assert!(cert.verify_signature(&ca_key.public));
        assert!(!cert.verify_signature(&dev_key.public));
    }

    #[test]
    fn thumbprint_is_stable_and_distinct() {
        let key = test_key(5);
        let c1 = sample_cert(&key, HashAlgorithm::Sha256);
        let c2 = sample_cert(&key, HashAlgorithm::Sha256);
        assert_eq!(c1.thumbprint(), c2.thumbprint());
        let c3 = sample_cert(&key, HashAlgorithm::Sha1);
        assert_ne!(c1.thumbprint(), c3.thumbprint());
        assert_eq!(c1.thumbprint_hex().len(), 40);
    }

    #[test]
    fn validity_window() {
        let key = test_key(6);
        let cert = sample_cert(&key, HashAlgorithm::Sha256);
        assert!(cert.is_valid_at(1_600_000_000)); // 2020
        assert!(!cert.is_valid_at(1_400_000_000)); // 2014
        assert!(!cert.is_valid_at(2_000_000_000)); // 2033
    }

    #[test]
    fn tampered_cert_fails_verification() {
        let key = test_key(7);
        let cert = sample_cert(&key, HashAlgorithm::Sha256);
        let mut tampered = cert.clone();
        tampered.tbs.subject.common_name = "evil".into();
        assert!(!tampered.verify_signature(&key.public));
    }

    #[test]
    fn sha1_and_md5_certs_encode_their_hash() {
        let key = test_key(8);
        for hash in [HashAlgorithm::Md5, HashAlgorithm::Sha1] {
            let cert = sample_cert(&key, hash);
            let parsed = Certificate::from_der(&cert.to_der()).unwrap();
            assert_eq!(parsed.signature_hash(), hash);
            assert!(parsed.is_self_signed());
        }
    }

    #[test]
    fn from_der_rejects_garbage() {
        assert!(Certificate::from_der(&[]).is_err());
        assert!(Certificate::from_der(&[0x30, 0x02, 0x01, 0x01]).is_err());
        let key = test_key(9);
        let mut der = sample_cert(&key, HashAlgorithm::Sha256).to_der();
        der.truncate(der.len() / 2);
        assert!(Certificate::from_der(&der).is_err());
    }

    #[test]
    fn cert_store_interns_by_der() {
        let key = test_key(11);
        let cert = sample_cert(&key, HashAlgorithm::Sha256);
        let der = cert.to_der();
        let other = sample_cert(&key, HashAlgorithm::Sha1).to_der();

        let store = CertStore::new();
        let a = store.intern(&der);
        let b = store.intern(&der);
        let c = store.intern(&other);
        assert!(Arc::ptr_eq(&a, &b), "same DER must share one handle");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.thumbprint(), cert.thumbprint());
        assert_eq!(a.certificate().unwrap(), &cert);
        assert!(a.is_self_signed());
        assert_eq!(a.modulus(), Some(&key.public.n));

        let stats = store.stats();
        assert_eq!(stats.sightings, 3);
        assert_eq!(stats.distinct, 2);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cert_store_survives_garbage() {
        let store = CertStore::new();
        let junk = store.intern(&[1, 2, 3]);
        assert!(junk.certificate().is_none());
        assert!(junk.parse_error().is_some());
        assert!(!junk.is_self_signed());
        assert_eq!(junk.modulus(), None);
        assert_eq!(junk.thumbprint(), sha1(&[1, 2, 3]));
        assert_eq!(store.stats().distinct, 1);
    }

    #[test]
    fn cert_store_is_deterministic_across_threads() {
        let key = test_key(12);
        let der = sample_cert(&key, HashAlgorithm::Sha256).to_der();
        let store = CertStore::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        assert_eq!(store.intern(&der).thumbprint(), sha1(&der));
                    }
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.sightings, 32);
        assert_eq!(stats.distinct, 1);
    }

    #[test]
    fn thumbprint_identity_round_trips() {
        let key = test_key(21);
        let cert = sample_cert(&key, HashAlgorithm::Sha256);
        let der = cert.to_der();
        let tp = Thumbprint::of_der(&der);
        assert_eq!(tp, Thumbprint::from(cert.thumbprint()));
        assert_eq!(tp.to_hex(), cert.thumbprint_hex());
        assert_eq!(format!("{tp}"), cert.thumbprint_hex());
        // The interned handle agrees — one identity, three spellings.
        let store = CertStore::new();
        assert_eq!(store.intern(&der).identity(), tp);
        // Distinct DER, distinct identity; identities order totally.
        let other = Thumbprint::of_der(b"other");
        assert_ne!(tp, other);
        assert!(tp < other || other < tp);
    }

    #[test]
    fn mismatched_inner_outer_alg_rejected() {
        let key = test_key(10);
        let cert = sample_cert(&key, HashAlgorithm::Sha256);
        // Manually rebuild the outer TLV with a different outer algorithm.
        let mut w = Writer::new();
        w.nested(tag::SEQUENCE, |w| {
            w.tlv(tag::OCTET_STRING, &cert.tbs.encode());
            w.integer_u64(hash_alg_code(HashAlgorithm::Sha1));
            w.tlv(tag::BIT_STRING, &cert.signature);
        });
        assert!(Certificate::from_der(&w.finish()).is_err());
    }
}
