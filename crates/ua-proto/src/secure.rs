//! Secure-channel message security (OPC 10000-6 §6).
//!
//! Two flavours exist on the wire:
//!
//! * **Asymmetric** (`OPN` chunks): RSA. The sender signs with its private
//!   key and encrypts with the receiver's public key. The security header
//!   carries the policy URI, the sender certificate, and the receiver
//!   certificate thumbprint — this is where the paper's scanner presents
//!   its self-signed certificate (§4) and where servers that reject
//!   foreign certificates abort (the "Secure Channel" rejections of
//!   Table 2).
//! * **Symmetric** (`MSG`/`CLO` chunks): HMAC + AES-CBC with keys derived
//!   from the exchanged nonces via `P_SHA`. Only
//!   [`crate::chunk::SecureChannel`] derives these keys and seals or
//!   opens these chunks.
//!
//! Deviation from the spec: padding for encrypted chunks uses the cipher layer's PKCS#7 instead of OPC UA's explicit
//! `PaddingSize` scheme. The byte layout is otherwise faithful.

use ua_crypto::{cbc_decrypt, cbc_encrypt, hmac, p_sha, Certificate, HashAlgorithm, RsaPrivateKey};
use ua_types::{
    CodecError, Decoder, Encoder, MessageSecurityMode, PolicyHash, SecurityPolicy, UaDecode,
    UaEncode,
};

use crate::transport::{ChunkKind, MessageHeader, MessageType, HEADER_SIZE};

/// Errors from securing or opening chunks.
#[derive(Debug, Clone, PartialEq)]
pub enum SecureError {
    /// Binary-codec failure.
    Codec(CodecError),
    /// Message signature did not verify.
    BadSignature,
    /// Decryption failed (wrong key or corrupt data).
    DecryptFailed,
    /// The channel lacks key material for the requested operation.
    MissingKeys,
    /// The message uses a different policy than the channel.
    PolicyMismatch,
    /// Nonce has the wrong length for the policy.
    BadNonce,
    /// The peer certificate is required but absent.
    MissingCertificate,
}

impl From<CodecError> for SecureError {
    fn from(e: CodecError) -> Self {
        SecureError::Codec(e)
    }
}

impl std::fmt::Display for SecureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SecureError::Codec(e) => write!(f, "codec error: {e}"),
            SecureError::BadSignature => write!(f, "message signature invalid"),
            SecureError::DecryptFailed => write!(f, "decryption failed"),
            SecureError::MissingKeys => write!(f, "channel has no key material"),
            SecureError::PolicyMismatch => write!(f, "security policy mismatch"),
            SecureError::BadNonce => write!(f, "bad nonce length"),
            SecureError::MissingCertificate => write!(f, "peer certificate missing"),
        }
    }
}

impl std::error::Error for SecureError {}

/// Per-policy symmetric crypto parameters (Part 6 §6.6 profiles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyCrypto {
    /// Hash used for P_SHA key derivation and HMAC signing.
    pub kdf_hash: HashAlgorithm,
    /// Symmetric signing key length (bytes).
    pub sig_key_len: usize,
    /// Symmetric encryption key length (bytes; 16 = AES-128, 32 = AES-256).
    pub enc_key_len: usize,
    /// Initialization vector length.
    pub iv_len: usize,
    /// Nonce length each side must contribute.
    pub nonce_len: usize,
}

/// Returns the crypto parameters of `policy`, `None` for the `None`
/// policy.
pub fn policy_crypto(policy: SecurityPolicy) -> Option<PolicyCrypto> {
    match policy {
        SecurityPolicy::None => None,
        SecurityPolicy::Basic128Rsa15 => Some(PolicyCrypto {
            kdf_hash: HashAlgorithm::Sha1,
            sig_key_len: 16,
            enc_key_len: 16,
            iv_len: 16,
            nonce_len: 16,
        }),
        SecurityPolicy::Basic256 => Some(PolicyCrypto {
            kdf_hash: HashAlgorithm::Sha1,
            sig_key_len: 24,
            enc_key_len: 32,
            iv_len: 16,
            nonce_len: 32,
        }),
        SecurityPolicy::Aes128Sha256RsaOaep => Some(PolicyCrypto {
            kdf_hash: HashAlgorithm::Sha256,
            sig_key_len: 32,
            enc_key_len: 16,
            iv_len: 16,
            nonce_len: 32,
        }),
        SecurityPolicy::Basic256Sha256 => Some(PolicyCrypto {
            kdf_hash: HashAlgorithm::Sha256,
            sig_key_len: 32,
            enc_key_len: 32,
            iv_len: 16,
            nonce_len: 32,
        }),
        SecurityPolicy::Aes256Sha256RsaPss => Some(PolicyCrypto {
            kdf_hash: HashAlgorithm::Sha256,
            sig_key_len: 32,
            enc_key_len: 32,
            iv_len: 16,
            nonce_len: 32,
        }),
    }
}

/// Maps policy-level hash names to concrete algorithms.
pub fn hash_for(policy_hash: PolicyHash) -> HashAlgorithm {
    match policy_hash {
        PolicyHash::Md5 => HashAlgorithm::Md5,
        PolicyHash::Sha1 => HashAlgorithm::Sha1,
        PolicyHash::Sha256 => HashAlgorithm::Sha256,
    }
}

/// One side's symmetric key set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DerivedKeys {
    /// HMAC signing key.
    pub signing: Vec<u8>,
    /// AES encryption key.
    pub encryption: Vec<u8>,
    /// CBC initialization vector.
    pub iv: Vec<u8>,
}

/// Derives one side's keys per Part 6 §6.7.5: the *remote* nonce is the
/// P_SHA secret and the *local* nonce the seed for keys protecting
/// locally-sent messages.
pub(crate) fn derive_keys(
    policy: SecurityPolicy,
    secret: &[u8],
    seed: &[u8],
) -> Option<DerivedKeys> {
    let params = policy_crypto(policy)?;
    let total = params.sig_key_len + params.enc_key_len + params.iv_len;
    let material = p_sha(params.kdf_hash, secret, seed, total);
    let (sig, rest) = material.split_at(params.sig_key_len);
    let (enc, iv) = rest.split_at(params.enc_key_len);
    Some(DerivedKeys {
        signing: sig.to_vec(),
        encryption: enc.to_vec(),
        iv: iv.to_vec(),
    })
}

/// The sequence header preceding every chunk body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SequenceHeader {
    /// Monotonically increasing per-channel sequence number.
    pub sequence_number: u32,
    /// Correlates chunks of one request/response.
    pub request_id: u32,
}

impl UaEncode for SequenceHeader {
    fn encode(&self, w: &mut Encoder) {
        w.u32(self.sequence_number);
        w.u32(self.request_id);
    }
}

impl UaDecode for SequenceHeader {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(SequenceHeader {
            sequence_number: r.u32()?,
            request_id: r.u32()?,
        })
    }
}

/// Asymmetric security header of `OPN` chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct AsymmetricSecurityHeader {
    /// Security policy URI.
    pub security_policy_uri: String,
    /// Sender certificate (serialized), absent for policy None.
    pub sender_certificate: Option<Vec<u8>>,
    /// SHA-1 thumbprint of the receiver certificate, absent for None.
    pub receiver_certificate_thumbprint: Option<Vec<u8>>,
}

impl UaEncode for AsymmetricSecurityHeader {
    fn encode(&self, w: &mut Encoder) {
        w.string(Some(&self.security_policy_uri));
        w.byte_string(self.sender_certificate.as_deref());
        w.byte_string(self.receiver_certificate_thumbprint.as_deref());
    }
}

impl UaDecode for AsymmetricSecurityHeader {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(AsymmetricSecurityHeader {
            security_policy_uri: r
                .string()?
                .ok_or(CodecError::Invalid("null security policy URI"))?,
            sender_certificate: r.byte_string()?,
            receiver_certificate_thumbprint: r.byte_string()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Symmetric (MSG/CLO) chunks
// ---------------------------------------------------------------------------

/// Builds a secured `MSG`/`CLO` chunk.
///
/// Layout: `header(8) | channel_id(4) | token_id(4) | seq(8) | body`
/// with HMAC appended (Sign/SignAndEncrypt) and `seq..` encrypted
/// (SignAndEncrypt).
#[allow(clippy::too_many_arguments)]
pub(crate) fn seal_symmetric(
    policy: SecurityPolicy,
    mode: MessageSecurityMode,
    keys: Option<&DerivedKeys>,
    message_type: MessageType,
    chunk: ChunkKind,
    channel_id: u32,
    token_id: u32,
    seq: SequenceHeader,
    body: &[u8],
) -> Result<Vec<u8>, SecureError> {
    // The plaintext is seq || body; it is encoded directly into the
    // output frame (no staging buffer) and the header size patched in
    // afterwards — one allocation per sealed chunk for None/Sign.
    let write_frame = |w: &mut Encoder, total: usize| {
        MessageHeader {
            message_type,
            chunk,
            size: total as u32,
        }
        .encode(w);
        w.u32(channel_id);
        w.u32(token_id);
    };

    match mode {
        MessageSecurityMode::None | MessageSecurityMode::Invalid => {
            let total = HEADER_SIZE + 8 + 8 + body.len();
            let mut w = Encoder::with_capacity(total);
            write_frame(&mut w, total);
            seq.encode(&mut w);
            w.raw(body);
            Ok(w.finish())
        }
        MessageSecurityMode::Sign => {
            let keys = keys.ok_or(SecureError::MissingKeys)?;
            let params = policy_crypto(policy).ok_or(SecureError::PolicyMismatch)?;
            let sig_len = params.kdf_hash.digest_len();
            let total = HEADER_SIZE + 8 + 8 + body.len() + sig_len;
            let mut w = Encoder::with_capacity(total);
            write_frame(&mut w, total);
            seq.encode(&mut w);
            w.raw(body);
            let sig = hmac(params.kdf_hash, &keys.signing, w.as_bytes());
            w.raw(&sig);
            Ok(w.finish())
        }
        MessageSecurityMode::SignAndEncrypt => {
            let keys = keys.ok_or(SecureError::MissingKeys)?;
            let params = policy_crypto(policy).ok_or(SecureError::PolicyMismatch)?;
            let sig_len = params.kdf_hash.digest_len();
            let plain_len = 8 + body.len();
            // PKCS#7 pads to the next 16-byte boundary, always adding 1–16.
            let enc_len = ((plain_len + sig_len) / 16 + 1) * 16;
            let total = HEADER_SIZE + 8 + enc_len;
            let mut w = Encoder::with_capacity(HEADER_SIZE + 8 + plain_len.max(enc_len));
            write_frame(&mut w, total);
            seq.encode(&mut w);
            w.raw(body);
            let sig = hmac(params.kdf_hash, &keys.signing, w.as_bytes());

            let mut to_encrypt = Vec::with_capacity(plain_len + sig_len);
            to_encrypt.extend_from_slice(&w.as_bytes()[HEADER_SIZE + 8..]);
            to_encrypt.extend_from_slice(&sig);
            let ciphertext = cbc_encrypt(&keys.encryption, &keys.iv, &to_encrypt)
                .map_err(|_| SecureError::DecryptFailed)?;
            debug_assert_eq!(ciphertext.len(), enc_len);

            // Reuse the frame buffer for the encrypted output.
            w.reset();
            write_frame(&mut w, total);
            w.raw(&ciphertext);
            Ok(w.finish())
        }
    }
}

/// A verified, decrypted chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenedChunk {
    /// Message type (MSG/CLO/OPN).
    pub message_type: MessageType,
    /// Chunk continuation marker.
    pub chunk: ChunkKind,
    /// Secure channel id from the wire.
    pub channel_id: u32,
    /// Token id (symmetric) — zero for OPN chunks.
    pub token_id: u32,
    /// Sequence header.
    pub sequence: SequenceHeader,
    /// Decrypted service payload.
    pub body: Vec<u8>,
}

/// Verifies and decrypts a symmetric chunk produced by [`seal_symmetric`].
pub(crate) fn open_symmetric(
    policy: SecurityPolicy,
    mode: MessageSecurityMode,
    keys: Option<&DerivedKeys>,
    raw: &[u8],
) -> Result<OpenedChunk, SecureError> {
    let mut r = Decoder::new(raw);
    let header = MessageHeader::decode(&mut r)?;
    if header.size as usize != raw.len() {
        return Err(SecureError::Codec(CodecError::BadLength(
            header.size as i64,
        )));
    }
    let channel_id = r.u32()?;
    let token_id = r.u32()?;
    let rest = r.raw(r.remaining())?;

    let (plaintext, verify_sig): (Vec<u8>, bool) = match mode {
        MessageSecurityMode::None | MessageSecurityMode::Invalid => (rest.to_vec(), false),
        MessageSecurityMode::Sign => (rest.to_vec(), true),
        MessageSecurityMode::SignAndEncrypt => {
            let keys = keys.ok_or(SecureError::MissingKeys)?;
            let pt = cbc_decrypt(&keys.encryption, &keys.iv, rest)
                .map_err(|_| SecureError::DecryptFailed)?;
            (pt, true)
        }
    };

    let (content, signature) = if verify_sig {
        let params = policy_crypto(policy).ok_or(SecureError::PolicyMismatch)?;
        let sig_len = params.kdf_hash.digest_len();
        if plaintext.len() < sig_len + 8 {
            return Err(SecureError::Codec(CodecError::UnexpectedEof));
        }
        let (content, sig) = plaintext.split_at(plaintext.len() - sig_len);
        (content.to_vec(), Some(sig.to_vec()))
    } else {
        (plaintext, None)
    };

    if let Some(sig) = signature {
        let keys = keys.ok_or(SecureError::MissingKeys)?;
        let params = policy_crypto(policy).ok_or(SecureError::PolicyMismatch)?;
        // Reconstruct the signed bytes: header + ids + content.
        let mut signed = Encoder::new();
        header.encode(&mut signed);
        signed.u32(channel_id);
        signed.u32(token_id);
        signed.raw(&content);
        let expected = hmac(params.kdf_hash, &keys.signing, signed.as_bytes());
        if expected != sig {
            return Err(SecureError::BadSignature);
        }
    }

    let mut cr = Decoder::new(&content);
    let sequence = SequenceHeader::decode(&mut cr)?;
    let body = cr.raw(cr.remaining())?.to_vec();
    Ok(OpenedChunk {
        message_type: header.message_type,
        chunk: header.chunk,
        channel_id,
        token_id,
        sequence,
        body,
    })
}

// ---------------------------------------------------------------------------
// Asymmetric (OPN) chunks
// ---------------------------------------------------------------------------

/// Builds a secured `OPN` chunk.
///
/// For policies other than `None` the chunk is signed with
/// `sender_key` (hash per policy) and encrypted against
/// `receiver_cert`'s public key in PKCS#1 blocks.
#[allow(clippy::too_many_arguments)]
pub fn seal_asymmetric<R: rand::Rng + ?Sized>(
    rng: &mut R,
    policy: SecurityPolicy,
    sender_key: Option<&RsaPrivateKey>,
    sender_cert_der: Option<&[u8]>,
    receiver_cert: Option<&Certificate>,
    channel_id: u32,
    seq: SequenceHeader,
    body: &[u8],
) -> Result<Vec<u8>, SecureError> {
    let sec_header = AsymmetricSecurityHeader {
        security_policy_uri: policy.uri().to_string(),
        sender_certificate: sender_cert_der.map(<[u8]>::to_vec),
        receiver_certificate_thumbprint: receiver_cert.map(|c| c.thumbprint().to_vec()),
    };
    let mut sec_w = Encoder::new();
    sec_header.encode(&mut sec_w);
    let sec_bytes = sec_w.finish();

    let mut plain = Encoder::new();
    seq.encode(&mut plain);
    plain.raw(body);
    let plaintext = plain.finish();

    if policy == SecurityPolicy::None {
        let total = HEADER_SIZE + 4 + sec_bytes.len() + plaintext.len();
        let mut w = Encoder::new();
        MessageHeader {
            message_type: MessageType::Open,
            chunk: ChunkKind::Final,
            size: total as u32,
        }
        .encode(&mut w);
        w.u32(channel_id);
        w.raw(&sec_bytes);
        w.raw(&plaintext);
        return Ok(w.finish());
    }

    let sender_key = sender_key.ok_or(SecureError::MissingKeys)?;
    let receiver = receiver_cert.ok_or(SecureError::MissingCertificate)?;
    let sig_hash = hash_for(policy.signature_hash().ok_or(SecureError::PolicyMismatch)?);
    let sig_len = sender_key.public.modulus_len();
    let k = receiver.tbs.public_key.modulus_len();
    let block_plain = k - 11;
    let padded_len = plaintext.len() + sig_len;
    let blocks = padded_len.div_ceil(block_plain);
    let enc_len = blocks * k;
    let total = HEADER_SIZE + 4 + sec_bytes.len() + enc_len;

    // Sign over header + channel + security header + plaintext.
    let mut signed = Encoder::new();
    MessageHeader {
        message_type: MessageType::Open,
        chunk: ChunkKind::Final,
        size: total as u32,
    }
    .encode(&mut signed);
    signed.u32(channel_id);
    signed.raw(&sec_bytes);
    signed.raw(&plaintext);
    let signature = sender_key.sign(sig_hash, signed.as_bytes());
    debug_assert_eq!(signature.len(), sig_len);

    // Encrypt plaintext || signature in RSA blocks.
    let mut to_encrypt = plaintext;
    to_encrypt.extend_from_slice(&signature);
    let mut ciphertext = Vec::with_capacity(enc_len);
    for chunk in to_encrypt.chunks(block_plain) {
        let block = receiver
            .tbs
            .public_key
            .encrypt(rng, chunk)
            .map_err(|_| SecureError::DecryptFailed)?;
        ciphertext.extend_from_slice(&block);
    }
    debug_assert_eq!(ciphertext.len(), enc_len);

    let mut w = Encoder::new();
    MessageHeader {
        message_type: MessageType::Open,
        chunk: ChunkKind::Final,
        size: total as u32,
    }
    .encode(&mut w);
    w.u32(channel_id);
    w.raw(&sec_bytes);
    w.raw(&ciphertext);
    Ok(w.finish())
}

/// Result of opening an `OPN` chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenedAsymmetric {
    /// The verified chunk.
    pub opened: OpenedChunk,
    /// The asymmetric header (policy URI, sender certificate,
    /// receiver thumbprint).
    pub security_header: AsymmetricSecurityHeader,
    /// Parsed sender certificate, when present and parseable.
    pub sender_certificate: Option<Certificate>,
}

/// Verifies and decrypts an `OPN` chunk. `local_key` decrypts (required
/// unless the policy is None); the signature is checked against the
/// embedded sender certificate.
pub fn open_asymmetric(
    local_key: Option<&RsaPrivateKey>,
    raw: &[u8],
) -> Result<OpenedAsymmetric, SecureError> {
    let mut r = Decoder::new(raw);
    let header = MessageHeader::decode(&mut r)?;
    if header.size as usize != raw.len() {
        return Err(SecureError::Codec(CodecError::BadLength(
            header.size as i64,
        )));
    }
    let channel_id = r.u32()?;
    let sec_header = AsymmetricSecurityHeader::decode(&mut r)?;
    let policy = SecurityPolicy::from_uri(&sec_header.security_policy_uri)
        .ok_or(SecureError::PolicyMismatch)?;
    let rest = r.raw(r.remaining())?;

    if policy == SecurityPolicy::None {
        let mut cr = Decoder::new(rest);
        let sequence = SequenceHeader::decode(&mut cr)?;
        let body = cr.raw(cr.remaining())?.to_vec();
        return Ok(OpenedAsymmetric {
            opened: OpenedChunk {
                message_type: header.message_type,
                chunk: header.chunk,
                channel_id,
                token_id: 0,
                sequence,
                body,
            },
            security_header: sec_header,
            sender_certificate: None,
        });
    }

    let local_key = local_key.ok_or(SecureError::MissingKeys)?;
    let sender_cert_der = sec_header
        .sender_certificate
        .as_deref()
        .ok_or(SecureError::MissingCertificate)?;
    let sender_cert =
        Certificate::from_der(sender_cert_der).map_err(|_| SecureError::MissingCertificate)?;

    // Decrypt the RSA blocks.
    let k = local_key.public.modulus_len();
    if rest.is_empty() || rest.len() % k != 0 {
        return Err(SecureError::DecryptFailed);
    }
    let mut plaintext = Vec::with_capacity(rest.len());
    for block in rest.chunks(k) {
        let pt = local_key
            .decrypt(block)
            .map_err(|_| SecureError::DecryptFailed)?;
        plaintext.extend_from_slice(&pt);
    }

    // Split off the signature (sender modulus length).
    let sig_len = sender_cert.tbs.public_key.modulus_len();
    if plaintext.len() < sig_len + 8 {
        return Err(SecureError::DecryptFailed);
    }
    let (content, signature) = plaintext.split_at(plaintext.len() - sig_len);

    // Verify against the reconstructed signed bytes.
    let sig_hash = hash_for(policy.signature_hash().ok_or(SecureError::PolicyMismatch)?);
    let mut sec_w = Encoder::new();
    sec_header.encode(&mut sec_w);
    let mut signed = Encoder::new();
    header.encode(&mut signed);
    signed.u32(channel_id);
    signed.raw(&sec_w.finish());
    signed.raw(content);
    if !sender_cert
        .tbs
        .public_key
        .verify(sig_hash, signed.as_bytes(), signature)
    {
        return Err(SecureError::BadSignature);
    }

    let mut cr = Decoder::new(content);
    let sequence = SequenceHeader::decode(&mut cr)?;
    let body = cr.raw(cr.remaining())?.to_vec();
    Ok(OpenedAsymmetric {
        opened: OpenedChunk {
            message_type: header.message_type,
            chunk: header.chunk,
            channel_id,
            token_id: 0,
            sequence,
            body,
        },
        security_header: sec_header,
        sender_certificate: Some(sender_cert),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ua_crypto::{CertificateBuilder, DistinguishedName};

    fn keypair(seed: u64) -> (RsaPrivateKey, Certificate) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = RsaPrivateKey::generate(&mut rng, 256, 2048);
        let cert = CertificateBuilder::new(DistinguishedName::new("peer", "Test"))
            .application_uri("urn:test:peer")
            .self_signed(HashAlgorithm::Sha256, &key);
        (key, cert)
    }

    fn seq() -> SequenceHeader {
        SequenceHeader {
            sequence_number: 1,
            request_id: 1,
        }
    }

    #[test]
    fn key_derivation_is_symmetric_and_policy_dependent() {
        let client_nonce = vec![1u8; 32];
        let server_nonce = vec![2u8; 32];
        let a = derive_keys(SecurityPolicy::Basic256Sha256, &server_nonce, &client_nonce).unwrap();
        let b = derive_keys(SecurityPolicy::Basic256Sha256, &server_nonce, &client_nonce).unwrap();
        assert_eq!(a, b);
        let c = derive_keys(SecurityPolicy::Basic256, &server_nonce, &client_nonce).unwrap();
        assert_ne!(a.signing, c.signing);
        assert_eq!(a.signing.len(), 32);
        assert_eq!(c.signing.len(), 24);
        assert!(derive_keys(SecurityPolicy::None, &server_nonce, &client_nonce).is_none());
    }

    #[test]
    fn symmetric_none_roundtrip() {
        let raw = seal_symmetric(
            SecurityPolicy::None,
            MessageSecurityMode::None,
            None,
            MessageType::Msg,
            ChunkKind::Final,
            7,
            0,
            seq(),
            b"payload",
        )
        .unwrap();
        let opened =
            open_symmetric(SecurityPolicy::None, MessageSecurityMode::None, None, &raw).unwrap();
        assert_eq!(opened.body, b"payload");
        assert_eq!(opened.channel_id, 7);
        assert_eq!(opened.sequence, seq());
    }

    #[test]
    fn symmetric_sign_roundtrip_and_tamper() {
        let keys = derive_keys(SecurityPolicy::Basic256Sha256, &[1; 32], &[2; 32]).unwrap();
        let raw = seal_symmetric(
            SecurityPolicy::Basic256Sha256,
            MessageSecurityMode::Sign,
            Some(&keys),
            MessageType::Msg,
            ChunkKind::Final,
            7,
            3,
            seq(),
            b"signed payload",
        )
        .unwrap();
        let opened = open_symmetric(
            SecurityPolicy::Basic256Sha256,
            MessageSecurityMode::Sign,
            Some(&keys),
            &raw,
        )
        .unwrap();
        assert_eq!(opened.body, b"signed payload");
        assert_eq!(opened.token_id, 3);

        let mut tampered = raw.clone();
        let n = tampered.len();
        tampered[n - 25] ^= 0x01; // flip a payload byte
        assert_eq!(
            open_symmetric(
                SecurityPolicy::Basic256Sha256,
                MessageSecurityMode::Sign,
                Some(&keys),
                &tampered,
            )
            .unwrap_err(),
            SecureError::BadSignature
        );
    }

    #[test]
    fn symmetric_encrypt_roundtrip_and_confidentiality() {
        for policy in [
            SecurityPolicy::Basic128Rsa15,
            SecurityPolicy::Basic256,
            SecurityPolicy::Aes128Sha256RsaOaep,
            SecurityPolicy::Basic256Sha256,
            SecurityPolicy::Aes256Sha256RsaPss,
        ] {
            let keys = derive_keys(policy, &[3; 32], &[4; 32]).unwrap();
            let secret = b"rSetFillLevel=93.5";
            let raw = seal_symmetric(
                policy,
                MessageSecurityMode::SignAndEncrypt,
                Some(&keys),
                MessageType::Msg,
                ChunkKind::Final,
                1,
                1,
                seq(),
                secret,
            )
            .unwrap();
            // The plaintext must not be visible on the wire.
            assert!(
                !raw.windows(secret.len()).any(|w| w == secret),
                "policy {policy:?} leaked plaintext"
            );
            let opened = open_symmetric(
                policy,
                MessageSecurityMode::SignAndEncrypt,
                Some(&keys),
                &raw,
            )
            .unwrap();
            assert_eq!(opened.body, secret, "policy {policy:?}");
        }
    }

    #[test]
    fn symmetric_wrong_keys_fail() {
        let keys = derive_keys(SecurityPolicy::Basic256Sha256, &[1; 32], &[2; 32]).unwrap();
        let wrong = derive_keys(SecurityPolicy::Basic256Sha256, &[9; 32], &[2; 32]).unwrap();
        let raw = seal_symmetric(
            SecurityPolicy::Basic256Sha256,
            MessageSecurityMode::SignAndEncrypt,
            Some(&keys),
            MessageType::Msg,
            ChunkKind::Final,
            1,
            1,
            seq(),
            b"x",
        )
        .unwrap();
        assert!(open_symmetric(
            SecurityPolicy::Basic256Sha256,
            MessageSecurityMode::SignAndEncrypt,
            Some(&wrong),
            &raw,
        )
        .is_err());
    }

    #[test]
    fn missing_keys_error() {
        assert_eq!(
            seal_symmetric(
                SecurityPolicy::Basic256Sha256,
                MessageSecurityMode::Sign,
                None,
                MessageType::Msg,
                ChunkKind::Final,
                1,
                1,
                seq(),
                b"x",
            )
            .unwrap_err(),
            SecureError::MissingKeys
        );
    }

    #[test]
    fn asymmetric_none_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let raw = seal_asymmetric(
            &mut rng,
            SecurityPolicy::None,
            None,
            None,
            None,
            0,
            seq(),
            b"open request",
        )
        .unwrap();
        let opened = open_asymmetric(None, &raw).unwrap();
        assert_eq!(opened.opened.body, b"open request");
        assert_eq!(
            opened.security_header.security_policy_uri,
            SecurityPolicy::None.uri()
        );
        assert!(opened.sender_certificate.is_none());
    }

    #[test]
    fn asymmetric_secure_roundtrip() {
        let (client_key, client_cert) = keypair(10);
        let (server_key, server_cert) = keypair(11);
        let mut rng = StdRng::seed_from_u64(2);
        let body = b"open secure channel request with nonce";
        let raw = seal_asymmetric(
            &mut rng,
            SecurityPolicy::Basic256Sha256,
            Some(&client_key),
            Some(&client_cert.to_der()),
            Some(&server_cert),
            0,
            seq(),
            body,
        )
        .unwrap();
        assert!(!raw.windows(body.len()).any(|w| w == body.as_slice()));
        let opened = open_asymmetric(Some(&server_key), &raw).unwrap();
        assert_eq!(opened.opened.body, body);
        let sender = opened.sender_certificate.unwrap();
        assert_eq!(sender.thumbprint(), client_cert.thumbprint());
        assert_eq!(
            opened.security_header.receiver_certificate_thumbprint,
            Some(server_cert.thumbprint().to_vec())
        );
    }

    #[test]
    fn asymmetric_wrong_receiver_key_fails() {
        let (client_key, client_cert) = keypair(12);
        let (_, server_cert) = keypair(13);
        let (other_key, _) = keypair(14);
        let mut rng = StdRng::seed_from_u64(3);
        let raw = seal_asymmetric(
            &mut rng,
            SecurityPolicy::Basic256Sha256,
            Some(&client_key),
            Some(&client_cert.to_der()),
            Some(&server_cert),
            0,
            seq(),
            b"body",
        )
        .unwrap();
        assert!(open_asymmetric(Some(&other_key), &raw).is_err());
    }

    #[test]
    fn asymmetric_tampered_body_fails_signature() {
        let (client_key, client_cert) = keypair(15);
        let (server_key, server_cert) = keypair(16);
        let mut rng = StdRng::seed_from_u64(4);
        let mut raw = seal_asymmetric(
            &mut rng,
            SecurityPolicy::Basic128Rsa15,
            Some(&client_key),
            Some(&client_cert.to_der()),
            Some(&server_cert),
            0,
            seq(),
            b"body",
        )
        .unwrap();
        // Flip a bit inside the sender certificate field (signed region
        // on open, it changes the verification input).
        let pos = raw.len() / 2;
        raw[pos] ^= 0x40;
        assert!(open_asymmetric(Some(&server_key), &raw).is_err());
    }

    #[test]
    fn policy_crypto_parameters() {
        assert!(policy_crypto(SecurityPolicy::None).is_none());
        let p = policy_crypto(SecurityPolicy::Basic128Rsa15).unwrap();
        assert_eq!(p.kdf_hash, HashAlgorithm::Sha1);
        assert_eq!(p.enc_key_len, 16);
        let p = policy_crypto(SecurityPolicy::Aes256Sha256RsaPss).unwrap();
        assert_eq!(p.kdf_hash, HashAlgorithm::Sha256);
        assert_eq!(p.enc_key_len, 32);
    }
}
