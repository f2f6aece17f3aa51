//! # ua-proto
//!
//! The OPC UA binary protocol (OPC 10000-6): transport framing, service
//! messages, secure-channel cryptography, and chunking.
//!
//! * [`transport`] — UACP `HEL`/`ACK`/`ERR`/`RHE` messages, headers,
//!   incremental framing;
//! * [`services`] — typed service requests/responses (GetEndpoints,
//!   OpenSecureChannel, sessions, Browse, Read, Write, Call) and the
//!   [`services::ServiceBody`] dispatcher;
//! * [`secure`] — asymmetric (`OPN`, RSA) and symmetric (`MSG`,
//!   HMAC + AES-CBC) chunk protection with `P_SHA` key derivation;
//! * [`chunk`] — [`SecureChannel`], one end of an established channel
//!   and the one implementation of its rules for client and server:
//!   key direction, sequence numbers, chunking and bounded reassembly;
//! * [`uatls`] — the `uat-tls` prologue framing (TLS-wrapped opc.tcp,
//!   after "Missed Opportunities");
//! * [`fingerprint`] — the vendor error-taxonomy quirk table the
//!   fingerprint probe recovers.
//!
//! The crate is transport-agnostic: it turns byte slices into messages
//! and back. `ua-server` and `ua-client` drive it over `netsim` streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod fingerprint;
pub mod secure;
pub mod services;
pub mod transport;
pub mod uatls;

pub use chunk::{AssembledMessage, OpenError, ReassemblyError, SecureChannel};
pub use secure::{
    hash_for, open_asymmetric, policy_crypto, seal_asymmetric, AsymmetricSecurityHeader,
    OpenedAsymmetric, OpenedChunk, PolicyCrypto, SecureError, SequenceHeader,
};
pub use services::ServiceBody;
pub use transport::{
    Acknowledge, ChunkKind, ErrorMessage, FrameReader, Hello, MessageHeader, MessageType,
    ReverseHello, TransportMessage, HEADER_SIZE, MAX_MESSAGE_SIZE,
};
