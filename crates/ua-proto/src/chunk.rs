//! Secure channels: chunking and bounded reassembly (OPC 10000-6 §6.7).
//!
//! [`SecureChannel`] is one end of an established channel, and the only
//! code that seals or opens `MSG` chunks, for client and server alike.
//! Large service messages are split into chunks marked `C`
//! (intermediate) and `F` (final); `A` aborts an in-flight message. The
//! receiver reassembles bodies in sequence order under at most 4096
//! chunks and [`MAX_MESSAGE_SIZE`] bytes, the limits both ends announce
//! in `HEL`/`ACK`: unbounded reassembly is a classic
//! amplification hazard for a scanner parsing hostile servers.

use crate::secure::{
    derive_keys, open_symmetric, seal_symmetric, DerivedKeys, SecureError, SequenceHeader,
};
use crate::transport::{ChunkKind, MessageType, MAX_CHUNK_COUNT, MAX_MESSAGE_SIZE};
use ua_types::{MessageSecurityMode, SecurityPolicy};

/// Service payload bytes per sealed chunk.
const CHUNK_BODY: usize = 8192;

/// One end of an established secure channel: what both sides keep after
/// the `OPN` exchange.
///
/// It derives both key sets by one rule (Part 6 §6.7.5): the chunks an
/// end sends are protected by `P_SHA(secret = peer nonce, seed = own
/// nonce)`, the chunks it receives by the reverse. It seals a service
/// body into `MSG` chunks of 8 KiB on consecutive
/// sequence numbers, and opens the peer's chunks: verify, check the
/// channel id, reassemble. Sequence numbers start at 2, after the `OPN`
/// exchange's 1, so every `OPN` starts a fresh `SecureChannel`.
#[derive(Debug)]
pub struct SecureChannel {
    id: u32,
    token_id: u32,
    policy: SecurityPolicy,
    mode: MessageSecurityMode,
    /// Keys protecting the chunks this end sends.
    sending: Option<DerivedKeys>,
    /// Keys protecting the chunks the peer sends.
    receiving: Option<DerivedKeys>,
    next_sequence: u32,
    reassembler: Reassembler,
}

/// Why [`SecureChannel::open`] refused a chunk.
#[derive(Debug, Clone, PartialEq)]
pub enum OpenError {
    /// The chunk failed verification or decryption.
    Secure(SecureError),
    /// The chunk names another channel (the id it carried).
    WrongChannel(u32),
    /// Reassembly refused the chunk.
    Reassembly(ReassemblyError),
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Secure(e) => write!(f, "chunk security: {e}"),
            OpenError::WrongChannel(id) => write!(f, "chunk names channel {id}"),
            OpenError::Reassembly(e) => write!(f, "reassembly: {e}"),
        }
    }
}

impl std::error::Error for OpenError {}

impl SecureChannel {
    /// The end that contributed `own_nonce` to channel `id`. Without
    /// both nonces, or under policy `None`, it has no keys.
    pub fn new(
        id: u32,
        token_id: u32,
        policy: SecurityPolicy,
        mode: MessageSecurityMode,
        own_nonce: Option<&[u8]>,
        peer_nonce: Option<&[u8]>,
    ) -> Self {
        let (sending, receiving) = match (own_nonce, peer_nonce) {
            (Some(own), Some(peer)) => (
                derive_keys(policy, peer, own),
                derive_keys(policy, own, peer),
            ),
            _ => (None, None),
        };
        SecureChannel {
            id,
            token_id,
            policy,
            mode,
            sending,
            receiving,
            next_sequence: 2,
            reassembler: Reassembler::new(MAX_CHUNK_COUNT as usize, MAX_MESSAGE_SIZE as usize),
        }
    }

    /// The security policy.
    pub fn policy(&self) -> SecurityPolicy {
        self.policy
    }

    /// Seals `body` as the `MSG` chunks of request `request_id`, one per
    /// 8 KiB (an empty body is one empty final chunk).
    pub fn seal(&mut self, request_id: u32, body: &[u8]) -> Result<Vec<Vec<u8>>, SecureError> {
        let mut pieces: Vec<&[u8]> = body.chunks(CHUNK_BODY).collect();
        if pieces.is_empty() {
            pieces.push(&[]);
        }
        let last = pieces.len() - 1;
        let chunks = pieces
            .iter()
            .enumerate()
            .map(|(i, piece)| {
                let kind = if i == last {
                    ChunkKind::Final
                } else {
                    ChunkKind::Intermediate
                };
                let sequence = SequenceHeader {
                    sequence_number: self.next_sequence + i as u32,
                    request_id,
                };
                seal_symmetric(
                    self.policy,
                    self.mode,
                    self.sending.as_ref(),
                    MessageType::Msg,
                    kind,
                    self.id,
                    self.token_id,
                    sequence,
                    piece,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.next_sequence += chunks.len() as u32;
        Ok(chunks)
    }

    /// Opens one chunk from the peer: verifies (and decrypts) it, checks
    /// that it names this channel, and reassembles. Returns the message
    /// a final chunk completes.
    pub fn open(&mut self, chunk: &[u8]) -> Result<Option<AssembledMessage>, OpenError> {
        let opened = open_symmetric(self.policy, self.mode, self.receiving.as_ref(), chunk)
            .map_err(OpenError::Secure)?;
        if opened.channel_id != self.id {
            return Err(OpenError::WrongChannel(opened.channel_id));
        }
        self.reassembler
            .push(opened.chunk, opened.sequence, &opened.body)
            .map_err(OpenError::Reassembly)
    }
}

/// Errors from reassembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReassemblyError {
    /// Chunk sequence number was not the expected successor.
    OutOfOrder {
        /// Expected sequence number.
        expected: u32,
        /// Received sequence number.
        got: u32,
    },
    /// Chunk belongs to a different request than the in-flight one.
    RequestIdMismatch,
    /// More chunks than the negotiated maximum.
    TooManyChunks(usize),
    /// Reassembled size exceeds the negotiated maximum.
    MessageTooLarge(usize),
    /// The sender aborted the message.
    Aborted,
}

impl std::fmt::Display for ReassemblyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReassemblyError::OutOfOrder { expected, got } => {
                write!(f, "out-of-order chunk: expected seq {expected}, got {got}")
            }
            ReassemblyError::RequestIdMismatch => write!(f, "chunk request id mismatch"),
            ReassemblyError::TooManyChunks(n) => write!(f, "too many chunks ({n})"),
            ReassemblyError::MessageTooLarge(n) => write!(f, "message too large ({n} bytes)"),
            ReassemblyError::Aborted => write!(f, "message aborted by sender"),
        }
    }
}

impl std::error::Error for ReassemblyError {}

/// Reassembles chunk bodies into complete messages.
#[derive(Debug)]
pub(crate) struct Reassembler {
    max_chunks: usize,
    max_message_size: usize,
    in_flight: Option<InFlight>,
    next_sequence: Option<u32>,
}

#[derive(Debug)]
struct InFlight {
    request_id: u32,
    chunks: usize,
    body: Vec<u8>,
}

/// A fully reassembled message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssembledMessage {
    /// The request id all chunks shared.
    pub request_id: u32,
    /// The concatenated service payload.
    pub body: Vec<u8>,
}

impl Reassembler {
    /// Creates a reassembler with the negotiated limits.
    pub(crate) fn new(max_chunks: usize, max_message_size: usize) -> Self {
        Reassembler {
            max_chunks,
            max_message_size,
            in_flight: None,
            next_sequence: None,
        }
    }

    /// Feeds one verified chunk; returns a message when the final chunk
    /// arrives.
    pub(crate) fn push(
        &mut self,
        kind: ChunkKind,
        seq: SequenceHeader,
        body: &[u8],
    ) -> Result<Option<AssembledMessage>, ReassemblyError> {
        // Sequence continuity across the whole channel.
        if let Some(expected) = self.next_sequence {
            if seq.sequence_number != expected {
                return Err(ReassemblyError::OutOfOrder {
                    expected,
                    got: seq.sequence_number,
                });
            }
        }
        self.next_sequence = Some(seq.sequence_number.wrapping_add(1));

        if kind == ChunkKind::Abort {
            self.in_flight = None;
            return Err(ReassemblyError::Aborted);
        }

        let flight = match &mut self.in_flight {
            Some(flight) => {
                if flight.request_id != seq.request_id {
                    self.in_flight = None;
                    return Err(ReassemblyError::RequestIdMismatch);
                }
                flight
            }
            None => {
                self.in_flight = Some(InFlight {
                    request_id: seq.request_id,
                    chunks: 0,
                    body: Vec::new(),
                });
                // ua-lint: allow(panic-hygiene) -- in_flight was assigned Some on the previous line
                self.in_flight.as_mut().unwrap()
            }
        };

        flight.chunks += 1;
        if flight.chunks > self.max_chunks {
            let n = flight.chunks;
            self.in_flight = None;
            return Err(ReassemblyError::TooManyChunks(n));
        }
        flight.body.extend_from_slice(body);
        if flight.body.len() > self.max_message_size {
            let n = flight.body.len();
            self.in_flight = None;
            return Err(ReassemblyError::MessageTooLarge(n));
        }

        if kind == ChunkKind::Final {
            // ua-lint: allow(panic-hygiene) -- in_flight is Some: this fn either found it or created it above
            let flight = self.in_flight.take().unwrap();
            return Ok(Some(AssembledMessage {
                request_id: flight.request_id,
                body: flight.body,
            }));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: u32, req: u32) -> SequenceHeader {
        SequenceHeader {
            sequence_number: n,
            request_id: req,
        }
    }

    /// Both ends of a fresh channel `id`.
    fn ends(
        id: u32,
        policy: SecurityPolicy,
        mode: MessageSecurityMode,
    ) -> (SecureChannel, SecureChannel) {
        let (client_nonce, server_nonce) = if policy == SecurityPolicy::None {
            (None, None)
        } else {
            (Some(&[1u8; 32][..]), Some(&[2u8; 32][..]))
        };
        (
            SecureChannel::new(id, 1, policy, mode, client_nonce, server_nonce),
            SecureChannel::new(id, 1, policy, mode, server_nonce, client_nonce),
        )
    }

    /// Opens `chunks` in order, returning the message the last completes.
    fn open_all(end: &mut SecureChannel, chunks: &[Vec<u8>]) -> AssembledMessage {
        let (last, rest) = chunks.split_last().unwrap();
        for chunk in rest {
            assert_eq!(end.open(chunk).unwrap(), None);
        }
        end.open(last)
            .unwrap()
            .expect("final chunk completes message")
    }

    #[test]
    fn single_chunk_roundtrip() {
        let (mut client, mut server) = ends(1, SecurityPolicy::None, MessageSecurityMode::None);
        let chunks = client.seal(5, b"short").unwrap();
        assert_eq!(chunks.len(), 1);
        let opened = open_symmetric(
            SecurityPolicy::None,
            MessageSecurityMode::None,
            None,
            &chunks[0],
        )
        .unwrap();
        assert_eq!(opened.chunk, ChunkKind::Final);
        assert_eq!(opened.sequence, seq(2, 5));
        let msg = open_all(&mut server, &chunks);
        assert_eq!(msg.request_id, 5);
        assert_eq!(msg.body, b"short");
    }

    #[test]
    fn multi_chunk_roundtrip_through_reassembler() {
        let body: Vec<u8> = (0..3 * CHUNK_BODY + 1000).map(|i| i as u8).collect();
        let (mut client, mut server) = ends(1, SecurityPolicy::None, MessageSecurityMode::None);
        let chunks = client.seal(42, &body).unwrap();
        assert_eq!(chunks.len(), 4);
        let msg = open_all(&mut server, &chunks);
        assert_eq!(msg.request_id, 42);
        assert_eq!(msg.body, body);
        assert!(server.reassembler.in_flight.is_none());

        // The next message continues the sequence, in both directions.
        let more = client.seal(43, b"next").unwrap();
        let opened = open_symmetric(
            SecurityPolicy::None,
            MessageSecurityMode::None,
            None,
            &more[0],
        )
        .unwrap();
        assert_eq!(opened.sequence, seq(6, 43));
        assert_eq!(open_all(&mut server, &more).body, b"next");
        let reply = server.seal(43, b"reply").unwrap();
        assert_eq!(open_all(&mut client, &reply).body, b"reply");
    }

    #[test]
    fn empty_body_produces_one_final_chunk() {
        let (mut client, mut server) = ends(1, SecurityPolicy::None, MessageSecurityMode::None);
        let chunks = client.seal(1, b"").unwrap();
        assert_eq!(chunks.len(), 1);
        assert!(open_all(&mut server, &chunks).body.is_empty());
    }

    #[test]
    fn chunking_respects_secured_sizes() {
        // With signing, each chunk carries an HMAC; reassembly must still
        // produce the original body, in both directions.
        let body: Vec<u8> = (0..3 * CHUNK_BODY + 500).map(|i| (i % 251) as u8).collect();
        let (mut client, mut server) = ends(
            2,
            SecurityPolicy::Basic256Sha256,
            MessageSecurityMode::SignAndEncrypt,
        );
        let chunks = client.seal(7, &body).unwrap();
        assert_eq!(chunks.len(), 4);
        assert_eq!(open_all(&mut server, &chunks).body, body);
        let reply = server.seal(7, &body).unwrap();
        assert_eq!(open_all(&mut client, &reply).body, body);

        // Each end holds the other's receiving keys, not its own.
        let mut echo = client.seal(8, b"x").unwrap();
        assert!(matches!(
            client.open(&echo.remove(0)),
            Err(OpenError::Secure(_))
        ));
    }

    #[test]
    fn chunk_naming_another_channel_rejected() {
        let (mut client, _) = ends(7, SecurityPolicy::None, MessageSecurityMode::None);
        let (_, mut server) = ends(8, SecurityPolicy::None, MessageSecurityMode::None);
        let chunks = client.seal(2, b"stray").unwrap();
        assert_eq!(server.open(&chunks[0]), Err(OpenError::WrongChannel(7)));
    }

    #[test]
    fn out_of_order_rejected() {
        let mut ra = Reassembler::new(16, 1024);
        ra.push(ChunkKind::Intermediate, seq(1, 1), b"a").unwrap();
        let err = ra.push(ChunkKind::Final, seq(3, 1), b"b").unwrap_err();
        assert_eq!(
            err,
            ReassemblyError::OutOfOrder {
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn request_id_mismatch_rejected() {
        let mut ra = Reassembler::new(16, 1024);
        ra.push(ChunkKind::Intermediate, seq(1, 1), b"a").unwrap();
        let err = ra.push(ChunkKind::Final, seq(2, 9), b"b").unwrap_err();
        assert_eq!(err, ReassemblyError::RequestIdMismatch);
        assert!(ra.in_flight.is_none());
    }

    #[test]
    fn abort_discards_partial() {
        let mut ra = Reassembler::new(16, 1024);
        ra.push(ChunkKind::Intermediate, seq(1, 1), b"a").unwrap();
        assert!(ra.in_flight.is_some());
        let err = ra.push(ChunkKind::Abort, seq(2, 1), b"").unwrap_err();
        assert_eq!(err, ReassemblyError::Aborted);
        assert!(ra.in_flight.is_none());
        // Channel continues afterwards.
        let done = ra.push(ChunkKind::Final, seq(3, 2), b"next").unwrap();
        assert_eq!(done.unwrap().body, b"next");
    }

    #[test]
    fn chunk_count_limit_enforced() {
        let mut ra = Reassembler::new(2, 1 << 20);
        ra.push(ChunkKind::Intermediate, seq(1, 1), b"a").unwrap();
        ra.push(ChunkKind::Intermediate, seq(2, 1), b"b").unwrap();
        let err = ra
            .push(ChunkKind::Intermediate, seq(3, 1), b"c")
            .unwrap_err();
        assert_eq!(err, ReassemblyError::TooManyChunks(3));
    }

    #[test]
    fn message_size_limit_enforced() {
        let mut ra = Reassembler::new(100, 10);
        let err = ra
            .push(ChunkKind::Final, seq(1, 1), &[0u8; 11])
            .unwrap_err();
        assert_eq!(err, ReassemblyError::MessageTooLarge(11));
    }
}
