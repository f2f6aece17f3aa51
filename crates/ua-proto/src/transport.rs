//! UACP transport-level messages (OPC 10000-6 §7.1): `HEL`, `ACK`, `ERR`,
//! `RHE`, and the common message header shared with secure-channel
//! messages (`OPN`, `MSG`, `CLO`).

use ua_types::{CodecError, Decoder, Encoder, StatusCode};

/// The three-letter message type in the UACP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageType {
    /// Client hello.
    Hello,
    /// Server acknowledge.
    Acknowledge,
    /// Transport error notification.
    Error,
    /// Reverse hello (server-initiated connections).
    ReverseHello,
    /// OpenSecureChannel.
    Open,
    /// Secured service message.
    Msg,
    /// CloseSecureChannel.
    Close,
}

impl MessageType {
    /// The three ASCII bytes on the wire.
    pub fn bytes(self) -> [u8; 3] {
        match self {
            MessageType::Hello => *b"HEL",
            MessageType::Acknowledge => *b"ACK",
            MessageType::Error => *b"ERR",
            MessageType::ReverseHello => *b"RHE",
            MessageType::Open => *b"OPN",
            MessageType::Msg => *b"MSG",
            MessageType::Close => *b"CLO",
        }
    }

    /// Parses the three ASCII bytes.
    pub fn from_bytes(b: [u8; 3]) -> Option<Self> {
        Some(match &b {
            b"HEL" => MessageType::Hello,
            b"ACK" => MessageType::Acknowledge,
            b"ERR" => MessageType::Error,
            b"RHE" => MessageType::ReverseHello,
            b"OPN" => MessageType::Open,
            b"MSG" => MessageType::Msg,
            b"CLO" => MessageType::Close,
            _ => return None,
        })
    }
}

/// Chunk continuation marker (fourth header byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChunkKind {
    /// Intermediate chunk (`C`).
    Intermediate,
    /// Final chunk (`F`).
    Final,
    /// Abort chunk (`A`) — sender gave up mid-message.
    Abort,
}

impl ChunkKind {
    /// Wire byte.
    pub fn byte(self) -> u8 {
        match self {
            ChunkKind::Intermediate => b'C',
            ChunkKind::Final => b'F',
            ChunkKind::Abort => b'A',
        }
    }

    /// Parses the wire byte.
    pub fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            b'C' => ChunkKind::Intermediate,
            b'F' => ChunkKind::Final,
            b'A' => ChunkKind::Abort,
            _ => return None,
        })
    }
}

/// The 8-byte UACP message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageHeader {
    /// Message type.
    pub message_type: MessageType,
    /// Chunk marker (`F` for non-chunked message types).
    pub chunk: ChunkKind,
    /// Total size of the message including this header.
    pub size: u32,
}

/// Minimum size of a UACP message (just a header).
pub const HEADER_SIZE: usize = 8;

/// Hard upper bound we accept for any single message, to bound memory on
/// hostile input (matches the scanner's 50 MB per-host traffic limit
/// order of magnitude).
pub const MAX_MESSAGE_SIZE: u32 = 16 * 1024 * 1024;

/// Most chunks we accept for one message, announced in `HEL`/`ACK`.
pub(crate) const MAX_CHUNK_COUNT: u32 = 4096;

impl MessageHeader {
    /// Encodes the header.
    pub fn encode(&self, w: &mut Encoder) {
        w.raw(&self.message_type.bytes());
        w.u8(self.chunk.byte());
        w.u32(self.size);
    }

    /// Decodes a header from exactly 8 bytes.
    pub fn decode(r: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let t = r.raw(3)?;
        let message_type = MessageType::from_bytes([t[0], t[1], t[2]])
            .ok_or(CodecError::Invalid("unknown UACP message type"))?;
        let chunk =
            ChunkKind::from_byte(r.u8()?).ok_or(CodecError::Invalid("unknown chunk marker"))?;
        let size = r.u32()?;
        if size < HEADER_SIZE as u32 || size > MAX_MESSAGE_SIZE {
            return Err(CodecError::BadLength(size as i64));
        }
        Ok(MessageHeader {
            message_type,
            chunk,
            size,
        })
    }
}

/// `HEL` — opens a UACP connection and negotiates buffer limits.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// Protocol version (0).
    pub protocol_version: u32,
    /// Largest chunk the sender can receive.
    pub receive_buffer_size: u32,
    /// Largest chunk the sender will send.
    pub send_buffer_size: u32,
    /// Largest reassembled message accepted (0 = no limit).
    pub max_message_size: u32,
    /// Maximum chunk count per message (0 = no limit).
    pub max_chunk_count: u32,
    /// The URL the client believes it is connecting to.
    pub endpoint_url: Option<String>,
}

impl Default for Hello {
    fn default() -> Self {
        Hello {
            protocol_version: 0,
            receive_buffer_size: 65_536,
            send_buffer_size: 65_536,
            max_message_size: MAX_MESSAGE_SIZE,
            max_chunk_count: MAX_CHUNK_COUNT,
            endpoint_url: None,
        }
    }
}

impl Hello {
    fn encode_body(&self, w: &mut Encoder) {
        w.u32(self.protocol_version);
        w.u32(self.receive_buffer_size);
        w.u32(self.send_buffer_size);
        w.u32(self.max_message_size);
        w.u32(self.max_chunk_count);
        w.string(self.endpoint_url.as_deref());
    }

    fn decode_body(r: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Hello {
            protocol_version: r.u32()?,
            receive_buffer_size: r.u32()?,
            send_buffer_size: r.u32()?,
            max_message_size: r.u32()?,
            max_chunk_count: r.u32()?,
            endpoint_url: r.string()?,
        })
    }
}

/// `ACK` — the server's answer to `HEL` with its revised limits.
#[derive(Debug, Clone, PartialEq)]
pub struct Acknowledge {
    /// Protocol version (0).
    pub protocol_version: u32,
    /// Largest chunk the server can receive.
    pub receive_buffer_size: u32,
    /// Largest chunk the server will send.
    pub send_buffer_size: u32,
    /// Largest reassembled message accepted.
    pub max_message_size: u32,
    /// Maximum chunk count per message.
    pub max_chunk_count: u32,
}

impl Default for Acknowledge {
    fn default() -> Self {
        Acknowledge {
            protocol_version: 0,
            receive_buffer_size: 65_536,
            send_buffer_size: 65_536,
            max_message_size: MAX_MESSAGE_SIZE,
            max_chunk_count: MAX_CHUNK_COUNT,
        }
    }
}

impl Acknowledge {
    fn encode_body(&self, w: &mut Encoder) {
        w.u32(self.protocol_version);
        w.u32(self.receive_buffer_size);
        w.u32(self.send_buffer_size);
        w.u32(self.max_message_size);
        w.u32(self.max_chunk_count);
    }

    fn decode_body(r: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Acknowledge {
            protocol_version: r.u32()?,
            receive_buffer_size: r.u32()?,
            send_buffer_size: r.u32()?,
            max_message_size: r.u32()?,
            max_chunk_count: r.u32()?,
        })
    }
}

/// `ERR` — transport-level error notification before closing.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorMessage {
    /// Status code describing the error.
    pub error: StatusCode,
    /// Optional human-readable reason.
    pub reason: Option<String>,
}

impl ErrorMessage {
    /// Builds an error message.
    pub fn new(error: StatusCode, reason: impl Into<String>) -> Self {
        ErrorMessage {
            error,
            reason: Some(reason.into()),
        }
    }

    fn encode_body(&self, w: &mut Encoder) {
        w.u32(self.error.0);
        w.string(self.reason.as_deref());
    }

    fn decode_body(r: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(ErrorMessage {
            error: StatusCode(r.u32()?),
            reason: r.string()?,
        })
    }
}

/// `RHE` — reverse hello (listed for completeness; the study's scanner
/// never initiates reverse connections).
#[derive(Debug, Clone, PartialEq)]
pub struct ReverseHello {
    /// The server's application URI.
    pub server_uri: Option<String>,
    /// The endpoint URL the client should connect back to.
    pub endpoint_url: Option<String>,
}

impl ReverseHello {
    fn encode_body(&self, w: &mut Encoder) {
        w.string(self.server_uri.as_deref());
        w.string(self.endpoint_url.as_deref());
    }

    fn decode_body(r: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(ReverseHello {
            server_uri: r.string()?,
            endpoint_url: r.string()?,
        })
    }
}

/// A parsed transport-layer message.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportMessage {
    /// Client hello.
    Hello(Hello),
    /// Server acknowledge.
    Acknowledge(Acknowledge),
    /// Error notification.
    Error(ErrorMessage),
    /// Reverse hello.
    ReverseHello(ReverseHello),
    /// A secure-channel chunk (`OPN`/`MSG`/`CLO`), returned raw: security
    /// processing happens in [`crate::secure`].
    Chunk {
        /// OPN, MSG or CLO.
        message_type: MessageType,
        /// Chunk continuation marker.
        chunk: ChunkKind,
        /// The bytes after the 8-byte header.
        body: Vec<u8>,
    },
}

impl TransportMessage {
    /// Serializes the message with its header.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Encoder::new();
        self.encode_into(&mut w);
        w.finish()
    }

    /// Appends one complete frame (header plus body) to `w` — encode
    /// loops reuse a single [`Encoder::reset`] buffer across messages
    /// instead of allocating per message. The header is written first
    /// with a placeholder size and patched once the body length is
    /// known, so the body is never staged in a separate buffer.
    pub fn encode_into(&self, w: &mut Encoder) {
        let start = w.len();
        let (message_type, chunk) = match self {
            TransportMessage::Hello(_) => (MessageType::Hello, ChunkKind::Final),
            TransportMessage::Acknowledge(_) => (MessageType::Acknowledge, ChunkKind::Final),
            TransportMessage::Error(_) => (MessageType::Error, ChunkKind::Final),
            TransportMessage::ReverseHello(_) => (MessageType::ReverseHello, ChunkKind::Final),
            TransportMessage::Chunk {
                message_type,
                chunk,
                ..
            } => (*message_type, *chunk),
        };
        MessageHeader {
            message_type,
            chunk,
            size: 0, // patched below
        }
        .encode(w);
        match self {
            TransportMessage::Hello(h) => h.encode_body(w),
            TransportMessage::Acknowledge(a) => a.encode_body(w),
            TransportMessage::Error(e) => e.encode_body(w),
            TransportMessage::ReverseHello(r) => r.encode_body(w),
            TransportMessage::Chunk { body, .. } => w.raw(body),
        }
        w.patch_u32(start + 4, (w.len() - start) as u32);
    }

    /// Parses one complete message (header plus body).
    pub fn decode(data: &[u8]) -> Result<Self, CodecError> {
        let mut r = Decoder::new(data);
        let header = MessageHeader::decode(&mut r)?;
        if header.size as usize != data.len() {
            return Err(CodecError::BadLength(header.size as i64));
        }
        let body = r.raw(data.len() - HEADER_SIZE)?;
        let mut br = Decoder::new(body);
        let msg = match header.message_type {
            MessageType::Hello => TransportMessage::Hello(Hello::decode_body(&mut br)?),
            MessageType::Acknowledge => {
                TransportMessage::Acknowledge(Acknowledge::decode_body(&mut br)?)
            }
            MessageType::Error => TransportMessage::Error(ErrorMessage::decode_body(&mut br)?),
            MessageType::ReverseHello => {
                TransportMessage::ReverseHello(ReverseHello::decode_body(&mut br)?)
            }
            mt @ (MessageType::Open | MessageType::Msg | MessageType::Close) => {
                return Ok(TransportMessage::Chunk {
                    message_type: mt,
                    chunk: header.chunk,
                    body: body.to_vec(),
                })
            }
        };
        if !br.is_empty() {
            return Err(CodecError::Invalid("trailing bytes in transport message"));
        }
        Ok(msg)
    }
}

/// Incremental frame extractor: feeds on a growing byte buffer and yields
/// complete messages (the "framing" layer the networking guides
/// emphasize). Returns `Ok(None)` when more bytes are needed.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Tries to extract the next complete raw frame (header + body bytes)
    /// without interpreting it — secure-channel chunks are handed to the
    /// crypto layer whole.
    pub fn next_raw_frame(&mut self) -> Result<Option<Vec<u8>>, CodecError> {
        if self.buf.len() < HEADER_SIZE {
            return Ok(None);
        }
        let mut r = Decoder::new(&self.buf);
        let header = MessageHeader::decode(&mut r)?;
        let size = header.size as usize;
        if self.buf.len() < size {
            return Ok(None);
        }
        Ok(Some(self.buf.drain(..size).collect()))
    }

    /// Tries to extract the next complete message.
    pub fn next_message(&mut self) -> Result<Option<TransportMessage>, CodecError> {
        self.next_raw_frame()?
            .map(|frame| TransportMessage::decode(&frame))
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roundtrip() {
        let hello = Hello {
            endpoint_url: Some("opc.tcp://198.51.100.7:4840/".into()),
            ..Hello::default()
        };
        let msg = TransportMessage::Hello(hello.clone());
        let bytes = msg.encode();
        assert_eq!(&bytes[0..4], b"HELF");
        assert_eq!(TransportMessage::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn ack_err_rhe_roundtrip() {
        for msg in [
            TransportMessage::Acknowledge(Acknowledge::default()),
            TransportMessage::Error(ErrorMessage::new(
                StatusCode::BAD_TCP_MESSAGE_TYPE_INVALID,
                "bad message",
            )),
            TransportMessage::ReverseHello(ReverseHello {
                server_uri: Some("urn:x".into()),
                endpoint_url: Some("opc.tcp://10.0.0.1:4840".into()),
            }),
        ] {
            let bytes = msg.encode();
            assert_eq!(TransportMessage::decode(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn chunk_passthrough() {
        let msg = TransportMessage::Chunk {
            message_type: MessageType::Msg,
            chunk: ChunkKind::Intermediate,
            body: vec![1, 2, 3, 4],
        };
        let bytes = msg.encode();
        assert_eq!(&bytes[0..4], b"MSGC");
        assert_eq!(TransportMessage::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn encode_into_reuses_one_buffer_across_messages() {
        // One reset-reused encoder must produce byte-identical frames to
        // per-message encode() calls.
        let messages = [
            TransportMessage::Hello(Hello::default()),
            TransportMessage::Acknowledge(Acknowledge::default()),
            TransportMessage::Chunk {
                message_type: MessageType::Msg,
                chunk: ChunkKind::Final,
                body: vec![9; 300],
            },
        ];
        let mut w = Encoder::with_capacity(512);
        for msg in &messages {
            w.reset();
            msg.encode_into(&mut w);
            assert_eq!(w.as_bytes(), msg.encode().as_slice());
            assert_eq!(TransportMessage::decode(w.as_bytes()).unwrap(), *msg);
        }
    }

    #[test]
    fn header_size_field_checked() {
        let msg = TransportMessage::Hello(Hello::default());
        let mut bytes = msg.encode();
        // Corrupt the size field.
        bytes[4] ^= 0x01;
        assert!(TransportMessage::decode(&bytes).is_err());
    }

    #[test]
    fn unknown_type_rejected() {
        let mut bytes = TransportMessage::Hello(Hello::default()).encode();
        bytes[0] = b'X';
        assert!(TransportMessage::decode(&bytes).is_err());
    }

    #[test]
    fn oversized_header_rejected() {
        let mut w = Encoder::new();
        w.raw(b"HELF");
        w.u32(MAX_MESSAGE_SIZE + 1);
        let bytes = w.finish();
        let mut r = Decoder::new(&bytes);
        assert!(MessageHeader::decode(&mut r).is_err());
    }

    #[test]
    fn frame_reader_reassembles_split_input() {
        let m1 = TransportMessage::Hello(Hello::default()).encode();
        let m2 = TransportMessage::Acknowledge(Acknowledge::default()).encode();
        let mut stream = Vec::new();
        stream.extend_from_slice(&m1);
        stream.extend_from_slice(&m2);

        let mut fr = FrameReader::new();
        // Feed byte by byte; messages appear only when complete.
        let mut seen = Vec::new();
        for &b in &stream {
            fr.push(&[b]);
            while let Some(m) = fr.next_message().unwrap() {
                seen.push(m);
            }
        }
        assert_eq!(seen.len(), 2);
        assert!(matches!(seen[0], TransportMessage::Hello(_)));
        assert!(matches!(seen[1], TransportMessage::Acknowledge(_)));
        assert_eq!(fr.buffered(), 0);
    }

    #[test]
    fn frame_reader_surfaces_garbage() {
        let mut fr = FrameReader::new();
        fr.push(b"GARBAGE!GARBAGE!");
        assert!(fr.next_message().is_err());
    }

    #[test]
    fn chunk_kind_bytes() {
        for k in [ChunkKind::Intermediate, ChunkKind::Final, ChunkKind::Abort] {
            assert_eq!(ChunkKind::from_byte(k.byte()), Some(k));
        }
        assert_eq!(ChunkKind::from_byte(b'Z'), None);
    }
}
