//! The per-connection protocol state machine: HEL/ACK, secure-channel
//! establishment, and secured service exchange over a
//! [`SecureChannel`].

use crate::core::{ChannelContext, ServerCore};
use netsim::{Connection, ConnectionOutput, Ipv4, Service};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use ua_proto::chunk::{OpenError, SecureChannel};
use ua_proto::secure::{open_asymmetric, policy_crypto, seal_asymmetric, SequenceHeader};
use ua_proto::services::{
    ChannelSecurityToken, OpenSecureChannelResponse, ResponseHeader, ServiceBody,
};
use ua_proto::transport::{Acknowledge, ErrorMessage, FrameReader, TransportMessage};
use ua_types::{MessageSecurityMode, SecurityPolicy, StatusCode, UaDecode, UaEncode};

/// Network-facing OPC UA server: implements [`netsim::Service`].
pub struct UaServerService {
    core: Arc<ServerCore>,
    seed: u64,
}

impl UaServerService {
    /// Wraps a server core.
    pub fn new(core: Arc<ServerCore>, seed: u64) -> Self {
        UaServerService { core, seed }
    }

    /// The shared core.
    pub fn core(&self) -> &Arc<ServerCore> {
        &self.core
    }
}

impl Service for UaServerService {
    fn open_connection(&self, peer: Ipv4) -> Box<dyn Connection> {
        Box::new(ServerConnection {
            core: Arc::clone(&self.core),
            frames: FrameReader::new(),
            got_hello: false,
            channel: None,
            rng: StdRng::seed_from_u64(self.seed ^ peer.0 as u64),
        })
    }
}

/// One accepted connection.
pub struct ServerConnection {
    core: Arc<ServerCore>,
    frames: FrameReader,
    got_hello: bool,
    channel: Option<SecureChannel>,
    rng: StdRng,
}

impl Connection for ServerConnection {
    fn on_data(&mut self, data: &[u8]) -> ConnectionOutput {
        self.frames.push(data);
        let mut reply = Vec::new();
        loop {
            match self.frames.next_raw_frame() {
                Ok(None) => break,
                Ok(Some(frame)) => match self.handle_frame(&frame) {
                    FrameResult::Reply(bytes) => reply.extend_from_slice(&bytes),
                    FrameResult::Silent => {}
                    FrameResult::Close(bytes) => {
                        reply.extend_from_slice(&bytes);
                        return ConnectionOutput::close_with(reply);
                    }
                },
                Err(_) => {
                    // Not OPC UA (or corrupt): close with a transport error,
                    // like real stacks do when garbage arrives on 4840.
                    reply.extend_from_slice(
                        &TransportMessage::Error(ErrorMessage::new(
                            StatusCode::BAD_TCP_MESSAGE_TYPE_INVALID,
                            "invalid message",
                        ))
                        .encode(),
                    );
                    return ConnectionOutput::close_with(reply);
                }
            }
        }
        ConnectionOutput::reply(reply)
    }
}

enum FrameResult {
    Reply(Vec<u8>),
    Silent,
    Close(Vec<u8>),
}

impl ServerConnection {
    fn handle_frame(&mut self, frame: &[u8]) -> FrameResult {
        match &frame[0..3] {
            b"HEL" => self.handle_hello(frame),
            b"OPN" => self.handle_open(frame),
            b"MSG" => self.handle_msg(frame),
            b"CLO" => FrameResult::Close(Vec::new()),
            _ => FrameResult::Close(
                TransportMessage::Error(ErrorMessage::new(
                    StatusCode::BAD_TCP_MESSAGE_TYPE_INVALID,
                    "unexpected message type",
                ))
                .encode(),
            ),
        }
    }

    fn handle_hello(&mut self, frame: &[u8]) -> FrameResult {
        if self.got_hello {
            return self.transport_error(StatusCode::BAD_TCP_MESSAGE_TYPE_INVALID, "double hello");
        }
        match TransportMessage::decode(frame) {
            Ok(TransportMessage::Hello(hello)) => {
                // Vendor quirk (Erba et al.): stacks diverge on how they
                // fail a nonzero protocol version. Vendors in the quirk
                // table answer with their taxonomy `ERR` and hang up;
                // everyone else ignores the field — the lenient default.
                if hello.protocol_version != 0 {
                    let vendor = ua_proto::fingerprint::vendor_of_application_name(
                        &self.core.config.application_name,
                    );
                    if let Some(status) = vendor.and_then(ua_proto::fingerprint::quirk_for_vendor) {
                        return FrameResult::Close(
                            TransportMessage::Error(ErrorMessage::new(
                                status,
                                "unsupported protocol version",
                            ))
                            .encode(),
                        );
                    }
                }
                self.got_hello = true;
                FrameResult::Reply(TransportMessage::Acknowledge(Acknowledge::default()).encode())
            }
            _ => self.transport_error(StatusCode::BAD_TCP_MESSAGE_TYPE_INVALID, "bad hello"),
        }
    }

    fn handle_open(&mut self, frame: &[u8]) -> FrameResult {
        if !self.got_hello {
            return self
                .transport_error(StatusCode::BAD_TCP_MESSAGE_TYPE_INVALID, "OPN before HEL");
        }
        let opened = match open_asymmetric(self.core.config.private_key.as_ref(), frame) {
            Ok(o) => o,
            Err(_) => {
                return self.transport_error(
                    StatusCode::BAD_SECURITY_CHECKS_FAILED,
                    "secure channel open failed",
                )
            }
        };
        let policy = match SecurityPolicy::from_uri(&opened.security_header.security_policy_uri) {
            Some(p) => p,
            None => {
                return self.transport_error(
                    StatusCode::BAD_SECURITY_POLICY_REJECTED,
                    "unknown security policy",
                )
            }
        };
        // Policy None is always accepted for discovery; other policies
        // must be offered by an endpoint.
        if policy != SecurityPolicy::None && !self.core.config.offers_policy(policy) {
            return self.transport_error(
                StatusCode::BAD_SECURITY_POLICY_REJECTED,
                "policy not offered",
            );
        }
        // Certificate-based admission control: with an empty trust list
        // the server rejects every foreign certificate (Table 2's
        // "Secure Channel" rejections).
        if policy != SecurityPolicy::None && self.core.config.reject_foreign_certs {
            return self.transport_error(
                StatusCode::BAD_CERTIFICATE_UNTRUSTED,
                "client certificate not trusted",
            );
        }

        let request = match ServiceBody::decode_all(&opened.opened.body) {
            Ok(ServiceBody::OpenSecureChannelRequest(r)) => r,
            _ => {
                return self.transport_error(
                    StatusCode::BAD_TCP_MESSAGE_TYPE_INVALID,
                    "OPN without OpenSecureChannelRequest",
                )
            }
        };
        let mode = request.security_mode;
        // Consistency rules: policy None ⇔ mode None.
        let consistent = (policy == SecurityPolicy::None) == (mode == MessageSecurityMode::None)
            && mode != MessageSecurityMode::Invalid;
        if !consistent {
            return self.transport_error(
                StatusCode::BAD_SECURITY_MODE_REJECTED,
                "mode/policy mismatch",
            );
        }

        // Nonce handling: a secured channel needs a client nonce of the
        // policy's length, and answers with its own.
        let server_nonce = match policy_crypto(policy) {
            None => None,
            Some(params) => match &request.client_nonce {
                Some(n) if n.len() == params.nonce_len => {
                    Some(self.core.random_bytes(params.nonce_len))
                }
                _ => return self.transport_error(StatusCode::BAD_NONCE_INVALID, "bad nonce"),
            },
        };

        let channel_id = self.core.next_channel_id();
        let token_id = 1u32;
        let now = ua_types::UaDateTime::from_unix_seconds(0);
        let response = ServiceBody::OpenSecureChannelResponse(OpenSecureChannelResponse {
            response_header: ResponseHeader::good(request.request_header.request_handle, now),
            server_protocol_version: 0,
            security_token: ChannelSecurityToken {
                channel_id,
                token_id,
                created_at: now,
                revised_lifetime: 3_600_000,
            },
            server_nonce: server_nonce.clone(),
        });
        let body = response.encode_to_vec();

        let reply = seal_asymmetric(
            &mut self.rng,
            policy,
            self.core.config.private_key.as_ref(),
            self.core
                .config
                .certificate
                .as_ref()
                .map(|c| c.to_der())
                .as_deref(),
            opened.sender_certificate.as_ref(),
            channel_id,
            SequenceHeader {
                sequence_number: 1,
                request_id: opened.opened.sequence.request_id,
            },
            &body,
        );
        let reply = match reply {
            Ok(r) => r,
            Err(_) => {
                return self.transport_error(
                    StatusCode::BAD_SECURITY_CHECKS_FAILED,
                    "cannot seal response",
                )
            }
        };

        self.channel = Some(SecureChannel::new(
            channel_id,
            token_id,
            policy,
            mode,
            server_nonce.as_deref(),
            request.client_nonce.as_deref(),
        ));
        FrameResult::Reply(reply)
    }

    fn handle_msg(&mut self, frame: &[u8]) -> FrameResult {
        // Open and reassemble on the channel, dispatch, and seal the
        // response on it.
        let Some(channel) = self.channel.as_mut() else {
            return self
                .transport_error(StatusCode::BAD_SECURE_CHANNEL_ID_INVALID, "MSG before OPN");
        };
        let assembled = match channel.open(frame) {
            Ok(Some(m)) => m,
            Ok(None) => return FrameResult::Silent,
            Err(e) => {
                let (status, reason) = match e {
                    OpenError::Secure(_) => (
                        StatusCode::BAD_SECURITY_CHECKS_FAILED,
                        "message security failure",
                    ),
                    OpenError::WrongChannel(_) => (
                        StatusCode::BAD_SECURE_CHANNEL_ID_INVALID,
                        "wrong channel id",
                    ),
                    OpenError::Reassembly(_) => {
                        (StatusCode::BAD_TCP_MESSAGE_TOO_LARGE, "reassembly failure")
                    }
                };
                return self.transport_error(status, reason);
            }
        };

        let request = match ServiceBody::decode_all(&assembled.body) {
            Ok(b) => b,
            Err(_) => {
                return self.transport_error(StatusCode::BAD_DECODING_ERROR, "undecodable body")
            }
        };
        if matches!(request, ServiceBody::CloseSecureChannelRequest(_)) {
            return FrameResult::Close(Vec::new());
        }

        let ctx = ChannelContext {
            policy: channel.policy(),
        };
        let response = self.core.handle_service(request, &ctx);
        match channel.seal(assembled.request_id, &response.encode_to_vec()) {
            Ok(chunks) => FrameResult::Reply(chunks.concat()),
            Err(_) => self.transport_error(StatusCode::BAD_ENCODING_ERROR, "cannot seal response"),
        }
    }

    fn transport_error(&self, status: StatusCode, reason: &str) -> FrameResult {
        FrameResult::Close(TransportMessage::Error(ErrorMessage::new(status, reason)).encode())
    }
}
