//! The OPC UA client: handshake, secure channels, sessions, services.

use crate::error::ClientError;
use netsim::{ByteStream, VirtualClock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ua_crypto::{Certificate, RsaPrivateKey};
use ua_proto::chunk::SecureChannel;
use ua_proto::secure::{open_asymmetric, policy_crypto, seal_asymmetric, SequenceHeader};
use ua_proto::services::*;
use ua_proto::transport::{FrameReader, Hello, TransportMessage};
use ua_types::*;

/// Client configuration. The paper's scanner identifies itself through
/// `application_name` and its certificate (Appendix A.2: contact data in
/// both).
#[derive(Clone)]
pub struct ClientConfig {
    /// Application URI.
    pub application_uri: String,
    /// Application name (the scanner places contact info here).
    pub application_name: String,
    /// Client certificate for secure channels.
    pub certificate: Option<Certificate>,
    /// Matching private key.
    pub private_key: Option<RsaPrivateKey>,
    /// Delay between consecutive requests to one server, in virtual
    /// milliseconds (the paper used 500 ms).
    pub politeness_delay_millis: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            application_uri: "urn:research:scanner".into(),
            application_name: "Internet measurement study - contact research@scan.example.org"
                .into(),
            certificate: None,
            private_key: None,
            politeness_delay_millis: 500,
        }
    }
}

struct SessionHandle {
    authentication_token: NodeId,
}

/// An OPC UA client over any [`ByteStream`].
pub struct UaClient<S: ByteStream> {
    stream: S,
    clock: VirtualClock,
    config: ClientConfig,
    rng: StdRng,
    channel: Option<SecureChannel>,
    /// Request id of the next service request; every `open_channel`
    /// restarts it at 2, after the `OPN` request's 1.
    next_request_id: u32,
    session: Option<SessionHandle>,
    requests_sent: u64,
    first_request_done: bool,
}

impl<S: ByteStream> UaClient<S> {
    /// Wraps a connected stream.
    pub fn new(stream: S, clock: VirtualClock, config: ClientConfig, seed: u64) -> Self {
        UaClient {
            stream,
            clock,
            config,
            rng: StdRng::seed_from_u64(seed),
            channel: None,
            next_request_id: 2,
            session: None,
            requests_sent: 0,
            first_request_done: false,
        }
    }

    /// Number of requests sent so far.
    pub fn requests_sent(&self) -> u64 {
        self.requests_sent
    }

    /// Traffic statistics from the underlying stream.
    pub fn stats(&self) -> netsim::ConnectionStats {
        self.stream.stats()
    }

    /// The virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    fn politeness_pause(&mut self) {
        if self.first_request_done {
            self.clock
                .advance_millis(self.config.politeness_delay_millis);
        }
        self.first_request_done = true;
        self.requests_sent += 1;
    }

    fn now(&self) -> UaDateTime {
        UaDateTime::from_unix_seconds(self.clock.now_unix_seconds())
    }

    fn auth_token(&self) -> NodeId {
        self.session
            .as_ref()
            .map(|s| s.authentication_token.clone())
            .unwrap_or(NodeId::NULL)
    }

    /// UACP handshake: HEL → ACK.
    pub fn handshake(&mut self, endpoint_url: &str) -> Result<(), ClientError> {
        self.politeness_pause();
        let hello = TransportMessage::Hello(Hello {
            endpoint_url: Some(endpoint_url.to_string()),
            ..Hello::default()
        });
        self.stream.send(&hello.encode())?;
        match TransportMessage::decode(&receive(&mut self.stream)?[0])? {
            TransportMessage::Acknowledge(_) => Ok(()),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Opens a secure channel with the given policy/mode. For policies
    /// other than `None`, `server_certificate` (from GetEndpoints) and a
    /// client certificate/key (from the config) are required.
    pub fn open_channel(
        &mut self,
        policy: SecurityPolicy,
        mode: MessageSecurityMode,
        server_certificate: Option<&Certificate>,
    ) -> Result<(), ClientError> {
        self.politeness_pause();
        let client_nonce = if policy == SecurityPolicy::None {
            None
        } else {
            // ua-lint: allow(panic-hygiene) -- every policy except None has crypto parameters
            let params = policy_crypto(policy).expect("non-None policy");
            let nonce: Vec<u8> = (0..params.nonce_len)
                .map(|_| rand::Rng::gen(&mut self.rng))
                .collect();
            Some(nonce)
        };

        let body = ServiceBody::OpenSecureChannelRequest(OpenSecureChannelRequest {
            request_header: RequestHeader::new(NodeId::NULL, 1, self.now()),
            client_protocol_version: 0,
            request_type: SecurityTokenRequestType::Issue,
            security_mode: mode,
            client_nonce: client_nonce.clone(),
            requested_lifetime: 3_600_000,
        })
        .encode_to_vec();

        let cert_der = self.config.certificate.as_ref().map(|c| c.to_der());
        let raw = seal_asymmetric(
            &mut self.rng,
            policy,
            self.config.private_key.as_ref(),
            cert_der.as_deref(),
            server_certificate,
            0,
            SequenceHeader {
                sequence_number: 1,
                request_id: 1,
            },
            &body,
        )?;
        self.stream.send(&raw)?;

        let frames = receive(&mut self.stream)?;
        let opened = open_asymmetric(self.config.private_key.as_ref(), &frames[0])?;
        let response = match ServiceBody::decode_all(&opened.opened.body)? {
            ServiceBody::OpenSecureChannelResponse(r) => r,
            ServiceBody::ServiceFault(f) => {
                return Err(ClientError::Fault(f.response_header.service_result))
            }
            _ => return Err(ClientError::UnexpectedResponse),
        };

        self.channel = Some(SecureChannel::new(
            response.security_token.channel_id,
            response.security_token.token_id,
            policy,
            mode,
            client_nonce.as_deref(),
            response.server_nonce.as_deref(),
        ));
        self.next_request_id = 2;
        Ok(())
    }

    /// Sends one service request over the open channel and returns the
    /// response body.
    pub fn request(&mut self, body: ServiceBody) -> Result<ServiceBody, ClientError> {
        self.politeness_pause();
        let channel = self
            .channel
            .as_mut()
            .ok_or(ClientError::BadState("no open channel"))?;
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        // One `send` per chunk: the stream charges latency per segment.
        for chunk in channel.seal(request_id, &body.encode_to_vec())? {
            self.stream.send(&chunk)?;
        }
        let mut assembled = None;
        for frame in receive(&mut self.stream)? {
            if let Some(msg) = channel.open(&frame)? {
                assembled = Some(msg);
            }
        }
        let assembled = assembled.ok_or(ClientError::NoReply)?;
        match ServiceBody::decode_all(&assembled.body)? {
            ServiceBody::ServiceFault(f) => {
                Err(ClientError::Fault(f.response_header.service_result))
            }
            other => Ok(other),
        }
    }

    /// GetEndpoints over the open channel.
    pub fn get_endpoints(
        &mut self,
        endpoint_url: &str,
    ) -> Result<Vec<EndpointDescription>, ClientError> {
        let body = ServiceBody::GetEndpointsRequest(GetEndpointsRequest {
            request_header: RequestHeader::new(NodeId::NULL, 2, self.now()),
            endpoint_url: Some(endpoint_url.to_string()),
            locale_ids: vec![],
            profile_uris: vec![],
        });
        match self.request(body)? {
            ServiceBody::GetEndpointsResponse(r) => Ok(r.endpoints),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// FindServers over the open channel (discovery servers announce
    /// other hosts/ports here).
    pub fn find_servers(
        &mut self,
        endpoint_url: &str,
    ) -> Result<Vec<ApplicationDescription>, ClientError> {
        let body = ServiceBody::FindServersRequest(FindServersRequest {
            request_header: RequestHeader::new(NodeId::NULL, 2, self.now()),
            endpoint_url: Some(endpoint_url.to_string()),
            locale_ids: vec![],
            server_uris: vec![],
        });
        match self.request(body)? {
            ServiceBody::FindServersResponse(r) => Ok(r.servers),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Creates a session.
    pub fn create_session(&mut self, endpoint_url: &str) -> Result<(), ClientError> {
        let cert_der = self.config.certificate.as_ref().map(|c| c.to_der());
        let body = ServiceBody::CreateSessionRequest(CreateSessionRequest {
            request_header: RequestHeader::new(NodeId::NULL, 3, self.now()),
            client_description: ApplicationDescription::server(
                self.config.application_uri.clone(),
                self.config.application_name.clone(),
            ),
            server_uri: None,
            endpoint_url: Some(endpoint_url.to_string()),
            session_name: Some("measurement".into()),
            client_nonce: Some((0..32).map(|_| rand::Rng::gen(&mut self.rng)).collect()),
            client_certificate: cert_der,
            requested_session_timeout: 120_000.0,
            max_response_message_size: 1 << 20,
        });
        match self.request(body)? {
            ServiceBody::CreateSessionResponse(r) => {
                self.session = Some(SessionHandle {
                    authentication_token: r.authentication_token,
                });
                Ok(())
            }
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Activates the session with the given identity.
    pub fn activate_session(&mut self, identity: IdentityToken) -> Result<(), ClientError> {
        let token = self.auth_token();
        if token.is_null() {
            return Err(ClientError::BadState("no session"));
        }
        let body = ServiceBody::ActivateSessionRequest(ActivateSessionRequest {
            request_header: RequestHeader::new(token, 4, self.now()),
            client_signature: SignatureData::default(),
            locale_ids: vec!["en".into()],
            user_identity_token: identity.to_extension_object(),
            user_token_signature: SignatureData::default(),
        });
        match self.request(body)? {
            ServiceBody::ActivateSessionResponse(_) => Ok(()),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Browses forward references of `node`.
    pub fn browse(&mut self, node: NodeId, max_refs: u32) -> Result<BrowseResult, ClientError> {
        let token = self.auth_token();
        let body = ServiceBody::BrowseRequest(BrowseRequest {
            request_header: RequestHeader::new(token, 5, self.now()),
            view: ViewDescription::default(),
            requested_max_references_per_node: max_refs,
            nodes_to_browse: vec![BrowseDescription::all_forward(node)],
        });
        match self.request(body)? {
            ServiceBody::BrowseResponse(mut r) if !r.results.is_empty() => Ok(r.results.remove(0)),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Continues a browse with a continuation point.
    pub fn browse_next(&mut self, continuation: Vec<u8>) -> Result<BrowseResult, ClientError> {
        let token = self.auth_token();
        let body = ServiceBody::BrowseNextRequest(BrowseNextRequest {
            request_header: RequestHeader::new(token, 6, self.now()),
            release_continuation_points: false,
            continuation_points: vec![continuation],
        });
        match self.request(body)? {
            ServiceBody::BrowseNextResponse(mut r) if !r.results.is_empty() => {
                Ok(r.results.remove(0))
            }
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Reads attributes.
    pub fn read(
        &mut self,
        nodes: Vec<(NodeId, AttributeId)>,
    ) -> Result<Vec<DataValue>, ClientError> {
        let token = self.auth_token();
        let body = ServiceBody::ReadRequest(ReadRequest {
            request_header: RequestHeader::new(token, 7, self.now()),
            max_age: 0.0,
            timestamps_to_return: 3,
            nodes_to_read: nodes
                .into_iter()
                .map(|(n, a)| ReadValueId::new(n, a.id()))
                .collect(),
        });
        match self.request(body)? {
            ServiceBody::ReadResponse(r) => Ok(r.results),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Writes a variable value. The *paper's scanner never writes*
    /// (Appendix A.1); this exists for the operator-facing examples and
    /// access-control tests.
    pub fn write(&mut self, node: NodeId, value: Variant) -> Result<StatusCode, ClientError> {
        let token = self.auth_token();
        let body = ServiceBody::WriteRequest(WriteRequest {
            request_header: RequestHeader::new(token, 8, self.now()),
            nodes_to_write: vec![WriteValue {
                node_id: node,
                attribute_id: AttributeId::Value.id(),
                index_range: None,
                value: DataValue::new(value),
            }],
        });
        match self.request(body)? {
            ServiceBody::WriteResponse(r) => {
                Ok(r.results.first().copied().unwrap_or(StatusCode::GOOD))
            }
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Calls a method (not used by the scanner; see [`Self::write`]).
    pub fn call(
        &mut self,
        object: NodeId,
        method: NodeId,
    ) -> Result<CallMethodResult, ClientError> {
        let token = self.auth_token();
        let body = ServiceBody::CallRequest(CallRequest {
            request_header: RequestHeader::new(token, 9, self.now()),
            methods_to_call: vec![CallMethodRequest {
                object_id: object,
                method_id: method,
                input_arguments: vec![],
            }],
        });
        match self.request(body)? {
            ServiceBody::CallResponse(mut r) if !r.results.is_empty() => Ok(r.results.remove(0)),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Closes the session.
    pub fn close_session(&mut self) -> Result<(), ClientError> {
        let token = self.auth_token();
        if token.is_null() {
            return Ok(());
        }
        let body = ServiceBody::CloseSessionRequest(CloseSessionRequest {
            request_header: RequestHeader::new(token, 10, self.now()),
            delete_subscriptions: true,
        });
        let _ = self.request(body)?;
        self.session = None;
        Ok(())
    }
}

/// Receives the server's reply: every frame it has sent so far, at least
/// one. An empty reply is [`ClientError::NoReply`], and an `ERR` frame
/// anywhere in it ends the exchange as [`ClientError::Remote`].
fn receive<S: ByteStream>(stream: &mut S) -> Result<Vec<Vec<u8>>, ClientError> {
    let mut reader = FrameReader::new();
    loop {
        match stream.recv() {
            Ok(Some(bytes)) => reader.push(&bytes),
            Ok(None) => break,
            // Peer closed: anything already queued (e.g. a final ERR
            // before the RST) is still parsed below.
            Err(netsim::StreamError::Closed) => break,
        }
    }
    let mut frames = Vec::new();
    while let Some(frame) = reader.next_raw_frame()? {
        frames.push(frame);
    }
    if let Some(err) = frames.iter().find(|frame| frame.starts_with(b"ERR")) {
        return Err(match TransportMessage::decode(err)? {
            TransportMessage::Error(e) => ClientError::Remote {
                status: e.error,
                reason: e.reason,
            },
            _ => ClientError::UnexpectedResponse,
        });
    }
    if frames.is_empty() {
        return Err(ClientError::NoReply);
    }
    Ok(frames)
}
