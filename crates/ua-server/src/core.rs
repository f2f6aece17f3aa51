//! Shared server state and service dispatch.

use crate::config::ServerConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};
use ua_addrspace::{AddressSpace, Node, UserClass};
use ua_crypto::HashAlgorithm;
use ua_proto::secure::hash_for;
use ua_proto::services::{
    ActivateSessionResponse, BrowseNextResponse, BrowseResponse, BrowseResult, CallMethodResult,
    CallResponse, CloseSessionResponse, CreateSessionResponse, FindServersResponse,
    GetEndpointsResponse, IdentityToken, ReadResponse, ReferenceDescription, ResponseHeader,
    ServiceBody, ServiceFault, SignatureData, WriteResponse,
};
use ua_types::{
    ApplicationDescription, ApplicationType, AttributeId, DataValue, EndpointDescription,
    ExpandedNodeId, LocalizedText, NodeId, SecurityPolicy, StatusCode, UaDateTime, UserTokenPolicy,
    UserTokenType, TRANSPORT_PROFILE_BINARY,
};

/// Security context a service call arrives under.
#[derive(Debug, Clone)]
pub struct ChannelContext {
    /// Channel policy.
    pub policy: SecurityPolicy,
}

struct Session {
    #[allow(dead_code)]
    session_id: NodeId,
    activated: Option<UserClass>,
    continuations: HashMap<Vec<u8>, Continuation>,
    next_continuation: u64,
}

struct Continuation {
    node: NodeId,
    offset: usize,
}

struct CoreState {
    next_session: u64,
    next_channel: u32,
    sessions: HashMap<NodeId, Session>,
}

/// Shared, thread-safe server core: configuration, address space, and
/// session state. Connections (crate-level [`crate::connection`]) hold an
/// `Arc<ServerCore>`.
pub struct ServerCore {
    /// Static configuration, possibly shared with whoever deployed it.
    pub config: Arc<ServerConfig>,
    /// The served space, possibly shared; the first Write copies it
    /// ([`Arc::make_mut`]).
    space: RwLock<Arc<AddressSpace>>,
    state: Mutex<CoreState>,
    rng: Mutex<StdRng>,
    clock_unix_seconds: Mutex<i64>,
}

impl ServerCore {
    /// Creates a core with the given config and address space. Both
    /// may be `Arc`s the caller keeps: the core holds one more
    /// reference, not a copy. Reads serve the shared space; the first
    /// Write copies it, so the caller's space never sees a write.
    pub fn new(
        config: impl Into<Arc<ServerConfig>>,
        space: impl Into<Arc<AddressSpace>>,
        seed: u64,
    ) -> Arc<Self> {
        Arc::new(ServerCore {
            config: config.into(),
            space: RwLock::new(space.into()),
            state: Mutex::new(CoreState {
                next_session: 1,
                next_channel: 1,
                sessions: HashMap::new(),
            }),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            clock_unix_seconds: Mutex::new(0),
        })
    }

    /// Lock-poisoning policy, centralized: every guard scope in this
    /// core is a short map/space operation, so a poisoned lock means a
    /// sibling request handler already panicked — propagating it is
    /// the only honest answer, and the four guard helpers below are
    /// the only places a lock is acquired.
    fn state(&self) -> std::sync::MutexGuard<'_, CoreState> {
        // ua-lint: allow(panic-hygiene) -- poisoned session table: a handler panicked; propagate it
        self.state.lock().unwrap()
    }

    fn space_read(&self) -> std::sync::RwLockReadGuard<'_, Arc<AddressSpace>> {
        // ua-lint: allow(panic-hygiene) -- poisoned address space: a handler panicked; propagate it
        self.space.read().unwrap()
    }

    fn space_write(&self) -> std::sync::RwLockWriteGuard<'_, Arc<AddressSpace>> {
        // ua-lint: allow(panic-hygiene) -- poisoned address space: a handler panicked; propagate it
        self.space.write().unwrap()
    }

    /// Updates the server's notion of wall-clock time (driven by the
    /// simulation's virtual clock).
    pub fn set_time(&self, unix_seconds: i64) {
        // ua-lint: allow(panic-hygiene) -- poisoned clock cell: a handler panicked; propagate it
        *self.clock_unix_seconds.lock().unwrap() = unix_seconds;
    }

    fn now(&self) -> UaDateTime {
        // ua-lint: allow(panic-hygiene) -- poisoned clock cell: a handler panicked; propagate it
        UaDateTime::from_unix_seconds(*self.clock_unix_seconds.lock().unwrap())
    }

    /// Allocates a fresh secure-channel id.
    pub fn next_channel_id(&self) -> u32 {
        let mut st = self.state();
        let id = st.next_channel;
        st.next_channel += 1;
        id
    }

    /// Generates `len` random bytes (nonces, tokens).
    pub fn random_bytes(&self, len: usize) -> Vec<u8> {
        // ua-lint: allow(panic-hygiene) -- poisoned RNG: a handler panicked; propagate it
        let mut rng = self.rng.lock().unwrap();
        (0..len).map(|_| rng.gen()).collect()
    }

    /// The endpoint descriptions this server advertises — exactly what
    /// the paper's scanner records for Figure 3.
    pub fn endpoint_descriptions(&self) -> Vec<EndpointDescription> {
        let cert_der = self.config.certificate.as_ref().map(|c| c.to_der());
        let app = self.application_description();
        self.config
            .endpoints
            .iter()
            .map(|ep| EndpointDescription {
                endpoint_url: Some(self.config.endpoint_url.clone()),
                server: app.clone(),
                server_certificate: cert_der.clone(),
                security_mode: ep.mode,
                security_policy_uri: Some(ep.policy.uri().to_string()),
                user_identity_tokens: self
                    .config
                    .token_types
                    .iter()
                    .map(|&t| UserTokenPolicy::new(t))
                    .collect(),
                transport_profile_uri: Some(TRANSPORT_PROFILE_BINARY.to_string()),
                security_level: ep.policy.strength().saturating_add(ep.mode.strength()),
            })
            .collect()
    }

    /// The server's application description.
    pub fn application_description(&self) -> ApplicationDescription {
        ApplicationDescription {
            application_uri: Some(self.config.application_uri.clone()),
            product_uri: None,
            application_name: LocalizedText::new(self.config.application_name.clone()),
            application_type: if self.config.is_discovery_server {
                ApplicationType::DiscoveryServer
            } else {
                ApplicationType::Server
            },
            gateway_server_uri: None,
            discovery_profile_uri: None,
            discovery_urls: vec![self.config.endpoint_url.clone()],
        }
    }

    /// Handles one decoded service request, producing the response body.
    pub fn handle_service(&self, body: ServiceBody, ctx: &ChannelContext) -> ServiceBody {
        match body {
            ServiceBody::GetEndpointsRequest(req) => {
                ServiceBody::GetEndpointsResponse(GetEndpointsResponse {
                    response_header: ResponseHeader::good(
                        req.request_header.request_handle,
                        self.now(),
                    ),
                    endpoints: self.endpoint_descriptions(),
                })
            }
            ServiceBody::FindServersRequest(req) => {
                let mut servers = vec![self.application_description()];
                for url in &self.config.referenced_endpoints {
                    let mut app = ApplicationDescription::server(
                        format!("urn:referenced:{url}"),
                        "Referenced Server",
                    );
                    app.discovery_urls = vec![url.clone()];
                    servers.push(app);
                }
                ServiceBody::FindServersResponse(FindServersResponse {
                    response_header: ResponseHeader::good(
                        req.request_header.request_handle,
                        self.now(),
                    ),
                    servers,
                })
            }
            ServiceBody::CreateSessionRequest(req) => self.create_session(req, ctx),
            ServiceBody::ActivateSessionRequest(req) => self.activate_session(req),
            ServiceBody::CloseSessionRequest(req) => {
                let mut st = self.state();
                st.sessions.remove(&req.request_header.authentication_token);
                ServiceBody::CloseSessionResponse(CloseSessionResponse {
                    response_header: ResponseHeader::good(
                        req.request_header.request_handle,
                        self.now(),
                    ),
                })
            }
            ServiceBody::BrowseRequest(req) => self.browse(req),
            ServiceBody::BrowseNextRequest(req) => self.browse_next(req),
            ServiceBody::ReadRequest(req) => self.read(req),
            ServiceBody::WriteRequest(req) => self.write(req),
            ServiceBody::CallRequest(req) => self.call(req),
            other => {
                // Requests we do not serve and stray responses.
                let handle = request_handle_of(&other);
                ServiceBody::ServiceFault(ServiceFault::new(
                    handle,
                    self.now(),
                    StatusCode::BAD_SERVICE_UNSUPPORTED,
                ))
            }
        }
    }

    fn create_session(
        &self,
        req: ua_proto::services::CreateSessionRequest,
        ctx: &ChannelContext,
    ) -> ServiceBody {
        let handle = req.request_header.request_handle;
        if self.config.broken_session_config {
            // Faulty/incomplete endpoint configuration (§5.4): sessions
            // cannot be created although endpoints are advertised.
            return ServiceBody::ServiceFault(ServiceFault::new(
                handle,
                self.now(),
                StatusCode::BAD_INTERNAL_ERROR,
            ));
        }
        let mut st = self.state();
        let session_no = st.next_session;
        st.next_session += 1;
        drop(st);

        let auth_token = NodeId::opaque(0, self.random_bytes(16));
        let session_id = NodeId::numeric(1, session_no as u32);
        let server_nonce = self.random_bytes(32);

        // Sign clientCertificate||clientNonce when we can (proof of
        // private-key possession; §5.3 relies on this mechanic).
        let server_signature = match (&self.config.private_key, &req.client_certificate) {
            (Some(key), Some(client_cert)) => {
                let mut signed = client_cert.clone();
                if let Some(nonce) = &req.client_nonce {
                    signed.extend_from_slice(nonce);
                }
                let hash = ctx
                    .policy
                    .signature_hash()
                    .map(hash_for)
                    .unwrap_or(HashAlgorithm::Sha256);
                SignatureData {
                    algorithm: Some(format!("{:?}", hash)),
                    signature: Some(key.sign(hash, &signed)),
                }
            }
            _ => SignatureData::default(),
        };

        let mut st = self.state();
        st.sessions.insert(
            auth_token.clone(),
            Session {
                session_id: session_id.clone(),
                activated: None,
                continuations: HashMap::new(),
                next_continuation: 1,
            },
        );
        drop(st);

        ServiceBody::CreateSessionResponse(CreateSessionResponse {
            response_header: ResponseHeader::good(handle, self.now()),
            session_id,
            authentication_token: auth_token,
            revised_session_timeout: 120_000.0,
            server_nonce: Some(server_nonce),
            server_certificate: self.config.certificate.as_ref().map(|c| c.to_der()),
            server_endpoints: self.endpoint_descriptions(),
            server_signature,
            max_request_message_size: 1 << 20,
        })
    }

    fn activate_session(&self, req: ua_proto::services::ActivateSessionRequest) -> ServiceBody {
        let handle = req.request_header.request_handle;
        let token = &req.request_header.authentication_token;
        let mut st = self.state();
        let Some(session) = st.sessions.get_mut(token) else {
            return ServiceBody::ServiceFault(ServiceFault::new(
                handle,
                self.now(),
                StatusCode::BAD_SESSION_ID_INVALID,
            ));
        };

        let identity = match IdentityToken::from_extension_object(&req.user_identity_token) {
            Ok(t) => t,
            Err(_) => {
                return ServiceBody::ServiceFault(ServiceFault::new(
                    handle,
                    self.now(),
                    StatusCode::BAD_IDENTITY_TOKEN_INVALID,
                ))
            }
        };

        let user = match identity {
            IdentityToken::Anonymous { .. } => {
                if self.config.allows_anonymous() && !self.config.broken_session_config {
                    Some(UserClass::Anonymous)
                } else {
                    None
                }
            }
            IdentityToken::UserName {
                user_name,
                password,
                ..
            } => {
                let name = user_name.unwrap_or_default();
                let password = password
                    .map(|p| String::from_utf8_lossy(&p).into_owned())
                    .unwrap_or_default();
                if self.config.token_types.contains(&UserTokenType::UserName)
                    && self.config.check_credentials(&name, &password)
                {
                    Some(UserClass::Authenticated)
                } else {
                    None
                }
            }
            // No client certificates or issued tokens are trusted in the
            // fleet configuration (the scanner's self-signed identity is
            // exactly what operators should reject).
            IdentityToken::X509 { .. } | IdentityToken::Issued { .. } => None,
        };

        match user {
            Some(user) => {
                session.activated = Some(user);
                ServiceBody::ActivateSessionResponse(ActivateSessionResponse {
                    response_header: ResponseHeader::good(handle, self.now()),
                    server_nonce: Some(self.random_bytes(32)),
                    results: Vec::new(),
                })
            }
            None => ServiceBody::ServiceFault(ServiceFault::new(
                handle,
                self.now(),
                StatusCode::BAD_IDENTITY_TOKEN_REJECTED,
            )),
        }
    }

    /// Resolves the active user of the session owning `token`.
    fn session_user(&self, token: &NodeId) -> Result<UserClass, StatusCode> {
        let st = self.state();
        match st.sessions.get(token) {
            None => Err(StatusCode::BAD_SESSION_ID_INVALID),
            Some(Session {
                activated: None, ..
            }) => Err(StatusCode::BAD_SESSION_NOT_ACTIVATED),
            Some(Session {
                activated: Some(user),
                ..
            }) => Ok(user.clone()),
        }
    }

    fn browse(&self, req: ua_proto::services::BrowseRequest) -> ServiceBody {
        let handle = req.request_header.request_handle;
        let user = match self.session_user(&req.request_header.authentication_token) {
            Ok(u) => u,
            Err(status) => {
                return ServiceBody::ServiceFault(ServiceFault::new(handle, self.now(), status))
            }
        };
        let _ = user; // browsing is structure-only; rights apply to attributes
        let cap = if req.requested_max_references_per_node == 0 {
            self.config.max_references_per_browse as usize
        } else {
            (req.requested_max_references_per_node as usize)
                .min(self.config.max_references_per_browse as usize)
        };

        let space = self.space_read();
        let mut results = Vec::with_capacity(req.nodes_to_browse.len());
        let mut pending: Vec<(NodeId, usize)> = Vec::new();
        for desc in &req.nodes_to_browse {
            let Some((page, more)) = browse_page(&space, &desc.node_id, 0, cap) else {
                results.push(BrowseResult {
                    status_code: StatusCode::BAD_NODE_ID_UNKNOWN,
                    continuation_point: None,
                    references: Vec::new(),
                });
                continue;
            };
            let continuation_point = more.then(|| {
                pending.push((desc.node_id.clone(), cap));
                // Placeholder, patched below once we can borrow state.
                vec![0u8; 8]
            });
            results.push(BrowseResult {
                status_code: StatusCode::GOOD,
                continuation_point,
                references: page,
            });
        }
        drop(space);

        // Register continuation points (needs the session lock).
        if !pending.is_empty() {
            let mut st = self.state();
            if let Some(session) = st
                .sessions
                .get_mut(&req.request_header.authentication_token)
            {
                let mut iter = pending.into_iter();
                for result in results.iter_mut() {
                    if result.continuation_point.is_some() {
                        // ua-lint: allow(panic-hygiene) -- one pending entry was pushed per continuation placeholder
                        let (node, offset) = iter.next().expect("pending matches placeholders");
                        let id = session.next_continuation;
                        session.next_continuation += 1;
                        let cp = id.to_le_bytes().to_vec();
                        session
                            .continuations
                            .insert(cp.clone(), Continuation { node, offset });
                        result.continuation_point = Some(cp);
                    }
                }
            }
        }

        ServiceBody::BrowseResponse(BrowseResponse {
            response_header: ResponseHeader::good(handle, self.now()),
            results,
        })
    }

    fn browse_next(&self, req: ua_proto::services::BrowseNextRequest) -> ServiceBody {
        let handle = req.request_header.request_handle;
        if let Err(status) = self.session_user(&req.request_header.authentication_token) {
            return ServiceBody::ServiceFault(ServiceFault::new(handle, self.now(), status));
        }
        let cap = self.config.max_references_per_browse as usize;
        let space = self.space_read();
        let mut st = self.state();
        let Some(session) = st
            .sessions
            .get_mut(&req.request_header.authentication_token)
        else {
            return ServiceBody::ServiceFault(ServiceFault::new(
                handle,
                self.now(),
                StatusCode::BAD_SESSION_ID_INVALID,
            ));
        };

        let mut results = Vec::with_capacity(req.continuation_points.len());
        for cp in &req.continuation_points {
            let Some(cont) = session.continuations.remove(cp) else {
                results.push(BrowseResult {
                    status_code: StatusCode::BAD_CONTINUATION_POINT_INVALID,
                    continuation_point: None,
                    references: Vec::new(),
                });
                continue;
            };
            if req.release_continuation_points {
                results.push(BrowseResult {
                    status_code: StatusCode::GOOD,
                    continuation_point: None,
                    references: Vec::new(),
                });
                continue;
            }
            let (page, more) =
                browse_page(&space, &cont.node, cont.offset, cap).unwrap_or_default();
            let continuation_point = more.then(|| {
                let id = session.next_continuation;
                session.next_continuation += 1;
                let new_cp = id.to_le_bytes().to_vec();
                session.continuations.insert(
                    new_cp.clone(),
                    Continuation {
                        node: cont.node.clone(),
                        offset: cont.offset + cap,
                    },
                );
                new_cp
            });
            results.push(BrowseResult {
                status_code: StatusCode::GOOD,
                continuation_point,
                references: page,
            });
        }

        ServiceBody::BrowseNextResponse(BrowseNextResponse {
            response_header: ResponseHeader::good(handle, self.now()),
            results,
        })
    }

    fn read(&self, req: ua_proto::services::ReadRequest) -> ServiceBody {
        let handle = req.request_header.request_handle;
        let user = match self.session_user(&req.request_header.authentication_token) {
            Ok(u) => u,
            Err(status) => {
                return ServiceBody::ServiceFault(ServiceFault::new(handle, self.now(), status))
            }
        };
        let space = self.space_read();
        let results = req
            .nodes_to_read
            .iter()
            .map(|rv| match AttributeId::from_id(rv.attribute_id) {
                None => DataValue::error(StatusCode::BAD_ATTRIBUTE_ID_INVALID),
                Some(attr) => space.read_attribute(&rv.node_id, attr, &user),
            })
            .collect();
        ServiceBody::ReadResponse(ReadResponse {
            response_header: ResponseHeader::good(handle, self.now()),
            results,
        })
    }

    fn write(&self, req: ua_proto::services::WriteRequest) -> ServiceBody {
        let handle = req.request_header.request_handle;
        let user = match self.session_user(&req.request_header.authentication_token) {
            Ok(u) => u,
            Err(status) => {
                return ServiceBody::ServiceFault(ServiceFault::new(handle, self.now(), status))
            }
        };
        let mut space = self.space_write();
        let results = req
            .nodes_to_write
            .iter()
            .map(|wv| {
                if wv.attribute_id != AttributeId::Value.id() {
                    return StatusCode::BAD_ATTRIBUTE_ID_INVALID;
                }
                match &wv.value.value {
                    None => StatusCode::BAD_ATTRIBUTE_ID_INVALID,
                    Some(v) => Arc::make_mut(&mut space).write_value(&wv.node_id, v.clone(), &user),
                }
            })
            .collect();
        ServiceBody::WriteResponse(WriteResponse {
            response_header: ResponseHeader::good(handle, self.now()),
            results,
        })
    }

    fn call(&self, req: ua_proto::services::CallRequest) -> ServiceBody {
        let handle = req.request_header.request_handle;
        let user = match self.session_user(&req.request_header.authentication_token) {
            Ok(u) => u,
            Err(status) => {
                return ServiceBody::ServiceFault(ServiceFault::new(handle, self.now(), status))
            }
        };
        let space = self.space_read();
        let results = req
            .methods_to_call
            .iter()
            .map(|call| CallMethodResult {
                status_code: space.call_method(&call.method_id, &user),
                input_argument_results: Vec::new(),
                output_arguments: Vec::new(),
            })
            .collect();
        ServiceBody::CallResponse(CallResponse {
            response_header: ResponseHeader::good(handle, self.now()),
            results,
        })
    }
}

/// One page of `node`'s forward references from `offset` on, at most
/// `cap` of them, and whether more follow; `None` when `node` is
/// unknown. Each description is built straight from the target node.
fn browse_page(
    space: &AddressSpace,
    node: &NodeId,
    offset: usize,
    cap: usize,
) -> Option<(Vec<ReferenceDescription>, bool)> {
    let mut refs = space.browse(node)?.skip(offset);
    let page = refs
        .by_ref()
        .take(cap)
        .map(|(reference_type, target)| reference_description(reference_type, target))
        .collect();
    Some((page, refs.next().is_some()))
}

/// The wire description of a forward reference of type
/// `reference_type` (namespace 0) to `target`.
fn reference_description(reference_type: u32, target: &Node) -> ReferenceDescription {
    ReferenceDescription {
        reference_type_id: NodeId::numeric(0, reference_type),
        is_forward: true,
        node_id: ExpandedNodeId::local(target.node_id().clone()),
        browse_name: target.browse_name.clone(),
        display_name: target.display_name(),
        node_class: target.node_class,
        type_definition: ExpandedNodeId::local(NodeId::numeric(0, target.type_definition)),
    }
}

/// Extracts a request handle for faulting unsupported messages.
fn request_handle_of(body: &ServiceBody) -> u32 {
    match body {
        ServiceBody::CloseSecureChannelRequest(r) => r.request_header.request_handle,
        ServiceBody::OpenSecureChannelRequest(r) => r.request_header.request_handle,
        _ => 0,
    }
}
