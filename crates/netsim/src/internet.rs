//! The simulated IPv4 Internet: hosts, listeners, and connections.
//!
//! Smoltcp-style poll-driven design: a server registers a [`Service`]
//! factory on `(ip, port)`; each accepted connection is a byte-level
//! state machine ([`Connection`]) that consumes client bytes and emits
//! reply bytes. No threads, no async runtime — determinism first.

use crate::asn::AsRegistry;
use crate::cidr::{AddrHash, Ipv4};
use crate::clock::VirtualClock;
use crate::faults::{ConnectFate, CutConn, NetProfile, ProfileProvider, TarpitConn};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// What a connection state machine produced for one input.
#[derive(Debug, Default)]
pub struct ConnectionOutput {
    /// Bytes to deliver back to the peer.
    pub reply: Vec<u8>,
    /// True when the server closes the connection after this reply.
    pub close: bool,
}

impl ConnectionOutput {
    /// Reply without closing.
    pub fn reply(bytes: Vec<u8>) -> Self {
        ConnectionOutput {
            reply: bytes,
            close: false,
        }
    }

    /// Reply and close.
    pub fn close_with(bytes: Vec<u8>) -> Self {
        ConnectionOutput {
            reply: bytes,
            close: true,
        }
    }

    /// No output, keep open.
    pub fn empty() -> Self {
        Self::default()
    }
}

/// A per-connection byte-level state machine.
pub trait Connection: Send {
    /// Feeds bytes received from the peer.
    fn on_data(&mut self, data: &[u8]) -> ConnectionOutput;
}

/// A listener that accepts connections.
pub trait Service: Send + Sync {
    /// Opens a new connection state machine for an accepted client.
    fn open_connection(&self, peer: Ipv4) -> Box<dyn Connection>;
}

/// Why a connect attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectError {
    /// No host answers at this address (SYN timeout).
    NoRoute,
    /// Host exists but nothing listens on the port (RST).
    Refused,
    /// A rate-limiting middlebox dropped the SYN and penalized the
    /// source — the scan-detection signature a retry layer should back
    /// off on (see [`crate::faults::FirewallProfile`]).
    Throttled,
    /// The peer accepted and then stalled without ever sending a byte
    /// (a silent tarpit): the connect burned the stall budget and never
    /// yielded a usable stream.
    Stalled,
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectError::NoRoute => write!(f, "no route to host (timeout)"),
            ConnectError::Refused => write!(f, "connection refused"),
            ConnectError::Throttled => write!(f, "rate-limited (SYN dropped by middlebox)"),
            ConnectError::Stalled => write!(f, "accepted then stalled (tarpit)"),
        }
    }
}

impl std::error::Error for ConnectError {}

/// How long a scanner waits for silence before declaring a SYN dead —
/// the virtual cost [`Internet::connect`] charges on [`ConnectError::NoRoute`].
pub const SYN_TIMEOUT_MICROS: u64 = 1_000_000;

struct HostEntry {
    services: HashMap<u16, Arc<dyn Service>>,
    rtt_micros: u32,
}

/// What a SYN to one `(addr, port)` finds: the answer of
/// [`Internet`]'s SYN and of a [`HostResolver`] alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortState {
    /// No host at the address: the SYN times out.
    NoHost,
    /// A host, but nothing listens on the port: RST.
    Closed,
    /// Something listens on the port: SYN-ACK.
    Open,
}

/// Answers for the hosts the bound host table does not hold.
///
/// A resolver is the hook behind lazy worlds: the sweep and the probe
/// stack ask the Internet for listeners, SYN-probe and call
/// [`Internet::connect`] as if every host were bound, and the resolver
/// answers from its own record of the world (a lazy world reads its
/// fates and probes one address map). It is the only home of the hosts
/// it builds: it builds a host the first time a connect reaches it and
/// serves it from then on, and nothing of it enters the bound table.
///
/// Contract:
/// * `syn` and `listeners` must be side-effect free: they build
///   nothing. The bound table's answer for an address it holds
///   overrides the resolver's.
/// * `listeners(port)` returns exactly the addresses whose `syn` on
///   `port` answers [`PortState::Open`], each once, in any order. A
///   sweep asks it once ([`crate::SweepPlan`]), so its cost should
///   follow the world's hosts, not the universe's addresses.
/// * `syn` answers [`PortState::NoHost`] exactly when no host sits at
///   the address, whatever the port: [`Internet::host_exists`] asks it
///   that way.
/// * Answers must be fixed for a scan's duration, and `route` must
///   agree with `syn`, or probes become non-deterministic. The sweep
///   plans its targets before its first probe, so an answer given for
///   an unbuilt host must still hold when its probe connects and
///   builds it.
/// * `route` builds the host on first contact and must tolerate races:
///   probe workers call it concurrently, so a racing second build of
///   the same host is discarded, never served.
pub trait HostResolver: Send + Sync {
    /// What a SYN to `(addr, port)` finds. Must not build anything.
    fn syn(&self, addr: Ipv4, port: u16) -> PortState;
    /// Every address where a SYN to `port` finds a listener. Must not
    /// build anything.
    fn listeners(&self, port: u16) -> Vec<Ipv4>;
    /// Where a connect to `(addr, port)` goes, building the host at
    /// `addr` on first contact; [`Route::Dead`] when nothing sits there.
    fn route(&self, addr: Ipv4, port: u16) -> Route;
}

/// The bound hosts by address. A SYN and a connect each probe it once,
/// so it hashes with [`AddrHash`]'s one multiply instead of std's
/// SipHash.
type HostTable = HashMap<u32, HostEntry, AddrHash>;

/// The simulated Internet. Cheap to clone (shared interior).
#[derive(Clone)]
pub struct Internet {
    clock: VirtualClock,
    hosts: Arc<RwLock<HostTable>>,
    registry: Arc<RwLock<AsRegistry>>,
    resolver: Arc<RwLock<Option<Arc<dyn HostResolver>>>>,
    profiles: Arc<RwLock<Option<Arc<dyn ProfileProvider>>>>,
}

impl Internet {
    /// Creates an empty Internet on `clock`.
    pub fn new(clock: VirtualClock) -> Self {
        Internet {
            clock,
            hosts: Arc::new(RwLock::new(HostTable::default())),
            registry: Arc::new(RwLock::new(AsRegistry::new())),
            resolver: Arc::new(RwLock::new(None)),
            profiles: Arc::new(RwLock::new(None)),
        }
    }

    /// The shared clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Lock-poisoning policy, centralized: every guard scope in this
    /// file is a short table read or update, so a poisoned lock means
    /// another worker already panicked mid-simulation. Surfacing that
    /// as a typed error would bury the original panic — propagate.
    fn hosts_read(&self) -> std::sync::RwLockReadGuard<'_, HostTable> {
        // ua-lint: allow(panic-hygiene) -- poisoned host table: a peer panicked; propagate it
        self.hosts.read().unwrap()
    }

    fn hosts_write(&self) -> std::sync::RwLockWriteGuard<'_, HostTable> {
        // ua-lint: allow(panic-hygiene) -- poisoned host table: a peer panicked; propagate it
        self.hosts.write().unwrap()
    }

    fn registry_read(&self) -> std::sync::RwLockReadGuard<'_, AsRegistry> {
        // ua-lint: allow(panic-hygiene) -- poisoned registry: a peer panicked; propagate it
        self.registry.read().unwrap()
    }

    /// A view of the same Internet (shared hosts and AS registry) driven
    /// by a different clock. Connections opened through the view charge
    /// their latency to `clock` instead of the shared one — this is how
    /// sharded scans probe hosts on independent forked clocks without
    /// the workers racing on shared time.
    pub fn with_clock(&self, clock: VirtualClock) -> Internet {
        Internet {
            clock,
            hosts: Arc::clone(&self.hosts),
            registry: Arc::clone(&self.registry),
            resolver: Arc::clone(&self.resolver),
            profiles: Arc::clone(&self.profiles),
        }
    }

    /// Installs a [`HostResolver`] that backs the host table with a lazy
    /// world: it answers SYNs and connects for every address the bound
    /// table does not hold, and builds and serves its hosts itself.
    /// Shared by all clock views ([`Internet::with_clock`]), so sharded
    /// scan workers see the same lazy world. Replaces the previous
    /// resolver, and with it drops the previous world and every host
    /// that world built: one Internet serves one world.
    pub fn set_resolver(&self, resolver: Arc<dyn HostResolver>) {
        // ua-lint: allow(panic-hygiene) -- poisoned resolver slot: a peer panicked; propagate it
        *self.resolver.write().unwrap() = Some(resolver);
    }

    fn resolver(&self) -> Option<Arc<dyn HostResolver>> {
        // ua-lint: allow(panic-hygiene) -- poisoned resolver slot: a peer panicked; propagate it
        self.resolver.read().unwrap().clone()
    }

    /// Installs a [`ProfileProvider`]: every subsequent connect consults
    /// it for middlebox faults (loss, tarpits, rate limiting). Shared by
    /// all clock views ([`Internet::with_clock`]), so sharded scan
    /// workers face identical hostility. Without one the Internet stays
    /// polite — every attempt [`ConnectFate::Deliver`]s.
    pub fn set_profiles(&self, profiles: Arc<dyn ProfileProvider>) {
        // ua-lint: allow(panic-hygiene) -- poisoned profile slot: a peer panicked; propagate it
        *self.profiles.write().unwrap() = Some(profiles);
    }

    fn profiles(&self) -> Option<Arc<dyn ProfileProvider>> {
        // ua-lint: allow(panic-hygiene) -- poisoned profile slot: a peer panicked; propagate it
        self.profiles.read().unwrap().clone()
    }

    /// The network profile guarding `addr` (polite when no provider is
    /// installed or the provider does not list the address).
    pub fn profile_of(&self, addr: Ipv4) -> NetProfile {
        self.profiles()
            .map_or_else(NetProfile::polite, |p| p.profile_of(addr))
    }

    /// Replaces the AS registry.
    pub fn set_registry(&self, registry: AsRegistry) {
        // ua-lint: allow(panic-hygiene) -- poisoned registry: a peer panicked; propagate it
        *self.registry.write().unwrap() = registry;
    }

    /// AS number owning `addr` (0 if unannounced).
    pub fn as_number(&self, addr: Ipv4) -> u32 {
        self.registry_read().as_number(addr)
    }

    /// Adds (or replaces) a host with the given round-trip time.
    pub fn add_host(&self, addr: Ipv4, rtt_micros: u32) {
        self.hosts_write().insert(
            addr.0,
            HostEntry {
                services: HashMap::new(),
                rtt_micros,
            },
        );
    }

    /// Binds a service to `(addr, port)`; the host must exist.
    pub fn bind(&self, addr: Ipv4, port: u16, service: Arc<dyn Service>) {
        let mut hosts = self.hosts_write();
        let host = hosts
            .get_mut(&addr.0)
            // ua-lint: allow(panic-hygiene) -- binding to an unbound address is a caller bug
            .unwrap_or_else(|| panic!("bind on unknown host {addr}"));
        host.services.insert(port, service);
    }

    /// True if a host exists at `addr` — bound or resolver-known: a SYN
    /// to it would not time out, whatever the port.
    pub fn host_exists(&self, addr: Ipv4) -> bool {
        self.syn(addr, 0) != PortState::NoHost
    }

    /// SYN-probe semantics: does anything listen on `(addr, port)`?
    /// (No clock cost — probe pacing is accounted by the sweep.)
    pub fn has_listener(&self, addr: Ipv4, port: u16) -> bool {
        self.syn(addr, port) == PortState::Open
    }

    /// What a SYN to `(addr, port)` finds: a bound host answers from
    /// its service table, any other address from the resolver
    /// ([`PortState::NoHost`] when none is installed). Middlebox faults
    /// play no part: they strike a connect attempt, not a SYN. No clock
    /// cost, and the SYN never builds anything.
    fn syn(&self, addr: Ipv4, port: u16) -> PortState {
        // The table guard is gone before the resolver is asked.
        let bound = self.hosts_read().get(&addr.0).map(|host| {
            if host.services.contains_key(&port) {
                PortState::Open
            } else {
                PortState::Closed
            }
        });
        match bound {
            Some(state) => state,
            None => self
                .resolver()
                .map_or(PortState::NoHost, |r| r.syn(addr, port)),
        }
    }

    /// Every address where a SYN to `port` finds a listener, each once,
    /// in no particular order: the resolver's listeners, then the bound
    /// table's override, as in [`Internet::syn`]: an address the table
    /// holds answers from the table alone, so it is dropped from the
    /// resolver's list and listed again if its host listens on `port`.
    /// This is the only place the sweep decides between the two
    /// ([`crate::SweepPlan`] asks once per sweep). No clock cost, no
    /// side effects.
    pub(crate) fn listeners(&self, port: u16) -> Vec<Ipv4> {
        let mut out = self.resolver().map_or_else(Vec::new, |r| r.listeners(port));
        let hosts = self.hosts_read();
        out.retain(|addr| !hosts.contains_key(&addr.0));
        out.extend(
            hosts
                .iter()
                .filter(|(_, host)| host.services.contains_key(&port))
                .map(|(&addr, _)| Ipv4(addr)),
        );
        out
    }

    /// Number of hosts bound by hand ([`Internet::add_host`]). A
    /// resolver's hosts are not counted: the resolver serves them
    /// itself.
    pub fn host_count(&self) -> usize {
        self.hosts_read().len()
    }

    /// Route resolution, the fault-free half of a connect: what lives at
    /// `(to, port)`. The bound table answers for its hosts, the resolver
    /// for every other address (building the host on first contact),
    /// and with no resolver a miss is [`Route::Dead`]. A dead route is
    /// *routing* truth — "nothing answers" — and is deliberately kept
    /// apart from injected faults, which make a perfectly routable host
    /// look dead for one attempt.
    fn route_of(&self, to: Ipv4, port: u16) -> Route {
        // The table guard is gone before the resolver is asked.
        let bound = self.hosts_read().get(&to.0).map(|host| {
            let rtt_micros = host.rtt_micros;
            match host.services.get(&port) {
                Some(service) => Route::Listening {
                    rtt_micros,
                    service: Arc::clone(service),
                },
                None => Route::Refused { rtt_micros },
            }
        });
        match bound {
            Some(route) => route,
            None => self.resolver().map_or(Route::Dead, |r| r.route(to, port)),
        }
    }

    /// Opens a TCP-like connection, applying one RTT of virtual latency
    /// for the handshake. Equivalent to
    /// [`connect_attempt`](Internet::connect_attempt) with attempt 0.
    ///
    /// With a resolver installed, a connect to an address the bound
    /// table misses goes to the resolver, which builds the host on the
    /// lazy world's "first probe contact". Building is free on the
    /// virtual clock — only the handshake RTT is charged, exactly as in
    /// a world built up front.
    pub fn connect(
        &self,
        from: Ipv4,
        to: Ipv4,
        port: u16,
    ) -> Result<crate::stream::TcpStreamSim, ConnectError> {
        self.connect_attempt(from, to, port, 0)
    }

    /// [`connect`](Internet::connect) with an explicit attempt index
    /// for the middlebox fault layer: a retrying scanner passes 0, 1,
    /// 2… so per-attempt fates (flaky windows, firewall strikes, the
    /// loss coin) replay deterministically. Every fault advances this
    /// view's clock honestly:
    ///
    /// * lost SYN — [`SYN_TIMEOUT_MICROS`], [`ConnectError::NoRoute`];
    /// * firewall strike — the penalty wait, [`ConnectError::Throttled`];
    /// * silent tarpit — RTT + stall, [`ConnectError::Stalled`];
    /// * dribbling tarpit — RTT, then a stream whose every exchange
    ///   stalls (the caller's stage budget is what ends it).
    pub fn connect_attempt(
        &self,
        from: Ipv4,
        to: Ipv4,
        port: u16,
        attempt: u32,
    ) -> Result<crate::stream::TcpStreamSim, ConnectError> {
        let (rtt_micros, service) = match self.route_of(to, port) {
            Route::Listening {
                rtt_micros,
                service,
            } => (rtt_micros, Some(service)),
            Route::Refused { rtt_micros } => (rtt_micros, None),
            Route::Dead => {
                // SYN timeout: a scanner waits ~1s for silence. No
                // profile consulted — faulting a host that does not
                // exist would conflate routing truth with injected
                // hostility.
                self.clock.advance_micros(SYN_TIMEOUT_MICROS);
                return Err(ConnectError::NoRoute);
            }
        };
        let profile = self.profile_of(to);
        match profile.connect_fate(attempt) {
            ConnectFate::Deliver => {}
            ConnectFate::SynLost => {
                // Indistinguishable from a dead address on the wire.
                self.clock.advance_micros(SYN_TIMEOUT_MICROS);
                return Err(ConnectError::NoRoute);
            }
            ConnectFate::Throttled { penalty_micros } => {
                self.clock.advance_micros(penalty_micros);
                return Err(ConnectError::Throttled);
            }
            ConnectFate::Tarpit(tarpit) => {
                if service.is_some() {
                    if tarpit.dribble_bytes == 0 {
                        self.clock
                            .advance_micros(u64::from(rtt_micros) + tarpit.stall_micros);
                        return Err(ConnectError::Stalled);
                    }
                    self.clock.advance_micros(u64::from(rtt_micros));
                    return Ok(crate::stream::TcpStreamSim::new(
                        self.clock.clone(),
                        Box::new(TarpitConn::new(self.clock.clone(), tarpit)),
                        rtt_micros,
                    ));
                }
                // Nothing listens behind the tarpit: plain RST below.
            }
        }
        let Some(service) = service else {
            // RST comes back after one RTT.
            self.clock.advance_micros(u64::from(rtt_micros));
            return Err(ConnectError::Refused);
        };
        let conn = service.open_connection(from);
        let conn: Box<dyn Connection> = if profile.cut_after_exchanges > 0 {
            Box::new(CutConn::new(conn, profile.cut_after_exchanges))
        } else {
            conn
        };
        self.clock.advance_micros(u64::from(rtt_micros));
        Ok(crate::stream::TcpStreamSim::new(
            self.clock.clone(),
            conn,
            rtt_micros,
        ))
    }
}

/// Where a connect to one `(addr, port)` goes, before any middlebox
/// fault applies: the one answer of the bound table and of a
/// [`HostResolver`] alike.
pub enum Route {
    /// A service listens: a fault-free connect opens it after one RTT.
    Listening {
        /// Round-trip time of the host.
        rtt_micros: u32,
        /// The listener a connect opens a connection on.
        service: Arc<dyn Service>,
    },
    /// The host is up but the port is closed: RST after one RTT.
    Refused {
        /// Round-trip time of the host.
        rtt_micros: u32,
    },
    /// Nothing answers: the SYN times out.
    Dead,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo service for tests.
    struct Echo;
    struct EchoConn;
    impl Connection for EchoConn {
        fn on_data(&mut self, data: &[u8]) -> ConnectionOutput {
            ConnectionOutput::reply(data.to_vec())
        }
    }
    impl Service for Echo {
        fn open_connection(&self, _peer: Ipv4) -> Box<dyn Connection> {
            Box::new(EchoConn)
        }
    }

    #[test]
    fn connect_routes_and_errors() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let ip = Ipv4::new(198, 51, 100, 1);
        net.add_host(ip, 10_000);
        net.bind(ip, 4840, Arc::new(Echo));

        assert!(net.host_exists(ip));
        assert!(net.has_listener(ip, 4840));
        assert!(!net.has_listener(ip, 80));

        // Refused on closed port.
        assert_eq!(
            net.connect(Ipv4::new(1, 1, 1, 1), ip, 80).err(),
            Some(ConnectError::Refused)
        );
        // No route to unknown host.
        assert_eq!(
            net.connect(Ipv4::new(1, 1, 1, 1), Ipv4::new(9, 9, 9, 9), 4840)
                .err(),
            Some(ConnectError::NoRoute)
        );
        // Success.
        let mut stream = net.connect(Ipv4::new(1, 1, 1, 1), ip, 4840).unwrap();
        stream.send(b"ping").unwrap();
        assert_eq!(stream.recv().unwrap(), Some(b"ping".to_vec()));
    }

    #[test]
    fn latency_advances_clock() {
        let clock = VirtualClock::starting_at(0);
        let net = Internet::new(clock.clone());
        let ip = Ipv4::new(10, 0, 0, 1);
        net.add_host(ip, 50_000); // 50 ms RTT
        net.bind(ip, 4840, Arc::new(Echo));
        let before = clock.now_micros();
        let _ = net.connect(Ipv4::new(1, 1, 1, 1), ip, 4840).unwrap();
        assert!(clock.now_micros() >= before + 50_000);
        // A closed port costs exactly the RTT its RST takes.
        let before = clock.now_micros();
        assert_eq!(
            net.connect(Ipv4::new(1, 1, 1, 1), ip, 80).err(),
            Some(ConnectError::Refused)
        );
        assert_eq!(clock.now_micros() - before, 50_000);
    }

    #[test]
    fn syn_timeout_costs_a_second() {
        let clock = VirtualClock::starting_at(0);
        let net = Internet::new(clock.clone());
        let _ = net.connect(Ipv4::new(1, 1, 1, 1), Ipv4::new(2, 2, 2, 2), 4840);
        assert_eq!(clock.now_micros(), 1_000_000);
    }

    #[test]
    fn resolver_backs_table_misses_and_materializes_on_connect() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::OnceLock;
        struct LazyEcho {
            target: Ipv4,
            built: AtomicUsize,
            listener: OnceLock<Arc<dyn Service>>,
        }
        impl HostResolver for LazyEcho {
            fn syn(&self, addr: Ipv4, port: u16) -> PortState {
                match (addr == self.target, port == 4840) {
                    (false, _) => PortState::NoHost,
                    (true, false) => PortState::Closed,
                    (true, true) => PortState::Open,
                }
            }
            fn listeners(&self, port: u16) -> Vec<Ipv4> {
                if port == 4840 {
                    vec![self.target]
                } else {
                    Vec::new()
                }
            }
            fn route(&self, addr: Ipv4, port: u16) -> Route {
                if addr != self.target {
                    return Route::Dead;
                }
                let service = self.listener.get_or_init(|| {
                    self.built.fetch_add(1, Ordering::SeqCst);
                    Arc::new(Echo)
                });
                match port {
                    4840 => Route::Listening {
                        rtt_micros: 5_000,
                        service: Arc::clone(service),
                    },
                    _ => Route::Refused { rtt_micros: 5_000 },
                }
            }
        }
        let net = Internet::new(VirtualClock::starting_at(0));
        let target = Ipv4::new(10, 9, 9, 9);
        let resolver = Arc::new(LazyEcho {
            target,
            built: AtomicUsize::new(0),
            listener: OnceLock::new(),
        });
        net.set_resolver(resolver.clone());

        // SYN probes answer from the predicate without building.
        assert!(net.has_listener(target, 4840));
        assert!(!net.has_listener(target, 80));
        assert_eq!(net.listeners(4840), vec![target]);
        assert_eq!(net.listeners(80), Vec::new());
        assert!(net.host_exists(target));
        assert!(!net.host_exists(Ipv4::new(10, 9, 9, 8)));
        assert_eq!(resolver.built.load(Ordering::SeqCst), 0);

        // First contact builds exactly once; afterwards the resolver
        // serves the host it built, and the bound table stays empty.
        let mut s = net.connect(Ipv4::new(1, 1, 1, 1), target, 4840).unwrap();
        s.send(b"hi").unwrap();
        assert_eq!(s.recv().unwrap(), Some(b"hi".to_vec()));
        assert_eq!(resolver.built.load(Ordering::SeqCst), 1);
        let _ = net.connect(Ipv4::new(1, 1, 1, 1), target, 4840).unwrap();
        assert_eq!(
            net.connect(Ipv4::new(1, 1, 1, 1), target, 80).err(),
            Some(ConnectError::Refused)
        );
        assert_eq!(resolver.built.load(Ordering::SeqCst), 1);
        assert_eq!(net.host_count(), 0);

        // Clock views share the resolver.
        let view = net.with_clock(VirtualClock::starting_at(0));
        assert!(view.has_listener(target, 4840));
        assert!(view.connect(Ipv4::new(1, 1, 1, 1), target, 4840).is_ok());
        assert_eq!(resolver.built.load(Ordering::SeqCst), 1);

        // Addresses the resolver disowns still time out.
        assert_eq!(
            net.connect(Ipv4::new(1, 1, 1, 1), Ipv4::new(10, 9, 9, 8), 4840)
                .err(),
            Some(ConnectError::NoRoute)
        );
        assert_eq!(net.host_count(), 0);
    }

    #[test]
    fn syn_and_listeners_let_the_bound_table_override_the_resolver() {
        /// A resolver whose hosts all listen on 4840.
        struct Listeners(Vec<Ipv4>);
        impl HostResolver for Listeners {
            fn syn(&self, addr: Ipv4, port: u16) -> PortState {
                match (self.0.contains(&addr), port == 4840) {
                    (false, _) => PortState::NoHost,
                    (true, false) => PortState::Closed,
                    (true, true) => PortState::Open,
                }
            }
            fn listeners(&self, port: u16) -> Vec<Ipv4> {
                if port == 4840 {
                    self.0.clone()
                } else {
                    Vec::new()
                }
            }
            fn route(&self, _addr: Ipv4, _port: u16) -> Route {
                Route::Dead
            }
        }
        let bound_closed = Ipv4::new(10, 0, 0, 1);
        let bound_open = Ipv4::new(10, 0, 0, 2);
        let resolver_only = Ipv4::new(10, 0, 0, 3);
        let empty = Ipv4::new(10, 0, 0, 4);
        let addrs = [bound_closed, bound_open, resolver_only, empty];
        let bind_table = |net: &Internet| {
            net.add_host(bound_closed, 1_000);
            net.bind(bound_closed, 80, Arc::new(Echo));
            net.add_host(bound_open, 1_000);
            net.bind(bound_open, 4840, Arc::new(Echo));
        };
        let syn = |net: &Internet| addrs.map(|addr| net.syn(addr, 4840));
        // `listeners` names exactly the addresses `syn` finds open.
        let assert_listeners_agree = |net: &Internet| {
            let mut listed = net.listeners(4840);
            listed.sort_unstable();
            let open: Vec<Ipv4> = addrs
                .into_iter()
                .filter(|&addr| net.syn(addr, 4840) == PortState::Open)
                .collect();
            assert_eq!(listed, open);
        };

        // The resolver calls `bound_closed` open and `bound_open` empty;
        // the table's answer wins for both.
        let net = Internet::new(VirtualClock::starting_at(0));
        bind_table(&net);
        net.set_resolver(Arc::new(Listeners(vec![bound_closed, resolver_only])));
        assert_eq!(
            syn(&net),
            [
                PortState::Closed,
                PortState::Open,
                PortState::Open,
                PortState::NoHost
            ]
        );
        assert_listeners_agree(&net);
        // A resolver that lists a bound listener too: still listed once.
        let net = Internet::new(VirtualClock::starting_at(0));
        bind_table(&net);
        net.set_resolver(Arc::new(Listeners(vec![bound_open, resolver_only])));
        assert_listeners_agree(&net);

        // Without a resolver only the table answers.
        let net = Internet::new(VirtualClock::starting_at(0));
        bind_table(&net);
        assert_eq!(
            syn(&net),
            [
                PortState::Closed,
                PortState::Open,
                PortState::NoHost,
                PortState::NoHost
            ]
        );
        assert_listeners_agree(&net);
    }

    #[test]
    fn fault_variants_pin_time_costs() {
        use crate::faults::{FirewallProfile, NetProfile, StaticProfiles, TarpitProfile};
        let clock = VirtualClock::starting_at(0);
        let net = Internet::new(clock.clone());
        let from = Ipv4::new(1, 1, 1, 1);
        let rtt = 10_000_u32;

        let throttled = Ipv4::new(10, 0, 0, 1);
        let flaky = Ipv4::new(10, 0, 0, 2);
        let silent_tarpit = Ipv4::new(10, 0, 0, 3);
        let drip_tarpit = Ipv4::new(10, 0, 0, 4);
        let walled = Ipv4::new(10, 0, 0, 5);
        for ip in [throttled, flaky, silent_tarpit, drip_tarpit, walled] {
            net.add_host(ip, rtt);
            net.bind(ip, 4840, Arc::new(Echo));
        }
        let stall = 30_000_000_u64;
        let penalty = 2_000_000_u64;
        let profiles = StaticProfiles::new()
            .with(
                throttled,
                NetProfile {
                    firewall: Some(FirewallProfile {
                        strikes: 1,
                        penalty_micros: penalty,
                    }),
                    ..NetProfile::polite()
                },
            )
            .with(
                flaky,
                NetProfile {
                    flaky_connects: 2,
                    ..NetProfile::polite()
                },
            )
            .with(
                silent_tarpit,
                NetProfile {
                    tarpit: Some(TarpitProfile {
                        stall_micros: stall,
                        dribble_bytes: 0,
                    }),
                    ..NetProfile::polite()
                },
            )
            .with(
                drip_tarpit,
                NetProfile {
                    tarpit: Some(TarpitProfile {
                        stall_micros: stall,
                        dribble_bytes: 4,
                    }),
                    ..NetProfile::polite()
                },
            )
            .with(
                walled,
                NetProfile {
                    firewall: Some(FirewallProfile::permanent(penalty)),
                    ..NetProfile::polite()
                },
            );
        net.set_profiles(Arc::new(profiles));

        // Firewall strike: penalty wait, Throttled; next attempt clean.
        let before = clock.now_micros();
        assert_eq!(
            net.connect_attempt(from, throttled, 4840, 0).err(),
            Some(ConnectError::Throttled)
        );
        assert_eq!(clock.now_micros() - before, penalty);
        let before = clock.now_micros();
        assert!(net.connect_attempt(from, throttled, 4840, 1).is_ok());
        assert_eq!(clock.now_micros() - before, u64::from(rtt));

        // Flaky window: two SYN timeouts, then a clean RTT.
        for attempt in 0..2 {
            let before = clock.now_micros();
            assert_eq!(
                net.connect_attempt(from, flaky, 4840, attempt).err(),
                Some(ConnectError::NoRoute)
            );
            assert_eq!(clock.now_micros() - before, SYN_TIMEOUT_MICROS);
        }
        let before = clock.now_micros();
        assert!(net.connect_attempt(from, flaky, 4840, 2).is_ok());
        assert_eq!(clock.now_micros() - before, u64::from(rtt));

        // Silent tarpit: RTT + stall, Stalled — on every attempt.
        for attempt in 0..2 {
            let before = clock.now_micros();
            assert_eq!(
                net.connect_attempt(from, silent_tarpit, 4840, attempt)
                    .err(),
                Some(ConnectError::Stalled)
            );
            assert_eq!(clock.now_micros() - before, u64::from(rtt) + stall);
        }

        // Dribbling tarpit: the connect succeeds after one RTT, but the
        // first exchange burns the stall and yields only zero dribble.
        let before = clock.now_micros();
        let mut s = net.connect_attempt(from, drip_tarpit, 4840, 0).unwrap();
        assert_eq!(clock.now_micros() - before, u64::from(rtt));
        let before = clock.now_micros();
        s.send(b"HELLO").unwrap();
        assert!(clock.now_micros() - before >= stall);
        assert_eq!(s.recv().unwrap(), Some(vec![0u8; 4]));

        // Permanent blocklisting: no attempt number gets through.
        for attempt in [0, 5, 1_000] {
            assert_eq!(
                net.connect_attempt(from, walled, 4840, attempt).err(),
                Some(ConnectError::Throttled)
            );
        }

        // Faults never fire for dead addresses: routing truth first.
        let before = clock.now_micros();
        assert_eq!(
            net.connect_attempt(from, Ipv4::new(9, 9, 9, 9), 4840, 3)
                .err(),
            Some(ConnectError::NoRoute)
        );
        assert_eq!(clock.now_micros() - before, SYN_TIMEOUT_MICROS);
    }
}
