//! The world engine: host *fates* evolve cheaply every week, host
//! *material* (keys, certificates, address spaces, server cores)
//! materializes only on first probe contact.
//!
//! [`WorldCore`] holds one [`HostFate`] per roster id — a few dozen
//! bytes of class/address/liveness/event-log state — plus a memo of
//! fully built [`HostDeployment`]s and one address map: every address
//! the world ever allocated, with who sits there now. The week-0
//! world is planned once, in one pass over the mix's roster: addresses
//! from [`crate::spec::WorldSpec`]'s seeded allocator, referral wiring
//! from [`crate::spec::plan_referrals`]. Departures, moves and arrivals
//! update the map, so it is the only occupancy record there is. The
//! core is the [`netsim::HostResolver`] of the Internet it deploys on:
//! it answers the sweep's "who sits here?" with one probe of that map
//! per address, builds a host the moment a connection first reaches
//! it, and serves it from the memo from then on. A built host lives
//! there alone; the Internet's host table never holds it. Every world
//! is built this way; [`crate::synthesize`] just materializes the whole
//! fleet at once.
//! Because every RNG-derived field is a pure function of
//! `(seed, host id, week)`, *when* a host is built never changes what
//! it is — the equivalence tests in the scanner crate diff full record
//! streams of fully built and never-forced worlds to prove it.
//!
//! A fate and the host built from it read one row of the class table
//! (`HostClass::profile`): certificate, `None` endpoint, keygens, role.
//!
//! Weekly churn splits the same way: *decisions* (who departs, moves,
//! renews, upgrades, remediates) are drawn per `(seed, week, id,
//! event-kind)` and recorded as [`MaterialEvent`]s on the fate;
//! *application* of an event runs immediately for materialized hosts
//! and is replayed — through the same `apply_event` — when a host
//! materializes later. Per-week cost is O(population), independent of
//! the universe size.

use crate::evolution::{host_week_seed, parse_version, ChurnConfig, ChurnEvent, WeekChurn};
use crate::spec::{mix64, plan_referrals, RefSpec, WorldSpec, DEAD_PORT_OFFSET};
use crate::{
    build_host, initial_version, pick_free_address, setup_registry, sim_root_ca, BuildParams,
    HostClass, HostDeployment, Key, Population, PopulationConfig, SharedSecrets, Synthesizer,
    ACTUAL_KEY_BITS, NONE,
};
use netsim::{
    AddrHash, Cidr, HostResolver, Internet, Ipv4, PortState, Route, Service, VirtualClock,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::Entry;
// ua-lint: allow(unordered-iteration) -- maps/sets here are key-lookup only; every iterated collection is a Vec or BTreeSet
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, RwLock};
use ua_addrspace::ids;
use ua_crypto::{CertificateBuilder, DistinguishedName, HashAlgorithm, RsaPrivateKey};
use ua_server::{EndpointConfig, UserAccount};
use ua_types::{MessageSecurityMode, NodeId, SecurityPolicy, UserTokenType, Variant};

/// Per-event-kind RNG salts: each weekly decision draws from its own
/// stream so replay at a later first build never has to skip draws
/// another decision consumed.
const SALT_DEPART: u64 = 0x4445_5054;
const SALT_MOVE: u64 = 0x4D4F_5645;
const SALT_RENEW: u64 = 0x524E_5557;
const SALT_VERSION: u64 = 0x5645_5253;
const SALT_FIX: u64 = 0x4649_5821;
const SALT_REMED_KEY: u64 = 0x524B_4559;

fn event_rng(seed: u64, week: u32, id: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(mix64(host_week_seed(seed, week, id) ^ salt))
}

/// Certificate-serial slots inside a host's per-week serial window
/// (see [`serial_for`]).
const SLOT_RENEWAL: u64 = 0;
const SLOT_REMED: u64 = 1;

/// Certificate serial for a weekly event: host `id` owns the disjoint
/// serial space `[(id+1)e6, (id+2)e6)`; synthesis consumes the first
/// few, week `w` events use `base + 8w + slot`. Order-independent and
/// collision-free by construction.
fn serial_for(id: u64, week: u32, slot: u64) -> u64 {
    (id + 1) * 1_000_000 + (week as u64) * 8 + slot
}

/// Materialization telemetry: how much of the world a campaign
/// actually touched. `hosts_materialized` tracks the hosts probes
/// reached (or the whole fleet, once a ground-truth exit built it),
/// never the universe size.
///
/// The resident estimate is the sum over materialized hosts of what
/// each one holds: its deployment record, its address space (node
/// table, references, id → index map, namespace array) and its server
/// config (strings, endpoint and token lists, users, certificate and
/// private key). The space and config are counted once, although the
/// listener's server core shares them. Each part is charged a fixed
/// size plus the lengths of what it owns, so the figure follows neither
/// the standard library's growth policy nor the toolchain's layouts;
/// allocator slack, hash-table buckets and the listener itself (its
/// server core and session state) are not in it. A host's figure
/// is taken when it materializes, follows every change churn makes to
/// it, and is taken back when it departs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaterializationStats {
    /// Hosts built so far (first probe contacts).
    pub hosts_materialized: u64,
    /// RSA key generations performed (the dominant build cost).
    pub keygen_count: u64,
    /// Bytes resident in materialized host material right now (see
    /// the type docs for what is counted).
    pub bytes_resident_estimate: u64,
    /// High-water mark of `bytes_resident_estimate`.
    pub peak_bytes_resident_estimate: u64,
}

impl MaterializationStats {
    /// Moves one host's share of the estimate from `before` to `after`
    /// bytes (0 while the host is not built) and raises the peak.
    fn recharge(&mut self, before: u64, after: u64) {
        self.bytes_resident_estimate = self.bytes_resident_estimate + after - before;
        self.peak_bytes_resident_estimate = self
            .peak_bytes_resident_estimate
            .max(self.bytes_resident_estimate);
    }
}

/// What a [`HostDeployment`] record itself is charged: its size on
/// 64-bit targets, fixed so the estimate does not move with the
/// toolchain (the footprint test checks the estimate against the live
/// heap).
const DEPLOYMENT_BYTES: usize = 176;

/// One host's resident bytes, as [`MaterializationStats`] counts them.
fn estimate_resident_bytes(dep: &HostDeployment) -> u64 {
    (DEPLOYMENT_BYTES
        + dep.truth.application_uri.len()
        + dep.config.resident_bytes()
        + dep.space.resident_bytes()) as u64
}

/// Who sits at an address the world allocated.
#[derive(Debug, Clone, Copy)]
enum Occupant {
    /// The host with this roster id. Ids fit a `u32`: every host was
    /// allocated an address of its own.
    Occupied(u32),
    /// Left by a departure or a move; never allocated again.
    Vacated,
}

/// A weekly event that changes a host's *material* and must be
/// replayed when the host materializes after the fact.
#[derive(Debug, Clone)]
enum MaterialEvent {
    Moved { from: Ipv4, to: Ipv4 },
    Renewed { week: u32 },
    SetVersion { to: String },
    Remediated { week: u32, minted_cert: bool },
    Regressed,
}

/// The cheap per-host state the engine keeps for *every* host, built
/// or not: O(events) memory, no crypto material.
#[derive(Debug, Clone)]
struct HostFate {
    class: HostClass,
    /// Address at deployment (what `build_host` sees; moves replay on
    /// top).
    initial_address: Ipv4,
    /// Current address.
    address: Ipv4,
    port: u16,
    alive: bool,
    /// Current software version (decisions need it; material replay
    /// re-derives it from events).
    version: String,
    has_cert: bool,
    has_none: bool,
    deploy_week: u32,
    /// Week whose epoch the listener's server core clock carries — the
    /// last week an event gave the host a new listener, or would have,
    /// had it been built.
    last_rebind_week: u32,
    refs: Vec<RefSpec>,
    events: Vec<MaterialEvent>,
}

impl HostFate {
    /// Host `id` of `class`, deployed in `week` at `address`: alive, at
    /// its initial version, with its class's certificate and `None`
    /// endpoint, and no events yet.
    fn new(
        seed: u64,
        id: u64,
        class: HostClass,
        address: Ipv4,
        port: u16,
        week: u32,
        refs: Vec<RefSpec>,
    ) -> HostFate {
        let profile = class.profile();
        HostFate {
            class,
            initial_address: address,
            address,
            port,
            alive: true,
            version: initial_version(seed, id),
            has_cert: profile.key != Key::None,
            has_none: profile.endpoints.contains(&NONE),
            deploy_week: week,
            last_rebind_week: week,
            refs,
            events: Vec::new(),
        }
    }
}

/// A built host: its deployment and the listener serving it.
struct BuiltHost {
    dep: HostDeployment,
    listener: Arc<dyn Service>,
}

impl BuiltHost {
    /// Where a connect to `port` on this host goes.
    fn route(&self, port: u16) -> Route {
        let rtt_micros = self.dep.rtt_micros;
        if port == self.dep.truth.port {
            Route::Listening {
                rtt_micros,
                service: Arc::clone(&self.listener),
            }
        } else {
            Route::Refused { rtt_micros }
        }
    }
}

struct CoreState {
    fates: Vec<HostFate>,
    /// Materialized hosts by id: the memo the world serves them from.
    // ua-lint: allow(unordered-iteration) -- keyed memo: accessed by id lookup, never iterated
    built: HashMap<u64, BuiltHost>,
    /// Every address the world ever allocated, and who sits there now:
    /// one entry per week-0 host, move and arrival, so O(hosts + churn)
    /// memory and nothing per universe address. The occupancy predicate
    /// is one probe, and allocation skips its keys, so a vacated
    /// address is never recycled.
    // ua-lint: allow(unordered-iteration) -- probed by address and for allocation, never iterated
    addrs: HashMap<u32, Occupant, AddrHash>,
    /// Epoch of each week seen so far (`week_nows[0]` = deployment).
    week_nows: Vec<i64>,
    arrival_cursor: usize,
    stats: MaterializationStats,
}

impl CoreState {
    /// The host currently occupying `addr`, if any: one map probe, no
    /// allocation.
    fn lookup(&self, addr: Ipv4) -> Option<u64> {
        match self.addrs.get(&addr.0)? {
            Occupant::Occupied(id) => Some(u64::from(*id)),
            Occupant::Vacated => None,
        }
    }

    /// Draws an address the world never allocated for host `id` and
    /// records it there.
    fn allocate(&mut self, rng: &mut StdRng, universe: &[Cidr], id: u64) -> Ipv4 {
        let allocated = self.addrs.len();
        pick_free_address(rng, universe, allocated, |addr| {
            match self.addrs.entry(addr.0) {
                Entry::Occupied(_) => false,
                Entry::Vacant(slot) => {
                    slot.insert(Occupant::Occupied(id as u32));
                    true
                }
            }
        })
    }

    /// Applies `change` to host `id` if it is materialized, keeping the
    /// resident estimate in step with what the host holds afterwards.
    fn change_host<T>(
        &mut self,
        id: u64,
        change: impl FnOnce(&mut HostDeployment) -> T,
    ) -> Option<T> {
        let dep = &mut self.built.get_mut(&id)?.dep;
        let before = estimate_resident_bytes(dep);
        let out = change(dep);
        self.stats.recharge(before, estimate_resident_bytes(dep));
        Some(out)
    }
}

/// The engine behind every world. See the module docs.
pub(crate) struct WorldCore {
    /// The campaign clock: `evolve_week` reads each week's epoch off it.
    /// The core holds no [`Internet`], which holds the core.
    clock: VirtualClock,
    seed: u64,
    sweep_port: u16,
    universe: Vec<Cidr>,
    shared: SharedSecrets,
    state: RwLock<CoreState>,
}

impl WorldCore {
    /// Derives the week-0 fates for `cfg` and installs the core as
    /// `net`'s resolver, which drops any previous one. Builds nothing.
    pub(crate) fn new(net: &Internet, cfg: &PopulationConfig) -> Arc<WorldCore> {
        let now = net.clock().now_unix_seconds();
        setup_registry(net, cfg);
        let spec = WorldSpec::new(cfg);
        let shared = SharedSecrets::generate(&mut Synthesizer::for_shared(cfg.seed), now);
        let roster = cfg.mix.expand();
        let plan = plan_referrals(cfg.seed, &roster);
        let mut fates = Vec::with_capacity(roster.len());
        // ua-lint: allow(unordered-iteration) -- the address map (see `CoreState::addrs`)
        let mut addrs = HashMap::with_capacity_and_hasher(roster.len(), AddrHash);
        for ((id, class), refs) in (0u64..).zip(roster).zip(plan) {
            let address = spec.address_of(id);
            addrs.insert(address.0, Occupant::Occupied(id as u32));
            let port = spec.port_of(class, id);
            fates.push(HostFate::new(cfg.seed, id, class, address, port, 0, refs));
        }
        let core = Arc::new(WorldCore {
            clock: net.clock().clone(),
            seed: cfg.seed,
            sweep_port: cfg.port,
            universe: cfg.universe.clone(),
            shared,
            state: RwLock::new(CoreState {
                fates,
                // ua-lint: allow(unordered-iteration) -- lookup-only map (see field docs)
                built: HashMap::new(),
                addrs,
                week_nows: vec![now],
                arrival_cursor: 0,
                stats: MaterializationStats::default(),
            }),
        });
        net.set_resolver(core.clone());
        core
    }

    /// Lock-poisoning policy, centralized: a poisoned state lock means
    /// a probe worker panicked mid-materialization and the world memo
    /// may be half-updated — propagating the panic is the only honest
    /// answer.
    fn state_read(&self) -> std::sync::RwLockReadGuard<'_, CoreState> {
        // ua-lint: allow(panic-hygiene) -- poisoned world state: a worker panicked; propagate it
        self.state.read().unwrap()
    }

    fn state_write(&self) -> std::sync::RwLockWriteGuard<'_, CoreState> {
        // ua-lint: allow(panic-hygiene) -- poisoned world state: a worker panicked; propagate it
        self.state.write().unwrap()
    }

    pub(crate) fn stats(&self) -> MaterializationStats {
        self.state_read().stats
    }

    pub(crate) fn roster_len(&self) -> usize {
        self.state_read().fates.len()
    }

    pub(crate) fn alive_count(&self) -> usize {
        let st = self.state_read();
        st.fates.iter().filter(|f| f.alive).count()
    }

    /// Ensures host `id` is built and answers `read` from its memo
    /// entry under the same lock. Builds run outside the state lock
    /// (they are pure, so a racing double-build is just discarded); the
    /// listener and the memo insert happen atomically under it.
    fn materialize<T>(&self, id: u64, read: impl FnOnce(&BuiltHost) -> T) -> T {
        if let Some(built) = self.state_read().built.get(&id) {
            return read(built);
        }
        let (dep, keygens) = self.build_current(id);
        let mut st = self.state_write();
        if let Some(built) = st.built.get(&id) {
            return read(built);
        }
        let listen_now = st.week_nows[st.fates[id as usize].last_rebind_week as usize];
        st.stats.hosts_materialized += 1;
        st.stats.keygen_count += keygens;
        st.stats.recharge(0, estimate_resident_bytes(&dep));
        let listener = dep.listener(listen_now);
        read(st.built.entry(id).or_insert(BuiltHost { dep, listener }))
    }

    /// Builds host `id` in its *current* state: `build_host` at the
    /// deployment address/epoch, then every recorded event replayed in
    /// order. Returns the deployment and the keygens performed.
    fn build_current(&self, id: u64) -> (HostDeployment, u64) {
        let (fate, referenced, week_nows) = {
            let st = self.state_read();
            (
                st.fates[id as usize].clone(),
                self.render_refs(&st, id),
                st.week_nows.clone(),
            )
        };
        let mut syn = Synthesizer::for_host(self.seed, id);
        let mut dep = build_host(
            &mut syn,
            &self.shared,
            BuildParams {
                class: fate.class,
                address: fate.initial_address,
                port: fate.port,
                referenced,
                id,
                seed: self.seed,
                now: week_nows[fate.deploy_week as usize],
            },
        );
        let mut keygens = fate.class.profile().key.keygens();
        for ev in &fate.events {
            keygens += apply_event(&mut dep, ev, id, &week_nows, &self.shared, self.seed);
        }
        (dep, keygens)
    }

    /// Renders a host's symbolic referrals to URLs from *current*
    /// addresses — identical to a built host's rewrite-on-move end
    /// state, since vacated addresses are never recycled. The
    /// self-referral is deliberately non-canonical (`OPC.TCP://…`, no
    /// trailing slash — URL-format variants the scanner must not treat
    /// as new servers), the dead port a stale registration, the
    /// internal name unresolvable.
    fn render_refs(&self, st: &CoreState, id: u64) -> Vec<String> {
        let fate = &st.fates[id as usize];
        fate.refs
            .iter()
            .map(|r| match r {
                RefSpec::Host(j) => {
                    let f = &st.fates[*j as usize];
                    format!("opc.tcp://{}:{}/", f.address, f.port)
                }
                RefSpec::SelfNonCanonical => format!("OPC.TCP://{}:{}", fate.address, fate.port),
                RefSpec::DeadPort => {
                    let dead_port = self.sweep_port + DEAD_PORT_OFFSET;
                    format!("opc.tcp://{}:{dead_port}/", fate.address)
                }
                RefSpec::Unresolvable => {
                    format!("opc.tcp://plant-lds-{id}.internal:{}/", self.sweep_port)
                }
            })
            .collect()
    }

    /// Materializes every living host (ground-truth APIs need the full
    /// fleet; call this only when you mean to pay for it).
    fn materialize_alive(&self) {
        let pending: Vec<u64> = {
            let st = self.state_read();
            (0..st.fates.len() as u64)
                .filter(|id| st.fates[*id as usize].alive && !st.built.contains_key(id))
                .collect()
        };
        for id in pending {
            self.materialize(id, |_| ());
        }
    }

    /// Maps the current deployment of every living host, roster order,
    /// under one state read lock — callers copy out only the fields
    /// they need. Materializes the fleet first.
    pub(crate) fn map_alive<T>(&self, f: impl Fn(&HostDeployment) -> T) -> Vec<T> {
        self.materialize_alive();
        let st = self.state_read();
        (0..st.fates.len() as u64)
            .filter(|id| st.fates[*id as usize].alive)
            .map(|id| f(&st.built[&id].dep))
            .collect()
    }

    pub(crate) fn population(&self) -> Population {
        Population {
            hosts: self.map_alive(|dep| dep.truth.clone()),
            universe: self.universe.clone(),
        }
    }

    /// One week of churn: decisions from per-event salted RNGs, fates
    /// updated for everyone, material applied live for materialized
    /// hosts and logged for replay otherwise.
    pub(crate) fn evolve_week(&self, week: u32, churn: &ChurnConfig) -> WeekChurn {
        let now = self.clock.now_unix_seconds();
        let mut guard = self.state_write();
        let st = &mut *guard;
        debug_assert_eq!(st.week_nows.len() as u32, week, "weeks must be consecutive");
        st.week_nows.push(now);
        let week_nows = st.week_nows.clone();
        let mut log = WeekChurn {
            week,
            events: Vec::new(),
        };
        let mut rebind: BTreeSet<u64> = BTreeSet::new();
        // ua-lint: allow(unordered-iteration) -- membership checks only, never iterated
        let mut moved_ids: HashSet<u64> = HashSet::new();
        // The one path of a material event: the host is due a new
        // listener, a built host takes the event now and charges any
        // keygen, and the fate logs the event for replay at a later
        // first build.
        let mut record = |st: &mut CoreState, id: u64, ev: MaterialEvent| {
            st.fates[id as usize].last_rebind_week = week;
            let keygens = st.change_host(id, |dep| {
                apply_event(dep, &ev, id, &week_nows, &self.shared, self.seed)
            });
            if let Some(keygens) = keygens {
                st.stats.keygen_count += keygens;
                rebind.insert(id);
            }
            st.fates[id as usize].events.push(ev);
        };

        for idx in 0..st.fates.len() {
            if !st.fates[idx].alive {
                continue;
            }
            let id = idx as u64;
            let lds = st.fates[idx].class.profile().discovery_server;

            if !lds && event_rng(self.seed, week, id, SALT_DEPART).gen_bool(churn.departure) {
                let addr = st.fates[idx].address;
                st.addrs.insert(addr.0, Occupant::Vacated);
                st.fates[idx].alive = false;
                if let Some(gone) = st.built.remove(&id) {
                    st.stats.recharge(estimate_resident_bytes(&gone.dep), 0);
                }
                log.events.push((id, ChurnEvent::Departed));
                continue;
            }

            let mut mrng = event_rng(self.seed, week, id, SALT_MOVE);
            if mrng.gen_bool(churn.ip_move) {
                let from = st.fates[idx].address;
                let to = st.allocate(&mut mrng, &self.universe, id);
                st.addrs.insert(from.0, Occupant::Vacated);
                st.fates[idx].address = to;
                record(st, id, MaterialEvent::Moved { from, to });
                moved_ids.insert(id);
                log.events.push((id, ChurnEvent::Moved { from }));
            }

            if st.fates[idx].has_cert
                && event_rng(self.seed, week, id, SALT_RENEW).gen_bool(churn.renewal)
            {
                record(st, id, MaterialEvent::Renewed { week });
                log.events.push((id, ChurnEvent::RenewedCert));
            }

            if let Some((major, minor, patch)) = parse_version(&st.fates[idx].version) {
                let mut vrng = event_rng(self.seed, week, id, SALT_VERSION);
                let to = if vrng.gen_bool(churn.upgrade) {
                    // Mostly patch bumps, occasionally a minor release.
                    Some(if vrng.gen_bool(0.25) {
                        format!("{major}.{}.0", minor + 1)
                    } else {
                        format!("{major}.{minor}.{}", patch + 1)
                    })
                } else if patch > 0 && vrng.gen_bool(churn.downgrade) {
                    Some(format!("{major}.{minor}.{}", patch - 1))
                } else {
                    None
                };
                if let Some(to) = to {
                    let from = st.fates[idx].version.clone();
                    let upgraded = parse_version(&to) > parse_version(&from);
                    st.fates[idx].version = to.clone();
                    record(st, id, MaterialEvent::SetVersion { to: to.clone() });
                    let event = if upgraded {
                        ChurnEvent::Upgraded { from, to }
                    } else {
                        ChurnEvent::Downgraded { from, to }
                    };
                    log.events.push((id, event));
                }
            }

            if !lds {
                let mut frng = event_rng(self.seed, week, id, SALT_FIX);
                let fate = &mut st.fates[idx];
                if fate.has_none && frng.gen_bool(churn.remediation) {
                    let minted_cert = !fate.has_cert;
                    fate.has_none = false;
                    fate.has_cert = true;
                    record(st, id, MaterialEvent::Remediated { week, minted_cert });
                    log.events.push((id, ChurnEvent::Remediated));
                } else if !fate.has_none && frng.gen_bool(churn.regression) {
                    fate.has_none = true;
                    record(st, id, MaterialEvent::Regressed);
                    log.events.push((id, ChurnEvent::Regressed));
                }
            }
        }

        // Arrivals: expected count is a fraction of the (post-departure)
        // living population, rounded stochastically but deterministically.
        let alive_now = st.fates.iter().filter(|f| f.alive).count();
        let mut arrivals_rng = StdRng::seed_from_u64(host_week_seed(self.seed, week, u64::MAX));
        let expected = alive_now as f64 * churn.arrival;
        let mut n = expected.floor() as usize;
        if expected.fract() > 0.0 && arrivals_rng.gen_bool(expected.fract()) {
            n += 1;
        }
        for _ in 0..n {
            let class = crate::evolution::ARRIVAL_CLASSES
                [st.arrival_cursor % crate::evolution::ARRIVAL_CLASSES.len()];
            st.arrival_cursor += 1;
            let id = st.fates.len() as u64;
            let address = st.allocate(&mut arrivals_rng, &self.universe, id);
            let fate = HostFate::new(self.seed, id, class, address, self.sweep_port, week, vec![]);
            st.fates.push(fate);
            log.events.push((id, ChurnEvent::Arrived { class }));
        }

        // Re-registration: every live FindServers answer naming a moved
        // host re-renders from current addresses (covers an LDS's own
        // non-canonical self-referral and dead decoy port too — they
        // embed the host's address textually).
        if !moved_ids.is_empty() {
            for idx in 0..st.fates.len() {
                let id = idx as u64;
                if !st.fates[idx].alive || st.fates[idx].refs.is_empty() {
                    continue;
                }
                let own_moved = moved_ids.contains(&id);
                let mentions = st.fates[idx].refs.iter().any(|r| match r {
                    RefSpec::Host(j) => moved_ids.contains(j),
                    RefSpec::SelfNonCanonical | RefSpec::DeadPort => own_moved,
                    RefSpec::Unresolvable => false,
                });
                if mentions {
                    st.fates[idx].last_rebind_week = week;
                    let urls = st.built.contains_key(&id).then(|| self.render_refs(st, id));
                    if let Some(urls) = urls {
                        st.change_host(id, |dep| {
                            Arc::make_mut(&mut dep.config).referenced_endpoints = urls;
                        });
                        rebind.insert(id);
                    }
                }
            }
        }

        // Every built host an event changed gets a new listener (a
        // departed host already left the memo).
        for id in rebind {
            if let Some(built) = st.built.get_mut(&id) {
                built.listener = built.dep.listener(now);
            }
        }
        log
    }
}

/// Applies one material event to a built deployment. Shared verbatim
/// by the live path (hosts already materialized when the event fires)
/// and the replay at a later first build — their byte-identity rests
/// on this being the only implementation. Returns keygens performed.
fn apply_event(
    dep: &mut HostDeployment,
    ev: &MaterialEvent,
    id: u64,
    week_nows: &[i64],
    shared: &SharedSecrets,
    seed: u64,
) -> u64 {
    // Every event changes the config; copy it if the listener's core
    // still shares it (the caller makes a new listener).
    let config = Arc::make_mut(&mut dep.config);
    match ev {
        MaterialEvent::Moved { from, to, .. } => {
            dep.truth.address = *to;
            let old_pat = format!("://{from}:");
            let new_pat = format!("://{to}:");
            config.endpoint_url = config.endpoint_url.replace(&old_pat, &new_pat);
            0
        }
        MaterialEvent::Renewed { week } => {
            let now = week_nows[*week as usize];
            let old = config
                .certificate
                .as_ref()
                // ua-lint: allow(panic-hygiene) -- renewal events are only recorded for cert-bearing fates
                .expect("renewal requires a certificate");
            let subject = old.tbs.subject.clone();
            let hash = old.signature_hash();
            let key = config
                .private_key
                .clone()
                // ua-lint: allow(panic-hygiene) -- build_host always pairs a certificate with its key
                .expect("certificate hosts carry their key");
            let builder = CertificateBuilder::new(subject)
                .serial(serial_for(id, *week, SLOT_RENEWAL))
                .validity(now - 86_400, now + 3 * 365 * 86_400)
                .application_uri(&dep.truth.application_uri);
            // CA customers renew through their CA; everyone else
            // re-self-signs. Hash and key are kept, so a weak
            // certificate renews weak — §6 saw exactly that.
            let cert = if dep.truth.class.profile().ca_issued {
                builder.issued_by(hash, sim_root_ca(), &shared.ca_key, &key.public)
            } else {
                builder.self_signed(hash, &key)
            };
            dep.truth.cert_thumbprint = Some(cert.thumbprint());
            config.certificate = Some(cert);
            0
        }
        MaterialEvent::SetVersion { to, .. } => {
            config.software_version = to.clone();
            if let Some(node) = Arc::make_mut(&mut dep.space)
                .get_mut(&NodeId::numeric(0, ids::SERVER_SOFTWARE_VERSION))
            {
                node.value = Some(Variant::String(Some(to.clone())));
            }
            0
        }
        MaterialEvent::Remediated { week, minted_cert } => {
            let now = week_nows[*week as usize];
            config
                .endpoints
                .retain(|e| e.mode != MessageSecurityMode::None);
            if config.endpoints.is_empty() {
                config.endpoints.push(EndpointConfig::new(
                    MessageSecurityMode::SignAndEncrypt,
                    SecurityPolicy::Basic256Sha256,
                ));
            }
            if *minted_cert {
                // Going secure requires an application-instance
                // certificate the host never had.
                let mut rng = event_rng(seed, *week, id, SALT_REMED_KEY);
                let key = RsaPrivateKey::generate(&mut rng, ACTUAL_KEY_BITS, 2048);
                let serial = serial_for(id, *week, SLOT_REMED);
                let cert = CertificateBuilder::new(DistinguishedName::new(
                    format!("dev-{serial}"),
                    dep.truth.vendor,
                ))
                .serial(serial)
                .validity(now - 86_400, now + 4 * 365 * 86_400)
                .application_uri(&dep.truth.application_uri)
                .self_signed(HashAlgorithm::Sha256, &key);
                dep.truth.cert_thumbprint = Some(cert.thumbprint());
                config.certificate = Some(cert);
                config.private_key = Some(key);
            }
            config
                .token_types
                .retain(|t| *t != UserTokenType::Anonymous);
            if config.token_types.is_empty() {
                config.token_types.push(UserTokenType::UserName);
            }
            if config.users.is_empty() {
                config.users.push(UserAccount {
                    name: "operator".into(),
                    password: format!("pw-{id}"),
                });
            }
            u64::from(*minted_cert)
        }
        MaterialEvent::Regressed => {
            config.endpoints.push(EndpointConfig::none());
            if !config.token_types.contains(&UserTokenType::Anonymous) {
                config.token_types.insert(0, UserTokenType::Anonymous);
            }
            0
        }
    }
}

/// Every core is the resolver of the Internet it deploys on. The
/// Internet holds it by `Arc`, so a world keeps serving after its last
/// handle is gone (as [`crate::synthesize`] drops its own) until every
/// clone of that Internet is dropped or a later world replaces it.
impl HostResolver for WorldCore {
    fn syn_batch(&self, port: u16, addrs: &[Ipv4], states: &mut [PortState]) {
        let st = self.state_read();
        for (&addr, state) in addrs.iter().zip(states) {
            *state = match st.lookup(addr) {
                None => PortState::NoHost,
                Some(id) if st.fates[id as usize].port == port => PortState::Open,
                Some(_) => PortState::Closed,
            };
        }
    }

    fn route(&self, addr: Ipv4, port: u16) -> Route {
        // The read guard is gone before `materialize` may take the
        // write side to build the host.
        let id = self.state_read().lookup(addr);
        id.map_or(Route::Dead, |id| {
            self.materialize(id, |built| built.route(port))
        })
    }
}

/// A deployed population: nothing is built until a probe actually
/// reaches a host.
///
/// `deploy` derives the week-0 world as a pure specification (classes,
/// ports, addresses, referral wiring) and installs it as `net`'s
/// resolver. The world holds one fate and one address-map entry per
/// host (plus an entry per move) and nothing per universe address, so
/// the universe can hold millions of addresses. A sweep's SYN probe of
/// an address is one probe of that map; the first full connection to a
/// host runs `build_host` for exactly that host, and the world serves
/// it from then on (the Internet's host table never holds it).
/// [`crate::synthesize`] is this world with every host materialized
/// up front; scans of the two are byte-identical at any scanner worker
/// count.
///
/// For an *evolving* world, see [`crate::EvolvingWorld::new_lazy`].
///
/// ```
/// use netsim::{Internet, VirtualClock};
/// use population::{LazyWorld, PopulationConfig, StrataMix};
///
/// let net = Internet::new(VirtualClock::default());
/// let cfg = PopulationConfig::new(
///     7,
///     vec!["10.0.0.0/16".parse().unwrap()], // 65k addresses…
///     StrataMix::paper_like(30),            // …30 hosts
/// );
/// let world = LazyWorld::deploy(&net, &cfg);
/// assert_eq!(world.len(), 30);
/// // Nothing is built yet — SYN-level occupancy is one map probe.
/// assert_eq!(world.stats().hosts_materialized, 0);
/// ```
pub struct LazyWorld {
    core: Arc<WorldCore>,
}

impl LazyWorld {
    /// Registers the world for `cfg` on `net` as its resolver. That
    /// replaces the previous resolver, and so drops the world deployed
    /// there before, with every host it built: one Internet serves one
    /// world. No host material is built.
    pub fn deploy(net: &Internet, cfg: &PopulationConfig) -> LazyWorld {
        LazyWorld {
            core: WorldCore::new(net, cfg),
        }
    }

    /// Number of hosts in the population (cheap; nothing materializes).
    pub fn len(&self) -> usize {
        self.core.roster_len()
    }

    /// True if the population is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialization telemetry so far.
    pub fn stats(&self) -> MaterializationStats {
        self.core.stats()
    }

    /// Ground truth of the full population. **Materializes every
    /// host** — this is the audit/validation exit, not the fast path.
    pub fn population(&self) -> Population {
        self.core.population()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChurnConfig, EvolvingWorld, StrataMix};
    use netsim::{
        Blocklist, Connection, ConnectionOutput, Service, SweepCursor, SweepStats, SweepWalk,
        VirtualClock, SWEEP_BATCH,
    };

    const EPOCH: u64 = 1_581_206_400;

    /// 2048 + 256 + 32 addresses: not a multiple of [`SWEEP_BATCH`].
    fn universe() -> Vec<Cidr> {
        ["10.60.0.0/21", "10.60.16.0/24", "10.60.32.0/27"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect()
    }

    /// Holes over hosts and over empty space, in two of the blocks.
    fn holed_blocklist() -> Blocklist {
        let mut blocklist = Blocklist::new();
        for block in ["10.60.1.0/26", "10.60.3.128/25", "10.60.16.64/27"] {
            blocklist.add_str(block).unwrap();
        }
        blocklist
    }

    /// Every shard's batched classification equals a replay that asks
    /// [`Internet::has_listener`] one walked address at a time. Returns
    /// the single-shard responsive addresses.
    fn assert_batches_match_replay(net: &Internet, blocklist: &Blocklist) -> Vec<Ipv4> {
        let universe = universe();
        assert_ne!(
            universe.iter().map(Cidr::size).sum::<u64>() % SWEEP_BATCH as u64,
            0
        );
        let mut responsive = Vec::new();
        for shards in [1u64, 4] {
            for shard in 0..shards {
                let walk =
                    || SweepWalk::new(&universe, &mut StdRng::seed_from_u64(9), shard, shards);
                let mut cursor = SweepCursor::new(net, blocklist, 4840, walk());
                let batched: Vec<(u64, Ipv4)> = cursor.by_ref().collect();
                let mut replayed = Vec::new();
                let mut stats = SweepStats::default();
                for (pos, addr) in walk() {
                    if blocklist.contains(addr) {
                        stats.blocklisted += 1;
                        continue;
                    }
                    stats.probes_sent += 1;
                    if net.has_listener(addr, 4840) {
                        stats.responsive += 1;
                        replayed.push((pos, addr));
                    }
                }
                assert_eq!(batched, replayed, "shard {shard}/{shards}");
                assert_eq!(cursor.stats(), stats, "shard {shard}/{shards}");
                if shards == 1 {
                    responsive = batched.into_iter().map(|(_, addr)| addr).collect();
                }
            }
        }
        assert!(!responsive.is_empty());
        responsive
    }

    /// Connects to every `stride`-th address, materializing those hosts.
    fn touch(net: &Internet, addrs: &[Ipv4], stride: usize) {
        for &addr in addrs.iter().step_by(stride) {
            let _ = net.connect(Ipv4::new(192, 0, 2, 1), addr, 4840);
        }
    }

    #[test]
    fn batches_match_replay_on_a_partly_materialized_lazy_world() {
        let net = Internet::new(VirtualClock::starting_at(EPOCH));
        let cfg = PopulationConfig::new(41, universe(), StrataMix::paper_like(80));
        let world = LazyWorld::deploy(&net, &cfg);
        let blocklist = holed_blocklist();
        let responsive = assert_batches_match_replay(&net, &blocklist);
        touch(&net, &responsive, 3);
        assert!(world.stats().hosts_materialized > 0);
        let after = assert_batches_match_replay(&net, &blocklist);
        assert_eq!(after, responsive, "materialization changes no verdict");
        // The holes hid some planted listeners.
        let open = assert_batches_match_replay(&net, &Blocklist::new());
        assert!(open.len() > responsive.len());
    }

    #[test]
    fn batches_match_replay_after_churn_rewrites_the_address_map() {
        let net = Internet::new(VirtualClock::starting_at(EPOCH));
        let cfg = PopulationConfig::new(43, universe(), StrataMix::paper_like(80));
        let churn = ChurnConfig {
            ip_move: 0.2,
            departure: 0.1,
            arrival: 0.15,
            ..ChurnConfig::frozen()
        };
        let mut world = EvolvingWorld::new_lazy(&net, &cfg, churn);
        let blocklist = holed_blocklist();
        let responsive = assert_batches_match_replay(&net, &blocklist);
        touch(&net, &responsive, 2);
        for week in 1..=2 {
            net.clock().advance_seconds(7 * 86_400);
            world.evolve(week);
        }
        // Departures and moves leave `Vacated` entries in the address
        // map; moves and arrivals add `Occupied` ones.
        let history = world.history();
        assert!(history.iter().any(|w| w.departures() > 0 && w.moves() > 0));
        assert!(history.iter().any(|w| w.arrivals() > 0));
        let moved = assert_batches_match_replay(&net, &blocklist);
        touch(&net, &moved, 3);
        assert_batches_match_replay(&net, &blocklist);
    }

    /// The address map against an oracle that does not read it: after
    /// each of 3 weeks of heavy churn, the addresses a SYN finds
    /// occupied, and listening on the sweep port, are where the built
    /// truth puts the living hosts, and those on the sweep port. No
    /// address a move vacated is occupied again.
    #[test]
    fn occupancy_matches_the_built_truth_through_churn() {
        let block: Cidr = "10.61.0.0/20".parse().unwrap();
        let cfg = PopulationConfig::new(67, vec![block], StrataMix::paper_like(80));
        let churn = ChurnConfig {
            ip_move: 0.3,
            departure: 0.15,
            arrival: 0.2,
            ..ChurnConfig::frozen()
        };
        for weeks in 0..=3 {
            // A fresh world per week: churn is the same whichever hosts
            // were built, and this one has none built yet.
            let net = Internet::new(VirtualClock::starting_at(EPOCH));
            let mut world = EvolvingWorld::new_lazy(&net, &cfg, churn.clone());
            for week in 1..=weeks {
                net.clock().advance_seconds(7 * 86_400);
                world.evolve(week);
            }
            let occupied: BTreeSet<Ipv4> = block.iter().filter(|&a| net.host_exists(a)).collect();
            let listening: BTreeSet<Ipv4> = block
                .iter()
                .filter(|&a| net.has_listener(a, cfg.port))
                .collect();
            assert_eq!(
                world.stats().hosts_materialized,
                0,
                "week {weeks}: a SYN built a host"
            );

            // Only now build the fleet, and read where it sits.
            let truth = world.observable_truth();
            let hosts: BTreeSet<Ipv4> = truth.iter().map(|t| t.address).collect();
            let swept: BTreeSet<Ipv4> = truth
                .iter()
                .filter(|t| t.port == cfg.port)
                .map(|t| t.address)
                .collect();
            assert_eq!(hosts.len(), truth.len(), "week {weeks}: shared address");
            assert_eq!(occupied, hosts, "week {weeks}: occupied");
            assert_eq!(listening, swept, "week {weeks}: listening");
            assert!(
                swept.len() < hosts.len(),
                "referral-only hosts listen elsewhere"
            );

            let history = world.history();
            let vacated: BTreeSet<Ipv4> = history
                .iter()
                .flat_map(|w| &w.events)
                .filter_map(|(_, event)| match event {
                    ChurnEvent::Moved { from } => Some(*from),
                    _ => None,
                })
                .collect();
            assert!(vacated.is_disjoint(&occupied), "week {weeks}: reoccupied");
            if weeks > 0 {
                let last = &history[history.len() - 1];
                assert!(last.moves() > 0 && last.departures() > 0 && last.arrivals() > 0);
            }
        }
    }

    /// Every class as built, one host each: endpoints | tokens |
    /// accounts | key and certificate | role and port offset. Written
    /// out independently of the class table, so a change to what a
    /// class is must show up here too.
    const AS_BUILT: [&str; 13] = [
        "WideOpen: None/None | Anonymous UserName | - | no cert | server +0",
        "DeprecatedOnly: Sign/Basic128Rsa15 SignAndEncrypt/Basic256 | UserName | operator \
         | own 2048-bit Sha1 self-signed | server +0",
        "MixedLegacy: None/None Sign/Basic256 SignAndEncrypt/Basic256Sha256 \
         | Anonymous UserName | operator | own 2048-bit Sha256 self-signed | server +0",
        "SecureModern: Sign/Basic256Sha256 SignAndEncrypt/Basic256Sha256 | UserName | operator \
         | own 2048-bit Sha256 self-signed | server +0",
        "SecureCa: SignAndEncrypt/Aes256Sha256RsaPss | UserName Certificate | operator \
         | own 2048-bit Sha256 CA-issued | server +0",
        "ExpiredCert: SignAndEncrypt/Basic256Sha256 | UserName | operator \
         | own 2048-bit Sha256 self-signed expired | server +0",
        "WeakCert: SignAndEncrypt/Basic256Sha256 | UserName | operator \
         | own 1024-bit Sha1 self-signed | server +0",
        "ReusedCert: Sign/Basic256Sha256 | UserName | operator | reused cert | server +0",
        "SharedPrime: SignAndEncrypt/Basic256Sha256 | UserName | operator \
         | shared-prime 2048-bit Sha256 self-signed | server +0",
        "BrokenSession: None/None | Anonymous | - | no cert | broken server +0",
        "DiscoveryServer: None/None | Anonymous | - | no cert | LDS +0",
        "HiddenServer: None/None SignAndEncrypt/Basic256Sha256 | Anonymous UserName | operator \
         | own 2048-bit Sha256 self-signed | server +5",
        "ChainedLds: None/None | Anonymous | - | no cert | LDS +8",
    ];

    /// One line of [`AS_BUILT`] from a built host.
    fn as_built(dep: &HostDeployment, shared: &SharedSecrets, now: i64, sweep_port: u16) -> String {
        let config = &dep.config;
        let endpoints: Vec<String> = config
            .endpoints
            .iter()
            .map(|e| format!("{:?}/{:?}", e.mode, e.policy))
            .collect();
        let tokens: Vec<String> = config
            .token_types
            .iter()
            .map(|t| format!("{t:?}"))
            .collect();
        let users: Vec<&str> = config.users.iter().map(|u| u.name.as_str()).collect();
        let cert = match &config.certificate {
            None => "no cert".to_string(),
            Some(cert) if *cert == shared.reused_cert => "reused cert".to_string(),
            Some(cert) => format!(
                "{} {}-bit {:?} {}{}",
                match dep.truth.shared_prime_group {
                    Some(_) => "shared-prime",
                    None => "own",
                },
                cert.key_bits(),
                cert.signature_hash(),
                if cert.tbs.issuer == sim_root_ca() {
                    "CA-issued"
                } else {
                    "self-signed"
                },
                if cert.is_valid_at(now) {
                    ""
                } else {
                    " expired"
                },
            ),
        };
        let role = match (config.is_discovery_server, config.broken_session_config) {
            (true, _) => "LDS",
            (false, true) => "broken server",
            (false, false) => "server",
        };
        format!(
            "{:?}: {} | {} | {} | {cert} | {role} +{}",
            dep.truth.class,
            endpoints.join(" "),
            tokens.join(" "),
            if users.is_empty() {
                "-".to_string()
            } else {
                users.join(" ")
            },
            dep.truth.port - sweep_port,
        )
    }

    #[test]
    fn fate_tables_agree_with_build_host() {
        let mix = HostClass::ALL
            .into_iter()
            .fold(StrataMix::new(), |mix, class| mix.with(class, 1));
        let net = Internet::new(VirtualClock::starting_at(EPOCH));
        let cfg = PopulationConfig::new(53, universe(), mix);
        let core = WorldCore::new(&net, &cfg);
        let reused = &core.shared.reused_key.public.n;
        let mut built = Vec::new();
        for (id, class) in HostClass::ALL.into_iter().enumerate() {
            let row = class.profile();
            let fate = core.state_read().fates[id].clone();
            let (dep, keygens) = core.build_current(id as u64);
            let (config, truth) = (&dep.config, &dep.truth);
            let endpoints: Vec<_> = config
                .endpoints
                .iter()
                .map(|e| (e.mode, e.policy))
                .collect();
            let offset = row
                .referral_port
                .map_or(0, |(base, spread)| base + id as u16 % spread);
            // The row, field by field, is what was built.
            assert_eq!(
                (
                    &endpoints[..],
                    &config.token_types[..],
                    !config.users.is_empty(),
                    config.is_discovery_server,
                    config.broken_session_config,
                    truth.port,
                    truth.reuse_group.is_some(),
                    truth.shared_prime_group.is_some(),
                    config.certificate.as_ref().map(|c| c.signature_hash()),
                ),
                (
                    row.endpoints,
                    row.tokens,
                    row.operator,
                    row.discovery_server,
                    row.broken_session,
                    cfg.port + offset,
                    row.key == Key::Reused,
                    row.key == Key::SharedPrime,
                    (row.key != Key::None).then_some(row.hash),
                ),
                "{class:?}: row"
            );
            assert_eq!(
                class.referral_only(),
                offset > 0,
                "{class:?}: referral-only"
            );
            // What the fate and the keygen count read from the row: a
            // certificate, a `None` endpoint, and a key of its own (not
            // the shared reused one).
            let own_key = config
                .private_key
                .as_ref()
                .is_some_and(|key| key.public.n != *reused);
            assert_eq!(
                (fate.has_cert, fate.has_none, keygens),
                (
                    config.certificate.is_some(),
                    endpoints.contains(&NONE),
                    u64::from(own_key)
                ),
                "{class:?}: fate"
            );
            built.push(as_built(&dep, &core.shared, EPOCH as i64, cfg.port));
        }
        assert_eq!(built, AS_BUILT);
    }

    #[test]
    fn bound_cores_share_the_deployment_and_a_write_copies_the_space() {
        use ua_addrspace::UserClass;
        use ua_client::{ClientConfig, UaClient};
        use ua_proto::services::IdentityToken;
        use ua_types::{AttributeId, NodeClass, StatusCode};

        let net = Internet::new(VirtualClock::starting_at(EPOCH));
        let mix = StrataMix::new().with(HostClass::WideOpen, 6);
        let core = WorldCore::new(&net, &PopulationConfig::new(61, universe(), mix));
        core.materialize_alive();
        let dep = {
            let st = core.state_read();
            // Each host's config and space: the world's copy is the
            // listener's core's.
            for id in 0..6 {
                let dep = &st.built[&id].dep;
                assert!(Arc::strong_count(&dep.space) >= 2, "host {id}: space");
                assert!(Arc::strong_count(&dep.config) >= 2, "host {id}: config");
            }
            (0..6)
                .map(|id| st.built[&id].dep.clone())
                .find(|dep| dep.truth.writable_variables > 0)
                .expect("a WideOpen host with a writable variable")
        };
        let var = dep
            .space
            .iter()
            .find(|n| {
                n.node_class == NodeClass::Variable
                    && n.access.user_access_level(&UserClass::Anonymous).writable()
            })
            .unwrap()
            .node_id()
            .clone();
        let deployed = dep.space.get(&var).unwrap().value.clone();
        let written = Variant::String(Some("written".into()));
        assert_ne!(deployed, Some(written.clone()));
        let sharers = Arc::strong_count(&dep.space);

        let url = dep.config.endpoint_url.clone();
        let stream = net
            .connect(Ipv4::new(192, 0, 2, 1), dep.truth.address, dep.truth.port)
            .unwrap();
        let mut client = UaClient::new(stream, net.clock().clone(), ClientConfig::default(), 5);
        client.handshake(&url).unwrap();
        client
            .open_channel(SecurityPolicy::None, MessageSecurityMode::None, None)
            .unwrap();
        client.create_session(&url).unwrap();
        client
            .activate_session(IdentityToken::Anonymous {
                policy_id: Some("anonymous".into()),
            })
            .unwrap();
        assert_eq!(
            client.write(var.clone(), written.clone()).unwrap(),
            StatusCode::GOOD
        );
        let read = client
            .read(vec![(var.clone(), AttributeId::Value)])
            .unwrap();
        assert_eq!(read[0].value, Some(written));

        // The write went to the core's own copy: the deployment's space
        // lost one sharer and still holds the deployed value.
        assert_eq!(Arc::strong_count(&dep.space), sharers - 1);
        assert_eq!(dep.space.get(&var).unwrap().value, deployed);
        let st = core.state_read();
        let id = (0..6).find(|id| st.built[id].dep.truth.address == dep.truth.address);
        assert!(Arc::ptr_eq(&st.built[&id.unwrap()].dep.space, &dep.space));
    }

    #[test]
    fn resident_estimate_follows_churn() {
        let net = Internet::new(VirtualClock::starting_at(EPOCH));
        let cfg = PopulationConfig::new(5, universe(), StrataMix::paper_like(60));
        let core = WorldCore::new(&net, &cfg);
        core.materialize_alive();
        // Every kind of event, often enough that each week has some.
        let churn = ChurnConfig {
            ip_move: 0.2,
            departure: 0.1,
            arrival: 0.1,
            renewal: 0.3,
            upgrade: 0.3,
            downgrade: 0.3,
            remediation: 0.3,
            regression: 0.3,
        };
        for week in 1..=4 {
            net.clock().advance_seconds(7 * 86_400);
            core.evolve_week(week, &churn);
            core.materialize_alive();
            let st = core.state_read();
            let held: u64 = (0..st.fates.len() as u64)
                .filter_map(|id| st.built.get(&id))
                .map(|built| estimate_resident_bytes(&built.dep))
                .sum();
            assert_eq!(st.stats.bytes_resident_estimate, held, "week {week}");
        }
    }

    /// The Internet holds its world by `Arc`, and the world holds no
    /// Internet: a world whose handle is gone keeps serving until every
    /// clone of its Internet is dropped, or a later world replaces it,
    /// and is freed then.
    #[test]
    fn a_world_lives_as_long_as_its_internet_serves_it() {
        let cfg = PopulationConfig::new(71, universe(), StrataMix::paper_like(40));
        let net = Internet::new(VirtualClock::starting_at(EPOCH));
        let view = net.with_clock(VirtualClock::starting_at(EPOCH));
        let world = LazyWorld::deploy(&net, &cfg);
        let core = Arc::downgrade(&world.core);
        let host = world.population().hosts[0].clone();
        drop(world);
        let from = Ipv4::new(192, 0, 2, 1);
        assert!(view.connect(from, host.address, host.port).is_ok());
        drop(net);
        assert!(core.upgrade().is_some(), "a clock view shares the resolver");
        drop(view);
        assert!(
            core.upgrade().is_none(),
            "the last Internet handle frees it"
        );

        let net = Internet::new(VirtualClock::starting_at(EPOCH));
        let world = LazyWorld::deploy(&net, &cfg);
        let core = Arc::downgrade(&world.core);
        world.population();
        drop(world);
        let _later = LazyWorld::deploy(&net, &cfg);
        assert!(core.upgrade().is_none(), "a later world frees the earlier");
    }

    struct Nop;
    impl Connection for Nop {
        fn on_data(&mut self, _data: &[u8]) -> ConnectionOutput {
            ConnectionOutput::empty()
        }
    }
    impl Service for Nop {
        fn open_connection(&self, _peer: Ipv4) -> Box<dyn Connection> {
            Box::new(Nop)
        }
    }

    #[test]
    fn batches_match_replay_when_the_bound_table_overrides_the_resolver() {
        let net = Internet::new(VirtualClock::starting_at(EPOCH));
        let cfg = PopulationConfig::new(47, universe(), StrataMix::paper_like(80));
        let _world = LazyWorld::deploy(&net, &cfg);
        let blocklist = holed_blocklist();
        let planted = assert_batches_match_replay(&net, &blocklist);
        // An eager listener where the resolver sees nothing, and an
        // eager host with the port closed over a planted listener.
        let extra = (0..256)
            .map(|i| Ipv4(Ipv4::new(10, 60, 16, 0).0 + i))
            .find(|&a| !blocklist.contains(a) && !net.host_exists(a))
            .unwrap();
        net.add_host(extra, 2_000);
        net.bind(extra, 4840, Arc::new(Nop));
        let shadowed = planted[planted.len() / 2];
        net.add_host(shadowed, 2_000);
        net.bind(shadowed, 80, Arc::new(Nop));
        let swept = assert_batches_match_replay(&net, &blocklist);
        assert!(swept.contains(&extra));
        assert!(!swept.contains(&shadowed));
        assert_eq!(swept.len(), planted.len());
    }
}
