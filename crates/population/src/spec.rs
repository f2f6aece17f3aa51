//! The week-0 world, planned once.
//!
//! A deployed population is entirely a function of
//! `(seed, universe, mix, port)`. `WorldCore::new` walks the mix's
//! roster ([`crate::StrataMix::expand`]) once: [`WorldSpec`] gives each
//! host its week-0 address and port, and [`plan_referrals`] wires every
//! discovery server in one forward pass over the roster. Nothing is
//! allocated per universe address.
//!
//! The address layout is a seeded Feistel permutation over the
//! universe's distinct-address index space ([`AddrPerm`]): host `id`
//! lives at the `perm(id)`-th address of the canonicalized universe.
//! The permutation is the week-0 allocator and nothing more. The
//! question the sweep asks, "who sits at this address?", is answered
//! by the world engine's address map, which `WorldCore::new` fills
//! from [`WorldSpec::address_of`].

use crate::{HostClass, PopulationConfig};
use netsim::{Cidr, Ipv4};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 finalizer: a cheap, well-mixed u64 → u64 bijection.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-host material seed: every RNG-derived field of host `id`
/// (vendor, keys, certificates, address space, RTT) draws from a
/// stream seeded by this — independent of synthesis order, so a host
/// is the same whenever it materializes.
pub(crate) fn host_material_seed(seed: u64, id: u64) -> u64 {
    mix64(seed ^ id.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// Salt for the discovery servers' random same-port referral picks.
const REFS_SALT: u64 = 0x5265_6653;

/// Port offset of a discovery server's dead referral decoy
/// ([`RefSpec::DeadPort`]): sweep port + 90.
pub(crate) const DEAD_PORT_OFFSET: u16 = 90;

/// True for the hosts a discovery server picks its random referrals
/// from: servers that are no LDS and listen on the sweep port.
fn referral_candidate(class: HostClass) -> bool {
    let profile = class.profile();
    !profile.discovery_server && profile.referral_port.is_none()
}

/// The universe blocks that are not nested inside another block — the
/// canonical disjoint set whose size sum is the number of *distinct*
/// addresses. (CIDR blocks either nest or are disjoint.)
pub(crate) fn canonical_blocks(universe: &[Cidr]) -> impl Iterator<Item = Cidr> + '_ {
    universe
        .iter()
        .enumerate()
        .filter(|(i, block)| {
            !universe.iter().enumerate().any(|(j, outer)| {
                *i != j
                    && outer.contains(block.base)
                    && (outer.prefix_len < block.prefix_len
                        || (outer.prefix_len == block.prefix_len && j < *i))
            })
        })
        .map(|(_, block)| *block)
}

/// A seeded permutation of `[0, size)` with O(1) expected forward
/// evaluation: a balanced Feistel network over the next even power of
/// two, cycle-walked back into the domain. The week-0 allocator: it
/// scatters host ids over the universe's distinct addresses
/// injectively.
pub(crate) struct AddrPerm {
    size: u64,
    half_bits: u32,
    keys: [u64; 6],
}

impl AddrPerm {
    pub(crate) fn new(seed: u64, size: u64) -> AddrPerm {
        // ceil(log2(size)) rounded up to an even bit count (>= 2) so
        // the Feistel halves balance; size 0/1 degenerate gracefully.
        let bits = if size <= 2 {
            2
        } else {
            let b = u64::BITS - (size - 1).leading_zeros();
            b + (b & 1)
        };
        let mut keys = [0u64; 6];
        for (round, key) in keys.iter_mut().enumerate() {
            *key = mix64(seed ^ (round as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        AddrPerm {
            size,
            half_bits: bits / 2,
            keys,
        }
    }

    fn encrypt(&self, x: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let (mut l, mut r) = (x >> self.half_bits, x & mask);
        for &k in &self.keys {
            let f = mix64(r ^ k) & mask;
            (l, r) = (r, l ^ f);
        }
        (l << self.half_bits) | r
    }

    /// Where slot `i` lands. Cycle-walking: keep encrypting until the
    /// value falls back into `[0, size)` — the Feistel is a bijection
    /// on the padded power-of-two domain, so this terminates in O(1)
    /// expected steps (the padding is < 4x the domain).
    pub(crate) fn forward(&self, i: u64) -> u64 {
        debug_assert!(i < self.size);
        let mut x = i;
        loop {
            x = self.encrypt(x);
            if x < self.size {
                return x;
            }
        }
    }
}

/// A referral a discovery host announces, in symbolic form. Rendered
/// to URLs only when a host materializes (or re-registers after a
/// referenced host moved), always from *current* addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RefSpec {
    /// A real deployed host, by stable id.
    Host(u64),
    /// The announcing LDS itself, spelled non-canonically
    /// (`OPC.TCP://addr:port`, no trailing slash).
    SelfNonCanonical,
    /// A dead port on the announcing LDS (stale registration).
    DeadPort,
    /// An internal DNS name the scanner cannot resolve.
    Unresolvable,
}

/// Deterministic referral wiring: the [`RefSpec`]s each host of
/// `roster` announces through FindServers, planned in one forward pass
/// over the roster (host ids index it).
///
/// * every [`HostClass::DiscoveryServer`] first lists up to three
///   random picks among the servers that are no LDS and listen on the
///   sweep port (its own salted stream, duplicates skipped), then its
///   charges, and last three decoys: itself spelled non-canonically, a
///   dead port and an internal name;
/// * every [`HostClass::ChainedLds`] is referenced by a default-port
///   LDS (round-robin) and references that referrer *back* — the
///   A→B→A loop the scanner's dedup must terminate;
/// * chained LDS also reference each other in a cycle (loops entirely
///   inside the referral phase);
/// * every [`HostClass::HiddenServer`] is referenced by exactly one
///   discovery host, alternating between default-port LDS (chain
///   depth one) and chained LDS (deeper), so each hidden server is
///   reachable and chains actually deepen.
///
/// Charges of one class are listed by rank in their class. A discovery
/// server lists its chained LDS before its hidden servers; a chained
/// LDS lists its referrer, then the next chained LDS, then its hidden
/// servers.
///
/// Default-port discovery servers are the only entry point the sweep
/// can find: a mix without any [`HostClass::DiscoveryServer`] gets no
/// referral wiring at all — chained LDS and hidden servers then stay
/// deliberately unreachable rather than forming a stranded island that
/// *looks* wired but can never be discovered.
pub(crate) fn plan_referrals(seed: u64, roster: &[HostClass]) -> Vec<Vec<RefSpec>> {
    let ids_where = |keep: fn(HostClass) -> bool| -> Vec<u64> {
        (0u64..)
            .zip(roster)
            .filter(|&(_, &class)| keep(class))
            .map(|(id, _)| id)
            .collect()
    };
    let discovery = ids_where(|class| class == HostClass::DiscoveryServer);
    let mut plan = vec![Vec::new(); roster.len()];
    if discovery.is_empty() {
        return plan;
    }
    let candidates = ids_where(referral_candidate);
    let chained = ids_where(|class| class == HostClass::ChainedLds);
    let hidden = ids_where(|class| class == HostClass::HiddenServer);
    let cand = candidates.len() as u64;
    for &d in &discovery {
        let refs = &mut plan[d as usize];
        let mut rng = StdRng::seed_from_u64(host_material_seed(seed, d) ^ REFS_SALT);
        for _ in 0..3.min(cand) {
            let pick = RefSpec::Host(candidates[rng.gen_range(0..cand) as usize]);
            if !refs.contains(&pick) {
                refs.push(pick);
            }
        }
    }
    let mut refer = |from: u64, to: u64| plan[from as usize].push(RefSpec::Host(to));
    for (c, &id) in chained.iter().enumerate() {
        let referrer = discovery[c % discovery.len()];
        refer(referrer, id);
        refer(id, referrer);
    }
    if chained.len() > 1 {
        for (c, &id) in chained.iter().enumerate() {
            refer(id, chained[(c + 1) % chained.len()]);
        }
    }
    for (h, &id) in hidden.iter().enumerate() {
        let referrer = if !chained.is_empty() && h % 2 == 1 {
            chained[(h / 2) % chained.len()]
        } else {
            discovery[h % discovery.len()]
        };
        refer(referrer, id);
    }
    for &d in &discovery {
        plan[d as usize].extend([
            RefSpec::SelfNonCanonical,
            RefSpec::DeadPort,
            RefSpec::Unresolvable,
        ]);
    }
    plan
}

/// The week-0 allocator and port rule: where each host of the roster
/// sits at deployment, and which port it listens on. A Feistel
/// evaluation and a search of the universe blocks per host; nothing is
/// proportional to the universe size.
pub(crate) struct WorldSpec {
    sweep_port: u16,
    /// Canonical disjoint universe blocks, declaration order.
    blocks: Vec<Cidr>,
    /// Flat-index start of each canonical block (prefix sums).
    block_starts: Vec<u64>,
    perm: AddrPerm,
}

impl WorldSpec {
    pub(crate) fn new(cfg: &PopulationConfig) -> WorldSpec {
        let blocks: Vec<Cidr> = canonical_blocks(&cfg.universe).collect();
        let mut block_starts = Vec::with_capacity(blocks.len());
        let mut distinct = 0u64;
        for block in &blocks {
            block_starts.push(distinct);
            distinct += block.size();
        }
        assert!(
            cfg.mix.total() as u64 <= distinct,
            "universe too small for population"
        );
        // Every port the mix listens on or announces must fit: the
        // referral-only ports and the discovery servers' dead decoy.
        let top_offset = cfg
            .mix
            .counts
            .iter()
            .filter(|&&(_, n)| n > 0)
            .flat_map(|&(class, _)| {
                let row = class.profile();
                let listen = row.referral_port.map(|(base, spread)| base + spread - 1);
                [listen, row.discovery_server.then_some(DEAD_PORT_OFFSET)]
            })
            .flatten()
            .max()
            .unwrap_or(0);
        assert!(
            cfg.port.checked_add(top_offset).is_some(),
            "sweep port {} too high for population: its hosts use ports up to {} above it",
            cfg.port,
            top_offset
        );
        WorldSpec {
            sweep_port: cfg.port,
            blocks,
            block_starts,
            perm: AddrPerm::new(mix64(cfg.seed ^ 0x4144_4452), distinct.max(1)),
        }
    }

    /// Listening port of host `id` of `class` (non-default for
    /// referral-only classes).
    pub(crate) fn port_of(&self, class: HostClass, id: u64) -> u16 {
        match class.profile().referral_port {
            Some((base, spread)) => self.sweep_port + base + (id % u64::from(spread)) as u16,
            None => self.sweep_port,
        }
    }

    fn slot_to_addr(&self, slot: u64) -> Ipv4 {
        let b = match self.block_starts.binary_search(&slot) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        Ipv4(self.blocks[b].base.0 + (slot - self.block_starts[b]) as u32)
    }

    /// Week-0 address of host `id`: distinct ids get distinct
    /// addresses of the universe.
    pub(crate) fn address_of(&self, id: u64) -> Ipv4 {
        self.slot_to_addr(self.perm.forward(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StrataMix;
    use std::collections::HashSet;

    #[test]
    fn perm_is_a_bijection() {
        for size in [1u64, 2, 3, 7, 8, 255, 256, 1000] {
            let perm = AddrPerm::new(0xFEED ^ size, size);
            let mut seen = HashSet::new();
            for i in 0..size {
                let s = perm.forward(i);
                assert!(s < size);
                assert!(seen.insert(s), "size {size}: slot {s} hit twice");
            }
        }
    }

    #[test]
    fn spec_addresses_stay_disjoint_inside_the_universe() {
        let cfg = PopulationConfig::new(
            42,
            vec![
                "10.0.0.0/24".parse().unwrap(),
                "192.0.2.0/28".parse().unwrap(),
            ],
            StrataMix::paper_like(40),
        );
        let spec = WorldSpec::new(&cfg);
        let mut addrs = HashSet::new();
        for id in 0..cfg.mix.total() as u64 {
            let addr = spec.address_of(id);
            assert!(
                cfg.universe.iter().any(|b| b.contains(addr)),
                "{addr} outside universe"
            );
            assert!(addrs.insert(addr), "{addr} assigned twice");
        }
        // Both blocks are used.
        let small: Cidr = "192.0.2.0/28".parse().unwrap();
        assert!(addrs.iter().any(|&addr| small.contains(addr)));
        assert!(addrs.iter().any(|&addr| !small.contains(addr)));
    }

    #[test]
    #[should_panic(expected = "universe too small")]
    fn overfull_spec_panics() {
        let cfg = PopulationConfig::new(
            1,
            vec!["10.0.0.0/30".parse().unwrap()],
            StrataMix::new().with(HostClass::WideOpen, 5),
        );
        WorldSpec::new(&cfg);
    }
}
