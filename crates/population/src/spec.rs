//! The pure world specification behind lazy materialization.
//!
//! A deployed population is entirely a function of
//! `(seed, universe, mix, port)`. This module makes that function
//! *random access*: [`WorldSpec`] answers "what class/port/address does
//! host `id` have?" in O(1) per host, without allocating anything per
//! universe address.
//!
//! The address layout is a seeded Feistel permutation over the
//! universe's distinct-address index space ([`AddrPerm`]): host `id`
//! lives at the `perm(id)`-th address of the canonicalized universe.
//! The permutation is the week-0 allocator and nothing more. The
//! question the sweep asks, "who sits at this address?", is answered
//! by the world engine's address map, which `WorldCore::new` fills
//! from [`WorldSpec::address_of`].
//!
//! Referral wiring is derived per host by inverting the global
//! round-robin plan of the pre-lazy `plan_referrals`: a discovery
//! server of rank `d` can list its chained/hidden charges from
//! class-rank arithmetic alone ([`WorldSpec::ref_specs`]), so no
//! global address vectors are needed.

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

/// Pure random-access view of the week-0 world: classes, ports,
/// addresses, and referral wiring for every host id, derived from the
/// population config alone. Everything is O(1) or O(#strata) per
/// query; nothing is proportional to the universe size.
pub(crate) struct WorldSpec {
    seed: u64,
    sweep_port: u16,
    /// Canonical disjoint universe blocks, declaration order.
    blocks: Vec<Cidr>,
    /// Flat-index start of each canonical block (prefix sums).
    block_starts: Vec<u64>,
    perm: AddrPerm,
    /// `(class, count)` mix segments in declaration order — host ids
    /// are roster indices into the concatenation.
    segments: Vec<(HostClass, u64)>,
    /// Roster index where each segment starts.
    seg_starts: Vec<u64>,
    total: u64,
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
        let mut segments = Vec::new();
        let mut seg_starts = Vec::new();
        let mut total = 0u64;
        for &(class, n) in &cfg.mix.counts {
            segments.push((class, n as u64));
            seg_starts.push(total);
            total += n as u64;
        }
        assert!(total <= distinct, "universe too small for population");
        // Every port the mix listens on or announces must fit: the
        // referral-only ports and the discovery servers' dead decoy.
        let top_offset = segments
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
            seed: cfg.seed,
            sweep_port: cfg.port,
            blocks,
            block_starts,
            perm: AddrPerm::new(mix64(cfg.seed ^ 0x4144_4452), distinct.max(1)),
            segments,
            seg_starts,
            total,
        }
    }

    /// Total host count.
    pub(crate) fn len(&self) -> u64 {
        self.total
    }

    /// Configuration stratum of host `id`.
    pub(crate) fn class_of(&self, id: u64) -> HostClass {
        debug_assert!(id < self.total);
        let seg = match self.seg_starts.binary_search(&id) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        // Zero-count segments share a start with their successor; walk
        // forward to the segment that actually contains `id`.
        for s in seg..self.segments.len() {
            if id >= self.seg_starts[s] && id < self.seg_starts[s] + self.segments[s].1 {
                return self.segments[s].0;
            }
        }
        unreachable!("id {id} out of roster range");
    }

    /// Listening port of host `id` (non-default for referral-only
    /// classes).
    pub(crate) fn port_of(&self, id: u64) -> u16 {
        match self.class_of(id).profile().referral_port {
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

    /// Number of hosts of `class`.
    pub(crate) fn count_of(&self, class: HostClass) -> u64 {
        self.segments
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, n)| n)
            .sum()
    }

    /// Roster id of the `k`-th host of `class` (ascending roster order).
    fn member(&self, class: HostClass, k: u64) -> u64 {
        let mut remaining = k;
        for (s, &(c, n)) in self.segments.iter().enumerate() {
            if c == class {
                if remaining < n {
                    return self.seg_starts[s] + remaining;
                }
                remaining -= n;
            }
        }
        unreachable!("rank {k} out of range for {class:?}");
    }

    /// Rank of `id` among hosts of its own class.
    fn rank_in_class(&self, id: u64) -> u64 {
        let class = self.class_of(id);
        let mut rank = 0;
        for (s, &(c, n)) in self.segments.iter().enumerate() {
            if c != class {
                continue;
            }
            if id >= self.seg_starts[s] && id < self.seg_starts[s] + n {
                return rank + (id - self.seg_starts[s]);
            }
            rank += n;
        }
        unreachable!("id {id} not in its own class");
    }

    /// Number of referral-candidate hosts (swept, non-LDS classes).
    fn candidate_count(&self) -> u64 {
        self.segments
            .iter()
            .filter(|(c, _)| referral_candidate(*c))
            .map(|(_, n)| n)
            .sum()
    }

    /// Roster id of the `k`-th referral candidate.
    fn candidate(&self, k: u64) -> u64 {
        let mut remaining = k;
        for (s, &(c, n)) in self.segments.iter().enumerate() {
            if !referral_candidate(c) {
                continue;
            }
            if remaining < n {
                return self.seg_starts[s] + remaining;
            }
            remaining -= n;
        }
        unreachable!("candidate rank {k} out of range");
    }

    /// The referrals host `id` announces, derived per host by
    /// inverting the global round-robin plan:
    ///
    /// * discovery rank `d` lists chained LDS with `c % |D| == d`
    ///   (ascending), then hidden servers routed to it, then its
    ///   self/dead/unresolvable decoys — preceded by up to three
    ///   random same-port picks from a per-host salted stream;
    /// * chained rank `c` lists its referrer back (the A→B→A loop),
    ///   the next chained LDS in the cycle, and its odd-rank hidden
    ///   charges;
    /// * without any default-port discovery server there is no wiring
    ///   at all (the referral island would be undiscoverable).
    pub(crate) fn ref_specs(&self, id: u64) -> Vec<RefSpec> {
        let d_count = self.count_of(HostClass::DiscoveryServer);
        match self.class_of(id) {
            HostClass::DiscoveryServer => {
                let mut refs = Vec::new();
                let cand = self.candidate_count();
                if cand > 0 {
                    let mut rng =
                        StdRng::seed_from_u64(host_material_seed(self.seed, id) ^ REFS_SALT);
                    for _ in 0..3.min(cand) {
                        let pick = self.candidate(rng.gen_range(0..cand));
                        if !refs.contains(&RefSpec::Host(pick)) {
                            refs.push(RefSpec::Host(pick));
                        }
                    }
                }
                let d = self.rank_in_class(id);
                let c_count = self.count_of(HostClass::ChainedLds);
                for c in 0..c_count {
                    if c % d_count == d {
                        refs.push(RefSpec::Host(self.member(HostClass::ChainedLds, c)));
                    }
                }
                for h in 0..self.count_of(HostClass::HiddenServer) {
                    let via_chained = c_count > 0 && h % 2 == 1;
                    if !via_chained && h % d_count == d {
                        refs.push(RefSpec::Host(self.member(HostClass::HiddenServer, h)));
                    }
                }
                refs.push(RefSpec::SelfNonCanonical);
                refs.push(RefSpec::DeadPort);
                refs.push(RefSpec::Unresolvable);
                refs
            }
            HostClass::ChainedLds if d_count > 0 => {
                let c = self.rank_in_class(id);
                let c_count = self.count_of(HostClass::ChainedLds);
                let mut refs = vec![RefSpec::Host(
                    self.member(HostClass::DiscoveryServer, c % d_count),
                )];
                if c_count > 1 {
                    refs.push(RefSpec::Host(
                        self.member(HostClass::ChainedLds, (c + 1) % c_count),
                    ));
                }
                for h in 0..self.count_of(HostClass::HiddenServer) {
                    if h % 2 == 1 && (h / 2) % c_count == c {
                        refs.push(RefSpec::Host(self.member(HostClass::HiddenServer, h)));
                    }
                }
                refs
            }
            _ => Vec::new(),
        }
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
        for id in 0..spec.len() {
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
    fn class_and_rank_arithmetic_match_expansion() {
        let mix = StrataMix::new()
            .with(HostClass::WideOpen, 3)
            .with(HostClass::SecureModern, 2)
            .with(HostClass::WideOpen, 1)
            .with(HostClass::DiscoveryServer, 2);
        let cfg = PopulationConfig::new(7, vec!["10.0.0.0/24".parse().unwrap()], mix.clone());
        let spec = WorldSpec::new(&cfg);
        let expanded = mix.expand();
        assert_eq!(spec.len(), expanded.len() as u64);
        for (id, class) in expanded.iter().enumerate() {
            assert_eq!(spec.class_of(id as u64), *class, "class of {id}");
        }
        // Split-segment ranks: the 4th WideOpen is roster index 5.
        assert_eq!(spec.rank_in_class(5), 3);
        assert_eq!(spec.member(HostClass::WideOpen, 3), 5);
        assert_eq!(spec.count_of(HostClass::WideOpen), 4);
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
