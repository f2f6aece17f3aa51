//! zmap-style address-space sweeping.
//!
//! zmap iterates the multiplicative group of integers modulo the prime
//! p = 2³² + 15 = 4 294 967 311: pick a primitive root `g`, then the walk
//! `x ← x·g mod p` visits every element of [1, p−1] exactly once in a
//! pseudo-random order — full IPv4 coverage with O(1) state and no
//! per-address bookkeeping. This module implements that construction
//! (verified on small primes in tests; a [`SweepWalk`] over 0.0.0.0/0
//! is the full 2³² walk, too long to run in them), plus a bounded
//! [`PermutedRange`] used to randomize scan order within configurable
//! universes, and the [`SynScanner`] driver with blocklist and
//! probe-rate accounting.
//!
//! A sweep does not walk. Its only observable output is the order in
//! which the walk reaches the responsive addresses, and the simulated
//! Internet knows where its listeners are, so a [`SweepPlan`] asks for
//! them once, finds the step at which the walk emits each one by a
//! discrete logarithm in the walk's group, and counts the blocklisted
//! and probed addresses in closed form. A sweep therefore costs its
//! listeners, not its addresses. The walk stays, as one-chain
//! iterators ([`CycleWalk::stride`], [`PermutedRange::shard`],
//! [`SweepWalk`]): it is the order the plan reproduces and what the
//! tests replay against.

use crate::cidr::{Blocklist, Cidr, Ipv4};
use crate::internet::Internet;
use rand::Rng;

/// The zmap prime: smallest prime larger than 2³².
pub const ZMAP_PRIME: u64 = 4_294_967_311;

/// Deterministic trial-division factorization (u64, fast for the sizes
/// used here).
pub fn prime_factors(mut n: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut d = 2u64;
    while d * d <= n {
        if n.is_multiple_of(d) {
            out.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += 1;
    }
    if n > 1 {
        out.push(n);
    }
    out
}

fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

fn pow_mod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc = 1u64;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Multiplication by a fixed factor modulo `p` without a division per
/// step (Shoup's precomputed quotient): `quotient = ⌊factor·2⁶⁴ / p⌋`
/// makes `mulhi(x, quotient)` the true quotient `⌊x·factor / p⌋` or one
/// less, so one conditional subtract finishes the reduction. Exact for
/// `x, factor < p < 2⁶³`.
#[derive(Debug, Clone, Copy)]
struct MulModFixed {
    factor: u64,
    quotient: u64,
    p: u64,
}

impl MulModFixed {
    fn new(factor: u64, p: u64) -> Self {
        assert!(p < 1 << 63, "modulus must leave one bit of headroom");
        assert!(factor < p, "factor must be reduced");
        MulModFixed {
            factor,
            quotient: ((u128::from(factor) << 64) / u128::from(p)) as u64,
            p,
        }
    }

    /// `x·factor mod p`, for `x < p`.
    fn apply(self, x: u64) -> u64 {
        let q = ((u128::from(x) * u128::from(self.quotient)) >> 64) as u64;
        // The true remainder is below 2p < 2⁶⁴, so wrapping arithmetic
        // computes it exactly.
        let r = x
            .wrapping_mul(self.factor)
            .wrapping_sub(q.wrapping_mul(self.p));
        if r >= self.p {
            r - self.p
        } else {
            r
        }
    }
}

/// A full-cycle walk over the multiplicative group mod a prime `p`:
/// visits every value in `[1, p-1]` exactly once. [`CycleWalk::stride`]
/// iterates it; `stride(0, 1)` is the whole walk.
#[derive(Debug, Clone)]
pub struct CycleWalk {
    p: u64,
    generator: u64,
    start: u64,
}

impl CycleWalk {
    /// Builds a walk over the group mod `p` (must be prime) from `rng`'s
    /// choice of primitive root and start element.
    pub fn new<R: Rng + ?Sized>(p: u64, rng: &mut R) -> Self {
        assert!(p >= 3, "prime too small");
        let factors = prime_factors(p - 1);
        // Find a primitive root: g is one iff g^((p-1)/q) != 1 for every
        // prime factor q of p-1.
        let generator = loop {
            let g = rng.gen_range(2..p);
            if factors.iter().all(|&q| pow_mod(g, (p - 1) / q, p) != 1) {
                break g;
            }
        };
        let start = rng.gen_range(1..p);
        CycleWalk {
            p,
            generator,
            start,
        }
    }

    /// The chosen primitive root.
    pub fn generator(&self) -> u64 {
        self.generator
    }

    /// The walk restricted to steps `offset, offset+stride, …` of the
    /// full walk: begins at `start·g^offset` and advances by
    /// `g^stride`, visiting exactly the elements the full walk emits at
    /// those step numbers — O(1) setup, no skipped iterations. Step
    /// numbers are yielded alongside the elements so N strided walks
    /// merge back into full-walk order.
    pub fn stride(&self, offset: u64, stride: u64) -> StridedWalk {
        assert!(stride > 0, "stride must be positive");
        assert!(offset < stride, "offset within stride");
        let (p, order) = (self.p, self.p - 1);
        StridedWalk {
            step_by: MulModFixed::new(pow_mod(self.generator, stride, p), p),
            current: mul_mod(self.start, pow_mod(self.generator, offset, p), p),
            step: offset,
            stride,
            remaining: if offset < order {
                (order - offset).div_ceil(stride)
            } else {
                0
            },
        }
    }

    /// The step at which the walk emits each of `elements`, in order:
    /// the `k` with `element = start·g^k mod p`, by baby-step
    /// giant-step. One table of baby steps `g^j`, `j < m`, serves every
    /// element: element `v` starts at `y = v·start⁻¹ = g^k` and takes
    /// giant steps `y ← y·g^(−m)` until `y = g^j` is in the table, so
    /// `k = i·m + j` after `i` of them. Every element must lie in the
    /// group `[1, p−1]`.
    fn steps_of(&self, elements: &[u64]) -> Vec<u64> {
        if elements.is_empty() {
            return Vec::new();
        }
        let (p, order) = (self.p, self.p - 1);
        let m = baby_step_count(elements.len() as u64, order);
        let table = BabySteps::new(self.generator, m, p);
        let unstart = MulModFixed::new(pow_mod(self.start, p - 2, p), p);
        let giant = MulModFixed::new(pow_mod(self.generator, order - m, p), p);
        elements
            .iter()
            .map(|&v| {
                let mut y = unstart.apply(v);
                // `v` lies in the group, so `y = g^k` for one `k < p−1`,
                // and `k = i·m + j` with `j < m` is found at giant step
                // `i < ⌈(p−1)/m⌉`.
                for i in 0..order.div_ceil(m) {
                    if let Some(j) = table.get(y) {
                        return i * m + j;
                    }
                    y = giant.apply(y);
                }
                unreachable!("{v} is not in the group mod {p}")
            })
            .collect()
    }
}

/// How many baby steps [`CycleWalk::steps_of`] stores per element it is
/// asked about, at most. `n` elements take about `n·(p−1)/m` giant
/// steps, so a larger table is faster, but it is the one part of a
/// sweep plan that could grow with the universe: capped at a multiple
/// of the element count, a plan's memory follows the world's listeners.
/// At 16, the 276 listeners of a /8 take a 128 KiB table and about
/// 525 000 giant steps, against a sweep process that peaks near 7 MiB.
const BABY_STEPS_PER_ELEMENT: u64 = 16;

/// The baby-step count `m` for `n ≥ 1` elements in a group of order
/// `order`: `⌈√(n·order)⌉`, which balances the table against the giant
/// steps, but no more than [`BABY_STEPS_PER_ELEMENT`] per element, than
/// the group holds, or than a [`BabySteps`] slot can number.
fn baby_step_count(n: u64, order: u64) -> u64 {
    let product = u128::from(n) * u128::from(order);
    let root = product.isqrt();
    let balanced = root + u128::from(root * root < product);
    let cap = BABY_STEPS_PER_ELEMENT
        .saturating_mul(n)
        .min(order)
        .min(BabySteps::MAX_LEN);
    balanced.min(u128::from(cap)) as u64
}

/// The baby steps `g^j → j`, `j < m`, of a discrete logarithm: an
/// open-addressed table of at least `2m` slots, a power of two, each
/// packing `g^j << 24 | (j + 1)` into one `u64` (0 is empty), probed
/// linearly from a multiplicative hash.
struct BabySteps {
    slots: Vec<u64>,
    /// `64 − log2(slots.len())`: the hash is the product's top bits.
    shift: u32,
}

impl BabySteps {
    /// Bits of a slot that hold `j + 1`.
    const INDEX_BITS: u32 = 24;
    /// Most baby steps a table numbers.
    const MAX_LEN: u64 = (1 << Self::INDEX_BITS) - 1;

    fn new(generator: u64, m: u64, p: u64) -> Self {
        assert!(
            p >> (64 - Self::INDEX_BITS) == 0,
            "elements must fit a slot"
        );
        assert!(m <= Self::MAX_LEN, "baby steps must fit a slot");
        let len = (2 * m as usize).next_power_of_two();
        let mut table = BabySteps {
            slots: vec![0; len],
            shift: 64 - len.trailing_zeros(),
        };
        let by_g = MulModFixed::new(generator, p);
        let mut x = 1;
        for j in 0..m {
            // The powers g^j, j < m ≤ p−1, are distinct: no key repeats.
            let mut slot = table.home(x);
            while table.slots[slot] != 0 {
                slot = (slot + 1) & (len - 1);
            }
            table.slots[slot] = x << Self::INDEX_BITS | (j + 1);
            x = by_g.apply(x);
        }
        table
    }

    fn home(&self, x: u64) -> usize {
        (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The `j` with `g^j = x`, if `j < m`.
    fn get(&self, x: u64) -> Option<u64> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(x);
        loop {
            match self.slots[slot] {
                0 => return None,
                packed if packed >> Self::INDEX_BITS == x => {
                    return Some((packed & Self::MAX_LEN) - 1)
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }
}

/// Every `stride`-th element of a [`CycleWalk`], starting at step
/// `offset` (see [`CycleWalk::stride`]). Yields `(step, element)` pairs;
/// the step numbers of the underlying full walk are globally unique
/// across disjoint strides, which is what lets sharded sweeps merge
/// deterministically.
#[derive(Debug, Clone)]
pub struct StridedWalk {
    step_by: MulModFixed,
    current: u64,
    step: u64,
    stride: u64,
    remaining: u64,
}

impl Iterator for StridedWalk {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        if self.remaining == 0 {
            return None;
        }
        let out = (self.step, self.current);
        self.current = self.step_by.apply(self.current);
        self.step += self.stride;
        self.remaining -= 1;
        Some(out)
    }
}

/// A random-order permutation of `[0, size)` built from a cycle walk over
/// the smallest prime `> size`, skipping out-of-range elements.
/// [`PermutedRange::shard`] iterates it; `shard(0, 1)` is the whole
/// permutation.
#[derive(Debug, Clone)]
pub struct PermutedRange {
    walk: CycleWalk,
    size: u64,
}

impl PermutedRange {
    /// Builds a permutation of `[0, size)`.
    pub fn new<R: Rng + ?Sized>(size: u64, rng: &mut R) -> Self {
        assert!(size > 0, "empty range");
        let mut p = size + 1;
        let p = loop {
            if prime_factors(p).len() == 1 && prime_factors(p)[0] == p {
                break p;
            }
            p += 1;
        };
        PermutedRange {
            walk: CycleWalk::new(p.max(3), rng),
            size,
        }
    }

    /// One shard of this permutation: the elements the underlying walk
    /// emits at steps `shard, shard + shards, …`, yielded as
    /// `(walk_step, index)` pairs. Each shard does O(order / shards)
    /// work; the walk steps are globally unique and increasing per
    /// shard, so N shards merge back into exactly this permutation's
    /// order.
    pub fn shard(&self, shard: u64, shards: u64) -> PermutedShard {
        PermutedShard {
            walk: self.walk.stride(shard, shards),
            size: self.size,
        }
    }
}

/// A shard of a [`PermutedRange`] (see [`PermutedRange::shard`]):
/// `(walk_step, index)` pairs, out-of-range walk elements skipped.
#[derive(Debug, Clone)]
pub struct PermutedShard {
    walk: StridedWalk,
    size: u64,
}

impl Iterator for PermutedShard {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        loop {
            let (step, v) = self.walk.next()?;
            let idx = v - 1;
            if idx < self.size {
                return Some((step, idx));
            }
        }
    }
}

/// The permuted address walk of one sweep shard, with the flat-index →
/// address mapping applied but *no* blocklist filtering, listener
/// probing, or stats: the reference order of a sweep, which a
/// [`SweepPlan`] reproduces without walking. Walk steps are globally
/// unique and increasing per shard.
#[derive(Debug, Clone)]
pub struct SweepWalk {
    shard: Option<PermutedShard>,
    blocks: Vec<(Ipv4, u64)>,
}

impl SweepWalk {
    /// Builds the walk for `shard` of `shards` over `universe`, deriving
    /// the permutation from `rng` exactly as [`SweepPlan::new`] does
    /// (the walk is a function of the RNG state alone).
    pub fn new<R: Rng + ?Sized>(universe: &[Cidr], rng: &mut R, shard: u64, shards: u64) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(shard < shards, "shard index within shard count");
        let blocks: Vec<(Ipv4, u64)> = universe.iter().map(|c| (c.base, c.size())).collect();
        let total: u64 = blocks.iter().map(|&(_, size)| size).sum();
        SweepWalk {
            shard: (total > 0).then(|| PermutedRange::new(total, rng).shard(shard, shards)),
            blocks,
        }
    }
}

impl Iterator for SweepWalk {
    type Item = (u64, Ipv4);

    fn next(&mut self) -> Option<(u64, Ipv4)> {
        let (pos, idx) = self.shard.as_mut()?.next()?;
        Some((pos, address(&self.blocks, idx)))
    }
}

/// The address at flat index `idx` of the concatenated `blocks`.
fn address(blocks: &[(Ipv4, u64)], idx: u64) -> Ipv4 {
    let mut rem = idx;
    for &(base, size) in blocks {
        if rem < size {
            return Ipv4(base.0.wrapping_add(rem as u32));
        }
        rem -= size;
    }
    unreachable!("index within total")
}

/// One sweep of `port` over a universe, planned instead of walked: the
/// responsive `(walk_step, addr)` targets in walk order, and the
/// sweep's [`SweepStats`].
///
/// This is the only copy of the sweep's classification (blocklist →
/// probe counted → listener check): [`SynScanner::sweep_each`] drains a
/// plan, and the scanner crate builds one per sweep phase and hands
/// each of its shards [`SweepPlan::shard`].
///
/// The plan reads the Internet once, when it is built, through
/// `Internet::listeners`; a universe block that holds a listener
/// gives it its flat index there (a listener in two listed blocks is
/// swept twice, as the walk sweeps it), blocklisted listeners drop
/// out, and one discrete logarithm per listener finds the walk step
/// that emits it. The counts need no walk either: the blocklisted
/// addresses are those of the universe blocks the [`Blocklist`] covers
/// ([`Blocklist::excluded_in`]), and every other address is probed. So
/// a plan costs the world's listeners, not the universe's addresses,
/// and it matches a replay of [`SweepWalk`] that asks
/// [`Internet::has_listener`] one address at a time.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Sorted by walk step.
    targets: Vec<(u64, Ipv4)>,
    stats: SweepStats,
}

impl SweepPlan {
    /// Plans a SYN sweep of `port` over `universe`, skipping
    /// `blocklist`, on the permutation `rng` derives, exactly as
    /// [`SweepWalk::new`] derives it.
    pub fn new<R: Rng + ?Sized>(
        internet: &Internet,
        blocklist: &Blocklist,
        port: u16,
        universe: &[Cidr],
        rng: &mut R,
    ) -> Self {
        let total: u64 = universe.iter().map(Cidr::size).sum();
        let blocklisted: u64 = universe.iter().map(|&c| blocklist.excluded_in(c)).sum();
        let mut targets = Vec::new();
        if total > 0 {
            let walk = PermutedRange::new(total, rng).walk;
            let offsets: Vec<u64> = universe
                .iter()
                .scan(0, |offset, block| {
                    *offset += block.size();
                    Some(*offset - block.size())
                })
                .collect();
            let (mut elements, mut addrs) = (Vec::new(), Vec::new());
            for addr in internet.listeners(port) {
                if blocklist.contains(addr) {
                    continue;
                }
                for (block, offset) in universe.iter().zip(&offsets) {
                    if block.contains(addr) {
                        // Flat index `offset + (addr − base)` is the walk
                        // element one above it.
                        elements.push(offset + u64::from(addr.0 - block.base.0) + 1);
                        addrs.push(addr);
                    }
                }
            }
            targets = walk.steps_of(&elements).into_iter().zip(addrs).collect();
            // Steps are unique: distinct flat indices are distinct elements.
            targets.sort_unstable_by_key(|&(step, _)| step);
        }
        SweepPlan {
            stats: SweepStats {
                probes_sent: total - blocklisted,
                blocklisted,
                responsive: targets.len() as u64,
            },
            targets,
        }
    }

    /// The targets of `shard` of `shards`: those at walk steps
    /// `shard, shard + shards, …`, in walk order. The shards partition
    /// the plan, and N of them merge back into its order.
    pub fn shard(&self, shard: u64, shards: u64) -> impl Iterator<Item = (u64, Ipv4)> + '_ {
        assert!(shard < shards, "shard index within shard count");
        self.targets
            .iter()
            .copied()
            .filter(move |&(step, _)| step % shards == shard)
    }

    /// The whole sweep's counters.
    pub fn stats(&self) -> SweepStats {
        self.stats
    }
}

/// Probe-rate configuration for a sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Probes per second (zmap default-ish; the paper spread a full scan
    /// over ~24 h, i.e. ≈50 kpps).
    pub probes_per_second: u64,
    /// TCP port to probe.
    pub port: u16,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            probes_per_second: 50_000,
            port: 4840,
        }
    }
}

/// Aggregate accounting of one sweep, as a [`SweepPlan`] counts it.
/// The responsive addresses themselves are the plan's targets; these
/// are the counts that pace the campaign clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Probes sent (excluded addresses are not probed).
    pub probes_sent: u64,
    /// Addresses skipped due to the blocklist.
    pub blocklisted: u64,
    /// Responsive addresses seen (equals the number of callback calls).
    pub responsive: u64,
}

/// A zmap-like SYN scanner over a configurable universe.
pub struct SynScanner<'a> {
    internet: &'a Internet,
    blocklist: &'a Blocklist,
    config: SweepConfig,
}

impl<'a> SynScanner<'a> {
    /// Creates a scanner.
    pub fn new(internet: &'a Internet, blocklist: &'a Blocklist, config: SweepConfig) -> Self {
        SynScanner {
            internet,
            blocklist,
            config,
        }
    }

    /// Probes every address of `universe` (a set of CIDR blocks) in
    /// permuted order, invokes `on_responsive` for every address with an
    /// open target port, in discovery order, and advances the virtual
    /// clock at the configured probe rate. Returns only the aggregate
    /// accounting. The full 0.0.0.0/0 universe is the paper's actual
    /// configuration and works identically: its walk is zmap's over
    /// [`ZMAP_PRIME`] (the examples and perfbench sweep slices of it, at
    /// most a /8, to keep runs short).
    pub fn sweep_each<R, F>(
        &self,
        universe: &[Cidr],
        rng: &mut R,
        mut on_responsive: F,
    ) -> SweepStats
    where
        R: Rng + ?Sized,
        F: FnMut(Ipv4),
    {
        let plan = SweepPlan::new(
            self.internet,
            self.blocklist,
            self.config.port,
            universe,
            rng,
        );
        for (_, addr) in plan.shard(0, 1) {
            on_responsive(addr);
        }
        let stats = plan.stats();
        // Account the sweep duration once: probes are asynchronous.
        // Pacing is tracked in microseconds — integer-second division
        // would advance the clock by 0 for any sweep shorter than one
        // second of probes and drop the fractional remainder of longer
        // ones.
        let micros =
            stats.probes_sent.saturating_mul(1_000_000) / self.config.probes_per_second.max(1);
        self.internet.clock().advance_micros(micros);
        stats
    }
}

/// Element-wise sum (a campaign sums the sweeps of its phases).
impl std::ops::Add for SweepStats {
    type Output = SweepStats;

    fn add(self, rhs: SweepStats) -> SweepStats {
        SweepStats {
            probes_sent: self.probes_sent + rhs.probes_sent,
            blocklisted: self.blocklisted + rhs.blocklisted,
            responsive: self.responsive + rhs.responsive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::internet::{Connection, ConnectionOutput, Service};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn factorization_known_values() {
        assert_eq!(prime_factors(12), vec![2, 3]);
        assert_eq!(prime_factors(97), vec![97]);
        assert_eq!(prime_factors(100), vec![2, 5]);
        // The zmap prime is indeed prime and p-1 factors correctly.
        assert_eq!(prime_factors(ZMAP_PRIME), vec![ZMAP_PRIME]);
        let fs = prime_factors(ZMAP_PRIME - 1);
        let product_check: u64 = {
            let mut n = ZMAP_PRIME - 1;
            for f in &fs {
                while n.is_multiple_of(*f) {
                    n /= f;
                }
            }
            n
        };
        assert_eq!(product_check, 1);
    }

    #[test]
    fn cycle_walk_visits_all_exactly_once() {
        for p in [11u64, 101, 257, 65537] {
            let mut rng = StdRng::seed_from_u64(p);
            let walk = CycleWalk::new(p, &mut rng);
            let seen: HashSet<u64> = walk.stride(0, 1).map(|(_, v)| v).collect();
            assert_eq!(seen.len() as u64, p - 1, "p={p}");
            assert!((1..p).all(|v| seen.contains(&v)), "p={p}");
        }
    }

    #[test]
    fn cycle_walk_is_not_sequential() {
        let mut rng = StdRng::seed_from_u64(1);
        let first: Vec<u64> = CycleWalk::new(65537, &mut rng)
            .stride(0, 1)
            .map(|(_, v)| v)
            .take(100)
            .collect();
        let sorted = {
            let mut v = first.clone();
            v.sort_unstable();
            v
        };
        assert_ne!(first, sorted, "walk order should be permuted");
    }

    #[test]
    fn permuted_range_full_coverage() {
        for size in [1u64, 2, 7, 100, 1000, 4096] {
            let mut rng = StdRng::seed_from_u64(size);
            let seen: HashSet<u64> = PermutedRange::new(size, &mut rng)
                .shard(0, 1)
                .map(|(_, idx)| idx)
                .collect();
            assert_eq!(seen.len() as u64, size, "size={size}");
            assert!((0..size).all(|v| seen.contains(&v)), "size={size}");
        }
    }

    struct Nop;
    impl Connection for Nop {
        fn on_data(&mut self, _d: &[u8]) -> ConnectionOutput {
            ConnectionOutput::empty()
        }
    }
    struct NopService;
    impl Service for NopService {
        fn open_connection(&self, _peer: Ipv4) -> Box<dyn Connection> {
            Box::new(Nop)
        }
    }

    /// Runs [`SynScanner::sweep_each`] and collects the responsive
    /// addresses in discovery order.
    fn sweep(scanner: &SynScanner<'_>, universe: &[Cidr], seed: u64) -> (Vec<Ipv4>, SweepStats) {
        let mut responsive = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let stats = scanner.sweep_each(universe, &mut rng, |addr| responsive.push(addr));
        assert_eq!(stats.responsive, responsive.len() as u64);
        (responsive, stats)
    }

    #[test]
    fn syn_scan_finds_all_listeners() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let universe: Cidr = "10.0.0.0/16".parse().unwrap();
        let mut expected = HashSet::new();
        // 50 listeners scattered in the /16.
        for i in 0..50u32 {
            let addr = Ipv4(universe.base.0 + i * 997 + 13);
            net.add_host(addr, 1000);
            net.bind(addr, 4840, Arc::new(NopService));
            expected.insert(addr);
        }
        // A host with the port closed and one on another port.
        let closed = Ipv4(universe.base.0 + 9999);
        net.add_host(closed, 1000);
        let other = Ipv4(universe.base.0 + 12345);
        net.add_host(other, 1000);
        net.bind(other, 80, Arc::new(NopService));

        let blocklist = Blocklist::new();
        let scanner = SynScanner::new(&net, &blocklist, SweepConfig::default());
        let (responsive, stats) = sweep(&scanner, &[universe], 3);
        let found: HashSet<Ipv4> = responsive.iter().copied().collect();
        assert_eq!(found, expected);
        assert_eq!(stats.probes_sent, universe.size());
        assert_eq!(stats.blocklisted, 0);
    }

    #[test]
    fn syn_scan_honors_blocklist() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let universe: Cidr = "10.1.0.0/24".parse().unwrap();
        let victim = Ipv4::new(10, 1, 0, 50);
        net.add_host(victim, 1000);
        net.bind(victim, 4840, Arc::new(NopService));

        let mut blocklist = Blocklist::new();
        blocklist.add_str("10.1.0.32/27").unwrap(); // covers .32-.63
        let scanner = SynScanner::new(&net, &blocklist, SweepConfig::default());
        let (responsive, stats) = sweep(&scanner, &[universe], 4);
        assert!(responsive.is_empty(), "opted-out host must not be probed");
        assert_eq!(stats.blocklisted, 32);
        assert_eq!(stats.probes_sent, 256 - 32);
    }

    #[test]
    fn sweep_advances_clock_by_rate() {
        let clock = VirtualClock::starting_at(0);
        let net = Internet::new(clock.clone());
        let universe: Cidr = "10.2.0.0/16".parse().unwrap(); // 65536 probes
        let blocklist = Blocklist::new();
        let scanner = SynScanner::new(
            &net,
            &blocklist,
            SweepConfig {
                probes_per_second: 1000,
                port: 4840,
            },
        );
        sweep(&scanner, &[universe], 5);
        // 65536 probes at 1000/s = 65.536 s, accounted to the micro.
        assert_eq!(clock.now_micros(), 65_536_000);
        assert_eq!(clock.now_unix_seconds(), 65);
    }

    #[test]
    fn sub_second_sweep_still_advances_clock() {
        // A /28 (16 probes) at 1000 probes/s is 16 ms of pacing.
        // Integer-second accounting would advance the clock by zero.
        let clock = VirtualClock::starting_at(0);
        let net = Internet::new(clock.clone());
        let universe: Cidr = "10.2.0.0/28".parse().unwrap();
        let blocklist = Blocklist::new();
        let scanner = SynScanner::new(
            &net,
            &blocklist,
            SweepConfig {
                probes_per_second: 1000,
                port: 4840,
            },
        );
        sweep(&scanner, &[universe], 5);
        assert_eq!(clock.now_micros(), 16_000);
    }

    #[test]
    fn strided_walks_partition_the_full_walk() {
        for p in [11u64, 101, 65537] {
            for stride in [1u64, 2, 3, 8] {
                let mut rng = StdRng::seed_from_u64(p ^ stride);
                let walk = CycleWalk::new(p, &mut rng);
                let reference: Vec<(u64, u64)> = walk.stride(0, 1).collect();
                let mut merged: Vec<(u64, u64)> = (0..stride)
                    .flat_map(|offset| walk.stride(offset, stride))
                    .collect();
                merged.sort_unstable();
                assert_eq!(merged, reference, "p={p} stride={stride}");
            }
        }
    }

    #[test]
    fn permuted_shard_work_is_divided_not_duplicated() {
        // Each shard's iterator yields only its own steps; together they
        // cover the range exactly once.
        let mut rng = StdRng::seed_from_u64(42);
        let range = PermutedRange::new(1000, &mut rng);
        let mut seen = HashSet::new();
        let mut yielded = 0u64;
        for shard in 0..8 {
            for (step, idx) in range.shard(shard, 8) {
                assert_eq!(step % 8, shard, "shard yields only its own steps");
                assert!(seen.insert(idx), "index {idx} yielded twice");
                yielded += 1;
            }
        }
        assert_eq!(yielded, 1000);
    }

    #[test]
    fn sweep_shards_partition_the_sweep() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let universe: Cidr = "10.8.0.0/24".parse().unwrap();
        for i in [1u32, 40, 77, 129, 200, 255] {
            let addr = Ipv4(universe.base.0 + i);
            net.add_host(addr, 1000);
            net.bind(addr, 4840, Arc::new(NopService));
        }
        let mut blocklist = Blocklist::new();
        blocklist.add_str("10.8.0.128/26").unwrap(); // covers .128-.191 (129)
        let plan = |seed| {
            SweepPlan::new(
                &net,
                &blocklist,
                4840,
                &[universe],
                &mut StdRng::seed_from_u64(seed),
            )
        };

        let full = plan(33);
        let reference: Vec<(u64, Ipv4)> = full.shard(0, 1).collect();
        assert_eq!(
            full.stats(),
            SweepStats {
                probes_sent: 256 - 64,
                blocklisted: 64,
                responsive: 5,
            }
        );
        assert_eq!(reference.len(), 5);

        for shards in [2u64, 3, 8] {
            let plan = plan(33);
            let mut merged = Vec::new();
            for shard in 0..shards {
                for (pos, addr) in plan.shard(shard, shards) {
                    assert_eq!(pos % shards, shard, "shards={shards}");
                    merged.push((pos, addr));
                }
            }
            merged.sort_by_key(|&(pos, _)| pos);
            assert_eq!(merged, reference, "shards={shards}");
            assert_eq!(plan.stats(), full.stats(), "shards={shards}");
        }
    }

    /// Replays `shard` of `shards` of the walk over `universe` one
    /// address at a time (blocklist, then [`Internet::has_listener`]),
    /// returning the responsive `(step, addr)` pairs and the counts.
    fn replay(
        net: &Internet,
        blocklist: &Blocklist,
        universe: &[Cidr],
        seed: u64,
        shard: u64,
        shards: u64,
    ) -> (Vec<(u64, Ipv4)>, SweepStats) {
        let mut responsive = Vec::new();
        let mut stats = SweepStats::default();
        let mut rng = StdRng::seed_from_u64(seed);
        for (pos, addr) in SweepWalk::new(universe, &mut rng, shard, shards) {
            if blocklist.contains(addr) {
                stats.blocklisted += 1;
                continue;
            }
            stats.probes_sent += 1;
            if net.has_listener(addr, 4840) {
                stats.responsive += 1;
                responsive.push((pos, addr));
            }
        }
        (responsive, stats)
    }

    #[test]
    fn sweep_walk_is_the_unfiltered_sweep_order() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let a: Cidr = "10.8.0.0/25".parse().unwrap();
        let b: Cidr = "172.30.0.0/26".parse().unwrap();
        for i in [3u32, 60, 100] {
            let addr = Ipv4(a.base.0 + i);
            net.add_host(addr, 1000);
            net.bind(addr, 4840, Arc::new(NopService));
        }
        let mut blocklist = Blocklist::new();
        blocklist.add_str("10.8.0.64/27").unwrap();

        // The walk covers every address of every block exactly once, in
        // a stable order per seed, with no filtering at all.
        let mut rng = StdRng::seed_from_u64(9);
        let walked: Vec<(u64, Ipv4)> = SweepWalk::new(&[a, b], &mut rng, 0, 1).collect();
        assert_eq!(walked.len() as u64, a.size() + b.size());
        let unique: HashSet<Ipv4> = walked.iter().map(|&(_, addr)| addr).collect();
        assert_eq!(unique.len(), walked.len());

        // Replaying the classification over the walk yields the exact
        // responsive sequence and stats the plan finds without walking.
        let mut rng = StdRng::seed_from_u64(9);
        let plan = SweepPlan::new(&net, &blocklist, 4840, &[a, b], &mut rng);
        let (replayed, stats) = replay(&net, &blocklist, &[a, b], 9, 0, 1);
        assert_eq!(plan.shard(0, 1).collect::<Vec<_>>(), replayed);
        assert_eq!(plan.stats(), stats);
        assert_eq!(replayed.len(), 3);

        // Shards of the walk partition it.
        let mut merged: Vec<(u64, Ipv4)> = (0..4)
            .flat_map(|shard| {
                let mut rng = StdRng::seed_from_u64(9);
                SweepWalk::new(&[a, b], &mut rng, shard, 4)
            })
            .collect();
        merged.sort_by_key(|&(pos, _)| pos);
        assert_eq!(merged, walked);

        // An empty universe walks nowhere and plans nothing.
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(SweepWalk::new(&[], &mut rng, 0, 1).count(), 0);
        let plan = SweepPlan::new(&net, &blocklist, 4840, &[], &mut rng);
        assert_eq!(plan.shard(0, 1).count(), 0);
        assert_eq!(plan.stats(), SweepStats::default());
    }

    #[test]
    fn plan_sweeps_a_listener_in_two_blocks_twice() {
        // A /25 nested in a /24: the walk concatenates the blocks as
        // listed, so every address of the /25 is swept twice.
        let outer: Cidr = "10.8.0.0/24".parse().unwrap();
        let inner: Cidr = "10.8.0.0/25".parse().unwrap();
        let universe = [outer, inner];
        let in_both = Ipv4::new(10, 8, 0, 5);
        let blocked_in_both = Ipv4::new(10, 8, 0, 70);
        let outer_only = Ipv4::new(10, 8, 0, 200);
        let net = Internet::new(VirtualClock::starting_at(0));
        for addr in [in_both, blocked_in_both, outer_only] {
            net.add_host(addr, 1000);
            net.bind(addr, 4840, Arc::new(NopService));
        }
        let mut blocklist = Blocklist::new();
        blocklist.add_str("10.8.0.64/26").unwrap(); // in both blocks
        for seed in [1u64, 2, 3] {
            let mut rng = StdRng::seed_from_u64(seed);
            let plan = SweepPlan::new(&net, &blocklist, 4840, &universe, &mut rng);
            let (whole, stats) = replay(&net, &blocklist, &universe, seed, 0, 1);
            assert_eq!(plan.shard(0, 1).collect::<Vec<_>>(), whole, "seed {seed}");
            assert_eq!(plan.stats(), stats, "seed {seed}");
            let count = |addr| whole.iter().filter(|&&(_, a)| a == addr).count();
            assert_eq!(
                [in_both, blocked_in_both, outer_only].map(count),
                [2, 0, 1],
                "seed {seed}"
            );
            assert_eq!(stats.blocklisted, 2 * 64);
            assert_eq!(stats.probes_sent, 256 + 128 - 2 * 64);
            for shard in 0..3 {
                let (part, _) = replay(&net, &blocklist, &universe, seed, shard, 3);
                assert_eq!(plan.shard(shard, 3).collect::<Vec<_>>(), part);
            }
        }
    }

    /// The step each element of `walk` is emitted at, from the u128
    /// reference: `start·g^k` with a full division per multiply.
    fn element_at(walk: &CycleWalk, k: u64) -> u64 {
        mul_mod(walk.start, pow_mod(walk.generator(), k, walk.p), walk.p)
    }

    #[test]
    fn steps_of_inverts_the_walk() {
        // Each bound on the baby-step count: ⌈√(n·order)⌉ (and the
        // group's order with it, for the whole group), the cap per
        // element, and the largest count a table slot numbers.
        assert_eq!(baby_step_count(1, 2), 2);
        assert_eq!(baby_step_count(5, 100), 23);
        assert_eq!(baby_step_count(1, 65_536), BABY_STEPS_PER_ELEMENT);
        assert_eq!(baby_step_count(1_048_582, 1_048_582), 1_048_582);
        assert_eq!(
            baby_step_count(276, 16_777_258),
            276 * BABY_STEPS_PER_ELEMENT
        );
        assert_eq!(baby_step_count(1 << 21, ZMAP_PRIME - 1), BabySteps::MAX_LEN);

        // Full cycles: every element's step is its position in the
        // walk, asked about one at a time, a few at a time, and all at
        // once.
        for p in [3u64, 11, 101, 65537, 1_048_583] {
            let mut rng = StdRng::seed_from_u64(p);
            let walk = CycleWalk::new(p, &mut rng);
            let (steps, elements): (Vec<u64>, Vec<u64>) = walk.stride(0, 1).unzip();
            assert_eq!(walk.steps_of(&elements), steps, "p={p}, the whole group");
            let spread = (elements.len() / 64).max(1);
            for few in [1, 5] {
                for (els, want) in elements.chunks(few).zip(steps.chunks(few)).step_by(spread) {
                    assert_eq!(walk.steps_of(els), want, "p={p}, {few} at a time");
                }
            }
            assert_eq!(walk.steps_of(&[]), Vec::<u64>::new());
        }

        // The zmap prime, where the walk's products need 128 bits.
        let mut rng = StdRng::seed_from_u64(2020);
        let walk = CycleWalk::new(ZMAP_PRIME, &mut rng);
        let steps: Vec<u64> = (0..4096)
            .map(|_| rng.gen_range(0..ZMAP_PRIME - 1))
            .collect();
        let elements: Vec<u64> = steps.iter().map(|&k| element_at(&walk, k)).collect();
        assert_eq!(walk.steps_of(&elements), steps);
    }

    #[test]
    fn walks_equal_the_u128_reference() {
        // The reference walk: start·g^offset, then ×g^stride per step,
        // reduced with a full u128 division, numbered with the full
        // walk's step numbers.
        fn reference(
            walk: &CycleWalk,
            offset: u64,
            stride: u64,
        ) -> impl Iterator<Item = (u64, u64)> {
            let (p, g) = (walk.p, walk.generator());
            let by = pow_mod(g, stride, p);
            let first = element_at(walk, offset);
            std::iter::successors(Some(first), move |&x| Some(mul_mod(x, by, p)))
                .enumerate()
                .map(move |(k, x)| (offset + k as u64 * stride, x))
        }
        // Full cycles over small primes, up to the smallest one above
        // 2²⁰ (the modulus of a /12 universe), at every offset of each
        // stride.
        for p in [3u64, 11, 101, 65537, 1_048_583] {
            let mut rng = StdRng::seed_from_u64(p);
            let walk = CycleWalk::new(p, &mut rng);
            let order = p - 1;
            for stride in [1u64, 3, 8] {
                for offset in 0..stride {
                    let len = order.saturating_sub(offset).div_ceil(stride) as usize;
                    let expected = reference(&walk, offset, stride).take(len);
                    assert!(
                        walk.stride(offset, stride).eq(expected),
                        "p={p} stride={stride} offset={offset}"
                    );
                }
            }
        }
        // The zmap prime, where x·g needs more than 64 bits.
        let mut rng = StdRng::seed_from_u64(2020);
        let walk = CycleWalk::new(ZMAP_PRIME, &mut rng);
        let steps = 1 << 20;
        for stride in [1u64, 3, 8] {
            for offset in 0..stride {
                let expected = reference(&walk, offset, stride).take(steps);
                assert!(
                    walk.stride(offset, stride).take(steps).eq(expected),
                    "stride={stride} offset={offset}"
                );
            }
        }
    }

    /// Answers from a fixed listener set, counting its calls.
    struct CountingResolver {
        listeners: Vec<Ipv4>,
        syns: AtomicUsize,
        listener_lists: AtomicUsize,
    }

    impl crate::internet::HostResolver for CountingResolver {
        fn syn(&self, addr: Ipv4, port: u16) -> crate::PortState {
            self.syns.fetch_add(1, Ordering::SeqCst);
            match (self.listeners.contains(&addr), port == 4840) {
                (false, _) => crate::PortState::NoHost,
                (true, false) => crate::PortState::Closed,
                (true, true) => crate::PortState::Open,
            }
        }
        fn listeners(&self, port: u16) -> Vec<Ipv4> {
            self.listener_lists.fetch_add(1, Ordering::SeqCst);
            if port == 4840 {
                self.listeners.clone()
            } else {
                Vec::new()
            }
        }
        fn route(&self, _addr: Ipv4, _port: u16) -> crate::Route {
            crate::Route::Dead
        }
    }

    #[test]
    fn plan_asks_the_resolver_for_listeners_once() {
        let universe: Cidr = "10.6.0.0/16".parse().unwrap();
        let listeners: Vec<Ipv4> = (0..40u32)
            .map(|i| Ipv4(universe.base.0 + i * 1601 + 7))
            .collect();
        let resolver = Arc::new(CountingResolver {
            listeners: listeners.clone(),
            syns: Default::default(),
            listener_lists: Default::default(),
        });
        let net = Internet::new(VirtualClock::starting_at(0));
        net.set_resolver(resolver.clone());
        let blocklist = Blocklist::new();
        for shards in [1u64, 4] {
            resolver.syns.store(0, Ordering::SeqCst);
            resolver.listener_lists.store(0, Ordering::SeqCst);
            let mut rng = StdRng::seed_from_u64(17);
            let plan = SweepPlan::new(&net, &blocklist, 4840, &[universe], &mut rng);
            let mut found = HashSet::new();
            for shard in 0..shards {
                for (_, addr) in plan.shard(shard, shards) {
                    assert!(found.insert(addr), "shards={shards}: {addr} twice");
                }
            }
            assert_eq!(
                found,
                listeners.iter().copied().collect(),
                "shards={shards}"
            );
            assert_eq!(plan.stats().probes_sent, universe.size(), "shards={shards}");
            assert_eq!(resolver.listener_lists.load(Ordering::SeqCst), 1);
            assert_eq!(resolver.syns.load(Ordering::SeqCst), 0, "shards={shards}");
        }
    }

    #[test]
    fn sweep_multiple_blocks() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let a: Cidr = "10.3.0.0/28".parse().unwrap();
        let b: Cidr = "192.168.1.0/28".parse().unwrap();
        let host = Ipv4::new(192, 168, 1, 5);
        net.add_host(host, 0);
        net.bind(host, 4840, Arc::new(NopService));
        let blocklist = Blocklist::new();
        let scanner = SynScanner::new(&net, &blocklist, SweepConfig::default());
        let (responsive, stats) = sweep(&scanner, &[a, b], 6);
        assert_eq!(responsive, vec![host]);
        assert_eq!(stats.probes_sent, 32);
    }
}
