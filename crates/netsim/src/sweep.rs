//! zmap-style address-space sweeping.
//!
//! zmap iterates the multiplicative group of integers modulo the prime
//! p = 2³² + 15 = 4 294 967 311: pick a primitive root `g`, then the walk
//! `x ← x·g mod p` visits every element of [1, p−1] exactly once in a
//! pseudo-random order — full IPv4 coverage with O(1) state and no
//! per-address bookkeeping. This module implements that construction
//! (verified on small primes in tests; the full 2³² walk is available
//! but too long to run in them), plus a bounded [`PermutedRange`] used
//! to randomize scan order within configurable universes, and the
//! [`SynScanner`] driver with blocklist and probe-rate accounting.
//!
//! The sweep's per-address classification — blocklist, probe counted,
//! listener check — exists once, in [`SweepCursor`]. [`SynScanner`] and
//! the scanner crate's event loops both consume it, so their
//! [`SweepStats`] cannot drift apart.

use crate::cidr::{Blocklist, Cidr, Ipv4};
use crate::internet::{ConnectPoll, Internet, SYN_TIMEOUT_MICROS};
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
/// visits every value in `[1, p-1]` exactly once.
#[derive(Debug, Clone)]
pub struct CycleWalk {
    p: u64,
    step: MulModFixed,
    start: u64,
    current: u64,
    emitted: u64,
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
            step: MulModFixed::new(generator, p),
            start,
            current: start,
            emitted: 0,
        }
    }

    /// The group order (number of elements the walk visits).
    pub fn order(&self) -> u64 {
        self.p - 1
    }

    /// The chosen primitive root.
    pub fn generator(&self) -> u64 {
        self.step.factor
    }

    /// The walk restricted to steps `offset, offset+stride, …` of the
    /// *full* walk (from its start, regardless of how far this iterator
    /// has advanced): begins at `start·g^offset` and advances by
    /// `g^stride`, visiting exactly the elements the full walk emits at
    /// those step numbers — O(1) setup, no skipped iterations. Step
    /// numbers are yielded alongside the elements so N strided walks
    /// merge back into full-walk order.
    pub fn stride(&self, offset: u64, stride: u64) -> StridedWalk {
        assert!(stride > 0, "stride must be positive");
        assert!(offset < stride, "offset within stride");
        let order = self.p - 1;
        let generator = self.generator();
        StridedWalk {
            step_by: MulModFixed::new(pow_mod(generator, stride, self.p), self.p),
            current: mul_mod(self.start, pow_mod(generator, offset, self.p), self.p),
            step: offset,
            stride,
            remaining: if offset < order {
                (order - offset).div_ceil(stride)
            } else {
                0
            },
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

impl Iterator for CycleWalk {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.emitted == self.p - 1 {
            return None;
        }
        let out = self.current;
        self.current = self.step.apply(self.current);
        self.emitted += 1;
        debug_assert!(self.emitted < self.p - 1 || self.current == self.start);
        Some(out)
    }
}

/// Full-IPv4 permutation exactly as zmap builds it: a [`CycleWalk`] over
/// p = 2³² + 15 with group elements `v` mapped to the address `v - 1`,
/// skipping the 14 elements above 2³².
pub fn ipv4_permutation<R: Rng + ?Sized>(rng: &mut R) -> impl Iterator<Item = Ipv4> {
    CycleWalk::new(ZMAP_PRIME, rng).filter_map(|v| {
        let addr = v - 1;
        if addr <= u32::MAX as u64 {
            Some(Ipv4(addr as u32))
        } else {
            None
        }
    })
}

/// A random-order permutation of `[0, size)` built from a cycle walk over
/// the smallest prime `> size`, skipping out-of-range elements.
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
    /// order. Must be called on a freshly built range (the stride is
    /// taken from the walk's start).
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

impl Iterator for PermutedRange {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            let v = self.walk.next()?;
            let idx = v - 1;
            if idx < self.size {
                return Some(idx);
            }
        }
    }
}

/// The permuted address walk of one sweep shard, with the flat-index →
/// address mapping applied but *no* blocklist filtering, listener
/// probing, or stats: the raw `(walk_step, addr)` sequence a
/// [`SweepCursor`] classifies. Walk steps are globally unique and
/// increasing per shard — the merge key for sharded scans.
#[derive(Debug, Clone)]
pub struct SweepWalk {
    shard: Option<PermutedShard>,
    blocks: Vec<(Ipv4, u64)>,
}

impl SweepWalk {
    /// Builds the walk for `shard` of `shards` over `universe`, deriving
    /// the permutation from `rng` exactly as [`SynScanner::sweep_shard`]
    /// does (the walk is a function of the RNG state alone).
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
        // Map the flat index back into (block, offset).
        let mut rem = idx;
        for &(base, size) in &self.blocks {
            if rem < size {
                return Some((pos, Ipv4(base.0.wrapping_add(rem as u32))));
            }
            rem -= size;
        }
        unreachable!("index within total")
    }
}

/// How many walked addresses a [`SweepCursor`] classifies at once: one
/// host-table lock and at most one [`crate::HostResolver`] call per
/// batch, instead of one of each per address.
pub const SWEEP_BATCH: usize = 1024;

/// The sweep's per-address classification over one shard's
/// [`SweepWalk`] — blocklist → probe counted → listener check — yielding
/// the responsive `(walk_step, addr)` pairs in walk order.
///
/// This is the only copy of that classification: [`SynScanner::sweep_shard`]
/// drains a cursor, and the scanner's event loops each hold one as a
/// *pausable* source of admissions, so admission can stall under
/// backpressure (bounded in-flight window) and a `SweepCheckpoint` can
/// record exactly how far the emitted records got.
///
/// The cursor walks [`SWEEP_BATCH`] addresses at a time, drops the
/// blocklisted ones, and resolves the rest under one host-table lock
/// plus at most one [`crate::HostResolver::syn_batch`] call. It
/// therefore classifies up to one batch ahead of what it has yielded,
/// and [`SweepCursor::stats`] counts every classified address; once the
/// cursor is exhausted they equal a sweep's totals.
pub struct SweepCursor<'a> {
    walk: SweepWalk,
    internet: &'a Internet,
    blocklist: &'a Blocklist,
    port: u16,
    stats: SweepStats,
    /// The current batch's probed addresses and their walk steps; after
    /// classification, only the responsive ones, `next` onwards not yet
    /// yielded.
    steps: Vec<u64>,
    addrs: Vec<Ipv4>,
    polls: Vec<ConnectPoll>,
    next: usize,
}

impl<'a> SweepCursor<'a> {
    /// A cursor SYN-probing `port` along `walk`, skipping `blocklist`.
    pub fn new(
        internet: &'a Internet,
        blocklist: &'a Blocklist,
        port: u16,
        walk: SweepWalk,
    ) -> Self {
        SweepCursor {
            walk,
            internet,
            blocklist,
            port,
            stats: SweepStats::default(),
            steps: Vec::with_capacity(SWEEP_BATCH),
            addrs: Vec::with_capacity(SWEEP_BATCH),
            polls: Vec::with_capacity(SWEEP_BATCH),
            next: 0,
        }
    }

    /// Counters over every address classified so far.
    pub fn stats(&self) -> SweepStats {
        self.stats
    }

    /// Classifies the next batch of the walk, keeping its responsive
    /// addresses. False once the walk is exhausted.
    fn refill(&mut self) -> bool {
        self.steps.clear();
        self.addrs.clear();
        self.next = 0;
        let mut walked = 0;
        for (step, addr) in self.walk.by_ref().take(SWEEP_BATCH) {
            walked += 1;
            if self.blocklist.contains(addr) {
                self.stats.blocklisted += 1;
                continue;
            }
            self.steps.push(step);
            self.addrs.push(addr);
        }
        if walked == 0 {
            return false;
        }
        self.stats.probes_sent += self.addrs.len() as u64;
        self.polls.resize(
            self.addrs.len(),
            ConnectPoll::NoRoute {
                timeout_micros: SYN_TIMEOUT_MICROS,
            },
        );
        self.internet
            .syn_batch(self.port, &self.addrs, &mut self.polls);
        let mut kept = 0;
        for i in 0..self.addrs.len() {
            if self.polls[i].will_accept() {
                self.steps[kept] = self.steps[i];
                self.addrs[kept] = self.addrs[i];
                kept += 1;
            }
        }
        self.steps.truncate(kept);
        self.addrs.truncate(kept);
        self.stats.responsive += kept as u64;
        true
    }
}

impl Iterator for SweepCursor<'_> {
    type Item = (u64, Ipv4);

    fn next(&mut self) -> Option<(u64, Ipv4)> {
        while self.next == self.addrs.len() {
            if !self.refill() {
                return None;
            }
        }
        let out = (self.steps[self.next], self.addrs[self.next]);
        self.next += 1;
        Some(out)
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

/// Result of a sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Addresses with an open target port, in discovery order.
    pub responsive: Vec<Ipv4>,
    /// Probes sent (excluded addresses are not probed).
    pub probes_sent: u64,
    /// Addresses skipped due to the blocklist.
    pub blocklisted: u64,
}

/// Aggregate accounting of a streamed sweep ([`SynScanner::sweep_each`]):
/// everything [`SweepResult`] carries except the responsive addresses
/// themselves, which are handed to the caller one by one instead of being
/// collected. A full-IPv4 sweep finds tens of thousands of hosts; keeping
/// them out of a `Vec` lets downstream stages start probing while the
/// sweep is still walking the permutation.
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
    /// permuted order, advancing the virtual clock at the configured
    /// probe rate. This is the sweep the scanner's weekly campaign runs;
    /// the full 0.0.0.0/0 universe is the paper's actual configuration
    /// and works identically (the examples and perfbench sweep slices of
    /// it, at most a /8, to keep runs short).
    pub fn sweep<R: Rng + ?Sized>(&self, universe: &[Cidr], rng: &mut R) -> SweepResult {
        let mut responsive = Vec::new();
        let stats = self.sweep_each(universe, rng, |addr| responsive.push(addr));
        SweepResult {
            responsive,
            probes_sent: stats.probes_sent,
            blocklisted: stats.blocklisted,
        }
    }

    /// Streaming variant of [`Self::sweep`]: invokes `on_responsive` for
    /// every address with an open target port, in discovery order, and
    /// returns only the aggregate accounting. This is the probe API the
    /// `scanner` crate's pipeline drives — responsive hosts flow into the
    /// application-layer probes without an intermediate `Vec`.
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
        let stats = self.sweep_shard(universe, rng, 0, 1, |_pos, addr| on_responsive(addr));
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

    /// One shard of a sweep: every shard derives the *same* permutation
    /// (the walk is a function of `rng`'s state alone) but generates
    /// only its own steps `shard, shard + shards, …` via cycle striding
    /// — O(universe / shards) work per shard, no skipped iterations.
    /// `on_responsive` receives the global walk step alongside the
    /// address, so a coordinator can merge records from N shards back
    /// into the exact discovery order a single-shard sweep produces.
    ///
    /// Clock-neutral: the caller accounts the sweep duration once from
    /// the summed stats (see [`Self::sweep_each`]); shard stats are
    /// disjoint and sum to the single-shard totals. That split is what
    /// makes cancellation safe for the non-blocking engine: an aborted
    /// sweep simply never reaches the accounting step, so no pacing (and
    /// no in-flight probe's fork time) ever leaks onto the campaign
    /// clock.
    pub fn sweep_shard<R, F>(
        &self,
        universe: &[Cidr],
        rng: &mut R,
        shard: u64,
        shards: u64,
        mut on_responsive: F,
    ) -> SweepStats
    where
        R: Rng + ?Sized,
        F: FnMut(u64, Ipv4),
    {
        // Concatenate blocks into one index space, then walk a
        // permutation of it (zmap's randomization property: no subnet is
        // hammered in a burst), classifying it through the cursor every
        // sweep driver shares.
        let walk = SweepWalk::new(universe, rng, shard, shards);
        let mut cursor = SweepCursor::new(self.internet, self.blocklist, self.config.port, walk);
        for (pos, addr) in cursor.by_ref() {
            on_responsive(pos, addr);
        }
        cursor.stats()
    }
}

/// Element-wise sum of shard stats (used by sharded sweeps to recover
/// the single-shard totals).
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
            let seen: HashSet<u64> = walk.collect();
            assert_eq!(seen.len() as u64, p - 1, "p={p}");
            assert!((1..p).all(|v| seen.contains(&v)), "p={p}");
        }
    }

    #[test]
    fn cycle_walk_is_not_sequential() {
        let mut rng = StdRng::seed_from_u64(1);
        let first: Vec<u64> = CycleWalk::new(65537, &mut rng).take(100).collect();
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
            let seen: HashSet<u64> = PermutedRange::new(size, &mut rng).collect();
            assert_eq!(seen.len() as u64, size, "size={size}");
            assert!((0..size).all(|v| seen.contains(&v)), "size={size}");
        }
    }

    #[test]
    fn ipv4_permutation_prefix_has_no_duplicates() {
        let mut rng = StdRng::seed_from_u64(7);
        let prefix: Vec<Ipv4> = ipv4_permutation(&mut rng).take(100_000).collect();
        let unique: HashSet<Ipv4> = prefix.iter().copied().collect();
        assert_eq!(unique.len(), prefix.len());
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
        let mut rng = StdRng::seed_from_u64(3);
        let scanner = SynScanner::new(&net, &blocklist, SweepConfig::default());
        let result = scanner.sweep(&[universe], &mut rng);
        let found: HashSet<Ipv4> = result.responsive.iter().copied().collect();
        assert_eq!(found, expected);
        assert_eq!(result.probes_sent, universe.size());
        assert_eq!(result.blocklisted, 0);
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
        let mut rng = StdRng::seed_from_u64(4);
        let scanner = SynScanner::new(&net, &blocklist, SweepConfig::default());
        let result = scanner.sweep(&[universe], &mut rng);
        assert!(
            result.responsive.is_empty(),
            "opted-out host must not be probed"
        );
        assert_eq!(result.blocklisted, 32);
        assert_eq!(result.probes_sent, 256 - 32);
    }

    #[test]
    fn sweep_advances_clock_by_rate() {
        let clock = VirtualClock::starting_at(0);
        let net = Internet::new(clock.clone());
        let universe: Cidr = "10.2.0.0/16".parse().unwrap(); // 65536 probes
        let blocklist = Blocklist::new();
        let mut rng = StdRng::seed_from_u64(5);
        let scanner = SynScanner::new(
            &net,
            &blocklist,
            SweepConfig {
                probes_per_second: 1000,
                port: 4840,
            },
        );
        scanner.sweep(&[universe], &mut rng);
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
        let mut rng = StdRng::seed_from_u64(5);
        let scanner = SynScanner::new(
            &net,
            &blocklist,
            SweepConfig {
                probes_per_second: 1000,
                port: 4840,
            },
        );
        scanner.sweep(&[universe], &mut rng);
        assert_eq!(clock.now_micros(), 16_000);
    }

    #[test]
    fn sweep_each_matches_collected_sweep() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let universe: Cidr = "10.9.0.0/24".parse().unwrap();
        for i in [3u32, 77, 200] {
            let addr = Ipv4(universe.base.0 + i);
            net.add_host(addr, 1000);
            net.bind(addr, 4840, Arc::new(NopService));
        }
        let mut blocklist = Blocklist::new();
        blocklist.add_str("10.9.0.64/26").unwrap(); // covers .64-.127 (77)
        let scanner = SynScanner::new(&net, &blocklist, SweepConfig::default());

        let mut rng = StdRng::seed_from_u64(21);
        let collected = scanner.sweep(&[universe], &mut rng);

        let mut streamed = Vec::new();
        let mut rng = StdRng::seed_from_u64(21);
        let stats = scanner.sweep_each(&[universe], &mut rng, |a| streamed.push(a));

        assert_eq!(streamed, collected.responsive);
        assert_eq!(stats.probes_sent, collected.probes_sent);
        assert_eq!(stats.blocklisted, collected.blocklisted);
        assert_eq!(stats.responsive as usize, collected.responsive.len());
    }

    #[test]
    fn strided_walks_partition_the_full_walk() {
        for p in [11u64, 101, 65537] {
            for stride in [1u64, 2, 3, 8] {
                let mut rng = StdRng::seed_from_u64(p ^ stride);
                let walk = CycleWalk::new(p, &mut rng);
                let reference: Vec<(u64, u64)> = walk
                    .clone()
                    .enumerate()
                    .map(|(s, v)| (s as u64, v))
                    .collect();
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
        let scanner = SynScanner::new(&net, &blocklist, SweepConfig::default());

        let mut rng = StdRng::seed_from_u64(33);
        let mut reference = Vec::new();
        let full = scanner.sweep_shard(&[universe], &mut rng, 0, 1, |pos, addr| {
            reference.push((pos, addr));
        });

        for shards in [2u64, 3, 8] {
            let mut merged = Vec::new();
            let mut stats = SweepStats::default();
            for shard in 0..shards {
                let mut rng = StdRng::seed_from_u64(33);
                stats = stats
                    + scanner.sweep_shard(&[universe], &mut rng, shard, shards, |pos, addr| {
                        merged.push((pos, addr));
                    });
            }
            merged.sort_by_key(|&(pos, _)| pos);
            assert_eq!(merged, reference, "shards={shards}");
            assert_eq!(stats.probes_sent, full.probes_sent, "shards={shards}");
            assert_eq!(stats.blocklisted, full.blocklisted, "shards={shards}");
            assert_eq!(stats.responsive, full.responsive, "shards={shards}");
        }
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
        let scanner = SynScanner::new(&net, &blocklist, SweepConfig::default());

        // The walk covers every address of every block exactly once, in
        // a stable order per seed, with no filtering at all.
        let mut rng = StdRng::seed_from_u64(9);
        let walked: Vec<(u64, Ipv4)> = SweepWalk::new(&[a, b], &mut rng, 0, 1).collect();
        assert_eq!(walked.len() as u64, a.size() + b.size());
        let unique: HashSet<Ipv4> = walked.iter().map(|&(_, addr)| addr).collect();
        assert_eq!(unique.len(), walked.len());

        // Replaying the sweep_shard classification over the walk yields
        // the exact responsive sequence and stats sweep_shard produces.
        let mut rng = StdRng::seed_from_u64(9);
        let mut reference = Vec::new();
        let ref_stats = scanner.sweep_shard(&[a, b], &mut rng, 0, 1, |pos, addr| {
            reference.push((pos, addr));
        });
        let mut replayed = Vec::new();
        let mut stats = SweepStats::default();
        for &(pos, addr) in &walked {
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
        assert_eq!(replayed, reference);
        assert_eq!(stats, ref_stats);

        // Shards of the walk partition it.
        let mut merged: Vec<(u64, Ipv4)> = (0..4)
            .flat_map(|shard| {
                let mut rng = StdRng::seed_from_u64(9);
                SweepWalk::new(&[a, b], &mut rng, shard, 4)
            })
            .collect();
        merged.sort_by_key(|&(pos, _)| pos);
        assert_eq!(merged, walked);

        // An empty universe walks nowhere.
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(SweepWalk::new(&[], &mut rng, 0, 1).count(), 0);
    }

    #[test]
    fn walks_equal_the_u128_reference() {
        // The reference walk: start·g^offset, then ×g^stride per step,
        // reduced with a full u128 division.
        fn reference(walk: &CycleWalk, offset: u64, stride: u64) -> impl Iterator<Item = u64> {
            let (p, g) = (walk.p, walk.generator());
            let by = pow_mod(g, stride, p);
            let first = mul_mod(walk.start, pow_mod(g, offset, p), p);
            std::iter::successors(Some(first), move |&x| Some(mul_mod(x, by, p)))
        }
        // Full cycles over small primes, up to the smallest one above
        // 2²⁰ (the modulus of a /12 universe).
        for p in [3u64, 11, 101, 65537, 1_048_583] {
            let mut rng = StdRng::seed_from_u64(p);
            let walk = CycleWalk::new(p, &mut rng);
            let order = p - 1;
            assert!(
                walk.clone().eq(reference(&walk, 0, 1).take(order as usize)),
                "p={p}"
            );
            for stride in [1u64, 3] {
                for offset in 0..stride {
                    let len = (order - offset).div_ceil(stride) as usize;
                    assert!(
                        walk.stride(offset, stride)
                            .map(|(_, v)| v)
                            .eq(reference(&walk, offset, stride).take(len)),
                        "p={p} stride={stride} offset={offset}"
                    );
                }
            }
        }
        // The zmap prime, where x·g needs more than 64 bits.
        let mut rng = StdRng::seed_from_u64(2020);
        let walk = CycleWalk::new(ZMAP_PRIME, &mut rng);
        let steps = 1 << 20;
        assert!(walk
            .clone()
            .take(steps)
            .eq(reference(&walk, 0, 1).take(steps)));
        for (offset, stride) in [(0u64, 1u64), (0, 3), (2, 3)] {
            assert!(
                walk.stride(offset, stride)
                    .take(steps)
                    .map(|(_, v)| v)
                    .eq(reference(&walk, offset, stride).take(steps)),
                "offset={offset} stride={stride}"
            );
        }
    }

    /// Answers from a fixed listener set, counting its calls.
    struct CountingResolver {
        listeners: HashSet<Ipv4>,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl crate::internet::HostResolver for CountingResolver {
        fn host_exists(&self, addr: Ipv4) -> bool {
            self.listeners.contains(&addr)
        }
        fn syn_batch(&self, port: u16, addrs: &[Ipv4], states: &mut [crate::PortState]) {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            for (addr, state) in addrs.iter().zip(states) {
                *state = match (self.listeners.contains(addr), port == 4840) {
                    (false, _) => crate::PortState::NoHost,
                    (true, false) => crate::PortState::Closed,
                    (true, true) => crate::PortState::Open,
                };
            }
        }
        fn materialize(&self, _net: &Internet, _addr: Ipv4) {}
    }

    #[test]
    fn resolver_is_consulted_once_per_batch() {
        let universe: Cidr = "10.6.0.0/16".parse().unwrap();
        let listeners: HashSet<Ipv4> = (0..40u32)
            .map(|i| Ipv4(universe.base.0 + i * 1601 + 7))
            .collect();
        let resolver = Arc::new(CountingResolver {
            listeners: listeners.clone(),
            calls: Default::default(),
        });
        let net = Internet::new(VirtualClock::starting_at(0));
        net.set_resolver(resolver.clone());
        let blocklist = Blocklist::new();
        let scanner = SynScanner::new(&net, &blocklist, SweepConfig::default());
        let batches = (universe.size() as usize).div_ceil(SWEEP_BATCH);
        for shards in [1u64, 4] {
            resolver.calls.store(0, std::sync::atomic::Ordering::SeqCst);
            let mut found = HashSet::new();
            let mut stats = SweepStats::default();
            for shard in 0..shards {
                let mut rng = StdRng::seed_from_u64(17);
                stats = stats
                    + scanner.sweep_shard(&[universe], &mut rng, shard, shards, |_, addr| {
                        found.insert(addr);
                    });
            }
            assert_eq!(found, listeners, "shards={shards}");
            assert_eq!(stats.probes_sent, universe.size(), "shards={shards}");
            assert_eq!(
                resolver.calls.load(std::sync::atomic::Ordering::SeqCst),
                batches,
                "shards={shards}: one resolver call per batch of {SWEEP_BATCH}"
            );
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
        let mut rng = StdRng::seed_from_u64(6);
        let scanner = SynScanner::new(&net, &blocklist, SweepConfig::default());
        let result = scanner.sweep(&[a, b], &mut rng);
        assert_eq!(result.responsive, vec![host]);
        assert_eq!(result.probes_sent, 32);
    }
}
