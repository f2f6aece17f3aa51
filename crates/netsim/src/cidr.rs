//! IPv4 addresses, CIDR blocks, blocklists, and the hasher of
//! address-keyed maps.
//!
//! The paper excludes 5.79 M addresses (0.13 % of the IPv4 space) on
//! opt-out request (Appendix A.2); [`Blocklist`] models that.

use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::str::FromStr;

/// An IPv4 address as a `u32` (network byte order semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4(pub u32);

impl Ipv4 {
    /// Builds from dotted octets.
    pub fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4(u32::from_be_bytes([a, b, c, d]))
    }

    /// The four octets.
    pub fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

impl fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl FromStr for Ipv4 {
    type Err = CidrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('.').collect();
        if parts.len() != 4 {
            return Err(CidrParseError);
        }
        let mut octets = [0u8; 4];
        for (i, p) in parts.iter().enumerate() {
            octets[i] = p.parse().map_err(|_| CidrParseError)?;
        }
        Ok(Ipv4(u32::from_be_bytes(octets)))
    }
}

/// The hasher of the maps a sweep probes once per walked address,
/// keyed by an address's `u32`: netsim's bound host table and a lazy
/// world's address map. One multiply by a fixed odd constant, then the
/// 64-bit product's high half folded into its low half by xor. A
/// `HashMap` picks its bucket from the low bits of a hash, and the low
/// bits of a plain product depend only on the low bits of the address,
/// so addresses that differ only in their first octet would share a
/// bucket; the fold mixes in the high half, which every bit of the
/// address reaches. The top bits, from which std's map takes the 7-bit
/// tag it filters a bucket group with, stay the product's top bits.
/// (Rotating the product by 32 bits folds too, but its tag is the low
/// half, which correlates with the bucket when addresses pack one
/// block: in a simulated table of 8000 hosts in a /17, a missing
/// address then matched 0.38 stored tags per lookup, against 0.05.)
/// There is no per-process key, unlike std's SipHash: a hash is a
/// function of the address alone. That gives up resistance to chosen
/// keys, which the addresses a simulation allocates for itself do not
/// need.
#[derive(Debug, Clone, Copy, Default)]
pub struct AddrHash;

impl BuildHasher for AddrHash {
    type Hasher = AddrHasher;

    fn build_hasher(&self) -> AddrHasher {
        AddrHasher(0)
    }
}

/// The [`Hasher`] an [`AddrHash`] map builds per key.
#[derive(Debug, Clone, Copy)]
pub struct AddrHasher(u64);

/// 2⁶⁴ divided by the golden ratio, rounded to odd (Fibonacci hashing).
const ADDR_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for AddrHasher {
    fn write_u32(&mut self, addr: u32) {
        let product = (self.0 ^ u64::from(addr)).wrapping_mul(ADDR_MULTIPLIER);
        self.0 = product ^ (product >> 32);
    }

    /// Keys that are not a `u32` go through the same step a byte at a
    /// time: correct, but the one-multiply cost holds for addresses only.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u32(u32::from(byte));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Error parsing an address or CIDR block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CidrParseError;

impl fmt::Display for CidrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IPv4 address or CIDR block")
    }
}

impl std::error::Error for CidrParseError {}

/// A CIDR block (`base/prefix_len`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cidr {
    /// Network base address (host bits zeroed).
    pub base: Ipv4,
    /// Prefix length 0–32.
    pub prefix_len: u8,
}

impl Cidr {
    /// Builds a block, zeroing host bits.
    pub fn new(addr: Ipv4, prefix_len: u8) -> Self {
        assert!(prefix_len <= 32);
        Cidr {
            base: Ipv4(addr.0 & Self::mask(prefix_len)),
            prefix_len,
        }
    }

    fn mask(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - prefix_len)
        }
    }

    /// True if `addr` lies in the block.
    pub fn contains(&self, addr: Ipv4) -> bool {
        addr.0 & Self::mask(self.prefix_len) == self.base.0
    }

    /// Number of addresses in the block.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.prefix_len)
    }

    /// First address.
    pub fn first(&self) -> Ipv4 {
        self.base
    }

    /// Last address.
    pub fn last(&self) -> Ipv4 {
        Ipv4(self.base.0 | !Self::mask(self.prefix_len))
    }

    /// Iterates all addresses in the block (ascending).
    pub fn iter(&self) -> impl Iterator<Item = Ipv4> {
        let first = self.base.0 as u64;
        let size = self.size();
        (first..first + size).map(|v| Ipv4(v as u32))
    }
}

impl fmt::Display for Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base, self.prefix_len)
    }
}

impl FromStr for Cidr {
    type Err = CidrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or(CidrParseError)?;
        let addr: Ipv4 = addr.parse()?;
        let len: u8 = len.parse().map_err(|_| CidrParseError)?;
        if len > 32 {
            return Err(CidrParseError);
        }
        Ok(Cidr::new(addr, len))
    }
}

/// An opt-out blocklist of CIDR blocks with O(log n) lookups.
#[derive(Debug, Clone, Default)]
pub struct Blocklist {
    // Canonical: sorted by base address, and no block lies inside
    // another. CIDR blocks either nest or are disjoint, so at most one
    // block can contain a given address.
    blocks: Vec<Cidr>,
}

impl Blocklist {
    /// An empty blocklist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a block. A block an existing one already covers changes
    /// nothing; existing blocks the new one covers are merged into it.
    pub fn add(&mut self, block: Cidr) {
        if self
            .block_of(block.base)
            .is_some_and(|b| b.prefix_len <= block.prefix_len)
        {
            return;
        }
        // Every block based inside the new one nests inside it.
        let start = self.blocks.partition_point(|b| b.base.0 < block.base.0);
        let end = self.blocks.partition_point(|b| b.base.0 <= block.last().0);
        self.blocks.splice(start..end, [block]);
    }

    /// Parses and adds a block.
    pub fn add_str(&mut self, s: &str) -> Result<(), CidrParseError> {
        self.add(s.parse()?);
        Ok(())
    }

    /// Number of blocks, after nested blocks merged into the block
    /// covering them.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if no blocks are present.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total number of excluded addresses (each counted once, since the
    /// blocks are disjoint).
    pub fn excluded_addresses(&self) -> u64 {
        self.blocks.iter().map(|b| b.size()).sum()
    }

    /// True if `addr` is blocklisted.
    pub fn contains(&self, addr: Ipv4) -> bool {
        self.block_of(addr).is_some()
    }

    /// The block containing `addr`, if any. The blocks are disjoint, so
    /// only the one with the greatest base not above `addr` can.
    fn block_of(&self, addr: Ipv4) -> Option<&Cidr> {
        let idx = self.blocks.partition_point(|b| b.base.0 <= addr.0);
        let candidate = self.blocks.get(idx.checked_sub(1)?)?;
        candidate.contains(addr).then_some(candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let ip: Ipv4 = "198.51.100.7".parse().unwrap();
        assert_eq!(ip, Ipv4::new(198, 51, 100, 7));
        assert_eq!(ip.to_string(), "198.51.100.7");
        assert!("300.1.1.1".parse::<Ipv4>().is_err());
        assert!("1.2.3".parse::<Ipv4>().is_err());

        let cidr: Cidr = "10.0.0.0/8".parse().unwrap();
        assert_eq!(cidr.to_string(), "10.0.0.0/8");
        assert!("10.0.0.0/33".parse::<Cidr>().is_err());
        assert!("10.0.0.0".parse::<Cidr>().is_err());
    }

    #[test]
    fn cidr_normalizes_host_bits() {
        let cidr = Cidr::new(Ipv4::new(192, 168, 5, 77), 16);
        assert_eq!(cidr.base, Ipv4::new(192, 168, 0, 0));
        assert_eq!(cidr.last(), Ipv4::new(192, 168, 255, 255));
        assert_eq!(cidr.size(), 65536);
    }

    #[test]
    fn contains_boundaries() {
        let cidr: Cidr = "198.51.100.0/24".parse().unwrap();
        assert!(cidr.contains(Ipv4::new(198, 51, 100, 0)));
        assert!(cidr.contains(Ipv4::new(198, 51, 100, 255)));
        assert!(!cidr.contains(Ipv4::new(198, 51, 101, 0)));
        assert!(!cidr.contains(Ipv4::new(198, 51, 99, 255)));
    }

    #[test]
    fn slash_zero_and_slash_32() {
        let all: Cidr = "0.0.0.0/0".parse().unwrap();
        assert!(all.contains(Ipv4(u32::MAX)));
        assert_eq!(all.size(), 1 << 32);
        let one: Cidr = "1.2.3.4/32".parse().unwrap();
        assert!(one.contains(Ipv4::new(1, 2, 3, 4)));
        assert!(!one.contains(Ipv4::new(1, 2, 3, 5)));
        assert_eq!(one.size(), 1);
    }

    #[test]
    fn iter_covers_block() {
        let cidr: Cidr = "10.1.2.0/30".parse().unwrap();
        let addrs: Vec<Ipv4> = cidr.iter().collect();
        assert_eq!(addrs.len(), 4);
        assert_eq!(addrs[0], Ipv4::new(10, 1, 2, 0));
        assert_eq!(addrs[3], Ipv4::new(10, 1, 2, 3));
    }

    #[test]
    fn blocklist_lookup() {
        let mut bl = Blocklist::new();
        bl.add_str("10.0.0.0/8").unwrap();
        bl.add_str("198.51.100.0/24").unwrap();
        bl.add_str("203.0.113.7/32").unwrap();
        assert!(bl.contains(Ipv4::new(10, 200, 1, 1)));
        assert!(bl.contains(Ipv4::new(198, 51, 100, 99)));
        assert!(bl.contains(Ipv4::new(203, 0, 113, 7)));
        assert!(!bl.contains(Ipv4::new(203, 0, 113, 8)));
        assert!(!bl.contains(Ipv4::new(8, 8, 8, 8)));
        assert_eq!(bl.len(), 3);
        assert_eq!(bl.excluded_addresses(), (1 << 24) + 256 + 1);
    }

    #[test]
    fn blocklist_overlapping_blocks() {
        let mut bl = Blocklist::new();
        bl.add_str("10.0.0.0/8").unwrap();
        bl.add_str("10.5.0.0/16").unwrap();
        assert!(bl.contains(Ipv4::new(10, 5, 1, 1)));
        assert!(bl.contains(Ipv4::new(10, 99, 1, 1)));
    }

    #[test]
    fn covering_block_far_below_still_matches() {
        // 40 nested /24s sort between the /8 and the probed address;
        // the covering /8 must still be found.
        let mut bl = Blocklist::new();
        bl.add_str("10.0.0.0/8").unwrap();
        for i in 0..40u8 {
            bl.add(Cidr::new(Ipv4::new(10, 0, i, 0), 24));
        }
        assert!(bl.contains(Ipv4::new(10, 1, 0, 0)));
        assert!(bl.contains(Ipv4::new(10, 0, 39, 7)));
        assert!(!bl.contains(Ipv4::new(11, 0, 0, 0)));
        assert_eq!(bl.len(), 1);
        assert_eq!(bl.excluded_addresses(), 1 << 24);

        // Added the other way round, the /8 absorbs the /24s.
        let mut bl = Blocklist::new();
        for i in 0..40u8 {
            bl.add(Cidr::new(Ipv4::new(10, 0, i, 0), 24));
        }
        bl.add_str("192.0.2.0/24").unwrap();
        bl.add_str("10.0.0.0/8").unwrap();
        assert!(bl.contains(Ipv4::new(10, 1, 0, 0)));
        assert!(bl.contains(Ipv4::new(192, 0, 2, 1)));
        assert_eq!(bl.len(), 2);
        assert_eq!(bl.excluded_addresses(), (1 << 24) + 256);
    }

    #[test]
    fn blocklist_matches_brute_force_membership() {
        // Nested, equal-base, duplicate and disjoint blocks in one list.
        let blocks = [
            "10.0.4.0/24",
            "10.0.0.0/22",
            "10.0.0.0/24",
            "10.0.0.0/22",
            "10.0.8.0/21",
            "10.0.12.128/25",
            "10.0.16.0/32",
            "10.0.0.0/23",
            "10.0.20.0/22",
        ];
        let mut bl = Blocklist::new();
        let mut added: Vec<Cidr> = Vec::new();
        for s in blocks {
            bl.add_str(s).unwrap();
            added.push(s.parse().unwrap());
            for a in 0..(1u32 << 15) {
                let addr = Ipv4(Ipv4::new(10, 0, 0, 0).0 + a);
                let want = added.iter().any(|c| c.contains(addr));
                assert_eq!(bl.contains(addr), want, "{addr} after {s}");
            }
        }
        let covered = (0..(1u32 << 15))
            .filter(|&a| bl.contains(Ipv4(Ipv4::new(10, 0, 0, 0).0 + a)))
            .count() as u64;
        assert_eq!(bl.excluded_addresses(), covered);
    }

    #[test]
    fn addr_hash_is_a_pure_function_that_spreads_first_octets() {
        let hash = |addr: u32| AddrHash.hash_one(addr);
        // No per-process or per-map state: the hash of an address is a
        // constant, pinned here so that a change of function shows,
        // and an `Ipv4` key hashes like its `u32`.
        let addr = Ipv4::new(10, 1, 2, 3);
        assert_eq!(hash(addr.0), 0x024C_484E_62A0_D671);
        assert_eq!(AddrHash.hash_one(addr), hash(addr.0));
        // Addresses that differ only in their first octet land in
        // distinct buckets of a 2^16-bucket table: the fold brings the
        // high octets into the low bits.
        for rest in [0, Ipv4::new(0, 10, 11, 12).0, 0x00FF_FFFF] {
            let low: std::collections::BTreeSet<u64> = (0..=255u32)
                .map(|first| hash(first << 24 | rest) & 0xFFFF)
                .collect();
            assert_eq!(low.len(), 256, "rest {rest:#x}");
        }
    }

    #[test]
    fn empty_blocklist() {
        let bl = Blocklist::new();
        assert!(bl.is_empty());
        assert!(!bl.contains(Ipv4::new(1, 1, 1, 1)));
    }
}
