//! Memory footprint of a materialized world, measured by a counting
//! global allocator (this file is its own test binary, so the counter
//! sees this one test and nothing else).
//!
//! A materialized world is almost entirely host material: address
//! spaces and server configs. Each host stores them once, shared with
//! its bound server core. This test keeps that so: it bounds the live
//! heap per materialized host, and it checks that
//! `MaterializationStats`' resident estimate stays a fair account of
//! that heap.

use netsim::{Cidr, Internet, VirtualClock};
use population::{LazyWorld, PopulationConfig, StrataMix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tracks the bytes currently allocated. The counter publishes no
/// other data, hence `Relaxed`.
struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only an atomic and never allocates.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Live heap per materialized host must stay under this. Measured with
/// this test: 39 770 B per host when the deployment and its server
/// core each held a copy of the space and config, in `HashMap`-keyed
/// nodes; 8 305 B with one shared copy in an index table. The bound
/// leaves 23 % above the latter. A second copy of the address space
/// alone would cross it.
const MAX_LIVE_BYTES_PER_HOST: usize = 10 * 1024;

/// The estimate counts host material only: each part a fixed size plus
/// the lengths of what it owns. The live heap adds what lengths do not
/// show (hash-table buckets, growth capacity) and the server core's and
/// the network's own state, so the estimate cannot exceed it. Measured
/// with this test: 84 % of the live heap (the estimate it replaced, a
/// per-node constant, read 4.5 %). It must stay within this band, which
/// also keeps the fixed sizes honest should the types they stand for
/// grow or shrink.
const ESTIMATE_SHARE: std::ops::RangeInclusive<f64> = 0.7..=1.0;

#[test]
fn materialized_hosts_stay_small_and_the_estimate_tracks_them() {
    let net = Internet::new(VirtualClock::starting_at(1_581_206_400));
    let universe: Vec<Cidr> = vec!["10.70.0.0/20".parse().unwrap()];
    let cfg = PopulationConfig::new(7, universe, StrataMix::paper_like(400));
    let world = LazyWorld::deploy(&net, &cfg);

    let before = LIVE.load(Ordering::Relaxed);
    let hosts = world.population().len();
    let live = LIVE.load(Ordering::Relaxed) - before;

    let stats = world.stats();
    assert_eq!(stats.hosts_materialized, hosts as u64);
    assert_eq!(hosts, 400);
    let per_host = live / hosts;
    assert!(
        per_host <= MAX_LIVE_BYTES_PER_HOST,
        "{per_host} live bytes per materialized host, bound {MAX_LIVE_BYTES_PER_HOST}"
    );
    let share = stats.bytes_resident_estimate as f64 / live as f64;
    assert!(
        ESTIMATE_SHARE.contains(&share),
        "estimate {} B is {share:.3} of the live heap {live} B, outside {ESTIMATE_SHARE:?}",
        stats.bytes_resident_estimate
    );
}
