//! Middlebox fault injection: per-host network profiles.
//!
//! The polite Internet answers every live host on the first SYN. Real
//! sweeps contend with silent drops, scan-detecting firewalls, tarpits,
//! and hosts that only answer after a few tries. A [`NetProfile`]
//! attaches that hostility to an address: [`Internet::connect_attempt`]
//! consults the installed [`ProfileProvider`] and resolves each attempt
//! to a [`ConnectFate`] before any service sees the connection.
//!
//! Everything here is a pure function of `(profile, attempt)` — the
//! loss coin is a seeded RNG keyed on the profile's `fault_seed` and the
//! attempt index, never ambient entropy — so a fate can be *replayed*
//! without touching the network: ground-truth planners call
//! [`NetProfile::terminal_fate`] to predict exactly what a retrying
//! scanner will conclude, and every fault advances the caller's
//! [`VirtualClock`] honestly so hostility
//! has real time cost.
//!
//! [`Internet::connect_attempt`]: crate::internet::Internet::connect_attempt

use crate::cidr::Ipv4;
use crate::clock::VirtualClock;
use crate::internet::{Connection, ConnectionOutput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// SplitMix64 finalizer: decorrelates structured seeds (`seed ^ attempt`
/// style keys) before they feed an RNG stream.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Accept-then-stall behavior: the classic tarpit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TarpitProfile {
    /// Virtual microseconds the peer stalls before reacting to any
    /// client bytes.
    pub stall_micros: u64,
    /// Bytes of garbage dribbled back after each stall. `0` means the
    /// peer never sends anything: the connect itself burns the stall
    /// budget and fails with [`ConnectError::Stalled`].
    ///
    /// [`ConnectError::Stalled`]: crate::internet::ConnectError::Stalled
    pub dribble_bytes: u32,
}

/// A rate-limiting firewall in front of a host (or a whole prefix):
/// the scanner's first `strikes` SYNs are dropped with a penalty wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FirewallProfile {
    /// SYNs eaten before the firewall relents. [`u32::MAX`] means the
    /// scanner is blocklisted for the whole sweep — no attempt count
    /// ever gets through.
    pub strikes: u32,
    /// Virtual microseconds each eaten SYN costs the scanner (the
    /// firewall answers nothing; the scanner's rate limiter observes
    /// the throttle signature and waits).
    pub penalty_micros: u64,
}

impl FirewallProfile {
    /// A sweep-permanent blocklisting of the scanner.
    pub fn permanent(penalty_micros: u64) -> Self {
        FirewallProfile {
            strikes: u32::MAX,
            penalty_micros,
        }
    }

    /// True when no retry budget can get past this firewall.
    pub fn is_permanent(&self) -> bool {
        self.strikes == u32::MAX
    }
}

/// What one connect attempt runs into, before any listener is consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectFate {
    /// No middlebox interferes: the attempt reaches the host table.
    Deliver,
    /// The SYN (or its SYN-ACK) vanished: indistinguishable from no
    /// route, costs a full SYN timeout.
    SynLost,
    /// A rate-limiting firewall ate the SYN and penalized the source.
    Throttled {
        /// Virtual microseconds the scanner loses to the penalty.
        penalty_micros: u64,
    },
    /// The peer accepts and then stalls (tarpit).
    Tarpit(TarpitProfile),
}

/// Per-host hostility, drawn deterministically from the campaign seed.
///
/// The default profile is polite: every field off, every attempt
/// [`ConnectFate::Deliver`]. Faults compose in a fixed order —
/// firewall, flaky-host window, loss coin, tarpit — so a profile's fate
/// sequence is unambiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetProfile {
    /// Seed for this host's loss coin; derive it from the campaign seed
    /// and the address so fates replay identically everywhere.
    pub fault_seed: u64,
    /// Per-attempt SYN loss probability in permille (0–1000).
    pub syn_loss_permille: u16,
    /// The host drops its first `flaky_connects` SYNs, then behaves.
    pub flaky_connects: u32,
    /// After this many request/reply exchanges the established stream
    /// is cut mid-conversation (silent FIN). `0` disables — the
    /// mid-stream half of packet loss.
    pub cut_after_exchanges: u32,
    /// Accept-then-stall tarpit, if any.
    pub tarpit: Option<TarpitProfile>,
    /// Rate-limiting firewall, if any.
    pub firewall: Option<FirewallProfile>,
}

impl NetProfile {
    /// The fault-free profile (same as `Default`).
    pub fn polite() -> Self {
        NetProfile::default()
    }

    /// True when no fault can ever fire: the fast path the polite
    /// Internet keeps.
    pub fn is_polite(&self) -> bool {
        self.syn_loss_permille == 0
            && self.flaky_connects == 0
            && self.cut_after_exchanges == 0
            && self.tarpit.is_none()
            && self.firewall.is_none()
    }

    /// Resolves connect attempt number `attempt` (0-based) to its fate.
    /// Pure: the same `(profile, attempt)` always answers the same, at
    /// any worker count, on any engine.
    pub fn connect_fate(&self, attempt: u32) -> ConnectFate {
        if let Some(fw) = self.firewall {
            if fw.is_permanent() || attempt < fw.strikes {
                return ConnectFate::Throttled {
                    penalty_micros: fw.penalty_micros,
                };
            }
        }
        if attempt < self.flaky_connects {
            return ConnectFate::SynLost;
        }
        if self.syn_loss_permille > 0 {
            let key = self.fault_seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut coin = StdRng::seed_from_u64(mix64(key));
            if coin.gen_range(0..1000_u32) < u32::from(self.syn_loss_permille) {
                return ConnectFate::SynLost;
            }
        }
        if let Some(tarpit) = self.tarpit {
            return ConnectFate::Tarpit(tarpit);
        }
        ConnectFate::Deliver
    }

    /// The fate a retrying scanner ends on: [`ConnectFate::Deliver`] if
    /// any attempt within `max_attempts` gets through, otherwise the
    /// terminal fault (exhausted budgets report the last attempt's
    /// fault). Tarpits terminate immediately: a dribbling tarpit hands
    /// out a socket, but no protocol exchange ever completes on it.
    /// This is the ground-truth side of the scanner's `HostOutcome`
    /// classification.
    pub fn terminal_fate(&self, max_attempts: u32) -> ConnectFate {
        let max = max_attempts.max(1);
        let mut last = ConnectFate::SynLost;
        for attempt in 0..max {
            match self.connect_fate(attempt) {
                ConnectFate::Deliver => return ConnectFate::Deliver,
                fate @ ConnectFate::Tarpit(_) => return fate,
                fate => last = fate,
            }
        }
        last
    }
}

/// Answers "how hostile is the path to `addr`?" for the whole Internet.
/// Installed once via [`Internet::set_profiles`]; shared by every clock
/// view, so sharded scan workers see identical hostility.
///
/// [`Internet::set_profiles`]: crate::internet::Internet::set_profiles
pub trait ProfileProvider: Send + Sync {
    /// The profile guarding `addr` ([`NetProfile::polite`] for
    /// unlisted addresses).
    fn profile_of(&self, addr: Ipv4) -> NetProfile;
}

/// A fixed address→profile table: the simplest [`ProfileProvider`],
/// used by tests and small hand-built worlds.
#[derive(Debug, Clone, Default)]
pub struct StaticProfiles {
    profiles: BTreeMap<u32, NetProfile>,
}

impl StaticProfiles {
    /// An empty (all-polite) table.
    pub fn new() -> Self {
        StaticProfiles::default()
    }

    /// Sets the profile for one address.
    pub fn set(&mut self, addr: Ipv4, profile: NetProfile) {
        self.profiles.insert(addr.0, profile);
    }

    /// Builder-style [`StaticProfiles::set`].
    pub fn with(mut self, addr: Ipv4, profile: NetProfile) -> Self {
        self.set(addr, profile);
        self
    }
}

impl ProfileProvider for StaticProfiles {
    fn profile_of(&self, addr: Ipv4) -> NetProfile {
        self.profiles
            .get(&addr.0)
            .copied()
            .unwrap_or_else(NetProfile::polite)
    }
}

/// The connection a dribbling tarpit hands out: every input stalls the
/// clock and yields `dribble_bytes` of zeroes — enough traffic to keep
/// a naive client reading, never enough to complete a handshake.
pub struct TarpitConn {
    clock: VirtualClock,
    profile: TarpitProfile,
}

impl TarpitConn {
    /// A tarpit connection stalling on `clock`.
    pub fn new(clock: VirtualClock, profile: TarpitProfile) -> Self {
        TarpitConn { clock, profile }
    }
}

impl Connection for TarpitConn {
    fn on_data(&mut self, _data: &[u8]) -> ConnectionOutput {
        self.clock.advance_micros(self.profile.stall_micros);
        ConnectionOutput::reply(vec![0u8; self.profile.dribble_bytes as usize])
    }
}

/// Mid-stream packet loss: passes `remaining` exchanges through to the
/// real connection, then cuts the stream (silent close, no reply).
pub struct CutConn {
    inner: Box<dyn Connection>,
    remaining: u32,
}

impl CutConn {
    /// Wraps `inner`, cutting after `cut_after_exchanges` exchanges.
    pub fn new(inner: Box<dyn Connection>, cut_after_exchanges: u32) -> Self {
        CutConn {
            inner,
            remaining: cut_after_exchanges,
        }
    }
}

impl Connection for CutConn {
    fn on_data(&mut self, data: &[u8]) -> ConnectionOutput {
        if self.remaining == 0 {
            return ConnectionOutput::close_with(Vec::new());
        }
        self.remaining -= 1;
        self.inner.on_data(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polite_profile_always_delivers() {
        let p = NetProfile::polite();
        assert!(p.is_polite());
        for attempt in 0..8 {
            assert_eq!(p.connect_fate(attempt), ConnectFate::Deliver);
        }
        assert_eq!(p.terminal_fate(1), ConnectFate::Deliver);
        assert_eq!(p.terminal_fate(4), ConnectFate::Deliver);
    }

    #[test]
    fn flaky_window_then_delivers() {
        let p = NetProfile {
            flaky_connects: 2,
            ..NetProfile::polite()
        };
        assert_eq!(p.connect_fate(0), ConnectFate::SynLost);
        assert_eq!(p.connect_fate(1), ConnectFate::SynLost);
        assert_eq!(p.connect_fate(2), ConnectFate::Deliver);
        assert_eq!(p.terminal_fate(4), ConnectFate::Deliver);
        assert_eq!(p.terminal_fate(3), ConnectFate::Deliver);
        assert_eq!(p.terminal_fate(2), ConnectFate::SynLost);
    }

    #[test]
    fn firewall_strikes_and_permanence() {
        let temp = NetProfile {
            firewall: Some(FirewallProfile {
                strikes: 2,
                penalty_micros: 7,
            }),
            ..NetProfile::polite()
        };
        assert_eq!(
            temp.connect_fate(0),
            ConnectFate::Throttled { penalty_micros: 7 }
        );
        assert_eq!(
            temp.connect_fate(1),
            ConnectFate::Throttled { penalty_micros: 7 }
        );
        assert_eq!(temp.connect_fate(2), ConnectFate::Deliver);
        assert_eq!(
            temp.terminal_fate(2),
            ConnectFate::Throttled { penalty_micros: 7 }
        );
        assert_eq!(temp.terminal_fate(3), ConnectFate::Deliver);

        let perm = NetProfile {
            firewall: Some(FirewallProfile::permanent(7)),
            ..NetProfile::polite()
        };
        assert!(perm.firewall.unwrap().is_permanent());
        for attempt in [0, 1, 1000, u32::MAX - 1] {
            assert_eq!(
                perm.connect_fate(attempt),
                ConnectFate::Throttled { penalty_micros: 7 }
            );
        }
        assert_eq!(
            perm.terminal_fate(64),
            ConnectFate::Throttled { penalty_micros: 7 }
        );
    }

    #[test]
    fn loss_coin_is_deterministic_per_attempt() {
        let p = NetProfile {
            fault_seed: 0xDEAD_BEEF,
            syn_loss_permille: 500,
            ..NetProfile::polite()
        };
        // Replaying the same attempt must answer identically, and the
        // edge rates must be exact: 0 permille never loses, 1000 always.
        for attempt in 0..16 {
            assert_eq!(p.connect_fate(attempt), p.connect_fate(attempt));
        }
        let never = NetProfile {
            fault_seed: 1,
            syn_loss_permille: 0,
            ..NetProfile::polite()
        };
        let always = NetProfile {
            fault_seed: 1,
            syn_loss_permille: 1000,
            ..NetProfile::polite()
        };
        for attempt in 0..16 {
            assert_eq!(never.connect_fate(attempt), ConnectFate::Deliver);
            assert_eq!(always.connect_fate(attempt), ConnectFate::SynLost);
        }
        assert_eq!(always.terminal_fate(16), ConnectFate::SynLost);
    }

    #[test]
    fn tarpit_is_terminal() {
        let tarpit = TarpitProfile {
            stall_micros: 30_000_000,
            dribble_bytes: 4,
        };
        let p = NetProfile {
            tarpit: Some(tarpit),
            ..NetProfile::polite()
        };
        assert_eq!(p.connect_fate(0), ConnectFate::Tarpit(tarpit));
        assert_eq!(p.terminal_fate(8), ConnectFate::Tarpit(tarpit));
    }

    #[test]
    fn fault_order_firewall_before_flaky_before_tarpit() {
        // One profile with everything: strikes gate first, then the
        // flaky window, then the tarpit (no loss coin to keep it exact).
        let tarpit = TarpitProfile {
            stall_micros: 5,
            dribble_bytes: 0,
        };
        let p = NetProfile {
            flaky_connects: 2,
            tarpit: Some(tarpit),
            firewall: Some(FirewallProfile {
                strikes: 1,
                penalty_micros: 9,
            }),
            ..NetProfile::polite()
        };
        assert_eq!(
            p.connect_fate(0),
            ConnectFate::Throttled { penalty_micros: 9 }
        );
        assert_eq!(p.connect_fate(1), ConnectFate::SynLost);
        assert_eq!(p.connect_fate(2), ConnectFate::Tarpit(tarpit));
    }

    #[test]
    fn static_profiles_default_polite() {
        let a = Ipv4::new(10, 0, 0, 1);
        let b = Ipv4::new(10, 0, 0, 2);
        let table = StaticProfiles::new().with(
            a,
            NetProfile {
                flaky_connects: 1,
                ..NetProfile::polite()
            },
        );
        assert_eq!(table.profile_of(a).flaky_connects, 1);
        assert!(table.profile_of(b).is_polite());
    }

    #[test]
    fn cut_conn_cuts_after_budget() {
        struct EchoConn;
        impl Connection for EchoConn {
            fn on_data(&mut self, data: &[u8]) -> ConnectionOutput {
                ConnectionOutput::reply(data.to_vec())
            }
        }
        let mut cut = CutConn::new(Box::new(EchoConn), 2);
        assert_eq!(cut.on_data(b"a").reply, b"a");
        assert_eq!(cut.on_data(b"b").reply, b"b");
        let out = cut.on_data(b"c");
        assert!(out.reply.is_empty());
        assert!(out.close);
    }

    #[test]
    fn tarpit_conn_stalls_and_dribbles() {
        let clock = VirtualClock::starting_at(0);
        let mut conn = TarpitConn::new(
            clock.clone(),
            TarpitProfile {
                stall_micros: 1_000,
                dribble_bytes: 3,
            },
        );
        let out = conn.on_data(b"hello");
        assert_eq!(clock.now_micros(), 1_000);
        assert_eq!(out.reply, vec![0u8; 3]);
        assert!(!out.close);
    }
}
