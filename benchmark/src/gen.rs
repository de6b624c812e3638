//! The seeded load generator: it emits *connection scripts*, not single
//! requests, because the server takes `client_ip` from the socket peer and
//! closes a connection after 100 requests. A script is a source address,
//! at most 100 requests, and the status each must come back with.
//!
//! A source address is live on at most one connection at a time (each lane
//! of a phase owns a disjoint slice of the address pools), so the expected
//! status of every request is a function of that address's own history and
//! is known before the request is sent.

use crate::deploy::{basic_auth, Scale, ACCOUNTS, STAFF};
use crate::spec::{Workload, SCRIPT_REQUESTS};
use gaa_workload::attacks::AttackTraffic;
use gaa_workload::legit::ZipfIndex;
use gaa_workload::AttackKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// Legitimate clients connect from `127.0.1.1 ..= 127.0.1.16`.
pub const LEGIT_SOURCES: u32 = 16;
/// Share of authenticated requests in `unique_mix` and `scale_1m`.
const AUTH_SHARE: f64 = 0.3;
/// Share of `attack_mix` connections opened by attackers.
const ATTACKER_SHARE: f64 = 0.2;
/// The attack lines an attacker opens with; each matches a signature entry
/// of `deploy/attack/system.eacl`.
const OPENERS: [AttackKind; 4] = [
    AttackKind::CgiExploit,
    AttackKind::SlashFlood,
    AttackKind::MalformedUrl,
    AttackKind::BufferOverflow,
];

/// Which part of a run a generator feeds. Each phase has its own random
/// stream, its own unique-token space and its own attacker addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Gate = 1,
    InProcess = 2,
    Closed = 3,
    Open = 4,
    Trace = 5,
}

pub struct Request {
    pub wire: Vec<u8>,
    /// The status the server must answer with.
    pub expect: u16,
}

pub struct Script {
    pub source: Ipv4Addr,
    pub requests: Vec<Request>,
}

impl Script {
    /// Scripts from attackers are refused throughout; `gaa_share` compares
    /// service times over legitimate scripts only.
    pub fn is_legit(&self) -> bool {
        self.requests.iter().all(|r| r.expect == 200)
    }
}

/// A keep-alive GET for `target`, optionally authenticated.
pub fn wire(target: &str, authorization: Option<&str>) -> Vec<u8> {
    let mut out = format!("GET {target} HTTP/1.1\r\nhost: bench\r\n");
    if let Some(value) = authorization {
        out.push_str("authorization: ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.into_bytes()
}

/// The per-address expected-status oracle of `attack_mix`: a clean address
/// is served, an attack line is refused and taints its address, and every
/// later line from a tainted address is refused by the `BadGuys` entry.
#[derive(Default)]
pub struct StatusOracle {
    tainted: HashSet<Ipv4Addr>,
}

impl StatusOracle {
    pub fn expect(&mut self, source: Ipv4Addr, attack_line: bool) -> u16 {
        if attack_line {
            self.tainted.insert(source);
        }
        if self.tainted.contains(&source) {
            403
        } else {
            200
        }
    }
}

pub struct Generator {
    workload: Workload,
    phase: Phase,
    lane: u32,
    lanes: u32,
    rng: StdRng,
    attacks: AttackTraffic,
    oracle: StatusOracle,
    /// Scripts emitted so far: picks the next legit source of this lane.
    scripts: u32,
    /// Attacker connections emitted so far by this lane.
    attackers: u32,
    /// Requests emitted so far: the unique token of a request line.
    requests: u64,
    pages: Vec<String>,
    page_ranks: ZipfIndex,
    account_ranks: ZipfIndex,
    staff_ranks: ZipfIndex,
}

impl Generator {
    /// Lane `lane` of `lanes` concurrent generators of `phase`.
    pub fn new(
        workload: Workload,
        scale: Scale,
        seed: u64,
        phase: Phase,
        lane: u32,
        lanes: u32,
    ) -> Self {
        assert!(
            lane < lanes && lanes <= LEGIT_SOURCES,
            "at most {LEGIT_SOURCES} lanes"
        );
        let stream = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(((phase as u64) << 32) | u64::from(lane));
        let pages = match workload {
            Workload::Scale1m => crate::deploy::workload_paths(workload, scale),
            _ => crate::deploy::workload_paths(Workload::StaticHot, scale),
        };
        Generator {
            workload,
            phase,
            lane,
            lanes,
            rng: StdRng::seed_from_u64(stream),
            attacks: AttackTraffic::new(stream ^ 0xa77ac),
            oracle: StatusOracle::default(),
            scripts: 0,
            attackers: 0,
            requests: 0,
            page_ranks: ZipfIndex::new(pages.len()),
            pages,
            // At `scale_1m` too, the first 1 024 accounts do the logging-in.
            account_ranks: ZipfIndex::new(ACCOUNTS),
            staff_ranks: ZipfIndex::new(STAFF),
        }
    }

    /// This lane's next legitimate source address (round-robin over the
    /// lane's slice of the 16).
    fn legit_source(&mut self) -> Ipv4Addr {
        let per_lane = LEGIT_SOURCES / self.lanes;
        let index = self.lane * per_lane + self.scripts % per_lane;
        Ipv4Addr::new(127, 0, 1, 1 + index as u8)
    }

    /// A never-reused attacker address in `127.<phase>.0.0/16` (reuse after
    /// 64 516 attackers is harmless: a tainted address is refused anyway).
    fn attacker_source(&mut self) -> Ipv4Addr {
        let k = self.attackers * self.lanes + self.lane;
        self.attackers += 1;
        Ipv4Addr::new(
            127,
            self.phase as u8,
            1 + (k / 254 % 254) as u8,
            1 + (k % 254) as u8,
        )
    }

    /// A token no other request of the run carries.
    fn unique(&mut self) -> String {
        self.requests += 1;
        format!("{}-{}-{}", self.phase as u8, self.lane, self.requests)
    }

    fn legit_request(&mut self) -> Vec<u8> {
        match self.workload {
            // The ten public pages, uniformly, no query string: 16 sources
            // x 10 pages = 160 decision-cache keys.
            Workload::StaticHot | Workload::AttackMix => {
                let page = self.rng.gen_range(0..self.pages.len());
                wire(&self.pages[page], None)
            }
            Workload::UniqueMix => {
                let token = self.unique();
                let kind: f64 = self.rng.gen();
                if kind < 0.1 {
                    // Staff area: always as a staff member, so it is served.
                    let page = if self.rng.gen_bool(0.5) {
                        "home"
                    } else {
                        "reports"
                    };
                    let account = self.staff_ranks.draw(&mut self.rng);
                    return wire(
                        &format!("/staff/{page}.html?q={token}"),
                        Some(&basic_auth(account)),
                    );
                }
                let target = if kind < 0.3 {
                    format!("/cgi-bin/search?q={token}")
                } else {
                    let page = self.rng.gen_range(0..self.pages.len());
                    format!("{}?q={token}", self.pages[page])
                };
                // 10 % staff + 2/9 of the rest = 30 % authenticated.
                if self.rng.gen_bool((AUTH_SHARE - 0.1) / 0.9) {
                    let account = self.account_ranks.draw(&mut self.rng);
                    wire(&target, Some(&basic_auth(account)))
                } else {
                    wire(&target, None)
                }
            }
            Workload::Scale1m => {
                let token = self.unique();
                let page = self.page_ranks.draw(&mut self.rng);
                let target = format!("{}?q={token}", self.pages[page]);
                if self.rng.gen_bool(AUTH_SHARE) {
                    let account = self.account_ranks.draw(&mut self.rng);
                    wire(&target, Some(&basic_auth(account)))
                } else {
                    wire(&target, None)
                }
            }
        }
    }

    fn attack_request(&mut self, kind: AttackKind) -> Vec<u8> {
        let request = self.attacks.generate_from(kind, "0.0.0.0");
        wire(&request.target, request.header("authorization"))
    }

    /// One attacker connection: a signature-matching opener, then three to
    /// eight benign-looking follow-ups (public pages, unknown probes and
    /// password guesses) that only the blacklist can refuse.
    fn attacker_script(&mut self) -> Script {
        let source = self.attacker_source();
        let opener = OPENERS[self.rng.gen_range(0..OPENERS.len())];
        let mut requests = vec![Request {
            wire: self.attack_request(opener),
            expect: self.oracle.expect(source, true),
        }];
        for _ in 0..self.rng.gen_range(3..=8) {
            let wire = match self.rng.gen_range(0..4) {
                0 => self.attack_request(AttackKind::UnknownProbe),
                1 => self.attack_request(AttackKind::PasswordGuessing),
                _ => self.legit_request(),
            };
            requests.push(Request {
                wire,
                expect: self.oracle.expect(source, false),
            });
        }
        Script { source, requests }
    }

    pub fn next_script(&mut self) -> Script {
        let script = if self.workload == Workload::AttackMix && self.rng.gen_bool(ATTACKER_SHARE) {
            self.attacker_script()
        } else {
            let source = self.legit_source();
            let requests = (0..SCRIPT_REQUESTS)
                .map(|_| Request {
                    wire: self.legit_request(),
                    expect: self.oracle.expect(source, false),
                })
                .collect();
            Script { source, requests }
        };
        self.scripts += 1;
        script
    }

    /// Scripts holding at least `requests` requests in total.
    pub fn take_requests(&mut self, requests: usize) -> Vec<Script> {
        let mut scripts = Vec::new();
        let mut total = 0;
        while total < requests {
            let script = self.next_script();
            total += script.requests.len();
            scripts.push(script);
        }
        scripts
    }
}

/// FNV-1a over every byte the scripts send and every status they expect:
/// the run header prints it, and the same seed must print the same hash.
pub fn stream_hash(scripts: &[Script]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &byte in bytes {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for script in scripts {
        feed(&script.source.octets());
        for request in &script.requests {
            feed(&request.wire);
            feed(&request.expect.to_be_bytes());
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Scale = Scale { principals: 10_000 };

    fn sample(workload: Workload, seed: u64) -> Vec<Script> {
        Generator::new(workload, SMALL, seed, Phase::Gate, 0, 1).take_requests(2_000)
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for workload in Workload::ALL {
            let a = stream_hash(&sample(workload, 11));
            assert_eq!(a, stream_hash(&sample(workload, 11)), "{}", workload.name());
            assert_ne!(a, stream_hash(&sample(workload, 12)), "{}", workload.name());
        }
    }

    #[test]
    fn oracle_clean_then_attack_then_refused_forever() {
        let mut oracle = StatusOracle::default();
        let attacker = Ipv4Addr::new(127, 3, 1, 1);
        let clean = Ipv4Addr::new(127, 0, 1, 1);
        assert_eq!(oracle.expect(attacker, false), 200);
        assert_eq!(oracle.expect(attacker, true), 403);
        assert_eq!(oracle.expect(attacker, false), 403);
        assert_eq!(oracle.expect(attacker, false), 403);
        assert_eq!(oracle.expect(clean, false), 200);
    }

    #[test]
    fn attack_mix_scripts_follow_the_oracle() {
        let scripts = sample(Workload::AttackMix, 11);
        let attackers: Vec<&Script> = scripts.iter().filter(|s| !s.is_legit()).collect();
        assert!(!attackers.is_empty() && attackers.len() < scripts.len());
        let mut seen = HashSet::new();
        for script in attackers {
            assert_eq!(script.source.octets()[1], Phase::Gate as u8);
            assert!(seen.insert(script.source), "attacker address reused");
            assert!(script.requests.len() >= 4 && script.requests.iter().all(|r| r.expect == 403));
        }
        for script in scripts.iter().filter(|s| s.is_legit()) {
            assert_eq!(script.source.octets()[..3], [127, 0, 1]);
            assert_eq!(script.requests.len(), SCRIPT_REQUESTS);
        }
    }

    #[test]
    fn lanes_own_disjoint_sources_and_tokens() {
        let mut sources = [HashSet::new(), HashSet::new()];
        let mut lines = HashSet::new();
        for lane in 0..2 {
            let mut generator =
                Generator::new(Workload::UniqueMix, SMALL, 11, Phase::Closed, lane, 2);
            for script in generator.take_requests(3_000) {
                sources[lane as usize].insert(script.source);
                for request in script.requests {
                    let line = request.wire.split(|&b| b == b'\r').next().unwrap().to_vec();
                    assert!(lines.insert(line), "request line repeated");
                }
            }
        }
        assert_eq!(sources[0].len(), 8);
        assert!(sources[0].is_disjoint(&sources[1]));
    }

    #[test]
    fn static_hot_has_160_cache_keys() {
        let mut keys = HashSet::new();
        for script in sample(Workload::StaticHot, 11)
            .iter()
            .chain(&sample(Workload::StaticHot, 5))
        {
            for request in &script.requests {
                keys.insert((script.source, request.wire.clone()));
            }
        }
        assert!(keys.len() <= 160 && keys.len() > 140, "{}", keys.len());
    }

    #[test]
    fn unique_mix_authenticates_about_thirty_percent() {
        let scripts = sample(Workload::UniqueMix, 11);
        let all: Vec<&Request> = scripts.iter().flat_map(|s| &s.requests).collect();
        let authed = all
            .iter()
            .filter(|r| r.wire.windows(14).any(|w| w == b"authorization:"))
            .count();
        let share = authed as f64 / all.len() as f64;
        assert!((0.25..0.35).contains(&share), "{share}");
    }
}
