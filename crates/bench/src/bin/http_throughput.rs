//! End-to-end HTTP throughput: decision-cache ablation on the serving
//! front, plus the slowloris dimensions the epoll reactor exists for.
//!
//! Spawns loopback servers over the same GAA policy and drives each with
//! concurrent keep-alive clients:
//!
//! 1. `seed_front` — the historical baseline: a blocking
//!    thread-per-connection, one-request-per-connection loop
//!    ([`with_reference_front`], which lives in this crate only);
//! 2. `reactor` — the serving front ([`ReactorFront`]), decision cache
//!    **off**;
//! 3. `reactor_cached` — the same front with the §9 authorization decision
//!    cache **on**;
//! 4. `idle_conns` / `slow_writer` — the reactor measured *while* a horde
//!    of idle keep-alive connections (and then slow-writer connections
//!    dribbling bytes of a never-completing request) is attached. Each
//!    attacker is a connection-state struct, not a thread; retention is
//!    gated (≥ 80% of unloaded throughput in a full run).
//!
//! Before any timing, two **differential gates** run:
//!
//! * the cache gate replays a seeded mixed workload item-by-item through
//!   cache-on and cache-off servers — including a mid-run policy rewrite
//!   (`FilePolicyStore::touch`) and an IDS threat-level escalation and
//!   relaxation — and refuses to benchmark if any status diverges;
//! * the front gate replays a seeded workload serially over real sockets
//!   against the reference loop and the reactor (fresh identical servers)
//!   and refuses to benchmark if any status line diverges — one
//!   production front, one small reference it must agree with.
//!
//! ```text
//! http_throughput [--write FILE] [--iterations N] [--smoke]
//! ```
//!
//! `--smoke` shrinks the run for CI (both differential gates still run in
//! full). Prints a hand-rolled JSON summary (the workspace carries no
//! `serde_json`); `--write` also saves it, which is how the committed
//! `BENCH_http_throughput.json` is produced.
//!
//! [`with_reference_front`]: gaa_bench::loopback::with_reference_front
//! [`ReactorFront`]: gaa_httpd::reactor::ReactorFront

use gaa_audit::notify::CollectingNotifier;
use gaa_audit::VirtualClock;
use gaa_bench::loopback::{
    emit_json, measure_addr, measure_window, raw_wire, status_line_over_socket,
    with_reference_front, BenchArgs,
};
use gaa_conditions::{register_standard, StandardServices};
use gaa_core::{DecisionCache, FilePolicyStore, GaaApiBuilder, MemoryPolicyStore};
use gaa_eacl::parse_eacl_list;
use gaa_httpd::reactor::{ReactorConfig, ReactorFront};
use gaa_httpd::{AccessControl, GaaGlue, Server, StatusCode, Vfs};
use gaa_ids::ThreatLevel;
use gaa_workload::{AttackKind, ScenarioBuilder};
use std::fmt::Write as _;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DEFAULT_REQUESTS_PER_CLIENT: u32 = 2000;
const CLIENTS: usize = 4;
const PATHS: &[&str] = &["/index.html", "/docs/page1.html"];

/// A policy whose compiled support set is cacheable (group membership and
/// the threat level are stamp-keyed; the regex is stable), with a lockdown
/// entry so threat escalation changes answers and an `rr_cond` on the
/// signature entry so obligations stay on the uncached path.
const POLICY: &str = "\
neg_access_right apache *
pre_cond system_threat_level local =high
neg_access_right apache *
pre_cond accessid GROUP BadGuys
neg_access_right apache *
pre_cond regex gnu *phf*
rr_cond update_log local on:failure/BadGuys/info:ip
pos_access_right apache *
";

/// The throughput policy: [`POLICY`] plus a bank of signature-style regex
/// deny entries, the shape of a production EACL after a year of incident
/// response. All additions are stable conditions, so the support set stays
/// cacheable — the ablation measures what the cache saves on a policy of
/// realistic size.
fn throughput_policy() -> String {
    let mut text = String::from(POLICY);
    for pattern in [
        "*formmail*",
        "*cmd.exe*",
        "*root.exe*",
        "*..%c0%af*",
        "*.bat*",
        "*xterm*",
        "*/etc/passwd*",
        "*campas*",
        "*aglimpse*",
        "*websendmail*",
        "*view-source*",
        "*htmlscript*",
        "*wwwboard*",
        "*sojourn*",
        "*nph-test*",
        "*printenv*",
        "*handler*",
        "*webdist*",
        "*faxsurvey*",
        "*wrap*",
        "*classifieds*",
        "*guestbook*",
        "*survey.cgi*",
        "*perl.exe*",
    ] {
        text.push_str(&format!(
            "neg_access_right apache *\npre_cond regex gnu {pattern}\n"
        ));
    }
    text
}

fn services() -> StandardServices {
    StandardServices::new(
        Arc::new(VirtualClock::new()),
        Arc::new(CollectingNotifier::new()),
    )
}

/// A GAA server over an in-memory copy of [`POLICY`], optionally with the
/// decision cache attached.
fn throughput_server(cached: bool) -> Arc<Server> {
    let services = services();
    let mut store = MemoryPolicyStore::new();
    store.set_system(parse_eacl_list(&throughput_policy()).expect("policy parses"));
    let api = register_standard(
        GaaApiBuilder::new(Arc::new(store)).with_clock(services.clock.clone()),
        &services,
    )
    .build();
    let mut glue = GaaGlue::new(api, services.clone());
    if cached {
        glue = glue.with_decision_cache(DecisionCache::new());
    }
    Arc::new(Server::new(
        Vfs::default_site(),
        AccessControl::Gaa(Box::new(glue)),
    ))
}

/// Opens `count` keep-alive connections that send nothing at all — the
/// cheapest possible slowloris. The streams must be kept alive by the
/// caller for the duration of the measurement.
fn attach_idle_connections(addr: SocketAddr, count: usize) -> Vec<TcpStream> {
    (0..count)
        .filter_map(|_| TcpStream::connect(addr).ok())
        .collect()
}

/// Spawns a dribbler thread driving `count` slow-writer connections: each
/// gets a request line plus an eternally unfinished header, fed one byte
/// per sweep, so the request can never frame and a per-read timeout would
/// reset forever. Runs until `stop` is set.
fn spawn_slow_writers(
    addr: SocketAddr,
    count: usize,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut conns: Vec<TcpStream> = (0..count)
            .filter_map(|_| {
                TcpStream::connect(addr)
                    .and_then(|s| {
                        s.set_nodelay(true)?;
                        Ok(s)
                    })
                    .ok()
            })
            .collect();
        for conn in &mut conns {
            let _ = conn.write_all(b"GET /never HTTP/1.1\r\nx-slow: ");
        }
        while !stop.load(Ordering::Relaxed) {
            for conn in &mut conns {
                let _ = conn.write_all(b"a"); // never a frame terminator
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    })
}

/// The loaded dimensions: unloaded reference, then the same
/// probe with `idle` parked connections (and, for the slow-writer pass,
/// `slow` dribblers) attached. Returns `(unloaded, idle_loaded,
/// slow_loaded)` in requests per second.
fn loaded_profile(addr: SocketAddr, idle: usize, slow: usize, window: Duration) -> (f64, f64, f64) {
    let unloaded = measure_window(addr, window, CLIENTS);
    let idle_conns = attach_idle_connections(addr, idle);
    let idle_loaded = measure_window(addr, window, CLIENTS);
    let stop = Arc::new(AtomicBool::new(false));
    let dribbler = spawn_slow_writers(addr, slow, Arc::clone(&stop));
    let slow_loaded = measure_window(addr, window, CLIENTS);
    stop.store(true, Ordering::Relaxed);
    dribbler.join().expect("dribbler panicked");
    drop(idle_conns);
    (unloaded, idle_loaded, slow_loaded)
}

/// Replays one seeded mixed workload serially against the reference loop
/// and the reactor — each over a *fresh* identical server — and counts
/// status-line divergences. Serial replay with `connection: close` keeps
/// both servers' IDS/threat trajectories identical, so any divergence is
/// a transport bug, not nondeterminism.
fn front_differential_gate() -> (usize, usize) {
    let scenario = ScenarioBuilder::new(43, vec!["/index.html".into(), "/docs/page1.html".into()])
        .legit(60)
        .attacks(AttackKind::CgiExploit, 8)
        .attacks(AttackKind::MalformedUrl, 8)
        .scan_scripts(1, 5)
        .build();
    let replay_statuses = |addr: SocketAddr| -> Vec<String> {
        scenario
            .items
            .iter()
            .map(|item| status_line_over_socket(addr, &raw_wire(&item.request)))
            .collect()
    };

    let reference_statuses = with_reference_front(&throughput_server(false), replay_statuses);

    let reactor =
        ReactorFront::spawn("127.0.0.1:0", throughput_server(false)).expect("bind reactor front");
    let reactor_statuses = replay_statuses(reactor.addr());
    reactor.stop();

    let mut mismatches = 0usize;
    for (i, (reference, reactor)) in reference_statuses.iter().zip(&reactor_statuses).enumerate() {
        if reference != reactor {
            mismatches += 1;
            eprintln!(
                "FRONT DIVERGENCE at item {i} ({:?}): reference={reference:?} reactor={reactor:?}",
                scenario.items[i].request.target
            );
        }
    }
    (scenario.items.len(), mismatches)
}

/// A GAA server over a shared on-disk system policy file, returning the
/// store handle (for `touch`) and services (for threat control).
fn file_backed_server(
    system_file: &std::path::Path,
    cached: bool,
) -> (Server, Arc<FilePolicyStore>, StandardServices) {
    let services = services();
    let store = Arc::new(FilePolicyStore::new().with_system_file(system_file));
    let api = register_standard(
        GaaApiBuilder::new(store.clone()).with_clock(services.clock.clone()),
        &services,
    )
    .build();
    let mut glue = GaaGlue::new(api, services.clone());
    if cached {
        glue = glue.with_decision_cache(DecisionCache::new());
    }
    let server = Server::new(Vfs::default_site(), AccessControl::Gaa(Box::new(glue)));
    (server, store, services)
}

/// Replays a seeded mixed scenario through cache-on and cache-off servers,
/// rewriting the policy mid-run and escalating/relaxing the threat level,
/// and returns `(items, mismatches, cache_hits)`.
fn differential_gate(dir: &std::path::Path) -> (usize, usize, u64) {
    let system_file = dir.join("system.eacl");
    std::fs::write(&system_file, POLICY).expect("write policy");

    let (plain, plain_store, plain_services) = file_backed_server(&system_file, false);
    let (cached, cached_store, cached_services) = file_backed_server(&system_file, true);

    let scenario = ScenarioBuilder::new(42, vec!["/index.html".into(), "/docs/page1.html".into()])
        .legit(120)
        .attacks(AttackKind::CgiExploit, 10)
        .attacks(AttackKind::MalformedUrl, 10)
        .scan_scripts(2, 5)
        .build();

    let n = scenario.items.len();
    let mut mismatches = 0usize;
    for (i, item) in scenario.items.iter().enumerate() {
        if i == n / 3 {
            // Operator tightens policy mid-run: /docs goes dark.
            let tightened = format!("neg_access_right apache *docs*\n{POLICY}");
            std::fs::write(&system_file, tightened).expect("rewrite policy");
            plain_store.touch();
            cached_store.touch();
        }
        if i == 2 * n / 3 {
            plain_services.threat.set_level(ThreatLevel::High);
            cached_services.threat.set_level(ThreatLevel::High);
        }
        if i == 2 * n / 3 + n / 6 {
            plain_services.threat.set_level(ThreatLevel::Low);
            cached_services.threat.set_level(ThreatLevel::Low);
        }
        let a = plain.handle(item.request.clone()).status;
        let b = cached.handle(item.request.clone()).status;
        if a != b {
            mismatches += 1;
            eprintln!(
                "DIVERGENCE at item {i} ({:?}): uncached={a:?} cached={b:?}",
                item.request.path
            );
        }
    }

    // A benign request under lockdown must have been denied on both paths —
    // sanity that the threat escalation actually bit.
    let lockdown_probe = {
        plain_services.threat.set_level(ThreatLevel::High);
        cached_services.threat.set_level(ThreatLevel::High);
        let req = gaa_httpd::HttpRequest::get("/index.html").with_client_ip("198.51.100.7");
        let a = plain.handle(req.clone()).status;
        let b = cached.handle(req).status;
        assert_eq!(a, StatusCode::Forbidden, "lockdown entry must deny");
        a == b
    };
    assert!(lockdown_probe, "lockdown divergence");

    let hits = cached.decision_cache_stats().map_or(0, |s| s.hits);
    (n, mismatches, hits)
}

fn main() {
    let args = BenchArgs::parse();
    let smoke = args.smoke;
    let per_client = args.resolve_iterations(DEFAULT_REQUESTS_PER_CLIENT, 100);

    // Correctness gate first: refuse to benchmark a cache that changes
    // answers under policy reload or threat transitions.
    let dir = std::env::temp_dir().join(format!("gaa-http-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (diff_items, mismatches, diff_hits) = differential_gate(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        mismatches, 0,
        "decision cache diverged from the interpreter on {mismatches}/{diff_items} items"
    );
    assert!(diff_hits > 0, "differential gate never hit the cache");
    eprintln!("differential gate: {diff_items} items, 0 mismatches, {diff_hits} cache hits");

    // Second gate: the serving front against its reference. Refuse to
    // publish throughputs of a front that does not serve identical answers.
    let (front_items, front_mismatches) = front_differential_gate();
    assert_eq!(
        front_mismatches, 0,
        "reactor diverged from the reference loop on {front_mismatches}/{front_items} items"
    );
    eprintln!("front differential gate: {front_items} items, 0 mismatches");

    let seed_rps = with_reference_front(&throughput_server(false), |addr| {
        measure_addr(addr, per_client, CLIENTS, PATHS)
    });

    let reactor =
        ReactorFront::spawn("127.0.0.1:0", throughput_server(false)).expect("bind reactor front");
    let reactor_rps = measure_addr(reactor.addr(), per_client, CLIENTS, PATHS);
    reactor.stop();

    let cached_server = throughput_server(true);
    let reactor_cached = ReactorFront::spawn("127.0.0.1:0", cached_server.clone())
        .expect("bind cached reactor front");
    let cached_rps = measure_addr(reactor_cached.addr(), per_client, CLIENTS, PATHS);
    reactor_cached.stop();
    let cache_stats = cached_server.decision_cache_stats();

    // Slowloris dimensions: the same probe, unloaded → with idle keep-alive
    // connections parked → with slow-writer dribblers on top. Deadlines are
    // set far beyond the measurement window so what is measured is the
    // front's *architecture* under attack, not its timeout tuning.
    let (idle_count, slow_count, window) = if smoke {
        (100, 8, Duration::from_millis(500))
    } else {
        (1000, 64, Duration::from_secs(2))
    };
    let reactor_loaded = ReactorFront::spawn_with(
        "127.0.0.1:0",
        throughput_server(false),
        ReactorConfig {
            max_connections: 8192,
            request_deadline: Duration::from_secs(60),
            idle_deadline: Duration::from_secs(120),
            ..ReactorConfig::default()
        },
        None,
    )
    .expect("bind loaded reactor front");
    let (reactor_unloaded, reactor_idle, reactor_slow) =
        loaded_profile(reactor_loaded.addr(), idle_count, slow_count, window);
    reactor_loaded.stop();

    let reactor_retention = reactor_slow / reactor_unloaded.max(1.0);
    eprintln!(
        "loaded ({idle_count} idle + {slow_count} slow): reactor {reactor_unloaded:.0} -> {reactor_idle:.0} -> {reactor_slow:.0} rps ({:.0}% retained)",
        reactor_retention * 100.0
    );
    // The reactor must shrug the attack off. Smoke windows are short and
    // noisy, so CI gets a sanity bound; full runs get the real gate.
    let retention_floor = if smoke { 0.25 } else { 0.8 };
    assert!(
        reactor_retention >= retention_floor,
        "reactor retained only {:.0}% of unloaded throughput under \
         {idle_count} idle + {slow_count} slow-writer connections (floor {:.0}%)",
        reactor_retention * 100.0,
        retention_floor * 100.0
    );

    let mut json = String::from("{");
    let _ = write!(json, "\"bench\":\"http_throughput\",");
    let _ = write!(json, "\"clients\":{CLIENTS},");
    let _ = write!(json, "\"requests_per_client\":{per_client},");
    let _ = write!(
        json,
        "\"seed_front\":{{\"req_per_sec\":{seed_rps:.0},\"us_per_request\":{:.1}}},",
        1e6 / seed_rps
    );
    let _ = write!(
        json,
        "\"reactor\":{{\"req_per_sec\":{reactor_rps:.0},\"us_per_request\":{:.1}}},",
        1e6 / reactor_rps
    );
    let _ = write!(
        json,
        "\"reactor_cached\":{{\"req_per_sec\":{cached_rps:.0},\"us_per_request\":{:.1}}},",
        1e6 / cached_rps
    );
    let _ = write!(
        json,
        "\"idle_conns\":{{\"count\":{idle_count},\
         \"reactor_unloaded_rps\":{reactor_unloaded:.0},\"reactor_loaded_rps\":{reactor_idle:.0}}},"
    );
    let _ = write!(
        json,
        "\"slow_writer\":{{\"count\":{slow_count},\"idle_count\":{idle_count},\
         \"reactor_rps\":{reactor_slow:.0},\"reactor_retention\":{reactor_retention:.3}}},"
    );
    let _ = write!(
        json,
        "\"front_differential\":{{\"items\":{front_items},\"mismatches\":{front_mismatches}}},"
    );
    if let Some(stats) = cache_stats {
        let _ = write!(
            json,
            "\"cache\":{{\"hits\":{},\"misses\":{},\"insertions\":{},\"invalidations\":{}}},",
            stats.hits, stats.misses, stats.insertions, stats.invalidations
        );
    }
    let _ = write!(
        json,
        "\"differential\":{{\"items\":{diff_items},\"mismatches\":{mismatches},\"cache_hits\":{diff_hits}}},"
    );
    let _ = write!(
        json,
        "\"speedup_reactor_vs_seed\":{:.2},",
        reactor_rps / seed_rps
    );
    let _ = write!(
        json,
        "\"speedup_cache_on_vs_off\":{:.2},",
        cached_rps / reactor_rps
    );
    let _ = write!(
        json,
        "\"speedup_reactor_cached_vs_seed\":{:.2}",
        cached_rps / seed_rps
    );
    json.push('}');

    emit_json(&json, args.write_to.as_deref());
}
