//! The million-principal scale benchmark: sliced vs unsliced serving.
//!
//! For each population size N in {10^4, 10^5, 10^6} this bench builds a
//! seeded deployment of N subjects partitioned into D = N/1000 department
//! groups, one document per department, and a monolithic system EACL of
//! D + 3 entries (one `svc-<d>` grant guarded by `accessid GROUP dept<d>`
//! per department, plus the §7.2 blacklist, CGI-signature, and final
//! apache grant entries). Per apache request cell, the verified slice
//! keeps ~3 of those entries; the full composition pays a deep policy
//! copy plus a D+3-entry scan per request.
//!
//! Two server configurations are driven through the real serving front
//! ([`ReactorFront`]) with concurrent keep-alive clients replaying a zipf-skewed
//! workload ([`gaa_workload::legit::ZipfIndex`] over paths *and*
//! accounts, 30% authenticated):
//!
//! * **unsliced** — plain GAA glue, full composition per request;
//! * **sliced** — `with_policy_slicing` (the proven per-cell fast path)
//!   plus the front-door `with_auth_cache` (verified-credential cache
//!   over the interned subject table).
//!
//! Before any timing, a **differential gate** replays one seeded mixed
//! workload — benign traffic, CGI exploits that grow the `BadGuys`
//! blacklist mid-run, follow-ups from blacklisted hosts, and a
//! bad-password login — through both configurations in-process and
//! refuses to benchmark (exit non-zero) on any status divergence. The
//! gate runs at every size, in full, `--smoke` included.
//!
//! Resident memory (`VmRSS`) is sampled after each configuration's
//! measurement; the populations are built and dropped sequentially so the
//! peak footprint is one configuration, not two.
//!
//! ```text
//! scale [--write FILE] [--iterations N] [--smoke]
//! ```
//!
//! `--smoke` runs the 10^4 population only, with a shortened timed
//! section. Prints a hand-rolled JSON summary (the workspace carries no
//! `serde_json`); `--write` also saves it, which is how the committed
//! `BENCH_scale.json` is produced.

use gaa_audit::notify::CollectingNotifier;
use gaa_audit::VirtualClock;
use gaa_bench::loopback::{
    emit_json, keepalive_wire, measure_wires, run_wire_client, vm_rss_kb, BenchArgs,
};
use gaa_conditions::{register_standard, StandardServices};
use gaa_core::{GaaApiBuilder, MemoryPolicyStore};
use gaa_eacl::parse_eacl_list;
use gaa_httpd::auth::HtpasswdStore;
use gaa_httpd::{AccessControl, GaaGlue, HttpRequest, ReactorFront, Server, Vfs};
use gaa_workload::legit::{Account, LegitTraffic};
use std::fmt::Write as _;
use std::sync::Arc;

const DEFAULT_REQUESTS_PER_CLIENT: u32 = 2000;
const CLIENTS: usize = 4;
/// Accounts the workload actually authenticates with (zipf-ranked): a
/// large user base where a small active set does most of the logging-in.
const ACTIVE_ACCOUNTS: usize = 1024;
/// Distinct request wires replayed round-robin by each client.
const WIRE_POOL: usize = 512;

/// Principals per department (and one document per department).
const PRINCIPALS_PER_DEPT: usize = 1000;

fn account(i: usize) -> Account {
    Account {
        user: format!("user{i}"),
        password: format!("pw{i}"),
    }
}

/// The monolithic system EACL: one guarded per-department service grant
/// per department plus the §7.2 tail. Apache request cells keep only the
/// tail — that is the slice.
fn scale_policy(departments: usize) -> String {
    let mut text = String::new();
    for d in 0..departments {
        let _ = write!(
            text,
            "pos_access_right svc-{d} *\npre_cond accessid GROUP dept{d}\n"
        );
    }
    text.push_str(
        "neg_access_right apache *\n\
         pre_cond accessid GROUP BadGuys\n\
         neg_access_right apache *\n\
         pre_cond regex gnu *phf*\n\
         rr_cond update_log local on:failure/BadGuys/info:ip\n\
         pos_access_right apache *\n",
    );
    text
}

/// One small document per department on top of the default site.
fn scale_vfs(departments: usize) -> Vfs {
    let mut vfs = Vfs::default_site();
    for d in 0..departments {
        vfs.add_file(
            &format!("/dept{d}/index.html"),
            format!("<html>department {d}</html>"),
            "text/html",
        );
    }
    vfs
}

/// Builds one fully-populated server configuration: N principals in D
/// department groups, N htpasswd users, the D+3-entry system policy.
fn scale_server(principals: usize, departments: usize, sliced: bool) -> Arc<Server> {
    let services = StandardServices::new(
        Arc::new(VirtualClock::new()),
        Arc::new(CollectingNotifier::new()),
    );
    for i in 0..principals {
        services
            .groups
            .add(&format!("dept{}", i % departments), &format!("user{i}"));
    }
    let mut users = HtpasswdStore::new("scale");
    for i in 0..principals {
        let a = account(i);
        users.add_user(&a.user, &a.password);
    }
    let mut store = MemoryPolicyStore::new();
    store.set_system(parse_eacl_list(&scale_policy(departments)).expect("scale policy parses"));
    let api = register_standard(
        GaaApiBuilder::new(Arc::new(store)).with_clock(services.clock.clone()),
        &services,
    )
    .build();
    let mut glue = GaaGlue::new(api, services.clone());
    if sliced {
        glue = glue.with_policy_slicing(8192);
    }
    let mut server = Server::new(scale_vfs(departments), AccessControl::Gaa(Box::new(glue)))
        .with_users(Arc::new(users));
    if sliced {
        server = server.with_auth_cache(4096);
    }
    Arc::new(server)
}

/// The zipf-skewed benign traffic generator over the department documents
/// and the active-account subset.
fn legit_traffic(seed: u64, departments: usize, auth_fraction: f64) -> LegitTraffic {
    let paths: Vec<String> = (0..departments)
        .map(|d| format!("/dept{d}/index.html"))
        .collect();
    let accounts: Vec<Account> = (0..ACTIVE_ACCOUNTS.min(1.max(departments * 10)))
        .map(account)
        .collect();
    LegitTraffic::new(seed, paths)
        .with_accounts(accounts)
        .with_zipf_accounts()
        .with_auth_fraction(auth_fraction)
        .with_client_ips((1..=20).map(|i| format!("10.0.0.{i}")).collect())
}

/// The seeded mixed workload for the differential gate: benign zipf
/// traffic with CGI exploits spliced in at fixed offsets, follow-ups from
/// every attacked IP (the blacklist must have grown identically), and one
/// bad-password login attempt.
fn gate_workload(departments: usize) -> Vec<HttpRequest> {
    let mut legit = legit_traffic(97, departments, 0.4);
    let mut items = Vec::new();
    let mut attack_ips = Vec::new();
    for (i, request) in legit.take(240).into_iter().enumerate() {
        if i % 37 == 17 {
            let ip = format!("203.0.113.{}", 1 + attack_ips.len());
            items.push(
                HttpRequest::get("/cgi-bin/phf?Qalias=x%0a/bin/cat").with_client_ip(ip.clone()),
            );
            attack_ips.push(ip);
        }
        items.push(request);
    }
    // Post-attack probes: every attacking host is now blacklisted, and a
    // benign-looking request from it must be denied by entry 1.
    for ip in attack_ips {
        items.push(HttpRequest::get("/dept0/index.html").with_client_ip(ip));
    }
    // A wrong password never authenticates (and is never cached).
    items.push(
        HttpRequest::get("/dept0/index.html")
            .with_client_ip("10.0.0.3")
            .with_header("authorization", "Basic dXNlcjA6d3Jvbmc="), // user0:wrong
    );
    items
}

/// Replays the gate workload in-process and returns the status sequence.
fn replay_statuses(server: &Server, workload: &[HttpRequest]) -> Vec<String> {
    workload
        .iter()
        .map(|request| format!("{:?}", server.handle(request.clone()).status))
        .collect()
}

struct ConfigRun {
    rps: f64,
    rss_kb: u64,
    statuses: Vec<String>,
    slice_stats: Option<gaa_core::SliceStats>,
}

/// Builds, gates, warms, and measures one configuration, then drops it.
fn run_config(
    principals: usize,
    departments: usize,
    sliced: bool,
    per_client: u32,
    workload: &[HttpRequest],
) -> ConfigRun {
    let server = scale_server(principals, departments, sliced);
    // Differential-gate leg first: the attack side effects (blacklist
    // growth) land before the timed section on both configurations alike.
    let statuses = replay_statuses(&server, workload);

    let front = ReactorFront::spawn("127.0.0.1:0", server.clone()).expect("bind reactor front");
    let addr = front.addr();

    // Timed-section wires: benign zipf traffic only (every response 200).
    let mut traffic = legit_traffic(7, departments, 0.3);
    let wires: Arc<Vec<Vec<u8>>> =
        Arc::new(traffic.take(WIRE_POOL).iter().map(keepalive_wire).collect());
    // Cell warmup: touch every department document once anonymously and
    // once authenticated, so per-cell one-time costs (slice proofs on the
    // sliced path, pattern plans on both) amortize off the clock the way
    // they do in a long-running deployment.
    let warmup: Vec<Vec<u8>> = (0..departments)
        .flat_map(|d| {
            let anon = HttpRequest::get(&format!("/dept{d}/index.html"));
            let auth = HttpRequest::get(&format!("/dept{d}/index.html"))
                .with_header("authorization", "Basic dXNlcjA6cHcw"); // user0:pw0
            [keepalive_wire(&anon), keepalive_wire(&auth)]
        })
        .collect();
    run_wire_client(addr, &warmup, warmup.len() as u32, &["HTTP/1.1 200"]);

    let rps = measure_wires(addr, &wires, per_client, CLIENTS, &["HTTP/1.1 200"]);
    front.stop();

    let rss_kb = vm_rss_kb().unwrap_or(0);
    let slice_stats = server.slice_stats();
    ConfigRun {
        rps,
        rss_kb,
        statuses,
        slice_stats,
    }
}

fn main() {
    let args = BenchArgs::parse();
    let per_client = args.resolve_iterations(DEFAULT_REQUESTS_PER_CLIENT, 200);
    let sizes: &[usize] = if args.smoke {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };

    let mut rows = Vec::new();
    for &n in sizes {
        let departments = (n / PRINCIPALS_PER_DEPT).max(1);
        let entries = departments + 3;
        let workload = gate_workload(departments);
        eprintln!(
            "N={n}: {departments} departments, {entries}-entry system policy, \
             gate workload {} items",
            workload.len()
        );

        let unsliced = run_config(n, departments, false, per_client, &workload);
        let sliced = run_config(n, departments, true, per_client, &workload);

        // The differential gate proper: both configurations must have
        // produced the identical status sequence, side effects included.
        let mismatches = unsliced
            .statuses
            .iter()
            .zip(&sliced.statuses)
            .enumerate()
            .filter(|(i, (a, b))| {
                if a != b {
                    eprintln!(
                        "DIVERGENCE at item {i} ({:?}): unsliced={a} sliced={b}",
                        workload[*i].target
                    );
                }
                a != b
            })
            .count();
        assert_eq!(
            mismatches,
            0,
            "sliced serving diverged from full evaluation on {mismatches}/{} items at N={n}",
            workload.len()
        );
        // And the attacks must actually have exercised the deny side.
        assert!(
            unsliced.statuses.iter().any(|s| s.contains("Forbidden")),
            "gate workload never hit a denial at N={n}"
        );

        let stats = sliced.slice_stats.unwrap_or_default();
        assert!(
            stats.hits > 0,
            "the sliced configuration never served from a slice at N={n}: {stats:?}"
        );
        let speedup = sliced.rps / unsliced.rps;
        eprintln!(
            "N={n}: unsliced {:.0} rps ({} MB), sliced {:.0} rps ({} MB), {speedup:.2}x, \
             slices {} hits / {} full / {} guard fallbacks, gate {} items 0 mismatches",
            unsliced.rps,
            unsliced.rss_kb / 1024,
            sliced.rps,
            sliced.rss_kb / 1024,
            stats.hits,
            stats.full,
            stats.guard_fallbacks,
            workload.len()
        );
        rows.push((n, departments, entries, unsliced, sliced, workload.len()));
    }

    // Acceptance gate for full runs: the sliced fast path must hold at
    // least a 3x throughput advantage at the million-principal scale.
    if !args.smoke {
        if let Some((n, _, _, unsliced, sliced, _)) = rows.last() {
            let speedup = sliced.rps / unsliced.rps;
            assert!(
                speedup >= 3.0,
                "sliced serving is only {speedup:.2}x unsliced at N={n} (floor 3x)"
            );
        }
    }

    let mut json = String::from("{");
    let _ = write!(json, "\"bench\":\"scale\",");
    let _ = write!(json, "\"clients\":{CLIENTS},");
    let _ = write!(json, "\"requests_per_client\":{per_client},");
    json.push_str("\"results\":[");
    for (i, (n, departments, entries, unsliced, sliced, gate_items)) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let stats = sliced.slice_stats.unwrap_or_default();
        let _ = write!(
            json,
            "{{\"principals\":{n},\"departments\":{departments},\"policy_entries\":{entries},\
             \"unsliced\":{{\"req_per_sec\":{:.0},\"us_per_request\":{:.1},\"vm_rss_kb\":{}}},\
             \"sliced\":{{\"req_per_sec\":{:.0},\"us_per_request\":{:.1},\"vm_rss_kb\":{},\
             \"slice_hits\":{},\"slice_full\":{},\"guard_fallbacks\":{}}},\
             \"speedup_sliced_vs_unsliced\":{:.2},\
             \"differential\":{{\"items\":{gate_items},\"mismatches\":0}}}}",
            unsliced.rps,
            1e6 / unsliced.rps,
            unsliced.rss_kb,
            sliced.rps,
            1e6 / sliced.rps,
            sliced.rss_kb,
            stats.hits,
            stats.full,
            stats.guard_fallbacks,
            sliced.rps / unsliced.rps,
        );
    }
    json.push_str("]}");

    emit_json(&json, args.write_to.as_deref());
}
