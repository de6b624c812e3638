//! Policy hot reload: editing policy files changes decisions without
//! restarting the server — both on the paper-faithful re-read-per-request
//! path and through the §9 cache via generation-based invalidation.

use gaa::audit::notify::CollectingNotifier;
use gaa::audit::VirtualClock;
use gaa::conditions::{register_standard, StandardServices};
use gaa::core::{
    AnswerCode, CachingPolicyStore, DecisionCache, ExecutionMetrics, FilePolicyStore,
    GaaApiBuilder, MemoryPolicyStore, Outcome, PolicyError, PolicyStore,
};
use gaa::eacl::{parse_eacl, Eacl};
use gaa::httpd::{AccessControl, GaaGlue, HttpRequest, Server, StatusCode, Vfs};
use gaa::ids::ThreatLevel;
use std::path::PathBuf;
use std::sync::{Arc, RwLock};

fn setup_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gaa-reload-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn gaa_server_over(store: impl gaa::core::PolicyStore + 'static) -> (Server, StandardServices) {
    let services = StandardServices::new(
        Arc::new(VirtualClock::new()),
        Arc::new(CollectingNotifier::new()),
    );
    let api = register_standard(
        GaaApiBuilder::new(Arc::new(store)).with_clock(services.clock.clone()),
        &services,
    )
    .build();
    let glue = GaaGlue::new(api, services.clone());
    (
        Server::new(Vfs::default_site(), AccessControl::Gaa(Box::new(glue))),
        services,
    )
}

fn get(server: &Server) -> StatusCode {
    server
        .handle(HttpRequest::get("/index.html").with_client_ip("10.0.0.1"))
        .status
}

#[test]
fn uncached_store_picks_up_edits_immediately() {
    let dir = setup_dir("uncached");
    let system = dir.join("system.eacl");
    std::fs::write(&system, "pos_access_right apache *\n").unwrap();
    let (server, _services) = gaa_server_over(FilePolicyStore::new().with_system_file(&system));

    assert_eq!(get(&server), StatusCode::Ok);

    // The operator reacts to an incident: system-wide deny.
    std::fs::write(&system, "neg_access_right * *\n").unwrap();
    assert_eq!(get(&server), StatusCode::Forbidden, "no restart needed");

    // And reopens afterwards.
    std::fs::write(&system, "pos_access_right apache *\n").unwrap();
    assert_eq!(get(&server), StatusCode::Ok);
}

#[test]
fn cached_store_serves_stale_until_touched() {
    let dir = setup_dir("cached");
    let system = dir.join("system.eacl");
    std::fs::write(&system, "pos_access_right apache *\n").unwrap();
    let inner = FilePolicyStore::new().with_system_file(&system);

    // Keep a handle to signal invalidation, as a reload endpoint would.
    let cached = Arc::new(CachingPolicyStore::new(inner));
    let services = StandardServices::new(
        Arc::new(VirtualClock::new()),
        Arc::new(CollectingNotifier::new()),
    );
    let api = register_standard(
        GaaApiBuilder::new(cached.clone()).with_clock(services.clock.clone()),
        &services,
    )
    .build();
    let glue = GaaGlue::new(api, services.clone());
    let server = Server::new(Vfs::default_site(), AccessControl::Gaa(Box::new(glue)));

    assert_eq!(get(&server), StatusCode::Ok);
    std::fs::write(&system, "neg_access_right * *\n").unwrap();
    // The cache hasn't been told: stale grant (the documented trade-off).
    assert_eq!(get(&server), StatusCode::Ok);
    // Operator signals the change; next request sees the deny.
    cached.inner().touch();
    assert_eq!(get(&server), StatusCode::Forbidden);
    let stats = cached.stats();
    assert!(stats.hits >= 1);
    assert!(stats.invalidations >= 2);
}

#[test]
fn per_directory_policy_appears_when_created() {
    let dir = setup_dir("perdir");
    std::fs::create_dir_all(dir.join("docs")).unwrap();
    std::fs::write(dir.join(".eacl"), "pos_access_right apache *\n").unwrap();
    let (server, _services) = gaa_server_over(FilePolicyStore::new().with_local_root(&dir));
    let probe = |srv: &Server| {
        srv.handle(HttpRequest::get("/docs/page1.html").with_client_ip("10.0.0.1"))
            .status
    };
    assert_eq!(probe(&server), StatusCode::Ok);
    // A webmaster drops a deny into the subdirectory.
    std::fs::write(dir.join("docs/.eacl"), "neg_access_right apache *\n").unwrap();
    assert_eq!(probe(&server), StatusCode::Forbidden);
    // Objects outside that directory are unaffected.
    assert_eq!(get(&server), StatusCode::Ok);
}

/// A GAA server with the §9 authorization decision cache attached, over a
/// shared [`FilePolicyStore`] handle (kept for `touch`).
fn cached_decision_server(store: Arc<FilePolicyStore>) -> (Server, StandardServices) {
    let services = StandardServices::new(
        Arc::new(VirtualClock::new()),
        Arc::new(CollectingNotifier::new()),
    );
    let api = register_standard(
        GaaApiBuilder::new(store).with_clock(services.clock.clone()),
        &services,
    )
    .build();
    let glue = GaaGlue::new(api, services.clone()).with_decision_cache(DecisionCache::new());
    (
        Server::new(Vfs::default_site(), AccessControl::Gaa(Box::new(glue))),
        services,
    )
}

#[test]
fn decision_cache_invalidates_on_generation_bump() {
    let dir = setup_dir("decision-cache");
    let system = dir.join("system.eacl");
    std::fs::write(&system, "pos_access_right apache *\n").unwrap();
    let store = Arc::new(FilePolicyStore::new().with_system_file(&system));
    let (server, _services) = cached_decision_server(store.clone());

    // Miss, then hit.
    assert_eq!(get(&server), StatusCode::Ok);
    assert_eq!(get(&server), StatusCode::Ok);
    let stats = server.decision_cache_stats().unwrap();
    assert!(stats.hits >= 1, "{stats:?}");

    // An edit without touch() keeps serving the cached grant — the same
    // documented trade-off as CachingPolicyStore (DESIGN §9).
    std::fs::write(&system, "neg_access_right * *\n").unwrap();
    assert_eq!(get(&server), StatusCode::Ok, "stale until touched");

    // touch() bumps the store generation; the stamp mismatch flushes every
    // cached decision and the deny takes effect.
    store.touch();
    assert_eq!(get(&server), StatusCode::Forbidden);
    let stats = server.decision_cache_stats().unwrap();
    assert!(stats.invalidations >= 1, "{stats:?}");

    // And back: reopening also flows through.
    std::fs::write(&system, "pos_access_right apache *\n").unwrap();
    store.touch();
    assert_eq!(get(&server), StatusCode::Ok);
}

#[test]
fn decision_cache_invalidates_on_threat_transition() {
    let dir = setup_dir("decision-cache-threat");
    let system = dir.join("system.eacl");
    std::fs::write(
        &system,
        "neg_access_right apache *\n\
         pre_cond system_threat_level local =high\n\
         pos_access_right apache *\n",
    )
    .unwrap();
    let store = Arc::new(FilePolicyStore::new().with_system_file(&system));
    let (server, services) = cached_decision_server(store);

    assert_eq!(get(&server), StatusCode::Ok);
    assert_eq!(get(&server), StatusCode::Ok); // cached grant

    services.threat.set_level(ThreatLevel::High);
    assert_eq!(get(&server), StatusCode::Forbidden, "lockdown beats cache");

    services.threat.set_level(ThreatLevel::Low);
    assert_eq!(get(&server), StatusCode::Ok);

    let stats = server.decision_cache_stats().unwrap();
    assert!(stats.hits >= 1, "{stats:?}");
    assert!(stats.invalidations >= 2, "{stats:?}");
}

/// A memory store that can be edited while an API holds it, as a reload
/// would replace an object's policy under a running server.
#[derive(Default)]
struct EditableStore(RwLock<MemoryPolicyStore>);

impl EditableStore {
    fn set_local(&self, object: &str, text: &str) {
        self.0
            .write()
            .unwrap()
            .set_local(object, vec![parse_eacl(text).unwrap()]);
    }
}

impl PolicyStore for EditableStore {
    fn system_policies(&self) -> Result<Arc<[Eacl]>, PolicyError> {
        self.0.read().unwrap().system_policies()
    }

    fn local_policies(&self, object: &str) -> Result<Arc<[Eacl]>, PolicyError> {
        self.0.read().unwrap().local_policies(object)
    }

    fn generation(&self) -> u64 {
        self.0.read().unwrap().generation()
    }
}

#[test]
fn a_result_keeps_enforcing_the_entry_it_applied_across_a_reload() {
    let store = Arc::new(EditableStore::default());
    store.set_local(
        "/cgi-bin/search",
        "pos_access_right apache *\n\
         mid_cond cpu_limit local 100\n\
         post_cond audit local on:success/op.completed/info:served\n",
    );
    let services = StandardServices::new(
        Arc::new(VirtualClock::new()),
        Arc::new(CollectingNotifier::new()),
    );
    let api = register_standard(
        GaaApiBuilder::new(store.clone()).with_clock(services.clock.clone()),
        &services,
    )
    .build();
    let glue = GaaGlue::new(api, services.clone());
    let request = HttpRequest::get("/cgi-bin/search?q=1").with_client_ip("10.0.0.1");
    let decision = glue.authorize(&request, None, &[], true);
    assert_eq!(decision.answer, AnswerCode::Ok);

    // The object's policy is reloaded without the obligations: new requests
    // carry none.
    store.set_local("/cgi-bin/search", "pos_access_right apache *\n");
    let fresh = glue.authorize(&request, None, &[], true);
    assert_eq!(fresh.answer, AnswerCode::Ok);
    assert_eq!(fresh.result.mid_conditions().count(), 0);
    assert_eq!(fresh.result.post_conditions().count(), 0);

    // The operation authorized before the reload still runs under the
    // entry that applied to it: its CPU budget is enforced…
    let api = glue.api();
    let metrics = |cpu_ticks| ExecutionMetrics {
        cpu_ticks,
        ..ExecutionMetrics::zero()
    };
    let within = api.execution_control(&decision.result, &decision.context, &metrics(50));
    assert!(within.status.is_yes());
    let over = api.execution_control(&decision.result, &decision.context, &metrics(500));
    assert!(over.status.is_no());
    assert_eq!(over.failed.len(), 1);
    assert_eq!(over.failed[0].cond_type, "cpu_limit");

    // …and its completion is audited, while the fresh result's is not.
    let completed = || services.audit.count_category("op.completed");
    let post = api.post_execution_actions(&decision.result, &decision.context, Outcome::Success);
    assert!(post.status.is_yes());
    assert_eq!(completed(), 1);
    let _ = api.post_execution_actions(&fresh.result, &fresh.context, Outcome::Success);
    assert_eq!(completed(), 1);
}
