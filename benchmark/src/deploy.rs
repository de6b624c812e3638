//! Builds the deployments under test from the files in `deploy/`.
//!
//! One production configuration serves every workload: the reactor front
//! over a GAA server with decision cache, policy slicing, signature scan,
//! IDS bus and verified-credential cache. Two twins exist beside it: the
//! *reference* twin (no caches, no slicing, per-pattern matching) that the
//! correctness gate compares against, and the *open* twin (no access
//! control) whose service time is the denominator of `gaa_share`.

use crate::spec::Workload;
use gaa_audit::notify::CollectingNotifier;
use gaa_audit::VirtualClock;
use gaa_conditions::{register_standard, StandardServices};
use gaa_core::{DecisionCache, GaaApiBuilder, MemoryPolicyStore};
use gaa_eacl::{parse_eacl_list, Eacl};
use gaa_httpd::auth::{base64_encode, HtpasswdStore};
use gaa_httpd::cgi::CgiScript;
use gaa_httpd::site::vfs_from_dir;
use gaa_httpd::{AccessControl, GaaGlue, ReactorConfig, ReactorFront, Server, Vfs};
use gaa_ids::bus::Subscription;
use gaa_ids::{EventBus, GaaReport, ReportKind, SignatureDb};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Accounts of the small deployments; the first `STAFF` are in group
/// `staff`.
pub const ACCOUNTS: usize = 1_024;
pub const STAFF: usize = 256;
/// Principals per department group (and one page per department) in the
/// `scale_1m` deployment.
pub const PRINCIPALS_PER_DEPT: usize = 1_000;

/// The benchmark's own directory: `benchmark/` under the current directory
/// when run from a checkout root (how the driver runs it), else the
/// package directory the binary was built from (`cargo test`).
pub fn bench_root() -> PathBuf {
    let from_cwd = Path::new("benchmark");
    if from_cwd.join("deploy").is_dir() {
        from_cwd.to_path_buf()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// Population size of a run: `scale_1m` builds 10^6 principals, `--smoke`
/// 10^4.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub principals: usize,
}

impl Scale {
    pub fn departments(self) -> usize {
        (self.principals / PRINCIPALS_PER_DEPT).max(1)
    }
}

pub fn user_name(i: usize) -> String {
    format!("user{i}")
}

/// The `Authorization` header value of account `i`.
pub fn basic_auth(i: usize) -> String {
    format!(
        "Basic {}",
        base64_encode(format!("user{i}:pw{i}").as_bytes())
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Twin {
    Production,
    Reference,
}

/// The policy texts of a workload: the system-wide EACL list and each
/// local policy with the object it guards.
pub struct PolicyTexts {
    pub system: String,
    pub locals: Vec<(String, String)>,
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Local policies mirror the document tree: `local/cgi-bin/search.eacl`
/// guards `/cgi-bin/search`.
fn collect_locals(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_locals(root, &path, out);
        } else if let Some(object) = path
            .strip_prefix(root)
            .ok()
            .and_then(|rel| rel.to_str())
            .and_then(|rel| rel.strip_suffix(".eacl"))
        {
            out.push((format!("/{object}"), read(&path)));
        }
    }
}

pub fn policy_texts(workload: Workload, scale: Scale) -> PolicyTexts {
    let dir = bench_root().join("deploy").join(workload.policy_dir());
    let system = if workload == Workload::Scale1m {
        // One guarded per-department grant per department, then the §7.2
        // tail: apache request cells keep only the tail — that is the slice.
        let entry = read(&dir.join("dept_entry.eacl.tmpl"));
        let mut text = String::new();
        for d in 0..scale.departments() {
            text.push_str(&entry.replace("{d}", &d.to_string()));
        }
        text + &read(&dir.join("tail.eacl"))
    } else {
        read(&dir.join("system.eacl"))
    };
    let mut locals = Vec::new();
    collect_locals(&dir.join("local"), &dir.join("local"), &mut locals);
    PolicyTexts { system, locals }
}

/// The document tree: the static pages under `deploy/site/`, the CGI
/// scripts (in-memory objects, so added here), and one page per
/// department for `scale_1m`.
fn document_tree(workload: Workload, scale: Scale) -> Vfs {
    let deploy = bench_root().join("deploy");
    let mut vfs = vfs_from_dir(&deploy.join("site")).unwrap_or_else(|e| panic!("{e}"));
    vfs.add_cgi("/cgi-bin/search", CgiScript::search());
    vfs.add_cgi("/cgi-bin/phf", CgiScript::vulnerable_phf());
    vfs.add_cgi("/cgi-bin/test-cgi", CgiScript::vulnerable_test_cgi());
    if workload == Workload::Scale1m {
        let page = read(&deploy.join("scale/dept_page.html.tmpl"));
        for d in 0..scale.departments() {
            vfs.add_file(
                &format!("/dept{d}/index.html"),
                page.replace("{d}", &d.to_string()),
                "text/html",
            );
        }
    }
    vfs
}

/// The pages a workload requests; set-up touches each once per identity
/// class so cell proofs and pattern plans are paid before timing.
pub fn workload_paths(workload: Workload, scale: Scale) -> Vec<String> {
    let mut public: Vec<String> = vec!["/index.html".into(), "/docs/manual.html".into()];
    public.extend((1..=8).map(|i| format!("/docs/page{i}.html")));
    match workload {
        Workload::StaticHot => public,
        Workload::UniqueMix | Workload::AttackMix => {
            public.extend(
                ["/cgi-bin/search", "/staff/home.html", "/staff/reports.html"].map(String::from),
            );
            public
        }
        Workload::Scale1m => (0..scale.departments())
            .map(|d| format!("/dept{d}/index.html"))
            .collect(),
    }
}

/// A GAA glue with everything around it, not yet wrapped in a server (the
/// traced pass probes the glue's own public functions).
pub struct GlueParts {
    twin: Twin,
    pub glue: GaaGlue,
    pub services: StandardServices,
    /// The IDS side of the bus: attack-class reports only, as an IDS
    /// consumer would subscribe.
    pub reports: Subscription<GaaReport>,
    pub users: Arc<HtpasswdStore>,
    pub vfs: Vfs,
}

/// Fills the credential store and the group store.
fn populate(workload: Workload, scale: Scale, services: &StandardServices) -> HtpasswdStore {
    let (realm, accounts) = match workload {
        Workload::Scale1m => ("scale", scale.principals),
        _ => ("isi", ACCOUNTS),
    };
    let departments = scale.departments();
    let mut users = HtpasswdStore::new(realm);
    for i in 0..accounts {
        let user = user_name(i);
        users.add_user(&user, &format!("pw{i}"));
        if workload == Workload::Scale1m {
            services
                .groups
                .add(&format!("dept{}", i % departments), &user);
        } else if i < STAFF {
            services.groups.add("staff", &user);
        }
    }
    users
}

/// Builds one glue from the files under `deploy/`, population included.
pub fn build_glue(workload: Workload, scale: Scale, twin: Twin) -> GlueParts {
    let services = StandardServices::new(
        Arc::new(VirtualClock::new()),
        Arc::new(CollectingNotifier::new()),
    );
    let users = Arc::new(populate(workload, scale, &services));

    let texts = policy_texts(workload, scale);
    let parse = |what: &str, text: &str| -> Vec<Eacl> {
        parse_eacl_list(text).unwrap_or_else(|e| panic!("{what}: {e}"))
    };
    let mut store = MemoryPolicyStore::new();
    store.set_system(parse("system policy", &texts.system));
    for (object, text) in &texts.locals {
        store.set_local(object.clone(), parse(object, text));
    }
    let api = register_standard(
        GaaApiBuilder::new(Arc::new(store)).with_clock(services.clock.clone()),
        &services,
    )
    .build();

    let bus = EventBus::new();
    let reports = bus.subscribe_reports(Some(vec![
        ReportKind::ApplicationAttack,
        ReportKind::AbnormalParameters,
        ReportKind::SensitiveDenial,
    ]));
    let glue = GaaGlue::new(api, services.clone())
        .with_signatures(SignatureDb::with_defaults())
        .with_bus(bus);
    let glue = match twin {
        Twin::Production => glue
            .with_decision_cache(DecisionCache::new())
            .with_policy_slicing(8192),
        Twin::Reference => glue.with_combined_patterns(false),
    };
    GlueParts {
        twin,
        glue,
        services,
        reports,
        users,
        vfs: document_tree(workload, scale),
    }
}

/// A server with the handles the benchmark reads counters from.
pub struct Deployment {
    pub server: Arc<Server>,
    pub services: StandardServices,
    pub reports: Subscription<GaaReport>,
    users: Arc<HtpasswdStore>,
    vfs: Vfs,
}

impl GlueParts {
    pub fn into_server(self) -> Deployment {
        let server = Server::new(self.vfs.clone(), AccessControl::Gaa(Box::new(self.glue)))
            .with_users(self.users.clone());
        let server = match self.twin {
            Twin::Production => server.with_auth_cache(4096),
            Twin::Reference => server,
        };
        Deployment {
            server: Arc::new(server),
            services: self.services,
            reports: self.reports,
            users: self.users,
            vfs: self.vfs,
        }
    }
}

impl Deployment {
    /// Builds a server twin; cold, see [`warm`].
    pub fn build(workload: Workload, scale: Scale, twin: Twin) -> Deployment {
        build_glue(workload, scale, twin).into_server()
    }

    /// The same document tree and credential store with no access control.
    pub fn open_twin(&self) -> Server {
        Server::new(self.vfs.clone(), AccessControl::Open).with_users(self.users.clone())
    }
}

/// Requests every page of the workload once anonymously and once as
/// account 0, from the server's own address.
pub fn warm(server: &Server, workload: Workload, scale: Scale) {
    let auth = basic_auth(0);
    for path in workload_paths(workload, scale) {
        for header in [None, Some(auth.as_str())] {
            let raw = crate::gen::wire(&path, header);
            std::hint::black_box(server.handle_bytes(&raw, "127.0.0.1"));
        }
    }
}

/// The production deployment behind its front: what `setup_s` times, from
/// nothing to the first servable request.
pub fn set_up(workload: Workload, scale: Scale) -> (Deployment, ReactorFront) {
    let deployment = Deployment::build(workload, scale, Twin::Production);
    warm(&deployment.server, workload, scale);
    let front = ReactorFront::spawn_with(
        "127.0.0.1:0",
        deployment.server.clone(),
        ReactorConfig::default(),
        None,
    )
    .expect("bind the reactor front on loopback");
    (deployment, front)
}
