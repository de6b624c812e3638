//! Policy retrieval: system-wide and local (per-object) policy files.
//!
//! §6 step 2a: "The `gaa_get_object_policy_info` function is called to
//! obtain the security policies associated with the requested object. The
//! function reads the system-wide policy file, converts it to the internal
//! EACL representation and places it at the beginning of the list of EACLs.
//! Next, the function retrieves and translates the local policy file and
//! adds it to the list."
//!
//! Local policies follow Apache's `.htaccess` convention (§4): for an object
//! `/docs/reports/q1.html` every directory on the path is consulted —
//! `/.eacl`, `/docs/.eacl`, `/docs/reports/.eacl` — outermost first, so
//! deeper (more specific) policies appear later in the local list.
//!
//! [`CachingPolicyStore`] implements the §9 future-work item "support for
//! caching of the retrieved and translated policies for later reuse by
//! subsequent requests" (ablation A1 in DESIGN.md).
//!
//! Stores hand out policy lists as shared immutable `Arc<[Eacl]>`s. A store
//! that holds its lists (memory, cache, last-good copies) answers with a
//! reference-count bump, so composing a request's policy copies nothing;
//! the caller still consults the store on every request, so reloads, fault
//! injection and stale-serving see exactly the calls they always did.

use gaa_audit::degrade::{Component, DegradationState};
use gaa_audit::log::{AuditLog, AuditRecord, AuditSeverity};
use gaa_audit::time::SharedClock;
use gaa_audit::Timestamp;
use gaa_eacl::{parse_eacl_list, Eacl, ParseEaclError};
use gaa_faults::{Fault, FaultInjector, FaultSite};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Error retrieving or translating a policy.
#[derive(Debug)]
pub enum PolicyError {
    /// Reading a policy file failed.
    Io(std::io::Error),
    /// A policy file did not parse; carries the file it came from.
    Parse {
        /// Source file (or logical name) of the bad policy.
        source_name: String,
        /// The located parse error.
        error: ParseEaclError,
    },
    /// A policy parsed but was refused by a load gate (static analysis
    /// found Error-level defects). Enforcement is fail-closed: requests
    /// against a rejected policy are denied, exactly as for a parse error.
    Rejected {
        /// Source (or logical name) of the rejected policy.
        source_name: String,
        /// Rendered summary of the gate's findings.
        reason: String,
    },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::Io(e) => write!(f, "policy i/o error: {e}"),
            PolicyError::Parse { source_name, error } => {
                write!(f, "policy parse error in {source_name}: {error}")
            }
            PolicyError::Rejected {
                source_name,
                reason,
            } => {
                write!(f, "policy rejected by lint gate in {source_name}: {reason}")
            }
        }
    }
}

impl Error for PolicyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PolicyError::Io(e) => Some(e),
            PolicyError::Parse { error, .. } => Some(error),
            PolicyError::Rejected { .. } => None,
        }
    }
}

impl From<std::io::Error> for PolicyError {
    fn from(e: std::io::Error) -> Self {
        PolicyError::Io(e)
    }
}

/// Source of system-wide and per-object local policies.
pub trait PolicyStore: Send + Sync {
    /// The system-wide EACLs, in priority order.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] if retrieval or translation fails; the caller
    /// must treat this as *deny* (fail-closed), never as "no policy".
    fn system_policies(&self) -> Result<Arc<[Eacl]>, PolicyError>;

    /// The local EACLs applying to `object`, outermost directory first.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] on retrieval/translation failure (fail-closed
    /// for the object in question).
    fn local_policies(&self, object: &str) -> Result<Arc<[Eacl]>, PolicyError>;

    /// A monotonically increasing generation number, bumped whenever any
    /// policy may have changed. Used by [`CachingPolicyStore`] for
    /// invalidation. Stores that cannot detect change may return a constant,
    /// accepting staleness until an explicit cache flush.
    fn generation(&self) -> u64 {
        0
    }
}

/// In-memory policy store for tests and embedded use.
///
/// Every read returns the stored list itself, shared: the system list is one
/// allocation handed to every object until [`set_system`](Self::set_system)
/// replaces it.
#[derive(Debug, Default)]
pub struct MemoryPolicyStore {
    system: Arc<[Eacl]>,
    local: HashMap<String, Arc<[Eacl]>>,
    generation: AtomicU64,
}

impl MemoryPolicyStore {
    /// An empty store (no policies at all).
    pub fn new() -> Self {
        MemoryPolicyStore::default()
    }

    /// Replaces the system-wide policy list.
    pub fn set_system(&mut self, eacls: Vec<Eacl>) {
        self.system = eacls.into();
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    /// Replaces the local policy list for an exact object name.
    pub fn set_local(&mut self, object: impl Into<String>, eacls: Vec<Eacl>) {
        self.local.insert(object.into(), eacls.into());
        self.generation.fetch_add(1, Ordering::SeqCst);
    }
}

impl PolicyStore for MemoryPolicyStore {
    fn system_policies(&self) -> Result<Arc<[Eacl]>, PolicyError> {
        Ok(self.system.clone())
    }

    fn local_policies(&self, object: &str) -> Result<Arc<[Eacl]>, PolicyError> {
        Ok(self.local.get(object).cloned().unwrap_or_default())
    }

    fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }
}

/// File-backed policy store mirroring the paper's deployment layout.
///
/// * system-wide policy: a single file (any number of EACLs separated by
///   `eacl_mode` headers);
/// * local policies: for object `/a/b/c`, the files `<root>/.eacl`,
///   `<root>/a/.eacl` and `<root>/a/b/.eacl` are read in that order —
///   exactly Apache's per-directory `.htaccess` walk (§4).
///
/// Every call re-reads the files — matching the paper's implementation,
/// whose lack of caching is the very §9 future-work item measured by
/// ablation A1. Wrap in [`CachingPolicyStore`] to add the cache.
#[derive(Debug)]
pub struct FilePolicyStore {
    system_file: Option<PathBuf>,
    local_root: Option<PathBuf>,
    local_file_name: String,
    generation: AtomicU64,
}

impl FilePolicyStore {
    /// A store with neither system nor local policies configured.
    pub fn new() -> Self {
        FilePolicyStore {
            system_file: None,
            local_root: None,
            local_file_name: ".eacl".to_string(),
            generation: AtomicU64::new(1),
        }
    }

    /// Sets the system-wide policy file.
    #[must_use]
    pub fn with_system_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.system_file = Some(path.into());
        self
    }

    /// Sets the document root under which per-directory policy files live.
    #[must_use]
    pub fn with_local_root(mut self, root: impl Into<PathBuf>) -> Self {
        self.local_root = Some(root.into());
        self
    }

    /// Overrides the per-directory policy file name (default `.eacl`).
    #[must_use]
    pub fn with_local_file_name(mut self, name: impl Into<String>) -> Self {
        self.local_file_name = name.into();
        self
    }

    /// Signals that policy files may have changed on disk (bumps the
    /// generation so caches invalidate).
    pub fn touch(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    fn read_policy_file(path: &Path) -> Result<Vec<Eacl>, PolicyError> {
        let text = std::fs::read_to_string(path)?;
        parse_eacl_list(&text).map_err(|error| PolicyError::Parse {
            source_name: path.display().to_string(),
            error,
        })
    }
}

impl Default for FilePolicyStore {
    fn default() -> Self {
        FilePolicyStore::new()
    }
}

impl PolicyStore for FilePolicyStore {
    fn system_policies(&self) -> Result<Arc<[Eacl]>, PolicyError> {
        match &self.system_file {
            Some(path) if path.exists() => Ok(Self::read_policy_file(path)?.into()),
            _ => Ok(Arc::default()),
        }
    }

    fn local_policies(&self, object: &str) -> Result<Arc<[Eacl]>, PolicyError> {
        let Some(root) = &self.local_root else {
            return Ok(Arc::default());
        };
        let mut eacls = Vec::new();
        // Walk the object's directory chain from the root downwards. The
        // object itself is a file name; only its ancestor directories are
        // consulted (Apache semantics: .htaccess lives in directories).
        let mut dir = root.clone();
        let candidate = dir.join(&self.local_file_name);
        if candidate.exists() {
            eacls.extend(Self::read_policy_file(&candidate)?);
        }
        let trimmed = object.trim_matches('/');
        let segments: Vec<&str> = trimmed.split('/').filter(|s| !s.is_empty()).collect();
        if segments.len() > 1 {
            for segment in &segments[..segments.len() - 1] {
                dir = dir.join(segment);
                let candidate = dir.join(&self.local_file_name);
                if candidate.exists() {
                    eacls.extend(Self::read_policy_file(&candidate)?);
                }
            }
        }
        Ok(eacls.into())
    }

    fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }
}

/// Hit/miss statistics of a [`CachingPolicyStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from cache.
    pub hits: u64,
    /// Requests that had to consult the inner store.
    pub misses: u64,
    /// Times the whole cache was flushed due to a generation change.
    pub invalidations: u64,
}

struct CacheState {
    generation: u64,
    system: Option<Arc<[Eacl]>>,
    local: HashMap<String, Arc<[Eacl]>>,
    stats: CacheStats,
}

/// Caches the results of an inner [`PolicyStore`] (§9 future work / ablation
/// A1). Invalidates wholesale whenever the inner store's generation changes.
/// A hit hands out the cached list itself: a reference-count bump.
pub struct CachingPolicyStore<S> {
    inner: S,
    state: Mutex<CacheState>,
}

impl<S: PolicyStore> CachingPolicyStore<S> {
    /// Wraps `inner` with a cache.
    pub fn new(inner: S) -> Self {
        CachingPolicyStore {
            inner,
            state: Mutex::new(CacheState {
                generation: u64::MAX, // force one refresh on first use
                system: None,
                local: HashMap::new(),
                stats: CacheStats::default(),
            }),
        }
    }

    /// A reference to the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Current cache statistics.
    pub fn stats(&self) -> CacheStats {
        self.state.lock().stats
    }

    fn refresh_if_stale(&self, state: &mut CacheState) {
        let generation = self.inner.generation();
        if state.generation != generation {
            state.system = None;
            state.local.clear();
            state.generation = generation;
            state.stats.invalidations += 1;
        }
    }
}

impl<S: PolicyStore> PolicyStore for CachingPolicyStore<S> {
    fn system_policies(&self) -> Result<Arc<[Eacl]>, PolicyError> {
        let mut state = self.state.lock();
        self.refresh_if_stale(&mut state);
        if let Some(cached) = state.system.clone() {
            state.stats.hits += 1;
            return Ok(cached);
        }
        state.stats.misses += 1;
        let fresh = self.inner.system_policies()?;
        state.system = Some(fresh.clone());
        Ok(fresh)
    }

    fn local_policies(&self, object: &str) -> Result<Arc<[Eacl]>, PolicyError> {
        let mut state = self.state.lock();
        self.refresh_if_stale(&mut state);
        if let Some(cached) = state.local.get(object).cloned() {
            state.stats.hits += 1;
            return Ok(cached);
        }
        state.stats.misses += 1;
        let fresh = self.inner.local_policies(object)?;
        state.local.insert(object.to_string(), fresh.clone());
        Ok(fresh)
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }
}

/// Fault-injection decorator for policy retrieval: a [`Fault::Error`] (or
/// [`Fault::Hang`], which a synchronous store can only surface as a timeout
/// error) injected at [`FaultSite::PolicyStore`] makes the read fail with an
/// I/O error, exactly as a vanished disk or NFS stall would.
pub struct FaultingPolicyStore {
    inner: Arc<dyn PolicyStore>,
    injector: Arc<dyn FaultInjector>,
}

impl FaultingPolicyStore {
    /// Wraps `inner`, consulting `injector` before every read.
    pub fn new(inner: Arc<dyn PolicyStore>, injector: Arc<dyn FaultInjector>) -> Self {
        FaultingPolicyStore { inner, injector }
    }

    fn injected_error(&self) -> Option<PolicyError> {
        match self.injector.fault_at(FaultSite::PolicyStore) {
            Some(Fault::Error) => Some(PolicyError::Io(std::io::Error::other(
                "injected policy store I/O failure",
            ))),
            Some(Fault::Hang(millis)) => Some(PolicyError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("injected policy store stall ({millis}ms)"),
            ))),
            _ => None,
        }
    }
}

impl PolicyStore for FaultingPolicyStore {
    fn system_policies(&self) -> Result<Arc<[Eacl]>, PolicyError> {
        match self.injected_error() {
            Some(e) => Err(e),
            None => self.inner.system_policies(),
        }
    }

    fn local_policies(&self, object: &str) -> Result<Arc<[Eacl]>, PolicyError> {
        match self.injected_error() {
            Some(e) => Err(e),
            None => self.inner.local_policies(object),
        }
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }
}

struct LastGood {
    eacls: Arc<[Eacl]>,
    fetched: Timestamp,
}

#[derive(Default)]
struct ResilientState {
    system: Option<LastGood>,
    local: HashMap<String, LastGood>,
    stale_serves: u64,
}

/// Stale-serving decorator: on inner-store failure, serves the last
/// successfully retrieved policy for a bounded TTL instead of failing the
/// request outright.
///
/// A transient I/O blip (NFS hiccup, mid-rewrite read) would otherwise deny
/// every request — technically fail-closed, practically a self-inflicted
/// denial of service. Serving a *recent* known-good policy keeps §7's
/// integrated enforcement running through the blip, and every stale serve is
/// audited (`policy.stale_served`, Warning) and mirrored into the
/// [`DegradationState`], so the degradation is observable, bounded and
/// recoverable — never silent.
///
/// The TTL is the trust horizon: a policy older than `stale_ttl` is treated
/// as gone and the error propagates — the caller's fail-closed path takes
/// over (deny + `policy.retrieval_failed`). Deployments that cannot tolerate
/// *any* staleness (a revoked attacker must lose access on the very next
/// request) build with [`ResilientPolicyStore::fail_closed`], which turns
/// the decorator into pure observation: errors always propagate.
pub struct ResilientPolicyStore {
    inner: Arc<dyn PolicyStore>,
    clock: SharedClock,
    audit: AuditLog,
    degradation: DegradationState,
    stale_ttl: Duration,
    fail_closed: bool,
    state: Mutex<ResilientState>,
}

impl ResilientPolicyStore {
    /// Wraps `inner` with a 60-second stale-serving window.
    pub fn new(
        inner: Arc<dyn PolicyStore>,
        clock: SharedClock,
        audit: AuditLog,
        degradation: DegradationState,
    ) -> Self {
        ResilientPolicyStore {
            inner,
            clock,
            audit,
            degradation,
            stale_ttl: Duration::from_secs(60),
            fail_closed: false,
            state: Mutex::new(ResilientState::default()),
        }
    }

    /// Overrides how long a last-good policy may be served after the store
    /// starts failing.
    #[must_use]
    pub fn with_stale_ttl(mut self, ttl: Duration) -> Self {
        self.stale_ttl = ttl;
        self
    }

    /// Disables stale serving entirely: store errors always propagate and
    /// requests fail closed immediately.
    #[must_use]
    pub fn fail_closed(mut self) -> Self {
        self.fail_closed = true;
        self
    }

    /// Number of reads answered from the stale cache.
    pub fn stale_serves(&self) -> u64 {
        self.state.lock().stale_serves
    }

    fn on_success(&self, now: Timestamp) {
        if self.degradation.is_degraded(Component::PolicyStore) {
            self.degradation.mark_recovered(Component::PolicyStore, now);
        }
    }

    fn serve_stale(
        &self,
        which: &str,
        entry: Option<&LastGood>,
        now: Timestamp,
        error: PolicyError,
        stale_serves: &mut u64,
    ) -> Result<Arc<[Eacl]>, PolicyError> {
        let fresh_enough = entry
            .map(|lg| now.since(lg.fetched) <= self.stale_ttl)
            .unwrap_or(false);
        if self.fail_closed || !fresh_enough {
            return Err(error);
        }
        let entry = entry.expect("fresh_enough implies entry");
        *stale_serves += 1;
        self.audit.record(
            AuditRecord::new(
                now,
                AuditSeverity::Warning,
                "policy.stale_served",
                which,
                format!("policy store failed ({error}); serving last-good policy"),
            )
            .with_attr("age_ms", now.since(entry.fetched).as_millis().to_string())
            .with_attr("ttl_ms", self.stale_ttl.as_millis().to_string()),
        );
        self.degradation.mark_degraded(
            Component::PolicyStore,
            "store failing: serving last-good policy within TTL",
            now,
        );
        Ok(entry.eacls.clone())
    }
}

impl PolicyStore for ResilientPolicyStore {
    fn system_policies(&self) -> Result<Arc<[Eacl]>, PolicyError> {
        let now = self.clock.now();
        match self.inner.system_policies() {
            Ok(eacls) => {
                self.state.lock().system = Some(LastGood {
                    eacls: eacls.clone(),
                    fetched: now,
                });
                self.on_success(now);
                Ok(eacls)
            }
            Err(e) => {
                let mut state = self.state.lock();
                let ResilientState {
                    system,
                    stale_serves,
                    ..
                } = &mut *state;
                self.serve_stale("system", system.as_ref(), now, e, stale_serves)
            }
        }
    }

    fn local_policies(&self, object: &str) -> Result<Arc<[Eacl]>, PolicyError> {
        let now = self.clock.now();
        match self.inner.local_policies(object) {
            Ok(eacls) => {
                self.state.lock().local.insert(
                    object.to_string(),
                    LastGood {
                        eacls: eacls.clone(),
                        fetched: now,
                    },
                );
                self.on_success(now);
                Ok(eacls)
            }
            Err(e) => {
                let mut state = self.state.lock();
                let ResilientState {
                    local,
                    stale_serves,
                    ..
                } = &mut *state;
                self.serve_stale(object, local.get(object), now, e, stale_serves)
            }
        }
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }
}

/// What a [`GatedPolicyStore`] does when its gate rejects a policy list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateMode {
    /// Refuse to load: the read fails with [`PolicyError::Rejected`] and the
    /// caller's fail-closed path denies the request.
    Enforce,
    /// Load anyway, but audit the findings (`policy.lint_warned`). For
    /// migration periods where blocking deployment is too disruptive.
    WarnOnly,
}

/// A policy-quality gate: given a source name (`"system"` or the object
/// path) and the parsed EACL list, return `Err` with a rendered findings
/// summary to reject the load.
///
/// The closure form keeps `gaa-core` free of any dependency on the analyzer
/// — `gaa-analyze` supplies the standard gate built on its lint passes.
pub type PolicyGate = Arc<dyn Fn(&str, &[Eacl]) -> Result<(), String> + Send + Sync>;

/// Load-time lint gate (§2's "automated tool to ensure policy correctness"
/// wired into deployment): every policy list read through this decorator is
/// checked by a [`PolicyGate`] before it reaches evaluation.
///
/// In [`GateMode::Enforce`] a rejected policy never loads — the store read
/// fails with [`PolicyError::Rejected`] and enforcement stays fail-closed
/// (deny), preventing a self-defeating policy (shadowed deny, constant
/// grant) from silently weakening the deployment. In [`GateMode::WarnOnly`]
/// the policy loads and the findings are audited instead.
pub struct GatedPolicyStore {
    inner: Arc<dyn PolicyStore>,
    gate: PolicyGate,
    mode: GateMode,
    audit: Option<(AuditLog, SharedClock)>,
    rejections: AtomicU64,
}

impl GatedPolicyStore {
    /// Wraps `inner`, consulting `gate` on every successful read. Defaults
    /// to [`GateMode::Enforce`].
    pub fn new(inner: Arc<dyn PolicyStore>, gate: PolicyGate) -> Self {
        GatedPolicyStore {
            inner,
            gate,
            mode: GateMode::Enforce,
            audit: None,
            rejections: AtomicU64::new(0),
        }
    }

    /// Switches to [`GateMode::WarnOnly`]: findings are audited but the
    /// policy loads.
    #[must_use]
    pub fn warn_only(mut self) -> Self {
        self.mode = GateMode::WarnOnly;
        self
    }

    /// Sets the gate mode explicitly (e.g. from a config parameter).
    #[must_use]
    pub fn with_mode(mut self, mode: GateMode) -> Self {
        self.mode = mode;
        self
    }

    /// Records every gate rejection/warning in `audit`, stamped by `clock`.
    #[must_use]
    pub fn with_audit(mut self, audit: AuditLog, clock: SharedClock) -> Self {
        self.audit = Some((audit, clock));
        self
    }

    /// Number of reads the gate rejected (enforce mode) or flagged
    /// (warn-only mode).
    pub fn rejections(&self) -> u64 {
        self.rejections.load(Ordering::SeqCst)
    }

    fn check(&self, source_name: &str, eacls: Arc<[Eacl]>) -> Result<Arc<[Eacl]>, PolicyError> {
        let Err(reason) = (self.gate)(source_name, &eacls) else {
            return Ok(eacls);
        };
        self.rejections.fetch_add(1, Ordering::SeqCst);
        match self.mode {
            GateMode::Enforce => {
                if let Some((audit, clock)) = &self.audit {
                    audit.record(AuditRecord::new(
                        clock.now(),
                        AuditSeverity::Alert,
                        "policy.lint_rejected",
                        source_name,
                        format!("policy refused by lint gate: {reason}"),
                    ));
                }
                Err(PolicyError::Rejected {
                    source_name: source_name.to_string(),
                    reason,
                })
            }
            GateMode::WarnOnly => {
                if let Some((audit, clock)) = &self.audit {
                    audit.record(AuditRecord::new(
                        clock.now(),
                        AuditSeverity::Warning,
                        "policy.lint_warned",
                        source_name,
                        format!("policy loaded despite lint findings: {reason}"),
                    ));
                }
                Ok(eacls)
            }
        }
    }
}

impl PolicyStore for GatedPolicyStore {
    fn system_policies(&self) -> Result<Arc<[Eacl]>, PolicyError> {
        let eacls = self.inner.system_policies()?;
        self.check("system", eacls)
    }

    fn local_policies(&self, object: &str) -> Result<Arc<[Eacl]>, PolicyError> {
        let eacls = self.inner.local_policies(object)?;
        self.check(object, eacls)
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaa_eacl::parse_eacl;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gaa-policy-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn grant_eacl() -> Eacl {
        parse_eacl("pos_access_right apache *\n").unwrap()
    }

    #[test]
    fn memory_store_round_trip() {
        let mut store = MemoryPolicyStore::new();
        let g0 = store.generation();
        store.set_system(vec![grant_eacl()]);
        store.set_local("/x", vec![grant_eacl(), grant_eacl()]);
        assert_eq!(store.system_policies().unwrap().len(), 1);
        assert_eq!(store.local_policies("/x").unwrap().len(), 2);
        assert!(store.local_policies("/y").unwrap().is_empty());
        assert!(store.generation() > g0);
    }

    #[test]
    fn file_store_reads_system_file() {
        let dir = tmpdir("sys");
        let sys = dir.join("system.eacl");
        fs::write(
            &sys,
            "eacl_mode 1\nneg_access_right * *\npre_cond system_threat_level local =high\n",
        )
        .unwrap();
        let store = FilePolicyStore::new().with_system_file(&sys);
        let policies = store.system_policies().unwrap();
        assert_eq!(policies.len(), 1);
        assert_eq!(policies[0].entries.len(), 1);
    }

    #[test]
    fn file_store_missing_files_mean_no_policies() {
        let dir = tmpdir("missing");
        let store = FilePolicyStore::new()
            .with_system_file(dir.join("nope.eacl"))
            .with_local_root(&dir);
        assert!(store.system_policies().unwrap().is_empty());
        assert!(store.local_policies("/a/b.html").unwrap().is_empty());
    }

    #[test]
    fn file_store_walks_directory_chain_outermost_first() {
        let dir = tmpdir("walk");
        fs::create_dir_all(dir.join("docs/reports")).unwrap();
        fs::write(dir.join(".eacl"), "pos_access_right apache ROOT\n").unwrap();
        fs::write(dir.join("docs/.eacl"), "pos_access_right apache DOCS\n").unwrap();
        fs::write(
            dir.join("docs/reports/.eacl"),
            "pos_access_right apache REPORTS\n",
        )
        .unwrap();
        let store = FilePolicyStore::new().with_local_root(&dir);
        let policies = store.local_policies("/docs/reports/q1.html").unwrap();
        let values: Vec<&str> = policies
            .iter()
            .map(|e| e.entries[0].right.value.as_str())
            .collect();
        assert_eq!(values, vec!["ROOT", "DOCS", "REPORTS"]);
        // Shallower object: only the root policy applies.
        let shallow = store.local_policies("/index.html").unwrap();
        assert_eq!(shallow.len(), 1);
        assert_eq!(shallow[0].entries[0].right.value, "ROOT");
    }

    #[test]
    fn file_store_parse_error_names_the_file() {
        let dir = tmpdir("badparse");
        let sys = dir.join("system.eacl");
        fs::write(&sys, "pos_access_right apache *\ngarbage here\n").unwrap();
        let store = FilePolicyStore::new().with_system_file(&sys);
        let err = store.system_policies().unwrap_err();
        let text = err.to_string();
        assert!(text.contains("system.eacl"), "{text}");
        assert!(text.contains("line 2"), "{text}");
    }

    #[test]
    fn caching_store_hits_after_first_read() {
        let mut inner = MemoryPolicyStore::new();
        inner.set_system(vec![grant_eacl()]);
        inner.set_local("/x", vec![grant_eacl()]);
        let store = CachingPolicyStore::new(inner);

        store.system_policies().unwrap();
        store.system_policies().unwrap();
        store.local_policies("/x").unwrap();
        store.local_policies("/x").unwrap();
        store.local_policies("/y").unwrap();

        let stats = store.stats();
        assert_eq!(stats.misses, 3); // system, /x, /y
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn caching_store_hits_share_the_cached_list() {
        let mut inner = MemoryPolicyStore::new();
        inner.set_local("/x", vec![grant_eacl()]);
        let store = CachingPolicyStore::new(inner);
        let miss = store.local_policies("/x").unwrap();
        let hit = store.local_policies("/x").unwrap();
        assert!(Arc::ptr_eq(&miss, &hit));
        assert!(Arc::ptr_eq(
            &hit,
            &store.inner().local_policies("/x").unwrap()
        ));
    }

    #[test]
    fn caching_store_invalidates_on_generation_change() {
        let mut inner = MemoryPolicyStore::new();
        inner.set_system(vec![grant_eacl()]);
        let store = CachingPolicyStore::new(inner);
        assert_eq!(store.system_policies().unwrap().len(), 1);
        assert_eq!(store.system_policies().unwrap().len(), 1);
        assert_eq!(store.stats().hits, 1);

        // Mutating through inner() is not possible (it is shared), so this
        // test uses a store whose generation changes via interior mutability.
        // FilePolicyStore::touch provides that; simulate with a fresh store.
        let dir = tmpdir("inval");
        let sys = dir.join("system.eacl");
        fs::write(&sys, "pos_access_right apache *\n").unwrap();
        let file_store = CachingPolicyStore::new(FilePolicyStore::new().with_system_file(&sys));
        file_store.system_policies().unwrap();
        file_store.system_policies().unwrap();
        assert_eq!(file_store.stats().hits, 1);
        fs::write(&sys, "pos_access_right apache GET\n").unwrap();
        file_store.inner().touch();
        let fresh = file_store.system_policies().unwrap();
        assert_eq!(fresh[0].entries[0].right.value, "GET");
        assert!(file_store.stats().invalidations >= 2);
    }

    #[test]
    fn policy_error_display_and_source() {
        let io_err = PolicyError::from(std::io::Error::other("boom"));
        assert!(io_err.to_string().contains("boom"));
        assert!(io_err.source().is_some());
    }

    mod gate {
        use super::*;
        use gaa_audit::VirtualClock;

        fn store_with_policy() -> Arc<MemoryPolicyStore> {
            let mut inner = MemoryPolicyStore::new();
            inner.set_system(vec![grant_eacl()]);
            inner.set_local("/x", vec![grant_eacl()]);
            Arc::new(inner)
        }

        /// A gate that rejects any policy list containing a wildcard grant.
        fn no_wildcard_grant_gate() -> PolicyGate {
            Arc::new(|_source, eacls: &[Eacl]| {
                for eacl in eacls {
                    for entry in &eacl.entries {
                        if entry.right.value == "*" {
                            return Err("wildcard grant".to_string());
                        }
                    }
                }
                Ok(())
            })
        }

        #[test]
        fn clean_policies_pass_through() {
            let store =
                GatedPolicyStore::new(store_with_policy(), Arc::new(|_, _: &[Eacl]| Ok(())));
            assert_eq!(store.system_policies().unwrap().len(), 1);
            assert_eq!(store.local_policies("/x").unwrap().len(), 1);
            assert_eq!(store.rejections(), 0);
        }

        #[test]
        fn enforce_mode_refuses_rejected_policies() {
            let clock = Arc::new(VirtualClock::at_millis(7));
            let audit = AuditLog::new();
            let store = GatedPolicyStore::new(store_with_policy(), no_wildcard_grant_gate())
                .with_audit(audit.clone(), clock);

            let err = store.system_policies().unwrap_err();
            assert!(
                matches!(&err, PolicyError::Rejected { source_name, .. } if source_name == "system"),
                "{err}"
            );
            assert!(err.to_string().contains("wildcard grant"), "{err}");

            let err = store.local_policies("/x").unwrap_err();
            assert!(
                matches!(&err, PolicyError::Rejected { source_name, .. } if source_name == "/x"),
                "{err}"
            );
            assert_eq!(store.rejections(), 2);

            let records = audit.records();
            assert_eq!(records.len(), 2);
            assert!(records.iter().all(|r| r.category == "policy.lint_rejected"));
        }

        #[test]
        fn warn_only_mode_loads_and_audits() {
            let clock = Arc::new(VirtualClock::at_millis(7));
            let audit = AuditLog::new();
            let store = GatedPolicyStore::new(store_with_policy(), no_wildcard_grant_gate())
                .warn_only()
                .with_audit(audit.clone(), clock);

            assert_eq!(store.system_policies().unwrap().len(), 1);
            assert_eq!(store.local_policies("/x").unwrap().len(), 1);
            assert_eq!(store.rejections(), 2);

            let records = audit.records();
            assert_eq!(records.len(), 2);
            assert!(records.iter().all(|r| r.category == "policy.lint_warned"));
        }

        #[test]
        fn gate_delegates_generation() {
            let inner = store_with_policy();
            let g = inner.generation();
            let store = GatedPolicyStore::new(inner, Arc::new(|_, _: &[Eacl]| Ok(())));
            assert_eq!(store.generation(), g);
        }
    }

    mod resilience {
        use super::*;
        use gaa_audit::VirtualClock;
        use gaa_faults::{Fault, FaultPlan, FaultSite};

        fn store_with_policy() -> Arc<MemoryPolicyStore> {
            let mut inner = MemoryPolicyStore::new();
            inner.set_system(vec![grant_eacl()]);
            inner.set_local("/x", vec![grant_eacl()]);
            Arc::new(inner)
        }

        fn resilient(
            inner: Arc<dyn PolicyStore>,
            clock: Arc<VirtualClock>,
            audit: &AuditLog,
            degradation: &DegradationState,
        ) -> ResilientPolicyStore {
            ResilientPolicyStore::new(inner, clock, audit.clone(), degradation.clone())
                .with_stale_ttl(Duration::from_secs(30))
        }

        #[test]
        fn faulting_store_injects_io_errors() {
            let plan = FaultPlan::builder(1)
                .fail_nth(FaultSite::PolicyStore, 0, Fault::Error)
                .build();
            let store = FaultingPolicyStore::new(store_with_policy(), Arc::new(plan));
            assert!(matches!(store.system_policies(), Err(PolicyError::Io(_))));
            // Fault window over: reads succeed again.
            assert_eq!(store.system_policies().unwrap().len(), 1);
            assert_eq!(store.local_policies("/x").unwrap().len(), 1);
        }

        #[test]
        fn stale_serving_within_ttl_then_fail_closed_after() {
            let clock = Arc::new(VirtualClock::at_millis(0));
            let audit = AuditLog::new();
            let degradation = DegradationState::new();
            // Reads 1.. fail (read 0 primes the last-good copy).
            let plan = FaultPlan::builder(2)
                .fail_window(FaultSite::PolicyStore, 1, u64::MAX, Fault::Error)
                .build();
            let faulty = Arc::new(FaultingPolicyStore::new(
                store_with_policy(),
                Arc::new(plan),
            ));
            let store = resilient(faulty, clock.clone(), &audit, &degradation);

            assert_eq!(store.system_policies().unwrap().len(), 1); // primes cache

            clock.advance(Duration::from_secs(10));
            // Store now failing, but the 10s-old copy is within the 30s TTL.
            assert_eq!(store.system_policies().unwrap().len(), 1);
            assert_eq!(store.stale_serves(), 1);
            assert!(degradation.is_degraded(Component::PolicyStore));
            let stale = audit.by_category("policy.stale_served");
            assert_eq!(stale.len(), 1);
            assert_eq!(stale[0].attr("age_ms"), Some("10000"));

            // Past the TTL the stale copy is no longer trusted: fail closed.
            clock.advance(Duration::from_secs(25));
            assert!(store.system_policies().is_err());
        }

        #[test]
        fn recovery_clears_degradation() {
            let clock = Arc::new(VirtualClock::at_millis(0));
            let audit = AuditLog::new();
            let degradation = DegradationState::new();
            let plan = FaultPlan::builder(3)
                .fail_window(FaultSite::PolicyStore, 1, 3, Fault::Error)
                .build();
            let faulty = Arc::new(FaultingPolicyStore::new(
                store_with_policy(),
                Arc::new(plan),
            ));
            let store = resilient(faulty, clock.clone(), &audit, &degradation);

            store.system_policies().unwrap(); // prime
            store.system_policies().unwrap(); // stale serve 1
            store.system_policies().unwrap(); // stale serve 2
            assert!(degradation.is_degraded(Component::PolicyStore));
            store.system_policies().unwrap(); // store healthy again
            assert!(degradation.is_fully_operational());
            assert_eq!(store.stale_serves(), 2);
        }

        #[test]
        fn fail_closed_mode_never_serves_stale() {
            let clock = Arc::new(VirtualClock::at_millis(0));
            let audit = AuditLog::new();
            let degradation = DegradationState::new();
            let plan = FaultPlan::builder(4)
                .fail_window(FaultSite::PolicyStore, 1, u64::MAX, Fault::Error)
                .build();
            let faulty = Arc::new(FaultingPolicyStore::new(
                store_with_policy(),
                Arc::new(plan),
            ));
            let store =
                ResilientPolicyStore::new(faulty, clock, audit.clone(), degradation.clone())
                    .fail_closed();

            store.system_policies().unwrap();
            assert!(store.system_policies().is_err());
            assert_eq!(store.stale_serves(), 0);
            assert!(audit.by_category("policy.stale_served").is_empty());
        }

        #[test]
        fn local_policies_are_cached_per_object() {
            let clock = Arc::new(VirtualClock::at_millis(0));
            let audit = AuditLog::new();
            let degradation = DegradationState::new();
            let plan = FaultPlan::builder(5)
                .fail_window(FaultSite::PolicyStore, 1, u64::MAX, Fault::Error)
                .build();
            let faulty = Arc::new(FaultingPolicyStore::new(
                store_with_policy(),
                Arc::new(plan),
            ));
            let store = resilient(faulty, clock, &audit, &degradation);

            assert_eq!(store.local_policies("/x").unwrap().len(), 1); // prime
            assert_eq!(store.local_policies("/x").unwrap().len(), 1); // stale
                                                                      // Never-seen object has no last-good copy: fail closed.
            assert!(store.local_policies("/y").is_err());
        }
    }
}
