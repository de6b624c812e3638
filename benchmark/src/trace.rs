//! The traced pass: per-layer figures, taken outside-in.
//!
//! Nothing inside `crates/` is instrumented. A single thread replays one
//! fixed sample of the workload and times, from here, calls into each
//! layer's *public* functions — one fresh twin deployment per probe that
//! has side effects, so no probe sees state another one mutated. Each
//! timed call is a span (request id, layer, enclosing layer, start, end)
//! kept in memory and written to `out/trace-<workload>.jsonl` at the end.
//!
//! Two figures subtract spans of the same request from each other and are
//! reported as self time: `server.self_us` and `httpd.bytes_self_us`.
//! Every other `_us` figure is the cost of an isolated call, an upper
//! bound on that layer's share of the request.

use crate::deploy::{
    basic_auth, build_glue, policy_texts, warm, workload_paths, Deployment, Scale, Twin,
};
use crate::gen::{self, Request, Script};
use crate::load::Tally;
use crate::spec::Workload;
use crate::stats::quantile;
use gaa_audit::{AuditLog, AuditRecord, AuditSeverity, Timestamp};
use gaa_conditions::{CombinedMatcher, CompiledSignatureDb, PatternOracle};
use gaa_core::dag::VarTable;
use gaa_core::{ExecutionMetrics, Outcome, RightPattern};
use gaa_eacl::{parse_eacl_list, ComposedPolicy};
use gaa_httpd::auth::{parse_basic_auth, HtpasswdStore};
use gaa_httpd::http::RequestLimits;
use gaa_httpd::HttpRequest;
use gaa_ids::SignatureDb;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    HandleBytes,
    Parse,
    Serialize,
    ServerHandle,
    ServerOpen,
    AuthVerify,
    Authorize,
    SliceProof,
    Context,
    Scan,
    Oracle,
    PolicyFetch,
    EvalInterp,
    EvalCompiled,
    ExecControl,
    PostExec,
    AuditRecord,
    EaclParse,
    EaclCompose,
}

impl Layer {
    /// Every layer, in the order the span table prints them.
    pub const ALL: [Layer; 19] = [
        Layer::HandleBytes,
        Layer::Parse,
        Layer::ServerHandle,
        Layer::ServerOpen,
        Layer::AuthVerify,
        Layer::Authorize,
        Layer::SliceProof,
        Layer::Context,
        Layer::Scan,
        Layer::Oracle,
        Layer::PolicyFetch,
        Layer::EvalInterp,
        Layer::EvalCompiled,
        Layer::ExecControl,
        Layer::PostExec,
        Layer::AuditRecord,
        Layer::Serialize,
        Layer::EaclParse,
        Layer::EaclCompose,
    ];

    /// `<crate or httpd module>.<call>`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::HandleBytes => "httpd.handle_bytes",
            Layer::Parse => "http.parse",
            Layer::Serialize => "http.serialize",
            Layer::ServerHandle => "server.handle",
            Layer::ServerOpen => "server.open",
            Layer::AuthVerify => "auth.verify",
            Layer::Authorize => "glue.authorize",
            Layer::SliceProof => "core.slice_proof",
            Layer::Context => "glue.context",
            Layer::Scan => "ids.scan",
            Layer::Oracle => "conditions.oracle",
            Layer::PolicyFetch => "core.policy_fetch",
            Layer::EvalInterp => "core.eval_interp",
            Layer::EvalCompiled => "core.eval_compiled",
            Layer::ExecControl => "core.exec_control",
            Layer::PostExec => "core.post_exec",
            Layer::AuditRecord => "audit.record",
            Layer::EaclParse => "eacl.parse",
            Layer::EaclCompose => "eacl.compose",
        }
    }

    /// The layer whose call encloses this one on the request path; set-up
    /// work (`eacl.*`) and the two roots have none.
    pub fn parent(self) -> Option<Layer> {
        match self {
            Layer::HandleBytes | Layer::ServerOpen | Layer::EaclParse | Layer::EaclCompose => None,
            Layer::Parse | Layer::Serialize | Layer::ServerHandle => Some(Layer::HandleBytes),
            Layer::AuthVerify | Layer::Authorize | Layer::ExecControl | Layer::PostExec => {
                Some(Layer::ServerHandle)
            }
            Layer::SliceProof
            | Layer::Context
            | Layer::Scan
            | Layer::Oracle
            | Layer::PolicyFetch
            | Layer::EvalInterp
            | Layer::EvalCompiled => Some(Layer::Authorize),
            Layer::AuditRecord => Some(Layer::PostExec),
        }
    }
}

pub struct Span {
    pub request: u32,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `call` as one span of `request` at `layer`.
    pub fn time<T>(&mut self, request: u32, layer: Layer, call: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed();
        let value = call();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            request,
            layer,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        value
    }

    /// Durations of the layer's spans, in µs.
    fn durations_us(&self, layer: Layer) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    pub fn p50_us(&self, layer: Layer) -> f64 {
        quantile(&mut self.durations_us(layer), 0.5)
    }

    pub fn p99_us(&self, layer: Layer) -> f64 {
        quantile(&mut self.durations_us(layer), 0.99)
    }

    /// p50 over the sample's requests of `whole` minus `parts`, each
    /// request's own spans subtracted from each other (self time).
    pub fn p50_self_us(&self, whole: Layer, parts: &[Layer]) -> f64 {
        let mut by_request: HashMap<u32, (f64, usize)> = HashMap::new();
        for span in &self.spans {
            let us = (span.end_ns - span.start_ns) as f64 / 1e3;
            let entry = by_request.entry(span.request).or_default();
            if span.layer == whole {
                *entry = (entry.0 + us, entry.1 + 1);
            } else if parts.contains(&span.layer) {
                *entry = (entry.0 - us, entry.1 + 1);
            }
        }
        let mut complete: Vec<f64> = by_request
            .into_values()
            .filter(|(_, spans)| *spans == parts.len() + 1)
            .map(|(us, _)| us)
            .collect();
        quantile(&mut complete, 0.5)
    }

    pub fn calls(&self, layer: Layer) -> usize {
        self.spans.iter().filter(|s| s.layer == layer).count()
    }

    /// One JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span
                .layer
                .parent()
                .map_or("null".to_string(), |p| format!("\"{}\"", p.name()));
            writeln!(
                out,
                "{{\"req\":{},\"layer\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.request,
                span.layer.name(),
                span.start_ns,
                span.end_ns
            )?;
        }
        out.flush()
    }
}

/// The fixed sample, flattened: each request with its source address.
struct Sample<'a> {
    items: Vec<(String, &'a Request)>,
}

impl<'a> Sample<'a> {
    fn new(scripts: &'a [Script], requests: usize) -> Sample<'a> {
        let items = scripts
            .iter()
            .flat_map(|script| {
                let ip = script.source.to_string();
                script.requests.iter().map(move |r| (ip.clone(), r))
            })
            .take(requests)
            .collect();
        Sample { items }
    }

    fn iter(&self) -> impl Iterator<Item = (u32, &str, &'a Request)> + '_ {
        self.items
            .iter()
            .enumerate()
            .map(|(id, (ip, request))| (id as u32, ip.as_str(), *request))
    }
}

fn parse(request: &Request, ip: &str) -> Option<HttpRequest> {
    HttpRequest::parse_with_limits(&request.wire, ip, &RequestLimits::default()).ok()
}

/// What the authentication step of `Server::dispatch_gaa` computes.
fn verify(users: &HtpasswdStore, request: &HttpRequest) -> Option<String> {
    let credentials = parse_basic_auth(request.header("authorization")?)?;
    users
        .verify(&credentials.user, &credentials.password)
        .then_some(credentials.user)
}

/// Counter deltas of the server replay.
pub struct Counters {
    pub dcache_hit_ratio: f64,
    pub dcache_invalidations: u64,
    pub slice_hit_ratio: f64,
    pub slice_guard_fallbacks: u64,
    pub audit_records: u64,
    pub ids_reports: u64,
    pub share_authenticated: f64,
}

pub struct TracedPass {
    pub tracer: Tracer,
    pub counters: Counters,
    pub tally: Tally,
    /// p50 over requests of `handle_bytes` + `to_wire`, the traced
    /// counterpart of `svc_us_p50`.
    pub svc_us_p50: f64,
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Replay through a whole server twin: `handle_bytes` and `to_wire` spans,
/// and the deltas of every counter the server exposes.
fn server_pass(
    tracer: &mut Tracer,
    sample: &Sample,
    twin: &Deployment,
    tally: &mut Tally,
) -> (Counters, f64) {
    let audit = &twin.services.audit;
    let dcache_before = twin.server.decision_cache_stats().unwrap_or_default();
    let slice_before = twin.server.slice_stats().unwrap_or_default();
    let audit_before = audit.len() as u64 + audit.dropped();
    twin.reports.drain();
    let mut authenticated = 0u64;
    let mut svc_us = Vec::with_capacity(sample.items.len());
    for (id, ip, request) in sample.iter() {
        let before = tracer.spans.len();
        let response = tracer.time(id, Layer::HandleBytes, || {
            twin.server.handle_bytes(&request.wire, ip)
        });
        std::hint::black_box(tracer.time(id, Layer::Serialize, || response.to_wire(true)));
        let spans = &tracer.spans[before..];
        svc_us.push((spans[1].end_ns - spans[0].start_ns) as f64 / 1e3);
        tally.attempted += 1;
        tally.wrong_status += u64::from(response.status.code() != request.expect);
        authenticated += u64::from(request.wire.windows(15).any(|w| w == b"\r\nauthorization"));
    }
    let dcache = twin.server.decision_cache_stats().unwrap_or_default();
    let slice = twin.server.slice_stats().unwrap_or_default();
    let hits = dcache.hits - dcache_before.hits;
    let slice_hits = slice.hits - slice_before.hits;
    let slice_all = slice_hits
        + (slice.full - slice_before.full)
        + (slice.guard_fallbacks - slice_before.guard_fallbacks);
    let counters = Counters {
        dcache_hit_ratio: ratio(hits, hits + dcache.misses - dcache_before.misses),
        dcache_invalidations: dcache.invalidations - dcache_before.invalidations,
        slice_hit_ratio: ratio(slice_hits, slice_all),
        slice_guard_fallbacks: slice.guard_fallbacks - slice_before.guard_fallbacks,
        audit_records: audit.len() as u64 + audit.dropped() - audit_before,
        ids_reports: twin.reports.drain().len() as u64,
        share_authenticated: ratio(authenticated, sample.items.len() as u64),
    };
    (counters, quantile(&mut svc_us, 0.5))
}

/// `parse_with_limits` then `Server::handle` on a fresh GAA twin, and
/// `Server::handle` of the same requests on the open twin.
fn handle_pass(tracer: &mut Tracer, sample: &Sample, twin: &Deployment) {
    let open = twin.open_twin();
    for (id, ip, request) in sample.iter() {
        let limits = RequestLimits::default();
        let parsed = tracer.time(id, Layer::Parse, || {
            HttpRequest::parse_with_limits(&request.wire, ip, &limits)
        });
        let Ok(parsed) = parsed else { continue };
        let for_open = parsed.clone();
        std::hint::black_box(tracer.time(id, Layer::ServerHandle, || twin.server.handle(parsed)));
        std::hint::black_box(tracer.time(id, Layer::ServerOpen, || open.handle(for_open)));
    }
}

const RUNNING_CGI: ExecutionMetrics = ExecutionMetrics {
    cpu_ticks: 64,
    memory_bytes: 4096,
    wall_millis: 1,
    files_created: 0,
};

/// The glue's own entry points on a fresh, cold glue: first-touch
/// `authorize` of every cell (the slice proof), then per sample request
/// credential verification, `authorize`, and the two later GAA phases on
/// its decision.
fn glue_pass(tracer: &mut Tracer, sample: &Sample, workload: Workload, scale: Scale) {
    let parts = build_glue(workload, scale, Twin::Production);
    let (glue, api, users) = (&parts.glue, parts.glue.api(), &parts.users);
    let mut cold = sample.items.len() as u32;
    for path in workload_paths(workload, scale) {
        for header in [None, Some(basic_auth(0))] {
            let touch = Request {
                wire: gen::wire(&path, header.as_deref()),
                expect: 200,
            };
            let Some(request) = parse(&touch, "127.0.0.1") else {
                continue;
            };
            let user = header.as_ref().map(|_| "user0");
            let is_cgi = parts.vfs.is_cgi(&request.path);
            std::hint::black_box(tracer.time(cold, Layer::SliceProof, || {
                glue.authorize(&request, user, &[], is_cgi)
            }));
            cold += 1;
        }
    }
    for (id, ip, request) in sample.iter() {
        let Some(request) = parse(request, ip) else {
            continue;
        };
        let user = if request.header("authorization").is_some() {
            tracer.time(id, Layer::AuthVerify, || verify(users, &request))
        } else {
            None
        };
        let is_cgi = parts.vfs.is_cgi(&request.path);
        let decision = tracer.time(id, Layer::Authorize, || {
            glue.authorize(&request, user.as_deref(), &[], is_cgi)
        });
        std::hint::black_box(tracer.time(id, Layer::ExecControl, || {
            api.execution_control(&decision.result, &decision.context, &RUNNING_CGI)
        }));
        std::hint::black_box(tracer.time(id, Layer::PostExec, || {
            api.post_execution_actions(&decision.result, &decision.context, Outcome::Success)
        }));
    }
}

/// The pieces `GaaGlue::authorize` is made of, each called alone on one
/// fresh glue. First the cheap, pure ones over the whole sample — context
/// extraction, signature scan, pattern oracle — then, until `budget` is
/// spent, policy fetch and both evaluators on the *full* policy (on
/// `scale_1m` they bound what slicing saves). Two loops, because a fetch
/// copies the whole policy (1 003 entries at `scale_1m`) and the call
/// timed right after it would be charged for the caches it emptied.
fn core_pass(
    tracer: &mut Tracer,
    sample: &Sample,
    workload: Workload,
    scale: Scale,
    budget: Duration,
) {
    let parts = build_glue(workload, scale, Twin::Production);
    let (glue, api, users) = (&parts.glue, parts.glue.api(), &parts.users);
    let signatures = CompiledSignatureDb::compile(&SignatureDb::with_defaults());
    // The store resolves local policies by exact object name, so every
    // object without one composes to the same system-only policy and
    // shares one pattern matcher and one compiled policy.
    let locals: Vec<String> = policy_texts(workload, scale)
        .locals
        .into_iter()
        .map(|(o, _)| o)
        .collect();
    let plan_key = |path: &str| {
        locals
            .iter()
            .find(|o| *o == path)
            .map_or("", String::as_str)
    };
    let mut plans: HashMap<&str, (CombinedMatcher, gaa_core::CompiledPolicy)> = HashMap::new();

    for (id, ip, request) in sample.iter() {
        let Some(request) = parse(request, ip) else {
            continue;
        };
        let user = verify(users, &request);
        let line = request.request_line();
        std::hint::black_box(tracer.time(id, Layer::Context, || {
            glue.extract_context(&request, user.as_deref(), &[])
        }));
        std::hint::black_box(tracer.time(id, Layer::Scan, || {
            signatures.scan(&line, request.input_len())
        }));
        let key = plan_key(&request.path);
        if !plans.contains_key(key) {
            let Ok(policy) = api.get_object_policy_info(&request.path) else {
                continue;
            };
            let vars = VarTable::from_policy(&policy, &|t, a| api.registry().is_registered(t, a));
            let matcher = CombinedMatcher::compile(&vars.pattern_values());
            plans.insert(key, (matcher, api.compile_policy(&policy)));
        }
        let matcher = &plans[key].0;
        std::hint::black_box(
            tracer.time(id, Layer::Oracle, || PatternOracle::compute(matcher, &line)),
        );
    }

    let deadline = Instant::now() + budget;
    for (id, ip, request) in sample.iter() {
        if Instant::now() >= deadline {
            break;
        }
        let Some(request) = parse(request, ip) else {
            continue;
        };
        let Some((_, compiled)) = plans.get(plan_key(&request.path)) else {
            continue;
        };
        let user = verify(users, &request);
        let context = glue.extract_context(&request, user.as_deref(), &[]);
        let fetched = tracer.time(id, Layer::PolicyFetch, || {
            api.get_object_policy_info(&request.path)
        });
        let Ok(policy) = fetched else { continue };
        let right = RightPattern::new("apache", request.method.as_str());
        std::hint::black_box(tracer.time(id, Layer::EvalInterp, || {
            api.check_authorization(&policy, &right, &context)
        }));
        std::hint::black_box(tracer.time(id, Layer::EvalCompiled, || {
            api.check_authorization_compiled(compiled, &right, &context)
        }));
    }
}

/// Set-up and bookkeeping layers that no request probe reaches alone:
/// `AuditLog::record` on a fresh ring, and parsing and composing the
/// deployment's policy files.
fn fixed_cost_pass(tracer: &mut Tracer, sample: &Sample, workload: Workload, scale: Scale) {
    let log = AuditLog::new();
    for (id, ip, _) in sample.iter() {
        let record = AuditRecord::new(
            Timestamp::default(),
            AuditSeverity::Info,
            "op.completed",
            ip,
            "served",
        );
        tracer.time(id, Layer::AuditRecord, || log.record(record));
    }
    let texts = policy_texts(workload, scale);
    for rep in 0..20 {
        let system = tracer
            .time(rep, Layer::EaclParse, || parse_eacl_list(&texts.system))
            .expect("the deployment's system policy parses");
        let local = texts.locals.first().map_or_else(Vec::new, |(_, text)| {
            parse_eacl_list(text).expect("local policy parses")
        });
        std::hint::black_box(tracer.time(rep, Layer::EaclCompose, || {
            ComposedPolicy::compose(system, local)
        }));
    }
}

/// Runs every probe over the first `requests` requests of `scripts`.
pub fn traced_pass(
    workload: Workload,
    scale: Scale,
    scripts: &[Script],
    requests: usize,
    core_budget: Duration,
) -> TracedPass {
    let sample = Sample::new(scripts, requests);
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();

    // The cheapest probes first, on the cleanest heap this process still
    // has: run after two million-principal twins had been built and
    // dropped, `extract_context` (some 25 small allocations) timed 7.4 µs
    // instead of 0.7 µs.
    core_pass(&mut tracer, &sample, workload, scale, core_budget);
    glue_pass(&mut tracer, &sample, workload, scale);
    let warm_twin = || {
        let twin = Deployment::build(workload, scale, Twin::Production);
        warm(&twin.server, workload, scale);
        twin
    };
    let twin = warm_twin();
    let (counters, svc_us_p50) = server_pass(&mut tracer, &sample, &twin, &mut tally);
    drop(twin);
    let twin = warm_twin();
    handle_pass(&mut tracer, &sample, &twin);
    drop(twin);
    fixed_cost_pass(&mut tracer, &sample, workload, scale);

    TracedPass {
        tracer,
        counters,
        tally,
        svc_us_p50,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_each_request_own_spans() {
        let mut tracer = Tracer::new();
        let mut span = |request, layer, start_ns, end_ns| {
            tracer.spans.push(Span {
                request,
                layer,
                start_ns,
                end_ns,
            });
        };
        for request in 0..3 {
            span(
                request,
                Layer::ServerHandle,
                0,
                10_000 + 1_000 * u64::from(request),
            );
            span(request, Layer::Authorize, 0, 6_000);
        }
        span(3, Layer::ServerHandle, 0, 90_000); // no authorize span: left out
        assert_eq!(
            tracer.p50_self_us(Layer::ServerHandle, &[Layer::Authorize]),
            5.0
        );
        assert_eq!(tracer.p50_us(Layer::ServerHandle), 11.5);
        assert_eq!(tracer.calls(Layer::Authorize), 3);
        assert_eq!(Layer::Authorize.parent(), Some(Layer::ServerHandle));
    }
}
