//! The GAA ↔ web-server glue: Figure 1 end-to-end.
//!
//! §6: "The GAA-API is integrated into Apache by modifying the
//! `check_user_access` function. The glue code extracts the information
//! about requests from the Apache core modules, initializes the GAA-API,
//! calls the API functions to evaluate policies, and finally returns access
//! control decision and status values to the modules."
//!
//! [`GaaGlue`] owns the initialized [`GaaApi`], the shared
//! [`StandardServices`], and the IDS hookups:
//!
//! * [`extract_context`](GaaGlue::extract_context) — §6 step 2b: the
//!   request is converted into classified parameters;
//! * [`requested_rights`](GaaGlue::requested_rights) — the right list (a
//!   method right, plus `EXEC_CGI` for scripts);
//! * [`authorize`](GaaGlue::authorize) — steps 2a–2d: policy retrieval,
//!   `gaa_check_authorization`, translation to an HTTP answer;
//! * IDS reporting (§3): signature matches become `ApplicationAttack`
//!   reports (feeding the threat monitor), oversized inputs become
//!   `AbnormalParameters`, denials of sensitive objects become
//!   `SensitiveDenial`, and granted requests emit `LegitimatePattern`
//!   observations for profile building.

use crate::http::{HttpRequest, Method};
use gaa_audit::DegradationState;
use gaa_conditions::multipattern::install_oracle;
use gaa_conditions::{CombinedMatcher, CompiledSignatureDb, PatternOracle, StandardServices};
use gaa_core::{
    dag::{DecisionDag, VarTable},
    maybe_violates_mask, slice_cell, support_set_cacheable, AnswerCode, AuthorizationResult,
    CacheStamp, DecisionCache, GaaApi, IdentityClass, Param, RightPattern, SecurityContext,
    SliceStats, SlicedPolicyStore, Volatility,
};
use gaa_ids::{EventBus, GaaReport, ReportKind, SignatureDb};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// What the glue tells the server to do with a request.
#[derive(Debug)]
pub struct GlueDecision {
    /// The translated answer (§6 step 2d).
    pub answer: AnswerCode,
    /// The underlying authorization result (carried into the execution-
    /// control and post-execution phases).
    pub result: AuthorizationResult,
    /// The context the decision was made under (reused by later phases).
    pub context: SecurityContext,
}

/// The glue module binding the GAA-API into the request path.
pub struct GaaGlue {
    api: GaaApi,
    services: StandardServices,
    bus: Option<EventBus>,
    signatures: Option<SignatureDb>,
    sensitive_prefixes: Vec<String>,
    degradation: Option<DegradationState>,
    cache: Option<DecisionCache>,
    /// Per-object cache-safety plan: `object → (policy generation it was
    /// computed at, is the support set cacheable)`.
    plans: Mutex<HashMap<String, (u64, bool)>>,
    /// Whether the whole-set pattern compiler is active. On by default;
    /// [`with_combined_patterns`](GaaGlue::with_combined_patterns) turns it
    /// off, reverting to the per-pattern interpreted path everywhere.
    combined_patterns: bool,
    /// The compiled signature automaton, rebuilt whenever
    /// [`SignatureDb::version`] moves past the compiled one.
    compiled_sigs: Mutex<Option<Arc<CompiledSignatureDb>>>,
    /// Per-object compiled policy-pattern set: `object → (policy generation
    /// it was compiled at, the combined matcher over every pattern token in
    /// the object's decision-DAG variable universe)`.
    pattern_plans: Mutex<HashMap<String, (u64, Arc<CombinedMatcher>)>>,
    /// Verified per-request-cell policy slices (the Cedar-style fast path);
    /// `None` disables slicing and every right evaluates the full
    /// composition.
    slices: Option<SlicedPolicyStore>,
}

impl GaaGlue {
    /// Wraps an initialized API and its services.
    pub fn new(api: GaaApi, services: StandardServices) -> Self {
        GaaGlue {
            api,
            services,
            bus: None,
            signatures: None,
            sensitive_prefixes: vec!["/private".to_string(), "/etc".to_string()],
            degradation: None,
            cache: None,
            plans: Mutex::new(HashMap::new()),
            combined_patterns: true,
            compiled_sigs: Mutex::new(None),
            pattern_plans: Mutex::new(HashMap::new()),
            slices: None,
        }
    }

    /// Enables the policy-slicing fast path: each `(object, right,
    /// identity-class)` cell evaluates a statically-computed slice of the
    /// composed policy, but only after the slice is **proven** equivalent
    /// to the full deployment on the decision DAG (fail-closed: unproven
    /// cells, and sliced results whose unevaluated conditions contradict
    /// the class mask, fall back to full evaluation). `capacity` bounds the
    /// number of cached cells.
    #[must_use]
    pub fn with_policy_slicing(mut self, capacity: usize) -> Self {
        self.slices = Some(SlicedPolicyStore::new(capacity));
        self
    }

    /// Slice-usage counters, when the slicing fast path is enabled.
    pub fn slice_stats(&self) -> Option<SliceStats> {
        self.slices.as_ref().map(SlicedPolicyStore::stats)
    }

    /// Enables or disables the combined pattern-compilation tier (on by
    /// default). When off, signature scans and `regex` conditions take the
    /// interpreted per-pattern path — the reference semantics the combined
    /// tier is differentially tested against.
    #[must_use]
    pub fn with_combined_patterns(mut self, enabled: bool) -> Self {
        self.combined_patterns = enabled;
        self
    }

    /// Attaches an authorization-decision cache (see
    /// [`DecisionCache`]). The glue only serves cached answers for objects
    /// whose compiled support set it has proven cacheable, and only stores
    /// fully evaluated `Yes`/`No` decisions that carry no response-action,
    /// mid- or post-condition obligations.
    #[must_use]
    pub fn with_decision_cache(mut self, cache: DecisionCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached decision cache, if any.
    pub fn decision_cache(&self) -> Option<&DecisionCache> {
        self.cache.as_ref()
    }

    /// Attaches the degradation registry the resilience decorators write to,
    /// so the server can expose which dependencies are currently degraded.
    #[must_use]
    pub fn with_degradation(mut self, degradation: DegradationState) -> Self {
        self.degradation = Some(degradation);
        self
    }

    /// The attached degradation registry, if any.
    pub fn degradation(&self) -> Option<&DegradationState> {
        self.degradation.as_ref()
    }

    /// Publishes §3 reports on `bus`.
    #[must_use]
    pub fn with_bus(mut self, bus: EventBus) -> Self {
        self.bus = Some(bus);
        self
    }

    /// Scans requests against `signatures` for IDS reporting (the *policy*
    /// still decides access; this drives §3 item 5 reports and threat-level
    /// escalation).
    #[must_use]
    pub fn with_signatures(mut self, signatures: SignatureDb) -> Self {
        self.signatures = Some(signatures);
        self
    }

    /// Replaces the sensitive-object prefixes for §3 item 3 reports.
    #[must_use]
    pub fn with_sensitive_prefixes(mut self, prefixes: Vec<String>) -> Self {
        self.sensitive_prefixes = prefixes;
        self
    }

    /// The wrapped API.
    pub fn api(&self) -> &GaaApi {
        &self.api
    }

    /// The shared services (threat monitor, groups, audit, thresholds).
    pub fn services(&self) -> &StandardServices {
        &self.services
    }

    /// §6 step 2b: builds the security context from the request structure.
    /// Parameters are classified with type and authority so evaluators can
    /// find them.
    pub fn extract_context(
        &self,
        request: &HttpRequest,
        user: Option<&str>,
        groups: &[String],
    ) -> SecurityContext {
        let mut ctx = SecurityContext::new()
            .with_client_ip(request.client_ip.clone())
            .with_object(request.path.clone())
            .with_param(Param::new("url", "apache", request.target.clone()))
            .with_param(Param::new("request_line", "apache", request.request_line()))
            .with_param(Param::new("method", "apache", request.method.as_str()))
            .with_param(Param::new(
                "query_len",
                "apache",
                request.input_len().to_string(),
            ))
            .with_param(Param::new(
                "header_count",
                "apache",
                request.headers.len().to_string(),
            ))
            .with_param(Param::new(
                "content_length",
                "apache",
                request.body.len().to_string(),
            ));
        if let Some(user) = user {
            ctx = ctx.with_user(user);
        }
        for group in groups {
            ctx = ctx.with_group(group.clone());
        }
        ctx
    }

    /// §6 step 2b: the request as a list of requested rights.
    pub fn requested_rights(&self, request: &HttpRequest, is_cgi: bool) -> Vec<RightPattern> {
        let mut rights = vec![RightPattern::new("apache", request.method.as_str())];
        if is_cgi && request.method != Method::Head {
            rights.push(RightPattern::new("apache", "EXEC_CGI"));
        }
        rights
    }

    /// Steps 2a–2d: retrieve + compose policies, check every requested
    /// right (conjunction), translate, and report observations to the IDS.
    pub fn authorize(
        &self,
        request: &HttpRequest,
        user: Option<&str>,
        groups: &[String],
        is_cgi: bool,
    ) -> GlueDecision {
        let context = self.extract_context(request, user, groups);
        let now = self.api.clock().now();
        // Formatted once, by `extract_context`; the signature scan and the
        // pattern oracle read the same text the `regex` evaluator will.
        let request_line = context
            .param_for("request_line", "apache")
            .unwrap_or_default();

        // §3 reporting runs regardless of the decision: detection is part of
        // the same pass as access control. It runs before the cache lookup,
        // so a cache hit changes nothing about what the IDS observes.
        self.scan_and_report(request, request_line, now);

        // Stamp *after* scanning — a confident signature hit may have just
        // escalated the threat level.
        let stamp = self.stamp();
        let mut rights = self.requested_rights(request, is_cgi);
        // The cache key of each right is formatted at most once per request:
        // the lookup fills `keys` in right order and the insert after a miss
        // reuses them.
        let mut keys: Vec<String> = Vec::new();
        if let Some((decisive, status)) =
            self.cached_decision(stamp, request, &rights, &context, &mut keys)
        {
            let result = AuthorizationResult::from_cached(rights.swap_remove(decisive), status);
            let answer = result.answer();
            self.post_decision_observations(request, &context, &answer, now);
            return GlueDecision {
                answer,
                result,
                context,
            };
        }

        // The full composition is materialized lazily. The store hands out
        // shared lists, so a fetch copies no policy, but a verified-slice
        // cache hit still has no reason to consult the store at all.
        // Everything below that needs the full policy goes through
        // `materialize(&mut policy_slot)`, which fetches at most once; a
        // steady-state sliced request never fills the slot at all.
        let mut policy_slot: Option<gaa_eacl::ComposedPolicy> = None;

        // Whole-set pattern tier: one combined pass precomputes every policy
        // pattern's verdict for this request line; `signature_matches`
        // consults the scoped oracle and falls back to the interpreted
        // per-pattern path on any miss (different text, disabled tier).
        // The per-object plan is generation-keyed, so the policy is only
        // materialized to (re)build a stale plan.
        let oracle_matcher = match self.current_pattern_matcher(&request.path, stamp[0]) {
            Some(current) => current,
            None => match self.materialize(&request.path, &mut policy_slot) {
                Ok(policy) => self.policy_pattern_matcher(&request.path, policy, stamp[0]),
                Err(e) => return self.policy_failure(request, context, now, &e),
            },
        };
        let _oracle = oracle_matcher
            .map(|matcher| install_oracle(PatternOracle::compute(&matcher, request_line)));

        // The request is authorized only if every requested right is.
        // Rights are checked in order and evaluation stops at the first
        // non-YES result: its unevaluated conditions drive the 401/302
        // translation, and its response actions must fire exactly once
        // (continuing would re-trigger notify/update_log on the remaining
        // rights).
        if rights.is_empty() {
            // Unreachable with the current right builder, but the request
            // path must never panic: an empty right list fails closed.
            self.services.audit.record(gaa_audit::AuditRecord::new(
                now,
                gaa_audit::AuditSeverity::Alert,
                "gaa.internal_error",
                context.subject(),
                "no requested rights derived from request",
            ));
            let result = self.api.check_authorization(
                &gaa_eacl::ComposedPolicy::compose(vec![deny_all_policy()], Vec::new()),
                &RightPattern::new("apache", request.method.as_str()),
                &context,
            );
            return GlueDecision {
                answer: AnswerCode::Declined,
                result,
                context,
            };
        }
        // Evaluation stops at the first non-YES result. The answer is that
        // result, or the first right's when everything says YES (so its
        // response actions fire exactly once).
        let mut evaluated: Vec<AuthorizationResult> = Vec::with_capacity(rights.len());
        for right in &rights {
            let result = match self.check_right(&request.path, &mut policy_slot, right, &context) {
                Ok(result) => result,
                Err(e) => return self.policy_failure(request, context, now, &e),
            };
            let granted = result.status().is_yes();
            evaluated.push(result);
            if !granted {
                break;
            }
        }
        self.store_decisions(
            stamp,
            request,
            &mut policy_slot,
            &context,
            &evaluated,
            &mut keys,
        );
        // `rights` is non-empty, so `evaluated` is too.
        let decisive = if evaluated.last().is_some_and(|r| !r.status().is_yes()) {
            evaluated.len() - 1
        } else {
            0
        };
        let result = evaluated.swap_remove(decisive);
        let answer = result.answer();

        self.post_decision_observations(request, &context, &answer, now);

        GlueDecision {
            answer,
            result,
            context,
        }
    }

    /// Fetches and composes the object's policy into `slot` (at most once
    /// per request) and returns a borrow of it.
    fn materialize<'s>(
        &self,
        object: &str,
        slot: &'s mut Option<gaa_eacl::ComposedPolicy>,
    ) -> Result<&'s gaa_eacl::ComposedPolicy, gaa_core::PolicyError> {
        let policy = match slot.take() {
            Some(policy) => policy,
            None => self.api.get_object_policy_info(object)?,
        };
        Ok(slot.insert(policy))
    }

    /// Fail closed on an unreadable policy: audit and deny.
    fn policy_failure(
        &self,
        request: &HttpRequest,
        context: SecurityContext,
        now: gaa_audit::Timestamp,
        error: &gaa_core::PolicyError,
    ) -> GlueDecision {
        self.services.audit.record(gaa_audit::AuditRecord::new(
            now,
            gaa_audit::AuditSeverity::Alert,
            "policy.retrieval_failed",
            context.subject(),
            error.to_string(),
        ));
        let result = self.api.check_authorization(
            &gaa_eacl::ComposedPolicy::compose(vec![deny_all_policy()], Vec::new()),
            &RightPattern::new("apache", request.method.as_str()),
            &context,
        );
        GlueDecision {
            answer: AnswerCode::Declined,
            result,
            context,
        }
    }

    /// The object's compiled pattern plan, but only when it is already
    /// current at `generation`: outer `None` means the plan is stale or
    /// absent (the caller must materialize the policy and call
    /// [`policy_pattern_matcher`](Self::policy_pattern_matcher)); inner
    /// `None` means the tier is off or the matcher is empty.
    #[allow(clippy::option_option)]
    fn current_pattern_matcher(
        &self,
        object: &str,
        generation: u64,
    ) -> Option<Option<Arc<CombinedMatcher>>> {
        if !self.combined_patterns {
            return Some(None);
        }
        let plans = self.pattern_plans.lock();
        match plans.get(object) {
            Some((gen_at, matcher)) if *gen_at == generation => Some(if matcher.is_empty() {
                None
            } else {
                Some(matcher.clone())
            }),
            _ => None,
        }
    }

    /// Evaluates one right, through a verified policy slice when the
    /// slicing tier is on and has (or can build) one for this request cell.
    ///
    /// Soundness at run time rests on three legs:
    ///
    /// 1. entries are only dropped when their applies-diagram cannot reach
    ///    TRUE under the identity-class outcome mask, so statuses *and*
    ///    obligations are preserved for every mask-consistent evaluation;
    /// 2. the slice was proven decision-equivalent to the full composition
    ///    on the DAG before first use (unproven cells cache `None` and take
    ///    the full path);
    /// 3. if the sliced result reports an unevaluated condition the mask
    ///    said cannot be MAYBE (only an evaluator fault can do that), the
    ///    sliced result is discarded and the full composition re-evaluated.
    ///    Response actions may re-fire on that fault path — at-least-once,
    ///    the same guarantee the retry-free path gives.
    fn check_right(
        &self,
        object: &str,
        policy_slot: &mut Option<gaa_eacl::ComposedPolicy>,
        right: &RightPattern,
        context: &SecurityContext,
    ) -> Result<AuthorizationResult, gaa_core::PolicyError> {
        let Some(store) = self.slices.as_ref() else {
            let policy = self.materialize(object, policy_slot)?;
            return Ok(self.api.check_authorization(policy, right, context));
        };
        let class = IdentityClass::of_user(context.user());
        let sliced = store.sliced_for(
            self.api.policy_generation(),
            object,
            &right.authority,
            &right.value,
            class,
            || {
                // Cold path, once per cell per generation: this fetch is
                // what the cached cells exist to avoid.
                let policy = self.api.get_object_policy_info(object).ok()?;
                let vars =
                    VarTable::from_policy(&policy, &|t, a| self.api.registry().is_registered(t, a));
                let mut dag = DecisionDag::new();
                let cell = slice_cell(
                    &mut dag,
                    &policy,
                    &vars,
                    &right.authority,
                    &right.value,
                    class,
                    self.api.default_status(),
                );
                // Only a proven slice that actually removed entries is
                // worth dispatching through.
                (cell.verified && cell.kept_entries < cell.total_entries).then_some(cell.policy)
            },
        );
        match sliced {
            Some(slice) => {
                let result = self.api.check_authorization(&slice, right, context);
                if result
                    .unevaluated()
                    .any(|cond| maybe_violates_mask(cond, class))
                {
                    store.count_guard_fallback();
                    let policy = self.materialize(object, policy_slot)?;
                    Ok(self.api.check_authorization(policy, right, context))
                } else {
                    store.count_hit();
                    Ok(result)
                }
            }
            None => {
                store.count_full();
                let policy = self.materialize(object, policy_slot)?;
                Ok(self.api.check_authorization(policy, right, context))
            }
        }
    }

    /// Post-decision observations (§3 items 3 and 7). Runs identically on
    /// the cached and the evaluated paths — detection must not degrade when
    /// the decision comes from the cache.
    fn post_decision_observations(
        &self,
        request: &HttpRequest,
        context: &SecurityContext,
        answer: &AnswerCode,
        now: gaa_audit::Timestamp,
    ) {
        match answer {
            AnswerCode::Declined
                if self
                    .sensitive_prefixes
                    .iter()
                    .any(|p| request.path.starts_with(p.as_str())) =>
            {
                self.publish(GaaReport::new(
                    now,
                    ReportKind::SensitiveDenial,
                    request.client_ip.clone(),
                    request.path.clone(),
                    "access to sensitive object denied",
                ));
                self.services.threat.report_suspicion();
            }
            AnswerCode::Ok => {
                // Every grant reports; the report is only built when some
                // subscriber wants legitimate patterns.
                if let Some(bus) = &self.bus {
                    let kind = ReportKind::LegitimatePattern;
                    bus.publish_report_with(kind, now, context.subject(), || {
                        GaaReport::new(
                            now,
                            kind,
                            context.subject(),
                            request.path.clone(),
                            format!("granted {} len={}", request.method, request.input_len()),
                        )
                    });
                }
                // §3 item 7 / §9: granted requests build the per-principal
                // profile the anomaly condition scores against.
                self.services.anomaly.learn(
                    context.subject(),
                    &gaa_ids::anomaly::RequestFeatures::from_url(&request.target, now),
                );
            }
            _ => {}
        }
    }

    /// The current invalidation stamp:
    /// `[policy_generation, threat_epoch, group_version]`.
    fn stamp(&self) -> CacheStamp {
        [
            self.api.policy_generation(),
            self.services.threat.epoch(),
            self.services.groups.version(),
        ]
    }

    /// Serves the whole rights conjunction from the cache, emulating the
    /// evaluation loop's stopping rule: the first right's status is kept
    /// while everything says `Yes`; the first non-`Yes` status wins and
    /// stops. Returns the index of the deciding right and its status, or
    /// `None` (fall through to full evaluation) unless the object's support
    /// set is proven cacheable at this policy generation and *every* needed
    /// lookup hits. The key of every right looked up is left in `keys`.
    fn cached_decision(
        &self,
        stamp: CacheStamp,
        request: &HttpRequest,
        rights: &[RightPattern],
        context: &SecurityContext,
        keys: &mut Vec<String>,
    ) -> Option<(usize, gaa_core::GaaStatus)> {
        let cache = self.cache.as_ref()?;
        // Only a plan computed at the current generation counts; after a
        // reload the slow path recomputes it from the fresh policy.
        match self.plans.lock().get(&request.path) {
            Some(&(generation, true)) if generation == stamp[0] => {}
            _ => return None,
        }
        let mut kept: Option<(usize, gaa_core::GaaStatus)> = None;
        for index in 0..rights.len() {
            let status = cache.lookup(stamp, key_for(keys, index, |i| &rights[i], context))?;
            match kept {
                None => kept = Some((index, status)),
                Some((_, s)) if s.is_yes() && !status.is_yes() => {
                    kept = Some((index, status));
                }
                _ => {}
            }
            if !kept.is_some_and(|(_, s)| s.is_yes()) {
                break;
            }
        }
        kept
    }

    /// Stores the decisions just evaluated, when sound: support set proven
    /// cacheable, stamp unchanged across the evaluation (no policy reload,
    /// threat transition or group change raced it), the status fully
    /// evaluated (`Yes`/`No`, nothing unevaluated), and no applied entry
    /// carrying response-action, mid- or post-condition obligations (those
    /// must re-fire on every request). `evaluated` holds the results of the
    /// leading requested rights, in order, so the keys the lookup already
    /// built in `keys` are reused.
    fn store_decisions(
        &self,
        stamp: CacheStamp,
        request: &HttpRequest,
        policy_slot: &mut Option<gaa_eacl::ComposedPolicy>,
        context: &SecurityContext,
        evaluated: &[AuthorizationResult],
        keys: &mut Vec<String>,
    ) {
        let Some(cache) = self.cache.as_ref() else {
            return;
        };
        let cacheable = {
            let current = {
                let plans = self.plans.lock();
                match plans.get(&request.path) {
                    Some(&(generation, cacheable)) if generation == stamp[0] => Some(cacheable),
                    _ => None,
                }
            };
            match current {
                Some(cacheable) => cacheable,
                None => {
                    // Stale plan: recompute from the full composition. An
                    // unreadable policy here just skips caching.
                    let Ok(policy) = self.materialize(&request.path, policy_slot) else {
                        cache.note_uncacheable();
                        return;
                    };
                    let vars = VarTable::from_policy(policy, &|t, a| {
                        self.api.registry().is_registered(t, a)
                    });
                    let cacheable = support_set_cacheable(vars.triples(), classify_input);
                    self.plans
                        .lock()
                        .insert(request.path.clone(), (stamp[0], cacheable));
                    cacheable
                }
            }
        };
        if !cacheable || self.stamp() != stamp {
            cache.note_uncacheable();
            return;
        }
        for (index, result) in evaluated.iter().enumerate() {
            let status = result.status();
            let fully_evaluated =
                (status.is_yes() || status.is_no()) && result.unevaluated().next().is_none();
            let no_obligations = result
                .applied_entries()
                .all(|e| e.rr.is_empty() && e.mid.is_empty() && e.post.is_empty());
            if fully_evaluated && no_obligations {
                let key = key_for(keys, index, |i| evaluated[i].right(), context);
                cache.insert(stamp, key, status);
            } else {
                cache.note_uncacheable();
            }
        }
    }

    /// Scans `request_line` against the signature DB and publishes
    /// `ApplicationAttack` / `AbnormalParameters` reports (§3 items 2 & 5),
    /// escalating the threat monitor on confident hits.
    fn scan_and_report(
        &self,
        request: &HttpRequest,
        request_line: &str,
        now: gaa_audit::Timestamp,
    ) {
        if let Some(db) = &self.signatures {
            let hits = match self.compiled_signatures(db) {
                // Single-pass path: one scan over the request line answers
                // every glob signature at once.
                Some(compiled) => compiled.scan(request_line, request.input_len()),
                None => db.scan(request_line, request.input_len()),
            };
            for hit in hits {
                let confident = hit.confidence >= 0.8;
                self.publish(
                    GaaReport::new(
                        now,
                        ReportKind::ApplicationAttack,
                        request.client_ip.clone(),
                        request.target.clone(),
                        format!("signature {} matched", hit.id),
                    )
                    .with_signature(hit),
                );
                if confident {
                    self.services.threat.report_suspicion();
                }
            }
        }
        if request.input_len() > 4096 {
            self.publish(GaaReport::new(
                now,
                ReportKind::AbnormalParameters,
                request.client_ip.clone(),
                request.target.clone(),
                format!("input of {} bytes", request.input_len()),
            ));
        }
    }

    fn publish(&self, report: GaaReport) {
        if let Some(bus) = &self.bus {
            bus.publish_report(report);
        }
    }

    /// The compiled automaton for `db`, rebuilt when the db's mutation
    /// counter has moved past the compiled version. `None` when the
    /// combined tier is disabled.
    fn compiled_signatures(&self, db: &SignatureDb) -> Option<Arc<CompiledSignatureDb>> {
        if !self.combined_patterns {
            return None;
        }
        let mut slot = self.compiled_sigs.lock();
        match slot.as_ref() {
            Some(compiled) if compiled.version() == db.version() => Some(compiled.clone()),
            _ => {
                let compiled = Arc::new(CompiledSignatureDb::compile(db));
                *slot = Some(compiled.clone());
                Some(compiled)
            }
        }
    }

    /// The combined matcher over every pattern token in `object`'s policy
    /// (the `regex`-condition values of its decision-DAG variable
    /// universe), compiled once per policy generation. `None` when the
    /// combined tier is disabled or the policy holds no patterns.
    fn policy_pattern_matcher(
        &self,
        object: &str,
        policy: &gaa_eacl::ComposedPolicy,
        generation: u64,
    ) -> Option<Arc<CombinedMatcher>> {
        if !self.combined_patterns {
            return None;
        }
        let mut plans = self.pattern_plans.lock();
        if let Some((gen_at, matcher)) = plans.get(object) {
            if *gen_at == generation {
                return if matcher.is_empty() {
                    None
                } else {
                    Some(matcher.clone())
                };
            }
        }
        let vars = VarTable::from_policy(policy, &|t, a| self.api.registry().is_registered(t, a));
        let matcher = Arc::new(CombinedMatcher::compile(&vars.pattern_values()));
        plans.insert(object.to_string(), (generation, matcher.clone()));
        if matcher.is_empty() {
            None
        } else {
            Some(matcher)
        }
    }
}

/// How a support-set input behaves for decision caching.
///
/// * `Stable` inputs are fully determined by the security context, which
///   the cache key covers in full (subject, object, client address, every
///   classified request parameter): `accessid USER`/`HOST`, `location`,
///   `regex`, `expr`.
/// * `StampKeyed` inputs are volatile but version-counted in the
///   [`CacheStamp`]: the IDS threat level (epoch) and `accessid GROUP`
///   (membership version — `update_log` mutates it mid-traffic, §7.2).
/// * Everything else is `Uncacheable`, fail-safe: wall-clock `time_window`,
///   request-rate `threshold`, `anomaly` scores, and any type this
///   classifier has never heard of.
fn classify_input(cond_type: &str, authority: &str) -> Volatility {
    match cond_type {
        "accessid" if authority.eq_ignore_ascii_case("GROUP") => Volatility::StampKeyed,
        "accessid" if authority.eq_ignore_ascii_case("USER") => Volatility::Stable,
        "accessid" if authority.eq_ignore_ascii_case("HOST") => Volatility::Stable,
        "location" | "regex" | "expr" => Volatility::Stable,
        gaa_core::dag::THREAT_COND_TYPE => Volatility::StampKeyed,
        _ => Volatility::Uncacheable,
    }
}

/// The cache key of the `index`-th requested right under `ctx`, formatted
/// on first use (with the key of any earlier right still missing) and kept
/// in `keys`, which holds the keys of the leading rights in order.
fn key_for<'k, 'r>(
    keys: &'k mut Vec<String>,
    index: usize,
    right: impl Fn(usize) -> &'r RightPattern,
    ctx: &SecurityContext,
) -> &'k str {
    while keys.len() <= index {
        keys.push(cache_key(right(keys.len()), ctx));
    }
    &keys[index]
}

/// The cache key: the requested right plus every context field an evaluator
/// can read. Fields are joined with control separators (`\x1d`–`\x1f`) that
/// cannot occur in parsed header values or decoded paths as ambiguous
/// delimiters, and optional fields are presence-tagged so `None` and `""`
/// never collide.
fn cache_key(right: &RightPattern, ctx: &SecurityContext) -> String {
    use std::fmt::Write as _;
    // Sized for the common key, so formatting it does not reallocate: the
    // fields' own lengths plus room for the separators and the quoting of
    // the three optional fields.
    let fields = right.authority.len()
        + right.value.len()
        + ctx.object().map_or(0, str::len)
        + ctx.user().map_or(0, str::len)
        + ctx.client_ip().map_or(0, str::len)
        + ctx.groups().iter().map(|g| g.len() + 1).sum::<usize>()
        + ctx
            .params()
            .iter()
            .map(|p| p.ptype.len() + p.authority.len() + p.value.len() + 3)
            .sum::<usize>();
    let mut key = String::with_capacity(fields + 32);
    let _ = write!(
        key,
        "{}\u{1f}{}\u{1f}{:?}\u{1f}{:?}\u{1f}{:?}",
        right.authority,
        right.value,
        ctx.object(),
        ctx.user(),
        ctx.client_ip()
    );
    key.push('\u{1f}');
    for group in ctx.groups() {
        let _ = write!(key, "{group}\u{1e}");
    }
    key.push('\u{1f}');
    for param in ctx.params() {
        let _ = write!(
            key,
            "{}\u{1d}{}\u{1d}{}\u{1e}",
            param.ptype, param.authority, param.value
        );
    }
    key
}

/// The fail-closed policy used when retrieval fails.
fn deny_all_policy() -> gaa_eacl::Eacl {
    gaa_eacl::Eacl::new().with_entry(gaa_eacl::EaclEntry::new(gaa_eacl::AccessRight::negative(
        "*", "*",
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaa_audit::notify::CollectingNotifier;
    use gaa_audit::VirtualClock;
    use gaa_conditions::register_standard;
    use gaa_core::{GaaApiBuilder, GaaStatus, MemoryPolicyStore};
    use gaa_eacl::parse_eacl;
    use gaa_ids::ThreatLevel;
    use std::sync::Arc;

    fn glue_with_policy(local: &str) -> GaaGlue {
        let services = StandardServices::new(
            Arc::new(VirtualClock::new()),
            Arc::new(CollectingNotifier::new()),
        );
        let mut store = MemoryPolicyStore::new();
        store.set_local("/cgi-bin/phf", vec![parse_eacl(local).unwrap()]);
        store.set_local("/index.html", vec![parse_eacl(local).unwrap()]);
        store.set_local("/private/passwords.html", vec![parse_eacl(local).unwrap()]);
        let api = register_standard(
            GaaApiBuilder::new(Arc::new(store)).with_clock(services.clock.clone()),
            &services,
        )
        .build();
        GaaGlue::new(api, services)
    }

    const SECTION_72: &str = "\
neg_access_right apache *
pre_cond regex gnu *phf* *test-cgi*
rr_cond notify local on:failure/sysadmin/info:cgi_exploit
rr_cond update_log local on:failure/BadGuys/info:ip
pos_access_right apache *
";

    #[test]
    fn context_extraction_classifies_parameters() {
        let glue = glue_with_policy("pos_access_right apache *\n");
        let req = HttpRequest::get("/index.html?q=abc")
            .with_client_ip("10.0.0.1")
            .with_header("host", "example.org");
        let ctx = glue.extract_context(&req, Some("alice"), &["staff".to_string()]);
        assert_eq!(ctx.user(), Some("alice"));
        assert!(ctx.in_group("staff"));
        assert_eq!(ctx.client_ip(), Some("10.0.0.1"));
        assert_eq!(ctx.param("query_len"), Some("5"));
        assert_eq!(ctx.param("header_count"), Some("1"));
        assert_eq!(ctx.param_for("url", "apache"), Some("/index.html?q=abc"));
    }

    #[test]
    fn requested_rights_include_exec_cgi_for_scripts() {
        let glue = glue_with_policy("pos_access_right apache *\n");
        let req = HttpRequest::get("/cgi-bin/phf?x");
        let rights = glue.requested_rights(&req, true);
        assert_eq!(rights.len(), 2);
        assert_eq!(rights[1], RightPattern::new("apache", "EXEC_CGI"));
        let rights = glue.requested_rights(&req, false);
        assert_eq!(rights.len(), 1);
    }

    #[test]
    fn section_72_attack_is_denied_and_blacklisted() {
        let glue = glue_with_policy(SECTION_72);
        let req = HttpRequest::get("/cgi-bin/phf?Qalias=x").with_client_ip("203.0.113.9");
        let decision = glue.authorize(&req, None, &[], true);
        assert_eq!(decision.answer, AnswerCode::Declined);
        assert!(glue.services().groups.contains("BadGuys", "203.0.113.9"));
    }

    #[test]
    fn benign_request_is_granted() {
        let glue = glue_with_policy(SECTION_72);
        let req = HttpRequest::get("/index.html").with_client_ip("10.0.0.1");
        let decision = glue.authorize(&req, None, &[], false);
        assert_eq!(decision.answer, AnswerCode::Ok);
        assert_eq!(decision.result.status(), GaaStatus::Yes);
    }

    #[test]
    fn signature_hits_are_reported_and_escalate_threat() {
        let bus = EventBus::new();
        let sub = bus.subscribe_reports(Some(vec![ReportKind::ApplicationAttack]));
        let glue = glue_with_policy(SECTION_72)
            .with_bus(bus)
            .with_signatures(SignatureDb::with_defaults());
        // Three confident hits escalate Low -> Medium (default threshold 3).
        for i in 0..3 {
            let req =
                HttpRequest::get(&format!("/cgi-bin/phf?probe={i}")).with_client_ip("203.0.113.9");
            let _ = glue.authorize(&req, None, &[], true);
        }
        let reports = sub.drain();
        assert_eq!(reports.len(), 3);
        assert!(reports[0].signature.is_some());
        assert_eq!(glue.services().threat.current(), ThreatLevel::Medium);
    }

    #[test]
    fn combined_and_interpreted_pattern_paths_agree() {
        // The whole-set pattern tier must be invisible: same answers, same
        // signature reports, same escalation as the per-pattern path.
        let requests = [
            HttpRequest::get("/cgi-bin/phf?Qalias=x").with_client_ip("203.0.113.9"),
            HttpRequest::get("/cgi-bin/test-cgi?*").with_client_ip("203.0.113.9"),
            HttpRequest::get("/index.html").with_client_ip("10.0.0.1"),
            HttpRequest::get("/scripts/..%255c../winnt/cmd.exe").with_client_ip("203.0.113.7"),
        ];
        let mut answers: Vec<Vec<String>> = Vec::new();
        let mut report_counts: Vec<usize> = Vec::new();
        for combined in [true, false] {
            let bus = EventBus::new();
            let sub = bus.subscribe_reports(Some(vec![ReportKind::ApplicationAttack]));
            let glue = glue_with_policy(SECTION_72)
                .with_combined_patterns(combined)
                .with_bus(bus)
                .with_signatures(SignatureDb::with_defaults());
            answers.push(
                requests
                    .iter()
                    .map(|req| format!("{:?}", glue.authorize(req, None, &[], true).answer))
                    .collect(),
            );
            report_counts.push(sub.drain().len());
        }
        assert_eq!(answers[0], answers[1]);
        assert_eq!(report_counts[0], report_counts[1]);
        assert!(report_counts[0] > 0);
    }

    #[test]
    fn signature_db_recompiles_after_mutation() {
        let bus = EventBus::new();
        let sub = bus.subscribe_reports(Some(vec![ReportKind::ApplicationAttack]));
        let mut db = SignatureDb::with_defaults();
        let glue = glue_with_policy("pos_access_right apache *\n")
            .with_bus(bus)
            .with_signatures(db.clone());
        let req = HttpRequest::get("/latest-exploit?x").with_client_ip("203.0.113.9");
        let _ = glue.authorize(&req, None, &[], false);
        assert_eq!(sub.drain().len(), 0);
        // A new signature bumps the db version; the compiled automaton is
        // stale and must be rebuilt, not served from cache.
        db.add(gaa_ids::AttackSignature {
            id: "sig.latest".to_string(),
            class: gaa_ids::AttackClass::CgiExploit,
            matcher: gaa_ids::signatures::Matcher::UrlGlob("*latest-exploit*".to_string()),
            severity: 7,
            confidence: 0.9,
            recommendation: "block source".to_string(),
        });
        let glue = glue.with_signatures(db);
        let _ = glue.authorize(&req, None, &[], false);
        assert_eq!(sub.drain().len(), 1);
    }

    #[test]
    fn sensitive_denial_is_reported() {
        let bus = EventBus::new();
        let sub = bus.subscribe_reports(Some(vec![ReportKind::SensitiveDenial]));
        let glue = glue_with_policy("neg_access_right apache *\n").with_bus(bus);
        let req = HttpRequest::get("/private/passwords.html").with_client_ip("10.9.9.9");
        let decision = glue.authorize(&req, None, &[], false);
        assert_eq!(decision.answer, AnswerCode::Declined);
        let reports = sub.drain();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].target, "/private/passwords.html");
    }

    #[test]
    fn granted_requests_feed_profiles() {
        let bus = EventBus::new();
        let sub = bus.subscribe_reports(Some(vec![ReportKind::LegitimatePattern]));
        let glue = glue_with_policy("pos_access_right apache *\n").with_bus(bus);
        let req = HttpRequest::get("/index.html").with_client_ip("10.0.0.1");
        let _ = glue.authorize(&req, Some("alice"), &[], false);
        let reports = sub.drain();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].source, "alice");
    }

    #[test]
    fn oversized_input_reported_as_abnormal() {
        let bus = EventBus::new();
        let sub = bus.subscribe_reports(Some(vec![ReportKind::AbnormalParameters]));
        let glue = glue_with_policy("pos_access_right apache *\n").with_bus(bus);
        let req = HttpRequest::get(&format!("/index.html?{}", "x".repeat(5000)))
            .with_client_ip("1.1.1.1");
        let _ = glue.authorize(&req, None, &[], false);
        assert_eq!(sub.drain().len(), 1);
    }

    const GROUP_AND_REGEX: &str = "\
neg_access_right apache *
pre_cond accessid GROUP BadGuys
neg_access_right apache *
pre_cond regex gnu *phf*
rr_cond update_log local on:failure/BadGuys/info:ip
pos_access_right apache *
";

    #[test]
    fn cache_hits_and_group_mutation_invalidates() {
        let glue = glue_with_policy(GROUP_AND_REGEX).with_decision_cache(DecisionCache::new());
        let benign = HttpRequest::get("/index.html").with_client_ip("203.0.113.9");

        // Miss, then hit, same answer.
        assert_eq!(
            glue.authorize(&benign, None, &[], false).answer,
            AnswerCode::Ok
        );
        assert_eq!(
            glue.authorize(&benign, None, &[], false).answer,
            AnswerCode::Ok
        );
        let stats = glue.decision_cache().unwrap().stats();
        assert!(stats.hits >= 1, "expected a cache hit: {stats:?}");
        assert!(stats.insertions >= 1);

        // The §7.2 attack fires update_log (uncached — it carries an rr
        // obligation), blacklisting the IP and bumping the group version…
        let attack = HttpRequest::get("/cgi-bin/phf?Qalias=x").with_client_ip("203.0.113.9");
        assert_eq!(
            glue.authorize(&attack, None, &[], true).answer,
            AnswerCode::Declined
        );
        assert!(glue.services().groups.contains("BadGuys", "203.0.113.9"));

        // …so the previously cached Ok for this client must not survive.
        assert_eq!(
            glue.authorize(&benign, None, &[], false).answer,
            AnswerCode::Declined
        );
        assert!(glue.decision_cache().unwrap().stats().invalidations >= 1);
    }

    #[test]
    fn rr_obligations_fire_on_every_repeat_with_cache_on() {
        let glue = glue_with_policy(GROUP_AND_REGEX).with_decision_cache(DecisionCache::new());
        let audit_before = glue.services().audit.records().len();
        let attack = HttpRequest::get("/cgi-bin/phf?Qalias=x").with_client_ip("203.0.113.9");
        let _ = glue.authorize(&attack, None, &[], true);
        let after_first = glue.services().audit.records().len();
        let _ = glue.authorize(&attack, None, &[], true);
        let after_second = glue.services().audit.records().len();
        // The second identical attack must not be short-circuited into
        // silence: response actions re-fire (membership is already present,
        // but the action still runs and audits).
        assert!(after_first > audit_before);
        assert!(after_second > after_first);
    }

    #[test]
    fn threat_transition_invalidates_cached_grants() {
        let lockdown = "\
neg_access_right apache *
pre_cond system_threat_level local =high
pos_access_right apache *
";
        let glue = glue_with_policy(lockdown).with_decision_cache(DecisionCache::new());
        let req = HttpRequest::get("/index.html").with_client_ip("10.0.0.1");

        assert_eq!(
            glue.authorize(&req, None, &[], false).answer,
            AnswerCode::Ok
        );
        assert_eq!(
            glue.authorize(&req, None, &[], false).answer,
            AnswerCode::Ok
        );
        assert!(glue.decision_cache().unwrap().stats().hits >= 1);

        glue.services().threat.set_level(ThreatLevel::High);
        assert_eq!(
            glue.authorize(&req, None, &[], false).answer,
            AnswerCode::Declined
        );
        glue.services().threat.set_level(ThreatLevel::Low);
        assert_eq!(
            glue.authorize(&req, None, &[], false).answer,
            AnswerCode::Ok
        );
        assert!(glue.decision_cache().unwrap().stats().invalidations >= 2);
    }

    #[test]
    fn volatile_support_sets_are_never_cached() {
        let timed = "\
pos_access_right apache *
pre_cond time_window local 9:00-17:00
";
        let glue = glue_with_policy(timed).with_decision_cache(DecisionCache::new());
        let req = HttpRequest::get("/index.html").with_client_ip("10.0.0.1");
        let _ = glue.authorize(&req, None, &[], false);
        let _ = glue.authorize(&req, None, &[], false);
        let stats = glue.decision_cache().unwrap().stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.insertions, 0);
        assert!(stats.uncacheable >= 1);
    }

    /// A deployment where the (apache, *) cells genuinely slice: the
    /// departmental entry is for another authority, so every apache cell
    /// drops it.
    const DEPARTMENTAL: &str = "\
pos_access_right svc-ledger *
pre_cond accessid GROUP accounting
neg_access_right apache *
pre_cond accessid GROUP BadGuys
neg_access_right apache *
pre_cond regex gnu *phf*
rr_cond update_log local on:failure/BadGuys/info:ip
pos_access_right apache *
";

    #[test]
    fn sliced_and_full_paths_agree() {
        // The slicing tier must be invisible: same answers, same §7.2
        // blacklisting side effects, for anonymous and authenticated
        // requests, before and after the group mutation.
        let requests = [
            (
                HttpRequest::get("/index.html").with_client_ip("10.0.0.1"),
                None,
            ),
            (
                HttpRequest::get("/index.html").with_client_ip("10.0.0.2"),
                Some("alice"),
            ),
            (
                HttpRequest::get("/cgi-bin/phf?Qalias=x").with_client_ip("203.0.113.9"),
                None,
            ),
            // After the attack: the same IP is now in BadGuys.
            (
                HttpRequest::get("/index.html").with_client_ip("203.0.113.9"),
                None,
            ),
        ];
        let mut answers: Vec<Vec<String>> = Vec::new();
        for slicing in [true, false] {
            let glue = if slicing {
                glue_with_policy(DEPARTMENTAL).with_policy_slicing(64)
            } else {
                glue_with_policy(DEPARTMENTAL)
            };
            answers.push(
                requests
                    .iter()
                    .map(|(req, user)| {
                        let is_cgi = req.path.starts_with("/cgi-bin");
                        format!("{:?}", glue.authorize(req, *user, &[], is_cgi).answer)
                    })
                    .collect(),
            );
            if slicing {
                let stats = glue.slice_stats().unwrap();
                assert!(stats.hits >= 1, "slices must actually serve: {stats:?}");
                assert_eq!(stats.guard_fallbacks, 0);
            }
        }
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[0][2], "Declined", "attack denied through slice");
        assert_eq!(answers[0][3], "Declined", "blacklist grew through slice");
    }

    #[test]
    fn slice_guard_falls_back_on_unexpected_maybe() {
        // An authenticated request whose USER evaluator faults into
        // Unevaluated contradicts the {Met, NotMet} mask the slice was
        // proven under — the glue must discard the sliced result and
        // re-evaluate the full composition.
        let build = || {
            let services = StandardServices::new(
                Arc::new(VirtualClock::new()),
                Arc::new(CollectingNotifier::new()),
            );
            let mut store = MemoryPolicyStore::new();
            store.set_local(
                "/index.html",
                vec![parse_eacl(
                    "pos_access_right svc-ledger *\n\
                     pre_cond accessid GROUP accounting\n\
                     pos_access_right apache *\n\
                     pre_cond accessid USER *\n",
                )
                .unwrap()],
            );
            let api = register_standard(
                GaaApiBuilder::new(Arc::new(store)).with_clock(services.clock.clone()),
                &services,
            )
            // Overrides the standard USER evaluator with a faulted one.
            .register("accessid", "USER", |_, _| {
                gaa_core::EvalDecision::Unevaluated
            })
            .build();
            GaaGlue::new(api, services)
        };
        let sliced = build().with_policy_slicing(64);
        let full = build();
        let req = HttpRequest::get("/index.html").with_client_ip("10.0.0.1");
        let a = sliced.authorize(&req, Some("alice"), &[], false);
        let b = full.authorize(&req, Some("alice"), &[], false);
        assert_eq!(format!("{:?}", a.answer), format!("{:?}", b.answer));
        let stats = sliced.slice_stats().unwrap();
        assert_eq!(stats.guard_fallbacks, 1, "{stats:?}");
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn unknown_object_gets_default_deny() {
        // No local policy for /other.html, no system policy: default deny.
        let glue = glue_with_policy("pos_access_right apache *\n");
        let req = HttpRequest::get("/other.html");
        let decision = glue.authorize(&req, None, &[], false);
        assert_eq!(decision.answer, AnswerCode::Declined);
    }
}
