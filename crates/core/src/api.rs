//! The GAA-API entry points and the EACL evaluation semantics.
//!
//! ## Evaluation rules (§2, §6)
//!
//! Within one EACL, entries are consulted **first to last**; the first entry
//! whose right pattern matches the requested right *and* whose
//! pre-conditions do not evaluate to `NO` is the **applied entry** and
//! decides that EACL's contribution ("the entries which already have been
//! examined take precedence over new entries"). An entry whose
//! pre-condition guard fails simply does not apply and evaluation falls
//! through to the next entry (§7.2: "If no match is found, the GAA-API
//! proceeds to the next EACL entry that grants the request").
//!
//! * applied **positive** entry: contributes its pre-status (`YES` grant,
//!   `MAYBE` uncertain);
//! * applied **negative** entry: contributes `NO` on a met guard, `MAYBE`
//!   on an uncertain guard;
//! * no entry applies: the EACL abstains.
//!
//! Several EACLs in the same layer (system or local) combine by
//! **conjunction** over the non-abstaining ones (§2.1: "To evaluate several
//! separately specified local (or system-wide) policies, we take a
//! conjunction of the policies"). The two layers then combine according to
//! the system policy's composition mode (expand / narrow / stop). If every
//! EACL abstains the configurable default applies — `NO` (closed world)
//! unless built with [`GaaApiBuilder::default_grant`].
//!
//! Request-result conditions of every applied entry are evaluated once the
//! composed decision is known, with `request_outcome` set to that final
//! decision (`YES` → success, otherwise failure) — so `on:failure` notify
//! actions reflect what the requester actually experienced. Their
//! conjunction folds into the final authorization status exactly as §6 2c
//! prescribes.

use crate::context::{ExecutionMetrics, Outcome, SecurityContext};
use crate::policy_store::{PolicyError, PolicyStore};
use crate::registry::{ConditionEvaluator, ConditionRegistry, EvalDecision, EvalEnv};
use crate::status::GaaStatus;
use gaa_audit::log::{AuditLog, AuditRecord, AuditSeverity};
use gaa_audit::time::{Clock, SystemClock, Timestamp};
use gaa_eacl::{
    ComposedPolicy, CompositionMode, CondPhase, Condition, Eacl, EaclEntry, Polarity, PolicyLayer,
    RightPattern,
};
use gaa_faults::FaultInjector;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Builder for [`GaaApi`] — the `gaa_initialize` phase: registering
/// condition-evaluation routines and wiring services.
pub struct GaaApiBuilder {
    store: Arc<dyn PolicyStore>,
    registry: ConditionRegistry,
    clock: Arc<dyn Clock>,
    audit: Option<AuditLog>,
    default_status: GaaStatus,
    phase_deadline: Option<Duration>,
}

impl GaaApiBuilder {
    /// Starts a builder over a policy store, with a system clock and
    /// default-deny.
    pub fn new(store: Arc<dyn PolicyStore>) -> Self {
        GaaApiBuilder {
            store,
            registry: ConditionRegistry::new(),
            clock: Arc::new(SystemClock::new()),
            audit: None,
            default_status: GaaStatus::No,
            phase_deadline: None,
        }
    }

    /// Uses `clock` instead of the wall clock (tests, simulations).
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Routes every evaluator invocation through `injector`
    /// ([`gaa_faults::FaultSite::Evaluator`]), so chaos tests can make
    /// registered routines panic, fail or hang on a seeded schedule.
    #[must_use]
    pub fn with_fault_injector(mut self, injector: Arc<dyn FaultInjector>) -> Self {
        self.registry.set_injector(injector);
        self
    }

    /// Bounds the evaluator time spent per condition block. When the stall
    /// reported by a hung evaluator pushes a block past this budget, the
    /// block stops, its remaining conditions count as unevaluated (`MAYBE`),
    /// and a `gaa.phase_deadline` audit record is written — the request
    /// degrades to uncertainty instead of stalling indefinitely.
    #[must_use]
    pub fn with_phase_deadline(mut self, deadline: Duration) -> Self {
        self.phase_deadline = Some(deadline);
        self
    }

    /// Writes evaluator faults and decisions of interest to `audit`.
    #[must_use]
    pub fn with_audit(mut self, audit: AuditLog) -> Self {
        self.audit = Some(audit);
        self
    }

    /// When no EACL entry applies at all, grant instead of deny. The paper's
    /// deployments are default-deny; this exists for measurement baselines.
    #[must_use]
    pub fn default_grant(mut self) -> Self {
        self.default_status = GaaStatus::Yes;
        self
    }

    /// Registers a closure as the evaluation routine for
    /// `(cond_type, authority)` conditions.
    #[must_use]
    pub fn register<F>(
        mut self,
        cond_type: impl Into<String>,
        authority: impl Into<String>,
        f: F,
    ) -> Self
    where
        F: Fn(&str, &EvalEnv<'_>) -> EvalDecision + Send + Sync + 'static,
    {
        self.registry.register(cond_type, authority, Arc::new(f));
        self
    }

    /// Registers a boxed evaluator (for stateful routines).
    #[must_use]
    pub fn register_evaluator(
        mut self,
        cond_type: impl Into<String>,
        authority: impl Into<String>,
        evaluator: Arc<dyn ConditionEvaluator>,
    ) -> Self {
        self.registry.register(cond_type, authority, evaluator);
        self
    }

    /// Finishes initialization.
    pub fn build(self) -> GaaApi {
        GaaApi {
            store: self.store,
            registry: self.registry,
            clock: self.clock,
            audit: self.audit,
            default_status: self.default_status,
            phase_deadline: self.phase_deadline,
        }
    }
}

/// An entry that applied during authorization, with its contribution.
///
/// The entry is addressed by its position in the composed policy the
/// [`AuthorizationResult`] holds; [`entry`](Self::entry) borrows it from
/// there, so recording an applied entry copies nothing out of the policy.
#[derive(Debug, Clone)]
pub struct AppliedEntry {
    /// Which layer the entry's EACL came from.
    pub layer: PolicyLayer,
    /// Index of the EACL within its layer.
    pub eacl_index: usize,
    /// Index of the entry within its EACL.
    pub entry_index: usize,
    /// Status of the entry's pre-condition block.
    pub pre_status: GaaStatus,
    /// The entry's contribution to its EACL's decision.
    pub decision: GaaStatus,
    /// Positions, within the entry's pre-condition block, of the conditions
    /// left unevaluated (drives `MAYBE` translation).
    unevaluated: Vec<usize>,
}

impl AppliedEntry {
    /// The entry itself, borrowed from `policy` — the composition the
    /// result was evaluated against ([`AuthorizationResult::policy`]).
    ///
    /// # Panics
    ///
    /// When `policy` has no entry at this position, i.e. it is not the
    /// composition this entry was recorded against.
    pub fn entry<'p>(&self, policy: &'p ComposedPolicy) -> &'p EaclEntry {
        let eacls = match self.layer {
            PolicyLayer::System => policy.system(),
            PolicyLayer::Local => policy.local(),
        };
        &eacls[self.eacl_index].entries[self.entry_index]
    }
}

/// Status of the execution-control or post-execution phase.
#[derive(Debug, Clone)]
pub struct PhaseStatus {
    /// Combined status of the phase's conditions.
    pub status: GaaStatus,
    /// Conditions that failed.
    pub failed: Vec<Condition>,
    /// Conditions left unevaluated.
    pub unevaluated: Vec<Condition>,
}

impl PhaseStatus {
    fn empty() -> Self {
        PhaseStatus {
            status: GaaStatus::Yes,
            failed: Vec::new(),
            unevaluated: Vec::new(),
        }
    }
}

/// The result of `gaa_check_authorization`: the three §6 status values plus
/// everything later phases need.
///
/// The result holds the [`ComposedPolicy`] it was evaluated against (two
/// reference-count bumps) and records applied entries by position in it, so
/// the mid and post phases enforce the entries that applied even after the
/// store has been reloaded.
#[derive(Debug, Clone)]
pub struct AuthorizationResult {
    right: RightPattern,
    policy: ComposedPolicy,
    authorization: GaaStatus,
    rr_status: GaaStatus,
    status: GaaStatus,
    applied: Vec<AppliedEntry>,
}

impl AuthorizationResult {
    /// Rehydrates a result from a cached `Yes`/`No` decision.
    ///
    /// Only decisions that a [`DecisionCache`](crate::DecisionCache) may
    /// legally store can be rebuilt this way: fully evaluated (nothing
    /// unevaluated, so `Yes` answers `Ok` and `No` answers `Declined`, never
    /// `Redirect`/`AuthRequired`) and free of request-result, mid- and
    /// post-condition obligations (`applied` empty, so later phases are
    /// no-ops — exactly as they were on the miss that populated the entry).
    pub fn from_cached(right: RightPattern, status: GaaStatus) -> Self {
        AuthorizationResult {
            right,
            policy: ComposedPolicy::local_only(Arc::<[Eacl]>::default()),
            authorization: status,
            rr_status: GaaStatus::Yes,
            status,
            applied: Vec::new(),
        }
    }

    /// The final authorization status (pre-conditions composed across
    /// layers, conjoined with the request-result condition status — §6 2c).
    pub fn status(&self) -> GaaStatus {
        self.status
    }

    /// The composed pre-condition decision before request-result conditions
    /// folded in.
    pub fn authorization_status(&self) -> GaaStatus {
        self.authorization
    }

    /// Combined status of the request-result conditions.
    pub fn request_result_status(&self) -> GaaStatus {
        self.rr_status
    }

    /// The requested right this result answers.
    pub fn right(&self) -> &RightPattern {
        &self.right
    }

    /// The composition this result was evaluated against (empty for a
    /// result rebuilt from the decision cache).
    pub fn policy(&self) -> &ComposedPolicy {
        &self.policy
    }

    /// Every entry that applied, in evaluation order (system layer first).
    pub fn applied(&self) -> &[AppliedEntry] {
        &self.applied
    }

    /// The applied entries themselves, in evaluation order, borrowed from
    /// [`policy`](Self::policy).
    pub fn applied_entries(&self) -> impl Iterator<Item = &EaclEntry> {
        self.applied.iter().map(|a| a.entry(&self.policy))
    }

    /// Pre-conditions left unevaluated by entries that contributed `MAYBE`,
    /// borrowed from [`policy`](Self::policy).
    pub fn unevaluated(&self) -> impl Iterator<Item = &Condition> {
        self.applied
            .iter()
            .filter(|a| a.pre_status.is_maybe())
            .flat_map(|a| {
                let pre = &a.entry(&self.policy).pre;
                a.unevaluated.iter().map(move |&i| &pre[i])
            })
    }

    /// Mid-conditions collected from every applied entry, in order —
    /// enforced by [`GaaApi::execution_control`].
    pub fn mid_conditions(&self) -> impl Iterator<Item = &Condition> {
        self.applied_entries().flat_map(|e| e.mid.iter())
    }

    /// Post-conditions collected from every applied entry, in order —
    /// enforced by [`GaaApi::post_execution_actions`].
    pub fn post_conditions(&self) -> impl Iterator<Item = &Condition> {
        self.applied_entries().flat_map(|e| e.post.iter())
    }

    /// The request outcome as seen by response actions.
    pub fn outcome(&self) -> Outcome {
        if self.status.is_yes() {
            Outcome::Success
        } else {
            Outcome::Failure
        }
    }
}

impl fmt::Display for AuthorizationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "right={} status={} (pre={}, rr={}, {} applied entries)",
            self.right,
            self.status,
            self.authorization,
            self.rr_status,
            self.applied.len()
        )
    }
}

/// The Generic Authorization and Access-control API.
///
/// Thread-safe; one instance serves the whole application (the paper
/// initializes it once when the Apache daemon starts).
pub struct GaaApi {
    store: Arc<dyn PolicyStore>,
    registry: ConditionRegistry,
    clock: Arc<dyn Clock>,
    audit: Option<AuditLog>,
    default_status: GaaStatus,
    phase_deadline: Option<Duration>,
}

impl fmt::Debug for GaaApi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GaaApi")
            .field("registry", &self.registry)
            .field("default_status", &self.default_status)
            .finish()
    }
}

impl GaaApi {
    /// `gaa_get_object_policy_info`: retrieves the system-wide policies,
    /// places them first, appends the object's local policies and records
    /// the composition mode (§6 step 2a, §2.1).
    ///
    /// The store is consulted on every call; the composition shares the
    /// lists it hands out, so over a store that holds its lists this costs
    /// two reference-count bumps, not a copy of the policy.
    ///
    /// # Errors
    ///
    /// Propagates [`PolicyError`] from the store. Callers must fail closed:
    /// a request whose policy cannot be retrieved is denied, never waved
    /// through.
    pub fn get_object_policy_info(&self, object: &str) -> Result<ComposedPolicy, PolicyError> {
        let system = self.store.system_policies()?;
        let local = self.store.local_policies(object)?;
        Ok(ComposedPolicy::compose(system, local))
    }

    /// `gaa_check_authorization` for a single requested right (§6 step 2c).
    pub fn check_authorization(
        &self,
        policy: &ComposedPolicy,
        right: &RightPattern,
        ctx: &SecurityContext,
    ) -> AuthorizationResult {
        let now = ctx.time().unwrap_or_else(|| self.clock.now());

        // Phases 1 and 2: find each EACL's applied entry (first-match) and
        // fold the contributions of each layer by conjunction (abstentions
        // drop out; a layer where every EACL abstains is `None`).
        let mut applied: Vec<AppliedEntry> = Vec::new();
        let mut layer_decision = |layer: PolicyLayer, eacls: &[Eacl]| {
            let mut decision: Option<GaaStatus> = None;
            for (eacl_index, eacl) in eacls.iter().enumerate() {
                if let Some(entry_applied) =
                    self.evaluate_eacl(eacl, layer, eacl_index, right, ctx, now)
                {
                    decision = Some(
                        decision.map_or(entry_applied.decision, |d| d.and(entry_applied.decision)),
                    );
                    applied.push(entry_applied);
                }
            }
            decision
        };
        let sys = layer_decision(PolicyLayer::System, policy.system());
        let loc = layer_decision(PolicyLayer::Local, policy.local());

        // Phase 3: compose the layers under the declared mode.
        let authorization = self.combine_layers(policy.mode(), sys, loc);

        // Phase 4: request-result conditions of every applied entry, fed the
        // final outcome.
        let outcome = if authorization.is_yes() {
            Outcome::Success
        } else {
            Outcome::Failure
        };
        let mut rr_status = GaaStatus::Yes;
        for entry_applied in &applied {
            let rr = &entry_applied.entry(policy).rr;
            if rr.is_empty() {
                continue;
            }
            let env = EvalEnv {
                context: ctx,
                phase: CondPhase::RequestResult,
                now,
                request_outcome: Some(outcome),
                operation_outcome: None,
                execution: None,
            };
            let block = self.evaluate_block(rr, &env, /*stop_on_no=*/ false, |_, _, _| {});
            rr_status = rr_status.and(block);
        }

        let status = authorization.and(rr_status);

        if let Some(audit) = &self.audit {
            if status.is_no() {
                audit.record(
                    AuditRecord::new(
                        now,
                        AuditSeverity::Notice,
                        "gaa.denied",
                        ctx.subject(),
                        format!("right {right} denied"),
                    )
                    .with_attr("object", ctx.object().unwrap_or("-")),
                );
            }
        }

        AuthorizationResult {
            right: right.clone(),
            policy: policy.clone(),
            authorization,
            rr_status,
            status,
            applied,
        }
    }

    /// Checks a list of requested rights (§6 step 2b builds "a list of
    /// requested rights"); the request is authorized only if **every** right
    /// is (conjunction).
    pub fn check_all(
        &self,
        policy: &ComposedPolicy,
        rights: &[RightPattern],
        ctx: &SecurityContext,
    ) -> Vec<AuthorizationResult> {
        rights
            .iter()
            .map(|r| self.check_authorization(policy, r, ctx))
            .collect()
    }

    /// `gaa_execution_control` (§6 step 3 — unimplemented in the paper,
    /// implemented here): checks the mid-conditions of the applied entries
    /// against the operation's current resource consumption. Call repeatedly
    /// while the operation runs; a `NO` means the operation must be aborted.
    pub fn execution_control(
        &self,
        result: &AuthorizationResult,
        ctx: &SecurityContext,
        metrics: &ExecutionMetrics,
    ) -> PhaseStatus {
        let mut conditions = result.mid_conditions().peekable();
        if conditions.peek().is_none() {
            return PhaseStatus::empty();
        }
        let now = ctx.time().unwrap_or_else(|| self.clock.now());
        let env = EvalEnv {
            context: ctx,
            phase: CondPhase::Mid,
            now,
            request_outcome: Some(result.outcome()),
            operation_outcome: None,
            execution: Some(metrics),
        };
        let phase = self.evaluate_phase(conditions, &env);
        if phase.status.is_no() {
            if let Some(audit) = &self.audit {
                audit.record(AuditRecord::new(
                    now,
                    AuditSeverity::Warning,
                    "gaa.mid_violation",
                    ctx.subject(),
                    format!(
                        "mid-condition violated during {} (cpu={} mem={} wall={}ms)",
                        result.right(),
                        metrics.cpu_ticks,
                        metrics.memory_bytes,
                        metrics.wall_millis
                    ),
                ));
            }
        }
        phase
    }

    /// `gaa_post_execution_actions` (§6 step 4): fires the post-conditions
    /// of the applied entries with the operation's success/failure outcome.
    /// Returns `YES` when there are no post-conditions, per the paper.
    pub fn post_execution_actions(
        &self,
        result: &AuthorizationResult,
        ctx: &SecurityContext,
        operation_outcome: Outcome,
    ) -> PhaseStatus {
        let mut conditions = result.post_conditions().peekable();
        if conditions.peek().is_none() {
            return PhaseStatus::empty();
        }
        let now = ctx.time().unwrap_or_else(|| self.clock.now());
        let env = EvalEnv {
            context: ctx,
            phase: CondPhase::Post,
            now,
            request_outcome: Some(result.outcome()),
            operation_outcome: Some(operation_outcome),
            execution: None,
        };
        self.evaluate_phase(conditions, &env)
    }

    /// The registry (for diagnostics).
    pub fn registry(&self) -> &ConditionRegistry {
        &self.registry
    }

    /// The §5.1 nothing-applies default this API was built with. Slicing
    /// needs it: a slice is only equivalent relative to the same default.
    pub fn default_status(&self) -> GaaStatus {
        self.default_status
    }

    /// Coverage check: every condition in `policy` whose `(type, authority)`
    /// has **no registered evaluator**, with its location.
    ///
    /// Such conditions are left unevaluated at request time and surface as
    /// `MAYBE` (§6) — correct but usually not what the policy officer
    /// intended (the deliberate exception being `redirect`, §6 2d). Run
    /// this at deployment time alongside
    /// [`gaa_eacl::validate::validate`]; it is the dynamic half of the §2
    /// "automated tool to ensure policy correctness".
    ///
    /// Returns `(layer, eacl_index, entry_index, phase, condition)` tuples,
    /// in evaluation order, with duplicates preserved (each occurrence is a
    /// separate policy line to fix).
    pub fn check_coverage(
        &self,
        policy: &ComposedPolicy,
    ) -> Vec<(PolicyLayer, usize, usize, CondPhase, Condition)> {
        let mut missing = Vec::new();
        let mut sys_index = 0usize;
        let mut loc_index = 0usize;
        for (layer, eacl) in policy.layers() {
            let eacl_index = match layer {
                PolicyLayer::System => {
                    sys_index += 1;
                    sys_index - 1
                }
                PolicyLayer::Local => {
                    loc_index += 1;
                    loc_index - 1
                }
            };
            for (entry_index, entry) in eacl.entries.iter().enumerate() {
                for phase in CondPhase::all() {
                    for cond in entry.block(phase) {
                        if !self
                            .registry
                            .is_registered(&cond.cond_type, &cond.authority)
                        {
                            missing.push((layer, eacl_index, entry_index, phase, cond.clone()));
                        }
                    }
                }
            }
        }
        missing
    }

    /// The clock the API evaluates against.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The policy store's current generation — the policy component of a
    /// [`DecisionCache`](crate::DecisionCache) invalidation stamp.
    pub fn policy_generation(&self) -> u64 {
        self.store.generation()
    }

    /// Crate-internal access to the layer-combination rules (used by the
    /// decision tracer so its result matches real evaluation exactly).
    pub(crate) fn combine_layers_public(
        &self,
        mode: CompositionMode,
        sys: Option<GaaStatus>,
        loc: Option<GaaStatus>,
    ) -> GaaStatus {
        self.combine_layers(mode, sys, loc)
    }

    // ---- internals ----

    /// First-match evaluation of one EACL; `None` when the EACL abstains.
    fn evaluate_eacl(
        &self,
        eacl: &Eacl,
        layer: PolicyLayer,
        eacl_index: usize,
        right: &RightPattern,
        ctx: &SecurityContext,
        now: Timestamp,
    ) -> Option<AppliedEntry> {
        let env = EvalEnv {
            context: ctx,
            phase: CondPhase::Pre,
            now,
            request_outcome: None,
            operation_outcome: None,
            execution: None,
        };
        for (entry_index, entry) in eacl.matching_entries(&right.authority, &right.value) {
            // A failed guard only makes the entry fall through, so nothing
            // about its failure is recorded; unevaluated conditions are kept
            // by position for the `MAYBE` translation.
            let mut unevaluated = Vec::new();
            let pre_status = self.evaluate_block(
                &entry.pre,
                &env,
                /*stop_on_no=*/ true,
                |position, _, status| {
                    if status.is_maybe() {
                        unevaluated.push(position);
                    }
                },
            );
            if pre_status.is_no() {
                continue; // guard failed: fall through
            }
            let decision = match (entry.right.polarity, pre_status) {
                (Polarity::Positive, s) => s,
                (Polarity::Negative, GaaStatus::Yes) => GaaStatus::No,
                (Polarity::Negative, _) => GaaStatus::Maybe,
            };
            return Some(AppliedEntry {
                layer,
                eacl_index,
                entry_index,
                pre_status,
                decision,
                unevaluated,
            });
        }
        None
    }

    /// A mid- or post-condition phase: the block's status plus copies of the
    /// conditions that failed or stayed unevaluated, which
    /// [`PhaseStatus`] hands to the caller.
    fn evaluate_phase<'c>(
        &self,
        conditions: impl IntoIterator<Item = &'c Condition>,
        env: &EvalEnv<'_>,
    ) -> PhaseStatus {
        let mut failed = Vec::new();
        let mut unevaluated = Vec::new();
        let status = self.evaluate_block(
            conditions,
            env,
            /*stop_on_no=*/ false,
            |_, cond, status| {
                if status.is_no() {
                    failed.push(cond.clone());
                } else {
                    unevaluated.push(cond.clone());
                }
            },
        );
        PhaseStatus {
            status,
            failed,
            unevaluated,
        }
    }

    /// Ordered conjunction of a condition block (§2: "conditions are
    /// evaluated in the order they appear within a condition block").
    ///
    /// With `stop_on_no` (pre-conditions) evaluation short-circuits at the
    /// first failure — later conditions in a failed guard must not run their
    /// side effects. Response-action blocks (rr/mid/post) always evaluate
    /// every condition.
    ///
    /// Every condition that does not come out met is passed to `record`
    /// with its position in the block and its status (`No` when it failed,
    /// `Maybe` when it stayed unevaluated); the caller keeps only what it
    /// reads, so a block copies nothing by itself.
    fn evaluate_block<'c>(
        &self,
        conditions: impl IntoIterator<Item = &'c Condition>,
        env: &EvalEnv<'_>,
        stop_on_no: bool,
        mut record: impl FnMut(usize, &'c Condition, GaaStatus),
    ) -> GaaStatus {
        let mut status = GaaStatus::Yes;
        let mut spent = Duration::ZERO;
        for (position, cond) in conditions.into_iter().enumerate() {
            let eval = self.registry.evaluate(cond, env);
            if let Some(stall) = eval.elapsed {
                // A hung evaluator consumed real (clock-timeline) time.
                self.clock.sleep(stall);
                spent += stall;
            }
            if let Some(deadline) = self.phase_deadline {
                if spent > deadline {
                    // The answer arrived after the block's time budget: the
                    // request must not stall, so the late answer is
                    // discarded, the rest of the block is skipped, and the
                    // block degrades to uncertainty (MAYBE) — which the
                    // enforcement layer handles fail-closed.
                    if let Some(audit) = &self.audit {
                        audit.record(
                            AuditRecord::new(
                                env.now,
                                AuditSeverity::Warning,
                                "gaa.phase_deadline",
                                env.context.subject(),
                                format!(
                                    "evaluator for `{} {}` exceeded the {:?} phase deadline \
                                     ({:?} spent); treating block as unevaluated",
                                    cond.cond_type, cond.authority, deadline, spent
                                ),
                            )
                            .with_attr("value", cond.value.clone()),
                        );
                    }
                    record(position, cond, GaaStatus::Maybe);
                    status = status.and(GaaStatus::Maybe);
                    break;
                }
            }
            if eval.faulted {
                if let Some(audit) = &self.audit {
                    audit.record(
                        AuditRecord::new(
                            env.now,
                            AuditSeverity::Warning,
                            "gaa.evaluator_fault",
                            env.context.subject(),
                            format!(
                                "evaluator for `{} {}` panicked; condition left unevaluated",
                                cond.cond_type, cond.authority
                            ),
                        )
                        .with_attr("value", cond.value.clone()),
                    );
                }
            }
            match eval.decision {
                EvalDecision::Met => {}
                EvalDecision::NotMet => {
                    record(position, cond, GaaStatus::No);
                    status = status.and(GaaStatus::No);
                    if stop_on_no {
                        break;
                    }
                }
                EvalDecision::Unevaluated => {
                    record(position, cond, GaaStatus::Maybe);
                    status = status.and(GaaStatus::Maybe);
                }
            }
        }
        status
    }

    /// Composition-mode combination of the two layers' decisions (§2.1).
    fn combine_layers(
        &self,
        mode: CompositionMode,
        sys: Option<GaaStatus>,
        loc: Option<GaaStatus>,
    ) -> GaaStatus {
        use GaaStatus::*;
        match mode {
            // Local policies were already discarded at composition time, but
            // guard here as well for defence in depth.
            CompositionMode::Stop => sys.unwrap_or(self.default_status),
            CompositionMode::Narrow => match (sys, loc) {
                (Some(No), _) => No,
                (Some(Maybe), Some(No)) | (_, Some(No)) => No,
                (Some(Maybe), _) => Maybe,
                (Some(Yes), Some(l)) => l,
                (Some(Yes), None) => Yes,
                (None, Some(l)) => l,
                (None, None) => self.default_status,
            },
            CompositionMode::Expand => match (sys, loc) {
                (Some(Yes), _) | (_, Some(Yes)) => Yes,
                (Some(Maybe), _) | (_, Some(Maybe)) => Maybe,
                (Some(No), _) | (_, Some(No)) => No,
                (None, None) => self.default_status,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy_store::MemoryPolicyStore;
    use gaa_audit::VirtualClock;
    use gaa_eacl::parse_eacl;

    /// Builds an API over the given system/local policy texts with the
    /// standard test evaluators registered:
    /// * `flag local <name>` — met iff a context param `flag` equals name;
    /// * `user USER <name>` — met iff ctx user == name, unevaluated if anon;
    /// * `never local *` — always fails;
    /// * `unknown …` — deliberately not registered.
    fn api_with(system: &str, local: &str) -> (GaaApi, ComposedPolicy) {
        let mut store = MemoryPolicyStore::new();
        if !system.is_empty() {
            store.set_system(vec![parse_eacl(system).unwrap()]);
        }
        if !local.is_empty() {
            store.set_local("/obj", vec![parse_eacl(local).unwrap()]);
        }
        let api = GaaApiBuilder::new(Arc::new(store))
            .with_clock(Arc::new(VirtualClock::new()))
            .register("flag", "local", |value: &str, env: &EvalEnv<'_>| match env
                .context
                .param("flag")
            {
                Some(v) if v == value => EvalDecision::Met,
                _ => EvalDecision::NotMet,
            })
            .register("user", "USER", |value: &str, env: &EvalEnv<'_>| {
                match env.context.user() {
                    Some(u) if u == value || value == "*" => EvalDecision::Met,
                    Some(_) => EvalDecision::NotMet,
                    None => EvalDecision::Unevaluated,
                }
            })
            .register("never", "local", |_: &str, _: &EvalEnv<'_>| {
                EvalDecision::NotMet
            })
            .build();
        let policy = api.get_object_policy_info("/obj").unwrap();
        (api, policy)
    }

    fn right() -> RightPattern {
        RightPattern::new("apache", "GET")
    }

    fn ctx_flag(value: &str) -> SecurityContext {
        SecurityContext::new().with_param(crate::context::Param::new("flag", "test", value))
    }

    #[test]
    fn unconditional_grant() {
        let (api, policy) = api_with("", "pos_access_right apache *\n");
        let result = api.check_authorization(&policy, &right(), &SecurityContext::new());
        assert!(result.status().is_yes());
        assert_eq!(result.applied().len(), 1);
    }

    #[test]
    fn empty_policy_defaults_to_deny() {
        let (api, policy) = api_with("", "");
        let result = api.check_authorization(&policy, &right(), &SecurityContext::new());
        assert!(result.status().is_no());
        assert!(result.applied().is_empty());
    }

    #[test]
    fn default_grant_builder_flag() {
        let api = GaaApiBuilder::new(Arc::new(MemoryPolicyStore::new()))
            .default_grant()
            .build();
        let policy = api.get_object_policy_info("/x").unwrap();
        let result = api.check_authorization(&policy, &right(), &SecurityContext::new());
        assert!(result.status().is_yes());
    }

    #[test]
    fn failed_guard_falls_through_to_next_entry() {
        let local = "\
neg_access_right apache *
pre_cond flag local attack
pos_access_right apache *
";
        let (api, policy) = api_with("", local);
        // Guard fails: entry 1 does not apply, entry 2 grants.
        let result = api.check_authorization(&policy, &right(), &ctx_flag("normal"));
        assert!(result.status().is_yes());
        assert_eq!(result.applied()[0].entry_index, 1);
        // Guard met: entry 1 denies.
        let result = api.check_authorization(&policy, &right(), &ctx_flag("attack"));
        assert!(result.status().is_no());
        assert_eq!(result.applied()[0].entry_index, 0);
    }

    #[test]
    fn negative_entry_with_met_guard_denies() {
        let (api, policy) = api_with("", "neg_access_right apache *\npre_cond flag local evil\n");
        let result = api.check_authorization(&policy, &right(), &ctx_flag("evil"));
        assert!(result.status().is_no());
    }

    #[test]
    fn unregistered_condition_yields_maybe() {
        let (api, policy) = api_with(
            "",
            "pos_access_right apache *\npre_cond unknown local whatever\n",
        );
        let result = api.check_authorization(&policy, &right(), &SecurityContext::new());
        assert!(result.status().is_maybe());
        let unevaluated: Vec<&Condition> = result.unevaluated().collect();
        assert_eq!(unevaluated.len(), 1);
        assert_eq!(unevaluated[0].cond_type, "unknown");
    }

    #[test]
    fn anonymous_user_condition_yields_maybe_for_auth_retry() {
        let (api, policy) = api_with("", "pos_access_right apache *\npre_cond user USER *\n");
        let anon = api.check_authorization(&policy, &right(), &SecurityContext::new());
        assert!(anon.status().is_maybe());
        let alice = api.check_authorization(
            &policy,
            &right(),
            &SecurityContext::new().with_user("alice"),
        );
        assert!(alice.status().is_yes());
    }

    #[test]
    fn entry_precedence_earlier_wins() {
        let local = "\
pos_access_right apache *
neg_access_right apache *
";
        let (api, policy) = api_with("", local);
        let result = api.check_authorization(&policy, &right(), &SecurityContext::new());
        assert!(result.status().is_yes());
    }

    #[test]
    fn narrow_mode_system_deny_is_mandatory() {
        let system = "\
eacl_mode 1
neg_access_right * *
pre_cond flag local lockdown
";
        let local = "pos_access_right apache *\n";
        let (api, policy) = api_with(system, local);
        // Lockdown flag set: system denies regardless of the local grant.
        let result = api.check_authorization(&policy, &right(), &ctx_flag("lockdown"));
        assert!(result.status().is_no());
        // Flag clear: system abstains, local grants.
        let result = api.check_authorization(&policy, &right(), &ctx_flag("calm"));
        assert!(result.status().is_yes());
    }

    #[test]
    fn narrow_mode_system_grant_still_needs_local() {
        let system = "eacl_mode 1\npos_access_right apache *\n";
        let local = "neg_access_right apache *\n";
        let (api, policy) = api_with(system, local);
        let result = api.check_authorization(&policy, &right(), &SecurityContext::new());
        assert!(result.status().is_no());
    }

    #[test]
    fn expand_mode_either_grant_suffices() {
        let system = "eacl_mode 0\npos_access_right apache *\n";
        let local = "neg_access_right apache *\n";
        let (api, policy) = api_with(system, local);
        let result = api.check_authorization(&policy, &right(), &SecurityContext::new());
        assert!(result.status().is_yes());

        let system = "eacl_mode 0\nneg_access_right apache *\n";
        let local = "pos_access_right apache *\n";
        let (api, policy) = api_with(system, local);
        let result = api.check_authorization(&policy, &right(), &SecurityContext::new());
        assert!(result.status().is_yes());
    }

    #[test]
    fn stop_mode_ignores_local_policies() {
        let system = "eacl_mode 2\nneg_access_right * *\n";
        let local = "pos_access_right apache *\n";
        let (api, policy) = api_with(system, local);
        let result = api.check_authorization(&policy, &right(), &SecurityContext::new());
        assert!(result.status().is_no());
        assert_eq!(result.applied().len(), 1); // only the system entry
    }

    #[test]
    fn rr_conditions_fold_into_final_status() {
        let (api, policy) = api_with("", "pos_access_right apache *\nrr_cond never local x\n");
        let result = api.check_authorization(&policy, &right(), &SecurityContext::new());
        assert!(result.authorization_status().is_yes());
        assert!(result.request_result_status().is_no());
        assert!(result.status().is_no());
    }

    #[test]
    fn rr_conditions_receive_final_outcome() {
        use parking_lot::Mutex;
        let observed: Arc<Mutex<Vec<Outcome>>> = Arc::new(Mutex::new(Vec::new()));
        let observed2 = observed.clone();

        let mut store = MemoryPolicyStore::new();
        store.set_local(
            "/obj",
            vec![parse_eacl(
                "neg_access_right apache *\npre_cond flag local evil\nrr_cond observe local x\npos_access_right apache *\n",
            )
            .unwrap()],
        );
        let api = GaaApiBuilder::new(Arc::new(store))
            .register("flag", "local", |value: &str, env: &EvalEnv<'_>| match env
                .context
                .param("flag")
            {
                Some(v) if v == value => EvalDecision::Met,
                _ => EvalDecision::NotMet,
            })
            .register("observe", "local", move |_: &str, env: &EvalEnv<'_>| {
                observed2.lock().push(env.request_outcome.unwrap());
                EvalDecision::Met
            })
            .build();
        let policy = api.get_object_policy_info("/obj").unwrap();
        let result = api.check_authorization(&policy, &right(), &ctx_flag("evil"));
        assert!(result.status().is_no());
        assert_eq!(observed.lock().as_slice(), &[Outcome::Failure]);
    }

    #[test]
    fn pre_block_short_circuits_on_failure() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = Arc::new(AtomicU32::new(0));
        let calls2 = calls.clone();
        let mut store = MemoryPolicyStore::new();
        store.set_local(
            "/obj",
            vec![parse_eacl(
                "pos_access_right apache *\npre_cond never local x\npre_cond count local x\n",
            )
            .unwrap()],
        );
        let api = GaaApiBuilder::new(Arc::new(store))
            .register("never", "local", |_: &str, _: &EvalEnv<'_>| {
                EvalDecision::NotMet
            })
            .register("count", "local", move |_: &str, _: &EvalEnv<'_>| {
                calls2.fetch_add(1, Ordering::SeqCst);
                EvalDecision::Met
            })
            .build();
        let policy = api.get_object_policy_info("/obj").unwrap();
        let _ = api.check_authorization(&policy, &right(), &SecurityContext::new());
        assert_eq!(
            calls.load(Ordering::SeqCst),
            0,
            "later pre-conditions must not run"
        );
    }

    #[test]
    fn mid_conditions_enforced_by_execution_control() {
        let mut store = MemoryPolicyStore::new();
        store.set_local(
            "/obj",
            vec![parse_eacl("pos_access_right apache *\nmid_cond cpu local 250\n").unwrap()],
        );
        let api = GaaApiBuilder::new(Arc::new(store))
            .register("cpu", "local", |value: &str, env: &EvalEnv<'_>| {
                let limit: u64 = value.parse().unwrap();
                match env.execution {
                    Some(m) if m.cpu_ticks <= limit => EvalDecision::Met,
                    Some(_) => EvalDecision::NotMet,
                    None => EvalDecision::Unevaluated,
                }
            })
            .build();
        let policy = api.get_object_policy_info("/obj").unwrap();
        let ctx = SecurityContext::new();
        let result = api.check_authorization(&policy, &right(), &ctx);
        assert!(result.status().is_yes());

        let ok = api.execution_control(
            &result,
            &ctx,
            &ExecutionMetrics {
                cpu_ticks: 100,
                ..ExecutionMetrics::zero()
            },
        );
        assert!(ok.status.is_yes());

        let over = api.execution_control(
            &result,
            &ctx,
            &ExecutionMetrics {
                cpu_ticks: 500,
                ..ExecutionMetrics::zero()
            },
        );
        assert!(over.status.is_no());
        assert_eq!(over.failed.len(), 1);
    }

    #[test]
    fn post_conditions_receive_operation_outcome() {
        use parking_lot::Mutex;
        let seen: Arc<Mutex<Vec<Outcome>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let mut store = MemoryPolicyStore::new();
        store.set_local(
            "/obj",
            vec![parse_eacl("pos_access_right apache *\npost_cond log local x\n").unwrap()],
        );
        let api = GaaApiBuilder::new(Arc::new(store))
            .register("log", "local", move |_: &str, env: &EvalEnv<'_>| {
                seen2.lock().push(env.operation_outcome.unwrap());
                EvalDecision::Met
            })
            .build();
        let policy = api.get_object_policy_info("/obj").unwrap();
        let ctx = SecurityContext::new();
        let result = api.check_authorization(&policy, &right(), &ctx);
        let phase = api.post_execution_actions(&result, &ctx, Outcome::Failure);
        assert!(phase.status.is_yes());
        assert_eq!(seen.lock().as_slice(), &[Outcome::Failure]);
    }

    #[test]
    fn phases_with_no_conditions_return_yes() {
        let (api, policy) = api_with("", "pos_access_right apache *\n");
        let ctx = SecurityContext::new();
        let result = api.check_authorization(&policy, &right(), &ctx);
        assert!(api
            .execution_control(&result, &ctx, &ExecutionMetrics::zero())
            .status
            .is_yes());
        assert!(api
            .post_execution_actions(&result, &ctx, Outcome::Success)
            .status
            .is_yes());
    }

    #[test]
    fn evaluator_panic_degrades_to_maybe_and_audits() {
        let audit = AuditLog::new();
        let mut store = MemoryPolicyStore::new();
        store.set_local(
            "/obj",
            vec![parse_eacl("pos_access_right apache *\npre_cond boom local x\n").unwrap()],
        );
        let api = GaaApiBuilder::new(Arc::new(store))
            .with_audit(audit.clone())
            .register(
                "boom",
                "local",
                |_: &str, _: &EvalEnv<'_>| -> EvalDecision { panic!("bug") },
            )
            .build();
        let policy = api.get_object_policy_info("/obj").unwrap();
        let result = api.check_authorization(&policy, &right(), &SecurityContext::new());
        assert!(result.status().is_maybe());
        assert_eq!(audit.count_category("gaa.evaluator_fault"), 1);
    }

    #[test]
    fn injected_hang_past_deadline_degrades_to_maybe() {
        use gaa_faults::{Fault, FaultPlan, FaultSite};

        let audit = AuditLog::new();
        let clock = Arc::new(VirtualClock::at_millis(0));
        let mut store = MemoryPolicyStore::new();
        store.set_local(
            "/obj",
            vec![parse_eacl("pos_access_right apache *\npre_cond slow local x\n").unwrap()],
        );
        let plan = FaultPlan::builder(21)
            .fail_nth(FaultSite::Evaluator, 0, Fault::Hang(5_000))
            .build();
        let api = GaaApiBuilder::new(Arc::new(store))
            .with_clock(clock.clone())
            .with_audit(audit.clone())
            .with_fault_injector(Arc::new(plan))
            .with_phase_deadline(std::time::Duration::from_millis(500))
            .register("slow", "local", |_: &str, _: &EvalEnv<'_>| {
                EvalDecision::Met
            })
            .build();
        let policy = api.get_object_policy_info("/obj").unwrap();

        // Call 0: the evaluator hangs for 5s (virtual) against a 500ms
        // budget — the request completes as MAYBE instead of granting, with
        // the timeout audited, and virtual time shows the bounded stall.
        let result = api.check_authorization(&policy, &right(), &SecurityContext::new());
        assert!(result.status().is_maybe());
        assert_eq!(audit.count_category("gaa.phase_deadline"), 1);
        assert_eq!(clock.now().as_millis(), 5_000);

        // Call 1: no fault, normal grant.
        let result = api.check_authorization(&policy, &right(), &SecurityContext::new());
        assert!(result.status().is_yes());
    }

    #[test]
    fn injected_hang_within_deadline_is_harmless() {
        use gaa_faults::{Fault, FaultPlan, FaultSite};

        let clock = Arc::new(VirtualClock::at_millis(0));
        let mut store = MemoryPolicyStore::new();
        store.set_local(
            "/obj",
            vec![parse_eacl("pos_access_right apache *\npre_cond slow local x\n").unwrap()],
        );
        let plan = FaultPlan::builder(22)
            .fail_nth(FaultSite::Evaluator, 0, Fault::Hang(100))
            .build();
        let api = GaaApiBuilder::new(Arc::new(store))
            .with_clock(clock)
            .with_fault_injector(Arc::new(plan))
            .with_phase_deadline(std::time::Duration::from_millis(500))
            .register("slow", "local", |_: &str, _: &EvalEnv<'_>| {
                EvalDecision::Met
            })
            .build();
        let policy = api.get_object_policy_info("/obj").unwrap();
        let result = api.check_authorization(&policy, &right(), &SecurityContext::new());
        assert!(result.status().is_yes());
    }

    #[test]
    fn denied_requests_are_audited() {
        let audit = AuditLog::new();
        let mut store = MemoryPolicyStore::new();
        store.set_local(
            "/obj",
            vec![parse_eacl("neg_access_right apache *\n").unwrap()],
        );
        let api = GaaApiBuilder::new(Arc::new(store))
            .with_audit(audit.clone())
            .build();
        let policy = api.get_object_policy_info("/obj").unwrap();
        let ctx = SecurityContext::new()
            .with_user("mallory")
            .with_object("/obj");
        let _ = api.check_authorization(&policy, &right(), &ctx);
        let denials = audit.by_category("gaa.denied");
        assert_eq!(denials.len(), 1);
        assert_eq!(denials[0].subject, "mallory");
    }

    #[test]
    fn check_all_reports_per_right() {
        let local = "\
pos_access_right apache GET
neg_access_right apache EXEC_CGI
";
        let (api, policy) = api_with("", local);
        let rights = vec![
            RightPattern::new("apache", "GET"),
            RightPattern::new("apache", "EXEC_CGI"),
        ];
        let results = api.check_all(&policy, &rights, &SecurityContext::new());
        assert!(results[0].status().is_yes());
        assert!(results[1].status().is_no());
    }

    #[test]
    fn mid_and_post_conditions_collected_from_applied_entries() {
        let local = "\
pos_access_right apache *
mid_cond cpu local 100
mid_cond mem local 200
post_cond log local x
";
        let (api, policy) = api_with("", local);
        let result = api.check_authorization(&policy, &right(), &SecurityContext::new());
        assert_eq!(result.mid_conditions().count(), 2);
        assert_eq!(result.post_conditions().count(), 1);
    }

    #[test]
    fn display_result_mentions_statuses() {
        let (api, policy) = api_with("", "pos_access_right apache *\n");
        let result = api.check_authorization(&policy, &right(), &SecurityContext::new());
        let text = result.to_string();
        assert!(text.contains("YES"));
        assert!(text.contains("apache GET"));
    }

    #[test]
    fn coverage_check_finds_unregistered_conditions() {
        let system = "eacl_mode 1\nneg_access_right * *\npre_cond unknown_guard local x\n";
        let local = "\
pos_access_right apache *
pre_cond flag local v
rr_cond mystery_action local y
mid_cond cpu_quota local 5
";
        let (api, policy) = api_with(system, local);
        let missing = api.check_coverage(&policy);
        let keys: Vec<(PolicyLayer, &str)> = missing
            .iter()
            .map(|(layer, _, _, _, c)| (*layer, c.cond_type.as_str()))
            .collect();
        assert_eq!(
            keys,
            vec![
                (PolicyLayer::System, "unknown_guard"),
                (PolicyLayer::Local, "mystery_action"),
                (PolicyLayer::Local, "cpu_quota"),
            ]
        );
        // Phases are reported correctly.
        assert_eq!(missing[1].3, CondPhase::RequestResult);
        assert_eq!(missing[2].3, CondPhase::Mid);
    }

    #[test]
    fn coverage_check_clean_policy_is_empty() {
        let (api, policy) = api_with("", "pos_access_right apache *\npre_cond flag local v\n");
        assert!(api.check_coverage(&policy).is_empty());
    }
}
