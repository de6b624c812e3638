//! The condition-evaluator registry.
//!
//! §5: "The GAA-API is structured to support the addition of modules for
//! evaluation of new conditions. Web masters can write their own routines to
//! evaluate conditions or execute actions and register them with the
//! GAA-API. Moreover, the routines can be loaded dynamically so that one
//! does not need to recompile the whole Apache package to add new routines."
//!
//! We register trait objects (or closures) instead of `dlopen`ed C symbols —
//! the same extensibility contract with memory safety. Evaluators are keyed
//! by the condition's `(type, authority)` pair; a condition with no
//! registered evaluator is **left unevaluated**, which surfaces as
//! [`GaaStatus::Maybe`](crate::GaaStatus::Maybe) exactly as §6 specifies.
//! Evaluator panics are caught and mapped to `Unevaluated` so a buggy
//! routine degrades to uncertainty rather than taking down the server.

use crate::context::{ExecutionMetrics, Outcome, SecurityContext};
use gaa_audit::time::Timestamp;
use gaa_eacl::{CondPhase, Condition};
use gaa_faults::{Fault, FaultInjector, FaultSite};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Result of evaluating one condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvalDecision {
    /// The condition is met.
    Met,
    /// The condition failed.
    NotMet,
    /// The condition could not be evaluated (missing information, missing
    /// evaluator, or evaluator fault). Contributes `Maybe` to the status.
    Unevaluated,
}

/// Everything an evaluator may consult besides the condition value.
#[derive(Debug, Clone, Copy)]
pub struct EvalEnv<'a> {
    /// The per-request security context.
    pub context: &'a SecurityContext,
    /// Which phase this condition belongs to.
    pub phase: CondPhase,
    /// The time the API is evaluating at.
    pub now: Timestamp,
    /// For request-result conditions: whether the request was granted.
    pub request_outcome: Option<Outcome>,
    /// For post conditions: whether the operation succeeded.
    pub operation_outcome: Option<Outcome>,
    /// For mid conditions: the operation's resource consumption so far.
    pub execution: Option<&'a ExecutionMetrics>,
}

impl<'a> EvalEnv<'a> {
    /// A pre-condition environment at time `now`.
    pub fn pre(context: &'a SecurityContext, now: Timestamp) -> Self {
        EvalEnv {
            context,
            phase: CondPhase::Pre,
            now,
            request_outcome: None,
            operation_outcome: None,
            execution: None,
        }
    }
}

/// A registered condition-evaluation routine.
///
/// Implementations must be cheap to call and must not block for long — they
/// run inline on the request path. Response *actions* (notify, log) are also
/// modelled as evaluators whose side effect happens during evaluation and
/// which return `Met` when the action succeeds (§5 item 1: routines "can
/// execute certain actions, such as logging information, notifying
/// administrator, etc.").
pub trait ConditionEvaluator: Send + Sync {
    /// Evaluates a condition value against the environment.
    fn evaluate(&self, value: &str, env: &EvalEnv<'_>) -> EvalDecision;

    /// Human-readable routine name for diagnostics.
    fn name(&self) -> &str {
        "unnamed"
    }
}

impl<F> ConditionEvaluator for F
where
    F: Fn(&str, &EvalEnv<'_>) -> EvalDecision + Send + Sync,
{
    fn evaluate(&self, value: &str, env: &EvalEnv<'_>) -> EvalDecision {
        self(value, env)
    }

    fn name(&self) -> &str {
        "closure"
    }
}

/// Outcome of asking the registry to evaluate one condition — the decision
/// plus whether an evaluator existed at all (for diagnostics and the
/// redirect special case).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryEval {
    /// The decision.
    pub decision: EvalDecision,
    /// False when no routine was registered for the condition's key.
    pub had_evaluator: bool,
    /// True when the evaluator panicked (fault injection / buggy routine).
    pub faulted: bool,
    /// Time the evaluator stalled for before returning (injected hangs).
    /// The caller charges this against its per-phase deadline.
    pub elapsed: Option<Duration>,
}

/// Keyed store of condition evaluators.
///
/// Lookup tries the exact `(type, authority)` pair first, then
/// `(type, "*")` as a wildcard-authority fallback. The map is nested by type
/// then authority, so a lookup hashes the condition's own borrowed fields
/// and allocates nothing.
#[derive(Clone, Default)]
pub struct ConditionRegistry {
    evaluators: HashMap<String, HashMap<String, Arc<dyn ConditionEvaluator>>>,
    injector: Option<Arc<dyn FaultInjector>>,
}

impl fmt::Debug for ConditionRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let keys: Vec<String> = self
            .registered_keys()
            .into_iter()
            .map(|(t, a)| format!("{t}/{a}"))
            .collect();
        f.debug_struct("ConditionRegistry")
            .field("registered", &keys)
            .finish()
    }
}

impl ConditionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ConditionRegistry::default()
    }

    /// Registers `evaluator` for conditions of `(cond_type, authority)`.
    /// Authority `"*"` registers a wildcard serving any authority not bound
    /// exactly. Replaces any previous routine for the same key.
    pub fn register(
        &mut self,
        cond_type: impl Into<String>,
        authority: impl Into<String>,
        evaluator: Arc<dyn ConditionEvaluator>,
    ) {
        self.evaluators
            .entry(cond_type.into())
            .or_default()
            .insert(authority.into(), evaluator);
    }

    /// Consults `injector` at [`FaultSite::Evaluator`] before every routine
    /// invocation, simulating buggy or hung evaluators:
    ///
    /// * [`Fault::Panic`] — the routine panics (exercising the real
    ///   `catch_unwind` containment path);
    /// * [`Fault::Error`] — the routine fails without panicking
    ///   (`Unevaluated` + `faulted`);
    /// * [`Fault::Hang`] — the routine completes but reports the given
    ///   stall in [`RegistryEval::elapsed`], which the API charges against
    ///   its per-phase deadline.
    pub fn set_injector(&mut self, injector: Arc<dyn FaultInjector>) {
        self.injector = Some(injector);
    }

    /// Is any routine registered for this key (exact or wildcard)?
    pub fn is_registered(&self, cond_type: &str, authority: &str) -> bool {
        self.lookup(cond_type, authority).is_some()
    }

    /// The sorted list of `(condition type, authority)` keys with a
    /// registered routine, wildcard (`"*"`) authorities included verbatim.
    ///
    /// This is the registry snapshot the static analyzer (`gaa-analyze`)
    /// consumes to predict which conditions will be left unevaluated
    /// (MAYBE) at request time.
    pub fn registered_keys(&self) -> Vec<(String, String)> {
        let mut keys: Vec<(String, String)> = self
            .evaluators
            .iter()
            .flat_map(|(t, by_authority)| by_authority.keys().map(|a| (t.clone(), a.clone())))
            .collect();
        keys.sort();
        keys
    }

    /// Number of registered routines.
    pub fn len(&self) -> usize {
        self.evaluators.values().map(HashMap::len).sum()
    }

    /// True when no routines are registered.
    pub fn is_empty(&self) -> bool {
        self.evaluators.is_empty()
    }

    fn lookup(&self, cond_type: &str, authority: &str) -> Option<&Arc<dyn ConditionEvaluator>> {
        let by_authority = self.evaluators.get(cond_type)?;
        by_authority
            .get(authority)
            .or_else(|| by_authority.get("*"))
    }

    /// Evaluates `condition` in `env`.
    ///
    /// * no registered routine → `Unevaluated` with `had_evaluator: false`
    ///   (§6: "The GAA-API returns MAYBE if the corresponding condition
    ///   evaluation function is not registered");
    /// * routine panic → `Unevaluated` with `faulted: true` (fail towards
    ///   uncertainty, never towards silent grant or crash).
    pub fn evaluate(&self, condition: &Condition, env: &EvalEnv<'_>) -> RegistryEval {
        let Some(evaluator) = self.lookup(&condition.cond_type, &condition.authority) else {
            return RegistryEval {
                decision: EvalDecision::Unevaluated,
                had_evaluator: false,
                faulted: false,
                elapsed: None,
            };
        };
        let injected = self
            .injector
            .as_ref()
            .and_then(|i| i.fault_at(FaultSite::Evaluator));
        if matches!(injected, Some(Fault::Error)) {
            return RegistryEval {
                decision: EvalDecision::Unevaluated,
                had_evaluator: true,
                faulted: true,
                elapsed: None,
            };
        }
        let elapsed = match injected {
            Some(Fault::Hang(millis)) => Some(Duration::from_millis(millis)),
            _ => None,
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            if matches!(injected, Some(Fault::Panic)) {
                panic!("injected evaluator panic");
            }
            evaluator.evaluate(&condition.value, env)
        }));
        match result {
            Ok(decision) => RegistryEval {
                decision,
                had_evaluator: true,
                faulted: false,
                elapsed,
            },
            Err(_) => RegistryEval {
                decision: EvalDecision::Unevaluated,
                had_evaluator: true,
                faulted: true,
                elapsed,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_ctx() -> SecurityContext {
        SecurityContext::new().with_user("alice")
    }

    fn always(decision: EvalDecision) -> Arc<dyn ConditionEvaluator> {
        Arc::new(move |_: &str, _: &EvalEnv<'_>| decision)
    }

    #[test]
    fn unregistered_condition_is_unevaluated() {
        let registry = ConditionRegistry::new();
        let ctx = env_ctx();
        let env = EvalEnv::pre(&ctx, Timestamp::from_millis(0));
        let result = registry.evaluate(&Condition::new("regex", "gnu", "*phf*"), &env);
        assert_eq!(result.decision, EvalDecision::Unevaluated);
        assert!(!result.had_evaluator);
        assert!(!result.faulted);
    }

    #[test]
    fn exact_key_lookup() {
        let mut registry = ConditionRegistry::new();
        registry.register("regex", "gnu", always(EvalDecision::Met));
        let ctx = env_ctx();
        let env = EvalEnv::pre(&ctx, Timestamp::from_millis(0));
        assert_eq!(
            registry
                .evaluate(&Condition::new("regex", "gnu", "x"), &env)
                .decision,
            EvalDecision::Met
        );
        // Different authority, no wildcard: unevaluated.
        assert_eq!(
            registry
                .evaluate(&Condition::new("regex", "posix", "x"), &env)
                .decision,
            EvalDecision::Unevaluated
        );
    }

    #[test]
    fn wildcard_authority_fallback() {
        let mut registry = ConditionRegistry::new();
        registry.register("time_window", "*", always(EvalDecision::Met));
        registry.register("time_window", "strict", always(EvalDecision::NotMet));
        let ctx = env_ctx();
        let env = EvalEnv::pre(&ctx, Timestamp::from_millis(0));
        // Exact beats wildcard.
        assert_eq!(
            registry
                .evaluate(&Condition::new("time_window", "strict", "9-17"), &env)
                .decision,
            EvalDecision::NotMet
        );
        // Anything else falls back to the wildcard.
        assert_eq!(
            registry
                .evaluate(&Condition::new("time_window", "local", "9-17"), &env)
                .decision,
            EvalDecision::Met
        );
    }

    #[test]
    fn evaluator_panic_becomes_unevaluated_fault() {
        let mut registry = ConditionRegistry::new();
        registry.register(
            "broken",
            "local",
            Arc::new(|_: &str, _: &EvalEnv<'_>| -> EvalDecision { panic!("evaluator bug") }),
        );
        let ctx = env_ctx();
        let env = EvalEnv::pre(&ctx, Timestamp::from_millis(0));
        let result = registry.evaluate(&Condition::new("broken", "local", "x"), &env);
        assert_eq!(result.decision, EvalDecision::Unevaluated);
        assert!(result.had_evaluator);
        assert!(result.faulted);
    }

    #[test]
    fn closures_can_read_env() {
        let mut registry = ConditionRegistry::new();
        registry.register(
            "accessid",
            "USER",
            Arc::new(|value: &str, env: &EvalEnv<'_>| match env.context.user() {
                Some(u) if u == value => EvalDecision::Met,
                Some(_) => EvalDecision::NotMet,
                None => EvalDecision::Unevaluated,
            }),
        );
        let alice = SecurityContext::new().with_user("alice");
        let anon = SecurityContext::new();
        let cond = Condition::new("accessid", "USER", "alice");
        let env = EvalEnv::pre(&alice, Timestamp::from_millis(0));
        assert_eq!(registry.evaluate(&cond, &env).decision, EvalDecision::Met);
        let env = EvalEnv::pre(&anon, Timestamp::from_millis(0));
        assert_eq!(
            registry.evaluate(&cond, &env).decision,
            EvalDecision::Unevaluated
        );
    }

    #[test]
    fn reregistration_replaces() {
        let mut registry = ConditionRegistry::new();
        registry.register("t", "a", always(EvalDecision::Met));
        registry.register("t", "a", always(EvalDecision::NotMet));
        assert_eq!(registry.len(), 1);
        let ctx = env_ctx();
        let env = EvalEnv::pre(&ctx, Timestamp::from_millis(0));
        assert_eq!(
            registry
                .evaluate(&Condition::new("t", "a", "v"), &env)
                .decision,
            EvalDecision::NotMet
        );
    }

    #[test]
    fn injected_faults_surface_as_evaluator_failures() {
        use gaa_faults::{Fault, FaultPlan, FaultSite};

        let mut registry = ConditionRegistry::new();
        registry.register("t", "a", always(EvalDecision::Met));
        let plan = FaultPlan::builder(9)
            .fail_nth(FaultSite::Evaluator, 0, Fault::Panic)
            .fail_nth(FaultSite::Evaluator, 1, Fault::Error)
            .fail_nth(FaultSite::Evaluator, 2, Fault::Hang(750))
            .build();
        registry.set_injector(Arc::new(plan));
        let ctx = env_ctx();
        let env = EvalEnv::pre(&ctx, Timestamp::from_millis(0));
        let cond = Condition::new("t", "a", "v");

        // Call 0: injected panic, contained by catch_unwind.
        let r = registry.evaluate(&cond, &env);
        assert_eq!(r.decision, EvalDecision::Unevaluated);
        assert!(r.faulted);

        // Call 1: injected error without panic.
        let r = registry.evaluate(&cond, &env);
        assert_eq!(r.decision, EvalDecision::Unevaluated);
        assert!(r.faulted);
        assert_eq!(r.elapsed, None);

        // Call 2: injected hang — evaluation completes but reports the stall.
        let r = registry.evaluate(&cond, &env);
        assert_eq!(r.decision, EvalDecision::Met);
        assert!(!r.faulted);
        assert_eq!(r.elapsed, Some(Duration::from_millis(750)));

        // Call 3: plan exhausted, normal operation.
        let r = registry.evaluate(&cond, &env);
        assert_eq!(r.decision, EvalDecision::Met);
        assert_eq!(r.elapsed, None);
    }

    #[test]
    fn is_registered_covers_wildcards() {
        let mut registry = ConditionRegistry::new();
        assert!(registry.is_empty());
        registry.register("t", "*", always(EvalDecision::Met));
        assert!(registry.is_registered("t", "anything"));
        assert!(!registry.is_registered("other", "anything"));
    }
}
