//! Allocation budgets of the miss path, pinned with a counting allocator.
//!
//! A request the decision cache cannot answer composes the object's policy,
//! dispatches every condition to its evaluator and reads pattern verdicts
//! from the oracle. None of those steps should copy a policy or allocate per
//! condition; these tests count the allocations each one makes on the
//! calling thread, so tests running in parallel do not disturb the counts.

use gaa::audit::notify::CollectingNotifier;
use gaa::audit::{Timestamp, VirtualClock};
use gaa::conditions::multipattern::{match_one, CombinedMatcher};
use gaa::conditions::{register_standard, PatternOracle, StandardServices};
use gaa::core::{
    AnswerCode, ConditionEvaluator, ConditionRegistry, DecisionCache, EvalDecision, EvalEnv,
    GaaApiBuilder, IdentityClass, MemoryPolicyStore, Param, SecurityContext, SlicedPolicyStore,
};
use gaa::eacl::{parse_eacl, ComposedPolicy, Condition, RightPattern};
use gaa::httpd::{GaaGlue, HttpRequest};
use gaa::ids::{EventBus, ReportKind, SignatureDb};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, counting every allocation made by each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread's TLS is torn down, and
    // allocations made then are nobody's to count.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a const-initialised
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath; the caller's guarantees are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the number of allocations it made.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = std::hint::black_box(f());
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// Met iff the condition value is `on`; allocates nothing.
fn flag(value: &str, _: &EvalEnv<'_>) -> EvalDecision {
    if value == "on" {
        EvalDecision::Met
    } else {
        EvalDecision::NotMet
    }
}

#[test]
fn condition_dispatch_allocates_nothing() {
    let mut registry = ConditionRegistry::new();
    let exact: Arc<dyn ConditionEvaluator> = Arc::new(flag);
    registry.register("flag", "local", exact.clone());
    registry.register("time_window", "*", exact);
    registry.register(
        "broken",
        "local",
        Arc::new(|_: &str, _: &EvalEnv<'_>| -> EvalDecision { panic!("evaluator bug") }),
    );
    let ctx = SecurityContext::new().with_user("alice");
    let env = EvalEnv::pre(&ctx, Timestamp::from_millis(0));

    let exact_key = Condition::new("flag", "local", "on");
    let (eval, allocations) = allocations_in(|| registry.evaluate(&exact_key, &env));
    assert_eq!(eval.decision, EvalDecision::Met);
    assert_eq!(allocations, 0, "exact (type, authority) key");

    // No ("time_window", "strict") routine: the wildcard authority answers.
    let wildcard_key = Condition::new("time_window", "strict", "off");
    let (eval, allocations) = allocations_in(|| registry.evaluate(&wildcard_key, &env));
    assert_eq!(eval.decision, EvalDecision::NotMet);
    assert!(eval.had_evaluator);
    assert_eq!(allocations, 0, "wildcard-authority fallback");

    // A panicking routine is still contained (the panic itself allocates).
    let eval = registry.evaluate(&Condition::new("broken", "local", "x"), &env);
    assert_eq!(eval.decision, EvalDecision::Unevaluated);
    assert!(eval.faulted);
}

/// `n` patterns across the combined matcher's tiers: substring globs,
/// merged regexes, exact globs and residual `?`-globs.
fn pattern_set(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| match i % 4 {
            0 => format!("*probe{i}*"),
            1 => format!("re:/cgi-bin/x{i}[0-9]+"),
            2 => format!("GET /exact{i} HTTP/1.1"),
            _ => format!("*a?{i}*"),
        })
        .collect()
}

#[test]
fn oracle_cost_does_not_grow_with_the_pattern_set() {
    let text = "GET /cgi-bin/x1234?probe0=a%c0b HTTP/1.1";
    let mut counts = Vec::new();
    for n in [24, 240] {
        let patterns = pattern_set(n);
        let matcher = CombinedMatcher::compile(&patterns);
        // The lazy DFA builds the states this text visits on first sight.
        let _ = PatternOracle::compute(&matcher, text);
        let (oracle, allocations) = allocations_in(|| PatternOracle::compute(&matcher, text));
        assert_eq!(oracle.len(), n);
        assert!(
            patterns.iter().any(|p| match_one(p, text)),
            "the text matches some pattern, so verdicts are not all false"
        );
        counts.push(allocations);
    }
    assert_eq!(counts[0], counts[1], "24 patterns vs 240 patterns");
}

#[test]
fn every_object_shares_one_system_list() {
    let system = || {
        vec![parse_eacl(
            "eacl_mode 1\nneg_access_right * *\npre_cond system_threat_level local =high\n",
        )
        .unwrap()]
    };
    let local = || vec![parse_eacl("pos_access_right apache *\n").unwrap()];
    let mut store = MemoryPolicyStore::new();
    store.set_system(system());
    store.set_local("/a.html", local());
    store.set_local("/b.html", local());
    let store = Arc::new(store);

    let api = GaaApiBuilder::new(store.clone()).build();
    let first = api.get_object_policy_info("/a.html").unwrap();
    for object in ["/a.html", "/b.html", "/a.html", "/b.html"] {
        let (policy, allocations) = allocations_in(|| api.get_object_policy_info(object));
        let policy = policy.unwrap();
        assert!(Arc::ptr_eq(first.shared_system(), policy.shared_system()));
        assert_eq!(policy.local().len(), 1);
        assert_eq!(allocations, 0, "composing {object} copies nothing");
    }

    // Replacing the system list hands out a new allocation; the old one
    // (still held by `first`) is left as it was.
    drop(api);
    let mut store = Arc::try_unwrap(store).expect("the API held the only other handle");
    store.set_system(system());
    let api = GaaApiBuilder::new(Arc::new(store)).build();
    let reloaded = api.get_object_policy_info("/a.html").unwrap();
    assert!(!Arc::ptr_eq(
        first.shared_system(),
        reloaded.shared_system()
    ));
    assert_eq!(first.system(), reloaded.system());
}

/// A signature bank: `n` deny entries, each guarded by a `regex` condition
/// that a benign request fails, in front of one grant.
fn guard_bank(n: usize) -> MemoryPolicyStore {
    let mut text = String::new();
    for i in 0..n {
        text.push_str(&format!(
            "neg_access_right apache *\npre_cond regex gnu *exploit{i}*\n"
        ));
    }
    text.push_str("pos_access_right apache *\n");
    let mut store = MemoryPolicyStore::new();
    store.set_system(vec![parse_eacl(&text).unwrap()]);
    store
}

/// A glue over `store` configured as a production server: signature scan,
/// an IDS bus with one attack-report subscriber, the decision cache and
/// policy slicing.
fn production_glue(
    store: MemoryPolicyStore,
) -> (GaaGlue, gaa::ids::Subscription<gaa::ids::GaaReport>) {
    let services = StandardServices::new(
        Arc::new(VirtualClock::new()),
        Arc::new(CollectingNotifier::new()),
    );
    let api = register_standard(
        GaaApiBuilder::new(Arc::new(store)).with_clock(services.clock.clone()),
        &services,
    )
    .build();
    let bus = EventBus::new();
    let attacks = bus.subscribe_reports(Some(vec![ReportKind::ApplicationAttack]));
    let glue = GaaGlue::new(api, services)
        .with_signatures(SignatureDb::with_defaults())
        .with_bus(bus)
        .with_decision_cache(DecisionCache::new())
        .with_policy_slicing(64);
    (glue, attacks)
}

fn benign(query: usize) -> HttpRequest {
    HttpRequest::get(&format!("/index.html?q={query}")).with_client_ip("10.0.0.1")
}

#[test]
fn evaluation_cost_does_not_grow_with_the_policy() {
    let ctx = SecurityContext::new().with_param(Param::new(
        "request_line",
        "apache",
        "GET /index.html?q=1 HTTP/1.1",
    ));
    let right = RightPattern::new("apache", "GET");
    let mut counts = Vec::new();
    for n in [24, 240] {
        let store = guard_bank(n);
        let services = StandardServices::new(
            Arc::new(VirtualClock::new()),
            Arc::new(CollectingNotifier::new()),
        );
        let api = register_standard(GaaApiBuilder::new(Arc::new(store)), &services).build();
        let policy = api.get_object_policy_info("/index.html").unwrap();
        let _ = api.check_authorization(&policy, &right, &ctx);
        let (result, allocations) =
            allocations_in(|| api.check_authorization(&policy, &right, &ctx));
        assert!(result.status().is_yes());
        assert_eq!(result.applied().len(), 1, "only the grant applies");
        assert_eq!(result.applied()[0].entry_index, n);
        counts.push(allocations);
    }
    assert_eq!(counts[0], counts[1], "24 guards vs 240 guards: {counts:?}");
    assert!(
        counts[0] <= 4,
        "check_authorization allocated {}",
        counts[0]
    );
}

#[test]
fn a_decision_cache_miss_costs_the_same_on_any_bank() {
    let mut counts = Vec::new();
    for n in [24, 240] {
        let (glue, attacks) = production_glue(guard_bank(n));
        // Warm-up: cell proofs, pattern plans and the cache plan are built
        // on first sight of the object.
        for q in 0..4 {
            assert_eq!(
                glue.authorize(&benign(q), None, &[], false).answer,
                AnswerCode::Ok
            );
        }
        let misses = glue.decision_cache().unwrap().stats().misses;
        let request = benign(1_000);
        let (decision, allocations) = allocations_in(|| glue.authorize(&request, None, &[], false));
        assert_eq!(decision.answer, AnswerCode::Ok);
        assert_eq!(glue.decision_cache().unwrap().stats().misses, misses + 1);
        assert!(attacks.drain().is_empty());
        counts.push(allocations);
    }
    assert_eq!(counts[0], counts[1], "24 guards vs 240 guards: {counts:?}");
    assert!(counts[0] <= 56, "a cache miss allocated {}", counts[0]);
}

/// What a decision-cache hit may allocate: 36, the count measured before
/// the cache key was sized up front and built once per right (a hit now
/// makes 30, most of them in context extraction).
const HIT_BUDGET: u64 = 36;

#[test]
fn a_decision_cache_hit_stays_within_budget() {
    let (glue, _attacks) = production_glue(guard_bank(24));
    let request = benign(7);
    for _ in 0..2 {
        assert_eq!(
            glue.authorize(&request, None, &[], false).answer,
            AnswerCode::Ok
        );
    }
    let hits = glue.decision_cache().unwrap().stats().hits;
    let (decision, allocations) = allocations_in(|| glue.authorize(&request, None, &[], false));
    assert_eq!(decision.answer, AnswerCode::Ok);
    assert_eq!(glue.decision_cache().unwrap().stats().hits, hits + 1);
    assert!(
        allocations <= HIT_BUDGET,
        "a cache hit allocated {allocations}"
    );
}

#[test]
fn a_slice_cell_lookup_allocates_nothing() {
    let store = SlicedPolicyStore::new(8);
    let slice =
        ComposedPolicy::local_only(vec![parse_eacl("pos_access_right apache *\n").unwrap()]);
    let cells = [
        ("/a.html", "GET", IdentityClass::Anonymous),
        ("/a.html", "GET", IdentityClass::Authenticated),
        ("/a.html", "EXEC_CGI", IdentityClass::Anonymous),
        ("/b.html", "GET", IdentityClass::Anonymous),
    ];
    for (object, value, class) in cells {
        let _ = store.sliced_for(1, object, "apache", value, class, || Some(slice.clone()));
    }
    for (object, value, class) in cells {
        let (hit, allocations) =
            allocations_in(|| store.sliced_for(1, object, "apache", value, class, || None));
        assert!(hit.is_some(), "{object} {value} {class:?} was cached");
        assert_eq!(allocations, 0, "looking up {object} {value} {class:?}");
    }
}
