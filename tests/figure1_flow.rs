//! **F1** — the Figure 1 integration flow, asserted end to end:
//! initialization → policy retrieval (2a) → requested rights (2b) →
//! check_authorization (2c) → translation (2d) → execution control (3) →
//! post-execution actions (4).

use gaa::audit::notify::CollectingNotifier;
use gaa::audit::VirtualClock;
use gaa::conditions::{register_standard, StandardServices};
use gaa::core::{AnswerCode, GaaApiBuilder, MemoryPolicyStore, Outcome};
use gaa::eacl::{parse_eacl, CompositionMode, PolicyLayer};
use gaa::httpd::cgi::{CgiExecution, CgiScript};
use gaa::httpd::{GaaGlue, HttpRequest};
use std::sync::Arc;

fn build_glue() -> (GaaGlue, StandardServices) {
    let services = StandardServices::new(
        Arc::new(VirtualClock::at_millis(1_000)),
        Arc::new(CollectingNotifier::new()),
    );
    let mut store = MemoryPolicyStore::new();
    store.set_system(vec![parse_eacl(
        "eacl_mode 1\nneg_access_right * *\npre_cond system_threat_level local =high\n",
    )
    .unwrap()]);
    store.set_local(
        "/cgi-bin/search",
        vec![parse_eacl(
            "pos_access_right apache *\n\
             pre_cond accessid USER *\n\
             mid_cond cpu_limit local 120\n\
             post_cond audit local on:success/op.done/info:search\n\
             post_cond audit local on:failure/op.failed/info:search\n",
        )
        .unwrap()],
    );
    let api = register_standard(
        GaaApiBuilder::new(Arc::new(store)).with_clock(services.clock.clone()),
        &services,
    )
    .build();
    (GaaGlue::new(api, services.clone()), services)
}

#[test]
fn initialization_registers_standard_routines() {
    let (glue, _services) = build_glue();
    let registry = glue.api().registry();
    for (cond_type, authority) in [
        ("regex", "gnu"),
        ("system_threat_level", "local"),
        ("accessid", "USER"),
        ("accessid", "GROUP"),
        ("notify", "local"),
        ("update_log", "local"),
        ("cpu_limit", "local"),
    ] {
        assert!(
            registry.is_registered(cond_type, authority),
            "{cond_type}/{authority} must be registered at init"
        );
    }
    assert!(!registry.is_registered("redirect", "local"));
}

#[test]
fn step_2a_composes_system_before_local() {
    let (glue, _services) = build_glue();
    let policy = glue
        .api()
        .get_object_policy_info("/cgi-bin/search")
        .unwrap();
    assert_eq!(policy.mode(), CompositionMode::Narrow);
    let layers: Vec<PolicyLayer> = policy.layers().map(|(l, _)| l).collect();
    assert_eq!(layers, vec![PolicyLayer::System, PolicyLayer::Local]);
}

#[test]
fn step_2b_builds_rights_and_classified_params() {
    let (glue, _services) = build_glue();
    let request = HttpRequest::get("/cgi-bin/search?q=abc").with_client_ip("10.0.0.1");
    let rights = glue.requested_rights(&request, true);
    assert_eq!(rights.len(), 2);
    assert_eq!(rights[0].value, "GET");
    assert_eq!(rights[1].value, "EXEC_CGI");

    let ctx = glue.extract_context(&request, Some("alice"), &[]);
    assert_eq!(
        ctx.param_for("url", "apache"),
        Some("/cgi-bin/search?q=abc")
    );
    assert_eq!(ctx.param_for("query_len", "apache"), Some("5"));
    assert_eq!(ctx.subject(), "alice");
}

#[test]
fn steps_2c_2d_statuses_translate_per_paper_table() {
    let (glue, _services) = build_glue();
    let request = HttpRequest::get("/cgi-bin/search?q=abc").with_client_ip("10.0.0.1");

    // YES -> OK.
    let decision = glue.authorize(&request, Some("alice"), &[], true);
    assert!(decision.result.status().is_yes());
    assert_eq!(decision.answer, AnswerCode::Ok);

    // MAYBE (no credentials) -> AUTH_REQUIRED.
    let decision = glue.authorize(&request, None, &[], true);
    assert!(decision.result.status().is_maybe());
    assert_eq!(decision.answer, AnswerCode::AuthRequired);
}

#[test]
fn step_2c_no_translates_to_declined_under_lockdown() {
    let (glue, services) = build_glue();
    services.threat.set_level(gaa::ids::ThreatLevel::High);
    let request = HttpRequest::get("/cgi-bin/search?q=abc").with_client_ip("10.0.0.1");
    let decision = glue.authorize(&request, Some("alice"), &[], true);
    assert!(decision.result.status().is_no());
    assert_eq!(decision.answer, AnswerCode::Declined);
}

#[test]
fn step_3_execution_control_enforces_mid_conditions() {
    let (glue, services) = build_glue();
    let request = HttpRequest::get("/cgi-bin/search?q=abc").with_client_ip("10.0.0.1");
    let decision = glue.authorize(&request, Some("alice"), &[], true);
    assert_eq!(decision.result.mid_conditions().count(), 1);

    // Under the 120-tick budget: allowed to continue.
    let mut execution = CgiExecution::start(&CgiScript::search(), "q=abc");
    execution.step();
    let phase =
        glue.api()
            .execution_control(&decision.result, &decision.context, execution.metrics());
    assert!(phase.status.is_yes());

    // A bomb blows the budget: the check says NO and the server aborts.
    let mut bomb = CgiExecution::start(&CgiScript::cpu_bomb(10_000), "");
    for _ in 0..10 {
        bomb.step();
    }
    let phase = glue
        .api()
        .execution_control(&decision.result, &decision.context, bomb.metrics());
    assert!(phase.status.is_no());
    assert_eq!(phase.failed.len(), 1);
    assert_eq!(services.audit.count_category("gaa.mid_violation"), 1);
}

#[test]
fn step_4_post_conditions_follow_operation_outcome() {
    let (glue, services) = build_glue();
    let request = HttpRequest::get("/cgi-bin/search?q=abc").with_client_ip("10.0.0.1");
    let decision = glue.authorize(&request, Some("alice"), &[], true);

    let phase =
        glue.api()
            .post_execution_actions(&decision.result, &decision.context, Outcome::Success);
    assert!(phase.status.is_yes());
    assert_eq!(services.audit.count_category("op.done"), 1);
    assert_eq!(services.audit.count_category("op.failed"), 0);

    let _ =
        glue.api()
            .post_execution_actions(&decision.result, &decision.context, Outcome::Failure);
    assert_eq!(services.audit.count_category("op.done"), 1);
    assert_eq!(services.audit.count_category("op.failed"), 1);
}
