//! Translation of GAA status values to application answer codes.
//!
//! §6 step 2d: "YES is translated to HTTP_OK … NO is translated to
//! HTTP_DECLINED … In some cases, the MAYBE is translated to
//! HTTP_AUTH_REQUIRED, in other cases to HTTP_REDIRECT. In particular, the
//! MAYBE is used to enforce adaptive redirection policies … the server
//! checks whether there is only one unevaluated condition of the type
//! `pre_cond_redirect` and creates a redirected request using the URL from
//! the condition value."
//!
//! The answer code is application-neutral; the web-server glue maps it to
//! HTTP status codes (200/403/401/302) and an SSH-like application maps it
//! to its own protocol.

use crate::api::AuthorizationResult;
use crate::status::GaaStatus;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Condition type that carries a redirection target (the paper's
/// `pre_cond_redirect`).
pub const REDIRECT_COND_TYPE: &str = "redirect";

/// Application-neutral answer derived from an authorization status.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AnswerCode {
    /// The request is authorized (HTTP 200 path).
    Ok,
    /// The request is denied (HTTP 403).
    Declined,
    /// The decision is uncertain and more credentials may resolve it
    /// (HTTP 401).
    AuthRequired,
    /// Adaptive redirection: serve the client from this URL instead
    /// (HTTP 302).
    Redirect(String),
}

impl fmt::Display for AnswerCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnswerCode::Ok => f.write_str("OK"),
            AnswerCode::Declined => f.write_str("DECLINED"),
            AnswerCode::AuthRequired => f.write_str("AUTH_REQUIRED"),
            AnswerCode::Redirect(url) => write!(f, "REDIRECT {url}"),
        }
    }
}

impl AuthorizationResult {
    /// Translates this result into an [`AnswerCode`] using the §6 2d rules.
    pub fn answer(&self) -> AnswerCode {
        match self.status() {
            GaaStatus::Yes => AnswerCode::Ok,
            GaaStatus::No => AnswerCode::Declined,
            GaaStatus::Maybe => {
                let mut unevaluated = self.unevaluated();
                match (unevaluated.next(), unevaluated.next()) {
                    (Some(only), None) if only.cond_type == REDIRECT_COND_TYPE => {
                        AnswerCode::Redirect(only.value.clone())
                    }
                    _ => AnswerCode::AuthRequired,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::GaaApiBuilder;
    use crate::context::SecurityContext;
    use crate::policy_store::MemoryPolicyStore;
    use crate::registry::{EvalDecision, EvalEnv};
    use gaa_eacl::{parse_eacl, RightPattern};
    use std::sync::Arc;

    fn answer_for(local: &str, ctx: &SecurityContext) -> AnswerCode {
        let mut store = MemoryPolicyStore::new();
        store.set_local("/obj", vec![parse_eacl(local).unwrap()]);
        let api = GaaApiBuilder::new(Arc::new(store))
            .register("user", "USER", |value: &str, env: &EvalEnv<'_>| {
                match env.context.user() {
                    Some(u) if u == value || value == "*" => EvalDecision::Met,
                    Some(_) => EvalDecision::NotMet,
                    None => EvalDecision::Unevaluated,
                }
            })
            .register("client_near", "local", |_: &str, _: &EvalEnv<'_>| {
                EvalDecision::Met
            })
            .build();
        let policy = api.get_object_policy_info("/obj").unwrap();
        api.check_authorization(&policy, &RightPattern::new("apache", "GET"), ctx)
            .answer()
    }

    #[test]
    fn yes_maps_to_ok() {
        assert_eq!(
            answer_for("pos_access_right apache *\n", &SecurityContext::new()),
            AnswerCode::Ok
        );
    }

    #[test]
    fn no_maps_to_declined() {
        assert_eq!(
            answer_for("neg_access_right apache *\n", &SecurityContext::new()),
            AnswerCode::Declined
        );
    }

    #[test]
    fn maybe_from_missing_credentials_maps_to_auth_required() {
        assert_eq!(
            answer_for(
                "pos_access_right apache *\npre_cond user USER *\n",
                &SecurityContext::new()
            ),
            AnswerCode::AuthRequired
        );
    }

    #[test]
    fn single_redirect_condition_maps_to_redirect() {
        // Adaptive redirection (§6 2d): client-state conditions evaluate,
        // the redirect condition is deliberately unregistered and carries
        // the replica URL.
        let policy = "\
pos_access_right apache *
pre_cond client_near local east-coast
pre_cond redirect local http://replica1.example.org/obj
";
        assert_eq!(
            answer_for(policy, &SecurityContext::new()),
            AnswerCode::Redirect("http://replica1.example.org/obj".to_string())
        );
    }

    #[test]
    fn redirect_plus_other_unevaluated_falls_back_to_auth_required() {
        let policy = "\
pos_access_right apache *
pre_cond redirect local http://replica1.example.org/obj
pre_cond user USER *
";
        assert_eq!(
            answer_for(policy, &SecurityContext::new()),
            AnswerCode::AuthRequired
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(AnswerCode::Ok.to_string(), "OK");
        assert_eq!(AnswerCode::Declined.to_string(), "DECLINED");
        assert_eq!(AnswerCode::AuthRequired.to_string(), "AUTH_REQUIRED");
        assert_eq!(
            AnswerCode::Redirect("http://x/".into()).to_string(),
            "REDIRECT http://x/"
        );
    }
}
