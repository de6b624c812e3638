//! # gaa-httpd — the web-server substrate and GAA integration glue
//!
//! The paper integrates the GAA-API into Apache by modifying
//! `check_user_access` (§6, Figure 1). There is no Apache here, so this
//! crate *is* the web server: an HTTP/1.x server with the same observable
//! surface the GAA glue code consumes — a parsed request structure
//! (`request_rec` stand-in), a document tree, Apache-style `.htaccess`
//! access control as the measurement baseline (§4), HTTP Basic
//! authentication, and a metered CGI execution environment for the
//! execution-control phase.
//!
//! Modules:
//!
//! * [`http`] — request parsing (with malformed-request detection feeding
//!   §3 item 1 reports), responses, status codes, percent-decoding;
//! * [`vfs`] — the virtual document tree served by the examples, tests and
//!   benchmarks;
//! * [`auth`] — HTTP Basic credentials, base64, and the htpasswd store
//!   (§4's `AuthUserFile`);
//! * [`htaccess`] — the native Apache access-control baseline: `Order`,
//!   `Allow from`/`Deny from`, `Require`, `Satisfy` (§4);
//! * [`cgi`] — simulated CGI scripts with metered execution (CPU ticks,
//!   memory, files created) so mid-conditions have something to police;
//! * [`glue`] — Figure 1 end-to-end: context extraction, the four
//!   per-request GAA phases, status translation, IDS reporting (§3);
//! * [`policy_lint`] — config-driven load-path linting: the policy store
//!   refuses (or audits, per `param lint.mode`) artifacts the `gaa-analyze`
//!   passes prove self-defeating;
//! * [`server`] — the request lifecycle tying it all together, with
//!   pluggable access control (none / htaccess / GAA);
//! * [`swarm_cfg`] — directive-style configuration for fleet threat
//!   replication (`gaa-swarm`), plus the `Server` attachment point;
//! * [`conn`] — the HTTP/1.x connection protocol (framing, keep-alive,
//!   deadlines, close decisions) as a socket-free state machine;
//! * [`reactor`] — the serving front: nonblocking epoll shards that move
//!   bytes and timer entries between the kernel and [`conn`], so a slow or
//!   idle client costs a connection-state struct instead of a thread;
//! * [`timer`] — the hashed timer wheel backing the reactor's deadlines.

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
pub mod access_log;
pub mod auth;
pub mod cgi;
pub mod conn;
pub mod glue;
pub mod htaccess;
pub mod http;
pub mod loganalyzer;
pub mod policy_lint;
pub mod reactor;
pub mod server;
pub mod site;
pub mod swarm_cfg;
pub mod timer;
pub mod vfs;

pub use access_log::{AccessEntry, AccessLog};
pub use glue::GaaGlue;
pub use http::{HttpRequest, HttpResponse, Method, ParseRequestError, StatusCode};
pub use loganalyzer::{LogAnalyzer, LogReport};
pub use policy_lint::{lint_policy_store, LintEnforcement};
pub use reactor::{ReactorConfig, ReactorFront};
pub use server::{AccessControl, Server, ServerStats};
pub use swarm_cfg::parse_swarm_config;
pub use vfs::{Node, Vfs};
