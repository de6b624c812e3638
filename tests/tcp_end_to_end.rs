//! Full-stack test over real TCP sockets: GAA-protected server, live
//! attack, live lockout, live 401 challenge.

use gaa::audit::notify::CollectingNotifier;
use gaa::audit::SystemClock;
use gaa::conditions::{register_standard, StandardServices};
use gaa::core::{GaaApiBuilder, MemoryPolicyStore};
use gaa::eacl::parse_eacl;
use gaa::httpd::auth::{base64_encode, HtpasswdStore};
use gaa::httpd::reactor::send_raw;
use gaa::httpd::{AccessControl, GaaGlue, ReactorFront, Server, Vfs};
use std::sync::Arc;

const POLICY: &str = "\
eacl_mode 1
neg_access_right apache *
pre_cond accessid GROUP BadGuys
neg_access_right apache *
pre_cond regex gnu *phf* *test-cgi*
rr_cond update_log local on:failure/BadGuys/info:ip
pos_access_right apache GET
pos_access_right apache HEAD
neg_access_right apache *
";

fn spawn() -> (ReactorFront, StandardServices) {
    let services = StandardServices::new(
        Arc::new(SystemClock::new()),
        Arc::new(CollectingNotifier::new()),
    );
    let mut store = MemoryPolicyStore::new();
    store.set_system(vec![parse_eacl(POLICY).unwrap()]);
    let api = register_standard(GaaApiBuilder::new(Arc::new(store)), &services).build();
    let glue = GaaGlue::new(api, services.clone());
    let mut users = HtpasswdStore::new("tcp");
    users.add_user("alice", "wonderland");
    let server = Arc::new(
        Server::new(Vfs::default_site(), AccessControl::Gaa(Box::new(glue)))
            .with_users(Arc::new(users)),
    );
    (
        ReactorFront::spawn("127.0.0.1:0", server).unwrap(),
        services,
    )
}

fn status_line(response: &[u8]) -> String {
    String::from_utf8_lossy(response)
        .lines()
        .next()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn live_requests_over_sockets() {
    let (front, services) = spawn();
    let addr = front.addr();

    // Benign GET served.
    let response = send_raw(addr, b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    assert!(
        status_line(&response).contains("200"),
        "{}",
        status_line(&response)
    );
    assert!(String::from_utf8_lossy(&response).contains("Welcome"));

    // The exploit is denied over the wire (loopback traffic, so the client
    // IP recorded for the blacklist is 127.0.0.1).
    let response = send_raw(
        addr,
        b"GET /cgi-bin/phf?Qalias=x HTTP/1.1\r\nHost: t\r\n\r\n",
    )
    .unwrap();
    assert!(
        status_line(&response).contains("403"),
        "{}",
        status_line(&response)
    );
    assert!(services.groups.contains("BadGuys", "127.0.0.1"));

    // Now even benign requests from this (blacklisted) client are refused.
    let response = send_raw(addr, b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    assert!(status_line(&response).contains("403"));

    front.stop();
}

#[test]
fn post_denied_by_method_policy_over_sockets() {
    let (front, _services) = spawn();
    let addr = front.addr();
    // Policy grants only GET and HEAD; POST falls through to the final deny.
    let response = send_raw(
        addr,
        b"POST /cgi-bin/search HTTP/1.1\r\ncontent-length: 3\r\n\r\nq=a",
    )
    .unwrap();
    assert!(
        status_line(&response).contains("403"),
        "{}",
        status_line(&response)
    );
    front.stop();
}

#[test]
fn malformed_wire_bytes_get_400_over_sockets() {
    let (front, _services) = spawn();
    let response = send_raw(front.addr(), b"NONSENSE BYTES\r\n\r\n").unwrap();
    assert!(
        status_line(&response).contains("400"),
        "{}",
        status_line(&response)
    );
    front.stop();
}

#[test]
fn basic_auth_works_over_sockets() {
    let services = StandardServices::new(
        Arc::new(SystemClock::new()),
        Arc::new(CollectingNotifier::new()),
    );
    let mut store = MemoryPolicyStore::new();
    store.set_system(vec![parse_eacl(
        "pos_access_right apache *\npre_cond accessid USER *\n",
    )
    .unwrap()]);
    let api = register_standard(GaaApiBuilder::new(Arc::new(store)), &services).build();
    let glue = GaaGlue::new(api, services.clone());
    let mut users = HtpasswdStore::new("tcp");
    users.add_user("alice", "wonderland");
    let server = Arc::new(
        Server::new(Vfs::default_site(), AccessControl::Gaa(Box::new(glue)))
            .with_users(Arc::new(users)),
    );
    let front = ReactorFront::spawn("127.0.0.1:0", server).unwrap();

    // Anonymous: 401 challenge.
    let response = send_raw(front.addr(), b"GET /index.html HTTP/1.1\r\n\r\n").unwrap();
    assert!(status_line(&response).contains("401"));
    assert!(String::from_utf8_lossy(&response).contains("www-authenticate"));

    // With credentials: 200.
    let auth = base64_encode(b"alice:wonderland");
    let raw = format!("GET /index.html HTTP/1.1\r\nAuthorization: Basic {auth}\r\n\r\n");
    let response = send_raw(front.addr(), raw.as_bytes()).unwrap();
    assert!(
        status_line(&response).contains("200"),
        "{}",
        status_line(&response)
    );

    front.stop();
}
