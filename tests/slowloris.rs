//! Slowloris over real loopback sockets against the serving front.
//!
//! The attack is a handful of connections each dribbling one byte of a
//! never-completing request every ~100 ms. A front that bounds each
//! `read` with a timeout is pinned *forever* by it (every delivered byte
//! resets the timeout) and a thread-per-connection front runs out of
//! threads; the reactor holds each attacker as a parked connection struct
//! under one whole-request deadline. The claims:
//!
//! * every legitimate request keeps succeeding while the attack is live,
//!   with per-request latency bounded well below the attack's lifetime;
//! * every dribbler is cut at the whole-request deadline no matter how
//!   faithfully it trickles bytes.

use gaa::httpd::reactor::{ReactorConfig, ReactorFront};
use gaa::httpd::{AccessControl, Server, Vfs};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn open_server() -> Arc<Server> {
    Arc::new(Server::new(Vfs::default_site(), AccessControl::Open))
}

/// Starts `count` slow-writer connections fed one header byte per ~100 ms
/// from a background thread, so their requests never frame and a
/// per-read timeout would reset indefinitely. Stops when `stop` is set.
fn spawn_dribblers(
    addr: SocketAddr,
    count: usize,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut conns: Vec<TcpStream> = (0..count)
            .filter_map(|_| TcpStream::connect(addr).ok())
            .collect();
        for conn in &mut conns {
            let _ = conn.write_all(b"GET /never HTTP/1.1\r\nx-slow: ");
        }
        while !stop.load(Ordering::Relaxed) {
            for conn in &mut conns {
                // One byte, never a frame terminator. Writes to connections
                // the server already cut fail silently — that *is* the cut.
                let _ = conn.write_all(b"a");
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    })
}

/// One legitimate request with a hard client-side deadline. Returns the
/// latency on a `200`, `None` on timeout/reset/non-200 — a degraded serve.
fn timed_get(addr: SocketAddr, path: &str, deadline: Duration) -> Option<Duration> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(deadline)).ok()?;
    let raw = format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n");
    stream.write_all(raw.as_bytes()).ok()?;
    let mut response = Vec::new();
    std::io::Read::read_to_end(&mut stream, &mut response).ok()?;
    String::from_utf8_lossy(&response)
        .starts_with("HTTP/1.1 200")
        .then(|| start.elapsed())
}

const DRIBBLERS: usize = 8;

#[test]
fn reactor_keeps_serving_under_slowloris_and_cuts_the_dribblers() {
    let reactor = ReactorFront::spawn_with(
        "127.0.0.1:0",
        open_server(),
        ReactorConfig {
            request_deadline: Duration::from_secs(2),
            idle_deadline: Duration::from_secs(5),
            ..ReactorConfig::default()
        },
        None,
    )
    .unwrap();
    let reactor_addr = reactor.addr();

    // One dribbler of our own, to observe the cut from the client side.
    let mut witness = TcpStream::connect(reactor_addr).unwrap();
    let attack_started = Instant::now();
    witness
        .write_all(b"GET /never HTTP/1.1\r\nx-slow: ")
        .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let dribbler = spawn_dribblers(reactor_addr, DRIBBLERS, Arc::clone(&stop));
    std::thread::sleep(Duration::from_millis(300));

    // Mixed legitimate traffic rides through the live attack: every
    // request answered, worst-case latency far below the attack lifetime.
    let mut worst = Duration::ZERO;
    for i in 0..20 {
        let path = ["/index.html", "/docs/page1.html"][i % 2];
        let latency = timed_get(reactor_addr, path, Duration::from_secs(1))
            .unwrap_or_else(|| panic!("reactor dropped legitimate request {i} under attack"));
        worst = worst.max(latency);
    }
    assert!(
        worst < Duration::from_secs(1),
        "reactor worst-case legitimate latency under attack was {worst:?}"
    );

    // The whole-request deadline cuts the witness at ~2 s even though it
    // keeps delivering a byte every 100 ms (a per-read timeout would
    // reset on each and never fire).
    witness
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut buf = [0u8; 64];
    let cut = loop {
        if witness.write_all(b"a").is_err() {
            break true;
        }
        match std::io::Read::read(&mut witness, &mut buf) {
            Ok(_) => break true, // EOF (or a reply followed by EOF): cut
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break true, // reset: also a cut
        }
        if attack_started.elapsed() > Duration::from_secs(8) {
            break false;
        }
    };
    let elapsed = attack_started.elapsed();
    assert!(
        cut && elapsed >= Duration::from_millis(1900),
        "dribbler must be cut at the 2 s whole-request deadline, not before and \
         not never; cut={cut} after {elapsed:?}"
    );

    stop.store(true, Ordering::Relaxed);
    dribbler.join().unwrap();
    reactor.stop();
}
