//! Shared loopback serving-bench harness.
//!
//! Every HTTP-level benchmark binary (`http_throughput`, `scale`) spawns
//! real fronts on `127.0.0.1:0` and drives them with concurrent
//! keep-alive clients over real sockets. The client loop, measurement
//! windows, wire serialization for differential replay, the
//! reference front the reactor is differentially gated against, and
//! the `--write/--iterations/--smoke` argument envelope live here so the
//! binaries measure different *configurations*, not different harnesses.

use gaa_httpd::conn::read_frame;
use gaa_httpd::{HttpRequest, Server};
use std::fmt::Write as _;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The common benchmark argument envelope:
/// `[--write FILE] [--iterations N] [--smoke]`.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// `--write FILE`: also save the JSON summary here.
    pub write_to: Option<String>,
    /// `--iterations N`: override the per-client/per-sweep iteration count.
    pub iterations: Option<u32>,
    /// `--smoke`: shrink the timed run for CI (gates still run in full).
    pub smoke: bool,
}

impl BenchArgs {
    /// Parses `std::env::args().skip(1)`; panics on unknown flags (these
    /// are internal tools, not user-facing CLIs).
    #[must_use]
    pub fn parse() -> BenchArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut parsed = BenchArgs::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--write" => {
                    parsed.write_to = Some(it.next().expect("--write needs a file").clone());
                }
                "--iterations" => {
                    parsed.iterations = Some(
                        it.next()
                            .expect("--iterations needs a value")
                            .parse()
                            .expect("numeric iterations"),
                    );
                }
                "--smoke" => parsed.smoke = true,
                other => panic!("unknown argument `{other}`"),
            }
        }
        parsed
    }

    /// The iteration count: explicit override, else `default` shrunk to
    /// `smoke_cap` under `--smoke`.
    #[must_use]
    pub fn resolve_iterations(&self, default: u32, smoke_cap: u32) -> u32 {
        let n = self.iterations.unwrap_or(default);
        if self.smoke {
            n.min(smoke_cap)
        } else {
            n
        }
    }
}

/// Prints the JSON summary and saves it when `--write` was given.
pub fn emit_json(json: &str, write_to: Option<&str>) {
    println!("{json}");
    if let Some(file) = write_to {
        std::fs::write(file, format!("{json}\n")).unwrap_or_else(|e| panic!("{file}: {e}"));
        eprintln!("wrote {file}");
    }
}

/// One benchmark client: `n` requests drawn round-robin from `wires` over
/// keep-alive connections, reconnecting whenever the server closes. Every
/// response must carry a status in `expect_prefixes` (typically
/// `&["HTTP/1.1 200"]`; pass more for mixed workloads).
pub fn run_wire_client(addr: SocketAddr, wires: &[Vec<u8>], n: u32, expect_prefixes: &[&str]) {
    assert!(!wires.is_empty(), "need at least one request");
    let mut stream: Option<TcpStream> = None;
    let mut carry: Vec<u8> = Vec::new();
    for i in 0..n {
        let s = match stream.as_mut() {
            Some(s) => s,
            None => {
                carry.clear();
                let s = TcpStream::connect(addr).expect("connect");
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                stream.insert(s)
            }
        };
        s.write_all(&wires[(i as usize) % wires.len()])
            .expect("write");
        let (response, closed) = match read_frame(s, &mut carry).expect("read") {
            Some(response) => (response, false),
            None => (std::mem::take(&mut carry), true),
        };
        let text = String::from_utf8_lossy(&response);
        assert!(
            expect_prefixes.iter().any(|p| text.starts_with(p)),
            "unexpected response: {}",
            text.lines().next().unwrap_or("")
        );
        if closed || text.contains("connection: close") {
            stream = None;
        }
    }
}

/// A keep-alive GET for `path` (the classic benchmark request).
#[must_use]
pub fn get_wire(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n").into_bytes()
}

/// Drives the front at `addr` with `clients` concurrent clients replaying
/// `wires` (`n` requests each, after a 50-request warmup that populates
/// caches and profiles off the clock) and returns requests per second.
#[must_use]
pub fn measure_wires(
    addr: SocketAddr,
    wires: &Arc<Vec<Vec<u8>>>,
    n: u32,
    clients: usize,
    expect_prefixes: &'static [&'static str],
) -> f64 {
    run_wire_client(addr, wires, n.min(50), expect_prefixes);
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let wires = Arc::clone(wires);
            std::thread::spawn(move || run_wire_client(addr, &wires, n, expect_prefixes))
        })
        .collect();
    for c in handles {
        c.join().expect("client panicked");
    }
    f64::from(n) * (clients as f64) / start.elapsed().as_secs_f64()
}

/// Drives the front at `addr` with `clients` concurrent clients of `n`
/// GET requests each over `paths` and returns requests per second.
#[must_use]
pub fn measure_addr(
    addr: SocketAddr,
    n: u32,
    clients: usize,
    paths: &'static [&'static str],
) -> f64 {
    let wires = Arc::new(paths.iter().map(|p| get_wire(p)).collect::<Vec<_>>());
    measure_wires(addr, &wires, n, clients, &["HTTP/1.1 200"])
}

/// Time-windowed, failure-tolerant throughput probe for *loaded*
/// dimensions: counts completed 200s within `window`, treating timeouts
/// and resets as zero-score attempts (a collapsed front scores ~0 instead
/// of panicking the harness the way [`run_wire_client`] would).
#[must_use]
pub fn measure_window(addr: SocketAddr, window: Duration, clients: usize) -> f64 {
    let deadline = Instant::now() + window;
    let completed = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let completed = Arc::clone(&completed);
            std::thread::spawn(move || {
                let mut stream: Option<TcpStream> = None;
                let mut carry: Vec<u8> = Vec::new();
                while Instant::now() < deadline {
                    let s = match stream.as_mut() {
                        Some(s) => s,
                        None => {
                            carry.clear();
                            match TcpStream::connect(addr) {
                                Ok(s) => {
                                    let _ = s.set_read_timeout(Some(Duration::from_millis(250)));
                                    stream.insert(s)
                                }
                                Err(_) => {
                                    std::thread::sleep(Duration::from_millis(5));
                                    continue;
                                }
                            }
                        }
                    };
                    if s.write_all(b"GET /index.html HTTP/1.1\r\nhost: bench\r\n\r\n")
                        .is_err()
                    {
                        stream = None;
                        continue;
                    }
                    // EOF/timeout: a failed attempt.
                    let response = read_frame(s, &mut carry).ok().flatten();
                    match response {
                        Some(bytes) => {
                            let text = String::from_utf8_lossy(&bytes);
                            if text.starts_with("HTTP/1.1 200") {
                                completed.fetch_add(1, Ordering::Relaxed);
                            }
                            if text.contains("connection: close") {
                                stream = None;
                            }
                        }
                        None => stream = None,
                    }
                }
            })
        })
        .collect();
    for c in handles {
        c.join().expect("probe client panicked");
    }
    completed.load(Ordering::Relaxed) as f64 / window.as_secs_f64()
}

/// Serializes a workload request for replay over a real socket, forcing
/// `connection: close` so every front serves exactly one request per
/// connection in the same order.
#[must_use]
pub fn raw_wire(request: &HttpRequest) -> Vec<u8> {
    let mut head = format!(
        "{} {} HTTP/1.1\r\n",
        request.method.as_str(),
        request.target
    );
    for (name, value) in &request.headers {
        if name.eq_ignore_ascii_case("connection") || name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        let _ = write!(head, "{name}: {value}\r\n");
    }
    if !request.body.is_empty() {
        let _ = write!(head, "content-length: {}\r\n", request.body.len());
    }
    head.push_str("connection: close\r\n\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(&request.body);
    out
}

/// A keep-alive wire for a workload request (no forced close) — the
/// throughput-side sibling of [`raw_wire`].
#[must_use]
pub fn keepalive_wire(request: &HttpRequest) -> Vec<u8> {
    let mut head = format!(
        "{} {} HTTP/1.1\r\n",
        request.method.as_str(),
        request.target
    );
    let mut saw_host = false;
    for (name, value) in &request.headers {
        if name.eq_ignore_ascii_case("connection") || name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        saw_host |= name.eq_ignore_ascii_case("host");
        let _ = write!(head, "{name}: {value}\r\n");
    }
    if !saw_host {
        head.push_str("host: bench\r\n");
    }
    if !request.body.is_empty() {
        let _ = write!(head, "content-length: {}\r\n", request.body.len());
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(&request.body);
    out
}

/// Sends `raw` and returns the response's status line (trimmed), or a
/// tagged error string — which also diverges, and therefore also gates.
#[must_use]
pub fn status_line_over_socket(addr: SocketAddr, raw: &[u8]) -> String {
    match gaa_httpd::reactor::send_raw(addr, raw) {
        Ok(bytes) => String::from_utf8_lossy(&bytes)
            .lines()
            .next()
            .unwrap_or("<empty>")
            .trim()
            .to_string(),
        Err(e) => format!("<io error: {}>", e.kind()),
    }
}

/// Runs `drive` against the reference front: a blocking accept loop, one
/// thread per connection, one request per connection, `connection:
/// close` — the shape of the original seed front. It shares nothing with
/// the reactor but [`read_frame`] and [`Server::handle_bytes`], which is
/// what makes it the reference side of the front differential gate (and
/// the historical `seed_front` throughput baseline). Not a production
/// front: no deadlines beyond a read timeout, no admission control.
pub fn with_reference_front<T>(server: &Server, drive: impl FnOnce(SocketAddr) -> T) -> T {
    /// Ends the accept loop when `drive` returns — or panics, which would
    /// otherwise leave the scope waiting on `accept()` forever.
    struct Stop<'a>(&'a AtomicBool, SocketAddr);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            // Relaxed: a pure loop-exit flag, it publishes nothing.
            self.0.store(true, Ordering::Relaxed);
            let _ = TcpStream::connect(self.1); // unblock accept()
        }
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind reference front");
    let addr = listener.local_addr().expect("reference front address");
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for stream in listener.incoming().flatten() {
                // Relaxed: loop-exit flag only, see `Stop`.
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                scope.spawn(move || serve_one_request(stream, server));
            }
        });
        let _stop = Stop(&stop, addr);
        drive(addr)
    })
}

/// Reads until one request is framed (or EOF / a 5 s stall hands over the
/// partial), answers it, closes.
fn serve_one_request(mut stream: TcpStream, server: &Server) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let peer_ip = stream
        .peer_addr()
        .map_or_else(|_| String::new(), |p| p.ip().to_string());
    let mut carry = Vec::new();
    let request = match read_frame(&mut stream, &mut carry) {
        Ok(Some(request)) => request,
        _ => carry, // EOF or stall: whatever arrived goes to the parser
    };
    if !request.is_empty() {
        let _ = stream.write_all(&server.handle_bytes(&request, &peer_ip).to_bytes());
    }
}

/// Resident-set size of this process in kilobytes, from
/// `/proc/self/status` (`VmRSS`); `None` off Linux or on parse failure.
#[must_use]
pub fn vm_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix("VmRSS:")?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    })
}

#[cfg(test)]
mod loopback_tests {
    use super::*;

    #[test]
    fn wires_preserve_headers_and_differ_on_connection_handling() {
        let request = HttpRequest::get("/x").with_header("authorization", "Basic abc");
        let raw = String::from_utf8(raw_wire(&request)).unwrap();
        assert!(raw.contains("connection: close\r\n"));
        assert!(raw.contains("authorization: Basic abc\r\n"));
        let keep = String::from_utf8(keepalive_wire(&request)).unwrap();
        assert!(!keep.contains("connection: close"));
        assert!(keep.contains("host: bench\r\n"));
        assert!(keep.contains("authorization: Basic abc\r\n"));
    }

    #[test]
    fn vm_rss_reads_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(vm_rss_kb().unwrap() > 0);
        }
    }
}
