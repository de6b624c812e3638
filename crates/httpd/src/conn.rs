//! The HTTP/1.x connection protocol as a socket-free state machine.
//!
//! One [`Conn`] is one client connection seen from the protocol's side:
//! bytes arrive ([`on_bytes`](Conn::on_bytes)), the peer half-closes
//! ([`on_eof`](Conn::on_eof)), the armed deadline fires
//! ([`on_deadline`](Conn::on_deadline)), a response becomes available
//! ([`respond`](Conn::respond)) — and [`step`](Conn::step) says what the
//! transport must do next: serve a framed request, flush response bytes,
//! wait for readiness under a named [`Deadline`], or close. The machine
//! owns every protocol decision exactly once:
//!
//! * **framing** — [`frame_len`] (head terminator + lenient
//!   `Content-Length`), resumed where the last search stopped so a
//!   trickled head costs linear, not quadratic, work;
//! * **persistence** — [`wants_keep_alive`]'s exact `Connection` tokens,
//!   HTTP/1.0 default close, the per-connection request cap, and close
//!   after a `400`/`413` (the framing is suspect);
//! * **truncation** — a partial request cut by EOF or by the 4 MiB
//!   transport cap is handed to the parser so it can answer, and the
//!   connection closes afterwards *even when the partial parses*: a
//!   lenient parser accepts a request line plus an unterminated header,
//!   and keep-alive there would hand a slow writer a fresh deadline window
//!   per cycle;
//! * **deadlines** — exactly one is armed at a time. The whole-request
//!   deadline is armed when the first byte of a request is buffered and is
//!   **never re-armed by later bytes**; the idle deadline bounds the gap
//!   between requests; the write deadline is re-armed only after write
//!   progress; the drain deadline bounds the tail of a refused connection.
//!   A deadline that fires always closes;
//! * **pipelining** — surplus bytes behind a frame carry over and are
//!   framed as soon as the response in front of them is flushed.
//!
//! Nothing here touches a socket, a clock or a thread, so the protocol is
//! tested by feeding bytes and virtual deadline events (the table tests
//! below); [`crate::reactor`] is the one transport that drives it. Per
//! request the data path is: read chunk appended to the carry buffer, one
//! `split_off` for the frame, one `to_wire` into the output buffer.

use crate::http::{HttpResponse, StatusCode};
use std::io::Read;

/// Transport-level cap on one buffered request: beyond it the partial is
/// handed to the parser (which answers `400`/`413`) instead of buffering
/// without bound.
const MAX_BUFFERED_REQUEST: usize = 1 << 22;

/// The deadline classes a connection can be under; the transport maps
/// each to a duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deadline {
    /// Between requests (and before the first): the keep-alive gap.
    Idle,
    /// From a request's first buffered byte to its complete frame.
    Request,
    /// A backpressured response waiting for the peer to read.
    Write,
    /// The tail of a refused connection waiting for the peer's EOF.
    Drain,
}

/// What the transport must do next.
#[derive(Debug, PartialEq, Eq)]
pub enum Step {
    /// Serve this framed request and hand the answer to
    /// [`respond`](Conn::respond). The request clock stops here — the
    /// transport disarms the deadline: server-side time is not
    /// client-controlled.
    Serve(Vec<u8>),
    /// Write [`pending`](Conn::pending) to the peer, reporting progress
    /// with [`wrote`](Conn::wrote) and a full socket with
    /// [`write_blocked`](Conn::write_blocked), then step again.
    Write,
    /// Wait for the given readiness; `arm` replaces the armed deadline,
    /// `None` leaves it running.
    Wait {
        /// Wake when the peer has sent bytes (or EOF).
        read: bool,
        /// Wake when the peer can take more bytes.
        write: bool,
        /// The deadline to arm now, if it changes.
        arm: Option<Deadline>,
    },
    /// Close the connection.
    Close,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Buffering / framing requests (idle gaps included).
    Reading,
    /// A framed request is out being served.
    Busy,
    /// Flushing a response.
    Writing,
    /// Refused: flush the refusal, then discard input until EOF so the
    /// close cannot turn into a reset that destroys the response.
    Drain,
    Closed,
}

/// One connection's protocol state.
#[derive(Debug)]
pub struct Conn {
    state: State,
    /// Buffered request bytes: the in-progress request plus any pipelined
    /// surplus behind it.
    carry: Vec<u8>,
    /// How much of `carry` has been searched for the head terminator.
    scanned: usize,
    /// Total length of the request at the front of `carry`, once its head
    /// is complete.
    need: Option<usize>,
    out: Vec<u8>,
    written: usize,
    served: u32,
    max_requests: u32,
    /// Whether the request being served may keep the connection open.
    allow_keep: bool,
    keep_after_write: bool,
    eof: bool,
    armed: Option<Deadline>,
}

impl Conn {
    /// A fresh connection that closes after `max_requests` requests.
    pub fn new(max_requests: u32) -> Conn {
        Conn {
            state: State::Reading,
            carry: Vec::new(),
            scanned: 0,
            need: None,
            out: Vec::new(),
            written: 0,
            served: 0,
            max_requests,
            allow_keep: false,
            keep_after_write: false,
            eof: false,
            armed: None,
        }
    }

    /// A connection refused at admission: `response` is sent, then input
    /// is drained until the peer's EOF (or the drain deadline).
    pub fn refusing(response: &HttpResponse) -> Conn {
        Conn {
            state: State::Drain,
            out: response.to_wire(false),
            ..Conn::new(0)
        }
    }

    /// Bytes arrived. Returns `false` once the transport cap is exceeded:
    /// stop reading and [`step`](Conn::step).
    pub fn on_bytes(&mut self, data: &[u8]) -> bool {
        if self.state != State::Drain {
            self.carry.extend_from_slice(data);
        }
        self.carry.len() <= MAX_BUFFERED_REQUEST
    }

    /// The peer half-closed: no more bytes will arrive.
    pub fn on_eof(&mut self) {
        self.eof = true;
    }

    /// The armed deadline fired. Whatever it caught — a half-trickled
    /// request, an idle gap, a stalled write, a lingering drain — the
    /// connection is cut. A partial request is *not* handed to the parser:
    /// a dribbled prefix that happens to parse earns no response, let
    /// alone a keep-alive renewal.
    pub fn on_deadline(&mut self) {
        self.state = State::Closed;
    }

    /// The response to the request handed out by [`Step::Serve`].
    pub fn respond(&mut self, response: &HttpResponse) {
        if self.state != State::Busy {
            return; // cut while the request was being served
        }
        // A parse-level failure leaves the connection's framing suspect:
        // close rather than guess where the next request starts.
        let keep = self.allow_keep
            && !matches!(
                response.status,
                StatusCode::BadRequest | StatusCode::PayloadTooLarge
            );
        self.out = response.to_wire(keep);
        self.written = 0;
        self.keep_after_write = keep;
        self.state = State::Writing;
    }

    /// Response bytes not yet written.
    pub fn pending(&self) -> &[u8] {
        self.out.get(self.written..).unwrap_or_default()
    }

    /// `n` bytes of [`pending`](Conn::pending) were written.
    pub fn wrote(&mut self, n: usize) {
        self.written += n;
        if n > 0 && self.state == State::Writing {
            self.armed = None; // progress: the next stall gets a fresh window
        }
    }

    /// The peer's window is full with bytes still pending.
    pub fn write_blocked(&mut self) -> Step {
        if self.state == State::Drain {
            self.wait(true, true, Deadline::Drain)
        } else {
            self.wait(false, true, Deadline::Write)
        }
    }

    /// Advances as far as possible without waiting.
    pub fn step(&mut self) -> Step {
        loop {
            match self.state {
                State::Closed => return Step::Close,
                State::Busy => {
                    return Step::Wait {
                        read: false,
                        write: false,
                        arm: None,
                    }
                }
                State::Writing | State::Drain if self.written < self.out.len() => {
                    return Step::Write
                }
                State::Writing => {
                    self.out.clear();
                    self.written = 0;
                    if !self.keep_after_write {
                        return self.close();
                    }
                    self.state = State::Reading;
                }
                // EOF on a refused connection: the peer saw the refusal.
                State::Drain if self.eof => return self.close(),
                State::Drain => return self.wait(true, false, Deadline::Drain),
                State::Reading => {
                    if let Some(len) = self.framed() {
                        let rest = self.carry.split_off(len);
                        let frame = std::mem::replace(&mut self.carry, rest);
                        return self.serve(frame, true);
                    }
                    if self.carry.len() > MAX_BUFFERED_REQUEST
                        || (self.eof && !self.carry.is_empty())
                    {
                        let partial = std::mem::take(&mut self.carry);
                        return self.serve(partial, false);
                    }
                    if self.eof {
                        return self.close();
                    }
                    // An empty buffer is the gap between requests; anything
                    // else is a request in flight, whose clock started when
                    // its first byte was buffered and is not reset here.
                    let deadline = if self.carry.is_empty() {
                        Deadline::Idle
                    } else {
                        Deadline::Request
                    };
                    return self.wait(true, false, deadline);
                }
            }
        }
    }

    fn close(&mut self) -> Step {
        self.state = State::Closed;
        Step::Close
    }

    /// Waits under `deadline`, arming it unless it is the one already
    /// running.
    fn wait(&mut self, read: bool, write: bool, deadline: Deadline) -> Step {
        let arm = (self.armed != Some(deadline)).then_some(deadline);
        self.armed = Some(deadline);
        Step::Wait { read, write, arm }
    }

    fn serve(&mut self, frame: Vec<u8>, complete: bool) -> Step {
        self.scanned = 0;
        self.need = None;
        self.served += 1;
        self.allow_keep = complete && self.served < self.max_requests && wants_keep_alive(&frame);
        self.state = State::Busy;
        self.armed = None;
        Step::Serve(frame)
    }

    /// Length of the complete request at the front of `carry`, if any.
    /// The terminator search resumes where the previous call stopped
    /// (minus the three bytes a split terminator can straddle), and the
    /// head is parsed for its declared length once.
    fn framed(&mut self) -> Option<usize> {
        if self.need.is_none() {
            let from = self.scanned.saturating_sub(3);
            match find_head_end(&self.carry, from) {
                Some(head_end) => self.need = Some(declared_total(&self.carry, head_end)),
                None => {
                    self.scanned = self.carry.len();
                    return None;
                }
            }
        }
        self.need.filter(|&total| self.carry.len() >= total)
    }
}

/// Offset of the first `\r\n\r\n` at or after `from`.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    buf.get(from..)?
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|at| from + at)
}

/// Head + terminator + declared body. The `Content-Length` read here is
/// *framing only* — lenient, first parseable copy — the strict parser
/// re-validates it before any handler sees the request. A length that
/// overflows saturates, so such a request never frames.
fn declared_total(buf: &[u8], head_end: usize) -> usize {
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let content_length = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        })
        .unwrap_or(0);
    head_end.saturating_add(4).saturating_add(content_length)
}

/// Total length (head + declared body) of the HTTP message at the front of
/// `buf` once it is completely buffered, else `None`. Frames requests and
/// responses alike.
pub fn frame_len(buf: &[u8]) -> Option<usize> {
    let total = declared_total(buf, find_head_end(buf, 0)?);
    (buf.len() >= total).then_some(total)
}

/// Blocking client-side framing for tests and load generators: reads from
/// `reader` until `carry` holds one complete message, splits it off and
/// returns it; surplus (a pipelined next message) stays in `carry`.
/// `Ok(None)` when the peer closes first — whatever arrived is left in
/// `carry`.
///
/// # Errors
///
/// Propagates read errors (a read timeout included).
pub fn read_frame(reader: &mut impl Read, carry: &mut Vec<u8>) -> std::io::Result<Option<Vec<u8>>> {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(len) = frame_len(carry) {
            let rest = carry.split_off(len);
            return Ok(Some(std::mem::replace(carry, rest)));
        }
        match reader.read(&mut chunk)? {
            0 => return Ok(None),
            n => carry.extend_from_slice(&chunk[..n]),
        }
    }
}

/// HTTP/1.x connection-persistence defaults: 1.1 keeps alive unless
/// `connection: close`; 1.0 closes unless `connection: keep-alive`.
///
/// The `Connection` header is a comma-separated token list; only an
/// *exact* `close` or `keep-alive` token counts. Substring matching would
/// let a `close-notify` or `keep-alives` token mis-negotiate persistence.
pub fn wants_keep_alive(raw: &[u8]) -> bool {
    let header_end = find_head_end(raw, 0).unwrap_or(raw.len());
    let head = String::from_utf8_lossy(&raw[..header_end]);
    let mut lines = head.lines();
    let http10 = lines
        .next()
        .is_some_and(|line| line.trim_end().ends_with("HTTP/1.0"));
    let connection = lines.find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.trim()
            .eq_ignore_ascii_case("connection")
            .then(|| value.trim().to_ascii_lowercase())
    });
    let Some(value) = connection else {
        return !http10;
    };
    let mut close = false;
    let mut keep = false;
    for token in value.split(',') {
        match token.trim() {
            "close" => close = true,
            "keep-alive" => keep = true,
            _ => {} // unrelated connection options (e.g. "upgrade")
        }
    }
    if close {
        false // close wins over keep-alive if both appear
    } else if keep {
        true
    } else {
        !http10
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{AccessControl, Server};
    use crate::vfs::Vfs;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One scripted input to the machine.
    #[derive(Debug, Clone, Copy)]
    enum In<'a> {
        Bytes(&'a [u8]),
        Eof,
        Deadline,
        /// The next write attempt finds the peer's window full.
        Stall,
    }

    /// Everything observable about one scripted run.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct Trace {
        /// Frames handed out by `Step::Serve`, in order.
        frames: Vec<Vec<u8>>,
        /// All response bytes written.
        wire: Vec<u8>,
        /// Every deadline armed, in order.
        arms: Vec<Deadline>,
        /// Whether the run ended in `Step::Close`.
        closed: bool,
    }

    impl Trace {
        /// `(status code, "keep-alive" | "close")` of each response.
        fn responses(&self) -> Vec<(u16, &'static str)> {
            let mut rest = &self.wire[..];
            let mut out = Vec::new();
            while let Some(len) = frame_len(rest) {
                let text = String::from_utf8_lossy(&rest[..len]);
                let status = text[9..12].parse().unwrap();
                let keep = text.contains("connection: keep-alive");
                out.push((status, if keep { "keep-alive" } else { "close" }));
                rest = &rest[len..];
            }
            assert!(rest.is_empty(), "trailing partial response");
            out
        }
    }

    fn server() -> Server {
        Server::new(Vfs::default_site(), AccessControl::Open)
    }

    /// Steps `conn` until it waits or closes, serving through `server` and
    /// writing everything unless `stall` says the peer's window is full.
    fn settle(conn: &mut Conn, server: &Server, stall: &mut bool, trace: &mut Trace) {
        loop {
            let step = match conn.step() {
                Step::Write if std::mem::take(stall) => conn.write_blocked(),
                step => step,
            };
            match step {
                Step::Serve(frame) => {
                    conn.respond(&server.handle_bytes(&frame, "192.0.2.1"));
                    trace.frames.push(frame);
                }
                Step::Write => {
                    let pending = conn.pending().to_vec();
                    conn.wrote(pending.len());
                    trace.wire.extend_from_slice(&pending);
                }
                Step::Wait { arm, .. } => {
                    trace.arms.extend(arm);
                    return;
                }
                Step::Close => {
                    trace.closed = true;
                    return;
                }
            }
        }
    }

    fn run_on(mut conn: Conn, script: &[In]) -> Trace {
        let server = server();
        let mut trace = Trace::default();
        let mut stall = false;
        settle(&mut conn, &server, &mut stall, &mut trace);
        for input in script {
            match input {
                In::Bytes(data) => {
                    conn.on_bytes(data);
                }
                In::Eof => conn.on_eof(),
                In::Deadline => conn.on_deadline(),
                In::Stall => {
                    stall = true;
                    continue;
                }
            }
            settle(&mut conn, &server, &mut stall, &mut trace);
        }
        trace
    }

    fn run(script: &[In]) -> Trace {
        run_on(Conn::new(100), script)
    }

    use Deadline::{Drain, Idle, Request, Write};

    /// The protocol table: every row is a behaviour the deleted pool
    /// front's socket tests pinned with real sockets and sleeps.
    #[test]
    fn protocol_table() {
        struct Row<'a> {
            name: &'a str,
            script: &'a [In<'a>],
            responses: &'a [(u16, &'a str)],
            arms: &'a [Deadline],
            closed: bool,
        }
        let rows = [
            Row {
                name: "keep-alive serves many requests, then honours close",
                script: &[
                    In::Bytes(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n"),
                    In::Bytes(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n"),
                    In::Bytes(b"GET /index.html HTTP/1.1\r\nConnection: close\r\n\r\n"),
                ],
                responses: &[(200, "keep-alive"), (200, "keep-alive"), (200, "close")],
                arms: &[Idle, Idle, Idle],
                closed: true,
            },
            Row {
                name: "http_1_0_defaults_to_close",
                script: &[In::Bytes(b"GET /index.html HTTP/1.0\r\n\r\n")],
                responses: &[(200, "close")],
                arms: &[Idle],
                closed: true,
            },
            Row {
                name: "pipelined_requests_are_each_answered",
                script: &[In::Bytes(
                    b"GET /index.html HTTP/1.1\r\n\r\nGET /docs/page1.html HTTP/1.1\r\nConnection: close\r\n\r\n",
                )],
                responses: &[(200, "keep-alive"), (200, "close")],
                arms: &[Idle],
                closed: true,
            },
            Row {
                name: "a pipelined partial starts its own request clock",
                script: &[In::Bytes(b"GET /index.html HTTP/1.1\r\n\r\nGET /docs/pa")],
                responses: &[(200, "keep-alive")],
                arms: &[Idle, Request],
                closed: false,
            },
            Row {
                name: "post_bodies_are_read_fully",
                script: &[
                    In::Bytes(b"POST /cgi-bin/test-cgi HTTP/1.1\r\ncontent-length: 7\r\n\r\npay"),
                    In::Bytes(b"load"),
                ],
                responses: &[(200, "keep-alive")],
                arms: &[Idle, Request, Idle],
                closed: false,
            },
            Row {
                name: "malformed request answers 400 and closes",
                script: &[In::Bytes(b"NONSENSE BYTES\r\n\r\n")],
                responses: &[(400, "close")],
                arms: &[Idle],
                closed: true,
            },
            Row {
                name: "slow writer: the request deadline is armed once, later bytes never re-arm it",
                script: &[
                    In::Bytes(b"G"),
                    In::Bytes(b"E"),
                    In::Bytes(b"T / HTT"),
                    In::Deadline,
                ],
                responses: &[],
                arms: &[Idle, Request],
                closed: true,
            },
            Row {
                name: "deadline_cut_partial_that_parses_cleanly_still_closes_the_connection",
                script: &[
                    In::Bytes(b"GET /index.html HTTP/1.1\r\nx-slow: "),
                    In::Bytes(b"a"),
                    In::Bytes(b"a"),
                    In::Deadline,
                ],
                responses: &[],
                arms: &[Idle, Request],
                closed: true,
            },
            Row {
                name: "EOF-cut partial that parses is answered, then closed",
                script: &[In::Bytes(b"GET /index.html HTTP/1.1\r\nx-slow: a"), In::Eof],
                responses: &[(200, "close")],
                arms: &[Idle, Request],
                closed: true,
            },
            Row {
                name: "EOF-cut body is the parser's 400",
                script: &[
                    In::Bytes(b"POST /index.html HTTP/1.1\r\ncontent-length: 9\r\n\r\nbo"),
                    In::Eof,
                ],
                responses: &[(400, "close")],
                arms: &[Idle, Request],
                closed: true,
            },
            Row {
                name: "half-close after a complete request still gets its answer",
                script: &[In::Bytes(b"GET /index.html HTTP/1.1\r\n\r\n"), In::Eof],
                responses: &[(200, "keep-alive")],
                arms: &[Idle, Idle],
                closed: true,
            },
            Row {
                name: "idle connection is cut at the idle deadline",
                script: &[In::Deadline],
                responses: &[],
                arms: &[Idle],
                closed: true,
            },
            Row {
                name: "write deadline under backpressure, re-armed only after progress",
                script: &[
                    In::Stall,
                    In::Bytes(b"GET /index.html HTTP/1.1\r\n\r\n"),
                    In::Deadline,
                ],
                responses: &[],
                arms: &[Idle, Write],
                closed: true,
            },
        ];
        for row in rows {
            let trace = run(row.script);
            assert_eq!(trace.responses(), row.responses, "{}: responses", row.name);
            assert_eq!(trace.arms, row.arms, "{}: deadlines armed", row.name);
            assert_eq!(trace.closed, row.closed, "{}: closed", row.name);
        }
    }

    #[test]
    fn request_cap_closes_the_connection() {
        let get = b"GET /index.html HTTP/1.1\r\n\r\n";
        let trace = run_on(
            Conn::new(3),
            &[In::Bytes(get), In::Bytes(get), In::Bytes(get)],
        );
        assert_eq!(
            trace.responses(),
            [(200, "keep-alive"), (200, "keep-alive"), (200, "close")]
        );
        assert!(trace.closed);
    }

    #[test]
    fn write_progress_earns_a_fresh_write_window() {
        let server = server();
        let mut conn = Conn::new(100);
        conn.on_bytes(b"GET /index.html HTTP/1.1\r\n\r\n");
        let Step::Serve(frame) = conn.step() else {
            panic!("expected a frame");
        };
        conn.respond(&server.handle_bytes(&frame, "192.0.2.1"));
        assert_eq!(conn.step(), Step::Write);
        let blocked = |arm| Step::Wait {
            read: false,
            write: true,
            arm,
        };
        assert_eq!(conn.write_blocked(), blocked(Some(Write)));
        // Still stalled with no progress: the window keeps running.
        assert_eq!(conn.write_blocked(), blocked(None));
        conn.wrote(10);
        assert_eq!(conn.write_blocked(), blocked(Some(Write)));
    }

    #[test]
    fn refused_connection_sends_its_answer_then_drains_to_eof() {
        let refusal = HttpResponse::with_status(StatusCode::ServiceUnavailable);
        let trace = run_on(
            Conn::refusing(&refusal),
            &[
                // The request the client had already sent is discarded, not served.
                In::Bytes(b"POST /index.html HTTP/1.1\r\nContent-Length: 8\r\n\r\n01234567"),
                In::Eof,
            ],
        );
        assert_eq!(trace.responses(), [(503, "close")]);
        assert!(trace.frames.is_empty());
        assert_eq!(trace.arms, [Drain]);
        assert!(trace.closed);

        // A stalled refusal keeps reading while it waits to write.
        let mut conn = Conn::refusing(&refusal);
        assert_eq!(conn.step(), Step::Write);
        assert_eq!(
            conn.write_blocked(),
            Step::Wait {
                read: true,
                write: true,
                arm: Some(Drain)
            }
        );
    }

    #[test]
    fn transport_cap_hands_the_partial_to_the_parser() {
        let server = server();
        let mut conn = Conn::new(100);
        conn.on_bytes(b"GET / HTTP/1.1\r\n");
        let filler = vec![b'a'; 1 << 20];
        let mut more = true;
        while more {
            more = conn.on_bytes(&filler);
        }
        let mut trace = Trace::default();
        settle(&mut conn, &server, &mut false, &mut trace);
        assert_eq!(trace.frames.len(), 1);
        assert!(trace.frames[0].len() > MAX_BUFFERED_REQUEST);
        assert!(matches!(trace.responses()[..], [(400 | 413, "close")]));
        assert!(trace.closed);
    }

    #[test]
    fn frame_len_framing() {
        assert_eq!(frame_len(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(frame_len(b"GET / HTTP/1.1\r\n\r\n"), Some(18));
        let post = b"POST / HTTP/1.1\r\ncontent-length: 4\r\n\r\nbody-and-more";
        assert_eq!(frame_len(post), Some(post.len() - "-and-more".len()));
        assert_eq!(
            frame_len(b"POST / HTTP/1.1\r\ncontent-length: 4\r\n\r\nbo"),
            None
        );
        // Responses frame the same way (the bench and test clients rely on it).
        let head = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\n";
        assert_eq!(frame_len(head), None);
        let mut full = head.to_vec();
        full.extend_from_slice(b"helloHTTP/1.1 200 ..."); // pipelined next frame
        assert_eq!(frame_len(&full), Some(head.len() + 5));
        // A declared length that overflows never frames (and never panics).
        let huge = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", usize::MAX);
        assert_eq!(frame_len(huge.as_bytes()), None);
    }

    #[test]
    fn keep_alive_negotiation() {
        assert!(wants_keep_alive(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(!wants_keep_alive(
            b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        ));
        assert!(!wants_keep_alive(b"GET / HTTP/1.0\r\n\r\n"));
        assert!(wants_keep_alive(
            b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        ));
    }

    #[test]
    fn keep_alive_requires_exact_tokens_not_substrings() {
        // "close-notify" is not "close": HTTP/1.1 default (keep) applies.
        assert!(wants_keep_alive(
            b"GET / HTTP/1.1\r\nConnection: close-notify\r\n\r\n"
        ));
        // "keep-alives" is not "keep-alive": HTTP/1.0 default (close).
        assert!(!wants_keep_alive(
            b"GET / HTTP/1.0\r\nConnection: keep-alives\r\n\r\n"
        ));
        // Exact tokens inside a comma-separated list still count.
        assert!(!wants_keep_alive(
            b"GET / HTTP/1.1\r\nConnection: upgrade, close\r\n\r\n"
        ));
        assert!(wants_keep_alive(
            b"GET / HTTP/1.0\r\nConnection: keep-alive, upgrade\r\n\r\n"
        ));
        // close wins when both appear.
        assert!(!wants_keep_alive(
            b"GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n"
        ));
    }

    /// The quadratic-head-scan regression: before the resumed search every
    /// piece re-scanned the whole buffer twice (2 MiB in 256-byte pieces is
    /// ~16 GB of comparisons — 9 s optimised, minutes unoptimised).
    #[test]
    fn trickled_unterminated_head_costs_linear_work() {
        let mut head = b"GET /index.html HTTP/1.1\r\nx-fill: ".to_vec();
        head.resize(2 << 20, b'a');
        let pieces: Vec<In> = head.chunks(256).map(In::Bytes).chain([In::Eof]).collect();
        let started = std::time::Instant::now();
        let piecewise = run(&pieces);
        let elapsed = started.elapsed();
        assert!(
            elapsed.as_secs() < 1,
            "2 MiB head in 256-byte pieces took {elapsed:?}"
        );
        // It ends in the parser's 4xx and a close…
        assert!(matches!(piecewise.responses()[..], [(400..=499, "close")]));
        assert!(piecewise.closed);
        // …and one-shot feeding yields the identical frame and answer.
        assert_eq!(run(&[In::Bytes(&head), In::Eof]), piecewise);
    }

    /// A large head whose body is trickled must not re-parse the head per
    /// piece either.
    #[test]
    fn trickled_body_behind_a_large_head_costs_linear_work() {
        let mut raw = b"POST /index.html HTTP/1.1\r\nx-fill: ".to_vec();
        raw.resize(1 << 20, b'a');
        raw.extend_from_slice(b"\r\ncontent-length: 1048576\r\n\r\n");
        let head_len = raw.len();
        raw.resize(head_len + (1 << 20), b'b');
        let pieces: Vec<In> = raw.chunks(256).map(In::Bytes).collect();
        let started = std::time::Instant::now();
        let trace = run(&pieces);
        let elapsed = started.elapsed();
        assert!(
            elapsed.as_secs() < 1,
            "1 MiB body behind a 1 MiB head took {elapsed:?}"
        );
        assert_eq!(trace.frames, [raw]);
    }

    /// One generated request: a method/target/version/header/body mix that
    /// covers keep-alive, close, HTTP/1.0, bodies, near-miss tokens and
    /// garbage.
    fn generated_request(rng: &mut StdRng) -> Vec<u8> {
        let target = [
            "/index.html",
            "/docs/page1.html",
            "/missing",
            "/cgi-bin/test-cgi?a=b",
        ][rng.gen_range(0..4)];
        let version = ["HTTP/1.1", "HTTP/1.1", "HTTP/1.0"][rng.gen_range(0..3)];
        let connection = [
            "",
            "",
            "Connection: close\r\n",
            "connection: keep-alive\r\n",
            "Connection: close-notify\r\n",
            "Connection: upgrade, close\r\n",
        ][rng.gen_range(0..6)];
        match rng.gen_range(0..10) {
            0 => b"NONSENSE\r\n\r\n".to_vec(),
            1 | 2 => {
                let body: Vec<u8> = (0..rng.gen_range(0..40)).map(|_| b'x').collect();
                let mut raw = format!(
                    "POST {target} {version}\r\n{connection}Content-Length: {}\r\n\r\n",
                    body.len()
                )
                .into_bytes();
                raw.extend_from_slice(&body);
                raw
            }
            _ => format!("GET {target} {version}\r\nhost: t\r\n{connection}\r\n").into_bytes(),
        }
    }

    /// Feeding a byte stream in two pieces, at *every* split point, yields
    /// the same frames, the same response bytes and the same close
    /// decision as feeding it whole — with and without a trailing EOF.
    #[test]
    fn every_split_point_frames_like_the_whole() {
        let mut rng = StdRng::seed_from_u64(0x5EED_C044);
        for case in 0..500 {
            let mut stream = Vec::new();
            for _ in 0..rng.gen_range(1..4) {
                stream.extend_from_slice(&generated_request(&mut rng));
            }
            if rng.gen_bool(0.2) {
                let cut = rng.gen_range(0..stream.len());
                stream.truncate(cut); // a truncated tail
            }
            let eof = rng.gen_bool(0.5);
            let tail: &[In] = if eof { &[In::Eof] } else { &[] };
            let whole = run(&[&[In::Bytes(&stream)], tail].concat());
            for at in 0..=stream.len() {
                let (a, b) = stream.split_at(at);
                let split = run(&[&[In::Bytes(a), In::Bytes(b)], tail].concat());
                assert_eq!(split.frames, whole.frames, "case {case} split {at}: frames");
                assert_eq!(split.wire, whole.wire, "case {case} split {at}: responses");
                assert_eq!(split.closed, whole.closed, "case {case} split {at}: close");
            }
        }
    }
}
