//! The serving front: an event-driven epoll reactor.
//!
//! A client that dribbles bytes — or simply holds a keep-alive connection
//! open — must cost a connection-state struct and a timer-wheel entry,
//! not a thread: slow-rate DoS is the class signature matching cannot
//! catch, so the serving *architecture* absorbs it (DESIGN.md §14).
//!
//! The HTTP/1.x connection protocol — framing, keep-alive, which deadline
//! is armed, when to close — is [`crate::conn::Conn`], a socket-free
//! state machine. This module only moves bytes and timer entries between
//! the kernel and that machine:
//!
//! * **Hand-rolled epoll** (raw `epoll_create1`/`epoll_ctl`/`epoll_wait`
//!   FFI in [`sys`] — the workspace vendors no `libc`-style crate, and the
//!   symbols are in the C library every Linux Rust binary already links);
//! * **Shards**: each shard is one thread owning an epoll instance, a
//!   connection slab, and a hashed [`TimerWheel`]. Shard 0 additionally
//!   owns the nonblocking listener and hands accepted connections
//!   round-robin to all shards through per-shard mailboxes + wake pipes;
//! * **One deadline per connection**: the machine names it
//!   ([`Deadline`]), the shard maps it to a duration from
//!   [`ReactorConfig`] and a wheel entry. Cancellation is lazy via
//!   generations;
//! * **Admission control**: beyond `max_connections` the accept path
//!   answers `503` on the spot (a [`Conn::refusing`] connection, drained
//!   so the reply is not destroyed by a reset racing unread request
//!   bytes), counts the shed, and flags `Component::Frontend`
//!   degradation;
//! * **Workers only for CGI**: requests the server routes to a CGI script
//!   (and injected latency faults, which block) are executed on a small
//!   worker pool and their responses delivered back to the owning shard
//!   via its mailbox; everything else — the common path — is served
//!   inline by the shard.
//!
//! The cross-thread pieces (stop flag, shed counter, connection count,
//! mailboxes) go through [`gaa_race::sync`] so the model checker can
//! schedule them; the `reactor_dispatch` scenario in `gaa-bench` explores
//! the dispatch/completion/wake protocol.

use crate::conn::{Conn, Deadline, Step};
use crate::http::{HttpRequest, HttpResponse, StatusCode};
use crate::server::Server;
use crate::timer::{TimerEntry, TimerWheel};
use gaa_audit::degrade::Component;
use gaa_audit::{Clock, DegradationState, SystemClock};
use gaa_faults::{Fault, FaultInjector, FaultSite};
// Cross-thread coordination goes through the gaa-race shim so the model
// checker can schedule and log it (zero-cost passthrough in normal builds).
use gaa_race::sync::{AtomicBool, AtomicU64, Mutex};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hand-rolled epoll bindings: the three syscall wrappers this front
/// needs, declared directly against the C library (no new dependencies).
mod sys {
    use std::os::raw::c_int;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;

    /// Mirrors `struct epoll_event`; the kernel ABI packs it on x86-64.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// A safe-ish wrapper over one epoll instance.
struct Epoll {
    fd: std::os::raw::c_int,
}

impl Epoll {
    fn new() -> std::io::Result<Epoll> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: std::os::raw::c_int, fd: i32, events: u32, data: u64) -> std::io::Result<()> {
        let mut ev = sys::EpollEvent { events, data };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { sys::epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: i32, events: u32, data: u64) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, events, data)
    }

    fn modify(&self, fd: i32, events: u32, data: u64) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, events, data)
    }

    fn delete(&self, fd: i32) {
        let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Waits up to `timeout_ms`; `EINTR` surfaces as an empty batch.
    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> usize {
        // SAFETY: the buffer is valid for `events.len()` entries.
        let n = unsafe {
            sys::epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as std::os::raw::c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            0
        } else {
            n as usize
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own the fd.
        unsafe {
            sys::close(self.fd);
        }
    }
}

/// Tuning for the reactor front.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Reactor shard threads (each owns an epoll instance and a slab).
    pub shards: usize,
    /// Worker threads for CGI requests and blocking fault injections.
    pub workers: usize,
    /// Connections admitted before the accept path sheds with `503`.
    pub max_connections: usize,
    /// Whole-request deadline: from the first byte of a request to its
    /// complete frame. Trickling bytes does not reset it.
    pub request_deadline: Duration,
    /// Keep-alive / pre-request idle deadline.
    pub idle_deadline: Duration,
    /// Write-progress deadline while a response is backpressured.
    pub write_deadline: Duration,
    /// Requests served on one connection before it is closed.
    pub max_requests_per_conn: u32,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            shards: std::thread::available_parallelism().map_or(1, |n| n.get().min(8)),
            workers: 2,
            max_connections: 4096,
            request_deadline: Duration::from_secs(10),
            idle_deadline: Duration::from_secs(5),
            write_deadline: Duration::from_secs(10),
            max_requests_per_conn: 100,
        }
    }
}

/// A CGI/fault job executed on the worker pool.
struct Job {
    shard: usize,
    slot: usize,
    conn_id: u64,
    /// The server's verdict on the raw frame: a parsed request to handle,
    /// or the refusal/4xx already decided.
    admitted: Result<HttpRequest, HttpResponse>,
    latency_ms: u64,
}

/// A finished worker job: the response for `slot`/`conn_id`.
struct Completion {
    slot: usize,
    conn_id: u64,
    response: HttpResponse,
}

/// Per-shard inbox: new connections handed over by the accepting shard
/// plus completed worker responses, all delivered under one lock and
/// signalled through the shard's wake pipe.
struct Mailbox {
    inbox: Mutex<MailboxState>,
    wake: UnixStream,
}

#[derive(Default)]
struct MailboxState {
    conns: Vec<(TcpStream, SocketAddr)>,
    completions: Vec<Completion>,
}

impl Mailbox {
    /// Writes one byte into the wake pipe; a full pipe means a wake is
    /// already pending, which is all the reader needs.
    fn wake(&self) {
        let _ = (&self.wake).write(&[1]);
    }

    fn push_conn(&self, stream: TcpStream, peer: SocketAddr) {
        self.inbox.lock().conns.push((stream, peer));
        self.wake();
    }

    fn push_completion(&self, completion: Completion) {
        self.inbox.lock().completions.push(completion);
        self.wake();
    }
}

/// Handle to a running reactor front.
pub struct ReactorFront {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    mailboxes: Vec<Arc<Mailbox>>,
    shard_threads: Vec<std::thread::JoinHandle<()>>,
    worker_threads: Vec<std::thread::JoinHandle<()>>,
    job_tx: Option<Sender<Job>>,
    rejected: Arc<AtomicU64>,
}

impl ReactorFront {
    /// Binds `addr` and serves `server` with the default tuning.
    ///
    /// # Errors
    ///
    /// Returns bind / epoll-creation / wake-pipe errors.
    pub fn spawn(addr: &str, server: Arc<Server>) -> std::io::Result<ReactorFront> {
        ReactorFront::spawn_with(addr, server, ReactorConfig::default(), None)
    }

    /// Binds `addr` and serves `server` with explicit tuning; the fault
    /// injector is consulted once per request at [`FaultSite::Tcp`]: an
    /// injected [`Fault::Error`] resets the connection mid-request (request
    /// consumed, no response); [`Fault::Latency`] delays the response by
    /// the given milliseconds.
    ///
    /// # Errors
    ///
    /// Returns bind / epoll-creation / wake-pipe errors.
    pub fn spawn_with(
        addr: &str,
        server: Arc<Server>,
        config: ReactorConfig,
        injector: Option<Arc<dyn FaultInjector>>,
    ) -> std::io::Result<ReactorFront> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::named("reactor.stop", false));
        let rejected = Arc::new(AtomicU64::named("reactor.rejected", 0));
        let active = Arc::new(AtomicU64::named("reactor.active", 0));
        let shards = config.shards.max(1);

        let mut mailboxes = Vec::with_capacity(shards);
        let mut wake_readers = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (reader, writer) = UnixStream::pair()?;
            reader.set_nonblocking(true)?;
            writer.set_nonblocking(true)?;
            mailboxes.push(Arc::new(Mailbox {
                inbox: Mutex::named("reactor.mailbox", MailboxState::default()),
                wake: writer,
            }));
            wake_readers.push(reader);
        }

        let (job_tx, job_rx) = channel::<Job>();
        let job_rx = Arc::new(Mutex::named("reactor.jobs", job_rx));
        let worker_threads = (0..config.workers.max(1))
            .map(|_| {
                let job_rx = Arc::clone(&job_rx);
                let server = Arc::clone(&server);
                let mailboxes = mailboxes.clone();
                std::thread::spawn(move || worker_loop(&job_rx, &server, &mailboxes))
            })
            .collect();

        let mut shard_threads = Vec::with_capacity(shards);
        let mut listener = Some(listener);
        for (id, wake_rx) in wake_readers.into_iter().enumerate() {
            let shard = Shard::new(
                id,
                listener.take(), // shard 0 owns the listener
                wake_rx,
                mailboxes.clone(),
                Arc::clone(&server),
                injector.clone(),
                config.clone(),
                job_tx.clone(),
                Arc::clone(&active),
                Arc::clone(&rejected),
                Arc::clone(&stop),
            )?;
            shard_threads.push(std::thread::spawn(move || shard.run()));
        }

        Ok(ReactorFront {
            addr: local,
            stop,
            mailboxes,
            shard_threads,
            worker_threads,
            job_tx: Some(job_tx),
            rejected,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections answered `503` because the front was at capacity.
    pub fn saturation_rejects(&self) -> u64 {
        // ordering: Relaxed — monotonic statistic; readers want a count,
        // not a snapshot consistent with other front state.
        self.rejected.load(Ordering::Relaxed)
    }

    /// Stops every shard and worker and joins them.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        // ordering: Relaxed — the stop flag is a pure loop-exit signal; the
        // joins below are the happens-before edges for everything else.
        self.stop.store(true, Ordering::Relaxed);
        for mailbox in &self.mailboxes {
            mailbox.wake();
        }
        for thread in self.shard_threads.drain(..) {
            let _ = thread.join();
        }
        // Dropping the job sender disconnects the workers' receive loop.
        drop(self.job_tx.take());
        for thread in self.worker_threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for ReactorFront {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Blocking one-shot HTTP client for tests and examples: sends `raw`,
/// half-closes the write side (so the keep-alive server sees EOF and
/// finishes), and returns the raw response bytes.
///
/// # Errors
///
/// Propagates connect/read/write errors.
pub fn send_raw(addr: SocketAddr, raw: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(raw)?;
    let _ = stream.shutdown(Shutdown::Write);
    let mut out = Vec::new();
    stream.read_to_end(&mut out)?;
    Ok(out)
}

/// Worker-pool body: serve CGI/latency jobs, deliver completions back to
/// the owning shard's mailbox, exit when the job channel disconnects.
fn worker_loop(rx: &Mutex<Receiver<Job>>, server: &Server, mailboxes: &[Arc<Mailbox>]) {
    loop {
        // Holding the lock across recv() is the classic shared-receiver
        // pattern: exactly one worker waits on the channel, the rest wait
        // on the mutex, and a delivered job releases both.
        let job = rx.lock().recv();
        let Ok(job) = job else {
            break;
        };
        if job.latency_ms > 0 {
            std::thread::sleep(Duration::from_millis(job.latency_ms));
        }
        let response = server.answer(job.admitted);
        if let Some(mailbox) = mailboxes.get(job.shard) {
            mailbox.push_completion(Completion {
                slot: job.slot,
                conn_id: job.conn_id,
                response,
            });
        }
    }
}

/// One live connection: the socket, its slab/epoll/timer bookkeeping, and
/// the protocol machine that decides what happens on it.
struct Entry {
    stream: TcpStream,
    peer_ip: String,
    slot: usize,
    /// Identity for worker completions; never reused across entries.
    conn_id: u64,
    conn: Conn,
    /// Timer-wheel generation; bumping it lazily cancels armed entries.
    generation: u64,
    /// Currently registered epoll interest mask.
    interest: u32,
}

/// What to do with a connection after driving it.
#[derive(PartialEq, Eq)]
enum Verdict {
    Keep,
    Close,
}

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;
/// How long a refused connection's drain tail may linger.
const DRAIN_DEADLINE: Duration = Duration::from_millis(250);

/// One reactor shard: an epoll instance, a connection slab, and a timer
/// wheel, all owned by a single thread.
struct Shard {
    id: usize,
    epoll: Epoll,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    mailboxes: Vec<Arc<Mailbox>>,
    server: Arc<Server>,
    injector: Option<Arc<dyn FaultInjector>>,
    config: ReactorConfig,
    job_tx: Sender<Job>,
    active: Arc<AtomicU64>,
    rejected: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    degradation: Option<DegradationState>,
    degraded_here: bool,
    conns: Vec<Option<Entry>>,
    free: Vec<usize>,
    wheel: TimerWheel,
    started: Instant,
    next_conn_id: u64,
    next_generation: u64,
    next_shard: usize,
    accept_backoff: Duration,
}

impl Shard {
    #[allow(clippy::too_many_arguments)]
    fn new(
        id: usize,
        listener: Option<TcpListener>,
        wake_rx: UnixStream,
        mailboxes: Vec<Arc<Mailbox>>,
        server: Arc<Server>,
        injector: Option<Arc<dyn FaultInjector>>,
        config: ReactorConfig,
        job_tx: Sender<Job>,
        active: Arc<AtomicU64>,
        rejected: Arc<AtomicU64>,
        stop: Arc<AtomicBool>,
    ) -> std::io::Result<Shard> {
        let epoll = Epoll::new()?;
        if let Some(l) = &listener {
            epoll.add(l.as_raw_fd(), sys::EPOLLIN, TOKEN_LISTENER)?;
        }
        epoll.add(wake_rx.as_raw_fd(), sys::EPOLLIN, TOKEN_WAKE)?;
        let degradation = server.degradation().cloned();
        Ok(Shard {
            id,
            epoll,
            listener,
            wake_rx,
            mailboxes,
            server,
            injector,
            config,
            job_tx,
            active,
            rejected,
            stop,
            degradation,
            degraded_here: false,
            conns: Vec::new(),
            free: Vec::new(),
            wheel: TimerWheel::new(512, Duration::from_millis(20)),
            started: Instant::now(),
            next_conn_id: 0,
            next_generation: 0,
            next_shard: 0,
            accept_backoff: Duration::from_millis(1),
        })
    }

    fn run(mut self) {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 256];
        let mut fired: Vec<TimerEntry> = Vec::new();
        loop {
            // ordering: Relaxed — loop-exit signal only; the front joins
            // the shard threads, which is the real happens-before edge.
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            let timeout_ms: i32 = if self.wheel.is_empty() { 250 } else { 20 };
            let n = self.epoll.wait(&mut events, timeout_ms);
            for ev in events.iter().take(n) {
                let (bits, token) = (ev.events, ev.data);
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.drain_wake(),
                    slot => self.conn_event(slot as usize, bits),
                }
            }
            let now = self.wheel.tick_for(self.started.elapsed());
            fired.clear();
            self.wheel.advance(now, &mut fired);
            for entry in &fired {
                self.deadline_fired(entry);
            }
        }
        // Shutdown: close everything this shard owns.
        for slot in 0..self.conns.len() {
            if let Some(entry) = self.conns[slot].take() {
                self.discard(entry);
            }
        }
    }

    // ---- accept path -------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            // ordering: Relaxed — loop-exit signal only; see `run`.
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, peer)) => {
                    self.accept_backoff = Duration::from_millis(1);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // ordering: Relaxed — admission control is a bounded
                    // heuristic; an off-by-a-few race on the count only
                    // sheds (or admits) a connection one accept early/late.
                    let full =
                        self.active.load(Ordering::Relaxed) >= self.config.max_connections as u64;
                    // ordering: Relaxed — monotonic count; a shed socket
                    // also counts against the cap until its drain ends.
                    self.active.fetch_add(1, Ordering::Relaxed);
                    if full {
                        self.shed(stream, peer);
                        continue;
                    }
                    self.recover();
                    let target = self.next_shard % self.mailboxes.len();
                    self.next_shard = self.next_shard.wrapping_add(1);
                    if target == self.id {
                        self.register(stream, peer);
                    } else if let Some(mailbox) = self.mailboxes.get(target) {
                        mailbox.push_conn(stream, peer);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) => {
                    // Transient accept failure (EMFILE, ECONNABORTED, …):
                    // audit, back off briefly, let level-triggered epoll
                    // re-report readiness — the listener must survive
                    // resource spikes.
                    self.mark_degraded(&format!("accept error: {e}"));
                    std::thread::sleep(self.accept_backoff);
                    self.accept_backoff = (self.accept_backoff * 2).min(Duration::from_millis(100));
                    return;
                }
            }
        }
    }

    /// At capacity: answer `503` immediately and drain, so unread request
    /// bytes cannot turn the close into a reset that destroys the reply.
    fn shed(&mut self, stream: TcpStream, peer: SocketAddr) {
        // ordering: Relaxed — monotonic statistic.
        self.rejected.fetch_add(1, Ordering::Relaxed);
        self.mark_degraded("connection limit reached");
        let refusal = HttpResponse::with_status(StatusCode::ServiceUnavailable);
        self.install(stream, peer, Conn::refusing(&refusal));
    }

    // ---- registration & teardown ------------------------------------

    fn register(&mut self, stream: TcpStream, peer: SocketAddr) {
        let conn = Conn::new(self.config.max_requests_per_conn);
        self.install(stream, peer, conn);
    }

    /// Installs a connection in the slab and epoll and takes the machine's
    /// first step (which arms its first deadline). If registration fails
    /// the connection is dropped and its admission count released.
    fn install(&mut self, stream: TcpStream, peer: SocketAddr, conn: Conn) {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        if self
            .epoll
            .add(stream.as_raw_fd(), sys::EPOLLIN, slot as u64)
            .is_err()
        {
            self.free.push(slot);
            // ordering: Relaxed — monotonic count release.
            self.active.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        self.next_conn_id += 1;
        self.settle(Entry {
            stream,
            peer_ip: peer.ip().to_string(),
            slot,
            conn_id: self.next_conn_id,
            conn,
            generation: 0,
            interest: sys::EPOLLIN,
        });
    }

    /// Drives a connection as far as it goes, then parks it back in its
    /// slab slot or closes it.
    fn settle(&mut self, mut entry: Entry) {
        match self.pump(&mut entry) {
            Verdict::Keep => {
                let slot = entry.slot;
                if slot < self.conns.len() {
                    self.conns[slot] = Some(entry);
                }
            }
            Verdict::Close => self.discard(entry),
        }
    }

    /// Closes a connection and releases its slot and admission count.
    fn discard(&mut self, entry: Entry) {
        self.epoll.delete(entry.stream.as_raw_fd());
        let _ = entry.stream.shutdown(Shutdown::Both);
        if entry.slot < self.conns.len() {
            self.free.push(entry.slot);
        }
        // ordering: Relaxed — monotonic count release.
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    // ---- timers ------------------------------------------------------

    /// Replaces the connection's single deadline. The old wheel entry, if
    /// any, is lazily cancelled by the generation bump; `None` only
    /// cancels.
    fn arm(&mut self, entry: &mut Entry, deadline: Option<Deadline>) {
        self.next_generation += 1;
        entry.generation = self.next_generation;
        let delay = match deadline {
            None => return,
            Some(Deadline::Idle) => self.config.idle_deadline,
            Some(Deadline::Request) => self.config.request_deadline,
            Some(Deadline::Write) => self.config.write_deadline,
            Some(Deadline::Drain) => DRAIN_DEADLINE,
        };
        let tick = self.wheel.tick_for(self.started.elapsed() + delay);
        self.wheel
            .schedule(entry.slot as u64, entry.generation, tick);
    }

    fn deadline_fired(&mut self, fired: &TimerEntry) {
        // A stale entry (the connection re-armed or died since) is ignored.
        let live = self
            .conns
            .get_mut(fired.token as usize)
            .and_then(|slot| slot.take_if(|entry| entry.generation == fired.generation));
        if let Some(mut entry) = live {
            entry.conn.on_deadline();
            self.settle(entry);
        }
    }

    // ---- wake pipe ---------------------------------------------------

    fn drain_wake(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut sink) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        let Some(mailbox) = self.mailboxes.get(self.id) else {
            return;
        };
        let MailboxState { conns, completions } = std::mem::take(&mut *mailbox.inbox.lock());
        for (stream, peer) in conns {
            self.register(stream, peer);
        }
        for completion in completions {
            self.apply_completion(completion);
        }
    }

    fn apply_completion(&mut self, completion: Completion) {
        // The connection may have died (and its slot been reused) while
        // the worker ran; its identity, not its slot, is what must match.
        let waiting = self
            .conns
            .get_mut(completion.slot)
            .and_then(|slot| slot.take_if(|entry| entry.conn_id == completion.conn_id));
        if let Some(mut entry) = waiting {
            entry.conn.respond(&completion.response);
            self.settle(entry);
        }
    }

    // ---- connection events -------------------------------------------

    fn conn_event(&mut self, slot: usize, bits: u32) {
        let Some(mut entry) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        if bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0
            || (bits & sys::EPOLLIN != 0 && self.read_some(&mut entry) == Verdict::Close)
        {
            self.discard(entry);
        } else {
            self.settle(entry);
        }
    }

    /// Feeds whatever the socket holds to the machine.
    fn read_some(&mut self, entry: &mut Entry) -> Verdict {
        let mut chunk = [0u8; 16384];
        loop {
            match entry.stream.read(&mut chunk) {
                Ok(0) => {
                    entry.conn.on_eof();
                    return Verdict::Keep;
                }
                Ok(n) => {
                    // Short read: the socket buffer is drained. The
                    // registration is level-triggered, so if more bytes
                    // race in, the next epoll_wait reports the fd again
                    // — no need to pay a read() just to see EAGAIN.
                    if !entry.conn.on_bytes(&chunk[..n]) || n < chunk.len() {
                        return Verdict::Keep;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Verdict::Keep,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Verdict::Close,
            }
        }
    }

    /// Carries out the machine's steps until it waits or closes.
    fn pump(&mut self, entry: &mut Entry) -> Verdict {
        let mut step = entry.conn.step();
        loop {
            step = match step {
                Step::Serve(frame) => {
                    self.arm(entry, None);
                    if self.serve(entry, &frame) == Verdict::Close {
                        return Verdict::Close;
                    }
                    entry.conn.step()
                }
                Step::Write => match self.write_some(entry) {
                    Some(ends_pump) => ends_pump,
                    None => entry.conn.step(),
                },
                Step::Wait { read, write, arm } => {
                    if arm.is_some() {
                        self.arm(entry, arm);
                    }
                    let mut events = 0;
                    if read {
                        events |= sys::EPOLLIN;
                    }
                    if write {
                        events |= sys::EPOLLOUT;
                    }
                    return self.want(entry, events);
                }
                Step::Close => return Verdict::Close,
            };
        }
    }

    /// Serves one framed request: consults the fault injector, then either
    /// dispatches to the worker pool (CGI / blocking faults) or handles it
    /// inline on the shard (the common path).
    fn serve(&mut self, entry: &mut Entry, frame: &[u8]) -> Verdict {
        let fault = self
            .injector
            .as_deref()
            .and_then(|i| i.fault_at(FaultSite::Tcp));
        let latency_ms = match fault {
            Some(Fault::Error | Fault::Panic) => {
                // Chaos: reset mid-request — request consumed, no response.
                return Verdict::Close;
            }
            Some(Fault::Latency(ms) | Fault::Hang(ms)) => ms,
            _ => 0,
        };
        let admitted = self.server.admit(frame, &entry.peer_ip);
        // The routing decision is the server's own: the path it parsed,
        // decoded and normalised, looked up in the tree it serves from.
        let heavy = latency_ms > 0
            || admitted
                .as_ref()
                .is_ok_and(|request| self.server.runs_cgi(request));
        if heavy {
            let job = Job {
                shard: self.id,
                slot: entry.slot,
                conn_id: entry.conn_id,
                admitted,
                latency_ms,
            };
            if self.job_tx.send(job).is_err() {
                return Verdict::Close; // workers are gone: shutting down
            }
            return Verdict::Keep;
        }
        entry.conn.respond(&self.server.answer(admitted));
        Verdict::Keep
    }

    /// Writes the machine's pending bytes. `None` when they are flushed;
    /// otherwise the step that ends this pump — the wait the machine asks
    /// for when the socket fills, or a close.
    fn write_some(&mut self, entry: &mut Entry) -> Option<Step> {
        loop {
            let pending = entry.conn.pending();
            if pending.is_empty() {
                return None;
            }
            match entry.stream.write(pending) {
                Ok(0) => return Some(Step::Close),
                Ok(n) => entry.conn.wrote(n),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    return Some(entry.conn.write_blocked())
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Some(Step::Close),
            }
        }
    }

    /// Updates the connection's epoll interest mask if it changed.
    fn want(&mut self, entry: &mut Entry, events: u32) -> Verdict {
        if entry.interest == events {
            return Verdict::Keep;
        }
        entry.interest = events;
        match self
            .epoll
            .modify(entry.stream.as_raw_fd(), events, entry.slot as u64)
        {
            Ok(()) => Verdict::Keep,
            Err(_) => Verdict::Close,
        }
    }

    // ---- degradation bookkeeping ------------------------------------

    fn mark_degraded(&mut self, reason: &str) {
        if !self.degraded_here {
            self.degraded_here = true;
            if let Some(d) = &self.degradation {
                d.mark_degraded(Component::Frontend, reason, SystemClock::new().now());
            }
        }
    }

    fn recover(&mut self) {
        if self.degraded_here {
            self.degraded_here = false;
            if let Some(d) = &self.degradation {
                d.mark_recovered(Component::Frontend, SystemClock::new().now());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cgi::{CgiBehavior, CgiScript};
    use crate::conn::read_frame;
    use crate::server::AccessControl;
    use crate::vfs::Vfs;
    use std::net::{IpAddr, Ipv4Addr};

    fn open_server() -> Arc<Server> {
        Arc::new(Server::new(Vfs::default_site(), AccessControl::Open))
    }

    fn spawn_default() -> ReactorFront {
        ReactorFront::spawn("127.0.0.1:0", open_server()).unwrap()
    }

    /// Reads one response off a persistent connection, carrying pipelined
    /// surplus over in `carry`.
    fn read_one_response(stream: &mut TcpStream, carry: &mut Vec<u8>) -> Vec<u8> {
        read_frame(stream, carry)
            .unwrap()
            .expect("connection closed mid-response")
    }

    #[test]
    fn serves_real_sockets() {
        let front = spawn_default();
        let addr = front.addr();
        let response = send_raw(addr, b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let text = String::from_utf8_lossy(&response);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("Welcome"));
        let response = send_raw(addr, b"GET /missing HTTP/1.1\r\n\r\n").unwrap();
        assert!(String::from_utf8_lossy(&response).starts_with("HTTP/1.1 404"));
        front.stop();
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let front = spawn_default();
        let mut stream = TcpStream::connect(front.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut carry = Vec::new();
        for i in 0..5 {
            stream
                .write_all(b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            let response = read_one_response(&mut stream, &mut carry);
            let text = String::from_utf8_lossy(&response);
            assert!(text.starts_with("HTTP/1.1 200 OK"), "request {i}: {text}");
            assert!(text.contains("connection: keep-alive"), "request {i}");
        }
        stream
            .write_all(b"GET /index.html HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let response = read_one_response(&mut stream, &mut carry);
        assert!(String::from_utf8_lossy(&response).contains("connection: close"));
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "server must close after connection: close");
        front.stop();
    }

    #[test]
    fn pipelined_requests_are_each_answered() {
        let front = spawn_default();
        let mut stream = TcpStream::connect(front.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
            .write_all(
                b"GET /index.html HTTP/1.1\r\n\r\nGET /docs/page1.html HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
        let mut carry = Vec::new();
        let first = read_one_response(&mut stream, &mut carry);
        assert!(String::from_utf8_lossy(&first).contains("Welcome"));
        let second = read_one_response(&mut stream, &mut carry);
        assert!(String::from_utf8_lossy(&second).contains("Documentation page 1"));
        front.stop();
    }

    #[test]
    fn cgi_requests_run_on_the_worker_pool() {
        let front = spawn_default();
        let raw = b"POST /cgi-bin/test-cgi HTTP/1.1\r\ncontent-length: 7\r\n\r\npayload";
        let response = send_raw(front.addr(), raw).unwrap();
        let text = String::from_utf8_lossy(&response);
        assert!(text.contains("QUERY_STRING = payload"), "{text}");
        // Keep-alive across a dispatched CGI request also works.
        let mut stream = TcpStream::connect(front.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut carry = Vec::new();
        for _ in 0..2 {
            stream
                .write_all(b"GET /cgi-bin/test-cgi HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            let response = read_one_response(&mut stream, &mut carry);
            assert!(String::from_utf8_lossy(&response).starts_with("HTTP/1.1 200"));
        }
        front.stop();
    }

    #[test]
    fn at_capacity_new_connections_are_shed_with_a_readable_503() {
        let config = ReactorConfig {
            max_connections: 1,
            ..ReactorConfig::default()
        };
        let front = ReactorFront::spawn_with("127.0.0.1:0", open_server(), config, None).unwrap();
        let addr = front.addr();
        // Occupy the only admitted slot with an idle keep-alive connection.
        let mut holder = TcpStream::connect(addr).unwrap();
        holder
            .write_all(b"GET /index.html HTTP/1.1\r\n\r\n")
            .unwrap();
        let mut carry = Vec::new();
        holder
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let _ = read_one_response(&mut holder, &mut carry);
        // Every further client must *read* a 503, even with its request
        // bytes still unread in the socket when the shed path answers.
        for _ in 0..4 {
            let response = send_raw(
                addr,
                b"POST /index.html HTTP/1.1\r\nContent-Length: 8\r\n\r\n01234567",
            )
            .unwrap();
            assert!(
                String::from_utf8_lossy(&response).starts_with("HTTP/1.1 503"),
                "shed client must observe the 503"
            );
        }
        assert!(front.saturation_rejects() >= 4);
        front.stop();
    }

    #[test]
    fn slow_writer_is_cut_at_the_whole_request_deadline() {
        let config = ReactorConfig {
            request_deadline: Duration::from_millis(500),
            idle_deadline: Duration::from_secs(30),
            ..ReactorConfig::default()
        };
        let front = ReactorFront::spawn_with("127.0.0.1:0", open_server(), config, None).unwrap();
        let started = Instant::now();
        let mut slow = TcpStream::connect(front.addr()).unwrap();
        slow.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        // Dribble a never-completing request; the whole-request deadline
        // must cut the connection no matter how often bytes arrive.
        let mut buf = [0u8; 256];
        let mut closed = false;
        for byte in b"GET / HTTP/1.1" {
            if slow.write_all(&[*byte]).is_err() {
                closed = true;
                break;
            }
            match slow.read(&mut buf) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(_) => unreachable!("no response expected for a partial request"),
                Err(_) => {} // read timeout: keep dribbling
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        // A final read observes the close if a write didn't.
        if !closed {
            slow.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
            closed = matches!(slow.read(&mut buf), Ok(0) | Err(_));
        }
        let elapsed = started.elapsed();
        assert!(closed, "slow connection must be cut");
        assert!(
            elapsed >= Duration::from_millis(400) && elapsed < Duration::from_secs(5),
            "cut must land near the 500ms whole-request deadline, took {elapsed:?}"
        );
        front.stop();
    }

    #[test]
    fn idle_connections_are_cut_at_the_idle_deadline() {
        let config = ReactorConfig {
            idle_deadline: Duration::from_millis(300),
            ..ReactorConfig::default()
        };
        let front = ReactorFront::spawn_with("127.0.0.1:0", open_server(), config, None).unwrap();
        let mut idle = TcpStream::connect(front.addr()).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let started = Instant::now();
        let mut buf = [0u8; 64];
        let n = idle.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "idle connection must see EOF, not data");
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "idle cut must land near the 300ms deadline"
        );
        front.stop();
    }

    #[test]
    fn injected_reset_drops_the_connection_then_recovers() {
        use gaa_faults::{Fault, FaultPlan, FaultSite};
        let plan = FaultPlan::builder(7)
            .fail_nth(FaultSite::Tcp, 0, Fault::Error)
            .build();
        let front = ReactorFront::spawn_with(
            "127.0.0.1:0",
            open_server(),
            ReactorConfig::default(),
            Some(Arc::new(plan)),
        )
        .unwrap();
        let addr = front.addr();
        let response = send_raw(addr, b"GET /index.html HTTP/1.1\r\n\r\n");
        let empty = match response {
            Ok(bytes) => bytes.is_empty(),
            Err(_) => true, // a hard reset may also surface as an I/O error
        };
        assert!(empty, "reset connection must not deliver a response");
        let response = send_raw(addr, b"GET /index.html HTTP/1.1\r\n\r\n").unwrap();
        assert!(String::from_utf8_lossy(&response).starts_with("HTTP/1.1 200"));
        front.stop();
    }

    #[test]
    fn multiple_shards_share_the_accepted_load() {
        let config = ReactorConfig {
            shards: 2,
            ..ReactorConfig::default()
        };
        let front = ReactorFront::spawn_with("127.0.0.1:0", open_server(), config, None).unwrap();
        // Round-robin puts consecutive connections on different shards;
        // all of them must serve.
        for i in 0..6 {
            let response =
                send_raw(front.addr(), b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            assert!(
                String::from_utf8_lossy(&response).starts_with("HTTP/1.1 200"),
                "connection {i} failed"
            );
        }
        front.stop();
    }

    #[test]
    fn stop_joins_promptly() {
        let front = spawn_default();
        // Leave a live keep-alive connection behind: stop must not hang.
        let mut stream = TcpStream::connect(front.addr()).unwrap();
        stream
            .write_all(b"GET /index.html HTTP/1.1\r\n\r\n")
            .unwrap();
        let started = Instant::now();
        front.stop();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "stop must join shards and workers promptly, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn stopping_a_wildcard_bound_front_is_prompt() {
        let front = ReactorFront::spawn("0.0.0.0:0", open_server()).unwrap();
        // Sanity: it serves (via loopback — 0.0.0.0 is not a destination).
        let addr = SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), front.addr().port());
        let response = send_raw(addr, b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        assert!(String::from_utf8_lossy(&response).starts_with("HTTP/1.1 200"));
        let started = Instant::now();
        front.stop();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "stop() must not depend on connecting to the bound address; took {:?}",
            started.elapsed()
        );
    }

    /// The worker-pool dispatch decision is the server's routing decision:
    /// a CGI target that is percent-encoded, reached through dot segments,
    /// or mounted outside `/cgi-bin/` must not run on the shard thread.
    /// One shard and one worker make both halves observable: while the
    /// only worker is busy with the slow script, a static GET is still
    /// answered — so the script is *not* on the shard (it would stall the
    /// GET) and the GET is *not* on the worker pool (it would queue).
    #[test]
    fn cgi_dispatch_follows_the_servers_routing_not_the_raw_target() {
        let slow = CgiScript {
            name: "slow".into(),
            behavior: CgiBehavior::Compute {
                base_cost: 0,
                per_byte: 10_000_000,
                mem_per_byte: 0,
            },
        };
        let mut vfs = Vfs::default_site();
        vfs.add_cgi("/cgi-bin/slow", slow.clone());
        vfs.add_cgi("/tools/slow", slow);
        let server = Arc::new(Server::new(vfs, AccessControl::Open));
        // Size the query so the script runs ~400 ms on this build profile.
        let probe = Instant::now();
        server.handle(HttpRequest::get("/tools/slow?x"));
        let per_byte = probe.elapsed().max(Duration::from_micros(1));
        let bytes = (Duration::from_millis(400).as_micros() / per_byte.as_micros().max(1))
            .clamp(1, 4000) as usize;
        let query = "x".repeat(bytes);

        let config = ReactorConfig {
            shards: 1,
            workers: 1,
            ..ReactorConfig::default()
        };
        let front = ReactorFront::spawn_with("127.0.0.1:0", server, config, None).unwrap();
        let addr = front.addr();
        for target in ["/%63gi-bin/slow", "/docs/../cgi-bin/slow", "/tools/slow"] {
            let raw = format!("GET {target}?{query} HTTP/1.1\r\nHost: t\r\n\r\n");
            let script = std::thread::spawn(move || {
                let response = send_raw(addr, raw.as_bytes()).unwrap();
                (response, Instant::now())
            });
            std::thread::sleep(Duration::from_millis(50)); // script is running
            let page = send_raw(addr, b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let page_done = Instant::now();
            let (response, script_done) = script.join().unwrap();
            assert!(String::from_utf8_lossy(&page).starts_with("HTTP/1.1 200"));
            let text = String::from_utf8_lossy(&response);
            assert!(text.starts_with("HTTP/1.1 200"), "{target}: {text}");
            assert!(text.contains("computed over"), "{target}: {text}");
            assert!(
                page_done < script_done,
                "{target}: the static GET waited for the script — it ran on the shard"
            );
        }
        front.stop();
    }

    #[test]
    fn oversized_requests_are_rejected_not_buffered_forever() {
        let front = spawn_default();
        let mut stream = TcpStream::connect(front.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Headers that never end, larger than the transport cap.
        let filler = vec![b'a'; 1 << 20];
        let mut sent = 0usize;
        let _ = stream.write_all(b"GET / HTTP/1.1\r\n");
        while sent <= (1 << 22) + (1 << 20) {
            if stream.write_all(&filler).is_err() {
                break; // server already cut us off: also acceptable
            }
            sent += filler.len();
        }
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        let text = String::from_utf8_lossy(&response);
        assert!(
            response.is_empty()
                || text.starts_with("HTTP/1.1 400")
                || text.starts_with("HTTP/1.1 413"),
            "oversized request must be rejected, got: {:?}",
            &text[..text.len().min(80)]
        );
        front.stop();
    }
}
