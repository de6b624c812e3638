//! The timed phases: in-process service time, open-loop latency and
//! closed-loop throughput. One process generates all load, with one thread
//! and one keep-alive connection per core of the host, never more; the load
//! threads run on the generator's half of the CPUs (see `cpu.rs`).

use crate::gen::{Generator, Request, Script};
use crate::net::Client;
use crate::spec::{LATE_REPLY_MS, WINDOWS};
use crate::stats::Histogram;
use gaa_httpd::Server;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Requests sent and what went wrong with them. `wrong_status` are replies
/// whose status is not the expected one (a 200 for an attack line and a 403
/// for a clean client both count); `io_errors` are requests with no reply
/// within the socket timeout. `late` are open-loop replies later than
/// `LATE_REPLY_MS`: printed, not failed — on a shared host a stall of the
/// whole guest crosses that limit about once in forty runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub wrong_status: u64,
    pub io_errors: u64,
    pub late: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.wrong_status + self.io_errors
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.wrong_status += other.wrong_status;
        self.io_errors += other.io_errors;
        self.late += other.late;
    }
}

/// Bytes in, `Server::handle_bytes`, bytes out: the service time in ns and
/// the status answered.
fn serve(server: &Server, request: &Request, ip: &str) -> (u64, u16) {
    let start = Instant::now();
    let response = server.handle_bytes(&request.wire, ip);
    let bytes = response.to_wire(true);
    let ns = start.elapsed().as_nanos() as u64;
    std::hint::black_box(bytes);
    (ns, response.status.code())
}

pub struct InProcess {
    /// Service time of every request on the GAA server.
    pub all: Histogram,
    /// Service time of the legitimate requests on the GAA server ...
    pub legit: Histogram,
    /// ... and of the same requests on the open twin.
    pub open: Histogram,
    pub tally: Tally,
}

/// One thread, no kernel: bytes in, `Server::handle_bytes`, bytes out, each
/// request timed. Every legitimate script is then replayed on the open twin,
/// so both sides of `gaa_share` see the same requests under the same
/// machine conditions, a hundred requests apart.
pub fn in_process(
    server: &Server,
    open: &Server,
    generator: &mut Generator,
    length: Duration,
) -> InProcess {
    let mut result = InProcess {
        all: Histogram::new(),
        legit: Histogram::new(),
        open: Histogram::new(),
        tally: Tally::default(),
    };
    let deadline = Instant::now() + length;
    while Instant::now() < deadline {
        let script = generator.next_script();
        let ip = script.source.to_string();
        let legit = script.is_legit();
        for request in &script.requests {
            let (ns, status) = serve(server, request, &ip);
            result.all.record(ns);
            if legit {
                result.legit.record(ns);
            }
            result.tally.attempted += 1;
            result.tally.wrong_status += u64::from(status != request.expect);
        }
        if legit {
            for request in &script.requests {
                let (ns, status) = serve(open, request, &ip);
                result.open.record(ns);
                result.tally.wrong_status += u64::from(status != 200);
            }
        }
    }
    result
}

/// One lane's connection: follows its generator's scripts, one connection
/// per script, opened from the script's source address.
struct Lane {
    server: SocketAddr,
    generator: Generator,
    script: Script,
    next: usize,
    client: Option<Client>,
    connects: u64,
}

impl Lane {
    fn new(server: SocketAddr, mut generator: Generator) -> Lane {
        let script = generator.next_script();
        Lane {
            server,
            generator,
            script,
            next: 0,
            client: None,
            connects: 0,
        }
    }

    /// Opens the current script's connection if it is not open yet.
    fn connect(&mut self) -> std::io::Result<()> {
        if self.client.is_none() {
            self.connects += 1;
            self.client = Some(Client::connect(self.script.source, self.server)?);
        }
        Ok(())
    }

    /// Sends the next request of the script and checks the reply; true for
    /// a reply with the expected status. At the script's end (or when the
    /// server closes) the connection is dropped and the next script's
    /// connection opened at once, so in the open loop the connect happens
    /// in the idle gap before the next request is due.
    fn step(&mut self, tally: &mut Tally) -> bool {
        tally.attempted += 1;
        let connected = self.connect();
        let request = &self.script.requests[self.next];
        let outcome = match (connected, self.client.as_mut()) {
            (Ok(()), Some(client)) => client.exchange(&request.wire),
            (Err(error), _) => Err(error),
            (Ok(()), None) => Err(std::io::ErrorKind::NotConnected.into()),
        };
        self.next += 1;
        let (ok, closing) = match outcome {
            Ok(reply) => {
                let ok = reply.status == request.expect;
                tally.wrong_status += u64::from(!ok);
                (ok, reply.closing)
            }
            Err(_) => {
                tally.io_errors += 1;
                (false, true)
            }
        };
        if self.next == self.script.requests.len() {
            self.script = self.generator.next_script();
            self.next = 0;
            self.client = None;
            let _ = self.connect();
        } else if closing {
            self.client = None;
        }
        ok
    }
}

/// Runs one load thread per generator on the generator's `cpus`. Each
/// connects its lane, waits for the others at a barrier, then runs `body`
/// with its lane index; the bodies' results come back in lane order.
fn run_lanes<T: Send>(
    server: SocketAddr,
    generators: Vec<Generator>,
    cpus: &[usize],
    body: impl Fn(usize, &mut Lane) -> T + Sync,
) -> Vec<T> {
    let barrier = Barrier::new(generators.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = generators
            .into_iter()
            .enumerate()
            .map(|(index, generator)| {
                let (barrier, body) = (&barrier, &body);
                scope.spawn(move || {
                    crate::cpu::pin(cpus);
                    crate::cpu::precise_sleeps();
                    let mut lane = Lane::new(server, generator);
                    let _ = lane.connect();
                    barrier.wait();
                    body(index, &mut lane)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load lane panicked"))
            .collect()
    })
}

pub struct ClosedLoop {
    /// Correct replies per second in each window, all lanes together.
    pub window_rps: Vec<f64>,
    pub tally: Tally,
    pub connects: u64,
}

/// Closed loop: each lane sends its next request when the reply arrives.
/// With one lane per CPU of the host against a server on half of them, the
/// server is never idle: this is its capacity figure.
pub fn closed_loop(
    server: SocketAddr,
    generators: Vec<Generator>,
    window: Duration,
    cpus: &[usize],
) -> ClosedLoop {
    let per_lane = run_lanes(server, generators, cpus, |_, lane| {
        let mut ok = [0u64; WINDOWS];
        let mut tally = Tally::default();
        let start = Instant::now();
        loop {
            let mut one = Tally::default();
            let correct = lane.step(&mut one);
            let slot = (start.elapsed().as_nanos() / window.as_nanos()) as usize;
            if slot >= WINDOWS {
                break; // the reply that crossed the end is not counted
            }
            tally.add(&one);
            ok[slot] += u64::from(correct);
        }
        (ok, tally, lane.connects)
    });
    let mut result = ClosedLoop {
        window_rps: vec![0.0; WINDOWS],
        tally: Tally::default(),
        connects: 0,
    };
    for (ok, tally, connects) in per_lane {
        for (slot, count) in ok.iter().enumerate() {
            result.window_rps[slot] += *count as f64 / window.as_secs_f64();
        }
        result.tally.add(&tally);
        result.connects += connects;
    }
    result
}

pub struct OpenLoop {
    /// Latency from due time, per window, all lanes together.
    pub windows: Vec<Histogram>,
    pub tally: Tally,
    /// Sends that started more than 1 ms after they were due (how late the
    /// generator itself ran; printed for information).
    pub late_sends: u64,
}

/// Waits until `due`: sleeps to within 30 µs of it (the lane has asked for
/// precise sleeps), then yields in a loop — the lanes share the generator's
/// CPUs, so the wait must not keep another lane from reading its reply.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(60) {
            std::thread::sleep(left - Duration::from_micros(30));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Open loop at `rate_rps` over all lanes: each request has a due time on a
/// schedule fixed by `seed` and is timed from that instant, whenever it was
/// actually sent, so a stall charges every request it delays. Arrivals are
/// Poisson (independent users): a metronome lets the lanes lock into one
/// phase against each other for a whole run, and which phase differs from
/// run to run.
pub fn open_loop(
    server: SocketAddr,
    generators: Vec<Generator>,
    window: Duration,
    rate_rps: u64,
    seed: u64,
    cpus: &[usize],
) -> OpenLoop {
    let mean_gap = generators.len() as f64 / rate_rps as f64;
    let limit = Duration::from_millis(LATE_REPLY_MS);
    let per_lane = run_lanes(server, generators, cpus, |index, lane| {
        let mut windows = vec![Histogram::new(); WINDOWS];
        let mut tally = Tally::default();
        let mut late_sends = 0u64;
        let mut gaps = StdRng::seed_from_u64(seed ^ (0x09e7 + index as u64));
        let start = Instant::now();
        let mut offset = Duration::ZERO;
        loop {
            // Exponential gap with the lane's mean.
            offset += Duration::from_secs_f64(-mean_gap * (1.0 - gaps.gen::<f64>()).ln());
            let slot = (offset.as_nanos() / window.as_nanos()) as usize;
            if slot >= WINDOWS {
                break;
            }
            let due = start + offset;
            wait_until(due);
            late_sends += u64::from(due.elapsed() > Duration::from_millis(1));
            lane.step(&mut tally);
            let latency = due.elapsed();
            tally.late += u64::from(latency > limit);
            windows[slot].record(latency.as_nanos() as u64);
        }
        (windows, tally, late_sends)
    });
    let mut result = OpenLoop {
        windows: vec![Histogram::new(); WINDOWS],
        tally: Tally::default(),
        late_sends: 0,
    };
    for (windows, tally, late_sends) in per_lane {
        for (merged, lane) in result.windows.iter_mut().zip(&windows) {
            merged.merge(lane);
        }
        result.tally.add(&tally);
        result.late_sends += late_sends;
    }
    result
}
