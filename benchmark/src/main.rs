//! The repository's benchmark: four seeded workloads against one
//! production configuration, end-to-end metrics with tracing off
//! (`--trace 0`) and an outside-in per-layer trace (`--trace 1`).
//!
//! ```text
//! gaa-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!               [--repeat K] [--smoke] [--write-spec]
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` both kinds
//! of run are made. The last line of standard output of each run is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; everything
//! for people goes to standard error. See `README.md`.

mod cpu;
mod deploy;
mod gen;
mod load;
mod net;
mod spec;
mod stats;
mod trace;

use deploy::{Deployment, Scale, Twin};
use gen::{Generator, Phase, Script};
use load::Tally;
use spec::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WINDOWS};
use stats::{median, quartile_spread, supports};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Layer;

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: end-to-end run, `Some(true)`: traced run, `None`: both.
    trace: Option<bool>,
    repeat: usize,
    smoke: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!(
        "usage: gaa-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--repeat K] [--smoke] [--write-spec]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut options = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 11,
        seconds: RUN_SECONDS as f64,
        trace: None,
        repeat: 1,
        smoke: false,
    };
    let mut seconds_given = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                let workload = Workload::from_name(&name)
                    .unwrap_or_else(|| usage(&format!("unknown workload `{name}`")));
                options.workloads = vec![workload];
            }
            "--seed" => {
                options.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a whole number"))
            }
            "--seconds" => {
                options.seconds = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds takes a number"));
                seconds_given = true;
            }
            "--trace" => {
                options.trace = match value().as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--repeat" => {
                options.repeat = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--repeat takes a count"))
            }
            "--smoke" => options.smoke = true,
            "--write-spec" => {
                let path = deploy::bench_root().join("../BENCHMARK.json");
                std::fs::write(&path, spec::benchmark_json())
                    .unwrap_or_else(|e| usage(&format!("{}: {e}", path.display())));
                eprintln!("wrote {}", path.display());
                std::process::exit(0);
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if options.smoke && !seconds_given {
        options.seconds = 3.0;
    }
    if !(options.seconds > 0.0 && options.seconds <= 60.0) || options.repeat == 0 {
        usage("--seconds must be in (0, 60] and --repeat at least 1");
    }
    options
}

/// Pairs every metric of a `spec` table with its measured value.
fn metrics(
    table: impl Iterator<Item = (&'static str, &'static str)>,
    values: &[(&str, f64)],
) -> Vec<(&'static str, &'static str, f64)> {
    table
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|(measured, _)| *measured == name)
                .unwrap_or_else(|| panic!("no value measured for metric {name}"));
            (name, unit, value.1)
        })
        .collect()
}

/// One run's result: what the last line of standard output carries.
struct RunResult {
    correct: bool,
    tally: Tally,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.tally.attempted.max(1),
            self.tally.failed()
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let comma = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{comma}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// The value of metric `name` in a result line printed by [`RunResult::json`].
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

fn vm_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|line| {
            line.strip_prefix("VmRSS:")?
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0.0);
    kb / 1024.0
}

/// The host as the run uses it: one load lane (thread and connection) per
/// CPU, and which CPUs the generator and the server run on.
struct Host {
    lanes: u32,
    placement: cpu::Placement,
}

impl Host {
    /// Reads the allowed CPUs and moves the calling (main) thread, from
    /// which every deployment is spawned, onto the server's half.
    fn claim() -> Host {
        let cpus = cpu::allowed();
        let placement = cpu::Placement::of(&cpus);
        cpu::pin(&placement.server);
        Host {
            lanes: (cpus.len().max(1) as u32).min(gen::LEGIT_SOURCES),
            placement,
        }
    }

    /// CPUs the server's threads run on (all of them when nothing is pinned).
    fn server_cpus(&self) -> f64 {
        if self.placement.server.is_empty() {
            f64::from(self.lanes)
        } else {
            self.placement.server.len() as f64
        }
    }

    fn generators(
        &self,
        workload: Workload,
        scale: Scale,
        seed: u64,
        phase: Phase,
    ) -> Vec<Generator> {
        (0..self.lanes)
            .map(|lane| Generator::new(workload, scale, seed, phase, lane, self.lanes))
            .collect()
    }

    /// What the closed loop leaves per request on the server's CPUs after
    /// the request path itself: kernel socket work plus the front.
    fn socket_us(&self, rps: f64, svc_us_p50: f64) -> f64 {
        self.server_cpus() * 1e6 / rps - svc_us_p50
    }
}

/// Replays `scripts` serially in process and returns every status.
fn replay(deployment: &Deployment, scripts: &[Script]) -> Vec<u16> {
    scripts
        .iter()
        .flat_map(|script| {
            let ip = script.source.to_string();
            script
                .requests
                .iter()
                .map(move |r| deployment.server.handle_bytes(&r.wire, &ip).status.code())
        })
        .collect()
}

/// The correctness gate: production twin, reference twin and the
/// generator's expectation must agree on every status.
fn check_gate(scripts: &[Script], reference: &[u16], production: &[u16]) -> Result<(), String> {
    let requests = scripts
        .iter()
        .flat_map(|s| s.requests.iter().map(move |r| (s.source, r)));
    for (i, (source, request)) in requests.enumerate() {
        if reference[i] != request.expect || production[i] != request.expect {
            let line = String::from_utf8_lossy(&request.wire);
            return Err(format!(
                "correctness gate: request {i} from {source} ({}) expected {} but the reference twin \
                 answered {} and the production twin {}",
                line.lines().next().unwrap_or(""),
                request.expect,
                reference[i],
                production[i]
            ));
        }
    }
    Ok(())
}

/// A gated production deployment behind its front, with the first timed
/// set-up.
struct Gated {
    deployment: Deployment,
    front: gaa_httpd::ReactorFront,
    setup_s: f64,
    tally: Tally,
}

/// Builds the reference twin, replays the gate sample, drops it (so the
/// production deployment's memory is measured alone), then sets the
/// production deployment up under the clock and gates it.
fn gated_set_up(workload: Workload, scale: Scale, seed: u64) -> Result<Gated, String> {
    let scripts =
        Generator::new(workload, scale, seed, Phase::Gate, 0, 1).take_requests(spec::GATE_REQUESTS);
    eprintln!(
        "  gate sample: {} requests in {} scripts, stream hash {:016x}",
        scripts.iter().map(|s| s.requests.len()).sum::<usize>(),
        scripts.len(),
        gen::stream_hash(&scripts)
    );
    let reference = replay(
        &Deployment::build(workload, scale, Twin::Reference),
        &scripts,
    );
    let start = Instant::now();
    let (deployment, front) = deploy::set_up(workload, scale);
    let setup_s = start.elapsed().as_secs_f64();
    let production = replay(&deployment, &scripts);
    check_gate(&scripts, &reference, &production)?;
    let tally = Tally {
        attempted: production.len() as u64,
        ..Tally::default()
    };
    Ok(Gated {
        deployment,
        front,
        setup_s,
        tally,
    })
}

struct Plan {
    scale: Scale,
    trace_requests: usize,
    setup_reps: usize,
    in_process: Duration,
    window: Duration,
}

impl Plan {
    /// Splits `seconds` of measuring: a fifth in process, two fifths each
    /// for the closed and the open loop, in `WINDOWS` windows apiece.
    fn new(workload: Workload, options: &Options) -> Plan {
        let smoke = options.smoke;
        Plan {
            scale: Scale {
                principals: if smoke { 10_000 } else { 1_000_000 },
            },
            trace_requests: if smoke { 2_000 } else { spec::TRACE_REQUESTS },
            setup_reps: if smoke { 1 } else { workload.setup_reps() },
            in_process: Duration::from_secs_f64(options.seconds * 0.2),
            window: Duration::from_secs_f64(options.seconds * 0.4 / WINDOWS as f64),
        }
    }
}

/// `--trace 0`: set-up, gate, the three timed phases, memory, and the
/// remaining set-up repetitions.
fn end_to_end(workload: Workload, host: &Host, options: &Options) -> Result<RunResult, String> {
    let plan = Plan::new(workload, options);
    let Gated {
        deployment,
        front,
        setup_s,
        mut tally,
    } = gated_set_up(workload, plan.scale, options.seed)?;
    let mut setups = vec![setup_s];

    let open_twin = deployment.open_twin();
    let mut generator = Generator::new(workload, plan.scale, options.seed, Phase::InProcess, 0, 1);
    let in_process = load::in_process(
        &deployment.server,
        &open_twin,
        &mut generator,
        plan.in_process,
    );
    drop(open_twin);
    let rate = workload.open_rate_rps();
    let open = load::open_loop(
        front.addr(),
        host.generators(workload, plan.scale, options.seed, Phase::Open),
        plan.window,
        rate,
        options.seed,
        &host.placement.generator,
    );
    // Memory is read here, after the fixed-rate phase: the closed loop that
    // follows leaves behind state in proportion to its own throughput (the
    // reactor's timer wheel keeps an entry per request until its deadline),
    // which would make a faster server look larger.
    let rss_mb = vm_rss_mb();
    let closed = load::closed_loop(
        front.addr(),
        host.generators(workload, plan.scale, options.seed, Phase::Closed),
        plan.window,
        &host.placement.generator,
    );
    let saturation_rejects = front.saturation_rejects();
    front.stop();
    drop(deployment);
    for _ in 1..plan.setup_reps {
        let start = Instant::now();
        let (deployment, front) = deploy::set_up(workload, plan.scale);
        setups.push(start.elapsed().as_secs_f64());
        front.stop();
        drop(deployment);
    }

    let correct =
        in_process.tally.wrong_status + closed.tally.wrong_status + open.tally.wrong_status == 0;
    for phase in [&in_process.tally, &closed.tally, &open.tally] {
        tally.add(phase);
    }
    let svc_p50 = in_process.all.quantile_us(0.5);
    let gaa_share = 1.0 - in_process.open.quantile_us(0.5) / in_process.legit.quantile_us(0.5);
    let lat = |p: f64| -> Vec<f64> { open.windows.iter().map(|w| w.quantile_us(p)).collect() };
    let (lat_p50, lat_p95, lat_p99) = (lat(0.5), lat(0.95), lat(0.99));
    let rps = median(&closed.window_rps);

    eprintln!(
        "  in-process {:.1} s: {} requests, svc p50 {:.3} us  p99 {:.3} us  p99.9 {:.3} us; open twin p50 {:.3} us",
        plan.in_process.as_secs_f64(),
        in_process.all.count(),
        svc_p50,
        in_process.all.quantile_us(0.99),
        in_process.all.quantile_us(0.999),
        in_process.open.quantile_us(0.5),
    );
    eprintln!(
        "  closed loop {WINDOWS} x {:.2} s, {} connections: rps median {:.0} (quartile spread {:.1} %), \
         {} connects, {} saturation rejects; socket+front {:.2} us per request on the server's CPUs",
        plan.window.as_secs_f64(),
        host.lanes,
        rps,
        100.0 * quartile_spread(&closed.window_rps),
        closed.connects,
        saturation_rejects,
        host.socket_us(rps, svc_p50),
    );
    let samples = open.windows.iter().map(|w| w.count()).min().unwrap_or(0);
    eprintln!(
        "  open loop {WINDOWS} x {:.2} s at {rate} rps: p50 {:.1} us ({:.1} %)  p95 {:.1} us ({:.1} %)  \
         p99 {:.1} us ({:.1} %){}; {} sends over 1 ms late, {} replies over {} ms",
        plan.window.as_secs_f64(),
        median(&lat_p50),
        100.0 * quartile_spread(&lat_p50),
        median(&lat_p95),
        100.0 * quartile_spread(&lat_p95),
        median(&lat_p99),
        100.0 * quartile_spread(&lat_p99),
        if supports(0.999, samples) {
            format!("  p99.9 {:.1} us", median(&lat(0.999)))
        } else {
            String::new() // too few samples per window to report it
        },
        open.late_sends,
        open.tally.late,
        spec::LATE_REPLY_MS,
    );
    if !supports(0.95, samples) {
        eprintln!("  warning: a window holds {samples} samples, fewer than p95 needs (200)");
    }
    eprintln!(
        "  set-up x{}: median {:.4} s (quartile spread {:.1} %); rss {:.1} MB",
        setups.len(),
        median(&setups),
        100.0 * quartile_spread(&setups),
        rss_mb
    );

    let values = [
        ("setup_s", median(&setups)),
        ("svc_us_p50", svc_p50),
        ("svc_us_p99", in_process.all.quantile_us(0.99)),
        ("gaa_share", gaa_share),
        ("rps", rps),
        ("lat_us_p50", median(&lat_p50)),
        ("lat_us_p95", median(&lat_p95)),
        ("rss_mb", rss_mb),
    ];
    Ok(RunResult {
        correct,
        tally,
        metrics: metrics(END_TO_END.iter().map(|m| (m.name, m.unit)), &values),
    })
}

/// `--trace 1`: a short untraced measurement (for the tracing overhead and
/// the derived socket cost), then the traced pass over fresh twins.
fn traced(workload: Workload, host: &Host, options: &Options) -> Result<RunResult, String> {
    let plan = Plan::new(workload, options);
    let Gated {
        deployment,
        front,
        mut tally,
        ..
    } = gated_set_up(workload, plan.scale, options.seed)?;

    let open_twin = deployment.open_twin();
    let mut generator = Generator::new(workload, plan.scale, options.seed, Phase::InProcess, 0, 1);
    let in_process = load::in_process(
        &deployment.server,
        &open_twin,
        &mut generator,
        plan.in_process / 2,
    );
    drop(open_twin);
    let closed = load::closed_loop(
        front.addr(),
        host.generators(workload, plan.scale, options.seed, Phase::Closed),
        plan.window / 2,
        &host.placement.generator,
    );
    let saturation_rejects = front.saturation_rejects();
    front.stop();
    drop(deployment);

    let scripts = Generator::new(workload, plan.scale, options.seed, Phase::Trace, 0, 1)
        .take_requests(plan.trace_requests);
    let pass = trace::traced_pass(
        workload,
        plan.scale,
        &scripts,
        plan.trace_requests,
        Duration::from_secs_f64(options.seconds * 0.25),
    );
    let out_dir = deploy::bench_root().join("out");
    let trace_file = out_dir.join(format!("trace-{}.jsonl", workload.name()));
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| pass.tracer.write_jsonl(&trace_file))
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;

    let correct =
        in_process.tally.wrong_status + closed.tally.wrong_status + pass.tally.wrong_status == 0;
    for phase in [&in_process.tally, &closed.tally, &pass.tally] {
        tally.add(phase);
    }
    let t = &pass.tracer;
    let c = &pass.counters;
    let svc_p50 = in_process.all.quantile_us(0.5);
    let rps = median(&closed.window_rps);
    let p50 = |layer| t.p50_us(layer);
    let values: Vec<(&str, f64)> = vec![
        ("httpd.handle_bytes_us", p50(Layer::HandleBytes)),
        (
            "httpd.bytes_self_us",
            t.p50_self_us(Layer::HandleBytes, &[Layer::Parse, Layer::ServerHandle]),
        ),
        ("http.parse_us", p50(Layer::Parse)),
        ("http.serialize_us", p50(Layer::Serialize)),
        ("server.handle_us", p50(Layer::ServerHandle)),
        ("server.handle_us_p99", t.p99_us(Layer::ServerHandle)),
        (
            "server.self_us",
            t.p50_self_us(Layer::ServerHandle, &[Layer::Authorize]),
        ),
        ("server.open_us", p50(Layer::ServerOpen)),
        ("glue.authorize_us", p50(Layer::Authorize)),
        ("glue.authorize_us_p99", t.p99_us(Layer::Authorize)),
        ("glue.context_us", p50(Layer::Context)),
        ("ids.scan_us", p50(Layer::Scan)),
        ("ids.reports", c.ids_reports as f64),
        ("core.dcache_hit_ratio", c.dcache_hit_ratio),
        ("core.dcache_invalidations", c.dcache_invalidations as f64),
        ("conditions.oracle_us", p50(Layer::Oracle)),
        ("core.policy_fetch_us", p50(Layer::PolicyFetch)),
        ("core.eval_interp_us", p50(Layer::EvalInterp)),
        ("core.eval_compiled_us", p50(Layer::EvalCompiled)),
        ("core.slice_hit_ratio", c.slice_hit_ratio),
        ("core.slice_guard_fallbacks", c.slice_guard_fallbacks as f64),
        ("core.slice_proof_us", p50(Layer::SliceProof)),
        ("core.exec_control_us", p50(Layer::ExecControl)),
        ("core.exec_control_us_p99", t.p99_us(Layer::ExecControl)),
        ("core.post_exec_us", p50(Layer::PostExec)),
        ("core.post_exec_us_p99", t.p99_us(Layer::PostExec)),
        ("auth.verify_us", p50(Layer::AuthVerify)),
        ("auth.share_authenticated", c.share_authenticated),
        ("audit.record_us", p50(Layer::AuditRecord)),
        ("audit.records", c.audit_records as f64),
        ("eacl.parse_us", p50(Layer::EaclParse)),
        ("eacl.compose_us", p50(Layer::EaclCompose)),
        ("front.socket_us", host.socket_us(rps, svc_p50)),
        (
            "front.reconnects",
            closed.connects.saturating_sub(u64::from(host.lanes)) as f64,
        ),
        ("front.saturation_rejects", saturation_rejects as f64),
        ("trace.svc_us_p50", pass.svc_us_p50),
        ("trace.overhead_share", pass.svc_us_p50 / svc_p50 - 1.0),
    ];

    eprintln!(
        "  untraced svc p50 {svc_p50:.3} us, closed-loop rps {rps:.0}; traced sample {} requests, spans in {}",
        plan.trace_requests,
        trace_file.display()
    );
    eprintln!(
        "  {:<22} {:>8} {:>11} {:>11} {:>9}",
        "span", "calls", "p50 us", "p99 us", "of svc"
    );
    for layer in Layer::ALL {
        eprintln!(
            "  {:<22} {:>8} {:>11.3} {:>11.3} {:>8.1}%",
            layer.name(),
            t.calls(layer),
            t.p50_us(layer),
            t.p99_us(layer),
            100.0 * t.p50_us(layer) / svc_p50
        );
    }

    Ok(RunResult {
        correct,
        tally,
        metrics: metrics(PER_LAYER.iter().map(|m| (m.name, m.unit)), &values),
    })
}

fn run(workload: Workload, trace: bool, host: &Host, options: &Options) -> RunResult {
    eprintln!(
        "== {} --trace {} seed {} seconds {}{}",
        workload.name(),
        u8::from(trace),
        options.seed,
        options.seconds,
        if options.smoke { " (smoke)" } else { "" }
    );
    let result = if trace {
        traced(workload, host, options)
    } else {
        end_to_end(workload, host, options)
    };
    let result = result.unwrap_or_else(|problem| {
        // A failed gate prints no numbers.
        eprintln!("{problem}");
        std::process::exit(1);
    });
    for (name, unit, value) in &result.metrics {
        eprintln!("  {name:<28} {value:>14.4} {unit}");
    }
    eprintln!(
        "  attempted {} failed {} (wrong status {}, i/o {}); {} open-loop replies over the limit",
        result.tally.attempted,
        result.tally.failed(),
        result.tally.wrong_status,
        result.tally.io_errors,
        result.tally.late
    );
    println!("{}", result.json());
    result
}

/// `rustc -V` of the toolchain on the path (the one `cargo run` built with).
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// `--repeat K`: whole sets in alternation over the workloads, then for
/// each end-to-end metric and workload the distance between the sets as a
/// share of their median, against the metric's bound.
fn agreement(sets: &[Vec<(Workload, String)>]) -> (String, bool) {
    let mut table = format!(
        "{:<12} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "lowest", "highest", "spread", "bound"
    );
    let mut agree = true;
    for (index, (workload, _)) in sets[0].iter().enumerate() {
        for metric in &END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .map(|set| metric_value(&set[index].1, metric.name).unwrap_or(f64::NAN))
                .collect();
            let low = values.iter().copied().fold(f64::INFINITY, f64::min);
            let high = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = (high - low) / median(&values);
            let within = spread <= metric.bound; // false for a missing (NaN) value
            agree &= within;
            let _ = writeln!(
                table,
                "{:<12} {:<12} {low:>14.4} {high:>14.4} {:>8.1}% {:>6.0}%  {}",
                workload.name(),
                metric.name,
                100.0 * spread,
                100.0 * metric.bound,
                if within { "agree" } else { "DISAGREE" }
            );
        }
    }
    (table, agree)
}

fn print_header(host: &Host, options: &Options) {
    eprintln!(
        "gaa-benchmark: seed {}, nproc {} ({} load threads and connections on CPUs {:?}, server on CPUs {:?}), \
         {} s per run, in-process {:.2} s, {WINDOWS} windows of {:.2} s per socket phase",
        options.seed,
        host.lanes,
        host.lanes,
        host.placement.generator,
        host.placement.server,
        options.seconds,
        options.seconds * 0.2,
        options.seconds * 0.4 / WINDOWS as f64,
    );
    eprintln!(
        "  kernel {}, {}; traffic crosses the host loopback, server and generator share one process",
        std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        rustc_version(),
    );
    let rates: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("{} {}", w.name(), w.open_rate_rps()))
        .collect();
    eprintln!("  open_rate_rps: {}", rates.join(", "));
}

/// Makes one run in a child process and returns its result line. Several
/// runs in one process would not be independent: memory freed by the
/// million-principal deployment stays resident, and `rss_mb` of every
/// later run would read 450 MB.
fn run_in_child(workload: Workload, trace: bool, options: &Options) -> String {
    let mut command = std::process::Command::new(
        std::env::current_exe()
            .unwrap_or_else(|e| usage(&format!("cannot find my own binary: {e}"))),
    );
    command
        .args(["--workload", workload.name()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(options.smoke.then_some("--smoke"))
        .stderr(std::process::Stdio::inherit());
    let output = command
        .output()
        .unwrap_or_else(|e| usage(&format!("cannot start a run: {e}")));
    if !output.status.success() {
        std::process::exit(1);
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    println!("{line}");
    line
}

fn main() {
    let options = parse_args();
    let kinds: &[bool] = match options.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let runs: Vec<(Workload, bool)> = options
        .workloads
        .iter()
        .flat_map(|&workload| kinds.iter().map(move |&trace| (workload, trace)))
        .collect();

    // What the driver asks for: one workload, one kind of run, this process.
    if let ([(workload, trace)], 1) = (&runs[..], options.repeat) {
        let host = Host::claim();
        print_header(&host, &options);
        if !run(*workload, *trace, &host, &options).correct {
            eprintln!("a reply carried an unexpected status: the result is marked incorrect");
            std::process::exit(1);
        }
        return;
    }

    let mut sets: Vec<Vec<(Workload, String)>> = Vec::new();
    for _ in 0..options.repeat {
        let mut set = Vec::new();
        for &(workload, trace) in &runs {
            let line = run_in_child(workload, trace, &options);
            if !trace {
                set.push((workload, line));
            }
        }
        sets.push(set);
    }
    if options.repeat > 1 && !sets[0].is_empty() {
        let (table, agree) = agreement(&sets);
        eprint!("{table}");
        if !options.smoke {
            let path = deploy::bench_root().join("out/agreement.txt");
            let header = format!(
                "# gaa-benchmark --repeat {} --seed {} --seconds {}: spread between sets = (highest - lowest) / median\n",
                options.repeat, options.seed, options.seconds
            );
            if let Err(e) = std::fs::write(&path, header + &table) {
                eprintln!("{}: {e}", path.display());
            }
        }
        if !agree {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Scale = Scale { principals: 10_000 };

    #[test]
    fn gate_passes_on_every_workload_and_trips_on_a_flipped_status() {
        for workload in Workload::ALL {
            let mut scripts =
                Generator::new(workload, SMALL, 11, Phase::Gate, 0, 1).take_requests(300);
            let reference = replay(
                &Deployment::build(workload, SMALL, Twin::Reference),
                &scripts,
            );
            let production = replay(
                &Deployment::build(workload, SMALL, Twin::Production),
                &scripts,
            );
            check_gate(&scripts, &reference, &production)
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));

            let flipped = &mut scripts[0].requests[3];
            flipped.expect = if flipped.expect == 200 { 403 } else { 200 };
            let problem = check_gate(&scripts, &reference, &production).unwrap_err();
            assert!(problem.contains("request 3 "), "{problem}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            correct: true,
            tally: Tally {
                attempted: 10,
                io_errors: 1,
                late: 3,
                ..Tally::default()
            },
            metrics: vec![("rps", "1/s", 41234.56789), ("setup_s", "s", 0.0123)],
        };
        assert_eq!(
            result.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\
             \"rps\": {\"value\": 41234.56789, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.0123, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn agreement_flags_a_metric_outside_its_bound() {
        let set = |rps: f64| {
            let metrics = END_TO_END
                .iter()
                .map(|m| (m.name, m.unit, if m.name == "rps" { rps } else { 1.0 }))
                .collect();
            let result = RunResult {
                correct: true,
                tally: Tally::default(),
                metrics,
            };
            vec![(Workload::StaticHot, result.json())]
        };
        assert!(agreement(&[set(40_000.0), set(41_000.0)]).1);
        let (table, agree) = agreement(&[set(40_000.0), set(60_000.0)]);
        assert!(!agree && table.contains("DISAGREE"));
    }
}
