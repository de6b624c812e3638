//! Closed-world concurrency scenarios for the `gaa-race` model checker.
//!
//! Each scenario builds *fresh* shared state (real production components —
//! [`DecisionCache`], [`ThreatMonitor`], [`CircuitBreakerNotifier`],
//! [`DegradationState`] — not mocks), spawns a small number of model
//! threads through [`Exec`], and asserts its invariants after
//! `Exec::join_all`. The [`gaa_race::Explorer`] then drives every
//! interleaving up to a preemption bound (plus seeded random batches) and
//! funnels each execution's event log through the data-race and
//! lock-cycle detectors.
//!
//! The scenarios mirror the hazards called out in DESIGN.md §10:
//!
//! * `cache_stamp` — a decision-cache insert racing a threat-epoch bump;
//!   the PR-4 stamp recheck must keep every stale grant invisible.
//! * `threat_escalation` — suspicion-driven escalation (`Low → Medium →
//!   High`) while an evaluation is in flight.
//! * `breaker_half_open` — two callers racing the circuit breaker's
//!   half-open probe while the transport recovers; breaker phase and the
//!   `Notifier` degradation mirror must never diverge.
//! * `swarm_epoch` — two real `gaa-swarm` nodes exchanging threat-epoch
//!   bumps while local detections fire on both; after reconciliation the
//!   fleet pair must converge with the higher level winning.
//! * `reactor_dispatch` — the epoll reactor's worker handoff: shard
//!   dispatches jobs, workers complete into the shard mailbox and signal
//!   the (coalescing) wake pipe; every completion must be applied exactly
//!   once, under any interleaving of completions and wake coalescing.
//!
//! All nondeterminism beyond scheduling comes from the scenario seed, so
//! any failure reproduces from the printed seed + schedule alone.

use gaa_audit::degrade::Component;
use gaa_audit::notify::{CircuitBreakerNotifier, Notification, Notifier, NotifyError};
use gaa_audit::{AuditLog, Clock, DegradationState, VirtualClock};
use gaa_core::{CacheStamp, DecisionCache, GaaStatus};
use gaa_ids::{ThreatLevel, ThreatMonitor};
use gaa_race::sync::{AtomicBool, AtomicU64, Condvar, Mutex};
use gaa_race::{Exec, Explorer, Report};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// A boxed scenario body, runnable many times under different schedules.
pub type ScenarioFn = Box<dyn Fn(&mut Exec) + Send + Sync>;

/// A named, seedable model-checking scenario.
pub struct Scenario {
    /// Stable name (CLI `--scenario` argument).
    pub name: &'static str,
    /// One-line description for `--list` output.
    pub description: &'static str,
    build: fn(u64) -> ScenarioFn,
}

impl Scenario {
    /// Instantiates the scenario body for `seed`.
    pub fn build(&self, seed: u64) -> ScenarioFn {
        (self.build)(seed)
    }
}

/// Every registered scenario.
pub fn all_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "cache_stamp",
            description: "decision-cache insert vs. threat-epoch bump vs. the PR-4 stamp recheck",
            build: cache_stamp,
        },
        Scenario {
            name: "threat_escalation",
            description: "suspicion-driven escalation while an evaluation is in flight",
            build: threat_escalation,
        },
        Scenario {
            name: "breaker_half_open",
            description: "racing half-open circuit-breaker probes during transport recovery",
            build: breaker_half_open,
        },
        Scenario {
            name: "swarm_epoch",
            description: "concurrent local detections on two swarm nodes converge on the max level",
            build: swarm_epoch,
        },
        Scenario {
            name: "reactor_dispatch",
            description: "reactor worker handoff: coalesced wakes lose no completions",
            build: reactor_dispatch,
        },
    ]
}

/// Runs `scenario` under systematic DFS at each preemption bound, then a
/// seeded random batch; returns `(label, report)` pairs.
pub fn explore_scenario(
    scenario: &Scenario,
    seed: u64,
    bounds: &[u32],
    random_schedules: usize,
    max_schedules: usize,
) -> Vec<(String, Report)> {
    let mut out = Vec::new();
    for &bound in bounds {
        let body = scenario.build(seed);
        let report = Explorer::dfs(bound)
            .max_schedules(max_schedules)
            .explore(move |exec| body(exec));
        out.push((format!("dfs(bound={bound})"), report));
    }
    if random_schedules > 0 {
        let body = scenario.build(seed);
        let report = Explorer::random(seed, random_schedules)
            .max_schedules(max_schedules)
            .explore(move |exec| body(exec));
        out.push((format!("random(seed={seed}, n={random_schedules})"), report));
    }
    out
}

fn fresh_monitor() -> (Arc<VirtualClock>, ThreatMonitor) {
    let clock = Arc::new(VirtualClock::new());
    // Decay off: the only level transitions are the ones the scenario
    // performs, so epoch arithmetic is schedule-independent.
    let monitor = ThreatMonitor::new(clock.clone()).with_decay_after(Duration::ZERO);
    (clock, monitor)
}

/// The full PR-4 stamp protocol for one evaluation: read the stamp, decide
/// from the *current* threat level, and store only if no transition
/// happened mid-evaluation (the `GaaGlue::store_decisions` recheck).
fn evaluate_with_stamp(monitor: &ThreatMonitor, cache: &DecisionCache, key: &str) {
    let stamp: CacheStamp = [0, monitor.epoch(), 0];
    let status = if monitor.current() >= ThreatLevel::High {
        GaaStatus::No
    } else {
        GaaStatus::Yes
    };
    if [0, monitor.epoch(), 0] == stamp {
        cache.insert(stamp, key, status);
    } else {
        cache.note_uncacheable();
    }
}

/// After quiescence, an entry retrievable under the settled stamp must
/// match the settled threat level — the "no stale grant after an epoch
/// bump" invariant.
fn assert_no_stale_grant(monitor: &ThreatMonitor, cache: &DecisionCache, key: &str) {
    let final_stamp: CacheStamp = [0, monitor.epoch(), 0];
    let level = monitor.current();
    if let Some(status) = cache.lookup(final_stamp, key) {
        let expected = if level >= ThreatLevel::High {
            GaaStatus::No
        } else {
            GaaStatus::Yes
        };
        assert_eq!(
            status, expected,
            "stale decision served under the settled stamp (level {level})"
        );
    }
}

const KEY: &str = "alice\u{1d}/index.html\u{1d}read";

fn cache_stamp(seed: u64) -> ScenarioFn {
    Box::new(move |exec: &mut Exec| {
        let (_clock, monitor) = fresh_monitor();
        let cache = Arc::new(DecisionCache::with_shards_seeded(2, seed));
        for _ in 0..2 {
            let monitor = monitor.clone();
            let cache = Arc::clone(&cache);
            exec.spawn(move || evaluate_with_stamp(&monitor, &cache, KEY));
        }
        {
            let monitor = monitor.clone();
            exec.spawn(move || monitor.report_attack());
        }
        exec.join_all();
        assert_eq!(monitor.current(), ThreatLevel::High);
        assert_no_stale_grant(&monitor, &cache, KEY);
    })
}

fn threat_escalation(seed: u64) -> ScenarioFn {
    Box::new(move |exec: &mut Exec| {
        let clock = Arc::new(VirtualClock::new());
        let monitor = ThreatMonitor::new(clock)
            .with_decay_after(Duration::ZERO)
            .with_escalation_threshold(1);
        let cache = Arc::new(DecisionCache::with_shards_seeded(2, seed));
        {
            let monitor = monitor.clone();
            let cache = Arc::clone(&cache);
            exec.spawn(move || evaluate_with_stamp(&monitor, &cache, KEY));
        }
        {
            // Two suspicion reports at threshold 1: Low → Medium → High,
            // each an epoch bump, interleaved with the in-flight eval.
            let monitor = monitor.clone();
            exec.spawn(move || {
                monitor.report_suspicion();
                monitor.report_suspicion();
            });
        }
        exec.join_all();
        assert_eq!(monitor.current(), ThreatLevel::High);
        assert_eq!(
            monitor.epoch(),
            2,
            "each transition bumps the epoch exactly once"
        );
        assert_no_stale_grant(&monitor, &cache, KEY);
    })
}

/// Transport whose availability is a published flag — the model stand-in
/// for "sendmail came back" while probes race it.
#[derive(Debug)]
struct FlakyTransport {
    ok: AtomicBool,
    delivered: AtomicU64,
}

impl Notifier for FlakyTransport {
    fn notify(&self, _notification: &Notification) -> Result<(), NotifyError> {
        // ordering: Acquire — pairs with the recovery thread's Release
        // store, so a successful delivery observes the repaired transport.
        if self.ok.load(Ordering::Acquire) {
            // ordering: Relaxed — monotonic statistic.
            self.delivered.fetch_add(1, Ordering::Relaxed);
            Ok(())
        } else {
            Err(NotifyError::new("transport down"))
        }
    }

    fn delivered(&self) -> u64 {
        // ordering: Relaxed — monotonic statistic.
        self.delivered.load(Ordering::Relaxed)
    }
}

fn breaker_half_open(_seed: u64) -> ScenarioFn {
    Box::new(move |exec: &mut Exec| {
        let clock = Arc::new(VirtualClock::new());
        let degradation = DegradationState::new();
        let transport = Arc::new(FlakyTransport {
            ok: AtomicBool::named("transport.ok", false),
            delivered: AtomicU64::named("transport.delivered", 0),
        });
        let breaker = Arc::new(
            CircuitBreakerNotifier::new(
                transport.clone(),
                clock.clone(),
                AuditLog::new(),
                degradation.clone(),
            )
            .with_policy(1, Duration::from_secs(5)),
        );
        // Single-threaded setup (not model-checked): trip the breaker, then
        // advance past the cooldown so the raced calls are half-open probes.
        let note = Notification::new(clock.now(), "sysadmin", "cgi_exploit", "probe body");
        assert!(breaker.notify(&note).is_err());
        assert!(breaker.is_open());
        clock.advance(Duration::from_secs(6));

        let successes = Arc::new(AtomicU64::named("breaker.successes", 0));
        for _ in 0..2 {
            let breaker = Arc::clone(&breaker);
            let successes = Arc::clone(&successes);
            let note = note.clone();
            exec.spawn(move || {
                if breaker.notify(&note).is_ok() {
                    // ordering: Relaxed — monotonic statistic.
                    successes.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        {
            let transport = Arc::clone(&transport);
            exec.spawn(move || {
                // ordering: Release — publishes the repaired transport to
                // the Acquire load in `FlakyTransport::notify`.
                transport.ok.store(true, Ordering::Release);
            });
        }
        exec.join_all();
        assert_eq!(
            breaker.is_open(),
            degradation.is_degraded(Component::Notifier),
            "breaker phase and the Notifier degradation mirror diverged"
        );
        if !breaker.is_open() {
            assert!(
                successes.load(Ordering::Relaxed) > 0,
                "circuit closed without any successful probe"
            );
        }
    })
}

/// Delivers every queued swarm frame to its destination in FIFO order
/// (per-link in-order delivery, as the transports provide), feeding
/// protocol replies (anti-entropy pull/push chains) back into the queue
/// until it drains. The two-node world is closed: frames go to `a` or `b`.
/// FIFO matters: delivering a node's frames newest-first would advance the
/// replay watermark past the older ones and the gate would drop them.
fn swarm_pump(
    a: &gaa_swarm::SwarmNode,
    b: &gaa_swarm::SwarmNode,
    queue: Vec<(String, Vec<u8>)>,
    now: gaa_audit::time::Timestamp,
) {
    let mut queue: VecDeque<(String, Vec<u8>)> = queue.into();
    while let Some((to, frame)) = queue.pop_front() {
        let target = if to == a.node_id() { a } else { b };
        queue.extend(target.receive(&frame, now));
    }
}

fn swarm_epoch(_seed: u64) -> ScenarioFn {
    use gaa_audit::time::Timestamp;
    use gaa_swarm::{SwarmConfig, SwarmNode};

    Box::new(move |exec: &mut Exec| {
        let node = |id: &str, peer: &str| {
            let mut config = SwarmConfig::new(id, &[peer]);
            config.anti_entropy_every = Duration::from_millis(100);
            let clock = Arc::new(VirtualClock::new());
            Arc::new(SwarmNode::new(
                config,
                ThreatMonitor::new(clock).with_decay_after(Duration::ZERO),
                gaa_conditions::identity::GroupStore::new(),
                DegradationState::new(),
                AuditLog::new(),
            ))
        };
        let a = node("a", "b");
        let b = node("b", "a");

        // Both nodes detect locally *at the same time* and gossip the
        // resulting epoch bumps at each other, replies included.
        {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            exec.spawn(move || {
                a.threat().report_attack(); // → High
                a.ban("BadGuys", "203.0.113.9", Timestamp::from_millis(0));
                let frames = a.tick(Timestamp::from_millis(0));
                swarm_pump(&a, &b, frames, Timestamp::from_millis(0));
            });
        }
        {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            exec.spawn(move || {
                b.threat().set_level(ThreatLevel::Medium);
                let frames = b.tick(Timestamp::from_millis(0));
                swarm_pump(&a, &b, frames, Timestamp::from_millis(0));
            });
        }
        exec.join_all();

        // Deterministic reconciliation: anti-entropy rounds until quiet.
        for round in 1..=6u64 {
            let now = Timestamp::from_millis(round * 200);
            let mut frames = a.tick(now);
            frames.extend(b.tick(now));
            swarm_pump(&a, &b, frames, now);
        }

        assert_eq!(a.fleet(), b.fleet(), "fleet threat pair diverged");
        assert_eq!(a.blacklist_digest(), b.blacklist_digest());
        for n in [&a, &b] {
            // Concurrent epoch bumps must max-merge: the attack-driven High
            // on `a` can never be relaxed by `b`'s concurrent Medium.
            assert_eq!(n.threat().current(), ThreatLevel::High, "{}", n.node_id());
            assert!(n.groups().contains("BadGuys", "203.0.113.9"));
            assert_eq!(n.stats().forgery_dropped, 0);
        }
    })
}

/// Shared state for the `reactor_dispatch` model: the shard's completion
/// mailbox plus the coalescing wake flag standing in for the wake pipe (a
/// full pipe drops the write — a wake is already pending — so multiple
/// completions may ride one wake).
struct ReactorModel {
    jobs: Mutex<VecDeque<u32>>,
    completions: Mutex<Vec<u32>>,
    wake: Mutex<bool>,
    wake_cv: Condvar,
}

fn reactor_dispatch(_seed: u64) -> ScenarioFn {
    const JOBS: u32 = 3;
    const WORKERS: usize = 2;
    Box::new(move |exec: &mut Exec| {
        let model = Arc::new(ReactorModel {
            jobs: Mutex::named("reactor.jobs", (0..JOBS).collect()),
            completions: Mutex::named("reactor.completions", Vec::new()),
            wake: Mutex::named("reactor.wake", false),
            wake_cv: Condvar::named("reactor.wake_cv"),
        });
        // Workers: pop a dispatched job, publish its completion into the
        // shard mailbox, then signal the wake pipe (set-flag + notify — the
        // model of a nonblocking 1-byte write that coalesces when pending).
        for _ in 0..WORKERS {
            let model = Arc::clone(&model);
            exec.spawn(move || loop {
                let job = model.jobs.lock().pop_front();
                let Some(job) = job else { break };
                model.completions.lock().push(job);
                let mut wake = model.wake.lock();
                *wake = true;
                model.wake_cv.notify_one();
            });
        }
        // Shard: sleep on the wake pipe, clear it, drain the mailbox —
        // exactly the `epoll_wait` → `drain_wake` loop. The flag is
        // cleared *before* the mailbox is drained, so a completion
        // arriving between drain and the next wait still has its wake.
        let applied = {
            let model = Arc::clone(&model);
            let applied = Arc::new(AtomicU64::named("reactor.applied", 0));
            let out = Arc::clone(&applied);
            exec.spawn(move || {
                let mut seen = 0u32;
                while seen < JOBS {
                    {
                        let mut wake = model.wake.lock();
                        while !*wake {
                            wake = model.wake_cv.wait(wake);
                        }
                        *wake = false;
                    }
                    for _job in model.completions.lock().drain(..) {
                        seen += 1;
                        // ordering: Relaxed — monotonic statistic read
                        // after join_all.
                        applied.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            out
        };
        exec.join_all();
        // ordering: Relaxed — read after join_all; the join is the edge.
        let applied = applied.load(Ordering::Relaxed);
        assert_eq!(
            applied,
            u64::from(JOBS),
            "worker completions lost or duplicated across coalesced wakes: \
             applied {applied} of {JOBS}"
        );
        assert!(
            model.completions.lock().is_empty(),
            "completions leaked in the mailbox after the shard drained"
        );
        assert!(model.jobs.lock().is_empty(), "jobs left undispatched");
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every registered scenario is clean under a quick DFS + random pass
    /// (the full budget runs in `gaa-race --smoke`).
    #[test]
    fn scenarios_are_clean_under_small_bounds() {
        for scenario in all_scenarios() {
            for (label, report) in explore_scenario(&scenario, 0xC0FFEE, &[0, 1], 64, 2_000) {
                assert!(
                    report.clean(),
                    "{} under {label}: {}",
                    scenario.name,
                    report.summary()
                );
                report.assert_clean(scenario.name);
            }
        }
    }

    #[test]
    fn scenario_names_are_unique() {
        let mut names: Vec<_> = all_scenarios().iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all_scenarios().len());
    }
}
