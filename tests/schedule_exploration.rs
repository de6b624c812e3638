//! Schedule exploration at the integration level: replays the gaa-bench
//! model-checking scenarios that `gaa-race --smoke` runs in CI, and proves
//! the harness can catch what it claims to by checking a deliberately
//! broken cache protocol with the stamp recheck removed.

use gaa_race::sync::{Mutex, Traced};
use gaa_race::{Exec, Explorer};
use std::collections::HashMap;
use std::sync::Arc;

/// The reactor's worker handoff (`reactor_dispatch`, see
/// `gaa_bench::race_scenarios`), replayed under the deterministic
/// scheduler across three preemption bounds plus a seeded random batch.
///
/// Two workers complete three dispatched jobs into the shard's mailbox
/// and signal its coalescing wake pipe while the shard sleeps, wakes,
/// clears the wake and drains — so the explored schedules include a
/// completion landing between the drain and the next wait, and several
/// completions riding one wake. Invariants: every completion is applied
/// exactly once, the mailbox is empty after join, no job is left
/// undispatched.
#[test]
fn reactor_dispatch_replays_across_preemption_bounds() {
    const SEED: u64 = 0x5A7_0503;
    let scenarios = gaa_bench::race_scenarios::all_scenarios();
    let dispatch = scenarios
        .iter()
        .find(|s| s.name == "reactor_dispatch")
        .expect("reactor_dispatch scenario registered");
    println!("reactor_dispatch replay: seed {SEED:#x}, bounds 0..=2 + random batch");
    let mut explored = 0u64;
    for (label, report) in
        gaa_bench::race_scenarios::explore_scenario(dispatch, SEED, &[0, 1, 2], 128, 10_000)
    {
        println!("  {label}: {}", report.summary());
        report.assert_clean(&format!("reactor_dispatch {label}"));
        assert!(report.schedules > 0, "{label} explored nothing");
        explored += report.schedules as u64;
    }
    // Bound 2 alone contributes thousands of interleavings; a collapse here
    // means the DFS stopped branching and the replay lost its coverage.
    assert!(explored > 1_000, "only {explored} interleavings explored");
}

/// The settled answer the cache may serve once `epoch` is final: a grant is
/// only coherent while the threat epoch is still 0.
fn coherent(epoch: u64, granted: bool) -> bool {
    !granted || epoch == 0
}

const KEY: &str = "alice:/index.html:read";

/// A **pre-PR-4 cache model with the stamp recheck removed** — the
/// known-bad configuration the acceptance criteria require the harness to
/// catch. Two defects, deliberately:
///
/// * the threat epoch lives in an unsynchronized [`Traced`] cell, so the
///   evaluator's read races the escalation thread's bump (no
///   happens-before edge — the real `ThreatMonitor` uses Release/Acquire);
/// * entries carry no stamp and the evaluator inserts without rechecking
///   the epoch, so a decision computed against epoch 0 can land *after*
///   the escalation flushed the map — a stale grant the settled world can
///   still retrieve.
///
/// `exploration` must therefore report BOTH a data race (vector-clock
/// detector) and a stale-grant invariant violation (minimized trace), which
/// is exactly why the shipped protocol has both layers: per-entry stamps
/// make late inserts invisible to new-epoch readers, and the synchronized
/// epoch gives the detector (and the hardware) a real ordering.
fn stale_grant_model(exec: &mut Exec) {
    let epoch = Traced::named("model.threat_epoch", 0u64);
    let cache: Arc<Mutex<HashMap<String, bool>>> =
        Arc::new(Mutex::named("model.naive_cache", HashMap::new()));

    // Evaluator: decide from the epoch it observed, insert with no recheck.
    {
        let epoch = epoch.clone();
        let cache = Arc::clone(&cache);
        exec.spawn(move || {
            let seen = epoch.get();
            let granted = seen == 0;
            cache.lock().insert(KEY.to_string(), granted);
        });
    }
    // Escalation: bump the epoch, then flush — the pre-PR-4 invalidation.
    {
        let epoch = epoch.clone();
        let cache = Arc::clone(&cache);
        exec.spawn(move || {
            epoch.set(1);
            cache.lock().clear();
        });
    }
    exec.join_all();

    let settled = epoch.get();
    let served = cache.lock().get(KEY).copied();
    if let Some(granted) = served {
        assert!(
            coherent(settled, granted),
            "stale grant: cache serves a grant computed before the epoch bump \
             (settled epoch {settled})"
        );
    }
}

/// Acceptance criterion: a known-bad schedule makes the race detector AND
/// the stale-grant invariant both fail, each with a replayable minimized
/// trace. `keep_going` aggregates findings instead of stopping at the
/// first, so one exploration demonstrates both detectors.
#[test]
fn known_bad_cache_protocol_trips_both_detectors() {
    let report = Explorer::dfs(2).keep_going().explore(stale_grant_model);
    println!(
        "known-bad model: {} (expected: dirty on both axes)",
        report.summary()
    );

    let race = report
        .races
        .iter()
        .find(|race| race.location_name.contains("model.threat_epoch"))
        .expect("vector-clock detector must flag the unsynchronized epoch read/write");
    assert!(
        !race.trace.is_empty(),
        "race report must carry a minimized trace"
    );

    let stale = report
        .violations
        .iter()
        .find(|v| v.message.contains("stale grant"))
        .expect("some interleaving must surface the stale grant past the flush");
    assert!(
        !stale.schedule.is_empty(),
        "violation must carry the replayable schedule"
    );
    assert!(
        !stale.trace.is_empty(),
        "violation must carry the event trace"
    );
    println!(
        "stale grant reproduced by schedule {:?} — trace:\n{}",
        stale.schedule, stale.trace
    );
}

/// The fixed protocol over the *same* model skeleton: per-entry stamps
/// (the PR-4 defense) and a mutex-published epoch. Same threads, same
/// interleavings, zero findings — the contrast that shows the detectors
/// react to the defect, not to the harness.
#[test]
fn stamped_cache_protocol_is_clean_on_the_same_schedules() {
    let report = Explorer::dfs(2).keep_going().explore(|exec: &mut Exec| {
        // The epoch is mutex-guarded: every read/write is ordered, so the
        // vector-clock detector sees a happens-before edge where the
        // known-bad model had a race.
        let epoch = Arc::new(Mutex::named("fixed.threat_epoch", 0u64));
        let cache: Arc<Mutex<HashMap<String, (u64, bool)>>> =
            Arc::new(Mutex::named("fixed.stamped_cache", HashMap::new()));

        {
            let epoch = Arc::clone(&epoch);
            let cache = Arc::clone(&cache);
            exec.spawn(move || {
                let seen = *epoch.lock();
                let granted = seen == 0;
                // Per-entry stamp: even an insert that lands after the
                // flush is invisible to readers of the settled epoch.
                cache.lock().insert(KEY.to_string(), (seen, granted));
            });
        }
        {
            let epoch = Arc::clone(&epoch);
            let cache = Arc::clone(&cache);
            exec.spawn(move || {
                *epoch.lock() = 1;
                cache.lock().clear();
            });
        }
        exec.join_all();

        let settled = *epoch.lock();
        // Lookup honors the stamp, exactly like `DecisionCache::lookup`.
        let served = cache.lock().get(KEY).copied();
        if let Some((stamp, granted)) = served {
            if stamp == settled {
                assert!(
                    coherent(settled, granted),
                    "stale grant under settled epoch {settled}"
                );
            }
        }
    });
    println!("fixed model: {}", report.summary());
    report.assert_clean("stamped_cache_protocol");
    assert!(report.schedules > 1, "DFS must branch over the model");
}
