//! The GAA-API ↔ IDS communication channel.
//!
//! §3 enumerates seven kinds of information the GAA-API can report to an
//! IDS, and §9 plans "a policy-controlled interface for establishing a
//! subscription-based communication channel to allow GAA-API and IDSs to
//! communicate". This module implements that channel:
//!
//! * [`GaaReport`] — the seven report kinds, flowing GAA → IDS;
//! * [`IdsAdvisory`] — values flowing IDS → GAA (spoofing indications,
//!   adaptive thresholds/times/locations, threat-level changes);
//! * [`EventBus`] — a fan-out pub/sub bus over crossbeam channels. Each
//!   subscriber gets its own queue and may restrict the [`ReportKind`]s it
//!   receives (the "policy-controlled" part: a subscription is created with
//!   an explicit kind filter).

use crate::signatures::SignatureMatch;
use crate::threat::ThreatLevel;
use crossbeam::channel::{unbounded, Receiver, Sender};
use gaa_audit::log::{AuditLog, AuditRecord, AuditSeverity};
use gaa_audit::time::Timestamp;
use gaa_faults::{FaultInjector, FaultSite};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The seven kinds of application-level observation the GAA-API reports to
/// IDSs, numbered as in §3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReportKind {
    /// (1) Ill-formed access requests, which may signal an attack.
    IllFormedRequest,
    /// (2) Requests with parameters that are abnormally large or violate
    /// site policy.
    AbnormalParameters,
    /// (3) Access denial to sensitive system objects.
    SensitiveDenial,
    /// (4) Violated threshold conditions (e.g. failed logins per window).
    ThresholdViolation,
    /// (5) Detected application-level attacks, with threat characteristics.
    ApplicationAttack,
    /// (6) Unusual or suspicious application behaviour.
    SuspiciousBehavior,
    /// (7) Legitimate access request patterns (profile-building input).
    LegitimatePattern,
}

impl ReportKind {
    /// All kinds, in §3 order.
    pub fn all() -> [ReportKind; 7] {
        [
            ReportKind::IllFormedRequest,
            ReportKind::AbnormalParameters,
            ReportKind::SensitiveDenial,
            ReportKind::ThresholdViolation,
            ReportKind::ApplicationAttack,
            ReportKind::SuspiciousBehavior,
            ReportKind::LegitimatePattern,
        ]
    }
}

/// A report from the GAA-API to subscribed IDSs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaaReport {
    /// When the observation was made.
    pub time: Timestamp,
    /// Which of the seven §3 categories it falls in.
    pub kind: ReportKind,
    /// Source of the request (client IP or principal).
    pub source: String,
    /// The resource or operation concerned (URL, right name).
    pub target: String,
    /// Free-form detail (the malformed fragment, the violated threshold…).
    pub detail: String,
    /// Matched signature metadata for `ApplicationAttack` reports
    /// (attack type, severity, confidence, defensive recommendation).
    pub signature: Option<SignatureMatch>,
}

impl GaaReport {
    /// Builds a report without signature metadata.
    pub fn new(
        time: Timestamp,
        kind: ReportKind,
        source: impl Into<String>,
        target: impl Into<String>,
        detail: impl Into<String>,
    ) -> Self {
        GaaReport {
            time,
            kind,
            source: source.into(),
            target: target.into(),
            detail: detail.into(),
            signature: None,
        }
    }

    /// Attaches signature metadata (for `ApplicationAttack`).
    pub fn with_signature(mut self, signature: SignatureMatch) -> Self {
        self.signature = Some(signature);
        self
    }
}

impl fmt::Display for GaaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {:?} source={} target={} {}",
            self.time, self.kind, self.source, self.target, self.detail
        )
    }
}

/// Advisories flowing from IDSs back to the GAA-API (§3: "The API can
/// request information for adjusting policies, such as values for
/// thresholds, times and locations").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IdsAdvisory {
    /// Network IDS indication of whether `source` shows signs of address
    /// spoofing (used before proactive countermeasures, §3).
    SpoofingIndication {
        /// The address in question.
        source: String,
        /// Whether spoofing indicators were observed.
        spoofed: bool,
        /// Confidence 0.0–1.0.
        confidence: f64,
    },
    /// A host IDS recommends a new numeric threshold for a named condition
    /// parameter (e.g. failed-login limit).
    ThresholdUpdate {
        /// Parameter name, e.g. `failed_logins_per_minute`.
        parameter: String,
        /// Recommended value.
        value: f64,
    },
    /// Recommended change to an allowed time window (hours, 24h clock).
    TimeWindowUpdate {
        /// Start hour, inclusive.
        start_hour: u32,
        /// End hour, exclusive.
        end_hour: u32,
    },
    /// Recommended location (IP prefix) restriction.
    LocationUpdate {
        /// Allowed prefix, e.g. `128.9.`.
        allowed_prefix: String,
    },
    /// The system threat level changed.
    ThreatLevelChange {
        /// The new level.
        level: ThreatLevel,
    },
}

/// A subscription handle returned by [`EventBus::subscribe_reports`].
///
/// Dropping the handle unsubscribes (the bus prunes disconnected
/// subscribers on the next publish).
#[derive(Debug)]
pub struct Subscription<T> {
    receiver: Receiver<T>,
}

impl<T> Subscription<T> {
    /// Non-blocking: all events queued since the last drain.
    pub fn drain(&self) -> Vec<T> {
        let mut out = Vec::new();
        while let Ok(ev) = self.receiver.try_recv() {
            out.push(ev);
        }
        out
    }

    /// Non-blocking: next queued event, if any.
    pub fn try_next(&self) -> Option<T> {
        self.receiver.try_recv().ok()
    }
}

struct ReportSub {
    kinds: Option<Vec<ReportKind>>,
    sender: Sender<GaaReport>,
}

#[derive(Default)]
struct BusState {
    report_subs: Vec<ReportSub>,
    advisory_subs: Vec<Sender<IdsAdvisory>>,
    injector: Option<Arc<dyn FaultInjector>>,
    audit: Option<AuditLog>,
    dropped: u64,
}

/// Pub/sub bus connecting the GAA-API with any number of IDS components.
///
/// Cloning shares the bus. Publishing never blocks (unbounded queues);
/// disconnected subscribers are pruned lazily.
///
/// # Examples
///
/// ```rust
/// use gaa_audit::Timestamp;
/// use gaa_ids::{EventBus, GaaReport, ReportKind};
///
/// let bus = EventBus::new();
/// let all = bus.subscribe_reports(None);
/// let attacks_only = bus.subscribe_reports(Some(vec![ReportKind::ApplicationAttack]));
///
/// bus.publish_report(GaaReport::new(
///     Timestamp::from_millis(0),
///     ReportKind::SensitiveDenial,
///     "203.0.113.9",
///     "/etc/passwd",
///     "denied",
/// ));
///
/// assert_eq!(all.drain().len(), 1);
/// assert!(attacks_only.drain().is_empty());
/// ```
#[derive(Clone, Default)]
pub struct EventBus {
    state: Arc<Mutex<BusState>>,
}

impl fmt::Debug for EventBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock();
        f.debug_struct("EventBus")
            .field("report_subscribers", &state.report_subs.len())
            .field("advisory_subscribers", &state.advisory_subs.len())
            .finish()
    }
}

impl EventBus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        EventBus::default()
    }

    /// Consults `injector` at [`FaultSite::EventBus`] on every publish: any
    /// injected fault drops the event, simulating a lossy or disconnected
    /// GAA↔IDS channel. Shared across clones of this bus.
    pub fn set_fault_injector(&self, injector: Arc<dyn FaultInjector>) {
        self.state.lock().injector = Some(injector);
    }

    /// Mirrors every dropped event into `audit` (`ids.event_dropped`,
    /// Warning), so losing IDS traffic is never silent.
    pub fn set_audit(&self, audit: AuditLog) {
        self.state.lock().audit = Some(audit);
    }

    /// Events dropped by fault injection since construction.
    pub fn dropped_events(&self) -> u64 {
        self.state.lock().dropped
    }

    /// True (and accounted + audited) when the current publish should drop.
    /// `detail` describes the event for the audit record and runs only for
    /// an event that is actually dropped.
    fn drop_injected(
        state: &mut BusState,
        time: Timestamp,
        what: &str,
        detail: impl FnOnce() -> String,
    ) -> bool {
        let faulted = state
            .injector
            .as_ref()
            .and_then(|i| i.fault_at(FaultSite::EventBus))
            .is_some();
        if faulted {
            state.dropped += 1;
            if let Some(audit) = &state.audit {
                audit.record(
                    AuditRecord::new(
                        time,
                        AuditSeverity::Warning,
                        "ids.event_dropped",
                        "event_bus",
                        format!("{what} dropped by GAA/IDS channel fault"),
                    )
                    .with_attr("detail", detail()),
                );
            }
        }
        faulted
    }

    /// Subscribes to GAA→IDS reports. `kinds: None` receives everything;
    /// `Some(kinds)` receives only those kinds (the policy-controlled
    /// filter).
    pub fn subscribe_reports(&self, kinds: Option<Vec<ReportKind>>) -> Subscription<GaaReport> {
        let (tx, rx) = unbounded();
        self.state
            .lock()
            .report_subs
            .push(ReportSub { kinds, sender: tx });
        Subscription { receiver: rx }
    }

    /// Subscribes to IDS→GAA advisories.
    pub fn subscribe_advisories(&self) -> Subscription<IdsAdvisory> {
        let (tx, rx) = unbounded();
        self.state.lock().advisory_subs.push(tx);
        Subscription { receiver: rx }
    }

    /// Publishes a GAA→IDS report to every matching subscriber.
    pub fn publish_report(&self, report: GaaReport) {
        let mut state = self.state.lock();
        if Self::drop_injected(&mut state, report.time, "GAA report", || {
            format!("{:?} from {}", report.kind, report.source)
        }) {
            return;
        }
        Self::deliver(&mut state, report.kind, || report);
    }

    /// Publishes the report `build` makes, running `build` only when some
    /// subscriber wants `kind`; `time` and `source` describe the report
    /// when a channel fault drops it. The fault injector is consulted once
    /// per call, as by [`publish_report`](Self::publish_report), so an
    /// injected fault schedule does not depend on who is subscribed.
    pub fn publish_report_with(
        &self,
        kind: ReportKind,
        time: Timestamp,
        source: &str,
        build: impl FnOnce() -> GaaReport,
    ) {
        let mut state = self.state.lock();
        if Self::drop_injected(&mut state, time, "GAA report", || {
            format!("{kind:?} from {source}")
        }) {
            return;
        }
        Self::deliver(&mut state, kind, build);
    }

    /// Sends the report `build` makes to every subscriber of `kind`,
    /// pruning the disconnected ones; builds nothing when none wants it.
    fn deliver(state: &mut BusState, kind: ReportKind, build: impl FnOnce() -> GaaReport) {
        let wants = |sub: &ReportSub| sub.kinds.as_ref().is_none_or(|ks| ks.contains(&kind));
        if !state.report_subs.iter().any(wants) {
            return;
        }
        let report = build();
        state
            .report_subs
            .retain(|sub| !wants(sub) || sub.sender.send(report.clone()).is_ok());
    }

    /// Publishes an IDS→GAA advisory to every subscriber.
    pub fn publish_advisory(&self, advisory: IdsAdvisory) {
        let mut state = self.state.lock();
        // Advisories carry no timestamp of their own, so a drop record is
        // written at time zero; the detail attribute identifies the advisory.
        if Self::drop_injected(
            &mut state,
            Timestamp::from_millis(0),
            "IDS advisory",
            || format!("{advisory:?}"),
        ) {
            return;
        }
        state
            .advisory_subs
            .retain(|tx| tx.send(advisory.clone()).is_ok());
    }

    /// Number of live report subscribers (diagnostics).
    pub fn report_subscriber_count(&self) -> usize {
        self.state.lock().report_subs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(kind: ReportKind) -> GaaReport {
        GaaReport::new(Timestamp::from_millis(1), kind, "1.2.3.4", "/x", "d")
    }

    #[test]
    fn unfiltered_subscriber_sees_all_kinds() {
        let bus = EventBus::new();
        let sub = bus.subscribe_reports(None);
        for kind in ReportKind::all() {
            bus.publish_report(report(kind));
        }
        assert_eq!(sub.drain().len(), 7);
    }

    #[test]
    fn filtered_subscriber_sees_only_its_kinds() {
        let bus = EventBus::new();
        let sub = bus.subscribe_reports(Some(vec![
            ReportKind::ApplicationAttack,
            ReportKind::ThresholdViolation,
        ]));
        for kind in ReportKind::all() {
            bus.publish_report(report(kind));
        }
        let got: Vec<ReportKind> = sub.drain().into_iter().map(|r| r.kind).collect();
        assert_eq!(
            got,
            vec![
                ReportKind::ThresholdViolation,
                ReportKind::ApplicationAttack
            ]
        );
    }

    #[test]
    fn multiple_subscribers_each_get_a_copy() {
        let bus = EventBus::new();
        let a = bus.subscribe_reports(None);
        let b = bus.subscribe_reports(None);
        bus.publish_report(report(ReportKind::SensitiveDenial));
        assert_eq!(a.drain().len(), 1);
        assert_eq!(b.drain().len(), 1);
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let bus = EventBus::new();
        let a = bus.subscribe_reports(None);
        {
            let _b = bus.subscribe_reports(None);
        } // _b dropped here
        bus.publish_report(report(ReportKind::IllFormedRequest));
        assert_eq!(bus.report_subscriber_count(), 1);
        assert_eq!(a.drain().len(), 1);
    }

    #[test]
    fn advisories_flow_to_all_subscribers() {
        let bus = EventBus::new();
        let sub = bus.subscribe_advisories();
        bus.publish_advisory(IdsAdvisory::ThresholdUpdate {
            parameter: "failed_logins".into(),
            value: 5.0,
        });
        bus.publish_advisory(IdsAdvisory::ThreatLevelChange {
            level: ThreatLevel::High,
        });
        let got = sub.drain();
        assert_eq!(got.len(), 2);
        assert!(matches!(got[1], IdsAdvisory::ThreatLevelChange { .. }));
    }

    #[test]
    fn try_next_pops_one_at_a_time() {
        let bus = EventBus::new();
        let sub = bus.subscribe_reports(None);
        bus.publish_report(report(ReportKind::IllFormedRequest));
        bus.publish_report(report(ReportKind::SensitiveDenial));
        assert_eq!(sub.try_next().unwrap().kind, ReportKind::IllFormedRequest);
        assert_eq!(sub.try_next().unwrap().kind, ReportKind::SensitiveDenial);
        assert!(sub.try_next().is_none());
    }

    #[test]
    fn publish_with_no_subscribers_is_fine() {
        let bus = EventBus::new();
        bus.publish_report(report(ReportKind::LegitimatePattern));
        bus.publish_advisory(IdsAdvisory::LocationUpdate {
            allowed_prefix: "10.".into(),
        });
    }

    #[test]
    fn report_with_signature_metadata() {
        use crate::signatures::{AttackClass, SignatureMatch};
        let sig = SignatureMatch {
            id: "sig.phf".into(),
            class: AttackClass::CgiExploit,
            severity: 8,
            confidence: 0.95,
            recommendation: "deny".into(),
        };
        let r = report(ReportKind::ApplicationAttack).with_signature(sig.clone());
        assert_eq!(r.signature.as_ref().unwrap().id, "sig.phf");
    }

    #[test]
    fn injected_faults_drop_events_and_audit() {
        use gaa_faults::{Fault, FaultPlan, FaultSite};

        let bus = EventBus::new();
        let audit = AuditLog::new();
        let sub = bus.subscribe_reports(None);
        let plan = FaultPlan::builder(6)
            .fail_window(FaultSite::EventBus, 1, 3, Fault::Error)
            .build();
        bus.set_fault_injector(Arc::new(plan));
        bus.set_audit(audit.clone());

        bus.publish_report(report(ReportKind::ApplicationAttack)); // delivered
        bus.publish_report(report(ReportKind::SensitiveDenial)); // dropped
        bus.publish_report(report(ReportKind::ThresholdViolation)); // dropped
        bus.publish_report(report(ReportKind::SuspiciousBehavior)); // delivered

        let got: Vec<ReportKind> = sub.drain().into_iter().map(|r| r.kind).collect();
        assert_eq!(
            got,
            vec![
                ReportKind::ApplicationAttack,
                ReportKind::SuspiciousBehavior
            ]
        );
        assert_eq!(bus.dropped_events(), 2);
        let dropped = audit.by_category("ids.event_dropped");
        assert_eq!(dropped.len(), 2);
        assert!(dropped[0]
            .attr("detail")
            .unwrap()
            .contains("SensitiveDenial"));
    }

    #[test]
    fn injected_faults_drop_advisories_too() {
        use gaa_faults::{Fault, FaultPlan, FaultSite};

        let bus = EventBus::new();
        let sub = bus.subscribe_advisories();
        let plan = FaultPlan::builder(7)
            .fail_nth(FaultSite::EventBus, 0, Fault::Error)
            .build();
        bus.set_fault_injector(Arc::new(plan));

        bus.publish_advisory(IdsAdvisory::ThreatLevelChange {
            level: ThreatLevel::High,
        }); // dropped
        bus.publish_advisory(IdsAdvisory::ThresholdUpdate {
            parameter: "p".into(),
            value: 1.0,
        }); // delivered
        let got = sub.drain();
        assert_eq!(got.len(), 1);
        assert!(matches!(got[0], IdsAdvisory::ThresholdUpdate { .. }));
        assert_eq!(bus.dropped_events(), 1);
    }

    #[test]
    fn lazy_reports_are_built_only_for_a_subscriber() {
        use gaa_faults::{Fault, FaultPlan, FaultSite};
        use std::cell::Cell;

        let bus = EventBus::new();
        let audit = AuditLog::new();
        let attacks = bus.subscribe_reports(Some(vec![ReportKind::ApplicationAttack]));
        // Every second publish is dropped: the schedule counts calls, not
        // built reports.
        let plan = FaultPlan::builder(8)
            .fail_nth(FaultSite::EventBus, 1, Fault::Error)
            .fail_nth(FaultSite::EventBus, 3, Fault::Error)
            .build();
        bus.set_fault_injector(Arc::new(plan));
        bus.set_audit(audit.clone());
        let builds = Cell::new(0);
        let publish = |kind| {
            bus.publish_report_with(kind, Timestamp::from_millis(1), "1.2.3.4", || {
                builds.set(builds.get() + 1);
                report(kind)
            });
        };

        publish(ReportKind::LegitimatePattern); // nobody wants it
        publish(ReportKind::LegitimatePattern); // dropped
        publish(ReportKind::ApplicationAttack); // delivered
        publish(ReportKind::ApplicationAttack); // dropped
        assert_eq!(builds.get(), 1);
        assert_eq!(attacks.drain().len(), 1);
        assert_eq!(bus.dropped_events(), 2);
        let dropped = audit.by_category("ids.event_dropped");
        assert_eq!(
            dropped[0].attr("detail"),
            Some("LegitimatePattern from 1.2.3.4")
        );
    }

    #[test]
    fn bus_is_usable_across_threads() {
        let bus = EventBus::new();
        let sub = bus.subscribe_reports(None);
        let bus2 = bus.clone();
        let handle = std::thread::spawn(move || {
            for _ in 0..10 {
                bus2.publish_report(report(ReportKind::SuspiciousBehavior));
            }
        });
        handle.join().unwrap();
        assert_eq!(sub.drain().len(), 10);
    }
}
