//! Sound per-request policy slicing — Cedar-style entry selection with a
//! decision-DAG equivalence proof per slice.
//!
//! At a million principals the composed deployment is large, but any one
//! request touches a tiny corner of it: the entries whose right pattern
//! matches the requested `(authority, value)` cell *and* whose guards can
//! actually fire for the requester's **identity class**. This module
//! computes that corner statically and — unlike heuristic slicers — proves
//! it exact before the serving path is allowed to use it:
//!
//! 1. **Drop certificate.** An entry is dropped only when its
//!    applies-diagram ([`compile_applies`]) cannot reach TRUE under the
//!    class mask ([`class_masks`]): within its EACL's first-match walk it
//!    either sits below a guard that cannot come out NO, or its right never
//!    matches the cell. An entry that never applies contributes neither
//!    status nor obligations (rr/mid/post blocks fire only on applied
//!    entries), so the drop is transparent to the whole result, not just
//!    the status.
//! 2. **Equivalence proof.** The sliced composition is recompiled over the
//!    *same* variable table in the *same* hash-consed arena and checked
//!    against the full deployment with [`DecisionDag::divergence_masked`]:
//!    shared root ⇒ identical decision function; otherwise any
//!    mask-consistent divergence witness defeats the slice. Only verified
//!    slices ([`CellSlice::verified`]) may serve traffic; everything else
//!    fails closed to full evaluation.
//!
//! Identity classes partition requests by what the §7 identity evaluators
//! can answer: an **anonymous** request has no authenticated user, so every
//! `accessid USER` condition is deterministically Unevaluated (MAYBE);
//! an **authenticated** request has one, so USER conditions answer Met or
//! NotMet. `accessid GROUP` answers Met/NotMet in both classes. The runtime
//! guard for the residual risk (a faulted evaluator reporting Unevaluated
//! where the mask promised a definite answer) is
//! [`maybe_violates_mask`] — the glue re-evaluates on the full policy when
//! it trips.

use crate::dag::{
    compile_applies, compile_decision, DecisionDag, EntryRef, VarTable, MASK_ANY, MASK_MAYBE,
    MASK_NO, MASK_YES,
};
use crate::status::GaaStatus;
use gaa_eacl::{ComposedPolicy, Condition, Eacl, PolicyLayer};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Condition type of the §7 identity conditions.
pub const IDENTITY_COND_TYPE: &str = "accessid";
/// Authority naming the authenticated user.
pub const USER_AUTHORITY: &str = "USER";
/// Authority naming group membership.
pub const GROUP_AUTHORITY: &str = "GROUP";

/// The identity class of a request: whether an authenticated user is
/// present. This is the one request property the identity evaluators'
/// tri-state behavior is a *function* of, which makes it a sound slicing
/// axis (unlike, say, the client IP, which selects among Met/NotMet but
/// never changes what is evaluable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IdentityClass {
    /// No authenticated user: `accessid USER` conditions are Unevaluated.
    Anonymous,
    /// An authenticated user is present: `accessid USER` conditions answer
    /// Met or NotMet.
    Authenticated,
}

impl IdentityClass {
    /// Both classes, in a stable sweep order.
    pub const ALL: [IdentityClass; 2] = [IdentityClass::Anonymous, IdentityClass::Authenticated];

    /// The class of a request carrying `user`.
    #[must_use]
    pub fn of_user(user: Option<&str>) -> Self {
        if user.is_some() {
            IdentityClass::Authenticated
        } else {
            IdentityClass::Anonymous
        }
    }

    /// Stable lowercase label (lint messages, bench output).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            IdentityClass::Anonymous => "anonymous",
            IdentityClass::Authenticated => "authenticated",
        }
    }
}

/// The allowed-outcome mask of one condition variable under an identity
/// class — exactly the outcomes the standard evaluators can produce:
///
/// * `accessid USER *` — Unevaluated without a user ([MAYBE] only),
///   Met/NotMet with one ([YES]|[NO]);
/// * `accessid GROUP *` — Met/NotMet in both classes (absence of a user or
///   IP yields NotMet, never Unevaluated);
/// * everything else (HOST, time, threat level, patterns, …) —
///   unrestricted, which is always sound.
///
/// [MAYBE]: MASK_MAYBE
/// [YES]: MASK_YES
/// [NO]: MASK_NO
#[must_use]
pub fn condition_mask(cond_type: &str, authority: &str, class: IdentityClass) -> u8 {
    if !cond_type.eq_ignore_ascii_case(IDENTITY_COND_TYPE) {
        return MASK_ANY;
    }
    if authority.eq_ignore_ascii_case(USER_AUTHORITY) {
        match class {
            IdentityClass::Anonymous => MASK_MAYBE,
            IdentityClass::Authenticated => MASK_YES | MASK_NO,
        }
    } else if authority.eq_ignore_ascii_case(GROUP_AUTHORITY) {
        MASK_YES | MASK_NO
    } else {
        MASK_ANY
    }
}

/// Per-variable allowed-outcome masks for a whole variable table.
#[must_use]
pub fn class_masks(vars: &VarTable, class: IdentityClass) -> Vec<u8> {
    vars.triples()
        .iter()
        .map(|(cond_type, authority, _)| condition_mask(cond_type, authority, class))
        .collect()
}

/// The fail-closed runtime guard: true when `cond` coming out MAYBE at
/// request time contradicts the mask the slice was verified under (e.g. a
/// USER condition left unevaluated although the request authenticated —
/// only an evaluator fault can produce that). The caller must then discard
/// the sliced result and re-evaluate on the full policy.
#[must_use]
pub fn maybe_violates_mask(cond: &Condition, class: IdentityClass) -> bool {
    condition_mask(&cond.cond_type, &cond.authority, class) & MASK_MAYBE == 0
}

/// One request cell's slice: the reduced composition plus the evidence.
#[derive(Debug, Clone)]
pub struct CellSlice {
    /// The sliced composition (same layer structure and entry order as the
    /// full deployment, EACL modes preserved; only never-applying entries
    /// removed).
    pub policy: ComposedPolicy,
    /// Entries in the full composition.
    pub total_entries: usize,
    /// Entries the slice retained.
    pub kept_entries: usize,
    /// Entries whose right matched the cell but whose applies-diagram is
    /// unreachable under the class mask (dead for this cell × class).
    /// Right-mismatched entries are dropped silently — their exclusion
    /// needs no certificate.
    pub dropped: Vec<EntryRef>,
    /// Whether the masked equivalence proof succeeded. An unverified slice
    /// must never serve traffic.
    pub verified: bool,
}

/// Computes and proves the slice of `policy` for one request cell
/// `(authority, value)` under `class`. `vars` must be the variable table of
/// the full composition (or a superset); `default` is the nothing-applies
/// status the serving API was built with.
pub fn slice_cell(
    dag: &mut DecisionDag,
    policy: &ComposedPolicy,
    vars: &VarTable,
    authority: &str,
    value: &str,
    class: IdentityClass,
    default: GaaStatus,
) -> CellSlice {
    let allowed = class_masks(vars, class);
    let mut system: Vec<Eacl> = Vec::new();
    let mut local: Vec<Eacl> = Vec::new();
    let mut total = 0usize;
    let mut kept = 0usize;
    let mut dropped = Vec::new();
    let mut sys_index = 0usize;
    let mut loc_index = 0usize;
    for (layer, eacl) in policy.layers() {
        let eacl_index = match layer {
            PolicyLayer::System => {
                sys_index += 1;
                sys_index - 1
            }
            PolicyLayer::Local => {
                loc_index += 1;
                loc_index - 1
            }
        };
        // Keep the EACL itself even when every entry drops: an empty EACL
        // abstains exactly like one whose guards all failed, and its mode
        // field must survive so the sliced composition re-derives the same
        // composition mode.
        let mut entries = Vec::new();
        for (entry_index, entry) in eacl.entries.iter().enumerate() {
            total += 1;
            if !entry.right.matches(authority, value) {
                continue;
            }
            let reference = EntryRef {
                layer,
                eacl: eacl_index,
                entry: entry_index,
            };
            let applies = compile_applies(dag, policy, vars, authority, value, reference);
            if dag.bool_reachable_masked(applies, &allowed) {
                entries.push(entry.clone());
                kept += 1;
            } else {
                dropped.push(reference);
            }
        }
        let sliced = Eacl {
            mode: eacl.mode,
            entries,
        };
        match layer {
            PolicyLayer::System => system.push(sliced),
            PolicyLayer::Local => local.push(sliced),
        }
    }
    let candidate = ComposedPolicy::compose(system, local);
    let full_root = compile_decision(dag, policy, vars, authority, value, default);
    let sliced_root = compile_decision(dag, &candidate, vars, authority, value, default);
    let verified = dag
        .divergence_masked(full_root, sliced_root, vars.len(), &allowed)
        .is_none();
    CellSlice {
        policy: candidate,
        total_entries: total,
        kept_entries: kept,
        dropped,
        verified,
    }
}

/// Counters the serving path keeps about slice usage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SliceStats {
    /// Requests served from a verified slice.
    pub hits: u64,
    /// Requests that computed (or looked up) a cell with no usable slice
    /// and evaluated the full composition.
    pub full: u64,
    /// Sliced evaluations discarded by the mask guard and re-run on the
    /// full composition (fail-closed path).
    pub guard_fallbacks: u64,
}

type CellKey = (String, String, String, IdentityClass);

/// One cached cell of an object: its right, identity class and slice.
struct Cell {
    authority: String,
    value: String,
    class: IdentityClass,
    slice: Option<Arc<ComposedPolicy>>,
}

impl Cell {
    fn is(&self, authority: &str, value: &str, class: IdentityClass) -> bool {
        self.class == class && self.authority == authority && self.value == value
    }
}

/// The cached cells, by object. An object holds one cell per right and
/// identity class asked of it — a handful — so a lookup hashes the borrowed
/// object name and scans that short list; only an insert allocates.
#[derive(Default)]
struct SlicedCells {
    generation: u64,
    by_object: HashMap<String, Vec<Cell>>,
    /// Every cached cell's key, oldest first (FIFO eviction).
    order: VecDeque<CellKey>,
}

impl SlicedCells {
    fn get(
        &self,
        object: &str,
        authority: &str,
        value: &str,
        class: IdentityClass,
    ) -> Option<&Cell> {
        self.by_object
            .get(object)?
            .iter()
            .find(|cell| cell.is(authority, value, class))
    }

    fn remove(&mut self, (object, authority, value, class): &CellKey) {
        let Some(cells) = self.by_object.get_mut(object) else {
            return;
        };
        cells.retain(|cell| !cell.is(authority, value, *class));
        if cells.is_empty() {
            self.by_object.remove(object);
        }
    }
}

/// A bounded, generation-keyed cache of verified per-cell slices.
///
/// Keys are `(object, authority, value, identity class)`. A cell caches
/// `None` when slicing is not worthwhile or the proof failed — the serving
/// path then evaluates the full composition (fail-closed). Any policy
/// generation change drops the whole cache; slices never key on the threat
/// epoch because threat-level variables stay symbolic in the proof, so a
/// verified slice remains valid across IDS escalations.
pub struct SlicedPolicyStore {
    capacity: usize,
    cells: Mutex<SlicedCells>,
    hits: AtomicU64,
    full: AtomicU64,
    guard_fallbacks: AtomicU64,
}

impl SlicedPolicyStore {
    /// A store retaining at most `capacity` cells (FIFO eviction, like the
    /// decision cache — a cardinality attack can only evict, never grow).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SlicedPolicyStore {
            capacity: capacity.max(1),
            cells: Mutex::new(SlicedCells::default()),
            hits: AtomicU64::new(0),
            full: AtomicU64::new(0),
            guard_fallbacks: AtomicU64::new(0),
        }
    }

    /// The verified slice for a cell, computing it via `build` on first
    /// sight. `build` must return `None` when no usable verified slice
    /// exists; that outcome is cached too. A `generation` different from
    /// the cached one clears every cell first.
    pub fn sliced_for(
        &self,
        generation: u64,
        object: &str,
        authority: &str,
        value: &str,
        class: IdentityClass,
        build: impl FnOnce() -> Option<ComposedPolicy>,
    ) -> Option<Arc<ComposedPolicy>> {
        let mut cells = self.cells.lock();
        if cells.generation != generation {
            cells.by_object.clear();
            cells.order.clear();
            cells.generation = generation;
        }
        if let Some(hit) = cells.get(object, authority, value, class) {
            return hit.slice.clone();
        }
        let built = build().map(Arc::new);
        if cells.order.len() >= self.capacity {
            if let Some(evicted) = cells.order.pop_front() {
                cells.remove(&evicted);
            }
        }
        cells
            .by_object
            .entry(object.to_string())
            .or_default()
            .push(Cell {
                authority: authority.to_string(),
                value: value.to_string(),
                class,
                slice: built.clone(),
            });
        cells.order.push_back((
            object.to_string(),
            authority.to_string(),
            value.to_string(),
            class,
        ));
        built
    }

    /// Records one request served from a verified slice.
    pub fn count_hit(&self) {
        // ordering: Relaxed — independent monotone counters, read only by
        // stats(); no other memory depends on their order.
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request that evaluated the full composition.
    pub fn count_full(&self) {
        // ordering: Relaxed — see count_hit.
        self.full.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one sliced result discarded by the mask guard.
    pub fn count_guard_fallback(&self) {
        // ordering: Relaxed — see count_hit.
        self.guard_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Usage counters.
    #[must_use]
    pub fn stats(&self) -> SliceStats {
        SliceStats {
            // ordering: Relaxed — see count_hit.
            hits: self.hits.load(Ordering::Relaxed),
            full: self.full.load(Ordering::Relaxed),
            guard_fallbacks: self.guard_fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Cells currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.lock().order.len()
    }

    /// Whether no cell is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaa_eacl::parse_eacl;

    fn registered(_: &str, _: &str) -> bool {
        true
    }

    fn compose(system: &str, local: &str) -> ComposedPolicy {
        let system = if system.is_empty() {
            vec![]
        } else {
            vec![parse_eacl(system).unwrap()]
        };
        let local = if local.is_empty() {
            vec![]
        } else {
            vec![parse_eacl(local).unwrap()]
        };
        ComposedPolicy::compose(system, local)
    }

    fn slice(
        policy: &ComposedPolicy,
        authority: &str,
        value: &str,
        class: IdentityClass,
    ) -> CellSlice {
        let vars = VarTable::from_policy(policy, &registered);
        let mut dag = DecisionDag::new();
        slice_cell(
            &mut dag,
            policy,
            &vars,
            authority,
            value,
            class,
            GaaStatus::No,
        )
    }

    #[test]
    fn right_mismatch_drops_entries_without_certificates() {
        // Departmental entries for other authorities vanish from the cell.
        let policy = compose(
            "pos_access_right svc-a *\npre_cond accessid GROUP dept-a\n\
             pos_access_right svc-b *\npre_cond accessid GROUP dept-b\n\
             pos_access_right apache GET\n",
            "",
        );
        let cell = slice(&policy, "apache", "GET", IdentityClass::Anonymous);
        assert!(cell.verified);
        assert_eq!(cell.total_entries, 3);
        assert_eq!(cell.kept_entries, 1);
        assert!(cell.dropped.is_empty(), "mismatches need no certificate");
        assert_eq!(cell.policy.len(), 1);
    }

    #[test]
    fn anonymous_class_drops_entries_below_user_screen() {
        // For anonymous requests the USER-guarded negative screen always
        // applies (its guard is MAYBE, never NO), so the grant below it is
        // provably dead — and the slice is still proven equivalent.
        let policy = compose(
            "",
            "neg_access_right apache *\npre_cond accessid USER *\n\
             pos_access_right apache *\n",
        );
        let anon = slice(&policy, "apache", "GET", IdentityClass::Anonymous);
        assert!(anon.verified);
        assert_eq!(anon.kept_entries, 1);
        assert_eq!(anon.dropped.len(), 1);
        assert_eq!(anon.dropped[0].entry, 1);
        // Authenticated requests can fail the guard, so both entries stay.
        let auth = slice(&policy, "apache", "GET", IdentityClass::Authenticated);
        assert!(auth.verified);
        assert_eq!(auth.kept_entries, 2);
    }

    #[test]
    fn entries_below_an_unconditional_entry_are_dead_in_both_classes() {
        let policy = compose(
            "",
            "pos_access_right apache *\n\
             pos_access_right apache GET\npre_cond accessid GROUP staff\n",
        );
        for class in IdentityClass::ALL {
            let cell = slice(&policy, "apache", "GET", class);
            assert!(cell.verified, "{}", class.label());
            assert_eq!(cell.kept_entries, 1, "{}", class.label());
            assert_eq!(cell.dropped.len(), 1, "{}", class.label());
        }
    }

    #[test]
    fn composition_mode_survives_slicing() {
        // Expand mode: the local deny is overridden by the system grant.
        // If slicing lost the mode (default Narrow), the sliced composition
        // would deny — the equivalence proof would catch it, but the mode
        // must genuinely survive for the slice to be usable.
        let policy = compose(
            "eacl_mode 0\npos_access_right apache *\n",
            "neg_access_right apache *\n",
        );
        assert_eq!(policy.mode(), gaa_eacl::CompositionMode::Expand);
        let cell = slice(&policy, "apache", "GET", IdentityClass::Anonymous);
        assert!(cell.verified);
        assert_eq!(cell.policy.mode(), gaa_eacl::CompositionMode::Expand);
    }

    #[test]
    fn guard_predicate_matches_class_masks() {
        let user = Condition::new("accessid", "USER", "alice");
        let group = Condition::new("accessid", "GROUP", "staff");
        let host = Condition::new("accessid", "HOST", "10.");
        let other = Condition::new("time_window", "local", "9-17");
        // Anonymous: USER is *expected* to be MAYBE; GROUP never is.
        assert!(!maybe_violates_mask(&user, IdentityClass::Anonymous));
        assert!(maybe_violates_mask(&group, IdentityClass::Anonymous));
        // Authenticated: a MAYBE USER outcome means a faulted evaluator.
        assert!(maybe_violates_mask(&user, IdentityClass::Authenticated));
        assert!(!maybe_violates_mask(&host, IdentityClass::Authenticated));
        assert!(!maybe_violates_mask(&other, IdentityClass::Authenticated));
    }

    #[test]
    fn store_caches_per_generation_and_bounds_cells() {
        let store = SlicedPolicyStore::new(2);
        let policy = compose("", "pos_access_right apache *\n");
        let mut builds = 0usize;
        for _ in 0..3 {
            let hit = store.sliced_for(1, "/a", "apache", "GET", IdentityClass::Anonymous, || {
                builds += 1;
                Some(policy.clone())
            });
            assert!(hit.is_some());
        }
        assert_eq!(builds, 1, "cell computed once");
        // A None outcome is cached too.
        for _ in 0..2 {
            let miss = store.sliced_for(1, "/b", "apache", "GET", IdentityClass::Anonymous, || {
                builds += 1;
                None
            });
            assert!(miss.is_none());
        }
        assert_eq!(builds, 2);
        assert_eq!(store.len(), 2);
        // Capacity bound: a third cell evicts the oldest.
        let _ = store.sliced_for(1, "/c", "apache", "GET", IdentityClass::Anonymous, || None);
        assert_eq!(store.len(), 2);
        // Generation change clears everything.
        let _ = store.sliced_for(2, "/a", "apache", "GET", IdentityClass::Anonymous, || {
            builds += 1;
            None
        });
        assert_eq!(builds, 3, "generation change rebuilds");
        assert_eq!(store.len(), 1);
    }
}
