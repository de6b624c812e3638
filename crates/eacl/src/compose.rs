//! Policy composition (§2.1): relating system-wide and local policies.
//!
//! Composition constructs a single [`ComposedPolicy`] by placing system-wide
//! EACLs *before* local EACLs ("system-wide policies implicitly have higher
//! priority") and recording the **composition mode** declared by the
//! system-wide policy:
//!
//! * [`Expand`](crate::CompositionMode::Expand) — access is allowed if
//!   *either* level allows it;
//! * [`Narrow`](crate::CompositionMode::Narrow) — the mandatory (system)
//!   component must hold *and* the discretionary (local) component must be
//!   satisfied;
//! * [`Stop`](crate::CompositionMode::Stop) — local policies are discarded
//!   entirely.
//!
//! Multiple policies at the same level always conjoin ("to evaluate several
//! separately specified local (or system-wide) policies, we take a
//! conjunction of the policies").
//!
//! Evaluation of the composed structure is performed by `gaa-core`; this
//! module only builds the structure and fixes the ordering.

use crate::ast::{CompositionMode, Eacl};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which level a constituent EACL came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyLayer {
    /// System-wide policy: applies to all applications, set by the domain
    /// administrator (mandatory component).
    System,
    /// Local policy: set by individual users or applications (discretionary
    /// component).
    Local,
}

/// The result of composing system-wide and local policy lists.
///
/// Iteration order is evaluation order: all system EACLs first, then (unless
/// the mode is [`Stop`](CompositionMode::Stop)) all local EACLs.
///
/// Both layers are immutable shared lists: cloning a composition, or
/// composing from lists a policy store already holds, bumps two reference
/// counts and copies no EACL.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComposedPolicy {
    mode: CompositionMode,
    system: Arc<[Eacl]>,
    local: Arc<[Eacl]>,
}

impl ComposedPolicy {
    /// Composes `system` and `local` policy lists.
    ///
    /// The mode is taken from the **first system-wide EACL that declares
    /// one**; if no system policy declares a mode, [`Narrow`]
    /// (conjunction — the safe default) is assumed. Under
    /// [`Stop`], local policies are dropped here and never consulted.
    ///
    /// [`Narrow`]: CompositionMode::Narrow
    /// [`Stop`]: CompositionMode::Stop
    ///
    /// # Examples
    ///
    /// ```rust
    /// use gaa_eacl::{parse_eacl, ComposedPolicy, CompositionMode};
    ///
    /// # fn main() -> Result<(), gaa_eacl::ParseEaclError> {
    /// let system = parse_eacl("eacl_mode 2\nneg_access_right * *\n")?;
    /// let local = parse_eacl("pos_access_right apache *\n")?;
    /// let composed = ComposedPolicy::compose(vec![system], vec![local]);
    /// assert_eq!(composed.mode(), CompositionMode::Stop);
    /// assert!(composed.local().is_empty()); // stop discards local policies
    /// # Ok(())
    /// # }
    /// ```
    pub fn compose(system: impl Into<Arc<[Eacl]>>, local: impl Into<Arc<[Eacl]>>) -> Self {
        let system = system.into();
        let mode = system
            .iter()
            .find_map(|e| e.mode)
            .unwrap_or(CompositionMode::Narrow);
        let local = match mode {
            CompositionMode::Stop => Arc::default(),
            _ => local.into(),
        };
        ComposedPolicy {
            mode,
            system,
            local,
        }
    }

    /// Builds a composed policy from local policies only (no system-wide
    /// policy retrieved). The mode defaults to `Narrow`, which with an empty
    /// mandatory component reduces to "local policies decide".
    pub fn local_only(local: impl Into<Arc<[Eacl]>>) -> Self {
        ComposedPolicy {
            mode: CompositionMode::Narrow,
            system: Arc::default(),
            local: local.into(),
        }
    }

    /// The effective composition mode.
    pub fn mode(&self) -> CompositionMode {
        self.mode
    }

    /// System-wide EACLs, in priority order.
    pub fn system(&self) -> &[Eacl] {
        &self.system
    }

    /// Local EACLs, in priority order (empty under `Stop`).
    pub fn local(&self) -> &[Eacl] {
        &self.local
    }

    /// The shared allocation behind [`system`](Self::system): compositions
    /// built from the same store contents point at the same one.
    pub fn shared_system(&self) -> &Arc<[Eacl]> {
        &self.system
    }

    /// All EACLs in evaluation order (system first, then local), each tagged
    /// with its layer.
    pub fn layers(&self) -> impl Iterator<Item = (PolicyLayer, &Eacl)> {
        self.system
            .iter()
            .map(|e| (PolicyLayer::System, e))
            .chain(self.local.iter().map(|e| (PolicyLayer::Local, e)))
    }

    /// Total number of EACLs that will be consulted.
    pub fn len(&self) -> usize {
        self.system.len() + self.local.len()
    }

    /// True when no EACL will be consulted at all.
    pub fn is_empty(&self) -> bool {
        self.system.is_empty() && self.local.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AccessRight, Eacl, EaclEntry};

    fn grant(authority: &str) -> Eacl {
        Eacl::new().with_entry(EaclEntry::new(AccessRight::positive(authority, "*")))
    }

    fn deny_all_with_mode(mode: CompositionMode) -> Eacl {
        Eacl::with_mode(mode).with_entry(EaclEntry::new(AccessRight::negative("*", "*")))
    }

    #[test]
    fn system_policies_precede_local() {
        let composed = ComposedPolicy::compose(
            vec![deny_all_with_mode(CompositionMode::Narrow)],
            vec![grant("apache")],
        );
        let layers: Vec<PolicyLayer> = composed.layers().map(|(l, _)| l).collect();
        assert_eq!(layers, vec![PolicyLayer::System, PolicyLayer::Local]);
    }

    #[test]
    fn mode_comes_from_first_declaring_system_eacl() {
        let undeclared = grant("a");
        let expand = Eacl::with_mode(CompositionMode::Expand);
        let narrow = Eacl::with_mode(CompositionMode::Narrow);
        let composed = ComposedPolicy::compose(vec![undeclared, expand, narrow], vec![grant("b")]);
        assert_eq!(composed.mode(), CompositionMode::Expand);
    }

    #[test]
    fn mode_defaults_to_narrow() {
        let composed = ComposedPolicy::compose(vec![grant("a")], vec![grant("b")]);
        assert_eq!(composed.mode(), CompositionMode::Narrow);
    }

    #[test]
    fn stop_discards_local_policies() {
        let composed = ComposedPolicy::compose(
            vec![deny_all_with_mode(CompositionMode::Stop)],
            vec![grant("apache"), grant("sshd")],
        );
        assert!(composed.local().is_empty());
        assert_eq!(composed.len(), 1);
    }

    #[test]
    fn expand_and_narrow_keep_local_policies() {
        for mode in [CompositionMode::Expand, CompositionMode::Narrow] {
            let composed =
                ComposedPolicy::compose(vec![deny_all_with_mode(mode)], vec![grant("apache")]);
            assert_eq!(composed.local().len(), 1, "mode {mode:?}");
        }
    }

    #[test]
    fn local_only_composition() {
        let composed = ComposedPolicy::local_only(vec![grant("apache")]);
        assert_eq!(composed.mode(), CompositionMode::Narrow);
        assert!(composed.system().is_empty());
        assert_eq!(composed.len(), 1);
        assert!(!composed.is_empty());
    }

    #[test]
    fn empty_composition() {
        let composed = ComposedPolicy::compose(Vec::new(), Vec::new());
        assert!(composed.is_empty());
        assert_eq!(composed.len(), 0);
        assert_eq!(composed.layers().count(), 0);
    }
}
