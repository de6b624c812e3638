//! Multi-pattern compilation: the whole pattern set in one pass.
//!
//! Policies and the §7.2 signature database both match glob / `re:` patterns
//! against the request line — and until this module existed, each pattern
//! ran its own scan, making matching cost O(patterns) on the hottest
//! attacker-controlled path. [`CombinedMatcher`] compiles an entire pattern
//! set once and answers *every* pattern's verdict in a single pass:
//!
//! * **Aho-Corasick tier** — globs of the form `*literal*` (every signature
//!   the paper names) collapse to case-folded substring search; all their
//!   literals share one [`gaa_ids::matcher::AhoCorasick`] automaton.
//! * **Merged-NFA tier** — `re:` patterns are Thompson-compiled by
//!   [`crate::regex`], merged into one state arena with per-pattern accept
//!   bits, and simulated through a lazily-constructed DFA (subset states
//!   interned on demand, dense ASCII rows). If the DFA grows past its
//!   budget it degrades to direct NFA-set simulation — still linear in the
//!   input, never wrong.
//! * **Trivial tiers** — all-star globs are constant-true, star-free globs
//!   are a case-insensitive equality check, invalid `re:` patterns are
//!   constant-false (parity with the per-pattern path, where they never
//!   match).
//! * **Residual tier** — globs the automata cannot express faithfully
//!   (anything containing `?`, which matches one *byte* while the regex
//!   engine walks *chars*, or multi-segment stars) fall back to the exact
//!   per-pattern two-pointer matcher. Fail-safe: a pattern the compiler
//!   cannot place never changes verdict, only speed.
//!
//! [`CompiledSignatureDb`] wraps a [`SignatureDb`] in a combined matcher
//! keyed by [`SignatureDb::version`]; [`PatternOracle`] carries one pass's
//! verdicts into [`crate::regex::signature_matches`] via a scoped
//! thread-local so the evaluator registry (whose signature is fixed) can
//! read them without re-scanning.
//!
//! The [`analysis`] submodule exposes the same automata to `gaa-analyze`
//! for the GAA701–705 pattern lints: per-pattern NFAs with an exact
//! representative alphabet (every `CharSpec` boundary ±1), product-walk
//! language inclusion, emptiness, and seeded accepted-string sampling for
//! differential replay.

use crate::regex::{compile_cached, CharSpec, Regex, State, REGEX_PREFIX};
use gaa_ids::matcher::{glob_match_ci, AhoCorasick};
use gaa_ids::signatures::Matcher;
use gaa_ids::{AttackSignature, SignatureDb, SignatureMatch};
use gaa_race::sync::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-pattern placement decided at compile time.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tier {
    /// Glob consisting only of `*`s: matches every text.
    AlwaysTrue,
    /// Invalid `re:` pattern: never matches (parity with the per-pattern
    /// path, which treats compile failures as non-matching).
    NeverTrue,
    /// Star-free, `?`-free glob: case-insensitive equality with the text.
    Exact,
    /// `*literal*` glob: answered by the shared Aho-Corasick automaton.
    Substring,
    /// Valid `re:` pattern: answered by the merged NFA / lazy DFA.
    Merged,
    /// Anything else: exact per-pattern fallback (`?` globs keep their
    /// byte-level semantics, multi-segment star globs keep two-pointer).
    Residual,
}

/// How many patterns landed in each tier (diagnostics for benches/docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounts {
    /// Constant-true patterns (all-star globs).
    pub always_true: usize,
    /// Constant-false patterns (invalid regexes).
    pub never_true: usize,
    /// Case-insensitive exact-equality globs.
    pub exact: usize,
    /// Aho-Corasick substring globs.
    pub substring: usize,
    /// Merged-NFA regexes.
    pub merged: usize,
    /// Per-pattern fallback.
    pub residual: usize,
}

/// Bitset of per-pattern verdicts returned by [`CombinedMatcher::match_set`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchSet {
    bits: Vec<u64>,
    len: usize,
}

impl MatchSet {
    fn new(len: usize) -> Self {
        MatchSet {
            bits: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    #[inline]
    fn set(&mut self, idx: usize) {
        self.bits[idx / 64] |= 1u64 << (idx % 64);
    }

    /// Did pattern `idx` (by position in the compiled set) match?
    #[inline]
    pub fn matched(&self, idx: usize) -> bool {
        idx < self.len && self.bits[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Number of patterns in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Indices of all matched patterns, ascending.
    pub fn matched_indices(&self) -> Vec<usize> {
        (0..self.len).filter(|&i| self.matched(i)).collect()
    }
}

#[inline]
fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d |= *s;
    }
}

// ---- merged NFA + lazy DFA ----

/// Budget for interned DFA states. Past this the matcher degrades to direct
/// NFA-set simulation — still linear per input char, never incorrect.
const MAX_DFA_STATES: usize = 2048;

struct MergedNfa {
    /// All patterns' NFA states copied into one arena.
    states: Vec<State>,
    /// `accept_owner[s] = Some((pattern_idx, anchored_end))` when arena
    /// state `s` is the accept state of that pattern.
    accept_owner: Vec<Option<(usize, bool)>>,
    /// Start states re-injected at every input position (unanchored `^`).
    starts_unanchored: Vec<usize>,
    /// Start states live only at position 0 (`^`-anchored).
    starts_anchored: Vec<usize>,
    /// Epsilon closure of the unanchored starts, precomputed.
    unanchored_closure: Vec<u32>,
    /// Total pattern count of the owning matcher (bit-vector width).
    width: usize,
    /// Lazily constructed DFA over subset states. `// ordering:` the Mutex
    /// serializes all DFA reads and construction; no atomics involved.
    dfa: Mutex<Dfa>,
}

struct Dfa {
    states: Vec<DfaState>,
    intern: HashMap<Vec<u32>, u32>,
    /// Set when the state budget was exhausted; all subsequent calls take
    /// the NFA-simulation path.
    saturated: bool,
}

struct DfaState {
    /// Sorted arena-state subset this DFA state denotes.
    set: Vec<u32>,
    /// Dense transitions for ASCII; `-1` = not yet constructed.
    ascii: [i32; 128],
    /// Sparse transitions for everything else.
    other: HashMap<char, u32>,
    /// Patterns (unanchored-`$`) accepting in this state — sticky during a
    /// scan: once seen, the pattern has matched.
    immediate: Vec<u64>,
    /// Patterns (`$`-anchored) accepting in this state — counted only when
    /// the input ends here.
    fin: Vec<u64>,
}

impl MergedNfa {
    fn build(width: usize, regexes: &[(usize, Regex)]) -> MergedNfa {
        let mut states = Vec::new();
        let mut accept_owner = Vec::new();
        let mut starts_unanchored = Vec::new();
        let mut starts_anchored = Vec::new();
        for (pattern_idx, re) in regexes {
            let off = states.len();
            for st in re.states() {
                let shifted = match st {
                    State::Char { spec, next } => State::Char {
                        spec: spec.clone(),
                        next: next + off,
                    },
                    State::Split { a, b } => State::Split {
                        a: a + off,
                        b: b + off,
                    },
                    State::Accept => State::Accept,
                };
                accept_owner.push(match st {
                    State::Accept => Some((*pattern_idx, re.anchored_end())),
                    _ => None,
                });
                states.push(shifted);
            }
            let start = re.start() + off;
            if re.anchored_start() {
                starts_anchored.push(start);
            } else {
                starts_unanchored.push(start);
            }
        }
        let mut nfa = MergedNfa {
            states,
            accept_owner,
            starts_unanchored,
            starts_anchored,
            unanchored_closure: Vec::new(),
            width,
            dfa: Mutex::new(Dfa {
                states: Vec::new(),
                intern: HashMap::new(),
                saturated: false,
            }),
        };
        nfa.unanchored_closure = nfa.closure(nfa.starts_unanchored.clone());
        let initial = nfa.closure(
            nfa.starts_anchored
                .iter()
                .chain(nfa.starts_unanchored.iter())
                .copied()
                .collect(),
        );
        let root = nfa.dfa_state_for(&initial);
        let mut dfa = nfa.dfa.lock();
        dfa.intern.insert(initial.clone(), 0);
        dfa.states.push(root);
        drop(dfa);
        nfa
    }

    /// Sorted epsilon closure of `seeds`.
    fn closure(&self, seeds: Vec<usize>) -> Vec<u32> {
        let mut active = vec![false; self.states.len()];
        let mut stack = seeds;
        while let Some(s) = stack.pop() {
            if s >= active.len() || active[s] {
                continue;
            }
            active[s] = true;
            if let State::Split { a, b } = self.states[s] {
                stack.push(a);
                stack.push(b);
            }
        }
        active
            .iter()
            .enumerate()
            .filter(|(_, &on)| on)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// The subset reached from `set` on `c`, with unanchored starts
    /// re-injected (implicit leading `.*` of unanchored search).
    fn move_set(&self, set: &[u32], c: char) -> Vec<u32> {
        let mut seeds: Vec<usize> = Vec::new();
        for &s in set {
            if let State::Char { spec, next } = &self.states[s as usize] {
                if spec.matches(c) {
                    seeds.push(*next);
                }
            }
        }
        let mut active = vec![false; self.states.len()];
        let mut stack = seeds;
        while let Some(s) = stack.pop() {
            if s >= active.len() || active[s] {
                continue;
            }
            active[s] = true;
            if let State::Split { a, b } = self.states[s] {
                stack.push(a);
                stack.push(b);
            }
        }
        for &s in &self.unanchored_closure {
            active[s as usize] = true;
        }
        active
            .iter()
            .enumerate()
            .filter(|(_, &on)| on)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Builds the accept bit-vectors for a subset and wraps it as a DFA state.
    fn dfa_state_for(&self, set: &[u32]) -> DfaState {
        let words = self.width.div_ceil(64);
        let mut immediate = vec![0u64; words];
        let mut fin = vec![0u64; words];
        for &s in set {
            if let Some((pattern, anchored_end)) = self.accept_owner[s as usize] {
                let target = if anchored_end {
                    &mut fin
                } else {
                    &mut immediate
                };
                target[pattern / 64] |= 1u64 << (pattern % 64);
            }
        }
        // An unanchored-end accept is also an end-of-input accept.
        let fin_total: Vec<u64> = fin
            .iter()
            .zip(immediate.iter())
            .map(|(f, i)| f | i)
            .collect();
        DfaState {
            set: set.to_vec(),
            ascii: [-1; 128],
            other: HashMap::new(),
            immediate,
            fin: fin_total,
        }
    }

    /// One DFA transition, constructing the target on demand. `None` means
    /// the state budget is exhausted (caller falls back to NFA simulation).
    fn dfa_step(&self, dfa: &mut Dfa, from: u32, c: char) -> Option<u32> {
        let cached = if (c as u32) < 128 {
            let t = dfa.states[from as usize].ascii[c as usize];
            if t >= 0 {
                Some(t as u32)
            } else {
                None
            }
        } else {
            dfa.states[from as usize].other.get(&c).copied()
        };
        if let Some(t) = cached {
            return Some(t);
        }
        let target_set = self.move_set(&dfa.states[from as usize].set, c);
        let target = if let Some(&t) = dfa.intern.get(&target_set) {
            t
        } else {
            if dfa.states.len() >= MAX_DFA_STATES {
                return None;
            }
            let t = dfa.states.len() as u32;
            let st = self.dfa_state_for(&target_set);
            dfa.intern.insert(target_set, t);
            dfa.states.push(st);
            t
        };
        if (c as u32) < 128 {
            dfa.states[from as usize].ascii[c as usize] = target as i32;
        } else {
            dfa.states[from as usize].other.insert(c, target);
        }
        Some(target)
    }

    /// Single pass over `text`; ORs every matching pattern's bit into `out`.
    fn match_into(&self, text: &str, out: &mut MatchSet) {
        {
            let mut dfa = self.dfa.lock();
            if !dfa.saturated {
                let words = self.width.div_ceil(64);
                let mut sticky = vec![0u64; words];
                let mut sid = 0u32;
                or_into(&mut sticky, &dfa.states[0].immediate);
                let mut exhausted = false;
                for c in text.chars() {
                    match self.dfa_step(&mut dfa, sid, c) {
                        Some(next) => {
                            sid = next;
                            or_into(&mut sticky, &dfa.states[sid as usize].immediate);
                        }
                        None => {
                            exhausted = true;
                            break;
                        }
                    }
                }
                if !exhausted {
                    or_into(&mut out.bits, &sticky);
                    or_into(&mut out.bits, &dfa.states[sid as usize].fin);
                    return;
                }
                dfa.saturated = true;
            }
        }
        self.nfa_scan(text, out);
    }

    /// Direct NFA-set simulation (budget-exhaustion fallback; also the
    /// reference the DFA path is property-tested against).
    fn nfa_scan(&self, text: &str, out: &mut MatchSet) {
        let words = self.width.div_ceil(64);
        let mut sticky = vec![0u64; words];
        let mut current = self.closure(
            self.starts_anchored
                .iter()
                .chain(self.starts_unanchored.iter())
                .copied()
                .collect(),
        );
        let (imm, _) = self.accept_bits(&current, words);
        or_into(&mut sticky, &imm);
        for c in text.chars() {
            current = self.move_set(&current, c);
            let (imm, _) = self.accept_bits(&current, words);
            or_into(&mut sticky, &imm);
        }
        let (_, fin) = self.accept_bits(&current, words);
        or_into(&mut out.bits, &sticky);
        or_into(&mut out.bits, &fin);
    }

    fn accept_bits(&self, set: &[u32], words: usize) -> (Vec<u64>, Vec<u64>) {
        let mut immediate = vec![0u64; words];
        let mut fin = vec![0u64; words];
        for &s in set {
            if let Some((pattern, anchored_end)) = self.accept_owner[s as usize] {
                let target = if anchored_end {
                    &mut fin
                } else {
                    &mut immediate
                };
                target[pattern / 64] |= 1u64 << (pattern % 64);
            }
        }
        let fin_total: Vec<u64> = fin
            .iter()
            .zip(immediate.iter())
            .map(|(f, i)| f | i)
            .collect();
        (immediate, fin_total)
    }

    /// Interned DFA states so far (diagnostics).
    fn dfa_states(&self) -> usize {
        self.dfa.lock().states.len()
    }
}

// ---- the combined matcher ----

/// A whole pattern set compiled for single-pass evaluation.
///
/// Patterns use the condition-value dialect: globs by default,
/// [`REGEX_PREFIX`]-prefixed regexes. Verdict parity with the per-pattern
/// reference ([`match_one`]) is the load-bearing invariant — it is enforced
/// by property tests here, by the `pattern_match` bench's differential
/// gate, and (for lint claims built on these automata) by `gaa-analyze`'s
/// replay harness.
///
/// # Examples
///
/// ```rust
/// use gaa_conditions::multipattern::CombinedMatcher;
///
/// let set = CombinedMatcher::compile(&[
///     "*phf*".to_string(),
///     "re:%[0-9a-f][0-9a-f]".to_string(),
///     "*test-cgi*".to_string(),
/// ]);
/// let hits = set.match_set("GET /cgi-bin/phf?x=%c0 HTTP/1.0");
/// assert!(hits.matched(0) && hits.matched(1) && !hits.matched(2));
/// ```
pub struct CombinedMatcher {
    patterns: Vec<String>,
    /// Pattern source → its first index in `patterns`, shared with every
    /// [`PatternOracle`] computed over this matcher.
    index: Arc<HashMap<String, usize>>,
    tiers: Vec<Tier>,
    /// Folded literal for `Exact` patterns, indexed like `patterns`.
    exact: Vec<Option<String>>,
    ac: Option<AhoCorasick>,
    merged: Option<MergedNfa>,
    residual: Vec<usize>,
    counts: TierCounts,
}

impl CombinedMatcher {
    /// Compiles `patterns` (condition-value dialect). Never fails: patterns
    /// the automata cannot hold are placed in the per-pattern residual tier.
    pub fn compile(patterns: &[String]) -> CombinedMatcher {
        let mut tiers = Vec::with_capacity(patterns.len());
        let mut exact = vec![None; patterns.len()];
        let mut needles: Vec<(usize, String)> = Vec::new();
        let mut regexes: Vec<(usize, Regex)> = Vec::new();
        let mut residual = Vec::new();
        let mut counts = TierCounts::default();

        for (idx, pattern) in patterns.iter().enumerate() {
            if let Some(src) = pattern.strip_prefix(REGEX_PREFIX) {
                match Regex::new(src) {
                    Ok(re) => {
                        counts.merged += 1;
                        regexes.push((idx, re));
                        tiers.push(Tier::Merged);
                    }
                    Err(_) => {
                        counts.never_true += 1;
                        tiers.push(Tier::NeverTrue);
                    }
                }
                continue;
            }
            // Glob dialect.
            if pattern.contains('?') {
                // `?` matches one *byte*; the automata walk chars. Keep the
                // exact byte semantics via the two-pointer matcher.
                counts.residual += 1;
                residual.push(idx);
                tiers.push(Tier::Residual);
                continue;
            }
            let core = pattern.trim_matches('*');
            let leading = pattern.len() - pattern.trim_start_matches('*').len();
            let trailing = pattern.len() - pattern.trim_end_matches('*').len();
            if core.is_empty() {
                if pattern.is_empty() {
                    // Empty glob matches only the empty text.
                    counts.exact += 1;
                    exact[idx] = Some(String::new());
                    tiers.push(Tier::Exact);
                } else {
                    counts.always_true += 1;
                    tiers.push(Tier::AlwaysTrue);
                }
            } else if !core.contains('*') && leading >= 1 && trailing >= 1 {
                counts.substring += 1;
                needles.push((idx, core.to_ascii_lowercase()));
                tiers.push(Tier::Substring);
            } else if !pattern.contains('*') {
                counts.exact += 1;
                exact[idx] = Some(pattern.to_ascii_lowercase());
                tiers.push(Tier::Exact);
            } else {
                // Anchored or multi-segment star glob: two-pointer fallback.
                counts.residual += 1;
                residual.push(idx);
                tiers.push(Tier::Residual);
            }
        }

        let ac = if needles.is_empty() {
            None
        } else {
            Some(AhoCorasick::new(&needles))
        };
        let merged = if regexes.is_empty() {
            None
        } else {
            Some(MergedNfa::build(patterns.len(), &regexes))
        };
        let mut index = HashMap::with_capacity(patterns.len());
        for (idx, pattern) in patterns.iter().enumerate() {
            index.entry(pattern.clone()).or_insert(idx);
        }
        CombinedMatcher {
            patterns: patterns.to_vec(),
            index: Arc::new(index),
            tiers,
            exact,
            ac,
            merged,
            residual,
            counts,
        }
    }

    /// The compiled pattern sources, in input order.
    pub fn patterns(&self) -> &[String] {
        &self.patterns
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True when no patterns were compiled.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Tier placement statistics.
    pub fn tier_counts(&self) -> TierCounts {
        self.counts
    }

    /// Interned lazy-DFA states constructed so far (0 when the set holds no
    /// regexes). Diagnostics for benches and lint budgets.
    pub fn dfa_states(&self) -> usize {
        self.merged.as_ref().map_or(0, |m| m.dfa_states())
    }

    /// Evaluates every pattern against `text` in one pass.
    pub fn match_set(&self, text: &str) -> MatchSet {
        let mut out = MatchSet::new(self.patterns.len());
        for (idx, tier) in self.tiers.iter().enumerate() {
            match tier {
                Tier::AlwaysTrue => out.set(idx),
                Tier::Exact => {
                    if let Some(lit) = &self.exact[idx] {
                        if lit.len() == text.len() && lit.eq_ignore_ascii_case(text) {
                            out.set(idx);
                        }
                    }
                }
                _ => {}
            }
        }
        if let Some(ac) = &self.ac {
            ac.scan(text, &mut |idx| out.set(idx));
        }
        if let Some(merged) = &self.merged {
            merged.match_into(text, &mut out);
        }
        for &idx in &self.residual {
            if glob_match_ci(&self.patterns[idx], text) {
                out.set(idx);
            }
        }
        out
    }

    /// Reference evaluation: every pattern through the per-pattern path.
    /// The differential gates compare this against [`Self::match_set`].
    pub fn match_set_per_pattern(&self, text: &str) -> MatchSet {
        let mut out = MatchSet::new(self.patterns.len());
        for (idx, pattern) in self.patterns.iter().enumerate() {
            if match_one(pattern, text) {
                out.set(idx);
            }
        }
        out
    }
}

/// The per-pattern reference matcher: exactly what the evaluator does for
/// a single pattern token (glob via the case-folded two-pointer scan,
/// `re:` via the process-wide compiled-regex cache, invalid regexes never
/// match). Combined-tier results are defined as agreeing with this.
pub fn match_one(pattern: &str, text: &str) -> bool {
    if let Some(src) = pattern.strip_prefix(REGEX_PREFIX) {
        compile_cached(src).is_some_and(|re| re.is_match(text))
    } else {
        glob_match_ci(pattern, text)
    }
}

// ---- compiled signature database ----

/// A [`SignatureDb`] compiled for single-pass scanning.
///
/// Scan results are identical to [`SignatureDb::scan`] (same matches, same
/// database order); the glob work collapses into one [`CombinedMatcher`]
/// pass. Stamped with [`SignatureDb::version`] so callers can detect a
/// stale compilation after runtime `add`/`remove`.
pub struct CompiledSignatureDb {
    version: u64,
    matcher: CombinedMatcher,
    plan: Vec<SigPlan>,
    sigs: Vec<AttackSignature>,
}

enum SigPlan {
    /// Index into the combined matcher's pattern list.
    Glob(usize),
    /// `input_len > bound`.
    Len(usize),
}

impl CompiledSignatureDb {
    /// Compiles the database's current contents.
    pub fn compile(db: &SignatureDb) -> CompiledSignatureDb {
        let mut patterns = Vec::new();
        let mut plan = Vec::new();
        for sig in db.signatures() {
            match &sig.matcher {
                Matcher::UrlGlob(glob) => {
                    plan.push(SigPlan::Glob(patterns.len()));
                    patterns.push(glob.clone());
                }
                Matcher::InputLongerThan(bound) => plan.push(SigPlan::Len(*bound)),
            }
        }
        CompiledSignatureDb {
            version: db.version(),
            matcher: CombinedMatcher::compile(&patterns),
            plan,
            sigs: db.signatures().to_vec(),
        }
    }

    /// The [`SignatureDb::version`] this compilation reflects.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The underlying combined matcher (analysis/diagnostics).
    pub fn matcher(&self) -> &CombinedMatcher {
        &self.matcher
    }

    /// Single-pass equivalent of [`SignatureDb::scan`].
    pub fn scan(&self, request_line: &str, input_len: usize) -> Vec<SignatureMatch> {
        let hits = self.matcher.match_set(request_line);
        self.sigs
            .iter()
            .zip(self.plan.iter())
            .filter(|(_, plan)| match plan {
                SigPlan::Glob(idx) => hits.matched(*idx),
                SigPlan::Len(bound) => input_len > *bound,
            })
            .map(|(s, _)| SignatureMatch {
                id: s.id.clone(),
                class: s.class,
                severity: s.severity,
                confidence: s.confidence,
                recommendation: s.recommendation.clone(),
            })
            .collect()
    }

    /// Single-pass equivalent of [`SignatureDb::worst_match`].
    pub fn worst_match(&self, request_line: &str, input_len: usize) -> Option<SignatureMatch> {
        self.scan(request_line, input_len)
            .into_iter()
            .max_by_key(|m| m.severity)
    }
}

// ---- the per-request pattern oracle ----

/// One combined pass's verdicts for a single request text, addressed by
/// pattern index through the matcher's pattern → index map.
///
/// The condition-evaluator registry has a fixed signature (`value`, `env`)
/// with no room for per-request scratch state, and the decision cache keys
/// on every context parameter — so verdicts must *not* travel through the
/// context. Instead the serving layer computes the pass once, installs the
/// oracle for the scope of the authorization call, and
/// [`crate::regex::signature_matches`] reads per-pattern verdicts from it.
/// Any pattern (or any text) the oracle does not cover falls back to the
/// per-pattern path — fail-safe by construction.
///
/// Computing one copies no pattern: it keeps the pass's [`MatchSet`] and
/// shares the index map [`CombinedMatcher::compile`] built, so its cost does
/// not grow with the size of the pattern set.
pub struct PatternOracle {
    text: String,
    hits: MatchSet,
    index: Arc<HashMap<String, usize>>,
}

impl PatternOracle {
    /// Runs one combined pass of `matcher` over `text` and captures every
    /// pattern's verdict.
    pub fn compute(matcher: &CombinedMatcher, text: &str) -> PatternOracle {
        PatternOracle {
            text: text.to_string(),
            hits: matcher.match_set(text),
            index: matcher.index.clone(),
        }
    }

    /// The verdict for `pattern`, if the matcher compiled it.
    fn verdict(&self, pattern: &str) -> Option<bool> {
        self.index.get(pattern).map(|&idx| self.hits.matched(idx))
    }

    /// The request text the verdicts were computed for.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Number of patterns covered.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the oracle covers no patterns.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

thread_local! {
    static ORACLE: RefCell<Option<PatternOracle>> = const { RefCell::new(None) };
}

/// Scope guard restoring the previously installed oracle (if any) on drop.
pub struct OracleGuard {
    prev: Option<PatternOracle>,
    installed: bool,
}

impl Drop for OracleGuard {
    fn drop(&mut self) {
        if self.installed {
            let prev = self.prev.take();
            ORACLE.with(|slot| *slot.borrow_mut() = prev);
        }
    }
}

/// Installs `oracle` for the current thread until the guard drops.
pub fn install_oracle(oracle: PatternOracle) -> OracleGuard {
    let prev = ORACLE.with(|slot| slot.borrow_mut().replace(oracle));
    OracleGuard {
        prev,
        installed: true,
    }
}

/// The installed oracle's verdict for `pattern` against `text`, if it has
/// one for exactly this text. `None` → caller uses the per-pattern path.
pub(crate) fn oracle_verdict(pattern: &str, text: &str) -> Option<bool> {
    ORACLE.with(|slot| {
        let slot = slot.borrow();
        let oracle = slot.as_ref()?;
        if oracle.text != text {
            return None;
        }
        oracle.verdict(pattern)
    })
}

pub mod analysis {
    //! Analysis-facing automata for the GAA701–705 pattern lints.
    //!
    //! Exposes per-pattern char-NFAs with exact representative alphabets,
    //! product-walk language inclusion, emptiness, and seeded sampling of
    //! accepted strings. `?`-globs are excluded (their byte-level `?` has
    //! no faithful char model), so lints stay conservative: no automaton,
    //! no claim.

    use super::*;

    /// A single pattern compiled into a char-NFA for analysis.
    ///
    /// Globs compile to an anchored NFA (`*` → `.*`, ASCII letters →
    /// case-pair classes) reproducing the case-insensitive whole-text glob
    /// semantics; `re:` patterns reuse their Thompson NFA and anchor flags.
    pub struct PatternAutomaton {
        states: Vec<State>,
        start: usize,
        anchored_start: bool,
        anchored_end: bool,
        pattern: String,
    }

    /// Result of a [`language_included`] query.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Inclusion {
        /// Every string of the candidate language is accepted by the
        /// superset automaton (exact, over the joint representative
        /// alphabet).
        Included,
        /// A witness string accepted by the candidate but not the superset.
        NotIncluded {
            /// The separating string.
            witness: String,
        },
        /// Budget exhausted before the product walk completed — no claim.
        Unknown,
    }

    impl PatternAutomaton {
        /// Compiles `pattern` (condition-value dialect) for analysis.
        /// Returns `None` for `?`-globs (unfaithful char model) and invalid
        /// regexes (no language).
        pub fn compile(pattern: &str) -> Option<PatternAutomaton> {
            if let Some(src) = pattern.strip_prefix(REGEX_PREFIX) {
                let re = Regex::new(src).ok()?;
                return Some(PatternAutomaton {
                    states: re.states().to_vec(),
                    start: re.start(),
                    anchored_start: re.anchored_start(),
                    anchored_end: re.anchored_end(),
                    pattern: pattern.to_string(),
                });
            }
            if pattern.contains('?') {
                return None;
            }
            // Glob → anchored NFA, built directly on the State vocabulary.
            let mut states: Vec<State> = Vec::new();
            let mut start: Option<usize> = None;
            let mut pending: Vec<usize> = Vec::new(); // dangling outs to patch
            for c in pattern.chars() {
                let spec = if c == '*' {
                    None
                } else if c.is_ascii_alphabetic() {
                    Some(CharSpec::Class {
                        negated: false,
                        ranges: vec![
                            (c.to_ascii_lowercase(), c.to_ascii_lowercase()),
                            (c.to_ascii_uppercase(), c.to_ascii_uppercase()),
                        ],
                    })
                } else {
                    Some(CharSpec::Literal(c))
                };
                match spec {
                    Some(spec) => {
                        let idx = states.len();
                        states.push(State::Char {
                            spec,
                            next: usize::MAX,
                        });
                        patch(&mut states, &pending, idx);
                        pending = vec![idx];
                        if start.is_none() {
                            start = Some(idx);
                        }
                    }
                    None => {
                        // `*` = Star(Any): split -> (any -> split | out).
                        let split = states.len();
                        states.push(State::Split {
                            a: split + 1,
                            b: usize::MAX,
                        });
                        states.push(State::Char {
                            spec: CharSpec::Any,
                            next: split,
                        });
                        patch(&mut states, &pending, split);
                        pending = vec![split];
                        if start.is_none() {
                            start = Some(split);
                        }
                    }
                }
            }
            let accept = states.len();
            states.push(State::Accept);
            patch(&mut states, &pending, accept);
            Some(PatternAutomaton {
                start: start.unwrap_or(accept),
                states,
                anchored_start: true,
                anchored_end: true,
                pattern: pattern.to_string(),
            })
        }

        /// The source pattern.
        pub fn pattern(&self) -> &str {
            &self.pattern
        }

        /// Whether a match must consume the input to its end.
        pub fn anchored_end(&self) -> bool {
            self.anchored_end
        }

        fn closure(&self, seeds: Vec<usize>) -> Vec<u32> {
            let mut active = vec![false; self.states.len()];
            let mut stack = seeds;
            while let Some(s) = stack.pop() {
                if s >= active.len() || active[s] {
                    continue;
                }
                active[s] = true;
                if let State::Split { a, b } = self.states[s] {
                    stack.push(a);
                    stack.push(b);
                }
            }
            active
                .iter()
                .enumerate()
                .filter(|(_, &on)| on)
                .map(|(i, _)| i as u32)
                .collect()
        }

        /// The initial state set (epsilon-closed).
        pub fn initial(&self) -> Vec<u32> {
            self.closure(vec![self.start])
        }

        /// One char step, honoring unanchored-start re-injection.
        pub fn step(&self, set: &[u32], c: char) -> Vec<u32> {
            let mut seeds: Vec<usize> = Vec::new();
            for &s in set {
                if let State::Char { spec, next } = &self.states[s as usize] {
                    if spec.matches(c) {
                        seeds.push(*next);
                    }
                }
            }
            if !self.anchored_start {
                seeds.push(self.start);
            }
            self.closure(seeds)
        }

        /// Is an accept state active in `set`?
        pub fn accepting(&self, set: &[u32]) -> bool {
            set.iter()
                .any(|&s| matches!(self.states[s as usize], State::Accept))
        }

        /// Representative alphabet: one char per cell of the partition
        /// induced by every `CharSpec` boundary (each endpoint and its
        /// neighbors), plus an always-outside fallback. Exact for any
        /// product over automata whose representatives are unioned.
        pub fn representatives(&self) -> Vec<char> {
            let mut reps: Vec<char> = Vec::new();
            let mut push = |c: u32| {
                if let Some(c) = char::from_u32(c) {
                    reps.push(c);
                }
            };
            for st in &self.states {
                if let State::Char { spec, .. } = st {
                    match spec {
                        CharSpec::Any => {}
                        CharSpec::Literal(c) => {
                            push(*c as u32);
                            push((*c as u32).wrapping_sub(1));
                            push(*c as u32 + 1);
                        }
                        CharSpec::Class { ranges, .. } => {
                            for &(lo, hi) in ranges {
                                push(lo as u32);
                                push((lo as u32).wrapping_sub(1));
                                push(hi as u32);
                                push(hi as u32 + 1);
                            }
                        }
                    }
                }
            }
            push('a' as u32);
            push(0x0F_0000); // plane-15 private use: outside any sane range
            reps.sort_unstable();
            reps.dedup();
            reps
        }

        /// Is the language empty? Exact: reachability over satisfiable
        /// char edges (a `CharSpec` with no satisfying char is a dead edge).
        pub fn is_empty_language(&self) -> bool {
            let mut seen = vec![false; self.states.len()];
            let mut stack = vec![self.start];
            while let Some(s) = stack.pop() {
                if seen[s] {
                    continue;
                }
                seen[s] = true;
                match &self.states[s] {
                    State::Accept => return false,
                    State::Split { a, b } => {
                        stack.push(*a);
                        stack.push(*b);
                    }
                    State::Char { spec, next } => {
                        if spec_satisfiable(spec).is_some() {
                            stack.push(*next);
                        }
                    }
                }
            }
            true
        }

        /// The shortest accepted string, found by BFS over subset states
        /// (budget-bounded). `None` when the language is empty or the
        /// budget runs out.
        pub fn shortest_accepted(&self, budget: usize) -> Option<String> {
            use std::collections::{HashSet, VecDeque};
            let reps = self.representatives();
            let start = self.initial();
            if self.accepting(&start) {
                return Some(String::new());
            }
            let mut queue: VecDeque<(Vec<u32>, String)> = VecDeque::new();
            let mut seen: HashSet<Vec<u32>> = HashSet::new();
            seen.insert(start.clone());
            queue.push_back((start, String::new()));
            let mut visited = 0usize;
            while let Some((set, s)) = queue.pop_front() {
                visited += 1;
                if visited > budget {
                    return None;
                }
                for &c in &reps {
                    let next = self.step(&set, c);
                    if next.is_empty() {
                        continue;
                    }
                    let mut ns = s.clone();
                    ns.push(c);
                    if self.accepting(&next) {
                        return Some(ns);
                    }
                    if seen.insert(next.clone()) {
                        queue.push_back((next, ns));
                    }
                }
            }
            None
        }

        /// Seeded accepted-string sampling: the BFS-shortest witness plus
        /// guided random walks (each step picks among chars that keep the
        /// automaton alive) collecting up to `want` distinct accepted
        /// strings of length ≤ `max_len`. Used to replay subsumption
        /// claims through the real matcher. May return fewer (or none) —
        /// callers must treat an empty sample as "cannot confirm".
        pub fn sample_accepted(&self, seed: u64, max_len: usize, want: usize) -> Vec<String> {
            let reps = self.representatives();
            if reps.is_empty() {
                return Vec::new();
            }
            let mut found: Vec<String> = Vec::new();
            if let Some(shortest) = self.shortest_accepted(4096) {
                found.push(shortest);
            }
            let mut rng = seed ^ 0x9E37_79B9_7F4A_7C15;
            let mut next_u64 = move || {
                // SplitMix64 step: deterministic, dependency-free.
                rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = rng;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            'walks: for _ in 0..(want * 64) {
                if found.len() >= want {
                    break;
                }
                let mut set = self.initial();
                let mut s = String::new();
                if self.accepting(&set) && !found.contains(&s) {
                    found.push(s.clone());
                    continue;
                }
                for _ in 0..max_len {
                    // Candidate chars that keep at least one NFA state live.
                    let alive: Vec<(char, Vec<u32>)> = reps
                        .iter()
                        .map(|&c| (c, self.step(&set, c)))
                        .filter(|(_, next)| !next.is_empty())
                        .collect();
                    if alive.is_empty() {
                        continue 'walks; // dead end; restart
                    }
                    let (c, stepped) = alive[(next_u64() % alive.len() as u64) as usize].clone();
                    set = stepped;
                    s.push(c);
                    if self.accepting(&set) {
                        if !found.contains(&s) {
                            found.push(s.clone());
                        }
                        continue 'walks;
                    }
                }
            }
            found
        }
    }

    fn patch(states: &mut [State], pending: &[usize], target: usize) {
        for &idx in pending {
            match &mut states[idx] {
                State::Char { next, .. } => *next = target,
                State::Split { b, .. } => *b = target,
                State::Accept => {}
            }
        }
    }

    /// A char satisfying `spec`, if any.
    fn spec_satisfiable(spec: &CharSpec) -> Option<char> {
        match spec {
            CharSpec::Any => Some('a'),
            CharSpec::Literal(c) => Some(*c),
            CharSpec::Class { negated, ranges } => {
                if !negated {
                    return ranges.first().map(|&(lo, _)| lo);
                }
                let inside = |c: char| ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi);
                let mut candidates: Vec<u32> = vec!['a' as u32, 0, 0x0F_0000, 0x10_FFFF];
                for &(lo, hi) in ranges {
                    candidates.push((lo as u32).wrapping_sub(1));
                    candidates.push(hi as u32 + 1);
                }
                candidates
                    .into_iter()
                    .filter_map(char::from_u32)
                    .find(|&c| !inside(c))
            }
        }
    }

    /// Does `sub`'s language lie inside `sup`'s? Exact product walk over
    /// the joint representative alphabet, bounded by `budget` product
    /// states; returns [`Inclusion::Unknown`] (never a guess) on
    /// exhaustion. A `NotIncluded` witness is a concrete string accepted
    /// by `sub` and rejected by `sup` — callers replay it through the real
    /// matchers before trusting it.
    pub fn language_included(
        sub: &PatternAutomaton,
        sup: &PatternAutomaton,
        budget: usize,
    ) -> Inclusion {
        use std::collections::VecDeque;

        let mut alphabet = sub.representatives();
        alphabet.extend(sup.representatives());
        alphabet.sort_unstable();
        alphabet.dedup();

        // Node: (sub set, sup set, sub sticky, sup sticky). Sticky = an
        // unanchored-end automaton has accepted some prefix (monotone: all
        // extensions match).
        type Node = (Vec<u32>, Vec<u32>, bool, bool);
        let accepts_here = |a: &PatternAutomaton, set: &[u32], sticky: bool| {
            if a.anchored_end {
                a.accepting(set)
            } else {
                sticky
            }
        };

        let s0 = sub.initial();
        let p0 = sup.initial();
        let sticky0 = (!sub.anchored_end && sub.accepting(&s0), {
            !sup.anchored_end && sup.accepting(&p0)
        });
        let start: Node = (s0, p0, sticky0.0, sticky0.1);

        let mut parents: HashMap<Node, Option<(Node, char)>> = HashMap::new();
        let mut queue: VecDeque<Node> = VecDeque::new();
        parents.insert(start.clone(), None);
        queue.push_back(start);
        let mut visited = 0usize;

        let rebuild = |parents: &HashMap<Node, Option<(Node, char)>>, mut node: Node| {
            let mut chars = Vec::new();
            while let Some(Some((parent, c))) = parents.get(&node) {
                chars.push(*c);
                node = parent.clone();
            }
            chars.reverse();
            chars.into_iter().collect::<String>()
        };

        while let Some(node) = queue.pop_front() {
            visited += 1;
            if visited > budget {
                return Inclusion::Unknown;
            }
            let (sset, pset, ssticky, psticky) = &node;
            if accepts_here(sub, sset, *ssticky) && !accepts_here(sup, pset, *psticky) {
                let witness = rebuild(&parents, node.clone());
                return Inclusion::NotIncluded { witness };
            }
            // Once an unanchored-end superset automaton is sticky, every
            // extension is accepted by it — nothing below can separate.
            if !sup.anchored_end && *psticky {
                continue;
            }
            for &c in &alphabet {
                let ns = sub.step(sset, c);
                let np = sup.step(pset, c);
                let nsticky = *ssticky || (!sub.anchored_end && sub.accepting(&ns));
                let npsticky = *psticky || (!sup.anchored_end && sup.accepting(&np));
                let next: Node = (ns, np, nsticky, npsticky);
                if !parents.contains_key(&next) {
                    parents.insert(next.clone(), Some((node.clone(), c)));
                    queue.push_back(next);
                }
            }
        }
        Inclusion::Included
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(patterns: &[&str]) -> CombinedMatcher {
        CombinedMatcher::compile(&patterns.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn assert_parity(set: &CombinedMatcher, text: &str) {
        let combined = set.match_set(text);
        let reference = set.match_set_per_pattern(text);
        for (idx, pattern) in set.patterns().iter().enumerate() {
            assert_eq!(
                combined.matched(idx),
                reference.matched(idx),
                "divergence: pattern `{pattern}` text `{text}`"
            );
        }
    }

    const CORPUS: &[&str] = &[
        "",
        "GET /index.html HTTP/1.1",
        "GET /cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd HTTP/1.0",
        "GET /cgi-bin/test-cgi?* HTTP/1.0",
        "GET /a///////////////////////// HTTP/1.0",
        "GET /scripts/..%c0%af../winnt/system32/cmd.exe HTTP/1.0",
        "GET /CGI-BIN/PHF HTTP/1.0",
        "päß-multibyte-ütf8",
        "/only",
        "phf",
        "*",
        "GET /docs/manual.html?page=3 HTTP/1.1",
    ];

    const PATTERNS: &[&str] = &[
        "*phf*",
        "*test-cgi*",
        "*%*",
        "*///////////////////*",
        "*../*",
        "*/etc/passwd*",
        "*",
        "",
        "phf",
        "index.html",
        "prefix*",
        "*suffix",
        "a*b*c",
        "*ph?f*",
        "re:%[0-9a-f][0-9a-f]",
        "re:^/only$",
        "re:/cgi-bin/(phf|test-cgi)",
        "re:^GET .*HTTP/1\\.[01]$",
        "re:(bad",
        "re:pä+ß",
        "re:\\d\\d\\d",
        "re:^$",
    ];

    #[test]
    fn combined_agrees_with_per_pattern_on_corpus() {
        let set = compile(PATTERNS);
        for text in CORPUS {
            assert_parity(&set, text);
        }
    }

    #[test]
    fn tier_placement() {
        let set = compile(PATTERNS);
        let counts = set.tier_counts();
        assert_eq!(counts.always_true, 1); // "*"
        assert_eq!(counts.never_true, 1); // "re:(bad"
        assert_eq!(counts.exact, 3); // "", "phf", "index.html"
        assert_eq!(counts.substring, 6); // the six paper-style *lit* globs
        assert_eq!(counts.merged, 7); // the valid regexes
        assert_eq!(counts.residual, 4); // prefix*/ *suffix / a*b*c / *ph?f*
    }

    #[test]
    fn empty_set_matches_nothing() {
        let set = compile(&[]);
        let hits = set.match_set("anything");
        assert!(hits.is_empty());
        assert_eq!(hits.matched_indices(), Vec::<usize>::new());
    }

    #[test]
    fn anchored_regexes_respect_ends() {
        let set = compile(&["re:^/a", "re:b$", "re:^/a$", "re:^$"]);
        for text in ["/a", "/ab", "x/a", "ab", "b", ""] {
            assert_parity(&set, text);
        }
    }

    #[test]
    fn dfa_and_nfa_fallback_agree() {
        let set = compile(&["re:(a|b)*c", "re:a+b+", "re:^x?y$"]);
        let texts = ["", "abc", "aabb", "xy", "y", "ababababc", "zzz"];
        // Force the NFA path by scanning through a fresh matcher whose DFA
        // we saturate artificially.
        if let Some(merged) = &set.merged {
            for text in texts {
                let mut via_dfa = MatchSet::new(set.len());
                merged.match_into(text, &mut via_dfa);
                let mut via_nfa = MatchSet::new(set.len());
                merged.nfa_scan(text, &mut via_nfa);
                assert_eq!(via_dfa, via_nfa, "text `{text}`");
            }
        } else {
            panic!("expected a merged tier");
        }
    }

    #[test]
    fn oracle_scopes_and_falls_back() {
        let set = compile(&["*phf*", "re:^/only$"]);
        let text = "GET /cgi-bin/phf HTTP/1.0";
        {
            let _guard = install_oracle(PatternOracle::compute(&set, text));
            // Covered pattern + covered text → oracle verdict.
            assert_eq!(oracle_verdict("*phf*", text), Some(true));
            assert_eq!(oracle_verdict("re:^/only$", text), Some(false));
            // Unknown pattern → fallback.
            assert_eq!(oracle_verdict("*nimda*", text), None);
            // Different text → fallback.
            assert_eq!(oracle_verdict("*phf*", "GET / HTTP/1.0"), None);
            // signature_matches consults the oracle transparently.
            assert!(crate::regex::signature_matches("*phf*", text));
        }
        // Guard dropped → no oracle.
        assert_eq!(oracle_verdict("*phf*", text), None);
    }

    #[test]
    fn nested_oracles_restore() {
        let set_a = compile(&["*a*"]);
        let set_b = compile(&["*b*"]);
        let _outer = install_oracle(PatternOracle::compute(&set_a, "xax"));
        {
            let _inner = install_oracle(PatternOracle::compute(&set_b, "xbx"));
            assert_eq!(oracle_verdict("*b*", "xbx"), Some(true));
            assert_eq!(oracle_verdict("*a*", "xax"), None);
        }
        assert_eq!(oracle_verdict("*a*", "xax"), Some(true));
    }

    #[test]
    fn compiled_signature_db_matches_interpreted_scan() {
        let db = SignatureDb::with_defaults();
        let compiled = CompiledSignatureDb::compile(&db);
        assert_eq!(compiled.version(), db.version());
        for text in CORPUS {
            for input_len in [0usize, 500, 1001, 5000] {
                assert_eq!(
                    compiled.scan(text, input_len),
                    db.scan(text, input_len),
                    "text `{text}` input_len {input_len}"
                );
                assert_eq!(
                    compiled.worst_match(text, input_len),
                    db.worst_match(text, input_len)
                );
            }
        }
    }

    #[test]
    fn signature_db_version_detects_staleness() {
        let mut db = SignatureDb::with_defaults();
        let compiled = CompiledSignatureDb::compile(&db);
        db.add(AttackSignature {
            id: "sig.new".into(),
            class: gaa_ids::AttackClass::CgiExploit,
            matcher: Matcher::UrlGlob("*newattack*".into()),
            severity: 5,
            confidence: 0.5,
            recommendation: "deny".into(),
        });
        assert_ne!(compiled.version(), db.version());
    }

    #[test]
    fn multibyte_and_edge_patterns() {
        // Satellite: empty pattern, consecutive `*` runs, `?` against
        // multibyte UTF-8, boundary-spanning classes, anchors around
        // glob-wrapped literals.
        let set = compile(&[
            "",
            "****",
            "*ä*",
            "?",
            "??",
            "ä?",
            "re:[^a]",
            "re:[^\u{7f}-\u{10FFFF}]",
            "re:^*ü*$", // dangling repetition: invalid, never matches
            "re:^ä$",
        ]);
        for text in ["", "ä", "äx", "xä", "a", "\u{7f}", "\u{80}", "ü", "**"] {
            assert_parity(&set, text);
        }
    }

    #[test]
    fn question_mark_glob_is_byte_level_even_combined() {
        // `ä` is two bytes: glob `ä?` wants those two bytes plus ONE more
        // byte — "äx" matches, "äöx" does not. The combined matcher must
        // preserve that byte-level reading (it routes these residual).
        let set = compile(&["ä?", "?"]);
        for text in ["äx", "ä", "äö", "x", "ab"] {
            assert_parity(&set, text);
        }
        // And the underlying truth, pinned:
        assert!(glob_match_ci("ä?", "äx"));
        assert!(!glob_match_ci("?", "ä")); // two bytes ≠ one byte
    }

    #[test]
    fn seeded_random_differential() {
        // Seeded pseudo-random texts over a hostile alphabet; every
        // pattern must agree with the reference on every text.
        let set = compile(PATTERNS);
        let alphabet: Vec<char> = "ab/%.c?*-01ä\u{10000} GETphf".chars().collect();
        let mut state = 0xDEAD_BEEF_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..400 {
            let len = (next() % 40) as usize;
            let text: String = (0..len)
                .map(|_| alphabet[(next() % alphabet.len() as u64) as usize])
                .collect();
            assert_parity(&set, &text);
        }
    }

    mod analysis_tests {
        use super::super::analysis::*;

        #[test]
        fn glob_automaton_matches_glob_semantics() {
            let a = PatternAutomaton::compile("*phf*").expect("compiles");
            let accepted = |text: &str| {
                let mut set = a.initial();
                let mut hit = a.accepting(&set) && !a.anchored_end();
                for c in text.chars() {
                    set = a.step(&set, c);
                    if !a.anchored_end() && a.accepting(&set) {
                        hit = true;
                    }
                }
                if a.anchored_end() {
                    a.accepting(&set)
                } else {
                    hit
                }
            };
            assert!(accepted("/cgi-bin/phf"));
            assert!(accepted("PHF"));
            assert!(!accepted("/index.html"));
            assert!(!accepted(""));
        }

        #[test]
        fn question_glob_has_no_analysis_model() {
            assert!(PatternAutomaton::compile("a?c").is_none());
            assert!(PatternAutomaton::compile("re:(bad").is_none());
        }

        #[test]
        fn inclusion_finds_subsumption() {
            let wide = PatternAutomaton::compile("*phf*").expect("wide");
            let narrow = PatternAutomaton::compile("*cgi-bin/phf*").expect("narrow");
            assert_eq!(
                language_included(&narrow, &wide, 100_000),
                Inclusion::Included
            );
            match language_included(&wide, &narrow, 100_000) {
                Inclusion::NotIncluded { witness } => {
                    assert!(super::match_one("*phf*", &witness));
                    assert!(!super::match_one("*cgi-bin/phf*", &witness));
                }
                other => panic!("expected NotIncluded, got {other:?}"),
            }
        }

        #[test]
        fn inclusion_mixes_dialects() {
            // Regex subsumed by a glob despite different dialects.
            let glob = PatternAutomaton::compile("*%*").expect("glob");
            let re = PatternAutomaton::compile("re:%[0-9]").expect("re");
            assert_eq!(language_included(&re, &glob, 100_000), Inclusion::Included);
            // Case gap: glob *phf* is NOT included in case-sensitive re:phf.
            let g = PatternAutomaton::compile("*phf*").expect("g");
            let r = PatternAutomaton::compile("re:phf").expect("r");
            match language_included(&g, &r, 100_000) {
                Inclusion::NotIncluded { witness } => {
                    assert!(super::match_one("*phf*", &witness));
                    assert!(!super::match_one("re:phf", &witness));
                }
                other => panic!("expected case witness, got {other:?}"),
            }
        }

        #[test]
        fn emptiness() {
            assert!(PatternAutomaton::compile("re:a[^\u{0}-\u{10FFFF}]b")
                .expect("compiles")
                .is_empty_language());
            assert!(!PatternAutomaton::compile("*phf*")
                .expect("compiles")
                .is_empty_language());
            assert!(!PatternAutomaton::compile("re:^$")
                .expect("compiles")
                .is_empty_language());
        }

        #[test]
        fn sampling_produces_real_matches() {
            for pattern in ["*phf*", "re:%[0-9a-f][0-9a-f]", "re:^/only$", "*a*"] {
                let a = PatternAutomaton::compile(pattern).expect("compiles");
                let samples = a.sample_accepted(42, 24, 8);
                assert!(!samples.is_empty(), "no samples for {pattern}");
                for s in samples {
                    assert!(
                        super::match_one(pattern, &s),
                        "sampled `{s}` does not match `{pattern}`"
                    );
                }
            }
        }
    }
}
