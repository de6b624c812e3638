//! Profile building and anomaly-based intrusion detection.
//!
//! §9 future work, implemented: "We will investigate a possibility of
//! implementing a simple profile building module and anomaly detector … to
//! support anomaly-based intrusion detection in addition to the
//! signature-based." The input is §3 item 7: "Legitimate access request
//! patterns. This information can be used to derive profiles that describe
//! typical behavior of users working with different applications."
//!
//! The profile keeps, per principal, running statistics over request
//! features (query length, path depth) and an hour-of-day histogram; the
//! detector scores a new request by combining z-scores with an
//! unusual-hour penalty. Scores above a configurable threshold flag the
//! request as anomalous.

use gaa_audit::time::Timestamp;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Features extracted from one request for profiling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestFeatures {
    /// Length of the query string in bytes.
    pub query_len: usize,
    /// Number of path segments in the URL.
    pub path_depth: usize,
    /// When the request was made (for the hour histogram).
    pub time: Timestamp,
}

impl RequestFeatures {
    /// Extracts features from a URL path+query and a timestamp.
    ///
    /// ```rust
    /// use gaa_audit::Timestamp;
    /// use gaa_ids::anomaly::RequestFeatures;
    ///
    /// let f = RequestFeatures::from_url("/a/b/c.html?x=1", Timestamp::from_millis(0));
    /// assert_eq!(f.path_depth, 3);
    /// assert_eq!(f.query_len, 3);
    /// ```
    pub fn from_url(url: &str, time: Timestamp) -> Self {
        let (path, query) = match url.split_once('?') {
            Some((p, q)) => (p, q),
            None => (url, ""),
        };
        RequestFeatures {
            query_len: query.len(),
            path_depth: path.split('/').filter(|s| !s.is_empty()).count(),
            time,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct FeatureStat {
    count: u64,
    mean: f64,
    m2: f64,
}

impl FeatureStat {
    fn observe(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    fn zscore(&self, value: f64) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let stddev = (self.m2 / (self.count - 1) as f64).sqrt();
        if stddev < 1e-9 {
            // Flat baseline: any deviation is maximally surprising.
            if (value - self.mean).abs() < 1e-9 {
                0.0
            } else {
                10.0
            }
        } else {
            ((value - self.mean) / stddev).abs()
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Profile {
    query_len: FeatureStat,
    path_depth: FeatureStat,
    hour_counts: [u64; 24],
    total: u64,
}

impl Profile {
    fn observe(&mut self, features: &RequestFeatures) {
        self.query_len.observe(features.query_len as f64);
        self.path_depth.observe(features.path_depth as f64);
        self.hour_counts[features.time.hour_of_day() as usize] += 1;
        self.total += 1;
    }
}

/// Per-principal profile builder and anomaly scorer.
///
/// Cloning shares the profile store.
#[derive(Debug, Clone)]
pub struct AnomalyDetector {
    profiles: Arc<Mutex<HashMap<String, Profile>>>,
    /// Score at or above which a request is flagged.
    threshold: f64,
    /// Minimum observations before the detector will flag anything for a
    /// principal (cold-start guard against false positives).
    min_observations: u64,
}

impl Default for AnomalyDetector {
    fn default() -> Self {
        AnomalyDetector {
            profiles: Arc::new(Mutex::new(HashMap::new())),
            threshold: 3.0,
            min_observations: 20,
        }
    }
}

impl AnomalyDetector {
    /// Detector with threshold 3.0 and a 20-observation cold start.
    pub fn new() -> Self {
        AnomalyDetector::default()
    }

    /// Sets the anomaly-score threshold.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Sets the cold-start observation count.
    pub fn with_min_observations(mut self, n: u64) -> Self {
        self.min_observations = n;
        self
    }

    /// Learns one *legitimate* request into `principal`'s profile
    /// (§3 item 7 feed). Only a principal's first observation allocates.
    pub fn learn(&self, principal: &str, features: &RequestFeatures) {
        let mut profiles = self.profiles.lock();
        if let Some(profile) = profiles.get_mut(principal) {
            profile.observe(features);
            return;
        }
        profiles
            .entry(principal.to_string())
            .or_default()
            .observe(features);
    }

    /// Anomaly score for a request: max feature z-score plus an
    /// unusual-hour penalty. Returns 0.0 during cold start.
    pub fn score(&self, principal: &str, features: &RequestFeatures) -> f64 {
        let profiles = self.profiles.lock();
        let Some(p) = profiles.get(principal) else {
            return 0.0;
        };
        if p.total < self.min_observations {
            return 0.0;
        }
        let z_query = p.query_len.zscore(features.query_len as f64);
        let z_depth = p.path_depth.zscore(features.path_depth as f64);
        let hour = features.time.hour_of_day() as usize;
        let hour_fraction = p.hour_counts[hour] as f64 / p.total as f64;
        // Never-seen hour adds a fixed penalty; rare hours a smaller one.
        let hour_penalty = if p.hour_counts[hour] == 0 {
            2.0
        } else if hour_fraction < 0.02 {
            1.0
        } else {
            0.0
        };
        z_query.max(z_depth) + hour_penalty
    }

    /// Is the request anomalous for this principal?
    pub fn is_anomalous(&self, principal: &str, features: &RequestFeatures) -> bool {
        self.score(principal, features) >= self.threshold
    }

    /// Number of learned observations for `principal`.
    pub fn observations(&self, principal: &str) -> u64 {
        self.profiles.lock().get(principal).map_or(0, |p| p.total)
    }

    /// Serializes every profile to a line-oriented text format, so learned
    /// behaviour survives server restarts (profiles take §3-item-7 traffic
    /// and time to build; losing them reopens the cold-start window).
    ///
    /// Format (one line per principal, `|`-separated fields):
    /// `name|total|q_count,q_mean,q_m2|d_count,d_mean,d_m2|h0,h1,…,h23`
    pub fn export_profiles(&self) -> String {
        let profiles = self.profiles.lock();
        let mut names: Vec<&String> = profiles.keys().collect();
        names.sort();
        let mut out = String::new();
        for name in names {
            let p = &profiles[name];
            let hours: Vec<String> = p.hour_counts.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "{}|{}|{},{},{}|{},{},{}|{}\n",
                name,
                p.total,
                p.query_len.count,
                p.query_len.mean,
                p.query_len.m2,
                p.path_depth.count,
                p.path_depth.mean,
                p.path_depth.m2,
                hours.join(","),
            ));
        }
        out
    }

    /// Restores profiles exported by
    /// [`export_profiles`](AnomalyDetector::export_profiles), replacing any
    /// same-named principals. Returns how many profiles were loaded.
    ///
    /// # Errors
    ///
    /// Returns the 1-based line number of the first malformed line; no
    /// profiles before it are rolled back (load-then-verify if that
    /// matters).
    pub fn import_profiles(&self, text: &str) -> Result<usize, usize> {
        fn parse_stat(field: &str) -> Option<FeatureStat> {
            let mut parts = field.split(',');
            Some(FeatureStat {
                count: parts.next()?.parse().ok()?,
                mean: parts.next()?.parse().ok()?,
                m2: parts.next()?.parse().ok()?,
            })
        }
        let mut loaded = 0;
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let parse = || -> Option<(String, Profile)> {
                let mut fields = line.split('|');
                let name = fields.next()?.to_string();
                let total: u64 = fields.next()?.parse().ok()?;
                let query_len = parse_stat(fields.next()?)?;
                let path_depth = parse_stat(fields.next()?)?;
                let mut hour_counts = [0u64; 24];
                let mut hours = fields.next()?.split(',');
                for slot in &mut hour_counts {
                    *slot = hours.next()?.parse().ok()?;
                }
                if hours.next().is_some() || fields.next().is_some() {
                    return None;
                }
                Some((
                    name,
                    Profile {
                        query_len,
                        path_depth,
                        hour_counts,
                        total,
                    },
                ))
            };
            match parse() {
                Some((name, profile)) => {
                    self.profiles.lock().insert(name, profile);
                    loaded += 1;
                }
                None => return Err(idx + 1),
            }
        }
        Ok(loaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 10:00 on day 0, plus `i` minutes.
    fn daytime(i: u64) -> Timestamp {
        Timestamp::from_millis(10 * 3_600_000 + i * 60_000)
    }

    /// 03:00 on day 0 — outside the learned activity window.
    fn night() -> Timestamp {
        Timestamp::from_millis(3 * 3_600_000)
    }

    fn train(detector: &AnomalyDetector, user: &str, n: u64) {
        for i in 0..n {
            let url = format!("/docs/page{}.html?id={}", i % 7, i % 10);
            detector.learn(user, &RequestFeatures::from_url(&url, daytime(i)));
        }
    }

    #[test]
    fn cold_start_never_flags() {
        let d = AnomalyDetector::new();
        let weird = RequestFeatures::from_url(
            "/a/b/c/d/e/f/g/h?xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
            night(),
        );
        assert_eq!(d.score("nobody", &weird), 0.0);
        d.learn("alice", &RequestFeatures::from_url("/x", daytime(0)));
        assert!(!d.is_anomalous("alice", &weird));
    }

    #[test]
    fn normal_traffic_scores_low() {
        let d = AnomalyDetector::new();
        train(&d, "alice", 50);
        let typical = RequestFeatures::from_url("/docs/page3.html?id=4", daytime(30));
        assert!(d.score("alice", &typical) < 3.0);
        assert!(!d.is_anomalous("alice", &typical));
    }

    #[test]
    fn oversized_query_is_anomalous() {
        let d = AnomalyDetector::new();
        train(&d, "alice", 50);
        let huge = format!("/docs/page1.html?{}", "x".repeat(500));
        let features = RequestFeatures::from_url(&huge, daytime(100));
        assert!(
            d.is_anomalous("alice", &features),
            "score {}",
            d.score("alice", &features)
        );
    }

    #[test]
    fn unusual_hour_adds_penalty() {
        let d = AnomalyDetector::new().with_threshold(1.5);
        train(&d, "alice", 50);
        let typical_daytime = RequestFeatures::from_url("/docs/page3.html?id=4", daytime(30));
        let typical_night = RequestFeatures::from_url("/docs/page3.html?id=4", night());
        assert!(d.score("alice", &typical_night) > d.score("alice", &typical_daytime));
        assert!(d.is_anomalous("alice", &typical_night));
    }

    #[test]
    fn deep_paths_are_anomalous() {
        let d = AnomalyDetector::new();
        train(&d, "alice", 50);
        let deep = RequestFeatures::from_url("/a/b/c/d/e/f/g/h/i/j/k/l?id=1", daytime(100));
        assert!(d.is_anomalous("alice", &deep));
    }

    #[test]
    fn profiles_are_per_principal() {
        let d = AnomalyDetector::new();
        train(&d, "alice", 50);
        assert_eq!(d.observations("alice"), 50);
        assert_eq!(d.observations("bob"), 0);
        let huge = format!("/docs/x?{}", "q".repeat(500));
        let features = RequestFeatures::from_url(&huge, daytime(1));
        // Bob has no profile: not flagged. Alice: flagged.
        assert!(!d.is_anomalous("bob", &features));
        assert!(d.is_anomalous("alice", &features));
    }

    #[test]
    fn feature_extraction() {
        let f = RequestFeatures::from_url("/", Timestamp::from_millis(0));
        assert_eq!(f.path_depth, 0);
        assert_eq!(f.query_len, 0);
        let f = RequestFeatures::from_url("/a//b/?", Timestamp::from_millis(0));
        assert_eq!(f.path_depth, 2);
        assert_eq!(f.query_len, 0);
    }

    #[test]
    fn export_import_round_trip_preserves_scores() {
        let d = AnomalyDetector::new();
        train(&d, "alice", 50);
        train(&d, "bob", 30);
        let huge = format!("/docs/x?{}", "q".repeat(500));
        let weird = RequestFeatures::from_url(&huge, night());
        let typical = RequestFeatures::from_url("/docs/page3.html?id=4", daytime(30));
        let score_weird = d.score("alice", &weird);
        let score_typical = d.score("alice", &typical);

        let text = d.export_profiles();
        let restored = AnomalyDetector::new();
        assert_eq!(restored.import_profiles(&text), Ok(2));
        assert_eq!(restored.observations("alice"), 50);
        assert_eq!(restored.observations("bob"), 30);
        assert!((restored.score("alice", &weird) - score_weird).abs() < 1e-9);
        assert!((restored.score("alice", &typical) - score_typical).abs() < 1e-9);
    }

    #[test]
    fn import_rejects_malformed_lines_with_location() {
        let d = AnomalyDetector::new();
        assert_eq!(d.import_profiles(""), Ok(0));
        assert_eq!(d.import_profiles("garbage"), Err(1));
        let mut text = AnomalyDetector::new().export_profiles();
        text.push_str("alice|notanumber|1,2,3|1,2,3|0\n");
        assert_eq!(d.import_profiles(&text), Err(1));
    }

    #[test]
    fn import_replaces_existing_profiles() {
        let a = AnomalyDetector::new();
        train(&a, "alice", 50);
        let exported = a.export_profiles();
        let b = AnomalyDetector::new();
        train(&b, "alice", 5); // stale, smaller profile
        b.import_profiles(&exported).unwrap();
        assert_eq!(b.observations("alice"), 50);
    }
}
