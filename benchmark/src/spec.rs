//! The benchmark's fixed tables: workloads, metrics, bounds, and the
//! `BENCHMARK.json` text generated from them (`--write-spec`; a unit test
//! keeps the committed file equal to it).

use std::fmt::Write as _;

/// How long one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 16;
/// Socket phases are split into this many windows; every socket metric is
/// the median over them.
pub const WINDOWS: usize = 5;
/// Open-loop replies later than this are counted and printed.
pub const LATE_REPLY_MS: u64 = 20;
/// Requests replayed through both twins by the correctness gate.
pub const GATE_REQUESTS: usize = 2_000;
/// Requests in the traced pass's fixed sample.
pub const TRACE_REQUESTS: usize = 20_000;
/// The server closes a connection after this many requests
/// (`ReactorConfig::default().max_requests_per_conn`), so no connection
/// script is longer.
pub const SCRIPT_REQUESTS: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StaticHot,
    UniqueMix,
    Scale1m,
    AttackMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StaticHot,
        Workload::UniqueMix,
        Workload::Scale1m,
        Workload::AttackMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StaticHot => "static_hot",
            Workload::UniqueMix => "unique_mix",
            Workload::Scale1m => "scale_1m",
            Workload::AttackMix => "attack_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::StaticHot => {
                "160 repeating cache keys: the decision cache answers, so front, HTTP parse/serialize, \
                 context extraction and the signature scan are nearly all of the cost"
            }
            Workload::UniqueMix => {
                "every request line unique (static, CGI, staff, 30% authenticated): the decision cache \
                 never hits, so oracle, evaluation, the three GAA phases and credential checks do the work"
            }
            Workload::Scale1m => {
                "10^6 principals and a 1003-entry policy: slice store, group index and auth cache decide \
                 between 3 and 1003 entries per request; set-up time and memory are large enough to show"
            }
            Workload::AttackMix => {
                "static_hot clients beside attackers: each blacklist insert flushes the decision cache and \
                 fires notify, update_log and IDS reports, so invalidation cost shows in legit tails"
            }
        }
    }

    /// The fixed offered rate of the open-loop phase, requests per second
    /// over all connections: a quarter of the closed-loop `rps` measured
    /// when the benchmark was defined, rounded down to 1 000, then frozen.
    pub fn open_rate_rps(self) -> u64 {
        match self {
            Workload::StaticHot => 7_000,
            Workload::UniqueMix => 3_000,
            Workload::Scale1m => 5_000,
            Workload::AttackMix => 6_000,
        }
    }

    /// Set-ups timed per run; `setup_s` is their median. The million-
    /// principal set-up takes seconds and repeats closely, the small ones
    /// take milliseconds and need more repetitions.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::Scale1m => 3,
            _ => 15,
        }
    }

    /// The directory under `deploy/` holding the workload's policies.
    pub fn policy_dir(self) -> &'static str {
        match self {
            Workload::StaticHot | Workload::UniqueMix => "base",
            Workload::Scale1m => "scale",
            Workload::AttackMix => "attack",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the system sees, per workload.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "svc_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "svc_us_p99",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "gaa_share",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "lat_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "lat_us_p95",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn us(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "us",
        better: Better::Lower,
    }
}

/// Single-layer figures from the traced pass (`--trace 1`). A `_us` figure
/// is the p50 of isolated calls into that layer's public function.
pub const PER_LAYER: [PerLayer; 37] = [
    us("httpd.handle_bytes_us"),
    us("httpd.bytes_self_us"),
    us("http.parse_us"),
    us("http.serialize_us"),
    us("server.handle_us"),
    us("server.handle_us_p99"),
    us("server.self_us"),
    us("server.open_us"),
    us("glue.authorize_us"),
    us("glue.authorize_us_p99"),
    us("glue.context_us"),
    us("ids.scan_us"),
    PerLayer {
        name: "ids.reports",
        unit: "count",
        better: Better::Lower,
    },
    PerLayer {
        name: "core.dcache_hit_ratio",
        unit: "ratio",
        better: Better::Higher,
    },
    PerLayer {
        name: "core.dcache_invalidations",
        unit: "count",
        better: Better::Lower,
    },
    us("conditions.oracle_us"),
    us("core.policy_fetch_us"),
    us("core.eval_interp_us"),
    us("core.eval_compiled_us"),
    PerLayer {
        name: "core.slice_hit_ratio",
        unit: "ratio",
        better: Better::Higher,
    },
    PerLayer {
        name: "core.slice_guard_fallbacks",
        unit: "count",
        better: Better::Lower,
    },
    us("core.slice_proof_us"),
    us("core.exec_control_us"),
    us("core.exec_control_us_p99"),
    us("core.post_exec_us"),
    us("core.post_exec_us_p99"),
    us("auth.verify_us"),
    PerLayer {
        name: "auth.share_authenticated",
        unit: "ratio",
        better: Better::Lower,
    },
    us("audit.record_us"),
    PerLayer {
        name: "audit.records",
        unit: "count",
        better: Better::Lower,
    },
    us("eacl.parse_us"),
    us("eacl.compose_us"),
    us("front.socket_us"),
    PerLayer {
        name: "front.reconnects",
        unit: "count",
        better: Better::Lower,
    },
    PerLayer {
        name: "front.saturation_rejects",
        unit: "count",
        better: Better::Lower,
    },
    us("trace.svc_us_p50"),
    PerLayer {
        name: "trace.overhead_share",
        unit: "ratio",
        better: Better::Lower,
    },
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, workload) in Workload::ALL.iter().enumerate() {
        let comma = if i + 1 < Workload::ALL.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            workload.name(),
            workload.why()
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, metric) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            metric.name,
            metric.unit,
            metric.better.as_str(),
            metric.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, metric) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            metric.name,
            metric.unit,
            metric.better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = crate::deploy::bench_root().join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "run with --write-spec and commit the result"
        );
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for name in names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        for workload in Workload::ALL {
            assert!(
                workload.why().len() <= 200 && !workload.why().contains('\n'),
                "{}",
                workload.name()
            );
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
