//! The ledger's metric table — names, units, directions and regression
//! bounds — and the `BENCHMARK.json` manifest rendered from it, so the
//! program and the manifest cannot drift apart (a unit test compares the
//! committed file with this table).

use crate::json::Json;
use crate::workload::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old`.
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - old) / old,
            Better::Higher => (old - new) / old,
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Timed passes of one `--seconds`-long run last about this long each.
pub const PASS_NOMINAL_S: u64 = 4;
/// `run_seconds` of the manifest: five timed passes.
pub const RUN_SECONDS: u64 = 20;

use Better::{Higher, Lower};

/// Timing and CPU bounds are set from this machine's measured floor, not
/// from what one would like to detect: two ten-run sets of the same code,
/// half an hour apart, disagreed by up to 0.18, and a slow spell of +0.4 was
/// seen (the host has a fast and a slow state that each last minutes to
/// tens of minutes). A tighter bound would reject unchanged code. Two sets
/// whose runs alternate agree within 0.09; that is what `--check` does and
/// what a claim of a gain must do. Memory does not move with the host's
/// speed. `stored_bytes_per_raw_byte` is exact and the same for every seed;
/// `ok_frac` must stay 1.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "op_p50_ms", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "op_p90_ms", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "cpu_ms_per_op", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Lower, bound: 0.10 },
    EndToEnd { name: "stored_bytes_per_raw_byte", unit: "B/B", better: Lower, bound: 0.02 },
    EndToEnd { name: "ok_frac", unit: "frac", better: Higher, bound: 0.001 },
];

/// `(name, unit, better)`, grouped by layer (= module name).
pub const PER_LAYER: [(&str, &str, Better); 61] = [
    ("mesh.encode_us_per_face", "us", Lower),
    ("mesh.decode_full_ns_per_face", "ns", Lower),
    ("mesh.decode_lod0_us", "us", Lower),
    ("mesh.decode_step_ns_per_face", "ns", Lower),
    ("mesh.stored_bytes_per_face", "B", Lower),
    ("store.build_ms", "ms", Lower),
    ("cache.miss_us", "us", Lower),
    ("cache.hit_ns", "ns", Lower),
    ("cache.hit_ratio", "frac", Higher),
    ("cache.redecode_x", "x", Lower),
    ("cache.pressure_penalty_x", "x", Lower),
    ("cache.resident_mb", "MiB", Lower),
    ("index.rtree_bulk_load_us_per_obj", "us", Lower),
    ("index.rtree_probe_ns", "ns", Lower),
    ("index.rtree_candidates_per_probe", "count", Lower),
    ("index.aabb_build_ns_per_face", "ns", Lower),
    ("index.aabb_min_dist_us_per_pair", "us", Lower),
    ("index.aabb_intersect_us_per_pair", "us", Lower),
    ("compute.gpu_min_dist_ns_per_facepair", "ns", Lower),
    ("compute.gpu_intersect_ns_per_facepair", "ns", Lower),
    ("compute.brute_min_dist_ns_per_facepair", "ns", Lower),
    ("compute.tri_dist_ns", "ns", Lower),
    ("compute.tri_intersect_ns", "ns", Lower),
    ("compute.facepairs_per_op", "count", Lower),
    ("query.intersect_join_ms", "ms", Lower),
    ("query.within_join_ms", "ms", Lower),
    ("query.nn_join_ms", "ms", Lower),
    ("query.knn_join_ms", "ms", Lower),
    ("query.scaling_x", "x", Higher),
    ("query.reported_filter_frac", "frac", Lower),
    ("query.reported_decode_frac", "frac", Lower),
    ("query.reported_compute_frac", "frac", Lower),
    ("query.unattributed_frac", "frac", Lower),
    ("query.lod_rounds_per_op", "count", Lower),
    ("query.resolved_pairs_per_op", "count", Higher),
    ("query.decoded_bytes_per_resolved_pair", "B/pair", Lower),
    ("query.one_ms.intersect", "ms", Lower),
    ("query.one_ms.within", "ms", Lower),
    ("query.one_ms.nn", "ms", Lower),
    ("query.one_ms.knn", "ms", Lower),
    ("protocol.encode_request_ns", "ns", Lower),
    ("protocol.decode_request_ns", "ns", Lower),
    ("protocol.encode_response_ns", "ns", Lower),
    ("protocol.decode_response_ns", "ns", Lower),
    ("protocol.bytes_per_request", "B", Lower),
    ("protocol.bytes_per_response", "B", Lower),
    ("server.rtt_ms.intersect", "ms", Lower),
    ("server.rtt_ms.within", "ms", Lower),
    ("server.rtt_ms.nn", "ms", Lower),
    ("server.rtt_ms.knn", "ms", Lower),
    ("server.rtt_ms.contains", "ms", Lower),
    ("server.overhead_ms", "ms", Lower),
    ("coordinator.rtt_ms.intersect", "ms", Lower),
    ("coordinator.rtt_ms.within", "ms", Lower),
    ("coordinator.rtt_ms.nn", "ms", Lower),
    ("coordinator.rtt_ms.knn", "ms", Lower),
    ("coordinator.rtt_ms.contains", "ms", Lower),
    ("coordinator.scatter_overhead_ms", "ms", Lower),
    ("coordinator.fanout_mean", "count", Lower),
    ("bench.trace_overhead_frac", "frac", Lower),
    ("bench.pass_spread_frac", "frac", Lower),
];

/// The `BENCHMARK.json` this table and the workload definitions stand for.
pub fn manifest() -> Json {
    let s = |x: &str| Json::Str(x.to_string());
    Json::obj([
        ("command", Json::Arr(vec![s("bash"), s("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Json::obj([
                            ("name", s(name)),
                            ("unit", s(unit)),
                            ("better", s(better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_metric_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `benchmark/run.sh --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(name_ok(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(unit_ok(u), "{u}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        assert!(PER_LAYER.len() <= 128 && manifest().render().len() < 64 << 10);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Lower.worsening(10.0, 9.0) < 0.0);
    }
}
