//! Shared infrastructure for the table/figure harness binaries: scaled
//! dataset construction, the five paper test workloads (Table 1's rows),
//! and plain-text table printing.
//!
//! The paper's datasets (10M nuclei / 50k vessels on a 24-core + GPU node)
//! are scaled down to laptop size; set `TRIPRO_SCALE=tiny|small|medium` to
//! trade fidelity for runtime (default: `small`).

use tripro::{Accel, Engine, ObjectStore, Paradigm, QueryConfig, StatsSnapshot, StoreConfig};
use tripro_mesh::TriMesh;
use tripro_synth::{DatasetConfig, VesselConfig};

/// Dataset scale selected via `TRIPRO_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Tiny,
    Small,
    Medium,
}

impl Scale {
    pub fn from_env() -> Scale {
        match std::env::var("TRIPRO_SCALE").as_deref() {
            Ok("tiny") => Scale::Tiny,
            Ok("medium") => Scale::Medium,
            _ => Scale::Small,
        }
    }

    pub fn dataset_config(self) -> DatasetConfig {
        match self {
            Scale::Tiny => DatasetConfig {
                nuclei_count: 40,
                vessel_count: 1,
                vessel: VesselConfig {
                    levels: 2,
                    grid: 24,
                    ..Default::default()
                },
                ..Default::default()
            },
            Scale::Small => DatasetConfig {
                nuclei_count: 150,
                vessel_count: 2,
                vessel: VesselConfig {
                    levels: 3,
                    grid: 30,
                    ..Default::default()
                },
                ..Default::default()
            },
            Scale::Medium => DatasetConfig {
                nuclei_count: 600,
                vessel_count: 4,
                vessel: VesselConfig {
                    levels: 4,
                    grid: 44,
                    ..Default::default()
                },
                ..Default::default()
            },
        }
    }
}

/// Worker threads for join drivers (`TRIPRO_THREADS`, default: all cores).
pub fn threads() -> usize {
    std::env::var("TRIPRO_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// The five experiment workloads of Table 1 / Fig 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestId {
    /// Intersection join, nuclei segmentation A vs B.
    IntNN,
    /// Within join, nuclei vs nuclei.
    WnNN,
    /// Within join, nuclei vs vessels.
    WnNV,
    /// Nearest-neighbour join, nuclei vs nuclei.
    NnNN,
    /// Nearest-neighbour join, nuclei vs vessels.
    NnNV,
}

impl TestId {
    pub const ALL: [TestId; 5] = [
        TestId::IntNN,
        TestId::WnNN,
        TestId::WnNV,
        TestId::NnNN,
        TestId::NnNV,
    ];

    /// The tests selected by `TRIPRO_TESTS` (comma-separated labels, e.g.
    /// `TRIPRO_TESTS=WN-NV,NN-NV`); all five when unset. Lets long harness
    /// runs be split across invocations.
    pub fn selected() -> Vec<TestId> {
        match std::env::var("TRIPRO_TESTS") {
            Err(_) => Self::ALL.to_vec(),
            Ok(list) => {
                let wanted: Vec<String> = list
                    .split(',')
                    .map(|s| s.trim().to_ascii_uppercase())
                    .collect();
                Self::ALL
                    .into_iter()
                    .filter(|t| wanted.iter().any(|w| w == t.label()))
                    .collect()
            }
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            TestId::IntNN => "INT-NN",
            TestId::WnNN => "WN-NN",
            TestId::WnNV => "WN-NV",
            TestId::NnNN => "NN-NN",
            TestId::NnNV => "NN-NV",
        }
    }

    /// Does the partition+GPU combination apply (vessel-involving tests,
    /// as in Table 1's last column)?
    pub fn has_partition_gpu_column(&self) -> bool {
        matches!(self, TestId::WnNV | TestId::NnNV)
    }
}

/// The compressed datasets shared by all harness binaries.
pub struct Workloads {
    pub nuclei_a: ObjectStore,
    pub nuclei_b: ObjectStore,
    pub vessels: ObjectStore,
    pub raw_nuclei_a: Vec<TriMesh>,
    pub raw_nuclei_b: Vec<TriMesh>,
    pub raw_vessels: Vec<TriMesh>,
    /// Within-join distances (nuclei-nuclei, nuclei-vessel), sized so a
    /// healthy fraction of candidates matches — the regime where the paper's
    /// within results live.
    pub wn_nn_distance: f64,
    pub wn_nv_distance: f64,
}

impl Workloads {
    pub fn generate(scale: Scale) -> Workloads {
        let cfg = scale.dataset_config();
        eprintln!(
            "[harness] generating tissue block ({} nuclei, {} vessels)...",
            cfg.nuclei_count, cfg.vessel_count
        );
        let block = tripro_synth::generate(&cfg);
        let store_cfg = StoreConfig::default();
        eprintln!("[harness] compressing with PPVP...");
        let t0 = std::time::Instant::now();
        let nuclei_a = ObjectStore::build(&block.nuclei_a, &store_cfg).expect("encode A");
        let nuclei_b = ObjectStore::build(&block.nuclei_b, &store_cfg).expect("encode B");
        let vessels = ObjectStore::build(&block.vessels, &store_cfg).expect("encode vessels");
        eprintln!("[harness] compression took {:?}", t0.elapsed());
        Workloads {
            nuclei_a,
            nuclei_b,
            vessels,
            raw_nuclei_a: block.nuclei_a,
            raw_nuclei_b: block.nuclei_b,
            raw_vessels: block.vessels,
            wn_nn_distance: 2.0 * cfg.nucleus.radius,
            wn_nv_distance: 5.0 * cfg.nucleus.radius,
        }
    }

    /// Engine for a test (target store, source store).
    pub fn engine(&self, test: TestId) -> Engine<'_> {
        match test {
            TestId::IntNN => Engine::new(&self.nuclei_a, &self.nuclei_b),
            TestId::WnNN | TestId::NnNN => Engine::new(&self.nuclei_a, &self.nuclei_b),
            TestId::WnNV | TestId::NnNV => Engine::new(&self.nuclei_a, &self.vessels),
        }
    }

    /// Clear every decode cache (between timed runs).
    pub fn clear_caches(&self) {
        self.nuclei_a.cache().clear();
        self.nuclei_b.cache().clear();
        self.vessels.cache().clear();
    }

    /// Run one Table-1 cell; returns wall seconds, the stats snapshot and
    /// the number of result matches. For FPR the LOD list is chosen by the
    /// automatic profiling round of §6.5 (`lods` may pre-supply it to avoid
    /// re-profiling).
    pub fn run(
        &self,
        test: TestId,
        paradigm: Paradigm,
        accel: Accel,
        lods: Option<Vec<usize>>,
    ) -> CellResult {
        self.run_with_threads(test, paradigm, accel, lods, threads())
    }

    /// [`run`](Workloads::run) with an explicit driver thread count
    /// (used by the tracing-overhead guard, `bench_obs`).
    pub fn run_with_threads(
        &self,
        test: TestId,
        paradigm: Paradigm,
        accel: Accel,
        lods: Option<Vec<usize>>,
        driver_threads: usize,
    ) -> CellResult {
        let engine = self.engine(test);
        let mut cfg = QueryConfig::new(paradigm, accel).with_threads(driver_threads);
        if paradigm == Paradigm::FilterProgressiveRefine {
            let lods = lods.unwrap_or_else(|| self.profile_lods(test, accel));
            cfg = cfg.with_lods(lods);
        }
        self.clear_caches();
        let t0 = std::time::Instant::now();
        let (matches, stats) = match test {
            TestId::IntNN => {
                let (pairs, stats) = engine.intersection_join(&cfg).expect("join failed");
                (pairs.iter().map(|(_, v)| v.len()).sum::<usize>(), stats)
            }
            TestId::WnNN => {
                let (pairs, stats) = engine
                    .within_join(self.wn_nn_distance, &cfg)
                    .expect("join failed");
                (pairs.iter().map(|(_, v)| v.len()).sum::<usize>(), stats)
            }
            TestId::WnNV => {
                let (pairs, stats) = engine
                    .within_join(self.wn_nv_distance, &cfg)
                    .expect("join failed");
                (pairs.iter().map(|(_, v)| v.len()).sum::<usize>(), stats)
            }
            TestId::NnNN | TestId::NnNV => {
                let (pairs, stats) = engine.nn_join(&cfg).expect("join failed");
                (pairs.iter().filter(|(_, n)| n.is_some()).count(), stats)
            }
        };
        CellResult {
            seconds: t0.elapsed().as_secs_f64(),
            stats: stats.snapshot(),
            matches,
        }
    }

    /// §6.5: profile on a sample to pick the FPR LOD list for a test.
    pub fn profile_lods(&self, test: TestId, accel: Accel) -> Vec<usize> {
        let engine = self.engine(test);
        let kind = match test {
            TestId::IntNN => tripro::QueryKind::Intersection,
            TestId::WnNN => tripro::QueryKind::Within(self.wn_nn_distance),
            TestId::WnNV => tripro::QueryKind::Within(self.wn_nv_distance),
            TestId::NnNN | TestId::NnNV => tripro::QueryKind::NearestNeighbour,
        };
        let sample = (engine.target.len() / 10).clamp(10, 50);
        self.clear_caches();
        let choice = tripro::choose_lods(&engine, kind, sample, accel);
        choice.expect("profiling failed").chosen
    }
}

/// One timed harness cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    pub seconds: f64,
    pub stats: StatsSnapshot,
    pub matches: usize,
}

/// Fixed-width plain-text table writer (prints to stdout and collects the
/// same text so binaries can tee it into a file).
pub struct TableWriter {
    out: String,
}

impl Default for TableWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl TableWriter {
    pub fn new() -> Self {
        Self { out: String::new() }
    }

    pub fn line(&mut self, s: impl AsRef<str>) {
        println!("{}", s.as_ref());
        self.out.push_str(s.as_ref());
        self.out.push('\n');
    }

    pub fn blank(&mut self) {
        self.line("");
    }

    /// Write accumulated text to `target/<name>.txt` as well.
    pub fn save(&self, name: &str) {
        let dir = std::path::Path::new("target/harness");
        let _ = std::fs::create_dir_all(dir);
        let path = dir.join(format!("{name}.txt"));
        if std::fs::write(&path, &self.out).is_ok() {
            eprintln!("[harness] saved {}", path.display());
        }
    }
}

/// Format seconds with adaptive precision (paper prints 1 decimal).
pub fn fmt_secs(s: f64) -> String {
    if s < 0.01 {
        format!("{:.4}", s)
    } else if s < 1.0 {
        format!("{:.3}", s)
    } else {
        format!("{:.1}", s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_env_values() {
        // from_env reads the live environment; exercise the mapping table
        // through the match arms directly instead.
        assert_eq!(Scale::Tiny.dataset_config().nuclei_count, 40);
        assert!(
            Scale::Medium.dataset_config().nuclei_count
                > Scale::Small.dataset_config().nuclei_count
        );
    }

    #[test]
    fn test_ids_are_complete_and_labelled() {
        assert_eq!(TestId::ALL.len(), 5);
        let labels: Vec<&str> = TestId::ALL.iter().map(|t| t.label()).collect();
        assert_eq!(labels, vec!["INT-NN", "WN-NN", "WN-NV", "NN-NN", "NN-NV"]);
        assert!(TestId::WnNV.has_partition_gpu_column());
        assert!(!TestId::IntNN.has_partition_gpu_column());
    }

    #[test]
    fn fmt_secs_precision_bands() {
        assert_eq!(fmt_secs(0.0012), "0.0012");
        assert_eq!(fmt_secs(0.123), "0.123");
        assert_eq!(fmt_secs(12.34), "12.3");
    }

    #[test]
    fn tiny_workload_runs_one_cell() {
        let w = Workloads::generate(Scale::Tiny);
        let cell = w.run(
            TestId::IntNN,
            tripro::Paradigm::FilterProgressiveRefine,
            tripro::Accel::Brute,
            Some(vec![0]),
        );
        assert!(cell.seconds >= 0.0);
        assert!(cell.matches > 0, "tiny INT-NN must find intersections");
        // Engine wiring per test id.
        assert_eq!(w.engine(TestId::WnNV).source.len(), w.vessels.len());
        assert_eq!(w.engine(TestId::NnNN).source.len(), w.nuclei_b.len());
    }
}
