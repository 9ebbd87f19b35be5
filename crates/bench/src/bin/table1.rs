//! Table 1: execution time (seconds) of the five join tests under
//! FR and FPR, for every acceleration strategy.
//!
//! ```sh
//! TRIPRO_SCALE=small cargo run --release -p tripro-bench --bin table1
//! ```

use tripro::{Accel, Paradigm};
use tripro_bench::harness::{fmt_secs, Scale, TableWriter, TestId, Workloads};

fn main() {
    let scale = Scale::from_env();
    let w = Workloads::generate(scale);
    let mut out = TableWriter::new();

    out.line(format!(
        "Table 1 — execution time (seconds); scale={scale:?}, threads={}",
        tripro_bench::harness::threads()
    ));
    out.line(format!(
        "{:<8} {:<5} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "Test", "Par.", "Brute-force", "Partition", "AABB", "GPU", "Partition+GPU"
    ));

    for test in TestId::selected() {
        let mut accels = vec![Accel::Brute, Accel::Partition, Accel::Aabb, Accel::Gpu];
        if test.has_partition_gpu_column() {
            accels.push(Accel::PartitionGpu);
        }
        let paradigms: Vec<Paradigm> = match std::env::var("TRIPRO_PARADIGMS").as_deref() {
            Ok("FR") => vec![Paradigm::FilterRefine],
            Ok("FPR") => vec![Paradigm::FilterProgressiveRefine],
            _ => vec![Paradigm::FilterRefine, Paradigm::FilterProgressiveRefine],
        };
        for paradigm in paradigms {
            let mut cells = Vec::new();
            for accel in &accels {
                // One §6.5 profiling round picks the FPR LOD list per test.
                let lods = (paradigm == Paradigm::FilterProgressiveRefine)
                    .then(|| w.profile_lods(test, *accel));
                let cell = w.run(test, paradigm, *accel, lods);
                eprintln!(
                    "[table1] {} {} {:<14} {:>8}s  ({} matches)",
                    test.label(),
                    paradigm.label(),
                    accel.label(),
                    fmt_secs(cell.seconds),
                    cell.matches
                );
                cells.push(fmt_secs(cell.seconds));
            }
            while cells.len() < 5 {
                cells.push("N/A".to_string());
            }
            out.line(format!(
                "{:<8} {:<5} {:>12} {:>12} {:>12} {:>12} {:>14}",
                test.label(),
                paradigm.label(),
                cells[0],
                cells[1],
                cells[2],
                cells[3],
                cells[4]
            ));
        }
    }
    out.blank();
    out.line("Paper shape to check: FPR beats FR in every column; partition only");
    out.line("helps vessel tests; AABB helps distance queries; when the join");
    out.line("driver occupies every core, the simulated-GPU column degenerates");
    out.line("to brute force (see EXPERIMENTS.md).");
    let mut name = match std::env::var("TRIPRO_TESTS") {
        Ok(sel) => format!("table1_{}", sel.replace(',', "_")),
        Err(_) => "table1".to_string(),
    };
    if let Ok(p) = std::env::var("TRIPRO_PARADIGMS") {
        name.push('_');
        name.push_str(&p);
    }
    out.save(&name);
}
