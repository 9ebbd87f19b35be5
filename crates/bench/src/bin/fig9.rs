//! Fig 9: portion of compressed bytes taken by each LOD segment (base LOD0
//! plus each refinement level), for the nuclei and vessel datasets.
//!
//! Objects have ragged LOD ladders (decimation stalls at different depths),
//! so shares are computed per object and averaged, with the object count
//! per level reported. Each level also reports the share of its segments
//! stored as plain varint bytes (the rest are range-coded, because coding
//! saved at least 1/16 of their bytes).
//!
//! ```sh
//! cargo run --release -p tripro-bench --bin fig9
//! ```

use tripro_bench::harness::{Scale, TableWriter, Workloads};

fn main() {
    let w = Workloads::generate(Scale::from_env());
    let mut out = TableWriter::new();
    out.line("Fig 9 — share of compressed bytes per LOD segment");

    for (name, store) in [("nuclei", &w.nuclei_a), ("vessels", &w.vessels)] {
        // Per-object shares, accumulated positionally.
        let mut share_sum: Vec<f64> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        let mut plain: Vec<usize> = Vec::new();
        let mut total_bytes = 0usize;
        for id in 0..store.len() as u32 {
            let cm = &store.object(id).compressed;
            let sizes = cm.segment_sizes();
            let total: usize = sizes.iter().sum();
            total_bytes += total;
            for (i, (s, p)) in sizes.iter().zip(cm.plain_segments()).enumerate() {
                if share_sum.len() <= i {
                    share_sum.push(0.0);
                    counts.push(0);
                    plain.push(0);
                }
                share_sum[i] += *s as f64 / total as f64;
                counts[i] += 1;
                plain[i] += usize::from(p);
            }
        }
        out.blank();
        out.line(format!(
            "{name}: total {} KiB across {} objects",
            total_bytes / 1024,
            store.len()
        ));
        for (lod, ((sum, n), p)) in share_sum.iter().zip(&counts).zip(&plain).enumerate() {
            let share = sum / *n as f64 * 100.0;
            let plain = *p as f64 / *n as f64 * 100.0;
            let bar = "#".repeat((share / 2.0).round() as usize);
            out.line(format!(
                "  LOD{lod:<2} {share:>5.1}%  ({n:>4} objects, {plain:>5.1}% plain)  {bar}"
            ));
        }
    }
    out.blank();
    out.line("Paper shape: higher LODs take progressively larger shares (each");
    out.line("level roughly doubles the face count it encodes); the base mesh");
    out.line("is a small fraction of the payload.");
    out.save("fig9");
}
