//! `tripro` — command-line front end for the 3DPro engine.
//!
//! ```text
//! tripro generate --out DIR [--nuclei N] [--vessels V] [--seed S]
//! tripro build    --in DIR --out DIR [--bits B] [--lods L]
//! tripro info     --store DIR
//! tripro lods     --store DIR --id N --out DIR
//! tripro query intersect --target DIR --source DIR [--fr] [--accel A]
//! tripro query within    --target DIR --source DIR --distance D [...]
//! tripro query nn        --target DIR --source DIR [--k K] [...]
//! tripro serve           --target DIR --source DIR [--addr A] [...]
//! tripro metrics         [--addr A] [--check]
//! tripro trace           --target DIR --source DIR --slow MS [--kind K] | --addr A
//! ```

mod args;
mod commands;
mod error;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn run(argv: &[String]) -> Result<(), error::CliError> {
    match argv.first().map(String::as_str) {
        Some("generate") => commands::generate(&args::Parsed::parse(&argv[1..])?),
        Some("build") => commands::build(&args::Parsed::parse(&argv[1..])?),
        Some("info") => commands::info(&args::Parsed::parse(&argv[1..])?),
        Some("lods") => commands::lods(&args::Parsed::parse(&argv[1..])?),
        Some("serve") => commands::serve(&args::Parsed::parse(&argv[1..])?),
        Some("metrics") => commands::metrics(&args::Parsed::parse(&argv[1..])?),
        Some("trace") => commands::trace(&args::Parsed::parse(&argv[1..])?),
        Some("query") => {
            let kind = argv
                .get(1)
                .ok_or("query needs a subcommand: intersect|within|nn")?;
            commands::query(kind, &args::Parsed::parse(&argv[2..])?)
        }
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", HELP);
            Ok(())
        }
        Some(other) => Err(error::CliError::msg(format!(
            "unknown command {other:?}; try `tripro help`"
        ))),
    }
}

const HELP: &str = "\
tripro — progressive 3D spatial query engine (3DPro reproduction)

USAGE:
  tripro generate --out DIR [--nuclei N] [--vessels V] [--seed S] [--grid G]
      Generate a synthetic tissue block and write OBJ meshes into
      DIR/nuclei_a, DIR/nuclei_b, DIR/vessels.

  tripro build --in DIR --out DIR [--bits B] [--lods L] [--cuboid C] [--repair]
      PPVP-compress every .obj/.off under IN (recursively) into a store.
      --repair welds duplicates and normalises winding first.

  tripro info --store DIR
      Print object counts, LOD ladders, compressed sizes.

  tripro lods --store DIR --id N --out DIR
      Export every LOD of one object as OBJ files.

  tripro query intersect --target DIR --source DIR [--fr] [--accel A] [--threads T]
  tripro query within    --target DIR --source DIR --distance D [--fr] [--accel A]
  tripro query nn        --target DIR --source DIR [--k K] [--fr] [--accel A]
  tripro query contains  --target DIR --source DIR --x X --y Y --z Z
      Run a spatial join between two stores (contains probes only the
      target store). Default paradigm is FPR (progressive); --fr selects
      classical Filter-Refine.
      A = brute | partition | aabb | gpu | partition-gpu (default: aabb)

  tripro serve --target DIR --source DIR [--addr HOST:PORT] [--fr] [--accel A]
               [--max-inflight N] [--queue-depth Q] [--max-connections C]
               [--deadline-cap-ms MS] [--duration SECS] [--trace-slow-ms MS]
               [--shard-index I --shard-count N [--epoch E]]
      Serve both stores over the tripro-serve wire protocol
      (docs/protocol.md): admission-controlled, per-cuboid batched,
      deadline-aware. Default --addr 127.0.0.1:3750. With --duration the
      server exits after SECS; otherwise it runs until a Shutdown frame
      (e.g. `tripro-load --shutdown`). With --shard-index/--shard-count
      the process serves one shard of a cluster: the source store is cut
      to this shard's boundary-replicated subset under the (epoch, cell,
      count) shard map shared with the coordinator (docs/sharding.md).

  tripro serve --coordinator --target DIR --shards HOST:PORT,HOST:PORT,...
               [--addr HOST:PORT] [--epoch E] [--max-inflight N]
               [--per-shard-budget B] [--allow-partial]
               [--deadline-cap-ms MS] [--duration SECS]
      Front a set of shard engines with a scatter-gather coordinator:
      single-object queries route to owning shards, joins fan out and
      merge byte-identically to a single engine. Backends are validated
      (epoch, shard map, dataset fingerprints) before serving.
      --allow-partial lets kNN answer with a partial-flagged result when
      a shard fails instead of a typed error.

  tripro metrics [--addr HOST:PORT] [--check]
      Fetch a running node's metrics snapshot (a Metrics frame) and print
      it as Prometheus text exposition. Pointed at a coordinator, the
      snapshot is federated: every shard's snapshot is exact-merged with
      the coordinator's own under a node label (plus a node=\"cluster\"
      aggregate). --check validates the exposition format and fails on
      malformed output. Default --addr 127.0.0.1:3750. See
      docs/observability.md for the metric inventory.

  tripro trace --target DIR --source DIR [--slow MS] [--kind intersect|within|nn|knn]
               [--keep N] [--fr] [--accel A] [--k K] [--distance D]
      Run one query per target object with span tracing enabled and print
      the slow-query log: the N worst (default 8) request traces at or
      over the MS threshold (default 0 = trace everything), rendered as
      indented span trees (filter, refine rounds, decodes, cache touches).

  tripro trace --addr HOST:PORT
      Instead fetch the slow-query log of a running server over a
      TraceLog frame. On a coordinator each entry is a stitched cluster
      waterfall: per-shard stats summaries render as shard subtrees under
      the coordinator's root span, all under one trace id.
";
