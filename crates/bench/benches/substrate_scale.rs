//! Distance-layer scaling: quote latency and resident distance rows on
//! Waxman WANs at 1k / 10k / 50k nodes.
//!
//! The point of the on-demand [`sft_core::LazyDistances`] engine is that
//! a quote on a 50 000-node substrate fills only the rows the solve reads
//! (servers, source, destinations, and the nodes of the paths it walks)
//! instead of precomputing an `n x n` matrix that would not even fit in
//! memory. Besides the console report this bench writes
//! `BENCH_scale.json` at the workspace root recording, per size, the
//! median quote latency, the engine's resident/peak row counts and row
//! misses, and the bytes those rows hold (12 per node per row), so the
//! "O(rows used), not O(n^2)" claim is tied to measured numbers.

use criterion::Criterion;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sft_core::{solve, MulticastTask, Network, Sfc, SolveOptions, VnfCatalog, VnfId};
use sft_graph::{generate, NodeId};
use std::hint::black_box;
use std::io::Write;

/// Server nodes per substrate — NFV points-of-presence are a small,
/// fixed-size subset of a WAN, which is exactly what keeps the distance
/// engine's working set independent of `n`.
const SERVERS: usize = 32;

/// Substrate sizes measured for the committed report. `cargo test` runs
/// this binary with `--test`, where one small size keeps the smoke run
/// cheap.
fn sizes(test_mode: bool) -> &'static [usize] {
    if test_mode {
        &[300]
    } else {
        &[1_000, 10_000, 50_000]
    }
}

/// A Waxman WAN with the same density defaults as the CLI's
/// `waxman:<n>` spec: `beta = 0.4`, `alpha` chosen so the expected
/// degree tracks `2 ln n` — connected before augmentation with
/// O(n log n) edges.
fn waxman_network(n: usize) -> Network {
    let mut rng = StdRng::seed_from_u64(42);
    let beta = 0.4;
    let degree = 2.0 * (n as f64).ln();
    let alpha = (degree / (4.0 * std::f64::consts::PI * beta * n as f64)).sqrt();
    let graph = generate::waxman(n, alpha, beta, 100.0, &mut rng)
        .expect("waxman parameters are valid")
        .graph;
    let stride = n / SERVERS;
    let mut builder = Network::builder(graph, VnfCatalog::uniform(3));
    for i in 0..SERVERS {
        builder = builder
            .server(NodeId(i * stride), 8.0)
            .expect("server ids are in range");
    }
    builder
        .uniform_setup_cost(2.0)
        .expect("setup cost is valid")
        .build()
        .expect("the build computes no shortest paths and cannot fail on a connected graph")
}

fn task_for(n: usize) -> MulticastTask {
    let dests = vec![
        NodeId(n / 3),
        NodeId(n / 2),
        NodeId(2 * n / 3),
        NodeId(n - 1),
    ];
    let sfc = Sfc::new(vec![VnfId(0), VnfId(1), VnfId(2)]).expect("chain is non-empty");
    MulticastTask::new(NodeId(0), dests, sfc).expect("task nodes are distinct and in range")
}

/// One substrate's measured telemetry, captured right after its bench.
struct ScalePoint {
    n: usize,
    edges: usize,
    rows_resident: u64,
    rows_peak: u64,
    row_misses: u64,
    row_bytes: u64,
}

fn bench_quote_scaling(c: &mut Criterion) -> Vec<ScalePoint> {
    let test_mode = std::env::args().any(|a| a == "--test" || a == "--quick");
    let mut points = Vec::new();
    let mut group = c.benchmark_group("substrate_scale/quote_waxman_lazy");
    group.sample_size(10);
    for &n in sizes(test_mode) {
        let network = waxman_network(n);
        let task = task_for(n);
        group.bench_function(format!("n_{n}").as_str(), |b| {
            b.iter(|| {
                black_box(
                    solve(&network, &task, &SolveOptions::default())
                        .expect("the quote is feasible"),
                )
            })
        });
        let dist = network.dist();
        points.push(ScalePoint {
            n,
            edges: network.graph().edge_count(),
            rows_resident: dist.rows_materialized(),
            rows_peak: dist.peak_rows(),
            row_misses: dist.row_misses(),
            row_bytes: dist.resident_row_bytes(),
        });
    }
    group.finish();
    points
}

fn write_report(c: &Criterion, points: &[ScalePoint]) {
    let mut entries = Vec::new();
    for p in points {
        let Some(s) = c
            .summaries()
            .iter()
            .find(|s| s.id.ends_with(&format!("/n_{}", p.n)))
        else {
            continue; // test-mode run: nothing measured
        };
        entries.push(format!(
            "    {{ \"nodes\": {}, \"edges\": {}, \"servers\": {SERVERS}, \"quote_median_ms\": {:.3}, \"rows_resident\": {}, \"rows_peak\": {}, \"row_misses\": {}, \"row_bytes\": {} }}",
            p.n,
            p.edges,
            s.median_ns / 1e6,
            p.rows_resident,
            p.rows_peak,
            p.row_misses,
            p.row_bytes
        ));
    }
    if entries.is_empty() {
        return;
    }
    let json = format!(
        "{{\n  \"bench\": \"substrate_scale_quote\",\n  \"provider\": \"lazy\",\n  \"workload\": {{ \"topology\": \"waxman (beta 0.4, degree ~2 ln n)\", \"seed\": 42, \"sfc_len\": 3, \"dests\": 4 }},\n  \"sizes\": [\n{}\n  ],\n  \"note\": \"rows_peak counts per-source Dijkstra rows ever materialized; a dense matrix would need `nodes` rows (n^2 doubles), so rows_peak << nodes is the scaling claim. row_bytes is the memory the resident rows hold: 12 bytes per node per row (an 8-byte distance and a 4-byte first hop)\"\n}}\n",
        entries.join(",\n")
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_scale.json");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("report: {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() {
    let mut c = Criterion::from_args();
    let points = bench_quote_scaling(&mut c);
    write_report(&c, &points);
    c.final_summary();
}
