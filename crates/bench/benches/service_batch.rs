//! Batch service vs one-shot solving on a shared Palmetto workload.
//!
//! The service amortises two things across a task stream: the distance
//! rows (each computed once per source for the shared network) and the
//! Steiner trees of recurring multicast
//! groups (persistent cache). This bench serves the same 20-task stream
//!
//! * `oneshot`  — a fresh `solve` per task, no shared cache;
//! * `batch_seq` — `EmbedService::submit_batch` on 1 worker thread;
//! * `batch_auto` — the same with the auto thread count;
//!
//! and writes `BENCH_service.json` at the workspace root with the median
//! times plus the cache hit rate the stream achieved.

use criterion::{criterion_group, Criterion};
use sft_core::{solve, MulticastTask, Network, SolveOptions, Strategy};
use sft_graph::Parallelism;
use sft_service::EmbedService;
use sft_topology::{palmetto, workload, ScenarioConfig};
use std::hint::black_box;
use std::io::Write;

const STREAM_LEN: usize = 20;
const DISTINCT_GROUPS: usize = 5;

/// One full-Palmetto network plus a 20-task stream in which five
/// multicast groups recur (the realistic regime the cache targets).
fn shared_workload() -> (Network, Vec<MulticastTask>) {
    let config = ScenarioConfig {
        dest_ratio: 0.2,
        sfc_len: 5,
        ..ScenarioConfig::default()
    };
    let network = workload::on_graph(palmetto::graph(), &config, 0)
        .expect("base scenario")
        .network;
    let distinct: Vec<MulticastTask> = (0..DISTINCT_GROUPS as u64)
        .map(|seed| {
            workload::on_graph(palmetto::graph(), &config, seed)
                .expect("sibling scenario")
                .task
        })
        .collect();
    let tasks = (0..STREAM_LEN)
        .map(|i| distinct[i % DISTINCT_GROUPS].clone())
        .collect();
    (network, tasks)
}

fn bench_service_batch(c: &mut Criterion) {
    let (network, tasks) = shared_workload();
    let mut group = c.benchmark_group("service/palmetto_20tasks_k5");
    group.sample_size(10);
    group.bench_function("oneshot", |b| {
        b.iter(|| {
            for t in &tasks {
                black_box(solve(&network, t, &SolveOptions::default()).unwrap());
            }
        })
    });
    group.bench_function("batch_seq", |b| {
        b.iter(|| {
            let svc = EmbedService::new(
                network.clone(),
                Strategy::Msa,
                SolveOptions {
                    parallelism: Parallelism::sequential(),
                    ..SolveOptions::default()
                },
            )
            .unwrap();
            black_box(svc.submit_batch(&tasks));
        })
    });
    let auto = Parallelism::auto();
    group.bench_function(format!("batch_auto_{}", auto.threads()).as_str(), |b| {
        b.iter(|| {
            let svc = EmbedService::new(
                network.clone(),
                Strategy::Msa,
                SolveOptions {
                    parallelism: auto,
                    ..SolveOptions::default()
                },
            )
            .unwrap();
            black_box(svc.submit_batch(&tasks));
        })
    });
    group.finish();
}

fn write_report(c: &Criterion) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (mut oneshot_ms, mut seq_ms, mut auto) = (None, None, None);
    for s in c.summaries() {
        if s.id.ends_with("/oneshot") {
            oneshot_ms = Some(s.median_ns / 1e6);
        } else if s.id.ends_with("/batch_seq") {
            seq_ms = Some(s.median_ns / 1e6);
        } else if let Some((_, t)) = s.id.rsplit_once("/batch_auto_") {
            if let Ok(n) = t.parse::<usize>() {
                auto = Some((n, s.median_ns / 1e6));
            }
        }
    }
    let (Some(oneshot_ms), Some(seq_ms), Some((threads, auto_ms))) = (oneshot_ms, seq_ms, auto)
    else {
        return; // filtered or test-mode run: nothing measured
    };
    // The hit rate is a property of the stream, not of the timing run:
    // measure it once on a fresh service.
    let (network, tasks) = shared_workload();
    let svc = EmbedService::new(network, Strategy::Msa, SolveOptions::default()).unwrap();
    svc.submit_batch(&tasks);
    let stats = svc.stats();
    let json = format!(
        "{{\n  \"bench\": \"service_batch_vs_oneshot\",\n  \"workload\": {{ \"topology\": \"palmetto\", \"stream_len\": {STREAM_LEN}, \"distinct_groups\": {DISTINCT_GROUPS}, \"dest_ratio\": 0.2, \"sfc_len\": 5 }},\n  \"host_cores\": {cores},\n  \"oneshot_median_ms\": {oneshot_ms:.3},\n  \"batch_sequential_median_ms\": {seq_ms:.3},\n  \"batch_parallel_threads\": {threads},\n  \"batch_parallel_median_ms\": {auto_ms:.3},\n  \"speedup_batch_seq_vs_oneshot\": {:.3},\n  \"speedup_batch_parallel_vs_oneshot\": {:.3},\n  \"steiner_cache_hit_rate\": {:.3},\n  \"note\": \"batch results are bit-identical to the one-shot solves; the gain is the shared Steiner cache plus (for the parallel row) task-level fan-out, bounded by host_cores\"\n}}\n",
        oneshot_ms / seq_ms,
        oneshot_ms / auto_ms,
        stats.cache_hit_rate()
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_service.json");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("report: {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

criterion_group!(benches, bench_service_batch);

fn main() {
    let mut c = Criterion::from_args();
    benches(&mut c);
    write_report(&c);
    c.final_summary();
}
