//! Serving statistics: throughput, cache effectiveness, latency tails.

use sft_graph::CacheStats;
use std::fmt::Write as _;

/// A snapshot of a service's lifetime statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceStats {
    /// Tasks solved successfully.
    pub tasks_served: u64,
    /// Tasks that failed (infeasible, invalid ids, …).
    pub failures: u64,
    /// Successful embeddings committed into the network.
    pub commits: u64,
    /// Sessions released, giving their references (and last-reference
    /// capacity) back.
    pub releases: u64,
    /// Entries currently in the Steiner cache.
    pub cache_entries: usize,
    /// Steiner lookups answered from the cache.
    pub cache_hits: u64,
    /// Steiner lookups that had to compute.
    pub cache_misses: u64,
    /// Steiner cache entries evicted to respect a capacity bound (0 for
    /// an unbounded cache).
    pub cache_evictions: u64,
    /// Median solve latency in milliseconds (0 before any solve).
    pub p50_ms: f64,
    /// 99th-percentile solve latency in milliseconds (0 before any solve).
    pub p99_ms: f64,
    /// Mean solve latency in milliseconds (0 before any solve).
    pub mean_ms: f64,
    /// Queued jobs shed because their deadline expired before a worker
    /// could run them (socket server only; 0 elsewhere).
    pub jobs_shed: u64,
    /// Commit attempts that lost their optimistic-concurrency race and
    /// re-solved (socket server only; 0 elsewhere).
    pub commit_conflicts: u64,
    /// Always `"lazy"`: the network has one distance engine, whose
    /// per-source rows are computed on demand. Kept for readers that
    /// still report it.
    pub distance_provider: &'static str,
    /// Distance rows currently resident (the number of memoized sources).
    pub distance_rows: u64,
    /// Always 0: the distance engine does not count row hits (see
    /// `sft_graph::LazyDistances::row_hits`). Kept for readers that still
    /// report it.
    pub distance_row_hits: u64,
    /// Row lookups that had to run a fresh per-source Dijkstra.
    pub distance_row_misses: u64,
    /// Edges carrying a bandwidth capacity (0 = uncapacitated network,
    /// which suppresses the link-utilization line).
    pub link_edges: usize,
    /// Highest committed-bandwidth fraction across capacitated edges
    /// (0.0–1.0).
    pub link_max_util: f64,
    /// Mean committed-bandwidth fraction across capacitated edges.
    pub link_mean_util: f64,
    /// Requests turned away by link bandwidth: admission's widest-link
    /// bound plus commits that would have oversubscribed an edge.
    pub bandwidth_rejected: u64,
    /// Requests refused because no routing could satisfy the task's
    /// end-to-end delay budget (`delay_infeasible` on the wire).
    pub delay_infeasible: u64,
}

impl ServiceStats {
    /// Assembles a snapshot from raw counters, a cache snapshot, and
    /// per-solve latencies (nanoseconds, arrival order).
    pub fn from_latencies(
        tasks_served: u64,
        failures: u64,
        commits: u64,
        cache: CacheStats,
        latencies_ns: &[u64],
    ) -> Self {
        let mut sorted = latencies_ns.to_vec();
        sorted.sort_unstable();
        let to_ms = |ns: u64| ns as f64 / 1e6;
        let mean_ms = if sorted.is_empty() {
            0.0
        } else {
            to_ms(sorted.iter().sum::<u64>() / sorted.len() as u64)
        };
        ServiceStats {
            tasks_served,
            failures,
            commits,
            releases: 0,
            cache_entries: cache.entries,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            p50_ms: to_ms(percentile_ns(&sorted, 50.0)),
            p99_ms: to_ms(percentile_ns(&sorted, 99.0)),
            mean_ms,
            jobs_shed: 0,
            commit_conflicts: 0,
            distance_provider: "lazy",
            distance_rows: 0,
            distance_row_hits: 0,
            distance_row_misses: 0,
            link_edges: 0,
            link_max_util: 0.0,
            link_mean_util: 0.0,
            bandwidth_rejected: 0,
            delay_infeasible: 0,
        }
    }

    /// Fraction of Steiner lookups answered from the cache (0.0 before any
    /// lookup).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Renders the snapshot as an aligned text block (the `sft batch`
    /// summary).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "tasks served   : {}", self.tasks_served);
        let _ = writeln!(out, "failures       : {}", self.failures);
        let _ = writeln!(out, "commits        : {}", self.commits);
        let _ = writeln!(out, "releases       : {}", self.releases);
        let _ = writeln!(
            out,
            "steiner cache  : {} entries, {} hits / {} misses (hit rate {:.1}%), {} evictions",
            self.cache_entries,
            self.cache_hits,
            self.cache_misses,
            100.0 * self.cache_hit_rate(),
            self.cache_evictions
        );
        let _ = writeln!(
            out,
            "distance layer : {} rows resident, {} row misses",
            self.distance_rows, self.distance_row_misses
        );
        let _ = writeln!(
            out,
            "solve latency  : p50 {:.3} ms, p99 {:.3} ms, mean {:.3} ms",
            self.p50_ms, self.p99_ms, self.mean_ms
        );
        if self.link_edges > 0 || self.bandwidth_rejected > 0 {
            let _ = writeln!(
                out,
                "link util      : max {:.1}%, mean {:.1}% over {} capacitated edges, {} bandwidth-rejected",
                100.0 * self.link_max_util,
                100.0 * self.link_mean_util,
                self.link_edges,
                self.bandwidth_rejected
            );
        }
        if self.delay_infeasible > 0 {
            let _ = writeln!(
                out,
                "delay budget   : {} requests refused as delay-infeasible",
                self.delay_infeasible
            );
        }
        if self.jobs_shed > 0 || self.commit_conflicts > 0 {
            let _ = writeln!(
                out,
                "commit path    : {} conflicts, {} expired jobs shed",
                self.commit_conflicts, self.jobs_shed
            );
        }
        out
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (0 when empty).
fn percentile_ns(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let lat: Vec<u64> = (1..=100).map(|i| i * 1_000_000).collect();
        assert_eq!(percentile_ns(&lat, 50.0), 50_000_000);
        assert_eq!(percentile_ns(&lat, 99.0), 99_000_000);
        assert_eq!(percentile_ns(&lat, 100.0), 100_000_000);
        assert_eq!(percentile_ns(&[7], 50.0), 7);
        assert_eq!(percentile_ns(&[], 50.0), 0);
    }

    #[test]
    fn snapshot_computes_rates_and_tails() {
        let lat: Vec<u64> = (1..=10).map(|i| i * 1_000_000).collect();
        let cache = CacheStats {
            entries: 5,
            hits: 30,
            misses: 10,
            evictions: 3,
        };
        let s = ServiceStats::from_latencies(9, 1, 9, cache, &lat);
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.cache_evictions, 3);
        assert!((s.p50_ms - 5.0).abs() < 1e-9);
        assert!((s.p99_ms - 10.0).abs() < 1e-9);
        assert!((s.mean_ms - 5.5).abs() < 1e-9);
        let text = s.render();
        assert!(text.contains("hit rate 75.0%"));
        assert!(text.contains("3 evictions"));
        assert!(text.contains("distance layer : 0 rows resident, 0 row misses"));
        assert!(
            !text.contains("link util"),
            "uncapacitated snapshots omit the link line"
        );
    }

    #[test]
    fn link_utilization_line_renders_when_edges_are_capacitated() {
        let mut s = ServiceStats::from_latencies(0, 0, 0, CacheStats::default(), &[]);
        s.link_edges = 4;
        s.link_max_util = 0.75;
        s.link_mean_util = 0.25;
        s.bandwidth_rejected = 3;
        let text = s.render();
        assert!(
            text.contains("link util      : max 75.0%, mean 25.0% over 4 capacitated edges, 3 bandwidth-rejected"),
            "{text}"
        );
    }

    #[test]
    fn delay_infeasible_line_renders_only_when_counted() {
        let mut s = ServiceStats::from_latencies(0, 0, 0, CacheStats::default(), &[]);
        assert!(
            !s.render().contains("delay budget"),
            "delay line must stay silent at zero to keep legacy output byte-identical"
        );
        s.delay_infeasible = 2;
        assert!(s
            .render()
            .contains("delay budget   : 2 requests refused as delay-infeasible"));
    }

    #[test]
    fn empty_service_reports_zeroes() {
        let s = ServiceStats::from_latencies(0, 0, 0, CacheStats::default(), &[]);
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.p50_ms, 0.0);
        assert_eq!(s.p99_ms, 0.0);
    }
}
