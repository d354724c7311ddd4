//! Order statistics, process telemetry and the result line.

use std::fmt::Write as _;

/// Median of `values` (0 when empty); sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The tail percentile of a sorted latency sample: the highest of p99,
/// p95 and p90 with at least ten samples beyond it (nearest rank), as
/// `(percentile, value, samples beyond)`; p90 when even that has fewer.
pub fn tail(sorted: &[f64]) -> (u32, f64, usize) {
    let beyond = |p: u32| sorted.len().saturating_sub(rank(sorted.len(), p));
    let p = [99, 95, 90]
        .into_iter()
        .find(|&p| beyond(p) >= 10)
        .unwrap_or(90);
    (p, percentile(sorted, p), beyond(p))
}

/// The nearest-rank `p`-th percentile of a sorted sample (0 when empty).
fn percentile(sorted: &[f64], p: u32) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[rank(n, p) - 1],
    }
}

fn rank(n: usize, p: u32) -> usize {
    ((p as f64 / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// User + system CPU time of this process so far, in milliseconds
/// (`/proc/self/stat`, reported in the kernel's fixed 100 Hz user ticks).
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 10.0
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}
