//! Sequential-arrival experiment (§IV-D at scale): a stream of multicast
//! tasks embeds against an evolving network whose instances accrete, and
//! the per-task setup cost and reuse ratio are tracked over time (see
//! [`sft_experiments::sequential`]).
//!
//! Pass `--quick` for a shorter stream.

use sft_experiments::sequential::{self, TaskRecord};
use sft_experiments::Effort;

fn main() {
    let tasks = match Effort::from_args() {
        Effort::Quick => 10,
        Effort::Paper => 40,
    };
    println!(
        "{:>5}{:>12}{:>10}{:>8}{:>8}{:>10}",
        "task", "cost", "setup", "new", "reuse", "reuse%"
    );
    let mut history: Vec<TaskRecord> = Vec::new();
    for (t, outcome) in sequential::run(tasks).into_iter().enumerate() {
        match outcome {
            Ok(rec) => {
                history.push(rec);
                println!(
                    "{t:>5}{:>12.1}{:>10.1}{:>8}{:>8}{:>10.1}",
                    rec.cost,
                    rec.setup,
                    rec.new_instances,
                    rec.reused_instances,
                    100.0 * sequential::reuse_ratio(&history)
                );
            }
            Err(e) => println!("{t:>5}  infeasible: {}", e.message),
        }
    }
    let first_half: f64 = history[..history.len() / 2].iter().map(|r| r.setup).sum();
    let second_half: f64 = history[history.len() / 2..].iter().map(|r| r.setup).sum();
    println!(
        "\nsetup cost, first half vs second half of the stream: {first_half:.1} vs {second_half:.1}"
    );
    println!(
        "final reuse ratio: {:.1}%",
        100.0 * sequential::reuse_ratio(&history)
    );
}
