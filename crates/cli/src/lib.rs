//! Implementation of the `sft` command-line tool.
//!
//! Subcommands:
//!
//! * `sft info --topology <spec>` — topology statistics;
//! * `sft solve --topology <spec> --source <n> --dests <a,b,c> --sfc <k>`
//!   — run the two-stage embedding and print the result (optionally
//!   exporting DOT renderings);
//! * `sft exact …` — additionally solve the ILP exactly and report the
//!   approximation ratio;
//! * `sft batch --topology <spec> --tasks <file.jsonl>` — run a JSONL task
//!   stream through a long-running [`sft_service::EmbedService`] (one
//!   shared network and distance engine, persistent Steiner cache) and print
//!   one versioned protocol response line per task plus service
//!   statistics;
//! * `sft serve --topology <spec>` — the same protocol streamed over
//!   stdin (answers as lines arrive, commit semantics), or with
//!   `--listen <addr>` served over TCP / a Unix socket with a bounded
//!   worker pool and capacity-aware admission control;
//! * `sft client --connect <addr> --tasks <file.jsonl>` — drive a running
//!   server and print its responses ordered by id;
//! * `sft workload --topology <spec>` — generate an arrival/departure
//!   session stream (Poisson arrivals, exponential holding times) as
//!   protocol JSONL: commit-mode embeds paired with `release` ops, ready
//!   to pipe into `sft serve` or `sft client`.
//!
//! Argument parsing is hand-rolled (the project's dependency set is
//! deliberately tiny); see [`args`] for the grammar and [`run`] for the
//! dispatcher. The library layer returns strings so it is fully testable
//! without spawning processes.

pub mod args;
pub mod commands;
pub mod topology_spec;

pub use args::{Args, ParseError};

/// Runs the CLI on pre-split arguments (without the program name) and
/// returns the output to print.
///
/// # Errors
///
/// A human-readable message (usage errors, solve failures).
pub fn run(argv: &[String]) -> Result<String, String> {
    let args = Args::parse(argv).map_err(|e| format!("{e}\n\n{}", args::USAGE))?;
    match args.command.as_str() {
        "info" => commands::info(&args).map_err(|e| e.to_string()),
        "solve" => commands::solve(&args).map_err(|e| e.to_string()),
        "exact" => commands::exact(&args).map_err(|e| e.to_string()),
        "batch" => commands::batch(&args).map_err(|e| e.to_string()),
        "serve" => commands::serve(&args).map_err(|e| e.to_string()),
        "client" => commands::client(&args).map_err(|e| e.to_string()),
        "workload" => commands::workload(&args).map_err(|e| e.to_string()),
        "help" => Ok(args::USAGE.to_string()),
        other => unreachable!("Args::parse accepted the unknown subcommand `{other}`"),
    }
}
