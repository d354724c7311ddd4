//! Experiment harness regenerating every figure of the paper's evaluation
//! (§V, Figs. 8–14).
//!
//! Each paper figure has a builder in [`figures`] that sweeps the same
//! parameter the paper sweeps, runs MSA / SCA / RSA (and, where the paper
//! used CPLEX, the exact ILP on reduced instances — see DESIGN.md §5) over
//! several seeds, and aggregates mean delivery cost and wall-clock runtime
//! into a [`FigureData`] table. The `fig08` … `fig14` binaries print those
//! tables and drop CSVs under `results/`.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p sft-experiments --bin all
//! ```
//!
//! (`--quick` on any binary shrinks repetitions for a fast smoke run.)

pub mod ablations;
pub mod churn;
pub mod figures;
pub mod record;
pub mod runner;
pub mod sequential;

pub use record::{CellStats, FigureData, RecordError};
pub use runner::{run_heuristics, HeuristicRun};

use sft_core::CoreError;
use std::fmt;

/// Errors from the experiment harness: either a solver/scenario failure
/// bubbling up from the domain layer, a figure-bookkeeping mistake, or a
/// bad experiment configuration (e.g. an unknown topology-family name).
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// The domain layer failed (scenario generation, a solve, the ILP).
    Core(CoreError),
    /// A figure cell was addressed that does not exist.
    Record(RecordError),
    /// The sweep itself was misconfigured.
    Config(String),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Core(e) => write!(f, "{e}"),
            ExperimentError::Record(e) => write!(f, "figure bookkeeping: {e}"),
            ExperimentError::Config(reason) => write!(f, "bad experiment config: {reason}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Core(e) => Some(e),
            ExperimentError::Record(e) => Some(e),
            ExperimentError::Config(_) => None,
        }
    }
}

impl From<CoreError> for ExperimentError {
    fn from(e: CoreError) -> Self {
        ExperimentError::Core(e)
    }
}

impl From<RecordError> for ExperimentError {
    fn from(e: RecordError) -> Self {
        ExperimentError::Record(e)
    }
}

impl From<sft_graph::GraphError> for ExperimentError {
    fn from(e: sft_graph::GraphError) -> Self {
        ExperimentError::Core(CoreError::Graph(e))
    }
}

/// How much work to spend per figure.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Effort {
    /// A smoke-test sweep: fewer seeds, smaller extremes.
    Quick,
    /// The paper-scale sweep.
    Paper,
}

impl Effort {
    /// Parses process arguments: `--quick` selects [`Effort::Quick`].
    pub fn from_args() -> Effort {
        if std::env::args().any(|a| a == "--quick") {
            Effort::Quick
        } else {
            Effort::Paper
        }
    }

    /// Seeds per sweep point.
    pub fn reps(self) -> usize {
        match self {
            Effort::Quick => 2,
            Effort::Paper => 5,
        }
    }
}
