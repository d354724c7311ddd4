//! Runs the three heuristics on one scenario and times them.

use sft_core::{solve, CoreError, SolveOptions, Strategy};
use sft_topology::Scenario;
use std::time::Instant;

/// The algorithm names in canonical column order.
pub const HEURISTICS: [&str; 3] = ["MSA", "SCA", "RSA"];

/// One timed heuristic run.
#[derive(Clone, Debug)]
pub struct HeuristicRun {
    /// Algorithm name (`MSA`, `SCA`, or `RSA`).
    pub algo: &'static str,
    /// Final traffic delivery cost (after OPA).
    pub cost: f64,
    /// Stage-1 cost before OPA.
    pub stage1_cost: f64,
    /// Wall-clock runtime in milliseconds.
    pub ms: f64,
}

/// Runs MSA, SCA and RSA (all with the shared OPA stage 2) on a scenario.
/// RSA's randomness is derived from the scenario seed, so results are
/// reproducible.
///
/// # Errors
///
/// Propagates the first algorithm failure; generated scenarios are always
/// solvable, so failures indicate bugs rather than bad luck.
pub fn run_heuristics(scenario: &Scenario) -> Result<Vec<HeuristicRun>, CoreError> {
    let mut out = Vec::with_capacity(3);
    for (algo, strategy) in [
        ("MSA", Strategy::Msa),
        ("SCA", Strategy::Sca),
        ("RSA", Strategy::Rsa),
    ] {
        let options = SolveOptions {
            strategy,
            seed: scenario.seed.wrapping_mul(0x9E37_79B9).wrapping_add(7),
            ..SolveOptions::default()
        };
        let start = Instant::now();
        let r = solve(&scenario.network, &scenario.task, &options)?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        debug_assert!(sft_core::validate::is_valid(
            &scenario.network,
            &scenario.task,
            &r.embedding
        ));
        out.push(HeuristicRun {
            algo,
            cost: r.cost.total(),
            stage1_cost: r.stage1_cost,
            ms,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sft_topology::{generate, ScenarioConfig};

    #[test]
    fn runs_all_three_and_opa_never_hurts() {
        let config = ScenarioConfig {
            network_size: 30,
            dest_ratio: 0.2,
            sfc_len: 3,
            ..ScenarioConfig::default()
        };
        let scenario = generate(&config, 99).unwrap();
        let runs = run_heuristics(&scenario).unwrap();
        assert_eq!(runs.len(), 3);
        for r in &runs {
            assert!(r.cost > 0.0);
            assert!(r.cost <= r.stage1_cost + 1e-9, "{}", r.algo);
            assert!(r.ms >= 0.0);
        }
        let names: Vec<_> = runs.iter().map(|r| r.algo).collect();
        assert_eq!(names, HEURISTICS.to_vec());
    }

    #[test]
    fn reruns_are_identical() {
        let config = ScenarioConfig {
            network_size: 25,
            sfc_len: 3,
            ..ScenarioConfig::default()
        };
        let scenario = generate(&config, 5).unwrap();
        let a = run_heuristics(&scenario).unwrap();
        let b = run_heuristics(&scenario).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cost, y.cost, "{}", x.algo);
        }
    }
}
