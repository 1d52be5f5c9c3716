//! Experiment configuration.

use jit_core::policy::ExecutionMode;
use jit_plan::shapes::PlanShape;
use jit_stream::WorkloadSpec;
use jit_types::Duration;
use serde::{Deserialize, Serialize};

/// One experiment: a plan, a base workload, and the execution modes to
/// compare on it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Human-readable name (e.g. `"fig10"`).
    pub name: String,
    /// Plan shape.
    pub shape: PlanShape,
    /// Base workload (Table III defaults; sweeps override one field).
    pub workload: WorkloadSpec,
    /// Execution modes to compare (typically REF and JIT).
    pub modes: Vec<ExecutionMode>,
}

impl ExperimentConfig {
    /// The bushy-plan default configuration of Table III (`N = 6`,
    /// `w = 20 min`, `λ = 1/s`, `dmax = 200`).
    pub fn bushy_default() -> Self {
        ExperimentConfig {
            name: "bushy-default".to_string(),
            shape: PlanShape::bushy(6),
            workload: WorkloadSpec::bushy_default(),
            modes: vec![
                ExecutionMode::Ref,
                ExecutionMode::Jit(jit_core::policy::JitPolicy::full()),
            ],
        }
    }

    /// The left-deep default configuration of Table III (`N = 4`,
    /// `w = 10 min`, `λ = 1/s`, `dmax = 50`, last source enlarged 100×).
    pub fn leftdeep_default() -> Self {
        ExperimentConfig {
            name: "leftdeep-default".to_string(),
            shape: PlanShape::left_deep(4),
            workload: WorkloadSpec::leftdeep_default(),
            modes: vec![
                ExecutionMode::Ref,
                ExecutionMode::Jit(jit_core::policy::JitPolicy::full()),
            ],
        }
    }

    /// Scale the run length. The paper uses 5 hours of application time per
    /// point; a scale of 1.0 here corresponds to 60 minutes, so `scale = 5.0`
    /// reproduces the paper's duration and smaller values keep benches fast.
    pub fn with_duration_scale(mut self, scale: f64) -> Self {
        let minutes = (60.0 * scale).max(1.0);
        self.workload.duration = Duration::from_mins_f64(minutes);
        self
    }

    /// Override the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.workload.seed = seed;
        self
    }

    /// Also compare the DOE baseline.
    pub fn with_doe(mut self) -> Self {
        if !self.modes.iter().any(|m| matches!(m, ExecutionMode::Doe)) {
            self.modes.push(ExecutionMode::Doe);
        }
        self
    }
}

/// Parse a duration scale given on a command line (see
/// [`ExperimentConfig::with_duration_scale`]): a finite number above zero.
/// Anything else is an error, not a silently clamped one-minute run.
pub fn parse_duration_scale(text: &str) -> Result<f64, String> {
    match text.parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
        _ => Err(format!(
            "invalid duration scale {text:?}: expected a finite number > 0"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_table_iii() {
        let bushy = ExperimentConfig::bushy_default();
        assert_eq!(bushy.shape, PlanShape::bushy(6));
        assert_eq!(bushy.workload.window_minutes, 20.0);
        assert_eq!(bushy.workload.dmax, 200);
        assert_eq!(bushy.modes.len(), 2);
        let ld = ExperimentConfig::leftdeep_default();
        assert_eq!(ld.shape, PlanShape::left_deep(4));
        assert_eq!(ld.workload.dmax, 50);
        assert_eq!(ld.workload.last_source_domain_factor, Some(100));
    }

    #[test]
    fn duration_scale_and_seed() {
        let c = ExperimentConfig::bushy_default()
            .with_duration_scale(0.1)
            .with_seed(7);
        assert_eq!(c.workload.duration, Duration::from_mins_f64(6.0));
        assert_eq!(c.workload.seed, 7);
        // Scaling below the floor clamps to one minute.
        let tiny = ExperimentConfig::bushy_default().with_duration_scale(0.0001);
        assert_eq!(tiny.workload.duration, Duration::from_mins_f64(1.0));
    }

    #[test]
    fn with_doe_adds_mode_once() {
        let c = ExperimentConfig::bushy_default().with_doe().with_doe();
        assert_eq!(
            c.modes
                .iter()
                .filter(|m| matches!(m, ExecutionMode::Doe))
                .count(),
            1
        );
    }
}
