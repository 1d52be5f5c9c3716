//! Helpers shared by the integration tests.

use jit_dsms::plan::build_tree_plan;
use jit_dsms::prelude::*;

/// Drive `trace` through the tree plan for `spec` and `shape` under `mode`
/// on a raw [`Executor`], without going through `Engine`.
///
/// The tests that check `Engine`'s backends against each other use this as
/// their independent reference: it shares the plan builder and the executor
/// with the engine, but none of the engine's session, backend or sharding
/// code. `per_shard` is always empty.
pub fn reference_run(
    trace: &Trace,
    spec: &WorkloadSpec,
    shape: &PlanShape,
    mode: ExecutionMode,
) -> EngineOutcome {
    let plan = build_tree_plan(shape, &spec.predicates(), spec.window(), mode)
        .expect("reference plan builds");
    let mut executor = Executor::new(plan, ExecutorConfig::default());
    for event in trace.iter() {
        executor.ingest(event.source, event.tuple.clone());
    }
    let results_count = executor.results_count();
    let order_violations = executor.order_violations();
    let (results, snapshot) = executor.finish();
    EngineOutcome {
        mode_label: mode.label(),
        results,
        results_count,
        order_violations,
        snapshot,
        per_shard: Vec::new(),
    }
}
