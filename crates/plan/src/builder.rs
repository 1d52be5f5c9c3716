//! Building executable plans from shapes.

use crate::shapes::{PlanInput, PlanShape};
use jit_core::policy::ExecutionMode;
use jit_core::JitJoinOperator;
use jit_exec::join::RefJoinOperator;
use jit_exec::operator::{Operator, OperatorId};
use jit_exec::plan::{ExecutablePlan, Input, PlanBuilder, PlanError};
use jit_exec::selection::SelectionOperator;
use jit_exec::state::StateIndexMode;
use jit_types::{FilterPredicate, PredicateSet, SourceId, SourceSet, Window};
use std::collections::HashMap;

/// Cross-cutting plan-construction options threaded from the engine builder
/// down to every operator.
#[derive(Debug, Clone, Default)]
pub struct PlanOptions {
    /// How operator states answer probes: hash-partitioned on the equi-join
    /// key (the default) or the historical nested-loop scan.
    pub index_mode: StateIndexMode,
    /// Constant filters (`A.x > 200`): each filtered source is routed
    /// through a [`SelectionOperator`] chain before reaching its join port.
    pub filters: Vec<FilterPredicate>,
}

impl PlanOptions {
    /// Default options with an explicit index mode.
    pub fn with_index_mode(index_mode: StateIndexMode) -> Self {
        PlanOptions {
            index_mode,
            ..PlanOptions::default()
        }
    }
}

/// Build an executable binary-join-tree plan for the given shape and
/// execution mode, with default [`PlanOptions`] (hash-indexed states, no
/// filters).
///
/// * [`ExecutionMode::Ref`] instantiates [`RefJoinOperator`]s (no feedback);
/// * [`ExecutionMode::Doe`] and [`ExecutionMode::Jit`] instantiate
///   [`JitJoinOperator`]s under the corresponding policy.
pub fn build_tree_plan(
    shape: &PlanShape,
    predicates: &PredicateSet,
    window: Window,
    mode: ExecutionMode,
) -> Result<ExecutablePlan, PlanError> {
    build_tree_plan_with(shape, predicates, window, mode, &PlanOptions::default())
}

/// [`build_tree_plan`] with explicit [`PlanOptions`]: index-mode selection
/// for every operator state and per-source selection (filter) wiring.
///
/// Filters are stateless single-source conditions; each filtered source
/// feeds a [`SelectionOperator`] chain (one operator per filter, in input
/// order) whose output replaces the raw source at every join port that
/// consumed it. Selections are plan-level pre-filters in every execution
/// mode — they forward or drop, never withhold, so they need no feedback
/// handling and JIT's suspension semantics are unaffected.
pub fn build_tree_plan_with(
    shape: &PlanShape,
    predicates: &PredicateSet,
    window: Window,
    mode: ExecutionMode,
    options: &PlanOptions,
) -> Result<ExecutablePlan, PlanError> {
    let mut builder = PlanBuilder::new();
    // Group filters by source and build one selection chain per filtered
    // source; joins then consume the chain's tail instead of the raw source.
    let mut filtered_source: HashMap<u16, OperatorId> = HashMap::new();
    for filter in &options.filters {
        let source = filter.column.source;
        let input = match filtered_source.get(&source.0) {
            Some(&prev) => Input::Operator(prev),
            None => Input::Source(source),
        };
        let op = SelectionOperator::new(
            format!("σ {filter}"),
            filter.clone(),
            SourceSet::single(source),
        );
        let id = builder.add_operator(Box::new(op), vec![input]);
        filtered_source.insert(source.0, id);
    }
    let mut op_ids: Vec<OperatorId> = Vec::new();
    let schemas = shape.node_schemas();
    for node in shape.nodes().iter() {
        let left_schema = resolve_schema(node.left, &schemas);
        let right_schema = resolve_schema(node.right, &schemas);
        let name = format!("{}⋈{}", left_schema, right_schema);
        let operator: Box<dyn Operator> = match mode.policy() {
            None => Box::new(
                RefJoinOperator::new(name, left_schema, right_schema, predicates.clone(), window)
                    .with_state_index(options.index_mode),
            ),
            Some(policy) => Box::new(
                JitJoinOperator::new(
                    name,
                    left_schema,
                    right_schema,
                    predicates.clone(),
                    window,
                    policy,
                )
                .with_state_index(options.index_mode),
            ),
        };
        let left_input = resolve_input_filtered(node.left, &op_ids, &filtered_source);
        let right_input = resolve_input_filtered(node.right, &op_ids, &filtered_source);
        let id = builder.add_operator(operator, vec![left_input, right_input]);
        op_ids.push(id);
    }
    builder.build()
}

fn resolve_schema(input: PlanInput, node_schemas: &[SourceSet]) -> SourceSet {
    match input {
        PlanInput::Source(i) => SourceSet::single(SourceId(i as u16)),
        PlanInput::Node(i) => node_schemas[i],
    }
}

fn resolve_input_filtered(
    input: PlanInput,
    ops: &[OperatorId],
    filtered: &HashMap<u16, OperatorId>,
) -> Input {
    match input {
        PlanInput::Source(i) => match filtered.get(&(i as u16)) {
            Some(&selection) => Input::Operator(selection),
            None => Input::Source(SourceId(i as u16)),
        },
        PlanInput::Node(i) => Input::Operator(ops[i]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_core::policy::JitPolicy;

    #[test]
    fn ref_tree_plan_has_one_operator_per_join() {
        for n in 3..=8 {
            let shape = PlanShape::bushy(n);
            let plan = build_tree_plan(
                &shape,
                &PredicateSet::clique(n),
                Window::minutes(5.0),
                ExecutionMode::Ref,
            )
            .unwrap();
            assert_eq!(plan.num_operators(), n - 1);
            assert_eq!(plan.sinks().len(), 1);
        }
    }

    #[test]
    fn jit_tree_plan_uses_jit_operators() {
        let shape = PlanShape::left_deep(4);
        let plan = build_tree_plan(
            &shape,
            &PredicateSet::clique(4),
            Window::minutes(5.0),
            ExecutionMode::Jit(JitPolicy::full()),
        )
        .unwrap();
        // All operator names follow the schema⋈schema convention, and the
        // description mentions the sink.
        let desc = plan.describe();
        assert!(desc.contains("(sink)"));
        assert_eq!(plan.num_operators(), 3);
    }

    #[test]
    fn doe_mode_builds() {
        let plan = build_tree_plan(
            &PlanShape::bushy(4),
            &PredicateSet::clique(4),
            Window::minutes(5.0),
            ExecutionMode::Doe,
        )
        .unwrap();
        assert_eq!(plan.num_operators(), 3);
    }
}
