//! Dynamic Level Scheduling (Sih & Lee, IEEE TPDS 1993) — the paper's comparison baseline.
//!
//! DLS is a greedy list scheduler for interconnection-constrained heterogeneous systems.
//! At every step it examines every *ready* task on every processor and picks the pair with
//! the largest **dynamic level**
//!
//! ```text
//! DL(t, p) = SL(t) − max(DA(t, p), TF(p)) + Δ(t, p)
//! ```
//!
//! where `SL(t)` is the static level (longest execution-cost path from `t` to a sink using
//! the *median* execution cost of each task across processors), `DA(t, p)` the data
//! available time of `t` on `p` (all incoming messages routed over the shortest-hop routing
//! table with contention-aware link booking), `TF(p)` the time `p` finishes its last
//! assigned task, and `Δ(t, p) = E*(t) − E(t, p)` the heterogeneity adjustment (median cost
//! minus actual cost; positive when `p` is faster than the typical processor).
//!
//! Tasks are appended to processors (no insertion) — this is the original formulation and
//! matches the ICPP'99 paper's characterisation of DLS as choosing "a task whose potential
//! start time is the earliest" with "the largest b-level".
//!
//! Routing is pluggable: the [`bsa_network::CommModel`] is built from
//! [`SolveOptions::route_policy`], so the same DLS can route by hop count (the
//! default, the classical behaviour), by actual transfer time, or, on hypercubes, by
//! E-cube ([`bsa_network::RoutePolicy::ECube`]).  Candidates are priced read-only with
//! [`data_available_time`] and the winner's messages booked with [`book_incoming`].

use crate::session::{assemble, check_budget, emit, observer_outcome};
use bsa_network::ProcId;
use bsa_schedule::router::{book_incoming, data_available_time};
use bsa_schedule::solver::{
    BudgetMeter, Problem, Progress, Solution, SolveError, SolveEvent, SolveOptions, Solver,
};
use bsa_taskgraph::{GraphLevels, TaskId};

/// The DLS scheduler.
#[derive(Debug, Clone, Default)]
pub struct Dls;

impl Dls {
    /// Creates a DLS scheduler.
    pub fn new() -> Self {
        Dls
    }
}

impl Solver for Dls {
    fn name(&self) -> &str {
        "DLS"
    }

    fn solve(
        &self,
        problem: &Problem<'_>,
        options: &SolveOptions,
        progress: &mut dyn Progress,
    ) -> Result<Solution, SolveError> {
        let meter = BudgetMeter::start(options);
        let graph = problem.graph();
        let system = problem.system();
        let mut builder = problem.builder();
        let table = options.comm_model(system);
        let n = graph.num_tasks();

        // Static levels over median execution costs (communication ignored).
        let median_costs: Vec<f64> = graph
            .task_ids()
            .map(|t| system.exec_costs.median_cost(t))
            .collect();
        let levels = GraphLevels::with_costs(graph, &median_costs, 0.0);
        let static_level: Vec<f64> = graph.task_ids().map(|t| levels.b_level(t)).collect();

        // Ready set management.
        let mut unscheduled_preds: Vec<usize> =
            graph.task_ids().map(|t| graph.in_degree(t)).collect();
        let mut ready: Vec<TaskId> = graph
            .task_ids()
            .filter(|&t| unscheduled_preds[t.index()] == 0)
            .collect();

        let mut observer_stopped = false;
        for _step in 0..n {
            check_budget(&meter)?;
            debug_assert!(!ready.is_empty(), "acyclic graph always has a ready task");
            // Pick the (task, processor) pair with the largest dynamic level.
            let mut best: Option<(TaskId, ProcId, f64)> = None;
            for &t in &ready {
                let median = system.exec_costs.median_cost(t);
                for p in system.topology.proc_ids() {
                    let da = data_available_time(&builder, &table, t, p);
                    let tf = builder.proc_timeline(p).last_finish();
                    let delta = median - system.exec_cost(t, p);
                    let dl = static_level[t.index()] - da.max(tf) + delta;
                    let better = match best {
                        None => true,
                        Some((bt, bp, bdl)) => {
                            dl > bdl + 1e-12
                                || ((dl - bdl).abs() <= 1e-12
                                    && (static_level[t.index()], t, p)
                                        > (static_level[bt.index()], bt, bp))
                        }
                    };
                    if better {
                        best = Some((t, p, dl));
                    }
                }
            }
            let (t, p, _) = best.expect("ready set is non-empty");

            // Commit: route every incoming message for real, then append the task.
            let da = book_incoming(&mut builder, &table, t, p);
            let start = builder.earliest_proc_append(p, da);
            builder.place_task(t, p, start);
            if !emit(
                progress,
                SolveEvent::TaskPlaced {
                    task: t,
                    proc: p,
                    finish: builder.finish_of(t),
                },
            ) {
                observer_stopped = true;
                break;
            }

            // Update the ready set.
            ready.retain(|&x| x != t);
            for s in graph.successors(t) {
                unscheduled_preds[s.index()] -= 1;
                if unscheduled_preds[s.index()] == 0 {
                    ready.push(s);
                }
            }
        }

        let stop = if observer_stopped {
            observer_outcome(builder.all_placed())?
        } else {
            bsa_schedule::StopReason::Converged
        };
        let schedule = builder.finish(Solver::name(self))?;
        Ok(assemble(
            schedule,
            problem,
            options,
            &meter,
            Solver::name(self),
            format!("{self:?}"),
            stop,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_network::builders::{clique, hypercube_for, ring};
    use bsa_network::{
        CommCostModel, ExecutionCostMatrix, HeterogeneityRange, HeterogeneousSystem, RoutePolicy,
    };
    use bsa_schedule::solver::NoProgress;
    use bsa_schedule::validate::assert_valid;
    use bsa_schedule::Schedule;
    use bsa_taskgraph::{TaskGraph, TaskGraphBuilder};
    use bsa_workloads::paper_example;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Unbudgeted solve through the session API, unwrapped to the bare schedule.
    fn solve(dls: &Dls, g: &TaskGraph, sys: &bsa_network::HeterogeneousSystem) -> Schedule {
        dls.solve_unbounded(&Problem::new(g, sys).unwrap())
            .unwrap()
            .schedule
    }

    #[test]
    fn dls_handles_the_paper_example_and_produces_a_valid_schedule() {
        let g = paper_example::figure1_graph();
        let exec = ExecutionCostMatrix::from_rows(&paper_example::table1_rows());
        let topo = ring(4).unwrap();
        let comm = CommCostModel::homogeneous(&topo);
        let sys = HeterogeneousSystem::new(topo, exec, comm);
        let s = solve(&Dls::new(), &g, &sys);
        assert_valid(&s, &g, &sys);
        // Must beat the serial schedule on the fastest single processor (238 on P2).
        assert!(s.schedule_length() < 238.0);
    }

    #[test]
    fn single_task_lands_on_the_most_beneficial_processor() {
        let mut b = TaskGraphBuilder::new();
        b.add_task("only", 10.0);
        let g = b.build().unwrap();
        let exec = ExecutionCostMatrix::from_rows(&[vec![10.0, 2.0, 30.0]]);
        let topo = ring(3).unwrap();
        let comm = CommCostModel::homogeneous(&topo);
        let sys = HeterogeneousSystem::new(topo, exec, comm);
        let s = solve(&Dls::new(), &g, &sys);
        assert_valid(&s, &g, &sys);
        assert_eq!(s.proc_of(bsa_taskgraph::TaskId(0)), ProcId(1));
        assert_eq!(s.schedule_length(), 2.0);
    }

    #[test]
    fn chain_graph_respects_precedence_everywhere() {
        let mut b = TaskGraphBuilder::new();
        let mut prev = b.add_task("t0", 10.0);
        for i in 1..8 {
            let t = b.add_task(format!("t{i}"), 10.0);
            b.add_edge(prev, t, 2.0).unwrap();
            prev = t;
        }
        let g = b.build().unwrap();
        let sys = HeterogeneousSystem::homogeneous(&g, hypercube_for(4).unwrap());
        let s = solve(&Dls::new(), &g, &sys);
        assert_valid(&s, &g, &sys);
        // A homogeneous chain gains nothing from spreading; the length must not exceed the
        // serial time plus all communication.
        assert!(s.schedule_length() >= 80.0);
        assert!(s.schedule_length() <= 80.0 + 7.0 * 2.0);
    }

    #[test]
    fn independent_tasks_use_multiple_processors() {
        let mut b = TaskGraphBuilder::new();
        for i in 0..12 {
            b.add_task(format!("w{i}"), 50.0);
        }
        // Connect them loosely so the graph is connected: star from w0 with tiny messages.
        for i in 1..12 {
            b.add_edge(bsa_taskgraph::TaskId(0), bsa_taskgraph::TaskId(i), 0.1)
                .unwrap();
        }
        let g = b.build().unwrap();
        let sys = HeterogeneousSystem::homogeneous(&g, clique(6).unwrap());
        let s = solve(&Dls::new(), &g, &sys);
        assert_valid(&s, &g, &sys);
        assert!(s.processors_used() >= 4);
        assert!(s.schedule_length() < 12.0 * 50.0);
    }

    #[test]
    fn dls_is_deterministic_and_valid_on_random_graphs_and_topologies() {
        let mut rng = StdRng::seed_from_u64(77);
        let g = bsa_workloads::random_dag::paper_random_graph(70, 1.0, &mut rng).unwrap();
        for topo in [
            ring(8).unwrap(),
            hypercube_for(8).unwrap(),
            clique(8).unwrap(),
        ] {
            let sys = HeterogeneousSystem::generate(
                &g,
                topo,
                HeterogeneityRange::DEFAULT,
                HeterogeneityRange::homogeneous(),
                &mut rng,
            );
            let a = solve(&Dls::new(), &g, &sys);
            let b = solve(&Dls::new(), &g, &sys);
            assert_valid(&a, &g, &sys);
            assert_eq!(a.schedule_length(), b.schedule_length());
        }
    }

    #[test]
    fn ecube_option_works_on_hypercubes() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = bsa_workloads::random_dag::paper_random_graph(40, 1.0, &mut rng).unwrap();
        let sys = HeterogeneousSystem::generate(
            &g,
            hypercube_for(16).unwrap(),
            HeterogeneityRange::DEFAULT,
            HeterogeneityRange::homogeneous(),
            &mut rng,
        );
        let problem = Problem::new(&g, &sys).unwrap();
        let options = SolveOptions::default().with_route_policy(RoutePolicy::ECube);
        let s = Dls
            .solve(&problem, &options, &mut NoProgress)
            .unwrap()
            .schedule;
        assert_valid(&s, &g, &sys);
    }
}
