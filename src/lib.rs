//! # bsa
//!
//! Facade crate of the reproduction of Kwok & Ahmad, *"Link Contention-Constrained
//! Scheduling and Mapping of Tasks and Messages to a Network of Heterogeneous Processors"*
//! (ICPP 1999).
//!
//! It re-exports the workspace crates under stable module names so applications can depend
//! on a single crate:
//!
//! * [`taskgraph`] — weighted DAG model (t-level / b-level / critical path);
//! * [`workloads`] — benchmark graph generators (Gaussian elimination, LU, Laplace, MVA,
//!   random layered DAGs, the paper's worked example);
//! * [`network`] — heterogeneous processor networks (topologies, the pluggable
//!   communication layer of [`network::comm`], routing tables, cost matrices);
//! * [`schedule`] — schedule representation, validation, metrics, Gantt rendering, and
//!   the solver-session API ([`schedule::solver`]);
//! * [`core`] — the BSA algorithm itself;
//! * [`baselines`] — DLS, HEFT variants and reference schedulers;
//! * [`algorithms`] — the [`Algo`](algorithms::Algo) roster shared by experiments,
//!   benches and users.
//!
//! ## Quick start
//!
//! Scheduling is exposed as a *solver session*: validate a [`Problem`](prelude::Problem)
//! once, then solve it — optionally under a budget, streaming progress:
//!
//! ```
//! use bsa::prelude::*;
//! use std::ops::ControlFlow;
//!
//! // A small fork-join program on a heterogeneous 8-processor ring.
//! let graph = bsa::workloads::fork_join::fork_join(2, 3, &CostParams::fixed(100.0, 1.0)).unwrap();
//! let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(42);
//! let system = HeterogeneousSystem::generate(
//!     &graph,
//!     bsa::network::builders::ring(8).unwrap(),
//!     HeterogeneityRange::new(1.0, 10.0),
//!     HeterogeneityRange::homogeneous(),
//!     &mut rng,
//! );
//! // Validate once, share across solvers.
//! let problem = Problem::new(&graph, &system).unwrap();
//!
//! // Blocking solve with the DLS baseline.
//! let dls = Dls::new().solve_unbounded(&problem).unwrap();
//!
//! // Anytime BSA: stop after at most 5 migrations, watching incumbents stream in.
//! let mut incumbents = Vec::new();
//! let options = SolveOptions::default().with_migration_budget(5);
//! let bsa = Bsa::default()
//!     .solve(&problem, &options, &mut |event: &SolveEvent| {
//!         if let SolveEvent::IncumbentImproved { length } = event {
//!             incumbents.push(*length);
//!         }
//!         ControlFlow::Continue(())
//!     })
//!     .unwrap();
//!
//! // Budgeted or not, the returned incumbent is a valid contention-model schedule.
//! assert!(bsa::schedule::validate::validate(&bsa.schedule, &graph, &system).is_empty());
//! assert!(bsa.metrics.schedule_length > 0.0);
//! assert!(dls.metrics.schedule_length > 0.0);
//! // Provenance says who solved and why the solve stopped.
//! assert_eq!(bsa.provenance.solver, "BSA");
//! assert!(matches!(
//!     bsa.stop(),
//!     StopReason::Converged | StopReason::MigrationBudgetExhausted
//! ));
//! ```

pub mod algorithms;

pub use bsa_baselines as baselines;
pub use bsa_core as core;
pub use bsa_network as network;
pub use bsa_schedule as schedule;
pub use bsa_taskgraph as taskgraph;
pub use bsa_workloads as workloads;

/// The most commonly used items from every sub-crate.
pub mod prelude {
    pub use crate::algorithms::Algo;
    pub use bsa_baselines::{ContentionObliviousHeft, Dls, Heft, SerialScheduler};
    pub use bsa_core::{Bsa, BsaConfig, PivotStrategy, RetimingMode};
    pub use bsa_network::builders::TopologyKind;
    pub use bsa_network::{
        CommCostModel, CommModel, ExecutionCostMatrix, HeterogeneityRange, HeterogeneousSystem,
        LinkId, LinkMode, ProcId, RoutePolicy, RoutingTable, Topology,
    };
    pub use bsa_schedule::{
        CancelToken, DeltaError, DeltaOp, NoProgress, Portfolio, PortfolioEntry, Problem,
        ProblemDelta, ProblemUpdate, Progress, ResolveError, Schedule, ScheduleMetrics, Solution,
        SolveError, SolveEvent, SolveOptions, SolveTrace, Solver, StopReason, ThreadStats,
    };
    pub use bsa_taskgraph::{EdgeId, GraphLevels, GraphStats, TaskGraph, TaskGraphBuilder, TaskId};
    pub use bsa_workloads::prelude::*;
}
