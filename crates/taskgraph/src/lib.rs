//! # bsa-taskgraph
//!
//! Weighted directed-acyclic task-graph (macro-dataflow) model used throughout the
//! reproduction of Kwok & Ahmad, *"Link Contention-Constrained Scheduling and Mapping of
//! Tasks and Messages to a Network of Heterogeneous Processors"* (ICPP 1999).
//!
//! A parallel program is a DAG whose nodes are **tasks** carrying a *nominal execution
//! cost* (the cost on the reference/fastest machine) and whose edges are **messages**
//! carrying a *nominal communication cost*.  Scheduling algorithms consume this structure
//! together with a heterogeneous target description (see the `bsa-network` crate).
//!
//! The crate provides:
//!
//! * [`TaskGraph`] and [`TaskGraphBuilder`] — construction, validation (acyclicity,
//!   duplicate-edge detection), and adjacency queries;
//! * [`levels`] — t-level, b-level, static level, ALAP time and critical-path extraction,
//!   both for nominal costs and for arbitrary per-task cost overrides (needed by BSA's
//!   per-processor pivot selection);
//! * [`traversal`] — topological orders, ancestor/descendant sets, reachability;
//! * [`analysis`] — structural statistics (depth, width, CCR, granularity, …);
//! * [`dot`] — Graphviz export for debugging and documentation.
//!
//! ```
//! use bsa_taskgraph::TaskGraphBuilder;
//!
//! let mut b = TaskGraphBuilder::new();
//! let t1 = b.add_task("T1", 20.0);
//! let t2 = b.add_task("T2", 30.0);
//! let t3 = b.add_task("T3", 10.0);
//! b.add_edge(t1, t2, 40.0).unwrap();
//! b.add_edge(t2, t3, 60.0).unwrap();
//! let g = b.build().unwrap();
//! assert_eq!(g.num_tasks(), 3);
//! let levels = bsa_taskgraph::levels::GraphLevels::nominal(&g);
//! assert_eq!(levels.critical_path_length(), 20.0 + 40.0 + 30.0 + 60.0 + 10.0);
//! ```

pub mod analysis;
pub mod dot;
pub mod fingerprint;
pub mod graph;
pub mod ids;
pub mod levels;
pub mod traversal;

pub use analysis::GraphStats;
pub use fingerprint::Fnv1a;
pub use graph::{Edge, GraphError, Task, TaskGraph, TaskGraphBuilder};
pub use ids::{EdgeId, TaskId};
pub use levels::{b_levels_into, CriticalPath, GraphLevels};
pub use traversal::TopologicalOrder;

/// Convenient glob-import for downstream crates.
pub mod prelude {
    pub use crate::analysis::GraphStats;
    pub use crate::graph::{Edge, GraphError, Task, TaskGraph, TaskGraphBuilder};
    pub use crate::ids::{EdgeId, TaskId};
    pub use crate::levels::{CriticalPath, GraphLevels};
    pub use crate::traversal::TopologicalOrder;
}
