//! # bsa-core
//!
//! The **BSA (Bubble Scheduling and Allocation)** algorithm of Kwok & Ahmad (ICPP 1999):
//! link contention-constrained scheduling and mapping of precedence-constrained tasks and
//! their messages onto an arbitrary network of heterogeneous processors.
//!
//! The algorithm proceeds in three stages (paper §2):
//!
//! 1. **Pivot selection** ([`pivot`]) — every processor's actual execution costs induce a
//!    critical-path length for the task graph; the processor with the *shortest* CP becomes
//!    the first pivot.
//! 2. **Serialization** ([`serialization`]) — the whole program is scheduled sequentially
//!    onto the pivot, ordered so that critical-path (CP) tasks appear as early as their
//!    in-branch (IB) predecessors allow, and out-branch (OB) tasks go last (by descending
//!    b-level).
//! 3. **Bubbling up** ([`bsa`]) — processors are visited in breadth-first order from the
//!    first pivot; each task on the current pivot migrates to a neighbouring processor if
//!    that improves its finish time (or keeps it equal while co-locating it with its VIP —
//!    the predecessor delivering its latest message).  Messages are incrementally routed
//!    hop-by-hop along the migration paths, booking contention-free slots on each link, so
//!    no routing table is ever consulted.
//!
//! The result is a [`bsa_schedule::Schedule`] that satisfies the full contention model
//! (validated in tests by `bsa_schedule::validate`).
//!
//! ```
//! use bsa_core::Bsa;
//! use bsa_network::builders::ring;
//! use bsa_network::HeterogeneousSystem;
//! use bsa_schedule::solver::{Problem, Solver};
//! use bsa_taskgraph::TaskGraphBuilder;
//!
//! let mut b = TaskGraphBuilder::new();
//! let t0 = b.add_task("T0", 10.0);
//! let t1 = b.add_task("T1", 20.0);
//! b.add_edge(t0, t1, 5.0).unwrap();
//! let graph = b.build().unwrap();
//! let system = HeterogeneousSystem::homogeneous(&graph, ring(4).unwrap());
//! let problem = Problem::new(&graph, &system).unwrap();
//! let schedule = Bsa::default().solve_unbounded(&problem).unwrap().schedule;
//! assert_eq!(schedule.schedule_length(), 30.0);
//! ```

pub mod bsa;
pub mod config;
pub mod pivot;
pub mod serialization;

pub use bsa::Bsa;
pub use config::{BsaConfig, PivotStrategy, RetimingMode};
pub use pivot::{cp_length_on, select_pivot};
pub use serialization::{serialize, TaskClass};

/// Convenient glob-import.
pub mod prelude {
    pub use crate::bsa::Bsa;
    pub use crate::config::{BsaConfig, PivotStrategy, RetimingMode};
}
