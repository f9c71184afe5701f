//! The immutable result of a scheduling algorithm.

use bsa_network::{LinkId, ProcId};
use bsa_taskgraph::{EdgeId, TaskId};
use serde::{Deserialize, Serialize};

/// Placement of one task: the processor it runs on and its execution window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskPlacement {
    /// The task.
    pub task: TaskId,
    /// The processor executing the task.
    pub proc: ProcId,
    /// Execution start time.
    pub start: f64,
    /// Execution finish time.
    pub finish: f64,
}

/// One hop of a message route: the traversal of a single link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MessageHop {
    /// The link being traversed.
    pub link: LinkId,
    /// Processor the hop leaves from.
    pub from: ProcId,
    /// Processor the hop arrives at.
    pub to: ProcId,
    /// Transmission start time on this link.
    pub start: f64,
    /// Transmission finish time on this link.
    pub finish: f64,
}

/// The complete route of one message (edge of the task graph).
///
/// An empty hop list means the message is *local*: producer and consumer run on the same
/// processor and the communication cost is zero (the paper's model).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MessageRoute {
    /// The task-graph edge this route carries.
    pub edge: EdgeId,
    /// The store-and-forward hops, in traversal order.
    pub hops: Vec<MessageHop>,
}

impl MessageRoute {
    /// A local (zero-hop) route.
    pub fn local(edge: EdgeId) -> Self {
        MessageRoute {
            edge,
            hops: Vec::new(),
        }
    }

    /// Whether the message never leaves its processor.
    pub fn is_local(&self) -> bool {
        self.hops.is_empty()
    }

    /// Arrival time of the message at its destination processor.
    ///
    /// For a local message this is not defined by the route itself (the data is available
    /// when the producer finishes); `None` is returned.
    pub fn arrival(&self) -> Option<f64> {
        self.hops.last().map(|h| h.finish)
    }

    /// Number of links traversed.
    pub fn num_hops(&self) -> usize {
        self.hops.len()
    }

    /// Total time spent occupying links.
    pub fn total_link_time(&self) -> f64 {
        self.hops.iter().map(|h| h.finish - h.start).sum()
    }
}

/// A complete schedule: one placement per task and one route per edge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Name of the algorithm that produced the schedule (for reports).
    pub algorithm: String,
    placements: Vec<TaskPlacement>,
    routes: Vec<MessageRoute>,
    num_procs: usize,
    num_links: usize,
    schedule_length: f64,
}

impl Schedule {
    /// Assembles a schedule from per-task placements (indexed by task id) and per-edge
    /// routes (indexed by edge id).  The schedule length is the maximum task finish time.
    pub fn new(
        algorithm: impl Into<String>,
        placements: Vec<TaskPlacement>,
        routes: Vec<MessageRoute>,
        num_procs: usize,
        num_links: usize,
    ) -> Self {
        let schedule_length = placements.iter().map(|p| p.finish).fold(0.0f64, f64::max);
        Schedule {
            algorithm: algorithm.into(),
            placements,
            routes,
            num_procs,
            num_links,
            schedule_length,
        }
    }

    /// The placement of task `t`.
    #[inline]
    pub fn placement(&self, t: TaskId) -> &TaskPlacement {
        &self.placements[t.index()]
    }

    /// The processor assigned to task `t`.
    #[inline]
    pub fn proc_of(&self, t: TaskId) -> ProcId {
        self.placements[t.index()].proc
    }

    /// Start time of task `t`.
    #[inline]
    pub fn start_of(&self, t: TaskId) -> f64 {
        self.placements[t.index()].start
    }

    /// Finish time of task `t`.
    #[inline]
    pub fn finish_of(&self, t: TaskId) -> f64 {
        self.placements[t.index()].finish
    }

    /// The route of edge `e`.
    #[inline]
    pub fn route(&self, e: EdgeId) -> &MessageRoute {
        &self.routes[e.index()]
    }

    /// All placements, indexed by task id.
    pub fn placements(&self) -> &[TaskPlacement] {
        &self.placements
    }

    /// All routes, indexed by edge id.
    pub fn routes(&self) -> &[MessageRoute] {
        &self.routes
    }

    /// Number of processors of the target system.
    pub fn num_processors(&self) -> usize {
        self.num_procs
    }

    /// Number of links of the target system.
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// The schedule length (makespan): the latest task finish time.
    #[inline]
    pub fn schedule_length(&self) -> f64 {
        self.schedule_length
    }

    /// Tasks assigned to processor `p`, sorted by start time.
    pub fn tasks_on(&self, p: ProcId) -> Vec<TaskPlacement> {
        let mut v: Vec<TaskPlacement> = self
            .placements
            .iter()
            .filter(|pl| pl.proc == p)
            .copied()
            .collect();
        v.sort_by(|a, b| a.start.total_cmp(&b.start));
        v
    }

    /// Message hops transmitted over link `l`, sorted by start time, together with the edge
    /// they belong to.
    pub fn hops_on(&self, l: LinkId) -> Vec<(EdgeId, MessageHop)> {
        let mut v: Vec<(EdgeId, MessageHop)> = self
            .routes
            .iter()
            .flat_map(|r| {
                r.hops
                    .iter()
                    .filter(|h| h.link == l)
                    .map(move |h| (r.edge, *h))
            })
            .collect();
        v.sort_by(|a, b| a.1.start.total_cmp(&b.1.start));
        v
    }

    /// Number of messages that actually cross at least one link.
    pub fn num_remote_messages(&self) -> usize {
        self.routes.iter().filter(|r| !r.is_local()).count()
    }

    /// Total time all links spend busy (the paper's "total communication costs").
    pub fn total_communication_cost(&self) -> f64 {
        self.routes.iter().map(|r| r.total_link_time()).sum()
    }

    /// Number of distinct processors actually used.
    pub fn processors_used(&self) -> usize {
        let mut used = vec![false; self.num_procs];
        for p in &self.placements {
            used[p.proc.index()] = true;
        }
        used.into_iter().filter(|&u| u).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_proc_schedule() -> Schedule {
        // T0 on P0 [0,10), T1 on P1 [15,25); edge E0 routed over L0 [10,15).
        let placements = vec![
            TaskPlacement {
                task: TaskId(0),
                proc: ProcId(0),
                start: 0.0,
                finish: 10.0,
            },
            TaskPlacement {
                task: TaskId(1),
                proc: ProcId(1),
                start: 15.0,
                finish: 25.0,
            },
        ];
        let routes = vec![MessageRoute {
            edge: EdgeId(0),
            hops: vec![MessageHop {
                link: LinkId(0),
                from: ProcId(0),
                to: ProcId(1),
                start: 10.0,
                finish: 15.0,
            }],
        }];
        Schedule::new("test", placements, routes, 2, 1)
    }

    #[test]
    fn basic_queries() {
        let s = two_proc_schedule();
        assert_eq!(s.schedule_length(), 25.0);
        assert_eq!(s.proc_of(TaskId(0)), ProcId(0));
        assert_eq!(s.start_of(TaskId(1)), 15.0);
        assert_eq!(s.finish_of(TaskId(1)), 25.0);
        assert_eq!(s.num_processors(), 2);
        assert_eq!(s.num_links(), 1);
        assert_eq!(s.processors_used(), 2);
        assert_eq!(s.num_remote_messages(), 1);
        assert_eq!(s.total_communication_cost(), 5.0);
        assert_eq!(s.algorithm, "test");
    }

    #[test]
    fn per_processor_and_per_link_views() {
        let s = two_proc_schedule();
        let on0 = s.tasks_on(ProcId(0));
        assert_eq!(on0.len(), 1);
        assert_eq!(on0[0].task, TaskId(0));
        assert!(s.tasks_on(ProcId(1))[0].start >= 15.0);
        let hops = s.hops_on(LinkId(0));
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0].0, EdgeId(0));
        assert!(s.hops_on(LinkId(7)).is_empty());
    }

    #[test]
    fn local_routes_report_no_arrival() {
        let r = MessageRoute::local(EdgeId(3));
        assert!(r.is_local());
        assert_eq!(r.arrival(), None);
        assert_eq!(r.num_hops(), 0);
        assert_eq!(r.total_link_time(), 0.0);
    }

    #[test]
    fn route_arrival_is_last_hop_finish() {
        let s = two_proc_schedule();
        assert_eq!(s.route(EdgeId(0)).arrival(), Some(15.0));
        assert_eq!(s.route(EdgeId(0)).num_hops(), 1);
    }
}
