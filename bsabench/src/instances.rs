//! Seeded problem instances and their wire encoding.

use bsa::network::builders::hypercube_for;
use bsa::network::LinkMode;
use bsa::prelude::*;
use bsa_daemon::json::{self, obj, u, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One owned problem instance.
pub struct Instance {
    /// `tasks x processors @ seed`, for reports.
    pub name: String,
    /// The task graph.
    pub graph: TaskGraph,
    /// The target system.
    pub system: HeterogeneousSystem,
}

impl Instance {
    /// A validated problem view.
    pub fn problem(&self) -> Problem<'_> {
        Problem::new(&self.graph, &self.system).expect("generated instances validate")
    }
}

/// A schedule reduced to what the correctness checks compare: the makespan and each
/// task's (processor, start), in task-id order.
#[derive(Debug, Clone, PartialEq)]
pub struct Placements {
    /// The schedule length.
    pub makespan: f64,
    /// (processor, start) of every task.
    pub tasks: Vec<(u32, f64)>,
}

impl Placements {
    /// The placements of `schedule`, a schedule of `graph`.
    pub fn of(schedule: &Schedule, graph: &TaskGraph) -> Placements {
        Placements {
            makespan: schedule.schedule_length(),
            tasks: graph
                .task_ids()
                .map(|t| (schedule.proc_of(t).0, schedule.start_of(t)))
                .collect(),
        }
    }
}

/// A random layered DAG in the paper's style (granularity 1.0) on a `procs`-processor
/// hypercube, with execution and link heterogeneity both uniform in [1, 10] as in the
/// scaling bench.  The same `(tasks, procs, seed)` always gives the same instance.
pub fn generate(tasks: usize, procs: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = bsa::workloads::random_dag::paper_random_graph(tasks, 1.0, &mut rng)
        .expect("the generator accepts benchmark sizes");
    let topology = hypercube_for(procs).expect("benchmark processor counts are powers of two");
    let range = HeterogeneityRange::new(1.0, 10.0);
    let system = HeterogeneousSystem::generate(&graph, topology, range, range, &mut rng);
    Instance {
        name: format!("{tasks}x{procs}@{seed}"),
        graph,
        system,
    }
}

/// The problem as the daemon's `submit` command spells it: nominal task and edge
/// costs, the links with their factors, and the full execution-cost matrix.  With
/// `scale_link = Some((l, s))` link `l`'s factor is multiplied by `s`, which makes a
/// distinct problem (and a distinct routing table) of nearly the same cost.
pub fn encode_problem(
    graph: &TaskGraph,
    system: &HeterogeneousSystem,
    scale_link: Option<(LinkId, f64)>,
) -> Value {
    let tasks = graph
        .task_ids()
        .map(|t| {
            let task = graph.task(t);
            obj(vec![
                ("name", json::s(task.name.clone())),
                ("cost", json::n(task.nominal_cost)),
            ])
        })
        .collect();
    let edges = graph
        .edge_ids()
        .map(|e| {
            let edge = graph.edge(e);
            Value::Arr(vec![
                u(u64::from(edge.src.0)),
                u(u64::from(edge.dst.0)),
                json::n(edge.nominal_cost),
            ])
        })
        .collect();
    let topology = &system.topology;
    let links = topology
        .link_ids()
        .map(|l| {
            let link = topology.link(l);
            let mut factor = system.comm_costs.factor(l);
            if let Some((scaled, s)) = scale_link {
                if scaled == l {
                    factor *= s;
                }
            }
            Value::Arr(vec![
                u(u64::from(link.a.0)),
                u(u64::from(link.b.0)),
                json::n(factor),
            ])
        })
        .collect();
    let exec = graph
        .task_ids()
        .map(|t| {
            Value::Arr(
                system
                    .exec_costs
                    .row(t)
                    .iter()
                    .map(|&c| json::n(c))
                    .collect(),
            )
        })
        .collect();
    let link_mode = match topology.link_mode() {
        LinkMode::HalfDuplex => "half_duplex",
        LinkMode::FullDuplex => "full_duplex",
    };
    obj(vec![
        ("tasks", Value::Arr(tasks)),
        ("edges", Value::Arr(edges)),
        (
            "system",
            obj(vec![
                ("processors", u(system.num_processors() as u64)),
                ("links", Value::Arr(links)),
                ("link_mode", json::s(link_mode)),
                ("exec", Value::Arr(exec)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_the_encoding_round_trips() {
        let a = generate(30, 4, 7);
        let b = generate(30, 4, 7);
        assert_eq!(a.graph, b.graph);
        let fp =
            |i: &Instance| bsa_daemon::engine::ProblemInstance::fingerprint_of(&i.graph, &i.system);
        assert_eq!(fp(&a), fp(&b));
        assert_ne!(fp(&a), fp(&generate(30, 4, 8)));

        let wire = encode_problem(&a.graph, &a.system, None).to_json();
        let (graph, system) =
            bsa_daemon::wire::decode_problem(&json::parse(&wire).unwrap()).unwrap();
        assert_eq!(
            bsa_daemon::engine::ProblemInstance::fingerprint_of(&graph, &system),
            fp(&a)
        );

        let scaled = encode_problem(&a.graph, &a.system, Some((LinkId(0), 1.01))).to_json();
        let (graph, system) =
            bsa_daemon::wire::decode_problem(&json::parse(&scaled).unwrap()).unwrap();
        assert_ne!(
            bsa_daemon::engine::ProblemInstance::fingerprint_of(&graph, &system),
            fp(&a)
        );
    }
}
