//! The scheduler roster: one registry of every solver variant the workspace ships,
//! shared by the experiment binaries, the benches and library users.
//!
//! Lived in `bsa_experiments::algorithms` before the solver-session redesign; it moved
//! here so that "which algorithms exist, how are they labelled, how are they
//! constructed" has a single owner (the experiments crate re-exports it for
//! compatibility).

use bsa_baselines::{ContentionObliviousHeft, Dls, Heft, SerialScheduler};
use bsa_core::{Bsa, BsaConfig, PivotStrategy};
use bsa_network::{ProcId, RoutePolicy};
use bsa_schedule::{Portfolio, SolveOptions, Solver};

/// Identifier of a scheduler variant in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// The paper's contribution.
    Bsa,
    /// The paper's baseline.
    Dls,
    /// Contention-aware HEFT (extra modern baseline).
    HeftCa,
    /// Contention-oblivious HEFT re-simulated under contention (ablation A3).
    HeftCo,
    /// BSA without the VIP co-location rule (ablation A1).
    BsaNoVip,
    /// BSA starting from the worst pivot (ablation A2).
    BsaWorstPivot,
    /// BSA starting from a fixed pivot P1 (ablation A2).
    BsaFixedPivot,
    /// Everything on the single fastest processor (sanity bound).
    Serial,
}

impl Algo {
    /// The two algorithms every paper figure compares.
    pub const PAPER_PAIR: [Algo; 2] = [Algo::Dls, Algo::Bsa];

    /// Every variant in the roster.
    pub const ALL: [Algo; 8] = [
        Algo::Bsa,
        Algo::Dls,
        Algo::HeftCa,
        Algo::HeftCo,
        Algo::BsaNoVip,
        Algo::BsaWorstPivot,
        Algo::BsaFixedPivot,
        Algo::Serial,
    ];

    /// Column label used in tables and CSV headers.
    pub fn label(self) -> &'static str {
        match self {
            Algo::Bsa => "BSA",
            Algo::Dls => "DLS",
            Algo::HeftCa => "HEFT-CA",
            Algo::HeftCo => "HEFT-CO",
            Algo::BsaNoVip => "BSA-noVIP",
            Algo::BsaWorstPivot => "BSA-worstPivot",
            Algo::BsaFixedPivot => "BSA-fixedPivot",
            Algo::Serial => "SERIAL",
        }
    }

    /// Instantiates the solver.
    pub fn solver(self) -> Box<dyn Solver + Send + Sync> {
        match self {
            Algo::Bsa => Box::new(Bsa::default()),
            Algo::Dls => Box::new(Dls::new()),
            Algo::HeftCa => Box::new(Heft::new()),
            Algo::HeftCo => Box::new(ContentionObliviousHeft::new()),
            Algo::BsaNoVip => Box::new(Bsa::new(BsaConfig::without_vip_rule())),
            Algo::BsaWorstPivot => Box::new(Bsa::new(BsaConfig {
                pivot_strategy: PivotStrategy::LongestCriticalPath,
                ..BsaConfig::default()
            })),
            Algo::BsaFixedPivot => Box::new(Bsa::new(BsaConfig {
                pivot_strategy: PivotStrategy::Fixed(ProcId(0)),
                ..BsaConfig::default()
            })),
            Algo::Serial => Box::new(SerialScheduler::new()),
        }
    }
}

/// The standard racing roster: BSA under each route policy.  Route policies genuinely
/// change the result on heterogeneous links, so the race covers the axis a user would
/// otherwise have to sweep by hand.  Re-timing modes are not raced: they produce
/// bit-identical schedules at different costs, so a
/// [`RetimingMode::Full`](bsa_core::RetimingMode::Full) entry could only tie its
/// incremental twin and slow the race down.
///
/// Returned with the default [`bsa_schedule::RaceStrategy::BestOfAll`], so the
/// portfolio's answer is deterministic at any worker count; chain
/// `.with_strategy(RaceStrategy::FirstConverged)` for the lowest-latency variant.
pub fn standard_portfolio() -> Portfolio {
    let policies: [(&str, RoutePolicy); 2] = [
        ("shortest-hop", RoutePolicy::ShortestHop),
        ("min-transfer", RoutePolicy::MinTransferTime),
    ];
    let mut portfolio = Portfolio::new();
    for (label, policy) in policies {
        portfolio = portfolio.add(
            format!("bsa/{label}"),
            Box::new(Bsa::default()),
            SolveOptions::default().with_route_policy(policy),
        );
    }
    portfolio
}

impl std::fmt::Display for Algo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsa_network::builders::ring;
    use bsa_network::HeterogeneousSystem;
    use bsa_schedule::{Problem, StopReason};
    use bsa_taskgraph::TaskGraphBuilder;

    #[test]
    fn the_standard_portfolio_races_bsa_under_both_route_policies() {
        let portfolio = standard_portfolio();
        let labels: Vec<&str> = portfolio
            .entries()
            .iter()
            .map(|e| e.label.as_str())
            .collect();
        assert_eq!(labels, ["bsa/shortest-hop", "bsa/min-transfer"]);

        let mut b = TaskGraphBuilder::new();
        let a = b.add_task("a", 5.0);
        let c = b.add_task("c", 5.0);
        b.add_edge(a, c, 1.0).unwrap();
        let g = b.build().unwrap();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(4).unwrap());
        let problem = Problem::new(&g, &sys).unwrap();
        let solution = portfolio.solve_unbounded(&problem).unwrap();
        assert_eq!(solution.provenance.solver, "Portfolio");
        assert!(solution.provenance.config.contains("winner = bsa/"));
        assert_eq!(solution.stop(), StopReason::Converged);
    }

    #[test]
    fn every_algo_instantiates_and_solves_a_tiny_graph() {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task("a", 5.0);
        let c = b.add_task("c", 5.0);
        b.add_edge(a, c, 1.0).unwrap();
        let g = b.build().unwrap();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(4).unwrap());
        let problem = Problem::new(&g, &sys).unwrap();
        for algo in Algo::ALL {
            let solution = algo.solver().solve_unbounded(&problem).unwrap();
            assert!(solution.schedule.schedule_length() >= 10.0, "{algo}");
            assert_eq!(solution.stop(), StopReason::Converged, "{algo}");
            assert_eq!(solution.provenance.solver, algo.solver().name(), "{algo}");
            assert!(!algo.label().is_empty());
        }
    }
}
