//! Configuration knobs of the BSA implementation.
//!
//! The defaults reproduce the paper; the alternatives exist for the ablation experiments
//! listed in DESIGN.md (A1: VIP rule, A2: pivot selection).

use bsa_network::ProcId;
use serde::{Deserialize, Serialize};

/// How the first pivot processor is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PivotStrategy {
    /// The processor whose actual execution costs yield the shortest critical path
    /// (the paper's rule).
    #[default]
    ShortestCriticalPath,
    /// The processor yielding the *longest* critical path (ablation: a deliberately bad
    /// starting point).
    LongestCriticalPath,
    /// A fixed processor chosen by the caller (ablation / determinism studies).
    Fixed(ProcId),
}

/// Which re-timing kernel runs after every accepted migration.
///
/// Both produce identical times (a property the test suite pins down); they differ only
/// in cost.  `Full` is kept as the oracle: the property tests compare against it, and
/// bsabench's `cold-large` oracle schedules were written by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum RetimingMode {
    /// One flat sweep over the reduced decision graph on persistent arenas
    /// ([`bsa_schedule::ScheduleBuilder::recompute_times_incremental`]).
    #[default]
    Incremental,
    /// Full Kahn relaxation over every task and hop
    /// ([`bsa_schedule::ScheduleBuilder::recompute_times`]).
    Full,
}

/// Tunable behaviour of the BSA scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BsaConfig {
    /// First-pivot selection rule.
    pub pivot_strategy: PivotStrategy,
    /// Whether a task migrates when its finish time stays *equal* but its VIP (the
    /// predecessor delivering its latest message) lives on the candidate processor
    /// (paper §2.3, lines 11–12 of the algorithm).  Disabling this is ablation A1.
    pub use_vip_rule: bool,
    /// Whether tasks may be inserted into idle gaps of the candidate processor (insertion
    /// scheduling).  When `false` tasks are only appended after the processor's last task.
    pub insertion: bool,
    /// Record a full decision trace (pivot choice, serial order, every migration).  Traces
    /// cost a little memory but make the worked-example binaries and tests much more
    /// informative.
    pub record_trace: bool,
    /// Compare candidate finish times against the task's finish time *at the start of the
    /// current pivot phase* rather than against its continuously compacted value.  The
    /// default, `false`, compares against the continuously compacted value: strictly
    /// local improvement, the reading most consistent with the paper's Figure 2 (see
    /// DESIGN.md §5.1).  Setting this to `true` gives the phase-start variant, which
    /// diffuses load off an overloaded pivot much more aggressively; the ablation
    /// benches measure it.
    pub compare_against_phase_start: bool,
    /// Number of breadth-first sweeps over the processor list.  The paper's pseudocode
    /// performs one sweep; its worked example however notes that "no more migration can be
    /// performed after this stage", i.e. the authors verified quiescence.  Additional
    /// sweeps simply repeat the bubble-up pass (each task may migrate one more hop per
    /// sweep) and stop early once a sweep performs no migration.
    pub sweeps: usize,
    /// Re-timing kernel used after every accepted migration (see [`RetimingMode`]).
    /// The incremental default changes performance, never results.
    pub retiming: RetimingMode,
}

impl Default for BsaConfig {
    fn default() -> Self {
        BsaConfig {
            pivot_strategy: PivotStrategy::ShortestCriticalPath,
            use_vip_rule: true,
            insertion: true,
            record_trace: false,
            compare_against_phase_start: false,
            sweeps: 1,
            retiming: RetimingMode::Incremental,
        }
    }
}

impl BsaConfig {
    /// The paper's configuration with decision tracing enabled.
    pub fn traced() -> Self {
        BsaConfig {
            record_trace: true,
            ..Self::default()
        }
    }

    /// Ablation A1: disable the VIP co-location rule.
    pub fn without_vip_rule() -> Self {
        BsaConfig {
            use_vip_rule: false,
            ..Self::default()
        }
    }

    /// The full-relaxation oracle kernel — identical schedules, slower migrations.
    /// The property tests use it as the reference implementation, and it wrote
    /// bsabench's `cold-large` oracle schedules.
    pub fn full_retiming() -> Self {
        BsaConfig {
            retiming: RetimingMode::Full,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_the_paper() {
        let c = BsaConfig::default();
        assert_eq!(c.pivot_strategy, PivotStrategy::ShortestCriticalPath);
        assert!(c.use_vip_rule);
        assert!(c.insertion);
        assert!(!c.record_trace);
    }

    #[test]
    fn ablation_constructors() {
        assert!(!BsaConfig::without_vip_rule().use_vip_rule);
        assert!(BsaConfig::traced().record_trace);
        assert_eq!(
            PivotStrategy::default(),
            PivotStrategy::ShortestCriticalPath
        );
        assert_eq!(BsaConfig::default().retiming, RetimingMode::Incremental);
        assert_eq!(BsaConfig::full_retiming().retiming, RetimingMode::Full);
    }
}
