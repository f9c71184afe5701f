//! Decision trace of one BSA run (used by the worked-example binaries and by tests that
//! assert on the algorithm's intermediate behaviour, not just its final schedule).
//!
//! Since the solver-session redesign the canonical trace type is
//! [`bsa_schedule::SolveTrace`], filled by every solver; [`BsaTrace`] remains as the
//! BSA-shaped view used by [`crate::Bsa::schedule_with_trace`] and is derived from a
//! `SolveTrace` via `From`.  The building blocks ([`MigrationRecord`],
//! [`RetimeTotals`]) live in `bsa_schedule::solver` and are re-exported here for
//! compatibility.

use bsa_network::ProcId;
use bsa_schedule::SolveTrace;
use bsa_taskgraph::TaskId;
use serde::{Deserialize, Serialize};

pub use bsa_schedule::{MigrationRecord, RetimeTotals};

/// Complete record of one BSA run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BsaTrace {
    /// Critical-path length of the graph under each processor's actual execution costs.
    pub cp_lengths: Vec<f64>,
    /// The selected first pivot.
    pub first_pivot: Option<ProcId>,
    /// The serial order injected onto the first pivot.
    pub serial_order: Vec<TaskId>,
    /// The breadth-first pivot visiting order.
    pub processor_order: Vec<ProcId>,
    /// Every accepted migration in chronological order.
    pub migrations: Vec<MigrationRecord>,
    /// Schedule length right after serialization (before any migration).
    pub serialized_length: f64,
    /// Final schedule length.
    pub final_length: f64,
    /// Aggregated re-timing phase counters (incremental kernel diagnostics).
    pub retime: RetimeTotals,
}

impl From<SolveTrace> for BsaTrace {
    fn from(t: SolveTrace) -> Self {
        BsaTrace {
            cp_lengths: t.cp_lengths,
            first_pivot: t.first_pivot,
            serial_order: t.serial_order,
            processor_order: t.processor_order,
            migrations: t.migrations,
            serialized_length: t.serialized_length.unwrap_or(0.0),
            final_length: t.final_length,
            retime: t.retime,
        }
    }
}

impl BsaTrace {
    /// Number of accepted migrations.
    pub fn num_migrations(&self) -> usize {
        self.migrations.len()
    }

    /// Migrations performed during the phase of a given pivot.
    pub fn migrations_of_pivot(&self, pivot: ProcId) -> Vec<&MigrationRecord> {
        self.migrations
            .iter()
            .filter(|m| m.pivot == pivot)
            .collect()
    }

    /// Human-readable multi-line summary.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "CP lengths per processor: {:?}\n",
            self.cp_lengths
        ));
        if let Some(p) = self.first_pivot {
            // 1-based processor names, matching the paper's P1..Pm convention and the
            // Gantt renderer.
            s.push_str(&format!("first pivot: P{}\n", p.0 + 1));
        }
        s.push_str(&format!(
            "serial order: {}\n",
            self.serial_order
                .iter()
                .map(|t| format!("T{}", t.0 + 1))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        s.push_str(&format!(
            "serialized length: {:.2} -> final length: {:.2} ({} migrations)\n",
            self.serialized_length,
            self.final_length,
            self.migrations.len()
        ));
        if self.retime.passes > 0 {
            s.push_str(&format!(
                "re-timing: {} passes, {} seeds -> {} cone nodes / {} cone edges, \
                 {} changed (mean cone {:.1})\n",
                self.retime.passes,
                self.retime.seed_nodes,
                self.retime.cone_nodes,
                self.retime.cone_edges,
                self.retime.changed_nodes,
                self.retime.mean_cone()
            ));
            s.push_str(&format!(
                "  kernel mix: {} cone, {} flat\n",
                self.retime.passes.saturating_sub(self.retime.fallbacks),
                self.retime.fallbacks
            ));
        }
        for m in &self.migrations {
            s.push_str(&format!(
                "  [pivot P{}] T{} : P{} -> P{}  (FT {:.1} -> {:.1}{})\n",
                m.pivot.0 + 1,
                m.task.0 + 1,
                m.from.0 + 1,
                m.to.0 + 1,
                m.old_finish,
                m.new_finish_estimate,
                if m.vip_rule { ", VIP rule" } else { "" }
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mentions_all_key_facts() {
        let trace = BsaTrace {
            cp_lengths: vec![240.0, 226.0],
            first_pivot: Some(ProcId(1)),
            serial_order: vec![TaskId(0), TaskId(1)],
            processor_order: vec![ProcId(1), ProcId(0)],
            migrations: vec![MigrationRecord {
                pivot: ProcId(1),
                task: TaskId(1),
                from: ProcId(1),
                to: ProcId(0),
                old_finish: 50.0,
                new_finish_estimate: 40.0,
                vip_rule: false,
            }],
            serialized_length: 100.0,
            final_length: 80.0,
            retime: RetimeTotals {
                passes: 2,
                fallbacks: 1,
                seed_nodes: 2,
                cone_nodes: 10,
                cone_edges: 6,
                changed_nodes: 3,
                flat_by_seeds: 1,
                ..RetimeTotals::default()
            },
        };
        let s = trace.summary();
        assert!(s.contains("first pivot: P2"));
        assert!(s.contains("T1 T2"));
        assert!(s.contains("T2 : P2 -> P1"));
        assert!(s.contains("100.00 -> final length: 80.00"));
        assert!(s.contains("re-timing: 2 passes, 2 seeds"));
        assert!(s.contains("mean cone 5.0"));
        assert!(s.contains("kernel mix: 1 cone, 1 flat"));
        assert_eq!(trace.num_migrations(), 1);
        assert_eq!(trace.migrations_of_pivot(ProcId(1)).len(), 1);
        assert_eq!(trace.migrations_of_pivot(ProcId(0)).len(), 0);
    }
}
