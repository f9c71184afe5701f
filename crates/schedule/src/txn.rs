//! Transactional mutations on a [`ScheduleBuilder`]: undo log and rollback.
//!
//! Every mutating operation of the builder ([`ScheduleBuilder::place_task`],
//! [`ScheduleBuilder::unplace_task`], [`ScheduleBuilder::set_route`],
//! [`ScheduleBuilder::clear_route`], [`ScheduleBuilder::push_hop`], and the two
//! re-timing entry points) records a reverse operation in an undo log while a
//! transaction is open.  [`ScheduleBuilder::rollback`] replays the log backwards and
//! restores the builder to its exact pre-transaction state — byte for byte, including
//! every `f64` instant — without ever cloning the builder.  This is the primitive the
//! BSA migration loop uses for its "try a migration, keep it only if the re-timing
//! succeeds" step.  Pricing a candidate needs no transaction: it books on a read-only
//! [`Tentative`](crate::overlay::Tentative) view instead.  See DESIGN.md §7.1.
//!
//! Transactions nest LIFO: an inner [`Txn`] must be committed or rolled back before
//! the outer one.  Committing the outermost transaction discards the log; committing
//! an inner one keeps its entries so that an outer rollback still undoes them.
//!
//! The same mutation hooks also feed the *dirty list* read by the incremental
//! re-timing pass ([`ScheduleBuilder::recompute_times_incremental`]): every placement
//! marks its task (and the task that now follows it on its processor) and every route
//! change marks the message's consumer, so the flat sweep knows which tasks' messages
//! to check, and an empty list means nothing changed since the last re-timing.  Rolling
//! a transaction back restores the dirty list to its pre-transaction contents, entry
//! for entry and in order.
//!
//! The list is a sparse set (Briggs & Torczon, "An Efficient Representation for
//! Sparse Sets", 1993): each task's stamp is its position in the list, and a task is
//! dirty iff the list holds it at that position.  Between re-timings the list only
//! grows, so a [`Txn`] records just its length and rollback truncates back to it —
//! no copy, no stamp writes.  A transaction therefore costs its own operations, not
//! the pending dirty set, however long the list grew since the last re-timing.  A
//! re-timing pass
//! inside a transaction empties the list; it logs a `ClearDirty` undo op and moves
//! the consumed entries to a persistent stack, so rollback can put them back.

use crate::builder::ScheduleBuilder;
use crate::schedule::MessageHop;
use bsa_network::ProcId;
use bsa_taskgraph::{EdgeId, TaskId};

/// One reverse operation in the undo log.
#[derive(Debug, Clone)]
pub(crate) enum UndoOp {
    /// Reverse of `place_task`: unplace the task again, restoring the (stale, but part
    /// of the byte-equality guarantee) start/finish values it had while unplaced.
    Place {
        task: TaskId,
        old_start: f64,
        old_finish: f64,
    },
    /// Reverse of `unplace_task`: restore the placement with its exact old window.
    Unplace {
        task: TaskId,
        proc: ProcId,
        start: f64,
        finish: f64,
    },
    /// Reverse of `set_route` / `clear_route`: restore the edge's previous hops.
    Route { edge: EdgeId, hops: Vec<MessageHop> },
    /// Reverse of `push_hop`: pop the last hop of the edge's route.
    PopHop(EdgeId),
    /// Reverse of a re-timing pass: restore the old `(start, finish)` of every node the
    /// pass changed.  The old windows live on the builder's persistent
    /// `retime_undo_tasks` / `retime_undo_hops` stacks; this op only records the stack
    /// watermarks the pass started from, so logging a re-timing allocates nothing in
    /// steady state.  LIFO rollback guarantees the suffixes above the watermarks belong
    /// to exactly this pass.
    Retime { tasks_from: usize, hops_from: usize },
    /// Reverse of a re-timing pass consuming the dirty list: put the consumed entries
    /// back.  They live on the builder's persistent `dirty_saved` stack above
    /// `saved_from`, watermarked like [`UndoOp::Retime`].
    ClearDirty { saved_from: usize },
}

/// Handle for an open transaction on a [`ScheduleBuilder`].
///
/// Obtained from [`ScheduleBuilder::begin_txn`]; must be passed back to exactly one of
/// [`ScheduleBuilder::commit`] or [`ScheduleBuilder::rollback`].  Transactions nest
/// LIFO — the most recently begun transaction must be resolved first.
///
/// The handle is three counters and owns no buffer: beginning a transaction is O(1),
/// and rolling it back costs the operations it logged, however many dirty nodes were
/// pending when it began.
#[derive(Debug)]
#[must_use = "a transaction must be committed or rolled back"]
pub struct Txn {
    /// Undo-log length when the transaction began; rollback pops down to this.
    watermark: usize,
    /// Dirty-list length when the transaction began; rollback truncates back to it.
    dirty_len: usize,
    /// Nesting depth of this transaction (1 = outermost), for LIFO enforcement.
    depth: usize,
}

impl<'a> ScheduleBuilder<'a> {
    /// Opens a transaction.  All mutations until the matching
    /// [`ScheduleBuilder::commit`] / [`ScheduleBuilder::rollback`] are recorded in the
    /// undo log.
    pub fn begin_txn(&mut self) -> Txn {
        self.txn_depth += 1;
        Txn {
            watermark: self.undo.len(),
            dirty_len: self.dirty.len(),
            depth: self.txn_depth,
        }
    }

    /// Commits a transaction: the mutations made since [`ScheduleBuilder::begin_txn`]
    /// become permanent.  Committing the outermost transaction discards the undo log.
    ///
    /// # Panics
    /// Panics if `txn` is not the innermost open transaction.
    pub fn commit(&mut self, txn: Txn) {
        assert_eq!(
            txn.depth, self.txn_depth,
            "transactions must be committed/rolled back in LIFO order"
        );
        self.txn_depth -= 1;
        if self.txn_depth == 0 {
            self.undo.clear();
            // No `Retime` op can reference the stacks any more; reclaim them (capacity
            // is kept, so steady-state migrations never reallocate here).
            self.retime_undo_tasks.clear();
            self.retime_undo_hops.clear();
            self.dirty_saved.clear();
        }
    }

    /// Rolls a transaction back, restoring the builder to its exact state at the
    /// matching [`ScheduleBuilder::begin_txn`] (placements, routes, timelines, task and
    /// hop times, and the dirty-node list).
    ///
    /// # Panics
    /// Panics if `txn` is not the innermost open transaction.
    pub fn rollback(&mut self, txn: Txn) {
        assert_eq!(
            txn.depth, self.txn_depth,
            "transactions must be committed/rolled back in LIFO order"
        );
        while self.undo.len() > txn.watermark {
            let op = self.undo.pop().expect("undo log is non-empty");
            self.apply_undo(op);
        }
        // Undoing the transaction's `ClearDirty` ops left the list it began with as a
        // prefix; everything above was marked since.  The dropped entries' stamps now
        // point past the end, or at other nodes once the list regrows.
        debug_assert!(self.dirty.len() >= txn.dirty_len);
        self.dirty.truncate(txn.dirty_len);
        self.txn_depth -= 1;
    }

    /// Whether a transaction is currently open.
    pub fn in_txn(&self) -> bool {
        self.txn_depth > 0
    }

    /// Records `op` in the undo log if a transaction is open.
    pub(crate) fn log_undo(&mut self, op: UndoOp) {
        if self.txn_depth > 0 {
            self.undo.push(op);
        }
    }

    /// Marks task `t` as needing re-timing.  Deduplicated in O(1) via the position
    /// stamps: a task already in the dirty list is not pushed again, so bulk mutation
    /// batches stay proportional to the number of *distinct* dirty tasks, not to the
    /// number of mutations.
    pub(crate) fn mark_dirty(&mut self, t: TaskId) {
        if !self.is_dirty(t) {
            self.push_dirty(t);
        }
    }

    /// Whether task `t` is in the dirty list: its position stamp points at itself.
    pub(crate) fn is_dirty(&self, t: TaskId) -> bool {
        self.dirty.get(self.dirty_stamp[t.index()]) == Some(&t)
    }

    /// Appends task `t` to the dirty list and stamps it with its position.
    fn push_dirty(&mut self, t: TaskId) {
        self.dirty_stamp[t.index()] = self.dirty.len();
        self.dirty.push(t);
    }

    /// Empties the dirty list (a re-timing pass consumed it), with no stamp writes.
    /// Inside a transaction the consumed entries move to `dirty_saved` and the clear is
    /// logged, so rollback can put them back.
    pub(crate) fn clear_dirty(&mut self) {
        if self.in_txn() {
            let saved_from = self.dirty_saved.len();
            self.dirty_saved.append(&mut self.dirty);
            self.undo.push(UndoOp::ClearDirty { saved_from });
        } else {
            self.dirty.clear();
        }
    }

    /// Applies one reverse operation.  Bypasses logging and dirty marking: rollback
    /// truncates the dirty list back to its length at [`ScheduleBuilder::begin_txn`].
    fn apply_undo(&mut self, op: UndoOp) {
        match op {
            UndoOp::Place {
                task: t,
                old_start,
                old_finish,
            } => {
                let p = self.assignment[t.index()]
                    .take()
                    .expect("undo Place: task is placed");
                self.placed_count -= 1;
                let start = self.task_start[t.index()];
                let removed = self.proc_timelines[p.index()].remove_at(start, |x| x == t);
                debug_assert!(removed.is_some(), "undo Place: interval found");
                self.task_start[t.index()] = old_start;
                self.task_finish[t.index()] = old_finish;
            }
            UndoOp::Unplace {
                task,
                proc,
                start,
                finish,
            } => {
                debug_assert!(self.assignment[task.index()].is_none());
                self.assignment[task.index()] = Some(proc);
                self.placed_count += 1;
                self.task_start[task.index()] = start;
                self.task_finish[task.index()] = finish;
                self.proc_timelines[proc.index()].insert(start, finish - start, task);
            }
            UndoOp::Route { edge, hops } => {
                // Remove whatever the edge is currently routed over …
                let current = std::mem::take(&mut self.routes[edge.index()]);
                for (k, hop) in current.iter().enumerate() {
                    let slot = self.link_slot(hop.link, hop.from);
                    let removed =
                        self.link_timelines[slot].remove_at(hop.start, |pl| pl == (edge, k as u32));
                    debug_assert!(removed.is_some(), "undo Route: hop interval found");
                }
                // … and restore the old hops.
                for (k, hop) in hops.iter().enumerate() {
                    let slot = self.link_slot(hop.link, hop.from);
                    self.link_timelines[slot].insert(
                        hop.start,
                        hop.finish - hop.start,
                        (edge, k as u32),
                    );
                }
                // Same maintenance hook the forward mutations use: rollback restores
                // the scaffold's route-length mirror through it.
                self.scaffold.set_route_len(edge.index(), hops.len());
                self.routes[edge.index()] = hops;
            }
            UndoOp::PopHop(edge) => {
                let hop = self.routes[edge.index()]
                    .pop()
                    .expect("undo PopHop: route is non-empty");
                let k = self.routes[edge.index()].len() as u32;
                self.scaffold.set_route_len(edge.index(), k as usize);
                let slot = self.link_slot(hop.link, hop.from);
                let removed = self.link_timelines[slot].remove_at(hop.start, |pl| pl == (edge, k));
                debug_assert!(removed.is_some(), "undo PopHop: hop interval found");
            }
            UndoOp::Retime {
                tasks_from,
                hops_from,
            } => {
                // The pass pushed its old windows above the recorded watermarks; LIFO
                // rollback means everything above them belongs to this pass.  Two
                // phases — remove every touched interval first, then reinsert at the
                // old instants — so intermediate states never trip the timeline overlap
                // assertions.  Index loops (the tuples are `Copy`) keep the stacks
                // borrow-disjoint from the timelines.
                for i in tasks_from..self.retime_undo_tasks.len() {
                    let (t, _, _) = self.retime_undo_tasks[i];
                    let p = self.assignment[t.index()].expect("undo Retime: task placed");
                    let start = self.task_start[t.index()];
                    let removed = self.proc_timelines[p.index()].remove_at(start, |x| x == t);
                    debug_assert!(removed.is_some(), "undo Retime: task interval found");
                }
                for i in hops_from..self.retime_undo_hops.len() {
                    let (e, k, _, _) = self.retime_undo_hops[i];
                    let hop = self.routes[e.index()][k as usize];
                    let slot = self.link_slot(hop.link, hop.from);
                    let removed = self.link_timelines[slot].remove_at(hop.start, |pl| pl == (e, k));
                    debug_assert!(removed.is_some(), "undo Retime: hop interval found");
                }
                for i in tasks_from..self.retime_undo_tasks.len() {
                    let (t, start, finish) = self.retime_undo_tasks[i];
                    let p = self.assignment[t.index()].expect("undo Retime: task placed");
                    self.task_start[t.index()] = start;
                    self.task_finish[t.index()] = finish;
                    self.proc_timelines[p.index()].insert(start, finish - start, t);
                }
                for i in hops_from..self.retime_undo_hops.len() {
                    let (e, k, start, finish) = self.retime_undo_hops[i];
                    let (link, from) = {
                        let hop = &mut self.routes[e.index()][k as usize];
                        hop.start = start;
                        hop.finish = finish;
                        (hop.link, hop.from)
                    };
                    let slot = self.link_slot(link, from);
                    self.link_timelines[slot].insert(start, finish - start, (e, k));
                }
                self.retime_undo_tasks.truncate(tasks_from);
                self.retime_undo_hops.truncate(hops_from);
            }
            UndoOp::ClearDirty { saved_from } => {
                // Everything in the list was marked after the clear; put back the list
                // the pass consumed, re-stamping each entry at its old position.
                self.dirty.clear();
                for i in saved_from..self.dirty_saved.len() {
                    self.push_dirty(self.dirty_saved[i]);
                }
                self.dirty_saved.truncate(saved_from);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ScheduleBuilder;
    use crate::schedule::MessageHop;
    use bsa_network::builders::ring;
    use bsa_network::{HeterogeneousSystem, LinkId, ProcId};
    use bsa_taskgraph::{EdgeId, TaskGraph, TaskGraphBuilder, TaskId};

    fn chain_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let t0 = b.add_task("T0", 10.0);
        let t1 = b.add_task("T1", 20.0);
        let t2 = b.add_task("T2", 30.0);
        b.add_edge(t0, t1, 5.0).unwrap();
        b.add_edge(t1, t2, 5.0).unwrap();
        b.build().unwrap()
    }

    fn hop(link: u32, from: u32, to: u32, start: f64, finish: f64) -> MessageHop {
        MessageHop {
            link: LinkId(link),
            from: ProcId(from),
            to: ProcId(to),
            start,
            finish,
        }
    }

    #[test]
    fn rollback_restores_placements_routes_and_times() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.place_task(TaskId(0), ProcId(0), 0.0);
        b.place_task(TaskId(1), ProcId(0), 10.0);
        b.place_task(TaskId(2), ProcId(1), 40.0);
        b.set_route(EdgeId(1), vec![hop(0, 0, 1, 30.0, 35.0)]);
        let reference = b.clone();

        let txn = b.begin_txn();
        b.unplace_task(TaskId(1));
        b.place_task(TaskId(1), ProcId(2), 12.5);
        b.set_route(EdgeId(0), vec![hop(2, 0, 2, 10.0, 15.0)]);
        b.clear_route(EdgeId(1));
        b.push_hop(EdgeId(1), hop(1, 2, 1, 50.0, 55.0));
        b.recompute_times_incremental().unwrap();
        assert!(!b.same_schedule_state(&reference));
        b.rollback(txn);
        assert!(b.same_schedule_state(&reference));
        assert!(!b.in_txn());
    }

    #[test]
    fn commit_keeps_the_mutations() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.place_task(TaskId(0), ProcId(0), 0.0);
        let txn = b.begin_txn();
        b.place_task(TaskId(1), ProcId(0), 10.0);
        b.commit(txn);
        assert!(b.is_placed(TaskId(1)));
        assert!(!b.in_txn());
    }

    #[test]
    fn nested_transactions_roll_back_lifo() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.place_task(TaskId(0), ProcId(0), 0.0);
        let reference = b.clone();

        let outer = b.begin_txn();
        b.place_task(TaskId(1), ProcId(1), 20.0);
        let after_outer_op = b.clone();
        let inner = b.begin_txn();
        b.place_task(TaskId(2), ProcId(2), 40.0);
        b.rollback(inner);
        assert!(b.same_schedule_state(&after_outer_op));
        // An inner *commit* must still be undone by the outer rollback.
        let inner = b.begin_txn();
        b.place_task(TaskId(2), ProcId(2), 40.0);
        b.commit(inner);
        b.rollback(outer);
        assert!(b.same_schedule_state(&reference));
    }

    #[test]
    fn rollback_restores_the_dirty_list_for_the_next_incremental_pass() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        b.place_task(TaskId(0), ProcId(0), 5.0);
        b.place_task(TaskId(1), ProcId(0), 20.0);
        b.place_task(TaskId(2), ProcId(0), 50.0);
        // A rolled-back transaction must not lose the pending dirt from the
        // placements above …
        let txn = b.begin_txn();
        b.unplace_task(TaskId(2));
        b.rollback(txn);
        // … so the incremental pass still compacts everything.
        b.recompute_times_incremental().unwrap();
        assert_eq!(b.start_of(TaskId(0)), 0.0);
        assert_eq!(b.start_of(TaskId(1)), 10.0);
        assert_eq!(b.start_of(TaskId(2)), 30.0);
    }

    /// The chain on P0, re-timed once and then with every task moved, so three dirty
    /// tasks are pending, listed out of id order: `[T2, T1, T0]`.
    fn pending_dirt(b: &mut ScheduleBuilder<'_>) -> Vec<TaskId> {
        b.place_task(TaskId(0), ProcId(0), 5.0);
        b.place_task(TaskId(1), ProcId(0), 20.0);
        b.place_task(TaskId(2), ProcId(0), 50.0);
        b.recompute_times_incremental().unwrap();
        for (t, start) in [(2, 60.0), (1, 25.0), (0, 1.0)] {
            b.unplace_task(TaskId(t));
            b.place_task(TaskId(t), ProcId(0), start);
        }
        let pending = vec![TaskId(2), TaskId(1), TaskId(0)];
        assert_eq!(b.dirty, pending);
        pending
    }

    /// Moves T2 to a later slot on P0 (its own dirty mark is the only one).
    fn bounce_last(b: &mut ScheduleBuilder<'_>, start: f64) {
        b.unplace_task(TaskId(2));
        b.place_task(TaskId(2), ProcId(0), start);
    }

    /// The next incremental pass must match the full relaxation bit for bit.
    fn assert_next_pass_matches_the_oracle(b: &mut ScheduleBuilder<'_>) {
        let mut oracle = b.clone();
        b.recompute_times_incremental().unwrap();
        oracle.recompute_times().unwrap();
        assert!(b.same_schedule_state(&oracle));
    }

    #[test]
    fn rollback_of_a_retimed_transaction_restores_the_dirty_list_in_order() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        let pending = pending_dirt(&mut b);
        let reference = b.clone();

        let txn = b.begin_txn();
        bounce_last(&mut b, 70.0);
        // A successful pass consumes the list inside the transaction …
        b.recompute_times_incremental().unwrap();
        assert!(b.dirty.is_empty());
        // … and the marks after it land at positions the pending entries held.
        bounce_last(&mut b, 90.0);
        b.push_hop(EdgeId(0), hop(0, 0, 1, 200.0, 205.0));
        b.rollback(txn);

        assert_eq!(b.dirty, pending);
        assert!(b.dirty_saved.is_empty());
        assert!(b.same_schedule_state(&reference));
        assert_next_pass_matches_the_oracle(&mut b);
    }

    #[test]
    fn outer_rollback_undoes_an_inner_commit_including_its_retiming() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        let pending = pending_dirt(&mut b);
        let reference = b.clone();

        let outer = b.begin_txn();
        b.push_hop(EdgeId(1), hop(0, 0, 1, 100.0, 105.0));
        let inner = b.begin_txn();
        b.clear_route(EdgeId(1));
        bounce_last(&mut b, 70.0);
        b.recompute_times_incremental().unwrap();
        bounce_last(&mut b, 90.0);
        b.commit(inner);
        b.push_hop(EdgeId(0), hop(0, 0, 1, 300.0, 305.0));
        b.rollback(outer);

        assert_eq!(b.dirty, pending);
        assert!(b.dirty_saved.is_empty());
        assert!(b.same_schedule_state(&reference));
        assert!(!b.in_txn());
        assert_next_pass_matches_the_oracle(&mut b);
    }

    #[test]
    fn after_rollback_mark_dirty_re_adds_removed_nodes_once_and_keeps_survivors_single() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        pending_dirt(&mut b);
        b.recompute_times_incremental().unwrap();
        // Stale stamps everywhere: T2 at 0, T1 at 1, T0 at 2.  Only T2 is pending now.
        bounce_last(&mut b, 70.0);
        let mut expected = vec![TaskId(2)];
        assert_eq!(b.dirty, expected);

        // Inside the transaction the re-timing pass empties the list, so T0 is pushed
        // again at position 0 (overwriting its stamp) and the hop's consumer T1 at 1.
        let txn = b.begin_txn();
        b.recompute_times_incremental().unwrap();
        b.mark_dirty(TaskId(0));
        b.push_hop(EdgeId(0), hop(0, 0, 1, 200.0, 205.0));
        assert_eq!(b.dirty, vec![TaskId(0), TaskId(1)]);
        b.rollback(txn);
        assert_eq!(b.dirty, expected);

        // Survivors are not duplicated, whatever their stamps went through …
        b.mark_dirty(TaskId(2));
        assert_eq!(b.dirty, expected);
        // … and the tasks the rollback removed come back exactly once: T0's stamp points
        // at T2, T1's past the end.
        for t in [TaskId(0), TaskId(0), TaskId(1), TaskId(1)] {
            b.mark_dirty(t);
        }
        expected.extend([TaskId(0), TaskId(1)]);
        assert_eq!(b.dirty, expected);
    }

    #[test]
    #[should_panic(expected = "LIFO")]
    fn out_of_order_commit_panics() {
        let g = chain_graph();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(3).unwrap());
        let mut b = ScheduleBuilder::new(&g, &sys).unwrap();
        let outer = b.begin_txn();
        let _inner = b.begin_txn();
        b.commit(outer);
    }
}
