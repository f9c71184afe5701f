//! Steady-state allocation audit of the incremental re-timing sweep.
//!
//! The flat sweep runs on persistent scaffolding (`clear()`-reused arenas — DESIGN.md
//! §7.5), so once a run's arenas reach their high-water capacity,
//! `recompute_times_incremental` must not touch the heap at all.  This test pins that
//! down with a counting global allocator: after a warm-up storm, every further pass —
//! after task moves, re-routed messages and bulk dirt — must report **zero**
//! allocations and zero frees.  So must a one-task checkpoint into a reused
//! `TaskCheckpoint` (BSA takes one before every migration it accepts), pricing a task's
//! incoming messages on every processor with `router::data_available_time` (the way DLS
//! and HEFT-CA price candidates), and the two read-only pricings on a tentative view:
//! BSA's neighbour pricing (`estimate_finish_on_neighbor`) and the warm re-solve's
//! repair pricing (`resolve::price_repair`).  Restoring a checkpoint may allocate: it
//! re-books routes, and it runs only when a migration fails to re-time.
//!
//! The file deliberately contains a single `#[test]`: the counter is process-global
//! (gated to the test thread via a thread-local flag), and a sibling test opting into
//! counting on another thread would pollute the window.

use bsa::core::bsa::{estimate_finish_on_neighbor, MigrationScratch};
use bsa::core::BsaConfig;
use bsa::network::builders::ring;
use bsa::network::{HeterogeneousSystem, LinkId, ProcId, RoutePolicy};
use bsa::schedule::overlay::Overlay;
use bsa::schedule::resolve::price_repair;
use bsa::schedule::router::{book_incoming, data_available_time};
use bsa::schedule::schedule::MessageHop;
use bsa::schedule::{ScheduleBuilder, TaskCheckpoint};
use bsa::taskgraph::{EdgeId, TaskGraphBuilder, TaskId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocator entry point; forwards to the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Restricts counting to the test thread.  The libtest harness's main thread
    /// blocks on its completion channel concurrently with the test body and lazily
    /// allocates its parking context at an unpredictable instant — without this
    /// filter those one-time harness allocations land inside an audit window
    /// nondeterministically.  `const`-initialized, so reading it never allocates.
    static COUNTED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn on_counted_thread() -> bool {
    COUNTED.try_with(std::cell::Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if on_counted_thread() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if on_counted_thread() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if on_counted_thread() {
            FREES.fetch_add(1, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn heap_events() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        FREES.load(Ordering::Relaxed),
    )
}

#[test]
fn steady_state_incremental_retiming_does_not_allocate() {
    COUNTED.with(|c| c.set(true));
    // 100 tasks: two independent 49-task chains pinned to P0/P1 and a routed producer/
    // consumer pair, so passes cover processor order, local messages, and link hops.
    let mut gb = TaskGraphBuilder::new();
    let producer = gb.add_task("producer", 8.0);
    let consumer = gb.add_task("consumer", 8.0);
    gb.add_edge(producer, consumer, 4.0).unwrap();
    let mut chain_heads = Vec::new();
    for c in 0..2 {
        let mut prev = gb.add_task(format!("c{c}_0"), 10.0);
        chain_heads.push(prev);
        for i in 1..49 {
            let t = gb.add_task(format!("c{c}_{i}"), 10.0);
            gb.add_edge(prev, t, 1.0).unwrap();
            prev = t;
        }
    }
    let graph = gb.build().unwrap();
    let system = HeterogeneousSystem::homogeneous(&graph, ring(2).unwrap());
    let mut b = ScheduleBuilder::new(&graph, &system).unwrap();

    // Producer on P0, consumer on P1 over link 0; chain c on processor c.
    b.place_task(producer, ProcId(0), 0.0);
    b.place_task(consumer, ProcId(1), 20.0);
    b.set_route(
        EdgeId(0),
        vec![MessageHop {
            link: LinkId(0),
            from: ProcId(0),
            to: ProcId(1),
            start: 8.0,
            finish: 12.0,
        }],
    );
    let mut starts = [100.0, 100.0];
    for t in graph.task_ids().skip(2).take(98) {
        let p = usize::from(t >= TaskId(51));
        b.place_task(t, ProcId(p as u32), starts[p]);
        starts[p] = b.finish_of(t);
    }

    // Checkpoints into one reused `TaskCheckpoint`, taken while the placements above
    // are still waiting for their first re-timing: a chain task with two local
    // messages, the producer and the consumer of the routed one.  A checkpoint copies
    // only the task's own routes and the dirty list's length, never the list.
    let mut cp = TaskCheckpoint::default();
    let checkpoints = |b: &ScheduleBuilder<'_>, cp: &mut TaskCheckpoint| {
        for t in [TaskId(30), producer, consumer] {
            b.checkpoint_task(t, cp);
        }
    };
    checkpoints(&b, &mut cp);
    let before = heap_events();
    for _ in 0..10 {
        checkpoints(&b, &mut cp);
    }
    let after = heap_events();
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, 0),
        "a checkpoint into a reused TaskCheckpoint allocated in steady state"
    );

    // Table-route pricing over every processor, DLS and HEFT-CA's candidate loop: the
    // second task of chain 0 has one unrouted incoming message, local on P0 and one hop
    // over the busy link 0 to P1.
    let comm = system.comm_model(RoutePolicy::ShortestHop);
    let priced = TaskId(3);
    let price = |b: &ScheduleBuilder<'_>| {
        system
            .topology
            .proc_ids()
            .map(|p| data_available_time(b, &comm, priced, p))
            .fold(0.0, f64::max)
    };
    price(&b);
    let before = heap_events();
    let da = price(&b);
    let after = heap_events();
    assert!(da > b.finish_of(TaskId(2)), "P1 must need the link hop");
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, 0),
        "pricing incoming messages allocated"
    );

    b.recompute_times_incremental().unwrap();

    // BSA's neighbour pricing and the warm re-solve's repair pricing, read-only on a
    // reused tentative view.  A fan-in on a 4-ring: the sink sits on P0 with producers
    // on P0, P1 and P3, so pricing its migration to P1 or P3 masks the routes that turn
    // local, queues tentative hops on the joining link and, with cost-aware reroutes,
    // prices a two-hop table route with the message's own hop hidden.  The unplaced
    // tail is priced as a repair on every processor.
    let mut fan = TaskGraphBuilder::new();
    let sources: Vec<TaskId> = (0..6)
        .map(|i| fan.add_task(format!("s{i}"), 5.0 + i as f64))
        .collect();
    let sink = fan.add_task("sink", 10.0);
    let tail = fan.add_task("tail", 3.0);
    for &src in &sources {
        fan.add_edge(src, sink, 4.0).unwrap();
    }
    fan.add_edge(sink, tail, 2.0).unwrap();
    let fan = fan.build().unwrap();
    let ring4 = HeterogeneousSystem::homogeneous(&fan, ring(4).unwrap());
    let table = ring4.comm_model(RoutePolicy::ShortestHop);
    let mut fb = ScheduleBuilder::new(&fan, &ring4).unwrap();
    for (i, &src) in sources.iter().enumerate() {
        let p = ProcId([0, 1, 3][i % 3]);
        let start = fb.earliest_proc_slot(p, 0.0, fb.exec_cost(src, p));
        fb.place_task(src, p, start);
    }
    let ready = book_incoming(&mut fb, &table, sink, ProcId(0));
    let start = fb.earliest_proc_slot(ProcId(0), ready, fb.exec_cost(sink, ProcId(0)));
    fb.place_task(sink, ProcId(0), start);
    let cfg = BsaConfig::default();
    let mut scratch = MigrationScratch::default();
    let mut overlay = Overlay::default();
    let mut price_candidates = || {
        let mut acc = 0.0;
        for &(py, _) in ring4.topology.neighbors(ProcId(0)) {
            for reroutes in [None, Some(&table)] {
                acc += estimate_finish_on_neighbor(
                    &fb,
                    sink,
                    ProcId(0),
                    py,
                    &cfg,
                    reroutes,
                    &mut scratch,
                );
            }
        }
        for p in ring4.topology.proc_ids() {
            acc += price_repair(&fb, &mut overlay, &table, tail, p);
        }
        acc
    };
    let warm = price_candidates();
    let before = heap_events();
    let priced = price_candidates();
    let after = heap_events();
    assert_eq!(priced, warm);
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, 0),
        "neighbour or repair pricing allocated in steady state"
    );

    // One "migration-shaped" iteration: bounce the *last* task of chain 0 (no
    // successors, so the reorder stays acyclic) to a far-future slot, re-book the
    // producer's message later on link 0 (a hop -> consumer cascade), and re-time once.
    // Same shape every time, so capacity high-water marks stop moving after the
    // warm-up.
    let victim = TaskId(50);
    let iteration = |b: &mut ScheduleBuilder<'_>, audit: bool| {
        let p = b.proc_of(victim).unwrap();
        b.unplace_task(victim);
        let exec = b.exec_cost(victim, p);
        let start = b.earliest_proc_slot(p, 1e7, exec);
        b.place_task(victim, p, start);
        let hop_start = b.link_timeline(LinkId(0)).last_finish() + 50.0;
        b.set_route(
            EdgeId(0),
            vec![MessageHop {
                link: LinkId(0),
                from: ProcId(0),
                to: ProcId(1),
                start: hop_start,
                finish: hop_start + 4.0,
            }],
        );
        let before = heap_events();
        let stats = b.recompute_times_incremental().unwrap();
        let after = heap_events();
        if audit {
            assert!(
                stats.seed_nodes >= 2,
                "the pass re-times the victim and the hop's consumer"
            );
            assert_eq!(
                (after.0 - before.0, after.1 - before.1),
                (0, 0),
                "incremental re-timing allocated in steady state"
            );
        }
    };

    // Steady-state *resolve*: the warm-start repair kernel is exactly
    // evict → re-place → re-book → `recompute_times_incremental` on a persistent
    // builder, so repeated small deltas must reuse the same scaffolding.  The audit
    // window again brackets only the re-timing pass — booking goes through route
    // vectors, whose `vec![...]` literals allocate by design.
    let resolve_shaped = |b: &mut ScheduleBuilder<'_>, audit: bool| {
        let p = b.proc_of(consumer).unwrap();
        b.evict_task(consumer);
        let exec = b.exec_cost(consumer, p);
        let ready = b.link_timeline(LinkId(0)).last_finish() + 25.0;
        b.set_route(
            EdgeId(0),
            vec![MessageHop {
                link: LinkId(0),
                from: ProcId(0),
                to: ProcId(1),
                start: ready - 4.0,
                finish: ready,
            }],
        );
        let start = b.earliest_proc_slot(p, ready, exec);
        b.place_task(consumer, p, start);
        let before = heap_events();
        let stats = b.recompute_times_incremental().unwrap();
        let after = heap_events();
        if audit {
            assert!(stats.seed_nodes > 0, "the repair must leave dirty tasks");
            assert_eq!(
                (after.0 - before.0, after.1 - before.1),
                (0, 0),
                "steady-state resolve re-timing allocated"
            );
        }
    };

    // Steady-state *bulk* pass: bouncing both chains in place marks nearly every node
    // dirty, the shape of a freshly built or freshly repaired schedule.  The audit
    // window again brackets only the re-timing call.
    let bulk_shaped = |b: &mut ScheduleBuilder<'_>, audit: bool| {
        for t in graph.task_ids().skip(2).take(98) {
            let p = b.proc_of(t).unwrap();
            let start = b.start_of(t);
            b.unplace_task(t);
            b.place_task(t, p, start);
        }
        let before = heap_events();
        let stats = b.recompute_times_incremental().unwrap();
        let after = heap_events();
        if audit {
            assert!(stats.seed_nodes >= 98, "the bounce must dirty both chains");
            assert_eq!(
                (after.0 - before.0, after.1 - before.1),
                (0, 0),
                "bulk incremental re-timing allocated in steady state"
            );
        }
    };

    // Each shape warms up, then is audited; the release-build observable counter must
    // agree that no arena grew after warm-up.
    for shape in 0..3 {
        let shape = |b: &mut ScheduleBuilder<'_>, audit| match shape {
            0 => iteration(b, audit),
            1 => resolve_shaped(b, audit),
            _ => bulk_shaped(b, audit),
        };
        for _ in 0..5 {
            shape(&mut b, false);
        }
        let grown_before = b.scaffold_realloc_events();
        for _ in 0..10 {
            shape(&mut b, true);
        }
        assert_eq!(
            b.scaffold_realloc_events(),
            grown_before,
            "passes grew an arena after warm-up"
        );
        assert!(b.scaffold_matches_rebuild());
    }
}
