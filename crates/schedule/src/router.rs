//! Table-driven message booking — the one routing code path shared by every
//! [`CommModel`] consumer.
//!
//! DLS and HEFT decide task placements one task at a time; whenever a task is placed on
//! a processor different from one of its predecessors, the message must travel along
//! the route chosen by the communication model's policy, occupying each link of the
//! route in turn.  [`route_message`] and [`data_available_time`] price such a route
//! against the builder's current link timelines; [`book_incoming`] routes and books
//! every incoming message of a task placed on a processor.  BSA's cost-aware full
//! reroute and `Solution::resolve_onto`'s repair use the same walk.
//!
//! Pricing borrows the builder read-only.  A table route is a simple path (the routing
//! table follows a deterministic next hop until it reaches the target), so no link
//! slot repeats along it and no hop of the route can contend with an earlier one: each
//! hop is one [`ScheduleBuilder::earliest_link_slot`] query after the previous hop's
//! finish.  The precondition is that the edge is unrouted, so its own old hops are not
//! on the timelines.  [`book_incoming`] is generic over [`Booking`]: on the builder it
//! commits, and on a [`Tentative`](crate::overlay::Tentative) view it prices a
//! candidate whose messages must see each other, or whose edge's own route must be
//! hidden, without touching the builder.  Booking is direction-aware through the same
//! query: on full-duplex links only same-direction traffic contends.

use crate::builder::ScheduleBuilder;
use crate::overlay::Booking;
use crate::schedule::MessageHop;
use bsa_network::{CommModel, ProcId};
use bsa_taskgraph::{EdgeId, TaskId};

/// Walks the route of edge `e` from `src_proc` to `dst_proc`, starting no earlier than
/// `ready`, against `book`'s link timelines, hands each hop to `on_hop` and returns the
/// arrival time.  The edge's own route must be absent from `book`'s timelines.
pub(crate) fn walk_route<'a, B: Booking<'a> + ?Sized>(
    book: &B,
    comm: &CommModel,
    e: EdgeId,
    src_proc: ProcId,
    dst_proc: ProcId,
    ready: f64,
    mut on_hop: impl FnMut(MessageHop),
) -> f64 {
    if src_proc == dst_proc {
        return ready;
    }
    let builder = book.committed();
    let links = comm
        .route(src_proc, dst_proc)
        .expect("communication model covers connected topologies");
    let mut cursor = ready;
    let mut at = src_proc;
    for &link in links {
        let to = builder
            .system()
            .topology
            .link(link)
            .other_end(at)
            .expect("route links are adjacent to the current processor");
        let dur = builder.transfer_time(link, e);
        let start = book.earliest_link_slot(link, at, cursor, dur);
        cursor = start + dur;
        on_hop(MessageHop {
            link,
            from: at,
            to,
            start,
            finish: cursor,
        });
        at = to;
    }
    cursor
}

/// Computes the hop schedule of sending the unrouted edge `e` from `src_proc` to
/// `dst_proc`, starting no earlier than `ready`, along the communication model's route
/// and against the builder's current link timelines.
///
/// Returns the hops (with concrete start/finish times) and the arrival time at
/// `dst_proc`.  When `src_proc == dst_proc` the result is an empty route arriving at
/// `ready`.  Book the hops with [`ScheduleBuilder::set_route`]; the gaps they use are
/// still free as long as nothing else is booked in between.
pub fn route_message(
    builder: &ScheduleBuilder<'_>,
    comm: &CommModel,
    e: EdgeId,
    src_proc: ProcId,
    dst_proc: ProcId,
    ready: f64,
) -> (Vec<MessageHop>, f64) {
    debug_assert!(builder.route(e).is_empty(), "priced edges must be unrouted");
    let mut hops = Vec::new();
    let arrival = walk_route(builder, comm, e, src_proc, dst_proc, ready, |hop| {
        hops.push(hop)
    });
    (hops, arrival)
}

/// Where the producer of edge `e` sits and when it finishes.
fn producer(builder: &ScheduleBuilder<'_>, e: EdgeId) -> (ProcId, f64) {
    let src = builder.graph().edge(e).src;
    let proc = builder
        .proc_of(src)
        .expect("predecessors must be scheduled before their successors");
    (proc, builder.finish_of(src))
}

/// Data-available time of task `t` on processor `p`: the latest arrival over all incoming
/// messages, each routed on its own from its producer's processor against the current
/// link timelines.  Allocates nothing.
///
/// Every predecessor of `t` must already be placed and every incoming edge unrouted.
pub fn data_available_time(
    builder: &ScheduleBuilder<'_>,
    comm: &CommModel,
    t: TaskId,
    p: ProcId,
) -> f64 {
    builder
        .graph()
        .in_edges(t)
        .iter()
        .map(|&e| {
            debug_assert!(builder.route(e).is_empty(), "priced edges must be unrouted");
            let (sp, ready) = producer(builder, e);
            walk_route(builder, comm, e, sp, p, ready, |_| {})
        })
        .fold(0.0, f64::max)
}

/// Routes every incoming message of task `t` toward processor `p` and books it with
/// [`Booking::book_route`], in in-edge order, so each message sees the ones booked
/// before it.  Returns the data-ready time of `t` on `p`.  On the builder this
/// commits; on a [`Tentative`](crate::overlay::Tentative) view it prices, and
/// allocates nothing once the view's buffers have grown.
///
/// Every predecessor of `t` must already be placed and every incoming edge unrouted.
pub fn book_incoming<'a, B: Booking<'a>>(
    book: &mut B,
    comm: &CommModel,
    t: TaskId,
    p: ProcId,
) -> f64 {
    let graph = book.committed().graph();
    let mut da = 0.0f64;
    for &e in graph.in_edges(t) {
        let (sp, ready) = producer(book.committed(), e);
        da = da.max(book.book_route(comm, e, sp, p, ready));
    }
    da
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::Overlay;
    use bsa_network::builders::ring;
    use bsa_network::{HeterogeneousSystem, RoutePolicy};
    use bsa_taskgraph::{TaskGraph, TaskGraphBuilder};

    fn pair() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task("A", 10.0);
        let c = b.add_task("B", 10.0);
        b.add_edge(a, c, 4.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn local_route_is_empty_and_arrives_at_ready() {
        let g = pair();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(4).unwrap());
        let builder = ScheduleBuilder::new(&g, &sys).unwrap();
        let comm = sys.comm_model(RoutePolicy::ShortestHop);
        let (hops, arrival) = route_message(&builder, &comm, EdgeId(0), ProcId(2), ProcId(2), 33.0);
        assert!(hops.is_empty());
        assert_eq!(arrival, 33.0);
    }

    #[test]
    fn multi_hop_route_is_store_and_forward() {
        let g = pair();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(4).unwrap());
        let builder = ScheduleBuilder::new(&g, &sys).unwrap();
        let comm = sys.comm_model(RoutePolicy::ShortestHop);
        // P0 -> P2 needs two hops on an otherwise empty 4-ring.
        let (hops, arrival) = route_message(&builder, &comm, EdgeId(0), ProcId(0), ProcId(2), 10.0);
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].start, 10.0);
        assert_eq!(hops[0].finish, 14.0);
        assert_eq!(hops[1].start, 14.0);
        assert_eq!(hops[1].finish, 18.0);
        assert_eq!(arrival, 18.0);
        assert_eq!(hops[0].from, ProcId(0));
        assert_eq!(hops[1].to, ProcId(2));
    }

    #[test]
    fn routing_respects_existing_link_traffic() {
        // Two edges so one can block the other.
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task("A", 10.0);
        let c = b.add_task("B", 10.0);
        let d = b.add_task("C", 10.0);
        b.add_edge(a, c, 4.0).unwrap();
        b.add_edge(a, d, 4.0).unwrap();
        let g = b.build().unwrap();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(4).unwrap());
        let mut builder = ScheduleBuilder::new(&g, &sys).unwrap();
        let comm = sys.comm_model(RoutePolicy::ShortestHop);
        // Occupy L(P0-P1) during [10, 30) with another edge's hop.
        let (hops, _) = route_message(&builder, &comm, EdgeId(1), ProcId(0), ProcId(1), 10.0);
        let mut blocking = hops.clone();
        blocking[0].finish = 30.0;
        builder.set_route(EdgeId(1), blocking);
        // A new tentative route at ready=10 must start at 30.
        let (hops2, arrival2) =
            route_message(&builder, &comm, EdgeId(0), ProcId(0), ProcId(1), 10.0);
        assert_eq!(hops2[0].start, 30.0);
        assert_eq!(arrival2, 34.0);
    }

    #[test]
    fn rerouting_an_edge_does_not_contend_with_its_own_old_booking() {
        let g = pair();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(4).unwrap());
        let mut builder = ScheduleBuilder::new(&g, &sys).unwrap();
        let comm = sys.comm_model(RoutePolicy::ShortestHop);
        let (hops, _) = route_message(&builder, &comm, EdgeId(0), ProcId(0), ProcId(1), 10.0);
        builder.set_route(EdgeId(0), hops.clone());
        let link = hops[0].link;
        assert_eq!(builder.earliest_link_slot(link, ProcId(0), 10.0, 4.0), 14.0);
        // Priced on a tentative view, the re-route masks the edge's own booking and
        // sees the link free where its hops sit …
        let mut overlay = Overlay::default();
        let mut view = overlay.over(&builder);
        assert_eq!(
            view.price_route(&comm, EdgeId(0), ProcId(0), ProcId(1), 10.0),
            14.0
        );
        // … pricing alone leaves the old hops in the way …
        assert_eq!(view.earliest_link_slot(link, ProcId(0), 10.0, 4.0), 14.0);
        // … and booking the re-route replaces them: only the new hop occupies the link.
        assert_eq!(
            view.book_route(&comm, EdgeId(0), ProcId(0), ProcId(1), 10.0),
            14.0
        );
        assert_eq!(view.earliest_link_slot(link, ProcId(0), 10.0, 4.0), 14.0);
        // The committed booking is untouched.
        assert_eq!(builder.route(EdgeId(0)), &hops[..]);
        assert_eq!(builder.link_timeline(link).len(), 1);
    }

    #[test]
    fn data_available_time_takes_the_slowest_message() {
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task("A", 10.0);
        let c = b.add_task("B", 20.0);
        let d = b.add_task("C", 10.0);
        b.add_edge(a, d, 4.0).unwrap();
        b.add_edge(c, d, 4.0).unwrap();
        let g = b.build().unwrap();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(4).unwrap());
        let mut builder = ScheduleBuilder::new(&g, &sys).unwrap();
        let comm = sys.comm_model(RoutePolicy::ShortestHop);
        builder.place_task(TaskId(0), ProcId(0), 0.0); // finishes 10
        builder.place_task(TaskId(1), ProcId(1), 0.0); // finishes 20

        // On P1: A's message crosses one link (arrives 14), B is local (20) -> DA = 20.
        assert_eq!(
            data_available_time(&builder, &comm, TaskId(2), ProcId(1)),
            20.0
        );
        // On P3 (adjacent to P0): A arrives 14, B needs two hops from P1 and arrives 28.
        assert_eq!(
            data_available_time(&builder, &comm, TaskId(2), ProcId(3)),
            28.0
        );
    }

    #[test]
    fn booking_routes_messages_in_in_edge_order_so_later_ones_queue() {
        // A (P0, finishes 10) and B (P0, finishes 12) both send 8 units to D.
        let mut b = TaskGraphBuilder::new();
        let a = b.add_task("A", 10.0);
        let c = b.add_task("B", 2.0);
        let d = b.add_task("D", 10.0);
        b.add_edge(a, d, 8.0).unwrap();
        b.add_edge(c, d, 8.0).unwrap();
        let g = b.build().unwrap();
        let sys = HeterogeneousSystem::homogeneous(&g, ring(4).unwrap());
        let mut builder = ScheduleBuilder::new(&g, &sys).unwrap();
        let comm = sys.comm_model(RoutePolicy::ShortestHop);
        builder.place_task(a, ProcId(0), 0.0);
        builder.place_task(c, ProcId(0), 10.0);

        // Priced one by one, A's message arrives at 18 and B's at 20.
        assert_eq!(data_available_time(&builder, &comm, d, ProcId(1)), 20.0);
        // Booked in in-edge order, B's message waits for A's on the shared link.
        assert_eq!(book_incoming(&mut builder, &comm, d, ProcId(1)), 26.0);
        assert_eq!(builder.route(EdgeId(0))[0].start, 10.0);
        assert_eq!(builder.route(EdgeId(1))[0].start, 18.0);
        assert_eq!(
            builder
                .link_timeline(builder.route(EdgeId(0))[0].link)
                .len(),
            2
        );
    }

    #[test]
    fn cost_aware_routes_take_the_fast_detour() {
        // 4-ring with one 100x link: the min-transfer route P0 -> P1 goes the long way
        // around (3 hops), and the booking helper follows it hop by hop.
        let g = pair();
        let topo = ring(4).unwrap();
        let slow = topo.link_between(ProcId(0), ProcId(1)).unwrap();
        let mut factors = vec![1.0; 4];
        factors[slow.index()] = 100.0;
        let exec = bsa_network::ExecutionCostMatrix::homogeneous(&g, 4);
        let comm_costs = bsa_network::CommCostModel::from_factors(factors);
        let sys = HeterogeneousSystem::new(topo, exec, comm_costs);
        let builder = ScheduleBuilder::new(&g, &sys).unwrap();

        let hop_table = sys.comm_model(RoutePolicy::ShortestHop);
        let (hops, arrival) =
            route_message(&builder, &hop_table, EdgeId(0), ProcId(0), ProcId(1), 0.0);
        assert_eq!(hops.len(), 1);
        assert_eq!(arrival, 400.0); // 4.0 nominal × factor 100

        let cost_table = sys.comm_model(RoutePolicy::MinTransferTime);
        let (hops, arrival) =
            route_message(&builder, &cost_table, EdgeId(0), ProcId(0), ProcId(1), 0.0);
        assert_eq!(hops.len(), 3);
        assert_eq!(arrival, 12.0); // three fast hops, store-and-forward
        assert_eq!(hops[0].from, ProcId(0));
        assert_eq!(hops[2].to, ProcId(1));
    }
}
