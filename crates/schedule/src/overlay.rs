//! Tentative bookings: price a candidate's message bookings read-only.
//!
//! BSA prices a candidate migration, and the warm re-solve a candidate repair, by the
//! finish time the task would get if its incoming messages were booked hop by hop.
//! Those bookings must see each other (two messages of one task queue on a shared
//! link), and a message re-routed by the candidate must not contend with its own old
//! hops.  A [`Tentative`] view answers exactly those questions over a borrowed
//! `&ScheduleBuilder`: it keeps, per *link slot* it touches (one link's timeline, or
//! one direction of a full-duplex link),
//!
//! * the windows the candidate booked so far, in the order successive
//!   [`Timeline::insert`](crate::timeline::Timeline::insert) calls would leave them, and
//! * the timeline positions of *masked* hops — the hops of every edge whose committed
//!   route the candidate clears or replaces, each found once with `position_at`,
//!
//! and answers gap queries with
//! [`Timeline::earliest_gap_masked`](crate::timeline::Timeline::earliest_gap_masked),
//! bit-identical to mutating the timeline and querying it.  Nothing is written to the
//! builder, so pricing needs nothing undone afterwards, and it leaves the timelines'
//! gap indexes warm.
//!
//! The [`Booking`] trait is what pricing and committing share: the builder implements
//! it to commit, the view to price.  [`crate::router::book_incoming`] and BSA's
//! migration are written once against it, so the estimate a candidate is chosen by is
//! the booking it gets.  The buffers live in an [`Overlay`] the caller keeps across
//! candidates, so steady-state pricing allocates nothing.

use crate::builder::ScheduleBuilder;
use crate::router::{route_message, walk_route};
use crate::schedule::MessageHop;
use crate::timeline::fits_before;
use bsa_network::{CommModel, LinkId, ProcId};
use bsa_taskgraph::{EdgeId, TaskId};

/// The booking steps of a candidate migration or repair.  [`ScheduleBuilder`]
/// commits them; [`Tentative`] prices them.
///
/// A candidate changes the route of each of its edges at most once (clearing or
/// replacing it, or extending it with [`Booking::push_hop`]), and it reads an edge's
/// committed route only before changing it.  Its last step is [`Booking::place`].
pub trait Booking<'a> {
    /// The committed schedule the bookings apply to.  Read-only.
    fn committed(&self) -> &ScheduleBuilder<'a>;

    /// [`ScheduleBuilder::earliest_link_slot`] as if every booking so far were made.
    fn earliest_link_slot(&self, link: LinkId, from: ProcId, ready: f64, duration: f64) -> f64;

    /// Removes the route of `e`, making the message local.
    fn clear_route(&mut self, e: EdgeId);

    /// Appends `hop` to the route of `e`.
    fn push_hop(&mut self, e: EdgeId, hop: MessageHop);

    /// Places the unplaced or migrating task `t` on `p` at `start` and returns its
    /// finish.  A [`Tentative`] view books no processor time: placing is a
    /// candidate's last step.
    fn place(&mut self, t: TaskId, p: ProcId, start: f64) -> f64;

    /// The arrival of edge `e` sent from `src` to `dst` along `comm`'s table route,
    /// starting no earlier than `ready`, with the edge's own committed route hidden.
    /// Books nothing.
    fn price_route(
        &mut self,
        comm: &CommModel,
        e: EdgeId,
        src: ProcId,
        dst: ProcId,
        ready: f64,
    ) -> f64;

    /// Replaces the route of `e` with `comm`'s table route from `src` to `dst`,
    /// starting no earlier than `ready`, and returns the arrival: the hops and arrival
    /// [`Booking::price_route`] priced.
    fn book_route(
        &mut self,
        comm: &CommModel,
        e: EdgeId,
        src: ProcId,
        dst: ProcId,
        ready: f64,
    ) -> f64;
}

impl<'a> Booking<'a> for ScheduleBuilder<'a> {
    fn committed(&self) -> &ScheduleBuilder<'a> {
        self
    }

    fn earliest_link_slot(&self, link: LinkId, from: ProcId, ready: f64, duration: f64) -> f64 {
        ScheduleBuilder::earliest_link_slot(self, link, from, ready, duration)
    }

    fn clear_route(&mut self, e: EdgeId) {
        ScheduleBuilder::clear_route(self, e);
    }

    fn push_hop(&mut self, e: EdgeId, hop: MessageHop) {
        ScheduleBuilder::push_hop(self, e, hop);
    }

    fn place(&mut self, t: TaskId, p: ProcId, start: f64) -> f64 {
        self.place_task(t, p, start);
        self.finish_of(t)
    }

    /// Prices on a throwaway overlay: committing allocates anyway (the booked routes).
    fn price_route(
        &mut self,
        comm: &CommModel,
        e: EdgeId,
        src: ProcId,
        dst: ProcId,
        ready: f64,
    ) -> f64 {
        Overlay::default()
            .over(self)
            .price_route(comm, e, src, dst, ready)
    }

    fn book_route(
        &mut self,
        comm: &CommModel,
        e: EdgeId,
        src: ProcId,
        dst: ProcId,
        ready: f64,
    ) -> f64 {
        ScheduleBuilder::clear_route(self, e);
        let (hops, arrival) = route_message(self, comm, e, src, dst, ready);
        self.set_route(e, hops);
        arrival
    }
}

/// The tentative state of one link slot.
#[derive(Debug, Clone, Default)]
struct SlotOverlay {
    /// The link slot (see [`ScheduleBuilder::link_slot`]).
    slot: usize,
    /// `(start, finish)` windows booked on the slot, in insertion order.
    windows: Vec<(f64, f64)>,
    /// Timeline positions of masked hops, increasing.
    masked: Vec<usize>,
}

/// Reusable buffers of [`Tentative`] views.  Keep one across candidates:
/// [`Overlay::over`] empties it without freeing, so steady-state pricing allocates
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct Overlay {
    /// Per link slot, 1 + its index in `slots`; 0 when untouched.
    slot_of: Vec<u32>,
    /// Touched slots first; entries past `used` keep their buffers for reuse.
    slots: Vec<SlotOverlay>,
    used: usize,
    /// Routed edges whose committed hops are masked.
    masked_edges: Vec<EdgeId>,
    /// Scratch for the hops of a table route being booked.
    hops: Vec<MessageHop>,
}

impl Overlay {
    /// An empty tentative view over `base`, reusing these buffers.
    pub fn over<'v, 'a>(&'v mut self, base: &'v ScheduleBuilder<'a>) -> Tentative<'v, 'a> {
        for s in &mut self.slots[..self.used] {
            self.slot_of[s.slot] = 0;
            s.windows.clear();
            s.masked.clear();
        }
        self.used = 0;
        self.masked_edges.clear();
        let slots = base.link_timelines.len();
        if self.slot_of.len() < slots {
            self.slot_of.resize(slots, 0);
        }
        Tentative { base, ov: self }
    }
}

/// A candidate's bookings over a borrowed builder (see the module documentation).
/// Created by [`Overlay::over`]; implements [`Booking`] to price.
#[derive(Debug)]
pub struct Tentative<'v, 'a> {
    base: &'v ScheduleBuilder<'a>,
    ov: &'v mut Overlay,
}

impl Tentative<'_, '_> {
    /// The tentative state of link slot `slot`, created empty on first touch.
    fn slot_mut(&mut self, slot: usize) -> &mut SlotOverlay {
        let ov = &mut *self.ov;
        let i = match ov.slot_of[slot] {
            0 => {
                if ov.used == ov.slots.len() {
                    ov.slots.push(SlotOverlay::default());
                }
                ov.slots[ov.used].slot = slot;
                ov.used += 1;
                ov.slot_of[slot] = ov.used as u32;
                ov.used - 1
            }
            i => i as usize - 1,
        };
        &mut ov.slots[i]
    }

    /// Hides (or, with `hide == false`, shows again) the committed hops of `e`.  An
    /// unrouted edge has nothing to hide and is not tracked.
    fn set_masked(&mut self, e: EdgeId, hide: bool) {
        let base = self.base;
        if base.route(e).is_empty() {
            return;
        }
        for (k, hop) in base.route(e).iter().enumerate() {
            let slot = base.link_slot(hop.link, hop.from);
            let pos = base.link_timelines[slot]
                .position_at(hop.start, |pl| pl == (e, k as u32))
                .expect("routed hop is on its link's timeline");
            let masked = &mut self.slot_mut(slot).masked;
            let at = masked.partition_point(|&m| m < pos);
            if hide {
                masked.insert(at, pos);
            } else {
                masked.remove(at);
            }
        }
        if hide {
            self.ov.masked_edges.push(e);
        } else {
            self.ov.masked_edges.retain(|&m| m != e);
        }
    }

    /// Whether the committed hops of `e` are hidden.
    fn is_masked(&self, e: EdgeId) -> bool {
        self.ov.masked_edges.contains(&e)
    }
}

impl<'a> Booking<'a> for Tentative<'_, 'a> {
    fn committed(&self) -> &ScheduleBuilder<'a> {
        self.base
    }

    fn earliest_link_slot(&self, link: LinkId, from: ProcId, ready: f64, duration: f64) -> f64 {
        let slot = self.base.link_slot(link, from);
        let timeline = &self.base.link_timelines[slot];
        match self.ov.slot_of[slot] {
            0 => timeline.earliest_gap(ready, duration),
            i => {
                let s = &self.ov.slots[i as usize - 1];
                timeline.earliest_gap_masked(ready, duration, &s.windows, &s.masked)
            }
        }
    }

    fn clear_route(&mut self, e: EdgeId) {
        if !self.is_masked(e) {
            self.set_masked(e, true);
        }
    }

    fn push_hop(&mut self, _e: EdgeId, hop: MessageHop) {
        let slot = self.base.link_slot(hop.link, hop.from);
        let windows = &mut self.slot_mut(slot).windows;
        // Where `Timeline::insert` would put it, with the finish it would store.
        let finish = hop.start + (hop.finish - hop.start);
        let at = windows.partition_point(|w| !fits_before(finish, w.0));
        windows.insert(at, (hop.start, finish));
    }

    fn place(&mut self, t: TaskId, p: ProcId, start: f64) -> f64 {
        start + self.base.exec_cost(t, p)
    }

    fn price_route(
        &mut self,
        comm: &CommModel,
        e: EdgeId,
        src: ProcId,
        dst: ProcId,
        ready: f64,
    ) -> f64 {
        let hide = !self.is_masked(e);
        if hide {
            self.set_masked(e, true);
        }
        let arrival = walk_route(&*self, comm, e, src, dst, ready, |_| {});
        if hide {
            self.set_masked(e, false);
        }
        arrival
    }

    fn book_route(
        &mut self,
        comm: &CommModel,
        e: EdgeId,
        src: ProcId,
        dst: ProcId,
        ready: f64,
    ) -> f64 {
        self.clear_route(e);
        // A table route is a simple path: no slot repeats, so booking its hops after
        // the walk prices each exactly as booking them one by one would.
        let mut hops = std::mem::take(&mut self.ov.hops);
        hops.clear();
        let arrival = walk_route(&*self, comm, e, src, dst, ready, |hop| hops.push(hop));
        for &hop in &hops {
            self.push_hop(e, hop);
        }
        self.ov.hops = hops;
        arrival
    }
}
