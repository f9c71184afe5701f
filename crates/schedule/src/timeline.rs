//! A generic busy-interval timeline with earliest-gap ("insertion") search.
//!
//! Both processor timelines (busy with task executions) and link timelines (busy with
//! message transmissions) are instances of this structure.  Intervals are kept sorted by
//! start time and are non-overlapping; the search primitives are the ones every
//! insertion-based list scheduler needs:
//!
//! * [`Timeline::earliest_gap`] — the earliest start ≥ `ready` at which an item of length
//!   `duration` fits without moving anything else;
//! * [`Timeline::earliest_append`] — the earliest start ≥ max(`ready`, end of last busy
//!   interval), i.e. non-insertion scheduling.
//!
//! The sorted-by-start invariant makes every positional operation a
//! `partition_point` binary search (see DESIGN.md §7.3): [`Timeline::earliest_gap`]
//! skips all intervals that end before `ready`, [`Timeline::position_at`] finds the
//! interval holding a known payload in O(log n), and [`Timeline::remove_at`] /
//! [`Timeline::remove_index`] delete it without a scan.  Callers that know an
//! interval's start time (schedulers always do — they booked it) should prefer these
//! over the linear [`Timeline::remove_where`] escape hatch.
//!
//! # The chunked gap index
//!
//! On timelines with thousands of busy slots the residual linear scan of
//! [`Timeline::earliest_gap`] — from the first interval still alive at `ready` to the
//! first gap that fits — dominates the pricing loops of the migration phase
//! (DESIGN.md §14).  The timeline therefore keeps a lazily maintained summary of each
//! chunk of `CHUNK` consecutive intervals:
//!
//! * `pmax` — the maximum finish instant inside the chunk, and
//! * `room` — the largest gap *inside* the chunk, `start[i] − max(finish[j] : j < i)`
//!   over the chunk's intervals after its first (`−∞` for a one-interval chunk).
//!
//! A gap query walks chunk summaries instead of intervals.  With running candidate
//! `c`, a fit before the chunk's first interval needs `first_start − c ≥ duration`,
//! and a fit before any later one needs both `last_start − c` and `room` to reach
//! `duration`.  A chunk whose bound `max(first_start − c, min(last_start − c, room))`
//! falls short of the duration by more than a floating-point safety margin provably
//! holds no fit: it is skipped in O(1), folding its `pmax` into the candidate.  Every
//! other chunk is scanned interval by interval with the exact scalar rule, so the
//! result is identical to the plain scan — the margin errs toward scanning, never
//! toward skipping a fit.  Past the chunk where the walk starts, the candidate sits
//! at or before each chunk's first start (up to `TIME_EPS`), so the bound is tight:
//! a query reads its first (partial) chunk and the chunk holding its fit, plus one
//! summary per chunk in between.  The walk itself stays linear in the number of
//! chunks it crosses.
//!
//! Mutations stay cheap.  An insert or remove shifts every later interval, so it marks
//! the summaries from its chunk to the highest one built stale; a window rewrite
//! ([`Timeline::set_window`]) marks only its own chunk stale.  A query rebuilds a
//! stale summary when its walk reaches that chunk, so chunks past the fit are never
//! rebuilt on its behalf.  The summaries live behind a `RefCell` because queries take
//! `&self`; the timeline as a whole stays `Send`, which is all the parallel solver's
//! mirror builders require.  Summaries are pure caches: equality ([`PartialEq`])
//! compares intervals only, so builders that took different mutation paths to the
//! same schedule still compare equal.
//!
//! [`Timeline::earliest_gap_masked`] asks the same question of the timeline as a
//! tentative booking would leave it — some intervals masked, some windows added —
//! without mutating it, on the same walk: a chunk holding a masked position or
//! receiving a window is scanned, every other chunk may still be skipped.  Pricing a
//! candidate therefore leaves every summary valid.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::ops::ControlFlow;

/// Numerical slack used when comparing schedule instants.
pub const TIME_EPS: f64 = 1e-9;

/// Intervals per chunk of the gap index.
const CHUNK: usize = 32;

/// Below this many intervals a gap query runs the plain scalar scan: two chunks'
/// worth of summaries cannot beat a scan that short.
const CHUNK_MIN_LEN: usize = 2 * CHUNK;

/// One busy interval tagged with a caller-chosen payload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval<P> {
    /// Start of the busy interval.
    pub start: f64,
    /// End of the busy interval.
    pub finish: f64,
    /// Caller payload (task id, message hop, …).
    pub payload: P,
}

/// The summary of one chunk of the gap index (see the module documentation).
#[derive(Debug, Clone, Copy)]
struct ChunkSummary {
    /// Maximum finish instant inside the chunk.
    pmax: f64,
    /// Largest gap inside the chunk: `start − (latest finish before it in the chunk)`
    /// over the intervals after the first (`−∞` for a one-interval chunk).
    room: f64,
}

impl ChunkSummary {
    fn of<P>(chunk: &[Interval<P>]) -> Self {
        let mut pmax = chunk[0].finish;
        let mut room = f64::NEG_INFINITY;
        for iv in &chunk[1..] {
            if iv.start - pmax > room {
                room = iv.start - pmax;
            }
            if iv.finish > pmax {
                pmax = iv.finish;
            }
        }
        ChunkSummary { pmax, room }
    }
}

/// Lazily maintained per-chunk summaries for [`Timeline::earliest_gap`] (see the
/// module documentation).  A pure cache — never part of timeline equality.
#[derive(Debug, Clone, Default)]
struct GapIndex {
    /// Per-chunk summary; `None` marks a stale chunk, rebuilt when a query reaches it.
    chunks: Vec<Option<ChunkSummary>>,
    /// Every entry at or past `built_end` is `None`, so invalidations stop there.
    built_end: usize,
}

impl GapIndex {
    /// Marks chunk `k` and every later chunk stale.
    fn invalidate_from(&mut self, k: usize) {
        if k < self.built_end {
            self.chunks[k..self.built_end].fill(None);
            self.built_end = k;
        }
    }

    /// The summary of chunk `k` (whose intervals are `chunk`), rebuilt if stale.
    fn summary<P>(&mut self, k: usize, chunk: &[Interval<P>]) -> ChunkSummary {
        if let Some(summary) = self.chunks[k] {
            return summary;
        }
        #[cfg(test)]
        probe::rebuilt(k);
        let summary = ChunkSummary::of(chunk);
        self.chunks[k] = Some(summary);
        self.built_end = self.built_end.max(k + 1);
        summary
    }
}

/// Whether an item ending at `finish` fits before a busy window starting at `start`:
/// the test of the scalar gap rule.  [`Timeline::insert`] puts an interval before the
/// first interval it fits before, which is where a gap search that returned its start
/// stopped, and tentative windows land by the same test.
#[inline]
pub(crate) fn fits_before(finish: f64, start: f64) -> bool {
    finish <= start + TIME_EPS
}

/// The scalar gap rule for one busy window `[start, finish)` met by a scan at
/// `candidate`: `Break` if the item fits entirely before the window, otherwise
/// `Continue` with the candidate pushed past it.
#[inline]
fn step(candidate: f64, duration: f64, start: f64, finish: f64) -> ControlFlow<f64, f64> {
    if fits_before(candidate + duration, start) {
        ControlFlow::Break(candidate)
    } else if finish > candidate {
        ControlFlow::Continue(finish)
    } else {
        ControlFlow::Continue(candidate)
    }
}

/// The overlay side of [`Timeline::earliest_gap_masked`]'s walk: the windows not yet
/// merged and the masked positions not yet passed.
struct Overlaid<'q> {
    extra: &'q [(f64, f64)],
    masked: &'q [usize],
}

impl Overlaid<'_> {
    /// Merges every window that lands before an interval starting at `start`, with the
    /// scalar rule.  `Timeline::insert` puts a window before the first interval it
    /// [`fits_before`].
    #[inline]
    fn merge_before(
        &mut self,
        start: f64,
        mut candidate: f64,
        duration: f64,
    ) -> ControlFlow<f64, f64> {
        while let Some((&(ws, wf), rest)) = self.extra.split_first() {
            if !fits_before(wf, start) {
                break;
            }
            candidate = step(candidate, duration, ws, wf)?;
            self.extra = rest;
        }
        ControlFlow::Continue(candidate)
    }

    /// Whether a chunk that ends before position `hi`, and whose last interval starts
    /// at `last_start`, holds no masked position and has no window landing inside it.
    /// Windows that land before its first interval must be merged already.
    #[inline]
    fn clear_of(&self, hi: usize, last_start: f64) -> bool {
        self.masked.first().map_or(true, |&m| m >= hi)
            && self
                .extra
                .first()
                .map_or(true, |&(_, wf)| !fits_before(wf, last_start))
    }

    /// The scalar rule over `chunk`, whose first interval sits at position `at`:
    /// masked intervals are skipped and windows merged in where they land.  Runs of
    /// intervals that no window lands in are read with the plain scan.
    #[inline]
    fn scan<P: Copy>(
        &mut self,
        chunk: &[Interval<P>],
        at: usize,
        mut candidate: f64,
        duration: f64,
    ) -> ControlFlow<f64, f64> {
        let mut j = 0;
        while j < chunk.len() {
            // The run up to the next masked interval, or to the end of the chunk.
            let stop = self
                .masked
                .first()
                .map_or(chunk.len(), |&m| (m - at).min(chunk.len()));
            let run = &chunk[j..stop];
            let lands = match (self.extra.first(), run.last()) {
                (Some(&(_, wf)), Some(last)) => fits_before(wf, last.start),
                _ => false,
            };
            if lands {
                for iv in run {
                    #[cfg(test)]
                    probe::scanned();
                    candidate = self.merge_before(iv.start, candidate, duration)?;
                    candidate = step(candidate, duration, iv.start, iv.finish)?;
                }
            } else {
                candidate = Timeline::scan(run, candidate, duration)?;
            }
            if stop < chunk.len() {
                candidate = self.merge_before(chunk[stop].start, candidate, duration)?;
                self.masked = &self.masked[1..];
            }
            j = stop + 1;
        }
        ControlFlow::Continue(candidate)
    }

    /// The position of the next masked interval, or of the interval the next window
    /// lands before (the length when it lands after the last), whichever comes first;
    /// `usize::MAX` when both are spent.  Starts are sorted, so the landing position
    /// is a binary search.
    #[inline]
    fn next_event<P>(&self, intervals: &[Interval<P>]) -> usize {
        let window = self.extra.first().map_or(usize::MAX, |&(_, wf)| {
            intervals.partition_point(|iv| !fits_before(wf, iv.start))
        });
        self.masked.first().map_or(window, |&m| m.min(window))
    }
}

/// A sorted sequence of non-overlapping busy intervals.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Timeline<P> {
    intervals: Vec<Interval<P>>,
    /// Chunked gap-index cache (interior mutability: queries are `&self`).
    index: RefCell<GapIndex>,
}

/// Timeline equality is *schedule* equality: the busy intervals, bit for bit.  The
/// gap-index cache is explicitly excluded — its freshness depends on the mutation
/// history, not on the schedule state (see `ScheduleBuilder::same_schedule_state`).
impl<P: PartialEq + Copy> PartialEq for Timeline<P> {
    fn eq(&self, other: &Self) -> bool {
        self.intervals == other.intervals
    }
}

impl<P> Default for Timeline<P> {
    fn default() -> Self {
        Timeline {
            intervals: Vec::new(),
            index: RefCell::new(GapIndex::default()),
        }
    }
}

impl<P: Copy> Timeline<P> {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// The busy intervals, sorted by start time.
    pub fn intervals(&self) -> &[Interval<P>] {
        &self.intervals
    }

    /// Number of busy intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the timeline has no busy intervals.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Finish time of the last busy interval (0 if empty).
    pub fn last_finish(&self) -> f64 {
        self.intervals.last().map_or(0.0, |i| i.finish)
    }

    /// Marks the chunk summaries from the one containing `pos` onward stale.
    #[inline]
    fn invalidate_from(&mut self, pos: usize) {
        self.index.get_mut().invalidate_from(pos / CHUNK);
    }

    /// The exact scalar gap rule over `intervals`, starting from `candidate`: `Break`
    /// with the first fitting start, or `Continue` with the candidate after every
    /// interval.  The reference semantics every path reproduces bit-for-bit.
    #[inline]
    fn scan(intervals: &[Interval<P>], mut candidate: f64, duration: f64) -> ControlFlow<f64, f64> {
        for iv in intervals {
            #[cfg(test)]
            probe::scanned();
            candidate = step(candidate, duration, iv.start, iv.finish)?;
        }
        ControlFlow::Continue(candidate)
    }

    /// The candidate after skipping chunk `k` (whose intervals are `chunk`) by its
    /// summary, or `None` when the chunk may hold a fit and must be scanned.
    ///
    /// A fit before the chunk's first interval needs `first_start − candidate ≥
    /// duration`; a fit before interval `j > 0` needs `start[j] − candidate` and
    /// `start[j] − (max finish before j)` to reach it, and those are at most
    /// `last_start − candidate` and `room`.  If the best of these bounds falls short
    /// by more than a floating-point safety margin, no fit exists and the chunk is
    /// skipped whole, its `pmax` folded into the candidate.  The margin errs toward
    /// scanning (a scanned chunk is always exact), never toward a wrong skip.
    #[inline]
    fn skip_chunk(
        idx: &mut GapIndex,
        k: usize,
        chunk: &[Interval<P>],
        candidate: f64,
        duration: f64,
    ) -> Option<f64> {
        let summary = idx.summary(k, chunk);
        let first_start = chunk[0].start;
        let last_start = chunk[chunk.len() - 1].start;
        let bound = (first_start - candidate).max((last_start - candidate).min(summary.room));
        let margin = 1e-12
            * (first_start.abs()
                + last_start.abs()
                + candidate.abs()
                + summary.pmax.abs()
                + duration);
        (bound < duration - TIME_EPS - margin).then_some(if summary.pmax > candidate {
            summary.pmax
        } else {
            candidate
        })
    }

    /// Earliest start time `s >= ready` such that `[s, s + duration)` does not overlap any
    /// busy interval.  The gap between consecutive busy intervals is used if large enough
    /// ("insertion scheduling"); otherwise the item goes after the last interval.
    ///
    /// Intervals that finish before `ready` can neither host the item nor push the
    /// candidate later, so the scan starts at the first interval still alive at `ready`
    /// (binary search) instead of at the beginning of the timeline.  Large timelines
    /// additionally consult the chunked gap index (see the module documentation) to skip
    /// whole chunks that provably cannot host a fit; the result is identical to the
    /// scalar scan.
    pub fn earliest_gap(&self, ready: f64, duration: f64) -> f64 {
        let n = self.intervals.len();
        let first_alive = self
            .intervals
            .partition_point(|iv| iv.finish < ready - TIME_EPS);
        if n - first_alive < CHUNK_MIN_LEN {
            let (ControlFlow::Break(s) | ControlFlow::Continue(s)) =
                Self::scan(&self.intervals[first_alive..], ready, duration);
            return s;
        }
        // The scan state is `candidate = max(ready, max finish of scanned intervals)`.
        // Intervals before `first_alive` all finish before `ready`, so folding their
        // chunks' pmax in would be absorbed by `ready` anyway — start from `ready`.
        let (ControlFlow::Break(s) | ControlFlow::Continue(s)) =
            self.walk(Some(&mut self.indexed(n)), first_alive, n, ready, duration);
        s
    }

    /// The chunked walk over positions `i..end`, `end` being a chunk boundary or the
    /// length, with running candidate `candidate`: `Break` with the fit, or `Continue`
    /// with the candidate after position `end`.  Without an index every interval is
    /// scanned.
    fn walk(
        &self,
        mut idx: Option<&mut GapIndex>,
        mut i: usize,
        end: usize,
        mut candidate: f64,
        duration: f64,
    ) -> ControlFlow<f64, f64> {
        while i < end {
            let k = i / CHUNK;
            let hi = ((k + 1) * CHUNK).min(end);
            let chunk = &self.intervals[i..hi];
            if let Some(idx) = idx.as_deref_mut().filter(|_| i == k * CHUNK) {
                if let Some(c) = Self::skip_chunk(idx, k, chunk, candidate, duration) {
                    candidate = c;
                    i = hi;
                    continue;
                }
            }
            candidate = Self::scan(chunk, candidate, duration)?;
            i = hi;
        }
        ControlFlow::Continue(candidate)
    }

    /// [`Timeline::earliest_gap`] on the timeline as it would stand with the intervals
    /// at the positions in `masked` removed and the windows in `extra` inserted: the
    /// query a tentative booking prices with, without mutating the timeline.
    ///
    /// `masked` lists interval positions in increasing order.  `extra` lists
    /// `(start, finish)` windows, finish stored as [`Timeline::insert`] would
    /// (`start + duration`), in the order successive inserts would leave them.  Each
    /// window lands where `insert` would put it: before the first interval it fits
    /// before, `finish ≤ start + TIME_EPS`.
    ///
    /// The walk is `earliest_gap`'s.  A chunk is skipped by its summary only when it
    /// holds no masked position and no window lands inside it; every other chunk is
    /// scanned with the exact scalar rule, masked positions skipped and windows merged
    /// in.  So the answer is bit-identical to removing, inserting and then calling
    /// `earliest_gap`, and with nothing masked or booked it *is* `earliest_gap`.
    pub fn earliest_gap_masked(
        &self,
        ready: f64,
        duration: f64,
        extra: &[(f64, f64)],
        masked: &[usize],
    ) -> f64 {
        if extra.is_empty() && masked.is_empty() {
            return self.earliest_gap(ready, duration);
        }
        let (ControlFlow::Break(s) | ControlFlow::Continue(s)) =
            self.walk_masked(ready, duration, extra, masked);
        s
    }

    /// The walk behind [`Timeline::earliest_gap_masked`]: `Break` with the fit, or
    /// `Continue` with the candidate after every interval and window.
    fn walk_masked(
        &self,
        ready: f64,
        duration: f64,
        extra: &[(f64, f64)],
        masked: &[usize],
    ) -> ControlFlow<f64, f64> {
        let n = self.intervals.len();
        let first_alive = self
            .intervals
            .partition_point(|iv| iv.finish < ready - TIME_EPS);
        let mut overlay = Overlaid {
            extra,
            masked: &masked[masked.partition_point(|&m| m < first_alive)..],
        };
        let mut idx = (n - first_alive >= CHUNK_MIN_LEN).then(|| self.indexed(n));
        let mut candidate = ready;
        let mut i = first_alive;
        while i < n {
            // The plain walk up to the chunk of the overlay's next event.
            let stop = (overlay.next_event(&self.intervals) / CHUNK * CHUNK).clamp(i, n);
            candidate = self.walk(idx.as_deref_mut(), i, stop, candidate, duration)?;
            i = stop;
            if i == n {
                break;
            }
            let k = i / CHUNK;
            let hi = ((k + 1) * CHUNK).min(n);
            let chunk = &self.intervals[i..hi];
            if let Some(idx) = idx.as_mut().filter(|_| i == k * CHUNK) {
                candidate = overlay.merge_before(chunk[0].start, candidate, duration)?;
                if overlay.clear_of(hi, chunk[chunk.len() - 1].start) {
                    if let Some(c) = Self::skip_chunk(idx, k, chunk, candidate, duration) {
                        candidate = c;
                        i = hi;
                        continue;
                    }
                }
            }
            candidate = overlay.scan(chunk, i, candidate, duration)?;
            i = hi;
        }
        // Windows that land after the last interval.
        overlay.merge_before(f64::INFINITY, candidate, duration)
    }

    /// The gap index, sized for `n` intervals.
    fn indexed(&self, n: usize) -> std::cell::RefMut<'_, GapIndex> {
        let mut idx = self.index.borrow_mut();
        let num_chunks = n.div_ceil(CHUNK);
        if idx.chunks.len() < num_chunks {
            idx.chunks.resize(num_chunks, None);
        }
        idx
    }

    /// Earliest start time when only appending after every existing interval is allowed.
    pub fn earliest_append(&self, ready: f64) -> f64 {
        ready.max(self.last_finish())
    }

    /// Inserts a busy interval `[start, start + duration)`; returns the index at which it
    /// now sits (its predecessor/successor intervals are at `idx - 1` / `idx + 1`).
    ///
    /// The interval goes before the first interval it fits before under the gap rule
    /// (`start + duration ≤ that start + TIME_EPS`), after every other.  That is the
    /// interval where [`Timeline::earliest_gap`]'s scan stopped when it returned
    /// `start`, so every answer of a gap search is inserted next to the intervals it was
    /// found between, zero-length ones included.  For intervals longer than
    /// `2 · TIME_EPS` this is the first interval starting at or after `start − TIME_EPS`.
    ///
    /// # Panics
    /// Panics (in debug builds) if the new interval overlaps an existing one by more than
    /// [`TIME_EPS`]; callers must have obtained `start` from [`Timeline::earliest_gap`] or
    /// an equivalent conflict-free computation.
    pub fn insert(&mut self, start: f64, duration: f64, payload: P) -> usize {
        let finish = start + duration;
        let pos = self
            .intervals
            .partition_point(|iv| !fits_before(finish, iv.start));
        debug_assert!(
            pos == 0 || self.intervals[pos - 1].finish <= start + TIME_EPS,
            "new interval overlaps predecessor"
        );
        debug_assert!(
            pos == self.intervals.len() || finish <= self.intervals[pos].start + TIME_EPS,
            "new interval overlaps successor"
        );
        self.intervals.insert(
            pos,
            Interval {
                start,
                finish,
                payload,
            },
        );
        self.invalidate_from(pos);
        pos
    }

    /// Index of the interval starting at `start` (within [`TIME_EPS`]) whose payload
    /// satisfies `matches` — the payload→interval lookup used by the incremental
    /// scheduling kernel.  Binary search, O(log n) plus the run of equal-start intervals.
    pub fn position_at(&self, start: f64, mut matches: impl FnMut(P) -> bool) -> Option<usize> {
        let mut i = self
            .intervals
            .partition_point(|iv| iv.start < start - TIME_EPS);
        while i < self.intervals.len() && self.intervals[i].start <= start + TIME_EPS {
            if matches(self.intervals[i].payload) {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// Removes and returns the interval starting at `start` whose payload satisfies
    /// `matches` (binary search — the O(log n) replacement for [`Timeline::remove_where`]
    /// when the caller knows where the interval was booked).
    pub fn remove_at(&mut self, start: f64, matches: impl FnMut(P) -> bool) -> Option<Interval<P>> {
        let pos = self.position_at(start, matches)?;
        Some(self.remove_index(pos))
    }

    /// Removes and returns the interval at `index` (obtained from
    /// [`Timeline::position_at`] or [`Timeline::insert`]).
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    pub fn remove_index(&mut self, index: usize) -> Interval<P> {
        let removed = self.intervals.remove(index);
        self.invalidate_from(index);
        removed
    }

    /// Overwrites the window of the interval at `index` **without** re-sorting.
    ///
    /// Only valid when the caller guarantees the timeline's interval *order* is
    /// unchanged — which re-timing passes do by construction (they preserve every
    /// ordering decision).  No per-call invariant check: callers batch their updates
    /// and verify [`Timeline::is_consistent`] once (debug builds).  Positions do not
    /// shift, so only the gap-index summary of the interval's own chunk goes stale.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    pub fn set_window(&mut self, index: usize, start: f64, finish: f64) {
        let iv = &mut self.intervals[index];
        iv.start = start;
        iv.finish = finish;
        if let Some(summary) = self.index.get_mut().chunks.get_mut(index / CHUNK) {
            *summary = None;
        }
    }

    /// The busy interval covering `time`, if any (binary search).
    pub fn interval_covering(&self, time: f64) -> Option<&Interval<P>> {
        let pos = self
            .intervals
            .partition_point(|iv| iv.finish <= time + TIME_EPS);
        self.intervals
            .get(pos)
            .filter(|iv| iv.start <= time + TIME_EPS)
    }

    /// Iterates the free `(start, end)` windows between busy intervals, including the
    /// window before the first interval; the unbounded window after
    /// [`Timeline::last_finish`] is not reported.  Windows shorter than [`TIME_EPS`] are
    /// skipped.
    pub fn gaps(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let mut cursor = 0.0f64;
        self.intervals.iter().filter_map(move |iv| {
            let gap = (cursor, iv.start);
            cursor = cursor.max(iv.finish);
            (gap.1 - gap.0 > TIME_EPS).then_some(gap)
        })
    }

    /// Removes the first interval matching `pred`; returns the removed interval.
    ///
    /// Linear scan — kept for callers that genuinely do not know the interval's start
    /// time; everything on the scheduling hot path uses [`Timeline::remove_at`].
    pub fn remove_where<F: FnMut(&Interval<P>) -> bool>(&mut self, pred: F) -> Option<Interval<P>> {
        let pos = self.intervals.iter().position(pred)?;
        Some(self.remove_index(pos))
    }

    /// Removes every interval matching `pred`; returns how many were removed.
    pub fn remove_all_where<F: FnMut(&Interval<P>) -> bool>(&mut self, mut pred: F) -> usize {
        let before = self.intervals.len();
        self.intervals.retain(|iv| !pred(iv));
        let removed = before - self.intervals.len();
        if removed > 0 {
            self.invalidate_from(0);
        }
        removed
    }

    /// Clears all intervals.
    pub fn clear(&mut self) {
        self.intervals.clear();
        self.invalidate_from(0);
    }

    /// Total busy time.
    pub fn busy_time(&self) -> f64 {
        self.intervals.iter().map(|iv| iv.finish - iv.start).sum()
    }

    /// Checks the internal invariant: sorted by start and non-overlapping.
    pub fn is_consistent(&self) -> bool {
        self.intervals
            .windows(2)
            .all(|w| w[0].finish <= w[1].start + TIME_EPS && w[0].start <= w[1].start)
    }

    /// Iterates payloads in start-time order.
    pub fn payloads(&self) -> impl Iterator<Item = P> + '_ {
        self.intervals.iter().map(|iv| iv.payload)
    }
}

/// Test-only work counters of the gap index, per thread: intervals read by gap-query
/// scans, and the chunks whose summaries were rebuilt.  Absent from non-test builds.
#[cfg(test)]
mod probe {
    use std::cell::{Cell, RefCell};

    thread_local! {
        static SCANNED: Cell<usize> = const { Cell::new(0) };
        static REBUILT: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn scanned() {
        SCANNED.with(|c| c.set(c.get() + 1));
    }

    pub(super) fn rebuilt(chunk: usize) {
        REBUILT.with(|r| r.borrow_mut().push(chunk));
    }

    /// Returns and resets `(intervals scanned, chunks rebuilt in order)`.
    pub(super) fn take() -> (usize, Vec<usize>) {
        (SCANNED.with(|c| c.replace(0)), REBUILT.with(|r| r.take()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_timeline_basics() {
        let t: Timeline<u32> = Timeline::new();
        assert!(t.is_empty());
        assert_eq!(t.last_finish(), 0.0);
        assert_eq!(t.earliest_gap(3.0, 5.0), 3.0);
        assert_eq!(t.earliest_append(3.0), 3.0);
        assert_eq!(t.busy_time(), 0.0);
        assert!(t.is_consistent());
    }

    #[test]
    fn insert_keeps_sorted_order() {
        let mut t = Timeline::new();
        t.insert(10.0, 5.0, 1u32);
        t.insert(0.0, 5.0, 2);
        t.insert(5.0, 5.0, 3);
        assert_eq!(t.len(), 3);
        let starts: Vec<f64> = t.intervals().iter().map(|iv| iv.start).collect();
        assert_eq!(starts, vec![0.0, 5.0, 10.0]);
        assert!(t.is_consistent());
        assert_eq!(t.busy_time(), 15.0);
        assert_eq!(t.payloads().collect::<Vec<_>>(), vec![2, 3, 1]);
    }

    #[test]
    fn earliest_gap_finds_holes_between_intervals() {
        let mut t = Timeline::new();
        t.insert(0.0, 10.0, 'a');
        t.insert(20.0, 10.0, 'b');
        t.insert(50.0, 10.0, 'c');
        // Fits in the [10, 20) hole.
        assert_eq!(t.earliest_gap(0.0, 10.0), 10.0);
        assert_eq!(t.earliest_gap(0.0, 5.0), 10.0);
        // Too big for the first hole, fits in [30, 50).
        assert_eq!(t.earliest_gap(0.0, 15.0), 30.0);
        // Too big for every hole: goes after the last interval.
        assert_eq!(t.earliest_gap(0.0, 25.0), 60.0);
        // Ready time inside a busy interval.
        assert_eq!(t.earliest_gap(5.0, 5.0), 10.0);
        // Ready time inside a hole but the remaining hole is too small.
        assert_eq!(t.earliest_gap(17.0, 5.0), 30.0);
        // Exact fit is allowed.
        assert_eq!(t.earliest_gap(30.0, 20.0), 30.0);
    }

    #[test]
    fn earliest_append_ignores_holes() {
        let mut t = Timeline::new();
        t.insert(0.0, 10.0, 'a');
        t.insert(20.0, 10.0, 'b');
        assert_eq!(t.earliest_append(0.0), 30.0);
        assert_eq!(t.earliest_append(45.0), 45.0);
    }

    #[test]
    fn remove_where_and_remove_all() {
        let mut t = Timeline::new();
        t.insert(0.0, 1.0, 1u32);
        t.insert(2.0, 1.0, 2);
        t.insert(4.0, 1.0, 1);
        let removed = t.remove_where(|iv| iv.payload == 1).unwrap();
        assert_eq!(removed.start, 0.0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove_all_where(|iv| iv.payload == 1), 1);
        assert_eq!(t.len(), 1);
        assert!(t.remove_where(|iv| iv.payload == 99).is_none());
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn gap_search_result_is_always_insertable() {
        // Mini property check without proptest: random-ish deterministic sequence.
        let mut t = Timeline::new();
        let mut x = 1u64;
        for i in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let ready = (x % 1000) as f64 / 10.0;
            let duration = ((x >> 10) % 50) as f64 / 10.0 + 0.1;
            let start = t.earliest_gap(ready, duration);
            assert!(start >= ready - TIME_EPS);
            t.insert(start, duration, i);
            assert!(t.is_consistent(), "timeline inconsistent after insert {i}");
        }
    }

    #[test]
    fn position_at_and_remove_at_find_intervals_by_start() {
        let mut t = Timeline::new();
        t.insert(0.0, 5.0, 'a');
        assert_eq!(t.insert(10.0, 5.0, 'b'), 1);
        assert_eq!(t.insert(5.0, 5.0, 'c'), 1);
        assert_eq!(t.position_at(10.0, |p| p == 'b'), Some(2));
        assert_eq!(t.position_at(10.0, |p| p == 'a'), None);
        assert_eq!(t.position_at(7.5, |_| true), None);
        let removed = t.remove_at(5.0, |p| p == 'c').unwrap();
        assert_eq!(removed.payload, 'c');
        assert_eq!(t.len(), 2);
        assert!(t.remove_at(5.0, |p| p == 'c').is_none());
        let removed = t.remove_index(0);
        assert_eq!(removed.payload, 'a');
        assert_eq!(t.payloads().collect::<Vec<_>>(), vec!['b']);
    }

    #[test]
    fn interval_covering_uses_binary_search() {
        let mut t = Timeline::new();
        t.insert(0.0, 10.0, 'a');
        t.insert(20.0, 10.0, 'b');
        assert_eq!(t.interval_covering(5.0).unwrap().payload, 'a');
        assert_eq!(t.interval_covering(20.0).unwrap().payload, 'b');
        assert!(t.interval_covering(15.0).is_none());
        assert!(t.interval_covering(40.0).is_none());
    }

    #[test]
    fn gaps_reports_free_windows() {
        let mut t = Timeline::new();
        assert_eq!(t.gaps().count(), 0);
        t.insert(5.0, 5.0, 'a');
        t.insert(20.0, 10.0, 'b');
        t.insert(30.0, 1.0, 'c');
        let gaps: Vec<(f64, f64)> = t.gaps().collect();
        assert_eq!(gaps, vec![(0.0, 5.0), (10.0, 20.0)]);
    }

    #[test]
    fn earliest_gap_ignores_intervals_finished_before_ready() {
        let mut t = Timeline::new();
        t.insert(0.0, 10.0, 'a');
        t.insert(20.0, 10.0, 'b');
        // Ready after 'a' finished: the [10, 20) hole is still found.
        assert_eq!(t.earliest_gap(12.0, 5.0), 12.0);
        // Ready inside 'b': goes after it.
        assert_eq!(t.earliest_gap(25.0, 5.0), 30.0);
    }

    #[test]
    fn a_gap_found_after_a_zero_length_interval_is_inserted_after_it() {
        // A zero-length interval at 10: a gap search at or near it returns a start within
        // `TIME_EPS` of 10, and the item it found room for must land after it.
        let mut t = Timeline::new();
        t.insert(10.0, 0.0, 0u32);
        for (i, ready) in [10.0 + 0.5e-9, 10.0, 10.0 - 0.5e-9].into_iter().enumerate() {
            let mut t = t.clone();
            let start = t.earliest_gap(ready, 2.0);
            assert_eq!(t.insert(start, 2.0, 1 + i as u32), 1, "ready {ready}");
            assert!(t.is_consistent(), "ready {ready}: {:?}", t.intervals());
        }
        // A zero-length item still lands before a zero-length interval at its start, and
        // a positive one before an interval it ends at.
        assert_eq!(t.insert(10.0, 0.0, 7), 0);
        assert_eq!(t.insert(8.0, 2.0, 8), 0);
        assert!(t.is_consistent());
        assert_eq!(t.payloads().collect::<Vec<_>>(), vec![8, 7, 0]);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn overlapping_insert_panics_in_debug() {
        let mut t = Timeline::new();
        t.insert(0.0, 10.0, 1u32);
        t.insert(5.0, 10.0, 2);
    }

    // ---- chunked gap index ----------------------------------------------------------

    /// The pre-index scalar semantics, for differential checks.
    fn reference_gap(t: &Timeline<usize>, ready: f64, duration: f64) -> f64 {
        let first_alive = t
            .intervals()
            .partition_point(|iv| iv.finish < ready - TIME_EPS);
        let mut candidate = ready;
        for iv in &t.intervals()[first_alive..] {
            if candidate + duration <= iv.start + TIME_EPS {
                return candidate;
            }
            if iv.finish > candidate {
                candidate = iv.finish;
            }
        }
        candidate
    }

    /// Simple deterministic LCG for the index tests.
    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x >> 11
    }

    #[test]
    fn chunked_index_matches_scalar_on_large_timelines() {
        // Build a long timeline with irregular holes, then fire gap queries across
        // the whole ready/duration spectrum and compare bit-for-bit to the scalar.
        let mut t = Timeline::new();
        let mut rng = 0x1234_5678u64;
        let mut cursor = 0.0f64;
        for i in 0..500 {
            let hole = (lcg(&mut rng) % 40) as f64 / 4.0; // 0..10
            let dur = (lcg(&mut rng) % 37) as f64 / 4.0 + 0.25; // 0.25..9.5
            cursor += hole;
            t.insert(cursor, dur, i);
            cursor += dur;
        }
        for _ in 0..2000 {
            let ready = (lcg(&mut rng) % 5000) as f64 / 1.3;
            let duration = (lcg(&mut rng) % 60) as f64 / 4.0 + 0.05;
            let got = t.earliest_gap(ready, duration);
            let want = reference_gap(&t, ready, duration);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "chunked gap diverged at ready={ready} duration={duration}: \
                 got {got}, scalar {want}"
            );
        }
    }

    #[test]
    fn chunked_index_self_heals_after_mutation_storms() {
        // Interleave structural mutations (insert / remove / window rewrites) with
        // queries so the freshness watermark keeps dropping mid-stream.
        let mut t = Timeline::new();
        let mut rng = 0x9e37_79b9u64;
        let mut cursor = 0.0f64;
        for i in 0..300usize {
            let hole = (lcg(&mut rng) % 16) as f64 / 8.0;
            cursor += hole + 0.125;
            t.insert(cursor, 1.0, i);
            cursor += 1.0;
        }
        for round in 0..300 {
            match lcg(&mut rng) % 3 {
                0 => {
                    // Remove a random interval…
                    let pos = (lcg(&mut rng) as usize) % t.len();
                    let iv = t.remove_index(pos);
                    // … and re-insert it at the far end.
                    let start = t.last_finish() + 0.5 + (round as f64) * 0.01;
                    t.insert(start, iv.finish - iv.start, iv.payload);
                }
                1 => {
                    // Shrink a random interval in place (order is preserved).
                    let pos = (lcg(&mut rng) as usize) % t.len();
                    let iv = t.intervals()[pos];
                    let mid = iv.start + (iv.finish - iv.start) * 0.5;
                    t.set_window(pos, iv.start, mid.max(iv.start));
                }
                _ => {}
            }
            let ready = (lcg(&mut rng) % 2000) as f64 / 1.7;
            let duration = (lcg(&mut rng) % 24) as f64 / 8.0 + 0.01;
            let got = t.earliest_gap(ready, duration);
            let want = reference_gap(&t, ready, duration);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "round {round}: chunked gap diverged at ready={ready} duration={duration}"
            );
            assert!(t.is_consistent());
        }
    }

    #[test]
    fn equality_ignores_the_index_cache() {
        let mut a = Timeline::new();
        let mut b = Timeline::new();
        for i in 0..100usize {
            a.insert(i as f64 * 2.0, 1.0, i);
            b.insert(i as f64 * 2.0, 1.0, i);
        }
        // Heat a's cache only; the timelines must still compare equal.
        let _ = a.earliest_gap(0.0, 0.5);
        assert_eq!(a, b);
        // And a real schedule difference must still be visible.
        b.set_window(0, 0.0, 1.5);
        assert_ne!(a, b);
    }

    /// `n` intervals of length 1 separated by holes of `hole(i)` before interval `i`;
    /// the first interval starts at `hole(0)`.
    fn packed(n: usize, mut hole: impl FnMut(usize) -> f64) -> Timeline<usize> {
        let mut t = Timeline::new();
        let mut cursor = 0.0f64;
        for i in 0..n {
            cursor += hole(i);
            t.insert(cursor, 1.0, i);
            cursor += 1.0;
        }
        t
    }

    /// Chunk holding the fit at `start`: the chunk of the first interval starting at or
    /// after it (one past the last chunk for an append).
    fn fit_chunk(t: &Timeline<usize>, start: f64) -> usize {
        t.intervals().partition_point(|iv| iv.start < start) / CHUNK
    }

    #[test]
    fn gap_query_skips_every_chunk_without_a_fitting_hole() {
        // 2100 intervals, every hole shorter than the query: the answer is an append
        // after the last interval, and no chunk may be scanned on the way there.
        let mut rng = 0x5eed_0001u64;
        let d = 2.0;
        let t = packed(2100, |_| (lcg(&mut rng) % 100) as f64 / 100.0 * (d / 2.0));
        for round in ["cold", "warm"] {
            probe::take();
            let got = t.earliest_gap(0.0, d);
            let (scanned, _) = probe::take();
            assert_eq!(got.to_bits(), reference_gap(&t, 0.0, d).to_bits());
            assert_eq!(got, t.last_finish());
            assert!(
                scanned <= 2 * CHUNK,
                "{round} query read {scanned} intervals of {}",
                t.len()
            );
        }
    }

    #[test]
    fn gap_query_rebuilds_only_the_stale_chunks_its_walk_reaches() {
        // Unit holes everywhere except one 10-unit hole before interval 330 (chunk 10).
        let mut t = packed(2000, |i| if i == 330 { 10.0 } else { 1.0 });
        let d = 5.0;
        let _ = t.earliest_gap(0.0, 50.0); // walks to the end: builds every summary
        probe::take();

        // An insert near the head shifts every later chunk: all of them go stale, but
        // the next query stops at its fit and must rebuild nothing past that chunk.
        t.insert(2.25, 0.5, 9999);
        let got = t.earliest_gap(0.0, d);
        let (_, rebuilt) = probe::take();
        assert_eq!(got.to_bits(), reference_gap(&t, 0.0, d).to_bits());
        let fit = fit_chunk(&t, got);
        assert_eq!(fit, 10);
        assert!(!rebuilt.is_empty());
        assert!(
            rebuilt.iter().all(|&k| k <= fit),
            "rebuilt chunks {rebuilt:?} past the fit in chunk {fit}"
        );

        // A window rewrite moves no interval to another chunk, so only its own chunk
        // goes stale: a walk to the end rebuilds exactly that one, and a walk that
        // stops before it rebuilds nothing.
        let _ = t.earliest_gap(0.0, 50.0); // rebuilds the tail the insert left stale
        probe::take();
        let pos = 40 * CHUNK + 3;
        let iv = t.intervals()[pos];
        t.set_window(pos, iv.start, iv.start + 0.5);
        let got = t.earliest_gap(0.0, 50.0);
        let (_, rebuilt) = probe::take();
        assert_eq!(got.to_bits(), reference_gap(&t, 0.0, 50.0).to_bits());
        assert_eq!(rebuilt, vec![40]);
        t.set_window(pos, iv.start, iv.finish);
        let got = t.earliest_gap(0.0, d);
        let (_, rebuilt) = probe::take();
        assert_eq!(fit_chunk(&t, got), 10);
        assert_eq!(rebuilt, Vec::<usize>::new());
    }

    // ---- masked queries --------------------------------------------------------------

    /// `t` with the intervals at `masked` removed and `windows` inserted in order, and
    /// the windows as the masked query takes them: in the order the inserts left them.
    fn mutated(
        t: &Timeline<usize>,
        masked: &[usize],
        windows: &[(f64, f64)],
    ) -> (Timeline<usize>, Vec<(f64, f64)>) {
        let mut m = t.clone();
        for &pos in masked.iter().rev() {
            m.remove_index(pos);
        }
        for (i, &(start, finish)) in windows.iter().enumerate() {
            m.insert(start, finish - start, usize::MAX - i);
        }
        let extra = m
            .intervals()
            .iter()
            .filter(|iv| iv.payload > usize::MAX - windows.len())
            .map(|iv| (iv.start, iv.finish))
            .collect();
        (m, extra)
    }

    #[test]
    fn masked_query_matches_removing_and_inserting() {
        let mut t = Timeline::new();
        t.insert(0.0, 10.0, 0usize);
        t.insert(10.0, 10.0, 1);
        t.insert(30.0, 10.0, 2);
        t.insert(50.0, 10.0, 3);
        // Masking [10, 20) opens a 10-unit hole; a window on [12, 15) splits it again.
        let (m, extra) = mutated(&t, &[1], &[(12.0, 15.0)]);
        for (ready, d) in [
            (0.0, 10.0),
            (0.0, 2.0),
            (0.0, 5.0),
            (16.0, 4.0),
            (0.0, 25.0),
        ] {
            let got = t.earliest_gap_masked(ready, d, &extra, &[1]);
            assert_eq!(
                got.to_bits(),
                m.earliest_gap(ready, d).to_bits(),
                "{ready} {d}"
            );
        }
        assert_eq!(t.earliest_gap_masked(0.0, 10.0, &[], &[1]), 10.0);
        assert_eq!(t.earliest_gap_masked(0.0, 10.0, &extra, &[1]), 15.0);
        // A zero-length window at a base start lands before that interval, as
        // `insert` puts it; nothing masked or booked is exactly `earliest_gap`.
        let (m, extra) = mutated(&t, &[], &[(30.0, 30.0)]);
        assert_eq!(
            t.earliest_gap_masked(20.0, 0.0, &extra, &[]).to_bits(),
            m.earliest_gap(20.0, 0.0).to_bits()
        );
        assert_eq!(
            t.earliest_gap_masked(22.0, 3.0, &[], &[]),
            t.earliest_gap(22.0, 3.0)
        );
    }

    #[test]
    fn masked_query_scans_only_the_chunks_the_overlay_touches() {
        // Unit holes everywhere: a query for 5 units appends after the last interval.
        // A mask and a window in chunk 3 force that chunk to be scanned; every other
        // chunk is still skipped by its summary.
        let t = packed(2000, |_| 1.0);
        let pos = 3 * CHUNK + 7;
        let iv = t.intervals()[pos];
        let extra = [(iv.start + 0.25, iv.start + 0.5)];
        let _ = t.earliest_gap(0.0, 50.0); // builds every summary
        probe::take();
        let got = t.earliest_gap_masked(0.0, 5.0, &extra, &[pos]);
        let (scanned, rebuilt) = probe::take();
        let (m, _) = mutated(&t, &[pos], &extra);
        assert_eq!(got.to_bits(), m.earliest_gap(0.0, 5.0).to_bits());
        assert_eq!(got, t.last_finish());
        assert!(
            scanned <= 2 * CHUNK,
            "read {scanned} intervals of {}",
            t.len()
        );
        assert!(
            rebuilt.is_empty(),
            "a read-only query invalidated {rebuilt:?}"
        );
        // The mask itself opens a fit: a 2.5-unit item lands where the hop was.
        let d = 2.5;
        let got = t.earliest_gap_masked(0.0, d, &[], &[pos]);
        assert_eq!(got, t.intervals()[pos - 1].finish);
    }
}
