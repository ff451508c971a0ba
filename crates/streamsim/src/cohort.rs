//! Cohort queues: the fluid event model with exact delay tracking.
//!
//! Simulating every individual event at the paper's rates (up to
//! 160 000 events/s for 1 800 s) is wasteful when all metrics are
//! rates, backlogs and latencies. Instead, events travel in *cohorts*:
//! `(birth time, count, accumulated network latency)` triples. Queues
//! are FIFO sequences of cohorts, so queueing delay, drop decisions,
//! and end-to-end latency distributions remain exact at fluid
//! granularity.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use wasp_netsim::units::SimTime;
use wasp_xray::DelayLedger;

/// A group of events born (at the external source) at the same time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Cohort {
    /// Generation time at the external source.
    pub birth: SimTime,
    /// Number of events (fluid — fractional counts are fine).
    pub count: f64,
    /// Network propagation latency accumulated so far, in seconds
    /// (added on top of queueing/processing delay, which the clock
    /// captures).
    pub net_latency: f64,
    /// Per-component delay attribution (stamped only when the engine
    /// runs with xray enabled; stays at its birth value otherwise, so
    /// merges below are no-ops on it).
    pub xray: DelayLedger,
}

impl Cohort {
    /// Creates a cohort born `birth` with `count` events.
    pub fn new(birth: SimTime, count: f64) -> Cohort {
        Cohort {
            birth,
            count,
            net_latency: 0.0,
            xray: DelayLedger::new(birth.secs()),
        }
    }

    /// The end-to-end delay of this cohort if emitted at `now`
    /// (paper metric: emit time − generation time, plus accumulated
    /// propagation latency).
    pub fn delay_at(&self, now: SimTime) -> f64 {
        (now - self.birth) + self.net_latency
    }

    /// This cohort with its count multiplied by `factor`, if that count
    /// is positive (what [`CohortQueue::scaled`] keeps of it).
    pub(crate) fn scaled(self, factor: f64) -> Option<Cohort> {
        scale(self, factor)
    }
}

/// FIFO queue of cohorts with fluid take/put operations.
///
/// While every ledger it holds is unstamped (all six components and
/// both pause marks `+0.0`), the queue stores only `(birth, count,
/// net_latency, attributed_until)` per cohort; the first stamped push
/// converts it to full [`Cohort`]s. The encoding is lossless
/// (`DelayLedger::new(attributed_until)` rebuilds an unstamped ledger
/// bit for bit), so the representation never shows in results.
///
/// The queue stores at most 4096 cohorts, in at most 4096 slots: an
/// append that would go past that first merges the oldest half
/// pairwise.
///
/// # Examples
///
/// ```
/// use wasp_streamsim::cohort::{Cohort, CohortQueue};
/// use wasp_netsim::units::SimTime;
///
/// let mut q = CohortQueue::new();
/// q.push(Cohort::new(SimTime(0.0), 100.0));
/// q.push(Cohort::new(SimTime(1.0), 100.0));
/// let taken = q.take(150.0);
/// assert_eq!(taken.len(), 2);
/// assert_eq!(taken[0].count, 100.0);
/// assert_eq!(taken[1].count, 50.0);
/// assert!((q.len_events() - 50.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CohortQueue {
    #[serde(with = "cohorts_serde")]
    cohorts: Cohorts,
    total: f64,
}

/// Storage of a [`CohortQueue`]: lean until a stamped ledger arrives.
#[derive(Debug, Clone)]
enum Cohorts {
    Lean(VecDeque<LeanCohort>),
    Full(VecDeque<Cohort>),
}

impl Default for Cohorts {
    fn default() -> Cohorts {
        Cohorts::Lean(VecDeque::new())
    }
}

/// A cohort whose ledger is `DelayLedger::new(attributed_until)`.
#[derive(Debug, Clone, Copy)]
struct LeanCohort {
    birth: SimTime,
    count: f64,
    net_latency: f64,
    attributed_until: f64,
}

impl LeanCohort {
    /// The lean form of `c`, if its ledger is unstamped and its count
    /// finite (a non-finite merge weight turns `0.0 * w` into NaN, so
    /// only finite counts keep merged ledgers unstamped).
    fn of(c: &Cohort) -> Option<LeanCohort> {
        let l = &c.xray;
        let unstamped = [
            l.queue,
            l.service,
            l.transit,
            l.backpressure,
            l.migration,
            l.control,
            l.mark_pause,
            l.mark_fail,
        ]
        .iter()
        .all(|v| v.to_bits() == 0);
        (unstamped && c.count.is_finite()).then_some(LeanCohort {
            birth: c.birth,
            count: c.count,
            net_latency: c.net_latency,
            attributed_until: l.attributed_until,
        })
    }
}

/// The per-cohort operations the queue algorithms need, shared by the
/// lean and the full encoding.
trait Slot: Copy {
    fn birth(&self) -> SimTime;
    fn count(&self) -> f64;
    fn count_mut(&mut self) -> &mut f64;
    fn net_latency(&self) -> f64;
    fn set_birth_latency(&mut self, birth: SimTime, net_latency: f64);
    fn cohort(&self) -> Cohort;
    /// The slot's lean form, when it has one a queue may store.
    fn lean(&self) -> Option<LeanCohort>;
    /// [`DelayLedger::merge_weighted`] of the two slots' ledgers.
    fn merge_ledger(&mut self, w_self: f64, other: &Self, w_other: f64);
}

impl Slot for Cohort {
    fn birth(&self) -> SimTime {
        self.birth
    }
    fn count(&self) -> f64 {
        self.count
    }
    fn count_mut(&mut self) -> &mut f64 {
        &mut self.count
    }
    fn net_latency(&self) -> f64 {
        self.net_latency
    }
    fn set_birth_latency(&mut self, birth: SimTime, net_latency: f64) {
        self.birth = birth;
        self.net_latency = net_latency;
    }
    fn cohort(&self) -> Cohort {
        *self
    }
    fn lean(&self) -> Option<LeanCohort> {
        LeanCohort::of(self)
    }
    fn merge_ledger(&mut self, w_self: f64, other: &Cohort, w_other: f64) {
        self.xray.merge_weighted(w_self, &other.xray, w_other);
    }
}

impl Slot for LeanCohort {
    fn birth(&self) -> SimTime {
        self.birth
    }
    fn count(&self) -> f64 {
        self.count
    }
    fn count_mut(&mut self) -> &mut f64 {
        &mut self.count
    }
    fn net_latency(&self) -> f64 {
        self.net_latency
    }
    fn set_birth_latency(&mut self, birth: SimTime, net_latency: f64) {
        self.birth = birth;
        self.net_latency = net_latency;
    }
    fn cohort(&self) -> Cohort {
        Cohort {
            birth: self.birth,
            count: self.count,
            net_latency: self.net_latency,
            xray: DelayLedger::new(self.attributed_until),
        }
    }
    fn lean(&self) -> Option<LeanCohort> {
        self.count.is_finite().then_some(*self)
    }
    /// Exact only for finite positive weights, where every zero field
    /// mixes to `(0·w₁ + 0·w₂) / (w₁ + w₂) = +0.0`; the queue checks
    /// the weights are finite before merging lean slots.
    fn merge_ledger(&mut self, w_self: f64, other: &LeanCohort, w_other: f64) {
        let total = w_self + w_other;
        if total > 0.0 {
            self.attributed_until =
                (self.attributed_until * w_self + other.attributed_until * w_other) / total;
        }
    }
}

/// Serde adapter writing either encoding as the FIFO list of full
/// cohorts.
mod cohorts_serde {
    use super::{Cohort, Cohorts, LeanCohort};
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(q: &Cohorts, s: S) -> Result<S::Ok, S::Error> {
        q.iter().collect::<Vec<_>>().serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Cohorts, D::Error> {
        let cohorts: Vec<Cohort> = Vec::deserialize(d)?;
        Ok(match cohorts.iter().map(LeanCohort::of).collect() {
            Some(lean) => Cohorts::Lean(lean),
            None => Cohorts::Full(cohorts.into()),
        })
    }
}

impl Cohorts {
    fn len(&self) -> usize {
        match self {
            Cohorts::Lean(q) => q.len(),
            Cohorts::Full(q) => q.len(),
        }
    }

    fn iter(&self) -> impl Iterator<Item = Cohort> + '_ {
        let (lean, full) = match self {
            Cohorts::Lean(q) => (Some(q), None),
            Cohorts::Full(q) => (None, Some(q)),
        };
        let lean = lean.into_iter().flatten().map(Slot::cohort);
        lean.chain(full.into_iter().flatten().copied())
    }

    /// Converts lean storage to full cohorts (no-op when already full).
    fn make_full(&mut self) -> &mut VecDeque<Cohort> {
        if let Cohorts::Lean(q) = self {
            *self = Cohorts::Full(q.iter().map(Slot::cohort).collect());
        }
        match self {
            Cohorts::Full(q) => q,
            Cohorts::Lean(_) => unreachable!("converted above"),
        }
    }
}

/// Merging tolerance: cohorts whose births are this close (seconds)
/// and whose latencies match are merged on push.
const MERGE_EPS: f64 = 1e-9;

/// Most cohorts a queue stores: an append that would go past it first
/// coalesces the oldest cohorts pairwise.
const MAX_COHORTS: usize = 4096;

impl CohortQueue {
    /// An empty queue.
    pub fn new() -> CohortQueue {
        CohortQueue::default()
    }

    /// Number of events queued (fluid count).
    pub fn len_events(&self) -> f64 {
        self.total
    }

    /// True if no events are queued.
    pub fn is_empty(&self) -> bool {
        self.total <= 1e-12
    }

    /// Number of distinct cohorts (for diagnostics).
    pub fn len_cohorts(&self) -> usize {
        self.cohorts.len()
    }

    /// Birth time of the oldest queued cohort.
    pub fn oldest_birth(&self) -> Option<SimTime> {
        match &self.cohorts {
            Cohorts::Lean(q) => q.front().map(Slot::birth),
            Cohorts::Full(q) => q.front().map(Slot::birth),
        }
    }

    /// The queued cohorts, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = Cohort> + '_ {
        self.cohorts.iter()
    }

    /// Appends a cohort (merging with the tail when compatible).
    pub fn push(&mut self, c: Cohort) {
        if c.count <= 0.0 {
            return;
        }
        self.push_slot(c);
    }

    /// Appends many cohorts.
    pub fn push_all(&mut self, cs: impl IntoIterator<Item = Cohort>) {
        for c in cs {
            self.push(c);
        }
    }

    /// Pushes `batch`'s cohorts in order. With `factor`, each count is
    /// first multiplied by it and only positive products are pushed,
    /// as [`CohortQueue::scaled`] keeps them; without, this is
    /// [`CohortQueue::push_all`] of [`CohortBatch::iter`]. Either way
    /// the result is bit for bit that of the per-cohort pushes, while
    /// lean cohorts never take their full form.
    pub fn push_batch(&mut self, batch: &CohortBatch, factor: Option<f64>) {
        self.push_slots(&batch.lean, factor);
        self.push_slots(&batch.full, factor);
    }

    /// [`CohortQueue::push_batch`] of every cohort queued in `src`,
    /// oldest first; `src` is left as it is.
    pub fn push_queue(&mut self, src: &CohortQueue, factor: Option<f64>) {
        match &src.cohorts {
            Cohorts::Lean(q) => self.push_slots(q, factor),
            Cohorts::Full(q) => self.push_slots(q, factor),
        }
    }

    /// Removes up to `n` events from the front, FIFO, splitting the
    /// boundary cohort as needed. Returns the removed cohorts.
    pub fn take(&mut self, n: f64) -> Vec<Cohort> {
        let mut batch = CohortBatch::new();
        self.take_batch(n, &mut batch);
        batch.iter().collect()
    }

    /// [`CohortQueue::take`] into `batch`, which is emptied first and
    /// then holds the removed cohorts in this queue's encoding.
    pub fn take_batch(&mut self, n: f64, batch: &mut CohortBatch) {
        batch.clear();
        match &mut self.cohorts {
            Cohorts::Lean(q) => take_front(q, &mut self.total, n, &mut batch.lean),
            Cohorts::Full(q) => take_front(q, &mut self.total, n, &mut batch.full),
        }
        if self.cohorts.len() == 0 {
            self.total = 0.0; // absorb float dust
        }
    }

    /// Removes *all* events; the emptied queue is lean again.
    pub fn drain(&mut self) -> Vec<Cohort> {
        let all = self.iter().collect();
        self.clear();
        all
    }

    /// Discards *all* events, leaving the queue as [`CohortQueue::new`]
    /// would make it. A lean queue keeps its allocation for the next
    /// pushes; a full queue goes back to lean, as after
    /// [`CohortQueue::drain`].
    pub fn clear(&mut self) {
        self.total = 0.0;
        match &mut self.cohorts {
            Cohorts::Lean(q) => q.clear(),
            Cohorts::Full(_) => self.cohorts = Cohorts::default(),
        }
    }

    /// Calls `f` with the count and the ledger of every queued cohort,
    /// oldest first, letting it rewrite the ledger (births, counts and
    /// latencies stay as they are). The storage turns full.
    pub fn restamp(&mut self, mut f: impl FnMut(f64, &mut DelayLedger)) {
        for c in self.cohorts.make_full() {
            f(c.count, &mut c.xray);
        }
    }

    /// Drops every cohort whose delay at `now` already exceeds
    /// `max_delay` seconds (the Degrade baseline's late-event drop).
    /// Returns the number of events dropped.
    pub fn drop_late(&mut self, now: SimTime, max_delay: f64) -> f64 {
        let dropped = match &mut self.cohorts {
            Cohorts::Lean(q) => drop_late_front(q, &mut self.total, now, max_delay),
            Cohorts::Full(q) => drop_late_front(q, &mut self.total, now, max_delay),
        };
        if self.cohorts.len() == 0 {
            self.total = 0.0;
        }
        dropped
    }

    /// Scales every cohort's count by `factor` (used when an operator
    /// with selectivity σ emits its processed events), keeping the
    /// cohorts whose scaled count is positive.
    pub fn scaled(cohorts: &[Cohort], factor: f64) -> Vec<Cohort> {
        cohorts.iter().filter_map(|c| c.scaled(factor)).collect()
    }

    /// The loop behind [`CohortQueue::push_batch`] and
    /// [`CohortQueue::push_queue`].
    fn push_slots<'a, T: Slot + 'a>(
        &mut self,
        slots: impl IntoIterator<Item = &'a T>,
        factor: Option<f64>,
    ) {
        match factor {
            None => {
                for &c in slots {
                    if c.count() <= 0.0 {
                        continue;
                    }
                    self.push_slot(c);
                }
            }
            Some(factor) => {
                for &c in slots {
                    if let Some(c) = scale(c, factor) {
                        self.push_slot(c);
                    }
                }
            }
        }
    }

    /// Appends `c` (its count positive or NaN), merging it into the
    /// tail when compatible. The storage stays lean while `c` has a
    /// lean form and both it and the tail have finite counts (see
    /// `LeanCohort::merge_ledger`).
    fn push_slot<T: Slot>(&mut self, c: T) {
        self.total += c.count();
        let lean = match &self.cohorts {
            Cohorts::Lean(q) if q.back().is_none_or(|b| b.count.is_finite()) => c.lean(),
            _ => None,
        };
        let merged = match (&mut self.cohorts, lean) {
            (Cohorts::Lean(q), Some(l)) => merge_into_tail(q, &l),
            _ => merge_into_tail(self.cohorts.make_full(), &c.cohort()),
        };
        if merged {
            return;
        }
        if self.cohorts.len() >= MAX_COHORTS {
            self.coalesce_oldest();
        }
        match (&mut self.cohorts, lean) {
            (Cohorts::Lean(q), Some(l)) => push_bounded(q, l),
            _ => push_bounded(self.cohorts.make_full(), c.cohort()),
        }
    }

    /// Merges the oldest half of the queue pairwise, preserving total
    /// count and count-weighted mean birth/latency. Runs just before an
    /// append, on the pairs that queue would have after it: the append
    /// lands past them, so merging first changes no result and the
    /// queue never holds more than [`MAX_COHORTS`] cohorts (and, with
    /// `push_bounded`, never more slots).
    fn coalesce_oldest(&mut self) {
        let pairs = (self.cohorts.len() + 1) / 4;
        // As in `push_slot`: lean pair merges need finite weights.
        if let Cohorts::Lean(q) = &self.cohorts {
            if !q.range(..2 * pairs).all(|c| c.count.is_finite()) {
                self.cohorts.make_full();
            }
        }
        match &mut self.cohorts {
            Cohorts::Lean(q) => coalesce_front(q, pairs),
            Cohorts::Full(q) => coalesce_front(q, pairs),
        }
    }
}

/// A sequence of cohorts moving between queues, held in the encoding
/// of the queue it was taken from: lean slots while every ledger is
/// unstamped, full [`Cohort`]s otherwise. Unlike a queue it never
/// merges or coalesces. Both buffers keep their capacity when the
/// batch is cleared or turned full, so a batch reused from tick to
/// tick stops allocating once it has reached its working size.
///
/// # Examples
///
/// ```
/// use wasp_streamsim::cohort::{Cohort, CohortBatch, CohortQueue};
/// use wasp_netsim::units::SimTime;
///
/// let mut src = CohortQueue::new();
/// src.push(Cohort::new(SimTime(0.0), 100.0));
/// src.push(Cohort::new(SimTime(1.0), 100.0));
/// let mut batch = CohortBatch::new();
/// src.take_batch(150.0, &mut batch);
/// let mut dst = CohortQueue::new();
/// dst.push_batch(&batch, Some(0.5));
/// assert_eq!(batch.len(), 2);
/// assert_eq!(dst.len_events(), 75.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CohortBatch {
    /// Lean slots; empty whenever `full` is not.
    lean: Vec<LeanCohort>,
    full: Vec<Cohort>,
}

impl CohortBatch {
    /// An empty batch.
    pub fn new() -> CohortBatch {
        CohortBatch::default()
    }

    /// Number of cohorts held.
    pub fn len(&self) -> usize {
        self.lean.len() + self.full.len()
    }

    /// True if the batch holds no cohort.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties the batch, keeping both buffers' capacity.
    pub fn clear(&mut self) {
        self.lean.clear();
        self.full.clear();
    }

    /// The cohorts held, in order.
    pub fn iter(&self) -> impl Iterator<Item = Cohort> + '_ {
        let lean = self.lean.iter().map(Slot::cohort);
        lean.chain(self.full.iter().copied())
    }

    /// Appends `c` as it is (no merging, any count).
    pub fn push(&mut self, c: Cohort) {
        match LeanCohort::of(&c) {
            Some(l) if self.full.is_empty() => self.lean.push(l),
            _ => self.make_full().push(c),
        }
    }

    /// Adds `secs` to every cohort's accumulated network latency.
    pub fn add_net_latency(&mut self, secs: f64) {
        for c in &mut self.lean {
            c.net_latency += secs;
        }
        for c in &mut self.full {
            c.net_latency += secs;
        }
    }

    /// [`CohortQueue::restamp`] over the batch's cohorts, in order.
    pub fn restamp(&mut self, mut f: impl FnMut(f64, &mut DelayLedger)) {
        for c in self.make_full() {
            f(c.count, &mut c.xray);
        }
    }

    /// Turns the lean slots into full cohorts in place, through the
    /// full buffer's existing capacity.
    fn make_full(&mut self) -> &mut Vec<Cohort> {
        self.full.extend(self.lean.drain(..).map(|l| l.cohort()));
        &mut self.full
    }
}

/// `c` with its count multiplied by `factor`, if that count is
/// positive.
fn scale<T: Slot>(mut c: T, factor: f64) -> Option<T> {
    *c.count_mut() *= factor;
    (c.count() > 0.0).then_some(c)
}

/// Appends `c` to `q`, which holds fewer than [`MAX_COHORTS`] cohorts.
/// A buffer with no spare slot grows by doubling, but never past
/// [`MAX_COHORTS`] slots, whatever capacity a conversion to full
/// storage or a deserialisation left it with.
fn push_bounded<T>(q: &mut VecDeque<T>, c: T) {
    if q.len() == q.capacity() {
        q.reserve_exact(q.len().max(4).min(MAX_COHORTS - q.len()));
    }
    q.push_back(c);
}

/// Merges `c` into the tail of `q` when their births and latencies
/// match; returns whether it did.
fn merge_into_tail<T: Slot>(q: &mut VecDeque<T>, c: &T) -> bool {
    let Some(back) = q.back_mut() else {
        return false;
    };
    if (back.birth().secs() - c.birth().secs()).abs() < MERGE_EPS
        && (back.net_latency() - c.net_latency()).abs() < MERGE_EPS
    {
        // Count-weighted ledger mean keeps attribution conserved;
        // with xray off both ledgers are birth-fresh values and the
        // mean is a no-op on the components.
        let (wa, wb) = (back.count(), c.count());
        back.merge_ledger(wa, c, wb);
        *back.count_mut() += wb;
        return true;
    }
    false
}

fn take_front<T: Slot>(q: &mut VecDeque<T>, total: &mut f64, n: f64, out: &mut Vec<T>) {
    let mut remaining = n.max(0.0);
    while remaining > 1e-12 {
        let Some(front) = q.front_mut() else {
            break;
        };
        let count = front.count();
        if count <= remaining + 1e-12 {
            remaining -= count;
            *total -= count;
            out.push(*front);
            q.pop_front();
        } else {
            *front.count_mut() -= remaining;
            *total -= remaining;
            let mut taken = *front;
            *taken.count_mut() = remaining;
            out.push(taken);
            remaining = 0.0;
        }
    }
}

fn drop_late_front<T: Slot>(
    q: &mut VecDeque<T>,
    total: &mut f64,
    now: SimTime,
    max_delay: f64,
) -> f64 {
    let mut dropped = 0.0;
    while let Some(front) = q.front() {
        if (now - front.birth()) + front.net_latency() > max_delay {
            dropped += front.count();
            *total -= front.count();
            q.pop_front();
        } else {
            break;
        }
    }
    dropped
}

/// Merges the first `2 * k` slots pairwise in place: pair `i` lands in
/// slot `k + i`, then the vacated front slots `[0, k)` are dropped,
/// which only moves the head. Pairs go last to first, so each pair is
/// read before a merged pair lands on it.
fn coalesce_front<T: Slot>(q: &mut VecDeque<T>, k: usize) {
    for i in (0..k).rev() {
        q[k + i] = merge_pair(q[2 * i], q[2 * i + 1]);
    }
    q.drain(..k);
}

/// The count-weighted merge of `a` and `b`.
fn merge_pair<T: Slot>(mut a: T, b: T) -> T {
    let (wa, wb) = (a.count(), b.count());
    let count = wa + wb;
    a.merge_ledger(wa, &b, wb);
    a.set_birth_latency(
        SimTime((a.birth().secs() * wa + b.birth().secs() * wb) / count),
        (a.net_latency() * wa + b.net_latency() * wb) / count,
    );
    *a.count_mut() = count;
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_take_preserves_fifo_and_counts() {
        let mut q = CohortQueue::new();
        q.push(Cohort::new(SimTime(0.0), 10.0));
        q.push(Cohort::new(SimTime(1.0), 20.0));
        assert_eq!(q.len_events(), 30.0);
        let t = q.take(15.0);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].birth, SimTime(0.0));
        assert_eq!(t[0].count, 10.0);
        assert_eq!(t[1].birth, SimTime(1.0));
        assert_eq!(t[1].count, 5.0);
        assert!((q.len_events() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn take_more_than_available() {
        let mut q = CohortQueue::new();
        q.push(Cohort::new(SimTime(0.0), 5.0));
        let t = q.take(100.0);
        assert_eq!(t.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn adjacent_same_birth_cohorts_merge() {
        let mut q = CohortQueue::new();
        q.push(Cohort::new(SimTime(2.0), 1.0));
        q.push(Cohort::new(SimTime(2.0), 3.0));
        assert_eq!(q.len_cohorts(), 1);
        assert_eq!(q.len_events(), 4.0);
    }

    #[test]
    fn zero_count_push_is_noop() {
        let mut q = CohortQueue::new();
        q.push(Cohort::new(SimTime(0.0), 0.0));
        q.push(Cohort::new(SimTime(0.0), -5.0));
        assert!(q.is_empty());
        assert_eq!(q.len_cohorts(), 0);
    }

    #[test]
    fn drop_late_removes_only_expired() {
        let mut q = CohortQueue::new();
        q.push(Cohort::new(SimTime(0.0), 10.0));
        q.push(Cohort::new(SimTime(8.0), 10.0));
        let dropped = q.drop_late(SimTime(10.0), 5.0);
        assert_eq!(dropped, 10.0);
        assert_eq!(q.len_events(), 10.0);
        assert_eq!(q.oldest_birth(), Some(SimTime(8.0)));
    }

    #[test]
    fn delay_includes_net_latency() {
        let mut c = Cohort::new(SimTime(1.0), 1.0);
        c.net_latency = 0.25;
        assert!((c.delay_at(SimTime(3.0)) - 2.25).abs() < 1e-12);
    }

    #[test]
    fn scaled_applies_selectivity() {
        let cs = [
            Cohort::new(SimTime(0.0), 10.0),
            Cohort::new(SimTime(1.0), 4.0),
        ];
        let out = CohortQueue::scaled(&cs, 0.5);
        assert_eq!(out[0].count, 5.0);
        assert_eq!(out[1].count, 2.0);
        assert!(CohortQueue::scaled(&cs, 0.0).is_empty());
    }

    #[test]
    fn coalesce_bounds_cohort_count_and_preserves_mass() {
        // Lean throughout; turned full by a stamped push at 3000
        // cohorts; turned full by `restamp` at 2500.
        for convert in [None, Some((3000, false)), Some((2500, true))] {
            let mut q = CohortQueue::new();
            for i in 0..10_000 {
                if convert == Some((i, false)) {
                    let mut c = Cohort::new(SimTime(i as f64), 1.0);
                    c.xray.queue = 0.5;
                    q.push(c);
                    continue;
                }
                if convert == Some((i, true)) {
                    q.restamp(|_, l| l.service = 0.25);
                }
                q.push(Cohort::new(SimTime(i as f64), 1.0));
            }
            assert_eq!(matches!(q.cohorts, Cohorts::Full(_)), convert.is_some());
            assert!(q.len_cohorts() <= MAX_COHORTS);
            // Coalescing runs before the append that would overflow,
            // and growth stops at the bound, so the storage never grew
            // past it either, lean or full.
            let capacity = match &q.cohorts {
                Cohorts::Lean(d) => d.capacity(),
                Cohorts::Full(d) => d.capacity(),
            };
            assert!(capacity <= MAX_COHORTS, "{convert:?}: capacity {capacity}");
            assert!((q.len_events() - 10_000.0).abs() < 1e-6);
            // FIFO order by birth is preserved.
            let drained = q.drain();
            for w in drained.windows(2) {
                assert!(w[0].birth <= w[1].birth);
            }
        }
    }

    #[test]
    fn drain_empties_queue() {
        let mut q = CohortQueue::new();
        q.push(Cohort::new(SimTime(0.0), 3.0));
        let all = q.drain();
        assert_eq!(all.len(), 1);
        assert!(q.is_empty());
    }
}
