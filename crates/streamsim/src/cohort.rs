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
        q.to_vec().serialize(s)
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

    fn to_vec(&self) -> Vec<Cohort> {
        match self {
            Cohorts::Lean(q) => q.iter().map(Slot::cohort).collect(),
            Cohorts::Full(q) => q.iter().copied().collect(),
        }
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

/// Above this length the queue coalesces its oldest cohorts pairwise.
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

    /// Appends a cohort (merging with the tail when compatible).
    pub fn push(&mut self, c: Cohort) {
        if c.count <= 0.0 {
            return;
        }
        self.total += c.count;
        if let Cohorts::Lean(q) = &mut self.cohorts {
            // A tail merge stays lean only with finite weights on both
            // sides (see `LeanCohort::merge_ledger`).
            let back_finite = q.back().is_none_or(|b| b.count.is_finite());
            if let (Some(lean), true) = (LeanCohort::of(&c), back_finite) {
                if push_back(q, lean) {
                    self.coalesce_oldest();
                }
                return;
            }
        }
        if push_back(self.cohorts.make_full(), c) {
            self.coalesce_oldest();
        }
    }

    /// Appends many cohorts.
    pub fn push_all(&mut self, cs: impl IntoIterator<Item = Cohort>) {
        for c in cs {
            self.push(c);
        }
    }

    /// Removes up to `n` events from the front, FIFO, splitting the
    /// boundary cohort as needed. Returns the removed cohorts.
    pub fn take(&mut self, n: f64) -> Vec<Cohort> {
        let mut out = Vec::new();
        self.take_into(n, &mut out);
        out
    }

    /// [`CohortQueue::take`] that appends the removed cohorts to `out`
    /// instead of returning a new vector, so a caller can reuse one
    /// buffer for every take.
    pub fn take_into(&mut self, n: f64, out: &mut Vec<Cohort>) {
        match &mut self.cohorts {
            Cohorts::Lean(q) => take_front(q, &mut self.total, n, out),
            Cohorts::Full(q) => take_front(q, &mut self.total, n, out),
        }
        if self.cohorts.len() == 0 {
            self.total = 0.0; // absorb float dust
        }
    }

    /// Removes *all* events; the emptied queue is lean again.
    pub fn drain(&mut self) -> Vec<Cohort> {
        self.total = 0.0;
        match &mut self.cohorts {
            Cohorts::Lean(q) => q.drain(..).map(|c| c.cohort()).collect(),
            Cohorts::Full(q) => {
                let all = q.drain(..).collect();
                self.cohorts = Cohorts::default();
                all
            }
        }
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
    /// with selectivity σ emits its processed events).
    pub fn scaled(cohorts: &[Cohort], factor: f64) -> Vec<Cohort> {
        scaled_iter(cohorts, factor).collect()
    }

    /// Merges the oldest half of the queue pairwise, preserving total
    /// count and count-weighted mean birth/latency.
    fn coalesce_oldest(&mut self) {
        let pairs = self.cohorts.len() / 4;
        // As in `push`: lean pair merges need finite weights.
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

/// The lazy form of [`CohortQueue::scaled`], for pushing scaled copies
/// straight into another queue.
pub(crate) fn scaled_iter<'a>(
    cohorts: impl IntoIterator<Item = &'a Cohort> + 'a,
    factor: f64,
) -> impl Iterator<Item = Cohort> + 'a {
    cohorts.into_iter().filter_map(move |c| {
        let count = c.count * factor;
        (count > 0.0).then_some(Cohort { count, ..*c })
    })
}

/// Pushes `c` onto `q`, merging it into the tail when compatible.
/// Returns true when the queue has grown past [`MAX_COHORTS`].
fn push_back<T: Slot>(q: &mut VecDeque<T>, c: T) -> bool {
    if let Some(back) = q.back_mut() {
        if (back.birth().secs() - c.birth().secs()).abs() < MERGE_EPS
            && (back.net_latency() - c.net_latency()).abs() < MERGE_EPS
        {
            // Count-weighted ledger mean keeps attribution conserved;
            // with xray off both ledgers are birth-fresh values and
            // the mean is a no-op on the components.
            let (wa, wb) = (back.count(), c.count());
            back.merge_ledger(wa, &c, wb);
            *back.count_mut() += wb;
            return false;
        }
    }
    q.push_back(c);
    q.len() > MAX_COHORTS
}

fn take_front<T: Slot>(q: &mut VecDeque<T>, total: &mut f64, n: f64, out: &mut Vec<Cohort>) {
    let mut remaining = n.max(0.0);
    while remaining > 1e-12 {
        let Some(front) = q.front_mut() else {
            break;
        };
        let count = front.count();
        if count <= remaining + 1e-12 {
            remaining -= count;
            *total -= count;
            out.push(front.cohort());
            q.pop_front();
        } else {
            *front.count_mut() -= remaining;
            *total -= remaining;
            let mut taken = front.cohort();
            taken.count = remaining;
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
/// slot `i`, then the vacated slots `[k, 2k)` are drained.
fn coalesce_front<T: Slot>(q: &mut VecDeque<T>, k: usize) {
    for i in 0..k {
        let (mut a, b) = (q[2 * i], q[2 * i + 1]);
        let (wa, wb) = (a.count(), b.count());
        let count = wa + wb;
        a.merge_ledger(wa, &b, wb);
        a.set_birth_latency(
            SimTime((a.birth().secs() * wa + b.birth().secs() * wb) / count),
            (a.net_latency() * wa + b.net_latency() * wb) / count,
        );
        *a.count_mut() = count;
        q[i] = a;
    }
    q.drain(k..2 * k);
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
        let mut q = CohortQueue::new();
        for i in 0..10_000 {
            q.push(Cohort::new(SimTime(i as f64), 1.0));
        }
        assert!(q.len_cohorts() <= 4096 + 1);
        assert!((q.len_events() - 10_000.0).abs() < 1e-6);
        // FIFO order by birth is preserved.
        let drained = q.drain();
        for w in drained.windows(2) {
            assert!(w[0].birth <= w[1].birth);
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
