//! Property-based tests for the stream-engine substrate: cohort-queue
//! conservation, plan validation, placement arithmetic, and the exact
//! executor's algebraic laws.

use proptest::prelude::*;
use wasp_netsim::site::SiteId;
use wasp_netsim::units::SimTime;
use wasp_streamsim::cohort::{Cohort, CohortQueue};
use wasp_streamsim::exact::{hash_join, multi_hash_join, top_k, window_aggregate, Event};
use wasp_streamsim::physical::Placement;

fn cohort_strategy() -> impl Strategy<Value = Cohort> {
    (0.0f64..1000.0, 0.01f64..5000.0).prop_map(|(birth, count)| Cohort::new(SimTime(birth), count))
}

fn event_strategy(keys: u64) -> impl Strategy<Value = Event> {
    (0.0f64..60.0, 0..keys, 0.0f64..5.0).prop_map(|(t, k, v)| Event::new(t, k, v.floor()))
}

proptest! {
    /// Pushing then taking conserves the event count exactly, in FIFO
    /// order.
    #[test]
    fn cohort_queue_conserves_mass(
        cohorts in proptest::collection::vec(cohort_strategy(), 1..60),
        take_fracs in proptest::collection::vec(0.0f64..1.5, 1..10),
    ) {
        let total: f64 = cohorts.iter().map(|c| c.count).sum();
        let mut q = CohortQueue::new();
        // Births must be non-decreasing for queue pushes.
        let mut sorted = cohorts.clone();
        sorted.sort_by(|a, b| a.birth.partial_cmp(&b.birth).unwrap());
        q.push_all(sorted);
        prop_assert!((q.len_events() - total).abs() < 1e-6 * total.max(1.0));
        let mut taken = 0.0;
        for f in take_fracs {
            let n = f * total / 4.0;
            let out = q.take(n);
            taken += out.iter().map(|c| c.count).sum::<f64>();
            // FIFO: births inside one take are non-decreasing.
            for w in out.windows(2) {
                prop_assert!(w[0].birth <= w[1].birth);
            }
        }
        prop_assert!((taken + q.len_events() - total).abs() < 1e-6 * total.max(1.0),
            "taken {taken} + left {} != {total}", q.len_events());
    }

    /// `scaled` multiplies every count by the factor and nothing else.
    #[test]
    fn cohort_scaling_is_linear(
        cohorts in proptest::collection::vec(cohort_strategy(), 1..30),
        factor in 0.0f64..3.0,
    ) {
        let total: f64 = cohorts.iter().map(|c| c.count).sum();
        let scaled = CohortQueue::scaled(&cohorts, factor);
        let scaled_total: f64 = scaled.iter().map(|c| c.count).sum();
        prop_assert!((scaled_total - factor * total).abs() < 1e-6 * total.max(1.0));
    }

    /// `drop_late` removes exactly the cohorts older than the SLO.
    #[test]
    fn drop_late_is_exact(
        cohorts in proptest::collection::vec(cohort_strategy(), 1..40),
        now in 0.0f64..2000.0,
        slo in 0.0f64..500.0,
    ) {
        let mut sorted = cohorts.clone();
        sorted.sort_by(|a, b| a.birth.partial_cmp(&b.birth).unwrap());
        let expected_drop: f64 = sorted
            .iter()
            .take_while(|c| c.delay_at(SimTime(now)) > slo)
            .map(|c| c.count)
            .sum();
        let mut q = CohortQueue::new();
        q.push_all(sorted);
        let dropped = q.drop_late(SimTime(now), slo);
        prop_assert!((dropped - expected_drop).abs() < 1e-6 * expected_drop.max(1.0));
    }

    /// Placement set-difference identities (the §4.1 migration sets).
    #[test]
    fn placement_set_differences(
        old_sites in proptest::collection::btree_map(0u16..10, 1u32..4, 1..6),
        new_sites in proptest::collection::btree_map(0u16..10, 1u32..4, 1..6),
    ) {
        let old: Placement = old_sites.iter().map(|(&s, &n)| (SiteId(s), n)).collect();
        let new: Placement = new_sites.iter().map(|(&s, &n)| (SiteId(s), n)).collect();
        let removed = old.sites_removed(&new);
        let added = old.sites_added(&new);
        for s in &removed {
            prop_assert!(old.tasks_at(*s) > 0 && new.tasks_at(*s) == 0);
        }
        for s in &added {
            prop_assert!(new.tasks_at(*s) > 0 && old.tasks_at(*s) == 0);
        }
        // No site is both removed and added.
        for s in &removed {
            prop_assert!(!added.contains(s));
        }
    }

    /// Windowed join is commutative for arbitrary streams.
    #[test]
    fn join_commutative(
        a in proptest::collection::vec(event_strategy(6), 0..60),
        b in proptest::collection::vec(event_strategy(6), 0..60),
        window in 1.0f64..30.0,
    ) {
        prop_assert_eq!(hash_join(&a, &b, window), hash_join(&b, &a, window));
    }

    /// All left-deep evaluation orders of a 3-way join agree.
    #[test]
    fn join_associative(
        a in proptest::collection::vec(event_strategy(4), 0..40),
        b in proptest::collection::vec(event_strategy(4), 0..40),
        c in proptest::collection::vec(event_strategy(4), 0..40),
        window in 1.0f64..30.0,
    ) {
        let left = hash_join(&hash_join(&a, &b, window), &c, window);
        let right = hash_join(&a, &hash_join(&b, &c, window), window);
        prop_assert_eq!(&left, &right);
        if !a.is_empty() || !b.is_empty() {
            let multi = multi_hash_join(&[a, b, c], window);
            prop_assert_eq!(&multi, &left);
        }
    }

    /// Window aggregation conserves contributing events (sum-count
    /// aggregate equals input size) and emits at most one record per
    /// (window, key).
    #[test]
    fn window_aggregate_conserves(
        events in proptest::collection::vec(event_strategy(5), 0..120),
        window in 1.0f64..30.0,
    ) {
        let out = window_aggregate(&events, window, |vs| vs.len() as f64);
        let total: f64 = out.iter().map(|e| e.value).sum();
        prop_assert_eq!(total as usize, events.len());
        // Uniqueness of (window, key).
        let mut seen = std::collections::BTreeSet::new();
        for e in &out {
            let w = (e.time / window).floor() as i64;
            prop_assert!(seen.insert((w, e.key)), "duplicate ({w}, {})", e.key);
        }
    }

    /// Top-k emits at most k results per (window, key), with counts
    /// sorted descending within each group.
    #[test]
    fn top_k_bounds(
        events in proptest::collection::vec(event_strategy(3), 0..150),
        window in 5.0f64..30.0,
        k in 1usize..5,
    ) {
        let out = top_k(&events, window, k);
        let mut per_group: std::collections::BTreeMap<(i64, u64), Vec<f64>> =
            std::collections::BTreeMap::new();
        for e in &out {
            let w = (e.time / window).floor() as i64;
            per_group.entry((w, e.key)).or_default().push(e.value);
        }
        for (g, counts) in per_group {
            prop_assert!(counts.len() <= k, "group {g:?} has {} > {k}", counts.len());
            for w in counts.windows(2) {
                prop_assert!(w[0] + 1e-9 >= w[1], "not sorted: {counts:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Engine-level properties: random small worlds.
// ---------------------------------------------------------------------

mod engine_props {
    use proptest::prelude::*;
    use wasp_netsim::dynamics::DynamicsScript;
    use wasp_netsim::network::Network;
    use wasp_netsim::site::{SiteId, SiteKind};
    use wasp_netsim::topology::TopologyBuilder;
    use wasp_netsim::units::{Mbps, Millis};
    use wasp_streamsim::engine::{Engine, EngineConfig};
    use wasp_streamsim::operator::{OperatorKind, OperatorSpec};
    use wasp_streamsim::physical::PhysicalPlan;
    use wasp_streamsim::plan::{LogicalPlan, LogicalPlanBuilder};

    /// A random linear pipeline over a small fully-connected world.
    fn build(n_sites: u16, link_mbps: f64, rate: f64, sigmas: &[f64]) -> (Network, LogicalPlan) {
        let mut b = TopologyBuilder::new();
        for i in 0..n_sites {
            b.add_site(format!("s{i}"), SiteKind::DataCenter, 8);
        }
        b.set_all_links(Mbps(link_mbps), Millis(15.0));
        let net = Network::new(b.build().unwrap());
        let mut p = LogicalPlanBuilder::new("prop");
        let mut prev = p.add(OperatorSpec::new(
            "src",
            OperatorKind::Source {
                site: SiteId(0),
                base_rate: rate,
                event_bytes: 20.0,
            },
        ));
        for (i, &sigma) in sigmas.iter().enumerate() {
            let op = p.add(
                OperatorSpec::new(format!("op{i}"), OperatorKind::Map)
                    .with_selectivity(sigma)
                    .with_cost_us(2.0),
            );
            p.connect(prev, op);
            prev = op;
        }
        let sink = p.add(OperatorSpec::new("sink", OperatorKind::Sink { site: None }));
        p.connect(prev, sink);
        (net, p.build().unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// With ample bandwidth, delivered ≈ generated × Πσ — the
        /// engine conserves fluid mass through arbitrary selectivity
        /// chains, including amplifying (σ > 1) operators.
        #[test]
        fn engine_conserves_through_selectivity_chains(
            sigmas in proptest::collection::vec(0.2f64..2.0, 1..4),
            rate in 100.0f64..3000.0,
        ) {
            let (net, plan) = build(3, 1000.0, rate, &sigmas);
            let e2e = plan.end_to_end_selectivity();
            let physical = PhysicalPlan::initial(&plan, SiteId(1));
            let mut engine = Engine::new(
                net,
                DynamicsScript::none(),
                plan,
                physical,
                EngineConfig { dt: 0.5, ..EngineConfig::default() },
            )
            .unwrap();
            engine.run(120.0);
            let m = engine.metrics();
            let expected = m.total_generated() * e2e;
            let ratio = m.total_delivered() / expected.max(1e-9);
            prop_assert!(
                (0.9..=1.02).contains(&ratio),
                "ratio {ratio} (σs {sigmas:?}, rate {rate})"
            );
            prop_assert_eq!(m.total_dropped(), 0.0);
        }

        /// Delivered events never exceed what the source generated
        /// times the plan selectivity, even under severe network
        /// constraints (no event is fabricated).
        #[test]
        fn engine_never_fabricates_events(
            link in 0.5f64..20.0,
            rate in 1000.0f64..20_000.0,
        ) {
            let (net, plan) = build(2, link, rate, &[0.5]);
            let e2e = plan.end_to_end_selectivity();
            let physical = PhysicalPlan::initial(&plan, SiteId(1));
            let mut engine = Engine::new(
                net,
                DynamicsScript::none(),
                plan,
                physical,
                EngineConfig { dt: 0.5, ..EngineConfig::default() },
            )
            .unwrap();
            engine.run(200.0);
            let m = engine.metrics();
            prop_assert!(
                m.total_delivered() <= m.total_generated() * e2e * 1.0001,
                "delivered {} > generated×σ {}",
                m.total_delivered(),
                m.total_generated() * e2e
            );
        }
    }
}

// ---------------------------------------------------------------------
// CohortQueue against the reference queue it replaced.
// ---------------------------------------------------------------------

mod cohort_queue_oracle {
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use wasp_netsim::units::SimTime;
    use wasp_streamsim::cohort::{Cohort, CohortBatch, CohortQueue};
    use wasp_xray::DelayLedger;

    /// The reference queue: every cohort stored in full, coalescing by
    /// popping pairs off the front and pushing the merged ones back.
    #[derive(Default)]
    struct OracleQueue {
        cohorts: VecDeque<Cohort>,
        total: f64,
        coalesces: usize,
    }

    const MERGE_EPS: f64 = 1e-9;
    const MAX_COHORTS: usize = 4096;

    impl OracleQueue {
        fn push(&mut self, c: Cohort) {
            if c.count <= 0.0 {
                return;
            }
            self.total += c.count;
            if let Some(back) = self.cohorts.back_mut() {
                if (back.birth.secs() - c.birth.secs()).abs() < MERGE_EPS
                    && (back.net_latency - c.net_latency).abs() < MERGE_EPS
                {
                    let (wa, wb) = (back.count, c.count);
                    back.xray.merge_weighted(wa, &c.xray, wb);
                    back.count += c.count;
                    return;
                }
            }
            self.cohorts.push_back(c);
            if self.cohorts.len() > MAX_COHORTS {
                self.coalesce_oldest();
            }
        }

        fn take(&mut self, n: f64) -> Vec<Cohort> {
            let mut remaining = n.max(0.0);
            let mut out = Vec::new();
            while remaining > 1e-12 {
                let Some(front) = self.cohorts.front_mut() else {
                    break;
                };
                if front.count <= remaining + 1e-12 {
                    remaining -= front.count;
                    self.total -= front.count;
                    out.push(*front);
                    self.cohorts.pop_front();
                } else {
                    front.count -= remaining;
                    self.total -= remaining;
                    let mut taken = *front;
                    taken.count = remaining;
                    out.push(taken);
                    remaining = 0.0;
                }
            }
            if self.cohorts.is_empty() {
                self.total = 0.0;
            }
            out
        }

        fn drain(&mut self) -> Vec<Cohort> {
            self.total = 0.0;
            self.cohorts.drain(..).collect()
        }

        fn drop_late(&mut self, now: SimTime, max_delay: f64) -> f64 {
            let mut dropped = 0.0;
            while let Some(front) = self.cohorts.front() {
                if front.delay_at(now) > max_delay {
                    dropped += front.count;
                    self.total -= front.count;
                    self.cohorts.pop_front();
                } else {
                    break;
                }
            }
            if self.cohorts.is_empty() {
                self.total = 0.0;
            }
            dropped
        }

        fn coalesce_oldest(&mut self) {
            self.coalesces += 1;
            let merge_n = self.cohorts.len() / 2;
            let mut merged: Vec<Cohort> = Vec::with_capacity(merge_n / 2 + 1);
            for _ in 0..merge_n / 2 {
                let a = self.cohorts.pop_front().unwrap();
                let b = self.cohorts.pop_front().unwrap();
                let count = a.count + b.count;
                let mut xray = a.xray;
                xray.merge_weighted(a.count, &b.xray, b.count);
                merged.push(Cohort {
                    birth: SimTime((a.birth.secs() * a.count + b.birth.secs() * b.count) / count),
                    count,
                    net_latency: (a.net_latency * a.count + b.net_latency * b.count) / count,
                    xray,
                });
            }
            for c in merged.into_iter().rev() {
                self.cohorts.push_front(c);
            }
        }
    }

    /// How two `f64`s compare: `f64::to_bits` (bit for bit) or
    /// [`nan_blind`].
    type Key = fn(f64) -> u64;

    /// The bits of `v`, with every NaN mapped to one. Only for runs
    /// that feed NaN counts in: the sign and payload of a NaN result
    /// depend on which operand LLVM puts first, and the queue's NaN
    /// bits differ from this reference's on such inputs (identically
    /// so before the batch move path was added).
    fn nan_blind(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    fn bits(c: &Cohort, key: Key) -> [u64; 12] {
        let l = &c.xray;
        [
            c.birth.secs(),
            c.count,
            c.net_latency,
            l.queue,
            l.service,
            l.transit,
            l.backpressure,
            l.migration,
            l.control,
            l.attributed_until,
            l.mark_pause,
            l.mark_fail,
        ]
        .map(key)
    }

    fn same(a: &[Cohort], b: &[Cohort]) -> bool {
        same_by(a, b, f64::to_bits)
    }

    fn same_by(a: &[Cohort], b: &[Cohort], key: Key) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x, key) == bits(y, key))
    }

    /// SplitMix64 stream driving one random operation sequence.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A cohort born at `birth`: unstamped, stamped, or carrying a
    /// `-0.0` component (equal to `0.0`, but not bitwise).
    fn cohort(g: &mut Gen, birth: f64, stamp_rate: f64) -> Cohort {
        let mut c = Cohort::new(SimTime(birth), 0.5 + 100.0 * g.unit());
        if g.unit() < 0.3 {
            c.net_latency = [0.05, 0.2][(g.next() % 2) as usize];
            c.xray.attributed_until = birth + c.net_latency;
        }
        let r = g.unit();
        if r < stamp_rate / 2.0 {
            c.xray = DelayLedger::new(birth);
            c.xray.queue = g.unit();
            c.xray.mark_pause = 3.0 * g.unit();
        } else if r < stamp_rate {
            c.xray.transit = -0.0;
        }
        c
    }

    /// Non-finite counts: merging with an infinite weight turns the
    /// zero ledger components into NaN, so the queue must keep such
    /// cohorts in full form.
    #[test]
    fn non_finite_counts_match_reference_bitwise() {
        for counts in [
            [f64::INFINITY, 1.0],
            [1.0, f64::INFINITY],
            [f64::MAX, f64::MAX],
        ] {
            let mut q = CohortQueue::new();
            let mut o = OracleQueue::default();
            for count in counts.into_iter().chain([2.0]) {
                let c = Cohort::new(SimTime(1.0), count);
                q.push(c);
                o.push(c);
            }
            assert!(same(&q.drain(), &o.drain()), "counts {counts:?}");
        }
    }

    /// `PROPTEST_CASES` override of `default` (the vendored proptest
    /// only honours the in-config count, so the env var is resolved
    /// here).
    fn cases(default: u32) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Checks that `q` and the reference `o` agree on every observable
    /// bit (as `key` sees it), and that `q` holds no more than
    /// [`MAX_COHORTS`] cohorts.
    fn check(q: &CohortQueue, o: &OracleQueue, what: &str, key: Key) -> Result<(), String> {
        let (events, want_events) = (q.len_events(), o.total);
        prop_assert_eq!(
            key(events),
            key(want_events),
            "{what}: {events} events, reference {want_events}"
        );
        let (n, want_n) = (q.len_cohorts(), o.cohorts.len());
        prop_assert_eq!(n, want_n, "{what}: {n} cohorts, reference {want_n}");
        prop_assert!(n <= MAX_COHORTS, "{what}: {n} cohorts");
        let oldest = q.oldest_birth().map(|b| b.secs());
        let want_oldest = o.cohorts.front().map(|c| c.birth.secs());
        prop_assert_eq!(
            oldest.map(key),
            want_oldest.map(key),
            "{what}: oldest birth {oldest:?}, reference {want_oldest:?}"
        );
        Ok(())
    }

    /// Pushes a burst of up to 3000 cohorts onto `q` and `o`: repeated
    /// births merge into the tail, long bursts trigger coalescing.
    /// With `huge_rate`, that share of counts is `f64::MAX`, so merges
    /// overflow to infinite counts, and an eighth of it is NaN.
    fn push_burst(
        g: &mut Gen,
        q: &mut CohortQueue,
        o: &mut OracleQueue,
        clock: &mut f64,
        stamp_rate: f64,
        huge_rate: f64,
    ) -> Result<(), String> {
        let n = (g.next() % 3000) as usize;
        for _ in 0..n {
            if g.unit() < 0.7 {
                *clock += g.unit();
            }
            let mut c = cohort(g, *clock, stamp_rate);
            let r = g.unit();
            if r < huge_rate / 8.0 {
                c.count = f64::NAN;
            } else if r < huge_rate {
                c.count = f64::MAX;
            }
            q.push(c);
            o.push(c);
            prop_assert!(q.len_cohorts() <= MAX_COHORTS);
        }
        Ok(())
    }

    /// Runs `steps` random operations on `q` and the reference `o`:
    /// push bursts, takes (into a reused batch with `batch`), late
    /// drops and drains, checking after each that the two agree bit for
    /// bit.
    fn exercise(
        g: &mut Gen,
        q: &mut CohortQueue,
        o: &mut OracleQueue,
        clock: &mut f64,
        steps: usize,
        stamp_rate: f64,
        batch: bool,
    ) -> Result<(), String> {
        let mut buf = CohortBatch::new();
        for step in 0..steps {
            let op = g.next() % 20;
            if op < 14 {
                push_burst(g, q, o, clock, stamp_rate, 0.0)?;
            } else if op < 18 {
                let n = o.total * g.unit() * 0.5;
                let want = o.take(n);
                if batch {
                    q.take_batch(n, &mut buf);
                    prop_assert_eq!(buf.len(), want.len());
                    let got: Vec<Cohort> = buf.iter().collect();
                    prop_assert!(same(&got, &want), "take_batch({n}) differs at step {step}");
                } else {
                    prop_assert!(same(&q.take(n), &want), "take({n}) differs at step {step}");
                }
            } else if op < 19 {
                let max_delay = 50.0 * g.unit();
                let now = SimTime(*clock);
                let (got, want) = (q.drop_late(now, max_delay), o.drop_late(now, max_delay));
                prop_assert_eq!(got.to_bits(), want.to_bits());
            } else {
                prop_assert!(same(&q.drain(), &o.drain()), "drain differs at step {step}");
            }
            check(q, o, &format!("step {step}"), f64::to_bits)?;
        }
        Ok(())
    }

    /// The reference of a move: `cohorts` pushed one by one, counts
    /// multiplied by `factor` when given and then kept only if
    /// positive.
    fn oracle_push(o: &mut OracleQueue, cohorts: &[Cohort], factor: Option<f64>) {
        for &c in cohorts {
            match factor {
                None => o.push(c),
                Some(f) => {
                    let count = c.count * f;
                    if count > 0.0 {
                        o.push(Cohort { count, ..c });
                    }
                }
            }
        }
    }

    /// Scale factors a move draws from: none, exact, zero, negative,
    /// fractional, and large enough to overflow counts to infinity.
    fn factor(g: &mut Gen) -> Option<f64> {
        [
            None,
            Some(1.0),
            Some(0.0),
            Some(-0.5),
            Some(0.37),
            Some(0.5 + g.unit()),
            Some(2.5),
            Some(f64::MAX),
        ][(g.next() % 8) as usize]
    }

    /// Moves cohorts from a source queue `a` into a destination `b`
    /// through the batch and whole-queue pushes, against the reference
    /// pair `oa`/`ob`, checking both pairs after every operation.
    fn exercise_moves(
        g: &mut Gen,
        steps: usize,
        stamp_rate: f64,
        huge_rate: f64,
    ) -> Result<(usize, usize), String> {
        let (mut a, mut oa) = (CohortQueue::new(), OracleQueue::default());
        let (mut b, mut ob) = (CohortQueue::new(), OracleQueue::default());
        let mut batch = CohortBatch::new();
        let mut clock = 0.0;
        // NaN counts come in only with `huge_rate`; every other run is
        // compared bit for bit.
        let key: Key = if huge_rate > 0.0 {
            nan_blind
        } else {
            f64::to_bits
        };
        for step in 0..steps {
            let op = g.next() % 20;
            if op < 9 {
                push_burst(g, &mut a, &mut oa, &mut clock, stamp_rate, huge_rate)?;
            } else if op < 15 {
                // Batch take + push: the batch holds exactly what the
                // reference take returns, and pushing it (scaled or
                // not) matches pushing those cohorts one by one.
                let n = oa.total * g.unit() * 0.7;
                let want = oa.take(n);
                a.take_batch(n, &mut batch);
                let got: Vec<Cohort> = batch.iter().collect();
                prop_assert!(
                    same_by(&got, &want, key),
                    "take_batch({n}) differs at step {step}"
                );
                let f = factor(g);
                b.push_batch(&batch, f);
                oracle_push(&mut ob, &want, f);
            } else if op < 17 {
                // A whole queue pushed, scaled or not; the source stays.
                let f = factor(g);
                b.push_queue(&a, f);
                let all: Vec<Cohort> = oa.cohorts.iter().copied().collect();
                oracle_push(&mut ob, &all, f);
            } else if op < 18 {
                let n = ob.total * g.unit();
                prop_assert!(
                    same_by(&b.take(n), &ob.take(n), key),
                    "take({n}) differs at step {step}"
                );
            } else if op < 19 {
                prop_assert!(
                    same_by(&b.drain(), &ob.drain(), key),
                    "drain of b differs at step {step}"
                );
            } else {
                prop_assert!(
                    same_by(&a.drain(), &oa.drain(), key),
                    "drain of a differs at step {step}"
                );
            }
            check(&a, &oa, &format!("source, step {step}"), key)?;
            check(&b, &ob, &format!("destination, step {step}"), key)?;
        }
        prop_assert!(same_by(&a.drain(), &oa.drain(), key));
        prop_assert!(same_by(&b.drain(), &ob.drain(), key));
        Ok((oa.coalesces, ob.coalesces))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases(24)))]

        /// Random push/take/drain/drop_late sequences that cross the
        /// coalescing threshold several times: every returned cohort,
        /// `len_events` and `len_cohorts` equal the reference queue's
        /// bit for bit, whichever storage the queue is in.
        #[test]
        fn cohort_queue_matches_reference_bitwise(
            seed in 0u64..u64::MAX,
            stamp_rate in 0.0f64..0.002,
            stamped_run in proptest::bool::ANY,
        ) {
            let stamp_rate = if stamped_run { stamp_rate } else { 0.0 };
            let mut g = Gen(seed);
            let mut q = CohortQueue::new();
            let mut o = OracleQueue::default();
            let mut clock = 0.0;
            exercise(&mut g, &mut q, &mut o, &mut clock, 80, stamp_rate, false)?;
            prop_assert!(o.coalesces >= 3, "only {} coalesces", o.coalesces);
            prop_assert!(same(&q.drain(), &o.drain()));
        }

        /// `take_batch` into a reused batch holds exactly the cohorts
        /// `take` returns, in either storage.
        #[test]
        fn take_batch_holds_what_take_returns(
            seed in 0u64..u64::MAX,
            stamp_rate in 0.0f64..0.002,
            stamped_run in proptest::bool::ANY,
        ) {
            let stamp_rate = if stamped_run { stamp_rate } else { 0.0 };
            let mut g = Gen(seed);
            let mut q = CohortQueue::new();
            let mut o = OracleQueue::default();
            let mut clock = 0.0;
            exercise(&mut g, &mut q, &mut o, &mut clock, 60, stamp_rate, true)?;
            prop_assert!(same(&q.drain(), &o.drain()));
        }

        /// Batch take + push, and scaled or unscaled pushes of a batch
        /// and of a whole queue, equal pushing the cohorts one by one
        /// into the reference, bit for bit: lean, stamped and `-0.0`
        /// ledgers, zero, negative and overflowing scale factors, and
        /// infinite and NaN counts, across at least three coalesces.
        /// Runs that feed NaN counts in compare NaNs by NaN-ness only
        /// (see `nan_blind`).
        #[test]
        fn batch_and_queue_moves_match_reference_bitwise(
            seed in 0u64..u64::MAX,
            stamp_rate in 0.0f64..0.002,
            stamped_run in proptest::bool::ANY,
            huge in proptest::bool::ANY,
        ) {
            let stamp_rate = if stamped_run { stamp_rate } else { 0.0 };
            let huge_rate = if huge { 0.0005 } else { 0.0 };
            let mut g = Gen(seed);
            let (ca, cb) = exercise_moves(&mut g, 80, stamp_rate, huge_rate)?;
            prop_assert!(ca + cb >= 3, "only {ca} + {cb} coalesces");
        }

        /// After `clear`, a queue in lean or full (stamped) storage
        /// behaves bit for bit like `CohortQueue::new()` under any later
        /// push/take sequence.
        #[test]
        fn cleared_queue_behaves_like_a_new_one(
            seed in 0u64..u64::MAX,
            stamp_rate in 0.0f64..0.002,
            full in proptest::bool::ANY,
        ) {
            let mut g = Gen(seed);
            let mut q = CohortQueue::new();
            let mut clock = 0.0;
            for _ in 0..(g.next() % 6000) {
                clock += g.unit();
                q.push(cohort(&mut g, clock, 0.0));
            }
            if full {
                // A stamped ledger turns the storage full.
                let mut c = Cohort::new(SimTime(clock), 1.0);
                c.xray.queue = 0.5;
                q.push(c);
            }
            q.take(q.len_events() * g.unit());
            q.clear();
            prop_assert_eq!(q.len_events().to_bits(), 0.0f64.to_bits());
            prop_assert_eq!(q.len_cohorts(), 0);
            let mut o = OracleQueue::default();
            exercise(&mut g, &mut q, &mut o, &mut clock, 40, stamp_rate, false)?;
            prop_assert!(same(&q.drain(), &o.drain()));
        }
    }
}
