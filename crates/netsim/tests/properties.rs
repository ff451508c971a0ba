//! Property-based tests for the network substrate: max-min fairness
//! invariants, trace algebra, and statistics helpers.

use proptest::prelude::*;
use wasp_netsim::network::{FlowDemand, Network};
use wasp_netsim::site::{SiteId, SiteKind};
use wasp_netsim::stats::{quantile, summarize, Zipf};
use wasp_netsim::topology::TopologyBuilder;
use wasp_netsim::trace::FactorSeries;
use wasp_netsim::units::{Mbps, MegaBytes, Millis, SimTime};

/// A small fully-connected network with the given uniform capacity.
fn network(n_sites: u16, capacity: f64) -> Network {
    let mut b = TopologyBuilder::new();
    for i in 0..n_sites {
        b.add_site(format!("s{i}"), SiteKind::DataCenter, 4);
    }
    b.set_all_links(Mbps(capacity), Millis(10.0));
    Network::new(b.build().expect("valid topology"))
}

fn flow_strategy(n_sites: u16) -> impl Strategy<Value = FlowDemand> {
    (0..n_sites, 0..n_sites, 0.0f64..50.0)
        .prop_map(|(a, b, d)| FlowDemand::new(SiteId(a), SiteId(b), Mbps(d)))
}

proptest! {
    /// Max-min allocation never exceeds a flow's demand nor any link's
    /// capacity, and never goes negative.
    #[test]
    fn allocation_respects_demand_and_capacity(
        flows in proptest::collection::vec(flow_strategy(4), 1..20),
        capacity in 1.0f64..100.0,
    ) {
        let net = network(4, capacity);
        let rates = net.allocate(&flows, SimTime::ZERO);
        prop_assert_eq!(rates.len(), flows.len());
        for (f, r) in flows.iter().zip(&rates) {
            prop_assert!(r.0 >= -1e-9);
            prop_assert!(r.0 <= f.demand.0 + 1e-6);
        }
        for a in 0..4u16 {
            for b in 0..4u16 {
                if a == b { continue; }
                let used: f64 = flows.iter().zip(&rates)
                    .filter(|(f, _)| f.from == SiteId(a) && f.to == SiteId(b))
                    .map(|(_, r)| r.0)
                    .sum();
                prop_assert!(used <= capacity + 1e-6, "link {a}->{b} used {used}");
            }
        }
    }

    /// Max-min allocations are Pareto-efficient on congested links: if
    /// a flow got less than its demand, its link is (near) saturated.
    #[test]
    fn unsatisfied_flows_sit_on_saturated_links(
        flows in proptest::collection::vec(flow_strategy(3), 1..12),
        capacity in 1.0f64..40.0,
    ) {
        let net = network(3, capacity);
        let rates = net.allocate(&flows, SimTime::ZERO);
        for (i, (f, r)) in flows.iter().zip(&rates).enumerate() {
            if f.from == f.to { continue; }
            if r.0 + 1e-6 < f.demand.0 {
                let used: f64 = flows.iter().zip(&rates)
                    .filter(|(g, _)| g.from == f.from && g.to == f.to)
                    .map(|(_, r)| r.0)
                    .sum();
                prop_assert!(
                    used + 1e-6 >= capacity,
                    "flow {i} starved on unsaturated link ({used} < {capacity})"
                );
            }
        }
    }

    /// Combining factor series is pointwise multiplication on the
    /// combined series' own sample grid (a zero-order-hold resampling
    /// cannot represent change points that fall between grid points,
    /// so off-grid equality is not guaranteed in general).
    #[test]
    fn factor_series_combine_is_pointwise_product(
        a_samples in proptest::collection::vec(0.1f64..3.0, 1..20),
        b_samples in proptest::collection::vec(0.1f64..3.0, 1..20),
        a_int in 1u32..60,
        b_int in 1u32..60,
        idx in 0usize..64,
    ) {
        let a = FactorSeries::from_samples(a_int as f64, a_samples);
        let b = FactorSeries::from_samples(b_int as f64, b_samples);
        let c = a.combine(&b);
        let grid = if c.interval_s().is_finite() { c.interval_s() } else { 1.0 };
        // Probe mid-cell: ZOH equality holds away from cell edges.
        let t = SimTime((idx as f64 + 0.5) * grid);
        let expected = a.factor_at(t) * b.factor_at(t);
        prop_assert!((c.factor_at(t) - expected).abs() < 1e-9,
            "combine mismatch at {t}: {} vs {expected}", c.factor_at(t));
    }

    /// Transfer time scales linearly in volume and inversely in
    /// bandwidth.
    #[test]
    fn transfer_time_scaling(mb in 0.1f64..1000.0, bw in 0.1f64..500.0) {
        let t = MegaBytes(mb).transfer_time(Mbps(bw));
        let t2 = MegaBytes(2.0 * mb).transfer_time(Mbps(bw));
        let th = MegaBytes(mb).transfer_time(Mbps(2.0 * bw));
        prop_assert!((t2 - 2.0 * t).abs() < 1e-6);
        prop_assert!((th - t / 2.0).abs() < 1e-6);
    }

    /// Zipf PMFs are normalized and monotone non-increasing in rank.
    #[test]
    fn zipf_pmf_invariants(n in 1usize..200, alpha in 0.0f64..3.0) {
        let z = Zipf::new(n, alpha);
        let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for k in 1..n {
            prop_assert!(z.pmf(k - 1) + 1e-12 >= z.pmf(k));
        }
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantile_invariants(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&xs, lo).unwrap();
        let b = quantile(&xs, hi).unwrap();
        prop_assert!(a <= b + 1e-9);
        let s = summarize(&xs).unwrap();
        prop_assert!(a >= s.min - 1e-9 && b <= s.max + 1e-9);
    }
}

// ---------------------------------------------------------------------
// `Network::allocate` against the HashMap-keyed reference it replaced.
// ---------------------------------------------------------------------

mod allocate_oracle {
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};
    use wasp_netsim::network::{AllocScratch, FlowDemand, Network};
    use wasp_netsim::site::{SiteId, SiteKind};
    use wasp_netsim::topology::TopologyBuilder;
    use wasp_netsim::trace::FactorSeries;
    use wasp_netsim::units::{Mbps, Millis, SimTime};

    /// The reference max-min allocation: resources keyed in hash maps,
    /// member lists in flow order. `egress`/`ingress` are the caps the
    /// network was given.
    fn reference(
        net: &Network,
        egress: &[Option<f64>],
        ingress: &[Option<f64>],
        flows: &[FlowDemand],
        t: SimTime,
    ) -> Vec<f64> {
        #[derive(Hash, PartialEq, Eq, Clone, Copy)]
        enum Res {
            Pair(SiteId, SiteId),
            Egress(SiteId),
            Ingress(SiteId),
        }
        let mut capacity: HashMap<Res, f64> = HashMap::new();
        let mut members: HashMap<Res, Vec<usize>> = HashMap::new();
        for (i, f) in flows.iter().enumerate() {
            if f.from == f.to {
                continue;
            }
            let pair = Res::Pair(f.from, f.to);
            capacity
                .entry(pair)
                .or_insert_with(|| net.available(f.from, f.to, t).0);
            members.entry(pair).or_default().push(i);
            if let Some(cap) = egress[f.from.index()] {
                let r = Res::Egress(f.from);
                capacity.entry(r).or_insert(cap);
                members.entry(r).or_default().push(i);
            }
            if let Some(cap) = ingress[f.to.index()] {
                let r = Res::Ingress(f.to);
                capacity.entry(r).or_insert(cap);
                members.entry(r).or_default().push(i);
            }
        }
        let n = flows.len();
        let mut rate = vec![0.0f64; n];
        let mut frozen = vec![false; n];
        for (i, f) in flows.iter().enumerate() {
            if f.from == f.to {
                rate[i] = f.demand.0.max(0.0);
                frozen[i] = true;
            }
        }
        loop {
            let active: Vec<usize> = (0..n).filter(|&i| !frozen[i]).collect();
            if active.is_empty() {
                break;
            }
            let mut inc = f64::INFINITY;
            for (res, cap) in &capacity {
                let mem = &members[res];
                let used: f64 = mem.iter().map(|&i| rate[i]).sum();
                let k = mem.iter().filter(|&&i| !frozen[i]).count();
                if k > 0 {
                    let headroom = (cap - used).max(0.0);
                    inc = inc.min(headroom / k as f64);
                }
            }
            for &i in &active {
                inc = inc.min((flows[i].demand.0.max(0.0) - rate[i]).max(0.0));
            }
            if !inc.is_finite() {
                for &i in &active {
                    rate[i] = flows[i].demand.0.max(0.0);
                    frozen[i] = true;
                }
                break;
            }
            for &i in &active {
                rate[i] += inc;
            }
            let mut any_frozen = false;
            for &i in &active {
                if rate[i] + 1e-12 >= flows[i].demand.0.max(0.0) {
                    frozen[i] = true;
                    any_frozen = true;
                }
            }
            for (res, cap) in &capacity {
                let mem = &members[res];
                let used: f64 = mem.iter().map(|&i| rate[i]).sum();
                if used + 1e-9 >= *cap {
                    for &i in mem {
                        if !frozen[i] {
                            frozen[i] = true;
                            any_frozen = true;
                        }
                    }
                }
            }
            if !any_frozen {
                for &i in &active {
                    frozen[i] = true;
                }
            }
        }
        rate
    }

    /// SplitMix64 stream describing one random network and flow set.
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

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random networks with per-pair capacities (some zero),
        /// egress/ingress caps, pair and global factors, scripted and
        /// transient cross traffic, and flow sets mixing inter- and
        /// intra-site flows: every rate equals the reference bit for
        /// bit, from `allocate` and from `allocate_into` with one
        /// workspace kept across three flow sets.
        #[test]
        fn allocate_matches_reference_bitwise(seed in 0u64..u64::MAX) {
            let mut g = Gen(seed);
            let m = 2 + g.below(6);
            let mut b = TopologyBuilder::new();
            let sites: Vec<SiteId> = (0..m)
                .map(|i| b.add_site(format!("s{i}"), SiteKind::DataCenter, 4))
                .collect();
            for &from in &sites {
                for &to in &sites {
                    // No link at all leaves the pair at zero capacity.
                    if from != to && g.unit() < 0.85 {
                        let cap = if g.unit() < 0.1 { 0.0 } else { 1.0 + 99.0 * g.unit() };
                        b.set_link(from, to, Mbps(cap), Millis(10.0));
                    }
                }
            }
            let mut net = Network::new(b.build().expect("valid topology"));
            let mut egress = vec![None; m];
            let mut ingress = vec![None; m];
            for (i, &s) in sites.iter().enumerate() {
                if g.unit() < 0.3 {
                    let cap = 5.0 + 150.0 * g.unit();
                    net.set_egress_cap(s, Mbps(cap));
                    egress[i] = Some(cap);
                }
                if g.unit() < 0.3 {
                    let cap = 5.0 + 150.0 * g.unit();
                    net.set_ingress_cap(s, Mbps(cap));
                    ingress[i] = Some(cap);
                }
            }
            let t = SimTime(100.0 * g.unit());
            let mut transient = BTreeMap::new();
            for _ in 0..g.below(4) {
                let (from, to) = (sites[g.below(m)], sites[g.below(m)]);
                match g.below(3) {
                    0 => net.set_pair_factor(
                        from,
                        to,
                        FactorSeries::steps(1.0, &[(50.0, 0.2 + g.unit())]),
                    ),
                    1 => net.add_cross_traffic(from, to, FactorSeries::constant(40.0 * g.unit())),
                    _ => {
                        transient.insert((from, to), 30.0 * g.unit());
                    }
                }
            }
            net.set_transient_cross_traffic(transient);
            if g.unit() < 0.3 {
                net.set_global_factor(FactorSeries::constant(0.3 + g.unit()));
            }
            // Several flow sets through one kept workspace: each call
            // must leave it as it found it.
            let mut scratch = AllocScratch::default();
            for _ in 0..3 {
                let flows: Vec<FlowDemand> = (0..1 + g.below(40))
                    .map(|_| {
                        let demand = if g.unit() < 0.05 { 0.0 } else { 60.0 * g.unit() };
                        FlowDemand::new(sites[g.below(m)], sites[g.below(m)], Mbps(demand))
                    })
                    .collect();
                let want: Vec<u64> = reference(&net, &egress, &ingress, &flows, t)
                    .iter()
                    .map(|r| r.to_bits())
                    .collect();
                let got: Vec<u64> = net.allocate(&flows, t).iter().map(|r| r.0.to_bits()).collect();
                prop_assert_eq!(&got, &want);
                let kept: Vec<u64> = net
                    .allocate_into(&flows, t, &mut scratch)
                    .iter()
                    .map(|r| r.0.to_bits())
                    .collect();
                prop_assert_eq!(kept, want);
            }
        }
    }
}
