//! Dynamic network state and max-min fair bandwidth allocation.
//!
//! [`Network`] layers time-varying availability (factor traces) on top
//! of a static [`Topology`] and answers two questions for the
//! simulator and the adaptation controller:
//!
//! 1. *What is the available bandwidth from s1 to s2 right now?*
//!    (`B_{s2,s1}` in the paper's Table 1 — what the WAN Monitor
//!    would report.)
//! 2. *Given a set of concurrent flows with demands, what rate does
//!    each flow actually get?* Flows sharing a congested directed pair
//!    (and, optionally, a site's egress/ingress uplink) split it
//!    max-min fairly, the standard fluid model for TCP-like sharing.

use crate::site::SiteId;
use crate::topology::Topology;
use crate::trace::FactorSeries;
use crate::units::{Mbps, Millis, SimTime};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use wasp_metrics::{Gauge, MetricsHub};

/// Working space of [`Network::allocate_into`], kept by a caller that
/// allocates bandwidth repeatedly (the engine, once per tick).
#[derive(Debug, Clone, Default)]
pub struct AllocScratch {
    /// Resource slot per directed pair (`from * sites + to`); `UNUSED`
    /// between calls.
    pair_slot: Vec<usize>,
    /// Resource slot per egress-capped site; `UNUSED` between calls.
    egress_slot: Vec<usize>,
    /// Resource slot per ingress-capped site; `UNUSED` between calls.
    ingress_slot: Vec<usize>,
    /// Capacity per resource slot.
    capacity: Vec<f64>,
    /// Rate per flow (Mbps) while filling.
    rate: Vec<f64>,
    frozen: Vec<bool>,
    /// (resource, flow) memberships in flow order.
    uses: Vec<(usize, usize)>,
    /// Per resource, the start of its members in `members`.
    start: Vec<usize>,
    members: Vec<usize>,
    fill: Vec<usize>,
    /// Flows not yet frozen in the current filling round.
    active: Vec<usize>,
    /// The call's result.
    rates: Vec<Mbps>,
}

/// A flow's bandwidth demand between two sites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowDemand {
    /// Source site.
    pub from: SiteId,
    /// Destination site.
    pub to: SiteId,
    /// Offered load.
    pub demand: Mbps,
}

impl FlowDemand {
    /// Convenience constructor.
    pub fn new(from: SiteId, to: SiteId, demand: Mbps) -> FlowDemand {
        FlowDemand { from, to, demand }
    }
}

/// Time-varying wide-area network: a topology plus per-link
/// multiplicative factor traces and optional per-site uplink caps.
///
/// # Examples
///
/// ```
/// use wasp_netsim::network::{FlowDemand, Network};
/// use wasp_netsim::site::SiteKind;
/// use wasp_netsim::topology::TopologyBuilder;
/// use wasp_netsim::trace::FactorSeries;
/// use wasp_netsim::units::{Mbps, Millis, SimTime};
///
/// let mut b = TopologyBuilder::new();
/// let a = b.add_site("a", SiteKind::DataCenter, 8);
/// let c = b.add_site("c", SiteKind::DataCenter, 8);
/// b.set_symmetric_link(a, c, Mbps(100.0), Millis(30.0));
/// let mut net = Network::new(b.build()?);
/// net.set_pair_factor(a, c, FactorSeries::steps(1.0, &[(900.0, 0.5)]));
///
/// assert_eq!(net.available(a, c, SimTime(0.0)), Mbps(100.0));
/// assert_eq!(net.available(a, c, SimTime(900.0)), Mbps(50.0));
///
/// // Two flows share the halved link max-min fairly.
/// let flows = [FlowDemand::new(a, c, Mbps(40.0)), FlowDemand::new(a, c, Mbps(40.0))];
/// let rates = net.allocate(&flows, SimTime(900.0));
/// assert_eq!(rates, vec![Mbps(25.0), Mbps(25.0)]);
/// # Ok::<(), wasp_netsim::topology::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    topology: Topology,
    pair_factors: HashMap<(SiteId, SiteId), FactorSeries>,
    global_factor: FactorSeries,
    egress_cap: Vec<Option<Mbps>>,
    ingress_cap: Vec<Option<Mbps>>,
    /// Cross traffic from *other* executions sharing the WAN (§3.2
    /// lists bandwidth contention with other executions as a source of
    /// dynamics): Mbps consumed on a directed pair over time.
    cross_traffic: Vec<(SiteId, SiteId, FactorSeries)>,
    /// Instantaneous cross traffic replaced wholesale each tick — how
    /// a co-scheduler couples several executions over one WAN.
    transient_cross: HashMap<(SiteId, SiteId), f64>,
    /// Metrics hub for per-link utilization recording (disabled by
    /// default; [`Network::allocate`] takes `&self`, hence the
    /// interior-mutable gauge cache).
    hub: MetricsHub,
    /// Lazily created per-directed-pair (allocated Mbps, utilization
    /// ratio) gauges.
    link_gauges: RefCell<BTreeMap<(SiteId, SiteId), (Gauge, Gauge)>>,
}

impl Network {
    /// Wraps a static topology with unit (no-variation) dynamics.
    pub fn new(topology: Topology) -> Network {
        let m = topology.num_sites();
        Network {
            topology,
            pair_factors: HashMap::new(),
            global_factor: FactorSeries::unit(),
            egress_cap: vec![None; m],
            ingress_cap: vec![None; m],
            cross_traffic: Vec::new(),
            transient_cross: HashMap::new(),
            hub: MetricsHub::disabled(),
            link_gauges: RefCell::new(BTreeMap::new()),
        }
    }

    /// Attaches a metrics hub; every subsequent [`Network::allocate`]
    /// records per-directed-link allocated Mbps and utilization ratio
    /// gauges into it. Costs one branch per allocation when disabled.
    pub fn set_metrics(&mut self, hub: MetricsHub) {
        self.hub = hub;
        self.link_gauges.borrow_mut().clear();
    }

    /// Replaces the *transient* cross traffic (Mbps per directed
    /// pair) — typically another engine's link usage from the previous
    /// tick, installed by a multi-query co-scheduler. Unlike
    /// [`Network::add_cross_traffic`], calling this again replaces the
    /// previous map.
    pub fn set_transient_cross_traffic(
        &mut self,
        usage: std::collections::BTreeMap<(SiteId, SiteId), f64>,
    ) {
        self.transient_cross = usage.into_iter().collect();
    }

    /// Adds cross traffic on a directed pair: `mbps_series` gives the
    /// Mbps consumed by *other* executions over time. Cross traffic
    /// takes its share first; [`Network::available`] and
    /// [`Network::allocate`] both see only the remainder — which is
    /// what an iperf-style WAN Monitor would measure.
    pub fn add_cross_traffic(&mut self, from: SiteId, to: SiteId, mbps_series: FactorSeries) {
        self.cross_traffic.push((from, to, mbps_series));
    }

    /// Total cross traffic on a pair at time `t` (Mbps), scripted plus
    /// transient.
    pub fn cross_traffic_at(&self, from: SiteId, to: SiteId, t: SimTime) -> Mbps {
        let scripted: f64 = self
            .cross_traffic
            .iter()
            .filter(|(f, d, _)| *f == from && *d == to)
            .map(|(_, _, s)| s.factor_at(t))
            .sum();
        let transient = self
            .transient_cross
            .get(&(from, to))
            .copied()
            .unwrap_or(0.0);
        Mbps(scripted + transient)
    }

    /// The underlying static topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Sets the factor trace of one directed pair.
    pub fn set_pair_factor(&mut self, from: SiteId, to: SiteId, series: FactorSeries) {
        self.pair_factors.insert((from, to), series);
    }

    /// Multiplies `series` into the factor trace of one directed pair,
    /// preserving any factor already installed (used when a dynamics
    /// script layers link blackouts over existing per-link dynamics).
    pub fn combine_pair_factor(&mut self, from: SiteId, to: SiteId, series: &FactorSeries) {
        let combined = match self.pair_factors.get(&(from, to)) {
            Some(existing) => existing.combine(series),
            None => series.clone(),
        };
        self.pair_factors.insert((from, to), combined);
    }

    /// Sets a factor trace applied to *every* link (used by the §8.4
    /// "halve the bandwidth of every link" script).
    pub fn set_global_factor(&mut self, series: FactorSeries) {
        self.global_factor = series;
    }

    /// Returns the factor trace applied to every link.
    pub fn global_factor(&self) -> &FactorSeries {
        &self.global_factor
    }

    /// Caps the total egress bandwidth of a site (models an edge
    /// cluster's access uplink).
    pub fn set_egress_cap(&mut self, site: SiteId, cap: Mbps) {
        self.egress_cap[site.index()] = Some(cap);
    }

    /// Caps the total ingress bandwidth of a site.
    pub fn set_ingress_cap(&mut self, site: SiteId, cap: Mbps) {
        self.ingress_cap[site.index()] = Some(cap);
    }

    /// One-way latency (static; the paper varies bandwidth, not
    /// latency).
    pub fn latency(&self, from: SiteId, to: SiteId) -> Millis {
        self.topology.latency(from, to)
    }

    /// Available bandwidth of the directed pair at time `t` — base
    /// capacity times the pair factor times the global factor.
    ///
    /// This is what the paper's WAN Monitor reports to the Job Manager.
    pub fn available(&self, from: SiteId, to: SiteId, t: SimTime) -> Mbps {
        let base = self.topology.capacity(from, to);
        if base.0.is_infinite() {
            return base;
        }
        let pair = self
            .pair_factors
            .get(&(from, to))
            .map(|s| s.factor_at(t))
            .unwrap_or(1.0);
        let capacity = base * (pair * self.global_factor.factor_at(t));
        (capacity - self.cross_traffic_at(from, to, t)).max(Mbps::ZERO)
    }

    /// Max-min fair allocation of `flows` at time `t`.
    ///
    /// Each flow is constrained by its own demand, its directed pair's
    /// available bandwidth, and (when set) the egress cap of its source
    /// site and the ingress cap of its destination site. The returned
    /// vector is parallel to `flows`.
    ///
    /// Intra-site flows (`from == to`) are unconstrained by the network
    /// and always receive their full demand.
    pub fn allocate(&self, flows: &[FlowDemand], t: SimTime) -> Vec<Mbps> {
        self.allocate_into(flows, t, &mut AllocScratch::default())
            .to_vec()
    }

    /// [`Network::allocate`] over the caller's working space `sc`: a
    /// caller that keeps `sc` from call to call makes no heap
    /// allocation once its buffers have grown to the flow count. The
    /// returned rates live in `sc` until the next call.
    pub fn allocate_into<'s>(
        &self,
        flows: &[FlowDemand],
        t: SimTime,
        sc: &'s mut AllocScratch,
    ) -> &'s [Mbps] {
        let AllocScratch {
            pair_slot,
            egress_slot,
            ingress_slot,
            capacity,
            rate,
            frozen,
            uses,
            start,
            members,
            fill,
            active,
            rates,
        } = sc;
        // Resources (pair links, egress caps, ingress caps) get dense
        // slots in first-use order. Their members are listed in flow
        // order, so every `used` sum below adds in one fixed order.
        // The slot tables hold `UNUSED` between calls: this call resets
        // the entries it sets before returning.
        const UNUSED: usize = usize::MAX;
        let m = self.topology.num_sites();
        if pair_slot.len() != m * m {
            pair_slot.clear();
            pair_slot.resize(m * m, UNUSED);
            egress_slot.clear();
            egress_slot.resize(m, UNUSED);
            ingress_slot.clear();
            ingress_slot.resize(m, UNUSED);
        }
        capacity.clear();
        fn slot(s: &mut usize, capacity: &mut Vec<f64>, cap: impl FnOnce() -> f64) -> usize {
            if *s == UNUSED {
                *s = capacity.len();
                capacity.push(cap());
            }
            *s
        }

        let n = flows.len();
        rate.clear();
        rate.resize(n, 0.0);
        frozen.clear();
        frozen.resize(n, false);
        // (resource, flow) memberships in flow order.
        uses.clear();
        for (i, f) in flows.iter().enumerate() {
            if f.from == f.to {
                // Intra-site flows are satisfied immediately.
                rate[i] = f.demand.0.max(0.0);
                frozen[i] = true;
                continue;
            }
            let (a, b) = (f.from.index(), f.to.index());
            let pair = slot(&mut pair_slot[a * m + b], capacity, || {
                self.available(f.from, f.to, t).0
            });
            uses.push((pair, i));
            if let Some(cap) = self.egress_cap[a] {
                uses.push((slot(&mut egress_slot[a], capacity, || cap.0), i));
            }
            if let Some(cap) = self.ingress_cap[b] {
                uses.push((slot(&mut ingress_slot[b], capacity, || cap.0), i));
            }
        }
        for f in flows.iter().filter(|f| f.from != f.to) {
            let (a, b) = (f.from.index(), f.to.index());
            pair_slot[a * m + b] = UNUSED;
            egress_slot[a] = UNUSED;
            ingress_slot[b] = UNUSED;
        }
        // Members of resource r are `members[start[r]..start[r + 1]]`.
        start.clear();
        start.resize(capacity.len() + 1, 0);
        for &(r, _) in uses.iter() {
            start[r + 1] += 1;
        }
        for r in 0..capacity.len() {
            start[r + 1] += start[r];
        }
        members.clear();
        members.resize(uses.len(), 0);
        fill.clear();
        fill.extend_from_slice(start);
        for &(r, i) in uses.iter() {
            members[fill[r]] = i;
            fill[r] += 1;
        }
        let members_of = |r: usize| &members[start[r]..start[r + 1]];

        // Progressive filling: raise all unfrozen flows' rates in
        // lock-step until a flow hits its demand or a resource
        // saturates; freeze and repeat.
        loop {
            active.clear();
            active.extend((0..n).filter(|&i| !frozen[i]));
            if active.is_empty() {
                break;
            }
            // Max uniform increment allowed by each resource.
            let mut inc = f64::INFINITY;
            for (r, cap) in capacity.iter().enumerate() {
                let mem = members_of(r);
                let k = mem.iter().filter(|&&i| !frozen[i]).count();
                if k > 0 {
                    let used: f64 = mem.iter().map(|&i| rate[i]).sum();
                    let headroom = (cap - used).max(0.0);
                    inc = inc.min(headroom / k as f64);
                }
            }
            // Max increment before some active flow reaches its demand.
            for &i in active.iter() {
                inc = inc.min((flows[i].demand.0.max(0.0) - rate[i]).max(0.0));
            }
            if !inc.is_finite() {
                // No binding resource: all active flows get their
                // demand.
                for &i in active.iter() {
                    rate[i] = flows[i].demand.0.max(0.0);
                    frozen[i] = true;
                }
                break;
            }
            for &i in active.iter() {
                rate[i] += inc;
            }
            // Freeze demand-satisfied flows.
            let mut any_frozen = false;
            for &i in active.iter() {
                if rate[i] + 1e-12 >= flows[i].demand.0.max(0.0) {
                    frozen[i] = true;
                    any_frozen = true;
                }
            }
            // Freeze flows on saturated resources (a resource whose
            // members are all frozen has nothing left to freeze).
            for (r, cap) in capacity.iter().enumerate() {
                let mem = members_of(r);
                if mem.iter().all(|&i| frozen[i]) {
                    continue;
                }
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
                // Numerical safety: freeze everything to guarantee
                // termination (should not normally trigger).
                for &i in active.iter() {
                    frozen[i] = true;
                }
            }
        }
        if self.hub.is_enabled() {
            self.record_allocation(flows, rate, t);
        }
        rates.clear();
        rates.extend(rate.iter().map(|&r| Mbps(r)));
        rates
    }

    /// Records the just-computed allocation into per-directed-link
    /// gauges: total Mbps granted on the pair and the fraction of the
    /// pair's currently available bandwidth it consumes.
    fn record_allocation(&self, flows: &[FlowDemand], rates: &[f64], t: SimTime) {
        let mut per_pair: BTreeMap<(SiteId, SiteId), f64> = BTreeMap::new();
        for (f, &r) in flows.iter().zip(rates) {
            if f.from != f.to && r > 0.0 {
                *per_pair.entry((f.from, f.to)).or_insert(0.0) += r;
            }
        }
        let mut gauges = self.link_gauges.borrow_mut();
        for ((from, to), mbps) in per_pair {
            let (alloc, util) = gauges.entry((from, to)).or_insert_with(|| {
                let from_name = self.topology.site(from).name().to_string();
                let to_name = self.topology.site(to).name().to_string();
                let labels = [("from", from_name.as_str()), ("to", to_name.as_str())];
                (
                    self.hub.gauge(
                        "wasp_link_allocated_mbps",
                        "Mbps granted on the directed link at the last allocation",
                        &labels,
                    ),
                    self.hub.gauge(
                        "wasp_link_utilization_ratio",
                        "Granted Mbps over currently available Mbps on the directed link",
                        &labels,
                    ),
                )
            });
            alloc.set(mbps);
            let avail = self.available(from, to, t).0;
            util.set(if avail.is_finite() && avail > 0.0 {
                mbps / avail
            } else {
                0.0
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::SiteKind;
    use crate::topology::TopologyBuilder;

    fn triangle() -> (Network, SiteId, SiteId, SiteId) {
        let mut b = TopologyBuilder::new();
        let a = b.add_site("a", SiteKind::DataCenter, 8);
        let c = b.add_site("c", SiteKind::DataCenter, 8);
        let d = b.add_site("d", SiteKind::DataCenter, 8);
        b.set_all_links(Mbps(100.0), Millis(20.0));
        (Network::new(b.build().unwrap()), a, c, d)
    }

    #[test]
    fn available_applies_factors() {
        let (mut net, a, c, _) = triangle();
        net.set_pair_factor(a, c, FactorSeries::constant(0.4));
        net.set_global_factor(FactorSeries::steps(1.0, &[(10.0, 0.5)]));
        assert_eq!(net.available(a, c, SimTime(0.0)), Mbps(40.0));
        assert_eq!(net.available(a, c, SimTime(10.0)), Mbps(20.0));
        // Unaffected pair only sees the global factor.
        assert_eq!(net.available(c, a, SimTime(10.0)), Mbps(50.0));
    }

    #[test]
    fn undemanding_flows_get_their_demand() {
        let (net, a, c, d) = triangle();
        let flows = [
            FlowDemand::new(a, c, Mbps(10.0)),
            FlowDemand::new(a, d, Mbps(20.0)),
        ];
        let rates = net.allocate(&flows, SimTime::ZERO);
        assert_eq!(rates, vec![Mbps(10.0), Mbps(20.0)]);
    }

    #[test]
    fn congested_link_splits_fairly() {
        let (net, a, c, _) = triangle();
        let flows = [
            FlowDemand::new(a, c, Mbps(90.0)),
            FlowDemand::new(a, c, Mbps(90.0)),
        ];
        let rates = net.allocate(&flows, SimTime::ZERO);
        assert!((rates[0].0 - 50.0).abs() < 1e-6);
        assert!((rates[1].0 - 50.0).abs() < 1e-6);
    }

    #[test]
    fn max_min_gives_leftover_to_big_flow() {
        let (net, a, c, _) = triangle();
        // Small flow wants 10, big flow wants 200 on a 100 Mbps link:
        // small gets 10, big gets 90.
        let flows = [
            FlowDemand::new(a, c, Mbps(10.0)),
            FlowDemand::new(a, c, Mbps(200.0)),
        ];
        let rates = net.allocate(&flows, SimTime::ZERO);
        assert!((rates[0].0 - 10.0).abs() < 1e-6);
        assert!((rates[1].0 - 90.0).abs() < 1e-6);
    }

    #[test]
    fn egress_cap_constrains_across_pairs() {
        let (mut net, a, c, d) = triangle();
        net.set_egress_cap(a, Mbps(60.0));
        let flows = [
            FlowDemand::new(a, c, Mbps(100.0)),
            FlowDemand::new(a, d, Mbps(100.0)),
        ];
        let rates = net.allocate(&flows, SimTime::ZERO);
        assert!((rates[0].0 - 30.0).abs() < 1e-6);
        assert!((rates[1].0 - 30.0).abs() < 1e-6);
    }

    #[test]
    fn ingress_cap_constrains_fan_in() {
        let (mut net, a, c, d) = triangle();
        net.set_ingress_cap(d, Mbps(40.0));
        let flows = [
            FlowDemand::new(a, d, Mbps(100.0)),
            FlowDemand::new(c, d, Mbps(100.0)),
        ];
        let rates = net.allocate(&flows, SimTime::ZERO);
        assert!((rates[0].0 - 20.0).abs() < 1e-6);
        assert!((rates[1].0 - 20.0).abs() < 1e-6);
    }

    #[test]
    fn intra_site_flows_are_unconstrained() {
        let (net, a, _, _) = triangle();
        let flows = [FlowDemand::new(a, a, Mbps(1e6))];
        let rates = net.allocate(&flows, SimTime::ZERO);
        assert_eq!(rates[0], Mbps(1e6));
    }

    #[test]
    fn zero_capacity_pair_gets_zero() {
        let mut b = TopologyBuilder::new();
        let a = b.add_site("a", SiteKind::Edge, 1);
        let c = b.add_site("c", SiteKind::Edge, 1);
        // No link set: capacity 0.
        let net = Network::new(b.build().unwrap());
        let rates = net.allocate(&[FlowDemand::new(a, c, Mbps(5.0))], SimTime::ZERO);
        assert_eq!(rates[0], Mbps::ZERO);
    }

    #[test]
    fn allocation_never_exceeds_capacity_or_demand() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (net, a, c, d) = triangle();
        let sites = [a, c, d];
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..200 {
            let flows: Vec<FlowDemand> = (0..rng.gen_range(1..10))
                .map(|_| {
                    FlowDemand::new(
                        sites[rng.gen_range(0..3)],
                        sites[rng.gen_range(0..3)],
                        Mbps(rng.gen_range(0.0..200.0)),
                    )
                })
                .collect();
            let rates = net.allocate(&flows, SimTime::ZERO);
            // Per-flow: rate <= demand.
            for (f, r) in flows.iter().zip(&rates) {
                assert!(r.0 <= f.demand.0 + 1e-6);
                assert!(r.0 >= -1e-9);
            }
            // Per-pair: sum of rates <= capacity.
            for &from in &sites {
                for &to in &sites {
                    if from == to {
                        continue;
                    }
                    let used: f64 = flows
                        .iter()
                        .zip(&rates)
                        .filter(|(f, _)| f.from == from && f.to == to)
                        .map(|(_, r)| r.0)
                        .sum();
                    assert!(used <= 100.0 + 1e-6, "pair {from}->{to} used {used}");
                }
            }
        }
    }
}

#[cfg(test)]
mod cross_traffic_tests {
    use super::*;
    use crate::site::SiteKind;
    use crate::topology::TopologyBuilder;

    fn pair_net() -> (Network, SiteId, SiteId) {
        let mut b = TopologyBuilder::new();
        let a = b.add_site("a", SiteKind::DataCenter, 4);
        let c = b.add_site("c", SiteKind::DataCenter, 4);
        b.set_symmetric_link(a, c, Mbps(100.0), Millis(10.0));
        (Network::new(b.build().unwrap()), a, c)
    }

    #[test]
    fn cross_traffic_reduces_availability() {
        let (mut net, a, c) = pair_net();
        // 0 Mbps of cross traffic before t = 50, then 60 Mbps.
        net.add_cross_traffic(a, c, FactorSeries::from_samples(50.0, vec![0.0, 60.0]));
        assert_eq!(net.available(a, c, SimTime(0.0)), Mbps(100.0));
        assert_eq!(net.available(a, c, SimTime(50.0)), Mbps(40.0));
        // The reverse direction is untouched.
        assert_eq!(net.available(c, a, SimTime(50.0)), Mbps(100.0));
    }

    #[test]
    fn cross_traffic_never_drives_availability_negative() {
        let (mut net, a, c) = pair_net();
        net.add_cross_traffic(a, c, FactorSeries::constant(500.0));
        assert_eq!(net.available(a, c, SimTime(0.0)), Mbps::ZERO);
    }

    #[test]
    fn cross_traffic_accumulates() {
        let (mut net, a, c) = pair_net();
        net.add_cross_traffic(a, c, FactorSeries::constant(30.0));
        net.add_cross_traffic(a, c, FactorSeries::constant(20.0));
        assert_eq!(net.cross_traffic_at(a, c, SimTime(0.0)), Mbps(50.0));
        assert_eq!(net.available(a, c, SimTime(0.0)), Mbps(50.0));
    }

    #[test]
    fn allocation_respects_cross_traffic() {
        let (mut net, a, c) = pair_net();
        net.add_cross_traffic(a, c, FactorSeries::constant(80.0));
        let flows = [FlowDemand::new(a, c, Mbps(50.0))];
        let rates = net.allocate(&flows, SimTime::ZERO);
        assert!((rates[0].0 - 20.0).abs() < 1e-9, "got {}", rates[0].0);
    }
}
