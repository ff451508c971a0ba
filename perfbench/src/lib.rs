//! Outside-in benchmark of the WASP simulator.
//!
//! Each workload is a Top-K query under the WASP controller with the
//! §8.6 live dynamics. The benchmark builds every scenario from the
//! repository's public building blocks and runs its own copy of the
//! `run_controlled` loop, so each call into a simulator crate can be
//! timed from outside: `Engine::step` (streamsim), `on_monitor` (core
//! and optimizer), the set-up calls, and the observability exports.
//!
//! Everything is single-threaded: the engine's parallelism is never
//! changed from its sequential default, and `ScenarioConfig` (which
//! reads `WASP_SCENARIO_SEED` / `WASP_JOBS`) is never consulted — the
//! seed comes only from the caller.

pub mod trace;

use std::hint::black_box;
use std::time::Instant;
use trace::Tracer;
use wasp_controlplane::config::{ControlPlaneConfig, LossyControlConfig};
use wasp_core::controller::{Controller, WaspController};
use wasp_core::policy::PolicyConfig;
use wasp_metrics::MetricsHub;
use wasp_netsim::chaos::{ChaosConfig, ChaosInjector};
use wasp_netsim::dynamics::DynamicsScript;
use wasp_netsim::site::SiteId;
use wasp_netsim::testbed::{Testbed, TestbedConfig};
use wasp_netsim::trace::FactorSeries;
use wasp_state::{CompactionPolicy, PartitionConfig, StateModel};
use wasp_streamsim::engine::{CheckpointTarget, Engine, EngineConfig};
use wasp_streamsim::metrics::RunMetrics;
use wasp_streamsim::physical::PhysicalPlan;
use wasp_telemetry::{Event, Recording, RecordingHandle, Telemetry};
use wasp_workloads::prelude::{
    initial_deployment, recovery_times, to_jsonl, QueryKind, TwitterTrace,
    COMPACTION_EVERY_N_ROUNDS, SKEWED_SPLIT_THRESHOLD, XRAY_DEFAULT_WINDOW_S,
};

/// Simulated length of one scenario run (the paper's §8.6 shape).
pub const HORIZON_S: f64 = 1800.0;
/// Simulation tick.
pub const DT: f64 = 0.25;
/// Controller monitoring interval (the paper's 40 s).
pub const MONITOR_INTERVAL_S: f64 = 40.0;
/// α of the WAN-aware initial deployment, as `build_engine` uses it.
const DEPLOY_ALPHA: f64 = 0.8;
/// Remote checkpoint cadence of `churn_observed`.
const CHURN_CHECKPOINT_INTERVAL_S: f64 = 15.0;
/// Control-message loss rate of `churn_observed`.
const CHURN_CONTROL_LOSS: f64 = 0.05;
/// Keeps the chaos timeline's RNG stream apart from the dynamics'.
const CHAOS_SEED_SALT: u64 = 0xC4A0_5EED;
/// Metrics-hub scrape interval, as `wasp-report` uses it.
const HUB_SCRAPE_S: f64 = 10.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 16-site testbed, coarse state, oracle control plane,
    /// observability off: the engine tick does almost all the work.
    PaperLive,
    /// 64 edges + 8 DCs at the default per-source rate: 8× the input,
    /// a saturated WAN, and controller rounds that cost real time.
    WideSurge,
    /// 16 sites with chaos faults, partitioned state with splits and
    /// compaction, remote checkpoints, a lossy control plane, and all
    /// three observability layers on.
    ChurnObserved,
}

/// Which observability layers a scenario turns on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observability {
    /// Telemetry, metrics hub and xray all unset.
    Off,
    /// Telemetry recording and the metrics hub, no xray: used to count
    /// decisions on workloads that run with observability off.
    Counting,
    /// Telemetry recording, metrics hub and xray, as `wasp-report`
    /// runs them.
    Full,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperLive,
        Workload::WideSurge,
        Workload::ChurnObserved,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperLive => "paper_live",
            Workload::WideSurge => "wide_surge",
            Workload::ChurnObserved => "churn_observed",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn edges(self) -> usize {
        match self {
            Workload::WideSurge => 64,
            Workload::PaperLive | Workload::ChurnObserved => 8,
        }
    }

    /// Scenario seeds run back to back in one operation. The simulated
    /// outcome and the host cost of a run both vary from seed to seed;
    /// averaging over this many keeps an operation's figures steady
    /// from one benchmark seed to the next. One operation takes about
    /// 10 s of host time on the 16-site workloads and 40 s on
    /// `wide_surge` (2-vCPU x86-64 host).
    pub fn seeds_per_op(self) -> usize {
        match self {
            Workload::PaperLive | Workload::ChurnObserved => 32,
            Workload::WideSurge => 12,
        }
    }

    /// Scenario seeds of the traced run, a prefix of the timed run's:
    /// it runs each seed three times and must end within three minutes.
    pub fn traced_seeds_per_op(self) -> usize {
        match self {
            Workload::PaperLive | Workload::ChurnObserved => 32,
            Workload::WideSurge => 6,
        }
    }

    /// The scenario seeds of one operation for benchmark seed `seed`.
    /// Each is a SplitMix64 hash of (`seed`, index), not a run of
    /// consecutive integers: `DynamicsScript::section_8_6` seeds source
    /// `i`'s walk with `seed + 1 + i`, so consecutive scenario seeds
    /// share most of their workload walks and would average far less
    /// than their number suggests.
    pub fn scenario_seeds(self, seed: u64) -> Vec<u64> {
        let k = self.seeds_per_op() as u64;
        (0..k)
            .map(|i| splitmix64(seed.wrapping_mul(k).wrapping_add(i)))
            .collect()
    }

    /// The observability layers the workload runs with.
    pub fn observability(self) -> Observability {
        match self {
            Workload::ChurnObserved => Observability::Full,
            Workload::PaperLive | Workload::WideSurge => Observability::Off,
        }
    }

    fn state_model(self) -> StateModel {
        match self {
            Workload::ChurnObserved => StateModel::Partitioned(PartitionConfig {
                split_threshold: Some(SKEWED_SPLIT_THRESHOLD),
                compaction: CompactionPolicy::every_n_rounds(COMPACTION_EVERY_N_ROUNDS),
                ..PartitionConfig::default()
            }),
            Workload::PaperLive | Workload::WideSurge => StateModel::Coarse,
        }
    }
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash of `x`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A ready-to-run scenario: engine, controller and the observability
/// handles wired into them.
pub struct Scenario {
    /// The engine, at t = 0.
    pub engine: Engine,
    /// The WASP controller.
    pub controller: WaspController,
    /// End-to-end selectivity of the deployed plan.
    pub e2e_selectivity: f64,
    /// Telemetry recording, when telemetry is on.
    pub recording: Option<RecordingHandle>,
    /// Metrics hub (disabled when observability is off).
    pub hub: MetricsHub,
}

/// The §8.6 dynamics script with the Twitter diurnal pattern layered on
/// top, as `run_section_8_6` builds it.
fn section_8_6_script(tb: &Testbed, seed: u64, tr: &mut Tracer) -> DynamicsScript {
    let script = tr.span("netsim", "DynamicsScript::section_8_6", || {
        DynamicsScript::section_8_6(tb.edges(), HORIZON_S, seed)
    });
    tr.span("workloads", "TwitterTrace::diurnal_factor", move || {
        let mut script = script;
        let trace = TwitterTrace {
            seed,
            ..TwitterTrace::default()
        };
        for (c, &site) in tb.edges().iter().enumerate() {
            let samples: Vec<f64> = (0..60)
                .map(|i| trace.diurnal_factor(c, i as f64 * 30.0))
                .collect();
            script = script.with_workload(site, FactorSeries::from_samples(30.0, samples));
        }
        script
    })
}

/// The full chaos fault mix on the data centers other than the sink.
fn with_chaos(script: DynamicsScript, tb: &Testbed, seed: u64) -> DynamicsScript {
    let dcs: Vec<SiteId> = tb.data_centers()[1..].to_vec();
    let mut links = Vec::new();
    for &a in &dcs {
        for &b in &dcs {
            if a != b {
                links.push((a, b));
            }
        }
    }
    let injector = ChaosInjector::with_config(
        seed.wrapping_add(CHAOS_SEED_SALT),
        ChaosConfig::full(HORIZON_S),
    );
    injector.compile(script, &dcs, &links).0
}

/// Builds one scenario run of `workload` for scenario seed `seed`.
pub fn setup(workload: Workload, seed: u64, obs: Observability, tr: &mut Tracer) -> Scenario {
    let tb = tr.span("netsim", "Testbed::with_config", || {
        Testbed::with_config(TestbedConfig {
            edges: workload.edges(),
            seed,
            ..TestbedConfig::default()
        })
    });
    let sink = tb.data_centers()[0];
    let mut script = section_8_6_script(&tb, seed, tr);
    if workload == Workload::ChurnObserved {
        script = tr.span("netsim", "ChaosInjector::compile", || {
            with_chaos(script, &tb, seed)
        });
    }
    let plan = tr.span("workloads", "QueryKind::build", || {
        QueryKind::TopK.build_default(tb.edges(), sink)
    });
    let net = tr.span("netsim", "Testbed::static_network", || tb.static_network());
    let physical = tr.span("optimizer", "initial_deployment", || {
        initial_deployment(&plan, &net, DEPLOY_ALPHA)
            .unwrap_or_else(|_| PhysicalPlan::initial(&plan, sink))
    });
    let e2e_selectivity = plan.end_to_end_selectivity();

    let state_model = workload.state_model();
    let mut engine_cfg = EngineConfig {
        dt: DT,
        state_model,
        ..EngineConfig::default()
    };
    let mut control = ControlPlaneConfig::Oracle;
    if workload == Workload::ChurnObserved {
        // Snapshots rendezvous at a data center that does not host the
        // stateful stage, so every round is a real WAN flight.
        let host = physical.placement(plan.stateful_ops()[0]).sites()[0];
        let target = tb
            .data_centers()
            .iter()
            .copied()
            .find(|&s| s != host)
            .unwrap_or(sink);
        engine_cfg.checkpoint_interval_s = CHURN_CHECKPOINT_INTERVAL_S;
        engine_cfg.checkpoint_target = CheckpointTarget::Remote(target);
        control = ControlPlaneConfig::Lossy(LossyControlConfig {
            loss: CHURN_CONTROL_LOSS,
            seed,
            ..LossyControlConfig::default()
        });
    }
    let mut engine = tr.span("streamsim", "Engine::new", || {
        Engine::new(net, script, plan, physical, engine_cfg)
            .expect("the deployment was built from the same plan and network")
    });

    let (tel, recording) = match obs {
        Observability::Off => (Telemetry::disabled(), None),
        Observability::Counting | Observability::Full => {
            let (tel, handle) = Telemetry::recording();
            (tel, Some(handle))
        }
    };
    let hub = match obs {
        Observability::Off => MetricsHub::disabled(),
        Observability::Counting | Observability::Full => MetricsHub::recording(HUB_SCRAPE_S),
    };
    // Same wiring order as the scenario runners.
    engine.set_telemetry(tel.clone());
    if obs == Observability::Full {
        engine.enable_xray(XRAY_DEFAULT_WINDOW_S);
    }
    engine.set_metrics(hub.clone());
    if let ControlPlaneConfig::Lossy(lossy) = &control {
        engine.enable_lossy_control(lossy.clone());
    }
    let controller = tr.span("core", "WaspController::new", || {
        WaspController::new(PolicyConfig {
            state: state_model,
            ..PolicyConfig::default()
        })
        .with_telemetry(tel)
        .with_metrics(hub.clone())
        .with_control_plane(control)
    });
    Scenario {
        engine,
        controller,
        e2e_selectivity,
        recording,
        hub,
    }
}

/// Per-tick readings of a traced loop (call durations are in the
/// tracer's spans).
#[derive(Debug, Default)]
pub struct LoopProbe {
    /// Whether a transition was in progress when each step began.
    pub step_in_transition: Vec<bool>,
    /// Sum over ticks of `last_link_usage().len()`.
    pub active_links_sum: u64,
    /// Sum over ticks of the deployed task count.
    pub tasks_sum: u64,
}

/// What the end-of-run exports produced.
#[derive(Debug, Default)]
pub struct Exports {
    /// The xray snapshot's conservation error, when xray is on.
    pub conservation_error: Option<f64>,
    /// The telemetry log, when telemetry is on.
    pub recording: Option<Recording>,
    /// Controller rounds run.
    pub rounds: u64,
}

/// Runs the scenario for [`HORIZON_S`]: the `run_controlled` loop with
/// every layer call made from here, then the end-of-run observability
/// exports (`take_xray`, `render_prometheus`, the JSONL telemetry
/// export). `probe` collects per-tick readings when given; the tracer
/// records spans when enabled.
pub fn run_loop(sc: &mut Scenario, tr: &mut Tracer, mut probe: Option<&mut LoopProbe>) -> Exports {
    let engine = &mut sc.engine;
    let loop_span = tr.open("bench", "run_controlled");
    let mut rounds = 0;
    let end = engine.now().secs() + HORIZON_S;
    while engine.now().secs() < end - 1e-9 {
        let chunk = MONITOR_INTERVAL_S.min(end - engine.now().secs());
        // The step count `Engine::run` derives from a chunk.
        let steps = ((chunk / DT) - 0.5).ceil().max(0.0) as u64;
        for _ in 0..steps {
            if let Some(p) = probe.as_deref_mut() {
                p.step_in_transition.push(engine.in_transition());
            }
            tr.span("streamsim", "Engine::step", || engine.step());
            if let Some(p) = probe.as_deref_mut() {
                p.active_links_sum += engine.last_link_usage().len() as u64;
                p.tasks_sum += u64::from(engine.physical().total_tasks());
            }
        }
        if engine.now().secs() < end - 1e-9 {
            rounds += 1;
            tr.span("core", "Controller::on_monitor", || {
                sc.controller.on_monitor(engine)
            });
        }
    }
    let xray = tr.span("xray", "Engine::take_xray", || engine.take_xray());
    tr.span("metrics", "MetricsHub::render_prometheus", || {
        black_box(sc.hub.render_prometheus())
    });
    let recording = sc.recording.as_ref().map(|handle| {
        tr.span("telemetry", "to_jsonl", || {
            let rec = handle.recording();
            black_box(to_jsonl(&rec).expect("the telemetry log serializes"));
            rec
        })
    });
    tr.close(loop_span);
    Exports {
        conservation_error: xray.map(|x| x.conservation_error()),
        recording,
        rounds,
    }
}

/// The simulated outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// FNV-1a digest of the serialized `RunMetrics`.
    pub digest: u64,
    /// Events generated by all sources.
    pub generated: f64,
    /// Events delivered at the sink.
    pub delivered: f64,
    /// generated × the plan's end-to-end selectivity: what a lossless
    /// run would deliver.
    pub expected: f64,
    /// Median delivery delay, seconds.
    pub delay_p50_s: f64,
    /// 95th-percentile delivery delay, seconds.
    pub delay_p95_s: f64,
    /// Largest time-to-recover after a failure (0 with no failure).
    pub recovery_s: f64,
    /// The xray snapshot's conservation error, when xray is on.
    pub conservation_error: Option<f64>,
}

/// Serializes a recording the way the differential suites compare
/// them.
pub fn serialize_metrics(m: &RunMetrics) -> String {
    serde_json::to_string(m).expect("RunMetrics serializes")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Summarizes a finished run's recording and exports.
pub fn outcome(m: &RunMetrics, e2e_selectivity: f64, exports: &Exports) -> Outcome {
    let generated = m.total_generated();
    Outcome {
        digest: fnv1a(serialize_metrics(m).as_bytes()),
        generated,
        delivered: m.total_delivered(),
        expected: generated * e2e_selectivity,
        delay_p50_s: m.delay_quantile(0.5).unwrap_or(f64::NAN),
        delay_p95_s: m.delay_quantile(0.95).unwrap_or(f64::NAN),
        recovery_s: recovery_times(m)
            .into_iter()
            .map(|(_, r)| r)
            .fold(0.0, f64::max),
        conservation_error: exports.conservation_error,
    }
}

/// delivered / (generated × end-to-end selectivity), pooled over
/// `runs`.
pub fn processing_ratio(runs: &[Outcome]) -> f64 {
    let delivered: f64 = runs.iter().map(|o| o.delivered).sum();
    let expected: f64 = runs.iter().map(|o| o.expected).sum();
    delivered / expected
}

/// The output checks of one operation (its scenario runs and their
/// exports); returns the failures.
pub fn check(runs: &[Outcome]) -> Vec<String> {
    let mut failures = Vec::new();
    for o in runs {
        if !o.generated.is_finite() || o.generated <= 0.0 {
            failures.push(format!("generated {} events", o.generated));
        }
        if !(o.delay_p50_s.is_finite() && o.delay_p95_s.is_finite()) {
            failures.push("nothing was delivered".to_string());
        }
        if let Some(err) = o.conservation_error {
            if err.is_nan() || err > 1e-6 {
                failures.push(format!("xray conservation error {err:e} > 1e-6"));
            }
        }
    }
    let ratio = processing_ratio(runs);
    if !(ratio.is_finite() && (0.0..=1.0).contains(&ratio)) {
        failures.push(format!("processing_ratio {ratio} not in [0, 1]"));
    }
    failures
}

/// Counts taken from the public accessors after a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Controller rounds run.
    pub rounds: u64,
    /// Adaptation commands issued: telemetry `CommandApplied` events
    /// (oracle control plane) plus `ControlCommandEnqueued` events
    /// (lossy control plane, first sends only).
    pub actions: u64,
    /// Telemetry `CommandFailed` events.
    pub commands_failed: u64,
    /// Telemetry `CandidateConsidered` events.
    pub candidates: u64,
    /// Telemetry `CandidateRejected` events.
    pub candidates_rejected: u64,
    /// Telemetry `DecisionTaken` events.
    pub decisions: u64,
    /// Telemetry `MigrationStarted` events.
    pub migrations_started: u64,
    /// Telemetry `MigrationAborted` events.
    pub migrations_aborted: u64,
    /// Every telemetry event recorded.
    pub telemetry_events: u64,
    /// Completed checkpoint rounds (`checkpoint_stats`).
    pub checkpoint_rounds: u64,
    /// Full-snapshot compaction volume, MB.
    pub compaction_mb: f64,
    /// Runtime key-range splits.
    pub partition_splits: u64,
    /// Modeled recovery replay p95, seconds (0 with no replay).
    pub replay_p95_s: f64,
    /// Control commands that reached the engine.
    pub control_delivered: u64,
    /// Control commands or acks lost to the WAN.
    pub control_dropped: u64,
    /// Command re-sends after an ack timeout.
    pub control_retries: u64,
    /// Commands abandoned.
    pub control_gave_up: u64,
}

impl Counts {
    /// Adds another run's counts (the replay quantile too, so that a
    /// sum divided by the run count is a per-run mean).
    pub fn add(&mut self, o: &Counts) {
        self.rounds += o.rounds;
        self.actions += o.actions;
        self.commands_failed += o.commands_failed;
        self.candidates += o.candidates;
        self.candidates_rejected += o.candidates_rejected;
        self.decisions += o.decisions;
        self.migrations_started += o.migrations_started;
        self.migrations_aborted += o.migrations_aborted;
        self.telemetry_events += o.telemetry_events;
        self.checkpoint_rounds += o.checkpoint_rounds;
        self.compaction_mb += o.compaction_mb;
        self.partition_splits += o.partition_splits;
        self.replay_p95_s += o.replay_p95_s;
        self.control_delivered += o.control_delivered;
        self.control_dropped += o.control_dropped;
        self.control_retries += o.control_retries;
        self.control_gave_up += o.control_gave_up;
    }
}

fn hub_count(hub: &MetricsHub, family: &str) -> u64 {
    hub.counter(family, "", &[]).get() as u64
}

/// Reads the counts of a finished run. Decision counts need the
/// telemetry recording in `exports`; without it they stay 0.
pub fn counts(sc: &Scenario, exports: &Exports) -> Counts {
    let mut c = Counts {
        rounds: exports.rounds,
        ..Counts::default()
    };
    if let Some(rec) = &exports.recording {
        for (_, _, ev) in rec.events() {
            c.telemetry_events += 1;
            match ev {
                Event::CommandApplied { .. } | Event::ControlCommandEnqueued { .. } => {
                    c.actions += 1
                }
                Event::CommandFailed { .. } => c.commands_failed += 1,
                Event::CandidateConsidered { .. } => c.candidates += 1,
                Event::CandidateRejected { .. } => c.candidates_rejected += 1,
                Event::DecisionTaken { .. } => c.decisions += 1,
                Event::MigrationStarted { .. } => c.migrations_started += 1,
                Event::MigrationAborted { .. } => c.migrations_aborted += 1,
                _ => {}
            }
        }
    }
    let timeline = sc.engine.state_timeline();
    c.checkpoint_rounds = u64::from(sc.engine.checkpoint_stats().0);
    c.compaction_mb = timeline.total_compaction_mb();
    c.partition_splits = timeline.splits.len() as u64;
    c.replay_p95_s = timeline.replay_quantile(0.95).unwrap_or(0.0);
    c.control_delivered = hub_count(&sc.hub, "wasp_control_commands_delivered_total");
    c.control_dropped = hub_count(&sc.hub, "wasp_control_commands_dropped_total");
    if let Some(stats) = sc.controller.control_stats() {
        c.control_retries = stats.retries;
        c.control_gave_up = stats.gave_up;
    }
    c
}

/// One operation: the scenario runs of several seeds, back to back.
#[derive(Debug, Default)]
pub struct Op {
    /// Host seconds of each run's set-up.
    pub setup_s: Vec<f64>,
    /// Host seconds of the timed loops (and end-of-run exports).
    pub loop_s: f64,
    /// Simulated outcome of each run.
    pub outcomes: Vec<Outcome>,
    /// Counts summed over the runs.
    pub counts: Counts,
}

impl Op {
    /// Appends another operation's runs.
    pub fn absorb(&mut self, other: Op) {
        self.setup_s.extend(other.setup_s);
        self.loop_s += other.loop_s;
        self.outcomes.extend(other.outcomes);
        self.counts.add(&other.counts);
    }
}

/// Runs `workload` once per seed with observability `obs`. The tracer
/// records spans when enabled, `probe` per-call readings when given.
pub fn run_op(
    workload: Workload,
    seeds: &[u64],
    obs: Observability,
    tr: &mut Tracer,
    mut probe: Option<&mut LoopProbe>,
) -> Op {
    let mut op = Op::default();
    for &seed in seeds {
        let run_span = tr.open("bench", "scenario");
        let t0 = Instant::now();
        let setup_span = tr.open("bench", "setup");
        let mut sc = setup(workload, seed, obs, tr);
        tr.close(setup_span);
        op.setup_s.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let exports = run_loop(&mut sc, tr, probe.as_deref_mut());
        op.loop_s += t1.elapsed().as_secs_f64();
        op.counts.add(&counts(&sc, &exports));
        let e2e = sc.e2e_selectivity;
        op.outcomes
            .push(outcome(&sc.engine.into_metrics(), e2e, &exports));
        tr.close(run_span);
    }
    op
}

/// Runs one scenario end to end with nothing traced and returns its
/// recording: the program the timed loop measures.
pub fn run_untraced(workload: Workload, seed: u64) -> RunMetrics {
    let mut tr = Tracer::off();
    let mut sc = setup(workload, seed, workload.observability(), &mut tr);
    run_loop(&mut sc, &mut tr, None);
    sc.engine.into_metrics()
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
