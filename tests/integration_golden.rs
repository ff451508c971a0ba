//! Cross-commit golden digests: FNV-1a hashes of whole-run outputs,
//! pinned as constants.
//!
//! Each engine tick is one ordered pass, so a run is a pure function
//! of its configuration. These digests hold that *across builds*: a
//! change meant to keep behaviour (a leaner queue layout, a different
//! allocator data structure, a simpler tick loop) must leave every
//! constant below unchanged. A change meant to alter results re-pins
//! them and says why.

use wasp_core::controller::{run_controlled, WaspController};
use wasp_core::policy::PolicyConfig;
use wasp_netsim::chaos::{ChaosConfig, ChaosInjector};
use wasp_netsim::dynamics::DynamicsScript;
use wasp_netsim::site::SiteId;
use wasp_netsim::testbed::{Testbed, TestbedConfig};
use wasp_netsim::trace::FactorSeries;
use wasp_state::{CompactionPolicy, PartitionConfig, StateModel};
use wasp_streamsim::engine::{CheckpointTarget, Engine, EngineConfig};
use wasp_streamsim::physical::PhysicalPlan;
use wasp_streamsim::testkit::fnv1a;
use wasp_workloads::prelude::*;

fn digest_json<T: serde::Serialize>(value: &T) -> u64 {
    fnv1a(serde_json::to_string(value).expect("serializes").as_bytes())
}

/// A §8.6 Top-K run under WASP on 64 edges + 8 data centers: the WAN
/// saturates, so the run exercises the allocator with many flows and
/// carries large backlogs across plan switches. Returns the
/// `RunMetrics` digest and the number of `SwitchPlan`s applied.
fn wide_section_8_6(seed: u64) -> (u64, usize) {
    const HORIZON_S: f64 = 900.0;
    let tb = Testbed::with_config(TestbedConfig {
        edges: 64,
        seed,
        ..TestbedConfig::default()
    });
    let script = DynamicsScript::section_8_6(tb.edges(), HORIZON_S, seed);
    let cfg = EngineConfig {
        dt: 0.5,
        ..EngineConfig::default()
    };
    let (mut engine, _) = build_engine(QueryKind::TopK, &tb, script, cfg);
    let mut wasp = WaspController::new(PolicyConfig::default());
    run_controlled(&mut engine, &mut wasp, HORIZON_S, 40.0);
    let metrics = engine.into_metrics();
    // The re-planner's actions are the controller's only `SwitchPlan`s.
    let switches = metrics
        .actions()
        .iter()
        .filter(|(_, label)| label == "re-plan" || label == "periodic re-plan")
        .count();
    (digest_json(&metrics), switches)
}

#[test]
fn wide_section_8_6_run_matches_its_golden_digest() {
    let (digest, switches) = wide_section_8_6(4);
    assert!(switches >= 1, "the run must apply at least one SwitchPlan");
    assert_eq!(
        digest, WIDE_RUN_METRICS,
        "RunMetrics digest {digest:#018x} differs from the pinned value"
    );
}

/// Digests of an xray-on §8.6 run on the 16-site testbed with the full
/// chaos fault mix: (RunMetrics, XrayRun, Prometheus text, JSONL log).
fn chaos_xray_run(seed: u64) -> [u64; 4] {
    let tb = Testbed::paper(seed);
    let mut run = CustomRun::section_8_6(seed);
    run.script = with_full_chaos(run.script, &tb, seed, run.duration_s);
    let (tel, recording) = Telemetry::recording();
    let hub = MetricsHub::recording(10.0);
    let cfg = ScenarioConfig {
        seed,
        dt: 0.5,
        telemetry: tel,
        metrics: hub.clone(),
        xray: Some(XRAY_DEFAULT_WINDOW_S),
        ..ScenarioConfig::default()
    };
    let (result, _) = run_custom(run, &cfg);
    let xray = result.xray.expect("xray was enabled");
    assert!(xray.conservation_error() <= 1e-6);
    [
        digest_json(&result.metrics),
        digest_json(&xray),
        fnv1a(hub.render_prometheus().as_bytes()),
        fnv1a(
            to_jsonl(&recording.recording())
                .expect("the log serializes")
                .as_bytes(),
        ),
    ]
}

#[test]
fn chaos_xray_run_matches_its_golden_digests() {
    let digests = chaos_xray_run(4);
    assert_eq!(
        digests, CHAOS_XRAY_RUN,
        "(RunMetrics, XrayRun, Prometheus, JSONL) digests {digests:#018x?} differ from the pinned values"
    );
}

/// The full chaos fault mix on every data center but the sink (and the
/// links among them), compiled onto `script`.
fn with_full_chaos(
    script: DynamicsScript,
    tb: &Testbed,
    seed: u64,
    horizon_s: f64,
) -> DynamicsScript {
    let dcs: Vec<SiteId> = tb.data_centers()[1..].to_vec();
    let links: Vec<(SiteId, SiteId)> = dcs
        .iter()
        .flat_map(|&a| dcs.iter().filter(move |&&b| b != a).map(move |&b| (a, b)))
        .collect();
    ChaosInjector::with_config(seed, ChaosConfig::full(horizon_s))
        .compile(script, &dcs, &links)
        .0
}

/// A 16-site §8.6 run (workload walks plus the diurnal trace) under
/// churn: the full chaos mix, partitioned state with hot-partition
/// splits and delta-chain compaction, remote checkpoints to a data
/// center that does not host the stateful stage, a lossy control plane
/// at 5 % loss, and telemetry, hub and xray on. Returns the
/// (RunMetrics, XrayRun, StateTimeline, Prometheus, JSONL) digests and
/// the number of re-deployments and partition splits.
fn churn_run(seed: u64) -> ([u64; 5], usize, usize) {
    const HORIZON_S: f64 = 1800.0;
    let tb = Testbed::paper(seed);
    let mut script = DynamicsScript::section_8_6(tb.edges(), HORIZON_S, seed);
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
    let script = with_full_chaos(script, &tb, seed, HORIZON_S);
    let sink = tb.data_centers()[0];
    let plan = QueryKind::TopK.build_default(tb.edges(), sink);
    let net = tb.static_network();
    let physical =
        initial_deployment(&plan, &net, 0.8).unwrap_or_else(|_| PhysicalPlan::initial(&plan, sink));
    let host = physical.placement(plan.stateful_ops()[0]).sites()[0];
    let target = tb
        .data_centers()
        .iter()
        .copied()
        .find(|&s| s != host)
        .unwrap_or(sink);
    let state = StateModel::Partitioned(PartitionConfig {
        split_threshold: Some(SKEWED_SPLIT_THRESHOLD),
        compaction: CompactionPolicy::every_n_rounds(COMPACTION_EVERY_N_ROUNDS),
        ..PartitionConfig::default()
    });
    let cfg = EngineConfig {
        dt: 0.5,
        checkpoint_interval_s: 15.0,
        checkpoint_target: CheckpointTarget::Remote(target),
        state_model: state,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(net, script, plan, physical, cfg).expect("deployment validated");
    let lossy = LossyControlConfig {
        loss: 0.05,
        seed,
        ..LossyControlConfig::default()
    };
    let (tel, recording) = Telemetry::recording();
    let hub = MetricsHub::recording(10.0);
    engine.set_telemetry(tel.clone());
    engine.enable_xray(XRAY_DEFAULT_WINDOW_S);
    engine.set_metrics(hub.clone());
    engine.enable_lossy_control(lossy.clone());
    let mut wasp = WaspController::new(PolicyConfig {
        state,
        ..PolicyConfig::default()
    })
    .with_telemetry(tel)
    .with_metrics(hub.clone())
    .with_control_plane(ControlPlaneConfig::Lossy(lossy));
    run_controlled(&mut engine, &mut wasp, HORIZON_S, 40.0);
    let xray = engine.take_xray().expect("xray was enabled");
    assert!(xray.conservation_error() <= 1e-6);
    let redeploys = engine
        .metrics()
        .actions()
        .iter()
        .filter(|(_, label)| label == "transition-start")
        .count();
    let timeline = engine.state_timeline();
    let digests = [
        digest_json(engine.metrics()),
        digest_json(&xray),
        fnv1a(format!("{timeline:?}").as_bytes()),
        fnv1a(hub.render_prometheus().as_bytes()),
        fnv1a(
            to_jsonl(&recording.recording())
                .expect("the log serializes")
                .as_bytes(),
        ),
    ];
    (digests, redeploys, timeline.splits.len())
}

#[test]
fn churn_run_matches_its_golden_digests() {
    // Seed 3 is the first whose run splits a hot partition.
    let (digests, redeploys, splits) = churn_run(3);
    assert!(redeploys >= 2, "the run must re-deploy operators");
    assert!(splits > 0, "the run must split a hot partition");
    assert_eq!(
        digests, CHURN_RUN,
        "(RunMetrics, XrayRun, StateTimeline, Prometheus, JSONL) digests {digests:#018x?} differ from the pinned values"
    );
}

/// Pinned at the commit before the lean cohort queue and the dense
/// `allocate` resource table.
const WIDE_RUN_METRICS: u64 = 0x4336_28e1_5195_e239;
/// (RunMetrics, XrayRun, Prometheus, JSONL), pinned with
/// [`WIDE_RUN_METRICS`].
const CHAOS_XRAY_RUN: [u64; 4] = [
    0xa82a_717b_71ed_7ea4,
    0x45cf_3da0_da66_bfc7,
    0x2592_0a3d_577d_8397,
    0x3f8a_cc3d_dcf8_e3ba,
];
/// (RunMetrics, XrayRun, StateTimeline, Prometheus, JSONL) of
/// [`churn_run`], pinned at the commit before the dense tick tables.
const CHURN_RUN: [u64; 5] = [
    0x53ef_0c5b_86d4_33d9,
    0x07d2_fa1c_9947_da35,
    0xeb24_f7d7_cf2f_66a8,
    0x4de8_dd77_6106_db2c,
    0xda3f_5192_5057_b7bf,
];
