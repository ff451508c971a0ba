//! Cross-commit golden digests: FNV-1a hashes of whole-run outputs,
//! pinned as constants.
//!
//! The differential suites prove that a run is byte-identical across
//! thread counts *within* one build. These digests prove it *across
//! builds*: a change meant to keep behaviour (a leaner queue layout, a
//! different allocator data structure) must leave every constant
//! below unchanged. A change meant to alter results re-pins them and
//! says why.

use wasp_core::controller::{run_controlled, WaspController};
use wasp_core::policy::PolicyConfig;
use wasp_netsim::chaos::{ChaosConfig, ChaosInjector};
use wasp_netsim::dynamics::DynamicsScript;
use wasp_netsim::site::SiteId;
use wasp_netsim::testbed::{Testbed, TestbedConfig};
use wasp_streamsim::engine::EngineConfig;
use wasp_workloads::prelude::*;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

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
    let dcs: Vec<SiteId> = tb.data_centers()[1..].to_vec();
    let links: Vec<(SiteId, SiteId)> = dcs
        .iter()
        .flat_map(|&a| dcs.iter().filter(move |&&b| b != a).map(move |&b| (a, b)))
        .collect();
    let mut run = CustomRun::section_8_6(seed);
    run.script = ChaosInjector::with_config(seed, ChaosConfig::full(run.duration_s))
        .compile(run.script, &dcs, &links)
        .0;
    let (tel, recording) = Telemetry::recording();
    let hub = MetricsHub::recording(10.0);
    let cfg = ScenarioConfig {
        seed,
        dt: 0.5,
        jobs: 1,
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
