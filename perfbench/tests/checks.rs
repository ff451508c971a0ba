//! The benchmark's own tests: the timed program is the repository's
//! program, its ratios are normalized by the plan, its output checks
//! fire, and its seed comes only from its argument.

use std::process::Command;
use wasp_perfbench::{check, outcome, run_untraced, serialize_metrics, Exports, Workload};
use wasp_workloads::prelude::{run_section_8_6, ControllerKind, ScenarioConfig};

#[test]
fn paper_live_loop_reproduces_run_section_8_6() {
    let cfg = ScenarioConfig {
        seed: 4,
        dt: 0.25,
        jobs: 1,
        ..ScenarioConfig::default()
    };
    let reference = run_section_8_6(ControllerKind::Wasp, &cfg);
    let bench = run_untraced(Workload::PaperLive, 4);
    assert!(
        serialize_metrics(&bench) == serialize_metrics(&reference.metrics),
        "the benchmark's paper_live loop diverged from run_section_8_6 at seed 4"
    );
}

#[test]
fn top_k_processing_ratios_use_the_plan_selectivity() {
    for workload in [Workload::PaperLive, Workload::ChurnObserved] {
        for seed in workload.scenario_seeds(0).into_iter().take(3) {
            let m = run_untraced(workload, seed);
            // A ratio normalized by a selectivity of 1.0 instead of the
            // plan's would read ~3e-5 for Top-K.
            let o = outcome(&m, selectivity(workload, seed), &Exports::default());
            let ratio = o.delivered / o.expected;
            assert!(
                ratio > 0.9,
                "{} seed {seed}: processing ratio {ratio}",
                workload.name()
            );
        }
    }
}

/// The plan's end-to-end selectivity, read back from a set-up scenario.
fn selectivity(workload: Workload, seed: u64) -> f64 {
    let mut tr = wasp_perfbench::trace::Tracer::off();
    let sc = wasp_perfbench::setup(workload, seed, workload.observability(), &mut tr);
    assert!(sc.e2e_selectivity < 1e-3, "Top-K aggregates heavily");
    sc.e2e_selectivity
}

#[test]
fn output_checks_reject_bad_runs() {
    let m = run_untraced(Workload::PaperLive, 4);
    let good = outcome(&m, selectivity(Workload::PaperLive, 4), &Exports::default());
    assert!(check(std::slice::from_ref(&good)).is_empty());

    let over = wasp_perfbench::Outcome {
        delivered: good.expected * 1.5,
        ..good.clone()
    };
    assert_eq!(check(&[over]).len(), 1, "ratio above 1");
    let empty = wasp_perfbench::Outcome {
        generated: 0.0,
        ..good.clone()
    };
    assert!(!check(&[empty]).is_empty(), "nothing generated");
    let leaky = wasp_perfbench::Outcome {
        conservation_error: Some(1e-3),
        ..good.clone()
    };
    assert_eq!(check(&[leaky]).len(), 1, "xray conservation");
}

/// Per-scenario outcome lines of one timed run of the benchmark binary.
fn outcome_lines(env: &[(&str, &str)]) -> Vec<String> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_wasp-perfbench"));
    cmd.args([
        "--workload",
        "churn_observed",
        "--seed",
        "3",
        "--seconds",
        "0.001",
        "--trace",
        "0",
    ]);
    cmd.env_remove("WASP_SCENARIO_SEED").env_remove("WASP_JOBS");
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("run the benchmark binary");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    stdout
        .lines()
        .filter(|l| l.starts_with("scenario seed"))
        .map(str::to_string)
        .collect()
}

#[test]
fn scenario_environment_variables_do_not_change_the_output() {
    let plain = outcome_lines(&[]);
    let overridden = outcome_lines(&[("WASP_SCENARIO_SEED", "11"), ("WASP_JOBS", "2")]);
    assert_eq!(plain.len(), Workload::ChurnObserved.seeds_per_op());
    assert_eq!(plain, overridden);
}

#[test]
fn scenario_seeds_are_distinct_and_reproducible() {
    for w in Workload::ALL {
        let a = w.scenario_seeds(7);
        assert_eq!(a, w.scenario_seeds(7));
        let mut all: Vec<u64> = a.iter().chain(&w.scenario_seeds(8)).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 2 * w.seeds_per_op(), "{}", w.name());
    }
}
