//! Benchmark command line.
//!
//! ```text
//! wasp-perfbench --workload <paper_live|wide_surge|churn_observed>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One *operation* runs the workload's scenario seeds (derived from
//! `--seed`) back to back. `--trace 0` repeats operations for
//! `--seconds` of wall time and reports the end-to-end metrics;
//! `--trace 1` runs each of those seeds (a prefix of them on
//! `wide_surge`) untraced, traced and with the observability
//! counterpart, and reports the per-layer metrics. Every operation is
//! checked; the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use wasp_perfbench::trace::Tracer;
use wasp_perfbench::{
    check, processing_ratio, run_op, LoopProbe, Observability, Op, Outcome, Workload, HORIZON_S,
};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| bad("expected paper_live, wide_surge or churn_observed"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Checks every operation and counts the failed ones. Besides each
/// operation's own checks, every operation must simulate exactly what
/// the first one did: one workload and seed always give the same
/// recording.
struct Checker {
    seeds: Vec<u64>,
    reference: Option<Vec<u64>>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
}

impl Checker {
    fn new(seeds: &[u64]) -> Checker {
        Checker {
            seeds: seeds.to_vec(),
            reference: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    fn check(&mut self, what: &str, op: &Op) {
        let mut failures = check(&op.outcomes);
        let digests: Vec<u64> = op.outcomes.iter().map(|o| o.digest).collect();
        match &self.reference {
            None => self.reference = Some(digests),
            Some(reference) => {
                for ((d, r), seed) in digests.iter().zip(reference).zip(&self.seeds) {
                    if d != r {
                        failures.push(format!(
                            "seed {seed}: RunMetrics digest {d:016x} differs from {r:016x}"
                        ));
                    }
                }
            }
        }
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures
                .extend(failures.into_iter().map(|f| format!("{what}: {f}")));
        }
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Mean after dropping the lowest and highest tenth. Per-run delay
/// quantiles are heavy-tailed under faults (a few runs read 3× the
/// rest) and sit on histogram buckets: the plain mean jumps with the
/// number of outliers drawn, the median sticks to one bucket.
fn interdecile_mean(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let cut = xs.len() / 10;
    mean(xs[cut..xs.len() - cut].iter().copied())
}

/// Nearest-rank quantile of nanosecond readings, in microseconds.
fn quantile_us(ns: &[u64], q: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let mut v = ns.to_vec();
    v.sort_unstable();
    let idx = ((v.len() - 1) as f64 * q).round() as usize;
    v[idx] as f64 * 1e-3
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n as f64
}

/// `num / den`, or `empty` when there is nothing to divide.
fn ratio_or(num: f64, den: f64, empty: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        empty
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn report(checker: &Checker, metrics: &[Metric]) {
    for f in &checker.failures {
        eprintln!("check failed: {f}");
    }
    for x in metrics {
        println!("{:<34} {:>18.6} {}", x.name, x.value, x.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            // JSON has no NaN or infinity; a missing reading is null.
            let v = if x.value.is_finite() {
                format!("{}", x.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        body.join(", ")
    );
}

fn print_outcomes(outcomes: &[Outcome], seeds: &[u64]) {
    for (o, s) in outcomes.iter().zip(seeds) {
        println!(
            "scenario seed {s}: delay p50 {:.3} s, p95 {:.3} s, ratio {:.5}, recovery {:.2} s",
            o.delay_p50_s,
            o.delay_p95_s,
            o.delivered / o.expected,
            o.recovery_s
        );
    }
}

/// `--trace 0`: repeat operations for `seconds`, report the end-to-end
/// metrics.
fn timed(workload: Workload, seeds: &[u64], seconds: f64) {
    let obs = workload.observability();
    let budget = Duration::from_secs_f64(seconds);
    let mut checker = Checker::new(seeds);
    let start = Instant::now();
    let mut ops: Vec<Op> = Vec::new();
    while ops.is_empty() || start.elapsed() < budget {
        let op = run_op(workload, seeds, obs, &mut Tracer::off(), None);
        checker.check("timed", &op);
        ops.push(op);
    }
    let sim_s = HORIZON_S * seeds.len() as f64;
    for (i, op) in ops.iter().enumerate() {
        println!(
            "operation {i}: loop {:.3} s, {:.1} sim_s/s",
            op.loop_s,
            sim_s / op.loop_s
        );
    }
    // Every operation simulated the same runs (the digest check), so
    // the first one's outcomes stand for all.
    let first = &ops[0].outcomes;
    print_outcomes(first, seeds);
    let metrics = [
        m(
            "sim_speedup",
            median(ops.iter().map(|o| sim_s / o.loop_s).collect()),
            "sim_s/s",
        ),
        m(
            "setup_s",
            median(ops.iter().flat_map(|o| o.setup_s.iter().copied()).collect()),
            "s",
        ),
        m(
            "peak_rss_mb",
            wasp_perfbench::peak_rss_mb().unwrap_or(f64::NAN),
            "MB",
        ),
        m(
            "sim_delay_p50_s",
            interdecile_mean(first.iter().map(|o| o.delay_p50_s).collect()),
            "s",
        ),
        m(
            "sim_delay_p95_s",
            interdecile_mean(first.iter().map(|o| o.delay_p95_s).collect()),
            "s",
        ),
        m("processing_ratio", processing_ratio(first), "ratio"),
    ];
    report(&checker, &metrics);
}

/// `--trace 1`: the per-layer report. Runs every seed three ways:
/// - untraced (the reference for the tracing overhead),
/// - traced (spans around every layer call, per-call readings),
/// - the observability counterpart: with telemetry and the metrics hub
///   on for workloads that run with observability off (to count
///   decisions), with all three layers unset for workloads that run
///   with them on (to measure what they cost).
///
/// All of them must simulate identically.
fn traced(workload: Workload, seed: u64, seeds: &[u64]) {
    let obs = workload.observability();
    let k = seeds.len() as f64;
    let mut checker = Checker::new(seeds);

    let run_id = seed ^ (u64::from(std::process::id()) << 32);
    let mut tr = Tracer::on(run_id);
    let mut probe = LoopProbe::default();
    let counterpart_obs = match obs {
        Observability::Off => Observability::Counting,
        Observability::Counting | Observability::Full => Observability::Off,
    };
    let (mut untraced, mut traced, mut counterpart) = (Op::default(), Op::default(), Op::default());
    // The three variants of each scenario run back to back, in an order
    // that rotates with the seed, so that host-speed drift (minutes
    // long on a shared host) weighs on all three alike.
    for (i, &s) in seeds.iter().enumerate() {
        for v in 0..3 {
            match (i + v) % 3 {
                0 => untraced.absorb(run_op(workload, &[s], obs, &mut Tracer::off(), None)),
                1 => traced.absorb(run_op(workload, &[s], obs, &mut tr, Some(&mut probe))),
                _ => counterpart.absorb(run_op(
                    workload,
                    &[s],
                    counterpart_obs,
                    &mut Tracer::off(),
                    None,
                )),
            }
        }
    }
    checker.check("untraced", &untraced);
    checker.check("traced", &traced);
    checker.check("observability counterpart", &counterpart);
    // Decisions are counted where telemetry is on; the share is what
    // the workload's own observability layers cost (none when off).
    let (counts, obs_overhead_share) = match obs {
        Observability::Off => (counterpart.counts, 0.0),
        Observability::Counting | Observability::Full => (
            traced.counts,
            (untraced.loop_s - counterpart.loop_s) / untraced.loop_s,
        ),
    };
    print_outcomes(&untraced.outcomes, seeds);

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
    let path = format!("{dir}/{}-seed{seed}.jsonl", workload.name());
    let written = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::File::create(&path))
        .and_then(|f| tr.write_jsonl(&mut std::io::BufWriter::new(f)));
    match written {
        Ok(()) => eprintln!("wrote {} spans to {path}", tr.spans().len()),
        Err(e) => eprintln!("warning: cannot write spans to {path}: {e}"),
    }

    // Per-scenario-run totals of each named span.
    let mut span_s: BTreeMap<&str, f64> = BTreeMap::new();
    let mut netsim_setup_s = 0.0;
    for s in tr.spans() {
        let secs = s.dur_ns() as f64 * 1e-9 / k;
        *span_s.entry(s.name).or_default() += secs;
        if s.layer == "netsim" {
            netsim_setup_s += secs;
        }
    }
    let span_us = |name: &str| span_s.get(name).copied().unwrap_or(0.0) * 1e6;
    let self_s = tr.self_time_by_layer();
    let self_of = |layer: &str| self_s.get(layer).copied().unwrap_or(0.0) / k;

    let durations = |name: &str| -> Vec<u64> {
        tr.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns())
            .collect()
    };
    let step_ns = durations("Engine::step");
    let round_ns = durations("Controller::on_monitor");
    let ticks = step_ns.len() as f64;
    let step_total = step_ns.iter().sum::<u64>() as f64 * 1e-9;
    let round_total = round_ns.iter().sum::<u64>() as f64 * 1e-9;
    let transition_ns: Vec<u64> = step_ns
        .iter()
        .zip(&probe.step_in_transition)
        .filter(|(_, &t)| t)
        .map(|(&ns, _)| ns)
        .collect();
    let per_run = |x: u64| x as f64 / k;
    let c = &counts;
    let traced_wall = traced.loop_s + traced.setup_s.iter().sum::<f64>();
    let untraced_wall = untraced.loop_s + untraced.setup_s.iter().sum::<f64>();
    // Events the workload's own telemetry records: none when it runs
    // with observability off (the counting operation's do not count).
    let telemetry_events = if obs == Observability::Off {
        0.0
    } else {
        per_run(c.telemetry_events)
    };

    let metrics = [
        m("streamsim.step_us_p50", quantile_us(&step_ns, 0.5), "us"),
        m("streamsim.step_us_p99", quantile_us(&step_ns, 0.99), "us"),
        m("streamsim.step_share", step_total / traced.loop_s, "share"),
        m(
            "streamsim.transition_step_us_p50",
            quantile_us(&transition_ns, 0.5),
            "us",
        ),
        m(
            "streamsim.transition_tick_share",
            transition_ns.len() as f64 / ticks,
            "share",
        ),
        m("streamsim.ticks", ticks / k, "count"),
        m(
            "streamsim.tasks_mean",
            probe.tasks_sum as f64 / ticks,
            "count",
        ),
        m("streamsim.self_s", self_of("streamsim"), "s"),
        m(
            "netsim.active_links_mean",
            probe.active_links_sum as f64 / ticks,
            "count",
        ),
        m("netsim.setup_us", netsim_setup_s * 1e6, "us"),
        m("netsim.self_s", self_of("netsim"), "s"),
        m("core.round_us_p50", quantile_us(&round_ns, 0.5), "us"),
        m("core.round_us_max", quantile_us(&round_ns, 1.0), "us"),
        m("core.round_share", round_total / traced.loop_s, "share"),
        m("core.rounds", per_run(c.rounds), "count"),
        m("core.actions", per_run(c.actions), "count"),
        m("core.commands_failed", per_run(c.commands_failed), "count"),
        m(
            "core.recovery_s",
            mean(untraced.outcomes.iter().map(|o| o.recovery_s)),
            "s",
        ),
        m("core.self_s", self_of("core"), "s"),
        m("optimizer.deploy_us", span_us("initial_deployment"), "us"),
        m("optimizer.candidates", per_run(c.candidates), "count"),
        m(
            "optimizer.candidates_rejected",
            per_run(c.candidates_rejected),
            "count",
        ),
        m(
            "optimizer.accept_ratio",
            ratio_or(c.decisions as f64, c.candidates as f64, 0.0),
            "ratio",
        ),
        m("optimizer.self_s", self_of("optimizer"), "s"),
        m(
            "state.checkpoint_rounds",
            per_run(c.checkpoint_rounds),
            "count",
        ),
        m("state.compaction_mb", c.compaction_mb / k, "MB"),
        m(
            "state.partition_splits",
            per_run(c.partition_splits),
            "count",
        ),
        m(
            "state.migrations_started",
            per_run(c.migrations_started),
            "count",
        ),
        m(
            "state.migrations_aborted",
            per_run(c.migrations_aborted),
            "count",
        ),
        m("state.replay_p95_s", c.replay_p95_s / k, "s"),
        m(
            "controlplane.delivered",
            per_run(c.control_delivered),
            "count",
        ),
        m("controlplane.dropped", per_run(c.control_dropped), "count"),
        m("controlplane.retries", per_run(c.control_retries), "count"),
        m("controlplane.gave_up", per_run(c.control_gave_up), "count"),
        m(
            "controlplane.delivery_ratio",
            ratio_or(
                c.control_delivered as f64,
                (c.control_delivered + c.control_dropped) as f64,
                1.0,
            ),
            "ratio",
        ),
        m("obs.overhead_share", obs_overhead_share, "share"),
        m("telemetry.events", telemetry_events, "count"),
        m("telemetry.export_us", span_us("to_jsonl"), "us"),
        m("telemetry.self_s", self_of("telemetry"), "s"),
        m(
            "metrics.render_us",
            span_us("MetricsHub::render_prometheus"),
            "us",
        ),
        m("metrics.self_s", self_of("metrics"), "s"),
        m("xray.take_us", span_us("Engine::take_xray"), "us"),
        m("xray.self_s", self_of("xray"), "s"),
        m("workloads.self_s", self_of("workloads"), "s"),
        m("bench.self_s", self_of("bench"), "s"),
        m("trace.overhead_s", (traced_wall - untraced_wall) / k, "s"),
        m(
            "trace.overhead_share",
            (traced_wall - untraced_wall) / untraced_wall,
            "share",
        ),
    ];
    report(&checker, &metrics);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: wasp-perfbench --workload <paper_live|wide_surge|churn_observed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let seeds = args.workload.scenario_seeds(args.seed);
    if args.trace {
        let prefix = &seeds[..args.workload.traced_seeds_per_op()];
        traced(args.workload, args.seed, prefix);
    } else {
        timed(args.workload, &seeds, args.seconds);
    }
}
