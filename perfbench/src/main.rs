//! Benchmark of the sharded admission service: drives `ChurnGenerator` →
//! `EventLoop::run_with` → `ShardedAdmission` on one named workload and
//! prints, as the last line of standard output, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats passes over the same traces until `--seconds` have gone
//! by (at least [`MIN_PASSES`]). Timing comes from each trace's fastest
//! repeat, set-up time and per-layer figures are medians over passes. Any
//! failed correctness check makes it exit with code 1. See `METRICS.md`
//! for every metric, the workloads and what each layer should move.

mod pass;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pass::{decisions_per_s, fastest_repeats, run_pass, Layers, Pass, CLASSES};
use stats::{median, quantile, ratio};
use workload::{Workload, WORKLOADS};

/// Fewest passes a run makes, traced and untraced together, so every
/// trace's decision digest is checked against at least two repeats.
const MIN_PASSES: usize = 3;

/// The cascade stages of one shard, in cascade order.
const STAGES: [&str; 4] = ["fast_whole", "fast_split", "repair", "full_repartition"];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(WORKLOADS.iter().find(|w| w.name == value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("--seconds must be 1..=600, got `{value}`"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(40),
        trace: trace.unwrap_or(false),
    })
}

/// A named metric with its unit, in output order.
type Metrics = Vec<(String, f64, &'static str)>;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    // A traced run alternates untraced and traced passes so the tracing
    // overhead compares passes taken under the same conditions.
    loop {
        let pass_started = Instant::now();
        untraced.push(run_pass(args.workload, args.seed, false));
        if args.trace {
            traced.push(run_pass(args.workload, args.seed, true));
        }
        let done = untraced.len() + traced.len();
        if done >= MIN_PASSES && started.elapsed() + pass_started.elapsed() > budget {
            break;
        }
    }

    let mut violations: Vec<String> = Vec::new();
    let all: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    let reference = &all[0].digests;
    for (i, pass) in all.iter().enumerate() {
        violations.extend(pass.violations.iter().cloned());
        for (trace, (a, b)) in reference.iter().zip(&pass.digests).enumerate() {
            if a != b {
                violations.push(format!(
                    "pass {i} trace {trace}: decisions digest {b:#018x} differs from {a:#018x}"
                ));
            }
        }
    }
    let attempted: u64 = all.iter().map(|p| p.decisions).sum();
    let failed = violations.len() as u64;

    let metrics = if args.trace {
        layer_metrics(&untraced, &traced)
    } else {
        end_to_end_metrics(&untraced, attempted, failed)
    };

    println!(
        "workload {} seed {} passes {} ({} traces of {} churn events each, {:.1} s)",
        args.workload.name,
        args.seed,
        all.len(),
        args.workload.traces,
        args.workload.events,
        started.elapsed().as_secs_f64()
    );
    println!(
        "decision samples: {} (each trace's fastest of {} repeats); ops_failed_ratio: {} ({failed} of {attempted})",
        untraced[0].decisions,
        untraced.len(),
        ratio(failed as f64, attempted as f64)
    );
    let rates: Vec<String> = all
        .iter()
        .map(|p| format!("{:.0}", p.decisions_per_s()))
        .collect();
    println!("decisions_per_s by pass: {}", rates.join(" "));
    for (name, value, unit) in &metrics {
        println!("{name:<48} {value:>16.6} {unit}");
    }
    for violation in &violations {
        eprintln!("perfbench: check failed: {violation}");
    }
    println!(
        "{}",
        result_json(violations.is_empty(), attempted, failed, &metrics)
    );
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn end_to_end_metrics(passes: &[Pass], attempted: u64, failed: u64) -> Metrics {
    let setup_s = median(&passes.iter().map(|p| p.setup_s).collect::<Vec<_>>());
    let mut gaps: Vec<u64> = fastest_repeats(passes)
        .iter()
        .flat_map(|t| t.gaps_ns.iter().copied())
        .collect();
    gaps.sort_unstable();
    let quantile_us = |q: f64| quantile(&gaps, q) as f64 / 1e3;
    // Admission outcomes are the same in every pass (the digest check
    // enforces it), so the first pass speaks for all.
    let first = &passes[0];
    vec![
        ("setup_s".into(), setup_s, "s"),
        ("decisions_per_s".into(), decisions_per_s(passes), "1/s"),
        ("decision_p50_us".into(), quantile_us(0.50), "us"),
        ("decision_p99_us".into(), quantile_us(0.99), "us"),
        ("decision_p999_us".into(), quantile_us(0.999), "us"),
        (
            "acceptance_ratio".into(),
            ratio(first.admitted as f64, first.arrivals as f64),
            "ratio",
        ),
        (
            "migrations_per_admission".into(),
            ratio(first.migrations as f64, first.admitted as f64),
            "1/admission",
        ),
        ("run_rss_growth_mb".into(), first.rss_growth_mb, "MB"),
        (
            "ops_ok_ratio".into(),
            1.0 - ratio(failed as f64, attempted as f64),
            "ratio",
        ),
    ]
}

/// Per-layer metrics: each traced pass gives one value per metric and
/// the run reports the median over traced passes.
fn layer_metrics(untraced: &[Pass], traced: &[Pass]) -> Metrics {
    let per_pass: Vec<Metrics> = traced
        .iter()
        .map(|p| one_traced_pass(p, p.layers.as_ref().expect("traced passes carry layers")))
        .collect();
    let mut metrics: Metrics = per_pass[0]
        .iter()
        .enumerate()
        .map(|(i, (name, _, unit))| {
            let values: Vec<f64> = per_pass.iter().map(|m| m[i].1).collect();
            (name.clone(), median(&values), *unit)
        })
        .collect();
    let (plain, with_tracing) = (decisions_per_s(untraced), decisions_per_s(traced));
    metrics.push(("tracing.untraced_decisions_per_s".into(), plain, "1/s"));
    metrics.push(("tracing.traced_decisions_per_s".into(), with_tracing, "1/s"));
    metrics.push((
        "tracing.slowdown".into(),
        ratio(plain, with_tracing),
        "ratio",
    ));
    metrics
}

fn one_traced_pass(pass: &Pass, layers: &Layers) -> Metrics {
    let reg = &layers.registry;
    let counter = |name: &str| reg.counter_by_name(name).unwrap_or(0) as f64;
    let busy_s = |stage: &str| {
        reg.histogram_by_name(&format!("spms_timing_stage_{stage}_ns"))
            .map_or(0.0, |h| h.sum() as f64 / 1e9)
    };
    let arrivals = pass.arrivals as f64;
    let ticks = counter("spms_mech_rebalance_ticks_total");
    let mut m: Metrics = vec![
        ("churn.generate_s".into(), layers.generate_s, "s"),
        (
            "churn.trace_events".into(),
            layers.trace_events as f64,
            "count",
        ),
        ("event_loop.run_s".into(), pass.run_s, "s"),
        (
            "event_loop.renewals".into(),
            layers.renewals as f64,
            "count",
        ),
        (
            "event_loop.lease_expirations".into(),
            counter("spms_lease_expirations_total"),
            "count",
        ),
        ("event_loop.rebalance_ticks".into(), ticks, "count"),
    ];
    let attributed: f64 = STAGES
        .iter()
        .chain(&["cross_shard_split"])
        .map(|s| busy_s(s))
        .sum();
    m.push((
        "event_loop.attributed_share".into(),
        ratio(attributed, pass.run_s),
        "ratio",
    ));
    m.push((
        "event_loop.unattributed_s".into(),
        pass.run_s - attributed,
        "s",
    ));

    for (class, gaps) in CLASSES.iter().zip(&layers.class_gaps_ns) {
        let mut sorted = gaps.clone();
        sorted.sort_unstable();
        let total_s = sorted.iter().sum::<u64>() as f64 / 1e9;
        let key = |field: &str| format!("controller.outcome.{class}.{field}");
        m.push((key("count"), sorted.len() as f64, "count"));
        m.push((key("total_s"), total_s, "s"));
        m.push((
            key("mean_us"),
            ratio(total_s * 1e6, sorted.len() as f64),
            "us",
        ));
        m.push((key("p99_us"), quantile(&sorted, 0.99) as f64 / 1e3, "us"));
    }
    for stage in STAGES {
        let attempts = counter(&format!("spms_mech_stage_{stage}_attempts_total"));
        let successes = counter(&format!("spms_mech_stage_{stage}_successes_total"));
        let key = |field: &str| format!("controller.stage.{stage}.{field}");
        m.push((key("attempts"), attempts, "count"));
        m.push((key("successes"), successes, "count"));
        m.push((key("success_ratio"), ratio(successes, attempts), "ratio"));
        m.push((key("busy_s"), busy_s(stage), "s"));
    }

    let overflow = counter("spms_mech_overflow_admissions_total");
    let cross_attempts = counter("spms_mech_cross_shard_attempts_total");
    let cross_admissions = counter("spms_mech_cross_shard_admissions_total");
    let moves = counter("spms_mech_rebalance_moves_total");
    m.extend([
        ("service.overflow_admissions".into(), overflow, "count"),
        (
            "service.overflow_share".into(),
            ratio(overflow, pass.admitted as f64),
            "ratio",
        ),
        (
            "service.cross_shard.attempts".into(),
            cross_attempts,
            "count",
        ),
        (
            "service.cross_shard.admissions".into(),
            cross_admissions,
            "count",
        ),
        (
            "service.cross_shard.success_ratio".into(),
            ratio(cross_admissions, cross_attempts),
            "ratio",
        ),
        (
            "service.cross_shard.busy_s".into(),
            busy_s("cross_shard_split"),
            "s",
        ),
        ("service.rebalance.moves".into(), moves, "count"),
        (
            "service.rebalance.moves_per_tick".into(),
            ratio(moves, ticks),
            "moves/tick",
        ),
        (
            "incremental.whole_probes_per_arrival".into(),
            ratio(counter("spms_mech_whole_probes_total"), arrivals),
            "probes/arrival",
        ),
        (
            "incremental.split_probes_per_arrival".into(),
            ratio(counter("spms_mech_split_probes_total"), arrivals),
            "probes/arrival",
        ),
    ]);
    let hits = counter("spms_mech_cache_probe_hits_total");
    let misses = counter("spms_mech_cache_probe_misses_total");
    let begins = counter("spms_mech_journal_begins_total");
    // Never read latency quantiles from this histogram (power-of-two
    // buckets); only its sample count, which should equal the events.
    let latency_samples = reg
        .histogram_by_name("spms_timing_decision_latency_ns")
        .map_or(0, |h| h.count()) as f64;
    let replay = &layers.replay;
    m.extend([
        (
            "cached_rta.probe_hit_ratio".into(),
            ratio(hits, hits + misses),
            "ratio",
        ),
        ("placement.journal_begins".into(), begins, "count"),
        (
            "placement.journal_rewinds_per_begin".into(),
            ratio(counter("spms_mech_journal_rewinds_total"), begins),
            "ratio",
        ),
        (
            "placement.partition_clones".into(),
            counter("spms_mech_partition_clones_total"),
            "count",
        ),
        ("telemetry.export_s".into(), layers.export_s, "s"),
        (
            "telemetry.latency_samples_per_event".into(),
            ratio(latency_samples, pass.decisions as f64),
            "samples/event",
        ),
        ("replay.epochs".into(), replay.epochs as f64, "count"),
        (
            "replay.misses".into(),
            replay.deadline_misses as f64,
            "count",
        ),
        (
            "replay.epoch_mean_us".into(),
            ratio(layers.replay_s * 1e6, replay.epochs as f64),
            "us",
        ),
    ]);
    m
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}
