//! The per-chip flow workload (`population_s13207`) and the pieces every
//! workload shares: circuits, designated periods, set-up, outcome digests
//! and the traced per-chip flow.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use effitest_circuit::fingerprint::Mix64;
use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
use effitest_core::aligned_test::{run_aligned_test_with, AlignedTestConfig};
use effitest_core::cache::{plan_cache_key, plan_fingerprint, CacheOutcome, PlanCache};
use effitest_core::configure::{
    build_config_problem, configure, ideal_configure_and_check, shifts_for,
};
use effitest_core::population::{run_population_scratch, PopulationConfig};
use effitest_core::service::MeasurementEvent;
use effitest_core::{
    ChipMatrix, ChipOutcome, EffiTestFlow, FlowConfig, FlowPlan, FlowWorkspace, PlanStageTimes,
};
use effitest_ssta::{ChipInstance, TimingModel, VariationConfig};
use effitest_tester::{chip_passes, DelayBounds, VirtualTester};

use crate::service::{self, ChipEvents};
use crate::stats::{median, peak_rss_mib, Metric, PassTimes};
use crate::{Args, Report};

/// Generator seed of every workload's netlist. The netlist is the design
/// under test and stays fixed; the workload seed drives everything sampled
/// per run (chips, event order, synthesized bounds).
const NETLIST_SEED: u64 = 1;

/// Warm plan-cache loads timed by the traced population runs.
const CACHE_LOADS: usize = 5;

/// Quantile of the population's untuned minimum periods that sets the
/// designated clock period: T1, the median (paper Table 2).
const PERIOD_QUANTILE: f64 = 0.5;

/// A generated netlist and its timing model, with their build times.
pub struct Built {
    pub bench: GeneratedBenchmark,
    pub model: TimingModel,
    pub generate: Duration,
    pub model_time: Duration,
}

impl Built {
    /// Generates the circuit's netlist and builds its timing model under
    /// the paper's variation config.
    pub fn new(spec: &BenchmarkSpec) -> Self {
        let t = Instant::now();
        let bench = GeneratedBenchmark::generate(spec, NETLIST_SEED);
        let generate = t.elapsed();
        let t = Instant::now();
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        Built { bench, model, generate, model_time: t.elapsed() }
    }
}

/// The chip population of a run: `n_chips` chips whose sampling seeds
/// derive from the workload seed.
pub fn population(seed: u64, n_chips: usize) -> PopulationConfig {
    let base_seed = Mix64::new().write_u64(seed).finish();
    PopulationConfig { n_chips, base_seed, threads: 1 }
}

/// The designated clock period: the [`PERIOD_QUANTILE`] of the chips'
/// `min_period_untuned`. Taken over the tested population itself, it fixes
/// how many chips pass untuned, which keeps yield steady across seeds.
pub fn designated_period(periods: &mut [f64]) -> f64 {
    periods.sort_by(f64::total_cmp);
    periods[((periods.len() - 1) as f64 * PERIOD_QUANTILE).round() as usize]
}

/// The designated-period line printed for people.
pub fn period_info(period: f64) -> String {
    format!("designated period {period} (quantile {PERIOD_QUANTILE})")
}

/// Whether another whole pass, as long as the average so far, still ends
/// within `seconds` of the measured phase's start; the first always does.
pub fn another_pass(started: Instant, times: &PassTimes, seconds: f64) -> bool {
    let passes = times.passes();
    passes == 0 || started.elapsed().as_secs_f64() + times.wall_s() / passes as f64 <= seconds
}

/// Digest of a configuration decision: the buffer values bit for bit, or
/// the rejection.
pub fn digest_decision(buffers: Option<&[f64]>) -> u64 {
    let mut h = Mix64::new();
    match buffers {
        None => h.write_u64(0),
        Some(values) => {
            h.write_usize(values.len() + 1);
            values.iter().fold(&mut h, |h, &v| h.write_f64(v))
        }
    };
    h.finish()
}

/// Digest of per-path delay ranges, endpoints bit for bit.
pub fn digest_ranges(ranges: impl Iterator<Item = (f64, f64)>) -> u64 {
    let mut h = Mix64::new();
    for (lower, upper) in ranges {
        h.write_f64(lower).write_f64(upper);
    }
    h.finish()
}

/// `true` if every side of `b` that an observation proved holds for the
/// true delay `d`, up to the rounding slack `DelayBounds::update` allows.
pub fn proven_sides_hold(b: &DelayBounds, d: f64) -> bool {
    let slack = b.lower.abs().max(b.upper.abs()).max(1.0) * 1e-9;
    (!b.lower_proven() || b.lower <= d + slack) && (!b.upper_proven() || d <= b.upper + slack)
}

/// What a run keeps of one chip's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipRecord {
    /// Digest of the whole outcome: iterations, counters, every range,
    /// the measured flags, the decision and the pass/fail result.
    pub digest: u64,
    /// [`digest_ranges`] of the predicted ranges.
    pub ranges: u64,
    /// [`digest_decision`] of the configuration.
    pub decision: u64,
    pub iterations: u64,
    pub contradictions: u64,
    pub widenings: u64,
    pub configured: bool,
    pub passes: bool,
    /// Every proven side of every measured range holds the true delay.
    pub bounds_ok: bool,
}

impl ChipRecord {
    #[allow(clippy::too_many_arguments)]
    fn new(
        chip: &ChipInstance,
        iterations: u64,
        contradictions: u64,
        widenings: u64,
        ranges: &[DelayBounds],
        measured: &[bool],
        configured: Option<&[f64]>,
        passes: bool,
    ) -> Self {
        let ranges_digest = digest_ranges(ranges.iter().map(|b| (b.lower, b.upper)));
        let decision = digest_decision(configured);
        let mut h = Mix64::new();
        h.write_u64(iterations).write_u64(contradictions).write_u64(widenings);
        h.write_u64(ranges_digest).write_u64(decision).write_u64(passes as u64);
        for &m in measured {
            h.write_u64(m as u64);
        }
        let bounds_ok = ranges
            .iter()
            .zip(measured)
            .enumerate()
            .all(|(p, (b, &m))| !m || proven_sides_hold(b, chip.setup_delay(p)));
        ChipRecord {
            digest: h.finish(),
            ranges: ranges_digest,
            decision,
            iterations,
            contradictions,
            widenings,
            configured: configured.is_some(),
            passes,
            bounds_ok,
        }
    }

    fn from_outcome(chip: &ChipInstance, o: &ChipOutcome) -> Self {
        ChipRecord::new(
            chip,
            o.iterations,
            o.contradictions,
            o.widenings,
            &o.ranges,
            &o.measured,
            o.configured.as_deref(),
            o.passes,
        )
    }
}

/// Busy time per layer of the traced per-chip flow, summed over chips.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub chips: u64,
    pub sample: Duration,
    pub aligned: Duration,
    pub align: Duration,
    pub predict: Duration,
    pub build: Duration,
    pub config: Duration,
    pub check: Duration,
    pub iterations: u64,
    pub contradictions: u64,
    pub widenings: u64,
    pub configured: u64,
    pub passing: u64,
}

/// The aligned-test knobs `EffiTestFlow` derives from its `FlowConfig`.
/// A drift from the flow's own derivation shows up as a digest mismatch
/// between the traced and the untraced run.
fn aligned_config(flow: &FlowConfig, epsilon: f64) -> AlignedTestConfig {
    AlignedTestConfig {
        epsilon,
        bound_sigma: flow.bound_sigma,
        k0: flow.k0,
        kd: flow.kd,
        use_alignment: flow.use_alignment,
        exact_alignment: flow.exact_alignment,
        incremental: flow.incremental,
        tolerate_contradictions: flow.tolerate_contradictions,
        ..AlignedTestConfig::default()
    }
}

/// Runs one chip through `run_chip_with`'s public pieces, timing each
/// layer: sampling, the aligned test (alignment solves and tester probes),
/// prediction, configuration-problem build, configuration, final check.
/// Returns the record and the aligned test's measured bounds.
pub fn traced_chip(
    flow: &EffiTestFlow,
    plan: &FlowPlan<'_>,
    ws: &mut FlowWorkspace,
    seed: u64,
    period: f64,
    layers: &mut Layers,
) -> (ChipRecord, HashMap<usize, DelayBounds>) {
    let t = Instant::now();
    let chip = plan.model.sample_chip(seed);
    layers.sample += t.elapsed();

    let t = Instant::now();
    let mut tester = VirtualTester::with_model(&chip, flow.config().tester);
    let aligned = run_aligned_test_with(
        ws.aligned(),
        plan.model,
        &mut tester,
        &plan.batches.batches,
        &plan.lambda,
        &aligned_config(flow.config(), plan.epsilon),
    );
    layers.aligned += t.elapsed();
    layers.align += aligned.align_time;

    let t = Instant::now();
    let predicted = plan.predictor.predict_with(ws.predict(), &aligned.bounds);
    layers.predict += t.elapsed();

    let t = Instant::now();
    let problem =
        build_config_problem(plan.model, &plan.buffers, &predicted.ranges, &plan.lambda, period);
    layers.build += t.elapsed();

    let t = Instant::now();
    let solution = configure(&problem);
    layers.config += t.elapsed();

    let t = Instant::now();
    let passes = solution.as_ref().is_some_and(|s| {
        chip_passes(&chip, period, &shifts_for(plan.model, &plan.buffers, &s.buffer_values))
    });
    layers.check += t.elapsed();

    let record = ChipRecord::new(
        &chip,
        aligned.iterations,
        aligned.contradictions,
        aligned.widenings,
        &predicted.ranges,
        &predicted.measured,
        solution.as_ref().map(|s| &s.buffer_values[..]),
        passes,
    );
    layers.chips += 1;
    layers.iterations += record.iterations;
    layers.contradictions += record.contradictions;
    layers.widenings += record.widenings;
    layers.configured += record.configured as u64;
    layers.passing += record.passes as u64;
    (record, aligned.bounds)
}

/// Per-layer metrics of the per-chip flow. `per_chip` supplies sampling,
/// prediction, configuration and the final check; `aligned` supplies the
/// aligned test (the same value on the population workloads).
pub fn flow_layer_metrics(per_chip: &Layers, aligned: &Layers) -> Vec<Metric> {
    let n = per_chip.chips.max(1) as f64;
    let na = aligned.chips.max(1) as f64;
    let ms = |d: Duration, n: f64| d.as_secs_f64() * 1e3 / n;
    let (chips, achips) = (per_chip.chips as usize, aligned.chips as usize);
    let probe = aligned.aligned.saturating_sub(aligned.align);
    vec![
        Metric::new("ssta.sample_ms", ms(per_chip.sample, n), "ms", chips),
        Metric::new("core.aligned_test_ms", ms(aligned.aligned, na), "ms", achips),
        Metric::new("solver.align_ms", ms(aligned.align, na), "ms", achips),
        Metric::new(
            "solver.align_us_per_solve",
            aligned.align.as_secs_f64() * 1e6 / aligned.iterations.max(1) as f64,
            "us",
            aligned.iterations as usize,
        )
        .with_note("one solve per tester iteration, bar rare stall probes"),
        Metric::new("tester.probe_ms", ms(probe, na), "ms", achips),
        Metric::new("core.predict_ms", ms(per_chip.predict, n), "ms", chips),
        Metric::new("core.config_build_ms", ms(per_chip.build, n), "ms", chips),
        Metric::new("solver.config_ms", ms(per_chip.config, n), "ms", chips),
        Metric::new("tester.check_ms", ms(per_chip.check, n), "ms", chips),
        Metric::new("tester.iters_per_chip", aligned.iterations as f64 / na, "count", achips),
        Metric::new("core.contradictions", aligned.contradictions as f64, "count", achips),
        Metric::new("core.widenings", aligned.widenings as f64, "count", achips),
        Metric::new("solver.config_feasible_frac", per_chip.configured as f64 / n, "ratio", chips),
        Metric::new(
            "core.config_pass_frac",
            per_chip.passing as f64 / per_chip.configured.max(1) as f64,
            "ratio",
            per_chip.configured as usize,
        ),
    ]
}

/// Per-layer metrics of set-up: netlist generation and model build from
/// `built`, the plan stages from `stages`, each the median over its
/// samples.
pub fn setup_layer_metrics(
    built: &[(Duration, Duration)],
    stages: &[PlanStageTimes],
) -> Vec<Metric> {
    let med = |f: &dyn Fn(&PlanStageTimes) -> Duration| {
        median(&stages.iter().map(|s| f(s).as_secs_f64()).collect::<Vec<_>>())
    };
    let n = stages.len();
    vec![
        Metric::new(
            "circuit.generate_s",
            median(&built.iter().map(|b| b.0.as_secs_f64()).collect::<Vec<_>>()),
            "s",
            built.len(),
        ),
        Metric::new(
            "ssta.model_s",
            median(&built.iter().map(|b| b.1.as_secs_f64()).collect::<Vec<_>>()),
            "s",
            built.len(),
        ),
        Metric::new("core.select_s", med(&|s| s.select), "s", n),
        Metric::new("core.oracle_s", med(&|s| s.oracle), "s", n),
        Metric::new("core.batch_s", med(&|s| s.batch), "s", n),
        Metric::new("core.hold_s", med(&|s| s.hold), "s", n),
        Metric::new("core.predictor_s", med(&|s| s.predictor), "s", n),
    ]
}

/// Per-layer counts fixed by the plan.
pub fn plan_count_metrics(plan: &FlowPlan<'_>) -> Vec<Metric> {
    vec![
        Metric::new("core.tested_paths", plan.tested_path_count() as f64, "count", 1),
        Metric::new("core.batches", plan.batches.len() as f64, "count", 1),
        Metric::new("core.groups", plan.groups.len() as f64, "count", 1),
        Metric::new("core.predict_fallbacks", plan.predictor.fallback_count() as f64, "count", 1),
        Metric::new("core.sigma_fallbacks", plan.sigma_fallbacks as f64, "count", 1),
    ]
}

/// Per-layer metrics of the plan cache: the median warm-load time and the
/// share of loads served from disk.
pub fn cache_layer_metrics(loads: &[Duration], hits: usize) -> Vec<Metric> {
    let ms: Vec<f64> = loads.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    vec![
        Metric::new("core.cache.load_ms", median(&ms), "ms", loads.len()),
        Metric::new("core.cache.hit_frac", hits as f64 / loads.len() as f64, "ratio", loads.len()),
    ]
}

/// Runs the batched population predictor over `matrix` and counts the
/// chips whose ranges differ from the per-chip engine's `records`.
/// Returns the metric and the mismatch count.
pub fn batched_prediction(
    plan: &FlowPlan<'_>,
    matrix: &ChipMatrix,
    ranges: &[u64],
) -> (Metric, usize) {
    let t = Instant::now();
    let batch = plan.predictor.predict_population(matrix, 1);
    let elapsed = t.elapsed();
    let mismatches = ranges
        .iter()
        .enumerate()
        .filter(|&(k, &digest)| {
            let pairs =
                batch.chip_lower(k).iter().copied().zip(batch.chip_upper(k).iter().copied());
            digest_ranges(pairs) != digest
        })
        .count();
    let n = ranges.len();
    let metric = Metric::new(
        "core.predict.population_ms",
        elapsed.as_secs_f64() * 1e3 / n.max(1) as f64,
        "ms",
        n,
    )
    .with_note("one batched pass over every chip");
    (metric, mismatches)
}

/// Chips of the s13207 population: the fewest that give a p99 with 10
/// chips beyond. Fewer chips buy more passes (one takes about 2 s), so
/// each chip's 80th percentile rests on more samples.
const CHIPS: usize = 1000;

/// Cold set-ups per run (about 6 s each); `setup_s` is their median.
const SETUPS: usize = 3;

/// Passes over the population an untraced run makes at least.
const MIN_PASSES: usize = 3;

/// Untraced passes a traced run makes, each followed by a traced one;
/// `trace_overhead_frac` compares the two modes' per-chip p80 cycles. With
/// 5 passes the p80 is each chip's 4th of 5 samples, which drops its
/// slowest; with 3 it would be the slowest.
pub const TRACE_PAIRS: usize = 5;

/// One untraced pass: per chip, its `run_chip_with` time and its cycle
/// time (see [`PassTimes`]) in nanoseconds, and its record.
struct Pass {
    latency: Vec<u64>,
    cycle: Vec<u64>,
    records: Vec<ChipRecord>,
}

/// Runs the whole population through `run_population_scratch` and
/// `run_chip_with`; a chip the flow rejects fails the run.
fn untraced_pass(
    flow: &EffiTestFlow,
    plan: &FlowPlan<'_>,
    pop: &PopulationConfig,
    period: f64,
) -> Result<Pass, String> {
    let started = Instant::now();
    let out = run_population_scratch(plan.model, pop, FlowWorkspace::new, |ws, _k, chip| {
        let entered = Instant::now();
        let outcome = flow.run_chip_with(ws, plan, chip, period);
        let ns = entered.elapsed().as_nanos() as u64;
        let record = outcome.map(|o| ChipRecord::from_outcome(chip, &o));
        (entered, ns, record.map_err(|e| format!("chip {}: {e}", chip.seed())))
    });
    // Chip k's cycle runs from its entry to chip k + 1's, which covers
    // sampling chip k + 1; the first also covers sampling chip 0.
    let mut marks: Vec<Instant> = out.iter().map(|o| o.0).collect();
    if let Some(first) = marks.first_mut() {
        *first = started;
    }
    marks.push(Instant::now());
    let cycle = marks.windows(2).map(|w| (w[1] - w[0]).as_nanos() as u64).collect();
    let (latency, records): (Vec<u64>, Vec<_>) = out.into_iter().map(|(_, ns, r)| (ns, r)).unzip();
    Ok(Pass { latency, cycle, records: records.into_iter().collect::<Result<_, _>>()? })
}

/// One timed set-up.
struct Setup {
    generate: Duration,
    model: Duration,
    plan: Duration,
    stages: PlanStageTimes,
}

/// Builds `built`'s plan cold and records the set-up.
fn timed_plan<'a>(
    flow: &EffiTestFlow,
    built: &'a Built,
    setups: &mut Vec<Setup>,
) -> Result<FlowPlan<'a>, String> {
    let t = Instant::now();
    let plan = flow.plan(&built.bench, &built.model).map_err(|e| format!("plan: {e}"))?;
    setups.push(Setup {
        generate: built.generate,
        model: built.model_time,
        plan: t.elapsed(),
        stages: plan.stage_times,
    });
    Ok(plan)
}

/// One traced pass: every chip through [`traced_chip`], each call timed
/// alone. Returns per chip the call's nanoseconds, its record and its
/// measured bounds.
fn traced_pass(
    flow: &EffiTestFlow,
    plan: &FlowPlan<'_>,
    pop: &PopulationConfig,
    period: f64,
    ws: &mut FlowWorkspace,
    layers: &mut Layers,
) -> (Vec<u64>, Vec<ChipRecord>, Vec<HashMap<usize, DelayBounds>>) {
    let n = pop.n_chips;
    let (mut ns, mut records, mut bounds) =
        (Vec::with_capacity(n), Vec::with_capacity(n), Vec::with_capacity(n));
    for k in 0..n {
        let t = Instant::now();
        let (record, measured) = traced_chip(flow, plan, ws, pop.chip_seed(k), period, layers);
        ns.push(t.elapsed().as_nanos() as u64);
        records.push(record);
        bounds.push(measured);
    }
    (ns, records, bounds)
}

/// Runs the `population_s13207` workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let spec = &BenchmarkSpec::iscas89_s13207();
    let flow = EffiTestFlow::new(FlowConfig::default());

    // Set-up: generate + model + cold plan. The first serves the run; the
    // repeats, timed the same way, run between passes, so each chip's
    // samples span the whole run.
    let mut setups = Vec::with_capacity(SETUPS);
    let kept = Built::new(spec);
    let plan = timed_plan(&flow, &kept, &mut setups)?;
    let setup_again = |setups: &mut Vec<Setup>| -> Result<(), String> {
        if setups.len() < SETUPS {
            timed_plan(&flow, &Built::new(spec), setups)?;
        }
        Ok(())
    };

    let pop = population(args.seed, CHIPS);
    let mut periods: Vec<f64> =
        (0..CHIPS).map(|k| kept.model.sample_chip(pop.chip_seed(k)).min_period_untuned()).collect();
    let period = designated_period(&mut periods);
    let n = CHIPS;
    let mut report = Report { attempted: n as u64, ..Report::default() };
    report.info.push(period_info(period));

    // Measured phase: whole untraced passes, at least `MIN_PASSES` and
    // more while they fit. A traced run instead makes `TRACE_PAIRS`
    // untraced passes, each followed by a traced one. Every pass, traced
    // or not, must repeat the first bit for bit.
    let started = Instant::now();
    let mut times = PassTimes::new(n);
    let mut traced_times = PassTimes::new(n);
    let mut records: Vec<ChipRecord> = Vec::new();
    let mut layers = Layers::default();
    let mut measured = Vec::new();
    let mut ws = FlowWorkspace::new();
    let min_passes = if args.trace { TRACE_PAIRS } else { MIN_PASSES };
    while times.passes() < min_passes
        || (!args.trace && another_pass(started, &times, args.seconds))
    {
        let pass = untraced_pass(&flow, &plan, &pop, period)?;
        times.push_pass(&pass.latency, &pass.cycle);
        if records.is_empty() {
            records = pass.records;
        } else if pass.records != records {
            report.failures.push(format!("pass {} differs from pass 1", times.passes()));
        }
        if args.trace {
            let mut pass_layers = Layers::default();
            let (ns, traced, bounds) =
                traced_pass(&flow, &plan, &pop, period, &mut ws, &mut pass_layers);
            traced_times.push_pass(&ns, &ns);
            if traced != records {
                report.failures.push(format!(
                    "traced pass {} differs from the untraced outcomes",
                    traced_times.passes()
                ));
            }
            if measured.is_empty() {
                (layers, measured) = (pass_layers, bounds);
            }
        }
        setup_again(&mut setups)?;
    }
    while setups.len() < SETUPS {
        setup_again(&mut setups)?;
    }
    let setup_s: Vec<f64> =
        setups.iter().map(|s| (s.generate + s.model + s.plan).as_secs_f64()).collect();

    // Checks, after the clock: proven bounds, and every passing chip
    // passing with ideal delay knowledge too.
    let failed = records
        .iter()
        .enumerate()
        .filter(|&(k, r)| {
            let ideal = || {
                let chip = kept.model.sample_chip(pop.chip_seed(k));
                ideal_configure_and_check(&kept.model, &plan.buffers, &chip, period)
            };
            !(r.bounds_ok && (!r.passes || ideal()))
        })
        .count() as u64;
    report.failed = failed;
    let passing = records.iter().filter(|r| r.passes).count();
    let yield_ = passing as f64 / n as f64;
    if passing == 0 || passing == n {
        report.failures.push(format!("yield {yield_} is not informative; move the period"));
    }
    let iterations: u64 = records.iter().map(|r| r.iterations).sum();
    let digest = records.iter().fold(Mix64::new(), |mut h, r| {
        h.write_u64(r.digest);
        h
    });
    report.info.push(format!("outcome digest {:016x}", digest.finish()));
    report.info.push(
        Metric::new("tester_iters_per_chip", iterations as f64 / n as f64, "count", n).line(),
    );
    report.info.push(Metric::new("failed_frac", failed as f64 / n as f64, "ratio", n).line());

    if !args.trace {
        report.metrics = times.metrics("run_chip_with")?;
        report.metrics.extend([
            Metric::new("setup_s", median(&setup_s), "s", SETUPS)
                .with_note("generate + model + cold plan"),
            Metric::new("yield", yield_, "ratio", n),
            Metric::new("peak_rss_mb", peak_rss_mib().ok_or("no VmHWM")?, "MiB", 1),
        ]);
        return Ok(report);
    }

    // The first traced pass's measured bounds, as a batched-prediction
    // matrix and as service events.
    let mut matrix = ChipMatrix::new(&plan.predictor, n);
    let mut events = ChipEvents::default();
    for (k, bounds) in measured.iter().enumerate() {
        matrix.set_chip(k, bounds);
        let mut chip_events: Vec<MeasurementEvent> =
            bounds.iter().map(|(&path, b)| service::event(k, path, b.lower, b.upper)).collect();
        chip_events.sort_by_key(|e| e.path);
        events.push_chip(chip_events);
    }
    drop(measured);

    // The remaining layers on the same circuit: batched prediction over
    // the traced chips, the plan cache, and the service fed the chips'
    // measured bounds, one chip per drain.
    let range_digests: Vec<u64> = records.iter().map(|r| r.ranges).collect();
    let (population_metric, mismatches) = batched_prediction(&plan, &matrix, &range_digests);
    if mismatches > 0 {
        report.failures.push(format!("batched prediction differs on {mismatches} chips"));
    }
    drop(matrix);
    let (loads, hits) = cache_probe(&flow, &kept, &plan, &args.scratch)?;
    if hits != CACHE_LOADS {
        report
            .failures
            .push(format!("{} of {CACHE_LOADS} loads missed the plan cache", CACHE_LOADS - hits));
    }
    let expected: Vec<u64> = records.iter().map(|r| r.decision).collect();
    let replay = service::replay(&plan, period, &events, &expected, true);
    report.failures.extend(replay.failures.iter().cloned());

    let build_times: Vec<(Duration, Duration)> =
        setups.iter().map(|s| (s.generate, s.model)).collect();
    let stages: Vec<PlanStageTimes> = setups.iter().map(|s| s.stages).collect();
    report.metrics = setup_layer_metrics(&build_times, &stages);
    report.metrics.extend(cache_layer_metrics(&loads, hits));
    report.metrics.extend(flow_layer_metrics(&layers, &layers));
    report.metrics.push(population_metric);
    report.metrics.extend(plan_count_metrics(&plan));
    report.metrics.extend(service::replay_layer_metrics(&replay));
    report.metrics.push(trace_overhead(&times, &traced_times));
    Ok(report)
}

/// `trace_overhead_frac`: 1 − traced ÷ untraced chips per second, both
/// from the per-chip p80 cycles of interleaved passes.
pub fn trace_overhead(untraced: &PassTimes, traced: &PassTimes) -> Metric {
    let passes = untraced.passes().min(traced.passes());
    Metric::new("trace_overhead_frac", 1.0 - traced.rate() / untraced.rate(), "ratio", passes)
        .with_note(format!("1 - traced / untraced p80 chips per second, {passes} passes each"))
}

/// Stores the plan in a fresh cache under `scratch` and times warm loads
/// of it, each through a new `PlanCache` as after a restart. Every load
/// must hit and reproduce the plan's fingerprint.
fn cache_probe(
    flow: &EffiTestFlow,
    built: &Built,
    plan: &FlowPlan<'_>,
    scratch: &Path,
) -> Result<(Vec<Duration>, usize), String> {
    let dir = scratch.join(format!("plan-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    PlanCache::new(&dir).store(plan_cache_key(&built.bench, &built.model, flow.config()), plan);
    let fingerprint = plan_fingerprint(plan);
    let mut loads = Vec::with_capacity(CACHE_LOADS);
    let mut hits = 0;
    let mut result = Ok(());
    for _ in 0..CACHE_LOADS {
        let mut cache = PlanCache::new(&dir);
        let t = Instant::now();
        let (loaded, outcome) =
            cache.load_or_build(flow, &built.bench, &built.model).map_err(|e| e.to_string())?;
        loads.push(t.elapsed());
        hits += (outcome == CacheOutcome::Hit) as usize;
        if plan_fingerprint(&loaded) != fingerprint {
            result = Err("cached plan differs from the built plan".to_string());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    result.map(|()| (loads, hits))
}
