//! The `service_stream` workload and the closed-loop replay it shares with
//! the traced population runs.
//!
//! Eight simulated testers each stream one chip's measurement events into a
//! `ServiceEngine`. The replay loop interleaves the testers event by event; when
//! an ingest completes a chip it drains the engine and the tester takes
//! its next chip only once the decision is back (a closed loop). A chip's
//! latency runs from the ingest of its last event to the return of the
//! drain that carries its decision.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use effitest_circuit::fingerprint::Mix64;
use effitest_circuit::BenchmarkSpec;
use effitest_core::cache::{CacheOutcome, PlanCache};
use effitest_core::configure::{
    build_config_problem, configure, ideal_configure_and_check, shifts_for,
};
use effitest_core::population::PopulationConfig;
use effitest_core::service::{
    MeasurementEvent, ServiceConfig, ServiceEngine, ServiceError, ServiceStats, TuningDecision,
};
use effitest_core::{
    ChipMatrix, EffiTestFlow, FlowConfig, FlowPlan, FlowWorkspace, PlanStageTimes, PredictWorkspace,
};
use effitest_tester::{chip_passes, DelayBounds};

use crate::flow::{self, Built, Layers, TRACE_PAIRS};
use crate::stats::{median, peak_rss_mib, tail, Metric, PassTimes};
use crate::{Args, Report};

/// Simulated testers feeding the engine concurrently.
const TESTERS: usize = 8;

/// The circuit revision every replayed chip belongs to.
const REVISION: u64 = 1;

/// Chips streamed per replay: a p99 with 30 chips beyond, and a replay
/// short enough (under 1 s) for dozens per run.
const CHIPS: usize = 3000;

/// Share of planned paths a tester measures twice.
const DUPLICATE_RATE: f64 = 0.05;

/// Simulated service restarts per run; `setup_s` is their median.
const RESTARTS: usize = 25;

/// Replays an untraced run makes at least.
const MIN_REPLAYS: usize = 5;

/// Chips of the service population run through the real aligned test,
/// which the service itself never runs: their bounds set the shape of the
/// synthesized ones, and a traced run reports their aligned-test layers.
const ALIGNED_PROBE_CHIPS: usize = 16;

/// One measurement event of chip `k` of the replayed revision.
pub fn event(k: usize, path: usize, lower: f64, upper: f64) -> MeasurementEvent {
    MeasurementEvent { revision: REVISION, chip: k as u64, path, lower, upper }
}

/// Every chip's events, stored flat; chip `k` owns
/// `events[starts[k]..starts[k + 1]]`.
#[derive(Debug, Clone, Default)]
pub struct ChipEvents {
    events: Vec<MeasurementEvent>,
    starts: Vec<usize>,
}

impl ChipEvents {
    /// Appends the next chip's events, in arrival order.
    pub fn push_chip(&mut self, events: impl IntoIterator<Item = MeasurementEvent>) {
        if self.starts.is_empty() {
            self.starts.push(0);
        }
        self.events.extend(events);
        self.starts.push(self.events.len());
    }

    /// Chips stored.
    pub fn chips(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Chip `k`'s events.
    fn chip(&self, k: usize) -> &[MeasurementEvent] {
        &self.events[self.starts[k]..self.starts[k + 1]]
    }
}

/// What one replay measured and checked.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per chip: nanoseconds from its last ingest to its decision.
    pub latency_ns: Vec<u64>,
    /// Per chip: nanoseconds from the previous decision (or the start) to
    /// its decision; these sum to the replay's wall time.
    pub cycle_ns: Vec<u64>,
    /// Wall time of the whole replay.
    pub wall: Duration,
    pub stats: ServiceStats,
    /// Per chip: no decision, several, or one that differs from the
    /// expected digest.
    pub bad: Vec<bool>,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// Ingests retried after `QueueFull`.
    pub retries: u64,
    /// Traced runs only: ingest busy time and count, per-drain times, the
    /// most chips ever in flight.
    pub ingest: Duration,
    pub ingests: u64,
    pub drain_ns: Vec<u64>,
    pub max_pending: usize,
}

impl Replay {
    fn reject(&mut self, chip: u64, err: &ServiceError) {
        self.failures.push(format!("chip {chip}: unexpected rejection: {err}"));
    }

    /// Marks this replay's bad chips in `failed` and moves its failed
    /// checks into `failures`.
    fn settle(&mut self, failed: &mut [bool], failures: &mut Vec<String>) {
        for (f, &bad) in failed.iter_mut().zip(&self.bad) {
            *f |= bad;
        }
        failures.append(&mut self.failures);
    }
}

/// Ingests one event; `QueueFull` is backpressure — drain, then retry.
/// Returns the decisions a backpressure drain produced.
fn ingest(
    engine: &mut ServiceEngine<'_>,
    e: MeasurementEvent,
    out: &mut Replay,
) -> Vec<TuningDecision> {
    match engine.ingest(e) {
        Ok(()) => Vec::new(),
        Err(ServiceError::QueueFull { .. }) => {
            out.retries += 1;
            let drained = engine.drain();
            if let Err(err) = engine.ingest(e) {
                out.reject(e.chip, &err);
            }
            drained
        }
        Err(err) => {
            out.reject(e.chip, &err);
            Vec::new()
        }
    }
}

/// Streams every chip of `chips` through a fresh engine with [`TESTERS`]
/// closed-loop testers and checks that each chip gets exactly one decision
/// whose digest equals `expected[k]`. `traced` also times every ingest and
/// drain call.
pub fn replay(
    plan: &FlowPlan<'_>,
    period: f64,
    chips: &ChipEvents,
    expected: &[u64],
    traced: bool,
) -> Replay {
    let n = chips.chips();
    let mut engine = ServiceEngine::new(ServiceConfig { threads: 1, ..ServiceConfig::default() });
    engine.register(REVISION, plan, period).expect("a fresh engine has no revisions");
    let mut out = Replay {
        latency_ns: vec![0; n],
        cycle_ns: vec![0; n],
        bad: vec![false; n],
        ..Replay::default()
    };
    let mut decisions: Vec<u32> = vec![0; n];
    let mut record = |out: &mut Replay, chip: u64, digest: u64| {
        let k = chip as usize;
        decisions[k] += 1;
        if digest != expected[k] {
            out.bad[k] = true;
            out.failures.push(format!("chip {k}: decision differs from the reference"));
        }
    };
    // Each tester holds (chip, index of its next event).
    let mut next_chip = 0;
    let mut take = || {
        let k = next_chip;
        next_chip += 1;
        (k < n).then_some((k, 0))
    };
    let mut testers: Vec<Option<(usize, usize)>> = (0..TESTERS).map(|_| take()).collect();
    let started = Instant::now();
    let mut previous = started;
    while testers.iter().any(Option::is_some) {
        for slot in &mut testers {
            let Some((k, i)) = *slot else { continue };
            let events = chips.chip(k);
            let last = i + 1 == events.len();
            let t0 = (last || traced).then(Instant::now);
            for d in ingest(&mut engine, events[i], &mut out) {
                record(&mut out, d.chip, flow::digest_decision(d.buffers.as_deref()));
            }
            if traced {
                out.ingest += t0.expect("traced").elapsed();
                out.ingests += 1;
                out.max_pending = out.max_pending.max(engine.pending_chips());
            }
            if !last {
                *slot = Some((k, i + 1));
                continue;
            }
            let t1 = Instant::now();
            let drained = engine.drain();
            let t2 = Instant::now();
            out.latency_ns[k] = (t2 - t0.expect("last event")).as_nanos() as u64;
            out.cycle_ns[k] = (t2 - previous).as_nanos() as u64;
            previous = t2;
            if traced {
                out.drain_ns.push((t2 - t1).as_nanos() as u64);
            }
            for d in &drained {
                record(&mut out, d.chip, flow::digest_decision(d.buffers.as_deref()));
            }
            *slot = take();
        }
    }
    out.wall = started.elapsed();
    out.stats = *engine.stats();
    for (k, &count) in decisions.iter().enumerate() {
        if count != 1 {
            out.bad[k] = true;
            out.failures.push(format!("chip {k}: {count} decisions"));
        }
    }
    out
}

/// Per-layer metrics of the service, from a traced replay.
pub fn replay_layer_metrics(r: &Replay) -> Vec<Metric> {
    let drains = r.drain_ns.len();
    let drain_ms: Vec<f64> = r.drain_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let drain_tail = tail(&drain_ms);
    let count = |name: &str, v: u64| Metric::new(name, v as f64, "count", drains);
    vec![
        Metric::new(
            "core.service.ingest_ns",
            r.ingest.as_secs_f64() * 1e9 / r.ingests.max(1) as f64,
            "ns",
            r.ingests as usize,
        ),
        Metric::new("core.service.drain_ms_p50", median(&drain_ms), "ms", drains),
        Metric::new(
            "core.service.drain_ms_tail",
            drain_tail.map_or(0.0, |t| t.value),
            "ms",
            drains,
        )
        .with_note(drain_tail.map_or("too few drains".into(), |t| t.label())),
        Metric::new(
            "core.service.chips_per_drain",
            r.stats.decisions as f64 / drains.max(1) as f64,
            "count",
            drains,
        ),
        count("core.service.events", r.stats.events),
        count("core.service.duplicates", r.stats.duplicates),
        count("core.service.rejected", r.stats.rejected),
        count("core.service.decisions", r.stats.decisions),
        count("core.service.max_pending_chips", r.max_pending as u64),
    ]
}

/// A splitmix64 stream for event synthesis.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1_u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The shape of a measured bound: its width as a share of `epsilon`, and
/// where the true delay `d` sits in it, from 0 at the lower end to 1 at the
/// upper. `None` unless observations proved both sides, which leaves out
/// the rare out-of-model chip whose delay lies beyond its assumed window.
fn bound_shape(b: &DelayBounds, d: f64, epsilon: f64) -> Option<(f64, f64)> {
    let width = b.width();
    (b.lower_proven() && b.upper_proven() && width > 0.0)
        .then(|| (width / epsilon, ((d - b.lower) / width).clamp(0.0, 1.0)))
}

/// Runs the first [`ALIGNED_PROBE_CHIPS`] chips of `pop` through the real
/// aligned test via [`flow::traced_chip`], untimed, and returns the shape
/// of every measured bound, in path order. Each probe chip must pass the
/// per-chip flow's checks; `layers` receives its traced layer times.
fn probe_bound_shapes(
    flow: &EffiTestFlow,
    plan: &FlowPlan<'_>,
    pop: &PopulationConfig,
    period: f64,
    layers: &mut Layers,
    failures: &mut Vec<String>,
) -> Vec<(f64, f64)> {
    let model = plan.model;
    let mut ws = FlowWorkspace::new();
    let mut shapes = Vec::new();
    for k in 0..ALIGNED_PROBE_CHIPS {
        let seed = pop.chip_seed(k);
        let (record, bounds) = flow::traced_chip(flow, plan, &mut ws, seed, period, layers);
        let chip = model.sample_chip(seed);
        if !(record.bounds_ok
            && (!record.passes || ideal_configure_and_check(model, &plan.buffers, &chip, period)))
        {
            failures.push(format!("aligned-test probe chip {k} failed a check"));
        }
        let mut measured: Vec<(&usize, &DelayBounds)> = bounds.iter().collect();
        measured.sort_by_key(|&(&p, _)| p);
        shapes.extend(
            measured
                .into_iter()
                .filter_map(|(&p, b)| bound_shape(b, chip.setup_delay(p), plan.epsilon)),
        );
    }
    shapes
}

/// One tester's events for chip `k`: a bound around each planned path's
/// true delay whose width and offset are drawn from `shapes`, plus
/// [`DUPLICATE_RATE`] re-measurements, in shuffled order. The last event is
/// a path measured once, so the chip completes exactly at its last event.
fn synthesize(
    delays: &[f64],
    planned: &[usize],
    epsilon: f64,
    shapes: &[(f64, f64)],
    k: usize,
    rng: &mut Stream,
) -> Vec<MeasurementEvent> {
    let bound = |rng: &mut Stream, p: usize| {
        let (width, at) = shapes[rng.below(shapes.len())];
        let width = epsilon * width;
        let below = width * at;
        event(k, p, delays[p] - below, delays[p] + (width - below))
    };
    let last = planned[rng.below(planned.len())];
    let mut events = Vec::with_capacity(planned.len() * 11 / 10);
    for &p in planned.iter().filter(|&&p| p != last) {
        events.push(bound(rng, p));
        if rng.unit() < DUPLICATE_RATE {
            events.push(bound(rng, p));
        }
    }
    for i in (1..events.len()).rev() {
        events.swap(i, rng.below(i + 1));
    }
    events.push(bound(rng, last));
    events
}

/// The merged bounds the engine keeps for a chip: duplicates intersect.
fn merge(events: &[MeasurementEvent]) -> HashMap<usize, DelayBounds> {
    let mut merged: HashMap<usize, (f64, f64)> = HashMap::with_capacity(events.len());
    for e in events {
        merged
            .entry(e.path)
            .and_modify(|(lo, up)| {
                *lo = lo.max(e.lower);
                *up = up.min(e.upper);
            })
            .or_insert((e.lower, e.upper));
    }
    merged.into_iter().map(|(p, (lo, up))| (p, DelayBounds::new(lo, up))).collect()
}

/// One simulated service restart's timings.
struct Restart {
    generate: Duration,
    model: Duration,
    load: Duration,
    register: Duration,
    hit: bool,
}

impl Restart {
    fn total_s(&self) -> f64 {
        (self.generate + self.model + self.load + self.register).as_secs_f64()
    }
}

/// The rest of a restart once `built` is generated: a warm plan load
/// through a new `PlanCache`, then registration with a new engine.
fn restart<'a>(
    flow: &EffiTestFlow,
    built: &'a Built,
    dir: &Path,
    period: f64,
) -> Result<(FlowPlan<'a>, Restart), String> {
    let t = Instant::now();
    let (plan, outcome) = PlanCache::new(dir)
        .load_or_build(flow, &built.bench, &built.model)
        .map_err(|e| format!("plan: {e}"))?;
    let load = t.elapsed();
    let t = Instant::now();
    ServiceEngine::new(ServiceConfig { threads: 1, ..ServiceConfig::default() })
        .register(REVISION, &plan, period)
        .map_err(|e| e.to_string())?;
    let timings = Restart {
        generate: built.generate,
        model: built.model_time,
        load,
        register: t.elapsed(),
        hit: outcome == CacheOutcome::Hit,
    };
    Ok((plan, timings))
}

/// Runs the `service_stream` workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let spec = BenchmarkSpec::tau13_ac97_ctrl();
    let flow = EffiTestFlow::new(FlowConfig::default());
    let dir = args.scratch.join(format!("plan-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = run_in(&spec, &flow, &dir, args);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(
    spec: &BenchmarkSpec,
    flow: &EffiTestFlow,
    dir: &Path,
    args: &Args,
) -> Result<Report, String> {
    // Fill the cache, untimed: the cold build a first-ever start pays.
    let cold = Built::new(spec);
    let (cold_plan, outcome) = PlanCache::new(dir)
        .load_or_build(flow, &cold.bench, &cold.model)
        .map_err(|e| format!("plan: {e}"))?;
    if outcome != CacheOutcome::Miss {
        return Err(format!("cache fill was a {}, not a miss", outcome.token()));
    }
    let cold_stages: PlanStageTimes = cold_plan.stage_times;

    // The designated period from the chips' untuned periods, before any
    // clock.
    let n = CHIPS;
    let pop = flow::population(args.seed, n);
    let mut periods: Vec<f64> =
        (0..n).map(|k| cold.model.sample_chip(pop.chip_seed(k)).min_period_untuned()).collect();
    let period = flow::designated_period(&mut periods);
    drop(cold_plan);
    drop(cold);

    // Simulated service restarts against the warm cache. The first one's
    // circuit and plan serve the run; the repeats, timed the same way, run
    // between replays, so `setup_s` samples the host over the whole run.
    let built = Built::new(spec);
    let (plan, first) = restart(flow, &built, dir, period)?;
    let mut restarts = Vec::with_capacity(RESTARTS);
    restarts.push(first);
    let restart_again = |restarts: &mut Vec<Restart>| -> Result<(), String> {
        if restarts.len() < RESTARTS {
            restarts.push(restart(flow, &Built::new(spec), dir, period)?.1);
        }
        Ok(())
    };
    let mut report = Report { attempted: n as u64, ..Report::default() };
    report.info.push(flow::period_info(period));

    // The shape of real aligned-test bounds on this circuit, which the
    // synthesized bounds follow.
    let mut aligned = Layers::default();
    let shapes = probe_bound_shapes(flow, &plan, &pop, period, &mut aligned, &mut report.failures);
    if shapes.is_empty() {
        return Err("the aligned-test probe measured no bounds".into());
    }
    let mut widths: Vec<f64> = shapes.iter().map(|s| s.0).collect();
    widths.sort_by(f64::total_cmp);
    report.info.push(format!(
        "{} probe bounds: width/epsilon p5 {:.3} median {:.3} p95 {:.3}",
        shapes.len(),
        widths[widths.len() / 20],
        median(&widths),
        widths[widths.len() * 19 / 20]
    ));

    // Inputs and each chip's reference decision, still before any clock:
    // each tester's events, synthesized around the chip's true delays;
    // predict_with + build_config_problem + configure on the chip's merged
    // bounds; then the final test on its true delays.
    let model = &built.model;
    let planned = plan.predictor.planned_paths();
    let mut events = ChipEvents::default();
    let mut expected = Vec::with_capacity(n);
    let mut range_digests = Vec::with_capacity(if args.trace { n } else { 0 });
    let mut matrix = args.trace.then(|| ChipMatrix::new(&plan.predictor, n));
    let mut layers = Layers::default();
    let mut pws = PredictWorkspace::new();
    let mut passing = 0;
    let mut failed_chips = vec![false; n];
    for (k, failed) in failed_chips.iter_mut().enumerate() {
        let t = Instant::now();
        let chip = model.sample_chip(pop.chip_seed(k));
        layers.sample += t.elapsed();
        let mut rng = Stream(Mix64::new().write_u64(args.seed).write_usize(k).finish());
        events.push_chip(synthesize(
            chip.setup_delays(),
            planned,
            plan.epsilon,
            &shapes,
            k,
            &mut rng,
        ));
        let merged = merge(events.chip(k));

        let t = Instant::now();
        let predicted = plan.predictor.predict_with(&mut pws, &merged);
        layers.predict += t.elapsed();
        let t = Instant::now();
        let problem =
            build_config_problem(model, &plan.buffers, &predicted.ranges, &plan.lambda, period);
        layers.build += t.elapsed();
        let t = Instant::now();
        let solution = configure(&problem);
        layers.config += t.elapsed();
        let t = Instant::now();
        let passes = solution.as_ref().is_some_and(|s| {
            chip_passes(&chip, period, &shifts_for(model, &plan.buffers, &s.buffer_values))
        });
        layers.check += t.elapsed();
        layers.chips += 1;
        layers.configured += solution.is_some() as u64;
        layers.passing += passes as u64;
        passing += passes as usize;
        expected.push(flow::digest_decision(solution.as_ref().map(|s| &s.buffer_values[..])));

        let contains = merged
            .iter()
            .all(|(&p, b)| b.lower <= chip.setup_delay(p) && chip.setup_delay(p) <= b.upper);
        let ideal = !passes || ideal_configure_and_check(model, &plan.buffers, &chip, period);
        *failed = !(contains && ideal);
        if let Some(m) = matrix.as_mut() {
            m.set_chip(k, &merged);
            range_digests
                .push(flow::digest_ranges(predicted.ranges.iter().map(|b| (b.lower, b.upper))));
        }
    }
    let yield_ = passing as f64 / n as f64;
    let digest = expected.iter().fold(Mix64::new(), |mut h, &d| {
        h.write_u64(d);
        h
    });
    report.info.push(format!("decision digest {:016x}", digest.finish()));
    if passing == 0 || passing == n {
        report.failures.push(format!("yield {yield_} is not informative; move the period"));
    }

    // Measured phase: whole replays, each a fresh engine over every chip,
    // at least `MIN_REPLAYS` and more while they fit. A traced run instead
    // makes `TRACE_PAIRS` untraced replays, each followed by a traced one.
    let started = Instant::now();
    let mut times = PassTimes::new(n);
    let mut traced_times = PassTimes::new(n);
    let mut last = Replay::default();
    let mut traced = None;
    let min_replays = if args.trace { TRACE_PAIRS } else { MIN_REPLAYS };
    while times.passes() < min_replays
        || (!args.trace && flow::another_pass(started, &times, args.seconds))
    {
        last = replay(&plan, period, &events, &expected, false);
        times.push_pass(&last.latency_ns, &last.cycle_ns);
        last.settle(&mut failed_chips, &mut report.failures);
        if args.trace {
            let mut r = replay(&plan, period, &events, &expected, true);
            traced_times.push_pass(&r.latency_ns, &r.cycle_ns);
            r.settle(&mut failed_chips, &mut report.failures);
            traced.get_or_insert(r);
        }
        restart_again(&mut restarts)?;
    }
    while restarts.len() < RESTARTS {
        restart_again(&mut restarts)?;
    }
    let setup_s: Vec<f64> = restarts.iter().map(Restart::total_s).collect();
    let hits = restarts.iter().filter(|r| r.hit).count();
    if hits != RESTARTS {
        report
            .failures
            .push(format!("{} of {RESTARTS} restarts missed the cache", RESTARTS - hits));
    }
    report.failed = failed_chips.iter().filter(|&&f| f).count() as u64;
    report
        .info
        .push(Metric::new("failed_frac", report.failed as f64 / n as f64, "ratio", n).line());
    report.info.push(format!(
        "{} events, {} duplicates, {} QueueFull retries per replay",
        last.stats.events, last.stats.duplicates, last.retries
    ));

    if !args.trace {
        report.metrics = times.metrics("last ingest to decision")?;
        report.metrics.extend([
            Metric::new("setup_s", median(&setup_s), "s", RESTARTS)
                .with_note("restart: generate + model + warm plan load + register"),
            Metric::new("yield", yield_, "ratio", n),
            Metric::new("peak_rss_mb", peak_rss_mib().ok_or("no VmHWM")?, "MiB", 1),
        ]);
        return Ok(report);
    }

    let traced = traced.expect("a traced run makes traced replays");
    let (population_metric, mismatches) =
        flow::batched_prediction(&plan, matrix.as_ref().expect("traced"), &range_digests);
    if mismatches > 0 {
        report.failures.push(format!("batched prediction differs on {mismatches} chips"));
    }
    drop(matrix);

    let gen_model: Vec<(Duration, Duration)> =
        restarts.iter().map(|r| (r.generate, r.model)).collect();
    let loads: Vec<Duration> = restarts.iter().map(|r| r.load).collect();
    report.metrics = flow::setup_layer_metrics(&gen_model, &[cold_stages]);
    report.metrics.extend(flow::cache_layer_metrics(&loads, hits));
    report.metrics.extend(flow::flow_layer_metrics(&layers, &aligned));
    report.metrics.push(population_metric);
    report.metrics.extend(flow::plan_count_metrics(&plan));
    report.metrics.extend(replay_layer_metrics(&traced));
    report.metrics.push(flow::trace_overhead(&times, &traced_times));
    Ok(report)
}
