//! Streaming test-floor service: out-of-order measurement ingestion with
//! deterministic per-chip tuning decisions.
//!
//! The batch drivers in [`crate::population`] assume a whole population's
//! measurements arrive together. A production test floor does not work
//! that way: several circuit revisions run concurrently, testers emit
//! per-path bound measurements as batches finish, and events for one chip
//! interleave arbitrarily with events for every other. This module is the
//! ingestion layer between that firehose and the per-chip prediction /
//! configuration stages:
//!
//! * **Sharded bounded queues** — every `(revision, chip)` pair maps to a
//!   fixed shard by a seeded hash ([`chip_shard`]). Each shard holds a
//!   bounded set of in-flight chips; [`ServiceError::QueueFull`] is the
//!   backpressure signal (drain, then retry), so memory stays bounded no
//!   matter how events arrive.
//! * **Out-of-order, duplicate-tolerant ingestion** — events carry their
//!   own coordinates, so arrival order is irrelevant. Duplicate
//!   measurements of one path merge by bound *intersection* (tightest
//!   lower/upper wins) — a commutative, associative fold, so the merged
//!   state is a pure function of the event **set**. Contradictory
//!   duplicates (empty intersection) widen to the union and are counted,
//!   never panicked on.
//! * **Per-chip decisions** — [`ServiceEngine::drain`] collects every
//!   *complete* chip (all planned paths measured) and decides each one
//!   through the batch flow's own per-chip stages: the revision plan's
//!   [`Predictor::predict_with`](crate::predict::Predictor::predict_with)
//!   → [`build_config_problem`] → [`configure`]. Chips are not batched
//!   across a drain: a test floor drains as soon as a chip's last
//!   measurement lands, so a drain nearly always decides exactly one chip
//!   and a cross-chip batch would have nothing to amortize.
//!
//! # Determinism
//!
//! Decisions are **bitwise invariant** to both worker-thread count and
//! event arrival order: shard assignment is a pure hash, per-shard chips
//! are kept in sorted `(revision, chip)` order, shards are processed by
//! the deterministic ordered [`par_map`](effitest_parallel::par_map), and
//! the engine never reads the wall clock. The same event set always
//! produces the same decision bytes — the property the CI service-smoke
//! job byte-compares across `EFFITEST_THREADS` values.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

use effitest_tester::DelayBounds;

use crate::configure::{build_config_problem, configure};
use crate::flow::FlowPlan;
use crate::predict::PredictWorkspace;
use crate::scenarios::json_f64;

/// One measurement emitted by a tester: a delay-bound interval for one
/// path of one chip of one circuit revision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementEvent {
    /// Circuit revision the chip belongs to (see
    /// [`ServiceEngine::register`]).
    pub revision: u64,
    /// Chip identifier, unique within its revision.
    pub chip: u64,
    /// Path index within the revision's model.
    pub path: usize,
    /// Measured lower delay bound.
    pub lower: f64,
    /// Measured upper delay bound.
    pub upper: f64,
}

/// Rejection reasons of [`ServiceEngine::ingest`]. All recoverable; the
/// engine never panics on bad input.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The event's revision was never [registered](ServiceEngine::register).
    UnknownRevision {
        /// The unregistered revision.
        revision: u64,
    },
    /// A revision was registered twice.
    RevisionExists {
        /// The already-registered revision.
        revision: u64,
    },
    /// The event's path is not in the revision's planned tested set (or
    /// is out of range entirely) — the plan will never wait for it, so
    /// accepting it would strand the chip.
    PathNotPlanned {
        /// The event's revision.
        revision: u64,
        /// The offending path index.
        path: usize,
    },
    /// The event's bounds are non-finite or inverted.
    InvalidBounds {
        /// The offending path index.
        path: usize,
    },
    /// The target shard already holds `queue_capacity` in-flight chips
    /// and the event would start a new one. Backpressure: drain, then
    /// retry the event.
    QueueFull {
        /// The saturated shard.
        shard: usize,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownRevision { revision } => {
                write!(f, "revision {revision} is not registered")
            }
            ServiceError::RevisionExists { revision } => {
                write!(f, "revision {revision} is already registered")
            }
            ServiceError::PathNotPlanned { revision, path } => {
                write!(f, "path {path} is not in revision {revision}'s planned tested set")
            }
            ServiceError::InvalidBounds { path } => {
                write!(f, "non-finite or inverted bounds for path {path}")
            }
            ServiceError::QueueFull { shard } => {
                write!(f, "shard {shard} is at capacity; drain before ingesting new chips")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Sizing knobs of a [`ServiceEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Shard count (decision parallelism granularity). Part of the
    /// deterministic-replay identity: changing it regroups chips and may
    /// reorder the decision stream (never its per-chip contents).
    pub shards: usize,
    /// Maximum in-flight (incomplete) chips per shard before
    /// [`ServiceError::QueueFull`].
    pub queue_capacity: usize,
    /// Worker threads for [`ServiceEngine::drain`]. Decisions are bitwise
    /// identical for every value.
    pub threads: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { shards: 8, queue_capacity: 1024, threads: 1 }
    }
}

/// One per-chip tuning decision.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningDecision {
    /// The chip's circuit revision.
    pub revision: u64,
    /// The chip identifier.
    pub chip: u64,
    /// The configured buffer values, or `None` when no assignment can
    /// make the chip meet its revision's clock period (rejected chip).
    pub buffers: Option<Vec<f64>>,
    /// Contradictory duplicate measurements absorbed into this chip's
    /// merged bounds.
    pub contradictions: u64,
}

/// Traffic and incident counters of a [`ServiceEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Events accepted (including merged duplicates).
    pub events: u64,
    /// Duplicate measurements merged by intersection.
    pub duplicates: u64,
    /// Contradictory duplicates widened to the union.
    pub contradictions: u64,
    /// Events rejected (any [`ServiceError`]).
    pub rejected: u64,
    /// Chips that reached a decision.
    pub decisions: u64,
}

/// One registered circuit revision: its plan plus derived lookup state.
#[derive(Debug)]
struct Revision<'a> {
    plan: &'a FlowPlan<'a>,
    clock_period: f64,
    /// `planned[p]` — is path `p` in the plan's tested set?
    planned: Vec<bool>,
    /// Number of planned tested paths (completion threshold).
    planned_count: usize,
}

/// A chip's accumulating measurement state.
#[derive(Debug, Default)]
struct ChipAccum {
    bounds: HashMap<usize, DelayBounds>,
    contradictions: u64,
}

/// SplitMix64 finalizer — the shard hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The shard owning `(revision, chip)` among `shards` shards — a pure
/// function, so replaying the same events always lands them identically.
pub fn chip_shard(revision: u64, chip: u64, shards: usize) -> usize {
    (splitmix64(splitmix64(revision) ^ chip) % shards.max(1) as u64) as usize
}

/// The streaming ingestion engine. See the module docs for the model.
#[derive(Debug)]
pub struct ServiceEngine<'a> {
    config: ServiceConfig,
    revisions: HashMap<u64, Revision<'a>>,
    /// Per-shard in-flight chips, sorted by `(revision, chip)` so drain
    /// order is arrival-order independent.
    shards: Vec<BTreeMap<(u64, u64), ChipAccum>>,
    stats: ServiceStats,
}

impl<'a> ServiceEngine<'a> {
    /// An empty engine with the given sizing.
    pub fn new(config: ServiceConfig) -> Self {
        let shards = config.shards.max(1);
        ServiceEngine {
            config,
            revisions: HashMap::new(),
            shards: (0..shards).map(|_| BTreeMap::new()).collect(),
            stats: ServiceStats::default(),
        }
    }

    /// Registers a circuit revision: chips of `revision` are tested
    /// against `plan` and configured for `clock_period`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::RevisionExists`] if `revision` is already
    /// registered.
    pub fn register(
        &mut self,
        revision: u64,
        plan: &'a FlowPlan<'a>,
        clock_period: f64,
    ) -> Result<(), ServiceError> {
        if self.revisions.contains_key(&revision) {
            return Err(ServiceError::RevisionExists { revision });
        }
        let mut planned = vec![false; plan.predictor.path_count()];
        for &p in plan.predictor.planned_paths() {
            planned[p] = true;
        }
        let planned_count = plan.predictor.tested_count();
        self.revisions.insert(revision, Revision { plan, clock_period, planned, planned_count });
        Ok(())
    }

    /// The engine's sizing.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// In-flight (incomplete or undrained) chips across all shards.
    pub fn pending_chips(&self) -> usize {
        self.shards.iter().map(BTreeMap::len).sum()
    }

    /// Accepts one measurement event, in any order relative to any other.
    ///
    /// Duplicates merge by intersection; contradictory duplicates widen
    /// to the union and count toward the chip's `contradictions`.
    ///
    /// # Errors
    ///
    /// See [`ServiceError`]; a rejected event leaves the engine
    /// unchanged apart from the `rejected` counter.
    pub fn ingest(&mut self, event: MeasurementEvent) -> Result<(), ServiceError> {
        match self.try_ingest(event) {
            Ok(()) => {
                self.stats.events += 1;
                Ok(())
            }
            Err(e) => {
                self.stats.rejected += 1;
                Err(e)
            }
        }
    }

    fn try_ingest(&mut self, event: MeasurementEvent) -> Result<(), ServiceError> {
        let rev = self
            .revisions
            .get(&event.revision)
            .ok_or(ServiceError::UnknownRevision { revision: event.revision })?;
        if !rev.planned.get(event.path).copied().unwrap_or(false) {
            return Err(ServiceError::PathNotPlanned {
                revision: event.revision,
                path: event.path,
            });
        }
        if !(event.lower.is_finite() && event.upper.is_finite() && event.lower <= event.upper) {
            return Err(ServiceError::InvalidBounds { path: event.path });
        }
        let shard = chip_shard(event.revision, event.chip, self.shards.len());
        let queue = &mut self.shards[shard];
        let key = (event.revision, event.chip);
        if !queue.contains_key(&key) && queue.len() >= self.config.queue_capacity {
            return Err(ServiceError::QueueFull { shard });
        }
        let accum = queue.entry(key).or_default();
        match accum.bounds.entry(event.path) {
            Entry::Vacant(slot) => {
                slot.insert(DelayBounds::new(event.lower, event.upper));
            }
            Entry::Occupied(mut slot) => {
                self.stats.duplicates += 1;
                let prev = *slot.get();
                let lo = prev.lower.max(event.lower);
                let up = prev.upper.min(event.upper);
                if lo <= up {
                    slot.insert(DelayBounds::new(lo, up));
                } else {
                    // Empty intersection: the measurements disagree.
                    // Keep the union so no information is silently
                    // dropped, and count the incident.
                    accum.contradictions += 1;
                    self.stats.contradictions += 1;
                    slot.insert(DelayBounds::new(
                        prev.lower.min(event.lower),
                        prev.upper.max(event.upper),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Decides every complete chip (all planned paths measured) and
    /// removes it from its queue; incomplete chips stay in flight.
    ///
    /// Decisions are ordered by shard, then `(revision, chip)` — a stable
    /// order independent of arrival order and thread count.
    pub fn drain(&mut self) -> Vec<TuningDecision> {
        // Extract complete chips per shard (single-threaded, cheap) so
        // the parallel phase only reads shared state.
        let mut ready: Vec<Vec<((u64, u64), ChipAccum)>> =
            self.shards.iter().map(|_| Vec::new()).collect();
        for (s, queue) in self.shards.iter_mut().enumerate() {
            let complete: Vec<(u64, u64)> = queue
                .iter()
                .filter(|(&(rev, _), accum)| {
                    self.revisions.get(&rev).is_some_and(|r| accum.bounds.len() == r.planned_count)
                })
                .map(|(&key, _)| key)
                .collect();
            for key in complete {
                let accum = queue.remove(&key).expect("key was just listed");
                ready[s].push((key, accum));
            }
        }
        let revisions = &self.revisions;
        let per_shard = effitest_parallel::par_map(self.config.threads, ready.len(), |s| {
            decide_shard(revisions, &ready[s])
        });
        let decisions: Vec<TuningDecision> = per_shard.into_iter().flatten().collect();
        self.stats.decisions += decisions.len() as u64;
        decisions
    }
}

/// Decides one shard's completed chips, in `(revision, chip)` order: each
/// chip's merged bounds go through its revision plan's
/// [`Predictor`](crate::predict::Predictor), the same per-chip prediction
/// the batch flow runs, then through [`build_config_problem`] and
/// [`configure`].
fn decide_shard(
    revisions: &HashMap<u64, Revision<'_>>,
    chips: &[((u64, u64), ChipAccum)],
) -> Vec<TuningDecision> {
    let mut ws = PredictWorkspace::new();
    chips
        .iter()
        .map(|((revision, chip), accum)| {
            let rev = &revisions[revision];
            let predicted = rev.plan.predictor.predict_with(&mut ws, &accum.bounds);
            let problem = build_config_problem(
                rev.plan.model,
                &rev.plan.buffers,
                &predicted.ranges,
                &rev.plan.lambda,
                rev.clock_period,
            );
            TuningDecision {
                revision: *revision,
                chip: *chip,
                buffers: configure(&problem).map(|sol| sol.buffer_values),
                contradictions: accum.contradictions,
            }
        })
        .collect()
}

/// Serializes one decision as a flat JSON object. Buffer values are
/// space-joined inside a single quoted string so the object stays flat
/// for [`crate::report::FlatReport`]; the values use Rust's shortest
/// round-trip float formatting, so the bytes carry the exact bits.
pub fn decision_to_json(d: &TuningDecision) -> String {
    let (status, buffers) = match &d.buffers {
        Some(b) => ("configured", b.iter().map(|&v| json_f64(v)).collect::<Vec<_>>().join(" ")),
        None => ("rejected", String::new()),
    };
    format!(
        "{{\"revision\": {}, \"chip\": {}, \"contradictions\": {}, \
         \"status\": \"{status}\", \"buffers\": \"{buffers}\"}}",
        d.revision, d.chip, d.contradictions
    )
}

/// Serializes a drained decision log as one JSON document: a flat head
/// object with the engine's traffic counters, one flat object per
/// registered plan (`plans` pairs a revision with its
/// [`plan_fingerprint`](crate::cache::plan_fingerprint)), and one flat
/// object per decision. Every leaf parses with
/// [`crate::report::parse_embedded_reports`].
///
/// The bytes depend only on the registered plans and the *set* of
/// ingested events — never on arrival order or thread count — so CI can
/// byte-compare logs across `EFFITEST_THREADS` values.
pub fn service_log_to_json(
    plans: &[(u64, u64)],
    stats: &ServiceStats,
    decisions: &[TuningDecision],
) -> String {
    let plan_cells: Vec<String> = plans
        .iter()
        .map(|&(rev, fp)| format!("    {{\"revision\": {rev}, \"fingerprint\": \"{fp:#018x}\"}}"))
        .collect();
    let decision_cells: Vec<String> =
        decisions.iter().map(|d| format!("    {}", decision_to_json(d))).collect();
    format!(
        concat!(
            "{{\n",
            "  \"head\": {{\"report\": \"effitest_service_log\", \"events\": {}, ",
            "\"duplicates\": {}, \"contradictions\": {}, \"rejected\": {}, ",
            "\"decisions\": {}}},\n",
            "  \"plans\": [\n{}\n  ],\n",
            "  \"decisions\": [\n{}\n  ]\n",
            "}}\n"
        ),
        stats.events,
        stats.duplicates,
        stats.contradictions,
        stats.rejected,
        stats.decisions,
        plan_cells.join(",\n"),
        decision_cells.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{EffiTestFlow, FlowConfig};
    use effitest_circuit::{BenchmarkSpec, GeneratedBenchmark};
    use effitest_ssta::{TimingModel, VariationConfig};

    fn fixture() -> (GeneratedBenchmark, TimingModel) {
        let spec = BenchmarkSpec::iscas89_s9234().scaled_down(20);
        let bench = GeneratedBenchmark::generate(&spec, 3);
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        (bench, model)
    }

    /// Events of one chip, derived from a batch-flow outcome's measured
    /// bounds.
    fn chip_events(
        revision: u64,
        chip: u64,
        outcome: &crate::flow::ChipOutcome,
    ) -> Vec<MeasurementEvent> {
        outcome
            .measured
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(p, _)| MeasurementEvent {
                revision,
                chip,
                path: p,
                lower: outcome.ranges[p].lower,
                upper: outcome.ranges[p].upper,
            })
            .collect()
    }

    #[test]
    fn rejects_are_typed_and_counted() {
        let (bench, model) = fixture();
        let flow = EffiTestFlow::new(FlowConfig::default());
        let plan = flow.plan(&bench, &model).expect("plan");
        let planned = plan.predictor.planned_paths().to_vec();
        let mut engine =
            ServiceEngine::new(ServiceConfig { shards: 2, queue_capacity: 1, threads: 1 });
        engine.register(9, &plan, model.nominal_period()).expect("register");
        assert_eq!(
            engine.register(9, &plan, model.nominal_period()),
            Err(ServiceError::RevisionExists { revision: 9 })
        );
        let ok =
            MeasurementEvent { revision: 9, chip: 0, path: planned[0], lower: 1.0, upper: 2.0 };
        assert_eq!(
            engine.ingest(MeasurementEvent { revision: 8, ..ok }),
            Err(ServiceError::UnknownRevision { revision: 8 })
        );
        let unplanned =
            (0..model.path_count()).find(|p| !planned.contains(p)).unwrap_or(model.path_count());
        assert_eq!(
            engine.ingest(MeasurementEvent { path: unplanned, ..ok }),
            Err(ServiceError::PathNotPlanned { revision: 9, path: unplanned })
        );
        assert_eq!(
            engine.ingest(MeasurementEvent { lower: 3.0, upper: 2.0, ..ok }),
            Err(ServiceError::InvalidBounds { path: planned[0] })
        );
        assert_eq!(
            engine.ingest(MeasurementEvent { lower: f64::NAN, ..ok }),
            Err(ServiceError::InvalidBounds { path: planned[0] })
        );
        engine.ingest(ok).expect("valid event");
        // A second chip on the same shard trips the capacity-1 queue.
        let shard = chip_shard(9, 0, 2);
        let same_shard_chip =
            (1..).find(|&c| chip_shard(9, c, 2) == shard).expect("hash covers both shards");
        assert_eq!(
            engine.ingest(MeasurementEvent { chip: same_shard_chip, ..ok }),
            Err(ServiceError::QueueFull { shard })
        );
        assert_eq!(engine.stats().rejected, 5);
        assert_eq!(engine.stats().events, 1);
    }

    #[test]
    fn duplicates_merge_by_intersection_and_contradictions_widen() {
        let (bench, model) = fixture();
        let flow = EffiTestFlow::new(FlowConfig::default());
        let plan = flow.plan(&bench, &model).expect("plan");
        let p = plan.predictor.planned_paths()[0];
        let mut engine = ServiceEngine::new(ServiceConfig::default());
        engine.register(1, &plan, model.nominal_period()).expect("register");
        let e = |lower, upper| MeasurementEvent { revision: 1, chip: 5, path: p, lower, upper };
        engine.ingest(e(1.0, 4.0)).unwrap();
        engine.ingest(e(2.0, 5.0)).unwrap();
        let shard = chip_shard(1, 5, engine.config().shards);
        let b = engine.shards[shard][&(1, 5)].bounds[&p];
        assert_eq!((b.lower, b.upper), (2.0, 4.0), "intersection of overlapping bounds");
        assert_eq!(engine.stats().duplicates, 1);
        assert_eq!(engine.stats().contradictions, 0);
        // Disjoint duplicate: widen to the union, count the incident.
        engine.ingest(e(6.0, 7.0)).unwrap();
        let b = engine.shards[shard][&(1, 5)].bounds[&p];
        assert_eq!((b.lower, b.upper), (2.0, 7.0), "union on contradiction");
        assert_eq!(engine.stats().contradictions, 1);
    }

    #[test]
    fn decisions_match_batch_flow_bitwise() {
        use crate::population::{run_flow_population, PopulationConfig};
        let (bench, model) = fixture();
        let flow = EffiTestFlow::new(FlowConfig::default());
        let plan = flow.plan(&bench, &model).expect("plan");
        let td = model.nominal_period();
        let pop = PopulationConfig { n_chips: 6, base_seed: 77, threads: 1 };
        let outcomes = run_flow_population(&flow, &plan, td, &pop);

        let mut events: Vec<MeasurementEvent> = Vec::new();
        for (k, o) in outcomes.iter().enumerate() {
            events.extend(chip_events(4, k as u64, o));
        }
        // Adversarial arrival order: reversed, which interleaves chips.
        events.reverse();
        let mut engine = ServiceEngine::new(ServiceConfig::default());
        engine.register(4, &plan, td).expect("register");
        for e in events {
            engine.ingest(e).expect("event");
        }
        let mut decisions = engine.drain();
        assert_eq!(decisions.len(), outcomes.len());
        assert_eq!(engine.pending_chips(), 0);
        decisions.sort_by_key(|d| d.chip);
        for (d, o) in decisions.iter().zip(&outcomes) {
            match (&d.buffers, &o.configured) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.to_bits(), y.to_bits(), "buffer values must match bitwise");
                    }
                }
                (None, None) => {}
                other => panic!("decision/outcome disagree: {other:?}"),
            }
        }
    }

    #[test]
    fn incomplete_chips_stay_pending_across_drains() {
        let (bench, model) = fixture();
        let flow = EffiTestFlow::new(FlowConfig::default());
        let plan = flow.plan(&bench, &model).expect("plan");
        let td = model.nominal_period();
        let chip = model.sample_chip(12);
        let outcome = flow.run_chip(&plan, &chip, td).expect("chip");
        let events = chip_events(2, 0, &outcome);
        let mut engine = ServiceEngine::new(ServiceConfig::default());
        engine.register(2, &plan, td).expect("register");
        let (last, rest) = events.split_last().expect("events");
        for e in rest {
            engine.ingest(*e).expect("event");
        }
        assert!(engine.drain().is_empty(), "incomplete chip must not decide");
        assert_eq!(engine.pending_chips(), 1);
        engine.ingest(*last).expect("final event");
        let decisions = engine.drain();
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].buffers, outcome.configured);
    }
}
