//! Streaming-ingestion conformance: per-chip tuning decisions must be
//! **bitwise identical** no matter the event arrival order, the worker
//! thread count, or how many concurrent circuit revisions share the
//! engine — and identical to the in-order batch flow.

use effitest::prelude::*;
use effitest::testkit::parse_embedded_reports;

fn fixture(scale: usize, seed: u64) -> (GeneratedBenchmark, TimingModel) {
    let spec = BenchmarkSpec::iscas89_s13207().scaled_down(scale);
    let bench = GeneratedBenchmark::generate(&spec, seed);
    let model = TimingModel::build(&bench, &VariationConfig::paper());
    (bench, model)
}

/// Events of one revision's population, derived from the batch flow's
/// measured bounds (chip-major, i.e. the natural in-order stream).
fn revision_events(revision: u64, outcomes: &[ChipOutcome]) -> Vec<MeasurementEvent> {
    let mut events = Vec::new();
    for (k, o) in outcomes.iter().enumerate() {
        for (p, &m) in o.measured.iter().enumerate() {
            if m {
                events.push(MeasurementEvent {
                    revision,
                    chip: k as u64,
                    path: p,
                    lower: o.ranges[p].lower,
                    upper: o.ranges[p].upper,
                });
            }
        }
    }
    events
}

/// Deterministic Fisher-Yates driven by a splitmix64 stream — the tests
/// must not depend on ambient randomness.
fn shuffle(events: &mut [MeasurementEvent], mut state: u64) {
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..events.len()).rev() {
        events.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

/// Runs one engine over `events` and returns its drained decisions.
fn run_engine(
    registrations: &[(u64, &FlowPlan<'_>, f64)],
    events: &[MeasurementEvent],
    threads: usize,
) -> Vec<TuningDecision> {
    let mut engine = ServiceEngine::new(ServiceConfig { threads, ..ServiceConfig::default() });
    for &(revision, plan, td) in registrations {
        engine.register(revision, plan, td).expect("register");
    }
    for &e in events {
        engine.ingest(e).expect("event");
    }
    let decisions = engine.drain();
    assert_eq!(engine.pending_chips(), 0, "every chip must complete");
    decisions
}

fn assert_decisions_bitwise_equal(a: &[TuningDecision], b: &[TuningDecision], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: decision counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!((x.revision, x.chip), (y.revision, y.chip), "{what}: emission order differs");
        assert_eq!(x.contradictions, y.contradictions, "{what}: contradiction counts differ");
        match (&x.buffers, &y.buffers) {
            (Some(p), Some(q)) => {
                assert_eq!(p.len(), q.len());
                for (u, v) in p.iter().zip(q) {
                    assert_eq!(u.to_bits(), v.to_bits(), "{what}: buffer bits differ");
                }
            }
            (None, None) => {}
            other => panic!("{what}: feasibility disagrees: {other:?}"),
        }
    }
}

#[test]
fn shuffled_arrival_matches_in_order_batch_processing_at_every_thread_count() {
    // Two concurrent circuit revisions sharing one engine.
    let (bench_a, model_a) = fixture(16, 3);
    let (bench_b, model_b) = fixture(24, 8);
    let flow = EffiTestFlow::new(FlowConfig::default());
    let plan_a = flow.plan(&bench_a, &model_a).expect("plan a");
    let plan_b = flow.plan(&bench_b, &model_b).expect("plan b");
    let td_a = model_a.nominal_period();
    let td_b = model_b.nominal_period();

    let pop = |seed| PopulationConfig { n_chips: 5, base_seed: seed, threads: 1 };
    let outcomes_a = run_flow_population(&flow, &plan_a, td_a, &pop(41));
    let outcomes_b = run_flow_population(&flow, &plan_b, td_b, &pop(42));

    let mut in_order = revision_events(1, &outcomes_a);
    in_order.extend(revision_events(2, &outcomes_b));
    let registrations = [(1, &plan_a, td_a), (2, &plan_b, td_b)];

    // The reference: in-order arrival, single worker thread.
    let reference = run_engine(&registrations, &in_order, 1);
    assert_eq!(reference.len(), outcomes_a.len() + outcomes_b.len());

    // Every decision must match the batch flow's configuration bitwise.
    for d in &reference {
        let outcome = match d.revision {
            1 => &outcomes_a[d.chip as usize],
            _ => &outcomes_b[d.chip as usize],
        };
        match (&d.buffers, &outcome.configured) {
            (Some(p), Some(q)) => {
                for (u, v) in p.iter().zip(q) {
                    assert_eq!(u.to_bits(), v.to_bits(), "service diverged from batch flow");
                }
            }
            (None, None) => {}
            other => panic!("service/batch feasibility disagrees: {other:?}"),
        }
    }

    // Shuffled arrival at 1 and 4 worker threads: bitwise the same
    // decisions, in the same emission order.
    for threads in [1, 4] {
        for shuffle_seed in [0xBEEF_u64, 0xCAFE, 7] {
            let mut shuffled = in_order.clone();
            shuffle(&mut shuffled, shuffle_seed);
            assert_ne!(shuffled, in_order, "shuffle must actually permute");
            let decisions = run_engine(&registrations, &shuffled, threads);
            assert_decisions_bitwise_equal(
                &decisions,
                &reference,
                &format!("threads={threads} seed={shuffle_seed:#x}"),
            );
        }
    }
}

#[test]
fn interleaved_revisions_drain_in_deterministic_shard_order() {
    let (bench, model) = fixture(20, 5);
    let flow = EffiTestFlow::new(FlowConfig::default());
    let plan = flow.plan(&bench, &model).expect("plan");
    let td = model.nominal_period();
    let outcomes = run_flow_population(
        &flow,
        &plan,
        td,
        &PopulationConfig { n_chips: 4, base_seed: 9, threads: 1 },
    );

    // The same plan registered under two revisions, events interleaved
    // one-by-one: the drain order depends only on (shard, revision, chip).
    let a = revision_events(10, &outcomes);
    let b = revision_events(11, &outcomes);
    let mut interleaved = Vec::with_capacity(a.len() + b.len());
    for (x, y) in a.iter().zip(&b) {
        interleaved.push(*x);
        interleaved.push(*y);
    }
    let registrations = [(10, &plan, td), (11, &plan, td)];
    let first = run_engine(&registrations, &interleaved, 4);

    interleaved.reverse();
    let second = run_engine(&registrations, &interleaved, 1);
    assert_decisions_bitwise_equal(&first, &second, "reversed interleave");

    // Same chips under both revisions: identical buffers per chip.
    for d in &first {
        let outcome = &outcomes[d.chip as usize];
        assert_eq!(d.buffers.is_some(), outcome.configured.is_some());
    }
}

#[test]
fn decision_log_round_trips_through_the_shared_report_parser() {
    let (bench, model) = fixture(24, 2);
    let flow = EffiTestFlow::new(FlowConfig::default());
    let plan = flow.plan(&bench, &model).expect("plan");
    let td = model.nominal_period();
    let outcomes = run_flow_population(
        &flow,
        &plan,
        td,
        &PopulationConfig { n_chips: 3, base_seed: 6, threads: 1 },
    );
    let events = revision_events(1, &outcomes);
    let mut engine = ServiceEngine::new(ServiceConfig::default());
    engine.register(1, &plan, td).expect("register");
    for e in events {
        engine.ingest(e).expect("event");
    }
    let decisions = engine.drain();
    let fingerprint = plan_fingerprint(&plan);

    let json = service_log_to_json(&[(1, fingerprint)], engine.stats(), &decisions);
    let cells = parse_embedded_reports(&json).expect("the emitted log must parse");
    // One head, one plan row, one row per decision — all flat leaves.
    assert_eq!(cells.len(), 2 + decisions.len());
    assert_eq!(cells[0].str("report"), Ok("effitest_service_log"));
    assert_eq!(cells[0].num("decisions"), Ok(decisions.len() as f64));
    assert_eq!(cells[1].str("fingerprint"), Ok(format!("{fingerprint:#018x}").as_str()));
    for (cell, d) in cells[2..].iter().zip(&decisions) {
        assert_eq!(cell.num("revision"), Ok(d.revision as f64));
        assert_eq!(cell.num("chip"), Ok(d.chip as f64));
        let status = cell.str("status").expect("status field");
        match &d.buffers {
            Some(b) => {
                assert_eq!(status, "configured");
                // Shortest round-trip formatting: parsing the space-
                // joined string recovers the exact bits.
                let parsed: Vec<f64> = cell
                    .str("buffers")
                    .expect("buffers field")
                    .split_whitespace()
                    .map(|t| t.parse().expect("buffer token"))
                    .collect();
                assert_eq!(parsed.len(), b.len());
                for (u, v) in parsed.iter().zip(b) {
                    assert_eq!(u.to_bits(), v.to_bits(), "buffer bits survived the log");
                }
            }
            None => assert_eq!(status, "rejected"),
        }
    }
}
