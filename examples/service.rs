//! Test-floor service driver: acquire the chip-independent plan through
//! the persistent cache, stream a shuffled out-of-order measurement log
//! through the ingestion engine, and write the decision log.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example service [scale] [chips] [shuffle_seed]
//! ```
//!
//! * `scale` — `scaled_down` factor for the base circuit (default 24).
//! * `chips` — simulated chip population (default 6).
//! * `shuffle_seed` — seed of the deterministic event shuffle (default
//!   `0xD15C`); `0` streams events in order.
//!
//! Plan blobs live under `$EFFITEST_PLAN_CACHE` (unset: plans build
//! fresh, nothing is stored). Worker threads come from
//! `EFFITEST_THREADS`; the log lands at `EFFITEST_SERVICE_OUT` (default
//! `SERVICE.json`). Log bytes are identical across reruns, thread
//! counts, and arrival orders — the CI `service-smoke` job diffs them
//! byte-for-byte and asserts a cache hit after a driver restart via the
//! outcome token printed on stdout.

use effitest::flow::population::{parse_env_count, threads_from_env};
use effitest::prelude::*;

/// Chip-major event stream of one revision's population, derived from
/// the batch flow's measured bounds.
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

/// Deterministic Fisher-Yates driven by a splitmix64 stream — the
/// driver must not depend on ambient randomness.
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let scale: usize = match args.get(1) {
        Some(raw) => parse_env_count("scale", raw)?,
        None => 24,
    };
    let chips: usize = match args.get(2) {
        Some(raw) => parse_env_count("chips", raw)?,
        None => 6,
    };
    let shuffle_seed: u64 = match args.get(3) {
        Some(raw) => parse_env_count("shuffle_seed", raw)? as u64,
        None => 0xD15C,
    };
    let threads = threads_from_env()?;

    let spec = BenchmarkSpec::iscas89_s13207().scaled_down(scale);
    let bench = GeneratedBenchmark::generate(&spec, 7);
    let model = TimingModel::build(&bench, &VariationConfig::paper());
    let flow = EffiTestFlow::new(FlowConfig::default());

    // Plan acquisition: through the persistent cache when one is
    // configured, fresh otherwise. The outcome token on stdout is what
    // CI greps to assert a hit after a driver restart.
    let (plan, outcome_token) = match PlanCache::from_env() {
        Some(mut cache) => {
            let (plan, outcome) = cache.load_or_build(&flow, &bench, &model)?;
            (plan, outcome.token())
        }
        None => (flow.plan(&bench, &model)?, "uncached"),
    };
    let fingerprint = plan_fingerprint(&plan);
    println!(
        "plan: {} tested paths, cache {outcome_token}, fingerprint {fingerprint:#018x}",
        plan.predictor.planned_paths().len(),
    );

    let td = model.nominal_period();
    let outcomes = run_flow_population(
        &flow,
        &plan,
        td,
        &PopulationConfig { n_chips: chips, base_seed: 11, threads },
    );
    let mut events = revision_events(1, &outcomes);
    if shuffle_seed != 0 {
        shuffle(&mut events, shuffle_seed);
    }

    let mut engine = ServiceEngine::new(ServiceConfig { threads, ..ServiceConfig::default() });
    engine.register(1, &plan, td)?;
    for e in events {
        engine.ingest(e)?;
    }
    let decisions = engine.drain();
    if engine.pending_chips() != 0 {
        return Err(format!("{} chips never completed", engine.pending_chips()).into());
    }

    let stats = *engine.stats();
    let configured = decisions.iter().filter(|d| d.buffers.is_some()).count();
    println!(
        "service: {} events ({} duplicates, {} contradictions) -> {} decisions \
         ({configured} configured, {} rejected), {threads} threads",
        stats.events,
        stats.duplicates,
        stats.contradictions,
        decisions.len(),
        decisions.len() - configured,
    );

    let json = service_log_to_json(&[(1, fingerprint)], &stats, &decisions);
    let path = std::env::var("EFFITEST_SERVICE_OUT").unwrap_or_else(|_| "SERVICE.json".to_owned());
    std::fs::write(&path, &json)?;
    println!("recorded {} decisions -> {path}", decisions.len());
    Ok(())
}
