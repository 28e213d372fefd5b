//! Persistent, content-addressed plan cache.
//!
//! A [`FlowPlan`] is the expensive half of the EffiTest economics: one
//! correlation-grouping + factorization + coloring + hold-sampling pass
//! per circuit, amortized over every chip that circuit ever produces. This
//! module extends the amortization across *process lifetime*: the plan's
//! factored artifacts are serialized once ([`encode_plan`]) into a
//! versioned binary blob and stored on disk under a content key
//! ([`plan_cache_key`]) derived from everything the plan is a function of
//! — the generated benchmark (spec, flip-flops, gates and paths, walked
//! word by word), the timing-model parameters, and the flow
//! configuration. Any later process holding the same inputs reloads the
//! plan in milliseconds instead of re-deriving it.
//!
//! # Bitwise identity
//!
//! A reloaded plan is **bitwise identical** to a fresh `flow.plan()`
//! build: every serialized artifact round-trips by IEEE bit pattern, and
//! the one artifact *not* serialized, the buffer index, is rebuilt from
//! the model. Each conditioner is stored as its Cholesky factor, its
//! cross block and its conditional sigmas — eq. 5 reads nothing else. The
//! conflict oracle and the predicted sigmas only form the batches, so the
//! plan keeps neither and the blob holds what the per-chip flow reads:
//! 104,248 bytes of payload for full-size s13207 and 157,816 for
//! ac97_ctrl. [`plan_fingerprint`] — a `mix64` over the canonical
//! encoding — is the proof handle: tests assert
//! `plan_fingerprint(fresh) == plan_fingerprint(cached)` on every
//! topology, and the canonical encoding itself is byte-compared.
//!
//! # Failure containment
//!
//! The cache **never panics and never fails the flow** on a bad blob. A
//! truncated, corrupted, version-skewed, or key-colliding file surfaces as
//! a counted incident in [`CacheStats`], the plan is rebuilt from source,
//! and the entry is re-stored. I/O errors (unreadable directory, full
//! disk) are likewise counted and degrade the cache to a no-op.
//!
//! # Layout
//!
//! One file per plan, `<key as 16 hex digits>.plan`, in the cache
//! directory (`EFFITEST_PLAN_CACHE` or an explicit path):
//!
//! ```text
//! magic "EFPC" | version u32 | key u64 | payload_len u64 | payload | mix64(payload)
//! ```
//!
//! Stores write to a temp file and rename, so concurrent processes racing
//! on the same key see either the old or the new complete blob.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use effitest_circuit::fingerprint::Fnv64;
use effitest_circuit::GeneratedBenchmark;
use effitest_ssta::TimingModel;

use crate::codec::{CodecError, Reader, Writer};
use crate::configure::BufferIndex;
use crate::flow::{EffiTestFlow, FlowConfig, FlowError, FlowPlan, PlanStageTimes};
use crate::hold::HoldBounds;
use crate::predict::Predictor;
use crate::select::PathGroup;

/// File magic of plan-cache blobs.
pub const PLAN_MAGIC: [u8; 4] = *b"EFPC";

/// Codec version; bump on any layout change so stale blobs fall back to a
/// counted rebuild instead of misdecoding, and on any change to what a
/// plan build selects from the same inputs, so a blob built by the old
/// rule is rebuilt rather than served. Version 2: tied PCA loadings pick
/// the lowest index (`Pca::dominant_variable`). Version 3: each
/// conditioner carries its conditional sigmas instead of the full
/// conditional covariance. Version 4: no conflict oracle and no predicted
/// sigmas.
pub const PLAN_CODEC_VERSION: u32 = 4;

/// Content key of a plan: a fingerprint of everything `flow.plan(bench,
/// model)` is a function of. Two invocations with the same key build
/// bitwise-identical plans; any relevant input change — a different
/// netlist, a nudged variation sigma, another tuning range, another
/// selection or hold setting — changes the key, and a change to a per-chip
/// knob does not.
pub fn plan_cache_key(bench: &GeneratedBenchmark, model: &TimingModel, config: &FlowConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(PLAN_CODEC_VERSION as u64);
    h.write_u64(bench.content_fingerprint());
    h.write_u64(model_fingerprint(model));
    h.write_u64(flow_config_fingerprint(config));
    h.finish()
}

/// Fingerprint of the timing-model parameters that shape a plan: the
/// variation configuration, the buffer range, the nominal period, and the
/// path/factor dimensions. The benchmark content is keyed separately.
pub fn model_fingerprint(model: &TimingModel) -> u64 {
    let v = model.config();
    let spec = model.buffer_spec();
    let mut h = Fnv64::new();
    h.write_usize(model.path_count())
        .write_usize(model.factor_space().len())
        .write_f64(model.nominal_period())
        .write_f64(v.sigma_length)
        .write_f64(v.sigma_oxide)
        .write_f64(v.sigma_vth)
        .write_f64(v.global_correlation)
        .write_usize(v.grid_dim)
        .write_f64(v.local_sigma)
        .write_f64(spec.min())
        .write_f64(spec.width())
        .write_u64(spec.steps() as u64);
    h.finish()
}

/// Fingerprint of the [`FlowConfig`] fields a plan is built from: the
/// selection and hold configurations, `epsilon_divisor` and `bound_sigma`
/// (floats by bit pattern, the criticality option tagged so `None` and
/// `Some(0.0)` differ). The per-chip fields (`k0`, `kd`, the alignment
/// and incremental flags, the tester model, `tolerate_contradictions`)
/// shape no plan, so flows that differ only there share one cached plan.
pub fn flow_config_fingerprint(config: &FlowConfig) -> u64 {
    let mut h = Fnv64::new();
    let s = &config.select;
    h.write_f64(s.threshold_start)
        .write_f64(s.threshold_step)
        .write_f64(s.threshold_floor)
        .write_f64(s.pca_energy)
        .write_usize(s.max_group_size)
        .write_u64(s.criticality_fraction.is_some() as u64)
        .write_f64(s.criticality_fraction.unwrap_or(0.0))
        .write_f64(s.criticality_sigma);
    let hd = &config.hold;
    h.write_f64(hd.yield_target).write_usize(hd.samples).write_u64(hd.seed);
    h.write_f64(config.epsilon_divisor).write_f64(config.bound_sigma);
    h.finish()
}

/// Canonical binary encoding of a plan's persistent artifacts: groups,
/// batch schedule, hold bounds, the sigma-fallback count, the predictor's
/// factored conditioners and epsilon. Wall-clock fields (`prep_time`,
/// `stage_times`) and the buffer index, which is rebuilt from the model on
/// load, are deliberately excluded, so the encoding — and therefore
/// [`plan_fingerprint`] — is a pure function of the plan's semantic
/// content.
pub fn encode_plan(plan: &FlowPlan<'_>) -> Vec<u8> {
    let mut w = Writer::with_capacity(1 << 16);
    w.put_usize(plan.groups.len());
    for g in &plan.groups {
        w.put_usize_slice(&g.members);
        w.put_usize_slice(&g.selected);
        w.put_f64(g.threshold);
        w.put_usize(g.n_pcs);
    }
    plan.batches.encode(&mut w);
    plan.lambda.encode(&mut w);
    w.put_u64(plan.sigma_fallbacks);
    plan.predictor.encode(&mut w);
    w.put_f64(plan.epsilon);
    w.into_bytes()
}

/// Decodes a canonical plan payload back into a [`FlowPlan`] borrowing
/// `model`. The buffer index is rebuilt from the model and the wall-clock
/// fields are zeroed (the caller may stamp the load time into
/// `prep_time`).
///
/// # Errors
///
/// Any structural violation — truncation, out-of-range indices,
/// inconsistent dimensions — surfaces as a [`CodecError`]; nothing in the
/// decode path panics on malformed bytes.
pub fn decode_plan<'a>(bytes: &[u8], model: &'a TimingModel) -> Result<FlowPlan<'a>, CodecError> {
    let mut r = Reader::new(bytes);
    let n_paths = model.path_count();
    let n_groups = r.get_usize()?;
    let mut groups = Vec::with_capacity(n_groups.min(1 << 20));
    for _ in 0..n_groups {
        let members = r.get_usize_vec()?;
        let selected = r.get_usize_vec()?;
        if members.iter().chain(&selected).any(|&p| p >= n_paths) {
            return Err(CodecError::Invalid("group path index out of range"));
        }
        let threshold = r.get_f64()?;
        let n_pcs = r.get_usize()?;
        groups.push(PathGroup { members, selected, threshold, n_pcs });
    }
    let batches = crate::batch::Batches::decode(&mut r, n_paths)?;
    let lambda = HoldBounds::decode(&mut r, n_paths)?;
    let sigma_fallbacks = r.get_u64()?;
    let predictor = Predictor::decode(model, &mut r)?;
    let epsilon = r.get_f64()?;
    if !r.is_exhausted() {
        return Err(CodecError::Invalid("trailing bytes after plan payload"));
    }
    Ok(FlowPlan {
        model,
        groups,
        batches,
        lambda,
        buffers: BufferIndex::new(model),
        sigma_fallbacks,
        predictor,
        epsilon,
        prep_time: std::time::Duration::ZERO,
        stage_times: PlanStageTimes::default(),
    })
}

/// [`mix64`](effitest_circuit::fingerprint::mix64) fingerprint of a
/// plan's canonical encoding — the bitwise
/// identity handle: two plans fingerprint equal iff their persistent
/// artifacts are byte-identical under [`encode_plan`].
pub fn plan_fingerprint(plan: &FlowPlan<'_>) -> u64 {
    effitest_circuit::fingerprint::mix64(&encode_plan(plan))
}

/// Wraps a payload in the on-disk frame (magic, version, key, length,
/// checksum).
fn frame_blob(key: u64, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(payload.len() + 32);
    w.put_bytes(&PLAN_MAGIC);
    w.put_u32(PLAN_CODEC_VERSION);
    w.put_u64(key);
    w.put_usize(payload.len());
    w.put_bytes(payload);
    w.put_u64(effitest_circuit::fingerprint::mix64(payload));
    w.into_bytes()
}

/// Unframes an on-disk blob, returning the payload slice.
fn unframe_blob(bytes: &[u8], key: u64) -> Result<&[u8], CodecError> {
    let mut r = Reader::new(bytes);
    if r.get_bytes(4)? != PLAN_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.get_u32()?;
    if version != PLAN_CODEC_VERSION {
        return Err(CodecError::VersionSkew { found: version, expected: PLAN_CODEC_VERSION });
    }
    if r.get_u64()? != key {
        return Err(CodecError::KeyMismatch);
    }
    let len = r.get_usize()?;
    if len + 8 != r.remaining() {
        return Err(CodecError::UnexpectedEof {
            offset: r.position(),
            needed: (len + 8).saturating_sub(r.remaining()),
        });
    }
    let payload = r.get_bytes(len)?;
    if r.get_u64()? != effitest_circuit::fingerprint::mix64(payload) {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Incident counters of a [`PlanCache`]. Every rejected blob is counted
/// under exactly one of `corrupt` / `version_skew` / `key_mismatch`;
/// `io_errors` counts filesystem failures on load *or* store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Plans served from disk.
    pub hits: u64,
    /// Keys with no cache entry (plan built fresh and stored).
    pub misses: u64,
    /// Blobs rejected for corruption: bad magic, truncation, checksum or
    /// structural-validation failure.
    pub corrupt: u64,
    /// Blobs written by a different codec version.
    pub version_skew: u64,
    /// Blobs whose embedded key disagrees with the requested key (a file
    /// renamed or a key collision).
    pub key_mismatch: u64,
    /// Filesystem errors (other than a simply missing entry).
    pub io_errors: u64,
    /// Successful stores.
    pub stored: u64,
}

/// How [`PlanCache::load_or_build`] obtained a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from disk.
    Hit,
    /// No entry existed; built fresh and stored.
    Miss,
    /// An entry existed but was rejected; built fresh, re-stored, and the
    /// incident counted. Carries the rejection reason.
    Rebuilt(CodecError),
}

impl CacheOutcome {
    /// Short stable token for reports (`"hit"` / `"miss"` / `"rebuilt"`).
    pub fn token(&self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Rebuilt(_) => "rebuilt",
        }
    }
}

/// The content-addressed on-disk plan store. See the module docs for the
/// layout and failure semantics.
#[derive(Debug)]
pub struct PlanCache {
    dir: PathBuf,
    stats: CacheStats,
}

impl PlanCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PlanCache { dir: dir.into(), stats: CacheStats::default() }
    }

    /// A cache rooted at `$EFFITEST_PLAN_CACHE`, if the variable is set
    /// and non-empty.
    pub fn from_env() -> Option<Self> {
        match std::env::var("EFFITEST_PLAN_CACHE") {
            Ok(dir) if !dir.is_empty() => Some(Self::new(dir)),
            _ => None,
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Incident and traffic counters so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// On-disk path of a key's blob.
    pub fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.plan"))
    }

    /// Loads the plan for `(bench, model, flow.config())` from disk, or
    /// builds it fresh (storing the result) when the entry is missing or
    /// rejected. Rejected blobs are counted — see [`CacheStats`] — and
    /// *never* propagate: the only error a caller sees is a genuine
    /// plan-construction failure from [`EffiTestFlow::plan`].
    ///
    /// On a hit, the returned plan's `prep_time` carries the load
    /// duration (its stage breakdown stays zero); on a miss it carries
    /// the full build time as usual.
    ///
    /// # Errors
    ///
    /// Exactly those of [`EffiTestFlow::plan`].
    pub fn load_or_build<'a>(
        &mut self,
        flow: &EffiTestFlow,
        bench: &'a GeneratedBenchmark,
        model: &'a TimingModel,
    ) -> Result<(FlowPlan<'a>, CacheOutcome), FlowError> {
        let key = plan_cache_key(bench, model, flow.config());
        let started = Instant::now();
        let mut rejection: Option<CodecError> = None;
        match fs::read(self.path_for(key)) {
            Ok(bytes) => match unframe_blob(&bytes, key).and_then(|p| decode_plan(p, model)) {
                Ok(mut plan) => {
                    self.stats.hits += 1;
                    plan.prep_time = started.elapsed();
                    return Ok((plan, CacheOutcome::Hit));
                }
                Err(e) => {
                    match e {
                        CodecError::VersionSkew { .. } => self.stats.version_skew += 1,
                        CodecError::KeyMismatch => self.stats.key_mismatch += 1,
                        _ => self.stats.corrupt += 1,
                    }
                    rejection = Some(e);
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => self.stats.misses += 1,
            Err(_) => self.stats.io_errors += 1,
        }
        let plan = flow.plan(bench, model)?;
        self.store(key, &plan);
        let outcome = match rejection {
            Some(e) => CacheOutcome::Rebuilt(e),
            None => CacheOutcome::Miss,
        };
        Ok((plan, outcome))
    }

    /// Writes a plan's blob under `key` (temp file + rename). Filesystem
    /// failures are counted in [`CacheStats::io_errors`] and swallowed —
    /// a read-only cache directory degrades the cache, never the flow.
    pub fn store(&mut self, key: u64, plan: &FlowPlan<'_>) {
        let blob = frame_blob(key, &encode_plan(plan));
        if fs::create_dir_all(&self.dir).is_err() {
            self.stats.io_errors += 1;
            return;
        }
        let tmp = self.dir.join(format!(".tmp-{key:016x}-{}", std::process::id()));
        let ok = fs::write(&tmp, &blob).is_ok() && fs::rename(&tmp, self.path_for(key)).is_ok();
        if ok {
            self.stats.stored += 1;
        } else {
            let _ = fs::remove_file(&tmp);
            self.stats.io_errors += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use effitest_circuit::BenchmarkSpec;
    use effitest_ssta::VariationConfig;

    fn fixture() -> (GeneratedBenchmark, TimingModel) {
        let spec = BenchmarkSpec::iscas89_s13207().scaled_down(8);
        let bench = GeneratedBenchmark::generate(&spec, 11);
        let model = TimingModel::build(&bench, &VariationConfig::paper());
        (bench, model)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("effitest-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn encode_decode_round_trips_bitwise() {
        let (bench, model) = fixture();
        let flow = EffiTestFlow::new(FlowConfig::default());
        let plan = flow.plan(&bench, &model).expect("plan");
        let bytes = encode_plan(&plan);
        let decoded = decode_plan(&bytes, &model).expect("decode");
        assert_eq!(bytes, encode_plan(&decoded), "canonical encoding must round-trip");
        assert_eq!(plan_fingerprint(&plan), plan_fingerprint(&decoded));
        // And the decoded plan behaves identically on a chip.
        let chip = model.sample_chip(99);
        let td = model.nominal_period();
        let a = flow.run_chip(&plan, &chip, td).expect("fresh");
        let b = flow.run_chip(&decoded, &chip, td).expect("cached");
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.passes, b.passes);
        assert_eq!(a.configured, b.configured);
        for (x, y) in a.ranges.iter().zip(&b.ranges) {
            assert_eq!(x.lower.to_bits(), y.lower.to_bits());
            assert_eq!(x.upper.to_bits(), y.upper.to_bits());
        }
    }

    #[test]
    fn keys_separate_inputs() {
        let (bench, model) = fixture();
        let config = FlowConfig::default();
        let key = plan_cache_key(&bench, &model, &config);
        // Different flow config.
        let mut other = config.clone();
        other.epsilon_divisor *= 2.0;
        assert_ne!(key, plan_cache_key(&bench, &model, &other));
        // Different model parameters (inflated sigma).
        let spec = BenchmarkSpec::iscas89_s13207().scaled_down(8);
        let bench2 = GeneratedBenchmark::generate(&spec, 12);
        let model2 = TimingModel::build(&bench2, &VariationConfig::paper());
        assert_ne!(key, plan_cache_key(&bench2, &model2, &config));
    }

    #[test]
    fn cache_misses_then_hits_with_identical_fingerprint() {
        let (bench, model) = fixture();
        let flow = EffiTestFlow::new(FlowConfig::default());
        let dir = temp_dir("hit");
        let mut cache = PlanCache::new(&dir);
        let (fresh, outcome) = cache.load_or_build(&flow, &bench, &model).expect("miss build");
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().stored, 1);
        // A second cache instance (fresh process in spirit) hits.
        let mut cache2 = PlanCache::new(&dir);
        let (cached, outcome) = cache2.load_or_build(&flow, &bench, &model).expect("hit load");
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(cache2.stats().hits, 1);
        assert_eq!(plan_fingerprint(&fresh), plan_fingerprint(&cached));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejected_blobs_rebuild_with_counted_incidents() {
        let (bench, model) = fixture();
        let flow = EffiTestFlow::new(FlowConfig::default());
        let dir = temp_dir("corrupt");
        let mut cache = PlanCache::new(&dir);
        let key = plan_cache_key(&bench, &model, flow.config());
        cache.load_or_build(&flow, &bench, &model).expect("seed the cache");
        let path = cache.path_for(key);
        let good = fs::read(&path).expect("blob exists");

        // Truncation.
        fs::write(&path, &good[..good.len() / 2]).unwrap();
        let (_, outcome) = cache.load_or_build(&flow, &bench, &model).expect("rebuild");
        assert!(matches!(outcome, CacheOutcome::Rebuilt(_)));
        assert_eq!(cache.stats().corrupt, 1);

        // Version skew: patch the version field (bytes 4..8).
        let mut skewed = good.clone();
        skewed[4] = skewed[4].wrapping_add(1);
        fs::write(&path, &skewed).unwrap();
        let (_, outcome) = cache.load_or_build(&flow, &bench, &model).expect("rebuild");
        assert_eq!(
            outcome,
            CacheOutcome::Rebuilt(CodecError::VersionSkew {
                found: u32::from_le_bytes([skewed[4], skewed[5], skewed[6], skewed[7]]),
                expected: PLAN_CODEC_VERSION,
            })
        );
        assert_eq!(cache.stats().version_skew, 1);

        // Flipped payload byte: checksum catches it.
        let mut flipped = good.clone();
        let mid = 24 + (flipped.len() - 32) / 2;
        flipped[mid] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        let (_, outcome) = cache.load_or_build(&flow, &bench, &model).expect("rebuild");
        assert!(matches!(outcome, CacheOutcome::Rebuilt(_)));
        assert_eq!(cache.stats().corrupt, 2);

        // After every incident the entry was re-stored: a clean hit now.
        let (_, outcome) = cache.load_or_build(&flow, &bench, &model).expect("hit");
        assert_eq!(outcome, CacheOutcome::Hit);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_directory_degrades_to_counted_noop() {
        let (bench, model) = fixture();
        let flow = EffiTestFlow::new(FlowConfig::default());
        // A *file* where the directory should be: reads fail with
        // NotADirectory (not NotFound) and stores cannot create the dir.
        let bogus =
            std::env::temp_dir().join(format!("effitest-cache-blocker-{}", std::process::id()));
        fs::write(&bogus, b"not a directory").unwrap();
        let mut cache = PlanCache::new(&bogus);
        let (_, outcome) = cache.load_or_build(&flow, &bench, &model).expect("build");
        assert_eq!(outcome, CacheOutcome::Miss);
        assert!(cache.stats().io_errors >= 1, "io failures must be counted");
        let _ = fs::remove_file(&bogus);
    }
}
