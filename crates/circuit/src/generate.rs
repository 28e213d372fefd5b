//! Deterministic synthetic benchmark generation.
//!
//! The paper evaluates on ISCAS89 and TAU13 netlists mapped to an industrial
//! library; those netlists (and the library) are not redistributable, so the
//! reproduction generates synthetic circuits that match every statistic the
//! paper publishes about its benchmarks (Table 1): the number of flip-flops
//! `ns`, gates `ng`, tunable buffers `nb`, and required paths `np` — plus
//! the *structural* properties the EffiTest techniques rely on:
//!
//! * critical paths form **physical clusters** around buffered flip-flops
//!   (paper Fig. 5), so intra-cluster path delays are strongly correlated;
//! * paths converging at one flip-flop share their chain suffix (a shared
//!   logic cone), adding structural delay correlation on top of the spatial
//!   one;
//! * a small fraction of **outlier** paths is spread across the die so the
//!   correlation-threshold grouping loop of Procedure 1 has genuinely
//!   weakly-correlated work to do;
//! * every required path touches at least one buffered flip-flop, because
//!   `np` counts exactly the delays needed to configure the buffers;
//! * each required max path is paired with a short (min-delay) path through
//!   the same logic cone, which drives the hold-time constraints of §3.5.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{
    FlipFlop, FlipFlopId, Gate, GateId, GateKind, Netlist, PathKind, PathSet, Point, Rect, Signal,
    Topology,
};

/// Statistics-level description of a benchmark circuit (one row of the
/// paper's Table 1) plus generator tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// Circuit name (e.g. `"s9234"`).
    pub name: String,
    /// Number of flip-flops (`ns`).
    pub ns: usize,
    /// Number of combinational gates (`ng`).
    pub ng: usize,
    /// Number of tunable buffers (`nb`).
    pub nb: usize,
    /// Number of required max-delay paths (`np`).
    pub np: usize,
    /// Number of physical path clusters.
    pub clusters: usize,
    /// Die edge length in micrometers.
    pub die_size: f64,
    /// Minimum gates per required path.
    pub min_path_len: usize,
    /// Maximum gates per required path.
    pub max_path_len: usize,
    /// Fraction of `np` generated as spatially spread outlier paths.
    pub outlier_fraction: f64,
    /// Clock-network / path-population topology (see [`Topology`]).
    pub topology: Topology,
}

impl BenchmarkSpec {
    fn paper(name: &str, ns: usize, ng: usize, nb: usize, np: usize) -> Self {
        // Clusters per circuit: roughly one per three buffers, but never so
        // many that a cluster cannot host its share of distinct
        // (source, sink) pairs — each required path must touch one of the
        // cluster's hubs, so a cluster with h hubs and m member flip-flops
        // offers about h * m distinct pairs.
        let pair_limited = (nb * (ns - nb)) / (2 * np).max(1);
        let clusters = (nb / 3).min(pair_limited).max(1);
        BenchmarkSpec {
            name: name.to_owned(),
            ns,
            ng,
            nb,
            np,
            clusters,
            die_size: 1000.0,
            // Required paths are near-critical: the paper only measures
            // paths whose delays matter for buffer configuration, so their
            // delays cluster near the clock period. A narrow length band
            // keeps delay ranges overlapping, which both the alignment
            // technique (paper Fig. 6c) and the small tuning range (T/8)
            // depend on.
            min_path_len: 10,
            max_path_len: 14,
            outlier_fraction: 0.03,
            topology: Topology::PaperClusters,
        }
    }

    /// ISCAS89 s9234 (Table 1: 211 FFs, 5597 gates, 2 buffers, 80 paths).
    pub fn iscas89_s9234() -> Self {
        Self::paper("s9234", 211, 5597, 2, 80)
    }

    /// ISCAS89 s13207 (638 FFs, 7951 gates, 5 buffers, 485 paths).
    pub fn iscas89_s13207() -> Self {
        Self::paper("s13207", 638, 7951, 5, 485)
    }

    /// ISCAS89 s15850 (534 FFs, 9772 gates, 5 buffers, 397 paths).
    pub fn iscas89_s15850() -> Self {
        Self::paper("s15850", 534, 9772, 5, 397)
    }

    /// ISCAS89 s38584 (1426 FFs, 19253 gates, 7 buffers, 370 paths).
    pub fn iscas89_s38584() -> Self {
        Self::paper("s38584", 1426, 19253, 7, 370)
    }

    /// TAU13 mem_ctrl (1065 FFs, 10327 gates, 10 buffers, 3016 paths).
    pub fn tau13_mem_ctrl() -> Self {
        Self::paper("mem_ctrl", 1065, 10327, 10, 3016)
    }

    /// TAU13 usb_funct (1746 FFs, 14381 gates, 17 buffers, 482 paths).
    pub fn tau13_usb_funct() -> Self {
        Self::paper("usb_funct", 1746, 14381, 17, 482)
    }

    /// TAU13 ac97_ctrl (2199 FFs, 9208 gates, 21 buffers, 780 paths).
    pub fn tau13_ac97_ctrl() -> Self {
        Self::paper("ac97_ctrl", 2199, 9208, 21, 780)
    }

    /// TAU13 pci_bridge32 (3321 FFs, 12494 gates, 32 buffers, 3472 paths).
    pub fn tau13_pci_bridge32() -> Self {
        Self::paper("pci_bridge32", 3321, 12494, 32, 3472)
    }

    /// An industrial-scale spec: `np` sensitizable paths converging on an
    /// H-tree clock network ([`Topology::Large`]).
    ///
    /// The statistics are *derived*, not free knobs: one sink hub per
    /// H-tree leaf (`nb = 4^depth`, depth picked so each hub captures a
    /// few hundred paths), one launching flip-flop per path
    /// (`ns = np + nb`), and `ng` from the closed-form gate count of the
    /// fan-in-pair structure the large generator builds — which is also
    /// how the generator can run in constant work per path and still
    /// reproduce the spec's statistics exactly.
    ///
    /// A thin slice of paths (~1.6%, spread uniformly over the hubs) gets
    /// maximum-length all-`Buf` chains; everything else is strictly
    /// shorter, so criticality-driven pre-selection has a real tail to
    /// cut at.
    ///
    /// # Panics
    ///
    /// Panics for `np < 64`; the tier starts where the paper-sized
    /// generator stops.
    pub fn large(np: usize) -> Self {
        assert!(np >= 64, "the large tier starts at 64 paths; use a paper spec below that");
        let mut depth: u8 = 1;
        while depth < 5 && 4_usize.pow(depth as u32) * 400 < np {
            depth += 1;
        }
        let nb = 4_usize.pow(depth as u32);
        let critical_per_1024: u16 = 16;
        let (min_path_len, max_path_len) = (8, 16);
        BenchmarkSpec {
            name: format!("large{np}"),
            ns: np + nb,
            ng: large_gate_count(np, min_path_len, max_path_len, critical_per_1024),
            nb,
            np,
            clusters: nb,
            die_size: 1000.0,
            min_path_len,
            max_path_len,
            outlier_fraction: 0.0,
            topology: Topology::Large { depth, critical_per_1024 },
        }
    }

    /// All eight circuits of the paper's Table 1, in table order.
    pub fn all_paper_circuits() -> Vec<BenchmarkSpec> {
        vec![
            Self::iscas89_s9234(),
            Self::iscas89_s13207(),
            Self::iscas89_s15850(),
            Self::iscas89_s38584(),
            Self::tau13_mem_ctrl(),
            Self::tau13_usb_funct(),
            Self::tau13_ac97_ctrl(),
            Self::tau13_pci_bridge32(),
        ]
    }

    /// A proportionally smaller version of this spec (for tests and quick
    /// examples): `ns`, `ng`, and `np` are divided by `factor` (with sane
    /// floors); `nb` shrinks more slowly so buffers stay meaningful and path
    /// placement stays feasible (every required path touches a buffer).
    pub fn scaled_down(&self, factor: usize) -> BenchmarkSpec {
        let factor = factor.max(1);
        let np = (self.np / factor).max(6);
        let nb = self.nb.min((np / 15).max(2));
        BenchmarkSpec {
            name: format!("{}_div{}", self.name, factor),
            ns: (self.ns / factor).max(12).max(nb + 6),
            ng: (self.ng / factor).max(np * 4).max(60),
            nb,
            np,
            clusters: self.clusters.min((self.clusters * 2 / factor).max(1)).min(nb),
            die_size: self.die_size,
            min_path_len: self.min_path_len.min(8),
            max_path_len: self.max_path_len.min(12),
            outlier_fraction: self.outlier_fraction,
            topology: self.topology,
        }
    }

    /// Reshapes this spec to the given [`Topology`], adjusting the knobs
    /// the shape needs (cluster counts, outlier density) and tagging the
    /// circuit name so different topologies generate on different random
    /// streams. The Table-1 statistics (`ns`, `ng`, `nb`, `np`) are
    /// preserved exactly.
    ///
    /// Reshaping to the spec's current topology is the identity — in
    /// particular, [`Topology::PaperClusters`] on a paper-shaped spec
    /// changes nothing: the paper circuits are one point of the topology
    /// axis, not a separate code path.
    ///
    /// # Panics
    ///
    /// Panics when asked to reshape an already-reshaped spec to a
    /// *different* topology: the reshape clamps `clusters` and rewrites
    /// the name, so it is only reversible from the paper-shaped original.
    /// Reshape from the base spec instead.
    pub fn with_topology(mut self, topology: Topology) -> BenchmarkSpec {
        if topology == self.topology {
            return self;
        }
        assert!(
            self.topology == Topology::PaperClusters,
            "spec `{}` is already reshaped to `{}`; reshape to `{}` from the paper-shaped \
             original instead",
            self.name,
            self.topology,
            topology
        );
        self.topology = topology;
        self.name = format!("{}_{}", self.name, topology.name());
        self.clusters = match topology {
            Topology::PaperClusters => self.clusters,
            // One hub per leaf keeps the tree balanced; cap the leaf count
            // so tiny specs stay feasible.
            Topology::BalancedHTree => self.nb.clamp(1, 8),
            // The geometric skew needs cluster `c` to receive at least one
            // of the first `nb` hubs, which holds up to floor(log2 nb) + 1
            // clusters.
            Topology::UnbalancedFanout => {
                ((usize::BITS - self.nb.leading_zeros()) as usize).clamp(1, self.nb)
            }
            Topology::PipelineChain => self.nb.clamp(1, 6),
            Topology::Mesh => self.nb.clamp(1, 9),
            Topology::SparseOutliers => self.nb.clamp(1, 4),
            // The large tier derives every statistic from `np`; reshaping
            // a Table-1 spec into it would leave `ns`/`ng`/`nb` out of
            // sync with the closed-form structure the generator builds.
            Topology::Large { .. } => {
                panic!("the `large` tier is built with `BenchmarkSpec::large`, not by reshaping")
            }
        };
        if topology == Topology::SparseOutliers {
            self.outlier_fraction = 0.25;
        }
        self
    }
}

/// A generated benchmark: the placed netlist plus its required (max) paths
/// and the associated short (min) paths.
#[derive(Debug, Clone)]
pub struct GeneratedBenchmark {
    /// The placed, validated netlist.
    pub netlist: Netlist,
    /// The `np` required max-delay paths (one per distinct flip-flop pair).
    pub paths: PathSet,
    /// Short (min-delay) paths, index-aligned with `paths` where present:
    /// `short_paths[k]` is the hold path for `paths` entry `k` (if any).
    pub short_paths: Vec<Option<crate::TimedPath>>,
    /// The spec this benchmark was generated from.
    pub spec: BenchmarkSpec,
}

/// Internal bookkeeping for one cluster's gate pool.
struct ClusterPool {
    /// Region of the die this cluster occupies.
    rect: Rect,
    /// Gate ids of the pool spine, in chain order.
    spine: Vec<GateId>,
    /// For each spine position, the flip-flop feeding its side input (if
    /// the side input is a flip-flop): candidate path entry points.
    entry_ff: Vec<Option<FlipFlopId>>,
    /// Flip-flops assigned to this cluster (hubs first).
    ffs: Vec<FlipFlopId>,
    /// Buffered (hub) flip-flops of this cluster.
    hubs: Vec<FlipFlopId>,
}

impl GeneratedBenchmark {
    /// Generates a benchmark deterministically from `spec` and `seed`.
    ///
    /// The same `(spec, seed)` always produces the same circuit, paths, and
    /// placement, which the experiments rely on for reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if the spec is internally infeasible (e.g. `ns` too small to
    /// host `nb` buffers); the specs produced by the constructors and
    /// [`BenchmarkSpec::scaled_down`] are always feasible.
    pub fn generate(spec: &BenchmarkSpec, seed: u64) -> Self {
        let threads = match effitest_parallel::threads::threads_from_env() {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        };
        Self::generate_threaded(spec, seed, threads)
    }

    /// [`generate`](Self::generate) with an explicit worker-thread count.
    ///
    /// Only the large tier actually fans out (its per-pair geometry is a
    /// pure function of the pair index); the paper-scale random-walk placer
    /// is inherently sequential and ignores `threads`. Output is bitwise
    /// identical for every `threads` value.
    ///
    /// # Panics
    ///
    /// Same as [`generate`](Self::generate).
    pub fn generate_threaded(spec: &BenchmarkSpec, seed: u64, threads: usize) -> Self {
        if let Topology::Large { depth, critical_per_1024 } = spec.topology {
            // The random-walk placer below re-rolls each path against the
            // already-placed set; at 10k-1M paths that is infeasible. The
            // large tier has its own constant-work-per-path generator.
            return generate_large(spec, seed, depth, critical_per_1024, threads);
        }
        assert!(spec.nb >= 1, "need at least one buffered flip-flop");
        assert!(spec.ns >= spec.nb + 4, "ns too small for nb");
        assert!(spec.clusters >= 1);
        assert!(spec.min_path_len >= 1 && spec.max_path_len >= spec.min_path_len);

        let mut rng = StdRng::seed_from_u64(seed ^ hash_name(&spec.name));
        let die = Rect::new(0.0, 0.0, spec.die_size, spec.die_size);
        let mut netlist = Netlist::new(spec.name.clone(), die);

        // --- Cluster regions: geometry chosen by the topology axis. ---
        let n_clusters = spec.clusters.min(64);
        let cluster_rects: Vec<Rect> = spec.topology.cluster_rects(n_clusters, spec.die_size);

        // --- Flip-flops: hubs, cluster members, background. ---
        let mut pools: Vec<ClusterPool> = cluster_rects
            .iter()
            .map(|&rect| ClusterPool {
                rect,
                spine: Vec::new(),
                entry_ff: Vec::new(),
                ffs: Vec::new(),
                hubs: Vec::new(),
            })
            .collect();

        // Hubs distributed over clusters per the topology (round-robin for
        // most shapes, geometrically skewed for the unbalanced tree). The
        // buffer spec is a placeholder; timing analysis finalizes the
        // range from the clock period.
        let placeholder = crate::TuningBufferSpec::centered(0.0, 2);
        for b in 0..spec.nb {
            let c = spec.topology.hub_cluster(b, n_clusters);
            let loc = random_in(&mut rng, &pools[c].rect);
            let id = netlist
                .add_flip_flop(FlipFlop::new(format!("hub{b}"), loc).with_buffer(placeholder));
            pools[c].ffs.push(id);
            pools[c].hubs.push(id);
        }

        // Cluster member flip-flops: ~80% of the remaining, split evenly.
        let remaining = spec.ns - spec.nb;
        let member_total = (remaining * 8 / 10).max(n_clusters * 4).min(remaining);
        for k in 0..member_total {
            let c = spec.topology.member_cluster(k, n_clusters);
            let loc = random_in(&mut rng, &pools[c].rect);
            let id = netlist.add_flip_flop(FlipFlop::new(format!("ff{k}"), loc));
            pools[c].ffs.push(id);
        }

        // Background flip-flops: uniform over the die (off the critical
        // paths except as outlier sinks).
        let mut background: Vec<FlipFlopId> = Vec::new();
        for k in 0..(remaining - member_total) {
            let loc = random_in(&mut rng, &die);
            let id = netlist.add_flip_flop(FlipFlop::new(format!("bg{k}"), loc));
            background.push(id);
        }

        // --- Cross-cluster coupling: coupled topologies (pipeline, mesh)
        // offer a few of each cluster's member flip-flops to the linked
        // cluster's spine as side inputs / path sources. Pure list
        // surgery, no RNG: uncoupled topologies are unaffected.
        for (from, to) in spec.topology.boundary_links(n_clusters) {
            let donors: Vec<FlipFlopId> = pools[from]
                .ffs
                .iter()
                .copied()
                .filter(|f| !pools[from].hubs.contains(f))
                .take(3)
                .collect();
            for f in donors {
                if !pools[to].ffs.contains(&f) {
                    pools[to].ffs.push(f);
                }
            }
        }

        // --- Gate budget: outlier chains first, pools get the rest. ---
        let n_outliers = ((spec.np as f64 * spec.outlier_fraction).ceil() as usize)
            .min(spec.np.saturating_sub(1))
            .min(background.len());
        let outlier_len = spec.topology.outlier_len(spec.min_path_len, spec.max_path_len);
        let outlier_gates = n_outliers * outlier_len;
        let pool_total = spec.ng.saturating_sub(outlier_gates);
        assert!(
            pool_total >= n_clusters * (spec.max_path_len + 2),
            "gate budget too small for the requested clusters"
        );

        // --- Spine pools. ---
        let shares = spec.topology.spine_shares(pool_total, n_clusters, spec.max_path_len + 2);
        for (pool, &share) in pools.iter_mut().zip(&shares).take(n_clusters) {
            build_spine(&mut rng, &mut netlist, pool, share);
        }

        // --- Required max paths (backward walks through the cones). ---
        let cluster_paths = spec.np - n_outliers;
        let mut paths = PathSet::new();
        let mut used_pairs: std::collections::HashSet<(FlipFlopId, FlipFlopId)> =
            std::collections::HashSet::new();
        // Exit position per sink flip-flop (one D-input driver each).
        let mut exit_pos: std::collections::HashMap<FlipFlopId, (usize, usize)> =
            std::collections::HashMap::new(); // ff -> (cluster, spine pos)
        let mut positions_taken: Vec<std::collections::HashSet<usize>> =
            vec![std::collections::HashSet::new(); n_clusters];
        // Gates whose side input (input 1) is load-bearing for some placed
        // path (entry flip-flop or an input-1 chain link): the short-path
        // carver must not rewire them.
        let mut protected: std::collections::HashSet<GateId> = std::collections::HashSet::new();
        // Per-path metadata for short-path construction.
        let mut path_meta: Vec<Option<PathMeta>> = Vec::new();

        for k in 0..cluster_paths {
            let c = spec.topology.path_cluster(k, n_clusters);
            // Strict placement in the home cluster, then in any cluster,
            // then relaxed (longer walks allowed) anywhere.
            let mut meta = place_cluster_path(
                &mut rng,
                &netlist,
                &mut paths,
                &pools[c],
                c,
                spec,
                false,
                &mut used_pairs,
                &mut exit_pos,
                &mut positions_taken[c],
                &mut protected,
            );
            if meta.is_none() {
                'outer: for relaxed in [false, true] {
                    for alt in 0..n_clusters {
                        meta = place_cluster_path(
                            &mut rng,
                            &netlist,
                            &mut paths,
                            &pools[alt],
                            alt,
                            spec,
                            relaxed,
                            &mut used_pairs,
                            &mut exit_pos,
                            &mut positions_taken[alt],
                            &mut protected,
                        );
                        if meta.is_some() {
                            break 'outer;
                        }
                    }
                }
            }
            match meta {
                Some(m) => path_meta.push(Some(m)),
                None => panic!("could not place required path {k}; spec infeasible"),
            }
        }

        // Wire every sink flip-flop's D input to its exit gate.
        for (&sink, &(cluster, pos)) in &exit_pos {
            let driver = pools[cluster].spine[pos];
            netlist.flip_flop_mut(sink).expect("valid id").data_input = Some(Signal::Gate(driver));
        }

        // --- Outlier paths: hub -> far background FF over a fresh chain. ---
        let mut bg_iter = background.iter().copied();
        for o in 0..n_outliers {
            let pool = &pools[o % n_clusters];
            // Rotate over the cluster's hubs so outliers do not all share
            // one launch flip-flop (which would make them pairwise
            // unbatchable).
            let hub = pool.hubs[(o / n_clusters) % pool.hubs.len()];
            let sink = bg_iter.next().expect("outlier count limited by background");
            let chain = build_outlier_chain(&mut rng, &mut netlist, hub, sink, outlier_len, &die);
            let pid = paths.add(hub, sink, chain, PathKind::Max);
            let last = *paths.path(pid).gates.last().expect("chain non-empty");
            netlist.flip_flop_mut(sink).expect("valid id").data_input = Some(Signal::Gate(last));
            used_pairs.insert((hub, sink));
            path_meta.push(None);
        }

        // --- Short (min-delay) paths: rewire one late side input to the
        // source so a 1-4 gate suffix of the cone connects source to sink
        // directly. ---
        let mut short_paths: Vec<Option<crate::TimedPath>> = vec![None; paths.len()];
        for (idx, meta) in path_meta.iter().enumerate() {
            let Some(meta) = meta else { continue };
            let pid = crate::PathId::new(idx as u32);
            let (source, sink) = paths.path(pid).endpoints();
            let chain = paths.path(pid).gates.to_vec();
            if let Some(short) =
                carve_short_path(&mut rng, &mut netlist, &chain, &meta.via1, source, &mut protected)
            {
                short_paths[idx] = Some(crate::TimedPath {
                    id: pid,
                    source,
                    sink,
                    gates: short,
                    kind: PathKind::Min,
                });
            }
        }

        let bench = GeneratedBenchmark { netlist, paths, short_paths, spec: spec.clone() };
        debug_assert!(bench.netlist.validate().is_ok());
        debug_assert!(bench.paths.validate(&bench.netlist).is_ok());
        bench
    }

    /// Convenience accessor: `(ns, ng, nb, np)` — the Table 1 statistics.
    pub fn stats(&self) -> (usize, usize, usize, usize) {
        (
            self.netlist.flip_flop_count(),
            self.netlist.gate_count(),
            self.netlist.buffer_count(),
            self.paths.len(),
        )
    }
}

/// Gates shared by both members of a large-tier path pair: the 2-input
/// merge gate where the pair's prefixes converge plus three single-input
/// stem gates leading to the shared sink hub.
const LARGE_STEM_LEN: usize = 4;

/// `true` if large-tier path `i` belongs to the near-critical tail. A
/// multiplicative hash spreads the tail uniformly over paths (and thus
/// over sink hubs) without an RNG object, and keeps the pattern a pure
/// function both the spec constructor and the generator can share.
fn large_is_critical(i: usize, critical_per_1024: u16) -> bool {
    let h = (i as u64 | 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 54) < critical_per_1024 as u64
}

/// Chain length (gate count) of large-tier path `i`. Critical paths get
/// the full `max_path_len`; the rest cycle through `[min, max - 2]`,
/// leaving a one-length gap below the critical tail.
fn large_path_len(i: usize, min: usize, max: usize, critical_per_1024: u16) -> usize {
    if large_is_critical(i, critical_per_1024) {
        max
    } else {
        let band = max - 1 - min;
        let h = (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
        min + (h >> 32) as usize % band
    }
}

/// Closed-form netlist gate count of the large tier: each pair stores its
/// two chains but shares the `LARGE_STEM_LEN` merge/stem gates.
fn large_gate_count(np: usize, min: usize, max: usize, critical_per_1024: u16) -> usize {
    let total: usize = (0..np).map(|i| large_path_len(i, min, max, critical_per_1024)).sum();
    total - (np / 2) * LARGE_STEM_LEN
}

/// Deterministic hash-based jitter in `[0, 1)`: the large generator's
/// replacement for an RNG stream (constant work, trivially reproducible,
/// still seed-sensitive through `mix`).
fn unit_hash(mix: u64, a: u64, b: u64) -> f64 {
    let mut x = mix
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03).rotate_left(31);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Everything about one large-tier fan-in pair that can be computed
/// without touching the netlist: source locations, prefix chain kinds and
/// locations, and the merge/stem geometry. Pure per pair, so the plans are
/// computed in parallel and appended to the netlist in pair order.
struct LargePairPlan {
    src_a: Point,
    src_b: Point,
    prefix_a: Vec<(GateKind, Point)>,
    prefix_b: Vec<(GateKind, Point)>,
    merge_loc: Point,
    stem: Vec<(GateKind, Point)>,
}

/// Generates an industrial-scale benchmark: sink hubs on H-tree leaves,
/// paths in fan-in pairs (two per-path prefix chains converging at a
/// shared AND merge gate, then a shared stem into the hub). Endpoint
/// sharing is dense (hundreds of paths per hub) while the *stored*
/// sensitization-conflict structure stays sparse — exactly one edge per
/// pair — which is what keeps the sparse conflict graph `O(np)`.
///
/// Every pair's geometry is a pure function of the pair index, so the
/// per-pair plans fan out over `threads` workers (committed in pair
/// order), then one serial pass appends flip-flops, gates, and paths in
/// pair order — output is bitwise identical at every thread count.
fn generate_large(
    spec: &BenchmarkSpec,
    seed: u64,
    depth: u8,
    critical_per_1024: u16,
    threads: usize,
) -> GeneratedBenchmark {
    let nb = 4_usize.pow(depth as u32);
    assert_eq!(spec.nb, nb, "large spec out of sync: nb must be 4^depth");
    assert_eq!(spec.ns, spec.np + nb, "large spec out of sync: ns must be np + nb");
    assert_eq!(
        spec.ng,
        large_gate_count(spec.np, spec.min_path_len, spec.max_path_len, critical_per_1024),
        "large spec gate budget out of sync; build large specs with `BenchmarkSpec::large`"
    );
    assert!(spec.min_path_len > LARGE_STEM_LEN, "prefix chains need at least one gate");
    assert!(spec.max_path_len >= spec.min_path_len + 2, "need a gap below the critical tail");

    let die = Rect::new(0.0, 0.0, spec.die_size, spec.die_size);
    let mut netlist = Netlist::new(spec.name.clone(), die);
    let mix = seed ^ hash_name(&spec.name);

    // Sink hubs: one tunable buffer per H-tree leaf. Hub locations are
    // pure functions of the leaf grid, so the planners read them from a
    // plain vector instead of the netlist.
    let mut leaves: Vec<(f64, f64)> = Vec::with_capacity(nb);
    crate::topology::htree_leaves(0.5, 0.5, 0.25, depth as usize, &mut leaves);
    let placeholder = crate::TuningBufferSpec::centered(0.0, 2);
    let mut hub_locs: Vec<Point> = Vec::with_capacity(nb);
    let hubs: Vec<FlipFlopId> = leaves
        .iter()
        .enumerate()
        .map(|(b, &(fx, fy))| {
            let loc = Point::new(fx * spec.die_size, fy * spec.die_size);
            hub_locs.push(loc);
            netlist.add_flip_flop(FlipFlop::new(format!("hub{b}"), loc).with_buffer(placeholder))
        })
        .collect();
    let cell = spec.die_size / (1u64 << depth) as f64;

    let len_of =
        |i: usize| large_path_len(i, spec.min_path_len, spec.max_path_len, critical_per_1024);
    let total_chain_gates: usize = (0..spec.np).map(len_of).sum();
    let mut paths = PathSet::with_capacity(spec.np, total_chain_gates);

    // Per-path source flip-flops (and merge gates) sit in their sink hub's
    // leaf cell, so the hub's paths share spatial-correlation cells (the
    // clustering the statistical prediction relies on).
    let near = |hub_loc: Point, tag: u64, k: u64| -> Point {
        let dx = (unit_hash(mix, tag, 2 * k) - 0.5) * 0.8 * cell;
        let dy = (unit_hash(mix, tag, 2 * k + 1) - 0.5) * 0.8 * cell;
        Point::new((hub_loc.x + dx).clamp(die.x0, die.x1), (hub_loc.y + dy).clamp(die.y0, die.y1))
    };
    // One single-input chain gate: all-Buf on critical paths (the slowest
    // single-input cell, so length strictly orders the critical tail above
    // everything else), an Inv/Buf jitter mix elsewhere (a smooth nominal
    // delay spread below the tail).
    let chain_kind = |i: usize, k: usize| {
        if large_is_critical(i, critical_per_1024) {
            GateKind::Buf
        } else if unit_hash(mix, 0x6b1 ^ i as u64, k as u64) < 0.5 {
            GateKind::Inv
        } else {
            GateKind::Buf
        }
    };
    let prefix_plan = |i: usize, start: Point, end: Point, len: usize| -> Vec<(GateKind, Point)> {
        (0..len)
            .map(|k| {
                let t = (k as f64 + 0.5) / (len as f64 + 1.0);
                let jx = (unit_hash(mix, 0x9a0 ^ i as u64, 2 * k as u64) - 0.5) * 0.1 * cell;
                let jy = (unit_hash(mix, 0x9a0 ^ i as u64, 2 * k as u64 + 1) - 0.5) * 0.1 * cell;
                let loc = Point::new(
                    (start.x + t * (end.x - start.x) + jx).clamp(die.x0, die.x1),
                    (start.y + t * (end.y - start.y) + jy).clamp(die.y0, die.y1),
                );
                (chain_kind(i, k), loc)
            })
            .collect()
    };

    let n_pairs = spec.np / 2;
    let plans: Vec<LargePairPlan> = effitest_parallel::par_map(threads, n_pairs, |q| {
        let (ia, ib) = (2 * q, 2 * q + 1);
        let hub_loc = hub_locs[q % nb];
        let src_a = near(hub_loc, 0x5a, ia as u64);
        let src_b = near(hub_loc, 0x5a, ib as u64);
        let prefix_a = prefix_plan(ia, src_a, hub_loc, len_of(ia) - LARGE_STEM_LEN);
        let prefix_b = prefix_plan(ib, src_b, hub_loc, len_of(ib) - LARGE_STEM_LEN);
        let merge_loc = near(hub_loc, 0x31, q as u64);
        let stem: Vec<(GateKind, Point)> = (1..LARGE_STEM_LEN)
            .map(|k| {
                let jx = (unit_hash(mix, 0x77 ^ q as u64, 2 * k as u64) - 0.5) * 0.1 * cell;
                let jy = (unit_hash(mix, 0x77 ^ q as u64, 2 * k as u64 + 1) - 0.5) * 0.1 * cell;
                let loc = Point::new(
                    (hub_loc.x + jx).clamp(die.x0, die.x1),
                    (hub_loc.y + jy).clamp(die.y0, die.y1),
                );
                let kind = if large_is_critical(ia, critical_per_1024)
                    || large_is_critical(ib, critical_per_1024)
                {
                    GateKind::Buf
                } else if unit_hash(mix, 0x4c3 ^ q as u64, k as u64) < 0.5 {
                    GateKind::Inv
                } else {
                    GateKind::Buf
                };
                (kind, loc)
            })
            .collect();
        LargePairPlan { src_a, src_b, prefix_a, prefix_b, merge_loc, stem }
    });

    // Serial assembly in pair order, so every id is independent of the
    // thread count.
    let append_prefix = |netlist: &mut Netlist,
                         chain: &mut Vec<GateId>,
                         source: FlipFlopId,
                         plan: &[(GateKind, Point)]| {
        chain.clear();
        for (k, &(kind, loc)) in plan.iter().enumerate() {
            let input = if k == 0 { Signal::Ff(source) } else { Signal::Gate(chain[k - 1]) };
            chain.push(netlist.add_gate(Gate::new(kind, loc, vec![input])));
        }
    };
    let mut chain: Vec<GateId> = Vec::with_capacity(spec.max_path_len);
    let mut scratch_b: Vec<GateId> = Vec::with_capacity(spec.max_path_len);
    for (q, plan) in plans.iter().enumerate() {
        let (ia, ib) = (2 * q, 2 * q + 1);
        let hub = hubs[q % nb];
        let src_a = netlist.add_flip_flop(FlipFlop::new(format!("ff{ia}"), plan.src_a));
        let src_b = netlist.add_flip_flop(FlipFlop::new(format!("ff{ib}"), plan.src_b));
        append_prefix(&mut netlist, &mut chain, src_a, &plan.prefix_a);
        append_prefix(&mut netlist, &mut scratch_b, src_b, &plan.prefix_b);
        // Merge: AND2 of the two prefix tails. Each pair member requires
        // the partner's tail stable at 1 (the AND's non-controlling
        // value), so the pair is mutually exclusive — and nothing else is.
        let merge = netlist.add_gate(Gate::new(
            GateKind::And2,
            plan.merge_loc,
            vec![
                Signal::Gate(*chain.last().expect("prefix non-empty")),
                Signal::Gate(*scratch_b.last().expect("prefix non-empty")),
            ],
        ));
        let mut prev = merge;
        let mut stem = [merge; LARGE_STEM_LEN];
        for (k, &(kind, loc)) in plan.stem.iter().enumerate() {
            prev = netlist.add_gate(Gate::new(kind, loc, vec![Signal::Gate(prev)]));
            stem[k + 1] = prev;
        }
        // The hub's D input captures through the shared stem. Many pairs
        // sink at one hub; the capture-side multiplexing is abstracted
        // (only the last-wired pair's stem is recorded as the D driver —
        // the timing model works from the path chains, not the D pin).
        netlist.flip_flop_mut(hub).expect("valid id").data_input = Some(Signal::Gate(prev));
        chain.extend_from_slice(&stem);
        paths.add_slice(src_a, hub, &chain, PathKind::Max);
        scratch_b.extend_from_slice(&stem);
        paths.add_slice(src_b, hub, &scratch_b, PathKind::Max);
    }
    if spec.np % 2 == 1 {
        // Odd path count: one standalone single-input chain into its hub.
        let i = spec.np - 1;
        let hub = hubs[n_pairs % nb];
        let hub_loc = hub_locs[n_pairs % nb];
        let src_loc = near(hub_loc, 0x5a, i as u64);
        let src = netlist.add_flip_flop(FlipFlop::new(format!("ff{i}"), src_loc));
        let plan = prefix_plan(i, src_loc, hub_loc, len_of(i));
        append_prefix(&mut netlist, &mut chain, src, &plan);
        netlist.flip_flop_mut(hub).expect("valid id").data_input =
            Some(Signal::Gate(*chain.last().expect("chain non-empty")));
        paths.add_slice(src, hub, &chain, PathKind::Max);
    }

    // No carved hold paths at this tier: `compute_hold_bounds` treats an
    // all-`None` set as "no hold constraints", which is the right model
    // for a capture-mux-abstracted clock-network benchmark.
    let short_paths: Vec<Option<crate::TimedPath>> = vec![None; spec.np];
    let bench = GeneratedBenchmark { netlist, paths, short_paths, spec: spec.clone() };
    debug_assert!(bench.netlist.validate().is_ok());
    debug_assert!(bench.paths.validate(&bench.netlist).is_ok());
    bench
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a keeps different circuits on different random streams even with
    // the same user seed.
    let mut h = 0xcbf29ce484222325_u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn random_in(rng: &mut StdRng, rect: &Rect) -> Point {
    rect.lerp(rng.random::<f64>(), rng.random::<f64>())
}

fn random_gate_kind(rng: &mut StdRng) -> GateKind {
    // Weighted toward the cheap inverting gates real netlists are full of.
    let roll: f64 = rng.random();
    match roll {
        r if r < 0.22 => GateKind::Inv,
        r if r < 0.34 => GateKind::Buf,
        r if r < 0.58 => GateKind::Nand2,
        r if r < 0.74 => GateKind::Nor2,
        r if r < 0.86 => GateKind::And2,
        r if r < 0.96 => GateKind::Or2,
        _ => GateKind::Xor2,
    }
}

/// Builds one cluster's spine: a chain of `share` gates where gate `k`
/// takes gate `k-1` on input 0 and a random side input (flip-flop or
/// earlier gate) on input 1 when 2-input.
fn build_spine(rng: &mut StdRng, netlist: &mut Netlist, pool: &mut ClusterPool, share: usize) {
    for k in 0..share {
        let kind = random_gate_kind(rng);
        let loc = random_in(rng, &pool.rect);
        let mut inputs = Vec::with_capacity(kind.input_count());
        let mut entry: Option<FlipFlopId> = None;

        if k == 0 {
            // The spine head is fed by a cluster flip-flop.
            let ff = pool.ffs[rng.random_range(0..pool.ffs.len())];
            inputs.push(Signal::Ff(ff));
            entry = Some(ff);
        } else {
            inputs.push(Signal::Gate(pool.spine[k - 1]));
        }
        if kind.input_count() == 2 {
            // Side input: hub FF (12%), member FF (48%), earlier gate
            // (40%). Hub side inputs are kept moderate: a side input fed by
            // a buffered flip-flop makes every path through that gate
            // mutually exclusive with every path *launching* from that
            // buffer (the launch transition would mask the cone), but they
            // are also the entry points hub-sourced paths terminate at, so
            // they cannot be too rare either.
            let roll: f64 = rng.random();
            if roll < 0.12 && !pool.hubs.is_empty() {
                let ff = pool.hubs[rng.random_range(0..pool.hubs.len())];
                inputs.push(Signal::Ff(ff));
                entry.get_or_insert(ff);
            } else if roll < 0.60 {
                let ff = pool.ffs[rng.random_range(0..pool.ffs.len())];
                inputs.push(Signal::Ff(ff));
                entry.get_or_insert(ff);
            } else if k > 0 {
                let back = rng.random_range(0..k);
                inputs.push(Signal::Gate(pool.spine[back]));
            } else {
                let ff = pool.ffs[rng.random_range(0..pool.ffs.len())];
                inputs.push(Signal::Ff(ff));
                entry.get_or_insert(ff);
            }
        }
        let id = netlist.add_gate(Gate::new(kind, loc, inputs));
        pool.spine.push(id);
        pool.entry_ff.push(entry);
    }
}

/// Metadata kept per placed path for short-path carving.
struct PathMeta {
    /// `via1[i]` is `true` when chain gate `i` connects to gate `i-1` (or,
    /// for `i == 0`, to the source flip-flop) through its side input
    /// (input 1); such gates must keep input 1 intact.
    via1: Vec<bool>,
}

/// Tries to place one required max path in the given cluster by walking
/// *backward* from the sink's exit gate through the cone (following either
/// gate input), terminating at a flip-flop input. This explores genuine
/// fan-in cones, so one sink can pair with many distinct sources — exactly
/// the diversity the test-multiplexing step needs.
#[allow(clippy::too_many_arguments)]
fn place_cluster_path(
    rng: &mut StdRng,
    netlist: &Netlist,
    paths: &mut PathSet,
    pool: &ClusterPool,
    cluster: usize,
    spec: &BenchmarkSpec,
    relaxed: bool,
    used_pairs: &mut std::collections::HashSet<(FlipFlopId, FlipFlopId)>,
    exit_pos: &mut std::collections::HashMap<FlipFlopId, (usize, usize)>,
    positions_taken: &mut std::collections::HashSet<usize>,
    protected: &mut std::collections::HashSet<GateId>,
) -> Option<PathMeta> {
    let spine_len = pool.spine.len();
    if spine_len < spec.min_path_len + 1 {
        return None;
    }
    let pool_base = pool.spine[0].index();
    let attempts = if relaxed { 4 * pool.ffs.len().max(64) } else { 400 };

    for _attempt in 0..attempts {
        // Sink: hub with probability 1/2, otherwise a member flip-flop.
        let sink = if rng.random::<f64>() < 0.5 && !pool.hubs.is_empty() {
            pool.hubs[rng.random_range(0..pool.hubs.len())]
        } else {
            pool.ffs[rng.random_range(0..pool.ffs.len())]
        };
        // Exit: the sink's D-driver position (assign one if new).
        let exit = match exit_pos.get(&sink) {
            Some(&(c, pos)) => {
                if c != cluster {
                    continue; // sink already driven from another cluster
                }
                pos
            }
            None => {
                let lo = spec.min_path_len - 1;
                if lo >= spine_len {
                    continue;
                }
                let mut pos = rng.random_range(lo..spine_len);
                let mut tries = 0;
                while positions_taken.contains(&pos) && tries < 32 {
                    pos = rng.random_range(lo..spine_len);
                    tries += 1;
                }
                if positions_taken.contains(&pos) {
                    continue;
                }
                pos
            }
        };
        let need_hub_source = !pool.hubs.contains(&sink);
        // Hub entries are sparser than member entries, so hub-sourced (and
        // relaxed) walks may overshoot slightly — but only slightly, or the
        // path would no longer be near-critical.
        let walk_cap =
            if need_hub_source || relaxed { spec.max_path_len + 4 } else { spec.max_path_len };
        let desired = rng.random_range(spec.min_path_len..=spec.max_path_len);

        'walk: for _walk in 0..24 {
            // chain_rev runs exit -> entry; via1_rev[i] tells whether
            // chain_rev[i] reaches its predecessor through input 1.
            let mut chain_rev: Vec<usize> = vec![exit];
            let mut via1_rev: Vec<bool> = vec![false];
            loop {
                let pos = *chain_rev.last().expect("non-empty walk");
                let gid = pool.spine[pos];
                let gate = netlist.gate(gid).expect("valid spine gate");
                let len = chain_rev.len();

                // Termination: an eligible flip-flop input at this gate.
                if len >= spec.min_path_len && (len >= desired || rng.random::<f64>() < 0.25) {
                    let mut term: Option<(FlipFlopId, bool)> = None;
                    for (idx, input) in gate.inputs.iter().enumerate() {
                        if let Signal::Ff(f) = *input {
                            let ok = f != sink
                                && !used_pairs.contains(&(f, sink))
                                && (!need_hub_source || pool.hubs.contains(&f));
                            if ok {
                                term = Some((f, idx == 1));
                                break;
                            }
                        }
                    }
                    if let Some((source, via_input1)) = term {
                        // Commit the path.
                        let positions: Vec<usize> = chain_rev.iter().rev().copied().collect();
                        let gates: Vec<GateId> = positions.iter().map(|&p| pool.spine[p]).collect();
                        let mut via1: Vec<bool> = via1_rev.iter().rev().copied().collect();
                        via1[0] = via_input1;
                        // Protect load-bearing side inputs.
                        for (i, &v) in via1.iter().enumerate() {
                            if v {
                                protected.insert(gates[i]);
                            }
                        }
                        let _pid = paths.add(source, sink, gates, PathKind::Max);
                        used_pairs.insert((source, sink));
                        if let std::collections::hash_map::Entry::Vacant(e) = exit_pos.entry(sink) {
                            e.insert((cluster, exit));
                            positions_taken.insert(exit);
                        }
                        return Some(PathMeta { via1 });
                    }
                }
                if len >= walk_cap {
                    continue 'walk;
                }
                // Step backward through input 0 (the spine link) or the
                // side input when it is a gate.
                let side_gate = gate.inputs.get(1).and_then(|i| match *i {
                    Signal::Gate(g) => Some(g.index() - pool_base),
                    Signal::Ff(_) => None,
                });
                let main_gate = match gate.inputs.first() {
                    Some(Signal::Gate(g)) => Some(g.index() - pool_base),
                    _ => None,
                };
                let (next, via1) = match (main_gate, side_gate) {
                    (Some(m), Some(s)) => {
                        if rng.random::<f64>() < 0.75 {
                            (m, false)
                        } else {
                            (s, true)
                        }
                    }
                    (Some(m), None) => (m, false),
                    (None, Some(s)) => (s, true),
                    (None, None) => continue 'walk, // spine head, no eligible FF
                };
                chain_rev.push(next);
                via1_rev.push(false);
                let at = via1_rev.len() - 2;
                via1_rev[at] = via1;
            }
        }
    }
    None
}

/// Builds a fresh gate chain for an outlier path, spread across the die.
fn build_outlier_chain(
    rng: &mut StdRng,
    netlist: &mut Netlist,
    source: FlipFlopId,
    sink: FlipFlopId,
    len: usize,
    die: &Rect,
) -> Vec<GateId> {
    let start = netlist.flip_flop(source).expect("valid id").location;
    let end = netlist.flip_flop(sink).expect("valid id").location;
    let mut chain = Vec::with_capacity(len);
    for k in 0..len {
        let f = (k as f64 + 0.5) / len as f64;
        // March from source to sink with jitter: the chain crosses several
        // spatial-correlation cells, which is what makes outliers outliers.
        let jx = (rng.random::<f64>() - 0.5) * 0.15 * die.width();
        let jy = (rng.random::<f64>() - 0.5) * 0.15 * die.height();
        let loc = Point::new(
            (start.x + f * (end.x - start.x) + jx).clamp(die.x0, die.x1),
            (start.y + f * (end.y - start.y) + jy).clamp(die.y0, die.y1),
        );
        // Single-input cells only: an outlier chain must be sensitizable
        // without pinning any other signal (its source toggles, so wiring
        // side inputs to the source would mask the chain itself).
        let kind = if rng.random::<f64>() < 0.6 { GateKind::Inv } else { GateKind::Buf };
        let input = if k == 0 { Signal::Ff(source) } else { Signal::Gate(chain[k - 1]) };
        chain.push(netlist.add_gate(Gate::new(kind, loc, vec![input])));
    }
    chain
}

/// Rewires one late 2-input chain gate's side input to `source`, creating a
/// short `source -> ... -> sink` path (a suffix of the max path's cone).
fn carve_short_path(
    rng: &mut StdRng,
    netlist: &mut Netlist,
    chain: &[GateId],
    via1: &[bool],
    source: FlipFlopId,
    protected: &mut std::collections::HashSet<GateId>,
) -> Option<Vec<GateId>> {
    // Candidates: chain gates giving a 3..=6 gate suffix (excluding the
    // entry gate), 2-input, connected to their predecessor through input 0
    // (so input 1 is free), and not load-bearing for any other path. The
    // 3-gate floor models the min-delay padding every hold-clean design
    // carries; one-gate short paths would make the hold bounds of paper
    // §3.5 devour the entire tuning range.
    let n = chain.len();
    let lo = n.saturating_sub(6).max(1);
    let n = n.saturating_sub(2).max(lo); // keep at least 3 gates of suffix
    let candidates: Vec<usize> = (lo..n)
        .filter(|&k| {
            !via1[k] && !protected.contains(&chain[k]) && gate_is_two_input(netlist, chain[k])
        })
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let k = candidates[rng.random_range(0..candidates.len())];
    netlist.replace_gate_side_input(chain[k], Signal::Ff(source));
    protected.insert(chain[k]);
    Some(chain[k..].to_vec())
}

fn gate_is_two_input(netlist: &Netlist, id: GateId) -> bool {
    netlist.gate(id).map(|g| g.kind.input_count() == 2).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> BenchmarkSpec {
        BenchmarkSpec::iscas89_s9234().scaled_down(10)
    }

    #[test]
    fn statistics_match_spec_exactly() {
        for spec in [small_spec(), BenchmarkSpec::iscas89_s13207().scaled_down(20)] {
            let b = GeneratedBenchmark::generate(&spec, 3);
            let (ns, ng, nb, np) = b.stats();
            assert_eq!(ns, spec.ns, "{}: ns", spec.name);
            assert_eq!(ng, spec.ng, "{}: ng", spec.name);
            assert_eq!(nb, spec.nb, "{}: nb", spec.name);
            assert_eq!(np, spec.np, "{}: np", spec.name);
        }
    }

    #[test]
    fn generated_netlist_and_paths_validate() {
        let b = GeneratedBenchmark::generate(&small_spec(), 11);
        b.netlist.validate().unwrap();
        b.paths.validate(&b.netlist).unwrap();
    }

    #[test]
    fn generation_is_deterministic() {
        let a = GeneratedBenchmark::generate(&small_spec(), 5);
        let b = GeneratedBenchmark::generate(&small_spec(), 5);
        assert_eq!(a.netlist, b.netlist);
        assert_eq!(a.paths, b.paths);
        let c = GeneratedBenchmark::generate(&small_spec(), 6);
        assert_ne!(a.netlist, c.netlist);
    }

    #[test]
    fn every_required_path_touches_a_buffer() {
        let b = GeneratedBenchmark::generate(&small_spec(), 7);
        let hubs: std::collections::HashSet<_> =
            b.netlist.buffered_flip_flops().into_iter().collect();
        for p in b.paths.iter() {
            assert!(
                hubs.contains(&p.source) || hubs.contains(&p.sink),
                "path {} touches no buffered flip-flop",
                p.id
            );
        }
    }

    #[test]
    fn path_pairs_are_distinct() {
        let b = GeneratedBenchmark::generate(&small_spec(), 9);
        let mut seen = std::collections::HashSet::new();
        for p in b.paths.iter() {
            assert!(seen.insert(p.endpoints()), "duplicate pair {:?}", p.endpoints());
        }
    }

    #[test]
    fn path_lengths_are_in_range() {
        let spec = small_spec();
        let b = GeneratedBenchmark::generate(&spec, 13);
        // Hub-sourced walks may overshoot max_path_len (hub entries are
        // sparse) up to the walk cap; nothing may exceed the cap or fall
        // below the minimum.
        let cap = spec.max_path_len + 4;
        let mut within = 0;
        for p in b.paths.iter() {
            assert!(p.len() >= spec.min_path_len, "path too short: {}", p.len());
            assert!(p.len() <= cap, "path exceeds walk cap: {}", p.len());
            if p.len() <= spec.max_path_len {
                within += 1;
            }
        }
        assert!(
            within * 2 >= spec.np,
            "only {within}/{} paths within the nominal length range",
            spec.np
        );
    }

    #[test]
    fn short_paths_share_endpoints_and_are_shorter() {
        let b = GeneratedBenchmark::generate(&small_spec(), 17);
        let mut found = 0;
        for (idx, sp) in b.short_paths.iter().enumerate() {
            let Some(sp) = sp else { continue };
            found += 1;
            let p = b.paths.path(crate::PathId::new(idx as u32));
            assert_eq!(sp.source, p.source);
            assert_eq!(sp.sink, p.sink);
            assert_eq!(sp.kind, PathKind::Min);
            assert!((3..=6).contains(&sp.len()) || sp.len() < p.len().min(3));
            assert!(sp.len() < p.len());
            // The short chain must be structurally connected.
            let first = b.netlist.gate(sp.gates[0]).unwrap();
            assert!(first.inputs.contains(&Signal::Ff(sp.source)));
        }
        assert!(found > 0, "no short paths were carved");
    }

    #[test]
    fn sinks_have_data_inputs() {
        let b = GeneratedBenchmark::generate(&small_spec(), 21);
        for p in b.paths.iter() {
            let sink = b.netlist.flip_flop(p.sink).unwrap();
            let last = *p.gates.last().unwrap();
            assert_eq!(sink.data_input, Some(Signal::Gate(last)));
        }
    }

    #[test]
    fn clusters_are_spatially_tight() {
        let spec = BenchmarkSpec::iscas89_s13207().scaled_down(10);
        let b = GeneratedBenchmark::generate(&spec, 23);
        // Non-outlier paths: all gates of a path within one cluster cell
        // (die/8 box).
        let cell = spec.die_size / 8.0;
        let mut tight = 0;
        let mut total = 0;
        for p in b.paths.iter() {
            let locs: Vec<Point> =
                p.gates.iter().map(|&g| b.netlist.gate(g).unwrap().location).collect();
            let xs: Vec<f64> = locs.iter().map(|p| p.x).collect();
            let ys: Vec<f64> = locs.iter().map(|p| p.y).collect();
            let spread_x = xs.iter().fold(f64::MIN, |a, &b| a.max(b))
                - xs.iter().fold(f64::MAX, |a, &b| a.min(b));
            let spread_y = ys.iter().fold(f64::MIN, |a, &b| a.max(b))
                - ys.iter().fold(f64::MAX, |a, &b| a.min(b));
            total += 1;
            if spread_x <= cell && spread_y <= cell {
                tight += 1;
            }
        }
        // All but the outliers should be tight.
        assert!(tight as f64 >= total as f64 * 0.9, "only {tight}/{total} tight paths");
    }

    #[test]
    fn all_paper_circuits_listed() {
        let all = BenchmarkSpec::all_paper_circuits();
        assert_eq!(all.len(), 8);
        assert_eq!(all[0].name, "s9234");
        assert_eq!(all[7].name, "pci_bridge32");
        assert_eq!(all[4].np, 3016);
    }

    #[test]
    fn paper_topology_reshape_is_the_identity() {
        let spec = BenchmarkSpec::iscas89_s9234();
        assert_eq!(spec.topology, Topology::PaperClusters);
        let same = spec.clone().with_topology(Topology::PaperClusters);
        assert_eq!(spec, same, "reshaping to the paper topology must change nothing");
    }

    #[test]
    fn reshape_is_idempotent_per_topology() {
        let mesh = BenchmarkSpec::iscas89_s13207().scaled_down(10).with_topology(Topology::Mesh);
        let again = mesh.clone().with_topology(Topology::Mesh);
        assert_eq!(mesh, again, "re-applying the same topology must change nothing");
    }

    #[test]
    #[should_panic(expected = "already reshaped")]
    fn reshaping_a_reshaped_spec_to_another_topology_is_rejected() {
        let mesh = BenchmarkSpec::iscas89_s13207().scaled_down(10).with_topology(Topology::Mesh);
        // Silently compounding name tags and re-clamping cluster counts
        // would mislabel the cell; this must fail loudly instead.
        let _ = mesh.with_topology(Topology::PaperClusters);
    }

    #[test]
    fn every_topology_generates_exact_stats_and_validates() {
        for t in Topology::all() {
            for (base, factor) in
                [(BenchmarkSpec::iscas89_s9234(), 10), (BenchmarkSpec::iscas89_s13207(), 10)]
            {
                let spec = base.scaled_down(factor).with_topology(t);
                let b = GeneratedBenchmark::generate(&spec, 3);
                assert_eq!(
                    b.stats(),
                    (spec.ns, spec.ng, spec.nb, spec.np),
                    "{t}: stats drifted for {}",
                    spec.name
                );
                b.netlist.validate().unwrap_or_else(|e| panic!("{t}: invalid netlist: {e}"));
                b.paths.validate(&b.netlist).unwrap_or_else(|e| panic!("{t}: invalid paths: {e}"));
                // The buffer-touching invariant is topology-independent:
                // np counts exactly the delays needed to configure the
                // buffers.
                let hubs: std::collections::HashSet<_> =
                    b.netlist.buffered_flip_flops().into_iter().collect();
                for p in b.paths.iter() {
                    assert!(
                        hubs.contains(&p.source) || hubs.contains(&p.sink),
                        "{t}: path {} touches no buffered flip-flop",
                        p.id
                    );
                }
            }
        }
    }

    #[test]
    fn topologies_are_deterministic_and_distinct() {
        let base = BenchmarkSpec::iscas89_s13207().scaled_down(10);
        let mut names = std::collections::HashSet::new();
        for t in Topology::all() {
            let spec = base.clone().with_topology(t);
            assert!(names.insert(spec.name.clone()), "{t}: name collision");
            let a = GeneratedBenchmark::generate(&spec, 5);
            let b = GeneratedBenchmark::generate(&spec, 5);
            assert_eq!(a.netlist, b.netlist, "{t}: generation not deterministic");
            assert_eq!(a.paths, b.paths);
        }
        // Different topologies over the same statistics yield different
        // circuits.
        let htree =
            GeneratedBenchmark::generate(&base.clone().with_topology(Topology::BalancedHTree), 5);
        let mesh = GeneratedBenchmark::generate(&base.clone().with_topology(Topology::Mesh), 5);
        assert_ne!(htree.netlist, mesh.netlist);
    }

    #[test]
    fn sparse_topology_spreads_many_long_outliers() {
        let spec = BenchmarkSpec::iscas89_s13207().scaled_down(10);
        let sparse = spec.clone().with_topology(Topology::SparseOutliers);
        assert!(sparse.outlier_fraction > spec.outlier_fraction * 3.0);
        let b = GeneratedBenchmark::generate(&sparse, 7);
        // Outlier chains are longer than every cluster walk cap.
        let longest = b.paths.iter().map(|p| p.len()).max().unwrap();
        assert!(
            longest >= sparse.max_path_len + 4,
            "expected long die-crossing outliers, longest path {longest}"
        );
    }

    #[test]
    fn unbalanced_topology_skews_the_first_cluster() {
        let spec = BenchmarkSpec::tau13_usb_funct()
            .scaled_down(6)
            .with_topology(Topology::UnbalancedFanout);
        let b = GeneratedBenchmark::generate(&spec, 9);
        // Cluster 0 occupies the left half of the die; it must hold a
        // clear majority of the path gates.
        let die_mid = spec.die_size / 2.0;
        let mut left = 0_usize;
        let mut total = 0_usize;
        for p in b.paths.iter() {
            for &g in p.gates {
                total += 1;
                if b.netlist.gate(g).unwrap().location.x < die_mid {
                    left += 1;
                }
            }
        }
        assert!(
            left * 5 >= total * 2,
            "unbalanced tree should load the first branch: {left}/{total} gates on the left"
        );
    }

    #[test]
    fn large_spec_statistics_are_exact_and_validate() {
        let spec = BenchmarkSpec::large(2000);
        assert!(matches!(spec.topology, Topology::Large { depth: 2, .. }));
        assert_eq!(spec.nb, 16);
        assert_eq!(spec.ns, spec.np + spec.nb);
        let b = GeneratedBenchmark::generate(&spec, 3);
        assert_eq!(b.stats(), (spec.ns, spec.ng, spec.nb, spec.np));
        b.netlist.validate().unwrap();
        b.paths.validate(&b.netlist).unwrap();
        // Every path sinks at a buffered hub; no hold paths are carved.
        let hubs: std::collections::HashSet<_> =
            b.netlist.buffered_flip_flops().into_iter().collect();
        for p in b.paths.iter() {
            assert!(hubs.contains(&p.sink), "path {} does not sink at a hub", p.id);
        }
        assert!(b.short_paths.iter().all(Option::is_none));
    }

    #[test]
    fn large_generation_is_deterministic_and_seed_sensitive() {
        let spec = BenchmarkSpec::large(500);
        let a = GeneratedBenchmark::generate(&spec, 5);
        let b = GeneratedBenchmark::generate(&spec, 5);
        assert_eq!(a.netlist, b.netlist);
        assert_eq!(a.paths, b.paths);
        let c = GeneratedBenchmark::generate(&spec, 6);
        assert_ne!(a.netlist, c.netlist);
    }

    #[test]
    fn large_threaded_generation_matches_serial_reference() {
        // Even and odd path counts; threads 4 and 8 pinned bitwise to the
        // one-thread run, where every pair plan is computed inline.
        for np in [500, 501] {
            let spec = BenchmarkSpec::large(np);
            let reference = GeneratedBenchmark::generate_threaded(&spec, 5, 1);
            for threads in [4, 8] {
                let threaded = GeneratedBenchmark::generate_threaded(&spec, 5, threads);
                assert_eq!(threaded.netlist, reference.netlist, "np {np} threads {threads}");
                assert_eq!(threaded.paths, reference.paths, "np {np} threads {threads}");
                assert_eq!(threaded.short_paths, reference.short_paths);
            }
        }
    }

    #[test]
    #[should_panic(expected = "large spec gate budget out of sync")]
    fn large_generator_rejects_out_of_sync_specs() {
        let spec =
            BenchmarkSpec { ng: BenchmarkSpec::large(500).ng + 1, ..BenchmarkSpec::large(500) };
        let _ = GeneratedBenchmark::generate_threaded(&spec, 1, 1);
    }

    #[test]
    fn large_conflicts_are_exactly_the_fan_in_pairs() {
        use crate::sensitize::MutualExclusions;
        let spec = BenchmarkSpec::large(600);
        let b = GeneratedBenchmark::generate(&spec, 7);
        let views: Vec<crate::PathView<'_>> = b.paths.iter().collect();
        let mx = MutualExclusions::build(&b.netlist, &views, 1).unwrap();
        // Stored sensitization conflicts: one edge per pair, nothing else
        // (endpoint sharing at the hubs is handled by the O(1) endpoint
        // rule, never stored).
        for i in 0..spec.np {
            let partner = (i ^ 1) as u32;
            assert_eq!(mx.neighbors(i), [partner], "path {i}");
        }
        // And the sparse build agrees with the dense reference here too.
        assert_eq!(mx, MutualExclusions::build_dense(&b.netlist, &views));
    }

    #[test]
    fn large_critical_tail_is_thin_and_longest() {
        let spec = BenchmarkSpec::large(4000);
        let b = GeneratedBenchmark::generate(&spec, 9);
        let critical = b.paths.iter().filter(|p| p.len() == spec.max_path_len).count();
        // ~16/1024 of the paths, spread by hash: allow generous slack.
        assert!(
            (20..=110).contains(&critical),
            "critical tail out of range: {critical}/{} paths at max length",
            spec.np
        );
        // Nothing occupies the separating gap just below the tail.
        assert!(b.paths.iter().all(|p| p.len() != spec.max_path_len - 1));
        assert!(b.paths.iter().all(|p| p.len() >= spec.min_path_len));
    }

    #[test]
    #[should_panic(expected = "built with `BenchmarkSpec::large`")]
    fn reshaping_into_the_large_tier_is_rejected() {
        let _ = BenchmarkSpec::iscas89_s9234()
            .with_topology(Topology::Large { depth: 2, critical_per_1024: 16 });
    }

    #[test]
    fn scaled_down_preserves_feasibility() {
        for spec in BenchmarkSpec::all_paper_circuits() {
            let small = spec.scaled_down(25);
            assert!(small.ns >= small.nb + 4);
            assert!(small.np >= 6);
            // And it must actually generate.
            let b = GeneratedBenchmark::generate(&small, 1);
            assert_eq!(b.paths.len(), small.np);
        }
    }
}
