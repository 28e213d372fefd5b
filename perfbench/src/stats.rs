//! Sample statistics and metric reporting shared by every workload.

use std::fmt::Write as _;

/// Samples that must lie strictly beyond a reported tail percentile. With
/// fewer, the "percentile" is one of the few largest samples — with 16
/// samples a p99 is just the maximum.
pub const MIN_BEYOND: usize = 10;

/// Tail levels, in per-mille, highest first; [`tail`] reports the first
/// one that has [`MIN_BEYOND`] samples beyond it.
const TAIL_LEVELS_PER_MILLE: [usize; 4] = [999, 990, 950, 900];

/// The median of `values` (mean of the two middle values for an even
/// count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `per_mille / 10` of `sorted` (ascending, not
/// empty) and the number of samples strictly beyond it.
fn nearest_rank(sorted: &[f64], per_mille: usize) -> (f64, usize) {
    let n = sorted.len();
    let rank = (per_mille * n).div_ceil(1000).max(1);
    (sorted[rank - 1], n - rank)
}

/// A tail percentile: its level in percent and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile level, e.g. `99.0`.
    pub level: f64,
    /// The sample at that level.
    pub value: f64,
}

impl Tail {
    /// `p99`, `p99.9`, ... — the label printed next to the value.
    pub fn label(&self) -> String {
        format!("p{}", self.level)
    }
}

/// The highest of p99.9 / p99 / p95 / p90 with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even p90 has too few.
///
/// # Panics
///
/// Panics on a NaN sample.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    TAIL_LEVELS_PER_MILLE.iter().find_map(|&pm| {
        let (value, beyond) = nearest_rank(&v, pm);
        (beyond >= MIN_BEYOND).then_some(Tail { level: pm as f64 / 10.0, value })
    })
}

/// Peak resident set size (`VmHWM`) in MiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kib / 1024.0)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Per-chip quantile over passes, in per-mille: each chip's time is the
/// 80th percentile of its samples.
const PASS_QUANTILE_PER_MILLE: usize = 800;

/// Per-chip timings gathered over repeated passes over the same chips.
///
/// On a shared host the CPU's speed drifts: busy stretches that last for
/// minutes alternate with shorter quiet ones, up to 1.7 times faster. A
/// wall-clock total then measures the neighbours as much as the program,
/// and a chip's best time depends on whether the run happened to catch a
/// quiet stretch. Each chip's 80th percentile over the passes instead
/// reads the host's usual busy state in nearly every run, and still drops
/// the slowest fifth of the samples, where one-off spikes land.
#[derive(Debug, Clone, Default)]
pub struct PassTimes {
    /// `latency[k]`: chip `k`'s timed call, one sample per pass (ns).
    latency: Vec<Vec<u64>>,
    /// `cycle[k]`: chip `k`'s share of its pass's wall time, from its
    /// start to the next chip's start (ns); a pass's cycles sum to its
    /// wall time.
    cycle: Vec<Vec<u64>>,
}

/// Each chip's [`PASS_QUANTILE_PER_MILLE`] quantile (nearest rank) of its
/// samples.
fn per_chip(samples: &[Vec<u64>]) -> Vec<u64> {
    samples
        .iter()
        .map(|v| {
            let mut v = v.clone();
            v.sort_unstable();
            let (value, _) = nearest_rank_u64(&v, PASS_QUANTILE_PER_MILLE);
            value
        })
        .collect()
}

/// [`nearest_rank`] for integer samples; 0 for no samples.
fn nearest_rank_u64(sorted: &[u64], per_mille: usize) -> (u64, usize) {
    if sorted.is_empty() {
        return (0, 0);
    }
    let rank = (per_mille * sorted.len()).div_ceil(1000).max(1);
    (sorted[rank - 1], sorted.len() - rank)
}

impl PassTimes {
    /// Timings for `chips` chips and no passes yet.
    pub fn new(chips: usize) -> Self {
        PassTimes { latency: vec![Vec::new(); chips], cycle: vec![Vec::new(); chips] }
    }

    /// Adds one pass: a latency and a cycle per chip.
    ///
    /// # Panics
    ///
    /// Panics unless both slices hold one sample per chip.
    pub fn push_pass(&mut self, latency: &[u64], cycle: &[u64]) {
        assert!(latency.len() == self.latency.len() && cycle.len() == self.cycle.len());
        for (v, &x) in self.latency.iter_mut().zip(latency) {
            v.push(x);
        }
        for (v, &x) in self.cycle.iter_mut().zip(cycle) {
            v.push(x);
        }
    }

    /// Passes recorded.
    pub fn passes(&self) -> usize {
        self.cycle.first().map_or(0, Vec::len)
    }

    /// Wall seconds of all passes.
    pub fn wall_s(&self) -> f64 {
        self.cycle.iter().flatten().sum::<u64>() as f64 / 1e9
    }

    /// Each chip's usual latency over the passes, in milliseconds.
    pub fn latency_ms(&self) -> Vec<f64> {
        per_chip(&self.latency).into_iter().map(|ns| ns as f64 / 1e6).collect()
    }

    /// Chips per second with every chip at its usual cycle.
    pub fn rate(&self) -> f64 {
        let total: u64 = per_chip(&self.cycle).into_iter().sum();
        self.cycle.len() as f64 / (total as f64 / 1e9)
    }

    /// `chips_per_s`, `chip_ms_p50` and `chip_ms_tail` from the passes;
    /// `what` names the timed call for the notes.
    pub fn metrics(&self, what: &str) -> Result<Vec<Metric>, String> {
        let chips = self.latency.len();
        let passes = self.passes();
        let latency = self.latency_ms();
        let tail = tail(&latency).ok_or("too few chips for a tail percentile")?;
        let note = format!("{what}, each chip's p80 of {passes} passes");
        Ok(vec![
            Metric::new("chips_per_s", self.rate(), "1/s", chips * passes)
                .with_note(format!("each chip's p80 cycle of {passes} passes")),
            Metric::new("chip_ms_p50", median(&latency), "ms", chips).with_note(note.clone()),
            Metric::new("chip_ms_tail", tail.value, "ms", chips)
                .with_note(format!("{}, {note}", tail.label())),
        ])
    }
}

/// One reported number: a name, its value, its unit and how many
/// samples it summarizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value, printed with every digit.
    pub value: f64,
    /// Unit (`s`, `ms`, `1/s`, `count`, ...).
    pub unit: &'static str,
    /// Samples behind the value (chips, setups, drains, ...).
    pub samples: usize,
    /// Extra context for the human-readable line, e.g. `p99`.
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric { name: name.to_owned(), value, unit, samples, note: String::new() }
    }

    /// The same metric with a note for the human-readable line.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// The human-readable line: name, value, unit, sample count, note.
    pub fn line(&self) -> String {
        let mut s =
            format!("{:<34} {:>16} {:<6} n={}", self.name, self.value, self.unit, self.samples);
        if !self.note.is_empty() {
            let _ = write!(s, "  ({})", self.note);
        }
        s
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric's value and unit.
///
/// # Panics
///
/// Panics on a non-finite metric value (it has no JSON form).
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite: {}", m.name, m.value);
            format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    #[should_panic(expected = "median of no samples")]
    fn median_of_nothing_panics() {
        median(&[]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 16 samples: even p90 would be the 15th of 16, one sample beyond.
        assert_eq!(tail(&ramp(16)), None);
        // 100 samples: p90 is the 90th value with exactly 10 beyond.
        assert_eq!(tail(&ramp(100)), Some(Tail { level: 90.0, value: 90.0 }));
        // 300 samples: p95 (15 beyond) beats p90; p99 has only 3 beyond.
        assert_eq!(tail(&ramp(300)), Some(Tail { level: 95.0, value: 285.0 }));
        // 1000 samples: p99 has exactly 10 beyond — the boundary case.
        assert_eq!(tail(&ramp(1000)), Some(Tail { level: 99.0, value: 990.0 }));
        // 999 samples: p99 would leave 9 beyond, so p95 it is.
        assert_eq!(tail(&ramp(999)).map(|t| t.level), Some(95.0));
        // 10 000 samples reach p99.9.
        assert_eq!(tail(&ramp(10_000)), Some(Tail { level: 99.9, value: 9990.0 }));
    }

    #[test]
    fn tail_ignores_sample_order() {
        let mut v: Vec<f64> = (0..2000).map(|i| ((i * 7919) % 2000) as f64).collect();
        let t = tail(&v).expect("2000 samples reach p99");
        v.sort_by(f64::total_cmp);
        assert_eq!(t, Tail { level: 99.0, value: v[1979] });
        assert_eq!(t.label(), "p99");
    }

    #[test]
    fn pass_times_take_each_chips_80th_percentile() {
        let ms = |v: u64| v * 1_000_000;
        let mut t = PassTimes::new(2);
        // Chip 0 has one spike (30 ms) among five passes: the 4th of 5
        // sorted samples ignores it. Chip 1 runs 2 ms every time.
        for (a, b) in [(10, 2), (11, 2), (30, 2), (12, 2), (11, 2)] {
            t.push_pass(&[ms(a), ms(b)], &[ms(a + 1), ms(b + 1)]);
        }
        assert_eq!(t.passes(), 5);
        assert_eq!(t.latency_ms(), vec![12.0, 2.0]);
        // Usual cycles 13 + 3 ms: two chips in 16 ms.
        assert!((t.rate() - 125.0).abs() < 1e-9);
        assert!((t.wall_s() - 0.094).abs() < 1e-12);
    }

    #[test]
    fn one_pass_is_its_own_quantile() {
        let mut t = PassTimes::new(2);
        t.push_pass(&[3_000_000, 5_000_000], &[4_000_000, 6_000_000]);
        assert_eq!(t.latency_ms(), vec![3.0, 5.0]);
        assert!((t.rate() - 200.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn pass_times_reject_a_short_pass() {
        PassTimes::new(3).push_pass(&[1, 2], &[1, 2, 3]);
    }

    #[test]
    fn vm_hwm_parses_kib_and_rejects_junk() {
        let status = "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 12 pages\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }

    #[test]
    fn lines_carry_unit_and_sample_count() {
        let m = Metric::new("chip_ms_p50", 2.5, "ms", 2000).with_note("median");
        let line = m.line();
        assert!(line.starts_with("chip_ms_p50"));
        assert!(line.contains(" ms "), "{line}");
        assert!(line.contains("n=2000"), "{line}");
        assert!(line.ends_with("(median)"), "{line}");
    }

    #[test]
    fn result_json_keeps_every_digit() {
        let metrics = [
            Metric::new("latency_ms", 1.2034567891234, "ms", 10),
            Metric::new("setup_s", 3.0, "s", 3),
        ];
        assert_eq!(
            result_json(true, 1000, 0, &metrics),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034567891234, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 3.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn result_json_rejects_nan() {
        result_json(true, 1, 0, &[Metric::new("x", f64::NAN, "s", 1)]);
    }
}
