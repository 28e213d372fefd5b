//! ASCII visualization of delay-range alignment (the paper's Fig. 6).
//!
//! Shows one test batch over successive frequency-stepping iterations:
//! each path's current `[l, u]` range (shifted by its buffer assignment),
//! the chosen clock period `T`, and how one probe narrows several ranges
//! at once once the buffers align them.
//!
//! Run with: `cargo run --release --example alignment_demo`

use effitest::solver::align::{sorted_center_weights, AlignPath, AlignmentEngine, BufferVar};

const COLS: usize = 72;

fn render(label: &str, lo: f64, hi: f64, left: f64, right: f64, marker: Option<f64>) {
    let scale =
        |v: f64| (((v - lo) / (hi - lo)).clamp(0.0, 1.0) * (COLS - 1) as f64).round() as usize;
    let mut row = vec![b' '; COLS];
    let (a, b) = (scale(left), scale(right));
    for cell in row.iter_mut().take(b + 1).skip(a) {
        *cell = b'-';
    }
    row[a] = b'[';
    row[b] = b']';
    if let Some(m) = marker {
        let m = scale(m);
        row[m] = if row[m] == b' ' { b'|' } else { b'+' };
    }
    println!("  {label:<10} {}", String::from_utf8(row).expect("ascii"));
}

fn main() {
    // A hand-built batch in the spirit of Fig. 6d: three paths with
    // overlapping-but-offset ranges; two buffers can shift the outer two.
    let spec = BufferVar { min: -6.0, max: 6.0, steps: 20 };
    let buffers = vec![spec, spec];
    let mut bounds = [(88.0_f64, 118.0_f64), (97.0, 127.0), (106.0, 136.0)];
    // Path 0 launches from buffer 0 (shift = +x0), path 2 captures at
    // buffer 1 (shift = -x1), path 1 is unbuffered.
    let roles: [(Option<usize>, Option<usize>); 3] =
        [(Some(0), None), (None, None), (None, Some(1))];
    let truths = [101.5, 111.0, 122.0];

    println!("Delay-range alignment by tuning buffers (paper Fig. 6)\n");
    println!("true delays: {truths:?}\n");
    let (view_lo, view_hi) = (80.0, 145.0);

    // The per-iteration hot path of the real flow: one warm-started
    // engine per batch, the path list rebuilt in place each iteration.
    let mut engine = AlignmentEngine::new();
    engine.begin_batch(&buffers).expect("well-formed buffers");

    let mut iteration = 0;
    while bounds.iter().any(|(l, u)| u - l > 0.8) && iteration < 12 {
        iteration += 1;
        let centers: Vec<f64> = bounds.iter().map(|(l, u)| 0.5 * (l + u)).collect();
        let weights = sorted_center_weights(&centers, 1000.0, 1.0);
        let paths = engine.paths_mut();
        paths.clear();
        paths.extend((0..3).map(|p| AlignPath {
            center: centers[p],
            weight: weights[p],
            source_buffer: roles[p].0,
            sink_buffer: roles[p].1,
            hold_lower_bound: None,
        }));
        let sol = engine.solve().clone();

        println!(
            "iteration {iteration}: T = {:.2}, buffers = [{:+.2}, {:+.2}]",
            sol.period, sol.buffer_values[0], sol.buffer_values[1]
        );
        for p in 0..3 {
            let shift = roles[p].0.map_or(0.0, |b| sol.buffer_values[b])
                - roles[p].1.map_or(0.0, |b| sol.buffer_values[b]);
            let (l, u) = bounds[p];
            // Ranges drawn in the *shifted* domain the tester sees.
            render(&format!("path {p}"), view_lo, view_hi, l + shift, u + shift, Some(sol.period));
            // Apply the probe: pass iff truth + shift <= T.
            let passed = truths[p] + shift <= sol.period;
            let measured = sol.period - shift;
            if passed {
                if measured < bounds[p].1 {
                    bounds[p].1 = measured.max(bounds[p].0);
                }
            } else if measured > bounds[p].0 {
                bounds[p].0 = measured.min(bounds[p].1);
            }
        }
        println!();
    }

    println!("final ranges after {iteration} frequency steps:");
    for (p, (l, u)) in bounds.iter().enumerate() {
        println!("  path {p}: [{l:7.2}, {u:7.2}]  width {:.2}  (true delay {})", u - l, truths[p]);
        assert!(*l - 1e-9 <= truths[p] && truths[p] <= *u + 1e-9, "range must bracket truth");
    }
    println!("\nEvery iteration probed all three paths with ONE clock period —");
    println!("that is the multiplexing + alignment advantage of the paper.");
}
