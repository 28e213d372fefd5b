//! The dense oracle of `TimingModel`'s sampling and second-order
//! statistics, shared by the unit tests in `src/model.rs` and the property
//! tests.
//!
//! The oracle keeps every factor coefficient of a form, zeros included,
//! and draws every normal of a chip's stream one at a time with its own
//! Box–Muller over `StdRng`. The library stores only nonzero coefficients
//! and computes only the normals its forms read; it must match the oracle
//! bit for bit. The including module must have `CanonicalDelay`,
//! `ChipInstance` and `TimingModel` in scope.

use super::{CanonicalDelay, ChipInstance, TimingModel};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A canonical form with a dense coefficient over every shared factor.
#[derive(Debug, Clone)]
struct DenseForm {
    mean: f64,
    coeffs: Vec<f64>,
    indep: Vec<(u32, f64)>,
    extra: f64,
}

impl DenseForm {
    fn new(form: &CanonicalDelay, n_factors: usize) -> Self {
        let mut coeffs = vec![0.0; n_factors];
        for &(k, c) in &form.coeffs {
            coeffs[k as usize] = c;
        }
        DenseForm { mean: form.mean, coeffs, indep: form.indep.clone(), extra: form.extra }
    }

    fn evaluate(&self, z: &[f64], gate_eps: &[f64], path_eps: f64) -> f64 {
        let mut d = self.mean;
        for (c, zv) in self.coeffs.iter().zip(z) {
            d += c * zv;
        }
        for &(g, c) in &self.indep {
            d += c * gate_eps[g as usize];
        }
        d + self.extra * path_eps
    }

    fn variance(&self) -> f64 {
        let shared: f64 = self.coeffs.iter().map(|c| c * c).sum();
        let indep: f64 = self.indep.iter().map(|(_, c)| c * c).sum();
        shared + indep + self.extra * self.extra
    }

    fn covariance(&self, other: &DenseForm) -> f64 {
        let mut cov: f64 = self.coeffs.iter().zip(&other.coeffs).map(|(&a, &b)| a * b).sum();
        let (mut i, mut j) = (0, 0);
        while i < self.indep.len() && j < other.indep.len() {
            match self.indep[i].0.cmp(&other.indep[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    cov += self.indep[i].1 * other.indep[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        cov
    }
}

/// Box–Muller normals drawn one at a time, the second of each pair cached.
struct Normals {
    rng: StdRng,
    cached: Option<f64>,
}

impl Normals {
    fn next(&mut self) -> f64 {
        if let Some(v) = self.cached.take() {
            return v;
        }
        loop {
            let u1: f64 = self.rng.random();
            let u2: f64 = self.rng.random();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            self.cached = Some(r * theta.sin());
            return r * theta.cos();
        }
    }
}

/// A timing model's forms with dense coefficients.
#[derive(Debug, Clone)]
struct DenseModel {
    n_factors: usize,
    gate_count: usize,
    setup: Vec<DenseForm>,
    hold: Vec<Option<DenseForm>>,
}

impl DenseModel {
    fn new(model: &TimingModel, gate_count: usize) -> Self {
        let nf = model.factor_space().len();
        let n = model.path_count();
        DenseModel {
            n_factors: nf,
            gate_count,
            setup: (0..n).map(|i| DenseForm::new(model.setup_form(i), nf)).collect(),
            hold: (0..n).map(|i| model.hold_form(i).map(|h| DenseForm::new(h, nf))).collect(),
        }
    }

    /// Chip `seed`: every normal of its stream drawn, in stream order (one
    /// per factor, one per gate, then one per path), and every coefficient
    /// multiplied.
    fn sample_chip(&self, seed: u64) -> ChipInstance {
        let mut normals = Normals {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E3779B97F4A7C15)),
            cached: None,
        };
        let z: Vec<f64> = (0..self.n_factors).map(|_| normals.next()).collect();
        let gate_eps: Vec<f64> = (0..self.gate_count).map(|_| normals.next()).collect();
        let mut setup = Vec::with_capacity(self.setup.len());
        let mut hold = Vec::with_capacity(self.setup.len());
        for (form, h) in self.setup.iter().zip(&self.hold) {
            let path_eps = normals.next();
            setup.push(form.evaluate(&z, &gate_eps, path_eps));
            hold.push(h.as_ref().map(|f| f.evaluate(&z, &gate_eps, path_eps)));
        }
        ChipInstance::new(seed, setup, hold)
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn option_bits(values: &[Option<f64>]) -> Vec<Option<u64>> {
    values.iter().map(|v| v.map(f64::to_bits)).collect()
}

/// Compares `model` with its dense oracle bit for bit: `sample_chip` on
/// every seed, `sample_hold_bounds` on every path, and variance and
/// covariance over every pair of setup forms (the model's path covariance,
/// whose diagonal carries each path's `extra` term) and every pair of hold
/// forms.
/// `gate_count` is the netlist's gate count. Returns the first mismatch.
pub fn check_against_dense(
    model: &TimingModel,
    gate_count: usize,
    seeds: impl IntoIterator<Item = u64>,
) -> Result<(), String> {
    let dense = DenseModel::new(model, gate_count);
    let all: Vec<usize> = (0..model.path_count()).collect();
    for seed in seeds {
        let chip = model.sample_chip(seed);
        let oracle = dense.sample_chip(seed);
        if bits(chip.setup_delays()) != bits(oracle.setup_delays()) {
            return Err(format!("seed {seed}: setup delays differ from the dense oracle"));
        }
        if option_bits(chip.hold_bounds()) != option_bits(oracle.hold_bounds()) {
            return Err(format!("seed {seed}: hold bounds differ from the dense oracle"));
        }
        if option_bits(&model.sample_hold_bounds(seed, &all)) != option_bits(chip.hold_bounds()) {
            return Err(format!("seed {seed}: hold-only sampling differs from sample_chip"));
        }
    }
    let holds: Vec<(usize, &DenseForm)> =
        dense.hold.iter().enumerate().filter_map(|(i, h)| h.as_ref().map(|h| (i, h))).collect();
    for (i, a) in dense.setup.iter().enumerate() {
        if model.setup_form(i).variance().to_bits() != a.variance().to_bits() {
            return Err(format!("setup form {i}: variance differs"));
        }
        for (j, b) in dense.setup.iter().enumerate().skip(i) {
            // A path's own `extra` term co-varies with itself only.
            let own = if i == j { a.extra * a.extra } else { 0.0 };
            if model.covariance(i, j).to_bits() != (a.covariance(b) + own).to_bits() {
                return Err(format!("setup forms {i}, {j}: covariance differs"));
            }
        }
    }
    for (pos, &(i, a)) in holds.iter().enumerate() {
        let form = model.hold_form(i).expect("hold form");
        if form.variance().to_bits() != a.variance().to_bits() {
            return Err(format!("hold form {i}: variance differs"));
        }
        for &(j, b) in &holds[pos..] {
            let other = model.hold_form(j).expect("hold form");
            if form.covariance(other).to_bits() != a.covariance(b).to_bits() {
                return Err(format!("hold forms {i}, {j}: covariance differs"));
            }
        }
    }
    Ok(())
}
