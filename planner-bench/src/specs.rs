//! Seeded planning specs: the only input the program sees.
//!
//! A spec is a *shape* (protocol, objective, search knobs — fixed per
//! class so each run carries the same per-class cost mix) plus a seeded
//! packet airtime ω. ω enters every candidate's cache key, so specs
//! with distinct ω share no work: each new spec is a genuinely cold
//! front.

use crate::stats::Rng;

/// Protocol classes, named after how their schedules are built; the
/// per-class layer numbers are grouped by these names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// The paper's slotless optimum (`optimal`, `worst` objective).
    Uniform,
    /// Difference-code schedules (`diff-codes`, `code-based`, `p95`).
    CodeBased,
    /// Co-prime and commensurate slotted schedules (`searchlight`,
    /// `disco`, `p95`).
    Coprime,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Uniform, Class::CodeBased, Class::Coprime];

    pub fn name(self) -> &'static str {
        match self {
            Class::Uniform => "uniform",
            Class::CodeBased => "codebased",
            Class::Coprime => "coprime",
        }
    }
}

/// A search shape: everything about a spec except ω.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub class: Class,
    pub protocol: &'static str,
    pub pair: bool,
    pub eta_min: f64,
    pub seeds_per_axis: u32,
    pub rounds: u32,
}

const fn shape(
    class: Class,
    protocol: &'static str,
    pair: bool,
    eta_min: f64,
    seeds_per_axis: u32,
    rounds: u32,
) -> Shape {
    Shape {
        class,
        protocol,
        pair,
        eta_min,
        seeds_per_axis,
        rounds,
    }
}

/// Uniform shapes: the symmetric and the asymmetric-pair optimum.
pub const UNIFORM: [Shape; 2] = [
    shape(Class::Uniform, "optimal", false, 0.01, 6, 2),
    shape(Class::Uniform, "optimal", true, 0.01, 6, 2),
];

/// Code-based shapes, η ≥ 0.02.
pub const CODE_BASED: [Shape; 2] = [
    shape(Class::CodeBased, "diff-codes", false, 0.02, 6, 2),
    shape(Class::CodeBased, "code-based", false, 0.02, 6, 2),
];

/// Co-prime shapes: searchlight at η ≥ 0.05, disco at η ≥ 0.1. The
/// lower η limits are where these searches get expensive (disco at
/// η ≥ 0.02 runs for minutes), so each shape pairs its limit with a
/// search budget that keeps one front under a second.
pub const COPRIME: [Shape; 6] = [
    shape(Class::Coprime, "searchlight", false, 0.05, 4, 1),
    shape(Class::Coprime, "disco", false, 0.15, 6, 2),
    shape(Class::Coprime, "searchlight", false, 0.08, 6, 2),
    shape(Class::Coprime, "disco", false, 0.2, 6, 2),
    shape(Class::Coprime, "searchlight", false, 0.1, 6, 2),
    shape(Class::Coprime, "disco", false, 0.12, 4, 1),
];

/// One concrete spec.
#[derive(Clone, Debug)]
pub struct Spec {
    pub shape: Shape,
    pub omega_us: f64,
    /// The spec as the wire carries it (`nd-opt` grammar, JSON).
    pub json: String,
}

impl Spec {
    pub fn new(shape: Shape, omega_us: f64) -> Spec {
        let (metric, objective) = match shape.class {
            Class::Uniform => ("two-way", "worst"),
            _ => ("one-way", "p95"),
        };
        let json = format!(
            "{{\"name\": \"{}-{}\", \"backend\": \"exact\", \"metric\": \"{metric}\", \
             \"radio\": {{\"omega_us\": {omega_us}}}, \
             \"opt\": {{\"protocols\": [\"{}\"], \"objective\": \"{objective}\", \
             \"pair\": {}, \"eta_min\": {}, \"seeds_per_axis\": {}, \"rounds\": {}}}}}",
            shape.protocol,
            omega_us,
            shape.protocol,
            shape.pair,
            shape.eta_min,
            shape.seeds_per_axis,
            shape.rounds
        );
        Spec {
            shape,
            omega_us,
            json,
        }
    }

    pub fn is_worst_objective(&self) -> bool {
        self.shape.class == Class::Uniform
    }

    /// A request envelope for `/v1/front`, `/v1/gap` or (with a budget)
    /// `/v1/best`.
    pub fn body(&self, budget: Option<f64>) -> String {
        match budget {
            Some(b) => format!(
                "{{\"api\": \"nd-serve-api/v1\", \"budget\": {b}, \"spec\": {}}}",
                self.json
            ),
            None => format!("{{\"api\": \"nd-serve-api/v1\", \"spec\": {}}}", self.json),
        }
    }
}

/// Hands out specs of each shape with ω values never repeated within a
/// run: a seeded permutation of a 0.05 µs grid (2801 values, more than
/// any run asks for).
pub struct OmegaPool {
    values: Vec<f64>,
    next: usize,
}

impl OmegaPool {
    pub fn new(rng: &mut Rng) -> OmegaPool {
        // 20 µs ..= 160 µs: BLE-like to long sub-GHz packets
        let mut values: Vec<f64> = (0..=2800).map(|k| 20.0 + 0.05 * k as f64).collect();
        rng.shuffle(&mut values);
        OmegaPool { values, next: 0 }
    }

    pub fn spec(&mut self, shape: Shape) -> Spec {
        let omega = self.values[self.next % self.values.len()];
        self.next += 1;
        Spec::new(shape, (omega * 100.0).round() / 100.0)
    }
}
