//! Exact discovery-latency distributions.
//!
//! The worst case (Definition 3.4) is one point of a richer object: the
//! full distribution of the discovery latency over a uniformly random
//! encounter (arrival instant × schedule offset). For periodic schedules
//! this distribution is computable *exactly*: conditioned on the arrival
//! falling in the gap before beacon `k`, the latency is
//! `W + l*_k(Φ)` with `W ~ U(0, λ_{k−1}]` and `Φ` uniform — a convolution
//! of a uniform with the (exactly known) discrete first-hit profile.
//! [`LatencyDistribution`] evaluates that mixture's CDF in closed form.

use crate::exact::AnalysisConfig;
use nd_core::coverage::{CoverageMap, OverlapModel};
use nd_core::error::NdError;
use nd_core::interval::IntervalSet;
use nd_core::schedule::{BeaconSeq, ReceptionWindows};
use nd_core::time::Tick;

/// One mixture component: arrival in the gap before a specific beacon.
struct Component {
    /// Probability weight of this component (gap length / T_B).
    weight: f64,
    /// The gap length (the uniform wait's support).
    gap: f64,
    /// Exact (latency, probability) pairs of the first-hit profile.
    profile: Vec<(f64, f64)>,
    /// Probability that this component never discovers.
    undiscovered: f64,
}

/// The exact distribution of the one-way discovery latency over a uniform
/// random encounter.
pub struct LatencyDistribution {
    components: Vec<Component>,
    worst: Option<Tick>,
}

impl LatencyDistribution {
    /// Build the exact distribution for `windows` discovering `beacons`.
    ///
    /// Fails when the schedule pair leaves offsets permanently uncovered
    /// *and* `allow_partial` is false; with `allow_partial` the
    /// distribution carries an atom at infinity (see
    /// [`LatencyDistribution::undiscovered_probability`]).
    pub fn build(
        beacons: &BeaconSeq,
        windows: &ReceptionWindows,
        cfg: &AnalysisConfig,
        allow_partial: bool,
    ) -> Result<Self, NdError> {
        let gaps = beacons.gaps();
        let uniform = gaps.iter().all(|&g| g == gaps[0]);
        let m_b = beacons.n_beacons();
        let starts: Vec<usize> = if uniform { vec![0] } else { (0..m_b).collect() };
        let t_b = beacons.period().as_secs_f64();
        // residue-fold saturation bound, shared across all starting phases
        let base = model_offsets(cfg.model, windows, cfg.omega)?;
        let ultimate =
            crate::residue::ultimate_covered_measure(&base, beacons, windows.period());

        let mut components = Vec::with_capacity(starts.len());
        let mut worst = Tick::ZERO;
        let mut any_uncovered = false;
        for &k in &starts {
            let gap = gaps[(k + m_b - 1) % m_b];
            let map = expand_map(beacons, windows, k, ultimate, cfg)?;
            let profile = map.first_hit_profile();
            let undiscovered =
                profile.uncovered_measure().as_nanos() as f64 / windows.period().as_nanos() as f64;
            if undiscovered > 0.0 {
                any_uncovered = true;
            }
            if let Some(w) = profile.distribution().last().map(|&(d, _)| d) {
                worst = worst.max(gap + w);
            }
            let weight = if uniform {
                1.0
            } else {
                gap.as_secs_f64() / t_b
            };
            components.push(Component {
                weight,
                gap: gap.as_secs_f64(),
                profile: profile
                    .distribution()
                    .into_iter()
                    .map(|(d, p)| (d.as_secs_f64(), p))
                    .collect(),
                undiscovered,
            });
        }
        if any_uncovered && !allow_partial {
            return Err(NdError::AnalysisFailed(
                "schedule leaves offsets permanently uncovered".into(),
            ));
        }
        Ok(LatencyDistribution {
            components,
            worst: if any_uncovered { None } else { Some(worst) },
        })
    }

    /// `P(latency ≤ t)` — exact.
    pub fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for c in &self.components {
            let mut comp = 0.0;
            for &(l, p) in &c.profile {
                // latency = W + l with W ~ U(0, gap]
                let frac = ((t - l) / c.gap).clamp(0.0, 1.0);
                comp += p * frac;
            }
            acc += c.weight * comp;
        }
        acc
    }

    /// Probability that discovery never happens (atom at infinity).
    pub fn undiscovered_probability(&self) -> f64 {
        self.components
            .iter()
            .map(|c| c.weight * c.undiscovered)
            .sum()
    }

    /// The exact mean latency, conditioning on discovery.
    pub fn mean(&self) -> f64 {
        let mut acc = 0.0;
        let mut mass = 0.0;
        for c in &self.components {
            for &(l, p) in &c.profile {
                acc += c.weight * p * (l + c.gap / 2.0);
                mass += c.weight * p;
            }
        }
        acc / mass
    }

    /// The exact `q`-quantile (0 < q < 1) of the latency, conditioning on
    /// discovery; computed by bisection on the closed-form CDF.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..1.0).contains(&q) && q > 0.0);
        let discovered = 1.0 - self.undiscovered_probability();
        let target = q * discovered;
        let mut lo = 0.0;
        let mut hi = self
            .worst
            .map(|w| w.as_secs_f64())
            .unwrap_or_else(|| self.mean() * 64.0);
        // expand hi if needed (partial distributions)
        while self.cdf(hi) < target {
            hi *= 2.0;
        }
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// The exact worst case (`None` if some offsets are never covered).
    pub fn worst(&self) -> Option<Tick> {
        self.worst
    }
}

/// Expand the coverage map from beacon `k` until fully covered, saturated
/// at the residue-fold bound `ultimate`, or until the distinct-image
/// budget is exhausted (same policy as the exact engine).
fn expand_map(
    beacons: &BeaconSeq,
    windows: &ReceptionWindows,
    k: usize,
    ultimate: Tick,
    cfg: &AnalysisConfig,
) -> Result<CoverageMap, NdError> {
    let period_c = windows.period();
    let base = model_offsets(cfg.model, windows, cfg.omega)?;
    let m_b = beacons.n_beacons();
    let times = beacons.times();
    let t_k = times[k];
    let distinct = beacons
        .period()
        .checked_lcm(period_c)
        .map(|l| (l / beacons.period()).saturating_mul(m_b as u64))
        .unwrap_or(u64::MAX);
    let mut rel = Vec::new();
    let mut covered = IntervalSet::empty();
    let mut n = 0usize;
    while !covered.covers(period_c) {
        if n >= cfg.max_beacons {
            return Err(NdError::AnalysisFailed("beacon budget exhausted".into()));
        }
        if n as u64 >= distinct {
            break;
        }
        let cycle = (k + n) / m_b;
        let idx = (k + n) % m_b;
        let abs = times[idx] + beacons.period() * cycle as u64;
        let r = abs - t_k;
        covered = covered.union(&base.shift_mod(-(r.as_nanos() as i128), period_c));
        rel.push(r);
        n += 1;
        if covered.measure() >= ultimate {
            break; // saturated: the remaining gaps are permanent
        }
    }
    Ok(CoverageMap::build(&rel, windows, cfg.omega, cfg.model))
}

fn model_offsets(
    model: OverlapModel,
    windows: &ReceptionWindows,
    omega: Tick,
) -> Result<IntervalSet, NdError> {
    let base = model.reception_offsets(windows, omega);
    if base.is_empty() {
        return Err(NdError::AnalysisFailed(
            "windows admit no reception under this model".into(),
        ));
    }
    Ok(base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nd_protocols::optimal::{self, OptimalParams};

    fn dist_for(eta: f64) -> LatencyDistribution {
        let opt = optimal::symmetric(OptimalParams::paper_default(), eta).unwrap();
        LatencyDistribution::build(
            opt.schedule.beacons.as_ref().unwrap(),
            opt.schedule.windows.as_ref().unwrap(),
            &AnalysisConfig::paper_default(),
            false,
        )
        .unwrap()
    }

    #[test]
    fn cdf_is_a_distribution() {
        let d = dist_for(0.05);
        assert_eq!(d.cdf(0.0), 0.0);
        let worst = d.worst().unwrap().as_secs_f64();
        assert!((d.cdf(worst) - 1.0).abs() < 1e-9);
        assert!((d.cdf(worst * 2.0) - 1.0).abs() < 1e-12);
        // monotone
        let mut prev = 0.0;
        for i in 0..50 {
            let t = worst * i as f64 / 49.0;
            let c = d.cdf(t);
            assert!(c >= prev - 1e-12);
            prev = c;
        }
        assert_eq!(d.undiscovered_probability(), 0.0);
    }

    #[test]
    fn uniform_tiling_is_almost_uniform_latency() {
        // for a disjoint tiling with uniform gaps, the latency is (almost)
        // uniform on (0, worst]: mean ≈ worst/2, quantiles linear
        let d = dist_for(0.05);
        let worst = d.worst().unwrap().as_secs_f64();
        assert!((d.mean() / worst - 0.5).abs() < 0.02, "mean {}", d.mean());
        assert!((d.quantile(0.5) / worst - 0.5).abs() < 0.03);
        assert!((d.quantile(0.9) / worst - 0.9).abs() < 0.03);
        assert!((d.quantile(0.99) / worst - 0.99).abs() < 0.03);
    }

    #[test]
    fn quantiles_bracket_the_worst_case() {
        let d = dist_for(0.02);
        let worst = d.worst().unwrap().as_secs_f64();
        assert!(d.quantile(0.999) <= worst * (1.0 + 1e-6));
        assert!(d.quantile(0.5) < d.quantile(0.95));
    }

    #[test]
    fn mean_matches_exact_engine() {
        let opt = optimal::symmetric(OptimalParams::paper_default(), 0.05).unwrap();
        let wc = crate::exact::one_way_worst_case(
            opt.schedule.beacons.as_ref().unwrap(),
            opt.schedule.windows.as_ref().unwrap(),
            &AnalysisConfig::paper_default(),
        )
        .unwrap();
        let d = dist_for(0.05);
        assert!((wc.mean - d.mean()).abs() / wc.mean < 1e-9);
    }

    #[test]
    fn partial_distribution_carries_atom() {
        use nd_core::time::Tick;
        use nd_protocols::Disco;
        let sched = Disco::new(3, 5, Tick::from_millis(1), Tick::from_micros(36))
            .unwrap()
            .schedule()
            .unwrap();
        let d = LatencyDistribution::build(
            sched.beacons.as_ref().unwrap(),
            sched.windows.as_ref().unwrap(),
            &AnalysisConfig::paper_default(),
            true,
        )
        .unwrap();
        assert!(d.undiscovered_probability() > 0.0);
        assert!(d.worst().is_none());
        // strict mode rejects it
        assert!(LatencyDistribution::build(
            sched.beacons.as_ref().unwrap(),
            sched.windows.as_ref().unwrap(),
            &AnalysisConfig::paper_default(),
            false,
        )
        .is_err());
    }
}
