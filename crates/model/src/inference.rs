//! Synthetic inference semantics.
//!
//! Real EE-DNNs decide exits from logits; we have no weights, so we model
//! the *statistical process* that drives everything E3 observes. Each
//! sample carries a latent **hardness** `h ∈ [0,1]`, interpreted as the
//! fraction of the model's depth required before its prediction
//! stabilizes (`d* = h · L` layers). At the ramp after layer `l` we form a
//! noisy *stabilization margin*
//!
//! ```text
//! x = k · ((l + 1) − d*) + ε,   ε ~ N(0, σ²)
//! ```
//!
//! and derive every observable a real ramp would expose:
//!
//! * normalized entropy `= σ(−x)` — high before stabilization, →0 after;
//! * confidence `= 1/C + (1 − 1/C) · σ(x)`;
//! * predicted class — the sample's final class with probability
//!   `0.5 + 0.5·σ(x)`, otherwise a random other class (this is what makes
//!   patience/voting policies behave realistically);
//! * learned-gate score `= σ(x)`.
//!
//! Correctness: completing the full model is correct with the dataset's
//! base accuracy; exiting at a ramp adds a small fixed EE loss (ramp
//! classifiers are weaker than the final head) plus a penalty growing
//! with how far *before* its stabilization depth the sample left. The
//! constants are calibrated to fig. 2: entropy threshold 0.4 yields
//! ≈40–45% average compute saving at <2% accuracy loss on easy-skewed
//! workloads, and the 0.3/0.4/0.5 sweep of fig. 23 shifts exits by about
//! ±1 layer.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use crate::model::{EeModel, Task};
use crate::policy::{ExitPolicy, SampleExitState};
use crate::profile::BatchProfile;
use crate::wrapper::RampController;
use e3_simcore::rng::box_muller;

/// Result of pushing one sample (or one generated token, for
/// autoregressive models) through an EE-DNN. The ramps whose checking
/// cost it paid follow from the exit ramp:
/// [`RampController::paid_through`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferenceOutcome {
    /// Number of layers executed (== `num_layers` when no exit fired).
    pub layers_executed: usize,
    /// Index (into the model's ramp list) of the ramp the sample exited
    /// at, or `None` if it ran to completion.
    pub exited_at_ramp: Option<usize>,
    /// Whether the final prediction was correct under the synthetic
    /// accuracy model.
    pub correct: bool,
}

/// The synthetic inference engine. One instance per experiment; methods
/// are pure given the RNG.
#[derive(Debug, Clone, Copy)]
pub struct InferenceSim {
    /// Margin steepness per layer (how sharply confidence rises once the
    /// stabilization depth is passed).
    pub steepness: f64,
    /// Standard deviation of per-ramp margin noise.
    pub ramp_noise_sd: f64,
    /// Dataset accuracy ceiling when the full model runs.
    pub base_accuracy: f64,
    /// Fixed extra error for exiting at any ramp (ramp heads are weaker
    /// than the final classifier).
    pub ee_base_loss: f64,
    /// Error penalty per *fraction of total depth* exited before the
    /// sample's stabilization depth.
    pub early_exit_penalty: f64,
}

impl Default for InferenceSim {
    fn default() -> Self {
        InferenceSim {
            steepness: 0.8,
            ramp_noise_sd: 0.25,
            base_accuracy: 0.92,
            ee_base_loss: 0.012,
            early_exit_penalty: 0.15,
        }
    }
}

impl InferenceSim {
    /// Calibrated default engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine with a specific dataset accuracy ceiling.
    pub fn with_accuracy(base_accuracy: f64) -> Self {
        InferenceSim {
            base_accuracy,
            ..Self::default()
        }
    }

    /// The sample's stabilization depth in layers for a model of `layers`
    /// relevant depth.
    fn d_star(&self, hardness: f64, layers: usize) -> f64 {
        hardness.clamp(0.0, 1.0) * layers as f64
    }

    fn draw_correct(
        &self,
        exit_depth: f64,
        d_star: f64,
        depth_span: usize,
        via_ramp: bool,
        rng: &mut StdRng,
    ) -> bool {
        let mut p = self.base_accuracy;
        if via_ramp {
            p -= self.ee_base_loss;
            let early = (d_star - exit_depth).max(0.0) / depth_span.max(1) as f64;
            p -= self.early_exit_penalty * early;
        }
        rng.gen::<f64>() < p.clamp(0.0, 1.0)
    }

    /// Monte-Carlo estimate of the batch-shrinkage profile for a hardness
    /// population: runs each hardness through the model and bins exits per
    /// layer. This is "ground truth" the online profiler tries to track.
    pub fn exit_profile(
        &self,
        model: &EeModel,
        policy: &ExitPolicy,
        ctrl: &RampController,
        hardnesses: &[f64],
        rng: &mut StdRng,
    ) -> BatchProfile {
        let sampler = ExitSampler::new(self, model, policy, ctrl);
        let mut exits_after = vec![0.0; model.num_layers()];
        for &h in hardnesses {
            if let Some(r) = sampler.sample(h, rng).exited_at_ramp {
                exits_after[model.ramps()[r].after_layer] += 1.0;
            }
        }
        BatchProfile::from_exit_counts(&exits_after, hardnesses.len().max(1) as f64)
    }

    /// Mean accuracy and mean executed-depth fraction over a hardness
    /// population — the two axes of fig. 2.
    pub fn accuracy_and_depth(
        &self,
        model: &EeModel,
        policy: &ExitPolicy,
        ctrl: &RampController,
        hardnesses: &[f64],
        rng: &mut StdRng,
    ) -> (f64, f64) {
        if hardnesses.is_empty() {
            return (0.0, 0.0);
        }
        let sampler = ExitSampler::new(self, model, policy, ctrl);
        let mut correct = 0usize;
        let mut depth = 0usize;
        for &h in hardnesses {
            let out = sampler.sample(h, rng);
            correct += usize::from(out.correct);
            depth += out.layers_executed;
        }
        let n = hardnesses.len() as f64;
        (
            correct as f64 / n,
            depth as f64 / (n * model.num_layers() as f64),
        )
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Probability that a ramp with margin `x` predicts the sample's final
/// class.
fn p_stable(x: f64) -> f64 {
    0.5 + 0.5 * sigmoid(x)
}

/// Slack every bound of [`ExitSampler`] keeps from the value it bounds:
/// far above the few-ulp error of libm's `ln`, `cos` and `exp`, far
/// below any difference a draw could resolve.
const MARGIN: f64 = 1e-9;
/// Binades `u1` of the Box–Muller draw can occupy: `[2^-k, 2^(1-k))`
/// for `k` in `1..=52` (it is drawn from `[EPSILON, 1)`), plus `k = 0`
/// for `u1 == 1`.
const BINADES: usize = 53;
/// Equal cells of `[0, 1)` that bound `cos(2π u2)`; a multiple of 4,
/// so `cos` is monotone within each cell.
const COS_CELLS: usize = 64;
/// Left end and resolution of the `p_stable` grid: `p_stable` at
/// `x = GRID_MIN + j / GRID_STEPS` for `j` in `0..GRID_POINTS`, which
/// covers `x` in `[-16, 16]`.
const GRID_MIN: f64 = -16.0;
const GRID_STEPS: f64 = 64.0;
const GRID_POINTS: usize = 32 * 64 + 1;

/// The tables every [`ExitSampler`] shares.
#[derive(Debug)]
struct Tables {
    /// `p_stable` on the grid points.
    stable: Vec<f64>,
    /// `(min, max)` of `cos(2π u2)` over each cell of `u2`.
    cos: [(f64, f64); COS_CELLS],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| Tables {
        stable: (0..GRID_POINTS)
            .map(|j| p_stable(GRID_MIN + j as f64 / GRID_STEPS))
            .collect(),
        cos: std::array::from_fn(|j| {
            let at = |j: usize| (std::f64::consts::TAU * j as f64 / COS_CELLS as f64).cos();
            (at(j).min(at(j + 1)), at(j).max(at(j + 1)))
        }),
    })
}

/// Bounds on `sqrt(-2 ln u1) · sd` for `u1` in one binade, and the slack
/// that covers libm and rounding error in the noise computed from them.
#[derive(Debug, Clone, Copy)]
struct Radius {
    lo: f64,
    hi: f64,
    pad: f64,
}

/// Per-sample exit draws for one `(model, policy, ctrl)` under an
/// [`InferenceSim`]: the Monte-Carlo every consumer of exit behaviour
/// runs, built once and then sampled per request or token.
///
/// A ramp's margin is `x = base + noise`, with `base` fixed by the
/// sample's hardness and `noise` a Box–Muller draw (`ln`, `sqrt`, `cos`);
/// its stable class (`u < p_stable(x)`, one `exp`) and the threshold
/// policies' exit test (one more `exp`) both depend on `x` monotonically.
/// The sampler makes exactly the RNG draws of the full computation, in
/// the same order, but bounds `x` from the binade of `u1` and the cell
/// of `u2` and settles each decision from precomputed tables when the
/// bound clears it by a fixed margin (`1e-9`). Only an ambiguous
/// decision computes `x` and evaluates the decision's own expression, so
/// every outcome and every RNG position equal the full computation's
/// (DESIGN.md, "Exact filtered materialization").
#[derive(Debug, Clone)]
pub struct ExitSampler {
    sim: InferenceSim,
    policy: ExitPolicy,
    /// The ramps a sample evaluates, in order: every ramp except the
    /// disabled ones of independent-style controllers.
    ramps: Vec<SampledRamp>,
    rule: ExitRule,
    /// The noise radius for `u1` in binade `k`.
    radius: [Radius; BINADES],
    /// False when the engine's steepness or noise is not finite and
    /// non-negative; every decision is then computed in full.
    filtered: bool,
    /// Classes a non-stable prediction is drawn from.
    wrong_classes: usize,
    depth_span: usize,
    num_layers: usize,
    tables: &'static Tables,
    /// Evaluated ramps and those that computed `x`, for the filter-rate
    /// test.
    #[cfg(test)]
    tally: std::cell::Cell<(u64, u64)>,
}

#[derive(Debug, Clone, Copy)]
struct SampledRamp {
    index: usize,
    /// Executed depth at the ramp, measured from the end of any encoder
    /// prefix.
    depth: f64,
    layers_executed: usize,
    can_exit: bool,
}

/// How the policy decides an exit.
#[derive(Debug, Clone, Copy)]
enum ExitRule {
    /// A threshold policy: exits when `x >= exit_from`, stays when
    /// `x < stay_below`, and otherwise evaluates `test`. A `NaN` bound
    /// never settles a decision.
    Cut {
        test: ThresholdTest,
        stay_below: f64,
        exit_from: f64,
    },
    /// Patience or voting: reads only the predicted class.
    Classes,
}

/// The observation field a threshold policy reads, as a function of the
/// margin `x`.
#[derive(Debug, Clone, Copy)]
enum ThresholdTest {
    Entropy { threshold: f64 },
    Confidence { threshold: f64, inv_c: f64 },
    Learned { threshold: f64 },
}

impl ThresholdTest {
    /// `(value, bar)` with the policy exiting iff `value >= bar`: the
    /// ramp observation's field computed from `x` exactly as the
    /// observation computes it (negated for entropy, which exits low).
    fn score(self, x: f64) -> (f64, f64) {
        match self {
            ThresholdTest::Entropy { threshold } => (-sigmoid(-x), -threshold),
            ThresholdTest::Confidence { threshold, inv_c } => {
                (inv_c + (1.0 - inv_c) * sigmoid(x), threshold)
            }
            ThresholdTest::Learned { threshold } => (sigmoid(x), threshold),
        }
    }

    /// The policy's exit test at margin `x`.
    fn holds(self, x: f64) -> bool {
        let (value, bar) = self.score(x);
        value >= bar
    }

    /// Whether the value at `x` clears the bar by a relative [`MARGIN`]
    /// upwards (`above`) or downwards: far enough that no libm error
    /// at `x` or beyond it could flip the test.
    fn clears(self, x: f64, above: bool) -> bool {
        let (value, bar) = self.score(x);
        let slack = MARGIN * bar.abs().max(f64::MIN_POSITIVE);
        if above {
            value >= bar + slack
        } else {
            value <= bar - slack
        }
    }

    /// The `(stay_below, exit_from)` pair of [`ExitRule::Cut`]. The
    /// exit test is monotone in `x`, so it bisects the f64 order for
    /// the test's transition, then widens a window around it until the
    /// test clears its bar at both ends.
    fn cut(self) -> (f64, f64) {
        const NONE: (f64, f64) = (f64::NAN, f64::NAN);
        if self.clears(f64::NEG_INFINITY, true) {
            return (f64::NEG_INFINITY, f64::NEG_INFINITY); // always exits
        }
        if self.clears(f64::INFINITY, false) {
            return (f64::INFINITY, f64::NAN); // never exits
        }
        if self.holds(f64::NEG_INFINITY) || !self.holds(f64::INFINITY) {
            return NONE;
        }
        // Total-order keys of f64 (the map is its own inverse).
        let key = |b: i64| b ^ ((b >> 63) as u64 >> 1) as i64;
        let at = |k: i128| f64::from_bits(key(k as i64) as u64);
        let mut fails = i128::from(key(f64::NEG_INFINITY.to_bits() as i64));
        let mut holds = i128::from(key(f64::INFINITY.to_bits() as i64));
        while holds - fails > 1 {
            let mid = fails + (holds - fails) / 2;
            if self.holds(at(mid)) {
                holds = mid;
            } else {
                fails = mid;
            }
        }
        let x_cut = at(holds);
        let mut pad = MARGIN * x_cut.abs().max(1.0);
        for _ in 0..64 {
            let (below, above) = (x_cut - pad, x_cut + pad);
            if self.clears(below, false) && self.clears(above, true) {
                return (below, above);
            }
            pad *= 2.0;
        }
        NONE
    }
}

impl ExitSampler {
    /// Builds the sampler: the evaluated ramps, the exit rule and the
    /// noise bounds.
    ///
    /// # Panics
    ///
    /// Panics if `ctrl` does not control exactly the model's ramps.
    pub fn new(
        sim: &InferenceSim,
        model: &EeModel,
        policy: &ExitPolicy,
        ctrl: &RampController,
    ) -> Self {
        assert_eq!(
            ctrl.num_ramps(),
            model.num_ramps(),
            "ramp controller does not match model"
        );
        // Generation models simulate a single token pass: the exit depth
        // is measured within the decoder, where all ramps live.
        let prefix = match model.task() {
            Task::Generation { .. } => model.autoreg().map_or(0, |a| a.encoder_layers),
            Task::Classification { .. } => 0,
        };
        let ramps = model
            .ramps()
            .iter()
            .enumerate()
            .filter(|&(i, _)| ctrl.pays_cost_at(i) || ctrl.can_exit_at(i))
            .map(|(i, r)| SampledRamp {
                index: i,
                depth: (r.after_layer + 1).saturating_sub(prefix) as f64,
                layers_executed: r.after_layer + 1,
                can_exit: ctrl.can_exit_at(i),
            })
            .collect();
        let test = match *policy {
            ExitPolicy::Entropy { threshold } => Some(ThresholdTest::Entropy { threshold }),
            ExitPolicy::Confidence { threshold } => Some(ThresholdTest::Confidence {
                threshold,
                inv_c: 1.0 / model.num_classes() as f64,
            }),
            ExitPolicy::Learned { threshold } => Some(ThresholdTest::Learned { threshold }),
            ExitPolicy::Patience { .. } | ExitPolicy::Voting { .. } => None,
        };
        let rule = test.map_or(ExitRule::Classes, |test| {
            let (stay_below, exit_from) = test.cut();
            ExitRule::Cut {
                test,
                stay_below,
                exit_from,
            }
        });
        // u1 in binade k gives (k - 1) ln 2 < -ln(u1) <= k ln 2.
        let sd = sim.ramp_noise_sd;
        let r = |k: usize| (2.0 * k as f64 * std::f64::consts::LN_2).sqrt() * sd;
        let radius = std::array::from_fn(|k| Radius {
            lo: r(k.saturating_sub(1)),
            hi: r(k),
            pad: MARGIN * r(k),
        });
        ExitSampler {
            sim: *sim,
            policy: *policy,
            ramps,
            rule,
            radius,
            filtered: sim.steepness.is_finite() && sd.is_finite() && sd >= 0.0,
            wrong_classes: model.num_classes().max(2) - 1,
            depth_span: model.num_layers() - prefix,
            num_layers: model.num_layers(),
            tables: tables(),
            #[cfg(test)]
            tally: std::cell::Cell::new((0, 0)),
        }
    }

    /// Runs one sample of the given `hardness` through the model.
    ///
    /// Per evaluated ramp it draws `u1` and `u2` (the margin noise), `u`
    /// (stable class or not) and, when not stable, the wrong class; on
    /// exit or completion, one draw for correctness.
    pub fn sample(&self, hardness: f64, rng: &mut StdRng) -> InferenceOutcome {
        let d_star = self.sim.d_star(hardness, self.depth_span);
        // A NaN d* makes every margin NaN, which no bound brackets.
        let filtered = self.filtered && !d_star.is_nan();
        let mut state = SampleExitState::new();
        for ramp in &self.ramps {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let u: f64 = rng.gen();
            let mut margin = Margin {
                sampler: self,
                filtered,
                base: self.sim.steepness * (ramp.depth - d_star),
                u1,
                u2,
                refined: None,
                exact: None,
            };
            #[cfg(test)]
            self.tally.set((self.tally.get().0 + 1, self.tally.get().1));

            // p_stable >= 0.5, so u < 0.5 is stable outright.
            let stable = (filtered && u < 0.5)
                || margin.decide(
                    |lo, hi| {
                        if u < self.stable_floor(lo) {
                            Some(true)
                        } else if u >= self.stable_ceil(hi) {
                            Some(false)
                        } else {
                            None
                        }
                    },
                    |x| u < p_stable(x),
                );
            let class = if stable {
                0
            } else if self.wrong_classes == 1 {
                rng.next_u64(); // the one wrong class; the draw still happens
                1
            } else {
                1 + rng.gen_range(0..self.wrong_classes)
            };
            let exits = match self.rule {
                ExitRule::Cut {
                    test,
                    stay_below,
                    exit_from,
                } => {
                    ramp.can_exit
                        && margin.decide(
                            |lo, hi| {
                                if lo >= exit_from {
                                    Some(true)
                                } else if hi < stay_below {
                                    Some(false)
                                } else {
                                    None
                                }
                            },
                            |x| test.holds(x),
                        )
                }
                ExitRule::Classes => state.observe_class(&self.policy, class) && ramp.can_exit,
            };
            if exits {
                return InferenceOutcome {
                    layers_executed: ramp.layers_executed,
                    exited_at_ramp: Some(ramp.index),
                    correct: self
                        .sim
                        .draw_correct(ramp.depth, d_star, self.depth_span, true, rng),
                };
            }
        }
        InferenceOutcome {
            layers_executed: self.num_layers,
            exited_at_ramp: None,
            correct: self.sim.draw_correct(
                self.depth_span as f64,
                d_star,
                self.depth_span,
                false,
                rng,
            ),
        }
    }

    /// A value no greater than `p_stable` at any computed `x >= lo`: the
    /// grid point one cell below `lo`'s, less the margin; `0.5` (which
    /// `p_stable` never falls below) left of the grid.
    fn stable_floor(&self, lo: f64) -> f64 {
        let t = (lo - GRID_MIN) * GRID_STEPS;
        if t >= 1.0 {
            self.tables.stable[(t as usize - 1).min(GRID_POINTS - 1)] - MARGIN
        } else {
            0.5
        }
    }

    /// A value no smaller than `p_stable` at any computed `x <= hi`: the
    /// grid point one cell above `hi`'s, plus the margin; `1.0` (which
    /// `p_stable` never exceeds) right of the grid.
    fn stable_ceil(&self, hi: f64) -> f64 {
        let t = (hi - GRID_MIN) * GRID_STEPS;
        if t < (GRID_POINTS - 2) as f64 {
            self.tables.stable[t.max(0.0) as usize + 2] + MARGIN
        } else {
            1.0
        }
    }
}

/// What a sampler knows of one ramp's margin `x = base + noise`: bounds
/// of increasing cost, then `x` itself, each computed at most once.
struct Margin<'a> {
    sampler: &'a ExitSampler,
    /// Whether the bounds apply (see [`ExitSampler::sample`]).
    filtered: bool,
    base: f64,
    u1: f64,
    u2: f64,
    refined: Option<(f64, f64)>,
    exact: Option<f64>,
}

impl Margin<'_> {
    /// A decision monotone in `x`: `settle` answers from bounds
    /// `[lo, hi]` on the computed `x` when it can, `exact` from `x`.
    fn decide(
        &mut self,
        settle: impl Fn(f64, f64) -> Option<bool>,
        exact: impl Fn(f64) -> bool,
    ) -> bool {
        if !self.filtered {
            return exact(self.x());
        }
        // noise = r c sd with r = sqrt(-2 ln u1) >= 0 bounded by the
        // binade of u1 and c = cos(2π u2) by the cell of u2. Rounding is
        // monotone, so the computed x lies in each [lo, hi].
        let r = self.sampler.radius[binade(self.u1)];
        let coarse = r.hi + r.pad;
        if let Some(decided) = settle(self.base - coarse, self.base + coarse) {
            return decided;
        }
        let (lo, hi) = *self.refined.get_or_insert_with(|| {
            let (c_lo, c_hi) = self.sampler.tables.cos[(self.u2 * COS_CELLS as f64) as usize];
            (
                self.base + ((r.lo * c_lo).min(r.hi * c_lo) - r.pad),
                self.base + ((r.lo * c_hi).max(r.hi * c_hi) + r.pad),
            )
        });
        if let Some(decided) = settle(lo, hi) {
            return decided;
        }
        exact(self.x())
    }

    /// The margin exactly as the full computation rounds it.
    fn x(&mut self) -> f64 {
        let (base, u1, u2, sd) = (self.base, self.u1, self.u2, self.sampler.sim.ramp_noise_sd);
        *self.exact.get_or_insert_with(|| {
            #[cfg(test)]
            {
                let (ramps, exact) = self.sampler.tally.get();
                self.sampler.tally.set((ramps, exact + 1));
            }
            base + box_muller(u1, u2) * sd
        })
    }
}

/// The binade `k` of `u` in `(0, 1]`: `u` in `[2^-k, 2^(1-k))`.
fn binade(u: f64) -> usize {
    1023usize
        .saturating_sub((u.to_bits() >> 52) as usize)
        .min(BINADES - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LayerSpec, RampSpec};
    use crate::policy::RampObservation;
    use crate::wrapper::RampStyle;
    use crate::zoo;
    use e3_simcore::rng::normal_sample;
    use rand::SeedableRng;

    /// The full per-ramp computation [`ExitSampler`] must reproduce:
    /// every observation field from every draw, and the paid ramps
    /// collected as it goes.
    impl InferenceSim {
        fn observe(
            &self,
            depth: f64,
            d_star: f64,
            num_classes: usize,
            rng: &mut StdRng,
        ) -> RampObservation {
            let noise = normal_sample(rng) * self.ramp_noise_sd;
            let x = self.steepness * (depth - d_star) + noise;
            let s = sigmoid(x);
            let inv_c = 1.0 / num_classes as f64;
            let p_stable = 0.5 + 0.5 * s;
            let predicted_class = if rng.gen::<f64>() < p_stable {
                0
            } else {
                // A random wrong class; for C == 2 this is class 1.
                1 + rng.gen_range(0..num_classes.max(2) - 1)
            };
            RampObservation {
                entropy: sigmoid(-x),
                confidence: inv_c + (1.0 - inv_c) * s,
                predicted_class,
                gate_score: s,
            }
        }

        fn run_sample(
            &self,
            model: &EeModel,
            policy: &ExitPolicy,
            ctrl: &RampController,
            hardness: f64,
            rng: &mut StdRng,
        ) -> (InferenceOutcome, Vec<usize>) {
            assert_eq!(
                ctrl.num_ramps(),
                model.num_ramps(),
                "ramp controller does not match model"
            );
            let prefix = match model.task() {
                Task::Generation { .. } => model.autoreg().map_or(0, |a| a.encoder_layers),
                Task::Classification { .. } => 0,
            };
            let depth_span = model.num_layers() - prefix;
            let d_star = self.d_star(hardness, depth_span);
            let mut state = SampleExitState::new();
            let mut ramps_paid = Vec::new();

            for (i, ramp) in model.ramps().iter().enumerate() {
                if !ctrl.pays_cost_at(i) && !ctrl.can_exit_at(i) {
                    continue; // independent + disabled: fully skipped
                }
                if ctrl.pays_cost_at(i) {
                    ramps_paid.push(i);
                }
                let depth = (ramp.after_layer + 1).saturating_sub(prefix) as f64;
                let obs = self.observe(depth, d_star, model.num_classes(), rng);
                let wants_exit = if ctrl.advances_state_at(i) || ctrl.can_exit_at(i) {
                    state.observe(policy, &obs)
                } else {
                    false
                };
                if wants_exit && ctrl.can_exit_at(i) {
                    let exit_depth = depth;
                    let correct = self.draw_correct(exit_depth, d_star, depth_span, true, rng);
                    let out = InferenceOutcome {
                        layers_executed: ramp.after_layer + 1,
                        exited_at_ramp: Some(i),
                        correct,
                    };
                    return (out, ramps_paid);
                }
            }
            let correct = self.draw_correct(depth_span as f64, d_star, depth_span, false, rng);
            let out = InferenceOutcome {
                layers_executed: model.num_layers(),
                exited_at_ramp: None,
                correct,
            };
            (out, ramps_paid)
        }
    }

    fn sample(
        sim: &InferenceSim,
        m: &EeModel,
        pol: &ExitPolicy,
        ctrl: &RampController,
        h: f64,
        rng: &mut StdRng,
    ) -> InferenceOutcome {
        ExitSampler::new(sim, m, pol, ctrl).sample(h, rng)
    }

    fn bert_like(layers: usize) -> EeModel {
        let layer = LayerSpec {
            work_us: 767.0,
            fixed_us: 98.0,
            output_bytes: 393_216,
        };
        let ramps = (0..layers - 1)
            .map(|l| RampSpec {
                after_layer: l,
                work_us: 100.0,
                fixed_us: 10.0,
            })
            .collect();
        EeModel::new(
            "test-bert",
            vec![layer; layers],
            ramps,
            Task::Classification { num_classes: 2 },
            None,
        )
        .unwrap()
    }

    fn all_on(m: &EeModel) -> RampController {
        RampController::all_enabled(m.num_ramps(), RampStyle::Independent)
    }

    /// An easy-skewed hardness population (roughly the paper's 80E/20H).
    fn easy_mix(n: usize, rng: &mut StdRng) -> Vec<f64> {
        (0..n)
            .map(|_| {
                if rng.gen::<f64>() < 0.8 {
                    e3_simcore::rng::beta_sample(rng, 2.0, 4.0) // easy
                } else {
                    0.7 + 0.3 * rng.gen::<f64>() // hard
                }
            })
            .collect()
    }

    #[test]
    fn hard_samples_exit_later_than_easy() {
        let m = bert_like(12);
        let sim = InferenceSim::new();
        let pol = ExitPolicy::Entropy { threshold: 0.4 };
        let ctrl = all_on(&m);
        let sampler = ExitSampler::new(&sim, &m, &pol, &ctrl);
        let mut rng = StdRng::seed_from_u64(1);
        let mut depth = |h: f64| -> f64 {
            let n = 500;
            (0..n)
                .map(|_| sampler.sample(h, &mut rng).layers_executed as f64)
                .sum::<f64>()
                / n as f64
        };
        let easy = depth(0.2);
        let hard = depth(0.9);
        assert!(easy < hard, "easy={easy} hard={hard}");
        assert!(easy < 5.0, "easy samples should exit early: {easy}");
        assert!(hard > 9.0, "hard samples should go deep: {hard}");
    }

    #[test]
    fn entropy_threshold_sweep_shifts_exits() {
        // fig. 23: higher entropy tolerance -> earlier exits.
        let m = bert_like(12);
        let sim = InferenceSim::new();
        let ctrl = all_on(&m);
        let mut rng = StdRng::seed_from_u64(2);
        let hs = easy_mix(2000, &mut rng);
        let mean_depth = |t: f64| {
            let pol = ExitPolicy::Entropy { threshold: t };
            let mut r = StdRng::seed_from_u64(3);
            sim.accuracy_and_depth(&m, &pol, &ctrl, &hs, &mut r).1
        };
        let d03 = mean_depth(0.3);
        let d04 = mean_depth(0.4);
        let d05 = mean_depth(0.5);
        assert!(d05 < d04 && d04 < d03, "depths: {d03} {d04} {d05}");
    }

    #[test]
    fn calibration_matches_fig2_anchors() {
        // Entropy 0.4 on an easy-skewed mix: ~40-60% mean depth, <2%
        // accuracy loss versus running the full model.
        let m = bert_like(12);
        let sim = InferenceSim::with_accuracy(0.924);
        let ctrl = all_on(&m);
        let pol = ExitPolicy::Entropy { threshold: 0.4 };
        let mut rng = StdRng::seed_from_u64(4);
        let hs = easy_mix(5000, &mut rng);
        let (acc, depth) = sim.accuracy_and_depth(&m, &pol, &ctrl, &hs, &mut rng);
        assert!((0.40..0.65).contains(&depth), "depth={depth}");
        assert!(acc > 0.924 - 0.02, "acc={acc}");
        // Stock model for comparison: full depth, full accuracy.
        let stock = m.without_exits();
        let ctrl0 = RampController::all_enabled(0, RampStyle::Independent);
        let (acc0, depth0) = sim.accuracy_and_depth(&stock, &pol, &ctrl0, &hs, &mut rng);
        assert_eq!(depth0, 1.0);
        assert!(acc0 > acc, "stock must be at least as accurate");
    }

    #[test]
    fn disabled_ramps_are_not_paid_and_defer_exits() {
        let m = bert_like(12);
        let sim = InferenceSim::new();
        let pol = ExitPolicy::Entropy { threshold: 0.4 };
        let mut ctrl = all_on(&m);
        ctrl.keep_only(&[5, 10]); // boundary ramps only
        let sampler = ExitSampler::new(&sim, &m, &pol, &ctrl);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let out = sampler.sample(0.1, &mut rng);
            assert!(ctrl
                .paid_through(out.exited_at_ramp)
                .all(|r| [5, 10].contains(&r)));
            if let Some(r) = out.exited_at_ramp {
                assert!([5, 10].contains(&r));
            }
        }
    }

    #[test]
    fn patience_policy_needs_consecutive_ramps() {
        let m = bert_like(12);
        let sim = InferenceSim::new();
        let pol = ExitPolicy::Patience { patience: 6 };
        let ctrl = RampController::all_enabled(m.num_ramps(), RampStyle::Dependent);
        let sampler = ExitSampler::new(&sim, &m, &pol, &ctrl);
        let mut rng = StdRng::seed_from_u64(6);
        // Even the easiest sample cannot exit before `patience` ramps.
        for _ in 0..100 {
            let out = sampler.sample(0.0, &mut rng);
            assert!(out.layers_executed >= 6);
        }
    }

    #[test]
    fn exit_profile_monotone_and_matches_depths() {
        let m = bert_like(12);
        let sim = InferenceSim::new();
        let pol = ExitPolicy::Entropy { threshold: 0.4 };
        let ctrl = all_on(&m);
        let mut rng = StdRng::seed_from_u64(7);
        let hs = easy_mix(3000, &mut rng);
        let prof = sim.exit_profile(&m, &pol, &ctrl, &hs, &mut rng);
        assert_eq!(prof.num_layers(), 12);
        // Roughly half the batch should be gone by mid-model (fig. 3).
        let mid = prof.survival_at(6);
        assert!((0.2..0.7).contains(&mid), "mid-model survival={mid}");
    }

    #[test]
    fn stock_model_never_exits() {
        let m = bert_like(12).without_exits();
        let sim = InferenceSim::new();
        let pol = ExitPolicy::Entropy { threshold: 0.4 };
        let ctrl = RampController::all_enabled(0, RampStyle::Independent);
        let mut rng = StdRng::seed_from_u64(8);
        let out = sample(&sim, &m, &pol, &ctrl, 0.0, &mut rng);
        assert_eq!(out.layers_executed, 12);
        assert_eq!(out.exited_at_ramp, None);
        assert!(ctrl.paid_through(out.exited_at_ramp).next().is_none());
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let m = bert_like(12);
        let sim = InferenceSim::new();
        let pol = ExitPolicy::Entropy { threshold: 0.4 };
        let ctrl = all_on(&m);
        let a = sample(&sim, &m, &pol, &ctrl, 0.5, &mut StdRng::seed_from_u64(9));
        let b = sample(&sim, &m, &pol, &ctrl, 0.5, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "ramp controller does not match model")]
    fn sampler_rejects_a_controller_for_another_model() {
        let m = bert_like(12);
        let ctrl = RampController::all_enabled(3, RampStyle::Independent);
        ExitSampler::new(
            &InferenceSim::new(),
            &m,
            &ExitPolicy::Voting { quorum: 2 },
            &ctrl,
        );
    }

    fn random_policy(family: usize, rng: &mut StdRng) -> ExitPolicy {
        match family {
            0 => ExitPolicy::Entropy {
                threshold: rng.gen_range(0.02..0.98),
            },
            1 => ExitPolicy::Confidence {
                threshold: rng.gen_range(0.02..0.999),
            },
            2 => ExitPolicy::Learned {
                threshold: rng.gen_range(0.02..0.98),
            },
            3 => ExitPolicy::Patience {
                patience: rng.gen_range(1..7),
            },
            _ => ExitPolicy::Voting {
                quorum: rng.gen_range(1..7),
            },
        }
    }

    /// A hardness whose margin `base` at one of the sampler's ramps lies
    /// within 1e-6 of where the policy's decision turns: the exit cut for
    /// threshold policies, `x = 0` (steepest `p_stable`) otherwise. Such
    /// samples exercise the exact fallback.
    fn adversarial_hardness(sampler: &ExitSampler, rng: &mut StdRng) -> f64 {
        let target = match sampler.rule {
            ExitRule::Cut {
                stay_below,
                exit_from,
                ..
            } if stay_below.is_finite() && exit_from.is_finite() => 0.5 * (stay_below + exit_from),
            _ => 0.0,
        };
        let Some(ramp) = sampler
            .ramps
            .get(rng.gen_range(0..sampler.ramps.len().max(1)))
        else {
            return rng.gen();
        };
        let base = target + rng.gen_range(-1e-6..1e-6);
        (ramp.depth - base / sampler.sim.steepness) / sampler.depth_span as f64
    }

    #[test]
    fn sampler_matches_reference_draw_for_draw() {
        let models = [
            zoo::deebert(),
            zoo::calm_t5(),
            zoo::pabee(),
            zoo::branchy_resnet50(),
            zoo::elbert(),
            zoo::llama31_8b_ee(),
            bert_like(12).without_exits(),
        ];
        let mut meta = StdRng::seed_from_u64(0xE3);
        let (cases, per_case) = (500, 2000);
        let mut filtered = (0, 0);
        for case in 0..cases {
            let model = &models[case % models.len()];
            let policy = random_policy(case / models.len() % 5, &mut meta);
            let style = if meta.gen_bool(0.5) {
                RampStyle::Independent
            } else {
                RampStyle::Dependent
            };
            let mask = (0..model.num_ramps()).map(|_| meta.gen_bool(0.7)).collect();
            let ctrl = RampController::with_mask(mask, style);
            let sim = match case % 8 {
                0 | 1 => InferenceSim {
                    steepness: meta.gen_range(0.2..2.0),
                    ramp_noise_sd: meta.gen_range(0.0..1.0),
                    ..InferenceSim::with_accuracy(0.9)
                },
                2 => InferenceSim {
                    ramp_noise_sd: 0.0,
                    ..InferenceSim::new()
                },
                _ => InferenceSim::new(),
            };
            let sampler = ExitSampler::new(&sim, model, &policy, &ctrl);
            let mut a = StdRng::seed_from_u64(meta.gen());
            let mut b = a.clone();
            for i in 0..per_case {
                let h = match i % 4 {
                    _ if i == 7 => f64::NAN,
                    3 => adversarial_hardness(&sampler, &mut meta),
                    _ => meta.gen_range(-0.1..1.1),
                };
                let got = sampler.sample(h, &mut a);
                let (want, paid) = sim.run_sample(model, &policy, &ctrl, h, &mut b);
                assert_eq!(
                    got,
                    want,
                    "case {case}: {} {policy:?} {ctrl:?} h={h}",
                    model.name()
                );
                assert_eq!(a.clone().next_u64(), b.clone().next_u64(), "case {case}");
                assert!(ctrl.paid_through(got.exited_at_ramp).eq(paid));
            }
            let (ramps, exact) = sampler.tally.get();
            filtered = (filtered.0 + ramps, filtered.1 + exact);
        }
        assert!(cases * per_case >= 1_000_000);
        // Both the filters and the fallback ran.
        assert!(0 < filtered.1 && filtered.1 < filtered.0, "{filtered:?}");
    }

    #[test]
    fn filter_settles_most_deebert_ramps() {
        let model = zoo::deebert();
        let policy = zoo::default_policy(model.name());
        let ctrl = RampController::all_enabled(model.num_ramps(), policy.ramp_style());
        let ds = e3_workload::DatasetModel::with_mix(0.8);
        let sim = InferenceSim::with_accuracy(ds.base_accuracy);
        let sampler = ExitSampler::new(&sim, &model, &policy, &ctrl);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50_000 {
            let h = ds.sample_hardness(&mut rng);
            sampler.sample(h, &mut rng);
        }
        let (ramps, exact) = sampler.tally.get();
        let share = exact as f64 / ramps as f64;
        assert!(share < 0.15, "{exact} of {ramps} ramps computed x");
    }
}
