//! Online (run-time) auto-tuning — YASK's built-in tuner, reproduced.
//!
//! YASK can tune block sizes *while the application runs*: early time
//! steps are measured with varying blocks, a hill-climbing search walks
//! the block lattice, and the best block found is used for the remaining
//! steps. This is the empirical counterpart the paper's analytic approach
//! competes against; having both allows the cost/quality comparison of
//! experiment E9 to be extended to the online setting.
//!
//! The tuner accepts either raw step times ([`OnlineTuner::record`]) or
//! whole robust trials ([`OnlineTuner::record_trial`]); in the latter
//! case the [`Provenance`] of every lattice point is retained, so a
//! winner that rests on an analytic fallback instead of a measurement is
//! visible to the caller. No method panics: protocol violations and
//! invalid input come back as [`ToolError`].
//!
//! # Drift feedback
//!
//! When trials arrive with their analytic prediction
//! ([`OnlineTuner::record_trial_with_prediction`]), the tuner closes the
//! loop on its own model error: the per-sample drifts of each lattice
//! point are aggregated into a [`DriftStats`] and a multiplicative
//! correction coefficient (the median observed measured/predicted
//! throughput ratio) is fitted per key. A key whose p95 absolute drift
//! crosses [`yasksite_ecm::DRIFT_SUSPECT_THRESHOLD`] is *model suspect*:
//! the driven climb emits a `model_suspect` event, applies the fitted
//! correction to the analytic model and re-ranks the open candidate
//! queue under the corrected predictions. Feedback is purely a steering
//! signal — with a clean backend (drift below threshold) the climb is
//! bitwise-identical to one with feedback disabled.

use yasksite_ecm::DriftStats;
use yasksite_engine::TuningParams;

use crate::cache::PredictionCache;
use crate::drift::correction_coeff;
use crate::solution::{Solution, ToolError};
use crate::space::SearchSpace;
use crate::trial::{
    run_trial_observed, MeasureBackend, Provenance, TrialBudget, TrialConfig, TrialResult,
    TrialSummary,
};
use yasksite_telemetry::{Level, Telemetry};

/// Hill-climbing online tuner over the `(block_y, block_z)` lattice of a
/// [`SearchSpace`].
///
/// Protocol: repeatedly call [`OnlineTuner::suggest`] for the parameters
/// to use for the next measured step(s), then [`OnlineTuner::record`] (or
/// [`OnlineTuner::record_trial`]) with the observation. When
/// [`OnlineTuner::converged`] turns true, [`OnlineTuner::best`] is the
/// tuned configuration.
#[derive(Debug, Clone)]
pub struct OnlineTuner {
    /// Distinct y-extents, ascending.
    ys: Vec<usize>,
    /// Distinct z-extents, ascending.
    zs: Vec<usize>,
    /// Measurement per lattice point (`ys.len() * zs.len()`), seconds.
    measured: Vec<Option<f64>>,
    /// Provenance per lattice point, parallel to `measured`.
    prov: Vec<Option<Provenance>>,
    template: TuningParams,
    /// Current best lattice point.
    best: (usize, usize),
    /// Points queued for measurement.
    queue: Vec<(usize, usize)>,
    trials: usize,
    /// Aggregate statistics over recorded trials.
    summary: TrialSummary,
    /// Fitted model correction per lattice point, parallel to `measured`.
    corrections: Vec<Option<KeyCorrection>>,
    /// Whether drift feedback fits corrections at all (on by default;
    /// the property suite uses the disabled tuner as its baseline).
    feedback_enabled: bool,
    /// Keys that crossed the SUSPECT threshold.
    model_suspects: usize,
    /// Times the open candidate queue was re-ranked under a corrected
    /// model.
    reranks: usize,
}

/// The model-correction state the drift feedback loop fitted for one
/// lattice key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyCorrection {
    /// Block y-extent of the key.
    pub block_y: usize,
    /// Block z-extent of the key.
    pub block_z: usize,
    /// Drift percentiles over the key's trial samples.
    pub stats: DriftStats,
    /// Multiplicative correction on predicted throughput: the median
    /// measured/predicted MLUP/s ratio. Corrected prediction =
    /// `predicted_mlups * coeff` (equivalently `predicted_seconds /
    /// coeff`). Always positive.
    pub coeff: f64,
    /// Whether the key's p95 absolute drift crossed
    /// [`yasksite_ecm::DRIFT_SUSPECT_THRESHOLD`].
    pub suspect: bool,
}

impl OnlineTuner {
    /// Builds the tuner from a search space (its block list defines the
    /// lattice) and a parameter template providing fold/threads/etc.
    ///
    /// # Errors
    /// [`ToolError::InvalidInput`] if the space has no blocks.
    pub fn new(space: &SearchSpace, template: TuningParams) -> Result<Self, ToolError> {
        let mut ys: Vec<usize> = space.blocks().iter().map(|b| b[1]).collect();
        let mut zs: Vec<usize> = space.blocks().iter().map(|b| b[2]).collect();
        ys.sort_unstable();
        ys.dedup();
        zs.sort_unstable();
        zs.dedup();
        if ys.is_empty() || zs.is_empty() {
            return Err(ToolError::InvalidInput("empty block lattice".into()));
        }
        // Start in the middle of the lattice.
        let start = (ys.len() / 2, zs.len() / 2);
        let mut t = OnlineTuner {
            measured: vec![None; ys.len() * zs.len()],
            prov: vec![None; ys.len() * zs.len()],
            corrections: vec![None; ys.len() * zs.len()],
            ys,
            zs,
            template,
            best: start,
            queue: Vec::new(),
            trials: 0,
            summary: TrialSummary::default(),
            feedback_enabled: true,
            model_suspects: 0,
            reranks: 0,
        };
        t.queue.push(start);
        Ok(t)
    }

    fn idx(&self, p: (usize, usize)) -> usize {
        p.0 * self.zs.len() + p.1
    }

    fn params_at(&self, p: (usize, usize)) -> TuningParams {
        let mut out = self.template.clone();
        out.block = [self.template.block[0], self.ys[p.0], self.zs[p.1]];
        out
    }

    fn neighbours(&self, p: (usize, usize)) -> Vec<(usize, usize)> {
        let mut n = Vec::new();
        if p.0 > 0 {
            n.push((p.0 - 1, p.1));
        }
        if p.0 + 1 < self.ys.len() {
            n.push((p.0 + 1, p.1));
        }
        if p.1 > 0 {
            n.push((p.0, p.1 - 1));
        }
        if p.1 + 1 < self.zs.len() {
            n.push((p.0, p.1 + 1));
        }
        n
    }

    fn refill_queue(&mut self) {
        let best = self.best;
        self.queue = self
            .neighbours(best)
            .into_iter()
            .filter(|&p| self.measured[self.idx(p)].is_none())
            .collect();
    }

    /// The next configuration to run, or `None` once converged.
    #[must_use]
    pub fn suggest(&mut self) -> Option<TuningParams> {
        if let Some(&p) = self.queue.last() {
            return Some(self.params_at(p));
        }
        self.refill_queue();
        self.queue.last().map(|&p| self.params_at(p))
    }

    fn record_inner(&mut self, seconds: f64, prov: Provenance) -> Result<(), ToolError> {
        if !seconds.is_finite() || seconds <= 0.0 {
            return Err(ToolError::Measurement(format!(
                "non-finite or non-positive step time {seconds}"
            )));
        }
        let Some(p) = self.queue.pop() else {
            return Err(ToolError::Protocol(
                "record without a pending suggestion".into(),
            ));
        };
        let i = self.idx(p);
        self.measured[i] = Some(seconds);
        self.prov[i] = Some(prov);
        self.trials += 1;
        let best_t = self.measured[self.idx(self.best)].unwrap_or(f64::INFINITY);
        if seconds < best_t {
            self.best = p;
            self.queue.clear(); // restart the neighbourhood around the new best
        }
        Ok(())
    }

    /// Records the measured step time of the most recently suggested
    /// configuration.
    ///
    /// # Errors
    /// [`ToolError::Protocol`] without a pending suggestion (the
    /// observation is discarded and the tuner state is unchanged);
    /// [`ToolError::Measurement`] for a non-finite or non-positive time
    /// (the suggestion stays pending so the caller can re-measure).
    pub fn record(&mut self, seconds: f64) -> Result<(), ToolError> {
        self.record_inner(seconds, Provenance::Measured)
    }

    /// Records a whole robust trial for the most recently suggested
    /// configuration, retaining its provenance and statistics.
    ///
    /// # Errors
    /// As [`OnlineTuner::record`]; a fallback trial with a non-finite
    /// prediction is rejected as a measurement error.
    pub fn record_trial(&mut self, trial: &TrialResult) -> Result<(), ToolError> {
        self.record_inner(trial.seconds_per_sweep, trial.provenance)?;
        self.summary.absorb(trial);
        Ok(())
    }

    /// Disables (or re-enables) the drift feedback loop. With feedback
    /// off the tuner never fits corrections, never flags keys suspect
    /// and never re-ranks — the pre-feedback behaviour, used as the
    /// baseline of the determinism property suite.
    #[must_use]
    pub fn feedback(mut self, on: bool) -> Self {
        self.feedback_enabled = on;
        self
    }

    /// Records a robust trial *with* the analytic prediction it was
    /// checked against, fitting the key's drift-correction state.
    /// Returns the fitted correction when the key **newly** crossed the
    /// SUSPECT threshold — the caller's cue to apply the correction and
    /// re-rank (the driven climb does both automatically).
    ///
    /// Fallback trials carry no measurement and fit nothing; neither do
    /// trials recorded while feedback is disabled. Below-threshold keys
    /// still retain their (non-suspect) correction state for
    /// observability, but the climb never acts on it.
    ///
    /// # Errors
    /// As [`OnlineTuner::record_trial`].
    pub fn record_trial_with_prediction(
        &mut self,
        trial: &TrialResult,
        predicted_seconds: f64,
    ) -> Result<Option<KeyCorrection>, ToolError> {
        let pending = self.queue.last().copied();
        self.record_trial(trial)?;
        if !self.feedback_enabled
            || trial.provenance.is_fallback()
            || trial.samples.is_empty()
            || !(predicted_seconds.is_finite() && predicted_seconds > 0.0)
        {
            return Ok(None);
        }
        let p = pending.expect("record_trial succeeded, so a suggestion was pending");
        // Signed drift per sample, in throughput space: MLUP/s is
        // inversely proportional to seconds, so measured/predicted
        // throughput = predicted_seconds / sample_seconds.
        let drifts: Vec<f64> = trial
            .samples
            .iter()
            .filter(|s| s.is_finite() && **s > 0.0)
            .map(|s| predicted_seconds / s - 1.0)
            .collect();
        let Some(stats) = DriftStats::from_drifts(&drifts) else {
            return Ok(None);
        };
        let correction = KeyCorrection {
            block_y: self.ys[p.0],
            block_z: self.zs[p.1],
            stats,
            coeff: correction_coeff(drifts),
            suspect: stats.suspect,
        };
        let i = self.idx(p);
        let was_suspect = self.corrections[i].is_some_and(|c| c.suspect);
        self.corrections[i] = Some(correction);
        let newly_suspect = stats.suspect && !was_suspect;
        if newly_suspect {
            self.model_suspects += 1;
        }
        Ok(newly_suspect.then_some(correction))
    }

    /// Re-ranks the open candidate queue by `score` (higher is better):
    /// the best-scoring point moves to the pop end so it is measured
    /// next. Ties break on lattice order, keeping the re-rank
    /// deterministic. An empty queue is refilled from the current best's
    /// neighbourhood first, so a re-rank right after an improvement
    /// still has candidates to order.
    pub fn rerank_open_candidates<F: FnMut(&TuningParams) -> f64>(&mut self, mut score: F) {
        if self.queue.is_empty() {
            self.refill_queue();
        }
        if self.queue.len() > 1 {
            let mut scored: Vec<((usize, usize), f64)> = self
                .queue
                .iter()
                .map(|&p| (p, score(&self.params_at(p))))
                .collect();
            scored.sort_by(|a, b| {
                a.1.total_cmp(&b.1)
                    .then_with(|| (self.idx(a.0)).cmp(&self.idx(b.0)))
            });
            self.queue = scored.into_iter().map(|(p, _)| p).collect();
        }
        self.reranks += 1;
    }

    /// The fitted correction state of every key that has one, in
    /// lattice order.
    #[must_use]
    pub fn corrections(&self) -> Vec<KeyCorrection> {
        self.corrections.iter().filter_map(|c| *c).collect()
    }

    /// Keys whose drift crossed the SUSPECT threshold.
    #[must_use]
    pub fn model_suspects(&self) -> usize {
        self.model_suspects
    }

    /// Times the open candidate queue was re-ranked under a corrected
    /// model.
    #[must_use]
    pub fn reranks(&self) -> usize {
        self.reranks
    }

    /// Whether the hill climb has no unmeasured improving direction left.
    #[must_use]
    pub fn converged(&mut self) -> bool {
        if !self.queue.is_empty() {
            return false;
        }
        self.refill_queue();
        self.queue.is_empty()
    }

    /// The best configuration found so far.
    #[must_use]
    pub fn best(&self) -> TuningParams {
        self.params_at(self.best)
    }

    /// Provenance of the current best point (`None` until it has been
    /// recorded, which only holds before the first record).
    #[must_use]
    pub fn best_provenance(&self) -> Option<Provenance> {
        self.prov[self.idx(self.best)]
    }

    /// Number of measurements consumed.
    #[must_use]
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Aggregate statistics over all trials recorded via
    /// [`OnlineTuner::record_trial`].
    #[must_use]
    pub fn summary(&self) -> TrialSummary {
        self.summary
    }

    /// Size of the full lattice (what exhaustive search would measure).
    #[must_use]
    pub fn lattice_size(&self) -> usize {
        self.ys.len() * self.zs.len()
    }

    /// Drives the tuner to convergence against `backend`, measuring every
    /// suggestion as a robust trial with `sol`'s analytic prediction as
    /// the fallback. Returns the tuned parameters.
    ///
    /// Fallback predictions are served through the process-wide
    /// [`PredictionCache::global`]; use
    /// [`OnlineTuner::run_to_convergence_cached`] to supply a private
    /// cache.
    ///
    /// This is the fault-tolerant entry point: under an all-failures
    /// backend every lattice point degrades to its ECM prediction and the
    /// climb still terminates with a valid configuration.
    ///
    /// # Errors
    /// [`ToolError::Measurement`] only if a fallback prediction itself is
    /// non-finite (a corrupt machine model).
    pub fn run_to_convergence(
        &mut self,
        sol: &Solution,
        backend: &mut dyn MeasureBackend,
        cfg: &TrialConfig,
        budget: &mut TrialBudget,
    ) -> Result<TuningParams, ToolError> {
        self.run_to_convergence_cached(sol, backend, cfg, budget, PredictionCache::global())
    }

    /// [`OnlineTuner::run_to_convergence`] with an explicit
    /// [`PredictionCache`] for the analytic fallback predictions. The
    /// climb itself is inherently sequential (each suggestion depends on
    /// the previous record), so the cache is where repeated online
    /// sessions save their model work.
    ///
    /// # Errors
    /// As [`OnlineTuner::run_to_convergence`].
    pub fn run_to_convergence_cached(
        &mut self,
        sol: &Solution,
        backend: &mut dyn MeasureBackend,
        cfg: &TrialConfig,
        budget: &mut TrialBudget,
        cache: &PredictionCache,
    ) -> Result<TuningParams, ToolError> {
        self.run_to_convergence_observed(sol, backend, cfg, budget, cache, &Telemetry::disabled())
    }

    /// [`OnlineTuner::run_to_convergence_cached`] recording the climb into
    /// `telemetry`: one `tune_session` span for the whole climb, a `trial`
    /// child per lattice point (with `predict` and `measure` grandchildren)
    /// and the same `tune.*` counters the offline tuner maintains.
    /// Telemetry is purely observational — the climb, its winner and its
    /// trial count are identical with a disabled handle.
    ///
    /// # Errors
    /// As [`OnlineTuner::run_to_convergence`].
    pub fn run_to_convergence_observed(
        &mut self,
        sol: &Solution,
        backend: &mut dyn MeasureBackend,
        cfg: &TrialConfig,
        budget: &mut TrialBudget,
        cache: &PredictionCache,
        telemetry: &Telemetry,
    ) -> Result<TuningParams, ToolError> {
        let session = telemetry.span("tune_session");
        telemetry.event(
            Level::Info,
            "session_start",
            session.id(),
            &[
                ("strategy", "online".into()),
                ("lattice", self.lattice_size().into()),
            ],
        );
        while !self.converged() {
            let p = match self.suggest() {
                Some(p) => p,
                None => break,
            };
            let cores = p.threads.max(1);
            let trial_span = session.child("trial");
            let (pred, hit) = {
                let _predict_span = trial_span.child("predict");
                cache.predict(sol, &p, cores)
            };
            if hit {
                telemetry.inc("tune.cache_hits");
            } else {
                telemetry.inc("tune.cache_misses");
            }
            let fallback = pred.seconds_per_sweep;
            let trial = run_trial_observed(
                backend,
                &p,
                fallback,
                cfg,
                budget,
                telemetry,
                Some(&trial_span),
            );
            telemetry.add("tune.engine_runs", trial.attempts as u64);
            if trial.provenance.is_fallback() {
                telemetry.inc("tune.fallbacks");
            }
            if let Some(c) = self.record_trial_with_prediction(&trial, fallback)? {
                telemetry.inc("tune.model_suspects");
                telemetry.event(
                    Level::Info,
                    "model_suspect",
                    session.id(),
                    &[
                        ("block_y", c.block_y.into()),
                        ("block_z", c.block_z.into()),
                        ("p95", c.stats.p95.into()),
                        ("coeff", c.coeff.into()),
                        ("count", c.stats.count.into()),
                    ],
                );
                // The model misdescribed this key badly enough to doubt
                // its ranking: re-order the open candidates under the
                // corrected predictions before measuring on.
                self.rerank_open_candidates(|p| {
                    let cores = p.threads.max(1);
                    let (pred, _) = cache.predict(sol, p, cores);
                    pred.mlups * c.coeff
                });
                telemetry.inc("tune.reranks");
            }
        }
        telemetry.event(
            Level::Info,
            "session_end",
            session.id(),
            &[("trials", self.trials().into())],
        );
        Ok(self.best())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::Solution;
    use crate::trial::{FaultPlan, FaultyBackend, SolutionBackend};
    use yasksite_arch::Machine;
    use yasksite_grid::Fold;
    use yasksite_stencil::builders::heat3d;

    fn drive(tuner: &mut OnlineTuner, sol: &Solution) -> usize {
        while !tuner.converged() {
            let p = tuner.suggest().expect("not converged");
            let m = sol.measure(&p).expect("simulated measurement");
            tuner.record(m.seconds_per_sweep).expect("valid record");
        }
        tuner.trials()
    }

    #[test]
    fn converges_cheaper_than_exhaustive() {
        let m = Machine::cascade_lake();
        let sol = Solution::new(heat3d(1), [64, 64, 64], m.clone());
        let space = SearchSpace::spatial_only(sol.stencil(), sol.domain(), &m);
        let template = TuningParams::new([64, 8, 8], Fold::new(8, 1, 1));
        let mut tuner = OnlineTuner::new(&space, template).unwrap();
        let trials = drive(&mut tuner, &sol);
        assert!(
            trials < tuner.lattice_size(),
            "hill climb must beat exhaustive: {trials} vs {}",
            tuner.lattice_size()
        );
        // The found block is within 15% of the exhaustive best.
        let best_measured = sol.measure(&tuner.best()).unwrap().mlups;
        let mut exhaustive_best = 0.0f64;
        for p in space.candidates(1) {
            exhaustive_best = exhaustive_best.max(sol.measure(&p).unwrap().mlups);
        }
        assert!(
            best_measured >= 0.85 * exhaustive_best,
            "online pick {best_measured:.0} vs exhaustive {exhaustive_best:.0}"
        );
    }

    #[test]
    fn suggestion_record_protocol() {
        let m = Machine::cascade_lake();
        let space = SearchSpace::spatial_only(&heat3d(1), [32, 32, 32], &m);
        let mut tuner =
            OnlineTuner::new(&space, TuningParams::new([32, 8, 8], Fold::new(8, 1, 1))).unwrap();
        let first = tuner.suggest().expect("has a start point");
        assert_eq!(first.block[0], 32);
        tuner.record(1.0).unwrap();
        assert_eq!(tuner.trials(), 1);
        // A better neighbour becomes the new best.
        let suggested = tuner.suggest().expect("neighbours queued");
        tuner.record(0.5).unwrap();
        assert_eq!(
            tuner.best().block,
            suggested.block,
            "the faster neighbour must take over as best"
        );
        assert_ne!(tuner.best().block, first.block);
        assert!(tuner.trials() == 2);
    }

    #[test]
    fn record_requires_suggestion() {
        let m = Machine::cascade_lake();
        let space = SearchSpace::spatial_only(&heat3d(1), [32, 32, 32], &m);
        let mut tuner =
            OnlineTuner::new(&space, TuningParams::new([32, 8, 8], Fold::new(8, 1, 1))).unwrap();
        let _ = tuner.suggest();
        tuner.record(1.0).unwrap();
        let err = tuner.record(1.0).unwrap_err(); // no suggestion pending
        assert!(matches!(err, ToolError::Protocol(_)), "{err}");
        assert_eq!(tuner.trials(), 1, "failed record must not count");
    }

    #[test]
    fn empty_lattice_is_an_error_not_a_panic() {
        let space = SearchSpace::empty();
        let err = OnlineTuner::new(&space, TuningParams::new([32, 8, 8], Fold::new(8, 1, 1)))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, ToolError::InvalidInput(_)), "{err}");
    }

    #[test]
    fn non_finite_record_is_rejected_and_suggestion_stays_pending() {
        let m = Machine::cascade_lake();
        let space = SearchSpace::spatial_only(&heat3d(1), [32, 32, 32], &m);
        let mut tuner =
            OnlineTuner::new(&space, TuningParams::new([32, 8, 8], Fold::new(8, 1, 1))).unwrap();
        let _ = tuner.suggest().expect("start point");
        let err = tuner.record(f64::NAN).unwrap_err();
        assert!(matches!(err, ToolError::Measurement(_)), "{err}");
        // The suggestion is still pending: a valid re-measure succeeds.
        tuner.record(1.0).unwrap();
        assert_eq!(tuner.trials(), 1);
    }

    #[test]
    fn observed_climb_matches_unobserved_and_balances_spans() {
        let m = Machine::cascade_lake();
        let sol = Solution::new(heat3d(1), [32, 32, 32], m.clone());
        let space = SearchSpace::spatial_only(sol.stencil(), sol.domain(), &m);
        let template = TuningParams::new([32, 8, 8], Fold::new(8, 1, 1)).threads(1);
        let cfg = TrialConfig::default();

        let mut plain = OnlineTuner::new(&space, template.clone()).unwrap();
        let mut backend = SolutionBackend::new(&sol);
        let plain_best = plain
            .run_to_convergence_cached(
                &sol,
                &mut backend,
                &cfg,
                &mut TrialBudget::unlimited(),
                &PredictionCache::new(),
            )
            .unwrap();

        let (tel, sink) =
            yasksite_telemetry::Telemetry::recording(yasksite_telemetry::Level::Debug);
        let mut observed = OnlineTuner::new(&space, template).unwrap();
        let mut backend = SolutionBackend::new(&sol);
        let observed_best = observed
            .run_to_convergence_observed(
                &sol,
                &mut backend,
                &cfg,
                &mut TrialBudget::unlimited(),
                &PredictionCache::new(),
                &tel,
            )
            .unwrap();

        assert_eq!(plain_best, observed_best, "telemetry must not steer");
        assert_eq!(plain.trials(), observed.trials());
        drop(tel);
        assert!(!sink.lines().is_empty(), "observed run must emit events");
        let joined = sink.lines().join("\n");
        let stats = yasksite_telemetry::check_trace(&joined).expect("balanced trace");
        assert_eq!(stats.spans_opened, stats.spans_closed);
    }

    fn lattice_tuner() -> OnlineTuner {
        let m = Machine::cascade_lake();
        let space = SearchSpace::spatial_only(&heat3d(1), [32, 32, 32], &m);
        OnlineTuner::new(&space, TuningParams::new([32, 8, 8], Fold::new(8, 1, 1))).unwrap()
    }

    fn measured_trial(samples: Vec<f64>) -> TrialResult {
        let mid = samples[samples.len() / 2];
        TrialResult {
            seconds_per_sweep: mid,
            provenance: Provenance::Measured,
            kept: samples.len(),
            rejected: 0,
            retries: 0,
            attempts: samples.len(),
            samples,
            truncated: false,
        }
    }

    #[test]
    fn high_drift_fits_a_correction_that_reduces_p95() {
        use yasksite_ecm::DRIFT_SUSPECT_THRESHOLD;
        let mut tuner = lattice_tuner();
        let _ = tuner.suggest().expect("start point");
        // Prediction says 1.0 s, the machine delivers ~4 s: every sample
        // drifts by ~-0.75, far past the SUSPECT threshold.
        let samples = vec![4.0, 3.9, 4.1, 4.0, 4.2];
        let trial = measured_trial(samples.clone());
        let c = tuner
            .record_trial_with_prediction(&trial, 1.0)
            .expect("valid record")
            .expect("the key must newly cross the threshold");
        assert!(c.suspect);
        assert!(c.stats.p95 > DRIFT_SUSPECT_THRESHOLD, "{:?}", c.stats);
        assert!(
            (c.coeff - 0.25).abs() < 0.02,
            "4x-slow measurements fit a ~0.25 throughput coefficient, got {}",
            c.coeff
        );
        assert_eq!(tuner.model_suspects(), 1);
        // Applying the correction to the prediction and re-deriving the
        // drifts must pull the key's p95 back under the threshold.
        let corrected: Vec<f64> = samples.iter().map(|s| (1.0 / c.coeff) / s - 1.0).collect();
        let after = DriftStats::from_drifts(&corrected).unwrap();
        assert!(
            after.p95 < c.stats.p95,
            "correction must reduce p95: {} -> {}",
            c.stats.p95,
            after.p95
        );
        assert!(!after.suspect, "corrected drift stays under the threshold");
    }

    #[test]
    fn below_threshold_keys_keep_state_but_never_fire() {
        let mut tuner = lattice_tuner();
        let _ = tuner.suggest().expect("start point");
        // ~2% drift: well under the threshold.
        let trial = measured_trial(vec![1.02, 1.01, 1.03, 1.02, 1.02]);
        let fired = tuner.record_trial_with_prediction(&trial, 1.0).unwrap();
        assert!(fired.is_none(), "below-threshold drift must not fire");
        assert_eq!(tuner.model_suspects(), 0);
        assert_eq!(tuner.reranks(), 0);
        let corrections = tuner.corrections();
        assert_eq!(corrections.len(), 1, "state is still retained");
        assert!(!corrections[0].suspect);
    }

    #[test]
    fn fallback_trials_and_disabled_feedback_fit_nothing() {
        let mut tuner = lattice_tuner();
        let _ = tuner.suggest().expect("start point");
        let mut fb = measured_trial(vec![4.0]);
        fb.provenance = Provenance::PredictedFallback {
            reason: crate::trial::FallbackReason::AllSamplesFailed,
        };
        fb.samples.clear();
        fb.kept = 0;
        assert!(tuner
            .record_trial_with_prediction(&fb, 1.0)
            .unwrap()
            .is_none());
        assert!(tuner.corrections().is_empty());

        let mut off = lattice_tuner().feedback(false);
        let _ = off.suggest().expect("start point");
        let trial = measured_trial(vec![4.0, 4.0, 4.0]);
        assert!(off
            .record_trial_with_prediction(&trial, 1.0)
            .unwrap()
            .is_none());
        assert!(off.corrections().is_empty());
        assert_eq!(off.model_suspects(), 0);
    }

    #[test]
    fn rerank_orders_best_candidate_last_deterministically() {
        let mut tuner = lattice_tuner();
        let _ = tuner.suggest().expect("start point");
        tuner.record(1.0).unwrap();
        assert!(
            tuner.suggest().is_some(),
            "neighbours queued after the first record"
        );
        // Score by block volume: the largest block must surface at the
        // pop end of the queue.
        tuner.rerank_open_candidates(|p| (p.block[1] * p.block[2]) as f64);
        assert_eq!(tuner.reranks(), 1);
        let next = tuner.suggest().expect("queue non-empty");
        let mut again = lattice_tuner();
        let _ = again.suggest();
        again.record(1.0).unwrap();
        let _ = again.suggest();
        again.rerank_open_candidates(|p| (p.block[1] * p.block[2]) as f64);
        assert_eq!(
            next,
            again.suggest().expect("queue non-empty"),
            "re-ranking is deterministic"
        );
    }

    #[test]
    fn run_to_convergence_under_total_failure_falls_back() {
        let m = Machine::cascade_lake();
        let sol = Solution::new(heat3d(1), [32, 32, 32], m.clone());
        let space = SearchSpace::spatial_only(sol.stencil(), sol.domain(), &m);
        let template = TuningParams::new([32, 8, 8], Fold::new(8, 1, 1)).threads(1);
        let mut tuner = OnlineTuner::new(&space, template).unwrap();
        let mut backend = FaultyBackend::new(SolutionBackend::new(&sol), FaultPlan::always_fail(3));
        let best = tuner
            .run_to_convergence(
                &sol,
                &mut backend,
                &TrialConfig::default(),
                &mut TrialBudget::unlimited(),
            )
            .expect("terminates with a valid config");
        assert!(best.block[1] > 0 && best.block[2] > 0);
        assert!(
            tuner.best_provenance().expect("recorded").is_fallback(),
            "all-failures plan must leave a fallback winner"
        );
        assert_eq!(tuner.summary().fallbacks, tuner.trials());
    }
}
