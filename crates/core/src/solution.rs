//! The `Solution` object: one stencil bound to a domain and a machine.

use std::fmt;

use yasksite_arch::{Machine, MachineFileError, MachineKind};
use yasksite_engine::{
    apply_simulated, codegen, run_wavefront_simulated, CodegenOutput, EngineError, ExecPool, Plan,
    ProfileReport, SimContext, SweepProfiler, SweepReport, SweepRequest, Tier, TierPolicy,
    TierReason, TuningParams,
};
use yasksite_grid::Grid3;
use yasksite_memsim::HierarchyStats;
use yasksite_stencil::Stencil;

use crate::predict::{predict_params, predict_params_resident, PredictedPerf};

/// Errors reported by the tool layer — the single taxonomy every public
/// tuning entry point funnels into (no panics escape the public API).
#[derive(Debug)]
pub enum ToolError {
    /// The engine rejected the configuration.
    Engine(EngineError),
    /// A machine description file failed to parse or validate.
    MachineFile(MachineFileError),
    /// The caller broke the suggest/record protocol of a tuner.
    Protocol(String),
    /// The caller supplied input the API cannot act on (empty space,
    /// non-finite measurement, ...).
    InvalidInput(String),
    /// A measurement sample failed or produced unusable data.
    Measurement(String),
    /// Tool-level invariant violation.
    Other(String),
}

impl fmt::Display for ToolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToolError::Engine(e) => write!(f, "engine: {e}"),
            ToolError::MachineFile(e) => write!(f, "machine file: {e}"),
            ToolError::Protocol(s) => write!(f, "protocol: {s}"),
            ToolError::InvalidInput(s) => write!(f, "invalid input: {s}"),
            ToolError::Measurement(s) => write!(f, "measurement: {s}"),
            ToolError::Other(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for ToolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ToolError::Engine(e) => Some(e),
            ToolError::MachineFile(e) => Some(e),
            ToolError::Protocol(_)
            | ToolError::InvalidInput(_)
            | ToolError::Measurement(_)
            | ToolError::Other(_) => None,
        }
    }
}

impl From<EngineError> for ToolError {
    fn from(e: EngineError) -> Self {
        ToolError::Engine(e)
    }
}

impl From<MachineFileError> for ToolError {
    fn from(e: MachineFileError) -> Self {
        ToolError::MachineFile(e)
    }
}

/// A measured (native or simulated) performance result.
#[derive(Debug, Clone)]
pub struct MeasuredPerf {
    /// Achieved MLUP/s in steady state.
    pub mlups: f64,
    /// Steady-state seconds per domain sweep.
    pub seconds_per_sweep: f64,
    /// Simulated traffic counters (None for native runs).
    pub stats: Option<HierarchyStats>,
    /// Whether the number came from the simulator or the host.
    pub simulated: bool,
    /// Threads that actually did work: the engine's count for native
    /// runs (non-empty slabs / plane chunks), the simulated core count
    /// otherwise. Can be below `params.threads` on small domains.
    pub threads_used: usize,
    /// The specialisation-ladder tier that executed (native runs report
    /// the engine's truth; simulated runs report the planner's pick for
    /// these parameters under the live policy).
    pub tier: Tier,
    /// Why the planner picked [`MeasuredPerf::tier`], surfaced through
    /// traces, counters and the CLI.
    pub tier_reason: TierReason,
}

/// One stencil kernel bound to a domain size and a target machine — the
/// unit YaskSite tunes and external tuners query.
#[derive(Debug, Clone)]
pub struct Solution {
    stencil: Stencil,
    domain: [usize; 3],
    machine: Machine,
}

impl Solution {
    /// Binds `stencil` to a `domain` on `machine`.
    #[must_use]
    pub fn new(stencil: Stencil, domain: [usize; 3], machine: Machine) -> Self {
        Solution {
            stencil,
            domain,
            machine,
        }
    }

    /// The stencil.
    #[must_use]
    pub fn stencil(&self) -> &Stencil {
        &self.stencil
    }

    /// The domain extents.
    #[must_use]
    pub fn domain(&self) -> [usize; 3] {
        self.domain
    }

    /// The target machine.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Lattice updates per sweep.
    #[must_use]
    pub fn updates_per_sweep(&self) -> u64 {
        (self.domain[0] * self.domain[1] * self.domain[2]) as u64
    }

    /// A hash identifying this solution's prediction inputs (stencil ×
    /// domain × machine). Two solutions with equal signatures produce
    /// identical analytic predictions, which is what lets
    /// [`crate::PredictionCache`] share entries across `Solution` values.
    /// Stable within a process; not a persistent format.
    #[must_use]
    pub fn signature(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        // Stencil and Machine hold f64s and do not implement Hash; their
        // Debug renderings are exact enough to distinguish any two values
        // the model would treat differently.
        format!("{:?}", self.stencil).hash(&mut h);
        self.domain.hash(&mut h);
        format!("{:?}", self.machine).hash(&mut h);
        h.finish()
    }

    /// Analytic (ECM) prediction for `params` at `cores` — runs nothing.
    #[must_use]
    pub fn predict(&self, params: &TuningParams, cores: usize) -> PredictedPerf {
        predict_params(&self.stencil, self.domain, &self.machine, params, cores)
    }

    /// Analytic prediction with an explicit steady-state resident-set
    /// size (bytes of all data live across repeated invocations).
    #[must_use]
    pub fn predict_with_resident(
        &self,
        params: &TuningParams,
        cores: usize,
        resident_bytes: f64,
    ) -> PredictedPerf {
        predict_params_resident(
            &self.stencil,
            self.domain,
            &self.machine,
            params,
            cores,
            Some(resident_bytes),
        )
    }

    /// Allocates the grid set (inputs + output) for this solution under a
    /// given parameter set.
    #[must_use]
    pub fn allocate_grids(&self, params: &TuningParams) -> (Vec<Grid3>, Grid3) {
        let info = self.stencil.info();
        let halo = info.radius;
        let inputs: Vec<Grid3> = (0..self.stencil.num_inputs())
            .map(|g| {
                let mut grid = Grid3::new(&format!("in{g}"), self.domain, halo, params.fold);
                grid.fill_with(|i, j, k| ((i * 7 + j * 3 + k) % 13) as f64 * 0.05);
                grid
            })
            .collect();
        let out = Grid3::new("out", self.domain, halo, params.fold);
        (inputs, out)
    }

    /// Measures `params`: natively when the machine is the host model,
    /// otherwise on the simulated hierarchy. One warm-up sweep is followed
    /// by one measured steady-state sweep.
    ///
    /// # Errors
    /// Propagates engine errors (bad parameters, unsupported wavefront).
    pub fn measure(&self, params: &TuningParams) -> Result<MeasuredPerf, ToolError> {
        if self.machine.kind == MachineKind::Host {
            self.measure_native(params)
        } else {
            self.measure_simulated(params)
        }
    }

    fn measure_native(&self, params: &TuningParams) -> Result<MeasuredPerf, ToolError> {
        let (mut inputs, mut out) = self.allocate_grids(params);
        let request = SweepRequest::new(params).pool(ExecPool::global());
        let report = if params.wavefront > 1 {
            let mut a = inputs.swap_remove(0);
            request.run_wavefront(&self.stencil, &mut a, &mut out)?; // warm-up
            request.run_wavefront(&self.stencil, &mut a, &mut out)?
        } else {
            let refs: Vec<&Grid3> = inputs.iter().collect();
            request.apply(&self.stencil, &refs, &mut out)?; // warm-up
            request.apply(&self.stencil, &refs, &mut out)?
        };
        Ok(self.native_perf(&report))
    }

    /// A native sweep's report as one-sweep steady-state performance.
    fn native_perf(&self, report: &SweepReport) -> MeasuredPerf {
        let secs = report.seconds / report.wavefront_depth as f64;
        MeasuredPerf {
            mlups: self.updates_per_sweep() as f64 / secs.max(1e-12) / 1e6,
            seconds_per_sweep: secs,
            stats: None,
            simulated: false,
            threads_used: report.threads_used,
            tier: report.tier,
            tier_reason: report.tier_reason,
        }
    }

    fn measure_simulated(&self, params: &TuningParams) -> Result<MeasuredPerf, ToolError> {
        let (inputs, out) = self.allocate_grids(params);
        let mut ctx = SimContext::new(&self.machine, params.threads);
        let sweep = |ctx: &mut SimContext, a: &Grid3, b: &Grid3| -> Result<(), EngineError> {
            if params.wavefront > 1 {
                run_wavefront_simulated(&self.stencil, a, b, params, ctx)
            } else {
                let refs: Vec<&Grid3> = std::iter::once(a).chain(inputs.iter().skip(1)).collect();
                apply_simulated(&self.stencil, &refs, b, params, ctx)
            }
        };
        // Cold sweep warms the hierarchy, second sweep is steady state.
        sweep(&mut ctx, &inputs[0], &out)?;
        let warm = ctx.finish();
        sweep(&mut ctx, &out, &inputs[0])?;
        let total = ctx.finish();
        let steady = (total.time.seconds - warm.time.seconds).max(1e-12);
        let sweeps = params.wavefront.max(1) as f64;
        let per_sweep = steady / sweeps;
        // The simulator models traffic, not kernels; report the tier the
        // native planner would pick for these parameters so tier-mix
        // accounting stays meaningful for simulated machine models.
        let plan = self.plan_tier(params);
        Ok(MeasuredPerf {
            mlups: self.updates_per_sweep() as f64 / per_sweep / 1e6,
            seconds_per_sweep: per_sweep,
            stats: Some(total.stats),
            simulated: true,
            threads_used: params.threads,
            tier: plan.tier(),
            tier_reason: plan.reason,
        })
    }

    /// The engine's plan for a sweep of `params` (a wavefront sweep when
    /// `params.wavefront > 1`) under the live [`TierPolicy`]
    /// (`YASKSITE_FORCE_TIER` wins over the default), assuming the
    /// shared grid geometry [`Solution::allocate_grids`] produces.
    #[must_use]
    pub fn plan_tier(&self, params: &TuningParams) -> Plan {
        Plan::query(&self.stencil, params, TierPolicy::from_env())
    }

    /// Generates the kernel source for `params`.
    #[must_use]
    pub fn codegen(&self, params: &TuningParams) -> CodegenOutput {
        codegen(&self.stencil, self.domain, params)
    }

    /// Executes `params` once natively on **this host** with the
    /// engine's [`SweepProfiler`] attached, returning the measured
    /// throughput and the profile report (phase times, chunk/plane
    /// timing, pool occupancy). Always runs natively regardless of the
    /// solution's machine model — profiling a simulated hierarchy would
    /// time the simulator, not the kernel. A warm-up sweep runs
    /// unprofiled first.
    ///
    /// # Errors
    /// Propagates engine errors (bad parameters, unsupported wavefront).
    pub fn profile_native(
        &self,
        params: &TuningParams,
    ) -> Result<(MeasuredPerf, ProfileReport), ToolError> {
        let (mut inputs, mut out) = self.allocate_grids(params);
        let pool = ExecPool::global();
        let prof = SweepProfiler::enabled();
        let warmup = SweepRequest::new(params).pool(pool);
        let profiled = SweepRequest::new(params).pool(pool).profiler(&prof);
        let report = if params.wavefront > 1 {
            let mut a = inputs.swap_remove(0);
            warmup.run_wavefront(&self.stencil, &mut a, &mut out)?;
            profiled.run_wavefront(&self.stencil, &mut a, &mut out)?
        } else {
            let refs: Vec<&Grid3> = inputs.iter().collect();
            warmup.apply(&self.stencil, &refs, &mut out)?;
            profiled.apply(&self.stencil, &refs, &mut out)?
        };
        Ok((self.native_perf(&report), prof.report()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yasksite_grid::Fold;
    use yasksite_stencil::builders::{heat3d, wave2d};

    #[test]
    fn native_measurement_on_host() {
        let sol = Solution::new(heat3d(1), [64, 32, 32], Machine::host());
        let p = TuningParams::new([64, 8, 8], Fold::new(8, 1, 1));
        let m = sol.measure(&p).unwrap();
        assert!(!m.simulated);
        assert!(m.mlups > 1.0, "host should exceed 1 MLUP/s: {}", m.mlups);
        assert_eq!(m.threads_used, 1);
    }

    #[test]
    fn native_wavefront_measurement_is_per_sweep() {
        let sol = Solution::new(heat3d(1), [64, 32, 32], Machine::host());
        let p = TuningParams::new([64, 8, 8], Fold::new(8, 1, 1)).wavefront(2);
        let m = sol.measure(&p).unwrap();
        assert!(!m.simulated);
        let mlups = sol.updates_per_sweep() as f64 / m.seconds_per_sweep / 1e6;
        assert_eq!(m.mlups.to_bits(), mlups.to_bits());
        let plan = sol.plan_tier(&p);
        assert_eq!((m.tier, m.tier_reason), (plan.tier(), plan.reason));
    }

    #[test]
    fn simulated_measurement_on_clx() {
        let sol = Solution::new(heat3d(1), [64, 32, 32], Machine::cascade_lake());
        let p = TuningParams::new([64, 8, 8], Fold::new(8, 1, 1)).threads(2);
        let m = sol.measure(&p).unwrap();
        assert!(m.simulated);
        assert!(m.stats.is_some());
        assert!(m.mlups > 0.0);
    }

    #[test]
    fn simulated_wavefront_measurement() {
        let sol = Solution::new(heat3d(1), [64, 32, 32], Machine::cascade_lake());
        let p = TuningParams::new([64, 8, 8], Fold::new(8, 1, 1)).wavefront(2);
        let m = sol.measure(&p).unwrap();
        assert!(m.mlups > 0.0);
    }

    #[test]
    fn two_input_solution_measures() {
        let sol = Solution::new(wave2d(0.3), [64, 64, 1], Machine::cascade_lake());
        let p = TuningParams::new([64, 16, 1], Fold::new(8, 1, 1));
        let m = sol.measure(&p).unwrap();
        assert!(m.mlups > 0.0);
    }

    #[test]
    fn predict_is_pure() {
        let sol = Solution::new(heat3d(1), [128, 64, 64], Machine::cascade_lake());
        let p = TuningParams::new([128, 8, 8], Fold::new(8, 1, 1));
        let a = sol.predict(&p, 4);
        let b = sol.predict(&p, 4);
        assert_eq!(a.mlups, b.mlups);
    }

    #[test]
    fn profile_native_runs_on_host_even_for_simulated_machines() {
        let sol = Solution::new(heat3d(1), [32, 16, 16], Machine::cascade_lake());
        let p = TuningParams::new([32, 8, 8], Fold::new(8, 1, 1)).threads(2);
        let (perf, report) = sol.profile_native(&p).unwrap();
        assert!(!perf.simulated, "profiling always executes natively");
        assert!(perf.mlups > 0.0);
        assert!(report.enabled);
        assert!(report.phases.iter().any(|ph| ph.name == "sweep"));
        assert!(report.chunks.is_some());
        assert!(report.pool.is_some());
    }

    #[test]
    fn profile_native_wavefront_records_planes() {
        let sol = Solution::new(heat3d(1), [32, 16, 16], Machine::cascade_lake());
        let p = TuningParams::new([32, 8, 8], Fold::new(8, 1, 1))
            .wavefront(2)
            .threads(2);
        let (perf, report) = sol.profile_native(&p).unwrap();
        assert!(perf.mlups > 0.0);
        assert!(report.phases.iter().any(|ph| ph.name == "wavefront"));
        assert!(report.planes.is_some());
    }

    #[test]
    fn codegen_delegates() {
        let sol = Solution::new(heat3d(1), [128, 64, 64], Machine::cascade_lake());
        let p = TuningParams::new([128, 8, 8], Fold::new(8, 1, 1));
        assert!(sol.codegen(&p).source.contains("kernel_heat_3d_r1"));
    }
}
