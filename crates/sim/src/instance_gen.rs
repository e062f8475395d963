//! Full scenario generation per §IV-A.
//!
//! Pipeline: synthetic Atlas trace → program of the requested size →
//! GSP speeds `4.91 × U[16, 128]` → consistent time matrix →
//! workload-monotone Braun cost matrix → deadline
//! `U[0.3, 2.0] × Runtime × n/1000` and payment
//! `U[0.2, 0.4] × max_c × n` → Erdős–Rényi trust graph (`p = 0.1`) —
//! redrawing deadline/payment until the grand coalition's IP admits a
//! feasible solution, exactly as the paper calibrates ("the values for
//! deadline and payment were generated in such a way that there exists
//! a feasible solution in each experiment").
//!
//! The trace comes from [`atlas::generate`] and the program from
//! [`program::extract_with_size`]. [`TableI`] supplies the GSP count,
//! the deadline factors and the trace length; the other ranges are the
//! constants of [`crate::config`].

use crate::braun;
use crate::config::{
    TableI, CALIBRATION_ATTEMPTS, MAX_COST, PAYMENT_FACTOR_RANGE, SPEED_MULTIPLIER_RANGE, TRUST_P,
    TRUST_WEIGHT_RANGE,
};
use crate::{Result, SimError};
use gridvo_core::{FormationScenario, Gsp};
use gridvo_solver::heuristics;
use gridvo_solver::AssignmentInstance;
use gridvo_trust::generators;
use gridvo_workload::program::{self, Program};
use gridvo_workload::{atlas, SwfTrace, ATLAS_GFLOPS_PER_PROC};
use rand::Rng;

/// Generates experiment scenarios from a Table-I configuration.
#[derive(Debug, Clone)]
pub struct ScenarioGenerator {
    cfg: TableI,
    trace: Option<SwfTrace>,
}

impl ScenarioGenerator {
    /// A generator that synthesizes its own Atlas-like trace on first
    /// use per call (deterministic under the caller's RNG).
    pub fn new(cfg: TableI) -> Self {
        ScenarioGenerator { cfg, trace: None }
    }

    /// A generator driven by an externally supplied trace — pass the
    /// real `LLNL-Atlas-2006-2.1-cln.swf` here for a trace-faithful
    /// rerun.
    pub fn with_trace(cfg: TableI, trace: SwfTrace) -> Self {
        ScenarioGenerator { cfg, trace: Some(trace) }
    }

    /// The configuration.
    pub fn config(&self) -> &TableI {
        &self.cfg
    }

    /// Draw a program with exactly `tasks` tasks.
    pub fn program<R: Rng + ?Sized>(&self, tasks: usize, rng: &mut R) -> Result<Program> {
        let owned;
        let trace = match &self.trace {
            Some(t) => t,
            None => {
                owned = atlas::generate(rng, self.cfg.trace_jobs);
                &owned
            }
        };
        program::extract_with_size(trace, tasks, rng).ok_or(SimError::NoQualifyingJob)
    }

    /// Draw GSP speeds `4.91 × U[16, 128]` GFLOPS.
    pub fn speeds<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        (0..self.cfg.gsps)
            .map(|_| ATLAS_GFLOPS_PER_PROC * rng.gen_range(SPEED_MULTIPLIER_RANGE))
            .collect()
    }

    /// Build a full scenario for a program of `tasks` tasks,
    /// recalibrating deadline/payment until the grand coalition is
    /// feasible.
    pub fn scenario<R: Rng + ?Sized>(
        &self,
        tasks: usize,
        rng: &mut R,
    ) -> Result<FormationScenario> {
        let program = self.program(tasks, rng)?;
        self.scenario_for_program(&program, rng)
    }

    /// Build a scenario for an already-extracted program.
    pub fn scenario_for_program<R: Rng + ?Sized>(
        &self,
        program: &Program,
        rng: &mut R,
    ) -> Result<FormationScenario> {
        let n = program.tasks();
        let m = self.cfg.gsps;
        let speeds = self.speeds(rng);
        let time = braun::time_matrix(program.workloads(), &speeds);
        let mut cost = braun::braun_cost_matrix(rng, n, m);
        braun::enforce_workload_monotonicity(&mut cost, program.workloads(), m);

        let (dlo, dhi) = self.cfg.deadline_factor_range;

        // Calibration loop: redraw the deadline/payment factors until
        // the grand coalition admits a feasible assignment. A cheap
        // heuristic feasibility probe keeps this fast; the probe is
        // sound (any heuristic-feasible instance is feasible).
        let mut attempt = 0;
        loop {
            attempt += 1;
            if attempt > CALIBRATION_ATTEMPTS {
                return Err(SimError::CalibrationFailed {
                    tasks: n,
                    attempts: CALIBRATION_ATTEMPTS,
                });
            }
            // Widen the deadline/payment upward after repeated
            // failures so calibration terminates even on sizes where
            // the paper's n/1000 deadline scaling is too tight (the
            // paper only uses n ≥ 256; tiny test programs need the
            // stretch). Paper-faithful draws happen at stretch = 1.
            let stretch = 2f64.powf(((attempt - 1) / 10) as f64);
            let deadline =
                rng.gen_range(dlo..=dhi) * stretch * program.base_runtime * n as f64 / 1000.0;
            let payment = rng.gen_range(PAYMENT_FACTOR_RANGE) * stretch * MAX_COST * n as f64;
            let Ok(instance) =
                AssignmentInstance::new(n, m, cost.clone(), time.clone(), deadline, payment)
            else {
                continue;
            };
            if heuristics::seed_incumbent(&instance).is_none() {
                continue;
            }
            let gsps: Vec<Gsp> = speeds.iter().enumerate().map(|(i, &s)| Gsp::new(i, s)).collect();
            let trust = generators::erdos_renyi(rng, m, TRUST_P, TRUST_WEIGHT_RANGE);
            return Ok(FormationScenario::new(gsps, trust, instance)?);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    type TestRng = rand::rngs::StdRng;

    fn generator() -> ScenarioGenerator {
        ScenarioGenerator::new(TableI::small())
    }

    #[test]
    fn scenario_has_requested_shape() {
        let mut rng = TestRng::seed_from_u64(1);
        let s = generator().scenario(32, &mut rng).unwrap();
        assert_eq!(s.task_count(), 32);
        assert_eq!(s.gsp_count(), 6);
    }

    #[test]
    fn grand_coalition_is_feasible_after_calibration() {
        let mut rng = TestRng::seed_from_u64(2);
        let s = generator().scenario(24, &mut rng).unwrap();
        let inst = s.instance();
        assert!(gridvo_solver::heuristics::seed_incumbent(inst).is_some());
    }

    #[test]
    fn speeds_inside_table_i_range() {
        let mut rng = TestRng::seed_from_u64(3);
        let gen = generator();
        for s in gen.speeds(&mut rng) {
            assert!((4.91 * 16.0 - 1e-9..=4.91 * 128.0 + 1e-9).contains(&s));
        }
    }

    #[test]
    fn cost_matrix_obeys_table_i_bounds() {
        let mut rng = TestRng::seed_from_u64(4);
        let s = generator().scenario(24, &mut rng).unwrap();
        let inst = s.instance();
        for t in 0..inst.tasks() {
            for g in 0..inst.gsps() {
                let c = inst.cost(t, g);
                assert!((1.0..=1000.0).contains(&c), "cost {c} outside [1, φ_b·φ_r]");
            }
        }
    }

    #[test]
    fn time_matrix_consistent_and_cost_monotone() {
        let mut rng = TestRng::seed_from_u64(5);
        let gen = generator();
        let program = gen.program(20, &mut rng).unwrap();
        let s = gen.scenario_for_program(&program, &mut rng).unwrap();
        let inst = s.instance();
        let time: Vec<f64> = (0..inst.tasks())
            .flat_map(|t| (0..inst.gsps()).map(move |g| (t, g)))
            .map(|(t, g)| inst.time(t, g))
            .collect();
        assert!(crate::braun::is_consistent(&time, inst.tasks(), inst.gsps()));
        let cost: Vec<f64> = (0..inst.tasks())
            .flat_map(|t| (0..inst.gsps()).map(move |g| (t, g)))
            .map(|(t, g)| inst.cost(t, g))
            .collect();
        assert!(crate::braun::is_workload_monotone(&cost, program.workloads(), inst.gsps()));
    }

    #[test]
    fn deterministic_under_seed() {
        let gen = generator();
        let s1 = gen.scenario(16, &mut TestRng::seed_from_u64(9)).unwrap();
        let s2 = gen.scenario(16, &mut TestRng::seed_from_u64(9)).unwrap();
        assert_eq!(s1.instance(), s2.instance());
        assert_eq!(s1.trust(), s2.trust());
    }

    #[test]
    fn external_trace_is_used() {
        let mut rng = TestRng::seed_from_u64(10);
        let trace = atlas::generate(&mut rng, 3000);
        let gen = ScenarioGenerator::with_trace(TableI::small(), trace);
        let p = gen.program(16, &mut rng).unwrap();
        assert_eq!(p.tasks(), 16);
    }
}
