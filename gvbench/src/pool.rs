//! The provider pool every workload serves, and seed-derived inputs.
//!
//! Branch-and-bound cost varies by four orders of magnitude between
//! Table-I draws of the same size (and many draws need more than the
//! solver's 50M-node cap to prove some sub-coalition infeasible), so a
//! pool drawn from the run seed would make latency a property of the
//! seed rather than of the code. The pool is therefore one fixed draw:
//! Table-I generation at 8 GSPs × 32 tasks from [`POOL_SEED`], with
//! the deadline and payment widened by [`SLACK`]. At that slack every
//! sub-coalition an eviction chain can reach solves within 120k nodes
//! (a few ms), so no solve comes near the cap and the latency tail is
//! the code's, not one pathological instance's. The run seed drives everything requests carry: formation
//! seeds, batch seeds, fault plans and the SWF trace.

use gridvo_core::FormationScenario;
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_sim::TableI;
use gridvo_solver::AssignmentInstance;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Providers in the pool.
pub const GSPS: usize = 8;
/// Tasks in the program every request forms for.
pub const TASKS: usize = 32;
/// Seed of the Table-I draw.
pub const POOL_SEED: u64 = 8;
/// Deadline and payment multiplier over the Table-I calibration.
pub const SLACK: f64 = 3.0;

/// Build the pool scenario.
pub fn scenario() -> Result<FormationScenario, String> {
    let cfg = TableI { gsps: GSPS, task_sizes: vec![TASKS], ..TableI::small() };
    let mut rng = StdRng::seed_from_u64(POOL_SEED);
    let drawn = ScenarioGenerator::new(cfg)
        .scenario(TASKS, &mut rng)
        .map_err(|e| format!("pool generation failed: {e}"))?;
    let inst = drawn.instance();
    let (mut cost, mut time) = (Vec::new(), Vec::new());
    for t in 0..inst.tasks() {
        cost.extend_from_slice(inst.cost_row(t));
        time.extend_from_slice(inst.time_row(t));
    }
    let widened = AssignmentInstance::new(
        inst.tasks(),
        inst.gsps(),
        cost,
        time,
        inst.deadline() * SLACK,
        inst.payment() * SLACK,
    )
    .map_err(|e| format!("pool widening failed: {e}"))?;
    FormationScenario::new(drawn.gsps().to_vec(), drawn.trust().clone(), widened)
        .map_err(|e| format!("pool scenario invalid: {e}"))
}

/// An RNG for one input stream of one run: `stream` keeps the streams
/// of one seed independent of each other.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}
