// Designing your own switching controller pair from scratch.
//
// The paper ships finished gains; this example shows the full design
// workflow for a new plant: a discretised double-integrator servo, a fast
// MT gain by pole placement (Ackermann), a slow ME gain on the
// one-sample-delay augmented model — first a naive LQR attempt that the
// switching-stability gate rejects (no common quadratic Lyapunov function
// exists, and a dual certificate proves it), then a pole-placement design
// that passes — followed by the dwell-time analysis.
//
// Build & run:   ./build/custom_design
#include <cstdio>

#include "control/design.h"
#include "control/sim.h"
#include "linalg/lyap.h"
#include "switching/dwell.h"

namespace {

/// The CQLF verdict for the pair as printed: "found", "none exists" when a
/// dual certificate refutes every CQLF, or "undecided".
const char* cqlf_verdict(const ttdim::control::DiscreteLti& plant,
                         const ttdim::control::Matrix& kt,
                         const ttdim::control::Matrix& ke) {
  const ttdim::control::SwitchedModes modes =
      ttdim::control::switched_modes(plant, kt, ke);
  const ttdim::linalg::CommonLyapunov cqlf =
      ttdim::linalg::find_common_lyapunov(modes.a_tt, modes.a_et);
  if (cqlf.found) return "found";
  return cqlf.refuted ? "none exists" : "undecided";
}

}  // namespace

int main() {
  using namespace ttdim;
  using control::DiscreteLti;
  using control::Matrix;

  // A discretised double integrator (e.g. a positioning stage), h = 10 ms.
  const double h = 0.01;
  const DiscreteLti plant(Matrix{{1.0, h}, {0.0, 1.0}},
                          Matrix{{h * h / 2.0}, {h}}, Matrix{{1.0, 0.0}}, h);
  const DiscreteLti augmented = plant.augmented_delay_model();

  // Fast controller for mode MT: poles at 0.70 +- 0.05i.
  const Matrix kt = control::ackermann(plant, {{0.70, 0.05}, {0.70, -0.05}});
  std::printf("KT = [%g, %g]\n", kt(0, 0), kt(0, 1));

  // Attempt 1: gentle LQR for mode ME. Dynamically fine on its own, but
  // far too sluggish next to KT — switching between the two degrades the
  // settling time, and the gate rejects the pair (the situation of the
  // paper's Fig. 3 "KuE" surface).
  const Matrix ke_lqr = control::dlqr(
      augmented, {Matrix::identity(3), Matrix{{5.0}}});
  const control::SwitchingStability naive =
      control::check_switching_stability(plant, kt, ke_lqr);
  std::printf("attempt 1 (LQR, R = 5): CQLF %s, degradation-free %s -> %s\n",
              cqlf_verdict(plant, kt, ke_lqr),
              naive.degradation_free ? "yes" : "no",
              naive.switching_stable() ? "ACCEPTED" : "REJECTED");

  // Attempt 2: place the augmented poles explicitly at {0.90, 0.85, 0.10}
  // — still clearly slower than MT (that is the point of the cheap ET
  // resource) but close enough for benign switching.
  const Matrix ke = control::ackermann(
      augmented, {{0.90, 0.0}, {0.85, 0.0}, {0.10, 0.0}});
  const control::SwitchingStability good =
      control::check_switching_stability(plant, kt, ke);
  std::printf("attempt 2 (poles 0.90/0.85/0.10): CQLF %s, degradation-free "
              "%s -> %s\n",
              cqlf_verdict(plant, kt, ke),
              good.degradation_free ? "yes" : "no",
              good.switching_stable() ? "ACCEPTED" : "REJECTED");
  if (!good.switching_stable()) return 1;

  // Requirement: settle within 30 samples (0.3 s) after a unit disturbance.
  const control::SwitchedLoop loop(plant, kt, ke);
  switching::DwellAnalysisSpec spec;
  spec.settling_requirement = 30;
  spec.settling = {0.02, 4000};
  const switching::DwellTables tables =
      switching::compute_dwell_tables(loop, spec);
  if (!tables.feasible()) {
    std::printf("requirement infeasible for this pair\n");
    return 1;
  }
  std::printf("JT = %d, JE = %d, T*w = %d samples\n", tables.settling_tt,
              tables.settling_et, tables.t_star_w);
  std::printf("at Tw = 0 the slot is needed for only %d..%d samples "
              "(vs. %d with a dedicated-slot design)\n",
              tables.t_minus[0], tables.t_plus[0], tables.settling_tt);

  // Granularity trade-off (paper Sec. 3): a coarser Tw grid costs a bit of
  // conservativeness but shrinks the deployed table.
  switching::DwellAnalysisSpec coarse = spec;
  coarse.tw_granularity = 4;
  const switching::DwellTables coarse_tables =
      switching::compute_dwell_tables(loop, coarse);
  std::printf("granularity 4: %d entries instead of %d\n",
              coarse_tables.entries(), tables.entries());
  return 0;
}
