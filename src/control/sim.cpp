#include "control/sim.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "support/check.h"

namespace ttdim::control {

void append_canonical(std::string& out, const SettlingSpec& spec) {
  out += "tol=";
  linalg::append_canonical_bits(out, Matrix{{spec.abs_tol}});
  out += "hor=";
  out += std::to_string(spec.horizon);
  out += ';';
}

std::optional<int> settling_samples(const Trace& trace, double abs_tol) {
  TTDIM_EXPECTS(abs_tol > 0.0);
  int last_violation = -1;
  for (int k = 0; k < static_cast<int>(trace.size()); ++k) {
    const double y = trace[static_cast<size_t>(k)].y;
    if (!std::isfinite(y)) return std::nullopt;
    if (std::abs(y) > abs_tol) last_violation = k;
  }
  // Never settled within the horizon (violation at the very end means we
  // cannot certify the tail).
  if (last_violation + 1 >= static_cast<int>(trace.size())) return std::nullopt;
  return last_violation + 1;
}

Trace simulate_autonomous(const Matrix& a, const Matrix& c, const Matrix& x0,
                          double h, int steps) {
  TTDIM_EXPECTS(a.is_square() && a.rows() == x0.rows() && x0.cols() == 1);
  TTDIM_EXPECTS(c.cols() == a.rows());
  TTDIM_EXPECTS(steps >= 0 && h > 0.0);
  Trace trace;
  trace.reserve(static_cast<size_t>(steps));
  Matrix x = x0;
  for (int k = 0; k < steps; ++k) {
    trace.push_back({k * h, (c * x)(0, 0), 0.0});
    x = a * x;
  }
  return trace;
}

namespace {

// ---- Tail certificate of settling_of_pattern ------------------------------
//
// After the mode schedule every sample runs in ME, whose step maps
// z = [x; u_prev] to A z with A = switched_modes(plant, kt, ke).a_et
// (dimension n + 1). All norms are inf-norms. In floating point the step
// computes each component of A z as an (n+1)-term dot product, so the
// computed successor is A z + e with ||e|| <= eps ||z|| + eta, where
// eps = gamma ||A||, gamma = (n+3) 2^-53 bounds the relative error of such
// a dot product, and eta = (n+1) 2^-1075 bounds what gradual underflow
// adds.
//
// The constructor computes the rounded powers P_j = fl(A P_{j-1}), P_0 = I,
// for j <= 4096, takes K, the first j with ||P_j|| <= 1/2, and
// M = max over j < K of ||P_j|| (so M >= 1), and keeps the certificate only
// when 16 K M^2 eps <= 1. That is 2 K M gamma ||A|| <= 1/(8 M), not just
// <= 1/4, because K and M come from rounded powers: A^j - P_j =
// -sum_{i<=j} A^{j-i} F_i with ||F_i|| <= eps ||P_{i-1}||, and the extra
// factor M is what bounds the exact powers from the rounded ones.
// (P_1 = A exactly, so K >= 2 implies ||A|| > 1/2 and underflow in the
// powers is negligible next to eps ||P_{i-1}||.) With d = eps K M <= 1/16:
//   max_{j<K} ||A^j|| <= M / (1 - d) <= 16/15 M,
//   ||A^K|| <= 1/2 + d 16/15 M <= 17/30,
//   sum_{j>=0} ||A^j|| <= K (16/15 M) / (1 - 17/30) = 32/13 K M.
//
// Let z_0 be the state at a sample past the schedule and z_j the states
// the simulation computes after it. Unrolling the rounded recursion,
// z_j = A^j z_0 + sum_{i<j} A^{j-1-i} e_i, so with S_j = max_{i<j} ||z_i||,
//   ||z_j|| <= 16/15 M ||z_0|| + 32/13 K M (eps S_j + eta),
// where 32/13 K M eps <= 2/13: rounding inflates the exact bound by at
// most 13/11, and 13/11 * 16/15 < 4/3. By induction every later state has
//   ||z_j|| <= 4/3 M (||z_0|| + s),  s = 2^-1050 >= 24/11 K eta,
// and in particular stays finite. Each later output is a rounded n-term
// dot product, |y_j| <= (1 + gamma) ||c||_1 ||z_j|| + n 2^-1075. So once
//   8 M ||c||_1 (||z_0|| + s) < abs_tol,
// every later |y_j| is below abs_tol / 5 + n 2^-1075 < abs_tol (for
// abs_tol >= 2^-1000; the factor 8 also covers the rounding of the norms
// and of the test itself). No later sample can be a violation or non-finite, so the
// Trace scan would report the same last violation: settling_of_pattern
// stops there with the same answer.

/// Horizon of the power search.
constexpr int kTailMaxPower = 4096;
/// The absolute slack s on the state norm, covering gradual underflow.
constexpr double kTailStateSlack = 0x1p-1050;
/// Smallest tolerance the early exit serves.
constexpr double kTailMinTol = 0x1p-1000;

/// ||b||_inf of the leading m x m block; NaN when any row sum is NaN.
template <typename Block>
double inf_norm(const Block& b, Index m) {
  double norm = 0.0;
  for (Index r = 0; r < m; ++r) {
    double row = 0.0;
    for (Index c = 0; c < m; ++c) row += std::abs(b[r][c]);
    if (std::isnan(row)) return row;
    norm = std::max(norm, row);
  }
  return norm;
}

/// The certificate's gain 8 M ||c||_1 for the ME closed loop `a`, or 0
/// when the power search finds none.
double tail_gain_of(const Matrix& a, double c_norm) {
  constexpr Index kDim = SwitchedLoop::kFlatMaxStates + 1;
  using Block = std::array<std::array<double, kDim>, kDim>;
  const Index m = a.rows();
  Block flat{};
  Block power{};
  Block next{};
  for (Index r = 0; r < m; ++r) {
    for (Index c = 0; c < m; ++c) flat[r][c] = a(r, c);
    power[r][r] = 1.0;
  }
  const double gamma = static_cast<double>(m + 2) * 0x1p-53;
  const double eps = gamma * inf_norm(flat, m);
  double m_max = 1.0;  // ||P_0|| = ||I||
  for (int j = 1; j <= kTailMaxPower; ++j) {
    for (Index r = 0; r < m; ++r)
      for (Index c = 0; c < m; ++c) {
        double acc = 0.0;
        for (Index k = 0; k < m; ++k) acc += flat[r][k] * power[k][c];
        next[r][c] = acc;
      }
    power = next;
    const double norm = inf_norm(power, m);
    if (!std::isfinite(norm)) return 0.0;
    // K and M only grow from here, so a failed budget test is final.
    const int k_min = norm <= 0.5 ? j : j + 1;
    if (norm > 0.5) m_max = std::max(m_max, norm);
    if (!(16.0 * k_min * m_max * m_max * eps <= 1.0)) return 0.0;
    if (norm <= 0.5) {
      const double gain = 8.0 * m_max * c_norm;
      return std::isfinite(gain) ? gain : 0.0;
    }
  }
  return 0.0;
}

}  // namespace

SwitchedLoop::SwitchedLoop(DiscreteLti plant, Matrix kt, Matrix ke)
    : plant_(std::move(plant)), kt_(std::move(kt)), ke_(std::move(ke)) {
  TTDIM_EXPECTS(plant_.n_inputs() == 1);
  TTDIM_EXPECTS(kt_.rows() == 1 && kt_.cols() == plant_.n_states());
  TTDIM_EXPECTS(ke_.rows() == 1 && ke_.cols() == plant_.n_states() + 1);
  const Index n = plant_.n_states();
  if (n > kFlatMaxStates) return;
  const Matrix x0 = plant_.unit_output_state();
  double c_norm = 0.0;
  for (Index r = 0; r < n; ++r) {
    for (Index j = 0; j < n; ++j) phi_[r][j] = plant_.phi()(r, j);
    gamma_[r] = plant_.gamma()(r, 0);
    kt_row_[r] = kt_(0, r);
    ke_row_[r] = ke_(0, r);
    c_[r] = plant_.c()(0, r);
    x0_[r] = x0(r, 0);
    c_norm += std::abs(c_[r]);
  }
  ke_row_[n] = ke_(0, n);
  tail_gain_ = tail_gain_of(switched_modes(plant_, kt_, ke_).a_et, c_norm);
}

LoopState SwitchedLoop::disturbed_state() const {
  return {plant_.unit_output_state(), 0.0};
}

double SwitchedLoop::step_tt(LoopState& s) const {
  // Negligible sensing-to-actuation delay: u[k] = -kt x[k] acts over
  // [k, k+1). The held-input memory is refreshed with the applied input so
  // a subsequent ME sample sees the true previous command.
  const double u = -(kt_ * s.x)(0, 0);
  s.x = plant_.phi() * s.x + plant_.gamma() * u;
  s.u_prev = u;
  return u;
}

double SwitchedLoop::step_et(LoopState& s) const {
  // One-sample delay (paper Eq. (4)-(5)): the input acting over [k, k+1)
  // is u[k-1]; the command computed now, u[k] = -ke [x; u_prev], is applied
  // from the next sample on.
  const double applied = s.u_prev;
  const double u_next = -(ke_ * s.x.vstack(Matrix{{s.u_prev}}))(0, 0);
  s.x = plant_.phi() * s.x + plant_.gamma() * applied;
  s.u_prev = u_next;
  return applied;
}

double SwitchedLoop::output(const LoopState& s) const {
  return (plant_.c() * s.x)(0, 0);
}

Trace SwitchedLoop::simulate_pattern(int wait, int dwell,
                                     const SettlingSpec& spec) const {
  TTDIM_EXPECTS(wait >= 0 && dwell >= 0);
  std::vector<bool> modes(static_cast<size_t>(wait + dwell), false);
  for (int k = wait; k < wait + dwell; ++k) modes[static_cast<size_t>(k)] = true;
  return simulate_schedule(modes, spec.horizon);
}

std::optional<int> SwitchedLoop::settling_of_pattern(
    int wait, int dwell, const SettlingSpec& spec) const {
  TTDIM_EXPECTS(wait >= 0 && dwell >= 0);
  // A mode schedule longer than the horizon does not settle within it.
  if (static_cast<long long>(wait) + dwell > spec.horizon) return std::nullopt;
  const Index n = plant_.n_states();
  if (n > kFlatMaxStates)
    return settling_samples(simulate_pattern(wait, dwell, spec), spec.abs_tol);

  // Every arithmetic step below mirrors the Matrix operator chain of
  // step_tt/step_et/output exactly — same term order, same skip of
  // exact-zero multiplier entries (Matrix operator* skips them,
  // Matrix-times-scalar does not) — so the settling verdict is
  // bit-identical to the Trace-based path. The one departure is the stop
  // on the tail certificate (above), which only skips samples that
  // provably cannot change the verdict.
  const int schedule_end = wait + dwell;
  // Largest |component| of [x; u_prev] from which the ME tail is certified
  // to stay settled; 0 disables the stop.
  const double tail_limit = tail_gain_ > 0.0 && spec.abs_tol >= kTailMinTol
                                ? spec.abs_tol / tail_gain_ - kTailStateSlack
                                : 0.0;
  double x[kFlatMaxStates];
  double xn[kFlatMaxStates];
  for (Index r = 0; r < n; ++r) x[r] = x0_[r];
  double u_prev = 0.0;  // disturbed_state(): held input memory cleared

  int last_violation = -1;
  for (int k = 0; k < spec.horizon; ++k) {
    if (k >= schedule_end) {
      // Comparing each component keeps a NaN or infinite state unsettled.
      bool settled = std::abs(u_prev) < tail_limit;
      for (Index r = 0; settled && r < n; ++r)
        settled = std::abs(x[r]) < tail_limit;
      if (settled) break;
    }
    double y = 0.0;
    for (Index j = 0; j < n; ++j) {
      const double a = c_[j];
      if (a == 0.0) continue;
      y += a * x[j];
    }
    if (!std::isfinite(y)) return std::nullopt;
    if (std::abs(y) > spec.abs_tol) last_violation = k;

    const bool tt = k >= wait && k < schedule_end;
    double applied;  // input acting over [k, k+1)
    if (tt) {
      double t = 0.0;
      for (Index j = 0; j < n; ++j) {
        const double a = kt_row_[j];
        if (a == 0.0) continue;
        t += a * x[j];
      }
      applied = -t;
      u_prev = applied;
    } else {
      applied = u_prev;
      double t = 0.0;
      for (Index j = 0; j < n; ++j) {
        const double a = ke_row_[j];
        if (a == 0.0) continue;
        t += a * x[j];
      }
      if (ke_row_[n] != 0.0) t += ke_row_[n] * u_prev;
      u_prev = -t;
    }
    for (Index r = 0; r < n; ++r) {
      double acc = 0.0;
      for (Index j = 0; j < n; ++j) {
        const double a = phi_[r][j];
        if (a == 0.0) continue;
        acc += a * x[j];
      }
      xn[r] = acc + gamma_[r] * applied;
    }
    for (Index r = 0; r < n; ++r) x[r] = xn[r];
  }
  if (last_violation + 1 >= spec.horizon) return std::nullopt;
  return last_violation + 1;
}

Trace SwitchedLoop::simulate_schedule(const std::vector<bool>& modes,
                                      int total_samples) const {
  TTDIM_EXPECTS(total_samples >= static_cast<int>(modes.size()));
  Trace trace;
  trace.reserve(static_cast<size_t>(total_samples));
  LoopState s = disturbed_state();
  const double h = plant_.h();
  for (int k = 0; k < total_samples; ++k) {
    const bool tt = k < static_cast<int>(modes.size()) &&
                    modes[static_cast<size_t>(k)];
    const double y = output(s);
    const double u = tt ? step_tt(s) : step_et(s);
    trace.push_back({k * h, y, u});
  }
  return trace;
}

}  // namespace ttdim::control
