#include "control/lti.h"

#include <stdexcept>

#include "linalg/solve.h"
#include "support/check.h"

namespace ttdim::control {

DiscreteLti::DiscreteLti(Matrix phi, Matrix gamma, Matrix c, double h)
    : phi_(std::move(phi)), gamma_(std::move(gamma)), c_(std::move(c)), h_(h) {
  TTDIM_EXPECTS(phi_.is_square());
  TTDIM_EXPECTS(gamma_.rows() == phi_.rows());
  TTDIM_EXPECTS(c_.cols() == phi_.rows());
  if (!(h_ > 0.0))
    throw std::invalid_argument("DiscreteLti: sampling period must be > 0");
  if (!phi_.all_finite() || !gamma_.all_finite() || !c_.all_finite())
    throw std::invalid_argument("DiscreteLti: non-finite plant entry");
}

DiscreteLti DiscreteLti::augmented_delay_model() const {
  const Index n = n_states();
  const Index m = n_inputs();
  Matrix phi_aug(n + m, n + m);
  phi_aug.set_block(0, 0, phi_);
  phi_aug.set_block(0, n, gamma_);
  Matrix gamma_aug(n + m, m);
  gamma_aug.set_block(n, 0, Matrix::identity(m));
  Matrix c_aug(c_.rows(), n + m);
  c_aug.set_block(0, 0, c_);
  return DiscreteLti(phi_aug, gamma_aug, c_aug, h_);
}

Matrix DiscreteLti::unit_output_state() const {
  // Minimum-norm solution of c x0 = 1 (first output): x0 = c' (c c')^{-1} e1.
  const Matrix ct = c_.transpose();
  const Matrix gram = c_ * ct;
  Matrix e1(c_.rows(), 1);
  e1(0, 0) = 1.0;
  return ct * linalg::solve(gram, e1);
}

void append_canonical(std::string& out, const DiscreteLti& plant) {
  out += "phi=";
  linalg::append_canonical_bits(out, plant.phi());
  out += "gam=";
  linalg::append_canonical_bits(out, plant.gamma());
  out += "c=";
  linalg::append_canonical_bits(out, plant.c());
  out += "h=";
  linalg::append_canonical_bits(out, Matrix{{plant.h()}});
}

void encode(support::codec::Encoder& enc, const DiscreteLti& plant) {
  linalg::encode(enc, plant.phi());
  linalg::encode(enc, plant.gamma());
  linalg::encode(enc, plant.c());
  enc.f64(plant.h());
}

std::optional<DiscreteLti> decode_lti(support::codec::Decoder& dec) {
  Matrix phi;
  Matrix gamma;
  Matrix c;
  double h = 0.0;
  if (!linalg::decode(dec, phi) || !linalg::decode(dec, gamma) ||
      !linalg::decode(dec, c) || !dec.f64(h))
    return std::nullopt;
  if (!phi.is_square() || gamma.rows() != phi.rows() ||
      c.cols() != phi.rows() || !(h > 0.0) || !phi.all_finite() ||
      !gamma.all_finite() || !c.all_finite())
    return std::nullopt;
  return DiscreteLti(std::move(phi), std::move(gamma), std::move(c), h);
}

Matrix closed_loop(const DiscreteLti& plant, const Matrix& k) {
  TTDIM_EXPECTS(k.rows() == plant.n_inputs() && k.cols() == plant.n_states());
  return plant.phi() - plant.gamma() * k;
}

SwitchedModes switched_modes(const DiscreteLti& plant, const Matrix& kt,
                             const Matrix& ke) {
  const Index n = plant.n_states();
  TTDIM_EXPECTS(plant.n_inputs() == 1);
  TTDIM_EXPECTS(kt.rows() == 1 && kt.cols() == n);
  TTDIM_EXPECTS(ke.rows() == 1 && ke.cols() == n + 1);

  Matrix a_tt(n + 1, n + 1);
  a_tt.set_block(0, 0, closed_loop(plant, kt));
  a_tt.set_block(n, 0, -kt);

  Matrix a_et(n + 1, n + 1);
  a_et.set_block(0, 0, plant.phi());
  a_et.set_block(0, n, plant.gamma());
  a_et.set_block(n, 0, -ke);

  return {a_tt, a_et};
}

}  // namespace ttdim::control
