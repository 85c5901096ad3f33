// Dwell-time analysis of the bi-modal switching strategy (paper Sec. 3).
//
// For every wait time Tw (samples spent in mode ME after a disturbance
// before the TT slot is granted) the analysis precomputes, by exhaustive
// simulation of the switched closed loop:
//   T-dw(Tw): minimum TT dwell meeting the settling requirement J <= J*,
//   T+dw(Tw): dwell beyond which settling no longer improves,
//   T*w:      maximum wait for which the requirement is still satisfiable.
#pragma once

#include <optional>
#include <vector>

#include "control/sim.h"
#include "support/codec.h"

namespace ttdim::switching {

using control::SettlingSpec;
using control::SwitchedLoop;

/// Hard caps guarding against requirements that can never be met.
constexpr int kMaxWait = 512;
constexpr int kMaxDwell = 512;

/// Parameters of the dwell-time analysis.
struct DwellAnalysisSpec {
  int settling_requirement = 0;  ///< J*, in samples; must be > 0
  SettlingSpec settling{};       ///< threshold + simulation horizon
  /// Tw is explored on multiples of this granularity (paper Sec. 3: "we
  /// can choose Tw with a certain granularity to enhance scalability";
  /// granularity > 1 trades conservativeness for table size).
  int tw_granularity = 1;
};

/// Dwell-time tables of one application. Indices of `t_minus` / `t_plus` /
/// `settling_at_plus` are Tw = 0, g, 2g, ... t_star_w for granularity g.
struct DwellTables {
  int t_star_w = -1;             ///< T*w; -1 when even Tw = 0 is infeasible
  std::vector<int> t_minus;      ///< T-dw(Tw)
  std::vector<int> t_plus;       ///< T+dw(Tw)
  std::vector<int> settling_at_minus;  ///< J(Tw, T-dw(Tw)), samples
  std::vector<int> settling_at_plus;   ///< J(Tw, T+dw(Tw)), samples
  int settling_tt = 0;           ///< JT: settling when always in MT
  int settling_et = 0;           ///< JE: settling when never leaving ME
  int tw_granularity = 1;

  [[nodiscard]] bool feasible() const noexcept { return t_star_w >= 0; }
  /// Number of table entries (T*w / granularity + 1).
  [[nodiscard]] int entries() const noexcept {
    return static_cast<int>(t_minus.size());
  }
  /// Table lookup for an arbitrary wait (rounded up to the next multiple
  /// of the granularity, the conservative direction).
  [[nodiscard]] int t_minus_at(int wait) const;
  [[nodiscard]] int t_plus_at(int wait) const;
  /// Largest T-dw entry (used as a mapping-order tiebreak in Sec. 5).
  [[nodiscard]] int max_t_minus() const;
};

/// Append canonical serializations to `out`: the analysis parameters
/// (requirement, settling spec, granularity, caps — the dwell half of an
/// engine::analysis::AppAnalysisKey; compute_dwell_tables is a pure
/// function of the loop and this spec) and assembled tables (for
/// bit-exact cached-vs-fresh comparisons), plus the tables' resident byte
/// size for byte-budgeted caches.
void append_canonical(std::string& out, const DwellAnalysisSpec& spec);
void append_canonical(std::string& out, const DwellTables& tables);
[[nodiscard]] std::size_t byte_cost(const DwellTables& tables);

/// Round-trip binary codec for disk-cached dwell tables. decode returns
/// false on malformed input and never throws.
void encode(support::codec::Encoder& enc, const DwellTables& tables);
[[nodiscard]] bool decode(support::codec::Decoder& dec, DwellTables& tables);

/// The settling map J(Tw, Tdw) used by Fig. 3: settling time in samples for
/// every (wait, dwell) pair in the given ranges; nullopt when the pattern
/// fails to settle within the horizon.
struct SettlingMap {
  int wait_count = 0;
  int dwell_count = 0;
  std::vector<std::optional<int>> j;  ///< row-major [wait][dwell]

  [[nodiscard]] const std::optional<int>& at(int wait, int dwell) const;
};

/// One assembled table row: the dwell bounds and achieved settling times
/// for a single wait value. Rows are pure functions of (loop, wait, spec),
/// which is what lets the oracle layer evaluate candidate waits in
/// parallel and still assemble byte-identical tables.
struct DwellRow {
  int t_minus = 0;            ///< T-dw(Tw)
  int t_plus = 0;             ///< T+dw(Tw)
  int settling_at_minus = 0;  ///< J(Tw, T-dw(Tw))
  int settling_at_plus = 0;   ///< J(Tw, T+dw(Tw))
};

/// Evaluate one candidate wait: nullopt when the settling requirement is
/// unmeetable at this wait (the serial search stops at the first such row).
[[nodiscard]] std::optional<DwellRow> compute_dwell_row(
    const SwitchedLoop& loop, int wait, const DwellAnalysisSpec& spec);

/// Validate the spec and measure the mode-only settling times JT / JE.
/// Shared prologue of the serial and parallel table searches; throws
/// std::invalid_argument exactly like compute_dwell_tables.
struct DwellEndpoints {
  int settling_tt = 0;  ///< JT
  int settling_et = 0;  ///< JE (horizon when ME alone never settles)
};
[[nodiscard]] DwellEndpoints check_dwell_spec(const SwitchedLoop& loop,
                                              const DwellAnalysisSpec& spec);

/// Exhaustively simulate all switching patterns allowed by the strategy
/// and assemble the dwell tables. A pattern whose wait plus dwell overruns
/// the settling horizon counts as not settled, so the search also stops at
/// the first wait that leaves no room for a dwell. Throws
/// std::invalid_argument when the requirement is unmeetable even with a
/// dedicated slot (J* < JT) or the spec is malformed.
[[nodiscard]] DwellTables compute_dwell_tables(const SwitchedLoop& loop,
                                               const DwellAnalysisSpec& spec);

/// Settling map over wait in [0, wait_count) and dwell in [0, dwell_count).
[[nodiscard]] SettlingMap compute_settling_map(const SwitchedLoop& loop,
                                               int wait_count, int dwell_count,
                                               const SettlingSpec& settling);

/// Run-length encoded dwell table: the paper notes T-dw / T+dw take only a
/// few distinct values, so run-length pairs store them compactly on an ECU.
struct RunLengthTable {
  struct Run {
    int length = 0;
    int value = 0;
  };
  std::vector<Run> runs;

  [[nodiscard]] static RunLengthTable encode(const std::vector<int>& values);
  [[nodiscard]] std::vector<int> decode() const;
  /// Entries a naive array would need vs. what the encoding stores.
  [[nodiscard]] int encoded_words() const noexcept {
    return 2 * static_cast<int>(runs.size());
  }
  [[nodiscard]] int decoded_length() const;
};

}  // namespace ttdim::switching
