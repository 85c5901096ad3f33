// Negative probe for the parallel verifier's striped visited set
// (cmake/TtdimThreadSafetyCheck.cmake): this file MUST NOT compile under
// clang with -Wthread-safety -Werror. It calls the REQUIRES-annotated
// batched-flush helpers of verify::detail::StripedVisitedSet without
// holding the stripe's mutex — exactly the unguarded access the parallel
// BFS driver's per-chunk flush protocol must never perform. If this ever
// compiles under the analysis, the GUARDED_BY/REQUIRES contracts on the
// striped set are dead and the parallel driver's dedup is unproven.
// Compiled standalone via try_compile; NOT part of the tests/*.cpp glob.
// Under g++ the macros are no-ops and the file compiles — the negative
// check only runs on the clang lane.
#include "verify/visited_set.h"

int main() {
  using Key = ttdim::verify::detail::StateCode;
  ttdim::verify::detail::StripedVisitedSet<Key> visited;
  const Key key{3};
  const std::size_t hash =
      ttdim::verify::detail::VisitedSet<Key>::hash_of(key);
  auto& stripe = visited.stripe_of(hash);
  // Violation: the batched-flush helpers demand the stripe lock.
  visited.reserve_in_stripe(stripe, 1);
  return visited.insert_in_stripe(stripe, hash, key) ? 0 : 1;
}
