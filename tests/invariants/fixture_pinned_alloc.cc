// Mutation fixture: an epoch-pinned read that allocates. A store accessor
// (FindPerson resolving a record, then chasing one adjacency id to a
// second record) runs under a single ReadGuard pin, so an allocation
// anywhere in the gather path stalls the writer's grace period for as long
// as malloc takes. The checker must report the denylist hit with the path
// BadPinnedGather -> operator new[].
#include <cstdint>

#include "util/invariant_root.h"

namespace fixture {

// A toy record table: each slot holds the id of one adjacent record.
uint64_t g_slots[8];
uint64_t* volatile g_sink = nullptr;

__attribute__((noinline, used)) uint64_t BadPinnedGather(uint64_t id) {
  SNB_INVARIANT_ROOT("pinned_read");
  // Resolve the record, then follow its "edge" to a second record — the
  // chase a pinned read makes legal.
  uint64_t local = g_slots[id % 8];
  uint64_t remote = g_slots[local % 8];
  // The violation: gathering the results into a fresh buffer while the
  // epoch is still pinned.
  uint64_t* gathered = new uint64_t[2];
  gathered[0] = local;
  gathered[1] = remote;
  g_sink = gathered;
  uint64_t sum = gathered[0] + gathered[1];
  delete[] gathered;
  return sum;
}

}  // namespace fixture

uint64_t (*volatile g_gather)(uint64_t) = &fixture::BadPinnedGather;

int main(int argc, char**) {
  return static_cast<int>(g_gather(static_cast<uint64_t>(argc)) & 1);
}
