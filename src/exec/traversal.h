// The Knows-graph traversal kernel behind Q1, Q13 and Q14.
//
// Person ids are dense (datagen counts them up from zero, and the store's
// DenseTable is id-indexed), so per-person traversal state lives in flat
// arrays indexed by id instead of hash maps. The arrays are per-thread
// scratch that outlives the query:
//
//   * two sides (forward from the first endpoint, backward from the
//     second) of {stamp, dist} slots. A slot is marked in the current
//     traversal iff its stamp equals the scratch's epoch, so starting a
//     traversal is O(1): bump the epoch. When the u32 epoch wraps to 0
//     every stamp is cleared once and the epoch restarts at 1 — stamp 0
//     never matches, which is also what freshly grown slots hold;
//   * reusable frontier buffers and a DFS stack.
//
// The arrays grow (geometrically, marks preserved) whenever an id at or
// past their size is touched — a person published by a concurrent writer
// mid-query shows up this way — so the kernel needs no id bound up front.
// Once warm, a traversal allocates nothing but its own output.
//
// One traversal at a time per thread: the entry points are not reentrant
// (the Q1 callback must not start another traversal).
#ifndef SNB_EXEC_TRAVERSAL_H_
#define SNB_EXEC_TRAVERSAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "store/graph_store.h"

namespace snb::exec {

class TraversalScratch {
 public:
  /// This thread's scratch.
  static TraversalScratch& Local();

  /// Starts a traversal: forgets every mark.
  void Begin();

  /// Makes `id` addressable; call before touching any id.
  void Reach(uint64_t id) {
    if (id >= size_) Grow(id + 1);
  }

  bool Seen(int side, uint64_t id) const {
    return sides_[side][id].stamp == epoch_;
  }
  /// Seen() for any id, addressable or not.
  bool Has(int side, uint64_t id) const {
    return id < size_ && Seen(side, id);
  }
  uint32_t Dist(int side, uint64_t id) const { return sides_[side][id].dist; }
  void Mark(int side, uint64_t id, uint32_t dist) {
    sides_[side][id] = {epoch_, dist};
  }

  /// Frontier buffers: one per side plus the level under construction.
  std::vector<uint64_t>& frontier(int side) { return frontier_[side]; }
  std::vector<uint64_t>& next() { return next_; }

  /// Addressable ids: [0, size()).
  size_t size() const { return size_; }
  uint32_t epoch() const { return epoch_; }
  /// Test seam: jumps the epoch (e.g. to UINT32_MAX to force a wrap).
  void SetEpochForTesting(uint32_t epoch) { epoch_ = epoch; }

 private:
  friend void AllShortestPaths(const store::GraphStore& store,
                               const store::ReadGuard& pin, uint64_t person1,
                               uint64_t person2, size_t max_paths,
                               std::vector<std::vector<uint64_t>>* paths);

  struct Slot {
    uint32_t stamp = 0;
    uint32_t dist = 0;
  };
  /// A DFS node at BFS depth `depth`; [next, end) is the rest of its
  /// friend list still to be tried as parents.
  struct Frame {
    uint64_t node;
    uint32_t depth;
    const store::FriendEdge* next;
    const store::FriendEdge* end;
  };

  void Grow(size_t need);

  uint32_t epoch_ = 0;
  size_t size_ = 0;
  std::vector<Slot> sides_[2];
  std::vector<uint64_t> frontier_[2];
  std::vector<uint64_t> next_;
  std::vector<Frame> stack_;
};

/// Level-bounded expansion (Q1): calls on_reached(id, distance) once for
/// every person first reached at 1..max_hops Knows-hops from `start`
/// (`start` itself excluded), level by level.
template <typename OnReached>
void ExpandWithinHops(const store::GraphStore& store,
                      const store::ReadGuard& pin, uint64_t start,
                      uint32_t max_hops, OnReached&& on_reached) {
  TraversalScratch& s = TraversalScratch::Local();
  s.Begin();
  s.Reach(start);
  s.Mark(0, start, 0);
  std::vector<uint64_t>& frontier = s.frontier(0);
  std::vector<uint64_t>& next = s.next();
  frontier.assign(1, start);
  for (uint32_t distance = 1; distance <= max_hops && !frontier.empty();
       ++distance) {
    next.clear();
    for (uint64_t pid : frontier) {
      const store::PersonRecord* p = store.FindPerson(pin, pid);
      if (p == nullptr) continue;
      for (const store::FriendEdge& e : p->friends.view()) {
        s.Reach(e.other);
        if (s.Seen(0, e.other)) continue;
        s.Mark(0, e.other, distance);
        next.push_back(e.other);
        on_reached(e.other, distance);
      }
    }
    frontier.swap(next);
  }
}

/// Length of a shortest Knows path between two distinct persons, -1 when
/// none exists (Q13). Bidirectional BFS: each round fully expands the
/// side with the smaller frontier and stops at the first round that meets
/// the other side, returning the shortest meeting found in that round.
int ShortestPathLength(const store::GraphStore& store,
                       const store::ReadGuard& pin, uint64_t person1,
                       uint64_t person2);

/// Every shortest Knows path person1 -> person2 (distinct persons), at
/// most `max_paths`, appended to `paths` (Q14). A level-synchronous BFS
/// from person1 stops one level early: before expanding level d it scans
/// person2's friend list, and the first friend at depth d whose own list
/// holds person2 puts person2 at d + 1 with every depth <= d final. An
/// iterative DFS from person2 then takes a depth-k node's parents from its
/// id-sorted friend list (the friends at depth k - 1 whose own lists hold
/// the node), so the enumeration order — and where the `max_paths` cut
/// lands — is that of a DFS over id-sorted parent lists, and every hop
/// path[i] -> path[i + 1] is held by path[i]'s list, the direction the BFS
/// follows. Each descent lowers the depth by one, so the stack holds at
/// most d + 2 frames. Appends nothing when person2 is unreachable.
void AllShortestPaths(const store::GraphStore& store,
                      const store::ReadGuard& pin, uint64_t person1,
                      uint64_t person2, size_t max_paths,
                      std::vector<std::vector<uint64_t>>* paths);

}  // namespace snb::exec

#endif  // SNB_EXEC_TRAVERSAL_H_
