#include "exec/traversal.h"

#include <algorithm>

namespace snb::exec {

using store::FriendEdge;
using store::PersonRecord;

TraversalScratch& TraversalScratch::Local() {
  static thread_local TraversalScratch scratch;
  return scratch;
}

void TraversalScratch::Begin() {
  if (++epoch_ == 0) {
    for (std::vector<Slot>& side : sides_) {
      std::fill(side.begin(), side.end(), Slot{});
    }
    epoch_ = 1;
  }
}

void TraversalScratch::Grow(size_t need) {
  size_ = std::max(need, size_ + size_ / 2);
  for (std::vector<Slot>& side : sides_) side.resize(size_);
}

int ShortestPathLength(const store::GraphStore& store,
                       const store::ReadGuard& pin, uint64_t person1,
                       uint64_t person2) {
  TraversalScratch& s = TraversalScratch::Local();
  s.Begin();
  s.Reach(person1);
  s.Reach(person2);
  s.Mark(0, person1, 0);
  s.Mark(1, person2, 0);
  s.frontier(0).assign(1, person1);
  s.frontier(1).assign(1, person2);
  std::vector<uint64_t>& next = s.next();
  uint32_t depth[2] = {0, 0};

  while (!s.frontier(0).empty() || !s.frontier(1).empty()) {
    size_t fwd = s.frontier(0).size();
    size_t bwd = s.frontier(1).size();
    int side = (fwd <= bwd ? fwd != 0 : bwd == 0) ? 0 : 1;
    int other = 1 - side;
    uint32_t d = ++depth[side];
    int best = -1;
    next.clear();
    for (uint64_t pid : s.frontier(side)) {
      const PersonRecord* p = store.FindPerson(pin, pid);
      if (p == nullptr) continue;
      for (const FriendEdge& e : p->friends.view()) {
        s.Reach(e.other);
        if (s.Seen(side, e.other)) continue;
        s.Mark(side, e.other, d);
        if (s.Seen(other, e.other)) {
          int total = static_cast<int>(d + s.Dist(other, e.other));
          if (best < 0 || total < best) best = total;
        }
        next.push_back(e.other);
      }
    }
    s.frontier(side).swap(next);
    if (best >= 0) return best;
  }
  return -1;
}

namespace {

using FriendView = util::RcuVector<FriendEdge>::View;

FriendView FriendsOf(const store::GraphStore& store,
                     const store::ReadGuard& pin, uint64_t id) {
  const PersonRecord* p = store.FindPerson(pin, id);
  return p == nullptr ? FriendView() : p->friends.view();
}

/// True iff the id-sorted `friends` holds `id`.
bool Holds(const FriendView& friends, uint64_t id) {
  auto it = std::lower_bound(
      friends.begin(), friends.end(), id,
      [](const FriendEdge& e, uint64_t v) { return e.other < v; });
  return it != friends.end() && it->other == id;
}

}  // namespace

void AllShortestPaths(const store::GraphStore& store,
                      const store::ReadGuard& pin, uint64_t person1,
                      uint64_t person2, size_t max_paths,
                      std::vector<std::vector<uint64_t>>* paths) {
  TraversalScratch& s = TraversalScratch::Local();
  s.Begin();
  const PersonRecord* target = store.FindPerson(pin, person2);
  if (target == nullptr) return;
  // Read once: the stop test and the DFS root see the same friend list.
  FriendView into = target->friends.view();
  auto at = [&s](uint64_t id, uint32_t depth) {
    return s.Has(0, id) && s.Dist(0, id) == depth;
  };
  // The BFS follows a hop along the list of its nearer end, so a hop
  // counts only when that list holds the farther end. AddFriendship
  // publishes the two halves of a friendship one after the other; a
  // concurrent reader may see either half alone.
  auto has_parent_at = [&](uint32_t depth) {
    for (const FriendEdge& e : into) {
      if (at(e.other, depth) &&
          Holds(FriendsOf(store, pin, e.other), person2)) {
        return true;
      }
    }
    return false;
  };

  s.Reach(person1);
  s.Mark(0, person1, 0);
  std::vector<uint64_t>& frontier = s.frontier(0);
  std::vector<uint64_t>& next = s.next();
  frontier.assign(1, person1);
  uint32_t d = 0;
  for (; !has_parent_at(d); ++d) {
    if (frontier.empty()) return;  // person2 is unreachable.
    next.clear();
    for (uint64_t pid : frontier) {
      for (const FriendEdge& e : FriendsOf(store, pin, pid)) {
        s.Reach(e.other);
        if (s.Seen(0, e.other)) continue;
        s.Mark(0, e.other, d + 1);
        next.push_back(e.other);
      }
    }
    frontier.swap(next);
  }

  // DFS backwards from person2 (depth d + 1). A frame's parent candidates
  // are its friends at one depth less, tried in friend-list (ascending id)
  // order; a candidate is taken only when its own list holds the frame's
  // node, as in the stop test. Only person1 sits at depth 0; its list is
  // read after the BFS, so it holds every friend the BFS expanded.
  FriendView source = FriendsOf(store, pin, person1);
  std::vector<TraversalScratch::Frame>& stack = s.stack_;
  stack.assign(1, {person2, d + 1, into.begin(), into.end()});
  while (!stack.empty() && paths->size() < max_paths) {
    TraversalScratch::Frame& frame = stack.back();
    if (frame.depth == 0) {
      std::vector<uint64_t>& path = paths->emplace_back();
      path.reserve(stack.size());
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        path.push_back(it->node);
      }
      stack.pop_back();
      continue;
    }
    uint32_t want = frame.depth - 1;
    while (frame.next != frame.end && !at(frame.next->other, want)) {
      ++frame.next;
    }
    if (frame.next == frame.end) {
      stack.pop_back();
      continue;
    }
    uint64_t child = frame.node;
    uint64_t parent = (frame.next++)->other;
    FriendView friends = want == 0 ? source : FriendsOf(store, pin, parent);
    if (!Holds(friends, child)) continue;
    stack.push_back({parent, want, friends.begin(), friends.end()});
  }
}

}  // namespace snb::exec
