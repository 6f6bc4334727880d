#include "exec/traversal.h"

#include <algorithm>
#include <functional>

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
  link_next_.clear();
  link_parent_.clear();
}

void TraversalScratch::Grow(size_t need) {
  size_ = std::max(need, size_ + size_ / 2);
  for (std::vector<Slot>& side : sides_) side.resize(size_);
  head_.resize(size_, kNoLink);
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

void AllShortestPaths(const store::GraphStore& store,
                      const store::ReadGuard& pin, uint64_t person1,
                      uint64_t person2, size_t max_paths,
                      std::vector<std::vector<uint64_t>>* paths) {
  TraversalScratch& s = TraversalScratch::Local();
  s.Begin();
  s.Reach(person1);
  s.Mark(0, person1, 0);
  s.head_[person1] = TraversalScratch::kNoLink;
  std::vector<uint64_t>& frontier = s.frontier(0);
  std::vector<uint64_t>& next = s.next();
  frontier.assign(1, person1);

  // Level d links every node at depth d+1 to each of its depth-d
  // neighbours. Visiting a level in descending id order and prepending
  // each link leaves every parent list ascending. The level that reaches
  // person2 is the last one: all of person2's parents are then linked.
  bool found = false;
  for (uint32_t d = 0; !found && !frontier.empty(); ++d) {
    std::sort(frontier.begin(), frontier.end(), std::greater<>());
    next.clear();
    for (uint64_t pid : frontier) {
      const PersonRecord* p = store.FindPerson(pin, pid);
      if (p == nullptr) continue;
      for (const FriendEdge& e : p->friends.view()) {
        s.Reach(e.other);
        if (!s.Seen(0, e.other)) {
          s.Mark(0, e.other, d + 1);
          s.head_[e.other] = TraversalScratch::kNoLink;
          next.push_back(e.other);
          if (e.other == person2) found = true;
        } else if (s.Dist(0, e.other) != d + 1) {
          continue;
        }
        s.AddParent(e.other, pid);
      }
    }
    frontier.swap(next);
  }
  if (!found) return;

  // DFS backwards from person2; a frame's link is the next parent to try.
  std::vector<TraversalScratch::Frame>& stack = s.stack_;
  stack.assign(1, {person2, s.head_[person2]});
  while (!stack.empty() && paths->size() < max_paths) {
    TraversalScratch::Frame& frame = stack.back();
    if (frame.node == person1) {
      std::vector<uint64_t>& path = paths->emplace_back();
      path.reserve(stack.size());
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        path.push_back(it->node);
      }
      stack.pop_back();
      continue;
    }
    if (frame.link == TraversalScratch::kNoLink) {
      stack.pop_back();
      continue;
    }
    uint64_t parent = s.link_parent_[frame.link];
    frame.link = s.link_next_[frame.link];
    stack.push_back({parent, s.head_[parent]});
  }
}

}  // namespace snb::exec
