// In-memory transactional property-graph store — the System Under Test.
//
// The paper benchmarks Sparksee and Virtuoso; this store is the
// from-scratch substitute (see DESIGN.md). It keeps the whole SNB graph in
// adjacency-indexed form:
//   * persons with friend lists (sorted), created messages (in time order,
//     creation dates inline), the reply target of each created comment
//     (parent id, parent creator, parent kind), joined forums and given
//     likes;
//   * forums with member lists and contained root posts;
//   * messages (dense, id-indexed; ids increase with creation time, so the
//     message table is a clustered creation-date index — the locality
//     property discussed in section 3 of the paper);
//   * secondary structures mirroring Virtuoso's foreign-key indices.
//
// Concurrency: single writer / multi-reader. Every Add* call is one
// transaction under the store's writer lock (`mu_`, held exclusively), so
// writers serialize and no reader ever sees part of an update. The read
// path depends on the store's ReadConcurrency mode:
//
//   * kEpoch (default): readers never touch the writer lock. ReadLock()
//     returns a ReadGuard pinning the process-wide epoch domain
//     (util::EpochManager::Global(); two uncontended atomic ops on a
//     thread-private cache line — see util/epoch.h) and every shared
//     structure is published RCU-style: entity records live at stable
//     addresses in chunked DenseTables, adjacency lists are RcuVectors
//     whose buffers embed their element count, and a record becomes
//     visible only after its `ready` flag is release-stored — *before*
//     the record's id is linked into any adjacency list, so a reader can
//     always resolve every id it can see.
//     Updates are insert-only single statements, which is why these
//     per-object snapshots preserve the paper's observation that "systems
//     providing snapshot isolation behave identically to serializable"
//     for this workload (section 4); DESIGN.md spells out the argument.
//   * kGlobalLock: the pre-epoch behaviour — ReadLock() additionally
//     holds the writer lock shared, so the snapshot is the whole store
//     frozen between two transactions. Retained as the ablation baseline
//     for bench_table5_driver_scalability and for tests that want a frozen
//     whole-store snapshot.
//
// Writers validate referential integrity and fail with NotFound when a
// dependency is missing; the workload driver's dependency tracking is what
// makes such failures impossible, and the driver tests assert exactly that.
#ifndef SNB_STORE_GRAPH_STORE_H_
#define SNB_STORE_GRAPH_STORE_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "schema/entities.h"
#include "store/dense_table.h"
#include "util/epoch.h"
#include "util/invariant_root.h"
#include "util/mutex.h"
#include "util/rcu_vector.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace snb::store {

/// A friendship adjacency entry.
struct FriendEdge {
  schema::PersonId other = schema::kInvalidId;
  util::TimestampMs since = 0;
};

/// A generic (id, date) adjacency entry (membership, like, created
/// message).
struct DatedEdge {
  uint64_t id = schema::kInvalidId;
  util::TimestampMs date = 0;
};

/// What one created comment replies to: its parent message, the parent's
/// creator and whether the parent is itself a comment. Q12 and Q14 read
/// this instead of resolving the comment and its parent in the message
/// table.
struct ReplyEdge {
  schema::MessageId parent = schema::kInvalidId;
  schema::PersonId parent_creator = schema::kInvalidId;
  bool parent_is_comment = false;
};

/// Per-person storage: attributes plus adjacency indexes. `data` is
/// immutable once `ready` is published; adjacency lists keep growing.
struct PersonRecord {
  schema::Person data;
  /// Sorted by `other` (binary-search friend test).
  util::RcuVector<FriendEdge> friends;
  /// Messages created, sorted by (creation date, id) — maintained by
  /// insertion, so the order holds even when the driver applies two of a
  /// creator's messages out of due-time order (different forum
  /// partitions). The date rides inline so date-bounded scans (Q2/Q9)
  /// never touch the message table for candidates they discard.
  util::RcuVector<DatedEdge> messages;
  /// One entry per created comment, in application order.
  util::RcuVector<ReplyEdge> replied_to;
  /// Forums joined, with join dates.
  util::RcuVector<DatedEdge> forums;
  /// Likes given: liked message + like date.
  util::RcuVector<DatedEdge> likes;
  /// Release-published after `data` is filled.
  std::atomic<uint32_t> ready{0};

  bool present() const { return ready.load(std::memory_order_acquire) != 0; }
};

/// Per-forum storage.
struct ForumRecord {
  schema::Forum data;
  /// Members with join dates (insertion order).
  util::RcuVector<DatedEdge> members;
  /// Root posts/photos contained, ascending id.
  util::RcuVector<schema::MessageId> posts;
  std::atomic<uint32_t> ready{0};

  bool present() const { return ready.load(std::memory_order_acquire) != 0; }
};

/// Per-message storage.
struct MessageRecord {
  schema::Message data;
  /// Direct reply comments, ascending id.
  util::RcuVector<schema::MessageId> replies;
  /// Likes received: liker + like date.
  util::RcuVector<DatedEdge> likes;
  std::atomic<uint32_t> ready{0};

  bool present() const { return ready.load(std::memory_order_acquire) != 0; }
};

/// Byte sizes of the store's main structures (Table 8 equivalent).
struct StorageBreakdown {
  uint64_t message_bytes = 0;      // Messages, creator and reply lists.
  uint64_t message_content_bytes = 0;
  uint64_t likes_bytes = 0;        // Like edges (both directions).
  uint64_t membership_bytes = 0;   // forum_person edges (both directions).
  uint64_t friends_bytes = 0;      // Knows edges (both directions).
  uint64_t person_bytes = 0;       // Person attributes.
  uint64_t forum_bytes = 0;        // Forum attributes.

  uint64_t Total() const {
    return message_bytes + likes_bytes + membership_bytes + friends_bytes +
           person_bytes + forum_bytes;
  }
};

/// How ReadLock() provides snapshot semantics.
enum class ReadConcurrency {
  /// Lock-free epoch pins; readers scale with threads. Default.
  kEpoch,
  /// Shared mutexes; the pre-epoch baseline, kept for ablation and for
  /// callers that need a frozen whole-store snapshot.
  kGlobalLock,
};

/// RAII read snapshot: one `EpochPin` on the store's epoch domain plus, in
/// kGlobalLock mode, the store's writer lock held shared. Record pointers
/// and adjacency Views obtained from the store are valid while the guard
/// lives.
///
/// The guard is the capability token every store read accessor demands:
///
///   store::ReadGuard pin = store.ReadLock();
///   const PersonRecord* p = store.FindPerson(pin, id);
///
/// Guards are obtainable only from GraphStore::ReadLock() /
/// GraphStore::Pin(), and the pin inside only from EpochManager::pin();
/// there is no default-constructed disengaged state (a moved-from guard is
/// disengaged, but passing the moved-to guard is what the move sites do).
/// "Read without a guard" is a compile error — see tests/negative/. Taking
/// a guard never allocates.
class ReadGuard {
 public:
  ReadGuard(ReadGuard&&) noexcept = default;
  ReadGuard& operator=(ReadGuard&&) noexcept = default;

 private:
  friend class GraphStore;
  explicit ReadGuard(util::EpochPin pin) : pin_(std::move(pin)) {}

  util::EpochPin pin_;
  // Engaged only in kGlobalLock mode; default-constructed (unlocked)
  // otherwise, so kEpoch guards pay nothing for it. Declared after pin_ so
  // it is released first.
  std::shared_lock<std::shared_mutex> lock_;
};

/// The store. All read accessors require the caller to hold a ReadGuard
/// obtained from ReadLock() for snapshot-consistent reads; the Add*
/// methods are self-contained transactions.
class GraphStore {
 public:
  explicit GraphStore(ReadConcurrency mode = ReadConcurrency::kEpoch)
      : mode_(mode) {}
  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  ReadConcurrency read_concurrency() const { return mode_; }

  // ---- Loading & updates (each call is one ACID transaction) ----------

  /// Loads a full bulk dataset. Must be called on an empty store.
  util::Status BulkLoad(const schema::SocialNetwork& network);

  util::Status AddPerson(const schema::Person& person);
  util::Status AddFriendship(const schema::Knows& knows);
  util::Status AddForum(const schema::Forum& forum);
  util::Status AddForumMembership(const schema::ForumMembership& membership);
  /// Posts, photos and comments.
  util::Status AddMessage(const schema::Message& message);
  util::Status AddLike(const schema::Like& like);

  // ---- Read snapshot --------------------------------------------------

  /// Snapshot for a consistent multi-accessor read; hold it for the
  /// duration of a query. Pins the epoch (and takes the writer lock shared
  /// in kGlobalLock mode).
  ReadGuard ReadLock() const {
    ReadGuard guard = Pin();
    if (mode_ == ReadConcurrency::kGlobalLock) {
      guard.lock_ = std::shared_lock<std::shared_mutex>(mu_.native());
    }
    return guard;
  }

  /// Pin-only guard: an epoch pin with no shared lock in either mode. The
  /// connector's outer pin uses this to hold one epoch across a whole
  /// operation without nesting shared locks; semantics match ReadLock() in
  /// kEpoch mode.
  ReadGuard Pin() const {
    return ReadGuard(util::EpochManager::Global().pin());
  }

  // Every snapshot-read accessor takes a `const ReadGuard&` purely as a
  // compile-time proof that the caller holds an epoch critical section;
  // the guard is never inspected at run time, so the token costs nothing.
  // These are the fast paths the pinned_read binary invariant guards.

  /// nullptr when absent.
  const PersonRecord* FindPerson(const ReadGuard& /*guard*/,
                                 schema::PersonId id) const {
    // Checked by tools/snb_invariants ("pinned_read"): an epoch-pinned
    // accessor must never allocate, lock, sleep, or touch the kernel —
    // a pinned reader that blocks stalls every writer's grace period.
    // (Same for the two accessors below and AreFriends.)
    SNB_INVARIANT_ROOT("pinned_read");
    const PersonRecord* p = persons_.Slot(id);
    return p != nullptr && p->present() ? p : nullptr;
  }
  const ForumRecord* FindForum(const ReadGuard& /*guard*/,
                               schema::ForumId id) const {
    SNB_INVARIANT_ROOT("pinned_read");
    const ForumRecord* f = forums_.Slot(id);
    return f != nullptr && f->present() ? f : nullptr;
  }
  const MessageRecord* FindMessage(const ReadGuard& /*guard*/,
                                   schema::MessageId id) const {
    SNB_INVARIANT_ROOT("pinned_read");
    const MessageRecord* m = messages_.Slot(id);
    return m != nullptr && m->present() ? m : nullptr;
  }

  /// True when a and b are friends (binary search on a's friend list).
  bool AreFriends(const ReadGuard& guard, schema::PersonId a,
                  schema::PersonId b) const;

  /// Number of message ids ever allocated; message ids are < this bound
  /// and ascend with creation date. (Under kEpoch a bound-covered id may
  /// still be in flight — FindMessage returns nullptr for it.)
  schema::MessageId MessageIdBound() const { return messages_.bound(); }

  /// All person ids, ascending (for whole-graph scans in tests/benches).
  std::vector<schema::PersonId> PersonIds(const ReadGuard& guard) const;
  /// All forum ids, ascending.
  std::vector<schema::ForumId> ForumIds(const ReadGuard& guard) const;

  uint64_t NumPersons() const {
    return num_persons_.load(std::memory_order_acquire);
  }
  uint64_t NumForums() const {
    return num_forums_.load(std::memory_order_acquire);
  }
  uint64_t NumKnowsEdges() const {
    return num_knows_.load(std::memory_order_acquire);
  }
  uint64_t NumMessages() const {
    return num_messages_.load(std::memory_order_acquire);
  }
  uint64_t NumLikes() const {
    return num_likes_.load(std::memory_order_acquire);
  }
  uint64_t NumMemberships() const {
    return num_memberships_.load(std::memory_order_acquire);
  }

  /// Table 8 equivalent: allocated bytes per major structure. Holds the
  /// writer lock shared for the scan.
  StorageBreakdown ComputeStorageBreakdown() const;

  /// Occupancy of one entity table: live records vs slots backed by
  /// allocated chunks vs the id bound. used <= allocated_slots; for sparse
  /// id spaces (forums) allocated_slots << bound.
  struct TableOccupancy {
    uint64_t used = 0;
    uint64_t allocated_slots = 0;
    uint64_t bound = 0;
  };
  TableOccupancy PersonTableStats() const {
    return {NumPersons(), persons_.allocated_slots(), persons_.bound()};
  }
  TableOccupancy ForumTableStats() const {
    return {NumForums(), forums_.allocated_slots(), forums_.bound()};
  }
  TableOccupancy MessageTableStats() const {
    return {NumMessages(), messages_.allocated_slots(), messages_.bound()};
  }

  /// Version of the Knows graph: bumped by every AddFriendship. Cached
  /// derived results over the friendship graph (e.g. recycled 2-hop
  /// neighbourhoods) are valid as long as this does not change.
  uint64_t KnowsVersion() const {
    return knows_version_.load(std::memory_order_acquire);
  }

  /// The epoch domain the store retires buffers to.
  util::EpochManager& epoch_manager() const {
    return util::EpochManager::Global();
  }

 private:
  // Ids index chunked tables, so a corrupt giant id must fail loudly
  // instead of allocating a giant directory. Datagen ids are dense and
  // nowhere near this.
  static constexpr uint64_t kMaxEntityId = uint64_t{1} << 40;

  const ReadConcurrency mode_;
  /// The writer lock: every Add* holds it exclusively for the whole
  /// transaction; kGlobalLock ReadLock() holds it shared.
  mutable util::SharedMutex mu_;
  // The DenseTables are deliberately NOT SNB_GUARDED_BY(mu_): kEpoch
  // readers access them lock-free under the guard's EpochPin (the RCU
  // publication protocol in the file comment), which the mutex analysis
  // cannot model — the ReadGuard token parameter on the read accessors is
  // the compile-time check for that side. Writer-side discipline (every
  // mutation sits inside an Add* body that opens with
  // `WriterMutexLock lock(&mu_)`) is documented in DESIGN.md's lock table
  // and exercised by the TSan'd concurrency tests.
  DenseTable<PersonRecord> persons_;
  /// Sparse id space (owner_id * slots_per_person + slot); absent chunks
  /// cost one null directory entry.
  DenseTable<ForumRecord> forums_;
  DenseTable<MessageRecord> messages_;

  std::atomic<uint64_t> knows_version_{0};
  std::atomic<uint64_t> num_persons_{0};
  std::atomic<uint64_t> num_forums_{0};
  std::atomic<uint64_t> num_knows_{0};
  std::atomic<uint64_t> num_messages_{0};
  std::atomic<uint64_t> num_likes_{0};
  std::atomic<uint64_t> num_memberships_{0};
};

}  // namespace snb::store

#endif  // SNB_STORE_GRAPH_STORE_H_
