#include "store/graph_store.h"

#include <algorithm>
#include <string>

#include "util/mutex.h"

namespace snb::store {

using schema::Knows;
using schema::Message;
using schema::Person;
using util::Status;

namespace {

constexpr auto kFriendLess = [](const FriendEdge& a, const FriendEdge& b) {
  return a.other < b.other;
};

Status BadId(const char* what, uint64_t id) {
  return Status::InvalidArgument(std::string(what) + " id out of range: " +
                                 std::to_string(id));
}

/// `rec` when it is a published record, else nullptr (absent or empty
/// slot).
template <typename Record>
Record* Live(Record* rec) {
  return rec != nullptr && rec->present() ? rec : nullptr;
}

}  // namespace

// ---- Public transactional API ----------------------------------------------
//
// Each transaction holds the writer lock for its whole body: a
// referential-validation prefix (presence checks on the DenseTable slots),
// then every insert and counter bump. Publication order is what makes
// kEpoch readers safe: a record's payload is stored, then its `ready` flag
// release-published, and only then is its id linked into adjacency lists
// (whose RcuVector appends are themselves release stores). A reader that
// can see an id in any list therefore sees the fully built record behind
// it. Check order and status strings are what the differential fuzzer's
// oracle and the golden sets expect.

Status GraphStore::BulkLoad(const schema::SocialNetwork& network) {
  if (NumPersons() != 0 || MessageIdBound() != 0) {
    return Status::FailedPrecondition("BulkLoad requires an empty store");
  }
  for (const Person& p : network.persons) {
    SNB_RETURN_IF_ERROR(AddPerson(p));
  }
  for (const Knows& k : network.knows) {
    SNB_RETURN_IF_ERROR(AddFriendship(k));
  }
  for (const schema::Forum& f : network.forums) {
    SNB_RETURN_IF_ERROR(AddForum(f));
  }
  for (const schema::ForumMembership& fm : network.memberships) {
    SNB_RETURN_IF_ERROR(AddForumMembership(fm));
  }
  for (const Message& m : network.messages) {
    SNB_RETURN_IF_ERROR(AddMessage(m));
  }
  for (const schema::Like& l : network.likes) {
    SNB_RETURN_IF_ERROR(AddLike(l));
  }
  return Status::Ok();
}

Status GraphStore::AddPerson(const Person& person) {
  if (person.id >= kMaxEntityId) return BadId("person", person.id);
  util::WriterMutexLock lock(&mu_);
  PersonRecord* rec = persons_.GrowToSlot(person.id, epoch_manager());
  if (rec->present()) {
    return Status::AlreadyExists("person " + std::to_string(person.id));
  }
  rec->data = person;
  rec->ready.store(1, std::memory_order_release);
  num_persons_.fetch_add(1, std::memory_order_release);
  return Status::Ok();
}

Status GraphStore::AddFriendship(const Knows& knows) {
  util::WriterMutexLock lock(&mu_);
  PersonRecord* p1 = Live(persons_.MutableSlot(knows.person1_id));
  PersonRecord* p2 = Live(persons_.MutableSlot(knows.person2_id));
  if (p1 == nullptr || p2 == nullptr) {
    return Status::NotFound("friendship endpoint missing");
  }
  util::EpochManager& epoch = epoch_manager();
  p1->friends.insert_sorted({knows.person2_id, knows.creation_date},
                            kFriendLess, epoch);
  p2->friends.insert_sorted({knows.person1_id, knows.creation_date},
                            kFriendLess, epoch);
  num_knows_.fetch_add(1, std::memory_order_release);
  knows_version_.fetch_add(1, std::memory_order_release);
  return Status::Ok();
}

Status GraphStore::AddForum(const schema::Forum& forum) {
  if (forum.id >= kMaxEntityId) return BadId("forum", forum.id);
  util::WriterMutexLock lock(&mu_);
  if (Live(persons_.MutableSlot(forum.moderator_id)) == nullptr) {
    return Status::NotFound("forum moderator missing");
  }
  ForumRecord* rec = forums_.GrowToSlot(forum.id, epoch_manager());
  if (rec->present()) {
    return Status::AlreadyExists("forum " + std::to_string(forum.id));
  }
  rec->data = forum;
  rec->ready.store(1, std::memory_order_release);
  num_forums_.fetch_add(1, std::memory_order_release);
  return Status::Ok();
}

Status GraphStore::AddForumMembership(
    const schema::ForumMembership& membership) {
  util::WriterMutexLock lock(&mu_);
  PersonRecord* person = Live(persons_.MutableSlot(membership.person_id));
  ForumRecord* forum = Live(forums_.MutableSlot(membership.forum_id));
  if (person == nullptr || forum == nullptr) {
    return Status::NotFound("membership endpoint missing");
  }
  util::EpochManager& epoch = epoch_manager();
  person->forums.push_back({membership.forum_id, membership.join_date},
                           epoch);
  forum->members.push_back({membership.person_id, membership.join_date},
                           epoch);
  num_memberships_.fetch_add(1, std::memory_order_release);
  return Status::Ok();
}

Status GraphStore::AddMessage(const Message& message) {
  if (message.id >= kMaxEntityId) return BadId("message", message.id);
  util::WriterMutexLock lock(&mu_);
  PersonRecord* creator = Live(persons_.MutableSlot(message.creator_id));
  if (creator == nullptr) {
    return Status::NotFound("message creator missing");
  }
  MessageRecord* parent = nullptr;
  ForumRecord* forum = nullptr;
  if (message.kind == schema::MessageKind::kComment) {
    parent = Live(messages_.MutableSlot(message.reply_to_id));
    if (parent == nullptr) return Status::NotFound("comment parent missing");
  } else {
    forum = Live(forums_.MutableSlot(message.forum_id));
    if (forum == nullptr) return Status::NotFound("post forum missing");
  }
  util::EpochManager& epoch = epoch_manager();
  MessageRecord* rec = messages_.GrowToSlot(message.id, epoch);
  if (rec->present()) {
    return Status::AlreadyExists("message " + std::to_string(message.id));
  }
  rec->data = message;
  rec->ready.store(1, std::memory_order_release);
  num_messages_.fetch_add(1, std::memory_order_release);
  // Keep the creator's message list sorted by (date, id) regardless of
  // application order. Q2/Q9 binary-search this list by date and S2 walks
  // it newest-first; the windowed and parallel-GCT drivers may apply two
  // messages of one creator out of due-time order when they fall into
  // different forum partitions, so insertion — not arrival — establishes
  // the invariant. Datagen streams are mostly ordered, so this is an O(1)
  // append except for the rare cross-partition inversion.
  creator->messages.insert_sorted(
      {message.id, message.creation_date},
      [](const DatedEdge& a, const DatedEdge& b) {
        if (a.date != b.date) return a.date < b.date;
        return a.id < b.id;
      },
      epoch);
  if (parent != nullptr) {
    parent->replies.push_back(message.id, epoch);
    creator->replied_to.push_back(
        {message.reply_to_id, parent->data.creator_id,
         parent->data.kind == schema::MessageKind::kComment},
        epoch);
  } else {
    forum->posts.push_back(message.id, epoch);
  }
  return Status::Ok();
}

Status GraphStore::AddLike(const schema::Like& like) {
  util::WriterMutexLock lock(&mu_);
  PersonRecord* person = Live(persons_.MutableSlot(like.person_id));
  if (person == nullptr) return Status::NotFound("like person missing");
  MessageRecord* message = Live(messages_.MutableSlot(like.message_id));
  if (message == nullptr) return Status::NotFound("liked message missing");
  util::EpochManager& epoch = epoch_manager();
  person->likes.push_back({like.message_id, like.creation_date}, epoch);
  message->likes.push_back({like.person_id, like.creation_date}, epoch);
  num_likes_.fetch_add(1, std::memory_order_release);
  return Status::Ok();
}

// ---- Read accessors ---------------------------------------------------------

bool GraphStore::AreFriends(const ReadGuard& guard, schema::PersonId a,
                            schema::PersonId b) const {
  SNB_INVARIANT_ROOT("pinned_read");
  const PersonRecord* pa = FindPerson(guard, a);
  if (pa == nullptr) return false;
  auto friends = pa->friends.view();
  auto it = std::lower_bound(
      friends.begin(), friends.end(), b,
      [](const FriendEdge& e, schema::PersonId id) { return e.other < id; });
  return it != friends.end() && it->other == b;
}

std::vector<schema::PersonId> GraphStore::PersonIds(
    const ReadGuard& guard) const {
  std::vector<schema::PersonId> ids;
  ids.reserve(NumPersons());
  for (uint64_t id = 0, bound = persons_.bound(); id < bound; ++id) {
    if (FindPerson(guard, id) != nullptr) ids.push_back(id);
  }
  return ids;
}

std::vector<schema::ForumId> GraphStore::ForumIds(
    const ReadGuard& guard) const {
  std::vector<schema::ForumId> ids;
  ids.reserve(NumForums());
  for (uint64_t id = 0, bound = forums_.bound(); id < bound; ++id) {
    if (FindForum(guard, id) != nullptr) ids.push_back(id);
  }
  return ids;
}

StorageBreakdown GraphStore::ComputeStorageBreakdown() const {
  StorageBreakdown b;
  util::ReaderMutexLock lock(&mu_);
  for (uint64_t id = 0, bound = messages_.bound(); id < bound; ++id) {
    const MessageRecord* m = Live(messages_.Slot(id));
    if (m == nullptr) continue;
    b.message_bytes += sizeof(MessageRecord) + m->data.content.capacity() +
                       m->data.tags.capacity() * sizeof(schema::TagId) +
                       m->replies.capacity_bytes();
    b.message_content_bytes += m->data.content.capacity();
    b.likes_bytes += m->likes.capacity_bytes();
  }
  for (uint64_t id = 0, bound = persons_.bound(); id < bound; ++id) {
    const PersonRecord* p = Live(persons_.Slot(id));
    if (p == nullptr) continue;
    uint64_t attr = sizeof(PersonRecord) + p->data.first_name.capacity() +
                    p->data.last_name.capacity() +
                    p->data.browser.capacity() +
                    p->data.location_ip.capacity() +
                    p->data.interests.capacity() * sizeof(schema::TagId) +
                    p->data.languages.capacity() * sizeof(uint32_t);
    for (const std::string& e : p->data.emails) attr += e.capacity();
    b.person_bytes += attr;
    b.friends_bytes += p->friends.capacity_bytes();
    b.membership_bytes += p->forums.capacity_bytes();
    b.likes_bytes += p->likes.capacity_bytes();
    b.message_bytes +=
        p->messages.capacity_bytes() + p->replied_to.capacity_bytes();
  }
  for (uint64_t id = 0, bound = forums_.bound(); id < bound; ++id) {
    const ForumRecord* f = Live(forums_.Slot(id));
    if (f == nullptr) continue;
    b.forum_bytes += sizeof(ForumRecord) + f->data.title.capacity() +
                     f->data.tags.capacity() * sizeof(schema::TagId) +
                     f->posts.capacity_bytes();
    b.membership_bytes += f->members.capacity_bytes();
  }
  return b;
}

}  // namespace snb::store
