// Block-at-a-time execution: the column batch and the operator interface.
//
// Most query plans in queries/complex_queries.cc are row-at-a-time:
// every tuple crosses an operator boundary through a lambda call, touching
// scattered records as it goes. The batched engine moves fixed-size blocks
// of column vectors instead — an operator fills a Batch of up to
// kBatchCapacity rows per Next() call, so the per-tuple interpretation
// overhead amortizes over the block and the inner loops run over dense
// arrays the compiler can vectorize.
//
// Block size: 256 rows. The three columns of a full batch are 256*(8+8+8)
// = 6 KiB, so a batch plus the scratch blocks of the producing operator
// stay L1-resident (32 KiB typical) with room to spare; going to 1024 rows
// measured no further win on the adjacency workloads while tripling cache
// pressure under concurrent driver threads. See DESIGN.md "Execution
// engine" for the measurement notes.
//
// Column meaning is per-operator (documented at each operator): `a` and
// `b` are id-like u64 columns (message id, creator id, forum id, ...),
// `date` is a TimestampMs column. Queries that need fewer columns simply
// leave the rest unwritten — a Batch is scratch owned by the consumer and
// reused across Next() calls, never a long-lived container.
#ifndef SNB_EXEC_BATCH_H_
#define SNB_EXEC_BATCH_H_

#include <cstddef>
#include <cstdint>

namespace snb::exec {

/// Rows per block. Power of two so offset math stays shift/mask.
inline constexpr size_t kBatchCapacity = 256;

/// One block of column vectors. Plain arrays (not std::vector) so a Batch
/// is a single stack/inline allocation with no indirection on the hot
/// loops.
struct Batch {
  uint64_t a[kBatchCapacity];  // Primary id column.
  uint64_t b[kBatchCapacity];  // Secondary id column.
  int64_t date[kBatchCapacity];  // TimestampMs column.
  size_t size = 0;

  bool empty() const { return size == 0; }
  void clear() { size = 0; }
};

/// Pull-based operator: fills `out` with up to kBatchCapacity rows and
/// returns true, or returns false when exhausted (out->size is then 0).
/// Operators that read the store hold the caller's ShardSnapshot by reference —
/// the caller's ReadGuard must outlive the operator (the same discipline
/// every snapshot accessor enforces by token).
class Operator {
 public:
  virtual ~Operator() = default;
  virtual bool Next(Batch* out) = 0;
};

}  // namespace snb::exec

#endif  // SNB_EXEC_BATCH_H_
