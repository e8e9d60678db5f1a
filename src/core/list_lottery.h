// List-based lottery with the paper's "move to front" heuristic.
//
// This mirrors Section 4.2 and Figure 1 and the prototype's actual run-queue
// implementation: a winning value is drawn uniformly over [0, total), then
// the list is traversed accumulating each entry's weight until the running
// sum exceeds the winning value. Entries that win often migrate to the
// front, shortening the average traversal.
//
// Same slot-handle contract as TreeLottery and AliasLottery: the owner
// pushes flat weights (the scheduler pushes client values in raw Funding
// units) and gets back a dense, recycled slot. Storage is an index-mapped
// vector of slots rather than a linked list: Draw walks a contiguous array,
// Remove tombstones in O(1) and compacts lazily, and move-to-front is
// std::rotate over the winner's prefix — the resulting order is identical
// to the paper's list semantics, so fixed-seed draw sequences are unchanged.

#ifndef SRC_CORE_LIST_LOTTERY_H_
#define SRC_CORE_LIST_LOTTERY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/util/fastrand.h"

namespace lottery {

class ListLottery {
 public:
  explicit ListLottery(bool move_to_front = true)
      : move_to_front_(move_to_front) {}

  // Appends a competitor with the given weight at the back of the draw
  // order; returns its slot handle.
  size_t Add(uint64_t weight);
  // Removes the competitor; its slot is recycled by later Add calls.
  void Remove(size_t slot);
  void SetWeight(size_t slot, uint64_t weight);
  uint64_t Weight(size_t slot) const;

  uint64_t total() const { return total_; }
  size_t size() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  // Holds one lottery: picks a slot with probability weight/total, then
  // moves it to the front (when enabled). std::nullopt, without drawing,
  // if the total is zero. A non-null `drawn_value` receives the random
  // value in [0, total()) behind the pick (the RNG sequence is unchanged
  // either way).
  std::optional<size_t> Draw(FastRand& rng, uint64_t* drawn_value = nullptr);

  // Calls fn(slot, weight) for every live slot in draw order, front first.
  // Draw reorders the list, so walk before drawing to see the order it
  // uses.
  template <typename Fn>
  void ForEachInOrder(Fn&& fn) const {
    for (const size_t slot : order_) {
      if (slot != kTombstone) {
        fn(slot, weight_[slot]);
      }
    }
  }

  // Instrumentation: cumulative entries examined by Draw traversals and the
  // number of draws, for reproducing the move-to-front search-length claim.
  uint64_t total_scanned() const { return total_scanned_; }
  uint64_t num_draws() const { return num_draws_; }

 private:
  static constexpr size_t kTombstone = static_cast<size_t>(-1);

  void CheckSlot(size_t slot, const char* what) const;
  void Compact();

  bool move_to_front_;
  std::vector<size_t> order_;     // slots in draw order; kTombstone = removed
  std::vector<uint64_t> weight_;  // per slot
  std::vector<size_t> pos_;       // per slot: index in order_, or kTombstone
  std::vector<size_t> free_slots_;
  size_t live_count_ = 0;
  size_t tombstones_ = 0;
  uint64_t total_ = 0;
  uint64_t total_scanned_ = 0;
  uint64_t num_draws_ = 0;
};

}  // namespace lottery

#endif  // SRC_CORE_LIST_LOTTERY_H_
