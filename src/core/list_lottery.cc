#include "src/core/list_lottery.h"

#include <algorithm>
#include <stdexcept>

namespace lottery {

void ListLottery::CheckSlot(size_t slot, const char* what) const {
  if (slot >= pos_.size() || pos_[slot] == kTombstone) {
    throw std::out_of_range(what);
  }
}

size_t ListLottery::Add(uint64_t weight) {
  size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = pos_.size();
    pos_.push_back(kTombstone);
    weight_.push_back(0);
  }
  pos_[slot] = order_.size();
  order_.push_back(slot);
  weight_[slot] = weight;
  total_ += weight;
  ++live_count_;
  return slot;
}

void ListLottery::Remove(size_t slot) {
  CheckSlot(slot, "ListLottery::Remove: bad slot");
  order_[pos_[slot]] = kTombstone;
  pos_[slot] = kTombstone;
  total_ -= weight_[slot];
  weight_[slot] = 0;
  free_slots_.push_back(slot);
  --live_count_;
  ++tombstones_;
  if (tombstones_ >= 8 && tombstones_ > live_count_) {
    Compact();
  }
}

void ListLottery::Compact() {
  size_t out = 0;
  for (const size_t slot : order_) {
    if (slot != kTombstone) {
      pos_[slot] = out;
      order_[out++] = slot;
    }
  }
  order_.resize(out);
  tombstones_ = 0;
}

void ListLottery::SetWeight(size_t slot, uint64_t weight) {
  CheckSlot(slot, "ListLottery::SetWeight: bad slot");
  total_ += weight - weight_[slot];  // wraps; additions re-wrap
  weight_[slot] = weight;
}

uint64_t ListLottery::Weight(size_t slot) const {
  CheckSlot(slot, "ListLottery::Weight: bad slot");
  return weight_[slot];
}

std::optional<size_t> ListLottery::Draw(FastRand& rng,  // lotlint: stream(scheduler)
                                        uint64_t* drawn_value) {
  if (total_ == 0) {
    return std::nullopt;
  }
  const uint64_t winner_value = rng.NextBelow64(total_);
  if (drawn_value != nullptr) {
    *drawn_value = winner_value;
  }

  // Accumulate until the winning value is covered (Figure 1).
  uint64_t sum = 0;
  ++num_draws_;
  for (size_t i = 0; i < order_.size(); ++i) {
    const size_t slot = order_[i];
    if (slot == kTombstone) {
      continue;
    }
    ++total_scanned_;
    sum += weight_[slot];
    if (sum > winner_value) {
      if (move_to_front_ && i > 0) {
        // Identical semantics to list erase + push_front: the winner moves
        // to the front, everything before it shifts back one place.
        std::rotate(order_.begin(),
                    order_.begin() + static_cast<ptrdiff_t>(i),
                    order_.begin() + static_cast<ptrdiff_t>(i) + 1);
        for (size_t j = 0; j <= i; ++j) {
          if (order_[j] != kTombstone) {
            pos_[order_[j]] = j;
          }
        }
      }
      return slot;
    }
  }
  throw std::logic_error("ListLottery::Draw: ran past end of list");
}

}  // namespace lottery
