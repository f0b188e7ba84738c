// A value per rank: the ready, fill and crash times a collective is given,
// what each rank received and when it finished (the Communicator's result,
// Sec. V), the coordinator's per-worker inputs (Sec. IV-C) and the trainer's
// per-worker tallies. The ranks themselves are a RankSet.
#pragma once

#include <cstddef>
#include <iterator>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "collective/rank_set.h"

namespace adapcc::collective {

/// A presence RankSet beside dense storage indexed by rank. It reads and
/// writes like std::map<int, T> and iterates the present ranks in ascending
/// order, which is std::map order. An absent rank's slot holds T{}, so a rank
/// erased and inserted again starts from T{}, and equality looks only at
/// present ranks. Storage grows to the largest rank ever inserted: unlike a
/// std::map's, a reference into the map is valid only until the next insert.
/// A negative rank is never present: inserting one throws
/// std::invalid_argument, while at() throws std::out_of_range for it as for
/// any absent rank.
template <typename T>
class RankMap {
 public:
  using value_type = std::pair<int, T>;

  /// Reads the present ranks' {rank, value} slots. It is the only iterator:
  /// values change only through operator[] and at(), so no caller can
  /// rewrite a slot's rank.
  class const_iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::forward_iterator_tag;
    using value_type = RankMap::value_type;
    using difference_type = std::ptrdiff_t;
    using pointer = const value_type*;
    using reference = const value_type&;

    const_iterator() = default;
    reference operator*() const { return (*slots_)[static_cast<std::size_t>(*rank_)]; }
    pointer operator->() const { return &**this; }
    const_iterator& operator++() noexcept {
      ++rank_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const const_iterator old = *this;
      ++rank_;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) noexcept {
      return a.rank_ == b.rank_;
    }

   private:
    friend class RankMap;
    const_iterator(const std::vector<value_type>* slots, RankSet::iterator rank)
        : slots_(slots), rank_(rank) {}

    const std::vector<value_type>* slots_ = nullptr;
    RankSet::iterator rank_;
  };
  using iterator = const_iterator;

  RankMap() = default;
  /// Implicit, so callers holding a std::map keep compiling. lint:rank-map
  RankMap(const std::map<int, T>& values) {  // NOLINT(google-explicit-constructor)
    for (const auto& [rank, value] : values) (*this)[rank] = value;
  }

  /// The value at `rank`, inserted as T{} when absent.
  T& operator[](int rank) {
    if (rank < 0) throw std::invalid_argument("RankMap: negative rank");
    while (slots_.size() <= static_cast<std::size_t>(rank)) {
      slots_.emplace_back(static_cast<int>(slots_.size()), T{});
    }
    present_.insert(rank);
    return slots_[static_cast<std::size_t>(rank)].second;
  }
  T& at(int rank) { return slots_[checked(rank)].second; }
  const T& at(int rank) const { return slots_[checked(rank)].second; }
  /// The value at `rank`, or `fallback` when it is absent.
  T value_or(int rank, T fallback) const {
    return contains(rank) ? slots_[static_cast<std::size_t>(rank)].second : fallback;
  }

  bool contains(int rank) const noexcept { return present_.contains(rank); }
  std::size_t size() const noexcept { return present_.size(); }
  bool empty() const noexcept { return present_.empty(); }

  void erase(int rank) {
    if (!contains(rank)) return;
    present_.erase(rank);
    slots_[static_cast<std::size_t>(rank)].second = T{};
  }
  void clear() noexcept {
    present_ = RankSet{};
    slots_.clear();
  }

  const_iterator find(int rank) const { return const_iterator(&slots_, present_.find(rank)); }
  const_iterator begin() const { return const_iterator(&slots_, present_.begin()); }
  const_iterator end() const { return const_iterator(&slots_, present_.end()); }

  friend bool operator==(const RankMap& a, const RankMap& b) {
    if (a.present_ != b.present_) return false;
    for (const int rank : a.present_) {
      const auto slot = static_cast<std::size_t>(rank);
      if (!(a.slots_[slot].second == b.slots_[slot].second)) return false;
    }
    return true;
  }

 private:
  std::size_t checked(int rank) const {
    if (!contains(rank)) throw std::out_of_range("RankMap::at: absent rank");
    return static_cast<std::size_t>(rank);
  }

  RankSet present_;
  std::vector<value_type> slots_;  ///< slots_[r] = {r, value}; T{} where r is absent
};

// The iterator_concept above promises a forward iterator; postfix ++ is part
// of that contract.
static_assert(std::forward_iterator<RankMap<int>::const_iterator>);

}  // namespace adapcc::collective
