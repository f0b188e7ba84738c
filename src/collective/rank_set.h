// The set of ranks a collective depends on: the active set behavior tuples
// are derived from (Sec. IV-C-3), the relay coordinator's ready set, the
// suspects of an aborted collective and the faulty set fault recovery
// excludes (Sec. IV-C-2), and the active set the cost model times.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <ranges>
#include <stdexcept>
#include <vector>

namespace adapcc::collective {

/// Dense bitset of ranks over 64-bit words, iterated in ascending order. It
/// grows to its largest member, so it spans any world size, and it never
/// keeps a trailing zero word, so equal sets compare equal however they were
/// built. A negative rank is never a member: insert() throws
/// std::invalid_argument, while contains() treats it, like a rank past the
/// last word, as absent.
class RankSet {
 public:
  class iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = int;
    using difference_type = std::ptrdiff_t;
    using reference = int;

    iterator() = default;
    int operator*() const noexcept {
      return static_cast<int>(64 * word_) + std::countr_zero(bits_);
    }
    iterator& operator++() noexcept {
      bits_ &= bits_ - 1;
      settle();
      return *this;
    }
    iterator operator++(int) noexcept {
      const iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    friend class RankSet;
    iterator(const std::vector<std::uint64_t>* words, std::size_t word)
        : words_(words), word_(word) {
      if (word_ < words_->size()) bits_ = (*words_)[word_];
      settle();
    }
    /// Moves to the next word with a member, or to the end (word_ == size).
    void settle() noexcept {
      const std::size_t size = words_->size();
      while (bits_ == 0 && word_ < size && ++word_ < size) bits_ = (*words_)[word_];
    }

    const std::vector<std::uint64_t>* words_ = nullptr;
    std::size_t word_ = 0;
    std::uint64_t bits_ = 0;  ///< members of words_[word_] not yet visited
  };

  RankSet() = default;
  RankSet(std::initializer_list<int> ranks) {
    for (const int rank : ranks) insert(rank);
  }
  template <std::ranges::input_range Ranks>
    requires std::convertible_to<std::ranges::range_reference_t<const Ranks&>, int>
  explicit RankSet(const Ranks& ranks) {
    for (const int rank : ranks) insert(rank);
  }

  void insert(int rank) {
    if (rank < 0) throw std::invalid_argument("RankSet: negative rank");
    const std::size_t word = static_cast<std::size_t>(rank) / 64;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    words_[word] |= bit_of(rank);
  }
  bool contains(int rank) const noexcept {
    // A negative rank wraps to a word index past any real one.
    const std::size_t word = static_cast<std::size_t>(rank) / 64;
    return word < words_.size() && (words_[word] & bit_of(rank)) != 0;
  }
  std::size_t size() const noexcept {
    std::size_t count = 0;
    for (const std::uint64_t word : words_) count += static_cast<std::size_t>(std::popcount(word));
    return count;
  }
  bool empty() const noexcept { return words_.empty(); }

  /// Union, intersection and difference.
  RankSet& operator|=(const RankSet& other) {
    if (other.words_.size() > words_.size()) words_.resize(other.words_.size(), 0);
    for (std::size_t i = 0; i < other.words_.size(); ++i) words_[i] |= other.words_[i];
    return *this;
  }
  RankSet& operator&=(const RankSet& other) noexcept {
    if (words_.size() > other.words_.size()) words_.resize(other.words_.size());
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
    trim();
    return *this;
  }
  RankSet& operator-=(const RankSet& other) noexcept {
    for (std::size_t i = 0; i < words_.size() && i < other.words_.size(); ++i) {
      words_[i] &= ~other.words_[i];
    }
    trim();
    return *this;
  }

  iterator begin() const { return iterator(&words_, 0); }
  iterator end() const { return iterator(&words_, words_.size()); }

  friend bool operator==(const RankSet&, const RankSet&) = default;

 private:
  static std::uint64_t bit_of(int rank) noexcept {
    return std::uint64_t{1} << (static_cast<unsigned>(rank) % 64);
  }
  void trim() noexcept {
    while (!words_.empty() && words_.back() == 0) words_.pop_back();
  }

  std::vector<std::uint64_t> words_;
};

// The iterator_concept above promises a forward iterator; postfix ++ is part
// of that contract.
static_assert(std::forward_iterator<RankSet::iterator>);

}  // namespace adapcc::collective
