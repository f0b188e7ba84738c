// InlineCallback: a move-only type-erased `void()` callable with a small
// inline buffer sized for the capturing lambdas the executor and links
// actually schedule (a handful of pointers / integers).
//
// std::function heap-allocates once a capture outgrows its ~2-pointer SBO,
// and the simulator schedules millions of such events per run —
// FlowLink::reschedule_completion alone cancels + re-pushes an event on
// every start_transfer/set_capacity. With InlineCallback those callbacks
// live inside the event-heap slot itself, so dispatch touches no allocator.
// Larger callables (rare: deep capture chains in tests) transparently fall
// back to the heap; hot-path sites static_assert stores_inline() so theirs
// never do.
//
// adapcc-lint: hot-path — std::function is banned in this file (DESIGN.md §7).
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace adapcc::sim {

class InlineCallback {
 public:
  /// Inline storage size. 48 bytes fits every hot-path lambda in the tree
  /// (executor chunk completions capture ~4 pointers) and a std::function.
  static constexpr std::size_t kInlineBytes = 48;

  /// True when a callable of type F is stored in the inline buffer. Hot
  /// paths static_assert this at the capture site, so a capture that
  /// outgrows the buffer fails to compile instead of silently allocating.
  template <typename F>
  static consteval bool stores_inline() {
    return fits_inline<std::decay_t<F>>();
  }

  InlineCallback() noexcept = default;
  InlineCallback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    construct<D>(std::forward<F>(f));
  }

  InlineCallback(InlineCallback&& other) noexcept { steal(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { reset(); }

  void operator()() { ops_->invoke(*this); }
  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(*this);
      ops_ = nullptr;
    }
  }

  /// Replaces the target with `f`, built in place: a callable is
  /// constructed straight into this object's storage, with no temporary
  /// InlineCallback to move through. An InlineCallback rvalue is moved in,
  /// and nullptr empties the callback.
  template <typename F>
  void assign(F&& f) noexcept(assigns_nothrow<F>()) {
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, InlineCallback>) {
      static_assert(!std::is_lvalue_reference_v<F>, "assign moves: pass std::move(callback)");
      *this = std::move(f);
    } else if constexpr (std::is_same_v<D, std::nullptr_t>) {
      reset();
    } else {
      static_assert(std::is_invocable_r_v<void, D&>, "assign takes a void() callable");
      reset();
      construct<D>(std::forward<F>(f));
    }
  }

 private:
  struct Ops {
    void (*invoke)(InlineCallback&);
    /// Moves src's target into dst (raw storage, no live target) and
    /// destroys the src target. Null means a bitwise copy of the whole
    /// storage union suffices — true for heap-held targets (pointer steal)
    /// and trivially copyable inline targets, so the common pointer-capture
    /// lambdas move with one memcpy and no indirect call.
    void (*relocate)(InlineCallback& dst, InlineCallback& src) noexcept;
    /// Null when destruction is a no-op (trivially destructible inline
    /// target), so reset() skips the indirect call on the hot path.
    void (*destroy)(InlineCallback&) noexcept;
  };

  /// assign(F) cannot throw: it moves, resets, or builds an inline target
  /// without throwing. Only a heap target or a throwing copy can.
  template <typename F>
  static consteval bool assigns_nothrow() {
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, InlineCallback> || std::is_same_v<D, std::nullptr_t>) {
      return true;
    } else {
      return fits_inline<D>() && std::is_nothrow_constructible_v<D, F>;
    }
  }

  template <typename D>
  static consteval bool fits_inline() {
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  // Data members precede the Ops tables: static member initializers are not
  // a complete-class context, so the lambdas below can only name members
  // already declared.
  union {
    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
    void* heap_;
  };
  const Ops* ops_ = nullptr;

  void* storage() noexcept { return static_cast<void*>(storage_); }

  template <typename D>
  D& inline_target() noexcept {
    return *std::launder(reinterpret_cast<D*>(storage_));
  }

  template <typename D>
  static constexpr Ops kTrivialOps{
      [](InlineCallback& self) { self.inline_target<D>()(); },
      nullptr,
      nullptr,
  };

  template <typename D>
  static constexpr Ops kInlineOps{
      [](InlineCallback& self) { self.inline_target<D>()(); },
      [](InlineCallback& dst, InlineCallback& src) noexcept {
        ::new (dst.storage()) D(std::move(src.inline_target<D>()));
        src.inline_target<D>().~D();
      },
      [](InlineCallback& self) noexcept { self.inline_target<D>().~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps{
      [](InlineCallback& self) { (*static_cast<D*>(self.heap_))(); },
      nullptr,
      [](InlineCallback& self) noexcept { delete static_cast<D*>(self.heap_); },
  };

  /// Builds a D from `f` into this empty callback.
  template <typename D, typename F>
  void construct(F&& f) {
    if constexpr (fits_inline<D>()) {
      ::new (storage()) D(std::forward<F>(f));
      if constexpr (std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>) {
        ops_ = &kTrivialOps<D>;
      } else {
        ops_ = &kInlineOps<D>;
      }
    } else {
      heap_ = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  void steal(InlineCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(*this, other);
    } else {
      // Bitwise relocation: copies an inline trivially-copyable target or
      // the heap pointer alike (both live in the union).
      std::memcpy(static_cast<void*>(storage_), static_cast<const void*>(other.storage_),
                  kInlineBytes);
    }
    other.ops_ = nullptr;
  }
};

}  // namespace adapcc::sim
