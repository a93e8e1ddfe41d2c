#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace praft {

/// Move-only type-erased callable: std::function minus the copyability
/// requirement, so closures owning move-only resources (unique_ptrs, packets)
/// can be queued on the event loop. `Size` is the whole object's footprint:
/// a callable of up to `Size - sizeof(void*)` bytes that moves without
/// throwing lives in place, and only a larger one is boxed on the heap. The
/// default holds a 24-byte capture inline (every Env timer in the tree);
/// sim::EventQueue keeps its events in 64-byte ones.
template <typename Sig, size_t Size = 32>
class UniqueFunction;

template <typename R, typename... Args, size_t Size>
class UniqueFunction<R(Args...), Size> {
  static constexpr size_t kInline = Size - sizeof(void*);
  static_assert(Size > sizeof(void*) && Size % alignof(void*) == 0);

  template <typename F>
  using Enable = std::enable_if_t<
      !std::is_same_v<std::decay_t<F>, UniqueFunction> &&
      std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>;

 public:
  /// True when a callable of type F is stored in place, with no heap box.
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= kInline && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  UniqueFunction() = default;
  UniqueFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename = Enable<F>>
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  UniqueFunction(UniqueFunction&& o) noexcept { take(o); }
  UniqueFunction& operator=(UniqueFunction&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }
  /// Destroys the held callable and builds `f` in its place.
  template <typename F, typename = Enable<F>>
  UniqueFunction& operator=(F&& f) {
    reset();
    emplace(std::forward<F>(f));
    return *this;
  }
  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;
  ~UniqueFunction() { reset(); }

  R operator()(Args... args) const {
    return ops_->call(buf_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return ops_ != nullptr; }
  friend bool operator==(const UniqueFunction& f, std::nullptr_t) {
    return f.ops_ == nullptr;
  }
  friend bool operator!=(const UniqueFunction& f, std::nullptr_t) {
    return f.ops_ != nullptr;
  }

 private:
  struct Ops {
    R (*call)(void* buf, Args&&... args);
    void (*relocate)(void* to, void* from) noexcept;  // move, destroy source
    void (*destroy)(void* buf) noexcept;
  };

  template <typename F>
  static R invoke(F& f, Args&&... args) {
    if constexpr (std::is_void_v<R>) {
      std::invoke(f, std::forward<Args>(args)...);
    } else {
      return std::invoke(f, std::forward<Args>(args)...);
    }
  }

  template <typename F>
  static constexpr Ops kInlineOps{
      [](void* buf, Args&&... args) -> R {
        return invoke(*static_cast<F*>(buf), std::forward<Args>(args)...);
      },
      [](void* to, void* from) noexcept {
        F& src = *static_cast<F*>(from);
        ::new (to) F(std::move(src));
        src.~F();
      },
      [](void* buf) noexcept { static_cast<F*>(buf)->~F(); }};

  template <typename F>
  static constexpr Ops kBoxedOps{
      [](void* buf, Args&&... args) -> R {
        return invoke(**static_cast<F**>(buf), std::forward<Args>(args)...);
      },
      [](void* to, void* from) noexcept {
        *static_cast<F**>(to) = *static_cast<F**>(from);
      },
      [](void* buf) noexcept { delete *static_cast<F**>(buf); }};

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kBoxedOps<D>;
    }
  }

  void take(UniqueFunction& o) noexcept {
    if (o.ops_ == nullptr) return;
    o.ops_->relocate(buf_, o.buf_);
    ops_ = std::exchange(o.ops_, nullptr);
  }

  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

  const Ops* ops_ = nullptr;
  alignas(void*) mutable std::byte buf_[kInline];
};

}  // namespace praft
