#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.h"
#include "kv/command.h"
#include "net/wire.h"

namespace praft::net {

/// The one codec every message family shares. Each message struct, and each
/// struct a message carries, names its wire fields once, in wire order:
///
///   template <class M, class F>
///   static void fields(M& m, F&& f) { f(m.term, m.leader, m.entries); }
///
/// `M` deduces as const when sizing or encoding and as non-const when
/// decoding, so the one list drives size_of(), put() and get() below, and
/// through them wire_size(), encode() and decode(). A list gives wire order,
/// which may differ from member order; WireGolden (tests/wire_test.cpp) pins
/// the resulting bytes. The leaves:
///
///   bool                one byte, 0 or 1
///   integers            little-endian at their own width
///   std::vector<T>      u32 count, then each element
///   kv::Command         hand-written (its modeled payload is skipped)
///   when(flag, x)       x only when the earlier field `flag` is set
///   a struct            its own fields() list, recursively

/// A field present on the wire only when an earlier bool field is set.
template <typename T>
struct When {
  const bool& flag;
  T& value;
};

template <typename T>
inline When<T> when(const bool& flag, T& value) {
  return When<T>{flag, value};
}

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <typename T>
inline constexpr bool kIsWhen = false;
template <typename T>
inline constexpr bool kIsWhen<When<T>> = true;

// kv::Command: a hand-written leaf, because a write carries value_size
// opaque payload bytes (the modeled value) that are accounted on the wire
// but never materialized. Its size is Command::wire_bytes().

inline size_t size_of(const kv::Command& c) { return c.wire_bytes(); }

inline void put(WireWriter& w, const kv::Command& c) {
  w.u8(static_cast<uint8_t>(c.op));
  w.u64(c.key);
  w.u64(c.value);
  w.u32(c.value_size);
  w.i32(c.client);
  w.u64(c.seq);
  if (c.op == kv::Op::kPut) w.skip(c.value_size);
}

inline void get(WireReader& r, kv::Command& c) {
  c.op = static_cast<kv::Op>(r.u8());
  c.key = r.u64();
  c.value = r.u64();
  c.value_size = r.u32();
  c.client = r.i32();
  c.seq = r.u64();
  if (c.op == kv::Op::kPut) r.skip(c.value_size);
}

/// Encoded payload bytes of `x` (no frame header).
template <typename T>
inline size_t size_of(const T& x) {
  if constexpr (std::is_integral_v<T>) {
    return sizeof(T);
  } else if constexpr (kIsVector<T>) {
    size_t b = 4;
    for (const auto& e : x) b += size_of(e);
    return b;
  } else if constexpr (kIsWhen<T>) {
    return x.flag ? size_of(x.value) : 0;
  } else {
    size_t b = 0;
    T::fields(x, [&b](const auto&... f) { ((b += size_of(f)), ...); });
    return b;
  }
}

template <typename T>
inline void put(WireWriter& w, const T& x) {
  if constexpr (std::is_integral_v<T> && sizeof(T) == 1) {
    w.u8(static_cast<uint8_t>(x));
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 4) {
    w.u32(static_cast<uint32_t>(x));
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 8) {
    w.u64(static_cast<uint64_t>(x));
  } else if constexpr (kIsVector<T>) {
    w.u32(static_cast<uint32_t>(x.size()));
    for (const auto& e : x) put(w, e);
  } else if constexpr (kIsWhen<T>) {
    if (x.flag) put(w, x.value);
  } else {
    static_assert(!std::is_integral_v<T>, "no wire width for this integer");
    T::fields(x, [&w](const auto&... f) { (put(w, f), ...); });
  }
}

template <typename T>
inline void get(WireReader& r, T& x) {
  if constexpr (std::is_integral_v<T> && sizeof(T) == 1) {
    x = static_cast<T>(r.u8());
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 4) {
    x = static_cast<T>(r.u32());
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 8) {
    x = static_cast<T>(r.u64());
  } else if constexpr (kIsVector<T>) {
    const uint32_t n = r.u32();
    x.clear();
    x.reserve(n);
    for (uint32_t i = 0; i < n; ++i) get(r, x.emplace_back());
  } else if constexpr (kIsWhen<T>) {
    if (x.flag) get(r, x.value);
  } else {
    static_assert(!std::is_integral_v<T>, "no wire width for this integer");
    T::fields(x, [&r](auto&&... f) { (get(r, f), ...); });
  }
}

/// Exact encoded frame size of one message: header plus its fields.
template <typename M>
inline size_t wire_size(const M& m) {
  return kFrameHeader + size_of(m);
}

/// Exact encoded frame size of whichever message a family variant holds.
template <typename... Ms>
inline size_t wire_size(const std::variant<Ms...>& m) {
  return std::visit([](const auto& x) { return wire_size(x); }, m);
}

/// Encodes `m` into one pooled frame of exactly wire_size(m) bytes; the
/// opcode is the variant alternative index. Flattened, so the visit and
/// every field's put() inline into one body and the writer's cursor can
/// stay in a register (check_failed is cold and out of line, so the CHECKs
/// add only a branch each).
template <typename... Ms>
[[gnu::flatten]] inline Frame encode(Family family,
                                     const std::variant<Ms...>& m,
                                     BufferPool& pool) {
  const size_t total = wire_size(m);
  Frame f = pool.acquire(total);
  WireWriter w(f);
  w.header(family, static_cast<uint8_t>(m.index()));
  std::visit([&w](const auto& x) { put(w, x); }, m);
  w.finish();
  PRAFT_CHECK_MSG(f.size() == total, "codec/wire_size drift");
  return f;
}

template <typename V, size_t I>
inline V decode_alternative(WireReader& r) {
  V m(std::in_place_index<I>);
  get(r, std::get<I>(m));
  return m;
}

/// One decoder per opcode, generated from the variant: none can go missing.
template <typename V, size_t... Is>
constexpr std::array<V (*)(WireReader&), sizeof...(Is)> decoders(
    std::index_sequence<Is...>) {
  return {&decode_alternative<V, Is>...};
}

/// Inverts encode(): checks the family byte, the opcode range and that the
/// frame was consumed exactly.
template <typename V>
inline V decode(Family family, FrameView f) {
  static constexpr auto kDecoders =
      decoders<V>(std::make_index_sequence<std::variant_size_v<V>>());
  WireReader r(f);
  const auto h = r.header();
  PRAFT_CHECK(h.family == family);
  PRAFT_CHECK_MSG(h.opcode < kDecoders.size(), "bad opcode");
  V m = kDecoders[h.opcode](r);
  r.finish();
  return m;
}

}  // namespace praft::net
