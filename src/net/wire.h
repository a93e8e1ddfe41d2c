#pragma once

#include <any>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <typeinfo>

#include "common/check.h"
#include "net/buffer_pool.h"

namespace praft::net {

/// Flat wire format. Every message travels as one little-endian frame with a
/// fixed-offset header (the Vincinator/xlane packet idiom: opcode at a known
/// offset, then the payload):
///
///   off 0  u8   family   (protocol family, net::Family)
///   off 1  u8   opcode   (variant alternative index within the family)
///   off 2  u16  flags    (reserved, zero)
///   off 4  u32  length   (total frame bytes, header included)
///   off 8  ...  payload  (the message's fields in its fields-list order;
///                         an array is a u32 count, then its elements)
///
/// The payload layout, its size and both codec directions derive from each
/// message's `fields` list (net/field_codec.h). Application values are
/// *modeled*: a kPut command's value_size payload region is accounted
/// (cursor skip) but never materialized, so frames stay small while sizes
/// stay byte-accurate.
inline constexpr size_t kFrameHeader = 8;
inline constexpr size_t kOffFamily = 0;
inline constexpr size_t kOffOpcode = 1;
inline constexpr size_t kOffFlags = 2;
inline constexpr size_t kOffLength = 4;

enum class Family : uint8_t {
  kNone = 0,
  kRaft = 1,
  kRaftStar = 2,
  kMultiPaxos = 3,
  kMencius = 4,
  kHarness = 5,
  kLease = 6,
};

/// Non-owning view of an encoded frame (what decode() consumes).
struct FrameView {
  const uint8_t* data = nullptr;
  size_t size = 0;
};

inline FrameView view(const Frame& f) { return FrameView{f.data(), f.size()}; }

/// Sequential little-endian writer over a pooled Frame. encode() computes
/// wire_size(m) up front and acquires exactly that capacity, so writes are
/// bounds-checked against a known-sufficient slab and finish() asserts the
/// cursor landed exactly on the predicted size — any codec/size drift fails
/// loudly at the first encode, not in a benchmark three layers up.
class WireWriter {
 public:
  explicit WireWriter(Frame& f) : f_(f) {}

  void header(Family fam, uint8_t opcode) {
    u8(static_cast<uint8_t>(fam));
    u8(opcode);
    u16(0);  // flags
    u32(0);  // length, patched by finish()
  }

  void u8(uint8_t v) { put(&v, 1); }
  void u16(uint16_t v) {
    uint8_t b[2] = {static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8)};
    put(b, 2);
  }
  void u32(uint32_t v) {
    uint8_t b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
    put(b, 4);
  }
  void u64(uint64_t v) {
    uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
    put(b, 8);
  }
  void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }

  /// Advances the cursor over `n` modeled payload bytes without touching
  /// them (the region is opaque on the wire; receivers skip it too).
  void skip(size_t n) {
    PRAFT_CHECK(pos_ + n <= f_.capacity());
    pos_ += n;
  }

  [[nodiscard]] size_t pos() const { return pos_; }

  /// Patches the length field and stamps the frame's final size.
  void finish() {
    uint8_t* p = f_.data() + kOffLength;
    const auto len = static_cast<uint32_t>(pos_);
    for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(len >> (8 * i));
    f_.set_size(pos_);
  }

 private:
  void put(const uint8_t* p, size_t n) {
    PRAFT_CHECK(pos_ + n <= f_.capacity());
    uint8_t* dst = f_.data() + pos_;
    for (size_t i = 0; i < n; ++i) dst[i] = p[i];
    pos_ += n;
  }

  Frame& f_;
  size_t pos_ = 0;
};

/// Sequential little-endian reader; every read is bounds-checked against the
/// frame, so a truncated or corrupt frame throws instead of reading garbage.
class WireReader {
 public:
  explicit WireReader(FrameView f) : f_(f) {}

  struct Header {
    Family family;
    uint8_t opcode;
    uint16_t flags;
    uint32_t length;
  };

  Header header() {
    Header h;
    h.family = static_cast<Family>(u8());
    h.opcode = u8();
    h.flags = u16();
    h.length = u32();
    PRAFT_CHECK_MSG(h.length == f_.size, "frame length field mismatch");
    return h;
  }

  uint8_t u8() {
    need(1);
    return f_.data[pos_++];
  }
  uint16_t u16() {
    need(2);
    uint16_t v = 0;
    for (int i = 0; i < 2; ++i)
      v = static_cast<uint16_t>(v | (static_cast<uint16_t>(f_.data[pos_ + i]) << (8 * i)));
    pos_ += 2;
    return v;
  }
  uint32_t u32() {
    need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(f_.data[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }
  uint64_t u64() {
    need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(f_.data[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  void skip(size_t n) {
    need(n);
    pos_ += n;
  }

  [[nodiscard]] size_t pos() const { return pos_; }

  /// Asserts the frame was fully consumed — catches codecs that read short.
  void finish() const { PRAFT_CHECK_MSG(pos_ == f_.size, "trailing bytes"); }

 private:
  void need(size_t n) const {
    PRAFT_CHECK_MSG(pos_ + n <= f_.size, "frame truncated");
  }

  FrameView f_;
  size_t pos_ = 0;
};

/// Peeks the family/opcode bytes of an encoded frame.
inline Family frame_family(FrameView f) {
  PRAFT_CHECK(f.size >= kFrameHeader);
  return static_cast<Family>(f.data[kOffFamily]);
}
inline uint8_t frame_opcode(FrameView f) {
  PRAFT_CHECK(f.size >= kFrameHeader);
  return f.data[kOffOpcode];
}

/// Type-erased codec for one message family (one std::variant type). `size`
/// is the exact frame size `encode` produces; both derive from the message's
/// `fields` list (net/field_codec.h), so sizing a send needs no frame.
struct Codec {
  Family family = Family::kNone;
  std::function<size_t(const std::any&)> size;
  std::function<Frame(const std::any&, BufferPool&)> encode;
  std::function<std::any(FrameView)> decode;
  std::function<bool(const std::any&, const std::any&)> equals;
};

/// Maps payload types (the variant's std::type_info) and family bytes to
/// codecs. harness::NodeHost looks up by payload type on every send and
/// charges the codec's size; under PRAFT_WIRE_VERIFY sim::Network also
/// encodes the frame, checks its size and decodes it back against the
/// original struct. Six families: a scan compares type_info addresses,
/// with `==` (a name compare) only when no address matches, so a send
/// hashes no type name.
class CodecRegistry {
 public:
  void add(const std::type_info& type, Codec codec);

  [[nodiscard]] const Codec* find(const std::any& payload) const {
    const std::type_info& type = payload.type();
    for (const Entry& e : codecs_) {
      if (e.type == &type) return &e.codec;
    }
    for (const Entry& e : codecs_) {
      if (*e.type == type) return &e.codec;
    }
    return nullptr;
  }
  [[nodiscard]] const Codec* find(Family family) const {
    for (const Entry& e : codecs_) {
      if (e.codec.family == family) return &e.codec;
    }
    return nullptr;
  }

 private:
  struct Entry {
    const std::type_info* type;
    Codec codec;
  };
  std::deque<Entry> codecs_;  // stable: a found Codec* outlives later adds
};

/// Registers a variant message type M with free functions
///   size_t size(const M&),   Frame encode(const M&, BufferPool&)
///   and   M decode(FrameView).
template <typename M>
void register_codec(CodecRegistry& reg, Family family,
                    size_t (*size)(const M&),
                    Frame (*enc)(const M&, BufferPool&),
                    M (*dec)(FrameView)) {
  static constexpr auto as_m = [](const std::any& p) -> const M& {
    const M* m = std::any_cast<M>(&p);
    PRAFT_CHECK(m != nullptr);
    return *m;
  };
  Codec c;
  c.family = family;
  c.size = [size](const std::any& p) { return size(as_m(p)); };
  c.encode = [enc](const std::any& p, BufferPool& pool) {
    return enc(as_m(p), pool);
  };
  c.decode = [dec](FrameView f) { return std::any(dec(f)); };
  c.equals = [](const std::any& a, const std::any& b) {
    const M* ma = std::any_cast<M>(&a);
    const M* mb = std::any_cast<M>(&b);
    return ma != nullptr && mb != nullptr && *ma == *mb;
  };
  reg.add(typeid(M), std::move(c));
}

/// Process-wide registry with every built-in protocol family installed
/// (raft, raft*, multipaxos, mencius, harness, lease).
CodecRegistry& codec_registry();

/// Installs the built-in family codecs; defined in builtin_codecs.cpp so a
/// static praft library cannot drop the registrations.
void install_builtin_codecs(CodecRegistry& reg);

/// PRAFT_WIRE_VERIFY: when on, every Network send with a codec encodes a
/// frame, checks its size against the bytes charged and round-trips it
/// encode→decode against the original struct; off, no frame is built.
/// Initialized from the PRAFT_WIRE_VERIFY environment variable
/// (1/ON/on/true/yes; anything else, or unset, is off).
bool wire_verify_enabled();
void set_wire_verify(bool on);

}  // namespace praft::net
