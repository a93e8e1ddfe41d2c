#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "kv/command.h"
#include "kv/store.h"
#include "kv/workload.h"

namespace praft::kv {
namespace {

TEST(CommandTest, WireBytesIncludeValueOnlyForPuts) {
  Command get{Op::kGet, 7, 0, 4096, 1, 1};
  Command put{Op::kPut, 7, 9, 4096, 1, 2};
  // Exact encoded field bytes (see Command::wire_bytes and net/field_codec):
  // op u8 + key u64 + value u64 + value_size u32 + client i32 + seq u64.
  constexpr size_t kFields = 1 + 8 + 8 + 4 + 4 + 8;
  EXPECT_EQ(get.wire_bytes(), kFields);
  EXPECT_EQ(put.wire_bytes(), kFields + 4096u);
}

TEST(StoreTest, PutThenGet) {
  KvStore s;
  s.apply(Command{Op::kPut, 1, 42, 8, 0, 1});
  const auto r = s.apply(Command{Op::kGet, 1, 0, 8, 0, 2});
  EXPECT_EQ(r.value, 42u);
  EXPECT_EQ(s.read_local(1), 42u);
}

TEST(StoreTest, GetMissingReturnsZero) {
  KvStore s;
  EXPECT_EQ(s.apply(Command{Op::kGet, 99, 0, 8, 0, 1}).value, 0u);
  EXPECT_EQ(s.read_local(99), 0u);
}

TEST(StoreTest, OverwriteBumpsVersion) {
  KvStore s;
  EXPECT_EQ(s.apply(Command{Op::kPut, 5, 1, 8, 0, 1}).version, 1u);
  EXPECT_EQ(s.apply(Command{Op::kPut, 5, 2, 8, 0, 2}).version, 2u);
  EXPECT_EQ(s.read_local(5), 2u);
}

TEST(StoreTest, NoopDoesNothingButCounts) {
  KvStore s;
  s.apply(noop_command());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.applied_count(), 1u);
}

TEST(StoreTest, FingerprintDetectsDivergence) {
  KvStore a, b;
  a.apply(Command{Op::kPut, 1, 10, 8, 0, 1});
  b.apply(Command{Op::kPut, 1, 10, 8, 0, 1});
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.apply(Command{Op::kPut, 2, 20, 8, 0, 2});
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(StoreTest, FingerprintOrderInsensitive) {
  KvStore a, b;
  a.apply(Command{Op::kPut, 1, 10, 8, 0, 1});
  a.apply(Command{Op::kPut, 2, 20, 8, 0, 2});
  b.apply(Command{Op::kPut, 2, 20, 8, 0, 2});
  b.apply(Command{Op::kPut, 1, 10, 8, 0, 1});
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(StoreTest, KeyZeroRoundTrips) {
  // Key 0 is the workload's hot key; it must not read as an empty slot.
  KvStore s;
  EXPECT_EQ(s.apply(Command{Op::kGet, 0, 0, 8, 0, 1}).version, 0u);
  EXPECT_EQ(s.apply(Command{Op::kPut, 0, 7, 8, 0, 2}).version, 1u);
  EXPECT_EQ(s.read_local(0), 7u);
  const ApplyResult r = s.apply(Command{Op::kGet, 0, 0, 8, 0, 3});
  EXPECT_EQ(r.value, 7u);
  EXPECT_EQ(r.version, 1u);
  // A zero value is still a stored key.
  EXPECT_EQ(s.apply(Command{Op::kPut, 0, 0, 8, 0, 4}).version, 2u);
  EXPECT_EQ(s.size(), 1u);
  KvStore back;
  back.restore(s.image());
  EXPECT_EQ(back.apply(Command{Op::kGet, 0, 0, 8, 0, 5}).version, 2u);
}

TEST(StoreTest, MatchesAnOrderedMapAcrossGrowth) {
  // 150k random puts and gets; the table doubles many times on the way,
  // and every result must match a std::map reference.
  struct Ref {
    uint64_t value = 0;
    uint64_t version = 0;
  };
  KvStore s;
  std::map<uint64_t, Ref> ref;
  Rng rng(11);
  for (uint64_t i = 0; i < 150'000; ++i) {
    // Mostly a dense range (collisions after mixing), some full-width keys.
    const uint64_t key = rng.below(4) == 0 ? rng.next() : rng.below(60'000);
    if (rng.below(2) == 0) {
      const uint64_t value = rng.next();
      Ref& cell = ref[key];
      cell.value = value;
      ++cell.version;
      const ApplyResult r = s.apply(Command{Op::kPut, key, value, 8, 0, i});
      ASSERT_EQ(r.value, value) << "put " << i;
      ASSERT_EQ(r.version, cell.version) << "put " << i;
    } else {
      const auto it = ref.find(key);
      const Ref want = it == ref.end() ? Ref{} : it->second;
      const ApplyResult r = s.apply(Command{Op::kGet, key, 0, 8, 0, i});
      ASSERT_EQ(r.value, want.value) << "get " << i;
      ASSERT_EQ(r.version, want.version) << "get " << i;
      ASSERT_EQ(s.read_local(key), want.value) << "get " << i;
    }
  }
  EXPECT_EQ(s.size(), ref.size());
  const StoreImage img = s.image();
  ASSERT_EQ(img.cells.size(), ref.size());
  auto it = ref.begin();
  for (const StoreImage::Cell& c : img.cells) {
    EXPECT_EQ(c, (StoreImage::Cell{it->first, it->second.value,
                                   it->second.version}));
    ++it;
  }
}

TEST(StoreTest, RestoreOfImageIsIdentity) {
  KvStore a;
  Rng rng(12);
  for (uint64_t i = 0; i < 5'000; ++i) {
    a.apply(Command{Op::kPut, rng.below(3'000), rng.next(), 8, 0, i});
  }
  KvStore b;
  b.apply(Command{Op::kPut, 123'456'789, 1, 8, 0, 1});  // replaced wholesale
  b.restore(a.image());
  EXPECT_EQ(b.image(), a.image());
  EXPECT_EQ(b.fingerprint(), a.fingerprint());
  EXPECT_EQ(b.size(), a.size());
  EXPECT_EQ(b.applied_count(), a.applied_count());
  EXPECT_EQ(b.read_local(123'456'789), 0u);
  // The restored table keeps working: same reads, same version bumps.
  for (uint64_t k = 0; k < 3'000; ++k) {
    ASSERT_EQ(b.read_local(k), a.read_local(k));
    const Command put{Op::kPut, k, k, 8, 0, k};
    ASSERT_EQ(b.apply(put).version, a.apply(put).version);
  }
  b.restore(StoreImage{});
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.read_local(1), 0u);
}

TEST(StoreTest, FingerprintIgnoresGrowthHistory) {
  // The same final state reached in opposite orders: each doubling rehashes
  // a different key set, and colliding keys land in different slots.
  KvStore up, down;
  constexpr uint64_t kKeys = 2'000;
  for (uint64_t k = 0; k < kKeys; ++k) {
    up.apply(Command{Op::kPut, k * 7, k, 8, 0, k});
  }
  for (uint64_t k = kKeys; k-- > 0;) {
    down.apply(Command{Op::kPut, k * 7, k, 8, 0, k});
  }
  EXPECT_EQ(up.fingerprint(), down.fingerprint());
  EXPECT_EQ(up.image(), down.image());
}

TEST(WorkloadTest, ReadFractionRespected) {
  WorkloadConfig cfg;
  cfg.read_fraction = 0.9;
  cfg.conflict_rate = 0.0;
  WorkloadGenerator gen(cfg, 0, Rng(1));
  int reads = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) reads += gen.next(1, static_cast<uint64_t>(i)).is_read();
  EXPECT_NEAR(static_cast<double>(reads) / n, 0.9, 0.02);
}

TEST(WorkloadTest, ConflictRateHitsHotKey) {
  WorkloadConfig cfg;
  cfg.conflict_rate = 0.25;
  WorkloadGenerator gen(cfg, 0, Rng(2));
  int hot = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hot += (gen.next(1, static_cast<uint64_t>(i)).key == 0);
  EXPECT_NEAR(static_cast<double>(hot) / n, 0.25, 0.02);
}

TEST(WorkloadTest, PartitionsAreDisjoint) {
  WorkloadConfig cfg;
  cfg.conflict_rate = 0.0;
  cfg.num_partitions = 5;
  cfg.num_records = 100'000;
  WorkloadGenerator g0(cfg, 0, Rng(3));
  WorkloadGenerator g4(cfg, 4, Rng(4));
  for (int i = 0; i < 5000; ++i) {
    const uint64_t k0 = g0.next(1, static_cast<uint64_t>(i)).key;
    const uint64_t k4 = g4.next(2, static_cast<uint64_t>(i)).key;
    EXPECT_GE(k0, 1u);
    EXPECT_LT(k0, 20'001u);
    EXPECT_GE(k4, 80'001u);
    EXPECT_LT(k4, 100'001u);
  }
}

TEST(WorkloadTest, ValueSizePropagates) {
  WorkloadConfig cfg;
  cfg.value_size = 4096;
  cfg.read_fraction = 0.0;
  WorkloadGenerator gen(cfg, 0, Rng(5));
  const Command c = gen.next(1, 1);
  EXPECT_EQ(c.value_size, 4096u);
  EXPECT_TRUE(c.is_write());
}

TEST(WorkloadTest, SeqAndClientStamped) {
  WorkloadConfig cfg;
  WorkloadGenerator gen(cfg, 0, Rng(6));
  const Command c = gen.next(42, 17);
  EXPECT_EQ(c.client, 42);
  EXPECT_EQ(c.seq, 17u);
}

}  // namespace
}  // namespace praft::kv
