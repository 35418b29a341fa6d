#include "util/bitpack.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace uesr::util {
namespace {

TEST(BitsForValue, SmallValues) {
  EXPECT_EQ(bits_for_value(0), 1);
  EXPECT_EQ(bits_for_value(1), 1);
  EXPECT_EQ(bits_for_value(2), 2);
  EXPECT_EQ(bits_for_value(3), 2);
  EXPECT_EQ(bits_for_value(4), 3);
  EXPECT_EQ(bits_for_value(255), 8);
  EXPECT_EQ(bits_for_value(256), 9);
}

TEST(BitsForValue, Huge) {
  EXPECT_EQ(bits_for_value(~0ULL), 64);
}

TEST(BitsForCount, Conventions) {
  EXPECT_EQ(bits_for_count(0), 0);
  EXPECT_EQ(bits_for_count(1), 0);
  EXPECT_EQ(bits_for_count(2), 1);
  EXPECT_EQ(bits_for_count(3), 2);
  EXPECT_EQ(bits_for_count(4), 2);
  EXPECT_EQ(bits_for_count(5), 3);
  EXPECT_EQ(bits_for_count(1ULL << 32), 32);
}

TEST(CeilLog2, Values) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
  EXPECT_THROW(ceil_log2(0), std::invalid_argument);
}

TEST(FloorLog2, Values) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(4), 2);
  EXPECT_THROW(floor_log2(0), std::invalid_argument);
}

TEST(BitMath, CeilFloorRelation) {
  for (std::uint64_t v = 1; v < 4096; ++v) {
    EXPECT_LE(floor_log2(v), ceil_log2(v));
    EXPECT_LE(ceil_log2(v) - floor_log2(v), 1);
    bool pow2 = (v & (v - 1)) == 0;
    EXPECT_EQ(floor_log2(v) == ceil_log2(v), pow2) << v;
  }
}

TEST(PackedArray, DefaultIsEmpty) {
  PackedArray a;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.width(), 0);
  EXPECT_EQ(a, PackedArray());
}

TEST(PackedArray, ZeroInitialized) {
  PackedArray a(5, 100);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(a.get(i), 0u);
}

TEST(PackedArray, WidthBounds) {
  EXPECT_THROW(PackedArray(0, 4), std::invalid_argument);
  EXPECT_THROW(PackedArray(58, 4), std::invalid_argument);
  EXPECT_NO_THROW(PackedArray(1, 4));
  EXPECT_NO_THROW(PackedArray(57, 4));
}

TEST(PackedArray, SetGetRoundTripAllWidths) {
  // Every width, entries straddling word boundaries, random values — each
  // set/get round-trips the masked value and neighbours are undisturbed.
  for (int w = 1; w <= 57; ++w) {
    const std::size_t n = 200;  // > 3 words for every width
    PackedArray a(w, n);
    std::vector<std::uint64_t> ref(n, 0);
    Pcg32 rng(0xb17'0000 + static_cast<std::uint64_t>(w));
    const std::uint64_t mask =
        w >= 64 ? ~0ULL : ((std::uint64_t{1} << w) - 1);
    for (int round = 0; round < 400; ++round) {
      const std::size_t i = rng() % n;
      const std::uint64_t v =
          (static_cast<std::uint64_t>(rng()) << 32) | rng();
      a.set(i, v);
      ref[i] = v & mask;
    }
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(a.get(i), ref[i]) << "w=" << w << " i=" << i;
  }
}

TEST(PackedArray, MaskingWideValues) {
  PackedArray a(2, 8);
  a.set(3, 0b1110);  // masked to 0b10
  EXPECT_EQ(a.get(3), 0b10u);
  EXPECT_EQ(a.get(2), 0u);
  EXPECT_EQ(a.get(4), 0u);
}

TEST(PackedArray, LastEntryStraddleIsSafe) {
  // 57-bit entries at the tail force the straddle read of words_[word + 1];
  // the spare word guarantees it stays in bounds (ASan-clean by design).
  PackedArray a(57, 9);
  const std::uint64_t v = (std::uint64_t{1} << 57) - 1;
  a.set(8, v);
  EXPECT_EQ(a.get(8), v);
}

TEST(PackedArray, EqualityIsObservational) {
  PackedArray a(3, 10), b(3, 10);
  EXPECT_EQ(a, b);
  a.set(7, 5);
  EXPECT_NE(a, b);
  b.set(7, 5);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, PackedArray(3, 11));
  EXPECT_NE(a, PackedArray(4, 10));
}

TEST(PackedArray, ByteSizeQuartersPortStorage) {
  // The motivating consumer: 2-bit ports for a million half-edges take
  // ~250 KB instead of 4 MB of u32s.
  PackedArray ports(2, 1'000'000);
  EXPECT_LE(ports.byte_size(), 250'024u);
}

TEST(PackedArray, RepeatingEqualsEntryWiseSet) {
  // Sizes around the word-copy cycle (96 entries at width 2, period 3)
  // and widths whose cycle spans many words or entries straddling words.
  for (auto [width, period] :
       {std::pair{2, std::vector<std::uint64_t>{1, 0, 2}},
        std::pair{3, std::vector<std::uint64_t>{5, 1}},
        std::pair{7, std::vector<std::uint64_t>{100, 3, 77, 0, 127}},
        std::pair{1, std::vector<std::uint64_t>{1}}})
    for (std::size_t size : {0, 1, 2, 31, 32, 95, 96, 97, 200, 1000, 4099}) {
      PackedArray want(width, size);
      for (std::size_t i = 0; i < size; ++i)
        want.set(i, period[i % period.size()]);
      EXPECT_TRUE(PackedArray::repeating(width, size, period) == want)
          << "width " << width << " size " << size;
    }
  EXPECT_THROW(PackedArray::repeating(2, 4, {}), std::invalid_argument);
}

}  // namespace
}  // namespace uesr::util
