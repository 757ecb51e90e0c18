#include "util/hash.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>

namespace bpart {
namespace {

/// 1000 bytes of a fixed pattern: byte i is (131 i + 17) mod 256.
std::array<unsigned char, 1000> pattern() {
  std::array<unsigned char, 1000> buf{};
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<unsigned char>(i * 131 + 17);
  return buf;
}

// Known answers pin every cache key and artifact checksum: a change to any
// of them silently turns every cached entry into a miss. "" and "abc" are
// reference XXH64 vectors; the pattern lengths cover the tail-only path
// (1, 31), one exact stripe (32), a stripe plus tail (33) and many stripes.
TEST(Hash64, KnownAnswers) {
  EXPECT_EQ(hash64(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(hash64("abc"), 0x44bc2cf5ad770999ULL);
  const auto buf = pattern();
  EXPECT_EQ(hash64(buf.data(), 0), 0xef46db3751d8e999ULL);
  EXPECT_EQ(hash64(buf.data(), 1), 0xad10cd9780ac4ff7ULL);
  EXPECT_EQ(hash64(buf.data(), 31), 0x44cc9efe5d2d0233ULL);
  EXPECT_EQ(hash64(buf.data(), 32), 0x0e1aab1d173cf196ULL);
  EXPECT_EQ(hash64(buf.data(), 33), 0x5c820b4b4fe28fdcULL);
  EXPECT_EQ(hash64(buf.data(), 1000), 0x9fb3251bef67c2b5ULL);
  EXPECT_EQ(hash64(buf.data(), 33, 0x123456789abcdef0ULL),
            0x6c67e1a0c3061407ULL);
}

TEST(Hash64, ChainedSpansSeedTheNextSpan) {
  const auto buf = pattern();
  const std::uint64_t head = hash64(buf.data(), 100);
  const std::uint64_t chained = hash64(buf.data() + 100, 900, head);
  EXPECT_EQ(chained, 0x25efbe7956b60c19ULL);
  // A chain depends on where the spans split.
  EXPECT_NE(chained, hash64(buf.data(), 1000));
}

TEST(Hash64, AnyAlignmentGivesTheSameHash) {
  const auto buf = pattern();
  std::array<unsigned char, 1008> shifted{};
  for (std::size_t offset = 0; offset < 8; ++offset) {
    std::copy(buf.begin(), buf.end(), shifted.begin() + offset);
    EXPECT_EQ(hash64(shifted.data() + offset, buf.size()),
              0x9fb3251bef67c2b5ULL)
        << "offset " << offset;
  }
}

}  // namespace
}  // namespace bpart
