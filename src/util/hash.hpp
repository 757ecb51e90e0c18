// Word-at-a-time 64-bit content hash: the XXH64 algorithm (Yann Collet).
//
// The artifact store hashes every byte it keys, checksums or revisions, so
// the hash has to run near memory speed. Four independent lanes consume
// 32-byte stripes with a multiply-rotate round; a final avalanche mixes the
// lanes with the tail. One thread hashes 4.6-6.0 GB/s (64 MB buffer, -O2,
// 4-vCPU Xeon VM), where byte-at-a-time FNV-1a ran 0.57-0.71 GB/s.
//
// Words load through memcpy, so any alignment is safe, in host byte order:
// on a little-endian host the output equals reference XXH64, which is what
// the known-answer tests pin (tests/util/test_hash.cpp). Seeding chains
// spans: a payload of several arrays hashes as h = hash64(span_i, h). The
// chain depends on where the spans split, so a writer and its reader must
// split the same way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace bpart {

namespace detail {

inline constexpr std::uint64_t kXxP1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kXxP2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kXxP3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kXxP4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kXxP5 = 0x27D4EB2F165667C5ULL;

constexpr std::uint64_t rotl64(std::uint64_t x, int r) noexcept {
  return (x << r) | (x >> (64 - r));
}

inline std::uint64_t load64(const unsigned char* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t load32(const unsigned char* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

constexpr std::uint64_t xx_round(std::uint64_t acc,
                                 std::uint64_t input) noexcept {
  return rotl64(acc + input * kXxP2, 31) * kXxP1;
}

constexpr std::uint64_t xx_merge(std::uint64_t h, std::uint64_t lane) noexcept {
  return (h ^ xx_round(0, lane)) * kXxP1 + kXxP4;
}

}  // namespace detail

/// XXH64 of the `n` bytes at `data` under `seed`.
[[nodiscard]] inline std::uint64_t hash64(const void* data, std::size_t n,
                                          std::uint64_t seed = 0) noexcept {
  using namespace detail;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  std::uint64_t h = 0;
  if (n >= 32) {
    std::uint64_t v1 = seed + kXxP1 + kXxP2;
    std::uint64_t v2 = seed + kXxP2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kXxP1;
    const unsigned char* const last_stripe = end - 32;
    do {
      v1 = xx_round(v1, load64(p));
      v2 = xx_round(v2, load64(p + 8));
      v3 = xx_round(v3, load64(p + 16));
      v4 = xx_round(v4, load64(p + 24));
      p += 32;
    } while (p <= last_stripe);
    h = rotl64(v1, 1) + rotl64(v2, 7) + rotl64(v3, 12) + rotl64(v4, 18);
    h = xx_merge(h, v1);
    h = xx_merge(h, v2);
    h = xx_merge(h, v3);
    h = xx_merge(h, v4);
  } else {
    h = seed + kXxP5;
  }
  h += static_cast<std::uint64_t>(n);
  for (; end - p >= 8; p += 8)
    h = rotl64(h ^ xx_round(0, load64(p)), 27) * kXxP1 + kXxP4;
  if (end - p >= 4) {
    h = rotl64(h ^ (load32(p) * kXxP1), 23) * kXxP2 + kXxP3;
    p += 4;
  }
  for (; p < end; ++p) h = rotl64(h ^ (*p * kXxP5), 11) * kXxP1;
  h ^= h >> 33;
  h *= kXxP2;
  h ^= h >> 29;
  h *= kXxP3;
  h ^= h >> 32;
  return h;
}

[[nodiscard]] inline std::uint64_t hash64(std::string_view s,
                                          std::uint64_t seed = 0) noexcept {
  return hash64(s.data(), s.size(), seed);
}

}  // namespace bpart
