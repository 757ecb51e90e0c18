#include "pipeline/artifact_store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "util/hash.hpp"
#include "util/logging.hpp"

namespace bpart::pipeline {

namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kArtifactMagic = 0x314341'5452415042ULL;  // "BPARTAC1"
constexpr std::uint32_t kFormatVersion = 2;
constexpr std::uint32_t kKindGraph = 1;
constexpr std::uint32_t kKindPartition = 2;
constexpr std::uint32_t kKindPerm = 3;

struct ArtifactHeader {
  std::uint64_t magic;
  std::uint32_t format_version;
  std::uint32_t kind;
  std::uint64_t key;
  std::uint64_t payload_bytes;
  std::uint64_t payload_hash;
};

/// One field or array of a payload. A payload is a list of spans, written
/// back to back; its checksum chains hash64 over them in order.
using Bytes = std::span<const char>;

template <typename T>
Bytes array_bytes(std::span<const T> xs) {
  return {reinterpret_cast<const char*>(xs.data()), xs.size_bytes()};
}

template <typename T>
Bytes field_bytes(const T& v) {
  static_assert(std::is_arithmetic_v<T>);
  return array_bytes(std::span<const T>(&v, 1));
}

const char* kind_ext(std::uint32_t kind) {
  if (kind == kKindGraph) return ".graph";
  return kind == kKindPerm ? ".perm" : ".part";
}

/// An artifact read straight into its destination arrays. open() checks
/// the header, and that the payload fills the rest of the file, before the
/// caller sizes any array from the payload's own fields; each read chains
/// the checksum; finish() checks that the payload ended at the end of the
/// file and that the checksum holds. A failed check rejects the file.
class ArtifactFile {
 public:
  explicit ArtifactFile(std::string path) : path_(std::move(path)) {}

  /// False on a plain miss (no file) or a rejected header.
  bool open(std::uint32_t kind, std::uint64_t key) {
    f_.open(path_, std::ios::binary | std::ios::ate);
    if (!f_) return false;
    const std::streamoff size = f_.tellg();
    f_.seekg(0);
    ArtifactHeader hdr{};
    if (size < static_cast<std::streamoff>(sizeof(hdr)) ||
        !f_.read(reinterpret_cast<char*>(&hdr), sizeof(hdr)))
      return fail("truncated header");
    if (hdr.magic != kArtifactMagic) return fail("bad magic");
    if (hdr.format_version != kFormatVersion)
      return fail("format version " + std::to_string(hdr.format_version) +
                  " != " + std::to_string(kFormatVersion));
    if (hdr.kind != kind) return fail("wrong artifact kind");
    if (hdr.key != key)
      return fail("key mismatch (hash collision or renamed entry)");
    const auto on_disk = static_cast<std::uint64_t>(size) - sizeof(hdr);
    if (hdr.payload_bytes != on_disk)
      return fail("payload size " + std::to_string(hdr.payload_bytes) +
                  " != " + std::to_string(on_disk) + " bytes on disk");
    payload_bytes_ = hdr.payload_bytes;
    expected_hash_ = hdr.payload_hash;
    return true;
  }

  [[nodiscard]] std::uint64_t payload_bytes() const { return payload_bytes_; }

  template <typename T>
  bool read(T& v) {
    return read(std::span<T>(&v, 1));
  }

  template <typename T>
  bool read(std::span<T> xs) {
    auto* dst = reinterpret_cast<char*>(xs.data());
    if (!f_.read(dst, static_cast<std::streamsize>(xs.size_bytes())))
      return fail("truncated payload");
    hash_ = hash64(dst, xs.size_bytes(), hash_);
    return true;
  }

  bool finish() {
    if (f_.peek() != std::ifstream::traits_type::eof())
      return fail("trailing bytes after payload");
    if (hash_ != expected_hash_) return fail("payload checksum mismatch");
    return true;
  }

  /// Warns, removes the file and returns false.
  bool fail(const std::string& why) {
    LOG_WARN << "artifact cache: rejecting " << path_ << " (" << why
             << "); entry will be rebuilt";
    std::error_code ec;
    fs::remove(path_, ec);
    return false;
  }

 private:
  std::string path_;
  std::ifstream f_;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t expected_hash_ = 0;
  std::uint64_t hash_ = 0;
};

/// Hashes the spans, then writes the header and the spans themselves to a
/// `.tmp` file renamed over `path`: no staging copy of the payload.
bool write_artifact(const std::string& dir, const std::string& path,
                    std::uint32_t kind, std::uint64_t key,
                    std::initializer_list<Bytes> spans) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    LOG_WARN << "artifact cache: cannot create " << dir << ": "
             << ec.message();
    return false;
  }
  ArtifactHeader hdr{kArtifactMagic, kFormatVersion, kind, key, 0, 0};
  for (const Bytes s : spans) {
    hdr.payload_bytes += s.size();
    hdr.payload_hash = hash64(s.data(), s.size(), hdr.payload_hash);
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) {
      LOG_WARN << "artifact cache: cannot write " << tmp;
      return false;
    }
    f.write(reinterpret_cast<const char*>(&hdr), sizeof(hdr));
    for (const Bytes s : spans)
      f.write(s.data(), static_cast<std::streamsize>(s.size()));
    if (!f) {
      LOG_WARN << "artifact cache: write error on " << tmp;
      return false;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    LOG_WARN << "artifact cache: cannot rename " << tmp << ": "
             << ec.message();
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

/// True when `count` elements of `elem` bytes each take exactly `bytes`;
/// divides rather than multiplies, so a forged count cannot overflow.
bool fills(std::uint64_t bytes, std::uint64_t count, std::uint64_t elem) {
  return bytes % elem == 0 && bytes / elem == count;
}

}  // namespace

std::uint64_t graph_revision(const graph::Graph& g) {
  const std::uint64_t counts[] = {g.num_vertices(), g.num_edges()};
  std::uint64_t h = hash64(counts, sizeof(counts));
  // Targets alone don't pin the structure (they lack the run boundaries),
  // so fold the out-offsets in too; the in-side is derived from the same
  // edge set and adds nothing.
  const auto offsets = g.out_offsets();
  const auto targets = g.out_targets();
  h = hash64(offsets.data(), offsets.size_bytes(), h);
  h = hash64(targets.data(), targets.size_bytes(), h);
  return h;
}

CacheKey CacheKey::for_file(const std::string& path, std::string_view tag) {
  std::ifstream f(path, std::ios::binary);
  if (!f)
    throw std::runtime_error("cannot hash cache input: " + path);
  std::uint64_t h = hash64(tag);
  std::vector<char> buf(1 << 20);
  while (f) {
    f.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (f.gcount() > 0)
      h = hash64(buf.data(), static_cast<std::size_t>(f.gcount()), h);
  }
  if (f.bad()) throw std::runtime_error("cannot hash cache input: " + path);
  return CacheKey(h, "file:" + path + ":" + std::string(tag));
}

CacheKey CacheKey::for_spec(std::string_view spec) {
  return CacheKey(hash64(spec), "spec:" + std::string(spec));
}

CacheKey CacheKey::derive(std::string_view suffix) const {
  return CacheKey(hash64(suffix, hash_), desc_ + std::string(suffix));
}

std::string CacheKey::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

ArtifactStore::ArtifactStore(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) dir_ = default_dir();
}

std::string ArtifactStore::default_dir() {
  if (const char* dir = std::getenv("BPART_CACHE_DIR");
      dir != nullptr && dir[0] != '\0')
    return dir;
  return ".bpart-cache";
}

bool ArtifactStore::enabled() {
  const char* v = std::getenv("BPART_CACHE");
  if (v == nullptr) return true;
  const std::string s(v);
  return !(s == "0" || s == "false" || s == "off" || s == "no");
}

// Graph payload: n, m, sides (u64 each), out-offsets (n + 1), out-targets
// (m), then in-offsets and in-targets only when sides == 2. A graph whose
// in-side equals its out-side (every symmetric build) stores one side.
std::optional<graph::Graph> ArtifactStore::load_graph(
    const CacheKey& key) const {
  ArtifactFile file(dir_ + "/" + key.hex() + kind_ext(kKindGraph));
  if (!file.open(kKindGraph, key.hash())) return std::nullopt;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t sides = 0;
  if (!file.read(n) || !file.read(m) || !file.read(sides))
    return std::nullopt;
  // Each side is n + 1 offsets and m targets; check that `sides` of them
  // fill the payload before sizing any array from n or m. The payload
  // matches a real file's size, so once n and m are bounded by it the side
  // size cannot overflow.
  const std::uint64_t body = file.payload_bytes() - 3 * sizeof(std::uint64_t);
  const bool fits =
      (sides == 1 || sides == 2) && n < body / sizeof(graph::EdgeId) &&
      m <= body / sizeof(graph::VertexId) &&
      fills(body, sides,
            (n + 1) * sizeof(graph::EdgeId) + m * sizeof(graph::VertexId));
  if (!fits) {
    file.fail("payload layout mismatch");
    return std::nullopt;
  }
  std::vector<graph::EdgeId> out_off(n + 1);
  std::vector<graph::VertexId> out_tgt(m);
  std::vector<graph::EdgeId> in_off;
  std::vector<graph::VertexId> in_tgt;
  if (!file.read(std::span(out_off)) || !file.read(std::span(out_tgt)))
    return std::nullopt;
  if (sides == 2) {
    in_off.resize(n + 1);
    in_tgt.resize(m);
    if (!file.read(std::span(in_off)) || !file.read(std::span(in_tgt)))
      return std::nullopt;
  }
  if (!file.finish()) return std::nullopt;
  if (sides == 1) {
    in_off = out_off;
    in_tgt = out_tgt;
  }
  try {
    return graph::Graph::from_csr(std::move(out_off), std::move(out_tgt),
                                  std::move(in_off), std::move(in_tgt));
  } catch (const std::exception& e) {
    file.fail(std::string("invalid CSR: ") + e.what());
    return std::nullopt;
  }
}

bool ArtifactStore::store_graph(const CacheKey& key,
                                const graph::Graph& g) const {
  const bool one_side = std::ranges::equal(g.in_offsets(), g.out_offsets()) &&
                        std::ranges::equal(g.in_targets(), g.out_targets());
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t m = g.num_edges();
  const std::uint64_t sides = one_side ? 1 : 2;
  const std::string path = dir_ + "/" + key.hex() + kind_ext(kKindGraph);
  if (one_side)
    return write_artifact(dir_, path, kKindGraph, key.hash(),
                          {field_bytes(n), field_bytes(m), field_bytes(sides),
                           array_bytes(g.out_offsets()),
                           array_bytes(g.out_targets())});
  return write_artifact(
      dir_, path, kKindGraph, key.hash(),
      {field_bytes(n), field_bytes(m), field_bytes(sides),
       array_bytes(g.out_offsets()), array_bytes(g.out_targets()),
       array_bytes(g.in_offsets()), array_bytes(g.in_targets())});
}

// Partition payload: n (u64), k (u32), n assignment entries.
std::optional<partition::Partition> ArtifactStore::load_partition(
    const CacheKey& key) const {
  ArtifactFile file(dir_ + "/" + key.hex() + kind_ext(kKindPartition));
  if (!file.open(kKindPartition, key.hash())) return std::nullopt;
  std::uint64_t n = 0;
  std::uint32_t k = 0;
  if (!file.read(n) || !file.read(k)) return std::nullopt;
  if (!fills(file.payload_bytes() - sizeof(n) - sizeof(k), n,
             sizeof(partition::PartId))) {
    file.fail("payload layout mismatch");
    return std::nullopt;
  }
  std::vector<partition::PartId> assign(n);
  if (!file.read(std::span(assign)) || !file.finish()) return std::nullopt;
  try {
    return partition::Partition(std::move(assign), k);
  } catch (const std::exception& e) {
    file.fail(std::string("invalid partition: ") + e.what());
    return std::nullopt;
  }
}

bool ArtifactStore::store_partition(const CacheKey& key,
                                    const partition::Partition& p) const {
  const std::uint64_t n = p.num_vertices();
  const std::uint32_t k = p.num_parts();
  const std::string path = dir_ + "/" + key.hex() + kind_ext(kKindPartition);
  return write_artifact(dir_, path, kKindPartition, key.hash(),
                        {field_bytes(n), field_bytes(k),
                         array_bytes(p.assignment())});
}

// Permutation payload: n (u64), n vertex ids.
std::optional<std::vector<graph::VertexId>> ArtifactStore::load_perm(
    const CacheKey& key) const {
  ArtifactFile file(dir_ + "/" + key.hex() + kind_ext(kKindPerm));
  if (!file.open(kKindPerm, key.hash())) return std::nullopt;
  std::uint64_t n = 0;
  if (!file.read(n)) return std::nullopt;
  if (!fills(file.payload_bytes() - sizeof(n), n, sizeof(graph::VertexId))) {
    file.fail("payload layout mismatch");
    return std::nullopt;
  }
  std::vector<graph::VertexId> perm(n);
  if (!file.read(std::span(perm)) || !file.finish()) return std::nullopt;
  // Structural validation mirrors the graph/partition loaders: a corrupt
  // permutation silently scrambles every downstream result, so reject loudly.
  std::vector<bool> seen(perm.size(), false);
  for (graph::VertexId x : perm) {
    if (x >= perm.size() || seen[x]) {
      file.fail("not a permutation");
      return std::nullopt;
    }
    seen[x] = true;
  }
  return perm;
}

bool ArtifactStore::store_perm(const CacheKey& key,
                               const std::vector<graph::VertexId>& perm) const {
  const std::uint64_t n = perm.size();
  const std::string path = dir_ + "/" + key.hex() + kind_ext(kKindPerm);
  return write_artifact(dir_, path, kKindPerm, key.hash(),
                        {field_bytes(n),
                         array_bytes(std::span<const graph::VertexId>(perm))});
}

bool ArtifactStore::has_graph(const CacheKey& key) const {
  std::error_code ec;
  return fs::exists(dir_ + "/" + key.hex() + kind_ext(kKindGraph), ec);
}

bool ArtifactStore::has_partition(const CacheKey& key) const {
  std::error_code ec;
  return fs::exists(dir_ + "/" + key.hex() + kind_ext(kKindPartition), ec);
}

bool ArtifactStore::has_perm(const CacheKey& key) const {
  std::error_code ec;
  return fs::exists(dir_ + "/" + key.hex() + kind_ext(kKindPerm), ec);
}

std::size_t ArtifactStore::purge() const {
  std::error_code ec;
  std::size_t removed = 0;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const auto ext = entry.path().extension();
    if (ext == ".graph" || ext == ".part" || ext == ".perm" ||
        ext == ".tmp") {
      fs::remove(entry.path(), ec);
      if (!ec) ++removed;
    }
  }
  return removed;
}

}  // namespace bpart::pipeline
