#include "pipeline/ingest.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace bpart::pipeline {

namespace {

/// Below this size there is nothing to parallelize; one shard handles it.
constexpr std::uint64_t kMinShardBytes = 64 * 1024;
/// Shards per parser thread (file size permitting).
constexpr unsigned kShardsPerThread = 4;
/// Bytes read from disk at a time by each shard parser.
constexpr std::size_t kReadChunkBytes = 1 << 20;

enum class LineKind { kEdge, kSkip, kBad };

/// Parse one line (sans '\n'). Semantics mirror graph::load_text_edges:
/// leading/trailing spaces, tabs and '\r' are trimmed; blank lines and
/// '#'/'%' comments skip; separators are space/tab/comma; columns after dst
/// are ignored; the reserved id kInvalidVertex is rejected.
LineKind parse_line(const char* b, const char* e, graph::Edge& out) {
  while (b < e && (*b == ' ' || *b == '\t' || *b == '\r')) ++b;
  while (e > b && (e[-1] == ' ' || e[-1] == '\t' || e[-1] == '\r')) --e;
  if (b == e || *b == '#' || *b == '%') return LineKind::kSkip;
  graph::VertexId src = 0;
  graph::VertexId dst = 0;
  const auto r1 = std::from_chars(b, e, src);
  if (r1.ec != std::errc{} || r1.ptr == b || r1.ptr == e) return LineKind::kBad;
  const char sep = *r1.ptr;
  if (sep != ' ' && sep != '\t' && sep != ',') return LineKind::kBad;
  const char* p = r1.ptr + 1;
  while (p < e && (*p == ' ' || *p == '\t')) ++p;
  const auto r2 = std::from_chars(p, e, dst);
  if (r2.ec != std::errc{} || r2.ptr == p) return LineKind::kBad;
  if (r2.ptr != e) {
    const char c = *r2.ptr;
    if (c != ' ' && c != '\t' && c != ',' && c != '\r') return LineKind::kBad;
  }
  if (src == graph::kInvalidVertex || dst == graph::kInvalidVertex)
    return LineKind::kBad;
  out = {src, dst};
  return LineKind::kEdge;
}

/// One byte-range shard's parse result.
struct Shard {
  std::vector<graph::Edge> edges;
  graph::VertexId max_vertex = 0;  ///< Max id referenced (0 if no edges).
  std::string error;               ///< Set at the shard's first bad line.
};

/// Parse the lines *beginning* in [begin, end) into `out`. A line that
/// straddles `end` belongs to this shard; a line straddling `begin` belongs
/// to the previous one — together every byte is owned by exactly one shard.
/// Stops at the shard's first malformed line, recording it in out.error.
void parse_shard(const std::string& path, std::uint64_t begin,
                 std::uint64_t end, Shard& out) {
  BPART_SPAN("ingest/parse_shard", "bytes", static_cast<double>(end - begin));
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    out.error = "cannot open edge list: " + path;
    return;
  }
  std::uint64_t buf_off = 0;  // file offset of buf[0]
  if (begin != 0) {
    // Skip through the first '\n' at or after begin-1, so `begin` itself
    // counts as a line start exactly when the byte before it is '\n'. The
    // skipped bytes end a line the previous shard owns; ignore() drops them
    // without buffering, however long that line is.
    f.seekg(static_cast<std::streamoff>(begin - 1));
    f.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    if (f.eof()) return;  // no line starts at or after `begin`
    buf_off = static_cast<std::uint64_t>(f.tellg());
  }

  std::vector<char> buf;
  std::size_t line = 0;  // index in buf of the current line
  std::size_t scan = 0;  // next byte to scan for '\n'
  bool eof = false;

  // Index of the next '\n' at or after `scan`, reading more of the file
  // (and dropping the bytes before `line`) as needed; buf.size() when the
  // file ends first.
  const auto find_newline = [&]() -> std::size_t {
    for (;;) {
      if (scan < buf.size()) {
        const void* nl =
            std::memchr(buf.data() + scan, '\n', buf.size() - scan);
        if (nl != nullptr)
          return static_cast<std::size_t>(static_cast<const char*>(nl) -
                                          buf.data());
        scan = buf.size();
      }
      if (eof) return buf.size();
      buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(line));
      buf_off += line;
      scan -= line;
      line = 0;
      const std::size_t old = buf.size();
      buf.resize(old + kReadChunkBytes);
      f.read(buf.data() + old, static_cast<std::streamsize>(kReadChunkBytes));
      buf.resize(old + static_cast<std::size_t>(f.gcount()));
      eof = buf.size() == old;
    }
  };

  while (buf_off + line < end) {
    const std::size_t nl = find_newline();
    graph::Edge edge;
    switch (parse_line(buf.data() + line, buf.data() + nl, edge)) {
      case LineKind::kEdge:
        out.edges.push_back(edge);
        out.max_vertex = std::max({out.max_vertex, edge.src, edge.dst});
        break;
      case LineKind::kSkip:
        break;
      case LineKind::kBad:
        out.error = path + ": byte offset " + std::to_string(buf_off + line) +
                    ": malformed line (expected 'src dst')";
        return;
    }
    if (nl == buf.size()) break;  // final line of the file
    line = scan = nl + 1;
  }
}

}  // namespace

graph::EdgeList ingest_text_edges(const std::string& path,
                                  const IngestConfig& cfg,
                                  IngestReport* report) {
  BPART_SPAN("ingest/text_file");
  obs::ScopedLatency ingest_latency(obs::latency("ingest.text_file"));
  Timer timer;

  std::error_code ec;
  const std::uint64_t bytes = std::filesystem::file_size(path, ec);
  if (ec) throw std::runtime_error("cannot open edge list: " + path);

  const unsigned threads = cfg.threads != 0 ? cfg.threads : thread_count();
  const std::uint64_t max_shards =
      static_cast<std::uint64_t>(threads) * kShardsPerThread;
  const auto num_shards = static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(bytes / kMinShardBytes, 1, max_shards));
  const unsigned workers = std::min(threads, num_shards);

  std::vector<Shard> shards(num_shards);
  parallel_for(0, num_shards, workers, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t s = lo; s < hi; ++s) {
      parse_shard(path, bytes * s / num_shards, bytes * (s + 1) / num_shards,
                  shards[s]);
      // This worker's later shards cannot hold the file's first bad line.
      if (!shards[s].error.empty()) break;
    }
  });

  // Shards are in byte order and each stops at its first bad line, so the
  // first failing shard names the file's first malformed line.
  std::size_t total = 0;
  for (const Shard& s : shards) {
    if (!s.error.empty()) throw std::runtime_error(s.error);
    total += s.edges.size();
  }
  graph::EdgeList edges;
  edges.reserve(total);
  for (Shard& s : shards) {
    edges.append(s.edges, s.max_vertex);
    std::vector<graph::Edge>().swap(s.edges);
  }

  obs::counter("ingest.edges").add(total);
  obs::counter("ingest.bytes").add(bytes);
  if (report != nullptr) {
    report->seconds = timer.seconds();
    report->bytes = bytes;
    report->edges = total;
    report->threads = workers;
    report->shards = num_shards;
  }
  return edges;
}

}  // namespace bpart::pipeline
