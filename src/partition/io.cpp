#include "partition/io.hpp"

#include <charconv>
#include <fstream>
#include <stdexcept>
#include <string_view>

namespace bpart::partition {

namespace {
[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what);
}

bool parse_u32(std::string_view tok, std::uint32_t& out) {
  const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), out);
  return res.ec == std::errc{} && res.ptr == tok.data() + tok.size();
}

/// Line with its trailing CRs and spaces stripped.
std::string_view trimmed(const std::string& line) {
  std::string_view sv(line);
  while (!sv.empty() && (sv.back() == '\r' || sv.back() == ' '))
    sv.remove_suffix(1);
  return sv;
}

/// Reads "# bpart partition: <n> vertices, <k> parts", each count one whole
/// uint32 token (so a sign or a count past 2^32 - 1 fails).
bool parse_header(std::string_view sv, graph::VertexId& n, PartId& k) {
  constexpr std::string_view kHead = "# bpart partition: ";
  constexpr std::string_view kMid = " vertices, ";
  constexpr std::string_view kTail = " parts";
  if (!sv.starts_with(kHead)) return false;
  sv.remove_prefix(kHead.size());
  if (!sv.ends_with(kTail)) return false;
  sv.remove_suffix(kTail.size());
  const auto mid = sv.find(kMid);
  return mid != std::string_view::npos && parse_u32(sv.substr(0, mid), n) &&
         parse_u32(sv.substr(mid + kMid.size()), k);
}
}  // namespace

void save_partition(const Partition& p, const std::string& path) {
  std::ofstream f(path);
  if (!f) fail("cannot write partition: " + path);
  f << "# bpart partition: " << p.num_vertices() << " vertices, "
    << p.num_parts() << " parts\n";
  for (graph::VertexId v = 0; v < p.num_vertices(); ++v)
    if (p[v] != kUnassigned) f << v << ' ' << p[v] << '\n';
  if (!f) fail("write error on " + path);
}

Partition load_partition(const std::string& path, graph::VertexId vertices) {
  std::ifstream f(path);
  if (!f) fail("cannot open partition: " + path);
  std::string line;
  std::size_t line_no = 0;

  // Header carries the authoritative sizes (vertices may be unassigned and
  // so absent from the body).
  graph::VertexId n = 0;
  PartId k = 0;
  if (!std::getline(f, line)) fail(path + ": empty file");
  ++line_no;
  if (!parse_header(trimmed(line), n, k))
    fail(path + ":1: expected '# bpart partition: <n> vertices, <k> parts'");
  if (n != vertices)
    fail(path + ":1: expected " + std::to_string(vertices) + " vertices");

  Partition p(n, k);
  while (std::getline(f, line)) {
    ++line_no;
    const std::string_view sv = trimmed(line);
    if (sv.empty() || sv.front() == '#') continue;
    const auto sep = sv.find(' ');
    std::uint32_t v = 0, part = 0;
    if (sep == std::string_view::npos || !parse_u32(sv.substr(0, sep), v) ||
        !parse_u32(sv.substr(sep + 1), part))
      fail(path + ":" + std::to_string(line_no) + ": expected 'vertex part'");
    if (v >= n || part >= k)
      fail(path + ":" + std::to_string(line_no) + ": value out of range");
    p.assign(v, part);
  }
  return p;
}

}  // namespace bpart::partition
