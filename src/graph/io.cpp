#include "graph/io.hpp"

#include <charconv>
#include <fstream>
#include <stdexcept>
#include <string_view>

namespace bpart::graph {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what);
}

/// kInvalidVertex is reserved: as an id it would wrap the vertex count.
bool parse_vertex(std::string_view tok, VertexId& out) {
  const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), out);
  return res.ec == std::errc{} && res.ptr == tok.data() + tok.size() &&
         out != kInvalidVertex;
}

}  // namespace

EdgeList load_text_edges(const std::string& path) {
  std::ifstream f(path);
  if (!f) fail("cannot open edge list: " + path);
  EdgeList edges;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(f, line)) {
    ++line_no;
    std::string_view sv(line);
    // Trim surrounding whitespace — including '\r', so CRLF files (the
    // normal case for SNAP/KONECT dumps saved on Windows) and blank
    // trailing lines parse cleanly. Skip blanks and comments.
    while (!sv.empty() &&
           (sv.front() == ' ' || sv.front() == '\t' || sv.front() == '\r'))
      sv.remove_prefix(1);
    while (!sv.empty() &&
           (sv.back() == ' ' || sv.back() == '\t' || sv.back() == '\r'))
      sv.remove_suffix(1);
    if (sv.empty() || sv.front() == '#' || sv.front() == '%') continue;
    const auto sep = sv.find_first_of(" \t,");
    if (sep == std::string_view::npos)
      fail(path + ":" + std::to_string(line_no) + ": expected 'src dst'");
    std::string_view src_tok = sv.substr(0, sep);
    std::string_view dst_tok = sv.substr(sep + 1);
    while (!dst_tok.empty() &&
           (dst_tok.front() == ' ' || dst_tok.front() == '\t'))
      dst_tok.remove_prefix(1);
    const auto end = dst_tok.find_first_of(" \t\r,");
    if (end != std::string_view::npos) dst_tok = dst_tok.substr(0, end);
    VertexId src = 0, dst = 0;
    if (!parse_vertex(src_tok, src) || !parse_vertex(dst_tok, dst))
      fail(path + ":" + std::to_string(line_no) + ": bad vertex id");
    edges.add(src, dst);
  }
  return edges;
}

void save_text_edges(const EdgeList& edges, const std::string& path) {
  std::ofstream f(path);
  if (!f) fail("cannot write edge list: " + path);
  f << "# bpart edge list: " << edges.num_vertices() << " vertices, "
    << edges.size() << " edges\n";
  for (const Edge& e : edges.edges()) f << e.src << ' ' << e.dst << '\n';
  if (!f) fail("write error on " + path);
}

}  // namespace bpart::graph
