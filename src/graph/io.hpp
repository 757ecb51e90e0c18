// Graph file IO: the text edge list — one "src dst" pair per line, '#'
// comments; the format of SNAP / KONECT dumps, so users can load real
// datasets if they have them. This is the simple reference loader;
// pipeline/ingest.hpp is the sharded one the runner uses.
#pragma once

#include <string>

#include "graph/edge_list.hpp"

namespace bpart::graph {

/// Parse a text edge list. Throws std::runtime_error on unreadable files or
/// malformed lines (with line number in the message).
EdgeList load_text_edges(const std::string& path);

void save_text_edges(const EdgeList& edges, const std::string& path);

}  // namespace bpart::graph
