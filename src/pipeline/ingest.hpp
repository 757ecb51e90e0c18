// Parallel text edge-list ingest.
//
// The single-threaded `graph::load_text_edges` re-parses text with
// std::getline on every run, which dominates wall-clock for multi-million
// edge inputs. This module splits the file into newline-aligned byte-range
// shards, parses each shard into its own edge vector on util::parallel_for
// with a byte-scanning parser, and concatenates the shards in byte order —
// so the resulting edge stream is element-for-element the one
// `load_text_edges` produces, and every downstream streaming partitioner
// sees the exact same vertex/edge stream at any thread count.
//
// Accepted syntax matches load_text_edges: "src dst" per line with space,
// tab or comma separators, '#'/'%' comments, blank lines, CRLF line
// endings, trailing whitespace, and extra columns (ignored — SNAP/KONECT
// dumps carry weights/timestamps there). Vertex id 4294967295 is reserved
// (graph::kInvalidVertex) and rejected like any other malformed line.
#pragma once

#include <cstddef>
#include <string>

#include "graph/edge_list.hpp"

namespace bpart::pipeline {

struct IngestConfig {
  /// Load-stage threads: parse, CSR build, relabel. 0 means
  /// bpart::thread_count().
  unsigned threads = 0;
};

struct IngestReport {
  double seconds = 0;        ///< Wall-clock of the whole ingest.
  std::size_t bytes = 0;     ///< File size.
  std::size_t edges = 0;     ///< Edges parsed.
  unsigned threads = 1;      ///< Parser threads actually used.
  unsigned shards = 1;       ///< Byte-range shards.
};

/// Parallel drop-in for graph::load_text_edges: the returned EdgeList is
/// element-for-element identical to the single-threaded loader's. Throws
/// std::runtime_error on unreadable files or malformed lines, citing the
/// byte offset of the file's first malformed line.
graph::EdgeList ingest_text_edges(const std::string& path,
                                  const IngestConfig& cfg = {},
                                  IngestReport* report = nullptr);

}  // namespace bpart::pipeline
