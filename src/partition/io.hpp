// Partition persistence: the interchange format between this library and a
// real distributed system's loader. Text format, one "vertex part" pair
// per line with a header comment; round-trips through load_partition.
#pragma once

#include <string>

#include "partition/partition.hpp"

namespace bpart::partition {

/// Writes "# bpart partition: <n> vertices, <k> parts" then one
/// "<vertex> <part>" line per assigned vertex. Throws std::runtime_error
/// on IO failure.
void save_partition(const Partition& p, const std::string& path);

/// Reads the format written by save_partition (missing vertices stay
/// kUnassigned) for a graph of `vertices` vertices. Throws
/// std::runtime_error on malformed input, with the offending line number,
/// and on a header naming another vertex count, before allocating for it.
Partition load_partition(const std::string& path, graph::VertexId vertices);

}  // namespace bpart::partition
