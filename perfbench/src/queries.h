// The seeded query set of the query leg: one client, closed loop, over a
// fixed mix of count / impact / availability calls with node, XID and window
// predicates (the gpures-query verbs).
#pragma once

#include <cstdint>
#include <vector>

#include "index/query.h"
#include "index/reader.h"

namespace perfbench {

enum class QueryOp { kCount, kImpact, kAvailability };
constexpr int kQueryOps = 3;
const char* to_string(QueryOp op);

struct Query {
  QueryOp op = QueryOp::kCount;
  gpures::index::Predicate pred;
};

/// About `n` queries drawn from `seed`.  The mix is stratified: every seed
/// gets the same number of calls of each (op, window length, filter) class,
/// so the latency tail has the same composition; within a class, windows,
/// nodes and XIDs are evenly spread from seeded offsets; and one call in seven of
/// the windowed classes repeats an earlier predicate, so the LRU cache is
/// exercised.
std::vector<Query> make_query_set(const gpures::index::IndexReader& reader,
                                  std::uint64_t seed, std::size_t n);

/// One closed-loop pass over a query set with a fresh engine (cold cache).
struct QueryRound {
  double wall_s = 0;
  std::vector<double> latency_us[kQueryOps];  ///< per call, by op
  std::uint64_t answer_hash = 0;  ///< XXH64 chain over every answer
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// With `traced`, every call runs inside a "pb:query.<op>" span.
QueryRound run_query_round(const gpures::index::IndexReader& reader,
                           const std::vector<Query>& set, bool traced);

}  // namespace perfbench
