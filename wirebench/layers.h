#ifndef WIREBENCH_LAYERS_H_
#define WIREBENCH_LAYERS_H_

// The [call] half of the per-layer metrics: each layer's public entry
// points timed from outside the server on the workload's own inputs.

#include <cstdint>
#include <string>
#include <vector>

#include "core/grtree.h"
#include "inputs.h"
#include "report.h"
#include "spans.h"

namespace wirebench {

struct LayerInputs {
  const Inputs* inputs = nullptr;
  size_t actions_run = 0;  // stream prefix the served index received
  // The workload's reads, as the GR-tree sees them, with their oracle ids
  // at `read_ct` on the base, or on the state after the stream prefix when
  // `reads_after_stream`.
  grtdb::PredicateOp read_op = grtdb::PredicateOp::kEqual;
  std::vector<grtdb::TimeExtent> read_queries;
  std::vector<std::vector<uint64_t>> read_ids;
  int64_t read_ct = 0;
  bool reads_after_stream = false;
  std::vector<std::string> statements;  // SQL texts the workload sends
  std::vector<std::string> literals;    // extent literals it sends
  bool external_file = false;           // the workload's storage layout
  std::string workdir;
  uint64_t served_nodes_after_load = 0;  // sys_index_stats after setup
};

// Times GRTree, NodeCache, Pager, Sbspace, WalNodeStore, LockManager, the
// temporal predicates and parser, and the SQL parser; adds core.*,
// storage.*, txn.*, temporal.* and sql.* metrics. Returns false (with
// `error`) when a cross-check fails: the in-memory tree must match the
// served index's node count and return the oracle's answers.
bool TimeLayerCalls(const LayerInputs& in, BenchTrace* trace, Metrics* out,
                    std::string* error);

}  // namespace wirebench

#endif  // WIREBENCH_LAYERS_H_
