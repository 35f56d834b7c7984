#include "inputs.h"

#include <algorithm>

#include "temporal/predicates.h"

namespace wirebench {

using grtdb::IndexOp;
using grtdb::TimeExtent;

std::vector<uint64_t> OverlapIds(const Relation& relation,
                                 const TimeExtent& query, int64_t ct) {
  std::vector<uint64_t> ids;
  for (const auto& [id, extent] : relation) {
    if (grtdb::ExtentsOverlap(extent, query, ct)) ids.push_back(id);
  }
  return ids;
}

EqualIndex::EqualIndex(const Relation& relation) {
  for (const auto& [id, extent] : relation) Add(id, extent);
}

void EqualIndex::Add(uint64_t id, const TimeExtent& extent) {
  by_tt_begin_[extent.tt_begin.chronon()].push_back(id);
}

std::vector<uint64_t> EqualIndex::Ids(const Relation& relation,
                                      const TimeExtent& query,
                                      int64_t ct) const {
  std::vector<uint64_t> ids;
  auto bucket = by_tt_begin_.find(query.tt_begin.chronon());
  if (bucket == by_tt_begin_.end()) return ids;
  for (uint64_t id : bucket->second) {
    if (grtdb::ExtentsEqual(relation.at(id), query, ct)) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string ExtentText(const TimeExtent& extent) {
  return extent.ToChrononString();
}

namespace {

void Apply(const std::vector<IndexOp>& ops, Relation* relation) {
  // A kDelete is always followed by the kInsert of the same id's frozen
  // version, so applying the inserts alone yields the new state.
  for (const IndexOp& op : ops) {
    if (op.kind == IndexOp::Kind::kInsert) (*relation)[op.payload] = op.extent;
  }
}

// The statements for one action: a kDelete + kInsert pair of one id is a
// logical deletion (UPDATE to the frozen version), a lone kInsert a new
// version.
std::vector<std::string> Statements(const std::vector<IndexOp>& ops) {
  std::vector<std::string> out;
  for (size_t i = 0; i < ops.size(); ++i) {
    const IndexOp& op = ops[i];
    const std::string id = std::to_string(op.payload);
    if (op.kind == IndexOp::Kind::kDelete) {
      const IndexOp& frozen = ops.at(i + 1);
      out.push_back("UPDATE t SET e = '" + ExtentText(frozen.extent) +
                    "' WHERE Equal(e, '" + ExtentText(op.extent) +
                    "') AND id = " + id);
      ++i;
    } else {
      out.push_back("INSERT INTO t VALUES (" + id + ", '" +
                    ExtentText(op.extent) + "')");
    }
  }
  return out;
}

}  // namespace

Inputs MakeInputs(uint64_t seed, uint64_t base_actions,
                  size_t stream_actions) {
  grtdb::WorkloadOptions options;
  options.seed = seed;
  grtdb::BitemporalWorkload generator(options);
  for (uint64_t i = 0; i < base_actions; ++i) generator.NextAction();

  Inputs in;
  in.base_ct = generator.current_time();
  in.base.insert(generator.live().begin(), generator.live().end());
  for (const auto& [id, extent] : in.base) {
    in.load_rows += std::to_string(id) + "|" + ExtentText(extent) + "\n";
  }

  Relation state = in.base;
  EqualIndex equal(state);
  while (in.stream.size() < stream_actions) {
    WriteAction action;
    action.ops = generator.NextAction();
    if (action.ops.empty()) continue;  // a freeze in its insert chronon
    action.ct = generator.current_time();
    action.statements = Statements(action.ops);
    for (const IndexOp& op : action.ops) {
      if (op.kind != IndexOp::Kind::kInsert) continue;
      if (state.count(op.payload) == 0) equal.Add(op.payload, op.extent);
      state[op.payload] = op.extent;
      action.probe = op.extent;
    }
    action.probe_ids = equal.Ids(state, action.probe, action.ct);
    in.stream.push_back(std::move(action));
  }
  return in;
}

Relation ApplyStream(const Relation& base,
                     const std::vector<WriteAction>& stream, size_t count) {
  Relation state = base;
  for (size_t i = 0; i < count && i < stream.size(); ++i) {
    Apply(stream[i].ops, &state);
  }
  return state;
}

}  // namespace wirebench
