#include "obs/query_profile.h"

namespace grtdb {
namespace obs {

namespace {
thread_local QueryProfile* g_current_profile = nullptr;
}  // namespace

const char* PurposeFnName(PurposeFn fn) {
  switch (fn) {
    case PurposeFn::kAmCreate: return "am_create";
    case PurposeFn::kAmDrop: return "am_drop";
    case PurposeFn::kAmOpen: return "am_open";
    case PurposeFn::kAmClose: return "am_close";
    case PurposeFn::kAmBeginScan: return "am_beginscan";
    case PurposeFn::kAmEndScan: return "am_endscan";
    case PurposeFn::kAmRescan: return "am_rescan";
    case PurposeFn::kAmGetNext: return "am_getnext";
    case PurposeFn::kAmInsert: return "am_insert";
    case PurposeFn::kAmDelete: return "am_delete";
    case PurposeFn::kAmUpdate: return "am_update";
    case PurposeFn::kAmScanCost: return "am_scancost";
    case PurposeFn::kAmStats: return "am_stats";
    case PurposeFn::kAmCheck: return "am_check";
  }
  return "purpose_unknown";
}

void QueryProfile::Reset() {
  static_cast<ProfileCounters&>(*this) = ProfileCounters();
  runs_.clear();
  runs_dropped_ = 0;
}

void QueryProfile::CountCall(PurposeFn fn, const std::string& name) {
  ++fn_calls[static_cast<size_t>(fn)];
  if (runs_dropped_ == 0 && !runs_.empty() && runs_.back().fn == fn &&
      runs_.back().name == name) {
    ++runs_.back().count;
  } else if (runs_.size() < kMaxRuns) {
    runs_.push_back({fn, name, 1});
  } else {
    ++runs_dropped_;
  }
}

std::vector<PurposeFn> QueryProfile::sequence() const {
  std::vector<PurposeFn> seq;
  for (const PurposeRun& run : runs_) seq.insert(seq.end(), run.count, run.fn);
  return seq;
}

std::vector<std::string> QueryProfile::Report() const {
  std::vector<std::string> lines;
  for (size_t i = 0; i < kPurposeFnCount; ++i) {
    if (fn_calls[i] == 0) continue;
    lines.push_back("PROFILE " +
                    std::string(PurposeFnName(static_cast<PurposeFn>(i))) +
                    " calls=" + std::to_string(fn_calls[i]) +
                    " total_us=" + std::to_string(fn_ns[i] / 1000));
  }
  if (!runs_.empty()) {
    // One entry per function run, in generic names: "am_open am_beginscan
    // am_getnext x61 am_endscan am_close". Adjacent runs of one function
    // under two access methods' names merge.
    std::string seq = "PROFILE sequence:";
    size_t i = 0;
    while (i < runs_.size()) {
      const PurposeFn fn = runs_[i].fn;
      uint64_t count = 0;
      for (; i < runs_.size() && runs_[i].fn == fn; ++i) {
        count += runs_[i].count;
      }
      seq += ' ';
      seq += PurposeFnName(fn);
      if (count > 1) seq += " x" + std::to_string(count);
    }
    if (runs_dropped_ > 0) {
      seq += " ... +" + std::to_string(runs_dropped_) + " dropped";
    }
    lines.push_back(std::move(seq));
  }
  lines.push_back("PROFILE rows_scanned=" + std::to_string(rows_scanned) +
                  " rows_returned=" + std::to_string(rows_returned));
  lines.push_back("PROFILE node_reads=" + std::to_string(node_reads) +
                  " cache_hits=" + std::to_string(cache_hits) +
                  " lock_waits=" + std::to_string(lock_waits) +
                  " lock_wait_us=" + std::to_string(lock_wait_ns / 1000));
  return lines;
}

QueryProfile* CurrentProfile() { return g_current_profile; }

ScopedProfile::ScopedProfile(QueryProfile* profile)
    : prev_(g_current_profile) {
  g_current_profile = profile;
}

ScopedProfile::~ScopedProfile() { g_current_profile = prev_; }

}  // namespace obs
}  // namespace grtdb
