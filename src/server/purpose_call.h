#ifndef GRTDB_SERVER_PURPOSE_CALL_H_
#define GRTDB_SERVER_PURPOSE_CALL_H_

#include "obs/fast_clock.h"
#include "obs/flight_recorder.h"
#include "obs/query_profile.h"
#include "obs/span_tracer.h"
#include "server/catalog.h"
#include "server/server.h"

namespace grtdb {

// RAII wrapper around one VII purpose-function invocation: records the call
// under the access method's name for it in the statement's QueryProfile
// (the paper's Fig. 6 call record) and — when server observability is on —
// times it into the profile and into the session's purpose-call tally,
// which the server folds into vii.<fn>.calls and vii.<fn>.us once per
// statement. The tally keeps the histogram's buckets, so the registry holds
// after each statement exactly what recording every call there would have
// left, without a shared atomic per call (an index scan makes one call per
// row). The flight recorder's slow-call check and the sampled span stay
// per call: a crash dump must not lose events deferred to the end of the
// statement. Construct immediately before invoking the hook; the enclosed
// call is timed until the scope dies.
class PurposeCallScope {
 public:
  PurposeCallScope(Server* server, ServerSession* session,
                   const AccessMethodDef* am, obs::PurposeFn fn)
      : session_(session),
        fn_(fn),
        span_(obs::SpanName::kPurpose, static_cast<uint64_t>(fn)) {
    session_->profile().CountCall(fn,
                                  am->purpose_names[static_cast<size_t>(fn)]);
    obs_timed_ = server->observability_enabled();
    // The always-on flight recorder flags outliers even with observability
    // off, so the call is also timed whenever its slow threshold is armed.
    slow_ns_ = obs::FlightRecorder::Global().enabled()
                   ? obs::FlightRecorder::Global().slow_purpose_ns()
                   : 0;
    timed_ = obs_timed_ || slow_ns_ != 0;
    if (timed_) start_ticks_ = obs::Ticks();
  }

  ~PurposeCallScope() {
    if (!timed_) return;
    const uint64_t ns = obs::TicksToNs(obs::Ticks() - start_ticks_);
    if (slow_ns_ != 0 && ns >= slow_ns_) {
      obs::FlightRecorder::Global().RecordEvent(
          obs::FlightEvent::kSlowPurposeCall, static_cast<uint64_t>(fn_), ns);
    }
    if (!obs_timed_) return;
    session_->profile().AddCallTime(fn_, ns);
    session_->purpose_tally(fn_).Record(ns / 1000);
  }

  PurposeCallScope(const PurposeCallScope&) = delete;
  PurposeCallScope& operator=(const PurposeCallScope&) = delete;

 private:
  ServerSession* session_;
  obs::PurposeFn fn_;
  bool timed_ = false;
  bool obs_timed_ = false;
  uint64_t slow_ns_ = 0;
  uint64_t start_ticks_ = 0;
  // Span per purpose call when the statement's request is sampled; a
  // thread-local read and a branch otherwise. Declared last so the span
  // closes (destructors run in reverse) after the accounting above.
  obs::SpanScope span_;
};

}  // namespace grtdb

#endif  // GRTDB_SERVER_PURPOSE_CALL_H_
