// Crash flight recorder: a postmortem bundle for abnormal run endings
// (DESIGN.md §8 "Health & postmortem").
//
// A FlightRecorder holds a list of named sections — callbacks that render a
// JSON value each (effective options, merged metrics, trace-ring tail,
// health watermarks, checker report, vector clocks; wired by Malt) — and, on
// Dump(reason), appends ONE "postmortem" record to the telemetry sink
// (TelemetryDomain::Emit):
//
//   {"type":"postmortem","reason":"watchdog_kill","ts_ns":...,"sections":{
//    "options":{...},"metrics":{...},"trace_tail":[...],"watermarks":[...],
//    "checker":{...}}}
//
// A single run can dump more than once (the watchdog dumps at kill delivery,
// the runtime again at run end, malt_run once more if the checker found
// violations); the LAST postmortem record carries the freshest state. A
// clean run writes none.
//
// Trigger matrix (who calls Dump, and when — see Malt::Run / malt_run):
//   checker violation   malt_run's epilogue, before exit(3)
//   watchdog kill       the shmem watchdog thread, at kill delivery
//   rank death          Malt::Run, when survivors() < ranks at run end
//   fatal MALT_CHECK    the SetFatalHook hook, before std::abort()
//   fatal signal        the async-signal-safe handler path below
//
// Signal path: section callbacks allocate and lock, which a signal handler
// must never do. Instead, RefreshSnapshot() pre-renders the full record
// line (reason "snapshot") into an off-to-the-side buffer at safe points
// (run start, every sampler tick, every watchdog poll); the handler
// installed by InstallSignalHandlers() only write()s a tiny
// {"type":"postmortem","reason":"fatal_signal","signal":N} record plus that
// pre-serialized snapshot to the sink's fd (no mutex) — all
// async-signal-safe — then re-raises. The snapshot is double-buffered and
// published through an atomic pointer; a handler that fires exactly during
// the two-refreshes-later reuse of its buffer can read torn JSON, which is
// the accepted best-effort trade for never allocating in the handler.

#ifndef SRC_TELEMETRY_FLIGHTREC_H_
#define SRC_TELEMETRY_FLIGHTREC_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/time_units.h"
#include "src/telemetry/telemetry.h"

namespace malt {

class FlightRecorder {
 public:
  // Records go to `sink`'s NDJSON file, which must outlive the recorder.
  explicit FlightRecorder(TelemetryDomain* sink);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Registers a section; `render` must append one valid JSON value. Called
  // during wiring (before the run's threads start); not thread-safe against
  // Dump.
  void AddSection(std::string key, std::function<void(std::string*)> render);

  // Renders every section and appends one postmortem record. Thread-safe
  // and re-entrancy-guarded (a crash inside a section callback cannot
  // recurse). Returns false if the record cannot be written.
  bool Dump(const char* reason, SimTime now);

  // Pre-renders the signal-path snapshot record (reason "snapshot"). Call
  // from safe points only — it takes locks and allocates.
  void RefreshSnapshot(SimTime now);

  // Number of Dump records written so far (snapshot refreshes not counted).
  int64_t dumps() const { return dumps_.load(std::memory_order_relaxed); }

  // Makes this recorder the process-wide dump target: installs the fatal-
  // check hook (SetFatalHook) and, if `with_signals`, async-signal-safe
  // handlers for SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT. Call once per run;
  // the destructor deactivates it.
  void Activate(bool with_signals);

  // The active recorder, if any (the fatal hook and tests use this).
  static FlightRecorder* active();

 private:
  struct Snapshot {
    std::string data;
  };

  static void FatalHookTrampoline();
  static void SignalHandler(int signum);
  // The record body (without the "type" key) for `reason`.
  std::string RenderLocked(const char* reason, SimTime now) MALT_REQUIRES(mu_);

  TelemetryDomain* const sink_;
  std::atomic<int64_t> dumps_{0};
  // Published for the lock-free signal-handler read; the storage behind it
  // is only mutated under mu_ (see the torn-read note above).
  std::atomic<const Snapshot*> current_snapshot_{nullptr};

  Mutex mu_;
  std::vector<std::pair<std::string, std::function<void(std::string*)>>> sections_
      MALT_GUARDED_BY(mu_);
  Snapshot snapshots_[2] MALT_GUARDED_BY(mu_);
  int next_snapshot_ MALT_GUARDED_BY(mu_) = 0;
};

}  // namespace malt

#endif  // SRC_TELEMETRY_FLIGHTREC_H_
