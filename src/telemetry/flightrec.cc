#include "src/telemetry/flightrec.h"

#include <unistd.h>

#include <csignal>
#include <utility>

#include "src/base/log.h"
#include "src/telemetry/metrics.h"

namespace malt {

namespace {

// The process-wide dump target for the fatal hook and the signal handlers.
std::atomic<FlightRecorder*> g_active{nullptr};

// Async-signal-safe unsigned decimal formatter; returns chars written.
size_t FormatUnsigned(char* buf, size_t cap, unsigned value) {
  char tmp[16];
  size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0 && n < sizeof(tmp));
  size_t written = 0;
  while (n > 0 && written < cap) {
    buf[written++] = tmp[--n];
  }
  return written;
}

}  // namespace

FlightRecorder::FlightRecorder(TelemetryDomain* sink) : sink_(sink) {}

FlightRecorder::~FlightRecorder() {
  FlightRecorder* self = this;
  if (g_active.compare_exchange_strong(self, nullptr)) {
    SetFatalHook(nullptr);
  }
}

FlightRecorder* FlightRecorder::active() { return g_active.load(std::memory_order_acquire); }

void FlightRecorder::AddSection(std::string key, std::function<void(std::string*)> render) {
  MutexLock lock(mu_);
  sections_.emplace_back(std::move(key), std::move(render));
}

std::string FlightRecorder::RenderLocked(const char* reason, SimTime now) {
  std::string rec;
  rec.append("{\"reason\":");
  AppendJsonEscaped(&rec, reason);
  rec.append(",\"ts_ns\":");
  AppendJsonNumber(&rec, static_cast<double>(now));
  rec.append(",\"sections\":{");
  bool first = true;
  for (const auto& [key, render] : sections_) {
    if (!first) {
      rec.push_back(',');
    }
    first = false;
    AppendJsonEscaped(&rec, key);
    rec.push_back(':');
    render(&rec);
  }
  rec.append("}}");
  return rec;
}

bool FlightRecorder::Dump(const char* reason, SimTime now) {
  // Re-entrancy guard: a fatal check raised INSIDE a section callback runs
  // the fatal hook, which would otherwise recurse into Dump on this thread.
  static thread_local bool dumping = false;
  if (dumping) {
    return false;
  }
  dumping = true;
  std::string rec;
  {
    MutexLock lock(mu_);
    rec = RenderLocked(reason, now);
  }
  const bool ok = sink_->Emit("postmortem", rec);
  dumping = false;
  if (ok) {
    dumps_.fetch_add(1, std::memory_order_relaxed);
  }
  return ok;
}

void FlightRecorder::RefreshSnapshot(SimTime now) {
  MutexLock lock(mu_);
  Snapshot& snap = snapshots_[next_snapshot_];
  next_snapshot_ = 1 - next_snapshot_;
  snap.data = NdjsonRecord("postmortem", RenderLocked("snapshot", now));
  current_snapshot_.store(&snap, std::memory_order_release);
}

void FlightRecorder::FatalHookTrampoline() {
  FlightRecorder* fr = g_active.load(std::memory_order_acquire);
  if (fr != nullptr) {
    // Normal (non-signal) context: render live state. ts is unknown here —
    // the run's clock is not reachable from a free function — so 0 marks
    // "at death".
    fr->Dump("fatal_check", 0);
  }
}

void FlightRecorder::SignalHandler(int signum) {
  // Async-signal-safe only: write/raise plus stack formatting. The sink fd
  // is O_APPEND, so these lines land whole even without the sink mutex.
  FlightRecorder* fr = g_active.load(std::memory_order_acquire);
  if (fr != nullptr) {
    const int fd = fr->sink_->sink_fd();
    if (fd >= 0) {
      char header[96];
      size_t len = 0;
      const char prefix[] = "{\"type\":\"postmortem\",\"reason\":\"fatal_signal\",\"signal\":";
      for (const char* p = prefix; *p != '\0'; ++p) {
        header[len++] = *p;
      }
      len += FormatUnsigned(header + len, sizeof(header) - len - 3,
                            static_cast<unsigned>(signum));
      header[len++] = '}';
      header[len++] = '\n';
      ssize_t ignored = ::write(fd, header, len);
      const Snapshot* snap = fr->current_snapshot_.load(std::memory_order_acquire);
      if (snap != nullptr && !snap->data.empty()) {
        ignored = ::write(fd, snap->data.data(), snap->data.size());
      }
      (void)ignored;
    }
  }
  // SA_RESETHAND restored the default disposition on entry; re-deliver so
  // the exit code / core dump behave as if the handler was never there.
  (void)::raise(signum);
}

void FlightRecorder::Activate(bool with_signals) {
  g_active.store(this, std::memory_order_release);
  SetFatalHook(&FlightRecorder::FatalHookTrampoline);
  if (with_signals) {
    struct sigaction action {};
    action.sa_handler = &FlightRecorder::SignalHandler;
    action.sa_flags = SA_RESETHAND;
    sigemptyset(&action.sa_mask);
    for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
      sigaction(sig, &action, nullptr);
    }
  }
}

}  // namespace malt
