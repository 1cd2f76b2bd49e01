// In-memory span log for the traced benchmark run.
//
// One SpanLog per rank thread/process (no locking): a span is a name, a
// start and end on one steady clock, the span that encloses it, and an
// optional work count. Spans stay in memory until the traced run ends and
// are then written as typed NDJSON records, the same shape as the runtime's
// {"type":...} metrics-stream lines:
//
//   {"type":"span","phase":"round","name":"vol.gather","rank":0,"id":7,
//    "parent":5,"start_ns":1200,"end_ns":3400,"n":3}

#ifndef MALTBENCH_SPANS_H_
#define MALTBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace maltbench {

inline int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t id;
    int64_t parent;
    int64_t start_ns;
    int64_t end_ns;
    int64_t n;
  };

  explicit SpanLog(int rank) : rank_(rank) {}

  // Records a finished span. Ids are unique per process (rank in the high
  // bits).
  void Add(const char* name, int64_t start_ns, int64_t end_ns, int64_t parent = 0,
           int64_t n = 0) {
    spans_.push_back(Span{name, Reserve(), parent, start_ns, end_ns, n});
  }
  // Reserves an id for a span whose children are recorded before it ends.
  int64_t Reserve() { return (static_cast<int64_t>(rank_ + 1) << 40) | ++next_; }
  void AddWithId(const char* name, int64_t id, int64_t start_ns, int64_t end_ns,
                 int64_t parent = 0, int64_t n = 0) {
    spans_.push_back(Span{name, id, parent, start_ns, end_ns, n});
  }

  void Write(std::FILE* out, const char* phase) const {
    for (const Span& s : spans_) {
      std::fprintf(out,
                   "{\"type\":\"span\",\"phase\":\"%s\",\"name\":\"%s\",\"rank\":%d,"
                   "\"id\":%lld,\"parent\":%lld,\"start_ns\":%lld,\"end_ns\":%lld,\"n\":%lld}\n",
                   phase, s.name, rank_, static_cast<long long>(s.id),
                   static_cast<long long>(s.parent), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), static_cast<long long>(s.n));
    }
  }

 private:
  int rank_;
  int64_t next_ = 0;
  std::vector<Span> spans_;
};

}  // namespace maltbench

#endif  // MALTBENCH_SPANS_H_
