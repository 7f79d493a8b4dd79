#pragma once

// In-memory span recorder for the benchmark's traced run. Spans sit in
// benchmark code around calls into the library's public functions; the
// library itself is never instrumented. Each thread appends to its own
// buffer (owned here, so buffers outlive the sweep scheduler's worker
// threads); nothing is written until the run asks for it.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name;  // "<module>.<stage>", a string literal
  uint64_t id;
  uint64_t parent;  // 0 = root
  uint64_t item;    // shot, block or sweep-point index the span worked on
  uint32_t thread;
  int64_t start_ns;
  int64_t end_ns;
};

// RAII span. The default parent is the innermost span still open on the
// calling thread; work handed to another thread names its parent
// explicitly (sweep points under the pass span).
class Span {
 public:
  static constexpr uint64_t kInherit = ~uint64_t{0};
  Span(const char* name, uint64_t item, uint64_t parent = kInherit);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] uint64_t id() const { return id_; }

 private:
  void* buffer_;
  size_t index_;
  uint64_t id_;
};

// Drops every recorded span. Call only while no span is open.
void reset_trace();
// Every span recorded since the last reset, in no particular order.
[[nodiscard]] std::vector<SpanRecord> collect_trace();
// One CSV line per span: id,parent,thread,name,item,start_ns,end_ns.
bool write_trace_csv(const std::vector<SpanRecord>& spans,
                     const std::string& path);

// Per-name totals over one traced pass. Self time is a span's duration
// minus that of its children on the same thread; children on other threads
// (sweep points under the pass span) run concurrently and are not
// subtracted.
struct TraceSummary {
  struct Stage {
    uint64_t count = 0;
    double total_s = 0;  // summed durations
    double self_s = 0;   // summed self times
    std::vector<double> durations_s;
  };
  std::map<std::string, Stage> stages;
  // Summed self time of every span except the pass span itself: the worker
  // time spent in the library. Layer shares are fractions of this.
  double busy_s = 0;

  [[nodiscard]] const Stage& stage(const std::string& name) const;
  // Self time of `prefix` and every `prefix.*` span, over busy_s.
  [[nodiscard]] double share(const std::string& prefix) const;
};

[[nodiscard]] TraceSummary summarize_trace(const std::vector<SpanRecord>& spans,
                                           const char* pass_name);

}  // namespace perfbench
