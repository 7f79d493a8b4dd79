#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<size_t> open;  // indices into spans, innermost last
};

std::mutex g_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;
// Bumped by reset_trace(): a thread whose cached buffer belongs to an older
// generation registers a fresh one.
std::atomic<uint64_t> g_generation{1};
std::atomic<uint64_t> g_next_id{1};
const Clock::time_point g_epoch = Clock::now();

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local uint64_t t_generation = 0;

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

ThreadBuffer& thread_buffer() {
  const uint64_t generation = g_generation.load(std::memory_order_acquire);
  if (t_buffer == nullptr || t_generation != generation) {
    const std::lock_guard<std::mutex> lock(g_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->thread = static_cast<uint32_t>(g_buffers.size() - 1);
    t_generation = generation;
  }
  return *t_buffer;
}

}  // namespace

Span::Span(const char* name, uint64_t item, uint64_t parent) {
  ThreadBuffer& buffer = thread_buffer();
  buffer_ = &buffer;
  index_ = buffer.spans.size();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  if (parent == kInherit) {
    parent = buffer.open.empty() ? 0 : buffer.spans[buffer.open.back()].id;
  }
  buffer.spans.push_back(
      SpanRecord{name, id_, parent, item, buffer.thread, 0, 0});
  buffer.open.push_back(index_);
  buffer.spans[index_].start_ns = now_ns();
}

Span::~Span() {
  const int64_t end = now_ns();
  auto& buffer = *static_cast<ThreadBuffer*>(buffer_);
  buffer.spans[index_].end_ns = end;
  buffer.open.pop_back();
}

void reset_trace() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_buffers.clear();
  g_generation.fetch_add(1, std::memory_order_acq_rel);
}

std::vector<SpanRecord> collect_trace() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<SpanRecord> all;
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

bool write_trace_csv(const std::vector<SpanRecord>& spans,
                     const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id,parent,thread,name,item,start_ns,end_ns\n");
  for (const SpanRecord& s : spans) {
    std::fprintf(out, "%llu,%llu,%u,%s,%llu,%lld,%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.thread, s.name,
                 static_cast<unsigned long long>(s.item),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

const TraceSummary::Stage& TraceSummary::stage(const std::string& name) const {
  static const Stage kEmpty;
  const auto it = stages.find(name);
  return it == stages.end() ? kEmpty : it->second;
}

double TraceSummary::share(const std::string& prefix) const {
  if (busy_s <= 0) return 0;
  double self = 0;
  for (const auto& [name, stage] : stages) {
    if (name == prefix || (name.size() > prefix.size() &&
                           name.compare(0, prefix.size(), prefix) == 0 &&
                           name[prefix.size()] == '.')) {
      self += stage.self_s;
    }
  }
  return self / busy_s;
}

TraceSummary summarize_trace(const std::vector<SpanRecord>& spans,
                             const char* pass_name) {
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) by_id.emplace(spans[i].id, i);
  std::vector<int64_t> self_ns(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self_ns[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const SpanRecord& s : spans) {
    const auto parent = by_id.find(s.parent);
    if (parent == by_id.end()) continue;
    if (spans[parent->second].thread != s.thread) continue;
    self_ns[parent->second] -= s.end_ns - s.start_ns;
  }
  TraceSummary summary;
  const std::string_view pass(pass_name);
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string_view name(spans[i].name);
    auto& stage = summary.stages[std::string(name)];
    const double duration = 1e-9 * static_cast<double>(spans[i].end_ns -
                                                       spans[i].start_ns);
    ++stage.count;
    stage.total_s += duration;
    stage.self_s += 1e-9 * static_cast<double>(self_ns[i]);
    stage.durations_s.push_back(duration);
    if (name != pass) summary.busy_s += 1e-9 * static_cast<double>(self_ns[i]);
  }
  return summary;
}

}  // namespace perfbench
