#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point g_origin = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_origin)
      .count();
}

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
/// Innermost open stage span of the driving thread (0 = none).
std::atomic<std::uint64_t> g_stage{0};

struct Buffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_buffers_mutex

struct ThreadState {
  Buffer* buffer = nullptr;
  std::vector<std::uint64_t> open;  // ids of this thread's open spans
};
thread_local ThreadState t_state;

Buffer& thread_buffer() {
  if (t_state.buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    auto buffer = std::make_unique<Buffer>();
    buffer->thread = static_cast<std::uint32_t>(g_buffers.size());
    buffer->spans.reserve(4096);
    t_state.buffer = buffer.get();
    g_buffers.push_back(std::move(buffer));
  }
  return *t_state.buffer;
}

}  // namespace

namespace trace {

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void clear() {
  const std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buffer : g_buffers) buffer->spans.clear();
}

std::vector<Span> collect() {
  std::vector<Span> all;
  {
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    for (const auto& buffer : g_buffers) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

}  // namespace trace

ScopedSpan::ScopedSpan(const char* name, bool stage) : name_(name) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  active_ = true;
  stage_ = stage;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_state.open.empty() ? g_stage.load(std::memory_order_acquire)
                                 : t_state.open.back();
  t_state.open.push_back(id_);
  if (stage_) previous_stage_ = g_stage.exchange(id_, std::memory_order_acq_rel);
  start_ns_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const std::int64_t end_ns = now_ns();
  t_state.open.pop_back();
  if (stage_) g_stage.store(previous_stage_, std::memory_order_release);
  Buffer& buffer = thread_buffer();
  buffer.spans.push_back(Span{name_, id_, parent_, start_ns_, end_ns, buffer.thread});
}

}  // namespace perfbench
