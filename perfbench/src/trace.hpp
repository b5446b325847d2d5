// Span recorder for the traced benchmark run.
//
// A span is one timed interval at a layer boundary: name, start, end, the
// span that caused it and the thread it ran on.  Spans go into per-thread
// buffers (no lock on the recording path) and are collected once a pass has
// finished.  Recording is off unless set_enabled(true); a disabled
// ScopedSpan reads no clock and records nothing, which is what the untraced
// run pays.
//
// Parents: a span's parent is the innermost span still open on its own
// thread.  A span opened on a thread with nothing open (a pool worker
// evaluating an island) takes the innermost open *stage* span of the
// driving thread instead — the epoch or finish stage that fanned the work
// out — so the tree stays connected across threads.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";    ///< string literal owned by the caller
  std::uint64_t id = 0;     ///< unique within the process, > 0
  std::uint64_t parent = 0; ///< 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0; ///< small per-process thread index

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

namespace trace {

/// Turns recording on or off; call only while no span is open.
void set_enabled(bool on);

/// Drops every recorded span; call only while no other thread records.
void clear();

/// Every recorded span of every thread, ordered by (start, id).  Call only
/// while no other thread records.
[[nodiscard]] std::vector<Span> collect();

}  // namespace trace

/// Records one span from construction to destruction.  `stage` marks a span
/// opened by the driving thread whose work may fan out to other threads; it
/// becomes the parent of spans those threads open with nothing of their own
/// open.  Open stage spans on one thread only.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, bool stage = false);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Renames the span before it closes (a classification known only once
  /// the work is done).
  void rename(const char* name) { name_ = name; }

 private:
  const char* name_;
  bool active_ = false;
  bool stage_ = false;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t previous_stage_ = 0;
  std::int64_t start_ns_ = 0;
};

}  // namespace perfbench
