// In-memory span recorder for the benchmark's traced run.
//
// The benchmark times calls into the library's public functions from the
// outside: each call it wants attributed opens a span before and closes it
// after.  A span has a name, a start and an end (seconds since the
// tracer was built), the span that caused it, and the scheduling round it
// belongs to (0 outside the engine's round loop), so every span of one
// round shares that round's id.  Spans stay in memory; write_spans_json()
// dumps them once the run is over.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t parent = 0;  ///< 1-based index of the parent span; 0 = root
  std::uint64_t round = 0;   ///< engine round id; 0 = not inside a round
  double start_s = 0.0;
  double end_s = 0.0;
  double duration() const { return end_s - start_s; }
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span and returns its id (1-based; pass as a child's parent).
  std::uint64_t open(std::string name, std::uint64_t parent = 0,
                     std::uint64_t round = 0);
  /// Closes span `id` now.
  void close(std::uint64_t id);
  /// Records an already measured span; returns its id.
  std::uint64_t add(Span span);

  const std::vector<Span>& spans() const { return spans_; }
  /// Seconds since the tracer was built.
  double now() const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Writes spans as one JSON array (ids are 1-based positions).
void write_spans_json(std::ostream& out, const std::vector<Span>& spans);

/// Per-span self time: the span's duration minus the part of it that its
/// direct children cover (children are merged as intervals, so overlapping
/// children are not double-counted).  Indexed like spans (0-based).
std::vector<double> self_times(const std::vector<Span>& spans);

/// RAII helper: opens on construction, closes on destruction.  A null
/// tracer makes it a no-op, so untraced code paths pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::uint64_t parent = 0,
             std::uint64_t round = 0)
      : tracer_(tracer),
        id_(tracer ? tracer->open(std::move(name), parent, round) : 0) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint64_t id_;
};

}  // namespace perfbench
