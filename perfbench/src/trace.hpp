// In-memory span recorder for the benchmark's traced replay, plus the
// arithmetic the per-layer metrics are derived with.
//
// Spans are recorded from the benchmark's own code, around each call into
// a library layer; the library itself is not instrumented. A span knows
// its parent (the span open when it started) and the exec task it belongs
// to, so a layer's self time is its duration minus what its children
// cover, and the top-level spans (builds plus tasks) can be checked to add
// up to the traced run's wall time.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline constexpr std::int64_t kNone = -1;

struct Span {
  std::string name;
  /// Nanoseconds since the tracer's origin.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the enclosing span in Tracer::spans(), or kNone.
  std::int64_t parent = kNone;
  /// Exec task the span belongs to, or kNone outside any task.
  std::int64_t task = kNone;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Single-threaded span recorder: spans nest strictly, so the open-span
/// stack gives each new span its parent and task.
class Tracer {
 public:
  /// Closes its span when destroyed.
  class Scope {
   public:
    Scope(Tracer& tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { tracer_.close(index_); }

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  /// Opens a span under the innermost open span, inheriting its task.
  [[nodiscard]] Scope span(std::string name);
  /// Opens a top-level "exec.task" span with task id `task`.
  [[nodiscard]] Scope task(std::int64_t task);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::int64_t now_ns() const;

 private:
  Scope open(std::string name, std::int64_t task);
  void close(std::size_t index);

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals clipped to it. Indexed like `spans`.
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Sum of the durations of the top-level spans (parent == kNone).
[[nodiscard]] std::int64_t top_level_ns(const std::vector<Span>& spans);

/// The highest percentile, in per mille, from {999, 990, 950, 900, 750,
/// 500}, that leaves at least ten of `samples` beyond it; nullopt when
/// even the median does not (fewer than 20 samples).
[[nodiscard]] std::optional<unsigned> highest_reportable_permille(std::size_t samples);

/// Interpolated q-quantile of `values` (0 for an empty set).
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// The speedup a sweep of tasks can reach on `jobs` workers when its
/// longest task runs alone: min(jobs, sum_task / critical_task).
[[nodiscard]] double speedup_bound(unsigned jobs, double sum_task_s, double critical_task_s);

/// Task-failure accounting over every sweep of a run. A task fails on its
/// own verdict; once any report differs from the run's first jobs-1
/// report, every task of the workload fails.
class ErrorTally {
 public:
  void add_sweep(std::size_t tasks, std::size_t failed);
  void add_mismatch() { mismatch_ = true; }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return mismatch_ ? attempted_ : failed_; }
  [[nodiscard]] double error_rate() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool mismatch_ = false;
};

/// 64-bit FNV-1a, printed beside each workload's metrics so a speed-only
/// change can show every simulated statistic unchanged.
[[nodiscard]] std::uint64_t fnv1a(const std::string& text);

/// Writes the spans as Chrome trace-event JSON (viewable in
/// chrome://tracing or ui.perfetto.dev); `context` lands in "otherData".
void write_trace(std::ostream& os, const std::vector<Span>& spans,
                 const std::vector<std::pair<std::string, std::string>>& context);

}  // namespace perfbench
