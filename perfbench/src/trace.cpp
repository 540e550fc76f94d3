#include "trace.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "util/json.hpp"
#include "util/stats.hpp"

namespace perfbench {

Tracer::Scope Tracer::span(std::string name) {
  const std::int64_t task = open_.empty() ? kNone : spans_[open_.back()].task;
  return open(std::move(name), task);
}

Tracer::Scope Tracer::task(std::int64_t task) { return open("exec.task", task); }

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

Tracer::Scope Tracer::open(std::string name, std::int64_t task) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? kNone : static_cast<std::int64_t>(open_.back());
  span.task = task;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return Scope(*this, spans_.size() - 1);
}

void Tracer::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  // Spans nest strictly: the one closing is the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNone) continue;
    const Span& parent = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(s.end_ns, parent.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [lo, hi] : intervals) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

std::int64_t top_level_ns(const std::vector<Span>& spans) {
  std::int64_t total = 0;
  for (const Span& s : spans) {
    if (s.parent == kNone) total += s.duration_ns();
  }
  return total;
}

std::optional<unsigned> highest_reportable_permille(std::size_t samples) {
  for (const unsigned permille : {999U, 990U, 950U, 900U, 750U, 500U}) {
    // Nearest-rank position of the percentile; the samples above it are
    // the ones "beyond" it.
    const std::size_t rank = (permille * samples + 999) / 1000;
    if (samples - rank >= 10) return permille;
  }
  return std::nullopt;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  servernet::SampleSet set;
  for (const double v : values) set.add(v);
  return set.quantile(q);
}

double speedup_bound(unsigned jobs, double sum_task_s, double critical_task_s) {
  if (critical_task_s <= 0.0) return static_cast<double>(jobs);
  return std::min(static_cast<double>(jobs), sum_task_s / critical_task_s);
}

void ErrorTally::add_sweep(std::size_t tasks, std::size_t failed) {
  attempted_ += tasks;
  failed_ += failed;
}

double ErrorTally::error_rate() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed()) / static_cast<double>(attempted_);
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void write_trace(std::ostream& os, const std::vector<Span>& spans,
                 const std::vector<std::pair<std::string, std::string>>& context) {
  os << "{\"otherData\": {";
  for (std::size_t i = 0; i < context.size(); ++i) {
    os << (i == 0 ? "" : ", ");
    servernet::write_json_string(os, context[i].first);
    os << ": ";
    servernet::write_json_string(os, context[i].second);
  }
  os << "},\n\"traceEvents\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\": ";
    servernet::write_json_string(os, s.name);
    os << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
       << static_cast<double>(s.start_ns) / 1e3
       << ", \"dur\": " << static_cast<double>(s.duration_ns()) / 1e3 << ", \"args\": {\"id\": "
       << i << ", \"parent\": " << s.parent << ", \"task\": " << s.task << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
