// Tests of the benchmark's own arithmetic: self time, the percentile
// rule, the speedup bound and the error-rate accounting.
#include <gtest/gtest.h>

#include <sstream>

#include "trace.hpp"

namespace perfbench {
namespace {

Span make_span(std::int64_t start, std::int64_t end, std::int64_t parent) {
  Span s;
  s.name = "s";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTimes, SubtractsNestedChildrenOnce) {
  // 0: [0, 100) task
  //   1: [10, 40) child      -> its own child 2: [20, 30)
  //   3: [50, 70) child
  const std::vector<Span> spans{make_span(0, 100, kNone), make_span(10, 40, 0),
                                make_span(20, 30, 1), make_span(50, 70, 0)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 30 - 20);  // grandchild time is not subtracted twice
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 20);
}

TEST(SelfTimes, OverlappingAndOverhangingChildrenCountTheirUnion) {
  const std::vector<Span> spans{make_span(0, 100, kNone), make_span(10, 50, 0),
                                make_span(30, 60, 0), make_span(90, 120, 0)};
  EXPECT_EQ(self_times(spans)[0], 100 - 50 - 10);
}

TEST(SelfTimes, TopLevelSumsOnlyRoots) {
  const std::vector<Span> spans{make_span(0, 100, kNone), make_span(10, 50, 0),
                                make_span(100, 130, kNone)};
  EXPECT_EQ(top_level_ns(spans), 130);
}

TEST(Tracer, NestsSpansUnderTheOpenTask) {
  Tracer tracer;
  {
    auto task = tracer.task(7);
    auto outer = tracer.span("build");
    { auto inner = tracer.span("verify.pass.deadlock"); }
  }
  { auto free = tracer.span("faults.enumerate"); }
  const std::vector<Span>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4U);
  EXPECT_EQ(spans[0].name, "exec.task");
  EXPECT_EQ(spans[0].parent, kNone);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_EQ(spans[2].task, 7);
  EXPECT_EQ(spans[3].parent, kNone);
  EXPECT_EQ(spans[3].task, kNone);
  for (const Span& s : spans) EXPECT_GE(s.end_ns, s.start_ns);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(highest_reportable_permille(19), std::nullopt);
  EXPECT_EQ(highest_reportable_permille(20), 500U);
  EXPECT_EQ(highest_reportable_permille(40), 750U);
  EXPECT_EQ(highest_reportable_permille(100), 900U);
  EXPECT_EQ(highest_reportable_permille(204), 950U);  // 204 campaigns: p95, 10 beyond
  EXPECT_EQ(highest_reportable_permille(999), 950U);  // p99 would leave 9
  EXPECT_EQ(highest_reportable_permille(1000), 990U);
  EXPECT_EQ(highest_reportable_permille(10000), 999U);
}

TEST(Percentile, QuantileInterpolates) {
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
}

TEST(SpeedupBound, CriticalTaskCapsBelowTheJobCount) {
  // 9 s of work with a 3 s critical task: at most 3x, even on 4 workers.
  EXPECT_DOUBLE_EQ(speedup_bound(4, 9.0, 3.0), 3.0);
  // Many small tasks: the job count is the cap.
  EXPECT_DOUBLE_EQ(speedup_bound(4, 100.0, 0.01), 4.0);
  EXPECT_DOUBLE_EQ(speedup_bound(1, 100.0, 0.01), 1.0);
  EXPECT_DOUBLE_EQ(speedup_bound(4, 0.0, 0.0), 4.0);
}

TEST(ErrorTally, VerdictFailuresCountPerTask) {
  ErrorTally tally;
  tally.add_sweep(100, 2);
  tally.add_sweep(100, 2);
  EXPECT_EQ(tally.attempted(), 200U);
  EXPECT_EQ(tally.failed(), 4U);
  EXPECT_DOUBLE_EQ(tally.error_rate(), 0.02);
}

TEST(ErrorTally, ReportMismatchFailsEveryTaskOfTheWorkload) {
  ErrorTally tally;
  tally.add_sweep(100, 0);
  tally.add_sweep(100, 1);
  tally.add_mismatch();
  tally.add_sweep(100, 0);
  EXPECT_EQ(tally.attempted(), 300U);
  EXPECT_EQ(tally.failed(), 300U);
  EXPECT_DOUBLE_EQ(tally.error_rate(), 1.0);
  EXPECT_EQ(ErrorTally{}.error_rate(), 0.0);
}

TEST(Fnv1a, KnownVectors) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(WriteTrace, EmitsChromeTraceEvents) {
  const std::vector<Span> spans{make_span(1000, 3000, kNone)};
  std::ostringstream os;
  write_trace(os, spans, {{"seed", "1996"}});
  const std::string text = os.str();
  EXPECT_NE(text.find("\"seed\": \"1996\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ts\": 1, \"dur\": 2"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
