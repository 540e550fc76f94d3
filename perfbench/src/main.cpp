// perfbench — the repository benchmark.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--commit SHA] [--trace-dir DIR]
//
// --trace 0 times the workload's sweep at jobs = 1 and at
// jobs = min(nproc, 4), tracing off, for about --seconds split evenly
// between the two, and reports the end-to-end metrics as medians.
// --trace 1 times one untraced sweep of each, then replays the workload serially
// with a span around every layer call and reports the per-layer metrics
// derived from the spans' self times and the replay's own counts; the
// spans are written to DIR as Chrome trace-event JSON.
//
// Every run checks the reports' own verdicts and that every report is
// byte-identical to the first jobs-1 report; the traced run also checks that
// the replay reproduces the serial sweep exactly and that its top-level
// spans cover at least 95% of its wall time. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The exit code is 0 only when every check held.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Clock;
using perfbench::kComposeItems;

// Taken during static initialization, before main: the start of set-up.
const Clock::time_point kProcessStart = Clock::now();

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

double median(std::vector<double> values) { return perfbench::quantile(std::move(values), 0.5); }

/// (name, unit) pairs, in BENCHMARK.json order.
using MetricList = std::vector<std::pair<std::string, std::string>>;

const MetricList& end_to_end_metrics() {
  static const MetricList metrics{
      {"wall_s", "s"},     {"serial_wall_s", "s"}, {"cpu_s", "s"},
      {"setup_s", "s"},    {"peak_rss_mb", "MiB"},
  };
  return metrics;
}

const char* const kVerifyPasses[] = {"preflight", "hardware", "reachability", "deadlock",
                                     "vc-deadlock", "escape",  "updown",       "inorder"};
const char* const kVerdicts[] = {"survives",       "failover",           "stale-route",
                                 "partitioned",    "deadlock-prone",     "synthesized-repair",
                                 "proven-unroutable"};
const char* const kComposePasses[] = {"module", "glue", "compose"};

const MetricList& per_layer_metrics() {
  static const MetricList metrics = [] {
    MetricList m{
        {"exec.tasks", "count"},         {"exec.task_p50_ms", "ms"},
        {"exec.task_p99_ms", "ms"},      {"exec.critical_task_s", "s"},
        {"exec.speedup", "ratio"},       {"exec.speedup_bound", "ratio"},
        {"build.calls", "count"},        {"build.self_s", "s"},
    };
    for (const char* const pass : kVerifyPasses) {
      m.emplace_back(std::string("verify.pass.") + pass + ".self_s", "s");
      m.emplace_back(std::string("verify.pass.") + pass + ".checks", "count");
    }
    for (const auto& [name, unit] : MetricList{
             {"faults.classifier_init_s", "s"},
             {"faults.classify.self_s", "s"},
             {"faults.classify.deterministic.p50_ms", "ms"},
             {"faults.classify.deterministic.p99_ms", "ms"},
             {"faults.classify.adaptive.p50_ms", "ms"},
             {"faults.classify.adaptive.p99_ms", "ms"}}) {
      m.emplace_back(name, unit);
    }
    for (const char* const verdict : kVerdicts) {
      m.emplace_back(std::string("faults.verdict.") + verdict, "count");
    }
    for (const auto& [name, unit] : MetricList{
             {"load.scenario_s", "s"},
             {"load.inject_s", "s"},
             {"load.drain_s", "s"},
             {"load.drain_share", "ratio"},
             {"load.cycles.inject", "cycles"},
             {"load.cycles.drain", "cycles"},
             {"sim.construct_s", "s"},
             {"sim.flit_hops", "count"},
             {"sim.ns_per_flit_hop", "ns"},
             {"sim.mesh1024.cycles_per_s", "cycles/s"},
             {"recover.replay.self_s", "s"},
             {"recover.replay.p50_ms", "ms"},
             {"recover.replay.p99_ms", "ms"},
             {"recover.sim_cycles", "cycles"},
             {"recover.ns_per_sim_cycle", "ns"},
             {"recover.purged", "count"},
             {"recover.retried", "count"},
             {"chaos.campaigns", "count"},
             {"chaos.campaign.p50_ms", "ms"},
             {"chaos.campaign.p95_ms", "ms"}}) {
      m.emplace_back(name, unit);
    }
    for (const char* const item : kComposeItems) {
      m.emplace_back(std::string("compose.") + item + ".s", "s");
    }
    for (const char* const pass : kComposePasses) {
      m.emplace_back(std::string("compose.pass.") + pass + ".checks", "count");
    }
    m.emplace_back("trace.overhead", "ratio");
    m.emplace_back("trace.coverage", "ratio");
    return m;
  }();
  return metrics;
}

struct Options {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_dir = ".";
};

int usage() {
  std::cerr << "usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]"
               " [--commit SHA] [--trace-dir DIR]\nworkloads:";
  for (const perfbench::Workload& w : perfbench::workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return std::nullopt;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0)) return std::nullopt;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      options.trace = value == "1";
    } else if (arg == "--commit") {
      options.commit = value;
    } else if (arg == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (perfbench::find_workload(options.workload) == nullptr) return std::nullopt;
  return options;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("Clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("GCC ") + __VERSION__;
#else
  return "unknown";
#endif
}

struct Timed {
  perfbench::SweepOutcome outcome;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Timed timed_sweep(const perfbench::Workload& w, unsigned jobs, const perfbench::Seeds& seeds) {
  Timed t;
  const double cpu0 = cpu_seconds();
  const Clock::time_point start = Clock::now();
  t.outcome = w.sweep(jobs, seeds);
  t.wall_s = seconds_since(start);
  t.cpu_s = cpu_seconds() - cpu0;
  return t;
}

/// The median time of one set-up. The first set-up is timed from process
/// start, so it also pays roster and registry construction; the rest are
/// timed in batches of at least 20 ms each (a sample is the batch's mean),
/// until there are six samples in all and 0.2 s have passed.
double measure_setup(const perfbench::Workload& w, std::size_t& fabrics) {
  fabrics = w.setup();
  std::vector<double> samples{seconds_since(kProcessStart)};
  const Clock::time_point begin = Clock::now();
  while (samples.size() < 6 || seconds_since(begin) < 0.2) {
    const Clock::time_point start = Clock::now();
    std::size_t count = 0;
    do {
      fabrics = w.setup();
      ++count;
    } while (seconds_since(start) < 0.02);
    samples.push_back(seconds_since(start) / static_cast<double>(count));
  }
  return median(samples);
}

void print_result(bool correct, const perfbench::ErrorTally& tally, const MetricList& order,
                  const std::map<std::string, double>& values) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
     << tally.attempted() << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < order.size(); ++i) {
    os << (i == 0 ? "" : ", ") << '"' << order[i].first << "\": {\"value\": "
       << values.at(order[i].first) << ", \"unit\": \"" << order[i].second << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Percentile summary line for a timing distribution, with the highest
/// percentile that still has ten samples beyond it.
std::string distribution(const std::vector<double>& ms) {
  std::ostringstream os;
  os << std::setprecision(4) << "n=" << ms.size();
  if (ms.empty()) return os.str();
  os << ", p50 " << perfbench::quantile(ms, 0.5) << " ms";
  if (const auto permille = perfbench::highest_reportable_permille(ms.size())) {
    os << ", p" << static_cast<double>(*permille) / 10.0 << ' '
       << perfbench::quantile(ms, static_cast<double>(*permille) / 1000.0) << " ms";
  } else {
    os << " (fewer than 20 samples: no tail percentile)";
  }
  return os.str();
}

std::string report_hash(const std::string& report) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << perfbench::fnv1a(report);
  return os.str();
}

struct Run {
  const perfbench::Workload* workload = nullptr;
  perfbench::Seeds seeds;
  unsigned jobs = 1;
  perfbench::ErrorTally tally;
  std::string reference;  // the run's first report, from a jobs-1 sweep

  /// One timed sweep, its verdict failures and its byte-identity with the
  /// first jobs-1 report folded into the tally. The first call must be a
  /// jobs-1 sweep.
  Timed sweep(unsigned sweep_jobs) {
    Timed t = timed_sweep(*workload, sweep_jobs, seeds);
    if (reference.empty()) reference = t.outcome.report;
    if (t.outcome.report != reference) {
      std::cout << "FAIL: a jobs-" << sweep_jobs << " report differs from the jobs-1 report\n";
      tally.add_mismatch();
    }
    tally.add_sweep(t.outcome.tasks, t.outcome.failed);
    return t;
  }
};

int timed_run(Run& run, const Options& options, double setup_s) {
  std::vector<double> serial_s;
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  double serial_total = 0.0;
  double parallel_total = 0.0;
  std::size_t tasks = 0;
  const Clock::time_point begin = Clock::now();
  // A jobs-1 sweep, a jobs-N sweep, then whichever side has had less time,
  // so each gets about half the run and the short parallel sweeps get the
  // most samples. When the sweep that is due would overrun --seconds, run
  // one of the other side if that still fits, else stop.
  for (;;) {
    bool serial = serial_s.empty() || (!wall_s.empty() && serial_total < parallel_total);
    if (!serial_s.empty() && !wall_s.empty()) {
      const double elapsed = seconds_since(begin);
      const auto fits = [&](bool s) {
        return elapsed + (s ? serial_s.back() : wall_s.back()) <= options.seconds;
      };
      if (!fits(serial)) serial = !serial;
      if (!fits(serial)) break;
    }
    const Timed t = run.sweep(serial ? 1 : run.jobs);
    tasks = t.outcome.tasks;
    if (serial) {
      serial_s.push_back(t.wall_s);
      serial_total += t.wall_s;
      std::cout << "  jobs-1 sweep " << t.wall_s << " s\n";
    } else {
      wall_s.push_back(t.wall_s);
      cpu_s.push_back(t.cpu_s);
      parallel_total += t.wall_s;
      std::cout << "  jobs-" << run.jobs << " sweep " << t.wall_s << " s, " << t.cpu_s
                << " s cpu\n";
    }
  }

  std::map<std::string, double> values{
      {"wall_s", median(wall_s)},  {"serial_wall_s", median(serial_s)},
      {"cpu_s", median(cpu_s)},    {"setup_s", setup_s},
      {"peak_rss_mb", peak_rss_mib()},
  };
  std::cout << run.workload->name << ": " << tasks << " tasks per sweep (input size), "
            << serial_s.size() << " jobs-1 and " << wall_s.size() << " jobs-" << run.jobs
            << " sweeps, jobs-1 report hash " << report_hash(run.reference) << '\n';
  for (const auto& [name, unit] : end_to_end_metrics()) {
    std::cout << "  " << std::left << std::setw(14) << name << std::right << std::setw(12)
              << std::setprecision(6) << values.at(name) << ' ' << unit << '\n';
  }
  std::cout << "  " << std::left << std::setw(14) << "error_rate" << std::right << std::setw(12)
            << run.tally.error_rate() << " ratio (" << run.tally.failed() << " of "
            << run.tally.attempted() << " tasks failed)\n";
  const bool correct = run.tally.failed() == 0;
  print_result(correct, run.tally, end_to_end_metrics(), values);
  return correct ? 0 : 1;
}

int traced_run(Run& run, const Options& options,
               const std::vector<std::pair<std::string, std::string>>& context) {
  const Timed serial = run.sweep(1);
  const Timed parallel = run.sweep(run.jobs);

  perfbench::Tracer tracer;
  const std::int64_t replay_start = tracer.now_ns();
  const perfbench::ReplayOutcome replay = run.workload->replay(tracer, run.seeds);
  const double traced_s = static_cast<double>(tracer.now_ns() - replay_start) / 1e9;
  const std::vector<perfbench::Span>& spans = tracer.spans();

  // Cross-checks: the replay must reproduce the serial sweep exactly, and
  // the top-level spans must account for the replay's wall time.
  const bool mirror_ok = replay.sweep.report == serial.outcome.report &&
                         replay.sweep.tasks == serial.outcome.tasks;
  const double coverage =
      static_cast<double>(perfbench::top_level_ns(spans)) / (traced_s * 1e9);
  run.tally.add_sweep(replay.sweep.tasks, replay.sweep.failed);
  if (!mirror_ok) {
    std::cout << "FAIL: the traced replay differs from the jobs-1 sweep\n";
    run.tally.add_mismatch();
  }
  bool correct = coverage >= 0.95;
  if (!correct) {
    std::cout << "FAIL: top-level spans cover " << coverage * 100.0
              << "% of the traced run (< 95%)\n";
  }

  // Aggregate spans by name: self time and durations.
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  std::map<std::string, double> self_s;
  std::map<std::string, std::vector<double>> durations_ms;
  double mesh_ns = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    self_s[s.name] += static_cast<double>(self[i]) / 1e9;
    durations_ms[s.name].push_back(static_cast<double>(s.duration_ns()) / 1e6);
    if ((s.name == "load.inject" || s.name == "load.drain") &&
        replay.mesh1024_tasks.count(s.task) != 0) {
      mesh_ns += static_cast<double>(s.duration_ns());
    }
  }
  const auto get = [](const std::map<std::string, double>& m, const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  const auto pct = [&](const std::string& name, double q) {
    const auto it = durations_ms.find(name);
    return it == durations_ms.end() ? 0.0 : perfbench::quantile(it->second, q);
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const perfbench::Counts& counts = replay.counts;

  std::map<std::string, double> v;
  const std::vector<double>& tasks_ms = durations_ms["exec.task"];
  double sum_task_s = 0.0;
  double critical_s = 0.0;
  for (const double ms : tasks_ms) {
    sum_task_s += ms / 1e3;
    critical_s = std::max(critical_s, ms / 1e3);
  }
  v["exec.tasks"] = static_cast<double>(tasks_ms.size());
  v["exec.task_p50_ms"] = pct("exec.task", 0.5);
  v["exec.task_p99_ms"] = pct("exec.task", 0.99);
  v["exec.critical_task_s"] = critical_s;
  v["exec.speedup"] = ratio(serial.wall_s, parallel.wall_s);
  v["exec.speedup_bound"] = perfbench::speedup_bound(run.jobs, sum_task_s, critical_s);
  v["build.calls"] = static_cast<double>(durations_ms["build"].size());
  v["build.self_s"] = get(self_s, "build");
  for (const char* const pass : kVerifyPasses) {
    const std::string key = std::string("verify.pass.") + pass;
    v[key + ".self_s"] = get(self_s, key);
    v[key + ".checks"] = get(counts, key + ".checks");
  }
  v["faults.classifier_init_s"] = get(self_s, "faults.classifier_init");
  v["faults.classify.self_s"] =
      get(self_s, "faults.classify.deterministic") + get(self_s, "faults.classify.adaptive");
  for (const char* const kind : {"deterministic", "adaptive"}) {
    const std::string key = std::string("faults.classify.") + kind;
    v[key + ".p50_ms"] = pct(key, 0.5);
    v[key + ".p99_ms"] = pct(key, 0.99);
  }
  for (const char* const verdict : kVerdicts) {
    const std::string key = std::string("faults.verdict.") + verdict;
    v[key] = get(counts, key);
  }
  const double inject_s = get(self_s, "load.inject");
  const double drain_s = get(self_s, "load.drain");
  const double flit_hops = get(counts, "sim.flit_hops");
  v["load.scenario_s"] = get(self_s, "load.scenario");
  v["load.inject_s"] = inject_s;
  v["load.drain_s"] = drain_s;
  v["load.drain_share"] = ratio(drain_s, inject_s + drain_s);
  v["load.cycles.inject"] = get(counts, "load.cycles.inject");
  v["load.cycles.drain"] = get(counts, "load.cycles.drain");
  v["sim.construct_s"] = get(self_s, "sim.construct");
  v["sim.flit_hops"] = flit_hops;
  v["sim.ns_per_flit_hop"] = ratio((inject_s + drain_s) * 1e9, flit_hops);
  v["sim.mesh1024.cycles_per_s"] = ratio(get(counts, "sim.mesh1024.cycles"), mesh_ns / 1e9);
  const double replay_s = get(self_s, "recover.replay");
  v["recover.replay.self_s"] = replay_s;
  v["recover.replay.p50_ms"] = pct("recover.replay", 0.5);
  v["recover.replay.p99_ms"] = pct("recover.replay", 0.99);
  v["recover.sim_cycles"] = get(counts, "recover.sim_cycles");
  v["recover.ns_per_sim_cycle"] = ratio(replay_s * 1e9, get(counts, "recover.sim_cycles"));
  v["recover.purged"] = get(counts, "recover.purged");
  v["recover.retried"] = get(counts, "recover.retried");
  v["chaos.campaigns"] = get(counts, "chaos.campaigns");
  v["chaos.campaign.p50_ms"] = pct("chaos.campaign", 0.5);
  v["chaos.campaign.p95_ms"] = pct("chaos.campaign", 0.95);
  for (const char* const item : kComposeItems) {
    v[std::string("compose.") + item + ".s"] = get(self_s, std::string("compose.") + item);
  }
  for (const char* const pass : kComposePasses) {
    const std::string key = std::string("compose.pass.") + pass + ".checks";
    v[key] = get(counts, key);
  }
  v["trace.overhead"] = traced_s / serial.wall_s - 1.0;
  v["trace.coverage"] = coverage;

  std::cout << run.workload->name << ": traced serial replay " << traced_s << " s vs "
            << serial.wall_s << " s untraced, " << spans.size() << " spans, error_rate "
            << run.tally.error_rate() << " (" << run.tally.failed() << " of "
            << run.tally.attempted() << " tasks failed), jobs-1 report hash "
            << report_hash(run.reference) << '\n';
  for (const char* const name :
       {"exec.task", "faults.classify.deterministic", "faults.classify.adaptive",
        "recover.replay", "chaos.campaign"}) {
    if (durations_ms.count(name) != 0) {
      std::cout << "  " << name << ": " << distribution(durations_ms[name]) << '\n';
    }
  }
  for (const auto& [name, unit] : per_layer_metrics()) {
    std::cout << "  " << std::left << std::setw(40) << name << std::right << std::setw(14)
              << std::setprecision(6) << v.at(name) << ' ' << unit << '\n';
  }

  const std::string path = options.trace_dir + "/" + run.workload->name + "-seed" +
                           (options.seed ? std::to_string(*options.seed) : "default") +
                           ".trace.json";
  std::ofstream out(path);
  if (out) {
    perfbench::write_trace(out, spans, context);
    std::cout << "spans written to " << path << '\n';
  } else {
    std::cout << "FAIL: cannot write spans to " << path << '\n';
    correct = false;
  }
  correct = correct && run.tally.failed() == 0;
  print_result(correct, run.tally, per_layer_metrics(), v);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> options = parse(argc, argv);
  if (!options) return usage();

  Run run;
  run.workload = perfbench::find_workload(options->workload);
  if (options->seed) run.seeds = perfbench::Seeds{*options->seed, *options->seed};
  const unsigned nproc = online_cpus();
  run.jobs = std::min(nproc, 4U);

  const std::vector<std::pair<std::string, std::string>> context{
      {"workload", run.workload->name},
      {"nproc", std::to_string(nproc)},
      {"jobs", std::to_string(run.jobs)},
      {"compiler", compiler()},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"commit", options->commit},
      {"load_seed", std::to_string(run.seeds.load)},
      {"chaos_seed", std::to_string(run.seeds.chaos)},
      {"trace", options->trace ? "1" : "0"},
  };
  std::cout << "perfbench:";
  for (const auto& [key, value] : context) std::cout << ' ' << key << '=' << value;
  std::cout << '\n';

  try {
    std::size_t fabrics = 0;
    const double setup_s = measure_setup(*run.workload, fabrics);
    std::cout << run.workload->name << ": set-up builds " << fabrics << " fabric(s)\n";
    return options->trace ? traced_run(run, *options, context)
                          : timed_run(run, *options, setup_s);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
