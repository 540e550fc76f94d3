// The benchmark's two workloads, `analysis` (the fault-sweep and
// compose-scale parts) and `simulation` (the load-roster and recover-chaos
// parts). Each one runs a fixed set of inputs three ways:
//
//   setup   builds every fabric the workload uses once (roster and
//           registry construction happen on the first call);
//   sweep   runs the workload through the public exec::sweep_* /
//           verify::run_compose_item entry points at a given job count,
//           untraced — the timed path;
//   replay  re-runs the same work serially through each layer's public
//           functions, with a span around every layer call. The replay's
//           report must equal the serial sweep's byte for byte, so the
//           mirror cannot drift from the library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// What one sweep or replay produced.
struct SweepOutcome {
  /// Every report the workload produced, concatenated: the subject of the
  /// jobs-1 vs jobs-N byte-identity check and of the printed hash.
  std::string report;
  /// Exec tasks the sweep ran (the workload's input size).
  std::size_t tasks = 0;
  /// Tasks whose verdict was unexpected (see the per-workload gates).
  std::size_t failed = 0;
};

/// Deterministic work counts gathered by a replay, keyed by metric name.
using Counts = std::map<std::string, double>;

struct ReplayOutcome {
  SweepOutcome sweep;
  Counts counts;
  /// Exec tasks that ran a point of a 1024-router mesh item (load-roster).
  std::set<std::int64_t> mesh1024_tasks;
};

/// Seeds for the two generators that take one; the defaults equal the
/// servernet-verify defaults (`--load --seed`, `--chaos --seed`).
struct Seeds {
  std::uint64_t load = 1996;
  std::uint64_t chaos = 1;
};

struct Workload {
  const char* name;
  /// Returns the number of fabrics built.
  std::size_t (*setup)();
  SweepOutcome (*sweep)(unsigned jobs, const Seeds& seeds);
  ReplayOutcome (*replay)(Tracer& tracer, const Seeds& seeds);
};

/// The compose-scale instances, in run order.
inline constexpr const char* kComposeItems[] = {"compose-pent-100k", "compose-fat-fanout-512k",
                                               "compose-fat-2m"};

/// Every workload, in BENCHMARK.json order.
[[nodiscard]] const std::vector<Workload>& workloads();

/// Lookup by name; nullptr when unknown.
[[nodiscard]] const Workload* find_workload(const std::string& name);

}  // namespace perfbench
