#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "exec/sharded_sweep.hpp"
#include "recovery/campaign.hpp"
#include "recovery/replay.hpp"
#include "sim/wormhole_sim.hpp"
#include "util/stats.hpp"
#include "verify/compose.hpp"
#include "verify/faults.hpp"
#include "verify/load_sweep.hpp"
#include "verify/passes.hpp"
#include "verify/registry.hpp"
#include "workload/injector.hpp"
#include "workload/scenario_registry.hpp"

namespace perfbench {

using namespace servernet;

namespace {

using Combos = std::vector<const verify::RegistryCombo*>;

/// Registry combos a fault or recovery sweep covers, in registry order
/// (the servernet-verify `--faults --all` / `--recover --all` sets).
Combos sweepable_combos(bool certified_only) {
  Combos combos;
  for (const verify::RegistryCombo& c : verify::registry()) {
    if (!c.fault_sweep) continue;
    if (certified_only && !c.expect_certified) continue;
    combos.push_back(&c);
  }
  return combos;
}

/// One worker's fabric state for one combo, as exec/sharded_sweep keeps
/// it: heap-allocated because the options point into the build.
struct ComboState {
  verify::BuiltFabric built;
  verify::FaultSpaceOptions fault_options;
  std::optional<verify::FaultClassifier> classifier;
};

/// The first unused exec task id, so the parts of one workload's replay
/// number their tasks apart.
std::int64_t next_task_id(const Tracer& tracer) {
  std::int64_t next = 0;
  for (const Span& s : tracer.spans()) next = std::max(next, s.task + 1);
  return next;
}

std::unique_ptr<ComboState> make_state(Tracer& tracer, const verify::RegistryCombo& combo) {
  auto state = std::make_unique<ComboState>();
  {
    auto span = tracer.span("build");
    state->built = combo.build();
  }
  state->fault_options.base = verify::verify_options(state->built);
  state->fault_options.dual = state->built.dual.get();
  return state;
}

/// The fault-sweep tasks that fail the gate: an unexpected healthy
/// verdict, and on expected-certified combos every single fault left
/// uncovered (FaultSpaceReport::single_faults_covered's rule).
std::size_t fault_failures(const verify::RegistryCombo& combo,
                           const verify::FaultSpaceReport& report) {
  std::size_t failed = report.healthy_certified != combo.expect_certified ? 1 : 0;
  if (combo.expect_certified) {
    for (const verify::FaultOutcome& o : report.outcomes) {
      if (o.fault.kind == FaultKind::kDoubleLink || o.repair_certified) continue;
      if (o.verdict == verify::FaultVerdict::kDeadlockProne ||
          o.verdict == verify::FaultVerdict::kStaleRoute) {
        ++failed;
      }
    }
  }
  // The per-task count must agree with the library's own gate.
  if (failed == 0 && !verify::faults_as_expected(combo, report)) failed = 1;
  return failed;
}

std::size_t fault_tasks(const verify::FaultSpaceReport& report) {
  return 1 + report.link.total + report.router.total + report.double_link.total;
}

// ---------------------------------------------------------------- verify

/// verify::verify_fabric, pass by pass, with a span per pass.
verify::Report traced_verify(Tracer& tracer, const Network& net, const RoutingTable& table,
                             const verify::VerifyOptions& options, std::string fabric_name) {
  verify::Report report(std::move(fabric_name));
  const verify::PassContext ctx{net, table, options};
  bool dims_ok = true;
  {
    auto span = tracer.span("verify.pass.preflight");
    report.begin_pass("preflight");
    report.note_checks(2);
    dims_ok = table.router_count() == net.router_count() && table.node_count() == net.node_count();
    if (!dims_ok) {
      std::ostringstream os;
      os << "table is " << table.router_count() << " routers x " << table.node_count()
         << " nodes, network is " << net.router_count() << " x " << net.node_count();
      report.add(verify::Diagnostic{verify::Severity::kError, "preflight.dimension-mismatch",
                                    os.str(), {}, {}});
    }
    if (options.multipath != nullptr) {
      report.note_checks(1);
      if (options.multipath->router_count() != net.router_count() ||
          options.multipath->node_count() != net.node_count()) {
        std::ostringstream os;
        os << "multipath table is " << options.multipath->router_count() << " routers x "
           << options.multipath->node_count() << " nodes, network is " << net.router_count()
           << " x " << net.node_count();
        report.add(verify::Diagnostic{verify::Severity::kError, "preflight.multipath-mismatch",
                                      os.str(), {}, {}});
        dims_ok = false;
      }
    }
  }
  const auto pass = [&](const char* name, void (*run)(const verify::PassContext&,
                                                       verify::Report&)) {
    auto span = tracer.span(std::string("verify.pass.") + name);
    run(ctx, report);
  };
  pass("hardware", verify::run_hardware_pass);
  if (dims_ok) {
    pass("reachability", verify::run_reachability_pass);
    if (options.vc.selector != nullptr) {
      pass("vc-deadlock", verify::run_vc_deadlock_pass);
    } else {
      pass("deadlock", verify::run_deadlock_pass);
    }
    if (options.multipath != nullptr) pass("escape", verify::run_escape_pass);
    if (options.updown != nullptr) pass("updown", verify::run_updown_pass);
    pass("inorder", verify::run_inorder_pass);
    if (options.synthesize) pass("synthesize", verify::run_synthesize_pass);
  }
  return report;
}

void count_passes(const verify::Report& report, const char* prefix, Counts& counts) {
  for (const verify::PassSummary& p : report.passes()) {
    counts[std::string(prefix) + p.pass + ".checks"] += static_cast<double>(p.checks);
  }
}

// ------------------------------------------------------------ fault-sweep

std::size_t fault_setup() {
  for (const verify::RegistryCombo& c : verify::registry()) (void)c.build();
  return verify::registry().size();
}

SweepOutcome fault_sweep(unsigned jobs, const Seeds& /*seeds*/) {
  SweepOutcome out;
  const exec::SweepOptions options{jobs};
  const std::vector<verify::Report> certs =
      exec::sweep_certification(verify::registry(), options);
  for (std::size_t i = 0; i < certs.size(); ++i) {
    out.report += certs[i].json();
    ++out.tasks;
    if (certs[i].certified() != verify::registry()[i].expect_certified) ++out.failed;
  }
  const Combos combos = sweepable_combos(/*certified_only=*/false);
  const std::vector<verify::FaultSpaceReport> spaces = exec::sweep_fault_spaces(combos, options);
  for (std::size_t c = 0; c < spaces.size(); ++c) {
    out.report += spaces[c].json();
    out.tasks += fault_tasks(spaces[c]);
    out.failed += fault_failures(*combos[c], spaces[c]);
  }
  return out;
}

ReplayOutcome fault_replay(Tracer& tracer, const Seeds& /*seeds*/) {
  ReplayOutcome out;
  std::int64_t task_id = next_task_id(tracer);

  // sweep_certification: one task per combo, each a build plus the pass
  // pipeline (verify::run_combo).
  for (const verify::RegistryCombo& combo : verify::registry()) {
    auto task = tracer.task(task_id++);
    verify::BuiltFabric built;
    {
      auto span = tracer.span("build");
      built = combo.build();
    }
    const verify::Report report = traced_verify(tracer, *built.net, built.table,
                                                verify::verify_options(built), combo.name);
    count_passes(report, "verify.pass.", out.counts);
    out.sweep.report += report.json();
    ++out.sweep.tasks;
    if (report.certified() != combo.expect_certified) ++out.sweep.failed;
  }

  // sweep_fault_spaces: enumerate every fault list from a throwaway build,
  // then run the (combo, healthy) and (combo, fault) tasks in order.
  const Combos combos = sweepable_combos(/*certified_only=*/false);
  std::vector<std::vector<Fault>> fault_lists(combos.size());
  std::vector<std::uint64_t> seeds(combos.size());
  for (std::size_t c = 0; c < combos.size(); ++c) {
    const std::unique_ptr<ComboState> state = make_state(tracer, *combos[c]);
    auto span = tracer.span("faults.enumerate");
    fault_lists[c] = verify::fault_space_list(*state->built.net, state->fault_options);
    seeds[c] = state->fault_options.seed;
  }
  std::vector<std::unique_ptr<ComboState>> states(combos.size());
  for (std::size_t c = 0; c < combos.size(); ++c) {
    verify::FaultSpaceReport report;
    report.fabric = combos[c]->name;
    report.seed = seeds[c];
    {
      auto task = tracer.task(task_id++);
      states[c] = make_state(tracer, *combos[c]);
      ComboState& state = *states[c];
      const verify::Report healthy = traced_verify(
          tracer, *state.built.net, state.built.table, state.fault_options.base, combos[c]->name);
      count_passes(healthy, "verify.pass.", out.counts);
      report.healthy_certified = healthy.certified();
      {
        auto span = tracer.span("faults.classifier_init");
        state.classifier.emplace(*state.built.net, state.built.table, state.fault_options);
      }
      report.healthy_acyclic = state.classifier->healthy_acyclic();
    }
    ComboState& state = *states[c];
    const char* const classify_span = state.built.multipath != nullptr
                                          ? "faults.classify.adaptive"
                                          : "faults.classify.deterministic";
    for (const Fault& fault : fault_lists[c]) {
      auto task = tracer.task(task_id++);
      verify::FaultOutcome outcome;
      {
        auto span = tracer.span(classify_span);
        outcome = state.classifier->classify(fault);
      }
      report.merge_outcome(std::move(outcome));
    }
    for (std::size_t v = 0; v < verify::kFaultVerdictCount; ++v) {
      const auto verdict = static_cast<verify::FaultVerdict>(v);
      out.counts["faults.verdict." + verify::to_string(verdict)] += static_cast<double>(
          report.link.of(verdict) + report.router.of(verdict) + report.double_link.of(verdict));
    }
    out.sweep.report += report.json();
    out.sweep.tasks += fault_tasks(report);
    out.sweep.failed += fault_failures(*combos[c], report);
  }
  return out;
}

// ----------------------------------------------------------- load-roster

std::vector<const verify::LoadItem*> load_items() { return verify::select_load_items("", ""); }

std::size_t load_setup() {
  std::set<std::string> built;
  for (const verify::LoadItem* item : load_items()) {
    if (built.insert(item->fabric).second) (void)item->build();
  }
  return built.size();
}

/// Byte-stable text of every point at full precision: the JSON report
/// rounds to four decimals, and the replay must match the sweep exactly.
std::string exact_points(const verify::LoadSweepReport& report) {
  std::string text;
  char line[256];
  for (const verify::LoadItemReport& item : report.items) {
    for (const verify::LoadPoint& p : item.points) {
      std::snprintf(line, sizeof line, "%s %a %a %a %a %a %zu %d %d\n", item.name.c_str(),
                    p.offered, p.accepted, p.mean_latency, p.p50_latency, p.p95_latency,
                    p.measured_packets, p.saturated ? 1 : 0, p.deadlocked ? 1 : 0);
      text += line;
    }
  }
  return text;
}

SweepOutcome load_outcome(const verify::LoadSweepReport& report) {
  SweepOutcome out;
  std::ostringstream json;
  report.write_json(json);
  out.report = json.str() + exact_points(report);
  for (const verify::LoadItemReport& item : report.items) {
    for (const verify::LoadPoint& p : item.points) {
      ++out.tasks;
      // Every load-swept fabric is certified: a deadlocked point fails.
      if (p.deadlocked) ++out.failed;
    }
  }
  return out;
}

SweepOutcome load_sweep(unsigned jobs, const Seeds& seeds) {
  return load_outcome(exec::sweep_load(load_items(), exec::SweepOptions{jobs}, seeds.load));
}

/// verify::run_load_point through the same public calls:
/// make_scenario, WormholeSim, the injector's warmup and measure windows,
/// then the drain, with the harness's statistics.
verify::LoadPoint replay_point(Tracer& tracer, const verify::LoadItem& item,
                               const verify::BuiltFabric& built, std::size_t point,
                               std::uint64_t seed, Counts& counts) {
  const double offered = item.offered[point];
  std::unique_ptr<TrafficPattern> pattern;
  {
    auto span = tracer.span("load.scenario");
    pattern = workload::make_scenario(item.scenario, built.net->node_count(), seed);
  }
  workload::ExperimentConfig config = item.experiment;
  config.offered_flits = offered;
  config.seed = seed + point;
  std::optional<sim::WormholeSim> simulator;
  {
    auto span = tracer.span("sim.construct");
    simulator.emplace(*built.net, built.table, config.sim);
  }
  sim::WormholeSim& sim = *simulator;
  workload::BernoulliInjector injector(sim, *pattern, config.offered_flits, config.seed);

  verify::LoadPoint result;
  result.offered = offered;
  const auto finish = [&] {
    for (const std::uint64_t busy : sim.metrics().busy_cycles()) {
      counts["sim.flit_hops"] += static_cast<double>(busy);
    }
    return result;
  };
  const auto window = [&](std::uint64_t cycles) {
    auto span = tracer.span("load.inject");
    const std::uint64_t before = sim.now();
    const bool ok = injector.run(cycles);
    counts["load.cycles.inject"] += static_cast<double>(sim.now() - before);
    return ok;
  };
  if (!window(config.warmup_cycles)) {
    result.deadlocked = true;
    return finish();
  }
  const std::size_t first_measured = sim.packets_offered();
  if (!window(config.measure_cycles)) {
    result.deadlocked = true;
    return finish();
  }
  const std::size_t last_measured = sim.packets_offered();
  sim::RunResult drain;
  {
    auto span = tracer.span("load.drain");
    const std::uint64_t before = sim.now();
    drain = sim.run_until_drained(config.drain_limit);
    counts["load.cycles.drain"] += static_cast<double>(sim.now() - before);
  }
  result.saturated = drain.outcome != sim::RunOutcome::kCompleted;
  result.deadlocked = drain.outcome == sim::RunOutcome::kDeadlocked;

  auto span = tracer.span("load.stats");
  SampleSet latency;
  for (std::size_t id = first_measured; id < last_measured; ++id) {
    const sim::PacketRecord& rec = sim.packet(static_cast<sim::PacketId>(id));
    if (!rec.delivered) continue;
    latency.add(static_cast<double>(rec.delivered_cycle - rec.offered_cycle));
  }
  const std::uint64_t window_start = config.warmup_cycles;
  const std::uint64_t window_end = config.warmup_cycles + config.measure_cycles;
  std::uint64_t window_flits = 0;
  for (std::size_t id = 0; id < sim.packets_offered(); ++id) {
    const sim::PacketRecord& rec = sim.packet(static_cast<sim::PacketId>(id));
    if (!rec.delivered) continue;
    if (rec.delivered_cycle < window_start || rec.delivered_cycle >= window_end) continue;
    window_flits += rec.flits;
  }
  result.measured_packets = latency.size();
  result.accepted = static_cast<double>(window_flits) /
                    static_cast<double>(config.measure_cycles) /
                    static_cast<double>(built.net->node_count());
  if (!latency.empty()) {
    result.mean_latency = latency.mean();
    result.p50_latency = latency.quantile(0.5);
    result.p95_latency = latency.quantile(0.95);
  }
  return finish();
}

ReplayOutcome load_replay(Tracer& tracer, const Seeds& seeds) {
  ReplayOutcome out;
  const std::vector<const verify::LoadItem*> items = load_items();
  std::vector<std::vector<verify::LoadPoint>> points(items.size());
  std::int64_t task_id = next_task_id(tracer);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const verify::LoadItem& item = *items[i];
    const std::uint64_t seed = seeds.load == 0 ? item.seed : seeds.load;
    std::unique_ptr<verify::BuiltFabric> built;
    for (std::size_t p = 0; p < item.offered.size(); ++p) {
      const bool mesh1024 = item.fabric == "mesh-32x32-dor";
      if (mesh1024) out.mesh1024_tasks.insert(task_id);
      auto task = tracer.task(task_id++);
      if (built == nullptr) {
        auto span = tracer.span("build");
        built = std::make_unique<verify::BuiltFabric>(item.build());
      }
      const auto cycles = [&] {
        return out.counts["load.cycles.inject"] + out.counts["load.cycles.drain"];
      };
      const double cycles_before = cycles();
      points[i].push_back(replay_point(tracer, item, *built, p, seed, out.counts));
      if (mesh1024) out.counts["sim.mesh1024.cycles"] += cycles() - cycles_before;
    }
  }
  // sweep_load takes each item's geometry from a throwaway build.
  verify::LoadSweepReport report;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const verify::LoadItem& item = *items[i];
    verify::LoadItemReport item_report;
    item_report.name = item.name;
    item_report.fabric = item.fabric;
    item_report.scenario = item.scenario;
    item_report.seed = seeds.load == 0 ? item.seed : seeds.load;
    {
      auto span = tracer.span("build");
      const verify::BuiltFabric built = item.build();
      item_report.nodes = built.net->node_count();
      item_report.routers = built.net->router_count();
    }
    item_report.points = std::move(points[i]);
    report.items.push_back(std::move(item_report));
  }
  out.sweep = load_outcome(report);
  return out;
}

// --------------------------------------------------------- recover-chaos

recovery::CampaignGenOptions campaign_options(const Seeds& seeds) {
  recovery::CampaignGenOptions gen;
  gen.seed = seeds.chaos;
  gen.campaigns = 12;
  return gen;
}

std::size_t recover_setup() {
  const Combos combos = sweepable_combos(/*certified_only=*/true);
  for (const verify::RegistryCombo* c : combos) (void)c->build();
  return combos.size();
}

void add_recovery(SweepOutcome& out, const recovery::RecoverySweepReport& report) {
  std::ostringstream json;
  report.write_json(json);
  out.report += json.str();
  out.tasks += report.results.size();
  for (const recovery::ReplayFaultResult& r : report.results) {
    if (!r.agree) ++out.failed;
  }
}

void add_chaos(SweepOutcome& out, const recovery::ChaosSweepReport& report) {
  std::ostringstream json;
  report.write_json(json);
  out.report += json.str();
  out.tasks += report.results.size();
  for (const recovery::CampaignResult& r : report.results) {
    if (!r.ok()) ++out.failed;
  }
}

SweepOutcome recover_sweep(unsigned jobs, const Seeds& seeds) {
  SweepOutcome out;
  const exec::SweepOptions options{jobs};
  const Combos combos = sweepable_combos(/*certified_only=*/true);
  for (const recovery::RecoverySweepReport& r : exec::sweep_recovery(combos, options)) {
    add_recovery(out, r);
  }
  for (const recovery::ChaosSweepReport& r :
       exec::sweep_campaigns(combos, options, campaign_options(seeds))) {
    add_chaos(out, r);
  }
  return out;
}

ReplayOutcome recover_replay(Tracer& tracer, const Seeds& seeds) {
  ReplayOutcome out;
  const Combos combos = sweepable_combos(/*certified_only=*/true);
  std::int64_t task_id = next_task_id(tracer);

  // sweep_recovery: fault lists from throwaway builds, then one task per
  // (combo, fault), each combo built once for the serial worker.
  const recovery::RecoverySweepOptions replay_options;
  std::vector<std::vector<Fault>> fault_lists(combos.size());
  for (std::size_t c = 0; c < combos.size(); ++c) {
    verify::BuiltFabric built;
    {
      auto span = tracer.span("build");
      built = combos[c]->build();
    }
    auto span = tracer.span("recover.enumerate");
    fault_lists[c] = recovery::recovery_fault_list(*built.net, replay_options);
  }
  for (std::size_t c = 0; c < combos.size(); ++c) {
    recovery::RecoverySweepReport report;
    report.fabric = combos[c]->name;
    std::unique_ptr<ComboState> state;
    for (const Fault& fault : fault_lists[c]) {
      auto task = tracer.task(task_id++);
      if (state == nullptr) state = make_state(tracer, *combos[c]);
      recovery::ReplayFaultResult result;
      {
        auto span = tracer.span("recover.replay");
        result = recovery::replay_fault(state->built, fault, replay_options);
      }
      out.counts["recover.sim_cycles"] += static_cast<double>(result.drain_cycles);
      out.counts["recover.purged"] += static_cast<double>(result.packets_purged);
      out.counts["recover.retried"] += static_cast<double>(result.packets_retried);
      report.merge_result(std::move(result));
    }
    add_recovery(out.sweep, report);
  }

  // sweep_campaigns: campaign lists from throwaway builds, then one task
  // per (combo, campaign) on fresh per-worker builds.
  const recovery::CampaignGenOptions gen = campaign_options(seeds);
  std::vector<std::vector<recovery::Campaign>> campaign_lists(combos.size());
  for (std::size_t c = 0; c < combos.size(); ++c) {
    verify::BuiltFabric built;
    {
      auto span = tracer.span("build");
      built = combos[c]->build();
    }
    auto span = tracer.span("chaos.generate");
    campaign_lists[c] = recovery::generate_campaigns(built, gen);
  }
  for (std::size_t c = 0; c < combos.size(); ++c) {
    recovery::ChaosSweepReport report;
    report.fabric = combos[c]->name;
    report.seed = gen.seed;
    std::unique_ptr<ComboState> state;
    for (const recovery::Campaign& campaign : campaign_lists[c]) {
      auto task = tracer.task(task_id++);
      if (state == nullptr) state = make_state(tracer, *combos[c]);
      auto span = tracer.span("chaos.campaign");
      report.merge_result(recovery::run_campaign(state->built, campaign));
    }
    out.counts["chaos.campaigns"] += static_cast<double>(report.campaigns);
    add_chaos(out.sweep, report);
  }
  return out;
}

// --------------------------------------------------------- compose-scale

std::vector<const verify::ComposeItem*> compose_items() {
  std::vector<const verify::ComposeItem*> items;
  for (const char* const name : kComposeItems) items.push_back(verify::find_compose_item(name));
  return items;
}

std::size_t compose_setup() {
  const std::vector<const verify::ComposeItem*> items = compose_items();
  for (const verify::ComposeItem* item : items) (void)item->build();
  return items.size();
}

void add_compose(SweepOutcome& out, const verify::ComposeItem& item,
                 const verify::Report& report) {
  out.report += report.json();
  ++out.tasks;
  if (report.certified() != item.expect_certified) ++out.failed;
}

SweepOutcome compose_sweep(unsigned jobs, const Seeds& /*seeds*/) {
  // Each instance at the full job count: the parallelism here is the
  // glue streaming inside one instance, not across instances.
  SweepOutcome out;
  for (const verify::ComposeItem* item : compose_items()) {
    add_compose(out, *item, verify::run_compose_item(*item, jobs));
  }
  return out;
}

ReplayOutcome compose_replay(Tracer& tracer, const Seeds& /*seeds*/) {
  ReplayOutcome out;
  std::int64_t task_id = next_task_id(tracer);
  for (const verify::ComposeItem* item : compose_items()) {
    auto task = tracer.task(task_id++);
    verify::Report report;
    {
      auto span = tracer.span("compose." + item->name);
      report = verify::run_compose_item(*item, 1);
    }
    count_passes(report, "compose.pass.", out.counts);
    add_compose(out.sweep, *item, report);
  }
  return out;
}

// ---------------------------------------------------- benchmark workloads
//
// Each benchmark workload runs two of the parts above back to back, so the
// benchmark's runs are few and long enough for its time limit: a part's
// own sweep is too short to time steadily on a shared host.

void append(SweepOutcome& into, const SweepOutcome& from) {
  into.report += from.report;
  into.tasks += from.tasks;
  into.failed += from.failed;
}

void append(ReplayOutcome& into, const ReplayOutcome& from) {
  append(into.sweep, from.sweep);
  for (const auto& [name, value] : from.counts) into.counts[name] += value;
  into.mesh1024_tasks.insert(from.mesh1024_tasks.begin(), from.mesh1024_tasks.end());
}

std::size_t analysis_setup() { return fault_setup() + compose_setup(); }

SweepOutcome analysis_sweep(unsigned jobs, const Seeds& seeds) {
  SweepOutcome out = fault_sweep(jobs, seeds);
  append(out, compose_sweep(jobs, seeds));
  return out;
}

ReplayOutcome analysis_replay(Tracer& tracer, const Seeds& seeds) {
  ReplayOutcome out = fault_replay(tracer, seeds);
  append(out, compose_replay(tracer, seeds));
  return out;
}

std::size_t simulation_setup() { return load_setup() + recover_setup(); }

SweepOutcome simulation_sweep(unsigned jobs, const Seeds& seeds) {
  SweepOutcome out = load_sweep(jobs, seeds);
  append(out, recover_sweep(jobs, seeds));
  return out;
}

ReplayOutcome simulation_replay(Tracer& tracer, const Seeds& seeds) {
  ReplayOutcome out = load_replay(tracer, seeds);
  append(out, recover_replay(tracer, seeds));
  return out;
}

}  // namespace

// Why each workload was chosen: perfbench/README.md and BENCHMARK.json.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> roster{
      {"analysis", analysis_setup, analysis_sweep, analysis_replay},
      {"simulation", simulation_setup, simulation_sweep, simulation_replay},
  };
  return roster;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
