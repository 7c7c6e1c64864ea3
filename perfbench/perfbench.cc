// mron_perfbench — the repository benchmark.
//
// One process, one thread, one closed-loop client: each operation (a tuning
// session, an observed 1,023-node recovery run, or one what-if search) is
// issued only after the previous one finished. The workload seed picks the
// operation list from a fixed pool of inputs; the simulator only ever sees
// the generated specs. Every operation's output is checked against
// reference.txt, which holds one entry per pool member (so any seed can be
// checked), and against the workload's own invariants.
//
// The run repeats the operation list in passes until --seconds have
// elapsed. End-to-end metrics (--trace=0) take, for each position in the
// list, the median over passes, and sum those: a pass-long disturbance on
// a shared machine moves one sample per position, not the result.
// --trace=1 alternates untraced passes with traced ones (host self-profiler
// on, plus the benchmark's own spans around every public call it makes)
// and, on the recorder workload, plain passes with the recorder off; the
// per-layer metrics come from the traced passes and the overheads from the
// pairing. See NOTES.md for the workloads and the layer -> metric map.
//
//   mron_perfbench --workload=testbed_tune --seed=1 --seconds=20 --trace=0
//   mron_perfbench --workload=whatif_search --record   (reference lines)
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster_spec.h"
#include "common/flags.h"
#include "common/rng.h"
#include "faults/fault_plan.h"
#include "mapreduce/params.h"
#include "mapreduce/report_rollup.h"
#include "mapreduce/simulation.h"
#include "obs/host_profile.h"
#include "tuner/eval_cache.h"
#include "tuner/online_tuner.h"
#include "whatif/predictor.h"
#include "workloads/benchmarks.h"

using namespace mron;

namespace {

// ---- Fixed inputs -----------------------------------------------------------

// Pools the workload seed draws from. reference.txt holds an entry for each
// member, so every operation of every seed is checked against a recorded
// result. Each list takes all but one member of its pool, in the seed's
// order: a seed changes the inputs, but a run's cost moves by at most one
// operation's deviation, which keeps seed-to-seed spread inside the bounds.
// testbed_tune lists one aggressive session more than conservative ones, so
// the median session wall falls inside one mode of the two.
constexpr int kAggressivePool = 6;
constexpr int kConservativePool = 5;
constexpr int kRecoveryPool = 4;
constexpr int kWhatifSeeds = 8;
constexpr int kWhatifEvaluations = 3000;
constexpr int kWhatifRestarts = 4;
/// Builds of one search's inputs per operation (setup_s takes the median).
constexpr int kInputBuilds = 9;
const char* const kWhatifGeometries[] = {"testbed19", "nodes:64"};
constexpr int kNumGeometries = 2;
constexpr double kRecoveryInputGiB = 128;
const char* const kRecoveryCluster = "nodes:1023";
const char* const kRecoveryPlan = "bench/plans/permacrash_terasort.plan";
/// Relative tolerance on simulated seconds: tight enough to catch a changed
/// outcome, loose enough for an arithmetic reordering that keeps it.
constexpr double kSimSecondsRelTol = 1e-6;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- Spans: the benchmark's own timing of the public calls it makes ------

/// Times each public call the benchmark makes. Set-up calls always add to
/// the set-up clock (setup_s is an end-to-end metric); per-name totals are
/// kept only on traced passes, for the per-layer ledger.
class Spans {
 public:
  class Scope {
   public:
    Scope(Spans& spans, const char* name, bool setup = false)
        : spans_(spans), name_(name), setup_(setup), t0_(now_s()) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { spans_.add(name_, now_s() - t0_, setup_); }

   private:
    Spans& spans_;
    const char* name_;
    bool setup_;
    double t0_;
  };

  /// Start a pass: clear the totals; keep them only if `record`.
  void begin_pass(bool record) {
    record_ = record;
    totals_.clear();
  }
  void add(const char* name, double seconds, bool setup) {
    if (setup) setup_s_ += seconds;
    if (record_) totals_[name] += seconds;
  }
  [[nodiscard]] double take_setup_s() {
    const double s = setup_s_;
    setup_s_ = 0.0;
    return s;
  }
  /// Per-name total seconds of this pass's spans (traced passes only).
  [[nodiscard]] const std::map<std::string, double>& totals() const {
    return totals_;
  }

 private:
  bool record_ = false;
  std::map<std::string, double> totals_;
  double setup_s_ = 0.0;
};

// ---- Reference results ------------------------------------------------------

/// Named result fields of one operation, compared against the reference.
/// Fields whose name ends in "_s" are simulated seconds (relative tolerance);
/// all others (counts, config digests) must match exactly.
using Fields = std::vector<std::pair<std::string, std::string>>;

class Reference {
 public:
  void load(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read reference " + path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      std::string key, field;
      ls >> key;
      auto& entry = entries_[key];
      while (ls >> field) {
        const auto eq = field.find('=');
        if (eq == std::string::npos) continue;
        entry[field.substr(0, eq)] = field.substr(eq + 1);
      }
    }
  }

  /// Returns the mismatches between `got` and the entry for `key`.
  [[nodiscard]] std::vector<std::string> check(const std::string& key,
                                               const Fields& got) const {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return {"no reference entry for " + key};
    std::vector<std::string> bad;
    for (const auto& [name, value] : got) {
      const auto ref = it->second.find(name);
      if (ref == it->second.end()) {
        bad.push_back(key + ": reference lacks " + name);
        continue;
      }
      bool same = ref->second == value;
      if (!same && name.size() > 2 &&
          name.compare(name.size() - 2, 2, "_s") == 0) {
        const double a = std::stod(value);
        const double b = std::stod(ref->second);
        same = std::fabs(a - b) <=
               kSimSecondsRelTol * std::max(std::fabs(a), std::fabs(b));
      }
      if (!same) {
        bad.push_back(key + ": " + name + "=" + value + ", reference " +
                      ref->second);
      }
    }
    return bad;
  }

 private:
  std::map<std::string, std::map<std::string, std::string>> entries_;
};

std::string config_digest(const mapreduce::JobConfig& cfg) {
  const auto& reg = mapreduce::ParamRegistry::extended();
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < reg.size(); ++i) {
    const double v = reg.get(cfg, i);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// ---- Per-layer ledger -------------------------------------------------------

/// Named per-layer quantities accumulated over one traced pass.
using Ledger = std::map<std::string, double>;

void max_into(Ledger& ledger, const std::string& key, double v) {
  ledger[key] = std::max(ledger[key], v);
}

/// Fold one finished Simulation's host profile and arena sizes into the
/// ledger. Called only on traced passes (host_profile on).
void absorb_profile(mapreduce::Simulation& sim, Ledger& ledger) {
  obs::HostProfiler* hp = sim.host_profiler();
  if (hp == nullptr) return;
  const double s_per_tick = hp->ns_per_tick() * 1e-9;
  for (int c = 0; c < obs::kNumHostCats; ++c) {
    const auto cat = static_cast<obs::HostCat>(c);
    ledger[std::string("prof.") + obs::host_cat_name(cat)] +=
        static_cast<double>(hp->subsystem(cat).total_ticks) * s_per_tick;
  }
  ledger["prof.steady"] +=
      static_cast<double>(hp->phase_wall_ns(obs::HostPhase::kSteady)) * 1e-9;
  // Frame totals: the dataset frame wraps exactly Simulation::load_dataset
  // (which make_job calls internally); tuner.* frames are the online tuner's
  // own entry points, counted once at their outermost level. They all run
  // inside am_task dispatch (the AM's task listener): nothing in the
  // simulator bills the profiler's tuner category.
  const auto* ts = hp->acquire_thread_state();
  const auto is_tuner = [](const char* label) {
    return label != nullptr && std::strncmp(label, "tuner.", 6) == 0;
  };
  for (const auto& node : ts->nodes) {
    if (node.label == nullptr) continue;
    const double s = static_cast<double>(node.stat.total_ticks) * s_per_tick;
    if (std::strcmp(node.label, "sim.setup.dataset") == 0) {
      ledger["prof.dataset"] += s;
    } else if (is_tuner(node.label) &&
               !is_tuner(ts->nodes[node.parent].label)) {
      ledger["prof.tuner_frames"] += s;
    }
  }
  max_into(ledger, "mem.queue_bytes",
           static_cast<double>(sim.engine().queue_memory_bytes()));
  if (const obs::Recorder* rec = sim.recorder()) {
    max_into(ledger, "mem.trace_bytes",
             static_cast<double>(rec->trace().memory_bytes()));
    max_into(ledger, "mem.series_bytes",
             static_cast<double>(rec->series().memory_bytes()));
  }
}

// ---- Operations -------------------------------------------------------------

enum class PassKind { kUntraced, kTraced, kPlain };

/// What one operation hands back to the pass loop.
struct OpOut {
  double job_s = 0.0;         ///< sim seconds of the delivered job
  double tuning_sim_s = 0.0;  ///< sim seconds spent in aggressive test runs
  std::string key;            ///< reference key
  Fields fields;              ///< checked against the reference
  std::vector<std::string> failures;  ///< invariant violations
};

struct Context {
  Spans spans;
  Ledger* ledger = nullptr;  ///< non-null on traced passes
  PassKind kind = PassKind::kUntraced;
};

mapreduce::SimulationOptions base_options(Context& cx, const char* cluster,
                                          std::uint64_t seed) {
  mapreduce::SimulationOptions opt;
  {
    Spans::Scope s(cx.spans, "cluster.spec_load", true);
    opt.cluster = cluster::load_cluster_spec(cluster);
  }
  opt.seed = seed;
  opt.host_profile = cx.kind == PassKind::kTraced;
  return opt;
}

std::unique_ptr<mapreduce::Simulation> build(
    Context& cx, const mapreduce::SimulationOptions& opt) {
  Spans::Scope s(cx.spans, "cluster.build", true);
  return std::make_unique<mapreduce::Simulation>(opt);
}

/// Distinct task indices among successful reports (re-executed maps report
/// once per completed attempt).
std::size_t tasks_done(const std::vector<mapreduce::TaskReport>& reports) {
  std::vector<int> idx;
  for (const auto& r : reports) {
    if (!r.failed_oom && !r.failed_injected) idx.push_back(r.task.index);
  }
  std::sort(idx.begin(), idx.end());
  return static_cast<std::size_t>(std::unique(idx.begin(), idx.end()) -
                                  idx.begin());
}

/// A job's completion invariant: every map and reduce task completed.
void check_complete(const char* what, const mapreduce::JobResult& r,
                    std::size_t maps, std::size_t reduces,
                    std::vector<std::string>& failures) {
  const std::size_t m = tasks_done(r.map_reports);
  const std::size_t red = tasks_done(r.reduce_reports);
  if (m != maps || red != reduces || r.finish_time <= r.submit_time) {
    failures.push_back(std::string(what) + ": incomplete job (" +
                       std::to_string(m) + "/" + std::to_string(maps) +
                       " maps, " + std::to_string(red) + "/" +
                       std::to_string(reduces) + " reduces)");
  }
}

/// Submit `spec`, optionally attach a tuner, drain, and return the result.
mapreduce::JobResult run_spec(Context& cx, mapreduce::Simulation& sim,
                              mapreduce::JobSpec spec,
                              tuner::OnlineTuner* online,
                              mapreduce::JobId* id_out = nullptr) {
  mapreduce::JobResult result;
  mapreduce::MrAppMaster* am = nullptr;
  {
    Spans::Scope s(cx.spans, "mapreduce.submit", true);
    am = &sim.submit_job(std::move(spec), [&result](
                                              const mapreduce::JobResult& r) {
      result = r;
    });
  }
  if (online != nullptr) {
    Spans::Scope s(cx.spans, "tuner.attach", true);
    online->attach(*am);
  }
  {
    Spans::Scope s(cx.spans, "sim.run");
    sim.run();
  }
  if (id_out != nullptr) *id_out = am->id();
  return result;
}

/// Traced passes only: fold one finished Simulation's counts and host
/// profile into the pass ledger.
void tally(Context& cx, mapreduce::Simulation& sim,
           const mapreduce::JobResult& r) {
  if (cx.ledger == nullptr) return;
  Ledger& l = *cx.ledger;
  l["sim.events"] += static_cast<double>(sim.engine().total_dispatched());
  l["faults.failed_attempts"] += r.counters.failed_task_attempts;
  l["dfs.rerepl.completed"] +=
      static_cast<double>(sim.rereplicator().stats().copies_completed);
  l["dfs.rerepl.bytes"] += sim.rereplicator().stats().bytes_copied;
  absorb_profile(sim, l);
}

struct SessionJob {
  mapreduce::JobResult result;
  std::int64_t events = 0;
  std::size_t maps = 0, reduces = 0;
};

/// Build, submit and drain one job on a fresh `cluster` Simulation.
SessionJob session_job(Context& cx, const mapreduce::SimulationOptions& opt,
                       workloads::Benchmark bench, workloads::Corpus corpus,
                       const mapreduce::JobConfig* config,
                       tuner::OnlineTuner* online, mapreduce::JobId* id) {
  auto sim = build(cx, opt);
  mapreduce::JobSpec spec;
  {
    Spans::Scope s(cx.spans, "workloads.make_job", true);
    spec = workloads::make_job(*sim, bench, corpus);
  }
  if (config != nullptr) spec.config = *config;
  SessionJob out;
  out.maps = sim->dfs().dataset(spec.input).blocks.size();
  out.reduces = static_cast<std::size_t>(spec.num_reduces);
  out.result = run_spec(cx, *sim, std::move(spec), online, id);
  out.events = sim->engine().total_dispatched();
  tally(cx, *sim, out.result);
  return out;
}

/// Aggressive MRONLINE session on InvertedIndex/Wikipedia: one gated test
/// run with the tuner attached, then one production run with its
/// best_config (seeded like mron_cli's first production run).
OpOut tune_aggressive(Context& cx, std::uint64_t seed) {
  OpOut out;
  out.key = "tune_aggressive/" + std::to_string(seed);
  tuner::OnlineTuner online{tuner::TunerOptions{}};
  mapreduce::JobId id;
  mapreduce::SimulationOptions opt = base_options(cx, "testbed19", seed);
  const SessionJob test =
      session_job(cx, opt, workloads::Benchmark::InvertedIndex,
                  workloads::Corpus::Wikipedia, nullptr, &online, &id);
  check_complete("test run", test.result, test.maps, test.reduces,
                 out.failures);
  const auto& outcome = online.outcome(id);
  if (cx.ledger != nullptr) {
    (*cx.ledger)["tuner.waves"] += outcome.waves;
    (*cx.ledger)["tuner.configs_tried"] += outcome.configs_tried;
  }
  opt = base_options(cx, "testbed19", seed + 1);
  opt.dfs_replication = static_cast<int>(outcome.best_config.dfs_replication);
  const SessionJob prod =
      session_job(cx, opt, workloads::Benchmark::InvertedIndex,
                  workloads::Corpus::Wikipedia, &outcome.best_config, nullptr,
                  nullptr);
  check_complete("production run", prod.result, prod.maps, prod.reduces,
                 out.failures);
  out.job_s = prod.result.exec_time();
  out.tuning_sim_s = test.result.exec_time();
  out.fields = {
      {"events", std::to_string(test.events + prod.events)},
      {"spilled", std::to_string(test.result.counters.total_spilled_records() +
                                 prod.result.counters.total_spilled_records())},
      {"waves", std::to_string(outcome.waves)},
      {"configs", std::to_string(outcome.configs_tried)},
      {"config", config_digest(outcome.best_config)},
      {"test_s", fmt(out.tuning_sim_s)},
      {"job_s", fmt(out.job_s)},
  };
  return out;
}

/// Conservative MRONLINE session on WordCount/Freebase: the online tuner
/// rides along inside the single production run.
OpOut tune_conservative(Context& cx, std::uint64_t seed) {
  OpOut out;
  out.key = "tune_conservative/" + std::to_string(seed);
  tuner::TunerOptions topt;
  topt.strategy = tuner::TuningStrategy::Conservative;
  tuner::OnlineTuner online(topt);
  mapreduce::JobId id;
  const SessionJob run = session_job(
      cx, base_options(cx, "testbed19", seed), workloads::Benchmark::WordCount,
      workloads::Corpus::Freebase, nullptr, &online, &id);
  check_complete("conservative run", run.result, run.maps, run.reduces,
                 out.failures);
  const auto& outcome = online.outcome(id);
  if (cx.ledger != nullptr) {
    (*cx.ledger)["tuner.waves"] += outcome.waves;
    (*cx.ledger)["tuner.configs_tried"] += outcome.configs_tried;
  }
  out.job_s = run.result.exec_time();
  out.fields = {
      {"events", std::to_string(run.events)},
      {"spilled", std::to_string(run.result.counters.total_spilled_records())},
      {"waves", std::to_string(outcome.waves)},
      {"config", config_digest(outcome.best_config)},
      {"job_s", fmt(out.job_s)},
  };
  return out;
}

/// 128 GB speculative Terasort on 1,023 nodes under the permanent-crash
/// plan, flight recorder on (off on plain passes); the run report, metrics,
/// Chrome trace and audit log are serialized into memory afterwards.
OpOut recovery(Context& cx, std::uint64_t seed) {
  OpOut out;
  out.key = "recovery/" + std::to_string(seed);
  mapreduce::SimulationOptions opt = base_options(cx, kRecoveryCluster, seed);
  {
    Spans::Scope s(cx.spans, "faults.plan_load", true);
    opt.fault_plan = faults::FaultPlan::load(kRecoveryPlan);
  }
  opt.observe = cx.kind != PassKind::kPlain;
  auto sim = build(cx, opt);
  mapreduce::JobSpec spec;
  {
    Spans::Scope s(cx.spans, "workloads.make_job", true);
    spec = workloads::make_terasort(*sim, gibibytes(kRecoveryInputGiB));
  }
  spec.speculative_execution = true;
  const mapreduce::JobConfig config = spec.config;
  const std::size_t maps = sim->dfs().dataset(spec.input).blocks.size();
  const auto reduces = static_cast<std::size_t>(spec.num_reduces);
  const mapreduce::JobResult result =
      run_spec(cx, *sim, std::move(spec), nullptr);
  check_complete("recovery run", result, maps, reduces, out.failures);
  const auto& rs = sim->rereplicator().stats();
  if (sim->dfs().under_replicated_blocks() != 0) {
    out.failures.push_back("blocks still under-replicated at drain");
  }
  if (rs.copies_completed < 1) {
    out.failures.push_back("no re-replication copy completed");
  }
  if (obs::Recorder* rec = sim->recorder()) {
    double bytes = 0.0;
    {
      Spans::Scope s(cx.spans, "obs.export");
      const std::string report = mapreduce::run_report_json(
          *sim, {{&result, &config}}, {{"workload", "cluster1023_recovery"}});
      std::ostringstream metrics, trace, audit;
      rec->metrics().write_json(metrics);
      rec->trace().write_chrome_json(trace);
      rec->audit().write_jsonl(audit);
      bytes = static_cast<double>(report.size() + metrics.str().size() +
                                  trace.str().size() + audit.str().size());
      if (report.find("mron.run_report/") == std::string::npos ||
          trace.str().find("traceEvents") == std::string::npos) {
        out.failures.push_back("export is missing its schema markers");
      }
    }
    if (cx.ledger != nullptr) (*cx.ledger)["obs.export_bytes"] += bytes;
  }
  tally(cx, *sim, result);
  out.job_s = result.exec_time();
  // The recorder's sampling clock (the cluster monitor) adds its own
  // events, so plain passes check against their own event count.
  out.fields = {
      {opt.observe ? "events" : "plain_events",
       std::to_string(sim->engine().total_dispatched())},
      {"spilled", std::to_string(result.counters.total_spilled_records())},
      {"failed_attempts", std::to_string(result.counters.failed_task_attempts)},
      {"rerepl_completed", std::to_string(rs.copies_completed)},
      {"job_s", fmt(out.job_s)},
  };
  return out;
}

struct WhatifKey {
  int row = 0;
  int geometry = 0;
  int seed = 0;
};

/// One Starfish-style cost-based search (restarts 4, jobs 1) over a
/// Table-3 profile on a cluster geometry; the result is checked through the
/// chosen configuration and its predicted seconds.
OpOut whatif_search(Context& cx, const WhatifKey& k) {
  OpOut out;
  out.key = "whatif/" + std::to_string(k.row) + "/" +
            std::to_string(k.geometry) + "/" + std::to_string(k.seed);
  // The first build after a search runs with caches full of the eval cache
  // (~15 us, swinging with the cache state); later builds take ~1 us. Build
  // the inputs kInputBuilds times and put the median build on the set-up
  // clock, so setup_s measures the build rather than the search's footprint.
  whatif::PredictionInputs in;
  std::vector<double> builds;
  for (int b = 0; b < kInputBuilds; ++b) {
    const double t0 = now_s();
    in = whatif::PredictionInputs{};
    in.cluster = cluster::load_cluster_spec(kWhatifGeometries[k.geometry]);
    const workloads::BenchmarkInfo info =
        workloads::table3()[static_cast<std::size_t>(k.row)];
    in.profile = workloads::profile_for(info.benchmark, info.corpus);
    in.input_size = info.input_size;
    in.num_maps = info.num_maps;
    in.num_reduces = info.num_reduces;
    builds.push_back(now_s() - t0);
  }
  cx.spans.add("whatif.inputs", median(builds), /*setup=*/true);
  {
    Spans::Scope s(cx.spans, "whatif.search");
    in.config = whatif::optimize_with_model(
        in, kWhatifEvaluations, static_cast<std::uint64_t>(100 + k.seed),
        kWhatifRestarts, /*jobs=*/1);
  }
  out.job_s = whatif::predict(in).total_secs;
  if (!std::isfinite(out.job_s) || out.job_s <= 0.0) {
    out.failures.push_back(out.key + ": non-finite prediction");
  }
  if (cx.ledger != nullptr) {
    (*cx.ledger)["whatif.evaluations"] += kWhatifEvaluations;
  }
  out.fields = {{"config", config_digest(in.config)},
                {"predicted_s", fmt(out.job_s)}};
  return out;
}

// ---- Workloads --------------------------------------------------------------

using Op = std::function<OpOut(Context&)>;

struct Workload {
  std::vector<Op> ops;
  /// The pool, for --record: one operation per reference entry.
  std::vector<Op> pool;
  bool recorder = false;  ///< flight recorder on (plain passes measure it)
};

/// `k` distinct indices out of [0, n), in the seed's order.
std::vector<int> pick(Rng& rng, int n, int k) {
  std::vector<int> idx(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(idx[static_cast<std::size_t>(i)],
              idx[static_cast<std::size_t>(rng.uniform_int(0, i))]);
  }
  idx.resize(static_cast<std::size_t>(k));
  return idx;
}

// Simulation seeds of the pool members. An aggressive session's production
// run uses seed + 1, so those seeds step by two.
std::uint64_t aggressive_seed(int i) {
  return 1000 + 2 * static_cast<std::uint64_t>(i);
}
std::uint64_t conservative_seed(int i) {
  return 5000 + static_cast<std::uint64_t>(i);
}
std::uint64_t recovery_seed(int i) {
  return 7000 + static_cast<std::uint64_t>(i);
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Rng rng(seed);
  Workload w;
  if (name == "testbed_tune") {
    const auto a = pick(rng, kAggressivePool, kAggressivePool - 1);
    const auto c = pick(rng, kConservativePool, kConservativePool - 1);
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::uint64_t sa = aggressive_seed(a[i]);
      w.ops.push_back([sa](Context& cx) { return tune_aggressive(cx, sa); });
      if (i >= c.size()) continue;
      const std::uint64_t sc = conservative_seed(c[i]);
      w.ops.push_back([sc](Context& cx) { return tune_conservative(cx, sc); });
    }
    for (int i = 0; i < kAggressivePool; ++i) {
      w.pool.push_back([i](Context& cx) {
        return tune_aggressive(cx, aggressive_seed(i));
      });
    }
    for (int i = 0; i < kConservativePool; ++i) {
      w.pool.push_back([i](Context& cx) {
        return tune_conservative(cx, conservative_seed(i));
      });
    }
  } else if (name == "cluster1023_recovery") {
    w.recorder = true;
    for (int i : pick(rng, kRecoveryPool, kRecoveryPool - 1)) {
      w.ops.push_back(
          [i](Context& cx) { return recovery(cx, recovery_seed(i)); });
    }
    for (int i = 0; i < kRecoveryPool; ++i) {
      w.pool.push_back(
          [i](Context& cx) { return recovery(cx, recovery_seed(i)); });
    }
  } else if (name == "whatif_search") {
    // Every pool key but one, in the seed's order, and after every second
    // fresh search a repeat of one of the last four keys: repeats hit the
    // process-lifetime eval cache, fresh keys mostly miss it (a pass touches
    // far more keys than the cache holds, so every pass after the first
    // sees the same cache behaviour).
    const int rows = static_cast<int>(workloads::table3().size());
    std::vector<WhatifKey> pool;
    for (int r = 0; r < rows; ++r) {
      for (int g = 0; g < kNumGeometries; ++g) {
        for (int s = 0; s < kWhatifSeeds; ++s) pool.push_back({r, g, s});
      }
    }
    std::vector<WhatifKey> keys;
    const int fresh = static_cast<int>(pool.size()) - 1;
    for (int i : pick(rng, static_cast<int>(pool.size()), fresh)) {
      keys.push_back(pool[static_cast<std::size_t>(i)]);
      if (keys.size() % 3 == 2) {
        const auto back = rng.uniform_int(
            1, std::min<std::int64_t>(4,
                                      static_cast<std::int64_t>(keys.size())));
        keys.push_back(keys[keys.size() - static_cast<std::size_t>(back)]);
      }
    }
    for (const WhatifKey& k : keys) {
      w.ops.push_back([k](Context& cx) { return whatif_search(cx, k); });
    }
    for (const WhatifKey& k : pool) {
      w.pool.push_back([k](Context& cx) { return whatif_search(cx, k); });
    }
  } else {
    throw std::runtime_error("unknown workload " + name);
  }
  return w;
}

// ---- Machine fingerprint ----------------------------------------------------

/// Wall seconds for `threads` threads each spinning the same fixed work.
double spin_wall_s(int threads) {
  std::atomic<std::uint64_t> sink{0};
  const auto work = [&sink] {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink += x;
  };
  const double t0 = now_s();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) pool.emplace_back(work);
  for (auto& t : pool) t.join();
  return now_s() - t0;
}

void print_fingerprint() {
  const int nproc = std::max(1u, std::thread::hardware_concurrency());
  const double one = spin_wall_s(1);
  const double all = spin_wall_s(nproc);
  std::printf(
      "fingerprint {\"nproc\": %d, \"spin_1_thread_s\": %.4f, "
      "\"spin_%d_threads_s\": %.4f, \"usable_parallelism\": %.2f, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\"}\n",
      nproc, one, nproc, all, nproc * one / all, MRON_PERFBENCH_BUILD_TYPE,
      __VERSION__);
}

// ---- Main loop --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Run every pool member once per pass kind the workload uses and print
/// its reference line.
int record(const Workload& w) {
  std::vector<PassKind> kinds = {PassKind::kUntraced};
  if (w.recorder) kinds.push_back(PassKind::kPlain);
  for (const Op& op : w.pool) {
    std::string key;
    std::map<std::string, std::string> fields;
    for (PassKind kind : kinds) {
      Context cx;
      cx.kind = kind;
      const OpOut out = op(cx);
      for (const auto& f : out.failures) {
        std::fprintf(stderr, "invariant failed: %s\n", f.c_str());
      }
      if (!out.failures.empty()) return 1;
      key = out.key;
      fields.insert(out.fields.begin(), out.fields.end());
    }
    std::printf("%s", key.c_str());
    for (const auto& [k, v] : fields) {
      std::printf(" %s=%s", k.c_str(), v.c_str());
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  return 0;
}

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string workload = flags.get("workload", std::string(""));
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", 1));
  const double seconds = flags.get("seconds", 10.0);
  const bool traced = flags.get("trace", 0) != 0;
  const std::string reference_path =
      flags.get("reference", std::string("perfbench/reference.txt"));
  const bool record_mode = flags.get("record", false);
  for (const auto& u : flags.unused()) {
    std::fprintf(stderr, "unknown flag --%s\n", u.c_str());
    return 2;
  }
  const Workload w = make_workload(workload, seed);
  if (record_mode) return record(w);

  Reference reference;
  reference.load(reference_path);
  print_fingerprint();

  std::vector<PassKind> cycle = {PassKind::kUntraced};
  if (traced) {
    cycle.push_back(PassKind::kTraced);
    if (w.recorder) cycle.push_back(PassKind::kPlain);
  }
  const std::size_t n_ops = w.ops.size();
  // Untraced samples per op position.
  std::vector<std::vector<double>> wall(n_ops), cpu(n_ops), setup(n_ops);
  std::map<PassKind, std::vector<double>> pass_walls;
  std::vector<Ledger> ledgers;
  double job_s = 0.0;
  double tuning_sim_s = 0.0;
  long attempted = 0;
  long failed = 0;

  Context cx;
  const double deadline = now_s() + seconds;
  for (std::size_t pass = 0; pass < cycle.size() || now_s() < deadline;
       ++pass) {
    cx.kind = cycle[pass % cycle.size()];
    Ledger ledger;
    cx.ledger = cx.kind == PassKind::kTraced ? &ledger : nullptr;
    cx.spans.begin_pass(cx.kind == PassKind::kTraced);
    const tuner::EvalCacheStats cache0 = tuner::eval_cache_global_stats();
    const double pass_t0 = now_s();
    double pass_job_s = 0.0;
    double pass_tuning_s = 0.0;
    for (std::size_t i = 0; i < n_ops; ++i) {
      const double t0 = now_s();
      const double c0 = cpu_now_s();
      OpOut out;
      try {
        out = w.ops[i](cx);
      } catch (const std::exception& e) {
        out.failures.push_back(std::string("exception: ") + e.what());
      }
      const double op_wall = now_s() - t0;
      const double op_cpu = cpu_now_s() - c0;
      const double op_setup = cx.spans.take_setup_s();
      ++attempted;
      auto bad = reference.check(out.key, out.fields);
      bad.insert(bad.end(), out.failures.begin(), out.failures.end());
      if (!bad.empty()) {
        ++failed;
        for (const auto& b : bad) {
          std::fprintf(stderr, "check failed: %s\n", b.c_str());
        }
      }
      pass_job_s += out.job_s;
      pass_tuning_s += out.tuning_sim_s;
      if (cx.kind == PassKind::kUntraced) {
        wall[i].push_back(op_wall);
        cpu[i].push_back(op_cpu);
        setup[i].push_back(op_setup);
      }
    }
    pass_walls[cx.kind].push_back(now_s() - pass_t0);
    job_s = pass_job_s;
    tuning_sim_s = pass_tuning_s;
    if (cx.kind == PassKind::kTraced) {
      const tuner::EvalCacheStats cache1 = tuner::eval_cache_global_stats();
      ledger["cache.lookups"] =
          static_cast<double>(cache1.lookups() - cache0.lookups());
      ledger["cache.hits"] = static_cast<double>(cache1.hits - cache0.hits);
      for (const auto& [name, total] : cx.spans.totals()) {
        ledger["span." + name] = total;
      }
      ledger["tuner.tuning_sim_s"] = pass_tuning_s;
      ledgers.push_back(std::move(ledger));
    }
  }

  std::vector<Metric> metrics;
  if (!traced) {
    // Per position in the op list, the median over passes; wall/cpu/setup
    // sum those, op_wall_s_p50 is their median.
    double wall_s = 0, cpu_s = 0, setup_s = 0;
    std::vector<double> op_medians;
    for (std::size_t i = 0; i < n_ops; ++i) {
      op_medians.push_back(median(wall[i]));
      wall_s += op_medians.back();
      cpu_s += median(cpu[i]);
      setup_s += median(setup[i]);
    }
    metrics = {
        {"wall_s", wall_s, "s"},
        {"op_wall_s_p50", median(op_medians), "s"},
        {"cpu_s", cpu_s, "s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
        {"job_s", job_s, "s"},
    };
    std::printf("samples: %zu passes x %zu ops; tuning_sim_s=%s\n",
                pass_walls[PassKind::kUntraced].size(), n_ops,
                fmt(tuning_sim_s).c_str());
  } else {
    // Per-layer value = median over traced passes of the pass total.
    const auto layer = [&](const std::string& key) {
      std::vector<double> v;
      for (const Ledger& l : ledgers) {
        const auto it = l.find(key);
        v.push_back(it == l.end() ? 0.0 : it->second);
      }
      return median(v);
    };
    const auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    std::vector<double> share_v, coverage_v, hit_v;
    for (const Ledger& l : ledgers) {
      double sum = 0.0;
      for (int c = 0; c < obs::kNumHostCats; ++c) {
        const auto cat = static_cast<obs::HostCat>(c);
        const auto it = l.find(std::string("prof.") + obs::host_cat_name(cat));
        if (it != l.end()) sum += it->second;
      }
      const auto get = [&l](const char* k) {
        const auto it = l.find(k);
        return it == l.end() ? 0.0 : it->second;
      };
      share_v.push_back(ratio(get("prof.shared_server"), sum));
      coverage_v.push_back(ratio(sum, get("prof.steady")));
      hit_v.push_back(ratio(get("cache.hits"), get("cache.lookups")));
    }
    const double events = layer("sim.events");
    const double run_s = layer("span.sim.run");
    const double search_s = layer("span.whatif.search");
    const double untraced = median(pass_walls[PassKind::kUntraced]);
    const double traced_wall = median(pass_walls[PassKind::kTraced]);
    const double recorder_s =
        w.recorder ? untraced - median(pass_walls[PassKind::kPlain]) : 0.0;
    metrics = {
        {"sim.events", events, "count"},
        {"sim.run_s", run_s, "s"},
        {"sim.ns_per_event", ratio(run_s * 1e9, events), "ns"},
        {"sim.shared_server.self_s", layer("prof.shared_server"), "s"},
        {"sim.shared_server.share", median(share_v), "fraction"},
        {"sim.profile_coverage", median(coverage_v), "fraction"},
        {"sim.queue_bytes", layer("mem.queue_bytes"), "bytes"},
        // The online tuner runs inside the AM's task listener, so its
        // frames are carved out of am_task rather than added to it.
        {"mapreduce.am_task.self_s",
         layer("prof.am_task") - layer("prof.tuner_frames"), "s"},
        {"mapreduce.submit_s", layer("span.mapreduce.submit"), "s"},
        {"workloads.make_job_s",
         layer("span.workloads.make_job") - layer("prof.dataset"), "s"},
        {"cluster.build_s", layer("span.cluster.build"), "s"},
        {"cluster.monitor.self_s", layer("prof.monitor"), "s"},
        {"dfs.load_dataset_s", layer("prof.dataset"), "s"},
        {"dfs.self_s", layer("prof.dfs"), "s"},
        {"dfs.rerepl.completed", layer("dfs.rerepl.completed"), "count"},
        {"dfs.rerepl.bytes", layer("dfs.rerepl.bytes"), "bytes"},
        {"yarn.self_s", layer("prof.yarn"), "s"},
        {"faults.self_s", layer("prof.faults"), "s"},
        {"faults.failed_attempts", layer("faults.failed_attempts"), "count"},
        {"tuner.self_s", layer("prof.tuner_frames"), "s"},
        {"tuner.waves", layer("tuner.waves"), "count"},
        {"tuner.configs_tried", layer("tuner.configs_tried"), "count"},
        {"tuner.tuning_sim_s", layer("tuner.tuning_sim_s"), "s"},
        {"tuner.eval_cache.lookups", layer("cache.lookups"), "count"},
        {"tuner.eval_cache.hit_rate", median(hit_v), "fraction"},
        {"whatif.search_s", search_s, "s"},
        {"whatif.ns_per_eval",
         ratio(search_s * 1e9, layer("whatif.evaluations")), "ns"},
        {"obs.export_s", layer("span.obs.export"), "s"},
        {"obs.export_bytes", layer("obs.export_bytes"), "bytes"},
        {"obs.recorder_s", recorder_s, "s"},
        {"obs.trace_bytes", layer("mem.trace_bytes"), "bytes"},
        {"obs.series_bytes", layer("mem.series_bytes"), "bytes"},
        {"bench.trace_overhead_frac", ratio(traced_wall, untraced) - 1.0,
         "fraction"},
    };
    std::printf("samples: %zu untraced, %zu traced, %zu plain passes\n",
                pass_walls[PassKind::kUntraced].size(),
                pass_walls[PassKind::kTraced].size(),
                pass_walls[PassKind::kPlain].size());
  }

  for (const Metric& m : metrics) {
    std::printf("%-28s %16s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                fmt(metrics[i].value).c_str(), metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mron_perfbench: %s\n", e.what());
    return 1;
  }
}
