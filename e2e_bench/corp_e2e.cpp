// End-to-end benchmark driver: runs one workload of the layered benchmark
// (fig_sweep, busy_100k, trace_stream) through the library's public calls
// only. Every call is timed by a span the driver opens itself; in traced
// repetitions the obs registry is switched on and read as before/after
// deltas around each call, so every per-layer number belongs to exactly
// one workload repetition (never the process-global totals).
//
// The driver measures; e2e_bench/run.py judges. It prints one JSON document
// on stdout holding the set-up times, one record per repetition (wall and
// CPU time, the deterministic SimulationResult fields, the invariant
// violations found, and in traced repetitions the obs deltas and span-tree
// self times), and the process peak RSS. run.py compares the results with
// the stored reference and reduces the records to the BENCHMARK.json
// metrics.
//
// CLI: corp_e2e --workload fig_sweep|busy_100k|trace_stream --seed N
//        --seconds S --trace 0|1 [--fixture PATH] [--spans PATH]
//
// --trace 0 runs untraced repetitions until S seconds have elapsed (at
// least one). --trace 1 alternates untraced and traced repetitions (at
// least one pair), which yields the per-layer numbers and the tracing
// overhead from the same process; the traced repetitions' spans are
// written to --spans when the run ends.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/experiment.hpp"
#include "sim/job_source.hpp"
#include "sim/simulation.hpp"
#include "trace/generator.hpp"
#include "trace/stream_reader.hpp"
#include "util/rng.hpp"

namespace {

using namespace corp;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string fixture;
  std::string spans;
};

Options parse_options(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument " + key);
    }
    kv[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) throw std::invalid_argument("flag without a value");
  Options opts;
  const auto take = [&kv](const char* key, const std::string& fallback) {
    auto it = kv.find(key);
    if (it == kv.end()) return fallback;
    std::string value = it->second;
    kv.erase(it);
    return value;
  };
  opts.workload = take("workload", "");
  opts.seed = std::stoull(take("seed", "0"));
  opts.seconds = std::stod(take("seconds", "10"));
  opts.trace = take("trace", "0") != "0";
  opts.fixture = take("fixture", "");
  opts.spans = take("spans", "");
  if (!kv.empty()) {
    throw std::invalid_argument("unknown flag --" + kv.begin()->first);
  }
  if (opts.workload != "fig_sweep" && opts.workload != "busy_100k" &&
      opts.workload != "trace_stream") {
    throw std::invalid_argument("unknown --workload '" + opts.workload + "'");
  }
  if (opts.workload == "trace_stream" && opts.fixture.empty()) {
    throw std::invalid_argument("trace_stream needs --fixture PATH");
  }
  return opts;
}

// ------------------------------------------------------------ process time

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss in KiB
}

// ----------------------------------------------------------------- output

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_string(const std::string& value) {
  std::string quoted = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += (c == '\n') ? ' ' : c;
  }
  return quoted + "\"";
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + items[i];
  }
  return out + "]";
}

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value) {
    return raw(key, json_number(value));
  }
  JsonObject& count(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    return raw(key, json_string(value));
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + json_string(key) + ": " + json;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ------------------------------------------------------------------ spans

/// One timed interval. Spans the driver opens around a public call carry
/// real start/end times; `aggregate` spans are reconstructed from obs phase
/// deltas measured around their parent, so only their duration is known
/// (they are laid out from the parent's start, and under a threaded sweep
/// their durations are summed over worker threads).
struct Span {
  std::string name;
  int id = 0;
  int parent = -1;
  std::size_t rep = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  bool aggregate = false;
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  void set_rep(std::size_t rep) { rep_ = rep; }

  int open(const std::string& name) {
    const int id = static_cast<int>(spans_.size());
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, id, parent, rep_, now_ms(), 0.0, false});
    open_.push_back(id);
    return id;
  }

  /// Closes the innermost open span (which must be `id`); returns seconds.
  double close(int id) {
    if (open_.empty() || open_.back() != id) {
      throw std::logic_error("span close out of order");
    }
    open_.pop_back();
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_ms = now_ms();
    return (span.end_ms - span.start_ms) / 1e3;
  }

  int add_aggregate(int parent, const std::string& name, double ms) {
    const int id = static_cast<int>(spans_.size());
    const double start = spans_[static_cast<std::size_t>(parent)].start_ms;
    spans_.push_back({name, id, parent, rep_, start, start + ms, true});
    return id;
  }

  double duration_ms(int id) const {
    const Span& span = spans_[static_cast<std::size_t>(id)];
    return span.end_ms - span.start_ms;
  }

  /// Duration minus the time covered by the span's direct children.
  double self_ms(int id) const {
    double children = 0.0;
    for (const Span& span : spans_) {
      if (span.parent == id) children += span.end_ms - span.start_ms;
    }
    return duration_ms(id) - children;
  }

  /// Sum of durations over every span named `name` in repetition `rep`.
  double total_ms_named(const std::string& name, std::size_t rep) const {
    double total = 0.0;
    for (const Span& span : spans_) {
      if (span.name == name && span.rep == rep) total += duration_ms(span.id);
    }
    return total;
  }

  /// Sum of self times over every span named `name` in repetition `rep`.
  double self_ms_named(const std::string& name, std::size_t rep) const {
    double total = 0.0;
    for (const Span& span : spans_) {
      if (span.name == name && span.rep == rep) total += self_ms(span.id);
    }
    return total;
  }

  /// Drops the spans of the newest repetition. Ids index spans_, so only
  /// that suffix may go; kept spans never renumber.
  void discard_rep(std::size_t rep) {
    while (!spans_.empty() && spans_.back().rep == rep) spans_.pop_back();
  }

  void write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write span file " + path);
    std::vector<std::string> lines;
    for (const Span& s : spans_) {
      lines.push_back(JsonObject()
                          .count("id", static_cast<std::uint64_t>(s.id))
                          .num("parent", s.parent)
                          .count("rep", s.rep)
                          .str("name", s.name)
                          .num("start_ms", s.start_ms)
                          .num("end_ms", s.end_ms)
                          .num("self_ms", self_ms(s.id))
                          .raw("aggregate", s.aggregate ? "true" : "false")
                          .done());
    }
    out << JsonObject()
               .str("workload", workload)
               .count("seed", seed)
               .raw("spans", json_list(lines))
               .done()
        << '\n';
  }

 private:
  double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::size_t rep_ = 0;
};

// --------------------------------------------------------------- obs deltas

/// Counter and phase changes of the global registry across one call.
struct ObsDelta {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, obs::PhaseSnapshot> phases;

  double phase_ms(const std::string& name) const {
    auto it = phases.find(name);
    return it == phases.end() ? 0.0 : it->second.total_ms;
  }
  std::uint64_t phase_calls(const std::string& name) const {
    auto it = phases.find(name);
    return it == phases.end() ? 0 : it->second.calls;
  }
  void add(const ObsDelta& other) {
    for (const auto& [name, v] : other.counters) counters[name] += v;
    for (const auto& [name, p] : other.phases) {
      obs::PhaseSnapshot& mine = phases[name];
      mine.calls += p.calls;
      mine.total_ms += p.total_ms;
    }
  }
};

ObsDelta diff(const obs::MetricsSnapshot& before,
              const obs::MetricsSnapshot& after) {
  ObsDelta delta;
  for (const auto& [name, value] : after.counters) {
    auto it = before.counters.find(name);
    const std::uint64_t base = it == before.counters.end() ? 0 : it->second;
    if (value != base) delta.counters[name] = value - base;
  }
  for (const auto& [name, phase] : after.phases) {
    obs::PhaseSnapshot d = phase;
    auto it = before.phases.find(name);
    if (it != before.phases.end()) {
      d.calls -= it->second.calls;
      d.total_ms -= it->second.total_ms;
    }
    if (d.calls != 0) delta.phases[name] = d;
  }
  return delta;
}

/// Nesting of the library's obs phases (which ScopedTimer runs inside
/// which), used to hang aggregate child spans under a driver span.
const std::map<std::string, std::vector<std::string>>& phase_children() {
  static const std::map<std::string, std::vector<std::string>> kChildren = {
      {"experiment.sweep_jobs", {"experiment.point"}},
      {"experiment.point",
       {"sim.train", "experiment.prediction_eval", "sim.run"}},
      {"sim.train", {"dnn.fit", "hmm.baum_welch"}},
      {"sim.run", {"sim.place", "sim.predict"}},
      {"sim.place", {"sched.place"}},
  };
  return kChildren;
}

void attach_phases(SpanLog& log, int parent, const std::string& phase,
                   const ObsDelta& delta) {
  const auto& table = phase_children();
  auto it = table.find(phase);
  if (it == table.end()) return;
  for (const std::string& child : it->second) {
    if (delta.phase_calls(child) == 0) continue;
    const int id = log.add_aggregate(parent, child, delta.phase_ms(child));
    attach_phases(log, id, child, delta);
  }
}

/// Times one public call as a span; when tracing, also takes the obs delta
/// across it, accumulates it into `total` and hangs the phases it recorded
/// under the span as aggregate children.
template <typename Fn>
double timed_call(SpanLog& log, bool traced, ObsDelta& total,
                  const std::string& name, Fn&& fn) {
  obs::MetricsSnapshot before;
  if (traced) before = obs::registry().snapshot();
  const int id = log.open(name);
  fn();
  const double secs = log.close(id);
  if (traced) {
    const ObsDelta delta = diff(before, obs::registry().snapshot());
    attach_phases(log, id, name, delta);
    total.add(delta);
  }
  return secs;
}

/// The SimulationResult fields that are deterministic for a fixed seed and
/// are compared with the stored reference.
std::string result_json(const sim::SimulationResult& r) {
  return JsonObject()
      .num("overall_utilization", r.overall_utilization)
      .num("slo_violation_rate", r.slo_violation_rate)
      .count("jobs_completed", r.jobs_completed)
      .count("jobs_violated", r.jobs_violated)
      .count("opportunistic_placements", r.opportunistic_placements)
      .count("reserved_placements", r.reserved_placements)
      .count("slots_simulated", static_cast<std::uint64_t>(r.slots_simulated))
      .done();
}

// -------------------------------------------------------------- workloads

/// What one repetition of a workload produced.
struct RepRecord {
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Summed wall time of the driver's Simulation::run spans; 0 where the
  /// runs happen inside a harness call the driver cannot see into.
  double run_s = 0.0;
  double ingest_s = 0.0;
  std::vector<sim::SimulationResult> results;
  std::vector<std::string> errors;
  trace::StreamStats stream;
  std::uint64_t ingested_jobs = 0;
  ObsDelta obs;
  double train_self_ms = 0.0;
  double run_self_ms = 0.0;
};

/// Engine invariants every result must satisfy; violations go into errors.
void check_result(const sim::SimulationResult& r, std::size_t jobs_in,
                  const std::string& label, std::vector<std::string>& errors) {
  if (r.slots_ticked + r.slots_skipped != r.slots_simulated) {
    errors.push_back(label + ": slots_ticked + slots_skipped != " +
                     "slots_simulated");
  }
  if (r.jobs_completed + r.jobs_dropped != jobs_in) {
    errors.push_back(label + ": " + std::to_string(r.jobs_completed) +
                     " completed + " + std::to_string(r.jobs_dropped) +
                     " dropped != " + std::to_string(jobs_in) + " jobs in");
  }
  if (r.jobs_violated > r.jobs_completed + r.jobs_dropped) {
    errors.push_back(label + ": more violations than jobs");
  }
}

trace::Trace generate(SpanLog& log, const trace::GeneratorConfig& config,
                      std::uint64_t seed) {
  const int id = log.open("trace.generate");
  util::Rng rng(seed);
  trace::Trace out = trace::GoogleTraceGenerator(config).generate(rng);
  log.close(id);
  return out;
}

/// Every workload trains on one fixed history built from the experiment
/// seed of the paper's figure benches, as the paper trains on one
/// historical trace; --seed generates only the workload that is evaluated.
/// (The DNN's early stopping makes training cost swing by about a third
/// between training seeds, which would swamp every timing.)
constexpr std::uint64_t kPaperSeed = 7;

/// Set-up repeats per run; run.py reports the median.
constexpr std::size_t kSetupReps = 5;

class Workload {
 public:
  /// Worker threads the workload's library calls use (at most the 4 cores
  /// of the reference container). Only the sweep fans out: threaded runs of
  /// the other two were no faster there and spread more between runs on a
  /// shared host.
  explicit Workload(std::size_t worker_threads) : threads(worker_threads) {}
  virtual ~Workload() = default;
  const std::size_t threads;
  /// Builds the inputs; called kSetupReps times, the last result kept.
  virtual void setup(SpanLog& log) = 0;
  virtual void run(SpanLog& log, RepRecord& rep) = 0;
};

/// Paper Fig. 7 jobs sweep: 4 methods x 6 job counts on Palmetto. The
/// harness derives training and evaluation traces from one experiment
/// seed, so the seed stays the paper's and --seed shifts the job counts
/// instead: 50+s, 100+s, ..., 300+s. Each job count seeds its own
/// evaluation trace, so every shift evaluates six new workloads.
class FigSweep final : public Workload {
 public:
  explicit FigSweep(std::uint64_t seed) : Workload(4) {
    config_.seed = kPaperSeed;
    config_.params.threads = threads;
    config_.params.jobs_min += seed;
    config_.params.jobs_max += seed;
  }

  void setup(SpanLog& log) override {
    // The evaluation traces the harness will generate, rebuilt from the
    // same public seeds (and sim::run_point's arrival-horizon rule) so
    // every point's job accounting can be checked.
    jobs_per_point_.clear();
    const std::int64_t horizon = std::max<std::int64_t>(
        5, config_.eval_horizon_slots * 100 /
               static_cast<std::int64_t>(
                   std::max<std::size_t>(1, config_.environment.total_vms())));
    for (std::size_t n = config_.params.jobs_min;
         n <= config_.params.jobs_max; n += config_.params.jobs_step) {
      const trace::Trace eval = generate(
          log, sim::scaled_generator_config(config_.environment, n, horizon),
          sim::evaluation_seed(config_.seed, n));
      jobs_per_point_.push_back(eval.size());
    }
  }

  void run(SpanLog& log, RepRecord& rep) override {
    sim::ExperimentHarness harness(config_);
    std::vector<std::vector<sim::PointResult>> sweep;
    rep.wall_s = timed_call(log, rep.traced, rep.obs, "experiment.sweep_jobs",
                            [&] { sweep = harness.sweep_jobs(0.35); });
    for (std::size_t m = 0; m < sweep.size(); ++m) {
      if (sweep[m].size() != jobs_per_point_.size()) {
        rep.errors.push_back("fig_sweep: wrong number of sweep points");
        continue;
      }
      const std::string method(predict::method_name(predict::kAllMethods[m]));
      for (std::size_t p = 0; p < sweep[m].size(); ++p) {
        const sim::SimulationResult& r = sweep[m][p].sim;
        check_result(r, jobs_per_point_[p], method + "@" + std::to_string(p),
                     rep.errors);
        rep.results.push_back(r);
      }
    }
  }

 private:
  sim::ExperimentConfig config_;
  std::vector<std::size_t> jobs_per_point_;
};

/// CORP with the Eq. 21 gate open on a 100k-VM cluster (25k PMs x 4 VMs).
class Busy100k final : public Workload {
 public:
  explicit Busy100k(std::uint64_t seed) : Workload(1), seed_(seed) {
    experiment_.environment.name = "busy-100k";
    experiment_.environment.vms_per_pm = 4;
    experiment_.environment.num_pms = 25'000;
    experiment_.seed = kPaperSeed;
    experiment_.params.threads = threads;
  }

  void setup(SpanLog& log) override {
    const cluster::EnvironmentConfig& env = experiment_.environment;
    history_ = generate(log, sim::scaled_generator_config(env, 40, 10),
                        sim::training_seed(kPaperSeed));
    eval_ = generate(log, sim::scaled_generator_config(env, kJobs, 300),
                     sim::evaluation_seed(seed_, kJobs));
  }

  void run(SpanLog& log, RepRecord& rep) override {
    const int top = log.open("workload.busy_100k");
    sim::Simulation simulation(
        sim::make_simulation_config(experiment_, sim::Method::kCorp, 0.35));
    timed_call(log, rep.traced, rep.obs, "sim.train",
               [&] { simulation.train(history_); });
    sim::SimulationResult result;
    rep.run_s = timed_call(log, rep.traced, rep.obs, "sim.run",
                           [&] { result = simulation.run(eval_); });
    rep.wall_s = log.close(top);
    check_result(result, eval_.size(), "busy_100k", rep.errors);
    rep.results.push_back(result);
  }

 private:
  static constexpr std::size_t kJobs = 3000;
  std::uint64_t seed_;
  sim::ExperimentConfig experiment_;
  trace::Trace history_;
  trace::Trace eval_;
};

/// Google v2 fixture: timed StreamReader drain, then a streamed replay into
/// Simulation::run(JobSource&), set up as bench/trace_replay sets up its
/// replay. It trains on a 40-job history rather than the paper's 200-job
/// corpus: that corpus costs about 20 s of DNN fitting, which would make
/// training, not batched prediction, the dominant layer of a replay short
/// enough for the benchmark's time budget.
class TraceStream final : public Workload {
 public:
  TraceStream(std::uint64_t seed, std::string fixture)
      : Workload(1), fixture_(std::move(fixture)) {
    experiment_.seed = kPaperSeed;
    experiment_.params.threads = threads;
    stream_.seed = seed;
  }

  void setup(SpanLog& log) override {
    training_ = generate(
        log, sim::scaled_generator_config(experiment_.environment, 40, 10),
        sim::training_seed(experiment_.seed));
  }

  void run(SpanLog& log, RepRecord& rep) override {
    const int top = log.open("workload.trace_stream");
    rep.ingest_s = timed_call(log, rep.traced, rep.obs, "trace.ingest", [&] {
      trace::StreamReader reader(fixture_, stream_);
      do {
        reader.advance();
        rep.ingested_jobs += reader.take_ready().size();
      } while (!reader.exhausted());
      rep.stream = reader.stats();
    });
    sim::Simulation simulation(sim::make_simulation_config(
        experiment_, sim::Method::kCorp, /*aggressiveness=*/0.35));
    timed_call(log, rep.traced, rep.obs, "sim.train",
               [&] { simulation.train(training_); });
    trace::StreamReader reader(fixture_, stream_);
    sim::StreamingJobSource source(reader);
    sim::SimulationResult result;
    rep.run_s = timed_call(log, rep.traced, rep.obs, "sim.run",
                           [&] { result = simulation.run(source); });
    rep.wall_s = log.close(top);
    check_result(result, static_cast<std::size_t>(rep.ingested_jobs),
                 "trace_stream", rep.errors);
    if (reader.stats().jobs_emitted != rep.ingested_jobs) {
      rep.errors.push_back("trace_stream: replay emitted " +
                           std::to_string(reader.stats().jobs_emitted) +
                           " jobs, drain " +
                           std::to_string(rep.ingested_jobs));
    }
    rep.results.push_back(result);
  }

 private:
  std::string fixture_;
  sim::ExperimentConfig experiment_;
  trace::StreamReaderConfig stream_;
  trace::Trace training_;
};

std::unique_ptr<Workload> make_workload(const Options& opts) {
  if (opts.workload == "fig_sweep") {
    return std::make_unique<FigSweep>(opts.seed);
  }
  if (opts.workload == "busy_100k") {
    return std::make_unique<Busy100k>(opts.seed);
  }
  return std::make_unique<TraceStream>(opts.seed, opts.fixture);
}

std::string rep_json(const RepRecord& rep) {
  std::vector<std::string> results;
  for (const auto& r : rep.results) results.push_back(result_json(r));
  std::vector<std::string> errors;
  for (const auto& e : rep.errors) errors.push_back(json_string(e));
  std::int64_t ticked = 0, skipped = 0;
  double compute_ms = 0.0;
  std::uint64_t opportunistic = 0, promotions = 0;
  for (const auto& r : rep.results) {
    ticked += r.slots_ticked;
    skipped += r.slots_skipped;
    compute_ms += r.compute_latency_ms;
    opportunistic += r.opportunistic_placements;
    promotions += r.lease_promotions;
  }
  JsonObject out;
  out.raw("traced", rep.traced ? "true" : "false")
      .num("wall_s", rep.wall_s)
      .num("cpu_s", rep.cpu_s)
      .num("run_s", rep.run_s)
      .num("ingest_s", rep.ingest_s)
      .count("slots_ticked", static_cast<std::uint64_t>(ticked))
      .count("slots_skipped", static_cast<std::uint64_t>(skipped))
      .num("compute_latency_ms", compute_ms)
      .count("opportunistic_placements", opportunistic)
      .count("lease_promotions", promotions)
      .count("ingested_jobs", rep.ingested_jobs)
      .count("rows_parsed", rep.stream.rows_parsed)
      .count("bytes_read", rep.stream.bytes_read)
      .raw("results", json_list(results))
      .raw("errors", json_list(errors));
  if (rep.traced) {
    JsonObject counters, phases;
    for (const auto& [name, v] : rep.obs.counters) counters.count(name, v);
    for (const auto& [name, p] : rep.obs.phases) {
      phases.raw(name, JsonObject()
                           .count("calls", p.calls)
                           .num("total_ms", p.total_ms)
                           .done());
    }
    out.raw("counters", counters.done())
        .raw("phases", phases.done())
        .num("train_self_ms", rep.train_self_ms)
        .num("run_self_ms", rep.run_self_ms);
  }
  return out.done();
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opts = parse_options(argc, argv);
  obs::set_enabled(false);
  SpanLog log;
  std::unique_ptr<Workload> workload = make_workload(opts);

  // Set-up repeats so run.py can report its median; spans of set-up
  // (repetition 0) are summarized here and not kept.
  std::vector<std::string> setup_s;
  std::vector<std::string> generate_ms;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    const int id = log.open("setup");
    workload->setup(log);
    setup_s.push_back(json_number(log.close(id)));
    generate_ms.push_back(
        json_number(log.total_ms_named("trace.generate", 0)));
    log.discard_rep(0);
  }

  // Repetitions until the time budget is spent: untraced only, or
  // alternating untraced/traced pairs when tracing.
  std::vector<std::string> reps;
  const Clock::time_point start = Clock::now();
  std::size_t rep_index = 1;
  for (;;) {
    RepRecord rep;
    rep.traced = opts.trace && rep_index % 2 == 0;
    obs::set_enabled(rep.traced);
    log.set_rep(rep_index);
    const double cpu0 = cpu_seconds();
    bool threw = false;
    try {
      workload->run(log, rep);
    } catch (const std::exception& e) {
      // A failed repetition is reported, not fatal; the run stops there
      // because its spans are left open.
      rep.errors.push_back(std::string("exception: ") + e.what());
      threw = true;
    }
    rep.cpu_s = cpu_seconds() - cpu0;
    obs::set_enabled(false);
    if (rep.traced) {
      rep.train_self_ms = log.self_ms_named("sim.train", rep_index);
      rep.run_self_ms = log.self_ms_named("sim.run", rep_index);
    } else {
      log.discard_rep(rep_index);
    }
    reps.push_back(rep_json(rep));
    if (threw) break;
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    const bool pair_done = !opts.trace || rep_index % 2 == 0;
    ++rep_index;
    if (pair_done && elapsed >= opts.seconds) break;
  }

  if (opts.trace && !opts.spans.empty()) {
    log.write(opts.spans, opts.workload, opts.seed);
  }
  std::cout << JsonObject()
                   .str("workload", opts.workload)
                   .count("seed", opts.seed)
                   .count("threads", workload->threads)
                   .raw("setup_s", json_list(setup_s))
                   .raw("generate_ms", json_list(generate_ms))
                   .raw("reps", json_list(reps))
                   .num("peak_rss_mb", peak_rss_mb())
                   .done()
            << '\n';
  return 0;
} catch (const std::exception& e) {
  std::cerr << "corp_e2e: error: " << e.what() << '\n';
  return 1;
}
