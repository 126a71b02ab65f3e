/// \file perfbench.cpp
/// Host-performance benchmark driver for the xtsim simulator.
///
/// One process, one host thread.  It calls the public entry point of
/// each layer (apps::run_cam, apps::run_pop, vmpi::World + Comm::
/// alltoallv_bytes, obsv::Session), times every call from outside,
/// checks every simulated result, and prints one JSON result line last.
/// README.md in this directory documents the workloads, the metrics and
/// which layer each per-layer metric belongs to.
///
///   perfbench --workload cam|pop|alltoall|cam-obsv --seed N --seconds S
///             --trace 0|1 [--spans FILE] [--commit SHA] [--source HASH]
///   perfbench --selftest
///   perfbench --print-golden
///
/// Run from the root of the source tree: the goldens are read from
/// perfbench/golden.txt.
///
/// Plain runs (--trace 0) report the end-to-end metrics, with host times
/// scaled to a reference host speed by the calibration kernel timed
/// around every pass (calib.hpp).  Traced runs (--trace 1) interleave
/// plain passes with HostProfile-armed passes, add one obsv-metrics pass
/// for the app counters, and report the per-layer metrics; their spans
/// are kept in memory and written to --spans at exit.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "calib.hpp"

#include "apps/cam.hpp"
#include "apps/pop.hpp"
#include "core/hostprof.hpp"
#include "machine/presets.hpp"
#include "obsv/attrib.hpp"
#include "obsv/session.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/world.hpp"

namespace {

using namespace xts;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

// Before every pass, setup is repeated until both minimums are met (at
// most kSetupMaxReps times); setup_s is the median over all of a run's
// repetitions.  One app setup takes microseconds, and host speed drifts
// over seconds, so the repetitions are spread across the run.
constexpr int kSetupMinReps = 5;
constexpr int kSetupMaxReps = 200;
constexpr double kSetupMinSeconds = 0.05;
// alltoall: ranks of the World built per pass, and the payload range
// (bytes per ordered pair, uniform, mean 4 KiB).
constexpr int kAlltoallRanks = 512;
constexpr std::uint64_t kPayloadMax = 8191;
// A timed call is tiled when its HostProfile subsystems do not exceed
// its wall time by more than this share.
constexpr double kTileTolerance = 0.01;
constexpr const char* kGoldenPath = "perfbench/golden.txt";

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans;
  std::string commit = "unknown";
  std::string source = "unknown";
  bool selftest = false;
  bool print_golden = false;
};

[[noreturn]] void usage(const std::string& why) {
  throw std::invalid_argument(why);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (k == "--print-golden") {
      a.print_golden = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed needs an integer");
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0.0) ||
          a.seconds > 3600.0)
        usage("--seconds needs a number in (0, 3600]");
      have_seconds = true;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace needs 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (k == "--spans") {
      a.spans = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else if (k == "--source") {
      a.source = v;
    } else {
      usage("unknown argument " + k);
    }
  }
  if (a.selftest || a.print_golden) return a;
  if (a.workload != "cam" && a.workload != "pop" &&
      a.workload != "alltoall" && a.workload != "cam-obsv")
    usage("--workload must be cam, pop, alltoall or cam-obsv");
  if (!have_seed || !have_seconds || !have_trace)
    usage("--seed, --seconds and --trace are required");
  return a;
}

// ---- golden simulated outputs ----------------------------------------------

/// One app point's simulated outputs: years/day, the two phase costs
/// (CAM dynamics/physics, POP baroclinic/barotropic, seconds per
/// simulated day) and delivered messages.
struct Golden {
  double years_per_day = 0.0;
  double phase_a = 0.0;
  double phase_b = 0.0;
  double messages = 0.0;
};

struct AppPoint {
  std::string app;  ///< "cam" or "pop"
  int tasks = 0;
  [[nodiscard]] std::string key() const {
    return app + "@" + std::to_string(tasks);
  }
};

std::map<std::string, Golden> load_goldens(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read golden file " + path);
  std::map<std::string, Golden> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    AppPoint p;
    Golden g;
    if (!(ls >> p.app >> p.tasks >> g.years_per_day >> g.phase_a >>
          g.phase_b >> g.messages))
      throw std::runtime_error("malformed golden line: " + line);
    out[p.key()] = g;
  }
  return out;
}

// ---- spans ------------------------------------------------------------------

/// Host-time spans around every call the benchmark makes; kept in memory
/// and written once at exit.  Every span of a pass carries that pass's
/// id; `parent` names the enclosing span (0 = none).
struct Span {
  int id = 0;
  int parent = 0;
  int pass = 0;
  std::string name;
  std::string kind;
  double t0 = 0.0;
  double t1 = 0.0;
  HostProfile::Totals prof{};
  bool profiled = false;
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  int open(const std::string& name, const std::string& kind, int parent,
           int pass) {
    if (!on_) return 0;
    Span s;
    s.id = static_cast<int>(spans_.size()) + 1;
    s.parent = parent;
    s.pass = pass;
    s.name = name;
    s.kind = kind;
    s.t0 = now_s();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void close(int id, const HostProfile::Totals* prof = nullptr) {
    if (id == 0) return;
    Span& s = spans_[static_cast<std::size_t>(id - 1)];
    s.t1 = now_s();
    if (prof != nullptr) {
      s.prof = *prof;
      s.profiled = true;
    }
  }
  void write(const std::string& path, const std::string& stamp) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write spans to " + path);
    os << "{\"stamp\": " << stamp << ",\n \"spans\": [\n";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "  {\"id\": %d, \"parent\": %d, \"pass\": %d, "
                    "\"name\": \"%s\", \"kind\": \"%s\", \"t0\": %.9f, "
                    "\"t1\": %.9f",
                    s.id, s.parent, s.pass, s.name.c_str(), s.kind.c_str(),
                    s.t0, s.t1);
      os << buf;
      if (s.profiled) {
        os << ", \"host_profile\": {";
        for (std::size_t k = 0; k < kHostSubsysCount; ++k) {
          std::snprintf(buf, sizeof buf, "%s\"%s\": %.9f", k ? ", " : "",
                        host_subsys_name(static_cast<HostSubsys>(k)),
                        s.prof.seconds[k]);
          os << buf;
        }
        os << "}";
      }
      os << (i + 1 < spans_.size() ? "},\n" : "}\n");
    }
    os << "]}\n";
    if (!os) throw std::runtime_error("short write of spans to " + path);
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// ---- workload set-up -------------------------------------------------------

/// Everything a pass needs, built before simulation starts (setup_s).
struct Setup {
  machine::MachineConfig machine;
  apps::CamConfig cam;
  apps::PopConfig pop;
  std::vector<AppPoint> points;
  std::map<std::string, Golden> golden;
  // alltoall: payload[src][dst] bytes (0 on the diagonal) and the World.
  std::vector<std::vector<double>> payload;
  double payload_total = 0.0;
  std::unique_ptr<vmpi::World> world;
  double world_build_s = 0.0;
};

// The intra-World pool and event lanes may be deleted (ROADMAP item 2);
// these two compile with or without them, so that change can still be
// measured with this benchmark unchanged.
template <class Config>
void request_single_thread(Config& wc) {
  if constexpr (requires { wc.world_threads; }) wc.world_threads = 1;
  if constexpr (requires { wc.world_lanes; }) wc.world_lanes = 1;
}

template <class W>
bool single_threaded(const W& w) {
  bool ok = true;
  if constexpr (requires { w.world_threads(); }) ok = w.world_threads() == 1;
  if constexpr (requires { w.world_lanes(); }) ok = ok && w.world_lanes() == 0;
  return ok;
}

/// The alltoall World: XT4 VN, one host thread, no lanes.
std::unique_ptr<vmpi::World> build_world(const machine::MachineConfig& m) {
  vmpi::WorldConfig wc;
  wc.machine = m;
  wc.mode = machine::ExecMode::kVN;
  wc.nranks = kAlltoallRanks;
  request_single_thread(wc);
  auto w = std::make_unique<vmpi::World>(std::move(wc));
  if (!single_threaded(*w))
    throw std::logic_error("alltoall World is not single-threaded");
  return w;
}

/// The machine, app configs and point list of a workload (no goldens,
/// no World).
std::unique_ptr<Setup> base_setup(const std::string& workload) {
  auto s = std::make_unique<Setup>();
  s->machine = machine::xt4();
  // Passes are kept near a second, so a run's median is taken over many
  // of them.  POP's barotropic CG does real arithmetic on the whole
  // grid whatever the task count; a 900x600 grid cuts that 16-fold and
  // leaves the message pattern (counts, partners, allreduces) as is.
  s->pop.nx = 900;
  s->pop.ny = 600;
  s->pop.sample_steps = 1;
  s->pop.sample_cg_iters = 16;
  // cam-obsv records every event; at 240 tasks a pass would take ~2.5 s.
  if (workload == "cam")
    s->points = {{"cam", 120}, {"cam", 240}};
  else if (workload == "cam-obsv")
    s->points = {{"cam", 120}};
  else if (workload == "pop")
    s->points = {{"pop", 256}, {"pop", 512}};
  return s;
}

std::unique_ptr<Setup> make_setup(const Args& a) {
  std::unique_ptr<Setup> s = base_setup(a.workload);
  if (!s->points.empty()) {
    s->golden = load_goldens(kGoldenPath);
    return s;
  }
  // alltoall: the only input --seed drives.
  std::uint64_t state = a.seed;
  const auto n = static_cast<std::size_t>(kAlltoallRanks);
  s->payload.assign(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double b =
          static_cast<double>(1 + perfbench::splitmix64(state) % kPayloadMax);
      s->payload[i][j] = b;
      s->payload_total += b;
    }
  const double t0 = now_s();
  s->world = build_world(s->machine);
  s->world_build_s = now_s() - t0;
  return s;
}

// ---- passes ----------------------------------------------------------------

/// How a pass runs.  `obsv` arms a Session the way `--metrics --profile`
/// do and renders the profile JSON; `count` arms a metrics-only Session
/// to read the app counters; `profile` arms HostProfile.
struct PassKind {
  const char* name;
  bool obsv;
  bool count;
  bool profile;
};

struct Counts {
  bool known = false;
  double msgs = 0.0, bytes = 0.0, events = 0.0, peak_flows = 0.0;
  double route_hits = 0.0, route_misses = 0.0, route_evictions = 0.0;
  double rate_passes = 0.0, rate_updates = 0.0;
};

/// The route-LRU totals a metrics Session's registry holds (World
/// teardown adds them); all 0 without a Session or without the cache.
struct RouteCounters {
  double hits = 0.0, misses = 0.0, evictions = 0.0;
};

RouteCounters route_counters() {
  const obsv::Session* session = obsv::Session::active();
  if (session == nullptr) return {};
  const obsv::Registry& reg = session->registry();
  return {reg.counter_total("cache.route.hits"),
          reg.counter_total("cache.route.misses"),
          reg.counter_total("cache.route.evictions")};
}

/// Add what the registry gained since `before` to `c`.
void add_route_counters(Counts& c, const RouteCounters& before) {
  const RouteCounters now = route_counters();
  c.route_hits += now.hits - before.hits;
  c.route_misses += now.misses - before.misses;
  c.route_evictions += now.evictions - before.evictions;
}

void print_counts(const std::string& key, const Counts& c) {
  std::printf("  counts  %-19s events %.0f msgs %.0f route hits %.0f "
              "misses %.0f evictions %.0f peak_flows %.0f\n",
              key.c_str(), c.events, c.msgs, c.route_hits, c.route_misses,
              c.route_evictions, c.peak_flows);
}

/// HostProfile seconds of one call, grouped by layer.  Subsystems are
/// matched by name, so splitting the engine bucket (ROADMAP item 1) or
/// deleting the pool and lane subsystems keeps this compiling and keeps
/// core.engine_s comparable: it is all profiled time outside rate
/// allocation and parallel work.
struct Layers {
  double total = 0.0, rates = 0.0, parallel = 0.0;
  [[nodiscard]] double engine() const { return total - rates - parallel; }
};

Layers layers(const HostProfile::Totals& t) {
  Layers l;
  for (std::size_t k = 0; k < kHostSubsysCount; ++k) {
    const std::string_view name = host_subsys_name(static_cast<HostSubsys>(k));
    l.total += t.seconds[k];
    if (name == "net.rates")
      l.rates += t.seconds[k];
    else if (name.rfind("pool.", 0) == 0 || name.rfind("lanes.", 0) == 0)
      l.parallel += t.seconds[k];
  }
  return l;
}

struct CallTime {
  double wall = 0.0;
  Layers prof;
  bool app = false;  ///< a simulator call, not an obsv session call
};

struct PassRecord {
  std::string kind;
  double wall = 0.0;  ///< sum of the timed calls
  double msgs = 0.0;  ///< simulated messages delivered by the pass
  double export_s = 0.0;  ///< profile JSON render (cam-obsv)
  std::vector<CallTime> calls;
  Counts counts;
};

/// Per-run bookkeeping shared by every pass.
struct Run {
  explicit Run(bool trace) : spans(trace) {}

  SpanLog spans;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> problems;
  // First simulated outputs seen per point: every later pass must
  // reproduce them bit for bit, whatever its instrumentation.
  std::map<std::string, std::vector<double>> reference;

  void fail(const std::string& what) {
    ++failed;
    if (problems.size() < 20) problems.push_back(what);
  }
  void check_identical(const std::string& key,
                       const std::vector<double>& sig) {
    const auto [it, fresh] = reference.emplace(key, sig);
    if (!fresh && (it->second.size() != sig.size() ||
                   std::memcmp(it->second.data(), sig.data(),
                               sig.size() * sizeof(double)) != 0))
      fail(key + ": simulated outputs differ from the run's first pass");
  }
};

/// The pass being run: where its calls are recorded.
struct PassCtx {
  Run& run;
  PassRecord& rec;
  int span;  ///< the pass's span, parent of its calls
  int id;
  bool profile;
};

/// Time one call from outside; with HostProfile armed, also its
/// subsystem seconds.  Exceptions propagate after the call is recorded.
template <class F>
void timed_call(PassCtx& pc, const std::string& name, bool app, F&& f) {
  if (pc.profile) HostProfile::reset();
  const int sid = pc.run.spans.open(name, "call", pc.span, pc.id);
  CallTime ct;
  ct.app = app;
  const double t0 = now_s();
  auto finish = [&] {
    ct.wall = now_s() - t0;
    HostProfile::Totals totals{};
    if (pc.profile) {
      totals = HostProfile::fold();
      ct.prof = layers(totals);
      std::printf("  profile %-19s wall %.4f engine %.4f rates %.4f s\n",
                  name.c_str(), ct.wall, ct.prof.engine(), ct.prof.rates);
    }
    pc.run.spans.close(sid, pc.profile ? &totals : nullptr);
    pc.rec.wall += ct.wall;
    pc.rec.calls.push_back(ct);
  };
  try {
    f();
  } catch (...) {
    finish();
    throw;
  }
  finish();
}

struct AppOut {
  double years_per_day = 0.0, phase_a = 0.0, phase_b = 0.0;
};

AppOut call_app(const Setup& s, const AppPoint& p) {
  if (p.app == "cam") {
    const auto r = apps::run_cam(s.machine, machine::ExecMode::kVN, p.tasks,
                                 s.cam);
    return {r.simulated_years_per_day(), r.dynamics_seconds_per_day,
            r.physics_seconds_per_day};
  }
  const auto r =
      apps::run_pop(s.machine, machine::ExecMode::kVN, p.tasks, s.pop);
  return {r.simulated_years_per_day(), r.baroclinic_seconds_per_day,
          r.barotropic_seconds_per_day};
}

std::string fmt17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Run one app point and check it; a throw or a mismatch is one failure.
void app_point(PassCtx& pc, const Setup& s, const AppPoint& p) {
  Run& run = pc.run;
  ++run.attempted;
  const obsv::Session* session = obsv::Session::active();
  const std::size_t nsum = session ? session->summaries().size() : 0;
  const RouteCounters route0 = route_counters();
  const auto git = s.golden.find(p.key());
  if (git != s.golden.end()) pc.rec.msgs += git->second.messages;
  AppOut out;
  try {
    timed_call(pc, p.key(), true, [&] { out = call_app(s, p); });
  } catch (const std::exception& e) {
    run.fail(p.key() + ": threw: " + e.what());
    return;
  }
  if (git == s.golden.end()) {
    run.fail(p.key() + ": no golden value");
    return;
  }
  const Golden& g = git->second;
  std::string bad;
  if (out.years_per_day != g.years_per_day)
    bad += " years/day " + fmt17(out.years_per_day);
  if (out.phase_a != g.phase_a) bad += " phase_a " + fmt17(out.phase_a);
  if (out.phase_b != g.phase_b) bad += " phase_b " + fmt17(out.phase_b);
  if (session != nullptr) {
    Counts pt;
    for (std::size_t i = nsum; i < session->summaries().size(); ++i) {
      const obsv::WorldSummary& w = session->summaries()[i];
      pt.msgs += static_cast<double>(w.messages);
      pt.bytes += w.bytes_sent;
      pt.events += static_cast<double>(w.engine_events);
      pt.peak_flows =
          std::max(pt.peak_flows, static_cast<double>(w.peak_flows));
    }
    add_route_counters(pt, route0);
    print_counts(p.key(), pt);
    Counts& c = pc.rec.counts;
    c.known = true;
    c.msgs += pt.msgs;
    c.bytes += pt.bytes;
    c.events += pt.events;
    c.peak_flows = std::max(c.peak_flows, pt.peak_flows);
    c.route_hits += pt.route_hits;
    c.route_misses += pt.route_misses;
    c.route_evictions += pt.route_evictions;
    if (pt.msgs != g.messages) bad += " messages " + fmt17(pt.msgs);
  }
  if (!bad.empty()) {
    run.fail(p.key() + ": differs from golden:" + bad);
    return;
  }
  run.check_identical(p.key(), {out.years_per_day, out.phase_a, out.phase_b});
}

xts::Task<void> alltoall_rank(vmpi::Comm& c,
                              const std::vector<std::vector<double>>& payload) {
  co_await c.alltoallv_bytes(payload[static_cast<std::size_t>(c.rank())]);
}

/// One alltoallv over the set-up World, then its teardown; checked by
/// conservation, so every seed is checkable without goldens.
void alltoall_point(PassCtx& pc, Setup& s) {
  Run& run = pc.run;
  ++run.attempted;
  const double n = kAlltoallRanks;
  pc.rec.msgs += n * (n - 1.0);
  const RouteCounters route0 = route_counters();
  vmpi::World& w = *s.world;
  SimTime end = 0.0;
  try {
    timed_call(pc, "vmpi.world.run", true, [&] {
      end = w.run([&s](vmpi::Comm& c) { return alltoall_rank(c, s.payload); });
    });
  } catch (const std::exception& e) {
    s.world.reset();
    run.fail(std::string("alltoall: threw: ") + e.what());
    return;
  }
  // Bytes the network must have carried: every inter-node message, at
  // least one 8-byte packet each (World::transport); intra-node
  // messages are memory copies.
  double internode = 0.0;
  for (int i = 0; i < kAlltoallRanks; ++i)
    for (int j = 0; j < kAlltoallRanks; ++j)
      if (w.node_of(i) != w.node_of(j))
        internode += std::max(
            8.0, s.payload[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(j)]);
  Counts& c = pc.rec.counts;
  const net::FlowNetwork& net = w.network();
  c.known = true;
  c.msgs = static_cast<double>(w.messages_delivered());
  c.bytes = w.bytes_sent();
  c.events = static_cast<double>(w.engine().events_processed());
  c.peak_flows = static_cast<double>(net.peak_flows());
  c.rate_passes = static_cast<double>(net.recompute_passes());
  c.rate_updates = static_cast<double>(net.rate_updates());
  const double delivered = net.total_delivered();
  timed_call(pc, "vmpi.world.teardown", true, [&] { s.world.reset(); });
  add_route_counters(c, route0);  // the World reports them at teardown
  print_counts("alltoall", c);
  std::string bad;
  if (c.msgs != n * (n - 1.0)) bad += " messages " + fmt17(c.msgs);
  if (c.bytes != s.payload_total) bad += " bytes_sent " + fmt17(c.bytes);
  if (std::fabs(delivered - internode) > 1e-9 * internode)
    bad += " network delivered " + fmt17(delivered) + " of " +
           fmt17(internode);
  if (!(end > 0.0)) bad += " end time " + fmt17(end);
  if (!bad.empty()) {
    run.fail("alltoall: conservation violated:" + bad);
    return;
  }
  run.check_identical("alltoall", {end, c.msgs, c.bytes});
}

PassRecord run_pass(Run& run, Setup& s, const PassKind& kind, int pass_id) {
  PassRecord rec;
  rec.kind = kind.name;
  PassCtx pc{run, rec, run.spans.open("pass", kind.name, 0, pass_id), pass_id,
             kind.profile};
  HostProfile::enable(kind.profile);
  if (kind.obsv) {
    obsv::Options o;
    o.profiling = true;
    o.metrics = true;
    timed_call(pc, "obsv.session.start", false,
               [&] { obsv::Session::start(o); });
    for (const AppPoint& p : s.points) app_point(pc, s, p);
    std::size_t rendered = 0;
    timed_call(pc, "obsv.export", false, [&] {
      std::ostringstream os;
      obsv::write_profile(os, *obsv::Session::active());
      rendered = os.str().size();
    });
    rec.export_s = rec.calls.back().wall;
    timed_call(pc, "obsv.session.stop", false,
               [] { obsv::Session::stop(); });
    if (rendered == 0) run.fail("cam-obsv: empty profile JSON");
  } else {
    if (kind.count) {
      obsv::Options o;
      o.metrics = true;
      obsv::Session::start(o);
      // Only a World built while the Session is active reports to it.
      if (s.world != nullptr) s.world = build_world(s.machine);
    }
    if (s.world != nullptr) alltoall_point(pc, s);
    for (const AppPoint& p : s.points) app_point(pc, s, p);
    if (kind.count) obsv::Session::stop();
  }
  HostProfile::enable(false);
  run.spans.close(pc.span);
  return rec;
}

// ---- statistics and output -------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) o += ch;
  }
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  return "unknown";
}

/// The host and commit every result is compared under: numbers are
/// only comparable with numbers carrying the same stamp.
std::string host_stamp(const Args& a) {
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": \"" << json_escape(cpu_model()) << "\""
#if defined(__clang__)
     << ", \"compiler\": \"clang " << __clang_version__ << "\""
#elif defined(__GNUC__)
     << ", \"compiler\": \"GCC " << __VERSION__ << "\""
#endif
     << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
     << ", \"commit\": \"" << json_escape(a.commit) << "\""
     << ", \"source_sha256\": \"" << json_escape(a.source) << "\""
     << ", \"world_threads\": 1, \"world_lanes\": \"off\"}";
  return os.str();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Run& run, bool correct,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::cout << "metric " << m.name << " = " << fmt17(m.value) << " "
              << m.unit << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << run.attempted
            << ", \"failed\": " << run.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << fmt17(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  std::cout << "}}" << std::endl;
}

int run_benchmark(const Args& a) {
  const std::string stamp = host_stamp(a);
  std::cout << "perfbench: workload=" << a.workload << " seed=" << a.seed
            << " seconds=" << a.seconds << " trace=" << a.trace << "\n"
            << "host: " << stamp << "\n";
  Run run(a.trace);

  // Host-speed scaling: the calibration kernel runs before every pass
  // and once after the last, so calib_s[i] and calib_s[i + 1] bracket
  // pass i.  A warm-up run first takes the allocator's page faults.
  std::vector<double> calib_s;
  double calib_sum = perfbench::calibration_kernel();
  bool calib_same = true;
  const auto calibrate = [&] {
    const int sid = run.spans.open("calibrate", "calibrate", 0, 0);
    const double t0 = now_s();
    const double sum = perfbench::calibration_kernel();
    calib_s.push_back(now_s() - t0);
    run.spans.close(sid);
    calib_same = calib_same && sum == calib_sum;
  };

  // setup_pass[j] is the index of the pass setup_samples[j] preceded.
  std::vector<double> setup_samples, build_samples;
  std::vector<std::size_t> setup_pass;
  std::unique_ptr<Setup> setup;
  const auto setup_burst = [&](int pass_id) {
    double spent = 0.0;
    for (int i = 0; i < kSetupMaxReps &&
                    (i < kSetupMinReps || spent < kSetupMinSeconds);
         ++i) {
      setup.reset();  // a previous World's teardown is not set-up work
      const int sid = run.spans.open("setup", "setup", 0, pass_id);
      const double t0 = now_s();
      setup = make_setup(a);
      setup_samples.push_back(now_s() - t0);
      setup_pass.push_back(static_cast<std::size_t>(pass_id - 1));
      spent += setup_samples.back();
      if (setup->world != nullptr)
        build_samples.push_back(setup->world_build_s);
      run.spans.close(sid);
    }
  };

  // Plain runs repeat the plain pass.  Traced runs alternate plain and
  // HostProfile passes (cam-obsv adds a plain cam pass for
  // obsv.overhead) and read the counters in one metrics pass first
  // (cam-obsv has its Session on every pass).
  const bool is_obsv = a.workload == "cam-obsv";
  std::vector<PassKind> round = {{"plain", is_obsv, false, false}};
  if (a.trace) {
    if (is_obsv) round.push_back({"plain-cam", false, false, false});
    round.push_back({"profiled", is_obsv, false, true});
  }
  std::vector<PassRecord> passes;
  const auto pass = [&](const PassKind& k) {
    const int id = static_cast<int>(passes.size()) + 1;
    calibrate();
    setup_burst(id);
    passes.push_back(run_pass(run, *setup, k, id));
    std::printf("pass %d %-9s %.4f s\n", id, k.name, passes.back().wall);
  };
  const double deadline = now_s() + a.seconds;
  if (a.trace && !is_obsv) pass({"count", false, true, false});
  do {
    for (const PassKind& k : round) pass(k);
  } while (now_s() < deadline);
  calibrate();

  const auto walls = [&](const char* kind) {
    std::vector<double> v;
    for (const PassRecord& p : passes)
      if (p.kind == kind) v.push_back(p.wall);
    return v;
  };
  const double plain_s = median(walls("plain"));
  bool correct = run.failed == 0;
  if (!calib_same) {
    correct = false;
    run.problems.push_back("calibration kernel checksum changed");
  }
  std::vector<Metric> metrics;
  if (!a.trace) {
    // Host time of pass i, scaled to the reference host speed.
    const auto speed = [&](std::size_t i) {
      return perfbench::kCalibReferenceSeconds /
             (0.5 * (calib_s[i] + calib_s[i + 1]));
    };
    // Medians over passes: one slow pass moves a total, not a median.
    std::vector<double> scaled, rates, scaled_setup;
    for (std::size_t i = 0; i < passes.size(); ++i) {
      scaled.push_back(passes[i].wall * speed(i));
      rates.push_back(passes[i].msgs / scaled.back());
    }
    for (std::size_t j = 0; j < setup_samples.size(); ++j)
      scaled_setup.push_back(setup_samples[j] * speed(setup_pass[j]));
    std::printf("unscaled: pass_s %.6g s setup_s %.6g s; calibration "
                "median %.6g s, reference %.6g s\n",
                plain_s, median(setup_samples), median(calib_s),
                perfbench::kCalibReferenceSeconds);
    metrics = {{"sim_msgs_per_s", median(rates), "1/s"},
               {"pass_s", median(scaled), "s"},
               {"setup_s", median(scaled_setup), "s"},
               {"peak_rss_mb", peak_rss_mb(), "MB"}};
  } else {
    // Counts are deterministic: any pass that observed them will do.
    Counts c;
    for (const PassRecord& p : passes)
      if (p.counts.known) {
        c = p.counts;
        break;
      }
    if (!c.known) {
      correct = false;
      run.problems.push_back("no pass observed the layer counters");
    }
    std::vector<double> engine, rates, share, other, exp_s, prof_walls;
    double worst_tile = std::numeric_limits<double>::lowest();
    double parallel = 0.0;
    for (const PassRecord& p : passes) {
      if (p.kind != "profiled") continue;
      double e = 0.0, r = 0.0, o = 0.0;
      for (const CallTime& ct : p.calls) {
        worst_tile =
            std::max(worst_tile, (ct.prof.total - ct.wall) / ct.wall);
        parallel += ct.prof.parallel;
        e += ct.prof.engine();
        r += ct.prof.rates;
        if (ct.app) o += ct.wall - ct.prof.total;
      }
      engine.push_back(e);
      rates.push_back(r);
      share.push_back(r / p.wall);
      other.push_back(o);
      exp_s.push_back(p.export_s);
      prof_walls.push_back(p.wall);
    }
    std::printf("tiling: worst (subsystems - wall) / wall = %.3g\n"
                "not measured: machine (its time is inside core.engine_s); "
                "runner, cache, lustre (not exercised)\n",
                worst_tile);
    if (worst_tile > kTileTolerance) {
      correct = false;
      run.problems.push_back("HostProfile subsystems exceed a timed call");
    }
    if (parallel > 0.0) {
      correct = false;
      run.problems.push_back("pool or lane host time in a one-thread run");
    }
    const double engine_s = median(engine);
    const double safe_events = c.events > 0.0 ? c.events : 1.0;
    const double safe_msgs = c.msgs > 0.0 ? c.msgs : 1.0;
    const double lookups = c.route_hits + c.route_misses;
    metrics = {
        {"core.events", c.events, "count"},
        {"core.events_per_msg", c.events / safe_msgs, "count"},
        {"core.engine_s", engine_s, "s"},
        {"core.engine_ns_per_event", engine_s / safe_events * 1e9, "ns"},
        {"net.rates_s", median(rates), "s"},
        {"net.rates_share", median(share), "ratio"},
        {"net.rate_passes", c.rate_passes, "count"},
        {"net.rate_updates", c.rate_updates, "count"},
        {"net.route_hits", c.route_hits, "count"},
        {"net.route_misses", c.route_misses, "count"},
        {"net.route_evictions", c.route_evictions, "count"},
        {"net.route_hit_ratio", lookups > 0.0 ? c.route_hits / lookups : 0.0,
         "ratio"},
        {"net.peak_flows", c.peak_flows, "count"},
        {"vmpi.msgs", c.msgs, "count"},
        {"vmpi.bytes", c.bytes, "B"},
        {"vmpi.host_us_per_msg", plain_s / safe_msgs * 1e6, "us"},
        {"vmpi.world_build_s", median(build_samples), "s"},
        {"apps.other_s", median(other), "s"},
        {"obsv.overhead",
         is_obsv ? plain_s / median(walls("plain-cam")) : 0.0, "ratio"},
        {"obsv.export_s", median(exp_s), "s"},
        {"trace.overhead", median(prof_walls) / plain_s, "ratio"},
    };
  }
  for (const std::string& p : run.problems) std::cout << "FAIL " << p << "\n";
  std::printf("fail_frac = %d / %d\n", run.failed, run.attempted);
  if (a.trace && !a.spans.empty()) run.spans.write(a.spans, stamp);
  print_result(run, correct, metrics);
  return 0;
}

// ---- golden recording and self-test --------------------------------------

/// Print the golden file for the app workloads (run at the commit the
/// goldens are meant to pin; see README.md).
int print_golden() {
  std::printf("# perfbench golden simulated outputs, printed %%.17g:\n"
              "# app tasks years_per_day phase_a_s_per_day "
              "phase_b_s_per_day messages\n");
  for (const char* w : {"cam", "pop"}) {
    const std::unique_ptr<Setup> s = base_setup(w);
    for (const AppPoint& p : s->points) {
      obsv::Options o;
      o.metrics = true;
      obsv::Session& session = obsv::Session::start(o);
      const AppOut out = call_app(*s, p);
      double msgs = 0.0;
      for (const obsv::WorldSummary& ws : session.summaries())
        msgs += static_cast<double>(ws.messages);
      obsv::Session::stop();
      std::printf("%s %d %.17g %.17g %.17g %.17g\n", p.app.c_str(), p.tasks,
                  out.years_per_day, out.phase_a, out.phase_b, msgs);
    }
  }
  return 0;
}

/// Shows that the correctness gate counts a perturbed golden value and a
/// throwing point as failures, through the same code the benchmark uses.
int selftest(const Args& base) {
  Args a = base;
  a.workload = "cam";
  std::unique_ptr<Setup> s = make_setup(a);
  const AppPoint good{"cam", 120};
  const AppPoint throwing{"cam", apps::cam_max_tasks_2d(s->cam) + 1};
  s->golden[throwing.key()] = s->golden.at(good.key());
  Run run(false);
  PassRecord rec;
  PassCtx pc{run, rec, 0, 0, false};
  const auto step = [&](const AppPoint& p, int expect_failed) {
    app_point(pc, *s, p);
    const bool ok = run.failed == expect_failed;
    std::printf("selftest: %-9s attempted=%d failed=%d %s\n",
                p.key().c_str(), run.attempted, run.failed,
                ok ? "ok" : "WRONG");
    return ok;
  };
  bool ok = step(good, 0);
  Golden& g = s->golden.at(good.key());
  g.years_per_day = std::nextafter(g.years_per_day, 1e300);
  ok = step(good, 1) && ok;  // perturbed by one ulp
  ok = step(throwing, 2) && ok;
  for (const std::string& p : run.problems)
    std::printf("  counted: %s\n", p.c_str());
  std::printf("selftest: fail_frac = %d / %d -> %s\n", run.failed,
              run.attempted, ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.print_golden) return print_golden();
    if (a.selftest) return selftest(a);
    return run_benchmark(a);
  } catch (const std::invalid_argument& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
