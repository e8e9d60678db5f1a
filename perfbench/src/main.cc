// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out PATH]
//
// --trace 0 builds the world from the plain library classes, sets it up
// several times (median -> setup_s), runs an untimed warm-up, then times
// fixed simulated-time chunks for S host seconds (at least kMinChunks, so
// p99 has ten samples beyond it) and prints the end-to-end metrics, the
// chunk percentiles with their sample count, and the share error. The
// end-to-end times are CPU times rescaled by a host-speed reference run
// between them (host_ref.h), so runs on a host whose speed drifts compare.
//
// --trace 1 runs the same seed twice. First plain, for S/2 host seconds:
// the chunk percentiles, and the reference wall time of the first
// checkpoint_chunks. Then with timing subclasses and timed bodies, which
// record a span around every call into a layer, over those same chunks.
// It prints the per-layer metrics: self time per layer, call counts,
// deterministic registry counts, and the tracing overhead between the two.
//
// Both modes check the simulated output (work conservation, SMP integrity,
// RPC and mutex accounting, Monte-Carlo estimates, share error against a
// binomial envelope, same-seed digest), print each failure, and exit 1 if
// any check failed. The last stdout line is one JSON object.

#include <malloc.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/host_ref.h"
#include "perfbench/src/span_trace.h"
#include "perfbench/src/worlds.h"

namespace perfbench {
namespace {

// p99 needs ten samples beyond it.
constexpr int kMinChunks = 1000;
// Set-ups repeat for at least this long (and at least Shape::setup_reps
// times), so that their median spans several of the host's speed states
// rather than one instant.
constexpr int64_t kSetupNs = 3'000'000'000;

struct Args {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans-out PATH]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage("missing value for " + key);
    }
    try {
      if (key == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = static_cast<uint32_t>(std::stoul(value));
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (key == "--spans-out") {
        a.spans_out = value;
      } else {
        Usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + key + ": " + value);
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    Usage("unknown workload " + a.workload);
  }
  if (!(a.seconds > 0.0)) {
    Usage("--seconds must be positive");
  }
  return a;
}

// High-water resident set of this process image, from /proc/self/status.
// (getrusage's ru_maxrss would also count the pre-exec image of the
// launching process, which Linux carries across execve.)
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

uint64_t Counter(World& w, const char* name) {
  const lottery::obs::Counter* c = w.registry().FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Deterministic state at the checkpoint: the digest plus the registry
// counts and simulated-time histograms the per-layer table reports.
struct Snapshot {
  uint64_t digest = 0;
  ShareResult share;
  std::map<std::string, uint64_t> counters;
  double rpc_p50_us = 0.0;
  double rpc_p99_us = 0.0;
  double mutex_p99_us = 0.0;
  size_t event_capacity = 0;
};

class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xFFu)) * 0x100000001B3ull;
    }
  }
  void Add(const std::string& s) {
    for (const char ch : s) {
      h_ = (h_ ^ static_cast<unsigned char>(ch)) * 0x100000001B3ull;
    }
    Add(s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

double HistPercentile(World& w, const char* name, double q) {
  const lottery::obs::LatencyHistogram* h = w.registry().FindHistogram(name);
  return h == nullptr || h->count() == 0 ? 0.0 : h->Percentile(q);
}

Snapshot Snap(World& w) {
  Snapshot s;
  lottery::Kernel& k = w.kernel();
  Fnv fnv;
  fnv.Add(static_cast<uint64_t>(k.now().nanos()));
  for (const ThreadId tid : w.tids()) {
    fnv.Add(tid);
    fnv.Add(static_cast<uint64_t>(k.CpuTime(tid).nanos()));
    fnv.Add(k.Dispatches(tid));
  }
  for (const auto& [name, value] : w.registry().CounterValues()) {
    fnv.Add(name);
    fnv.Add(value);
    s.counters[name] = value;
  }
  s.digest = fnv.value();
  s.share = w.Share();
  s.rpc_p50_us = HistPercentile(w, "rpc.latency_us", 0.50);
  s.rpc_p99_us = HistPercentile(w, "rpc.latency_us", 0.99);
  s.mutex_p99_us = HistPercentile(w, "mutex.wait_us", 0.99);
  s.event_capacity = k.events().capacity();
  return s;
}

// Work conservation plus the workload's own checks.
void CheckWorld(World& w, Checks& checks) {
  lottery::Kernel& k = w.kernel();
  int64_t thread_cpu = 0;
  for (const ThreadId tid : w.tids()) {
    thread_cpu += k.CpuTime(tid).nanos();
  }
  int64_t busy = 0;
  for (int c = 0; c < k.num_cpus(); ++c) {
    busy += k.CpuBusy(c).nanos();
  }
  checks.Expect(thread_cpu == busy,
                "work conservation: thread CPU " + std::to_string(thread_cpu) +
                    " ns != CPU busy " + std::to_string(busy) + " ns");
  // Each CPU's dispatch frontier sits in [now, now + quantum): the clock
  // stops at the earliest one, and a slice in flight is already charged.
  const int64_t capacity = k.num_cpus() * k.now().nanos();
  const int64_t accounted = busy + k.idle_time().nanos();
  const int64_t ahead = accounted - capacity;
  checks.Expect(ahead >= 0 && ahead < k.num_cpus() *
                                          k.options().quantum.nanos(),
                "work conservation: busy + idle - cpus x elapsed = " +
                    std::to_string(ahead) + " ns");
  w.Check(checks);
}

void CheckShare(const Snapshot& s, Checks& checks) {
  checks.Expect(s.share.err_pct <= s.share.envelope_pct,
                "share_err_pct " + std::to_string(s.share.err_pct) +
                    " outside binomial envelope " +
                    std::to_string(s.share.envelope_pct));
}

uint64_t Attempted(World& w) {
  return Counter(w, "kernel.dispatches") + Counter(w, "rpc.calls") +
         Counter(w, "mutex.acquisitions");
}

std::string Hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Shortest round-trip decimal form, so no digit is lost.
std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const std::vector<Metric>& metrics,
                 const Checks& checks, uint64_t attempted) {
  for (const std::string& f : checks.failures) {
    std::cout << "CHECK FAILED: " << f << "\n";
  }
  const double failed_frac = Ratio(checks.failed(), attempted);
  std::cout << "failed_frac " << Num(failed_frac) << " fraction ("
            << checks.failed() << " failed checks of " << attempted
            << " operations: dispatches + rpc calls + mutex acquisitions)\n";
  std::cout << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted
            << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << Num(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " " << Num(m.value) << " " << m.unit
              << "\n";
  }
}

// Runs `chunks` chunks and returns their summed wall time (ns), appending
// each chunk's wall time in milliseconds to `chunk_ms` when given.
int64_t RunChunks(World& w, const Shape& shape, int chunks,
                  std::vector<double>* chunk_ms) {
  int64_t total = 0;
  for (int k = 0; k < chunks; ++k) {
    const int64_t t0 = SpanTrace::NowNs();
    w.Run(shape.chunk);
    const int64_t dt = SpanTrace::NowNs() - t0;
    total += dt;
    if (chunk_ms != nullptr) {
      chunk_ms->push_back(static_cast<double>(dt) / 1e6);
    }
  }
  return total;
}

// An untraced timed window: warm-up, then chunks until `budget_s` of wall
// time and at least kMinChunks (and the checkpoint) have passed. A HostRef
// unit runs after every kChunksPerRef chunks.
constexpr size_t kChunksPerRef = 4;

struct Window {
  std::vector<double> chunk_ms;        // wall time per chunk
  std::vector<int64_t> chunk_cpu_ns;   // thread CPU time per chunk
  std::vector<int64_t> ref_ns;         // CPU time per HostRef unit
  int64_t wall_ns = 0;                 // summed chunk wall time
  int64_t checkpoint_wall_ns = 0;      // wall of the first checkpoint_chunks
  Snapshot snap;                       // taken at the checkpoint

  size_t chunks() const { return chunk_ms.size(); }
  double sim_s_per_wall_s(const Shape& shape) const {
    return static_cast<double>(chunks()) * shape.chunk.ToSecondsF() /
           (static_cast<double>(wall_ns) / 1e9);
  }
  // Simulated seconds per CPU second of chunk work, with that CPU time
  // rescaled by the window's mean HostRef unit against HostRef::kNominalNs.
  double sim_s_per_ref_s(const Shape& shape) const {
    int64_t cpu = 0;
    for (const int64_t ns : chunk_cpu_ns) {
      cpu += ns;
    }
    int64_t ref = 0;
    for (const int64_t ns : ref_ns) {
      ref += ns;
    }
    const double ref_scale = static_cast<double>(ref) /
                             static_cast<double>(ref_ns.size()) /
                             HostRef::kNominalNs;
    return static_cast<double>(chunks()) * shape.chunk.ToSecondsF() /
           (static_cast<double>(cpu) / 1e9) * ref_scale;
  }
  double ref_unit_us() const {
    return Median(std::vector<double>(ref_ns.begin(), ref_ns.end())) / 1e3;
  }
  size_t beyond_p99() const {
    return chunks() - static_cast<size_t>(
                          std::ceil(0.99 * static_cast<double>(chunks())));
  }
};

Window RunTimed(World& w, const Shape& shape, HostRef& host, double budget_s) {
  w.Run(shape.warmup);
  w.MarkWindow();
  host.Run();  // untimed, so its table is resident like every later unit's
  Window win;
  const auto min_chunks =
      static_cast<size_t>(std::max(kMinChunks, shape.checkpoint_chunks));
  const auto checkpoint = static_cast<size_t>(shape.checkpoint_chunks);
  const auto budget_ns = static_cast<int64_t>(budget_s * 1e9);
  const int64_t start = SpanTrace::NowNs();
  for (size_t k = 1;; ++k) {
    const int64_t t0 = SpanTrace::NowNs();
    const int64_t c0 = ThreadCpuNs();
    w.Run(shape.chunk);
    const int64_t c1 = ThreadCpuNs();
    const int64_t dt = SpanTrace::NowNs() - t0;
    win.wall_ns += dt;
    win.chunk_ms.push_back(static_cast<double>(dt) / 1e6);
    win.chunk_cpu_ns.push_back(c1 - c0);
    if (k == checkpoint) {
      win.checkpoint_wall_ns = win.wall_ns;
      win.snap = Snap(w);
    }
    if (k % kChunksPerRef == 0) {
      win.ref_ns.push_back(host.Run());
      if (k >= min_chunks && SpanTrace::NowNs() - start >= budget_ns) {
        return win;
      }
    }
  }
}

void PrintChunks(const Window& win, const Shape& shape) {
  std::cout << "  chunk_wall_ms_p50 " << Num(Percentile(win.chunk_ms, 0.50))
            << " ms, chunk_wall_ms_p99 "
            << Num(Percentile(win.chunk_ms, 0.99)) << " ms over "
            << win.chunk_ms.size() << " chunks of "
            << shape.chunk.ToMillisF() << " ms simulated ("
            << win.beyond_p99() << " beyond p99; warm-up "
            << shape.warmup.ToMillisF() << " ms simulated, untimed)\n";
}

void PrintShare(const Snapshot& snap) {
  std::cout << "  share_err_pct " << Num(snap.share.err_pct)
            << " % (envelope " << Num(snap.share.envelope_pct) << " %, over "
            << snap.share.units << " service units to the checkpoint)\n";
}

int RunUntraced(const Args& a) {
  const Shape shape = ShapeOf(a.workload);
  Checks checks;

  // Set-up repeats. The first world doubles as the same-seed replica: it
  // runs to the checkpoint and its digest must match the measured world's.
  // Each set-up's CPU time is rescaled by a HostRef unit run right after
  // it, like the chunks' (see host_ref.h).
  HostRef host;
  host.Run();  // untimed, so its table is resident like every later unit's
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  std::unique_ptr<World> world;
  uint64_t replica_digest = 0;
  const int64_t setup_start = SpanTrace::NowNs();
  for (int r = 0; r < shape.setup_reps ||
                  SpanTrace::NowNs() - setup_start < kSetupNs;
       ++r) {
    world.reset();
    const int64_t t0 = SpanTrace::NowNs();
    const int64_t c0 = ThreadCpuNs();
    world = MakeWorld(a.workload, a.seed, nullptr);
    const int64_t cpu = ThreadCpuNs() - c0;
    setup_wall_s.push_back(static_cast<double>(SpanTrace::NowNs() - t0) /
                           1e9);
    const auto ref = static_cast<double>(host.Run());
    setup_s.push_back(static_cast<double>(cpu) / 1e9 *
                      (HostRef::kNominalNs / ref));
    if (r == 0) {
      world->Run(shape.warmup);
      world->MarkWindow();
      RunChunks(*world, shape, shape.checkpoint_chunks, nullptr);
      replica_digest = Snap(*world).digest;
    }
  }

  const Window win = RunTimed(*world, shape, host, a.seconds);
  CheckWorld(*world, checks);
  CheckShare(win.snap, checks);
  checks.Expect(win.snap.digest == replica_digest,
                "determinism: digest " + Hex(win.snap.digest) +
                    " != same-seed replica " + Hex(replica_digest));

  const std::vector<Metric> metrics = {
      {"sim_s_per_ref_s", win.sim_s_per_ref_s(shape), "s/s"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  std::cout << "perfbench " << a.workload << " seed " << a.seed
            << " trace 0: " << Num(static_cast<double>(win.wall_ns) / 1e9)
            << " s of chunks timed; setup_s is the median of "
            << setup_s.size() << " set-ups (min "
            << Num(*std::min_element(setup_s.begin(), setup_s.end()))
            << " s, max "
            << Num(*std::max_element(setup_s.begin(), setup_s.end()))
            << " s; median wall " << Num(Median(setup_wall_s)) << " s)\n";
  std::cout << "  unscaled: sim_s_per_wall_s "
            << Num(win.sim_s_per_wall_s(shape)) << " s/s, HostRef unit "
            << Num(win.ref_unit_us()) << " us (nominal "
            << Num(HostRef::kNominalNs / 1e3) << " us) over "
            << win.ref_ns.size() << " units\n";
  PrintMetrics(metrics);
  PrintChunks(win, shape);
  PrintShare(win.snap);
  std::cout << "  digest " << Hex(win.snap.digest) << " at checkpoint chunk "
            << shape.checkpoint_chunks << " (replica "
            << Hex(replica_digest) << ")\n";
  PrintResult(metrics, checks, Attempted(*world));
  return checks.failed() == 0 ? 0 : 1;
}

// --- Traced run ------------------------------------------------------------

struct Agg {
  uint64_t calls = 0;
  int64_t self_ns = 0;
};

bool IsSched(Span s) {
  switch (s) {
    case Span::kSchedPick:
    case Span::kSchedReady:
    case Span::kSchedBlock:
    case Span::kSchedQuantumEnd:
    case Span::kSchedAdd:
    case Span::kSchedRemove:
    case Span::kSchedTick:
      return true;
    default:
      return false;
  }
}

void WriteSpans(const std::string& path, const SpanTrace& trace) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::cerr << "perfbench: cannot write " << path << "\n";
    return;
  }
  const auto& spans = trace.spans();
  const size_t wrote =
      std::fwrite(spans.data(), sizeof(SpanRecord), spans.size(), f);
  if (std::fclose(f) != 0 || wrote != spans.size()) {
    std::cerr << "perfbench: short write to " << path << "\n";
  }
}

int RunTraced(const Args& a) {
  const Shape shape = ShapeOf(a.workload);
  Checks checks;

  // Plain reference, untraced, for half the budget: it gives the chunk
  // percentiles and, over its first checkpoint_chunks, the wall time the
  // traced window is compared against.
  auto plain = MakeWorld(a.workload, a.seed, nullptr);
  HostRef host;
  const Window ref_win = RunTimed(*plain, shape, host, a.seconds / 2);
  const Snapshot& ref = ref_win.snap;
  const int64_t plain_ns = ref_win.checkpoint_wall_ns;
  CheckWorld(*plain, checks);
  plain.reset();

  SpanTrace trace(shape.span_capacity);
  auto world = MakeWorld(a.workload, a.seed, &trace);
  const size_t setup_end = trace.size();
  world->Run(shape.warmup);
  world->MarkWindow();
  const size_t window_begin = trace.size();
  const uint64_t dispatches_begin = Counter(*world, "kernel.dispatches");
  const int64_t traced_ns =
      RunChunks(*world, shape, shape.checkpoint_chunks, nullptr);
  const size_t window_end = trace.size();
  const uint64_t dispatches =
      Counter(*world, "kernel.dispatches") - dispatches_begin;
  const Snapshot snap = Snap(*world);

  CheckWorld(*world, checks);
  CheckShare(snap, checks);
  checks.Expect(snap.digest == ref.digest,
                "determinism: traced digest " + Hex(snap.digest) +
                    " != plain digest " + Hex(ref.digest));
  checks.Expect(!trace.overflowed(),
                "trace: span capacity " + std::to_string(trace.capacity()) +
                    " exceeded");

  // Self time = duration minus the children's durations.
  const auto& spans = trace.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  bool well_formed = true;
  for (const SpanRecord& s : spans) {
    well_formed = well_formed && s.end_ns >= s.start_ns;
    if (s.parent != kNoParent) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  checks.Expect(well_formed, "trace: a span ended before it started");
  std::array<Agg, kNumSpans> setup{};
  std::array<Agg, kNumSpans> window{};
  int64_t window_self_sum = 0;
  int64_t wall = 0;  // traced wall: the window's root (RunUntil) spans
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const int64_t self = s.end_ns - s.start_ns - child_ns[i];
    const auto n = static_cast<size_t>(s.name);
    if (i < setup_end) {
      ++setup[n].calls;
      setup[n].self_ns += self;
    } else if (i >= window_begin && i < window_end) {
      ++window[n].calls;
      window[n].self_ns += self;
      window_self_sum += self;
      if (s.parent == kNoParent) {
        wall += s.end_ns - s.start_ns;
      }
    }
  }
  checks.Expect(window_self_sum == wall && wall > 0,
                "trace: span self times sum to " +
                    std::to_string(window_self_sum) + " ns, traced wall " +
                    std::to_string(wall) + " ns");

  const auto at = [&window](Span s) -> const Agg& {
    return window[static_cast<size_t>(s)];
  };
  const auto per_call = [](const Agg& g) {
    return g.calls == 0 ? 0.0
                        : static_cast<double>(g.self_ns) /
                              static_cast<double>(g.calls);
  };
  const auto pct = [wall](int64_t ns) {
    return wall == 0 ? 0.0
                     : 100.0 * static_cast<double>(ns) /
                           static_cast<double>(wall);
  };
  int64_t sched_self = 0;
  for (size_t n = 0; n < kNumSpans; ++n) {
    if (IsSched(static_cast<Span>(n))) {
      sched_self += window[n].self_ns;
    }
  }
  Agg currency = at(Span::kCurrency);
  currency.calls += setup[static_cast<size_t>(Span::kCurrency)].calls;
  currency.self_ns += setup[static_cast<size_t>(Span::kCurrency)].self_ns;
  const Agg& kernel = at(Span::kKernelRun);
  const auto count = [&ref](const char* name) -> uint64_t {
    const auto it = ref.counters.find(name);
    return it == ref.counters.end() ? 0 : it->second;
  };
  const auto ratio = [&count](const char* num, const char* den) {
    return Ratio(count(num), count(den));
  };

  const std::vector<Metric> metrics = {
      {"sim_s_per_wall_s", ref_win.sim_s_per_wall_s(shape), "s/s"},
      {"host.ref_unit_us", ref_win.ref_unit_us(), "us"},
      {"chunk_wall_ms_p50", Percentile(ref_win.chunk_ms, 0.50), "ms"},
      {"chunk_wall_ms_p99", Percentile(ref_win.chunk_ms, 0.99), "ms"},
      {"sched.pick.ns_per_call", per_call(at(Span::kSchedPick)), "ns"},
      {"sched.pick.calls", static_cast<double>(at(Span::kSchedPick).calls),
       "count"},
      {"sched.ready.ns_per_call", per_call(at(Span::kSchedReady)), "ns"},
      {"sched.ready.calls", static_cast<double>(at(Span::kSchedReady).calls),
       "count"},
      {"sched.block.ns_per_call", per_call(at(Span::kSchedBlock)), "ns"},
      {"sched.block.calls", static_cast<double>(at(Span::kSchedBlock).calls),
       "count"},
      {"sched.quantum_end.ns_per_call", per_call(at(Span::kSchedQuantumEnd)),
       "ns"},
      {"sched.add.ns_per_call",
       per_call(setup[static_cast<size_t>(Span::kSchedAdd)]), "ns"},
      {"sched.self_pct", pct(sched_self), "%"},
      {"workloads.run.ns_per_dispatch", per_call(at(Span::kBody)), "ns"},
      {"workloads.self_pct", pct(at(Span::kBody).self_ns), "%"},
      {"sim.ipc.ns_per_call", per_call(at(Span::kIpc)), "ns"},
      {"sim.ipc.calls", static_cast<double>(at(Span::kIpc).calls), "count"},
      {"sim.ipc.self_pct", pct(at(Span::kIpc).self_ns), "%"},
      {"core.currency.ns_per_call", per_call(currency), "ns"},
      {"core.currency.calls", static_cast<double>(currency.calls), "count"},
      {"core.currency.self_pct", pct(at(Span::kCurrency).self_ns), "%"},
      {"obs.sampler.ns_per_sample", per_call(at(Span::kSampler)), "ns"},
      {"obs.sampler.samples", static_cast<double>(at(Span::kSampler).calls),
       "count"},
      {"obs.sampler.self_pct", pct(at(Span::kSampler).self_ns), "%"},
      {"sim.kernel.ns_per_dispatch",
       dispatches == 0 ? 0.0
                       : static_cast<double>(kernel.self_ns) /
                             static_cast<double>(dispatches),
       "ns"},
      {"sim.kernel.self_pct", pct(kernel.self_ns), "%"},
      {"trace.overhead_pct",
       100.0 * (static_cast<double>(traced_ns) /
                    static_cast<double>(plain_ns) -
                1.0),
       "%"},
      {"kernel.dispatches", static_cast<double>(count("kernel.dispatches")),
       "count"},
      {"kernel.wakes", static_cast<double>(count("kernel.wakes")), "count"},
      {"lottery.draws", static_cast<double>(count("lottery.draws")), "count"},
      {"lottery.batch_hit_ratio",
       ratio("lottery.batch_draws", "lottery.draws"), "ratio"},
      {"tree.leaf_updates", static_cast<double>(count("tree.leaf_updates")),
       "count"},
      {"currency.reprices", static_cast<double>(count("currency.reprices")),
       "count"},
      {"lottery.transfers", static_cast<double>(count("lottery.transfers")),
       "count"},
      {"lottery.compensation_grants",
       static_cast<double>(count("lottery.compensation_grants")), "count"},
      {"smp.steal_ratio", ratio("smp.steals", "smp.balance_checks"), "ratio"},
      {"smp.migrations", static_cast<double>(count("smp.migrations")),
       "count"},
      {"mutex.contended_ratio",
       ratio("mutex.contended", "mutex.acquisitions"), "ratio"},
      {"sim.events.capacity", static_cast<double>(ref.event_capacity),
       "count"},
      {"rpc.latency_us.p50", ref.rpc_p50_us, "us"},
      {"rpc.latency_us.p99", ref.rpc_p99_us, "us"},
      {"mutex.wait_us.p99", ref.mutex_p99_us, "us"},
      {"share_err_pct", ref.share.err_pct, "%"},
  };

  std::cout << "perfbench " << a.workload << " seed " << a.seed
            << " trace 1: " << shape.checkpoint_chunks << " chunks of "
            << shape.chunk.ToMillisF() << " ms simulated, " << dispatches
            << " dispatches, " << (window_end - window_begin)
            << " spans in the window, " << spans.size() << " in all\n";
  std::cout << "  traced wall " << Num(static_cast<double>(wall) / 1e6)
            << " ms; plain wall " << Num(static_cast<double>(plain_ns) / 1e6)
            << " ms; layer self times sum to "
            << Num(pct(window_self_sum)) << " % of the traced wall\n";
  PrintMetrics(metrics);
  PrintChunks(ref_win, shape);
  PrintShare(snap);
  std::cout << "  digest " << Hex(snap.digest) << " (plain " << Hex(ref.digest)
            << ")\n";
  if (!a.spans_out.empty()) {
    WriteSpans(a.spans_out, trace);
  }
  PrintResult(metrics, checks, Attempted(*world));
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  // Keep freed memory in the heap instead of returning it to the kernel
  // (glibc otherwise trims and re-maps by heuristics that change from one
  // set-up to the next), so every set-up after the first measures set-up
  // work rather than a varying number of page faults.
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  try {
    return args.trace ? perfbench::RunTraced(args)
                      : perfbench::RunUntraced(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
