// The benchmark's three simulated worlds.
//
// A World is one seeded population on one kernel: scheduler, threads,
// kernel services, telemetry. It is built either from the plain library
// classes (untraced runs, which give every end-to-end number) or, given a
// SpanTrace, from timing subclasses and timed benchmark-owned bodies that
// behave identically (traced runs; the digest check proves they do).

#ifndef PERFBENCH_SRC_WORLDS_H_
#define PERFBENCH_SRC_WORLDS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/span_trace.h"
#include "src/obs/registry.h"
#include "src/sched/scheduler.h"
#include "src/sim/kernel.h"

namespace perfbench {

// Fixed per-workload run geometry.
struct Shape {
  SimDuration chunk;       // simulated time per timed chunk
  SimDuration warmup;      // untimed warm-up, run once after set-up
  int checkpoint_chunks;   // chunks to the deterministic checkpoint
  int setup_reps;          // least set-ups per untraced run (median ->
                           // setup_s); main.cc also sets a least time
  size_t span_capacity;    // spans reserved for a traced run
};

// Output-check bookkeeping: every failed check counts one failure.
struct Checks {
  std::vector<std::string> failures;
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
    }
  }
  uint64_t failed() const { return failures.size(); }
};

// Share of service per funding class against ticket entitlement.
struct ShareResult {
  double err_pct = 0.0;       // mean relative error over classes, percent
  double envelope_pct = 0.0;  // the bound it must stay within
  int64_t units = 0;          // service units behind it (quanta or queries)
};

class World {
 public:
  virtual ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  lottery::Kernel& kernel() { return *kernel_; }
  lottery::obs::Registry& registry() { return reg_; }
  const std::vector<ThreadId>& tids() const { return tids_; }

  // Runs one chunk of `d` simulated time, under a root span when traced.
  void Run(SimDuration d);

  // Starts the share-measurement window (called once, after warm-up).
  virtual void MarkWindow() = 0;
  // Per-class service since MarkWindow against entitlement.
  virtual ShareResult Share() = 0;
  // Workload-specific output checks (the common ones live in main.cc).
  virtual void Check(Checks& checks) = 0;

 protected:
  explicit World(SpanTrace* trace) : trace_(trace) {}
  // Wraps a body for timing when traced.
  std::unique_ptr<lottery::ThreadBody> Timed(
      std::unique_ptr<lottery::ThreadBody> body);
  ThreadId Spawn(const std::string& name,
                 std::unique_ptr<lottery::ThreadBody> body);

  SpanTrace* trace_;
  // Declaration order is destruction order reversed: the kernel goes
  // before the scheduler it drives, both before the registry they write.
  lottery::obs::Registry reg_;
  std::unique_ptr<lottery::Scheduler> sched_;
  std::unique_ptr<lottery::Kernel> kernel_;
  std::vector<ThreadId> tids_;
};

// Names accepted by MakeWorld, in the order the benchmark documents them.
const std::vector<std::string>& WorkloadNames();
Shape ShapeOf(const std::string& workload);
// Builds the world; `trace` null selects the plain library classes.
std::unique_ptr<World> MakeWorld(const std::string& workload, uint32_t seed,
                                 SpanTrace* trace);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORLDS_H_
