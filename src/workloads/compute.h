// Compute-bound workload bodies.
//
// ComputeTask is the Dhrystone stand-in used throughout Section 5: a task
// whose "iterations" accrue in exact proportion to the CPU it receives, so
// relative iteration rates equal relative CPU shares. UnitWorkTask is the
// shared chassis: a fixed CPU cost per work unit, with partial units carried
// across slices; VideoViewer (video.h) and MonteCarloTask (montecarlo.h)
// reuse it.
//
// YieldingTask consumes a fixed fraction of each quantum then yields — the
// Section 4.5 compensation-ticket scenario (thread B that uses 20 ms of
// each 100 ms quantum). InteractiveTask alternates short bursts with
// sleeps, approximating I/O-bound behaviour.

#ifndef SRC_WORKLOADS_COMPUTE_H_
#define SRC_WORKLOADS_COMPUTE_H_

#include <cstdint>

#include "src/sim/kernel.h"

namespace lottery {

// Performs units of work, each costing `unit_cost` of CPU; one progress
// tick per completed unit. Subclasses may hook unit/slice completion.
//
// A slice's units are computed in closed form, not one at a time: Run
// finishes the carried partial unit, then as many whole units as the budget
// holds, with one Consume for all of them and one for the leftover partial.
// Progress still lands at each unit's own completion time (Tracer windows
// are split arithmetically), so the cost of a slice does not depend on how
// many units it holds.
class UnitWorkTask : public ThreadBody {
 public:
  explicit UnitWorkTask(SimDuration unit_cost);

  void Run(RunContext& ctx) final;

  int64_t units_done() const { return units_done_; }

 protected:
  // Called once per slice that completes `n` >= 1 units, after all n have
  // been consumed, counted in units_done() and reported as progress, and
  // before the leftover partial unit is consumed: ctx.now() is the n-th
  // unit's completion time. Overrides do per-unit work for the n units in
  // completion order (what n calls of a per-unit hook would have done);
  // they must not consume CPU or end the slice.
  virtual void OnUnits(RunContext& /*ctx*/, int64_t /*n*/) {}
  // Called once per slice, just before the body returns.
  virtual void OnSliceEnd(RunContext& /*ctx*/) {}

 private:
  SimDuration unit_cost_;
  SimDuration partial_{};
  int64_t units_done_ = 0;
};

// The Dhrystone stand-in: pure compute, progress == iterations.
class ComputeTask : public UnitWorkTask {
 public:
  struct Options {
    // CPU cost of one iteration. 40 us -> 25k iterations per CPU-second,
    // matching the magnitude the paper reports for its DECStation.
    SimDuration iteration_cost = SimDuration::Micros(40);
  };
  ComputeTask() : ComputeTask(Options{}) {}
  explicit ComputeTask(Options options)
      : UnitWorkTask(options.iteration_cost) {}
};

// Consumes `burst` of each quantum, then yields (Section 4.5's fractional
// quantum consumer). Progress ticks once per completed burst.
class YieldingTask : public ThreadBody {
 public:
  explicit YieldingTask(SimDuration burst) : burst_(burst) {}

  void Run(RunContext& ctx) override;

  int64_t bursts_done() const { return bursts_done_; }

 private:
  SimDuration burst_;
  SimDuration left_{};
  bool in_burst_ = false;
  int64_t bursts_done_ = 0;
};

// Computes for `burst`, then sleeps for `think`: an interactive/I/O-bound
// client. Progress ticks once per burst.
class InteractiveTask : public ThreadBody {
 public:
  InteractiveTask(SimDuration burst, SimDuration think)
      : burst_(burst), think_(think) {}

  void Run(RunContext& ctx) override;

  int64_t interactions() const { return interactions_; }

 private:
  SimDuration burst_;
  SimDuration think_;
  SimDuration left_{};
  bool in_burst_ = false;
  int64_t interactions_ = 0;
};

}  // namespace lottery

#endif  // SRC_WORKLOADS_COMPUTE_H_
