#include "src/workloads/compute.h"

#include <stdexcept>

namespace lottery {

UnitWorkTask::UnitWorkTask(SimDuration unit_cost) : unit_cost_(unit_cost) {
  if (unit_cost.nanos() <= 0) {
    throw std::invalid_argument("UnitWorkTask: unit cost must be positive");
  }
}

void UnitWorkTask::Run(RunContext& ctx) {
  const int64_t unit = unit_cost_.nanos();
  const int64_t need = unit - partial_.nanos();  // > 0: partial_ < unit
  const int64_t budget = ctx.remaining().nanos();
  if (budget < need) {
    partial_ += ctx.Consume(ctx.remaining());
  } else {
    // Unit k (k = 0..n-1) completes at now + need + k * unit.
    const int64_t n = 1 + (budget - need) / unit;
    const SimTime first_done = ctx.now() + SimDuration::Nanos(need);
    ctx.Consume(SimDuration::Nanos(need + (n - 1) * unit));
    units_done_ += n;
    ctx.AddProgressRun(first_done, unit_cost_, n);
    OnUnits(ctx, n);
    partial_ = ctx.Consume(ctx.remaining());
  }
  OnSliceEnd(ctx);
}

void YieldingTask::Run(RunContext& ctx) {
  if (!in_burst_) {
    in_burst_ = true;
    left_ = burst_;
  }
  left_ -= ctx.Consume(left_ < ctx.remaining() ? left_ : ctx.remaining());
  if (left_.nanos() > 0) {
    // Quantum ended mid-burst; finish the burst next dispatch (preempted).
    return;
  }
  in_burst_ = false;
  ++bursts_done_;
  ctx.AddProgress(1);
  if (ctx.remaining().nanos() > 0) {
    ctx.Yield();
  }
}

void InteractiveTask::Run(RunContext& ctx) {
  if (!in_burst_) {
    in_burst_ = true;
    left_ = burst_;
  }
  left_ -= ctx.Consume(left_ < ctx.remaining() ? left_ : ctx.remaining());
  if (left_.nanos() > 0) {
    return;  // preempted mid-burst
  }
  in_burst_ = false;
  ++interactions_;
  ctx.AddProgress(1);
  ctx.SleepFor(think_);
}

}  // namespace lottery
