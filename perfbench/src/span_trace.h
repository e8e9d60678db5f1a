// Outside-in span tracing for the benchmark's traced runs.
//
// Every span is opened and closed by benchmark code around a call into one
// layer's public entry points: timing subclasses of the two schedulers, a
// ThreadBody wrapper, a SampleHook wrapper, and explicit call sites in the
// benchmark-owned IPC/currency bodies. No library file is touched, so the
// untraced runs measure exactly the code that ships.
//
// Spans live in one pre-reserved vector (no growth while timing) and are
// summarised when the run ends. A span's self time is its duration minus
// the durations of the spans whose parent it is.

#ifndef PERFBENCH_SRC_SPAN_TRACE_H_
#define PERFBENCH_SRC_SPAN_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sched/scheduler.h"
#include "src/sim/kernel.h"

namespace perfbench {

using lottery::SimDuration;
using lottery::SimTime;
using lottery::ThreadId;

// Span names. Each maps to one layer (see LayerOf in main.cc).
enum class Span : uint16_t {
  kKernelRun,       // Kernel::RunUntil for one chunk (the root of a chunk)
  kSchedPick,       // Scheduler::PickNextOnCpu
  kSchedReady,      // Scheduler::OnReady
  kSchedBlock,      // Scheduler::OnBlocked
  kSchedQuantumEnd, // Scheduler::OnQuantumEnd
  kSchedAdd,        // Scheduler::AddThread
  kSchedRemove,     // Scheduler::RemoveThread
  kSchedTick,       // Scheduler::Tick
  kBody,            // ThreadBody::Run
  kIpc,             // RpcPort::Call/TryReceive/Reply, SimMutex::Acquire/Release
  kCurrency,        // CurrencyTable::SetAmount, FundThread
  kSampler,         // SampleHook::Sample
  kCount,
};

inline constexpr size_t kNumSpans = static_cast<size_t>(Span::kCount);
inline constexpr uint32_t kNoParent = 0xFFFFFFFFu;

struct SpanRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t parent = kNoParent;
  Span name = Span::kCount;
};

class SpanTrace {
 public:
  explicit SpanTrace(size_t capacity) { spans_.reserve(capacity); }

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // Opens a span under the innermost open one. Past the reserved capacity
  // nothing is recorded and overflowed() turns true (the run then fails its
  // trace check instead of reallocating mid-measurement).
  uint32_t Begin(Span name) {
    if (spans_.size() == spans_.capacity()) {
      overflowed_ = true;
      return kNoParent;
    }
    const auto idx = static_cast<uint32_t>(spans_.size());
    spans_.push_back(SpanRecord{NowNs(), 0, open_, name});
    open_ = idx;
    return idx;
  }

  void End(uint32_t idx) {
    if (idx == kNoParent) {
      return;
    }
    SpanRecord& s = spans_[idx];
    s.end_ns = NowNs();
    open_ = s.parent;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }
  size_t capacity() const { return spans_.capacity(); }
  bool overflowed() const { return overflowed_; }

 private:
  std::vector<SpanRecord> spans_;
  uint32_t open_ = kNoParent;
  bool overflowed_ = false;
};

// RAII span; a null trace makes it free apart from one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace* trace, Span name)
      : trace_(trace), idx_(trace != nullptr ? trace->Begin(name) : kNoParent) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) {
      trace_->End(idx_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTrace* trace_;
  uint32_t idx_;
};

// Timing subclass of a Scheduler implementation. Overrides exactly the
// entry points the kernel calls; the kernel always dispatches through
// PickNextOnCpu, which for a single-queue scheduler forwards to the base
// class's PickNext. Deriving (rather than wrapping) keeps
// Kernel::lottery() non-null for LotteryScheduler, so RPC ports and
// mutexes still create their ticket transfers.
template <class Base>
class TimedScheduler final : public Base {
 public:
  template <class... Args>
  explicit TimedScheduler(SpanTrace* trace, Args&&... args)
      : Base(std::forward<Args>(args)...), trace_(trace) {}

  void AddThread(ThreadId id, SimTime now) override {
    ScopedSpan s(trace_, Span::kSchedAdd);
    Base::AddThread(id, now);
  }
  void RemoveThread(ThreadId id, SimTime now) override {
    ScopedSpan s(trace_, Span::kSchedRemove);
    Base::RemoveThread(id, now);
  }
  void OnReady(ThreadId id, SimTime now) override {
    ScopedSpan s(trace_, Span::kSchedReady);
    Base::OnReady(id, now);
  }
  void OnBlocked(ThreadId id, SimTime now) override {
    ScopedSpan s(trace_, Span::kSchedBlock);
    Base::OnBlocked(id, now);
  }
  ThreadId PickNextOnCpu(int cpu, SimTime now) override {
    ScopedSpan s(trace_, Span::kSchedPick);
    return Base::PickNextOnCpu(cpu, now);
  }
  void OnQuantumEnd(ThreadId id, SimDuration used, SimDuration quantum,
                    SimTime now) override {
    ScopedSpan s(trace_, Span::kSchedQuantumEnd);
    Base::OnQuantumEnd(id, used, quantum, now);
  }
  void Tick(SimTime now) override {
    ScopedSpan s(trace_, Span::kSchedTick);
    Base::Tick(now);
  }

 private:
  SpanTrace* trace_;
};

// Times one thread body's slices.
class TimedBody final : public lottery::ThreadBody {
 public:
  TimedBody(std::unique_ptr<lottery::ThreadBody> inner, SpanTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  void Run(lottery::RunContext& ctx) override {
    ScopedSpan s(trace_, Span::kBody);
    inner_->Run(ctx);
  }

 private:
  std::unique_ptr<lottery::ThreadBody> inner_;
  SpanTrace* trace_;
};

// Times the telemetry sampler.
class TimedHook final : public lottery::SampleHook {
 public:
  TimedHook(lottery::SampleHook* inner, SpanTrace* trace)
      : inner_(inner), trace_(trace) {}

  int64_t Sample(SimTime now) override {
    ScopedSpan s(trace_, Span::kSampler);
    return inner_->Sample(now);
  }

 private:
  lottery::SampleHook* inner_;
  SpanTrace* trace_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPAN_TRACE_H_
