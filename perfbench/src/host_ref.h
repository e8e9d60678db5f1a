// Host-speed reference for the end-to-end throughput metric.
//
// The benchmark shares a host whose speed drifts by up to 2-3x over
// minutes (other tenants load the shared caches, memory and clock), so
// simulated seconds per host second read in one run cannot be compared with
// another run's. HostRef is a fixed unit of benchmark-owned work -- a
// dependent multiply/branch chain, then random read-modify-writes over a
// 1 MiB table -- run between timed chunks. Its CPU time moves with the
// host's speed the way the simulator's does, so chunk time divided by
// reference time measures the program rather than the host. Neither part
// calls library code, so no library change can move it.

#ifndef PERFBENCH_SRC_HOST_REF_H_
#define PERFBENCH_SRC_HOST_REF_H_

#include <time.h>

#include <cstdint>
#include <vector>

namespace perfbench {

// CPU time of the calling thread. The benchmark is one thread that neither
// sleeps nor waits, so on an unshared host this equals its wall time; on a
// shared one it leaves out time the thread was preempted or its virtual CPU
// was descheduled (steal), which measure the host, not the program.
inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

class HostRef {
 public:
  // About the CPU time of one unit on the development host (Intel Xeon,
  // 4 vCPUs, shared), where it measured 0.85-1.25 ms. Dividing by it
  // expresses the rescaled metrics in seconds on a host of that speed.
  static constexpr double kNominalNs = 1.0e6;

  HostRef() : table_(kTableWords) {
    for (uint32_t i = 0; i < kTableWords; ++i) {
      table_[i] = i;
    }
  }

  // Runs one unit, the same work every time; returns its CPU time in ns.
  int64_t Run() {
    const int64_t t0 = ThreadCpuNs();
    uint64_t x = 0x9E3779B97F4A7C15ull;
    uint64_t y = 7;
    for (int i = 0; i < kChainSteps; ++i) {
      x = x * kMul + y;
      y ^= x >> 13;
      if ((x & 0x100) != 0) {
        y += 3;
      }
    }
    for (int i = 0; i < kTableSteps; ++i) {
      x = x * kMul + kInc;
      uint32_t& cell = table_[(x >> 40) & (kTableWords - 1)];
      cell += static_cast<uint32_t>(x);
      y += cell;
    }
    sink_ = x ^ y;
    return ThreadCpuNs() - t0;
  }

 private:
  static constexpr uint64_t kMul = 6364136223846793005ull;
  static constexpr uint64_t kInc = 1442695040888963407ull;
  static constexpr uint32_t kTableWords = 1u << 18;  // 1 MiB of uint32_t
  // About two thirds of a unit's time in the chain, one third in the table.
  static constexpr int kChainSteps = 300000;
  static constexpr int kTableSteps = 120000;

  std::vector<uint32_t> table_;
  volatile uint64_t sink_ = 0;  // keeps the work observable
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_REF_H_
