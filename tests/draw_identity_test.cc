// Pinned winner streams for every run-queue backend: a fixed population,
// driven through full-quantum dispatch cycles, must produce exactly the
// winner sequence recorded when these values were pinned. Four modes cover
// the steady state (no ticket mutations, the case the alias table serves
// in O(1)), periodic reprices, external consumers of the scheduler's RNG,
// and an unfunded population, where every pick is the zero-funding
// fallback (the list takes its front without drawing; tree and alias draw
// an index into the live slots). queue_swap_identity_test covers sleepers
// and churn; this suite covers the churn-free steady state it never
// reaches.
// A changed hash means a change to the draw, the RNG stream or the queue
// order, and every figure bench would move with it.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/lottery_scheduler.h"
#include "src/obs/registry.h"

namespace lottery {
namespace {

const SimTime kT0 = SimTime::Zero();
const SimDuration kQuantum = SimDuration::Millis(100);

// Drives one scheduler through `picks` dispatch cycles and returns the
// winner sequence. `mutate_every` > 0 reprices a thread's funding ticket on
// that cadence; `poke_rng_every` > 0 draws from the scheduler's own RNG
// between picks on that cadence (the kernel services do this for jitter).
// `funded` false leaves every thread without funding, so each pick is the
// zero-funding fallback.
std::vector<ThreadId> RunSchedule(uint32_t seed, RunQueueBackend backend,
                                  int threads, int picks, int mutate_every,
                                  int poke_rng_every, bool funded) {
  obs::Registry registry;
  LotteryScheduler::Options opts;
  opts.seed = seed;
  opts.backend = backend;
  opts.metrics = &registry;
  LotteryScheduler sched(opts);
  std::vector<Ticket*> funding;
  for (int i = 0; i < threads; ++i) {
    const ThreadId id = static_cast<ThreadId>(i + 1);
    sched.AddThread(id, kT0);
    if (funded) {
      funding.push_back(sched.FundThread(id, sched.table().base(),
                                         100 + (i % 13) * 50));
    }
    sched.OnReady(id, kT0);
  }
  std::vector<ThreadId> winners;
  for (int i = 0; i < picks; ++i) {
    if (mutate_every > 0 && i % mutate_every == mutate_every - 1) {
      Ticket* t = funding[static_cast<size_t>(i) % funding.size()];
      sched.table().SetAmount(t, 100 + (i % 29) * 10);
    }
    if (poke_rng_every > 0 && i % poke_rng_every == poke_rng_every - 1) {
      sched.rng().Next();
    }
    const ThreadId winner = sched.PickNext(kT0);
    EXPECT_NE(winner, kInvalidThreadId);
    winners.push_back(winner);
    // Full quantum: no compensation ticket, so without mutations the ticket
    // set holds still from one dispatch to the next.
    sched.OnQuantumEnd(winner, kQuantum, kQuantum, kT0);
    sched.OnReady(winner, kT0);
  }
  return winners;
}

// FNV-1a (64-bit) over each winner id's four little-endian bytes, folded
// across seeds 1..32 in order.
uint64_t StreamHash(RunQueueBackend backend, int mutate_every,
                    int poke_rng_every, bool funded) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (uint32_t seed = 1; seed <= 32; ++seed) {
    for (const ThreadId winner :
         RunSchedule(seed, backend, 12, 400, mutate_every, poke_rng_every,
                     funded)) {
      for (int byte = 0; byte < 4; ++byte) {
        hash ^= (static_cast<uint32_t>(winner) >> (8 * byte)) & 0xffu;
        hash *= 0x100000001b3ull;
      }
    }
  }
  return hash;
}

struct PinnedStream {
  const char* mode;
  RunQueueBackend backend;
  int mutate_every;
  int poke_rng_every;
  bool funded;
  uint64_t hash;
};

constexpr PinnedStream kPinned[] = {
    {"steady", RunQueueBackend::kTree, 0, 0, true, 0x924a49d9ac50e89dull},
    {"steady", RunQueueBackend::kAlias, 0, 0, true, 0x12b4e4b55fe55787ull},
    {"reprice", RunQueueBackend::kTree, 11, 0, true, 0xa743bc85fab68e26ull},
    {"reprice", RunQueueBackend::kAlias, 11, 0, true, 0xbb7fa2c12c033afdull},
    {"rng poke", RunQueueBackend::kTree, 0, 13, true, 0x906082497745674aull},
    {"rng poke", RunQueueBackend::kAlias, 0, 13, true, 0x0815c290ca897987ull},
    {"steady", RunQueueBackend::kList, 0, 0, true, 0x4ce92614e1a3ca75ull},
    {"reprice", RunQueueBackend::kList, 11, 0, true, 0x9f0024e81646ba7cull},
    {"rng poke", RunQueueBackend::kList, 0, 13, true, 0x5455775ed6ded1f5ull},
    {"zero funding", RunQueueBackend::kList, 0, 0, false,
     0x900f1c6cec321325ull},
    {"zero funding", RunQueueBackend::kTree, 0, 0, false,
     0x4113332055835d18ull},
    {"zero funding", RunQueueBackend::kAlias, 0, 0, false,
     0x4113332055835d18ull},
};

const char* BackendName(RunQueueBackend backend) {
  switch (backend) {
    case RunQueueBackend::kList: return "kList";
    case RunQueueBackend::kTree: return "kTree";
    case RunQueueBackend::kAlias: return "kAlias";
  }
  return "unknown";
}

TEST(DrawIdentity, WinnerStreamsMatchPinnedHashes) {
  for (const PinnedStream& pin : kPinned) {
    const uint64_t hash = StreamHash(pin.backend, pin.mutate_every,
                                     pin.poke_rng_every, pin.funded);
    EXPECT_EQ(hash, pin.hash) << pin.mode << " on " << BackendName(pin.backend)
                              << ": 0x" << std::hex << hash;
  }
}

}  // namespace
}  // namespace lottery
