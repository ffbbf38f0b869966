// The shared worker pool (util/workpool.h): SPMD job semantics, per-worker state that
// survives across jobs (the KernelVm boot-once invariant), and clean unwinding when an
// injected fault kills a job mid-flight.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/snowboard/profile.h"
#include "src/util/counters.h"
#include "src/util/fault.h"
#include "src/util/workpool.h"

namespace snowboard {
namespace {

TEST(WorkpoolTest, RunExecutesBodyOncePerWorkerWithDistinctIndices) {
  WorkerPool pool;
  for (int width : {1, 3, 5}) {
    SCOPED_TRACE(testing::Message() << "width=" << width);
    std::vector<std::atomic<int>> hits(static_cast<size_t>(width));
    for (auto& h : hits) {
      h = 0;
    }
    pool.Run(width, [&](PoolWorker& worker) {
      ASSERT_GE(worker.index(), 0);
      ASSERT_LT(worker.index(), width);
      hits[static_cast<size_t>(worker.index())]++;
    });
    for (int i = 0; i < width; i++) {
      EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "worker " << i;
    }
  }
  // The pool grew to the widest job and never shrank.
  EXPECT_EQ(pool.thread_count(), 5);
}

TEST(WorkpoolTest, PerWorkerStatePersistsAcrossJobs) {
  WorkerPool pool;
  std::vector<int*> first_addresses(4, nullptr);
  std::atomic<int> makes{0};
  auto factory = [&]() {
    makes++;
    return std::make_unique<int>(0);
  };
  // Two jobs ("stages"): the second must see the exact object the first created.
  pool.Run(4, [&](PoolWorker& worker) {
    int& state = worker.State<int>(factory);
    state = worker.index() + 100;
    first_addresses[static_cast<size_t>(worker.index())] = &state;
  });
  pool.Run(4, [&](PoolWorker& worker) {
    ASSERT_TRUE(worker.HasState<int>());
    int& state = worker.State<int>(factory);
    EXPECT_EQ(&state, first_addresses[static_cast<size_t>(worker.index())]);
    EXPECT_EQ(state, worker.index() + 100);
  });
  EXPECT_EQ(makes.load(), 4);  // One construction per worker, not per job.
}

// The boot-once invariant the campaign engine is built on: a pool worker's KernelVm boots
// on first use and is then reused by later jobs — the "stages" of a campaign — without
// another boot.
TEST(WorkpoolTest, PoolWorkerVmBootsOncePerWorkerAcrossStages) {
  WorkerPool pool;
  ResetPipelineCounters();
  pool.Run(2, [&](PoolWorker& worker) { PoolWorkerVm(worker).RestoreSnapshot(); });
  uint64_t boots_after_first_stage = GlobalPipelineCounters().vm_boots.load();
  EXPECT_EQ(boots_after_first_stage, 2u);
  for (int stage = 0; stage < 3; stage++) {
    pool.Run(2, [&](PoolWorker& worker) { PoolWorkerVm(worker).RestoreSnapshot(); });
  }
  EXPECT_EQ(GlobalPipelineCounters().vm_boots.load(), boots_after_first_stage)
      << "later stages must reuse the booted VMs";
}

// An injected crash makes every worker abandon its claim loop; the pool itself carries no
// job state across Run calls, so the next job runs to completion on the same threads.
TEST(WorkpoolTest, PoolSurvivesFaultInjectedJobAndStaysReusable) {
  WorkerPool pool;
  constexpr size_t kItems = 200;
  FaultInjector::Plan plan;
  plan.crash_at = 20;  // Die at the 21st claim, mid-job.
  FaultInjector fault(plan);

  std::atomic<size_t> completed{0};
  std::atomic<size_t> next{0};
  pool.Run(4, [&](PoolWorker&) {
    for (;;) {
      if (fault.At("pool.claim")) {
        return;  // Unwind exactly as the campaign engine's workers do.
      }
      if (next.fetch_add(1) >= kItems) {
        return;
      }
      completed++;
    }
  });
  EXPECT_TRUE(fault.crashed());
  EXPECT_LT(completed.load(), kItems) << "the crash should have cut the job short";

  // Same pool, fresh job: full completion, and per-worker state survived the "crash".
  std::vector<uint8_t> done(kItems, 0);
  std::atomic<size_t> next2{0};
  pool.Run(4, [&](PoolWorker&) {
    for (size_t i = next2.fetch_add(1); i < kItems; i = next2.fetch_add(1)) {
      done[i] = 1;
    }
  });
  for (size_t i = 0; i < kItems; i++) {
    ASSERT_EQ(done[i], 1) << "index " << i;
  }
}

// Concurrent jobs from different threads multiplex onto disjoint thread subsets instead
// of serializing — the property the serve daemon's many-campaigns-one-pool design rests
// on. Each instance blocks until BOTH jobs have at least one instance running, so the
// test deadlocks (and times out loudly) if the pool ever serializes whole jobs again.
TEST(WorkpoolTest, ConcurrentJobsMultiplexOntoDisjointThreads) {
  WorkerPool pool;
  std::atomic<int> jobs_arrived[2] = {{0}, {0}};
  std::atomic<bool> overlap_seen{false};
  auto body = [&](int job) {
    return [&, job](PoolWorker& worker) {
      EXPECT_GE(worker.index(), 0);
      EXPECT_LT(worker.index(), 2);
      jobs_arrived[job]++;
      // Spin until the other job has arrived too (bounded: the pool must not serialize).
      for (int spins = 0; jobs_arrived[1 - job].load() == 0 && spins < 100000; spins++) {
        std::this_thread::yield();
      }
      if (jobs_arrived[1 - job].load() > 0) {
        overlap_seen = true;
      }
    };
  };
  std::thread other([&]() { pool.Run(2, body(1)); });
  pool.Run(2, body(0));
  other.join();
  EXPECT_TRUE(overlap_seen.load()) << "concurrent Run calls must not serialize";
  // Both width-2 jobs needed their own threads while in flight.
  EXPECT_EQ(pool.thread_count(), 4);
  EXPECT_EQ(pool.committed_width(), 0) << "all width returns to the pool at completion";
}

// Job-local worker indices: whichever physical threads a job lands on, its body sees
// indices 0..width-1 — two concurrent width-2 jobs both see {0, 1}, not {2, 3}.
TEST(WorkpoolTest, ConcurrentJobsSeeJobLocalIndices) {
  WorkerPool pool;
  std::atomic<int> seen[2][2] = {{{0}, {0}}, {{0}, {0}}};
  std::atomic<int> arrivals{0};
  auto body = [&](int job) {
    return [&, job](PoolWorker& worker) {
      arrivals++;
      // Hold every instance in flight until all four arrived, forcing the jobs to occupy
      // four distinct threads simultaneously.
      for (int spins = 0; arrivals.load() < 4 && spins < 100000; spins++) {
        std::this_thread::yield();
      }
      ASSERT_GE(worker.index(), 0);
      ASSERT_LT(worker.index(), 2);
      seen[job][worker.index()]++;
    };
  };
  std::thread other([&]() { pool.Run(2, body(1)); });
  pool.Run(2, body(0));
  other.join();
  for (int job = 0; job < 2; job++) {
    for (int index = 0; index < 2; index++) {
      EXPECT_EQ(seen[job][index].load(), 1)
          << "job " << job << " must run exactly one instance as worker " << index;
    }
  }
}

}  // namespace
}  // namespace snowboard
