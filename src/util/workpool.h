// Process-lifetime worker pool: the single thread-fan-out point of the campaign engine.
//
// The paper's deployment keeps a fixed fleet of VMs busy end-to-end (§4.4.1): workers are
// provisioned once and stream through profiling, identification, and execution work from a
// shared queue. Before this pool existed, every pipeline stage spawned and joined its own
// std::threads and booted its own KernelVms — three independent spawn sites (profiling
// shards, PMC identification shards, the execution claim loop), each paying a full VM boot
// per worker per stage. The WorkerPool is the in-process fleet analog: threads are created
// once, parked between jobs, and carry typed per-worker state (see PoolWorker::State) that
// survives across jobs — which is how a KernelVm boots once per worker per process and is
// reused from the corpus stage through profiling into concurrent-test execution.
//
// Multi-job semantics (the fleet-service enabler): the pool accepts CONCURRENT jobs from
// different threads and runs them side by side on disjoint subsets of its threads — the
// serve daemon multiplexes many campaigns onto one pool this way. Every instance of a job
// is assigned to a distinct idle thread at submission time (never queued behind another
// job), and the pool grows so that the sum of in-flight job widths always fits; an
// admission layer above the pool (snowboard/serve.h) is responsible for keeping that sum
// bounded. A single-caller pool behaves exactly as the old one-job-at-a-time pool did:
// jobs land on threads 0..width-1 in index order.
//
// Determinism contract: the pool adds no scheduling decisions of its own. A job body runs
// once per participating worker, and `PoolWorker::index()` is the JOB-LOCAL instance index
// in [0, width) — stable for seeding and slot-keyed outputs no matter which pool thread
// runs the instance. Work distribution happens inside the body (the campaign engine's
// workers claim work items under the engine's own lock), and the body keeps its outputs in
// slots — the determinism tests lock in that pipeline outputs are byte-identical for any
// worker count, regardless of what other jobs the pool is running.
//
// This lives in util (below sim/kernel) and knows nothing about VMs: per-worker state is
// type-erased, and the kernel-aware layers supply the factories.
#ifndef SRC_UTIL_WORKPOOL_H_
#define SRC_UTIL_WORKPOOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <typeinfo>
#include <vector>

namespace snowboard {

// Per-worker handle passed to job bodies. Owned by the pool thread it represents; not
// thread-safe (only that thread may touch it, which is the only access the API offers).
class PoolWorker {
 public:
  // Job-local instance index in [0, job width): slot-keyed stage outputs and deterministic
  // seeding key off it, never off the OS thread id or the pool thread index. Set by the
  // pool before each instance runs, so the same PHYSICAL thread can be worker 3 of one
  // campaign's job and worker 0 of the next.
  int index() const { return index_; }

  // Lazily-built per-worker state, keyed by type. The first request constructs the object
  // via `make`; every later request — same job, later job, later campaign — returns the
  // SAME object. This is the VM-reuse hook: worker code asks for its KernelVm here and
  // boots at most one per POOL THREAD per process lifetime (state follows the thread, not
  // the job-local index — a VM booted for one campaign serves every later one).
  template <typename T>
  T& State(const std::function<std::unique_ptr<T>()>& make) {
    for (Slot& slot : slots_) {
      if (*slot.type == typeid(T)) {
        return *static_cast<T*>(slot.ptr.get());
      }
    }
    std::shared_ptr<T> made(make());
    slots_.push_back(Slot{&typeid(T), made});
    return *made;
  }

  // True if a State<T> object already exists (tests observe boot-once behavior).
  template <typename T>
  bool HasState() const {
    for (const Slot& slot : slots_) {
      if (*slot.type == typeid(T)) {
        return true;
      }
    }
    return false;
  }

 private:
  friend class WorkerPool;
  struct Slot {
    const std::type_info* type;
    std::shared_ptr<void> ptr;  // shared_ptr<void> keeps the typed deleter.
  };

  int index_ = 0;
  std::vector<Slot> slots_;
};

// A pool of parked threads that runs any number of jobs concurrently. Jobs are SPMD-style:
// Run(n, body) executes body(worker) once on each of n distinct pool threads and returns
// when all n instances have returned; concurrent Run calls from different threads
// multiplex onto disjoint thread subsets instead of serializing. The pool grows on demand
// (to the sum of in-flight job widths) and never shrinks; idle threads block on a
// condition variable and cost nothing.
class WorkerPool {
 public:
  // The process-lifetime pool every pipeline stage — and every campaign the serve daemon
  // multiplexes — shares. Intentionally leaked: its threads (and the booted VMs parked in
  // their PoolWorker slots) live until process exit, so no static-destruction-order hazard
  // can fire while a worker is mid-teardown.
  static WorkerPool& Global();

  WorkerPool() = default;
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Runs `body` once on each of `num_workers` distinct pool threads and blocks until every
  // instance returns. All instances are assigned to idle threads immediately (lowest
  // thread index first, instance order increasing — so an otherwise-idle pool maps
  // instance i to thread i, preserving the boot-once VM affinity single campaigns have
  // always had); the pool grows first if concurrent jobs would otherwise leave an instance
  // without a thread. An unwinding body (fault-injected "crash", exhausted claim loop)
  // simply returns — the pool itself has no cancellation state, so a job that died on one
  // worker leaves the pool immediately reusable.
  //
  // Concurrent Run calls from different threads run CONCURRENTLY (each on its own thread
  // subset). Calling Run from inside a pool thread would deadlock the caller's own slot
  // and is checked fatal.
  void Run(int num_workers, const std::function<void(PoolWorker&)>& body);

  // Threads created so far (monotonic; tests assert boot-once / grow-on-demand behavior).
  int thread_count() const;

  // Sum of the widths of jobs currently in flight (instances assigned or running). The
  // serve admission layer keeps this bounded by its worker budget; tests observe it.
  int committed_width() const;

 private:
  struct Job {
    const std::function<void(PoolWorker&)>* body = nullptr;
    int width = 0;
    int remaining = 0;  // Instances still running (or not yet picked up).
  };
  struct PoolThread {
    std::thread thread;
    PoolWorker worker;
    Job* assigned = nullptr;     // Job this thread must run one instance of (or is running).
    int assigned_instance = 0;   // Job-local index of that instance.
  };

  void ThreadMain(PoolThread* self);
  void GrowLocked(int target);

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // New instance assigned, or shutting down.
  std::condition_variable done_cv_;  // A job instance finished.
  std::vector<std::unique_ptr<PoolThread>> threads_;
  int committed_ = 0;  // Sum of widths of in-flight jobs; growth target.
  bool stopping_ = false;
};

}  // namespace snowboard

#endif  // SRC_UTIL_WORKPOOL_H_
