#include "src/util/workpool.h"

#include "src/util/assert.h"

namespace snowboard {

namespace {
// Set inside ThreadMain; a nested Run from a pool thread would stall the caller's own
// slot (it blocks while counted as busy), so it is checked fatal.
thread_local bool t_in_pool_thread = false;
}  // namespace

WorkerPool& WorkerPool::Global() {
  static WorkerPool* pool = new WorkerPool;  // Leaked on purpose — see header.
  return *pool;
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::unique_ptr<PoolThread>& t : threads_) {
    if (t->thread.joinable()) {
      t->thread.join();
    }
  }
}

int WorkerPool::thread_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(threads_.size());
}

int WorkerPool::committed_width() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return committed_;
}

void WorkerPool::GrowLocked(int target) {
  while (static_cast<int>(threads_.size()) < target) {
    auto t = std::make_unique<PoolThread>();
    PoolThread* raw = t.get();
    threads_.push_back(std::move(t));
    raw->thread = std::thread([this, raw]() { ThreadMain(raw); });
  }
}

void WorkerPool::ThreadMain(PoolThread* self) {
  t_in_pool_thread = true;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&]() { return stopping_ || self->assigned != nullptr; });
    if (stopping_) {
      return;
    }
    Job* job = self->assigned;
    // The job-local index: this thread IS worker `assigned_instance` of this job, whatever
    // its physical position in the pool. Safe to write here — only this thread reads the
    // worker outside the lock, and only while it owns the instance.
    self->worker.index_ = self->assigned_instance;
    lock.unlock();
    (*job->body)(self->worker);
    lock.lock();
    self->assigned = nullptr;
    if (--job->remaining == 0) {
      committed_ -= job->width;
      done_cv_.notify_all();
    }
  }
}

void WorkerPool::Run(int num_workers, const std::function<void(PoolWorker&)>& body) {
  SB_CHECK(!t_in_pool_thread);  // Nested Run from a pool thread would stall its own slot.
  if (num_workers < 1) {
    num_workers = 1;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  SB_CHECK(!stopping_);
  // Reserve this job's width and grow so every in-flight job still has a distinct thread
  // per instance: threads busy or holding a pending assignment never exceed the committed
  // width of the OTHER jobs, so after growing to the new total there are always at least
  // `num_workers` idle, unassigned threads for this job.
  committed_ += num_workers;
  GrowLocked(committed_);
  // `job` lives on this stack frame; Run does not return until remaining hits zero, so
  // worker threads may safely hold the pointer.
  Job job;
  job.body = &body;
  job.width = num_workers;
  job.remaining = num_workers;
  int assigned = 0;
  for (std::unique_ptr<PoolThread>& t : threads_) {
    if (assigned == num_workers) {
      break;
    }
    if (t->assigned == nullptr) {
      t->assigned = &job;
      t->assigned_instance = assigned++;
    }
  }
  SB_CHECK(assigned == num_workers);
  work_cv_.notify_all();
  done_cv_.wait(lock, [&]() { return job.remaining == 0; });
}

}  // namespace snowboard
