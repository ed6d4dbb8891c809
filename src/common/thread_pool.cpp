#include "common/thread_pool.hpp"

#include <algorithm>

namespace pac {
namespace {

// Which pool (if any) owns the current thread.  Set once per worker at
// startup; parallel_for consults it so nested dispatch from a worker runs
// inline instead of deadlocking on the pool's own queue.
thread_local const ThreadPool* tl_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // The calling thread participates in parallel_for, so spawn one fewer
  // worker than the requested width.
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> stop_guard(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::on_worker_thread() const { return tl_worker_pool == this; }

void ThreadPool::worker_loop() {
  tl_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> wait_lock(mutex_);
      task_ready_.wait(wait_lock,
                       [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(
    std::int64_t n, const std::function<void(std::int64_t, std::int64_t)>& fn,
    std::int64_t grain) {
  if (n <= 0) return;
  // Dispatch is only worth it for reasonably large ranges; callers with
  // expensive per-iteration bodies pass a smaller grain.
  constexpr std::int64_t kDefaultGrain = 1024;
  if (grain <= 0) grain = kDefaultGrain;
  const std::int64_t width = static_cast<std::int64_t>(workers_.size()) + 1;
  // A nested call from one of our own workers must not block on the queue it
  // is supposed to be draining: run inline (the outer dispatch already
  // spread work across the pool).
  if (width == 1 || n < 2 * grain || on_worker_thread()) {
    fn(0, n);
    return;
  }

  // floor(n / grain) keeps every chunk at least `grain` long (the last chunk
  // absorbs the remainder); n >= 2 * grain guarantees at least two chunks.
  const std::int64_t chunks = std::min<std::int64_t>(width, n / grain);
  const std::int64_t per_chunk = (n + chunks - 1) / chunks;

  // All three live on this frame.  A worker decrements `remaining` and
  // notifies while it holds done_mutex, so the caller (which reads
  // `remaining` under the same mutex) cannot see zero, return and destroy
  // them until the last worker has released the lock and is done with them.
  std::int64_t remaining = chunks - 1;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  {
    std::lock_guard<std::mutex> enqueue_guard(mutex_);
    for (std::int64_t c = 1; c < chunks; ++c) {
      const std::int64_t begin = c * per_chunk;
      const std::int64_t end = std::min(n, begin + per_chunk);
      tasks_.push([&, begin, end] {
        fn(begin, end);
        std::lock_guard<std::mutex> done_guard(done_mutex);
        if (--remaining == 0) done_cv.notify_one();
      });
    }
  }
  task_ready_.notify_all();

  // The calling thread takes the first chunk.
  fn(0, std::min(n, per_chunk));

  std::unique_lock<std::mutex> done_lock(done_mutex);
  done_cv.wait(done_lock, [&] { return remaining == 0; });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace pac
