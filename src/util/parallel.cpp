#include "vcomp/util/parallel.hpp"

#include <cstdlib>

#include "vcomp/util/assert.hpp"

namespace vcomp::util {

namespace {

thread_local bool t_on_worker = false;
thread_local TaskContext t_task_ctx;

std::size_t env_parallelism() {
  if (const char* v = std::getenv("VCOMP_THREADS")) {
    char* end = nullptr;
    const unsigned long t = std::strtoul(v, &end, 10);
    if (end != v && *end == '\0' && t > 0)
      return std::min<std::size_t>(t, kMaxParallelism);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

}  // namespace

TaskContext task_context() { return t_task_ctx; }

std::uint64_t task_token() { return t_task_ctx.token; }

void set_task_context(const TaskContext& ctx) { t_task_ctx = ctx; }

std::uint64_t new_task_token() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool(env_parallelism());
  return pool;
}

ThreadPool::ThreadPool(std::size_t threads) {
  start(threads > 0 ? threads - 1 : 0);
}

ThreadPool::~ThreadPool() { stop(); }

std::size_t ThreadPool::parallelism() const {
  std::lock_guard<std::mutex> lock(m_);
  return workers_.size() + 1;
}

bool ThreadPool::on_worker() { return t_on_worker; }

void ThreadPool::start(std::size_t workers) {
  {
    std::lock_guard<std::mutex> lock(m_);
    stop_ = false;
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void ThreadPool::stop() {
  {
    std::lock_guard<std::mutex> lock(m_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void ThreadPool::configure(std::size_t threads) {
  VCOMP_REQUIRE(!on_worker(),
                "ThreadPool::configure must not be called from a worker");
  VCOMP_REQUIRE(threads <= kMaxParallelism,
                "ThreadPool::configure above kMaxParallelism");
  stop();
  {
    std::lock_guard<std::mutex> lock(m_);
    VCOMP_REQUIRE(queue_.empty(),
                  "ThreadPool::configure with tasks still queued");
  }
  start(threads > 0 ? threads - 1 : 0);
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(m_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  t_on_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(m_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ScopedParallelism::ScopedParallelism(std::size_t threads)
    : prev_(ThreadPool::instance().parallelism()) {
  ThreadPool::instance().configure(threads > 0 ? threads : 1);
}

ScopedParallelism::~ScopedParallelism() {
  ThreadPool::instance().configure(prev_);
}

namespace detail {

void run_on_pool(std::size_t helpers, const std::function<void()>& body) {
  struct Sync {
    std::mutex m;
    std::condition_variable cv;
    std::size_t pending;
    std::exception_ptr err;
  };
  Sync sync;
  sync.pending = helpers;
  auto& pool = ThreadPool::instance();
  // Workers execute the body under the submitter's task context, so scope
  // tokens (obs per-scope counters) and the malleable parallelism cap
  // follow the task tree across threads.
  const TaskContext ctx = task_context();
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([&sync, &body, ctx] {
      const ScopedTaskContext scope(ctx);
      try {
        body();
      } catch (...) {
        std::lock_guard<std::mutex> lock(sync.m);
        if (!sync.err) sync.err = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(sync.m);
      if (--sync.pending == 0) sync.cv.notify_one();
    });
  }
  try {
    body();
  } catch (...) {
    std::lock_guard<std::mutex> lock(sync.m);
    if (!sync.err) sync.err = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(sync.m);
  sync.cv.wait(lock, [&sync] { return sync.pending == 0; });
  if (sync.err) std::rethrow_exception(sync.err);
}

}  // namespace detail

}  // namespace vcomp::util
