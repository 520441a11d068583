#include "support/thread_pool.hpp"

#include "support/error.hpp"

namespace dtop {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  // Portable fallback: an empty iteration is still a bounded spin.
#endif
}

}  // namespace

// Barrier protocol. Both the dispatch side and the join side use the same
// spin-then-park shape, and both are lost-wakeup-free by the same seq_cst
// total-order argument:
//
//   Dispatch: a worker about to park does W1 = parked_++ then W2 = "is
//   generation_ still my seen value?" (the wait predicate, evaluated under
//   mu_). The dispatcher does D1 = generation_++ then D2 = "parked_ > 0?".
//   If W2 misses the bump then W2 precedes D1 in the seq_cst total order,
//   so W1 < W2 < D1 < D2 and D2 must read parked_ >= 1 — the dispatcher
//   takes mu_ (which the worker released by blocking inside wait) and
//   notifies. There is no interleaving in which a worker blocks and the
//   dispatcher skips the notify.
//
//   Join: the last worker does V1 = unfinished_-- (to zero) then V2 =
//   "caller_parked_?"; the caller does C1 = caller_parked_ = true then
//   C2 = "unfinished_ == 0?" (wait predicate, under mu_). If C2 reads
//   nonzero then C2 < V1, so C1 < V1 < V2 and V2 must read true — the
//   last worker locks and notifies.
//
// Generations never outrun a slow worker: run() cannot return until every
// worker finished the current generation (unfinished_ == 0), so at the next
// dispatch every worker's `seen` equals the current generation.

ThreadPool::ThreadPool(const ThreadPoolOptions& opt)
    : num_threads_(opt.num_threads),
      spin_iters_(opt.spin_iters < 0 ? 0 : opt.spin_iters) {
  DTOP_REQUIRE(opt.num_threads >= 1, "ThreadPool needs >= 1 thread");
  threads_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    // Taking mu_ orders this store against any worker's park predicate:
    // a worker either sees stop_ set, or is already blocked in wait when
    // the notify below runs. Spinning workers see the atomic directly.
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_seq_cst);
  }
  start_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::run(FunctionRef<void(int)> body) {
  if (num_threads_ == 1) {
    body(0);
    return;
  }
  // body_ is published by the generation bump (seq_cst RMW = release) and
  // read by workers after their acquire load observes the new generation.
  body_ = &body;
  first_error_ = nullptr;
  unfinished_.store(num_threads_ - 1, std::memory_order_seq_cst);
  generation_.fetch_add(1, std::memory_order_seq_cst);  // D1
  if (parked_.load(std::memory_order_seq_cst) > 0) {    // D2
    std::lock_guard<std::mutex> lock(mu_);
    start_cv_.notify_all();
  }

  // The caller is worker 0.
  try {
    body(0);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }

  // Join: spin while the stragglers are microseconds away, park otherwise.
  bool done = false;
  for (int spun = 0; spun < spin_iters_; ++spun) {
    if (unfinished_.load(std::memory_order_seq_cst) == 0) {
      done = true;
      break;
    }
    cpu_relax();
  }
  if (!done) {
    std::unique_lock<std::mutex> lock(mu_);
    caller_parks_.fetch_add(1, std::memory_order_relaxed);
    caller_parked_.store(true, std::memory_order_seq_cst);  // C1
    done_cv_.wait(lock, [this] {                            // C2
      return unfinished_.load(std::memory_order_seq_cst) == 0;
    });
    caller_parked_.store(false, std::memory_order_seq_cst);
  }
  // The acquire side of the final unfinished_ decrement makes every
  // worker's body effects visible here.
  body_ = nullptr;
  if (first_error_) std::rethrow_exception(first_error_);
}

void ThreadPool::worker_loop(int index) {
  std::uint64_t seen = 0;
  for (;;) {
    // Wait for a new generation: spin first, then park.
    int spun = 0;
    while (generation_.load(std::memory_order_seq_cst) == seen) {
      if (stop_.load(std::memory_order_seq_cst)) return;
      if (++spun >= spin_iters_) {
        std::unique_lock<std::mutex> lock(mu_);
        worker_parks_.fetch_add(1, std::memory_order_relaxed);
        parked_.fetch_add(1, std::memory_order_seq_cst);  // W1
        start_cv_.wait(lock, [&] {                        // W2
          return stop_.load(std::memory_order_seq_cst) ||
                 generation_.load(std::memory_order_seq_cst) != seen;
        });
        parked_.fetch_sub(1, std::memory_order_seq_cst);
        if (generation_.load(std::memory_order_seq_cst) == seen)
          return;  // woken by stop with no new work
        break;
      }
      cpu_relax();
    }
    seen = generation_.load(std::memory_order_seq_cst);

    const FunctionRef<void(int)>* body = body_;
    try {
      (*body)(index);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }

    if (unfinished_.fetch_sub(1, std::memory_order_seq_cst) == 1) {  // V1
      if (caller_parked_.load(std::memory_order_seq_cst)) {          // V2
        std::lock_guard<std::mutex> lock(mu_);
        done_cv_.notify_all();
      }
    }
  }
}

}  // namespace dtop
