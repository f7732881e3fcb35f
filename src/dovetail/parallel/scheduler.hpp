// Fork-join work-stealing scheduler with binary forking.
//
// This is the substrate the paper assumes from ParlayLib [10]: a pool of
// workers with per-worker deques, binary fork (`pardo`) and a randomized
// work-stealing policy, which executes a computation with work W and span D
// in W/P + O(D) time whp (Sec 2.2 of the paper).
//
// Design notes:
//  * Forked tasks live on the forking thread's stack; the scheduler only
//    holds pointers. A task is joined before the frame unwinds, even when
//    the left branch throws.
//  * Each deque is a fixed-ring Chase–Lev work-stealing deque with one
//    owner: the owner pushes and pops at the bottom without a lock, thieves
//    take the top with a CAS. A fork whose ring is full runs inline.
//  * Pool workers own deques 1..p−1. A thread from outside the pool claims
//    a free caller deque (0 or p..2p−2, p in all) when it enters its
//    outermost parallel region and releases it on return; when none is
//    free, the region runs serially. So no deque is ever shared by two
//    owners, and a joining thread's own deque holds nothing older than the
//    task it joins: it steals only from the other deques.
//  * Idle workers scan for work briefly, then park on their own atomic
//    word (C++20 atomic::wait). A push wakes one parked worker (notify_one)
//    only when the sleeper count is above zero. The sleeper registers,
//    re-scans and only then waits, so a push is either seen by the re-scan
//    or wakes someone; the waker takes the worker it wakes off the count,
//    so pushes during that worker's wake-up latency do not wake it again.
//    Sequential phases cost idle workers no CPU.
//  * scheduler::get() is one acquire load once the pool exists; a mutex
//    guards only its creation and set_num_workers.
//  * Exceptions thrown by either branch propagate to the joining caller.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <type_traits>
#include <utility>

namespace dovetail::par {

namespace detail {

// Per-thread serial flag: set while the calling thread runs a computation
// on itself alone (a width-1 call, see scoped_worker_limit). A serial
// scope never forks, so a thread steals only from its idle loop or from a
// join, and both run at pool width: every task runs under the width it was
// forked at, and forked tasks need not carry it.
bool serial() noexcept;
void set_serial(bool on) noexcept;

// Type-erased forked task. `run()` must be called exactly once.
class job {
 public:
  virtual void run() noexcept = 0;
  [[nodiscard]] bool finished() const noexcept {
    return done_.load(std::memory_order_acquire);
  }

 protected:
  ~job() = default;
  void mark_done() noexcept { done_.store(true, std::memory_order_release); }

 private:
  std::atomic<bool> done_{false};
};

template <typename F>
class forked_task final : public job {
 public:
  explicit forked_task(F&& f) : f_(std::move(f)) {}
  explicit forked_task(const F& f) : f_(f) {}

  void run() noexcept override {
    // Forked at pool width and run at pool width (see serial()).
    assert(!serial());
    try {
      f_();
    } catch (...) {
      ex_ = std::current_exception();
    }
    mark_done();
  }

  void rethrow_if_exception() {
    if (ex_) std::rethrow_exception(ex_);
  }

 private:
  F f_;
  std::exception_ptr ex_{};
};

}  // namespace detail

class scheduler {
 public:
  // Forks a deque holds before further forks run inline.
  static constexpr std::size_t deque_capacity = 1024;

  // Lazily constructed global scheduler.
  static scheduler& get();

  // Deque owned by the calling thread: 1..p−1 on pool workers, a caller
  // deque (0 or p..2p−2) while a thread from outside the pool is inside
  // its outermost parallel region, −1 otherwise.
  static int worker_id() noexcept;

  // Number of workers in the pool, >= 1: p−1 pool threads plus the caller.
  [[nodiscard]] int num_workers() const noexcept { return num_workers_; }

  // Tear down and restart the pool with `p` workers (p >= 1). Must not be
  // called while parallel work is in flight; throws std::logic_error,
  // before anything is torn down, when called from a pool worker or from
  // inside a parallel region. Used by scaling benchmarks.
  static void set_num_workers(int p);

  // Default worker count: DOVETAIL_NUM_THREADS env var, else hardware
  // concurrency. Throws std::invalid_argument when the variable is set to
  // anything but a whole decimal integer in [1, 1024].
  static int default_num_workers();

  // ---- internal API used by pardo() ----
  // A foreign thread's hold on a caller deque for its outermost parallel
  // region; empty (false) when every caller deque is taken.
  class caller_slot {
   public:
    explicit caller_slot(scheduler& s) noexcept
        : s_(s), id_(s.claim_caller_slot()) {}
    ~caller_slot() {
      if (id_ >= 0) s_.release_caller_slot(id_);
    }
    explicit operator bool() const noexcept { return id_ >= 0; }
    caller_slot(const caller_slot&) = delete;
    caller_slot& operator=(const caller_slot&) = delete;

   private:
    scheduler& s_;
    int id_;
  };
  // Push onto the calling thread's deque; false when its ring is full.
  bool push(detail::job* j) noexcept;
  // Pop the bottom of the calling thread's deque: true when it was `j`,
  // the last task this thread pushed, false when a thief took it.
  bool pop(detail::job* j) noexcept;
  // Run other deques' tasks until `j` has finished.
  void wait_until_done(detail::job* j) noexcept;

  scheduler(const scheduler&) = delete;
  scheduler& operator=(const scheduler&) = delete;
  ~scheduler();

 private:
  friend struct scheduler_access;
  explicit scheduler(int p);
  int claim_caller_slot() noexcept;
  void release_caller_slot(int id) noexcept;
  void worker_loop(int id);
  detail::job* steal(int id, std::uint64_t& rng) noexcept;

  struct impl;
  impl* pimpl_;
  int num_workers_;
};

namespace detail {

// Fork `right`, run `left`, join. A fork whose deque is full runs inline.
template <typename L, typename R>
void fork_join(scheduler& s, L& left, R&& right) {
  forked_task<std::decay_t<R>> rt(std::forward<R>(right));
  const bool forked = s.push(&rt);
  std::exception_ptr left_ex{};
  try {
    left();
  } catch (...) {
    left_ex = std::current_exception();
  }
  if (!forked || s.pop(&rt)) {
    rt.run();
  } else {
    s.wait_until_done(&rt);
  }
  if (left_ex) std::rethrow_exception(left_ex);
  rt.rethrow_if_exception();
}

}  // namespace detail

// Run `left` and `right` potentially in parallel; returns when both are
// done. Exceptions from either branch are rethrown (left's first).
template <typename L, typename R>
void pardo(L&& left, R&& right) {
  scheduler& s = scheduler::get();
  if (s.num_workers() > 1 && !detail::serial()) {
    if (scheduler::worker_id() >= 0)
      return detail::fork_join(s, left, std::forward<R>(right));
    if (const scheduler::caller_slot slot(s); slot)
      return detail::fork_join(s, left, std::forward<R>(right));
  }
  // Serial path: both branches still run even if one throws (same join
  // guarantee as the parallel path), rethrowing left's exception first.
  std::exception_ptr ex{};
  try {
    left();
  } catch (...) {
    ex = std::current_exception();
  }
  try {
    right();
  } catch (...) {
    if (!ex) ex = std::current_exception();
  }
  if (ex) std::rethrow_exception(ex);
}

inline int num_workers() { return scheduler::get().num_workers(); }

// Workers this computation may use: 1 inside a serial scope, else the
// whole pool. Nothing in between exists: a work-stealing pool cannot
// reserve part of itself for one call.
inline int effective_workers() {
  return detail::serial() ? 1 : num_workers();
}

// The thread contract of every public width — sort_options,
// auto_sort_options, sort_request and stream_options num_threads, and
// service_options::concurrency: 0 means the whole pool, 1 the calling
// thread only, and any value >= num_workers() the whole pool too (a pool
// of p workers keeps "at most k >= p"). A negative value, or 1 < k <
// num_workers(), throws std::invalid_argument. Returns true for 1.
bool serial_width(int width);

// RAII width of one call, checked by serial_width. Width 1 makes the scope
// serial: pardo() takes its inline path and parallel_for runs a plain loop,
// so the whole call stays on the calling thread. Serial is sticky: a wider
// width inside a serial scope stays serial. The flag is thread-local, so
// concurrent calls on other threads are unaffected.
class scoped_worker_limit {
 public:
  explicit scoped_worker_limit(int width) : saved_(detail::serial()) {
    if (serial_width(width)) detail::set_serial(true);
  }
  ~scoped_worker_limit() { detail::set_serial(saved_); }
  scoped_worker_limit(const scoped_worker_limit&) = delete;
  scoped_worker_limit& operator=(const scoped_worker_limit&) = delete;

 private:
  bool saved_;
};

}  // namespace dovetail::par
