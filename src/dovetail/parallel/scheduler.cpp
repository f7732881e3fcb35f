#include "dovetail/parallel/scheduler.hpp"

#include <atomic>
#include <cassert>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

namespace dovetail::par {

namespace {

thread_local int tl_worker_id = -1;
thread_local bool tl_serial = false;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

inline std::uint64_t xorshift64(std::uint64_t& s) noexcept {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

}  // namespace

namespace detail {
bool serial() noexcept { return tl_serial; }
void set_serial(bool on) noexcept { tl_serial = on; }
}  // namespace detail

bool serial_width(int width) {
  if (width == 0 || width == 1) return width == 1;
  if (const int p = num_workers(); width < p)  // negative, or part of p
    throw std::invalid_argument(
        "thread width " + std::to_string(width) + ": expected 1 (serial), "
        "or 0 or at least " + std::to_string(p) + " (the whole pool)");
  return false;
}

namespace {

// Chase–Lev work-stealing deque on a fixed ring (Chase and Lev, SPAA'05,
// with the C11 orderings of Lê et al., PPoPP'13, all top/bottom accesses
// made seq_cst instead of using standalone fences, which TSan cannot
// model). Only the owner calls push() and pop(); anyone may call steal().
class alignas(64) ws_deque {
 public:
  static constexpr std::int64_t kCap =
      static_cast<std::int64_t>(scheduler::deque_capacity);

  bool push(detail::job* j) noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    if (b - top_.load() >= kCap) return false;
    ring_[b % kCap].store(j, std::memory_order_relaxed);
    bottom_.store(b + 1);
    return true;
  }

  detail::job* pop() noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b);
    std::int64_t t = top_.load();
    if (t > b) {  // empty
      bottom_.store(b + 1);
      return nullptr;
    }
    detail::job* j = ring_[b % kCap].load(std::memory_order_relaxed);
    if (t == b) {  // last task: race the thieves for it
      if (!top_.compare_exchange_strong(t, t + 1)) j = nullptr;
      bottom_.store(b + 1);
    }
    return j;
  }

  // A task, or nullptr when the deque looked empty. `lost` is set when a
  // task was there but another thief took it first.
  detail::job* steal(bool& lost) noexcept {
    std::int64_t t = top_.load();
    const std::int64_t b = bottom_.load();
    if (t >= b) return nullptr;
    detail::job* j = ring_[t % kCap].load(std::memory_order_relaxed);
    if (top_.compare_exchange_strong(t, t + 1)) return j;
    lost = true;
    return nullptr;
  }

  // Caller deques only: set while a foreign thread owns this deque.
  std::atomic<bool> claimed{false};

 private:
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  std::atomic<detail::job*> ring_[kCap]{};
};

// How long an idle worker keeps scanning before it parks: long enough to
// bridge the short serial steps between a sort's parallel phases, which a
// futex wake-up (tens of µs, more when the wakee queues behind a busy
// thread) would otherwise stall.
constexpr auto kIdleSpin = std::chrono::microseconds(100);

// A pool worker's parking word.
enum : std::uint32_t { kAwake = 0, kParked = 1, kWoken = 2 };
struct alignas(64) park_word {
  std::atomic<std::uint32_t> state{kAwake};
};

}  // namespace

struct scheduler::impl {
  int p;
  // 2p−1 deques: 1..p−1 for the pool threads, 0 and p..2p−2 for callers.
  int num_deques;
  std::unique_ptr<ws_deque[]> deques;
  std::unique_ptr<park_word[]> park;  // indexed by pool worker id
  std::vector<std::thread> threads;
  alignas(64) std::atomic<bool> shutdown{false};
  // Parked workers no push has woken yet.
  alignas(64) std::atomic<int> num_sleepers{0};

  explicit impl(int workers)
      : p(workers),
        num_deques(2 * p - 1),
        deques(new ws_deque[2 * p - 1]),
        park(new park_word[p]) {}
  ws_deque& own() noexcept { return deques[tl_worker_id]; }

  // Wake one parked worker. The waker takes it off the sleeper count, so
  // pushes made during its wake-up latency do not wake it again.
  void wake_one() noexcept {
    for (int w = 1; w < p; ++w) {
      std::atomic<std::uint32_t>& state = park[w].state;
      std::uint32_t expected = kParked;
      if (state.load() == kParked &&
          state.compare_exchange_strong(expected, kWoken)) {
        num_sleepers.fetch_sub(1);
        state.notify_one();
        return;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Global instance management.
namespace {
std::mutex g_inst_mu;               // guards creation and set_num_workers
std::unique_ptr<scheduler> g_inst;  // the owned instance
std::atomic<scheduler*> g_current{nullptr};  // g_inst, once published
}  // namespace

struct scheduler_access {
  static std::unique_ptr<scheduler> make(int p) {
    return std::unique_ptr<scheduler>(new scheduler(p));
  }
};

int scheduler::default_num_workers() {
  if (const char* env = std::getenv("DOVETAIL_NUM_THREADS")) {
    // A whole decimal integer in [1, kMaxEnvWorkers], nothing else: a typo
    // must not silently fall back to the core count or start an absurd
    // number of threads.
    constexpr unsigned kMaxEnvWorkers = 1024;
    const std::string_view text(env);
    unsigned v = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc{} || end != text.data() + text.size() || v < 1 ||
        v > kMaxEnvWorkers)
      throw std::invalid_argument(
          "DOVETAIL_NUM_THREADS=\"" + std::string(text) +
          "\": expected a whole number of workers in [1, " +
          std::to_string(kMaxEnvWorkers) + "]");
    return static_cast<int>(v);
  }
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

scheduler& scheduler::get() {
  if (scheduler* s = g_current.load(std::memory_order_acquire)) return *s;
  std::lock_guard<std::mutex> lk(g_inst_mu);
  if (!g_inst) {
    g_inst = scheduler_access::make(default_num_workers());
    g_current.store(g_inst.get(), std::memory_order_release);
  }
  return *g_inst;
}

void scheduler::set_num_workers(int p) {
  if (p < 1) throw std::invalid_argument("set_num_workers: p must be >= 1");
  // Tearing the pool down from one of its own threads would join that
  // thread, and from inside a region would free deques still holding tasks.
  if (tl_worker_id >= 0)
    throw std::logic_error(
        "set_num_workers: called from a pool worker or a parallel region");
  std::lock_guard<std::mutex> lk(g_inst_mu);
  g_current.store(nullptr, std::memory_order_release);
  g_inst.reset();  // joins all workers
  g_inst = scheduler_access::make(p);
  g_current.store(g_inst.get(), std::memory_order_release);
}

int scheduler::worker_id() noexcept { return tl_worker_id; }

// ---------------------------------------------------------------------------

scheduler::scheduler(int p) : pimpl_(new impl(p)), num_workers_(p) {
  pimpl_->threads.reserve(static_cast<std::size_t>(p - 1));
  for (int id = 1; id < p; ++id) {
    pimpl_->threads.emplace_back([this, id] { worker_loop(id); });
  }
}

scheduler::~scheduler() {
  pimpl_->shutdown.store(true);
  for (int w = 1; w < num_workers_; ++w) {
    pimpl_->park[w].state.store(kWoken);
    pimpl_->park[w].state.notify_one();
  }
  for (auto& t : pimpl_->threads) t.join();
  delete pimpl_;
}

int scheduler::claim_caller_slot() noexcept {
  const int p = num_workers_;
  for (int id = 0; id < pimpl_->num_deques; id = id == 0 ? p : id + 1) {
    std::atomic<bool>& claimed = pimpl_->deques[id].claimed;
    bool expected = false;
    if (!claimed.load(std::memory_order_relaxed) &&
        claimed.compare_exchange_strong(expected, true,
                                        std::memory_order_acquire)) {
      tl_worker_id = id;
      return id;
    }
  }
  return -1;
}

void scheduler::release_caller_slot(int id) noexcept {
  tl_worker_id = -1;
  pimpl_->deques[id].claimed.store(false, std::memory_order_release);
}

bool scheduler::push(detail::job* j) noexcept {
  if (!pimpl_->own().push(j)) return false;
  // Dekker order with the parking side of worker_loop: the push above
  // precedes this load, a sleeper's registration precedes its re-scan.
  if (pimpl_->num_sleepers.load() > 0) pimpl_->wake_one();
  return true;
}

bool scheduler::pop(detail::job* j) noexcept {
  // Every task pushed after `j` has been joined, and thieves take the
  // oldest first, so the bottom is `j` or the deque is empty.
  detail::job* bottom = pimpl_->own().pop();
  assert(bottom == nullptr || bottom == j);
  return bottom == j;
}

detail::job* scheduler::steal(int id, std::uint64_t& rng) noexcept {
  // Random victims; a victim whose top another thief took is retried, so
  // nullptr means every other deque was seen empty.
  const int n = pimpl_->num_deques;
  const int start = static_cast<int>(xorshift64(rng) % static_cast<std::uint64_t>(n));
  for (int k = 0; k < n; ++k) {
    int v = start + k;
    if (v >= n) v -= n;
    if (v == id) continue;
    bool lost;
    do {
      lost = false;
      if (detail::job* j = pimpl_->deques[v].steal(lost)) return j;
    } while (lost);
  }
  return nullptr;
}

void scheduler::wait_until_done(detail::job* j) noexcept {
  const int id = tl_worker_id;
  std::uint64_t rng = 0x9E3779B97F4A7C15ull ^ (static_cast<std::uint64_t>(id) + 1);
  int idle_spins = 0;
  while (!j->finished()) {
    if (detail::job* other = steal(id, rng)) {
      other->run();
      idle_spins = 0;
    } else {
      cpu_relax();
      if (++idle_spins > 256) {
        std::this_thread::yield();
        idle_spins = 0;
      }
    }
  }
}

void scheduler::worker_loop(int id) {
  tl_worker_id = id;
  std::uint64_t rng = 0xD1B54A32D192ED03ull ^ (static_cast<std::uint64_t>(id) + 1);
  impl& st = *pimpl_;
  for (;;) {
    detail::job* j = nullptr;
    const auto spin_end = std::chrono::steady_clock::now() + kIdleSpin;
    for (int scan = 1; (j = steal(id, rng)) == nullptr; ++scan) {
      cpu_relax();
      if (scan % 16 == 0) {
        if (std::chrono::steady_clock::now() > spin_end) break;
        // The kernel may have queued a just-woken thread on this CPU; a
        // spin that never yields would hold it off until this one parks.
        std::this_thread::yield();
      }
    }
    if (j == nullptr) {
      // Park: register, re-scan, then wait until a push wakes this worker.
      std::atomic<std::uint32_t>& state = st.park[id].state;
      state.store(kParked);
      st.num_sleepers.fetch_add(1);
      if (!st.shutdown.load() && (j = steal(id, rng)) == nullptr)
        state.wait(kParked);
      // Still kParked: no push took this worker off the count.
      if (state.exchange(kAwake) == kParked) st.num_sleepers.fetch_sub(1);
      if (st.shutdown.load()) return;
    }
    if (j != nullptr) j->run();
  }
}

}  // namespace dovetail::par
