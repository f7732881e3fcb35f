#include "dovetail/parallel/scheduler.hpp"

#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
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
thread_local int tl_worker_limit = 0;  // 0 = no per-call cap

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
int current_worker_limit() noexcept { return tl_worker_limit; }
void set_worker_limit(int limit) noexcept { tl_worker_limit = limit; }
}  // namespace detail

struct alignas(64) worker_deque {
  std::mutex m;
  std::deque<detail::job*> q;
};

struct scheduler::impl {
  std::vector<worker_deque> deques;
  std::vector<std::thread> threads;
  std::atomic<bool> shutdown{false};
  std::atomic<std::uint64_t> wake_epoch{0};
  std::atomic<int> num_sleepers{0};
  std::mutex sleep_mu;
  std::condition_variable sleep_cv;

  explicit impl(int p) : deques(static_cast<std::size_t>(p)) {}
};

// ---------------------------------------------------------------------------
// Global instance management.
namespace {
std::mutex g_inst_mu;
std::unique_ptr<scheduler> g_inst;  // guarded by g_inst_mu for (re)creation
struct scheduler_deleter_token {};
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
  std::lock_guard<std::mutex> lk(g_inst_mu);
  if (!g_inst) g_inst = scheduler_access::make(default_num_workers());
  // The creating/calling thread acts as worker 0 if it has no identity yet.
  if (tl_worker_id < 0) tl_worker_id = 0;
  return *g_inst;
}

void scheduler::set_num_workers(int p) {
  if (p < 1) throw std::invalid_argument("set_num_workers: p must be >= 1");
  std::lock_guard<std::mutex> lk(g_inst_mu);
  g_inst.reset();  // joins all workers
  g_inst = scheduler_access::make(p);
  tl_worker_id = 0;
}

int scheduler::worker_id() noexcept { return tl_worker_id; }

// ---------------------------------------------------------------------------

scheduler::scheduler(int p) : pimpl_(new impl(p)), num_workers_(p) {
  tl_worker_id = 0;
  pimpl_->threads.reserve(static_cast<std::size_t>(p > 0 ? p - 1 : 0));
  for (int id = 1; id < p; ++id) {
    pimpl_->threads.emplace_back([this, id] { worker_loop(id); });
  }
}

scheduler::~scheduler() {
  pimpl_->shutdown.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(pimpl_->sleep_mu);
    pimpl_->sleep_cv.notify_all();
  }
  for (auto& t : pimpl_->threads) t.join();
  delete pimpl_;
}

void scheduler::push(detail::job* j) {
  int id = tl_worker_id;
  auto& d = pimpl_->deques[static_cast<std::size_t>(id)];
  {
    std::lock_guard<std::mutex> lk(d.m);
    d.q.push_back(j);
  }
  pimpl_->wake_epoch.fetch_add(1, std::memory_order_release);
  if (pimpl_->num_sleepers.load(std::memory_order_relaxed) > 0) {
    std::lock_guard<std::mutex> lk(pimpl_->sleep_mu);
    pimpl_->sleep_cv.notify_all();
  }
}

bool scheduler::pop_if_top(detail::job* j) {
  int id = tl_worker_id;
  auto& d = pimpl_->deques[static_cast<std::size_t>(id)];
  std::lock_guard<std::mutex> lk(d.m);
  if (!d.q.empty() && d.q.back() == j) {
    d.q.pop_back();
    return true;
  }
  return false;
}

detail::job* scheduler::try_get_job(int id, std::uint64_t& rng) noexcept {
  // Own deque first (LIFO for locality), then random victims (FIFO steal).
  auto& own = pimpl_->deques[static_cast<std::size_t>(id)];
  {
    std::lock_guard<std::mutex> lk(own.m);
    if (!own.q.empty()) {
      detail::job* j = own.q.back();
      own.q.pop_back();
      return j;
    }
  }
  const int p = num_workers_;
  int start = static_cast<int>(xorshift64(rng) % static_cast<std::uint64_t>(p));
  for (int k = 0; k < p; ++k) {
    int v = start + k;
    if (v >= p) v -= p;
    if (v == id) continue;
    auto& d = pimpl_->deques[static_cast<std::size_t>(v)];
    std::lock_guard<std::mutex> lk(d.m);
    if (!d.q.empty()) {
      detail::job* j = d.q.front();
      d.q.pop_front();
      return j;
    }
  }
  return nullptr;
}

void scheduler::wait_until_done(detail::job* j) {
  int id = tl_worker_id;
  std::uint64_t rng = 0x9E3779B97F4A7C15ull ^ (static_cast<std::uint64_t>(id) + 1);
  int idle_spins = 0;
  while (!j->finished()) {
    detail::job* other = try_get_job(id, rng);
    if (other != nullptr) {
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
  auto& st = *pimpl_;
  while (!st.shutdown.load(std::memory_order_acquire)) {
    detail::job* j = try_get_job(id, rng);
    if (j != nullptr) {
      j->run();
      continue;
    }
    // Brief spinning before sleeping.
    bool ran = false;
    for (int spin = 0; spin < 512 && !st.shutdown.load(std::memory_order_relaxed);
         ++spin) {
      j = try_get_job(id, rng);
      if (j != nullptr) {
        j->run();
        ran = true;
        break;
      }
      cpu_relax();
    }
    if (ran) continue;
    // Timed sleep: the 1ms timeout bounds any lost-wakeup window.
    std::uint64_t epoch = st.wake_epoch.load(std::memory_order_acquire);
    j = try_get_job(id, rng);
    if (j != nullptr) {
      j->run();
      continue;
    }
    st.num_sleepers.fetch_add(1, std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> lk(st.sleep_mu);
      st.sleep_cv.wait_for(lk, std::chrono::milliseconds(1), [&] {
        return st.shutdown.load(std::memory_order_relaxed) ||
               st.wake_epoch.load(std::memory_order_relaxed) != epoch;
      });
    }
    st.num_sleepers.fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace dovetail::par
