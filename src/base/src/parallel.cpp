#include "soidom/base/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace soidom {

unsigned hardware_thread_count() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

void parallel_for(unsigned threads, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (threads == 0) threads = hardware_thread_count();
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  // First failure by item index, so rethrow order is schedule-independent.
  std::mutex error_mutex;
  std::exception_ptr error;
  std::size_t error_item = 0;
  const auto drain = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      {
        // After a failure, claim-and-skip the higher items: the range
        // still terminates and the lowest-index error wins.
        std::lock_guard<std::mutex> lock(error_mutex);
        if (error && i > error_item) continue;
      }
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error || i < error_item) {
          error = std::current_exception();
          error_item = i;
        }
      }
    }
  };

  {
    // jthread joins on destruction, so every helper is joined before the
    // state above goes away, on an exception path too.
    std::vector<std::jthread> helpers;
    const std::size_t workers = std::min<std::size_t>(threads, n);
    helpers.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      // When the system refuses another thread, the workers already
      // started (and the caller) drain the range.
      try {
        helpers.emplace_back(drain);
      } catch (const std::system_error&) {
        break;
      }
    }
    drain();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace soidom
