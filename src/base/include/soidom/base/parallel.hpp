/// \file parallel.hpp
/// One parallel loop over a flat index range.
///
/// `parallel_for` starts its workers, runs the range and joins them; there
/// is no persistent pool.  Items are claimed dynamically from a shared
/// atomic counter, so callers that need deterministic output must write
/// results into per-item slots and merge them in item order afterwards.
///
/// Exceptions thrown by the callback are captured per item; the range
/// still drains (items with a higher index than the recorded failure are
/// skipped) and the failure with the LOWEST index is rethrown after the
/// drain, so error reporting is reproducible regardless of thread
/// scheduling.
#pragma once

#include <cstddef>
#include <functional>

namespace soidom {

/// Run `fn(i)` for every i in [0, n), blocking until all items finish.
/// `threads` counts the calling thread, which takes part; 0 = auto
/// (hardware concurrency, at least 1).  At most min(threads, n) workers run, so a
/// large `threads` never starts a thread without an item to run.  With
/// `threads <= 1` or `n <= 1` every item runs inline and no thread is
/// created.  Thread-local state of the caller (e.g. an installed guard)
/// is not inherited by the other workers.
void parallel_for(unsigned threads, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace soidom
