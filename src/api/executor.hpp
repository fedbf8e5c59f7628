#pragma once
// Job executor every Study runs its DAG on: a fixed-width worker pool.
//
// A Study without StudyOptions::executor builds a private pool; a host
// process (the serve daemon, perfbench) passes one long-lived pool so many
// Studies share its workers. The Study only needs fire-and-forget
// submission — DAG ordering is the Study's own bookkeeping (a job is
// submitted only once its dependencies finished), and completion is
// observed through the submitted closures themselves. Tasks never block on
// other tasks, so a pool of any width >= 1 makes progress and several
// concurrent Studies can interleave their jobs on the same workers without
// deadlock.

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace netsmith::api {

// submit() enqueues and never runs inline (the caller may hold locks) nor
// drops a task; the destructor drains every queued task, then joins.
class SharedPool {
 public:
  // width <= 0 picks hardware concurrency (min 1); see resolve_width.
  explicit SharedPool(int width = 0);
  ~SharedPool();
  SharedPool(const SharedPool&) = delete;
  SharedPool& operator=(const SharedPool&) = delete;

  void submit(std::function<void()> task);
  int width() const { return static_cast<int>(workers_.size()); }
  // The width a pool built with `width` gets.
  static int resolve_width(int width);

 private:
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace netsmith::api
