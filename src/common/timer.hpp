// Timing helpers: wall clock for the profiler and benches, and the
// calling thread's CPU clock for compute that must not be inflated by
// other processes sharing the host.
#pragma once

#include <time.h>

#include <chrono>

namespace pac {

class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double millis() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// CPU time consumed by the calling thread since construction
// (CLOCK_THREAD_CPUTIME_ID).  A co-running process can stretch wall time
// but not this, so the HealthMonitor measures compute with it: a loaded
// host must not fake a straggler.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(now()) {}

  double seconds() const { return now() - start_; }

 private:
  static double now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }

  double start_;
};

}  // namespace pac
