#pragma once

// Machine-speed probe. On the shared machine the benchmark was tuned on, a
// core's speed for cache- and allocation-heavy code drifts by up to 1.5x
// from second to second (a pure register loop does not drift), and a 25 s
// run cannot average that out. The probe is a fixed kernel of the
// benchmark's own, independent of the library: short-lived heap buffers of
// varying size and table updates at pseudo-random positions. Probes run
// interleaved with a pass's work on the threads that do it, and right
// after each set-up; the end-to-end shots_per_s and setup_s are scaled from
// the probes' speed to the reference speed. A change to the library cannot
// move the probe.
#include <chrono>
#include <cstddef>
#include <map>
#include <mutex>
#include <thread>

namespace perfbench {

// Runs the probe once (about 2.5 ms) and returns probe runs per second.
[[nodiscard]] double probe_speed();

// A typical probe speed on the four-core 2.1 GHz Xeon virtual machine the
// benchmark's bounds were set on (run medians there ranged from about 295
// to 450); shots_per_s reads as the wall rate at this speed.
inline constexpr double kReferenceProbeSpeed = 350.0;

// The probes of one pass. After each unit of work (a ShotRunner block, a
// rare-event replay) a thread calls after_work(), which runs a probe when
// the thread's previous probe (or the pass start) is at least 100 ms old:
// about 2.5% of the pass. Thread-safe.
class ProbeLog {
 public:
  void after_work();
  // Mean speed of the probes run so far; when none ran (a pass shorter
  // than the interval), the speed of one probe run now.
  [[nodiscard]] double mean_speed();
  // Time spent in probes, summed over threads.
  [[nodiscard]] double seconds() const;

 private:
  using Clock = std::chrono::steady_clock;
  mutable std::mutex mutex_;
  const Clock::time_point start_ = Clock::now();
  std::map<std::thread::id, Clock::time_point> last_;
  double speed_sum_ = 0;
  double seconds_ = 0;
  size_t count_ = 0;
};

}  // namespace perfbench
