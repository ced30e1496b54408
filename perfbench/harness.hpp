// Measurement plumbing shared by the benchmark's workloads: the metric
// report (printed as one JSON line), tail percentiles with their sample
// support, process CPU / memory readings, CPU pinning and idle polling,
// and the in-memory span log.
//
// Every span is recorded here, by the benchmark, around calls into the
// library's public surface — nothing under src/ is instrumented.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/util.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double secondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// User + system CPU seconds of the whole process (every thread).
inline double processCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Peak resident set of the process, in MiB (Linux reports KiB).
inline double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

inline double median(std::vector<double> v) { return fsw::percentile(v, 0.5); }

/// A high percentile that the sample supports: the wanted quantile when at
/// least ten samples lie beyond it, otherwise the highest quantile (in
/// steps of 0.001) that still has ten beyond it. `q` and `n` say which
/// percentile was reported and over how many samples.
struct Tail {
  double value = 0.0;
  double q = 0.0;
  std::size_t n = 0;
};

inline Tail supportedTail(const std::vector<double>& v, double want = 0.99) {
  Tail t;
  t.n = v.size();
  const double n = static_cast<double>(v.size());
  t.q = want;
  if (n * (1.0 - want) < 10.0) {
    t.q = n > 20.0 ? std::floor((1.0 - 10.0 / n) * 1000.0) / 1000.0 : 0.5;
  }
  t.value = fsw::percentile(v, t.q);
  return t;
}

/// Latency percentiles taken per interval of time: the reported p50 and
/// p99 are the medians over the intervals of each interval's p50 and p99.
/// A burst of stolen CPU on a shared host moves the intervals it falls in,
/// not the run's figure; a slowdown or stall that recurs in most intervals
/// moves it. The window is cut into whole intervals of `intervalS` (at
/// least one); samples past the last boundary join the last interval. `q`
/// is the tail quantile every interval supports (see supportedTail); `n`
/// counts every sample.
struct IntervalFigures {
  Tail p50;
  Tail p99;
  std::vector<double> p50s;  ///< per interval, in time order
  std::vector<double> p99s;
};

inline IntervalFigures intervalFigures(const std::vector<double>& latMs,
                                       const std::vector<double>& atS,
                                       double windowS, double intervalS) {
  const auto count = static_cast<std::size_t>(
      std::max(1.0, std::floor(windowS / intervalS + 1e-9)));
  std::vector<std::vector<double>> buckets(count);
  for (std::size_t i = 0; i < latMs.size(); ++i) {
    const auto b = static_cast<std::size_t>(std::max(0.0, atS[i] / intervalS));
    buckets[std::min(b, count - 1)].push_back(latMs[i]);
  }
  IntervalFigures f;
  f.p99.q = 1.0;
  for (const auto& v : buckets) {
    if (v.empty()) continue;
    f.p50s.push_back(fsw::percentile(v, 0.5));
    const Tail t = supportedTail(v, 0.99);
    f.p99s.push_back(t.value);
    f.p99.q = std::min(f.p99.q, t.q);
  }
  f.p50 = Tail{median(f.p50s), 0.5, latMs.size()};
  f.p99.value = median(f.p99s);
  f.p99.n = latMs.size();
  return f;
}

/// The CPUs the calling thread may run on, lowest first.
inline std::vector<int> allowedCpus() {
  std::vector<int> cpus;
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Confines the calling thread, and every thread started while the guard
/// lives (a thread inherits its creator's CPU mask), to the lowest CPU the
/// caller may run on. The destructor gives the calling thread its mask
/// back; threads started meanwhile keep the one CPU for their lifetime.
/// Does nothing when `enabled` is false or the mask cannot be changed.
class OneCpu {
 public:
  explicit OneCpu(bool enabled) {
    const std::vector<int> cpus = allowedCpus();
    if (!enabled || cpus.empty() ||
        sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus.front(), &one);
    active_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~OneCpu() {
    if (active_) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool active_ = false;
};

/// A spin-wait hint to the CPU (x86 `pause`, Arm `yield`).
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  __asm__ __volatile__("yield");
#endif
}

/// Keeps CPUs from halting while it lives: one thread per CPU, bound to
/// it at SCHED_IDLE, polls a flag (cpuRelax), the user-space analogue of
/// booting with idle=poll. Any other thread that wakes on the CPU preempts
/// its poller at once. On a VM a halted vCPU runs again only when its host
/// schedules it, and under host load that wait, charged as steal, set the
/// benchmark's latency and throughput more than the program did
/// (README.md, "Why the timed window keeps its CPUs awake"). A poller that cannot drop to SCHED_IDLE
/// exits instead of competing with the program. The pollers' CPU time is
/// not the program's: cpuSeconds() is subtracted from the process's.
class IdlePollers {
 public:
  explicit IdlePollers(const std::vector<int>& cpus) {
    for (const int cpu : cpus) {
      threads_.emplace_back([this, cpu] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_param idle{};
        if (sched_setaffinity(0, sizeof(one), &one) != 0 ||
            sched_setscheduler(0, SCHED_IDLE, &idle) != 0) {
          return;
        }
        active_.fetch_add(1);
        while (!stop_.load(std::memory_order_relaxed)) cpuRelax();
      });
    }
  }
  ~IdlePollers() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  IdlePollers(const IdlePollers&) = delete;
  IdlePollers& operator=(const IdlePollers&) = delete;

  /// CPU seconds the pollers have used so far.
  [[nodiscard]] double cpuSeconds() {
    double total = 0.0;
    for (std::thread& t : threads_) {
      clockid_t clock{};
      timespec ts{};
      if (pthread_getcpuclockid(t.native_handle(), &clock) == 0 &&
          clock_gettime(clock, &ts) == 0) {
        total += static_cast<double>(ts.tv_sec) +
                 static_cast<double>(ts.tv_nsec) * 1e-9;
      }
    }
    return total;
  }

  [[nodiscard]] int active() const { return active_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> active_{0};
  std::vector<std::thread> threads_;
};

/// CPU seconds of the process minus its idle pollers (when any).
inline double programCpuSeconds(IdlePollers* pollers) {
  const double pollerCpu = pollers != nullptr ? pollers->cpuSeconds() : 0.0;
  return processCpuSeconds() - pollerCpu;
}

/// Safe ratio: 0 when the base is 0 (the layer saw no such work).
inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A metric the benchmark promises to print (BENCHMARK.json lists the same
/// names and units).
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics as measured (each also echoed to the human-readable log), plus
/// the outcome counts of the run.
struct Report {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;

  void add(std::string name, double value, std::string unit) {
    std::printf("  %-32s %.6g %s\n", name.c_str(), value, unit.c_str());
    metrics.push_back({std::move(name), value, std::move(unit)});
  }

  /// A ratio, logged with the counts it was taken over.
  void addRatio(const std::string& name, double num, double den,
                const std::string& unit = "frac") {
    std::printf("  %-32s %.6g %s  (%.0f / %.0f)\n", name.c_str(),
                ratio(num, den), unit.c_str(), num, den);
    metrics.push_back({name, ratio(num, den), unit});
  }

  /// The last stdout line: {"correct", "attempted", "failed", "metrics"},
  /// with exactly the catalogue's metrics. A catalogue metric this run did
  /// not measure — its layer is not on this workload's path — reads 0.
  void printJson(const std::vector<MetricSpec>& catalogue) const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < catalogue.size(); ++i) {
      const MetricSpec& spec = catalogue[i];
      double v = 0.0;
      for (const Metric& m : metrics) {
        if (m.name != spec.name) continue;
        if (m.unit != spec.unit) {
          std::fprintf(stderr, "metric %s measured in %s, promised in %s\n",
                       spec.name, m.unit.c_str(), spec.unit);
          std::abort();
        }
        v = std::isfinite(m.value) ? m.value : 0.0;
      }
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", spec.name, v, spec.unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

/// One timed interval. `parent` and `request` are -1 when absent; times
/// are nanoseconds since the span log's origin.
struct Span {
  std::string name;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::int64_t parent = -1;
  std::int64_t request = -1;
};

/// Spans kept in memory during the run (thread-safe appends) and written
/// out as TSV when the run ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  std::int64_t add(std::string name, Clock::time_point start,
                   Clock::time_point end, std::int64_t parent = -1,
                   std::int64_t request = -1) {
    Span s{std::move(name), ns(start), ns(end), parent, request};
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// id, name, start_us, end_us, parent, request — one span per line.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "id\tname\tstart_us\tend_us\tparent\trequest\n";
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << '\t' << s.name << '\t' << s.startNs / 1000 << '\t'
          << s.endNs / 1000 << '\t' << s.parent << '\t' << s.request << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
