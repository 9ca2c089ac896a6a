// Shared plumbing of the whole-request benchmark: options, timing,
// in-memory spans written as Chrome trace-event JSON, the metric
// catalogue (names, units, and which end-to-end metric each layer metric
// should move), and the small numeric helpers the workloads share.
//
// The benchmark measures every layer from outside: it times calls into
// the public functions of tiling, runtime, verify, mpisim, apps and
// cluster, and reads the counters those modules already expose.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/checked_int.hpp"

namespace ctile {
struct PlanPhaseTimes;
}

namespace perfbench {

using ctile::i64;
using ctile::u64;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;  ///< measured closed-loop time
  bool trace = false;     ///< per-layer run (spans + layer metrics)
  bool smoke = false;     ///< small paper-default spaces (self-test)
  std::string out_dir;    ///< traces and untraced summaries go here
  std::string commit = "unknown";
};

/// Spans around every call into a layer, kept in memory and written at
/// exit.  One client thread records them, so a stack gives each span its
/// parent.  When tracing is off a scope costs one branch.
class Tracer {
 public:
  explicit Tracer(bool on);

  bool on() const { return on_; }
  /// Request id stamped on every span opened from now on.
  void set_request(i64 id) { request_ = id; }

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  /// Write {"traceEvents": [...], "metadata": {...}} (complete "X"
  /// events, microseconds) and return the number of events written.
  /// Throws ctile::Error on I/O failure.
  std::size_t write_chrome(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& meta) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    i64 id = 0;
    i64 parent = -1;
    i64 request = -1;
  };

  double now_us() const;

  bool on_;
  Clock::time_point origin_;
  i64 request_ = -1;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// One metric as BENCHMARK.json names it; layer metrics also name the
/// end-to-end metric and workload they should move and the base of any
/// ratio.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* moves;
  const char* base;
};

const std::vector<MetricDef>& end_to_end_defs();
const std::vector<MetricDef>& per_layer_defs();

/// What one workload run produced.  `e2e` and `layers` are keyed by the
/// catalogue names; a layer metric the workload's path never reaches is
/// left out of `layers` and reported as 0, marked "not on this path".
struct Outcome {
  i64 attempted = 0;
  i64 failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  /// Headline numbers of the untraced run, saved so the traced run on
  /// the same seed can report its own overhead against them.
  std::map<std::string, double> headline;

  /// Count one failed operation and say why on stderr.
  void fail(const std::string& why);
};

/// Store the lowering-phase layer metrics: `total` summed over `plans`
/// lowered plans, reported as the mean per plan.
void record_lowering_phases(Outcome& out, const ctile::PlanPhaseTimes& total,
                            double plans);

// ---- Numeric helpers.

double median(std::vector<double> xs);
/// p in [0, 100], linear interpolation between closest ranks.
double percentile(std::vector<double> xs, double p);
double mean(const std::vector<double>& xs);
double geomean(const std::vector<double>& xs);

/// 64-bit digest of a double array's exact bits (bitwise-equality
/// witness; a collision needs ~2^32 distinct arrays).
u64 digest_doubles(const double* data, std::size_t n);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();
/// CPU seconds of every thread of this process so far.
double process_cpu_seconds();
unsigned hardware_threads();
std::string cpu_model();

/// Smallest tile size s such that [lo, hi] spans exactly `parts` tile
/// indices under floor(j / s) (the figures' fixed-mesh fitting).
i64 fit_parts(i64 lo, i64 hi, i64 parts);

std::string json_escape(const std::string& s);
/// All digits of a double, as JSON (non-finite values become null).
std::string json_number(double v);

/// Print "  name  value unit" lines with a common layout.
void print_metric(const std::string& name, double value,
                  const std::string& unit, const std::string& note = "");

// ---- Workloads.

Outcome run_exec_workload(const Options& opt, Tracer& tracer);
Outcome run_plan_service(const Options& opt, Tracer& tracer);
Outcome run_shape_search(const Options& opt, Tracer& tracer);

}  // namespace perfbench
