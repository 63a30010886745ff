#pragma once

// Shared plumbing of the repo benchmark (see perfbench/README.md): the
// zero-slack bound check, order statistics, the in-memory span tracer, and
// the report each workload fills.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "data/field.hpp"
#include "hostspeed.hpp"
#include "predictors/error_bound.hpp"
#include "util/stage_timer.hpp"

namespace perfbench {

using aesz::ErrorBound;
using aesz::Field;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (Chrome trace JSON); "" = keep
  /// them in memory only.
  std::string trace_out;
  /// Print the digest of the seeded inputs and exit (determinism test).
  bool inputs_only = false;
};

/// Passes a run makes: `seconds` over the seconds one of the workload's
/// passes stands for (see README, "Work per run"), at least one. The work
/// of a run depends on --seconds only, never on how fast the machine or the
/// program runs, so attempted and failed operations repeat exactly for a
/// seed.
inline std::size_t passes_for(double seconds, double nominal_pass_s) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(seconds / nominal_pass_s)));
}

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, idx > 0 ? idx - 1 : 0)];
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double geomean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += std::log(x);
  return v.empty() ? 0.0 : std::exp(s / static_cast<double>(v.size()));
}

inline double mb(std::size_t bytes) { return static_cast<double>(bytes) / 1e6; }

/// `f` rolled by `shift` columns along its last axis: the same field on a
/// periodic (longitude) grid, seen from another origin. Seeds move inputs
/// this way where the timestep would move compressibility as well.
inline Field roll_columns(const Field& f, std::size_t shift) {
  const std::size_t w = f.dims().d[static_cast<std::size_t>(f.dims().rank - 1)];
  Field out(f.dims());
  for (std::size_t i = 0; i < f.size(); ++i)
    out.at(i - i % w + (i % w + shift) % w) = f.at(i);
  return out;
}

/// The absolute tolerance a rel bound resolves to on `f`, the same way the
/// codecs resolve it.
inline double abs_bound(const Field& f, double rel) {
  return ErrorBound::Rel(rel).absolute(f.value_range());
}

/// Outcome of comparing a decoded field to its original in double.
struct BoundCheck {
  std::size_t violations = 0;  // elements with |x - x̂| > bound
  double max_err = 0;
  double psnr_db = 0;
  bool ok() const { return violations == 0; }
};

/// Zero slack: the contract is |x - x̂| <= bound exactly. A shape mismatch
/// counts every element as a violation.
inline BoundCheck check_bound(const Field& orig, const Field& recon,
                              double bound) {
  BoundCheck c;
  if (!(orig.dims() == recon.dims())) {
    c.violations = std::max<std::size_t>(orig.size(), 1);
    return c;
  }
  double sq = 0;
  for (std::size_t i = 0; i < orig.size(); ++i) {
    const double e = std::fabs(static_cast<double>(orig.at(i)) -
                               static_cast<double>(recon.at(i)));
    if (!(e <= bound)) ++c.violations;
    c.max_err = std::max(c.max_err, e);
    sq += e * e;
  }
  const double range = orig.value_range();
  const double mse = orig.size() ? sq / static_cast<double>(orig.size()) : 0;
  c.psnr_db = mse > 0 ? 20 * std::log10(range) - 10 * std::log10(mse) : 999;
  return c;
}

/// Call times of a fixed set of operations, normalized to the host's
/// momentary speed (hostspeed.hpp). Each pass repeats the same operations
/// on the same inputs. An operation's figure is the median of its
/// normalized calls, taken over the calls made while the host ran near its
/// best speed of the run when there are any: the kernel tracks the codecs'
/// slowdown only roughly, so the less a call is scaled, the better. Wrap
/// each call in begin() / end().
class OpTimes {
 public:
  void begin() {
    refresh();
    p0_ = probe_;
    t0_ = now_s();
  }

  /// End the call begun last as operation `op` (a stable index within the
  /// pass) of `group` (a workload-defined id such as "AE-SZ compress"),
  /// having processed `mb` MB. Returns the call's raw seconds.
  double end(std::size_t op, int group, double mb) {
    const double s = now_s() - t0_;
    refresh();
    if (op >= ops_.size()) ops_.resize(op + 1);
    Op& o = ops_[op];
    o.group = group;
    o.mb = mb;
    const double p = 0.5 * (p0_ + probe_);
    o.calls.push_back({s * kHostNominalS / p, p});
    best_probe_ = std::min(best_probe_, p);
    return s;
  }

  /// MB over the summed seconds of a group's operations.
  double mb_per_s(int group) const { return sum(group, true) / sum(group, false); }

  /// Operations per second of the summed operation time of `groups`.
  double ops_per_s(std::initializer_list<int> groups) const {
    double n = 0, t = 0;
    for (int g : groups) {
      for (const Op& o : ops_) n += o.group == g;
      t += sum(g, false);
    }
    return n / t;
  }

  /// Milliseconds of every call, for latency percentiles.
  std::vector<double> call_ms() const {
    std::vector<double> out;
    for (const Op& o : ops_)
      for (const Call& c : o.calls) out.push_back(c.norm_s * 1e3);
    return out;
  }

 private:
  struct Call {
    double norm_s;
    double probe_s;
  };
  struct Op {
    int group = -1;
    double mb = 0;
    std::vector<Call> calls;
  };

  // Median normalized seconds of `o`, over its calls within 20% of the
  // run's best probe if it has any.
  double seconds(const Op& o) const {
    std::vector<double> fast, all;
    for (const Call& c : o.calls) {
      all.push_back(c.norm_s);
      if (c.probe_s <= 1.2 * best_probe_) fast.push_back(c.norm_s);
    }
    return median(fast.empty() ? all : fast);
  }

  // Summed MB (or seconds) of a group's operations.
  double sum(int group, bool megabytes) const {
    double t = 0;
    for (const Op& o : ops_)
      if (o.group == group) t += megabytes ? o.mb : seconds(o);
    return t;
  }

  // Probe at most every 20 ms: host speed swings last seconds, and a probe
  // costs about 0.5 ms. The lesser of two runs sheds interrupts.
  void refresh() {
    const double now = now_s();
    if (now - probed_at_ < 0.02) return;
    probe_ = std::min(host_probe_s(), host_probe_s());
    probed_at_ = now_s();
  }

  std::vector<Op> ops_;
  double t0_ = 0, p0_ = 0, probe_ = 0, probed_at_ = -1e9;
  double best_probe_ = 1e9;
};

/// Spans recorded from the benchmark's own code around calls into the
/// program's public layer APIs, with the process-wide stage accumulators
/// (prof::snapshot) read at both ends. One Tracer per thread; kept in
/// memory and written out when the run ends. A disabled Tracer records
/// nothing and costs one branch per call.
class Tracer {
 public:
  struct Span {
    const char* name;  // static storage
    int parent;        // index of the enclosing span, -1 = none
    double t0, t1;
    aesz::prof::StageTimes s0, s1;
    double stage_s() const {
      return (s1.predict - s0.predict) + (s1.quantize - s0.quantize) +
             (s1.entropy - s0.entropy) + (s1.inference - s0.inference);
    }
    double dur() const { return t1 - t0; }
  };

  explicit Tracer(bool on = false, int tid = 0) : on_(on), tid_(tid) {}

  bool on() const { return on_; }

  int begin(const char* name) {
    if (!on_) return -1;
    Span s{name, open_.empty() ? -1 : open_.back(), 0, 0,
           aesz::prof::snapshot(), {}};
    s.t0 = now_s();
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.t1 = now_s();
    s.s1 = aesz::prof::snapshot();
    open_.pop_back();
  }

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  int tid() const { return tid_; }

 private:
  bool on_;
  int tid_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Per-name totals over the spans of one or more tracers.
struct SpanStats {
  std::size_t count = 0;
  double total_s = 0;   // summed durations
  double self_s = 0;    // durations minus the child spans they enclose
  double stage_s = 0;   // codec-stage time billed inside the spans
  aesz::prof::StageTimes stages{};
  std::vector<double> dur_ms;

  SpanStats& operator+=(const SpanStats& o) {
    count += o.count;
    total_s += o.total_s;
    self_s += o.self_s;
    stage_s += o.stage_s;
    stages.predict += o.stages.predict;
    stages.quantize += o.stages.quantize;
    stages.entropy += o.stages.entropy;
    stages.inference += o.stages.inference;
    dur_ms.insert(dur_ms.end(), o.dur_ms.begin(), o.dur_ms.end());
    return *this;
  }

  double p50_ms() const { return median(dur_ms); }
  /// Share of the span time no stage accumulator claims.
  double unattributed_frac() const {
    return total_s > 0 ? (total_s - stage_s) / total_s : 0.0;
  }
};

inline std::map<std::string, SpanStats> aggregate(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, SpanStats> out;
  for (const Tracer* t : tracers) {
    const auto& spans = t->spans();
    std::vector<double> child_s(spans.size(), 0.0);
    for (const auto& s : spans)
      if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += s.dur();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      SpanStats& a = out[s.name];
      ++a.count;
      a.total_s += s.dur();
      a.self_s += s.dur() - child_s[i];
      a.stage_s += s.stage_s();
      a.stages.predict += s.s1.predict - s.s0.predict;
      a.stages.quantize += s.s1.quantize - s.s0.quantize;
      a.stages.entropy += s.s1.entropy - s.s0.entropy;
      a.stages.inference += s.s1.inference - s.s0.inference;
      a.dur_ms.push_back(s.dur() * 1e3);
    }
  }
  return out;
}

/// Chrome trace-event JSON of every span; false when `path` cannot be
/// written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers);

/// What one run of a workload reports: operation counts and named metrics.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when the run could not vouch for its own figures: a repeated
  /// pass produced different bytes or a different failure count than the
  /// first pass. Bound violations and error responses are not this; they
  /// count in `failed`.
  bool correct = true;
  std::map<std::string, double> metrics;  // units live in main.cpp
  /// Extra JSON rows printed before the result line (per-cell detail,
  /// per-pass counts).
  std::vector<std::string> detail;

  void put(const std::string& name, double value) { metrics[name] = value; }
};

/// A detail row {"row": name, key: value, ...}; values print with every
/// digit so that figures meant to repeat exactly can be compared as text.
std::string detail_row(const char* name,
                       std::initializer_list<std::pair<const char*, double>> kv);

/// One workload. `run` sets up (repeatedly, timed), measures for
/// args.seconds and fills the report; `digest` hashes the seeded inputs
/// without running anything.
struct Workload {
  const char* name;
  std::function<std::uint32_t(std::uint64_t seed)> digest;
  std::function<void(const Args&, Report&)> run;
};

Workload archive_workload();
Workload service_workload();
Workload timeseries_workload();

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// CRC32C of a field's float bytes, for input digests.
std::uint32_t field_crc(const Field& f, std::uint32_t seed);

/// Median milliseconds to CRC32C `blobs` (the util layer's seal cost on the
/// bytes a workload produced).
double crc_ms(const std::vector<std::vector<std::uint8_t>>& blobs);

/// AE-SZ training epochs of the archive set-up (fixed, like its seed).
inline constexpr std::size_t kTrainEpochs = 4;

/// Set-up runs per measured run; setup_s is their median.
inline constexpr int kSetups = 3;

/// Runs `setup` kSetups times and returns the median of their wall seconds,
/// each normalized by the host-speed kernel run just before and just after
/// it; `setup` replaces its state each time, so the last run's state is
/// what the measurement uses.
double timed_setups(const std::function<void()>& setup);

}  // namespace perfbench
