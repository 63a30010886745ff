// perfbench — the repo benchmark (see perfbench/README.md).
//
//   perfbench --workload archive|service|timeseries --seed N --seconds S
//             --trace 0|1 [--trace-out PATH] [--inputs-only]
//
// Prints a meta row and per-workload detail rows (one JSON object per
// line), then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common.hpp"
#include "util/cpu.hpp"
#include "util/crc32c.hpp"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload reports every one of these (BENCHMARK.json "end_to_end").
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"write_mb_s", "MB/s"},
    {"read_mb_s", "MB/s"},     {"stored_ratio", "ratio"},
    {"req_p50_ms", "ms"},      {"req_p90_ms", "ms"},
    {"req_per_s", "1/s"},
};

// BENCHMARK.json "per_layer". A layer a workload does not call reports 0.
const MetricDef kPerLayer[] = {
    // archive, per codec (end-to-end in spirit; see README "renamed")
    {"aesz_compress_mb_s", "MB/s"},
    {"aesz_decompress_mb_s", "MB/s"},
    {"sz21_compress_mb_s", "MB/s"},
    {"sz21_decompress_mb_s", "MB/s"},
    {"zfp_compress_mb_s", "MB/s"},
    {"zfp_decompress_mb_s", "MB/s"},
    {"aesz_ratio", "ratio"},
    {"sz21_ratio", "ratio"},
    {"preview_ms", "ms"},
    // nn, core
    {"nn.inference_s", "s"},
    {"core.train_s", "s"},
    {"core.ae_fraction", "ratio"},
    {"core.quantize_s", "s"},
    {"core.latent_bytes", "bytes"},
    {"core.code_bytes", "bytes"},
    {"core.unattributed_frac", "ratio"},
    // sz, predictors, lossless
    {"sz.predict_s", "s"},
    {"sz.compress_ms_p50", "ms"},
    {"sz.decompress_ms_p50", "ms"},
    {"sz.unattributed_frac", "ratio"},
    {"lossless.entropy_s.aesz", "s"},
    {"lossless.entropy_s.sz21", "s"},
    // zfp
    {"zfp.compress_ms_p50", "ms"},
    {"zfp.unattributed_frac", "ratio"},
    {"zfp.ratio", "ratio"},
    // metrics
    {"metrics.psnr_db.aesz", "dB"},
    {"metrics.psnr_db.sz21", "dB"},
    {"metrics.psnr_db.zfp", "dB"},
    {"metrics.bound_use.aesz", "ratio"},
    {"metrics.bound_use.sz21", "ratio"},
    {"metrics.bound_use.zfp", "ratio"},
    // service
    {"service.client_ms_p50", "ms"},
    {"service.handle_frame_ms_p50", "ms"},
    {"service.bare_codec_ms_p50", "ms"},
    {"service.queue_wait_ms_p50", "ms"},
    {"service.server_compress_ms_p50", "ms"},
    {"service.tax_frac", "ratio"},
    {"service.dispatch_frac", "ratio"},
    {"service.transport_frac", "ratio"},
    {"service.unattributed_frac", "ratio"},
    {"service.bytes_per_req", "bytes"},
    // temporal
    {"temporal.append_ms_intra", "ms"},
    {"temporal.append_ms_residual", "ms"},
    {"temporal.residual_share", "ratio"},
    {"temporal.read_ms_p50", "ms"},
    {"temporal.overhead_vs_bare", "ratio"},
    {"temporal.unattributed_frac", "ratio"},
    // progressive
    {"progressive.encode_ms_p50", "ms"},
    {"progressive.read0_ms_p50", "ms"},
    {"progressive.refine_ms_p50", "ms"},
    {"progressive.layer0_frac", "ratio"},
    {"progressive.overhead_vs_flat", "ratio"},
    {"progressive.truncate_us", "us"},
    {"progressive.unattributed_frac", "ratio"},
    // util, data, process, harness
    {"util.crc_ms", "ms"},
    {"data.synth_s", "s"},
    {"mem.peak_rss_mb", "MB"},
    {"bench.self_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "archive|service|timeseries --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH] [--inputs-only]\n",
               msg);
  return 2;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_meta(const Args& a) {
  const char* commit = std::getenv("PERFBENCH_COMMIT");
#ifdef NDEBUG
  const char* build = "release";
#else
  const char* build = "debug";
#endif
  std::printf(
      "{\"row\":\"meta\",\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"nproc\":%u,\"omp_threads_timed\":1,"
      "\"omp_threads_setup\":1,\"server_workers\":1,\"simd\":\"%s\","
      "\"build_type\":\"%s\",\"epochs\":%zu,\"setups\":%d,\"commit\":\"%s\"}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      num(a.seconds).c_str(), a.trace ? 1 : 0,
      std::thread::hardware_concurrency(), aesz::util::cpu_dispatch_tier(),
      build, kTrainEpochs, kSetups, commit ? commit : "unknown");
}

}  // namespace

std::string detail_row(
    const char* name,
    std::initializer_list<std::pair<const char*, double>> kv) {
  std::string out = std::string("{\"row\":\"") + name + "\"";
  for (const auto& [k, v] : kv) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += std::string(",\"") + k + "\":" + buf;
  }
  return out + "}";
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) return false;
  double t_min = 1e300;
  for (const Tracer* t : tracers)
    for (const auto& s : t->spans()) t_min = std::min(t_min, s.t0);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Tracer* t : tracers) {
    for (const auto& s : t->spans()) {
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << t->tid()
          << ",\"ts\":" << num((s.t0 - t_min) * 1e6)
          << ",\"dur\":" << num(s.dur() * 1e6)
          << ",\"args\":{\"stage_us\":" << num(s.stage_s() * 1e6) << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint32_t field_crc(const Field& f, std::uint32_t seed) {
  return aesz::util::crc32c(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(f.data()),
          f.size() * sizeof(float)),
      seed);
}

double crc_ms(const std::vector<std::vector<std::uint8_t>>& blobs) {
  std::vector<double> ms;
  std::uint32_t sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const double t0 = now_s();
    for (const auto& b : blobs) sink ^= aesz::util::crc32c(b);
    ms.push_back((now_s() - t0) * 1e3);
  }
  // Keep the loop observable so it is not folded away.
  if (sink == 0x12345678u) std::fprintf(stderr, "crc sink\n");
  return median(ms);
}

double timed_setups(const std::function<void()>& setup) {
  std::vector<double> s;
  // Host speed swings for minutes at a time, longer than a run, so plain
  // wall time moved the median of ten runs by up to 40% from one set of
  // runs to the next.
  for (int i = 0; i < kSetups; ++i) {
    const double p0 = std::min(host_probe_s(), host_probe_s());
    const double t0 = now_s();
    setup();
    const double t = now_s() - t0;
    const double p1 = std::min(host_probe_s(), host_probe_s());
    s.push_back(t * kHostNominalS / (0.5 * (p0 + p1)));
  }
  return median(s);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--inputs-only") {
      a.inputs_only = true;
    } else if (!has_value) {
      return usage(("missing value for " + k).c_str());
    } else if (k == "--workload") {
      a.workload = argv[++i];
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = a.seconds > 0;
    } else if (k == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (k == "--trace-out") {
      a.trace_out = argv[++i];
    } else {
      return usage(("unknown argument " + k).c_str());
    }
  }
  if (!have_workload || !have_seed)
    return usage("--workload and --seed are required");
  if (!a.inputs_only && (!have_seconds || !have_trace))
    return usage("--seconds (> 0) and --trace are required");

  const Workload workloads[] = {archive_workload(), service_workload(),
                                timeseries_workload()};
  const Workload* w = nullptr;
  for (const auto& c : workloads)
    if (a.workload == c.name) w = &c;
  if (!w) return usage(("unknown workload " + a.workload).c_str());

  if (a.inputs_only) {
    std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"inputs_crc32c\":%u}\n",
                w->name, static_cast<unsigned long long>(a.seed),
                w->digest(a.seed));
    return 0;
  }

  // Perf targets are single-thread numbers: one OpenMP thread for set-up
  // and for the timed region alike.
#ifdef _OPENMP
  omp_set_num_threads(1);
#endif
  print_meta(a);
  Report r;
  try {
    w->run(a, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", w->name, e.what());
    return 1;
  }
  for (const auto& row : r.detail) std::printf("%s\n", row.c_str());

  std::string metrics;
  const auto emit = [&](const MetricDef& d, bool required) {
    const auto it = r.metrics.find(d.name);
    if (it == r.metrics.end() && required) {
      std::fprintf(stderr, "perfbench: %s did not report %s\n", w->name,
                   d.name);
      return false;
    }
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: %s reported non-finite %s\n",
                   w->name, d.name);
      return false;
    }
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + d.name +
               "\": {\"value\": " + num(v) + ", \"unit\": \"" + d.unit +
               "\"}";
    return true;
  };
  bool ok = true;
  if (a.trace) {
    for (const auto& d : kPerLayer) ok = emit(d, false) && ok;
  } else {
    for (const auto& d : kEndToEnd) ok = emit(d, true) && ok;
  }
  if (!ok || r.attempted == 0) return 1;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
