// archive — the paper's own measurement (Table VIII, Figs. 8 and 10): one
// in-process Compressor::compress/decompress round trip at a time, from a
// single thread, for AE-SZ, SZ2.1 and ZFP on the CESM-CLDHGH (2-D,
// 192x384) and Hurricane-U (3-D, 32x80x80) test snapshots at rel 1e-2,
// 1e-3 and 1e-4. Nearly all time lands in the codec kernels; the bound
// switches AE-SZ between its AE path (Hurricane-U at 1e-2) and Lorenzo.

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/aesz.hpp"
#include "core/model_zoo.hpp"
#include "data/synth.hpp"
#include "predictors/registry.hpp"

namespace perfbench {
namespace {

using aesz::AESZ;
using aesz::Compressor;

constexpr double kBounds[] = {1e-2, 1e-3, 1e-4};

// SZ2.1 and ZFP round trips per AE-SZ round trip. Their calls are ~100x
// cheaper; repeating them keeps each codec's samples spread over the whole
// run, so machine noise hits all three alike.
constexpr int kFastReps = 8;

// Seconds of --seconds one pass stands for: a run makes
// passes_for(--seconds, kNominalPassS) passes (see README, "Work per run").
constexpr double kNominalPassS = 4.0;

enum CodecId { kAESZ = 0, kSZ21, kZFP, kCodecs };
const char* const kCodecName[kCodecs] = {"AE-SZ", "SZ2.1", "ZFP"};
const char* const kCompressSpan[kCodecs] = {"core.compress", "sz.compress",
                                            "zfp.compress"};
const char* const kDecompressSpan[kCodecs] = {
    "core.decompress", "sz.decompress", "zfp.decompress"};

// Table VII split: training snapshots from early timesteps, the test
// snapshot from the held-out range; the seed picks which held-out step.
struct Dataset {
  std::string name;
  std::vector<Field> train;
  Field test;
  // Training blocks drawn from the split. Hurricane-U needs 256 for its AE
  // to win blocks at rel 1e-2 after kTrainEpochs; the 2-D model stays
  // small because 32x32 blocks cost ~4x more per epoch.
  std::size_t train_blocks;
};

Dataset cesm(std::uint64_t seed) {
  Dataset d{"CESM-CLDHGH", {}, {}, 64};
  for (int t : {5, 10, 15, 20, 25, 30, 35, 40, 45, 49})
    d.train.push_back(aesz::synth::cesm_cldhgh(192, 384, t));
  d.test = aesz::synth::cesm_cldhgh(192, 384, 50 + static_cast<int>(seed % 10));
  return d;
}

Dataset hurricane(std::uint64_t seed) {
  Dataset d{"Hurricane-U", {}, {}, 256};
  for (int t : {10, 30})
    d.train.push_back(aesz::synth::hurricane_u(32, 80, 80, t));
  d.test = aesz::synth::hurricane_u(32, 80, 80, 40 + static_cast<int>(seed % 8));
  return d;
}

struct State {
  std::vector<Dataset> data;
  // codecs[dataset][codec]
  std::vector<std::vector<std::unique_ptr<Compressor>>> codecs;
  double synth_s = 0;
  double train_s = 0;
};

std::unique_ptr<State> setup(std::uint64_t seed) {
  auto st = std::make_unique<State>();
  double t0 = now_s();
  st->data.push_back(cesm(seed));
  st->data.push_back(hurricane(seed));
  st->synth_s = now_s() - t0;

  aesz::TrainOptions opt;
  opt.epochs = kTrainEpochs;
  opt.batch = 8;
  opt.lr = 2e-3f;
  t0 = now_s();
  for (const Dataset& d : st->data) {
    opt.max_blocks = d.train_blocks;
    auto ae = std::make_unique<AESZ>(aesz::model_zoo::options_for(d.name),
                                     /*seed=*/53);
    std::vector<const Field*> train;
    for (const Field& f : d.train) train.push_back(&f);
    ae->train(train, opt);
    std::vector<std::unique_ptr<Compressor>> row;
    row.push_back(std::move(ae));
    const int rank = d.test.dims().rank;
    for (const char* name : {"SZ2.1", "ZFP"})
      row.push_back(aesz::CodecRegistry::instance().create(name, rank).value());
    st->codecs.push_back(std::move(row));
  }
  st->train_s = now_s() - t0;
  return st;
}

// Per-codec bytes over a run.
struct CodecTotals {
  std::size_t orig_bytes = 0, stream_bytes = 0;
};

// OpTimes groups: compress of codec c is group c, decompress kCodecs + c.
constexpr int decompress_group(int c) { return kCodecs + c; }

// Per-cell result of the first pass (deterministic: later passes must
// reproduce its stream size and violation count).
struct Cell {
  int dataset, codec;
  double eb;
  std::size_t stream_bytes = 0;
  std::size_t violations = 0;
  double bound_use = 0, psnr_db = 0, ae_fraction = 0;
  std::size_t latent_bytes = 0, code_bytes = 0;
};

struct Measured {
  CodecTotals totals[kCodecs];
  OpTimes times;
  std::vector<Cell> cells;  // first pass
  std::vector<std::vector<std::uint8_t>> first_streams;
  std::size_t passes = 0;
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t pass_failed = 0;  // failed ops of the first pass
  bool reproducible = true;
  double wall_s = 0;
};

Measured measure(State& st, double seconds, Tracer& tr) {
  Measured m;
  const std::size_t passes = passes_for(seconds, kNominalPassS);
  const double t_start = now_s();
  while (m.passes < passes) {
    Tracer::Scope pass_span(tr, "archive.pass");
    std::size_t cell_idx = 0;
    std::uint64_t failed_before = m.failed;
    for (std::size_t di = 0; di < st.data.size(); ++di) {
      const Field& f = st.data[di].test;
      for (std::size_t bi = 0; bi < std::size(kBounds); ++bi) {
        const double eb = kBounds[bi];
        const double bound = abs_bound(f, eb);
        for (int c = 0; c < kCodecs; ++c) {
          Compressor& codec = *st.codecs[di][static_cast<std::size_t>(c)];
          const int reps = c == kAESZ ? 1 : kFastReps;
          const double fmb = mb(f.size() * sizeof(float));
          // One compress and one decompress operation per (cell, codec);
          // the repeats and passes are all calls of it.
          const std::size_t op = (di * std::size(kBounds) + bi) * kCodecs +
                                 static_cast<std::size_t>(c);
          for (int rep = 0; rep < reps; ++rep) {
            const bool record = m.passes == 0 && rep == 0;
            std::vector<std::uint8_t> stream;
            m.attempted += 2;
            m.times.begin();
            int sid = tr.begin(kCompressSpan[c]);
            try {
              stream = codec.compress(f, ErrorBound::Rel(eb));
            } catch (const std::exception&) {
              tr.end(sid);
              m.times.end(2 * op, c, fmb);
              m.failed += 2;  // the decompress never runs either
              continue;
            }
            tr.end(sid);
            m.times.end(2 * op, c, fmb);
            m.times.begin();
            sid = tr.begin(kDecompressSpan[c]);
            auto rec = codec.decompress(stream);
            tr.end(sid);
            m.times.end(2 * op + 1, decompress_group(c), fmb);
            CodecTotals& tot = m.totals[c];
            tot.orig_bytes += f.size() * sizeof(float);
            tot.stream_bytes += stream.size();
            BoundCheck chk;
            if (rec.ok()) chk = check_bound(f, *rec, bound);
            if (!rec.ok() || !chk.ok()) ++m.failed;
            if (rep != 0) continue;
            if (record) {
              Cell cell{static_cast<int>(di), c, eb};
              cell.stream_bytes = stream.size();
              cell.violations = rec.ok() ? chk.violations : f.size();
              cell.bound_use = chk.max_err / bound;
              cell.psnr_db = chk.psnr_db;
              if (c == kAESZ) {
                const auto& s = static_cast<AESZ&>(codec).last_stats();
                cell.ae_fraction = s.ae_fraction();
                cell.latent_bytes = s.latent_stream_bytes;
                cell.code_bytes = s.code_stream_bytes;
              }
              m.cells.push_back(cell);
              m.first_streams.push_back(std::move(stream));
            } else {
              const Cell& first = m.cells[cell_idx];
              const std::size_t v = rec.ok() ? chk.violations : f.size();
              if (first.stream_bytes != stream.size() || first.violations != v)
                m.reproducible = false;
            }
            ++cell_idx;
          }
        }
      }
    }
    if (m.passes == 0) m.pass_failed = m.failed - failed_before;
    ++m.passes;
  }
  m.wall_s = now_s() - t_start;
  return m;
}

std::string cells_row(const State& st, const Measured& m) {
  std::string out = "{\"row\":\"cells\",\"cells\":[";
  char buf[320];
  for (std::size_t i = 0; i < m.cells.size(); ++i) {
    const Cell& c = m.cells[i];
    const Field& f = st.data[static_cast<std::size_t>(c.dataset)].test;
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"dataset\":\"%s\",\"codec\":\"%s\",\"rel\":%g,\"ratio\":%.6g,"
        "\"psnr_db\":%.4f,\"bound_use\":%.6f,\"violations\":%zu,"
        "\"ae_fraction\":%.4f}",
        i ? "," : "", st.data[static_cast<std::size_t>(c.dataset)].name.c_str(),
        kCodecName[c.codec], c.eb,
        static_cast<double>(f.size() * sizeof(float)) /
            static_cast<double>(c.stream_bytes),
        c.psnr_db, c.bound_use, c.violations, c.ae_fraction);
    out += buf;
  }
  return out + "]}";
}

void run(const Args& a, Report& r) {
  std::unique_ptr<State> st;
  std::vector<double> synth_s, train_s;
  const double setup_s = timed_setups([&] {
    st.reset();
    st = setup(a.seed);
    synth_s.push_back(st->synth_s);
    train_s.push_back(st->train_s);
  });

  Tracer off(false);
  Measured m = measure(*st, a.seconds, off);
  Tracer tr(a.trace);
  Measured traced;
  if (a.trace) traced = measure(*st, a.seconds, tr);

  const Measured& use = a.trace ? traced : m;
  r.attempted = m.attempted + traced.attempted;
  r.failed = m.failed + traced.failed;
  r.correct = m.reproducible && traced.reproducible;
  r.detail.push_back(cells_row(*st, m));
  double ratio[kCodecs], cmb[kCodecs], dmb[kCodecs];
  for (int c = 0; c < kCodecs; ++c) {
    ratio[c] = static_cast<double>(m.totals[c].orig_bytes) /
               static_cast<double>(m.totals[c].stream_bytes);
    cmb[c] = use.times.mb_per_s(c);
    dmb[c] = use.times.mb_per_s(decompress_group(c));
  }
  const double stored_ratio = geomean({ratio[0], ratio[1], ratio[2]});
  // Operations per second of one codec's calls, both directions.
  const auto rate = [&](int c) {
    return m.times.ops_per_s({c, decompress_group(c)});
  };

  // Figures that must repeat exactly for a seed (perfbench/tests).
  r.detail.push_back(detail_row(
      "work", {{"passes", static_cast<double>(m.passes)},
               {"measure_s", m.wall_s}}));
  r.detail.push_back(detail_row(
      "determinism",
      {{"attempted_per_pass", static_cast<double>(m.attempted / m.passes)},
       {"failed_per_pass", static_cast<double>(m.pass_failed)},
       {"aesz_ratio", ratio[kAESZ]},
       {"sz21_ratio", ratio[kSZ21]},
       {"stored_ratio", stored_ratio}}));

  if (!a.trace) {
    r.put("setup_s", setup_s);
    r.put("write_mb_s", geomean({cmb[0], cmb[1], cmb[2]}));
    r.put("read_mb_s", geomean({dmb[0], dmb[1], dmb[2]}));
    r.put("stored_ratio", stored_ratio);
    r.put("req_p50_ms", quantile(m.times.call_ms(), 0.50));
    r.put("req_p90_ms", quantile(m.times.call_ms(), 0.90));
    r.put("req_per_s", geomean({rate(kAESZ), rate(kSZ21), rate(kZFP)}));
    return;
  }

  r.put("aesz_compress_mb_s", cmb[kAESZ]);
  r.put("aesz_decompress_mb_s", dmb[kAESZ]);
  r.put("sz21_compress_mb_s", cmb[kSZ21]);
  r.put("sz21_decompress_mb_s", dmb[kSZ21]);
  r.put("zfp_compress_mb_s", cmb[kZFP]);
  r.put("zfp_decompress_mb_s", dmb[kZFP]);
  r.put("aesz_ratio", ratio[kAESZ]);
  r.put("sz21_ratio", ratio[kSZ21]);
  r.put("zfp.ratio", ratio[kZFP]);

  const auto spans = aggregate({&tr});
  const auto get = [&](const char* n) {
    const auto it = spans.find(n);
    return it == spans.end() ? SpanStats{} : it->second;
  };
  const double passes = static_cast<double>(traced.passes);
  // Each codec's calls in both directions.
  const auto both = [&](int c) {
    SpanStats s = get(kCompressSpan[c]);
    s += get(kDecompressSpan[c]);
    return s;
  };
  const SpanStats ae = both(kAESZ), sz = both(kSZ21), zfp = both(kZFP);
  r.put("nn.inference_s", ae.stages.inference / passes);
  r.put("core.quantize_s", ae.stages.quantize / passes);
  r.put("core.train_s", median(train_s));
  r.put("core.unattributed_frac", ae.unattributed_frac());
  r.put("sz.predict_s", sz.stages.predict / passes);
  r.put("sz.compress_ms_p50", get("sz.compress").p50_ms());
  r.put("sz.decompress_ms_p50", get("sz.decompress").p50_ms());
  r.put("sz.unattributed_frac", sz.unattributed_frac());
  r.put("lossless.entropy_s.aesz", ae.stages.entropy / passes);
  r.put("lossless.entropy_s.sz21", sz.stages.entropy / passes);
  r.put("zfp.compress_ms_p50", get("zfp.compress").p50_ms());
  r.put("zfp.unattributed_frac", zfp.unattributed_frac());

  // First-pass cell records: AE-SZ block selection and stream split, and
  // output quality per codec (mean PSNR, worst max_err/bound).
  const double cells_per_codec =
      static_cast<double>(traced.cells.size() / kCodecs);
  std::size_t latent = 0, code = 0;
  double ae_frac = 0, psnr[kCodecs] = {}, use_max[kCodecs] = {};
  for (const Cell& c : traced.cells) {
    psnr[c.codec] += c.psnr_db / cells_per_codec;
    use_max[c.codec] = std::max(use_max[c.codec], c.bound_use);
    if (c.codec != kAESZ) continue;
    ae_frac += c.ae_fraction / cells_per_codec;
    latent += c.latent_bytes;
    code += c.code_bytes;
  }
  r.put("core.ae_fraction", ae_frac);
  r.put("core.latent_bytes", static_cast<double>(latent));
  r.put("core.code_bytes", static_cast<double>(code));
  r.put("metrics.psnr_db.aesz", psnr[kAESZ]);
  r.put("metrics.psnr_db.sz21", psnr[kSZ21]);
  r.put("metrics.psnr_db.zfp", psnr[kZFP]);
  r.put("metrics.bound_use.aesz", use_max[kAESZ]);
  r.put("metrics.bound_use.sz21", use_max[kSZ21]);
  r.put("metrics.bound_use.zfp", use_max[kZFP]);

  const SpanStats pass = get("archive.pass");
  r.put("bench.self_frac", pass.self_s / pass.total_s);
  r.put("trace.overhead_frac",
        (traced.wall_s / passes) / (m.wall_s / static_cast<double>(m.passes)) -
            1.0);
  r.put("util.crc_ms", crc_ms(traced.first_streams));
  r.put("data.synth_s", median(synth_s));
  r.put("mem.peak_rss_mb", peak_rss_mb());
  if (!a.trace_out.empty() && !write_chrome_trace(a.trace_out, {&tr}))
    throw std::runtime_error("cannot write " + a.trace_out);
}

std::uint32_t digest(std::uint64_t seed) {
  std::uint32_t crc = 0;
  for (const Dataset& d : {cesm(seed), hurricane(seed)}) {
    for (const Field& f : d.train) crc = field_crc(f, crc);
    crc = field_crc(d.test, crc);
  }
  return crc;
}

}  // namespace

Workload archive_workload() { return {"archive", digest, run}; }

}  // namespace perfbench
