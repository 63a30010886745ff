// timeseries — in-process writes and reads on the two containers that code
// residuals. A simulation writes evolving CESM-CLDHGH 384x768 timesteps
// through a TemporalWriter (inner SZ2.1, gop 8, auto mode) and, per step, a
// 3-layer ProgressiveWriter quick-look artifact, at rel 1e-2, 1e-3 and
// 1e-4. An analyst then reads the timesteps back in seeded random order at
// full fidelity, opens layer-0 previews, and refines them to full
// fidelity. Most time lands in temporal/progressive (trial compress,
// self-decode, residual arithmetic) on the same SZ2.1 layer archive uses,
// with writes beside reads, so a bound guard or a shared residual step
// shows its cost on each path and in bytes.

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "data/synth.hpp"
#include "predictors/registry.hpp"
#include "progressive/progressive.hpp"
#include "temporal/temporal.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace tmp = aesz::temporal;
namespace prg = aesz::progressive;

constexpr double kBounds[] = {1e-2, 1e-3, 1e-4};
constexpr int kSteps = 16;  // timesteps per series
constexpr std::size_t kH = 384, kW = 768;

// Seconds of --seconds one pass stands for: a run makes
// passes_for(--seconds, kNominalPassS) passes (see README, "Work per run").
constexpr double kNominalPassS = 5.3;

struct State {
  std::vector<Field> frames;
  std::vector<std::vector<int>> order;  // read order per bound
  std::unique_ptr<aesz::Compressor> bare;  // flat SZ2.1, traced run only
  double synth_s = 0;
};

void plan(State& st, std::uint64_t seed) {
  // The seed picks the read order only. The series is the same for every
  // seed: a longitude roll moved which steps the writer codes intra, and
  // each intra step is a keyframe that shortens the reader's decode chains,
  // so the seed alone moved read_mb_s by about 10%.
  for (int t = 0; t < kSteps; ++t)
    st.frames.push_back(aesz::synth::cesm_cldhgh(kH, kW, 40 + t));
  aesz::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 29);
  for (std::size_t b = 0; b < std::size(kBounds); ++b) {
    std::vector<int> o(kSteps);
    for (int i = 0; i < kSteps; ++i) o[static_cast<std::size_t>(i)] = i;
    for (std::size_t i = o.size() - 1; i > 0; --i)
      std::swap(o[i], o[rng.below(i + 1)]);
    st.order.push_back(std::move(o));
  }
}

std::unique_ptr<State> setup(std::uint64_t seed) {
  auto st = std::make_unique<State>();
  const double t0 = now_s();
  plan(*st, seed);
  st->synth_s = now_s() - t0;
  st->bare = aesz::CodecRegistry::instance().create("SZ2.1", 2).value();
  return st;
}

// OpTimes groups. A step's write is its append plus its quick-look encode;
// previews and refines carry no MB of their own.
enum Group { kWrite = 0, kRead, kLook };

struct Measured {
  OpTimes times;
  std::vector<double> preview_ms, append_intra_ms, append_resid_ms;
  std::size_t appends = 0, residual = 0;
  // One pass's bytes (deterministic, checked against later passes).
  std::size_t frame_bytes = 0, aetc_bytes = 0, aepr_bytes = 0,
              layer0_bytes = 0, flat_bytes = 0;
  std::uint64_t attempted = 0, failed = 0, pass_failed = 0;
  std::vector<std::vector<std::uint8_t>> first_blobs;
  std::size_t passes = 0;
  bool reproducible = true;
  double wall_s = 0;
};

bool within(const aesz::Expected<Field>& rec, const Field& orig, double bound) {
  return rec.ok() && check_bound(orig, *rec, bound).ok();
}

// The analyst's quick look: cut the artifact to its layer-0 prefix, open
// it, decode layer 0, and check it against the bound that layer records.
// `prefix` receives the prefix bytes.
bool preview(Tracer& tr, std::span<const std::uint8_t> art, const Field& f,
             std::size_t& prefix) {
  int sid = tr.begin("progressive.truncate");
  auto cut = prg::truncate_to_bytes(art, 1);
  tr.end(sid);
  if (!cut.ok()) return false;
  prefix = cut->bytes;
  sid = tr.begin("progressive.open");
  auto rd = prg::ProgressiveReader::open(art.first(cut->bytes));
  tr.end(sid);
  if (!rd.ok()) return false;
  sid = tr.begin("progressive.read0");
  auto prev = (*rd)->read(0);
  tr.end(sid);
  return within(prev, f, (*rd)->bound_after(0));
}

Measured measure(State& st, double seconds, Tracer& tr) {
  Measured m;
  const std::size_t passes = passes_for(seconds, kNominalPassS);
  const double t_start = now_s();
  while (m.passes < passes) {
    Tracer::Scope pass_span(tr, "timeseries.pass");
    std::size_t op = 0;  // operation index within the pass
    const std::uint64_t failed_before = m.failed;
    std::size_t aetc = 0, aepr = 0, layer0 = 0, flat = 0;
    for (std::size_t b = 0; b < std::size(kBounds); ++b) {
      const ErrorBound eb = ErrorBound::Rel(kBounds[b]);
      tmp::TemporalWriter w(st.frames[0].dims(), eb, tmp::TemporalWriter::Options{});
      prg::ProgressiveWriter pw;
      std::vector<std::vector<std::uint8_t>> quick;

      // Write: append each step, then its quick-look artifact.
      for (const Field& f : st.frames) {
        m.attempted += 2;
        const double fmb = mb(f.size() * sizeof(float));
        m.times.begin();
        int sid = tr.begin("temporal.append");
        tmp::TemporalWriter::AppendResult res;
        bool ok = true;
        try {
          res = w.append(f);
        } catch (const std::exception&) {
          ok = false;
        }
        tr.end(sid);
        const double append_s = m.times.end(op++, kWrite, fmb);
        m.times.begin();
        sid = tr.begin("progressive.encode");
        try {
          quick.push_back(pw.encode(f, eb));
        } catch (const std::exception&) {
          quick.emplace_back();
          ++m.failed;
        }
        tr.end(sid);
        m.times.end(op++, kWrite, 0);
        if (!ok) ++m.failed;
        ++m.appends;
        const bool resid = ok && res.mode == tmp::kModeResidual;
        m.residual += resid;
        (resid ? m.append_resid_ms : m.append_intra_ms).push_back(append_s * 1e3);
        aepr += quick.back().size();
        if (tr.on()) {
          // Flat SZ2.1 of the same frame and bound: the baseline for the
          // containers' time and byte overheads.
          Tracer::Scope s(tr, "sz.compress");
          flat += st.bare->compress(f, eb).size();
        }
      }
      const std::vector<std::uint8_t> stream = w.bytes();
      aetc += stream.size();

      // Read: full-fidelity timesteps in seeded random order, each a
      // request of its own that opens the artifact. One reader for all
      // reads would continue its memoized decode chain whenever a read
      // lands after the one before in the same chain, so the read order,
      // that is the seed, would move read_mb_s by about 10%.
      int sid;
      for (int t : st.order[b]) {
        const Field& f = st.frames[static_cast<std::size_t>(t)];
        ++m.attempted;
        m.times.begin();
        sid = tr.begin("temporal.open");
        auto reader = tmp::TemporalReader::open(stream);
        tr.end(sid);
        sid = tr.begin("temporal.read");
        aesz::Expected<Field> rec =
            reader.ok() ? (*reader)->read(static_cast<std::size_t>(t))
                        : aesz::Expected<Field>(reader.status());
        tr.end(sid);
        m.times.end(op++, kRead, mb(f.size() * sizeof(float)));
        if (!within(rec, f, abs_bound(f, kBounds[b]))) ++m.failed;
      }

      // Previews: the layer-0 prefix of each quick-look, then refined to
      // full fidelity from the whole artifact.
      for (int t : st.order[b]) {
        const Field& f = st.frames[static_cast<std::size_t>(t)];
        const auto& art = quick[static_cast<std::size_t>(t)];
        m.attempted += 2;
        m.times.begin();
        std::size_t prefix = 0;
        const bool ok = preview(tr, art, f, prefix);
        m.preview_ms.push_back(m.times.end(op++, kLook, 0) * 1e3);
        if (!ok) ++m.failed;
        layer0 += prefix;

        m.times.begin();
        sid = tr.begin("progressive.refine");
        auto rd = prg::ProgressiveReader::open(art);
        aesz::Expected<Field> full =
            rd.ok() && (*rd)->present() > 0
                ? (*rd)->read((*rd)->present() - 1)
                : aesz::Expected<Field>(aesz::Status::error(
                      aesz::ErrCode::kCorruptStream, "empty artifact"));
        tr.end(sid);
        m.times.end(op++, kLook, 0);
        if (!within(full, f, abs_bound(f, kBounds[b]))) ++m.failed;
      }
      if (m.passes == 0) {
        m.first_blobs.push_back(stream);
        for (auto& q : quick) m.first_blobs.push_back(std::move(q));
      }
    }
    const std::uint64_t pass_failed = m.failed - failed_before;
    if (m.passes == 0) {
      m.frame_bytes = st.frames.size() * std::size(kBounds) *
                      st.frames[0].size() * sizeof(float);
      m.aetc_bytes = aetc;
      m.aepr_bytes = aepr;
      m.layer0_bytes = layer0;
      m.flat_bytes = flat;
      m.pass_failed = pass_failed;
    } else if (aetc != m.aetc_bytes || aepr != m.aepr_bytes ||
               pass_failed != m.pass_failed) {
      m.reproducible = false;
    }
    ++m.passes;
  }
  m.wall_s = now_s() - t_start;
  return m;
}

void run(const Args& a, Report& r) {
  std::unique_ptr<State> st;
  std::vector<double> synth_s;
  const double setup_s = timed_setups([&] {
    st.reset();
    st = setup(a.seed);
    synth_s.push_back(st->synth_s);
  });

  Tracer off(false);
  const Measured m = measure(*st, a.seconds, off);
  Tracer tr(a.trace);
  Measured t;
  if (a.trace) t = measure(*st, a.seconds, tr);
  r.attempted = m.attempted + t.attempted;
  r.failed = m.failed + t.failed;
  r.correct = m.reproducible && t.reproducible &&
              (!a.trace || (t.aetc_bytes == m.aetc_bytes &&
                            t.pass_failed == m.pass_failed));
  // Figures that must repeat exactly for a seed (perfbench/tests).
  const double stored_ratio =
      static_cast<double>(m.frame_bytes) /
      static_cast<double>(m.aetc_bytes + m.aepr_bytes);
  r.detail.push_back(detail_row(
      "work", {{"passes", static_cast<double>(m.passes)},
               {"measure_s", m.wall_s}}));
  r.detail.push_back(detail_row(
      "determinism",
      {{"attempted_per_pass", static_cast<double>(m.attempted / m.passes)},
       {"failed_per_pass", static_cast<double>(m.pass_failed)},
       {"stored_ratio", stored_ratio}}));

  if (!a.trace) {
    r.put("setup_s", setup_s);
    r.put("write_mb_s", m.times.mb_per_s(kWrite));
    r.put("read_mb_s", m.times.mb_per_s(kRead));
    r.put("stored_ratio", stored_ratio);
    r.put("req_p50_ms", quantile(m.times.call_ms(), 0.50));
    r.put("req_p90_ms", quantile(m.times.call_ms(), 0.90));
    r.put("req_per_s", m.times.ops_per_s({kWrite, kRead, kLook}));
    return;
  }

  const auto spans = aggregate({&tr});
  const auto get = [&](const char* n) {
    const auto it = spans.find(n);
    return it == spans.end() ? SpanStats{} : it->second;
  };
  const double passes = static_cast<double>(t.passes);
  const SpanStats app = get("temporal.append"), rd = get("temporal.read"),
                  enc = get("progressive.encode"), r0 = get("progressive.read0"),
                  ref = get("progressive.refine"),
                  cut = get("progressive.truncate"), flat = get("sz.compress");
  r.put("preview_ms", median(t.preview_ms));
  r.put("temporal.append_ms_intra", median(t.append_intra_ms));
  r.put("temporal.append_ms_residual", median(t.append_resid_ms));
  r.put("temporal.residual_share",
        static_cast<double>(t.residual) / static_cast<double>(t.appends));
  r.put("temporal.read_ms_p50", rd.p50_ms());
  r.put("temporal.overhead_vs_bare", app.total_s / flat.total_s);
  SpanStats temporal = app;
  temporal += rd;
  r.put("temporal.unattributed_frac", temporal.unattributed_frac());
  r.put("progressive.encode_ms_p50", enc.p50_ms());
  r.put("progressive.read0_ms_p50", r0.p50_ms());
  r.put("progressive.refine_ms_p50", ref.p50_ms());
  r.put("progressive.layer0_frac", static_cast<double>(t.layer0_bytes) /
                                       static_cast<double>(t.aepr_bytes));
  r.put("progressive.overhead_vs_flat", static_cast<double>(t.aepr_bytes) /
                                            static_cast<double>(t.flat_bytes));
  r.put("progressive.truncate_us", cut.p50_ms() * 1e3);
  SpanStats progressive = enc;
  progressive += r0;
  progressive += ref;
  r.put("progressive.unattributed_frac", progressive.unattributed_frac());
  r.put("sz.compress_ms_p50", flat.p50_ms());
  // SZ2.1 stage time inside the containers, per pass.
  SpanStats inner = temporal;
  inner += progressive;
  r.put("sz.predict_s", inner.stages.predict / passes);
  r.put("lossless.entropy_s.sz21", inner.stages.entropy / passes);

  const SpanStats pass = get("timeseries.pass");
  r.put("bench.self_frac", pass.self_s / pass.total_s);
  r.put("trace.overhead_frac",
        ((t.wall_s - flat.total_s) / passes) /
                (m.wall_s / static_cast<double>(m.passes)) -
            1.0);
  r.put("util.crc_ms", crc_ms(t.first_blobs));
  r.put("data.synth_s", median(synth_s));
  r.put("mem.peak_rss_mb", peak_rss_mb());
  if (!a.trace_out.empty() && !write_chrome_trace(a.trace_out, {&tr}))
    throw std::runtime_error("cannot write " + a.trace_out);
}

std::uint32_t digest(std::uint64_t seed) {
  State st;
  plan(st, seed);
  std::uint32_t c = 0;
  for (const Field& f : st.frames) c = field_crc(f, c);
  for (const auto& o : st.order)
    for (int t : o) c = c * 31u + static_cast<std::uint32_t>(t);
  return c;
}

}  // namespace

Workload timeseries_workload() { return {"timeseries", digest, run}; }

}  // namespace perfbench
