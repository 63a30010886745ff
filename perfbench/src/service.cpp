// service — a closed loop over TCP loopback against an in-process
// EventServer (1 event-loop thread, 1 worker): 2 client connections, each
// on its own thread, each sending its next request only after the reply
// to the previous one, because HPC writers block on their reply. The
// seeded mix is SZ2.1/ZFP compress, decompress of streams made in set-up,
// and byte-budgeted read_partial on progressive:SZ2.1 streams, over fields
// from 32x32 to 192x384. Small fields make framing, transport, dispatch
// and queueing dominate: the service tax the ROADMAP measured at 45-100%.

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "data/synth.hpp"
#include "predictors/registry.hpp"
#include "progressive/progressive.hpp"
#include "service/client.hpp"
#include "service/event_loop.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace svc = aesz::service;
using aesz::Compressor;

constexpr int kClients = 2;
constexpr int kRounds = 2;  // shuffled copies of every request per list
constexpr double kBounds[] = {1e-2, 1e-3};
constexpr double kBudgets[] = {0.25, 1.0};  // share of the AEPR bytes
const std::pair<std::size_t, std::size_t> kSizes[] = {
    {32, 32}, {64, 64}, {64, 128}, {192, 384}};
constexpr int kVariants = 2;  // timesteps per size

// Seconds of --seconds one cycle of both request lists stands for: a run
// makes passes_for(--seconds, kNominalCycleS) cycles (see README, "Work per
// run").
constexpr double kNominalCycleS = 7.7;

enum class Kind { kCompress, kDecompress, kPartial };

// One distinct request with its expected answer, built and verified in
// set-up. Compress and read_partial answers are deterministic bytes; a
// decompress answer is checked against the original field directly.
struct Key {
  Kind kind;
  std::string codec;  // SZ2.1 / ZFP; empty for read_partial
  std::size_t field;
  double eb;
  double bound;                      // resolved absolute bound
  double share = 0;                  // read_partial budget, share of AEPR
  std::vector<std::uint8_t> stream = {};  // compress answer / decompress
                                         // input / AEPR artifact
  std::uint64_t budget = 0;          // read_partial, bytes
  std::size_t expect_bytes = 0;       // compress / read_partial answer size
  std::uint32_t expect_crc = 0;
  std::uint64_t expect_layers = 0;
  bool expect_ok = false;  // the expected answer decodes within its bound
};

struct State {
  std::vector<Field> fields;
  std::vector<Key> keys;
  std::vector<std::size_t> lists[kClients];
  std::unique_ptr<Compressor> bare[2];  // SZ2.1, ZFP (rank 2)
  std::unique_ptr<svc::Server> server;
  std::unique_ptr<svc::TcpListener> listener;
  std::unique_ptr<svc::EventServer> events;
  std::thread loop;
  double synth_s = 0;

  ~State() {
    if (events) events->stop();
    if (loop.joinable()) loop.join();
  }
};

std::vector<Field> make_fields(std::uint64_t seed) {
  // The seed rolls the fields in longitude (see roll_columns).
  std::vector<Field> out;
  for (const auto& [h, w] : kSizes)
    for (int v = 0; v < kVariants; ++v)
      out.push_back(roll_columns(aesz::synth::cesm_cldhgh(h, w, 50 + v),
                                 static_cast<std::size_t>(seed * 97 % w)));
  return out;
}

Compressor& bare_for(State& st, const std::string& codec) {
  return *st.bare[codec == "ZFP" ? 1 : 0];
}

std::uint32_t crc(std::span<const std::uint8_t> b) {
  return aesz::util::crc32c(b);
}

// Whether a codec stream decodes within `bound` of `f`. Builds its own
// codec instance: codecs are not thread-safe and client threads call this.
bool stream_ok(const std::string& codec, std::span<const std::uint8_t> stream,
               const Field& f, double bound) {
  auto c = aesz::CodecRegistry::instance().create(codec, 2);
  if (!c.ok()) return false;
  auto rec = (*c)->decompress(stream);
  return rec.ok() && check_bound(f, *rec, bound).ok();
}

// Whether an AEPR prefix decodes, at its deepest layer, within `bound`.
bool prefix_ok(std::span<const std::uint8_t> prefix, const Field& f,
               double bound) {
  auto rd = aesz::progressive::ProgressiveReader::open(prefix);
  if (!rd.ok() || (*rd)->present() == 0) return false;
  auto rec = (*rd)->read((*rd)->present() - 1);
  return rec.ok() && check_bound(f, *rec, bound).ok();
}

// Fields, distinct requests and the seeded per-client lists: everything
// the seed decides. Streams and expected answers are filled in by setup().
void plan(State& st, std::uint64_t seed) {
  st.fields = make_fields(seed);
  for (std::size_t fi = 0; fi < st.fields.size(); ++fi)
    for (double eb : kBounds) {
      const double bound = abs_bound(st.fields[fi], eb);
      for (const char* codec : {"SZ2.1", "ZFP"})
        for (Kind kind : {Kind::kCompress, Kind::kDecompress})
          st.keys.push_back({kind, codec, fi, eb, bound});
      for (double share : kBudgets)
        st.keys.push_back({Kind::kPartial, "", fi, eb, bound, share});
    }

  // Every list holds every request kRounds times, in seeded order: a third
  // each compress, decompress and read_partial, a quarter of them on
  // 192x384. The seed moves the order and the data, not the mix, so the
  // MB a run moves does not depend on it.
  aesz::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  for (auto& list : st.lists) {
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::size_t> perm(st.keys.size());
      for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
      for (std::size_t i = perm.size() - 1; i > 0; --i)
        std::swap(perm[i], perm[rng.below(i + 1)]);
      list.insert(list.end(), perm.begin(), perm.end());
    }
  }
}

std::unique_ptr<State> setup(std::uint64_t seed) {
  auto st = std::make_unique<State>();
  const double t0 = now_s();
  plan(*st, seed);
  st->synth_s = now_s() - t0;
  st->bare[0] = aesz::CodecRegistry::instance().create("SZ2.1", 2).value();
  st->bare[1] = aesz::CodecRegistry::instance().create("ZFP", 2).value();

  // Expected answers, verified once here against the originals.
  for (Key& k : st->keys) {
    const Field& f = st->fields[k.field];
    if (k.kind == Kind::kPartial) {
      aesz::progressive::ProgressiveWriter pw;
      k.stream = pw.encode(f, ErrorBound::Rel(k.eb));
      k.budget = static_cast<std::uint64_t>(
          k.share * static_cast<double>(k.stream.size()));
      const auto tr =
          aesz::progressive::truncate_to_bytes(k.stream, k.budget).value();
      const auto prefix = std::span(k.stream).first(tr.bytes);
      k.expect_bytes = tr.bytes;
      k.expect_crc = crc(prefix);
      k.expect_layers = tr.layers;
      k.expect_ok = prefix_ok(prefix, f, tr.abs_eb);
      continue;
    }
    k.stream = bare_for(*st, k.codec).compress(f, ErrorBound::Rel(k.eb));
    k.expect_bytes = k.stream.size();
    k.expect_crc = crc(k.stream);
    k.expect_ok = stream_ok(k.codec, k.stream, f, k.bound);
  }

  svc::Server::Options so;
  so.threads = 1;
  st->server = std::make_unique<svc::Server>(so);
  st->listener = svc::TcpListener::bind(0).value();
  st->events = std::make_unique<svc::EventServer>(*st->server, *st->listener,
                                                  svc::EventServer::Options{});
  st->loop = std::thread([ev = st->events.get()] { ev->run(); });
  return st;
}

// A compress or read_partial answer: byte-identical to the answer set-up
// verified, or else decoded and checked itself (and `same` turns false).
bool judge_stream(const State& st, const Key& k,
                  std::span<const std::uint8_t> stream, std::uint64_t layers,
                  double abs_eb, bool& same) {
  if (stream.size() == k.expect_bytes && crc(stream) == k.expect_crc &&
      (k.kind != Kind::kPartial || layers == k.expect_layers))
    return k.expect_ok;
  same = false;
  const Field& f = st.fields[k.field];
  return k.kind == Kind::kPartial ? prefix_ok(stream, f, abs_eb)
                                  : stream_ok(k.codec, stream, f, k.bound);
}

// One client-side request: send, wait, verify. Returns false when the
// operation failed (error reply or a bound violation).
bool request(svc::Client& cl, const State& st, const Key& k, bool& same) {
  const Field& f = st.fields[k.field];
  switch (k.kind) {
    case Kind::kCompress: {
      auto r = cl.compress(k.codec, f, ErrorBound::Rel(k.eb));
      return r.ok() && judge_stream(st, k, r->stream, 0, 0, same);
    }
    case Kind::kDecompress: {
      auto r = cl.decompress(k.stream, k.codec);
      return r.ok() && check_bound(f, *r, k.bound).ok();
    }
    case Kind::kPartial: {
      auto r = cl.read_partial(k.stream, k.budget);
      return r.ok() &&
             judge_stream(st, k, r->stream, r->layers, r->abs_eb, same);
    }
  }
  return false;
}

// The request frame the Client would send for `k`.
std::vector<std::uint8_t> request_frame(const State& st, const Key& k) {
  const Field& f = st.fields[k.field];
  switch (k.kind) {
    case Kind::kCompress:
      return svc::encode_compress_request(
          {k.codec, ErrorBound::Rel(k.eb), f.dims(),
           std::span(reinterpret_cast<const std::uint8_t*>(f.data()),
                     f.size() * sizeof(float))});
    case Kind::kDecompress:
      return svc::encode_decompress_request({k.codec, k.stream});
    case Kind::kPartial: {
      svc::ReadPartialRequest rq;
      rq.stream = k.stream;
      rq.budget = k.budget;
      return svc::encode_read_partial_request(rq);
    }
  }
  return {};
}

// The same verification as request(), on a response frame.
bool judge_frame(const State& st, const Key& k,
                 std::span<const std::uint8_t> resp, bool& same) {
  switch (k.kind) {
    case Kind::kCompress: {
      auto r = svc::parse_compress_response(resp);
      return r.ok() && judge_stream(st, k, r->stream, 0, 0, same);
    }
    case Kind::kDecompress: {
      auto r = svc::parse_decompress_response(resp);
      if (!r.ok()) return false;
      Field out(r->dims);
      std::memcpy(out.data(), r->field.data(), r->field.size());
      return check_bound(st.fields[k.field], out, k.bound).ok();
    }
    case Kind::kPartial: {
      auto r = svc::parse_read_partial_response(resp);
      return r.ok() &&
             judge_stream(st, k, r->stream, r->layers, r->abs_eb, same);
    }
  }
  return false;
}

struct ClientTotals {
  std::vector<double> lat_ms;
  double write_mb = 0, write_s = 0, read_mb = 0, read_s = 0;
  std::uint64_t attempted = 0, failed = 0;
  bool same = true;
  bool connected = true;
};

struct Loop {
  ClientTotals c[kClients];
  double wall_s = 0;
  std::vector<std::unique_ptr<Tracer>> tracers;
};

Loop closed_loop(State& st, double seconds, bool trace) {
  Loop lp;
  const std::size_t cycles = passes_for(seconds, kNominalCycleS);
  const std::uint16_t port = st.listener->port();
  for (int i = 0; i < kClients; ++i)
    lp.tracers.push_back(std::make_unique<Tracer>(trace, i + 1));
  const double t_start = now_s();
  std::vector<std::thread> threads;
  for (int ci = 0; ci < kClients; ++ci) {
    threads.emplace_back([&, ci] {
      ClientTotals& t = lp.c[ci];
      Tracer& tr = *lp.tracers[static_cast<std::size_t>(ci)];
      auto conn = svc::TcpTransport::connect("127.0.0.1", port);
      if (!conn.ok()) {
        t.connected = false;
        return;
      }
      svc::Client cl(**conn);
      Tracer::Scope loop_span(tr, "service.loop");
      const auto& list = st.lists[ci];
      for (std::size_t i = 0; i < cycles * list.size(); ++i) {
        const Key& k = st.keys[list[i % list.size()]];
        const double t0 = now_s();
        const int sid = tr.begin("service.client");
        const bool ok = request(cl, st, k, t.same);
        tr.end(sid);
        const double dt = now_s() - t0;
        t.lat_ms.push_back(dt * 1e3);
        ++t.attempted;
        if (!ok) ++t.failed;
        const double fmb = mb(st.fields[k.field].size() * sizeof(float));
        if (k.kind == Kind::kCompress) {
          t.write_mb += fmb;
          t.write_s += dt;
        } else if (k.kind == Kind::kDecompress) {
          t.read_mb += fmb;
          t.read_s += dt;
        }
      }
      (*conn)->shutdown();
    });
  }
  for (auto& th : threads) th.join();
  lp.wall_s = now_s() - t_start;
  return lp;
}

// The service tax split, measured from outside on every distinct request
// three ways, interleaved per request so machine noise hits all alike:
// the bare codec call, Server::handle_frame with no transport, and the
// Client over TCP.
struct TaxSplit {
  Tracer tr{true, kClients + 1};
  std::uint64_t attempted = 0, failed = 0;
  bool same = true;
};

void tax_split(State& st, TaxSplit& out) {
  auto conn = svc::TcpTransport::connect("127.0.0.1", st.listener->port());
  if (!conn.ok()) throw std::runtime_error("tax split: cannot connect");
  svc::Client cl(**conn);
  Tracer& tr = out.tr;
  for (const Key& k : st.keys) {
    const Field& f = st.fields[k.field];
    {
      Tracer::Scope s(tr, "service.bare");
      switch (k.kind) {
        case Kind::kCompress:
          (void)bare_for(st, k.codec).compress(f, ErrorBound::Rel(k.eb));
          break;
        case Kind::kDecompress:
          (void)bare_for(st, k.codec).decompress(k.stream);
          break;
        case Kind::kPartial:
          (void)aesz::progressive::truncate_to_bytes(k.stream, k.budget);
          break;
      }
    }
    const std::vector<std::uint8_t> frame = request_frame(st, k);
    std::vector<std::uint8_t> resp;
    {
      Tracer::Scope s(tr, "service.handle_frame");
      resp = st.server->handle_frame(frame);
    }
    bool ok;
    {
      Tracer::Scope s(tr, "service.client");
      ok = request(cl, st, k, out.same);
    }
    out.attempted += 2;
    out.failed += !judge_frame(st, k, resp, out.same) + !ok;
  }
  (*conn)->shutdown();
}

void run(const Args& a, Report& r) {
  std::unique_ptr<State> st;
  std::vector<double> synth_s;
  const double setup_s = timed_setups([&] {
    st.reset();
    st = setup(a.seed);
    synth_s.push_back(st->synth_s);
  });

  // Warm the server's codec cache with one request of each kind, so the
  // measured loop sees the steady state a long-lived service runs in.
  {
    auto conn = svc::TcpTransport::connect("127.0.0.1", st->listener->port());
    if (!conn.ok()) throw std::runtime_error("cannot connect to the server");
    svc::Client cl(**conn);
    bool same = true;
    for (const Key& k : st->keys)
      if (k.field == 0) (void)request(cl, *st, k, same);
    (*conn)->shutdown();
  }

  const auto sum = [](const Loop& lp) {
    ClientTotals t;
    for (const ClientTotals& c : lp.c) {
      if (!c.connected) throw std::runtime_error("a client could not connect");
      t.lat_ms.insert(t.lat_ms.end(), c.lat_ms.begin(), c.lat_ms.end());
      t.write_mb += c.write_mb;
      t.write_s += c.write_s;
      t.read_mb += c.read_mb;
      t.read_s += c.read_s;
      t.attempted += c.attempted;
      t.failed += c.failed;
      t.same = t.same && c.same;
    }
    return t;
  };

  const Loop m = closed_loop(*st, a.seconds, false);
  const ClientTotals mt = sum(m);
  r.attempted = mt.attempted;
  r.failed = mt.failed;
  r.correct = mt.same;

  // stored_ratio over the request lists, not over what happened to
  // complete, so it repeats exactly for a seed.
  std::size_t orig = 0, stored = 0, failing = 0;
  for (const auto& list : st->lists)
    for (std::size_t ki : list) {
      const Key& k = st->keys[ki];
      failing += !k.expect_ok;
      if (k.kind != Kind::kCompress) continue;
      orig += st->fields[k.field].size() * sizeof(float);
      stored += k.expect_bytes;
    }
  const double stored_ratio =
      static_cast<double>(orig) / static_cast<double>(stored);
  r.detail.push_back(detail_row(
      "work",
      {{"passes", static_cast<double>(mt.attempted /
                                      (kClients * st->lists[0].size()))},
       {"measure_s", m.wall_s}}));
  // Figures that must repeat exactly for a seed (perfbench/tests).
  r.detail.push_back(detail_row(
      "determinism",
      {{"requests_per_cycle",
        static_cast<double>(st->lists[0].size() * kClients)},
       {"failing_per_cycle", static_cast<double>(failing)},
       {"stored_ratio", stored_ratio}}));

  if (!a.trace) {
    r.put("setup_s", setup_s);
    r.put("write_mb_s", mt.write_mb / mt.write_s);
    r.put("read_mb_s", mt.read_mb / mt.read_s);
    r.put("stored_ratio", stored_ratio);
    r.put("req_p50_ms", quantile(mt.lat_ms, 0.50));
    r.put("req_p90_ms", quantile(mt.lat_ms, 0.90));
    r.put("req_per_s", static_cast<double>(mt.attempted) / m.wall_s);
    return;
  }

  const auto s0 = aesz::prof::snapshot();
  const Loop t = closed_loop(*st, a.seconds, true);
  const auto s1 = aesz::prof::snapshot();
  const ClientTotals tt = sum(t);
  TaxSplit tax;
  tax_split(*st, tax);
  r.attempted += tt.attempted + tax.attempted;
  r.failed += tt.failed + tax.failed;
  r.correct = r.correct && tt.same && tax.same;

  const auto split = aggregate({&tax.tr});
  const auto get = [&](const char* n) {
    const auto it = split.find(n);
    return it == split.end() ? SpanStats{} : it->second;
  };
  const SpanStats bare = get("service.bare"), hf = get("service.handle_frame"),
                  cs = get("service.client");
  r.put("service.client_ms_p50", cs.p50_ms());
  r.put("service.handle_frame_ms_p50", hf.p50_ms());
  r.put("service.bare_codec_ms_p50", bare.p50_ms());
  r.put("service.tax_frac", (cs.total_s - bare.total_s) / bare.total_s);
  r.put("service.dispatch_frac", (hf.total_s - bare.total_s) / bare.total_s);
  r.put("service.transport_frac", (cs.total_s - hf.total_s) / bare.total_s);
  r.put("service.unattributed_frac", hf.unattributed_frac());

  const auto snap = st->server->snapshot();
  r.put("service.queue_wait_ms_p50",
        static_cast<double>(snap.get("queue_wait_ns_p50")) / 1e6);
  r.put("service.server_compress_ms_p50",
        static_cast<double>(snap.get("request_ns_compress_p50")) / 1e6);
  r.put("service.bytes_per_req",
        static_cast<double>(snap.get("bytes_in") + snap.get("bytes_out")) /
            static_cast<double>(snap.get("requests")));

  // Stage time of the traced loop, per cycle of both request lists.
  const double cycles = static_cast<double>(tt.attempted) /
                        static_cast<double>(kClients * st->lists[0].size());
  r.put("sz.predict_s", (s1.predict - s0.predict) / cycles);
  r.put("lossless.entropy_s.sz21", (s1.entropy - s0.entropy) / cycles);

  std::vector<const Tracer*> all;
  for (const auto& tp : t.tracers) all.push_back(tp.get());
  const auto loop_spans = aggregate(all);
  const SpanStats& ls = loop_spans.at("service.loop");
  r.put("bench.self_frac", ls.self_s / ls.total_s);
  r.put("trace.overhead_frac",
        (static_cast<double>(mt.attempted) / m.wall_s) /
                (static_cast<double>(tt.attempted) / t.wall_s) -
            1.0);
  std::vector<std::vector<std::uint8_t>> blobs;
  for (const Key& k : st->keys) blobs.push_back(k.stream);
  r.put("util.crc_ms", crc_ms(blobs));
  r.put("data.synth_s", median(synth_s));
  r.put("mem.peak_rss_mb", peak_rss_mb());
  all.push_back(&tax.tr);
  if (!a.trace_out.empty() && !write_chrome_trace(a.trace_out, all))
    throw std::runtime_error("cannot write " + a.trace_out);
}

std::uint32_t digest(std::uint64_t seed) {
  State st;
  plan(st, seed);
  std::uint32_t c = 0;
  for (const Field& f : st.fields) c = field_crc(f, c);
  for (const auto& list : st.lists)
    c = aesz::util::crc32c(
        std::span(reinterpret_cast<const std::uint8_t*>(list.data()),
                  list.size() * sizeof(std::size_t)),
        c);
  return c;
}

}  // namespace

Workload service_workload() { return {"service", digest, run}; }

}  // namespace perfbench
