#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "data/synth.hpp"
#include "metrics/metrics.hpp"
#include "pipeline/container.hpp"
#include "predictors/registry.hpp"
#include "progressive/aepr.hpp"
#include "service/protocol.hpp"
#include "sz/common.hpp"
#include "sz/sz21.hpp"
#include "sz/szinterp.hpp"
#include "temporal/aetc.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"
#include "zfp/zfp_like.hpp"

namespace aesz {
namespace {

/// The robustness contract of every codec under the v2 API: a mangled
/// stream must either come back as a typed error status or decode into
/// *some* field — never throw, crash, hang, or read out of bounds (the
/// latter two would trip ASan/timeouts).
void expect_no_crash(Compressor& c, std::vector<std::uint8_t> stream) {
  const auto result = c.decompress(stream);
  if (!result.ok()) {
    EXPECT_NE(result.status().code, ErrCode::kOk);
  }
}

std::vector<Compressor*> codecs() {
  // Built through the registry — the same instances a runtime caller gets.
  static std::vector<std::unique_ptr<Compressor>> owned = [] {
    std::vector<std::unique_ptr<Compressor>> v;
    for (const char* n : {"SZ2.1", "SZauto", "SZinterp", "ZFP"})
      v.push_back(CodecRegistry::instance().create(n).value());
    return v;
  }();
  std::vector<Compressor*> out;
  for (auto& c : owned) out.push_back(c.get());
  return out;
}

Field test_field() { return synth::cesm_freqsh(48, 64, 50); }

TEST(Robustness, TruncationAtEveryQuarter) {
  Field f = test_field();
  for (Compressor* c : codecs()) {
    const auto stream = c->compress(f, 1e-3);
    for (std::size_t frac = 0; frac < 4; ++frac) {
      auto cut = stream;
      cut.resize(stream.size() * frac / 4 + 1);
      expect_no_crash(*c, std::move(cut));
    }
  }
}

TEST(Robustness, SingleByteFlips) {
  Field f = test_field();
  Rng rng(13);
  for (Compressor* c : codecs()) {
    const auto stream = c->compress(f, 1e-3);
    for (int trial = 0; trial < 32; ++trial) {
      auto bad = stream;
      const std::size_t pos = rng.below(bad.size());
      bad[pos] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      expect_no_crash(*c, std::move(bad));
    }
  }
}

TEST(Robustness, EmptyAndGarbageStreams) {
  Rng rng(17);
  for (Compressor* c : codecs()) {
    expect_no_crash(*c, {});
    std::vector<std::uint8_t> garbage(256);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.below(256));
    expect_no_crash(*c, std::move(garbage));
  }
}

TEST(Robustness, CrossCodecStreamsRejected) {
  Field f = test_field();
  auto cs = codecs();
  for (Compressor* a : cs) {
    const auto stream = a->compress(f, 1e-3);
    for (Compressor* b : cs) {
      if (a == b) continue;
      const auto result = b->decompress(stream);
      ASSERT_FALSE(result.ok())
          << a->name() << " stream accepted by " << b->name();
      EXPECT_EQ(result.status().code, ErrCode::kBadMagic)
          << a->name() << " -> " << b->name();
    }
  }
}

TEST(Robustness, TruncationIsAlwaysATypedError) {
  // Stronger than no-crash: any strict prefix of a valid stream must be
  // *rejected* (every blob is length-prefixed, so a shortened buffer is
  // always detectable).
  Field f = test_field();
  for (Compressor* c : codecs()) {
    const auto stream = c->compress(f, 1e-3);
    for (std::size_t frac = 0; frac < 8; ++frac) {
      auto cut = stream;
      cut.resize(stream.size() * frac / 8);
      const auto result = c->decompress(cut);
      ASSERT_FALSE(result.ok())
          << c->name() << " accepted a " << cut.size() << "-byte prefix";
      EXPECT_NE(result.status().code, ErrCode::kOk);
    }
  }
}

TEST(Robustness, CompressionIsDeterministic) {
  // Byte-identical output for identical input — required for reproducible
  // archives and for the decoder-identity invariant.
  Field f = test_field();
  for (Compressor* c : codecs()) {
    const auto s1 = c->compress(f, 1e-3);
    const auto s2 = c->compress(f, 1e-3);
    EXPECT_EQ(s1, s2) << c->name();
  }
}

TEST(Robustness, ExtremeValuesRoundtrip) {
  // Denormals, huge magnitudes, and exact zeros in one field.
  Field f(Dims(16, 16), 0.0f);
  f.at(0) = 3.0e37f;
  f.at(1) = -3.0e37f;
  f.at(2) = 1.0e-38f;
  f.at(3) = -1.0e-38f;
  f.at(255) = 1.0f;
  for (Compressor* c : codecs()) {
    const auto stream = c->compress(f, 1e-3);
    Field g = c->decompress(stream).value();
    EXPECT_LE(metrics::max_abs_err(f.values(), g.values()),
              1e-3 * static_cast<double>(f.value_range()) * (1 + 1e-9))
        << c->name();
  }
}

TEST(Robustness, SingleElementField) {
  Field f(Dims(std::size_t{1}), 42.0f);
  SZ21 sz;
  SZInterp si;
  ZFPLike zf;
  for (Compressor* c : std::initializer_list<Compressor*>{&sz, &si, &zf}) {
    Field g = c->decompress(c->compress(f, 1e-3)).value();
    ASSERT_EQ(g.size(), 1u);
    EXPECT_NEAR(g.at(0), 42.0f, 1e-3 * 42.0f + 1e-3);
  }
}

TEST(Robustness, HighlyAnisotropicDims) {
  // 1xN and Nx1-ish shapes stress the blocking and stencil border logic.
  for (Dims d : {Dims(2, 300), Dims(300, 2), Dims(2, 3, 200)}) {
    Field f(d);
    Rng rng(19);
    for (float& v : f.values()) v = rng.gaussianf();
    for (Compressor* c : codecs()) {
      const auto stream = c->compress(f, 1e-2);
      Field g = c->decompress(stream).value();
      EXPECT_LE(metrics::max_abs_err(f.values(), g.values()),
                1e-2 * f.value_range() * (1 + 1e-9))
          << c->name() << " on " << d.str();
    }
  }
}

TEST(Robustness, NegativeOnlyAndConstantNegativeFields) {
  Field f(Dims(20, 20), -5.0f);
  for (Compressor* c : codecs()) {
    Field g = c->decompress(c->compress(f, 1e-3)).value();
    for (float v : g.values()) EXPECT_NEAR(v, -5.0f, 1e-2);
  }
  Field h(Dims(20, 20));
  Rng rng(23);
  for (float& v : h.values()) v = -10.0f + rng.gaussianf();
  for (Compressor* c : codecs()) {
    Field g = c->decompress(c->compress(h, 1e-3)).value();
    EXPECT_LE(metrics::max_abs_err(h.values(), g.values()),
              1e-3 * h.value_range() * (1 + 1e-9))
        << c->name();
  }
}

TEST(Robustness, RepeatedCompressorReuse) {
  // One codec object across many fields and bounds must not leak state.
  SZInterp c;
  Rng rng(29);
  for (int round = 0; round < 8; ++round) {
    const std::size_t h = 8 + rng.below(40);
    const std::size_t w = 8 + rng.below(40);
    Field f(Dims(h, w));
    for (float& v : f.values()) v = rng.gaussianf();
    const double eb = std::pow(10.0, -1.0 - static_cast<double>(rng.below(4)));
    Field g = c.decompress(c.compress(f, eb)).value();
    EXPECT_LE(metrics::max_abs_err(f.values(), g.values()),
              eb * f.value_range() * (1 + 1e-9))
        << "round " << round;
  }
}

// ------------------------------------------------------- hostile headers --
//
// One table over every reader of the shared header grammar (sz/common.hpp):
// the codec stream header, the AEPC/AETC/AEPR containers and the service
// compress-request frame. Each reader lays its own fields around the
// shared ones; every case sets one shared field to a hostile value and
// expects the same typed error from all five.

/// The shared fields in raw form, so a case can make any of them hostile.
/// `dims` is the serialized rank byte plus dims varints.
struct RawHeader {
  std::uint32_t magic = 0;
  std::uint8_t version = 0;
  std::vector<std::uint8_t> dims;
  std::uint8_t eb_mode = 0;
  double eb_value = 1e-3;
};

std::vector<std::uint8_t> raw_dims(std::uint8_t rank,
                                   std::vector<std::uint64_t> dims) {
  ByteWriter w;
  w.put(rank);
  for (std::uint64_t d : dims) w.put_varint(d);
  return w.take();
}

/// Every stream below is otherwise valid for these dims.
std::vector<std::uint8_t> clean_dims() { return raw_dims(2, {4, 6}); }

struct HeaderReader {
  const char* name;
  std::uint32_t magic;
  std::uint8_t version;  // the current one
  /// A complete stream around `h`, plus the byte offset where the header
  /// ends (every cut before it must read as kTruncated).
  std::function<std::pair<std::vector<std::uint8_t>, std::size_t>(
      const RawHeader&)>
      build;
  std::function<ErrCode(std::vector<std::uint8_t>)> parse;
  std::function<bool(std::span<const std::uint8_t>)> sniff;
};

void put_shared_tail(ByteWriter& w, const RawHeader& h) {
  w.put_bytes(h.dims);
  w.put(h.eb_mode);
  w.put(h.eb_value);
}

const std::string kInner = "SZ2.1";

HeaderReader codec_header_reader() {
  constexpr std::uint32_t kMagic = 0xABCD1234u;
  return {
      "CodecHeader", kMagic, sz::kFormatVersion,
      [](const RawHeader& h) {
        ByteWriter w;
        w.put(h.magic);
        w.put(h.version);
        w.put(std::uint32_t{0});  // crc, sealed by parse
        put_shared_tail(w, h);
        w.put(1e-3);  // abs-bound
        const std::size_t end = w.size();
        return std::make_pair(w.take(), end);
      },
      [](std::vector<std::uint8_t> s) {
        // Re-seal every candidate so each case reaches the field it
        // targets; the checksum itself is pinned by the golden and crc
        // suites.
        if (s.size() >= sz::kCrcOffset + 4 && s[4] == sz::kFormatVersion)
          s = sz::seal_stream(std::move(s));
        ByteReader r(s);
        return sz::read_header(r, kMagic).status().code;
      },
      [](std::span<const std::uint8_t> s) {
        return sz::has_magic(s, kMagic);
      }};
}

HeaderReader aepc_reader() {
  return {"AEPC", pipeline::kContainerMagic, pipeline::kContainerVersion,
          [](const RawHeader& h) {
            ByteWriter w;
            w.put(h.magic);
            w.put(h.version);
            w.put(std::uint32_t{0x1234});  // inner magic
            put_shared_tail(w, h);
            w.put(1e-3);  // abs-bound
            const std::size_t end = w.size();
            const std::uint8_t payload[3] = {1, 2, 3};
            w.put_varint(4);  // chunk rows
            w.put_varint(1);  // chunk count
            w.put_varint(4);  // rows of chunk 0
            w.put_varint(sizeof(payload));
            w.put(util::crc32c(payload));
            w.put_bytes(payload);
            return std::make_pair(w.take(), end);
          },
          [](std::vector<std::uint8_t> s) {
            return pipeline::read_container(s).status().code;
          },
          pipeline::is_container};
}

HeaderReader aetc_reader() {
  return {"AETC", temporal::kStreamMagic, temporal::kFormatVersion,
          [](const RawHeader& h) {
            ByteWriter w;
            w.put(h.magic);
            w.put(h.version);
            sz::write_inner_name(w, kInner);
            put_shared_tail(w, h);
            w.put_varint(4);  // gop
            const std::size_t end = w.size();
            w.put_bytes(temporal::write_footer({}));
            return std::make_pair(w.take(), end);
          },
          [](std::vector<std::uint8_t> s) {
            return temporal::read_stream(s).status().code;
          },
          temporal::is_temporal};
}

HeaderReader aepr_reader() {
  return {"AEPR", progressive::kStreamMagic, progressive::kFormatVersion,
          [](const RawHeader& h) {
            ByteWriter w;
            w.put(h.magic);
            w.put(h.version);
            sz::write_inner_name(w, kInner);
            put_shared_tail(w, h);
            w.put(1.0);  // value range
            const std::size_t end = w.size();
            const std::uint8_t payload[3] = {1, 2, 3};
            w.put_varint(1);  // layer count
            w.put_varint(0);  // offset
            w.put_varint(sizeof(payload));
            w.put(1e-3);  // layer bound
            w.put(util::crc32c(payload));
            w.put_bytes(payload);
            return std::make_pair(w.take(), end);
          },
          [](std::vector<std::uint8_t> s) {
            return progressive::read_stream(s).status().code;
          },
          progressive::is_progressive};
}

HeaderReader compress_request_reader() {
  return {"CompressRequest", service::kFrameMagic, service::kProtocolVersion,
          [](const RawHeader& h) {
            ByteWriter w;
            w.put(h.magic);
            w.put(h.version);
            w.put(static_cast<std::uint8_t>(service::Op::kCompressRequest));
            sz::write_inner_name(w, kInner);  // the codec name blob
            // The frame orders the bound before the dims.
            w.put(h.eb_mode);
            w.put(h.eb_value);
            w.put_bytes(h.dims);
            const std::size_t end = w.size();
            w.put_blob(std::vector<std::uint8_t>(4 * 6 * sizeof(float)));
            return std::make_pair(w.take(), end);
          },
          [](std::vector<std::uint8_t> s) {
            return service::parse_compress_request(s).status().code;
          },
          [](std::span<const std::uint8_t> s) {
            return service::peek_op(s).ok();
          }};
}

void PrintTo(const HeaderReader& r, std::ostream* os) { *os << r.name; }

class HostileHeader : public ::testing::TestWithParam<HeaderReader> {
 protected:
  RawHeader clean() const {
    RawHeader h;
    h.magic = GetParam().magic;
    h.version = GetParam().version;
    h.dims = clean_dims();
    return h;
  }
  ErrCode parse(const RawHeader& h) const {
    return GetParam().parse(GetParam().build(h).first);
  }
};

TEST_P(HostileHeader, CleanStreamParses) {
  const auto [bytes, end] = GetParam().build(clean());
  EXPECT_EQ(GetParam().parse(bytes), ErrCode::kOk);
  EXPECT_TRUE(GetParam().sniff(bytes));
}

TEST_P(HostileHeader, TruncationAtEveryHeaderByteIsTruncated) {
  const auto [bytes, end] = GetParam().build(clean());
  for (std::size_t cut = 0; cut < end; ++cut)
    EXPECT_EQ(GetParam().parse({bytes.begin(),
                                bytes.begin() + static_cast<long>(cut)}),
              ErrCode::kTruncated)
        << "cut at " << cut;
}

TEST_P(HostileHeader, HostileSharedFieldsAreTypedErrors) {
  struct Case {
    const char* what;
    std::function<void(RawHeader&)> mutate;
    ErrCode want;
  };
  const std::vector<Case> cases = {
      {"foreign magic", [](RawHeader& h) { h.magic = ~h.magic; },
       ErrCode::kBadMagic},
      {"version bump", [](RawHeader& h) { ++h.version; },
       ErrCode::kBadHeader},
      {"rank 0", [](RawHeader& h) { h.dims = raw_dims(0, {}); },
       ErrCode::kBadHeader},
      {"rank 4", [](RawHeader& h) { h.dims = raw_dims(4, {4, 1, 1, 1}); },
       ErrCode::kBadHeader},
      {"zero dim", [](RawHeader& h) { h.dims = raw_dims(2, {16, 0}); },
       ErrCode::kBadHeader},
      {"overflowing 2-D dims",
       [](RawHeader& h) {
         const std::uint64_t n = std::uint64_t{1} << 32;
         h.dims = raw_dims(2, {n, n});
       },
       ErrCode::kBadHeader},
      {"overflowing 3-D dims",
       [](RawHeader& h) {
         const std::uint64_t n = std::uint64_t{1} << 20;
         h.dims = raw_dims(3, {n, n, n});
       },
       ErrCode::kBadHeader},
      {"error-bound mode 3", [](RawHeader& h) { h.eb_mode = 3; },
       ErrCode::kBadHeader},
      {"error-bound mode 9", [](RawHeader& h) { h.eb_mode = 9; },
       ErrCode::kBadHeader},
      {"NaN error-bound value",
       [](RawHeader& h) {
         h.eb_value = std::numeric_limits<double>::quiet_NaN();
       },
       ErrCode::kBadHeader},
  };
  for (const Case& c : cases) {
    RawHeader h = clean();
    c.mutate(h);
    const auto bytes = GetParam().build(h).first;
    EXPECT_EQ(GetParam().parse(bytes), c.want) << c.what;
    if (c.want == ErrCode::kBadMagic) {
      EXPECT_FALSE(GetParam().sniff(bytes));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Readers, HostileHeader,
    ::testing::Values(codec_header_reader(), aepc_reader(), aetc_reader(),
                      aepr_reader(), compress_request_reader()),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace aesz
