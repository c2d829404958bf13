#include "spotbid/serve/snapshot_io.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <system_error>
#include <utility>

#include "spotbid/core/metrics.hpp"
#include "spotbid/dist/empirical.hpp"
#include "spotbid/dist/pareto.hpp"
#include "spotbid/provider/price_distribution.hpp"

namespace spotbid::serve {

namespace fs = std::filesystem;

namespace {

struct SnapshotMetrics {
  metrics::Counter& writes;
  metrics::Counter& loads;
  metrics::Counter& load_failures;
  metrics::Counter& skipped;
};

SnapshotMetrics& sm() {
  static SnapshotMetrics m{
      metrics::Registry::global().counter("serve.snapshot.writes"),
      metrics::Registry::global().counter("serve.snapshot.loads"),
      metrics::Registry::global().counter("serve.snapshot.load_failures"),
      metrics::Registry::global().counter("serve.snapshot.skipped"),
  };
  return m;
}

/// Price-law discriminator on disk.
enum class LawTag : std::uint8_t { kEmpirical = 1, kEquilibrium = 2 };

/// FNV-1a 64 over the payload. Not cryptographic — the threat model is
/// torn writes, truncation, and media bit rot, not an adversary.
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

[[noreturn]] void fail(SnapshotIoCode code, const std::string& message) {
  throw SnapshotIoError{code, message};
}

/// Little-endian append-only byte sink.
struct Writer {
  std::vector<std::uint8_t> bytes;

  void u8(std::uint8_t v) { bytes.push_back(v); }
  void u32(std::uint32_t v) { put_le(v, 4); }
  void u64(std::uint64_t v) { put_le(v, 8); }
  /// The low `width` bytes of v, least significant first.
  void put_le(std::uint64_t v, std::size_t width) {
    std::array<std::uint8_t, 8> buf{};
    for (std::size_t i = 0; i < width; ++i) buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
    bytes.insert(bytes.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(width));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes.insert(bytes.end(), s.begin(), s.end());
  }
};

/// Bounds-checked little-endian reader; every overrun is kTruncated.
struct Reader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (bytes.size() - pos < n)
      fail(SnapshotIoCode::kTruncated, "snapshot payload ends mid-field");
  }
  std::uint8_t u8() {
    need(1);
    return bytes[pos++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{bytes[pos + i]} << (8 * i);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{bytes[pos + i]} << (8 * i);
    pos += 8;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str(std::size_t max_len) {
    const std::uint32_t len = u32();
    if (len > max_len)
      fail(SnapshotIoCode::kMalformed, "snapshot string length " + std::to_string(len) +
                                           " exceeds the format bound");
    need(len);
    std::string out{reinterpret_cast<const char*>(bytes.data() + pos), len};
    pos += len;
    return out;
  }
  [[nodiscard]] bool done() const { return pos == bytes.size(); }
};

/// Integer sample count at knot i, recovered from the stored cumulative
/// probability cum[i] = seen_i / n. seen_i <= n < 2^53, so cum[i] * n is
/// within 0.5 of the integer it encodes and llround is exact.
std::uint64_t knot_seen(double cum, std::uint64_t n) {
  return static_cast<std::uint64_t>(std::llround(cum * static_cast<double>(n)));
}

void write_empirical(Writer& w, const dist::Empirical& law) {
  const auto& x = law.knots();
  const auto& cum = law.knot_cdf();
  const auto& pe = law.knot_partial_expectation();
  const std::uint64_t n = law.sample_count();

  w.u64(n);
  w.u32(static_cast<std::uint32_t>(x.size()));
  for (double v : x) w.f64(v);
  std::uint64_t seen_prev = 0;
  for (double c : cum) {
    const std::uint64_t seen = knot_seen(c, n);
    w.u64(seen - seen_prev);  // per-knot sample count
    seen_prev = seen;
  }
  for (double c : cum) w.f64(c);
  for (double a : pe) w.f64(a);
}

dist::DistributionPtr read_empirical(Reader& r) {
  const std::uint64_t n = r.u64();
  const std::uint32_t knots = r.u32();
  // A knot is at least (8 bytes x + 8 bytes count + 16 bytes prefix), so an
  // absurd count is rejected before any allocation.
  if (knots < 2 || knots > r.bytes.size() / 32 + 2)
    fail(SnapshotIoCode::kMalformed, "empirical law: implausible knot count");
  if (n < knots)
    fail(SnapshotIoCode::kMalformed, "empirical law: fewer samples than knots");

  std::vector<double> x(knots);
  for (double& v : x) v = r.f64();
  std::vector<std::uint64_t> counts(knots);
  for (std::uint64_t& c : counts) c = r.u64();
  std::vector<double> cum(knots);
  for (double& c : cum) c = r.f64();
  std::vector<double> pe(knots);
  for (double& a : pe) a = r.f64();

  std::uint64_t total = 0;
  for (std::size_t i = 0; i < knots; ++i) {
    if (!std::isfinite(x[i]) || (i > 0 && !(x[i - 1] < x[i])))
      fail(SnapshotIoCode::kMalformed, "empirical law: knots not finite strictly increasing");
    if (counts[i] == 0)
      fail(SnapshotIoCode::kMalformed, "empirical law: zero-count knot");
    if (counts[i] > n - total)
      fail(SnapshotIoCode::kMalformed, "empirical law: knot counts overflow the sample count");
    total += counts[i];
  }
  if (total != n)
    fail(SnapshotIoCode::kMalformed, "empirical law: knot counts do not sum to the sample count");

  // Re-expand the sorted sample multiset and rebuild through the public
  // constructor: every derived value is recomputed by the exact expressions
  // that produced the original, so the law is bit-identical by construction.
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < knots; ++i)
    samples.insert(samples.end(), counts[i], x[i]);
  auto law = std::make_shared<dist::Empirical>(samples);

  // Integrity cross-check: the stored prefix arrays must match the rebuilt
  // ones bit for bit. A mismatch means corruption the checksum missed or a
  // writer that disagrees with this reader — either way the file is bad.
  if (law->knot_cdf() != cum || law->knot_partial_expectation() != pe)
    fail(SnapshotIoCode::kMalformed,
         "empirical law: stored prefix arrays disagree with the rebuilt law");
  return law;
}

}  // namespace

std::string_view snapshot_io_code_name(SnapshotIoCode code) {
  switch (code) {
    case SnapshotIoCode::kIoError: return "io_error";
    case SnapshotIoCode::kBadMagic: return "bad_magic";
    case SnapshotIoCode::kBadVersion: return "bad_version";
    case SnapshotIoCode::kTruncated: return "truncated";
    case SnapshotIoCode::kChecksumMismatch: return "checksum_mismatch";
    case SnapshotIoCode::kMalformed: return "malformed";
    case SnapshotIoCode::kUnsupportedLaw: return "unsupported_law";
  }
  return "unknown";
}

SnapshotIoError::SnapshotIoError(SnapshotIoCode code, const std::string& message)
    : std::runtime_error{"snapshot " + std::string{snapshot_io_code_name(code)} + ": " +
                         message},
      code_(code) {}

std::string snapshot_filename(std::string_view key) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(key.size() + kSnapshotExtension.size());
  for (const char c : key) {
    const bool plain = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                       (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (plain) {
      out.push_back(c);
    } else {
      const auto b = static_cast<std::uint8_t>(c);
      out.push_back('%');
      out.push_back(kHex[b >> 4]);
      out.push_back(kHex[b & 0xF]);
    }
  }
  out += kSnapshotExtension;
  return out;
}

std::vector<std::uint8_t> serialize_snapshot(const ModelSnapshot& snapshot) {
  Writer payload;
  payload.str(snapshot.key());

  const provider::ProviderModel& prov = snapshot.provider();
  payload.f64(prov.pi_bar().usd());
  payload.f64(prov.pi_min().usd());
  payload.f64(prov.beta());
  payload.f64(prov.theta());

  const bidding::SpotPriceModel& model = snapshot.model();
  payload.f64(model.on_demand().usd());
  payload.f64(model.slot_length().hours());
  payload.f64(model.backstop().usd());  // v2 field

  if (const dist::Empirical* empirical = snapshot.empirical()) {
    payload.u8(static_cast<std::uint8_t>(LawTag::kEmpirical));
    write_empirical(payload, *empirical);
  } else if (const auto* equilibrium =
                 dynamic_cast<const provider::EquilibriumPriceDistribution*>(
                     &model.distribution())) {
    const auto* pareto = dynamic_cast<const dist::Pareto*>(equilibrium->arrivals().get());
    if (pareto == nullptr)
      fail(SnapshotIoCode::kUnsupportedLaw,
           "equilibrium law over non-Pareto arrivals has no serialization");
    payload.u8(static_cast<std::uint8_t>(LawTag::kEquilibrium));
    const provider::ProviderModel& law_model = equilibrium->model();
    payload.f64(law_model.pi_bar().usd());
    payload.f64(law_model.pi_min().usd());
    payload.f64(law_model.beta());
    payload.f64(law_model.theta());
    payload.f64(pareto->alpha());
    payload.f64(pareto->xm());
  } else {
    fail(SnapshotIoCode::kUnsupportedLaw,
         "price law '" + model.distribution().name() + "' has no serialization");
  }

  Writer file;
  file.u32(kSnapshotMagic);
  file.u32(kSnapshotVersion);
  file.u64(payload.bytes.size());
  file.u64(fnv1a64(payload.bytes));
  file.bytes.insert(file.bytes.end(), payload.bytes.begin(), payload.bytes.end());
  return std::move(file.bytes);
}

std::shared_ptr<ModelSnapshot> parse_snapshot(std::span<const std::uint8_t> bytes) {
  Reader header{bytes};
  if (bytes.size() < 24) fail(SnapshotIoCode::kTruncated, "file shorter than the header");
  if (header.u32() != kSnapshotMagic)
    fail(SnapshotIoCode::kBadMagic, "not a spotbid snapshot file");
  const std::uint32_t version = header.u32();
  if (version < kMinSnapshotVersion || version > kSnapshotVersion)
    fail(SnapshotIoCode::kBadVersion,
         "format version " + std::to_string(version) + ", this build speaks " +
             std::to_string(kMinSnapshotVersion) + ".." + std::to_string(kSnapshotVersion));
  const std::uint64_t payload_len = header.u64();
  const std::uint64_t checksum = header.u64();
  if (bytes.size() - header.pos != payload_len)
    fail(SnapshotIoCode::kTruncated,
         "payload is " + std::to_string(bytes.size() - header.pos) + " bytes, header claims " +
             std::to_string(payload_len));
  const std::span<const std::uint8_t> payload = bytes.subspan(header.pos);
  if (fnv1a64(payload) != checksum)
    fail(SnapshotIoCode::kChecksumMismatch, "payload checksum mismatch");

  Reader r{payload};
  const std::string key = r.str(4096);
  if (key.empty()) fail(SnapshotIoCode::kMalformed, "empty snapshot key");

  const double pi_bar = r.f64();
  const double pi_min = r.f64();
  const double beta = r.f64();
  const double theta = r.f64();
  const double on_demand = r.f64();
  const double slot_length = r.f64();
  // v1 files predate the portfolio backstop: fall back to the on-demand
  // price, which is exactly SpotPriceModel's cold-calibration default.
  const double backstop = version >= 2 ? r.f64() : on_demand;
  const auto tag = r.u8();

  // Model constructors enforce their own invariants via contracts; surface
  // any violation (NaN prices, unsorted knots the checks above missed, …)
  // as the typed error the caller is promised, never a raw model exception.
  try {
    dist::DistributionPtr law;
    switch (static_cast<LawTag>(tag)) {
      case LawTag::kEmpirical:
        law = read_empirical(r);
        break;
      case LawTag::kEquilibrium: {
        const double law_pi_bar = r.f64();
        const double law_pi_min = r.f64();
        const double law_beta = r.f64();
        const double law_theta = r.f64();
        const double alpha = r.f64();
        const double xm = r.f64();
        law = std::make_shared<provider::EquilibriumPriceDistribution>(
            provider::ProviderModel{Money{law_pi_bar}, Money{law_pi_min}, law_beta, law_theta},
            std::make_shared<dist::Pareto>(alpha, xm));
        break;
      }
      default:
        fail(SnapshotIoCode::kMalformed, "unknown price-law tag " + std::to_string(tag));
    }
    if (!r.done())
      fail(SnapshotIoCode::kMalformed,
           std::to_string(r.bytes.size() - r.pos) + " trailing payload byte(s)");
    bidding::SpotPriceModel model{std::move(law), Money{on_demand}, Hours{slot_length}};
    model.set_backstop(Money{backstop});
    return std::make_shared<ModelSnapshot>(
        key, std::move(model),
        provider::ProviderModel{Money{pi_bar}, Money{pi_min}, beta, theta});
  } catch (const SnapshotIoError&) {
    throw;
  } catch (const std::exception& e) {
    fail(SnapshotIoCode::kMalformed, std::string{"model rejected the payload: "} + e.what());
  }
}

std::filesystem::path write_snapshot_file(const fs::path& dir, const ModelSnapshot& snapshot) {
  const std::vector<std::uint8_t> bytes = serialize_snapshot(snapshot);

  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) fail(SnapshotIoCode::kIoError, "create_directories(" + dir.string() + "): " + ec.message());

  const fs::path final_path = dir / snapshot_filename(snapshot.key());
  // Dot prefix keeps the temp name outside the loader's *.spbs glob even if
  // a crash strands it; same directory keeps the rename atomic (no
  // cross-filesystem fallback to copy+delete).
  std::string temp_name = final_path.filename().string();
  temp_name.insert(temp_name.begin(), '.');
  temp_name += ".tmp";
  const fs::path temp_path = dir / temp_name;
  {
    std::ofstream os{temp_path, std::ios::binary | std::ios::trunc};
    if (!os) fail(SnapshotIoCode::kIoError, "cannot open " + temp_path.string());
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    os.flush();
    if (!os) {
      os.close();
      fs::remove(temp_path, ec);
      fail(SnapshotIoCode::kIoError, "short write to " + temp_path.string());
    }
  }
  fs::rename(temp_path, final_path, ec);
  if (ec) {
    fs::remove(temp_path, ec);
    fail(SnapshotIoCode::kIoError, "rename to " + final_path.string() + ": " + ec.message());
  }
  sm().writes.increment();
  return final_path;
}

std::shared_ptr<ModelSnapshot> read_snapshot_file(const fs::path& file) {
  std::ifstream is{file, std::ios::binary | std::ios::ate};
  if (!is) {
    sm().load_failures.increment();
    fail(SnapshotIoCode::kIoError, "cannot open " + file.string());
  }
  const std::streamsize size = is.tellg();
  is.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  is.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!is) {
    sm().load_failures.increment();
    fail(SnapshotIoCode::kIoError, "short read from " + file.string());
  }
  try {
    std::shared_ptr<ModelSnapshot> snapshot = parse_snapshot(bytes);
    sm().loads.increment();
    return snapshot;
  } catch (const SnapshotIoError&) {
    sm().load_failures.increment();
    throw;
  }
}

std::size_t persist_all(const SnapshotStore& store, const fs::path& dir) {
  std::size_t written = 0;
  for (const std::string& key : store.keys()) {
    const std::shared_ptr<const ModelSnapshot> snapshot = store.find(key);
    if (snapshot == nullptr) continue;  // unpublished between keys() and find()
    try {
      write_snapshot_file(dir, *snapshot);
      ++written;
    } catch (const SnapshotIoError& e) {
      if (e.code() != SnapshotIoCode::kUnsupportedLaw) throw;
      sm().skipped.increment();
    }
  }
  return written;
}

std::size_t warm_start(SnapshotStore& store, const fs::path& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return 0;

  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator{dir, ec}) {
    if (entry.is_regular_file() && entry.path().extension() == kSnapshotExtension)
      files.push_back(entry.path());
  }
  if (ec) fail(SnapshotIoCode::kIoError, "listing " + dir.string() + ": " + ec.message());
  std::sort(files.begin(), files.end());

  std::size_t published = 0;
  for (const fs::path& file : files) {
    store.publish(read_snapshot_file(file));
    ++published;
  }
  return published;
}

}  // namespace spotbid::serve
