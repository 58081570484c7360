#include "tuner/tuning_db.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>

#include "epilogue/epilogue.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"

namespace streamk::tuner {

namespace {

constexpr std::string_view kFormatTag = "# streamk-tuning-db v";
constexpr std::string_view kHeader =
    "m,n,k,precision,epilogue,group,kind,block_m,block_n,block_k,grid,split,"
    "workers,panel_cache,seconds,gflops";
std::string_view panel_cache_token(int verdict) {
  if (verdict == 0) return "off";
  if (verdict == 1) return "on";
  return "auto";
}

int parse_panel_cache(std::string_view token) {
  if (token == "auto" || token == "-1") return -1;
  if (token == "off" || token == "0") return 0;
  if (token == "on" || token == "1") return 1;
  util::fail("tuning db: unknown panel_cache token '" + std::string(token) +
             "'");
}

std::string_view precision_token(gpu::Precision p) { return gpu::name(p); }

gpu::Precision parse_precision(std::string_view token) {
  for (const auto p : {gpu::Precision::kFp64, gpu::Precision::kFp32,
                       gpu::Precision::kFp16F32}) {
    if (token == gpu::name(p)) return p;
  }
  util::fail("tuning db: unknown precision token '" + std::string(token) +
             "'");
}

core::DecompositionKind parse_kind(std::string_view token) {
  for (const auto k :
       {core::DecompositionKind::kDataParallel,
        core::DecompositionKind::kFixedSplit,
        core::DecompositionKind::kStreamKBasic,
        core::DecompositionKind::kHybridOneTile,
        core::DecompositionKind::kHybridTwoTile}) {
    if (token == core::kind_name(k)) return k;
  }
  util::fail("tuning db: unknown decomposition kind '" + std::string(token) +
             "'");
}

std::int64_t parse_int(std::string_view token, const char* what) {
  std::int64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), v);
  util::check(ec == std::errc() && ptr == token.data() + token.size(),
              std::string("tuning db: malformed ") + what + " field '" +
                  std::string(token) + "'");
  return v;
}

std::uint64_t parse_uint64(std::string_view token, const char* what) {
  // The group digest uses the full 64-bit range, so it cannot round-trip
  // through parse_int's signed parser.
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), v);
  util::check(ec == std::errc() && ptr == token.data() + token.size(),
              std::string("tuning db: malformed ") + what + " field '" +
                  std::string(token) + "'");
  return v;
}

double parse_double(std::string_view token, const char* what) {
  // std::from_chars<double> is the matching parser for CsvWriter::cell's
  // shortest-round-trip to_chars output.
  double v = 0.0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), v);
  util::check(ec == std::errc() && ptr == token.data() + token.size(),
              std::string("tuning db: malformed ") + what + " field '" +
                  std::string(token) + "'");
  return v;
}

std::vector<std::string_view> split_fields(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t comma = line.find(',', begin);
    if (comma == std::string_view::npos) {
      fields.push_back(line.substr(begin));
      return fields;
    }
    fields.push_back(line.substr(begin, comma - begin));
    begin = comma + 1;
  }
}

/// Total order over keys for deterministic save()/snapshot() output.
bool key_less(const ShapeKey& a, const ShapeKey& b) {
  if (a.shape != b.shape) return a.shape < b.shape;
  if (a.precision != b.precision) {
    return static_cast<int>(a.precision) < static_cast<int>(b.precision);
  }
  if (a.epilogue != b.epilogue) return a.epilogue < b.epilogue;
  return a.group < b.group;
}

}  // namespace

std::string TunedConfig::to_string() const {
  std::ostringstream os;
  os << core::kind_name(kind) << " " << block.to_string();
  if (kind == core::DecompositionKind::kStreamKBasic) os << " g=" << grid;
  if (kind == core::DecompositionKind::kFixedSplit) os << " s=" << split;
  if (workers > 0) os << " w=" << workers;
  if (panel_cache != -1) os << " pc=" << panel_cache_token(panel_cache);
  return os.str();
}

core::DecompositionSpec to_spec(const TunedConfig& config,
                                std::int64_t sm_count) {
  core::DecompositionSpec spec;
  spec.kind = config.kind;
  spec.sm_count = sm_count;
  if (config.kind == core::DecompositionKind::kStreamKBasic) {
    spec.grid = config.grid;
  }
  if (config.kind == core::DecompositionKind::kFixedSplit) {
    spec.split = config.split;
  }
  return spec;
}

std::size_t ShapeKeyHash::operator()(const ShapeKey& key) const {
  // FNV-1a over the identifying integers plus the epilogue-class bytes.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(key.shape.m));
  mix(static_cast<std::uint64_t>(key.shape.n));
  mix(static_cast<std::uint64_t>(key.shape.k));
  mix(static_cast<std::uint64_t>(key.precision));
  for (const char c : key.epilogue) {
    mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  mix(key.group);
  return static_cast<std::size_t>(h);
}

std::uint64_t group_digest(std::span<const core::GemmShape> shapes) {
  // FNV-1a over the sorted shape triples plus the count: order-insensitive
  // (a group is a multiset of problems; operand order does not change the
  // schedule's balance) and stable across processes.
  std::vector<core::GemmShape> sorted(shapes.begin(), shapes.end());
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(sorted.size()));
  for (const core::GemmShape& s : sorted) {
    mix(static_cast<std::uint64_t>(s.m));
    mix(static_cast<std::uint64_t>(s.n));
    mix(static_cast<std::uint64_t>(s.k));
  }
  return h == 0 ? 1 : h;  // 0 is reserved for plain (non-grouped) keys
}

core::GemmShape group_key_shape(std::span<const core::GemmShape> shapes) {
  core::GemmShape sum;
  for (const core::GemmShape& s : shapes) {
    sum.m += s.m;
    sum.n += s.n;
    sum.k += s.k;
  }
  return sum;
}

std::optional<TuningRecord> TuningDb::lookup(const ShapeKey& key) const {
  std::shared_lock lock(mutex_);
  const auto it = records_.find(key);
  if (it == records_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

bool TuningDb::update(const ShapeKey& key, const TuningRecord& record) {
  // Canonicalize the epilogue class at insertion (and reject garbage):
  // lookup keys built by runtime dispatch are class_key() output, so a
  // stored non-canonical key would be unreachable -- and would silently
  // change identity across a save/load round trip (load canonicalizes).
  ShapeKey canonical = key;
  canonical.epilogue = epilogue::canonical_class_key(key.epilogue);
  std::lock_guard lock(mutex_);
  const auto [it, inserted] = records_.try_emplace(canonical, record);
  if (inserted) {
    approx_size_.store(records_.size(), std::memory_order_relaxed);
    return true;
  }
  if (record.seconds < it->second.seconds) {
    it->second = record;
    return true;
  }
  return false;
}

std::size_t TuningDb::merge(const TuningDb& other) {
  // Copy under the source lock, insert under ours (never hold both).
  const auto entries = other.snapshot();
  std::size_t updated = 0;
  for (const auto& [key, record] : entries) {
    if (update(key, record)) ++updated;
  }
  return updated;
}

std::size_t TuningDb::load(const std::string& path) {
  std::ifstream in(path);
  util::check(in.good(), "tuning db: cannot open '" + path + "'");

  std::string line;
  util::check(static_cast<bool>(std::getline(in, line)),
              "tuning db: empty file '" + path + "'");
  util::check(line.rfind(kFormatTag, 0) == 0,
              "tuning db: '" + path + "' has no version tag");
  const std::int64_t version =
      parse_int(std::string_view(line).substr(kFormatTag.size()), "version");
  util::check(version == kFormatVersion,
              "tuning db: '" + path + "' is format version " +
                  std::to_string(version) + "; this build reads version " +
                  std::to_string(kFormatVersion));
  util::check(static_cast<bool>(std::getline(in, line)) && line == kHeader,
              "tuning db: '" + path + "' has an unexpected header row");

  constexpr std::size_t kWantFields = 16;
  std::size_t parsed = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto fields = split_fields(line);
    util::check(fields.size() == kWantFields,
                "tuning db: row with " + std::to_string(fields.size()) +
                    " fields (want " + std::to_string(kWantFields) +
                    ") in '" + path + "'");
    ShapeKey key;
    key.shape = {parse_int(fields[0], "m"), parse_int(fields[1], "n"),
                 parse_int(fields[2], "k")};
    key.precision = parse_precision(fields[3]);
    // Canonicalize (and reject rows whose epilogue column this build
    // cannot interpret).
    key.epilogue = epilogue::canonical_class_key(fields[4]);
    key.group = parse_uint64(fields[5], "group");
    TuningRecord record;
    record.config.kind = parse_kind(fields[6]);
    record.config.block = {parse_int(fields[7], "block_m"),
                           parse_int(fields[8], "block_n"),
                           parse_int(fields[9], "block_k")};
    record.config.grid = parse_int(fields[10], "grid");
    record.config.split = parse_int(fields[11], "split");
    record.config.workers =
        static_cast<std::size_t>(parse_int(fields[12], "workers"));
    record.config.panel_cache = parse_panel_cache(fields[13]);
    record.seconds = parse_double(fields[14], "seconds");
    record.gflops = parse_double(fields[15], "gflops");
    util::check(key.shape.valid() && record.config.block.valid(),
                "tuning db: row with invalid shape or block in '" + path +
                    "'");
    update(key, record);
    ++parsed;
  }
  return parsed;
}

void TuningDb::save(const std::string& path) const {
  const auto entries = snapshot();
  // Unique temp name: concurrent savers sharing one target must not share
  // a temp file, or one saver's writes land in the other's renamed
  // snapshot (the rename itself is the only shared step, and it is
  // atomic).
  static std::atomic<std::uint64_t> save_counter{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(save_counter.fetch_add(1, std::memory_order_relaxed));
  bool wrote = false;
  {
    std::ofstream out(tmp);
    if (out.good()) {
      out << kFormatTag << kFormatVersion << '\n' << kHeader << '\n';
      for (const auto& [key, record] : entries) {
        out << key.shape.m << ',' << key.shape.n << ',' << key.shape.k << ','
            << precision_token(key.precision) << ',' << key.epilogue << ','
            << key.group << ',' << core::kind_name(record.config.kind) << ','
            << record.config.block.m << ',' << record.config.block.n << ','
            << record.config.block.k << ',' << record.config.grid << ','
            << record.config.split << ',' << record.config.workers << ','
            << panel_cache_token(record.config.panel_cache) << ','
            << util::CsvWriter::cell(record.seconds) << ','
            << util::CsvWriter::cell(record.gflops) << '\n';
      }
      wrote = out.good();
    }
  }
  // Never leave an orphaned temp behind: each save generates a fresh
  // unique name, so failures would otherwise accumulate files forever.
  if (!wrote) {
    std::remove(tmp.c_str());
    util::fail("tuning db: cannot write '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    util::fail("tuning db: cannot rename '" + tmp + "' over '" + path + "'");
  }
}

std::size_t TuningDb::merge_save(const std::string& path) {
  // Advisory exclusive lock on a sidecar file (never on `path` itself:
  // save()'s rename replaces the inode, which would silently drop the
  // lock).  RAII so a malformed on-disk db cannot leak the lock.
  struct FileLock {
    int fd;
    explicit FileLock(const std::string& lock_path)
        : fd(::open(lock_path.c_str(), O_CREAT | O_RDWR, 0644)) {
      util::check(fd >= 0, "tuning db: cannot open lock '" + lock_path + "'");
      if (::flock(fd, LOCK_EX) != 0) {
        ::close(fd);
        util::fail("tuning db: cannot lock '" + lock_path + "'");
      }
    }
    ~FileLock() {
      ::flock(fd, LOCK_UN);
      ::close(fd);
    }
  } lock(path + ".lock");

  std::size_t loaded = 0;
  if (std::ifstream(path).good()) loaded = load(path);
  save(path);
  return loaded;
}

std::vector<std::pair<ShapeKey, TuningRecord>> TuningDb::snapshot() const {
  std::vector<std::pair<ShapeKey, TuningRecord>> entries;
  {
    std::shared_lock lock(mutex_);
    entries.assign(records_.begin(), records_.end());
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return key_less(a.first, b.first); });
  return entries;
}

std::size_t TuningDb::size() const {
  std::shared_lock lock(mutex_);
  return records_.size();
}

void TuningDb::clear() {
  std::lock_guard lock(mutex_);
  records_.clear();
  approx_size_.store(0, std::memory_order_relaxed);
}

std::uint64_t TuningDb::hits() const {
  return hits_.load(std::memory_order_relaxed);
}

std::uint64_t TuningDb::misses() const {
  return misses_.load(std::memory_order_relaxed);
}

}  // namespace streamk::tuner
