#include "service/cache_store.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>

#include <fcntl.h>
#include <unistd.h>

#include "support/error.hpp"
#include "support/frame.hpp"
#include "support/function_ref.hpp"

namespace dtop::service {
namespace {

constexpr std::size_t kHeaderSize = sizeof(kCacheStoreMagic) + 4;
// Every record is one frame of this kind, stored raw (codec 0).
constexpr std::uint8_t kRecordKind = 1;

// The header's version (a u32 little-endian after the magic), or 0 when the
// bytes do not open with the magic.
std::uint32_t header_version(std::string_view bytes) {
  if (bytes.size() < kHeaderSize ||
      bytes.substr(0, sizeof(kCacheStoreMagic)) !=
          std::string_view(kCacheStoreMagic, sizeof(kCacheStoreMagic))) {
    return 0;
  }
  char le[8] = {};
  bytes.copy(le, 4, sizeof(kCacheStoreMagic));
  return static_cast<std::uint32_t>(load_u64le(le));
}

std::string header_bytes() {
  std::string h(kCacheStoreMagic, sizeof(kCacheStoreMagic));
  put_u64le(h, kCacheStoreVersion);
  h.resize(kHeaderSize);  // keep the low four bytes: the u32 version
  return h;
}

// Payload: graph_hash n d e ticks messages node_steps as varints, then
// config, label and map_text, each a varint length and its bytes.
bool decode_record(std::string_view payload, CacheKey* key,
                   CachedMap* value) {
  std::size_t pos = 0;
  std::uint64_t ints[7] = {};
  for (std::uint64_t& v : ints) {
    if (take_varint(payload, pos, v) != FrameStatus::kOk) return false;
  }
  for (std::string* str : {&key->config, &value->label, &value->map_text}) {
    std::uint64_t len = 0;
    if (take_varint(payload, pos, len) != FrameStatus::kOk ||
        len > payload.size() - pos) {
      return false;
    }
    str->assign(payload.substr(pos, static_cast<std::size_t>(len)));
    pos += static_cast<std::size_t>(len);
  }
  key->graph_hash = ints[0];
  value->n = static_cast<NodeId>(ints[1]);
  value->d = static_cast<std::uint32_t>(ints[2]);
  value->e = static_cast<std::uint32_t>(ints[3]);
  value->ticks = static_cast<Tick>(ints[4]);
  value->messages = ints[5];
  value->node_steps = ints[6];
  return pos == payload.size();
}

struct WalkEnd {
  std::size_t pos;     // offset just past the last accepted record
  FrameStatus status;  // kOk: the walk reached the end of the file
};

// The one record walker: hands each intact record's payload to `accept`
// in file order and stops at the end of the file, a torn frame, or a
// corrupt one (bad checksum, not a raw record frame, or refused by
// `accept`).
WalkEnd walk_records(std::string_view bytes,
                     FunctionRef<bool(std::string_view)> accept) {
  std::size_t pos = kHeaderSize;
  while (pos < bytes.size()) {
    Frame f;
    FrameStatus s = parse_frame(bytes, pos, f);
    if (s == FrameStatus::kOk &&
        (f.kind != kRecordKind || f.codec != 0 ||
         f.raw_size != f.payload.size() || !accept(f.payload))) {
      s = FrameStatus::kCorrupt;
    }
    if (s != FrameStatus::kOk) return {pos, s};
    pos = f.end;
  }
  return {pos, FrameStatus::kOk};
}

// The whole file, or nullopt when it cannot be opened.
std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return std::move(bytes).str();
}

// Full blocking write of one buffer; the caller holds the store lock, so a
// record reaches the file as one contiguous span (a SIGKILL can truncate
// it, never interleave it).
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::string encode_cache_record(const CacheKey& key, const CachedMap& value) {
  std::string payload;
  for (const std::uint64_t v :
       {key.graph_hash, std::uint64_t{value.n}, std::uint64_t{value.d},
        std::uint64_t{value.e}, static_cast<std::uint64_t>(value.ticks),
        value.messages, value.node_steps}) {
    put_varint(payload, v);
  }
  for (const std::string* str : {&key.config, &value.label, &value.map_text}) {
    put_varint(payload, str->size());
    payload += *str;
  }
  std::string record;
  put_frame_head(record, kRecordKind, payload.size(), 0, payload);
  record += payload;
  return record;
}

CacheStore::CacheStore(const std::string& path, std::ostream& warn)
    : path_(path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    throw Error("cannot open cache store '" + path +
                "': " + std::strerror(errno));
  }
  const std::string bytes = read_file(path).value_or("");
  if (bytes.empty()) {
    if (!write_all(fd_, header_bytes())) {
      ::close(fd_);
      fd_ = -1;
      throw Error("cannot write cache store header to '" + path + "'");
    }
    return;
  }
  // A non-empty file must open with our exact header, or this daemon's
  // records must not be mixed into it.
  if (header_version(bytes) != kCacheStoreVersion) {
    warn << "dtopd: cache store '" << path
         << "' has an unknown header (different version?) — persistence "
            "disabled for this run, file left untouched\n"
         << std::flush;
    ::close(fd_);
    fd_ = -1;
    disabled_ = true;
    return;
  }
  // Drop any torn tail a crash mid-append left behind: O_APPEND would put
  // new records *after* the torn bytes, where no load() would ever reach
  // them. Truncating to the last intact record keeps every future append
  // loadable. (A checksum-valid record that fails decode is left for
  // load() to warn about — it is corruption, not tearing.)
  const std::size_t end =
      walk_records(bytes, [](std::string_view) { return true; }).pos;
  if (end < bytes.size()) {
    warn << "dtopd: cache store '" << path << "' has a torn tail at " << end
         << " — truncating to the last intact record\n"
         << std::flush;
    if (::ftruncate(fd_, static_cast<off_t>(end)) != 0) {
      ::close(fd_);
      fd_ = -1;
      disabled_ = true;
    }
  }
}

CacheStoreStats CacheStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void CacheStore::append(const CacheKey& key, const CachedMap& value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (disabled_ || fd_ < 0) return;
  const std::string record = encode_cache_record(key, value);
  if (write_all(fd_, record)) {
    ++stats_.appended_records;
    stats_.appended_bytes += record.size();
    return;
  }
  // A full disk or revoked fd downs persistence, not the daemon; the
  // in-memory cache keeps serving. (No stream to warn on here — append
  // runs on request workers — but disabled() is visible to the owner.)
  ::close(fd_);
  fd_ = -1;
  disabled_ = true;
}

std::size_t CacheStore::load(
    const std::string& path,
    const std::function<void(CacheKey, CachedMap)>& sink, std::ostream& warn,
    std::uint64_t* bytes_out) {
  if (bytes_out) *bytes_out = 0;
  const std::optional<std::string> bytes = read_file(path);
  // No store yet is a cold start, not an error.
  if (!bytes || bytes->empty()) return 0;

  const std::uint32_t version = header_version(*bytes);
  if (version == 0) {
    warn << "dtopd: cache store '" << path
         << "' is not a dtop cache store — skipping it\n"
         << std::flush;
    return 0;
  }
  if (version != kCacheStoreVersion) {
    warn << "dtopd: cache store '" << path << "' has version " << version
         << " (this build reads " << kCacheStoreVersion
         << ") — skipping it\n"
         << std::flush;
    return 0;
  }

  std::size_t count = 0;
  const WalkEnd end = walk_records(*bytes, [&](std::string_view payload) {
    CacheKey key;
    CachedMap value;
    if (!decode_record(payload, &key, &value)) return false;
    sink(std::move(key), std::move(value));
    ++count;
    return true;
  });
  if (bytes_out) *bytes_out = end.pos - kHeaderSize;
  if (end.status != FrameStatus::kOk) {
    warn << "dtopd: cache store '" << path << "' has a "
         << (end.status == FrameStatus::kTorn ? "truncated" : "corrupt")
         << " record at " << end.pos << " — keeping the " << count
         << " records before it\n"
         << std::flush;
  }
  return count;
}

}  // namespace dtop::service
