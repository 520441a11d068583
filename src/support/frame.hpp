// Byte-level building blocks shared by dtop's on-disk formats: the one
// FNV-1a 64, LEB128 varints, little-endian u64s, and the checksummed frame
// that carries every DTR2 trace block (trace/container.hpp) and every
// cache-store record (service/cache_store.hpp).
//
// A frame, all integers LEB128 varints unless noted:
//
//   kind        u8, meaning chosen by the format that owns the file
//   raw_size    varint, bytes after decoding `payload` with `codec`
//   stored_size varint, bytes of `payload` on disk
//   codec       u8, opaque here (DTR2: TraceCodec; the store: always 0)
//   checksum    u64 little-endian, fnv1a64 over `payload`
//   payload     stored_size bytes
//
// The checksum covers the payload only; the owner validates kind, codec and
// raw_size against its own rules. Both sizes are capped at kMaxFrameSize, so
// a crafted 20-byte frame cannot make a reader allocate gigabytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dtop {

// FNV-1a 64: frame checksums, canonical-form hashes and dispatcher ring
// positions. Values are persisted and routed on, so they never change.
std::uint64_t fnv1a64(std::string_view bytes);

// Ceiling on a frame's raw_size and stored_size. Far above anything a
// writer produces (a trace block is a few thousand events, a store record
// one map text).
inline constexpr std::uint64_t kMaxFrameSize = std::uint64_t{256} << 20;

// What a buffer-side read found: a whole well-formed item, a buffer that
// ends inside one, or bytes no writer produces.
enum class FrameStatus : std::uint8_t { kOk, kTorn, kCorrupt };

void put_varint(std::string& out, std::uint64_t v);
// Reads the varint at buf[pos] into `v` and advances `pos` past it. kTorn
// when the buffer ends inside it; kCorrupt when it does not fit 64 bits.
FrameStatus take_varint(std::string_view buf, std::size_t& pos,
                        std::uint64_t& v);

void put_u64le(std::string& out, std::uint64_t v);
// Reads 8 bytes at `p`.
std::uint64_t load_u64le(const char* p);

struct Frame {
  std::uint8_t kind = 0;
  std::uint64_t raw_size = 0;
  std::uint8_t codec = 0;
  std::string_view payload;  // view into the parsed buffer
  std::size_t end = 0;       // offset just past the frame
};

// Appends the framing that precedes `payload`; the caller writes `payload`
// right after it.
void put_frame_head(std::string& out, std::uint8_t kind,
                    std::uint64_t raw_size, std::uint8_t codec,
                    std::string_view payload);

// Parses the frame at buf[pos] into `out`. kTorn when the buffer ends inside
// it; kCorrupt when a size is over kMaxFrameSize, a varint overflows, or the
// checksum does not match. `out` is meaningful only on kOk.
FrameStatus parse_frame(std::string_view buf, std::size_t pos, Frame& out);

}  // namespace dtop
