#include "support/frame.hpp"

namespace dtop {

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(0x80 | (v & 0x7F)));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

FrameStatus take_varint(std::string_view buf, std::size_t& pos,
                        std::uint64_t& v) {
  v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= buf.size()) return FrameStatus::kTorn;
    const auto b = static_cast<std::uint8_t>(buf[pos++]);
    // At shift 63 only bit 0 still fits; a wider final byte would decode
    // to the wrong value instead of failing.
    if (shift == 63 && (b & 0x7E)) return FrameStatus::kCorrupt;
    v |= std::uint64_t{b & 0x7Fu} << shift;
    if (!(b & 0x80)) return FrameStatus::kOk;
  }
  return FrameStatus::kCorrupt;  // longer than 10 bytes
}

void put_u64le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint64_t load_u64le(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
  }
  return v;
}

void put_frame_head(std::string& out, std::uint8_t kind,
                    std::uint64_t raw_size, std::uint8_t codec,
                    std::string_view payload) {
  out.push_back(static_cast<char>(kind));
  put_varint(out, raw_size);
  put_varint(out, payload.size());
  out.push_back(static_cast<char>(codec));
  put_u64le(out, fnv1a64(payload));
}

FrameStatus parse_frame(std::string_view buf, std::size_t pos, Frame& out) {
  if (pos >= buf.size()) return FrameStatus::kTorn;
  out.kind = static_cast<std::uint8_t>(buf[pos++]);
  std::uint64_t stored_size = 0;
  for (std::uint64_t* size : {&out.raw_size, &stored_size}) {
    const FrameStatus s = take_varint(buf, pos, *size);
    if (s != FrameStatus::kOk) return s;
  }
  if (pos >= buf.size()) return FrameStatus::kTorn;
  out.codec = static_cast<std::uint8_t>(buf[pos++]);
  if (out.raw_size > kMaxFrameSize || stored_size > kMaxFrameSize) {
    return FrameStatus::kCorrupt;
  }
  if (buf.size() - pos < 8) return FrameStatus::kTorn;
  const std::uint64_t want = load_u64le(buf.data() + pos);
  pos += 8;
  if (stored_size > buf.size() - pos) return FrameStatus::kTorn;
  out.payload = buf.substr(pos, static_cast<std::size_t>(stored_size));
  out.end = pos + static_cast<std::size_t>(stored_size);
  return fnv1a64(out.payload) == want ? FrameStatus::kOk
                                      : FrameStatus::kCorrupt;
}

}  // namespace dtop
