#include "trace/container.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <string_view>

#include "support/frame.hpp"

namespace dtop::trace {
namespace {

constexpr std::uint8_t kFrameHeader = 1;
constexpr std::uint8_t kFrameEvents = 2;
constexpr std::uint8_t kFrameIndex = 3;
constexpr std::size_t kPrologueSize = 6;   // magic + version + codec
constexpr std::size_t kTrailerSize = 12;   // u64 footer offset + "2RTD"
constexpr char kTrailerMagic[4] = {'2', 'R', 'T', 'D'};

// The frame at `pos`, with TraceError for anything but a whole frame of a
// codec this format knows.
Frame parse_trace_frame(std::string_view buf, std::size_t pos) {
  Frame f;
  switch (parse_frame(buf, pos, f)) {
    case FrameStatus::kOk:
      break;
    case FrameStatus::kTorn:
      throw TraceError("trace truncated: torn frame");
    case FrameStatus::kCorrupt:
      throw TraceError("trace corrupt: bad frame (size, varint or checksum)");
  }
  if (f.codec >= kNumTraceCodecs) {
    throw TraceError("trace corrupt: unknown codec id");
  }
  return f;
}

std::string decompress(const Frame& f) {
  return codec_decompress(static_cast<TraceCodec>(f.codec), f.payload,
                          f.raw_size);
}

void check_stream(std::ostream& os) {
  if (!os.good()) {
    throw Error("trace write failed: output stream error (disk full?)");
  }
}

}  // namespace

// --- writer ----------------------------------------------------------------

Dtr2Writer::Dtr2Writer(std::ostream& os, const TraceHeader& header,
                       Dtr2Options opts)
    : os_(os), opts_(opts) {
  DTOP_REQUIRE(codec_available(opts_.codec),
               "Dtr2Writer: codec not available in this build");
  DTOP_REQUIRE(opts_.block_events > 0, "Dtr2Writer: block_events must be > 0");
  std::string prologue(kTrace2Magic, sizeof kTrace2Magic);
  prologue.push_back(static_cast<char>(kTrace2Version));
  prologue.push_back(static_cast<char>(opts_.codec));
  os_.write(prologue.data(), static_cast<std::streamsize>(prologue.size()));
  offset_ = prologue.size();
  std::string hs;
  put_header_tail(hs, header);
  write_frame(kFrameHeader, hs);
}

std::uint64_t Dtr2Writer::write_frame(std::uint8_t kind,
                                      const std::string& raw) {
  TraceCodec stored_codec = opts_.codec;
  std::string compressed;
  const std::string* stored = &raw;
  if (stored_codec != TraceCodec::kRaw) {
    compressed = codec_compress(stored_codec, raw);
    if (compressed.size() < raw.size()) {
      stored = &compressed;
    } else {
      stored_codec = TraceCodec::kRaw;  // compression did not shrink it
    }
  }
  std::string head;
  put_frame_head(head, kind, raw.size(),
                 static_cast<std::uint8_t>(stored_codec), *stored);
  const std::uint64_t at = offset_;
  os_.write(head.data(), static_cast<std::streamsize>(head.size()));
  os_.write(stored->data(), static_cast<std::streamsize>(stored->size()));
  offset_ += head.size() + stored->size();
  check_stream(os_);
  return at;
}

void Dtr2Writer::write(const TraceEvent& ev) {
  DTOP_REQUIRE(!finished_, "Dtr2Writer: write after finish");
  DTOP_REQUIRE(ev.tick >= last_tick_, "trace events must be tick-ordered");
  if (block_event_count_ == 0) {
    block_first_tick_ = ev.tick;
    block_last_tick_ = 0;  // blocks are independently decodable
  }
  put_event_record(block_, ev, block_last_tick_);
  last_tick_ = ev.tick;
  ++block_event_count_;
  ++total_events_;
  ++kind_counts_[static_cast<std::size_t>(ev.kind)];
  if (block_event_count_ >= opts_.block_events) flush_block();
}

void Dtr2Writer::flush_block() {
  if (block_event_count_ == 0) return;
  const std::uint64_t at = write_frame(kFrameEvents, block_);
  index_.push_back({at, block_event_count_, block_first_tick_});
  block_.clear();
  block_event_count_ = 0;
}

void Dtr2Writer::finish() {
  if (finished_) return;
  flush_block();
  std::string idx;
  put_varint(idx, total_events_);
  put_varint(idx, static_cast<std::uint64_t>(last_tick_));
  put_varint(idx, kNumTraceEventKinds);
  for (const std::uint64_t c : kind_counts_) put_varint(idx, c);
  put_varint(idx, index_.size());
  std::uint64_t prev_off = 0;
  Tick prev_tick = 0;
  for (const BlockEntry& b : index_) {
    put_varint(idx, b.offset - prev_off);
    put_varint(idx, b.events);
    put_varint(idx, static_cast<std::uint64_t>(b.first_tick - prev_tick));
    prev_off = b.offset;
    prev_tick = b.first_tick;
  }
  const std::uint64_t footer_at = write_frame(kFrameIndex, idx);
  std::string trailer;
  put_u64le(trailer, footer_at);
  trailer.append(kTrailerMagic, sizeof kTrailerMagic);
  os_.write(trailer.data(), static_cast<std::streamsize>(trailer.size()));
  os_.flush();
  check_stream(os_);
  finished_ = true;
}

void write_trace_dtr2(std::ostream& os, const RecordedTrace& trace,
                      Dtr2Options opts) {
  Dtr2Writer w(os, trace.header, opts);
  for (const TraceEvent& ev : trace.events) w.write(ev);
  w.finish();
}

// --- reader ----------------------------------------------------------------

TraceFile::TraceFile(std::istream& is) {
  // The whole file in one buffer (so pipes work); every decoder below reads
  // it in place by offset.
  for (char chunk[1 << 16]; is.read(chunk, sizeof chunk) || is.gcount();) {
    buf_.append(chunk, static_cast<std::size_t>(is.gcount()));
  }
  const std::string_view magic = std::string_view(buf_).substr(0, 4);
  if (magic == std::string_view(kTrace2Magic, sizeof kTrace2Magic)) {
    format_ = Format::kDtr2;
    init_dtr2();
  } else if (magic == std::string_view(kTraceMagic, sizeof kTraceMagic)) {
    format_ = Format::kDtr1;
    init_dtr1();
  } else {
    throw TraceError("not a dtop trace: bad magic (want \"DTR1\"/\"DTR2\")");
  }
}

void TraceFile::init_dtr1() {
  std::size_t pos = sizeof kTraceMagic;
  header_ = take_header_tail(buf_, pos);
  Block b;
  b.decoded = true;
  Tick lt = 0;
  TraceEvent ev;
  while (take_event_record(buf_, pos, ev, lt)) {
    ++kind_counts_[static_cast<std::size_t>(ev.kind)];
    b.cache.push_back(ev);
  }
  b.events = b.cache.size();
  if (!b.cache.empty()) {
    b.first_tick = b.cache.front().tick;
    last_tick_ = b.cache.back().tick;
  }
  total_events_ = b.events;
  blocks_.push_back(std::move(b));
  buf_ = std::string();  // decoded eagerly; the bytes are not read again
}

void TraceFile::init_dtr2() {
  if (buf_.size() < kPrologueSize) {
    throw TraceError("trace truncated: torn DTR2 prologue");
  }
  std::size_t pos = sizeof kTrace2Magic;
  const auto version = static_cast<std::uint8_t>(buf_[pos++]);
  if (version != kTrace2Version) {
    throw TraceError("unsupported DTR2 container version " +
                     std::to_string(version));
  }
  const auto codec_byte = static_cast<std::uint8_t>(buf_[pos++]);
  if (codec_byte >= kNumTraceCodecs) {
    throw TraceError("trace corrupt: unknown codec id");
  }
  file_codec_ = static_cast<TraceCodec>(codec_byte);

  const Frame hf = parse_trace_frame(buf_, pos);
  if (hf.kind != kFrameHeader) {
    throw TraceError("trace corrupt: DTR2 header frame missing");
  }
  const std::string raw = decompress(hf);
  std::size_t hpos = 0;
  header_ = take_header_tail(raw, hpos);
  if (hpos != raw.size()) {
    throw TraceError("trace corrupt: trailing bytes in header frame");
  }
  if (!try_load_index()) scan_frames(hf.end);
}

bool TraceFile::try_load_index() {
  if (buf_.size() < kPrologueSize + kTrailerSize) return false;
  const std::size_t tpos = buf_.size() - kTrailerSize;
  if (buf_.compare(tpos + 8, sizeof kTrailerMagic, kTrailerMagic,
                   sizeof kTrailerMagic) != 0) {
    return false;
  }
  const std::uint64_t foot = load_u64le(buf_.data() + tpos);
  if (foot < kPrologueSize || foot >= tpos) return false;
  try {
    const Frame f = parse_trace_frame(buf_, static_cast<std::size_t>(foot));
    if (f.kind != kFrameIndex || f.end != tpos) return false;
    const std::string raw = decompress(f);
    std::size_t p = 0;
    const auto take = [&raw, &p] {
      std::uint64_t v = 0;
      if (take_varint(raw, p, v) != FrameStatus::kOk) {
        throw TraceError("trace corrupt: bad seek index");
      }
      return v;
    };
    const std::uint64_t total = take();
    const std::uint64_t lt = take();
    if (lt > static_cast<std::uint64_t>(std::numeric_limits<Tick>::max())) {
      return false;
    }
    if (take() != kNumTraceEventKinds) return false;
    std::array<std::uint64_t, kNumTraceEventKinds> counts{};
    std::uint64_t counts_sum = 0;
    for (auto& c : counts) {
      c = take();
      counts_sum += c;
    }
    const std::uint64_t nblocks = take();
    if (nblocks > buf_.size()) return false;  // each block frame is >1 byte
    std::vector<Block> blocks;
    blocks.reserve(static_cast<std::size_t>(nblocks));
    std::uint64_t off = 0, first_event = 0;
    std::uint64_t ft = 0;
    for (std::uint64_t i = 0; i < nblocks; ++i) {
      const std::uint64_t off_delta = take();
      if (i > 0 && off_delta == 0) return false;  // offsets must increase
      off += off_delta;
      Block b;
      b.offset = off;
      b.events = take();
      ft += take();
      if (ft > static_cast<std::uint64_t>(std::numeric_limits<Tick>::max())) {
        return false;
      }
      b.first_tick = static_cast<Tick>(ft);
      b.first_event = first_event;
      first_event += b.events;
      if (b.offset < kPrologueSize || b.offset >= foot) return false;
      blocks.push_back(std::move(b));
    }
    if (p != raw.size()) return false;
    if (first_event != total || counts_sum != total) return false;
    blocks_ = std::move(blocks);
    total_events_ = total;
    last_tick_ = static_cast<Tick>(lt);
    kind_counts_ = counts;
    indexed_ = true;
    return true;
  } catch (const TraceError&) {
    return false;  // advisory index: fall back to a sequential scan
  }
}

void TraceFile::scan_frames(std::size_t events_begin) {
  std::size_t pos = events_begin;
  while (pos < buf_.size()) {
    if (buf_.size() - pos <= kTrailerSize) {
      // At most a trailer's worth of bytes: the smallest complete frame is
      // 13 bytes (12 of framing + a non-empty payload), so this tail is the
      // trailer — possibly damaged, which is why the scan is running — or
      // the torn remnant of a writer that died mid-trailer. Either way
      // every complete frame has been read.
      break;
    }
    const Frame f = parse_trace_frame(buf_, pos);
    if (f.kind == kFrameEvents) {
      Block b;
      b.offset = pos;
      b.first_event = total_events_;
      blocks_.push_back(std::move(b));
      const std::vector<TraceEvent>& evs = block_events(blocks_.size() - 1);
      Block& nb = blocks_.back();
      nb.events = evs.size();
      nb.first_tick = evs.empty() ? last_tick_ : evs.front().tick;
      if (!evs.empty()) {
        if (evs.front().tick < last_tick_) {
          throw TraceError("trace corrupt: blocks out of tick order");
        }
        for (const TraceEvent& ev : evs) {
          ++kind_counts_[static_cast<std::size_t>(ev.kind)];
        }
        total_events_ += evs.size();
        last_tick_ = evs.back().tick;
      }
    } else if (f.kind == kFrameIndex) {
      // Advisory; already rejected by try_load_index, skip its frame.
    } else {
      throw TraceError("trace corrupt: unexpected frame kind " +
                       std::to_string(f.kind));
    }
    pos = f.end;
  }
}

const std::vector<TraceEvent>& TraceFile::block_events(std::size_t i) {
  Block& b = blocks_[i];
  if (!b.decoded) {
    decode_block(i, b.cache);
    b.decoded = true;
  }
  return b.cache;
}

void TraceFile::decode_block(std::size_t i, std::vector<TraceEvent>& out) {
  const Block& b = blocks_[i];
  const Frame f = parse_trace_frame(buf_, static_cast<std::size_t>(b.offset));
  if (f.kind != kFrameEvents) {
    throw TraceError("trace corrupt: index points at a non-event frame");
  }
  const std::string raw = decompress(f);
  const std::size_t first = out.size();
  out.reserve(first + static_cast<std::size_t>(b.events));
  std::size_t pos = 0;
  Tick lt = 0;
  TraceEvent ev;
  while (take_event_record(raw, pos, ev, lt)) out.push_back(ev);
  if (indexed_) {
    // The index is what seeks and stats trust; a block that disagrees with
    // it would silently skew both.
    if (out.size() - first != b.events ||
        (out.size() > first && out[first].tick != b.first_tick)) {
      throw TraceError("trace corrupt: block disagrees with seek index");
    }
  }
  ++blocks_decoded_;
}

std::vector<TraceEvent> TraceFile::events_in_range(std::uint64_t begin,
                                                   std::uint64_t count) {
  std::vector<TraceEvent> out;
  if (begin >= total_events_ || count == 0) return out;
  const std::uint64_t end = begin + std::min(count, total_events_ - begin);
  auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), begin,
      [](std::uint64_t v, const Block& b) { return v < b.first_event; });
  std::size_t i =
      it == blocks_.begin()
          ? 0
          : static_cast<std::size_t>(it - blocks_.begin()) - 1;
  for (; i < blocks_.size() && blocks_[i].first_event < end; ++i) {
    const std::vector<TraceEvent>& evs = block_events(i);
    const std::uint64_t bf = blocks_[i].first_event;
    const std::uint64_t s = begin > bf ? begin - bf : 0;
    const std::uint64_t e =
        std::min<std::uint64_t>(evs.size(), end - bf);
    for (std::uint64_t j = s; j < e; ++j) {
      out.push_back(evs[static_cast<std::size_t>(j)]);
    }
  }
  return out;
}

std::uint64_t TraceFile::first_event_at_tick(Tick t) {
  if (total_events_ == 0) return 0;
  // The last block starting before t: its tail may reach t even when the
  // next block starts exactly at t, so it is the one to decode.
  auto it = std::lower_bound(
      blocks_.begin(), blocks_.end(), t,
      [](const Block& b, Tick v) { return b.first_tick < v; });
  if (it == blocks_.begin()) return 0;
  const std::size_t i = static_cast<std::size_t>(it - blocks_.begin()) - 1;
  const std::vector<TraceEvent>& evs = block_events(i);
  for (std::size_t j = 0; j < evs.size(); ++j) {
    if (evs[j].tick >= t) return blocks_[i].first_event + j;
  }
  return blocks_[i].first_event + evs.size();
}

RecordedTrace TraceFile::read_all() {
  RecordedTrace t;
  t.header = header_;
  t.events.reserve(static_cast<std::size_t>(total_events_));
  Tick prev = 0;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    const std::size_t first = t.events.size();
    if (blocks_[i].decoded) {
      // Cached by an earlier seek (or the scan): copy, and keep it cached.
      const std::vector<TraceEvent>& c = blocks_[i].cache;
      t.events.insert(t.events.end(), c.begin(), c.end());
    } else {
      decode_block(i, t.events);  // straight into the result, uncached
    }
    if (t.events.size() > first) {
      // Within a block the delta coding forces tick order; across blocks a
      // crafted file could rewind time, which DTR1 cannot express.
      if (t.events[first].tick < prev) {
        throw TraceError("trace corrupt: blocks out of tick order");
      }
      prev = t.events.back().tick;
    }
  }
  return t;
}

}  // namespace dtop::trace
