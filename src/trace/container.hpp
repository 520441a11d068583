// The DTR2 trace container: DTR1's event encoding wrapped in framed,
// checksummed, optionally compressed blocks, plus a seek index so range
// reads decode only the blocks they touch.
//
// Layout (all multi-byte integers are LEB128 varints unless noted):
//
//   magic     "DTR2" (4 bytes)
//   version   u8 (= 1)
//   codec     u8 (TraceCodec the writer preferred; informational — each
//             frame names its own stored codec)
//
//   frames, back to back, in the checksummed layout of support/frame.hpp:
//     kind        1 = header, 2 = event block, 3 = seek index
//     codec       TraceCodec of the stored bytes (kRaw when compression did
//                 not shrink this frame)
//
//   trailer (12 bytes, fixed):
//     footer_offset u64 little-endian, absolute file offset of the index
//                   frame
//     magic         "2RTD" (4 bytes)
//
// The header frame is always first and its raw payload is exactly DTR1's
// header tail (trace_io.hpp: put_header_tail). An event block's raw
// payload is a run of DTR1 event records with the tick-delta baseline reset
// to 0, so every block is independently decodable. The index frame's raw
// payload:
//
//   total_events varint
//   last_tick    varint
//   kind_counts  varint count (= kNumTraceEventKinds), then one varint per
//                kind
//   blocks       varint count, then per block:
//                  offset     varint, delta-coded (first is absolute)
//                  events     varint, records in the block
//                  first_tick varint, delta-coded (first is absolute)
//
// Robustness contract: the trailer and index are advisory — when they are
// missing, damaged, or fail validation the reader falls back to a
// sequential frame scan, so a file whose writer died after its last
// complete frame still reads (yielding a prefix of the run, same as a
// truncated DTR1). The scan also forgives a trailing remnant of at most
// trailer size (12 bytes; no complete frame is that small). A torn frame,
// a checksum mismatch, or an unknown frame kind anywhere else is a
// TraceError: blocks are individually checksummed, so whatever a
// successful read returns is bytes the writer produced.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/codec.hpp"
#include "trace/trace_io.hpp"

namespace dtop::trace {

inline constexpr char kTrace2Magic[4] = {'D', 'T', 'R', '2'};
inline constexpr std::uint8_t kTrace2Version = 1;

struct Dtr2Options {
  // kZstd when compiled in, else kDlz; kRaw gives an uncompressed but
  // still framed, checksummed, and indexed file.
  TraceCodec codec = default_trace_codec();
  // Events per block: the seek granularity / compression-window tradeoff.
  // Tests shrink this to force multi-block files out of small traces.
  std::uint64_t block_events = 4096;
};

// Streaming DTR2 writer: header frame on construction, events buffered
// into blocks, finish() flushes the open block and writes the index frame
// and trailer. finish() is mandatory — a file without it still *reads*
// (scan fallback) but has no index. Throws Error when the stream fails.
class Dtr2Writer {
 public:
  Dtr2Writer(std::ostream& os, const TraceHeader& header,
             Dtr2Options opts = {});
  void write(const TraceEvent& ev);
  void finish();

 private:
  struct BlockEntry {
    std::uint64_t offset = 0;
    std::uint64_t events = 0;
    Tick first_tick = 0;
  };

  void flush_block();
  // Frames `raw`, compressing with opts_.codec and falling back to raw
  // storage when compression does not shrink. Returns the frame's offset.
  std::uint64_t write_frame(std::uint8_t kind, const std::string& raw);

  std::ostream& os_;
  Dtr2Options opts_;
  std::uint64_t offset_ = 0;  // absolute file offset of the next byte
  std::string block_;         // encoded records of the open block
  std::uint64_t block_event_count_ = 0;
  Tick block_first_tick_ = 0;
  Tick block_last_tick_ = 0;  // tick-delta baseline within the open block
  Tick last_tick_ = 0;        // across blocks, for the ordering check
  std::uint64_t total_events_ = 0;
  std::array<std::uint64_t, kNumTraceEventKinds> kind_counts_{};
  std::vector<BlockEntry> index_;
  bool finished_ = false;
};

// Whole-trace convenience wrapper: frames, compresses, and indexes `trace`
// as DTR2. Flushes and throws Error on stream failure.
void write_trace_dtr2(std::ostream& os, const RecordedTrace& trace,
                      Dtr2Options opts = {});

// A trace file opened for random access. Buffers the raw bytes (so it
// works on pipes), parses the header eagerly, and decompresses event
// blocks only when a read touches them. Also accepts DTR1 files — those
// decode eagerly as one implicit block, so every accessor below works on
// either format and `dtopctl trace` subcommands need no format switches.
class TraceFile {
 public:
  // Sniffs the 4-byte magic and parses either format. Throws TraceError on
  // malformed input.
  explicit TraceFile(std::istream& is);

  enum class Format { kDtr1, kDtr2 };

  Format format() const { return format_; }
  const TraceHeader& header() const { return header_; }
  // The writer's preferred codec (DTR2 header byte); kRaw for DTR1.
  TraceCodec file_codec() const { return file_codec_; }
  // True when the footer index was present and valid; false for DTR1 and
  // for scan-fallback reads (whose stats are computed, not trusted).
  bool indexed() const { return indexed_; }

  std::uint64_t num_events() const { return total_events_; }
  Tick last_tick() const { return last_tick_; }
  const std::array<std::uint64_t, kNumTraceEventKinds>& kind_counts() const {
    return kind_counts_;
  }
  std::size_t num_blocks() const { return blocks_.size(); }
  // Event-block decompressions so far — the "seek reads stay lazy" test
  // hook. DTR1 decodes have no blocks and never increment it.
  int blocks_decoded() const { return blocks_decoded_; }

  // Events [begin, begin + count) by global event index, clamped to the
  // end of the trace. Decodes only the blocks the window overlaps.
  std::vector<TraceEvent> events_in_range(std::uint64_t begin,
                                          std::uint64_t count);
  // Index of the first event with tick >= t (== num_events() when past the
  // end). Binary-searches the block index and decodes at most one block.
  std::uint64_t first_event_at_tick(Tick t);
  // The whole trace, materialized.
  RecordedTrace read_all();

 private:
  struct Block {
    std::uint64_t offset = 0;       // absolute file offset of the frame
    std::uint64_t first_event = 0;  // global index of its first event
    std::uint64_t events = 0;
    Tick first_tick = 0;
    bool decoded = false;
    std::vector<TraceEvent> cache;
  };

  void init_dtr1();
  void init_dtr2();
  bool try_load_index();
  void scan_frames(std::size_t events_begin);
  const std::vector<TraceEvent>& block_events(std::size_t i);  // cached
  // Decompresses block i and appends its events to `out`, uncached.
  void decode_block(std::size_t i, std::vector<TraceEvent>& out);

  Format format_ = Format::kDtr1;
  TraceHeader header_;
  TraceCodec file_codec_ = TraceCodec::kRaw;
  bool indexed_ = false;
  std::string buf_;  // DTR2 only: the whole file, offsets are absolute
  std::vector<Block> blocks_;
  std::uint64_t total_events_ = 0;
  Tick last_tick_ = 0;
  std::array<std::uint64_t, kNumTraceEventKinds> kind_counts_{};
  int blocks_decoded_ = 0;
};

}  // namespace dtop::trace
