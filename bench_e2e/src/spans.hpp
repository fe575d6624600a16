// Spans for the traced run: one in-memory log per worker thread, written by
// that thread only, around the public calls the driver makes into the
// engine (isend, irecv, wait_all, progress, allreduce) and around the unit
// of work that contains them (a window of messages, or one allreduce call).
//
// Recording is sampled per unit: the driver opens spans only for every
// Nth window or call, so a full run's spans fit in a fixed, preallocated
// log and untraced units pay nothing. Percentiles and self times come from
// the sampled units; counts come from the engine's counters, which see
// every message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace bench {

enum class SpanName : std::uint16_t {
  kWindow,     ///< one window of messages (sender or receiver side)
  kIsend,
  kIrecv,
  kWaitAll,
  kProgress,   ///< an explicit Rank::progress() call; aux = its return value
  kAllreduce,  ///< one coll::allreduce call
  kCount
};

const char* span_name(SpanName n) noexcept;

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t unit_id = 0;  ///< window number or allreduce call number
  std::int32_t parent = -1;   ///< index into the same log; -1 = root
  SpanName name = SpanName::kWindow;
  std::uint16_t aux = 0;
};

/// Fixed-capacity span log owned by one thread. begin() returns -1 (and
/// end(-1) does nothing) when the log is not sampling or is full, so call
/// sites need no branches of their own.
class SpanLog {
 public:
  void reserve(std::size_t capacity) { spans_.reserve(capacity); }

  /// Turn recording on for the unit about to start (sampling decision).
  void set_sampling(bool on) noexcept { sampling_ = on && spans_.capacity() != 0; }

  int begin(SpanName name, std::uint64_t unit_id, int parent) noexcept;
  void end(int idx, std::uint16_t aux = 0) noexcept;

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::vector<Span> spans_;
  bool sampling_ = false;
  std::uint64_t dropped_ = 0;
};

/// A worker's log plus where it belongs in the exported trace.
struct TrackRef {
  const SpanLog* log;
  int pid;          ///< rank id, as in Universe::export_chrome_trace
  int tid;          ///< worker number, offset past the engine's slot tids
  std::string label;
};

/// Durations (ns) of one span name across all logs: total time and the
/// self time, i.e. the span minus the time its direct children cover.
struct SpanStats {
  std::vector<std::uint64_t> dur;
  std::vector<std::uint64_t> self;
  std::uint64_t calls_returning_zero = 0;  ///< aux == 0 (progress spans)
};

std::vector<SpanStats> span_stats(const std::vector<TrackRef>& tracks);

/// q-quantile (0..1) of `v` by nearest rank; sorts `v`. 0 when empty.
double quantile(std::vector<std::uint64_t>& v, double q);

/// Write a Chrome trace-event file: the engine's own export (`engine_json`,
/// the output of Universe::export_chrome_trace: its rank processes and
/// whatever its trace rings hold) with the driver's spans merged in as
/// complete ("X") events on the rank processes, timed from the first span.
/// At most `per_track` spans of each log are written (the earliest).
void write_chrome_trace(std::ostream& os, const std::string& engine_json,
                        const std::vector<TrackRef>& tracks, std::size_t per_track);

}  // namespace bench
