#include "spans.hpp"

#include <algorithm>
#include <cmath>

#include "fairmpi/common/timing.hpp"

namespace bench {

const char* span_name(SpanName n) noexcept {
  switch (n) {
    case SpanName::kWindow: return "window";
    case SpanName::kIsend: return "isend";
    case SpanName::kIrecv: return "irecv";
    case SpanName::kWaitAll: return "wait_all";
    case SpanName::kProgress: return "progress";
    case SpanName::kAllreduce: return "allreduce";
    case SpanName::kCount: break;
  }
  return "unknown";
}

int SpanLog::begin(SpanName name, std::uint64_t unit_id, int parent) noexcept {
  if (!sampling_) return -1;
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return -1;
  }
  Span s;
  s.name = name;
  s.unit_id = unit_id;
  s.parent = parent;
  s.start_ns = fairmpi::now_ns();
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int idx, std::uint16_t aux) noexcept {
  if (idx < 0) return;
  Span& s = spans_[static_cast<std::size_t>(idx)];
  s.end_ns = fairmpi::now_ns();
  s.aux = aux;
}

std::vector<SpanStats> span_stats(const std::vector<TrackRef>& tracks) {
  std::vector<SpanStats> out(static_cast<std::size_t>(SpanName::kCount));
  for (const TrackRef& t : tracks) {
    const std::vector<Span>& spans = t.log->spans();
    // Children close before their parent and never overlap each other (one
    // thread), so a parent's covered time is the sum of its children's.
    std::vector<std::uint64_t> child_time(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0 && s.end_ns >= s.start_ns) {
        child_time[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end_ns < s.start_ns || s.end_ns == 0) continue;  // never closed
      const std::uint64_t d = s.end_ns - s.start_ns;
      SpanStats& st = out[static_cast<std::size_t>(s.name)];
      st.dur.push_back(d);
      st.self.push_back(d > child_time[i] ? d - child_time[i] : 0);
      if (s.aux == 0) ++st.calls_returning_zero;
    }
  }
  return out;
}

double quantile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return static_cast<double>(v[std::min(idx, v.size() - 1)]);
}

namespace {

void emit_us(std::ostream& os, std::uint64_t ns) {
  os << ns / 1000 << '.';
  const auto frac = static_cast<int>(ns % 1000);
  os << static_cast<char>('0' + frac / 100) << static_cast<char>('0' + frac / 10 % 10)
     << static_cast<char>('0' + frac % 10);
}

}  // namespace

void write_chrome_trace(std::ostream& os, const std::string& engine_json,
                        const std::vector<TrackRef>& tracks, std::size_t per_track) {
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const TrackRef& t : tracks) {
    for (const Span& s : t.log->spans()) t0 = std::min(t0, s.start_ns);
  }
  // The engine export ends "\n],\"displayTimeUnit\":...}": splice our
  // events in before that closing bracket so one file holds both.
  const std::size_t close = engine_json.rfind("\n]");
  const bool splice = close != std::string::npos;
  if (splice) {
    os.write(engine_json.data(), static_cast<std::streamsize>(close));
  } else {
    os << "{\"traceEvents\":[";
  }
  // The engine always names its rank processes, so a spliced list is
  // never empty.
  bool first = !splice;
  const auto sep = [&]() -> std::ostream& {
    if (!first) os << ",";
    first = false;
    return os << "\n ";
  };
  for (const TrackRef& t : tracks) {
    sep() << "{\"ph\":\"M\",\"pid\":" << t.pid << ",\"tid\":" << t.tid
          << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << t.label << "\"}}";
    const std::vector<Span>& spans = t.log->spans();
    for (std::size_t i = 0; i < spans.size() && i < per_track; ++i) {
      const Span& s = spans[i];
      if (s.end_ns < s.start_ns || s.end_ns == 0) continue;
      sep() << "{\"ph\":\"X\",\"pid\":" << t.pid << ",\"tid\":" << t.tid << ",\"ts\":";
      emit_us(os, s.start_ns - t0);
      os << ",\"dur\":";
      emit_us(os, s.end_ns - s.start_ns);
      os << ",\"cat\":\"bench\",\"name\":\"" << span_name(s.name)
         << "\",\"args\":{\"unit\":" << s.unit_id << ",\"parent\":" << s.parent
         << ",\"aux\":" << s.aux << "}}";
    }
  }
  if (splice) {
    os << engine_json.substr(close);
  } else {
    os << "\n],\"displayTimeUnit\":\"ns\"}\n";
  }
}

}  // namespace bench
