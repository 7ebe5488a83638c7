#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

std::int64_t Tracer::begin(const char* name, std::int64_t parent,
                           std::int64_t request) {
  const auto now = Clock::now();
  return add(name, parent, request, 0, now, now);
}

void Tracer::end(std::int64_t id) { finish(id, Clock::now()); }

void Tracer::finish(std::int64_t id, Clock::time_point at) {
  spans_[static_cast<std::size_t>(id - 1)].end = at;
}

std::int64_t Tracer::add(const char* name, std::int64_t parent,
                         std::int64_t request, int tid,
                         Clock::time_point start, Clock::time_point end) {
  const auto id = static_cast<std::int64_t>(spans_.size()) + 1;
  spans_.push_back({name, id, parent, request, tid, start, end});
  return id;
}

namespace {

/// Self time of one span given the intervals of its children (ms).
double self_time_ms(
    const Tracer::Span& span,
    std::vector<std::pair<Clock::time_point, Clock::time_point>> children) {
  // Union of the children's intervals, clipped to the span.
  std::sort(children.begin(), children.end());
  double covered = 0;
  Clock::time_point cur_lo{}, cur_hi{};
  bool open = false;
  for (auto [lo, hi] : children) {
    lo = std::max(lo, span.start);
    hi = std::min(hi, span.end);
    if (hi <= lo) continue;
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) covered += ms_between(cur_lo, cur_hi);
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) covered += ms_between(cur_lo, cur_hi);
  return ms_between(span.start, span.end) - covered;
}

}  // namespace

std::map<std::string, Tracer::LayerTime> Tracer::layer_times() const {
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent > 0) {
      children[static_cast<std::size_t>(s.parent - 1)].emplace_back(s.start,
                                                                    s.end);
    }
  }
  std::map<std::string, LayerTime> out;
  for (const Span& s : spans_) {
    LayerTime& lt = out[s.name];
    ++lt.count;
    lt.total_ms += ms_between(s.start, s.end);
    lt.self_ms +=
        self_time_ms(s, std::move(children[static_cast<std::size_t>(s.id - 1)]));
  }
  return out;
}

void print_layer_times(const Tracer& tracer, double ops) {
  for (const auto& [name, lt] : tracer.layer_times()) {
    std::printf("span      %-38s count=%-8lld total_ms/op=%-10.4f "
                "self_ms/op=%.4f\n",
                name.c_str(), static_cast<long long>(lt.count),
                lt.total_ms / ops, lt.self_ms / ops);
  }
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::string& process_name) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::FILE* out = f.get();
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  std::fprintf(out,
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": 0, \"args\": {\"name\": \"%s\"}}",
               process_name.c_str());
  int max_tid = 0;
  for (const Span& s : spans_) {
    max_tid = std::max(max_tid, s.tid);
    std::fprintf(out,
                 ",\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"span\": %lld, \"parent\": %lld, "
                 "\"request\": %lld}}",
                 s.name, us_between(origin_, s.start),
                 us_between(s.start, s.end), s.tid,
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  for (int tid = 0; tid <= max_tid; ++tid) {
    const std::string thread =
        tid == 0 ? "client" : "worker-" + std::to_string(tid);
    std::fprintf(out,
                 ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %d, \"args\": {\"name\": \"%s\"}}",
                 tid, thread.c_str());
  }
  std::fprintf(out, "\n]}\n");
  return std::ferror(out) == 0;
}

}  // namespace perfbench
