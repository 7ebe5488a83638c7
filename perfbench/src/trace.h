// In-memory span recorder for traced runs.
//
// Spans are recorded by the benchmark around its calls into the library's
// public functions (one span per layer boundary): name, start, end, the
// parent span and the request id. They stay in memory until the run ends,
// then go out as Chrome trace-event JSON, which Perfetto
// (ui.perfetto.dev) and chrome://tracing open directly.
//
// Recording is single-threaded: only the benchmark's client thread calls
// begin/end/add. Spans observed on other threads (service workers) are
// added after the fact with add(), carrying the thread index they ran on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t id = 0;
    std::int64_t parent = 0;   ///< 0 = root
    std::int64_t request = 0;  ///< request id shared by one request's spans
    int tid = 0;               ///< 0 = client thread
    Clock::time_point start{};
    Clock::time_point end{};
  };

  /// Aggregate of one span name: count, total and self time.
  struct LayerTime {
    std::int64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };

  Tracer();

  /// Opens a span on the client thread; returns its id.
  std::int64_t begin(const char* name, std::int64_t parent,
                     std::int64_t request);
  void end(std::int64_t id);
  /// Sets the end of an open span to `at` (any span, any thread's clock).
  void finish(std::int64_t id, Clock::time_point at);
  /// Records a finished span (any thread). Returns its id.
  std::int64_t add(const char* name, std::int64_t parent, std::int64_t request,
                   int tid, Clock::time_point start, Clock::time_point end);

  /// Per-name totals; self time is a span's duration minus the part of it
  /// its children cover (overlapping children are counted once).
  std::map<std::string, LayerTime> layer_times() const;

  /// Writes Chrome trace-event JSON ("X" complete events, microseconds
  /// relative to the tracer's construction). Returns false on I/O failure.
  bool write_chrome_json(const std::string& path,
                         const std::string& process_name) const;

  /// RAII span on the client thread.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::int64_t parent,
          std::int64_t request)
        : t_(t), id_(t.begin(name, parent, request)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int64_t id() const { return id_; }

   private:
    Tracer& t_;
    std::int64_t id_;
  };

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;  ///< spans_[id - 1]
};

/// Prints one `span` line per span name: count, and total and self time
/// per op (`ops` ops ran traced).
void print_layer_times(const Tracer& tracer, double ops);

}  // namespace perfbench
