// Workload service-mixed: an open loop against a SolverService.
//
// One generator thread — which also reaps completions — feeds a
// SolverService with 3 workers (generator + workers = the 4-thread
// budget). Requests arrive as a Poisson process at a fixed nominal rate,
// below saturation on a quiet host. The traffic is an even mix of four small kinds:
//   * MultiplyRequest, full random permutations of n = 192;
//   * length-only LisRequest over n = 160 random values;
//   * LcsRequest of 40 × 48 symbols over a 4-letter alphabet;
//   * WindowLisQuery batches of 8 windows against one of 4 hot indexes
//     (n = 2048) built through the service during set-up.
// Half the requests re-draw one of the 32 most recent distinct requests
// (the hot set), so the service's result cache and in-flight coalescing
// see real repeats; the other half are distinct, drawn in turn from a pool
// of 4096 per kind that is far larger than the cache.
//
// Latency is timed from when a request was due, not when it was sent, so
// a stalled generator shows up in the numbers. After the nominal phase a
// fixed ladder of higher rates finds the highest rate that meets the p99
// latency limit without a growing backlog (untraced runs only).
#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "api/solver.h"
#include "harness.h"
#include "lcs/hunt_szymanski.h"
#include "lis/sequential.h"
#include "query/semilocal_index.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr unsigned kWorkers = 3;
constexpr std::size_t kQueueDepth = 256;
constexpr int kSetups = 9;
constexpr int kHotIndexes = 4;
constexpr std::int64_t kIndexN = 2048;
constexpr int kPoolPerKind = 4096;
constexpr int kHotSet = 32;
constexpr double kDuplicateShare = 0.5;
constexpr std::int64_t kMulN = 192;
constexpr std::int64_t kLisN = 160;
constexpr std::int64_t kLcsS = 40, kLcsT = 48, kLcsSigma = 4;
constexpr int kWindowsPerQuery = 8;

// The open-loop schedule: nominal rate, the p99 latency limit, and the
// rate ladder max_rate_rps is read from.
constexpr double kNominalRate = 50000;
constexpr double kP99LimitMs = 1.0;
constexpr double kLadder[] = {50000, 100000, 150000, 200000, 250000};
constexpr double kNominalShare = 0.6;  ///< of --seconds; the ladder gets the rest
constexpr double kDrainLimitS = 5.0;
constexpr double kBacklogSampleS = 0.005;
constexpr std::int64_t kTraceEvery = 16;  ///< traced phase: spans for 1 request in 16
constexpr int kCalReps = 256;  ///< calibration calls per request kind

enum Kind : std::uint8_t { kMul = 0, kLis = 1, kLcs = 2, kWin = 3, kKinds = 4 };

struct Ref {
  Kind kind;
  std::int32_t idx;
};

struct Inputs {
  std::vector<monge::MultiplyRequest> mul;
  std::vector<monge::LisRequest> lis;
  std::vector<monge::LcsRequest> lcs;
  std::vector<monge::WindowLisQuery> win;  ///< handles set after set-up
  std::vector<int> win_index;              ///< which hot index
  std::vector<std::vector<std::int64_t>> index_seqs;
  std::vector<Ref> traffic;  ///< the request sequence, all phases in turn
};

std::vector<std::int64_t> random_values(monge::Rng& rng, std::int64_t n,
                                        std::int64_t hi) {
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.next_in(0, hi);
  return v;
}

Inputs make_inputs(std::uint64_t seed, std::size_t traffic_len) {
  monge::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 4);
  Inputs in;
  for (int k = 0; k < kHotIndexes; ++k) {
    in.index_seqs.push_back(random_values(rng, kIndexN, std::int64_t{1} << 40));
  }
  for (int i = 0; i < kPoolPerKind; ++i) {
    in.mul.push_back({monge::Perm::random(kMulN, rng),
                      monge::Perm::random(kMulN, rng)});
    in.lis.push_back({.seq = random_values(rng, kLisN, std::int64_t{1} << 40)});
    in.lcs.push_back({random_values(rng, kLcsS, kLcsSigma - 1),
                      random_values(rng, kLcsT, kLcsSigma - 1)});
    monge::WindowLisQuery q;
    for (int w = 0; w < kWindowsPerQuery; ++w) {
      const std::int64_t l = rng.next_in(0, kIndexN - 1);
      q.windows.emplace_back(l, rng.next_in(l, kIndexN - 1));
    }
    in.win.push_back(std::move(q));
    in.win_index.push_back(static_cast<int>(rng.next_below(kHotIndexes)));
  }
  // Traffic: half re-draws from the ring of recent distinct requests, half
  // takes the next distinct request of a uniformly drawn kind.
  std::vector<Ref> ring;
  std::size_t ring_pos = 0;
  std::int32_t next[kKinds] = {0, 0, 0, 0};
  in.traffic.reserve(traffic_len);
  for (std::size_t s = 0; s < traffic_len; ++s) {
    if (!ring.empty() && rng.next_double() < kDuplicateShare) {
      in.traffic.push_back(ring[rng.next_below(ring.size())]);
      continue;
    }
    const auto kind = static_cast<Kind>(rng.next_below(kKinds));
    const Ref ref{kind, next[kind]};
    next[kind] = (next[kind] + 1) % kPoolPerKind;
    in.traffic.push_back(ref);
    if (ring.size() < static_cast<std::size_t>(kHotSet)) {
      ring.push_back(ref);
    } else {
      ring[ring_pos] = ref;
      ring_pos = (ring_pos + 1) % kHotSet;
    }
  }
  return in;
}

/// 64-bit fingerprint of an answer (FNV-1a over the values).
std::uint64_t fingerprint(std::span<const std::int64_t> v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::int64_t x : v) {
    h = (h ^ static_cast<std::uint64_t>(x)) * 1099511628211ULL;
  }
  return h;
}
std::uint64_t fingerprint_of(const monge::MultiplyResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::int32_t x : r.c.row_to_col()) {
    h = (h ^ static_cast<std::uint32_t>(x)) * 1099511628211ULL;
  }
  return h;
}
std::uint64_t fingerprint_of(const monge::LisResult& r) {
  const std::int64_t v[] = {r.lis};
  return fingerprint(v);
}
std::uint64_t fingerprint_of(const monge::LcsResult& r) {
  const std::int64_t v[] = {r.lcs, r.matches};
  return fingerprint(v);
}
std::uint64_t fingerprint_of(const monge::WindowLisResult& r) {
  return fingerprint(r.lis);
}

/// The service plus the hot indexes' handles.
struct Setup {
  std::unique_ptr<monge::SolverService> service;
  std::vector<monge::QueryHandle> handles;
};

/// Hook timestamps: the service calls the hook on its worker thread right
/// before each underlying solve.
struct HookLog {
  std::vector<Clock::time_point> at;
  std::vector<std::thread::id> worker;
  std::atomic<std::size_t> count{0};
};

Setup make_setup(const Inputs& in, HookLog* hooks) {
  monge::ServiceOptions o;
  o.workers = kWorkers;
  o.queue_depth = kQueueDepth;
  // Block, not reject: a stalled worker then delays the generator, which
  // shows as lateness and latency, instead of failing requests.
  o.admission = monge::AdmissionPolicy::kBlock;
  if (hooks != nullptr) {
    o.solve_hook = [hooks] {
      const std::size_t i = hooks->count.fetch_add(1, std::memory_order_relaxed);
      if (i < hooks->at.size()) {
        hooks->at[i] = Clock::now();
        hooks->worker[i] = std::this_thread::get_id();
      }
    };
  }
  Setup s;
  s.service = std::make_unique<monge::SolverService>(std::move(o));
  for (const auto& seq : in.index_seqs) {
    s.handles.push_back(
        s.service->submit(monge::BuildIndexRequest{.seq = seq}).get().handle);
  }
  // One warm-up request of each kind, outside the traffic pool.
  monge::Rng rng(99);
  s.service->submit(monge::MultiplyRequest{monge::Perm::random(kMulN, rng),
                                           monge::Perm::random(kMulN, rng)})
      .get();
  s.service->submit(monge::LisRequest{.seq = random_values(rng, kLisN, 1000)})
      .get();
  s.service
      ->submit(monge::LcsRequest{random_values(rng, kLcsS, kLcsSigma - 1),
                                 random_values(rng, kLcsT, kLcsSigma - 1)})
      .get();
  s.service->submit(monge::WindowLisQuery{s.handles[0], {{0, kIndexN - 1}}})
      .get();
  return s;
}

template <typename Result>
struct Pending {
  std::int64_t send = 0;
  std::future<Result> fut;
};

/// Results of one open-loop phase.
struct PhaseResult {
  double rate = 0;
  double seconds = 0;
  std::int64_t first = 0;  ///< index of the phase's first request in traffic
  std::int64_t sent = 0;
  std::int64_t rejected = 0;
  OpenLoopTimes times;               ///< per request, by send order
  std::vector<bool> ok;              ///< finished OK
  std::vector<std::uint64_t> fp;     ///< answer fingerprints
  std::vector<std::int64_t> outstanding;  ///< due, not done; every 5 ms
  monge::ServiceStats stats{};       ///< delta over the phase
  // Traced phases only.
  std::vector<double> submit_us;
  std::vector<Clock::time_point> admitted_return;  ///< queued submits, in order
  std::vector<std::int64_t> admitted_root;         ///< their root span ids
  std::vector<std::int64_t> admitted_request;      ///< their request ids
};

monge::ServiceStats delta(const monge::ServiceStats& a,
                          const monge::ServiceStats& b) {
  return {a.submitted - b.submitted, a.admitted - b.admitted,
          a.rejected - b.rejected,   a.coalesced - b.coalesced,
          a.cache_hits - b.cache_hits, a.solves - b.solves,
          a.solve_errors - b.solve_errors};
}

/// The generator/reaper loop of one phase. Sends each request once it is
/// due (back to back when behind) and, between sends, polls every pending
/// future; a request's completion time is when the poll sees it ready.
class OpenLoop {
 public:
  OpenLoop(const Inputs& in, monge::SolverService& svc, Tracer* tracer)
      : in_(in), svc_(svc), tracer_(tracer) {}

  PhaseResult run(std::int64_t first, double rate, double seconds,
                  std::uint64_t seed) {
    PhaseResult ph;
    ph.rate = rate;
    ph.seconds = seconds;
    ph.first = first;
    std::vector<double> due_s = poisson_schedule(rate, seconds, seed);
    due_s.resize(std::min(due_s.size(),
                          in_.traffic.size() - static_cast<std::size_t>(first)));
    const auto count = static_cast<std::int64_t>(due_s.size());
    const auto ucount = due_s.size();
    for (const double d : due_s) ph.times.due_ms.push_back(1000.0 * d);
    ph.times.sent_ms.assign(ucount, 0.0);
    ph.times.done_ms.assign(ucount, std::numeric_limits<double>::infinity());
    ph.ok.assign(ucount, false);
    ph.fp.assign(ucount, 0);
    roots_.assign(ucount, 0);
    const monge::ServiceStats s0 = svc_.stats();
    last_stats_ = s0;
    start_ = Clock::now();
    std::vector<Clock::time_point> due_at(ucount);
    for (std::size_t i = 0; i < ucount; ++i) {
      due_at[i] = start_ + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(due_s[i]));
    }
    const auto sample_every = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kBacklogSampleS));
    const auto drain = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kDrainLimitS));
    auto next_sample = start_;
    std::int64_t i = 0;          // sent
    std::int64_t due_now = 0;    // due by now, sent or not
    std::int64_t completed = 0;
    for (;;) {
      const auto now = Clock::now();
      if (i < count && now >= due_at[static_cast<std::size_t>(i)]) {
        send(ph, i, now, due_at[static_cast<std::size_t>(i)]);
        ++i;
      }
      completed += sweep(ph);
      if (i < count && now >= next_sample) {
        while (due_now < count && due_at[static_cast<std::size_t>(due_now)] <= now) {
          ++due_now;
        }
        ph.outstanding.push_back(due_now - completed - ph.rejected);
        next_sample += sample_every;
      }
      if (i == count) {
        if (pending_total() == 0) break;
        if (now > due_at.back() + drain) {
          abandon();
          break;
        }
      }
    }
    ph.sent = count;
    ph.stats = delta(svc_.stats(), s0);
    return ph;
  }

 private:
  double offset_ms(Clock::time_point t) const { return ms_between(start_, t); }

  template <typename Request, typename Result>
  void submit_one(PhaseResult& ph, std::int64_t i, const Request& req,
                  std::vector<Pending<Result>>& pending) {
    const auto t0 = Clock::now();
    try {
      pending.push_back({i, svc_.submit(Request(req))});
    } catch (const monge::OverloadedError&) {
      ph.rejected += 1;  // stays !ok: a refused request misses every limit
    }
    if (tracer_ == nullptr) return;
    const auto t1 = Clock::now();
    const std::int64_t root = roots_[static_cast<std::size_t>(i)];
    if (root != 0) {
      tracer_->add("api.service.submit", root, ph.first + i, 0, t0, t1);
    }
    ph.submit_us.push_back(us_between(t0, t1));
    // One submitter thread, so a rise in `admitted` is this request's.
    const monge::ServiceStats now = svc_.stats();
    if (now.admitted > last_stats_.admitted) {
      ph.admitted_return.push_back(t1);
      ph.admitted_root.push_back(root);
      ph.admitted_request.push_back(ph.first + i);
    }
    last_stats_ = now;
  }

  void send(PhaseResult& ph, std::int64_t i, Clock::time_point now,
            Clock::time_point due) {
    ph.times.sent_ms[static_cast<std::size_t>(i)] = offset_ms(now);
    const Ref ref = in_.traffic[static_cast<std::size_t>(ph.first + i)];
    if (tracer_ != nullptr && (ph.first + i) % kTraceEvery == 0) {
      roots_[static_cast<std::size_t>(i)] =
          tracer_->add(kRootName[ref.kind], 0, ph.first + i, 0, due, due);
    }
    const auto idx = static_cast<std::size_t>(ref.idx);
    switch (ref.kind) {
      case kMul: submit_one(ph, i, in_.mul[idx], mul_); break;
      case kLis: submit_one(ph, i, in_.lis[idx], lis_); break;
      case kLcs: submit_one(ph, i, in_.lcs[idx], lcs_); break;
      default: submit_one(ph, i, in_.win[idx], win_); break;
    }
  }

  template <typename Result>
  std::int64_t sweep_one(PhaseResult& ph, std::vector<Pending<Result>>& pending) {
    std::int64_t n = 0;
    for (std::size_t j = 0; j < pending.size();) {
      if (pending[j].fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++j;
        continue;
      }
      const auto now = Clock::now();
      const auto i = static_cast<std::size_t>(pending[j].send);
      try {
        ph.fp[i] = fingerprint_of(pending[j].fut.get());
        ph.ok[i] = true;
        ph.times.done_ms[i] = offset_ms(now);
      } catch (const std::exception&) {
        ph.ok[i] = false;
      }
      if (tracer_ != nullptr && roots_[i] != 0) tracer_->finish(roots_[i], now);
      pending[j] = std::move(pending.back());
      pending.pop_back();
      ++n;
    }
    return n;
  }

  std::int64_t sweep(PhaseResult& ph) {
    return sweep_one(ph, mul_) + sweep_one(ph, lis_) + sweep_one(ph, lcs_) +
           sweep_one(ph, win_);
  }

  std::size_t pending_total() const {
    return mul_.size() + lis_.size() + lcs_.size() + win_.size();
  }

  /// Drops requests that did not finish within the drain limit; they stay
  /// marked failed. Dropping a future is safe: the service still fulfils
  /// its promise before the service's destructor returns.
  void abandon() {
    mul_.clear();
    lis_.clear();
    lcs_.clear();
    win_.clear();
  }

  static constexpr const char* kRootName[kKinds] = {
      "request.multiply", "request.lis_length", "request.lcs",
      "request.window_query"};

  const Inputs& in_;
  monge::SolverService& svc_;
  Tracer* tracer_;
  Clock::time_point start_{};
  monge::ServiceStats last_stats_{};
  std::vector<std::int64_t> roots_;
  std::vector<Pending<monge::MultiplyResult>> mul_;
  std::vector<Pending<monge::LisResult>> lis_;
  std::vector<Pending<monge::LcsResult>> lcs_;
  std::vector<Pending<monge::WindowLisResult>> win_;
};

/// Expected fingerprints from a private Solver replay (own engine, own
/// indexes), memoized per pool entry.
class Replay {
 public:
  explicit Replay(const Inputs& in) : in_(in) {
    for (const auto& seq : in.index_seqs) {
      handles_.push_back(solver_.solve(monge::BuildIndexRequest{.seq = seq}).handle);
    }
    for (auto& v : memo_) v.assign(kPoolPerKind, 0);
    for (auto& v : known_) v.assign(kPoolPerKind, false);
  }

  std::uint64_t expected(Ref ref) {
    const auto idx = static_cast<std::size_t>(ref.idx);
    if (!known_[ref.kind][idx]) {
      memo_[ref.kind][idx] = compute(ref.kind, idx);
      known_[ref.kind][idx] = true;
    }
    return memo_[ref.kind][idx];
  }

 private:
  std::uint64_t compute(Kind kind, std::size_t idx) {
    switch (kind) {
      case kMul: return fingerprint_of(solver_.solve(in_.mul[idx]));
      case kLis: return fingerprint_of(solver_.solve(in_.lis[idx]));
      case kLcs: return fingerprint_of(solver_.solve(in_.lcs[idx]));
      default:
        return fingerprint_of(solver_.solve(monge::WindowLisQuery{
            handles_[static_cast<std::size_t>(in_.win_index[idx])],
            in_.win[idx].windows}));
    }
  }

  static monge::SolverOptions oracle_options() {
    monge::SolverOptions o;
    o.engine.core_density_cutoff = 0.0;
    return o;
  }

  const Inputs& in_;
  monge::Solver solver_{oracle_options()};
  std::vector<monge::QueryHandle> handles_;
  std::vector<std::uint64_t> memo_[kKinds];
  std::vector<bool> known_[kKinds];
};

void check_phase(const Inputs& in, const PhaseResult& ph, Replay& replay,
                 WorkloadResult& out) {
  std::int64_t wrong = 0;
  for (std::int64_t i = 0; i < ph.sent; ++i) {
    const auto u = static_cast<std::size_t>(i);
    out.attempted += 1;
    if (!ph.ok[u]) {
      out.failed += 1;
      continue;
    }
    if (ph.fp[u] != replay.expected(in.traffic[static_cast<std::size_t>(ph.first + i)])) {
      ++wrong;
    }
  }
  out.failed += wrong;
  out.wrong += wrong;
  if (wrong > 0) {
    out.problems.push_back(std::to_string(wrong) +
                           " service answers disagree with the private replay");
  }
}

double throughput_of(const PhaseResult& ph) {
  return static_cast<double>(std::count(ph.ok.begin(), ph.ok.end(), true)) /
         ph.seconds;
}

/// Calibration: `via_solver(r)` and `direct(r)` — one request kind through
/// Solver::solve and through the delegate its route names — paired on the
/// first kCalReps pool entries, each call in its own span under `parent`.
template <typename A, typename B>
Paired paired_spans(Tracer& tracer, std::int64_t parent, const char* solver_span,
                    const char* direct_span, A via_solver, B direct) {
  return paired_calls(
      1e9, kCalReps,
      [&](int r) {
        Tracer::Scope s(tracer, solver_span, parent, r);
        via_solver(static_cast<std::size_t>(r));
      },
      [&](int r) {
        Tracer::Scope s(tracer, direct_span, parent, r);
        direct(static_cast<std::size_t>(r));
      });
}

}  // namespace

WorkloadResult run_service(const Options& opt) {
  WorkloadResult out;
  out.threads = {.client = 1, .service_workers = static_cast<int>(kWorkers)};
  out.params = {{"loop", "open, Poisson arrivals, 1 generator/reaper thread"},
                {"nominal_rate_rps", json_number(kNominalRate)},
                {"p99_limit_ms", json_number(kP99LimitMs)},
                {"duplicate_share", json_number(kDuplicateShare)},
                {"hot_set", std::to_string(kHotSet)},
                {"pool_per_kind", std::to_string(kPoolPerKind)},
                {"hot_indexes", std::to_string(kHotIndexes) + " x n=" +
                                    std::to_string(kIndexN)},
                {"queue_depth", std::to_string(kQueueDepth)},
                {"admission", "block"},
                {"setups", std::to_string(kSetups)}};
  std::string ladder;
  for (const double r : kLadder) {
    if (!ladder.empty()) ladder += ',';
    ladder += json_number(r);
  }
  out.params["rate_ladder_rps"] = ladder;

  const double nominal_s = opt.trace ? opt.seconds / 2 : opt.seconds * kNominalShare;
  const double rung_s =
      opt.seconds * (1 - kNominalShare) / static_cast<double>(std::size(kLadder));
  double traffic = kNominalRate * nominal_s * (opt.trace ? 2 : 1);
  if (!opt.trace) {
    for (const double r : kLadder) traffic += r * rung_s;
  }
  Inputs in = make_inputs(opt.seed, static_cast<std::size_t>(traffic * 1.2) + 1024);

  HookLog hooks;
  if (opt.trace) {
    hooks.at.resize(in.traffic.size() + 1024);
    hooks.worker.resize(in.traffic.size() + 1024);
  }
  double setup_s = 0;
  Setup setup = timed_setups(
      kSetups, [&] { return make_setup(in, opt.trace ? &hooks : nullptr); },
      &setup_s);
  for (std::size_t i = 0; i < in.win.size(); ++i) {
    in.win[i].handle = setup.handles[static_cast<std::size_t>(in.win_index[i])];
  }
  Replay replay(in);

  if (!opt.trace) {
    OpenLoop loop(in, *setup.service, nullptr);
    const PhaseResult nominal = loop.run(0, kNominalRate, nominal_s, opt.seed);
    std::vector<PhaseResult> rungs;
    std::int64_t next = nominal.sent;
    for (std::size_t r = 0; r < std::size(kLadder); ++r) {
      rungs.push_back(loop.run(next, kLadder[r], rung_s, opt.seed + 1 + r));
      next += rungs.back().sent;
    }
    const double rss = peak_rss_mib();

    check_phase(in, nominal, replay, out);
    const std::vector<double> all = nominal.times.latencies_ms();
    const auto n = static_cast<std::int64_t>(all.size());
    out.end_to_end = {
        {"setup_s", setup_s, "s", kSetups, "median of set-ups"},
        {"throughput_ops_s", throughput_of(nominal), "ops/s", n,
         "completed OK per second at the nominal rate"},
        {"peak_rss_mib", rss, "MiB", 0, ""},
    };
    double max_rate = 0;
    std::string ladder_note;
    for (const PhaseResult& rung : rungs) {
      WorkloadResult rung_check;
      check_phase(in, rung, replay, rung_check);
      out.wrong += rung_check.wrong;
      out.problems.insert(out.problems.end(), rung_check.problems.begin(),
                          rung_check.problems.end());
      const double rung_p99 = percentile(rung.times.latencies_ms(), 0.99);
      const bool growing = backlog_growing(rung.outstanding, 16.0);
      const bool pass =
          rung_check.failed == 0 && !growing && rung_p99 <= kP99LimitMs;
      if (pass) max_rate = std::max(max_rate, rung.rate);
      ladder_note += json_number(rung.rate) + ":" +
                     (pass ? "pass" : "fail") + "(p99=" + json_number(rung_p99) +
                     "ms" + (growing ? ",backlog" : "") +
                     (rung_check.failed > 0 ? ",failed=" + std::to_string(rung_check.failed) : "") +
                     ") ";
    }
    out.extra = {
        {"latency_p50_ms", percentile(all, 0.5), "ms", n, "from due time"},
        {"latency_p99_ms", percentile(all, 0.99), "ms", n,
         "from due time, " + std::to_string(samples_beyond(n, 0.99)) + " samples beyond"},
        {"slo_attainment", slo_attainment(all, out.attempted, kP99LimitMs), "ratio", n,
         "share finishing OK within the p99 limit"},
        {"max_rate_rps", max_rate, "req/s", 0, ladder_note},
        {"loadgen_lag_p99_ms", percentile(nominal.times.lateness_ms(), 0.99), "ms", n,
         "generator lateness at the nominal rate"},
        {"cache_hit_ratio",
         static_cast<double>(nominal.stats.cache_hits) /
             static_cast<double>(std::max<std::int64_t>(nominal.stats.submitted, 1)),
         "ratio", 0, ""},
    };
    return out;
  }

  // Traced run: the nominal phase untraced, then traced (spans around each
  // submit, queue wait from submit return to the solve hook), then direct
  // calls into each layer's public functions.
  OpenLoop plain_loop(in, *setup.service, nullptr);
  const PhaseResult plain = plain_loop.run(0, kNominalRate, nominal_s, opt.seed);
  Tracer tracer;
  const std::size_t hooks_before = hooks.count.load();
  OpenLoop traced_loop(in, *setup.service, &tracer);
  const PhaseResult traced =
      traced_loop.run(plain.sent, kNominalRate, nominal_s, opt.seed + 7);
  check_phase(in, plain, replay, out);
  check_phase(in, traced, replay, out);

  // Queue wait: the queue is FIFO, so the k-th queued submit of the phase
  // is matched with the k-th solve-hook call after the phase began.
  std::vector<double> wait_us;
  std::map<std::thread::id, int> worker_tid;  // trace row per worker
  const std::size_t hooks_end = std::min(hooks.count.load(), hooks.at.size());
  for (std::size_t k = 0;
       k < traced.admitted_return.size() && hooks_before + k < hooks_end; ++k) {
    const Clock::time_point hook_at = hooks.at[hooks_before + k];
    const Clock::time_point from = traced.admitted_return[k];
    wait_us.push_back(std::max(0.0, us_between(from, hook_at)));
    if (traced.admitted_root[k] == 0) continue;  // not a sampled request
    const auto [it, fresh] = worker_tid.try_emplace(
        hooks.worker[hooks_before + k], static_cast<int>(worker_tid.size()) + 1);
    tracer.add("api.service.queue_wait", traced.admitted_root[k],
               traced.admitted_request[k], it->second, from,
               std::max(from, hook_at));
  }

  // Direct calls into each layer behind the service, on a private Solver:
  // each request through Solver::solve and through the delegate its route
  // names (api/solver.h routing table), back to back.
  monge::Solver probe;
  const std::int64_t cal = tracer.begin("calibration", 0, 0);
  std::int64_t sink = 0;  // keeps every result observable
  const Paired mul = paired_spans(
      tracer, cal, "api.solver.solve.multiply", "monge.engine.multiply",
      [&](std::size_t r) { sink += probe.solve(in.mul[r]).c.rows(); },
      [&](std::size_t r) {
        sink += probe.engine().multiply(in.mul[r].a, in.mul[r].b).rows();
      });
  const Paired lis = paired_spans(
      tracer, cal, "api.solver.solve.lis_length", "lis.sequential.patience",
      [&](std::size_t r) { sink += probe.solve(in.lis[r]).lis; },
      [&](std::size_t r) { sink += monge::lis::lis_length(in.lis[r].seq); });
  std::vector<double> match_us;
  double matches = 0;
  const Paired lcs = paired_spans(
      tracer, cal, "api.solver.solve.lcs", "lcs.hunt_szymanski.match+patience",
      [&](std::size_t r) { sink += probe.solve(in.lcs[r]).lcs; },
      [&](std::size_t r) {
        const auto t0 = Clock::now();
        const auto seq = monge::lcs::hs_match_sequence(in.lcs[r].s, in.lcs[r].t);
        match_us.push_back(us_between(t0, Clock::now()));
        matches += static_cast<double>(seq.size());
        sink += monge::lis::lis_length(seq);
      });
  const Paired win = paired_spans(
      tracer, cal, "api.solver.solve.window_query",
      "query.semilocal_index.window_batch",
      [&](std::size_t r) { sink += probe.solve(in.win[r]).lis.front(); },
      [&](std::size_t r) {
        sink += in.win[r].handle.index->window_lis_batch(in.win[r].windows).front();
      });
  std::vector<double> build_ms;
  std::int64_t index_bytes = 0;
  for (std::size_t k = 0; k < in.index_seqs.size(); ++k) {
    const auto t0 = Clock::now();
    sink += monge::query::SemiLocalIndex::from_sequence(in.index_seqs[k]).size();
    const auto t1 = Clock::now();
    tracer.add("query.semilocal_index.build", cal, static_cast<std::int64_t>(k), 0,
               t0, t1);
    build_ms.push_back(ms_between(t0, t1));
    index_bytes += setup.handles[k].index->memory_bytes();
  }
  out.params["calibration_checksum"] = std::to_string(sink);
  tracer.end(cal);

  const auto med = [](const std::vector<double>& v) { return percentile(v, 0.5); };
  const auto ratio = [](std::int64_t a, std::int64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  const auto n = static_cast<std::int64_t>(traced.sent);
  const auto nw = static_cast<std::int64_t>(wait_us.size());
  std::vector<Metric> pl = zeroed_per_layer();
  set_metric(pl, "api.service.submit_us_p50", percentile(traced.submit_us, 0.5), n);
  set_metric(pl, "api.service.submit_us_p99", percentile(traced.submit_us, 0.99), n);
  set_metric(pl, "api.service.queue_wait_us_p50", percentile(wait_us, 0.5), nw,
             "submit return to solve hook, FIFO-matched");
  set_metric(pl, "api.service.queue_wait_us_p99", percentile(wait_us, 0.99), nw,
             "submit return to solve hook, FIFO-matched");
  set_metric(pl, "api.service.cache_hit_ratio",
             ratio(traced.stats.cache_hits, traced.stats.submitted), n);
  set_metric(pl, "api.service.coalesce_ratio",
             ratio(traced.stats.coalesced, traced.stats.submitted), n);
  set_metric(pl, "api.service.rejected", static_cast<double>(traced.stats.rejected), n);
  set_metric(pl, "api.service.solve_errors",
             static_cast<double>(traced.stats.solve_errors), n);
  set_metric(pl, "api.solver.overhead_us.multiply", mul.median_difference_us(),
             kCalReps, "paired Solver::solve minus SeaweedEngine::multiply, median");
  set_metric(pl, "api.solver.overhead_us.lis_length", lis.median_difference_us(),
             kCalReps, "paired Solver::solve minus lis::lis_length, median");
  set_metric(pl, "api.solver.overhead_us.lcs", lcs.median_difference_us(), kCalReps,
             "paired Solver::solve minus match build + patience, median");
  set_metric(pl, "api.solver.overhead_us.window_query", win.median_difference_us(),
             kCalReps, "paired Solver::solve minus window_lis_batch, median");
  set_metric(pl, "lis.sequential.patience_us", 1000.0 * med(lis.b_ms), kCalReps);
  set_metric(pl, "monge.engine.multiply_us", 1000.0 * med(mul.b_ms), kCalReps);
  set_metric(pl, "monge.engine.arena_bytes",
             static_cast<double>(probe.engine().arena_capacity()), 0,
             "private Solver's engine after the calibration multiplies");
  set_metric(pl, "lcs.hunt_szymanski.match_us", med(match_us), kCalReps);
  set_metric(pl, "lcs.hunt_szymanski.matches",
             matches / static_cast<double>(match_us.size()), kCalReps, "per request");
  set_metric(pl, "query.semilocal_index.window_batch_us", 1000.0 * med(win.b_ms),
             kCalReps);
  set_metric(pl, "query.semilocal_index.build_ms", med(build_ms),
             static_cast<std::int64_t>(build_ms.size()));
  set_metric(pl, "query.semilocal_index.memory_bytes",
             static_cast<double>(index_bytes), 0, "all hot indexes");
  set_metric(pl, "loadgen.lag_p99_ms", percentile(traced.times.lateness_ms(), 0.99), n,
             "traced phase");
  set_metric(pl, "trace.overhead_ratio", throughput_of(traced) / throughput_of(plain),
             n, "traced / untraced throughput (open loop: near 1 below saturation)");
  out.per_layer = std::move(pl);
  out.params["trace_file"] = opt.trace_out;
  print_layer_times(tracer, static_cast<double>(n));
  if (!tracer.write_chrome_json(opt.trace_out, "service-mixed")) {
    out.problems.push_back("could not write " + opt.trace_out);
  }
  return out;
}

}  // namespace perfbench
