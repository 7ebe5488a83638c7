#include "api/service.h"

#include <span>
#include <string>

#include "util/check.h"
#include "util/error.h"

namespace monge {

// ---------------------------------------------------------------------------
// Request digests.
// ---------------------------------------------------------------------------

namespace {

/// Two independent 64-bit accumulation streams (FNV-1a-style fold followed
/// by the splitmix64 finalizer, with distinct offsets and combining rules)
/// over the request's words. Every variable-length field is preceded by
/// its length and every request by its kind's tag, so no two distinct
/// payloads serialize to the same word stream. field() has one overload
/// per field type that a RequestTraits visit() lists.
struct DigestBuilder {
  std::uint64_t lo = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::uint64_t hi = 0x6a09e667f3bcc909ULL;  // frac(sqrt(2))

  static std::uint64_t mix(std::uint64_t z) {  // splitmix64 finalizer
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  void word(std::uint64_t w) {
    lo = mix((lo ^ w) * 0x100000001b3ULL);  // FNV-1a prime
    hi = mix((hi + w) * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
  }

  template <typename Enum>
    requires std::is_enum_v<Enum>
  void field(Enum e) {
    word(static_cast<std::uint64_t>(e));
  }

  void field(bool flag) { word(flag ? 1 : 0); }

  void field(const Perm& p) {
    word(static_cast<std::uint64_t>(p.cols()));
    const std::span<const std::int32_t> rows = p.row_to_col();
    word(static_cast<std::uint64_t>(rows.size()));
    for (const std::int32_t x : rows) {
      word(static_cast<std::uint64_t>(static_cast<std::int64_t>(x)));
    }
  }

  void field(const std::vector<std::int64_t>& v) {
    word(static_cast<std::uint64_t>(v.size()));
    for (const std::int64_t x : v) word(static_cast<std::uint64_t>(x));
  }

  void field(const std::vector<std::pair<std::int64_t, std::int64_t>>& v) {
    word(static_cast<std::uint64_t>(v.size()));
    for (const auto& [l, r] : v) {
      word(static_cast<std::uint64_t>(l));
      word(static_cast<std::uint64_t>(r));
    }
  }

  // The index id is process-unique and never reused, so it stands in for
  // the whole indexed payload.
  void field(const QueryHandle& h) { word(h.id()); }
};

}  // namespace

template <SolverRequest Req>
RequestDigest request_digest(const Req& req) {
  DigestBuilder b;
  b.word(static_cast<std::uint64_t>(RequestTraits<Req>::kTag));
  RequestTraits<Req>::visit(
      req, [&b](const auto&... fields) { (b.field(fields), ...); });
  return {b.lo, b.hi};
}

// ---------------------------------------------------------------------------
// Lifecycle.
// ---------------------------------------------------------------------------

SolverService::SolverService(ServiceOptions options)
    : options_(std::move(options)) {
  if (options_.queue_depth < 1) {
    throw InvalidRequestError("ServiceOptions.queue_depth must be >= 1");
  }
  if (options_.admission != AdmissionPolicy::kBlock &&
      options_.admission != AdmissionPolicy::kReject) {
    throw InvalidRequestError(
        "ServiceOptions.admission is not a valid AdmissionPolicy");
  }
  // Validate the per-worker solver configuration eagerly on this thread
  // (constructing a Solver is cheap — the arena starts empty and the
  // cluster is lazy), so bad knobs throw here instead of on a worker.
  { Solver probe(options_.solver); }

  pool_ = std::make_unique<ThreadPool>(options_.workers);
  const unsigned n = pool_->thread_count();
  for (unsigned i = 0; i < n; ++i) {
    const bool posted = pool_->post([this] { worker_loop(); });
    MONGE_CHECK(posted);  // the pool cannot be stopping during construction
  }
}

SolverService::~SolverService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  queue_cv_.notify_all();  // workers: drain, then exit
  space_cv_.notify_all();  // blocked submitters: observe shutdown, refuse
  pool_.reset();           // drains the admitted jobs and joins the workers
}

void SolverService::worker_loop() {
  // The worker's private Solver: its own engine arena and (for MpcSim) its
  // own lazily provisioned cluster — workers never contend on either.
  Solver solver(options_.solver);
  for (;;) {
    std::function<void(Solver&)> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
      space_cv_.notify_one();  // a queue slot freed
    }
    job(solver);
  }
}

// ---------------------------------------------------------------------------
// Cache + lanes.
// ---------------------------------------------------------------------------

template <typename Req>
const RequestResult<Req>* SolverService::cache_find_locked(RequestDigest key) {
  auto& ln = lane<Req>();
  const auto it = ln.cache.find(key);
  if (it == ln.cache.end()) return nullptr;
  ln.lru.splice(ln.lru.begin(), ln.lru, it->second);  // refresh recency
  return &it->second->second;
}

template <typename Req>
void SolverService::cache_insert_locked(RequestDigest key,
                                        const RequestResult<Req>& value) {
  if (options_.cache_capacity == 0) return;
  auto& ln = lane<Req>();
  if (const auto it = ln.cache.find(key); it != ln.cache.end()) {
    it->second->second = value;
    ln.lru.splice(ln.lru.begin(), ln.lru, it->second);
    return;
  }
  ln.lru.emplace_front(key, value);
  ln.cache[key] = ln.lru.begin();
  if (ln.cache.size() > options_.cache_capacity) {
    ln.cache.erase(ln.lru.back().first);
    ln.lru.pop_back();
  }
}

// ---------------------------------------------------------------------------
// Jobs.
// ---------------------------------------------------------------------------

template <bool IsTry, typename Req>
void SolverService::run_job(Solver& solver, const Req& req, RequestDigest key,
                            RequestDigest flight_key) {
  using Result = RequestResult<Req>;
  if (options_.solve_hook) options_.solve_hook();
  if constexpr (!IsTry) {
    Result value{};
    std::exception_ptr error;
    try {
      value = solver.solve(req);
    } catch (...) {
      error = std::current_exception();
    }
    std::vector<std::promise<Result>> waiters;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.solves;
      if (error) ++stats_.solve_errors;
      auto& ln = lane<Req>();
      const auto it = ln.in_flight.find(flight_key);
      waiters = std::move(it->second->solve_waiters);
      ln.in_flight.erase(it);
      // Errors are never cached: faults and space overruns depend on
      // mutable cluster state, so a retry can legitimately succeed.
      if (!error) cache_insert_locked<Req>(key, value);
    }
    for (auto& p : waiters) {
      if (error) {
        p.set_exception(error);
      } else {
        p.set_value(value);
      }
    }
  } else {
    const TrySolveResult<Result> res = solver.try_solve(req);
    std::vector<std::promise<TrySolveResult<Result>>> waiters;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.solves;
      if (!res.report.ok()) ++stats_.solve_errors;
      auto& ln = lane<Req>();
      const auto it = ln.in_flight.find(flight_key);
      waiters = std::move(it->second->try_waiters);
      ln.in_flight.erase(it);
      // Degraded values are correct but shaped like the fallback backend
      // (zero rounds/reports), so they must not satisfy future requests
      // that expect a healthy MpcSim answer.
      if (res.report.ok() && !res.report.degraded) {
        cache_insert_locked<Req>(key, res.value);
      }
    }
    for (auto& p : waiters) p.set_value(res);
  }
}

// ---------------------------------------------------------------------------
// Admission.
// ---------------------------------------------------------------------------

template <bool IsTry, typename Req>
std::conditional_t<IsTry, Submission<RequestResult<Req>>,
                   std::future<RequestResult<Req>>>
SolverService::submit_impl(Req req) {
  using Result = RequestResult<Req>;
  using Ret = std::conditional_t<IsTry, Submission<Result>, std::future<Result>>;

  const RequestDigest key = request_digest(req);
  // The submit and try_submit flavors fail differently (throwing future vs
  // degrading report), so they never coalesce with each other: the
  // in-flight table is keyed with the flavor mixed in. The result cache
  // uses the pure digest — values are shared.
  RequestDigest flight_key = key;
  if constexpr (IsTry) flight_key.hi ^= 0x7472795f666c7476ULL;

  const auto reject = [&](const std::string& why) -> Ret {
    ++stats_.rejected;
    if constexpr (IsTry) {
      Submission<Result> sub;
      sub.admission.status = SolveStatus::kOverloaded;
      sub.admission.backend = options_.solver.backend;
      sub.admission.message = why;
      return sub;
    } else {
      throw OverloadedError(why);
    }
  };

  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.submitted;
  for (;;) {
    if (shutdown_) return reject("SolverService is shutting down");

    // 1) Completed identical request in the result cache.
    if (const Result* hit = cache_find_locked<Req>(key)) {
      ++stats_.cache_hits;
      if constexpr (IsTry) {
        TrySolveResult<Result> res;
        res.value = *hit;
        res.report.backend = options_.solver.backend;
        res.report.cached = true;
        std::promise<TrySolveResult<Result>> p;
        p.set_value(std::move(res));
        Submission<Result> sub;
        sub.future = p.get_future();
        sub.admission.backend = options_.solver.backend;
        return sub;
      } else {
        std::promise<Result> p;
        p.set_value(*hit);
        return p.get_future();
      }
    }

    // 2) Identical request already in flight: attach, consume no slot.
    auto& ln = lane<Req>();
    if (const auto it = ln.in_flight.find(flight_key);
        it != ln.in_flight.end()) {
      ++stats_.coalesced;
      if constexpr (IsTry) {
        std::promise<TrySolveResult<Result>> p;
        Submission<Result> sub;
        sub.future = p.get_future();
        sub.admission.backend = options_.solver.backend;
        it->second->try_waiters.push_back(std::move(p));
        return sub;
      } else {
        std::promise<Result> p;
        auto fut = p.get_future();
        it->second->solve_waiters.push_back(std::move(p));
        return fut;
      }
    }

    // 3) Admission control on the bounded queue.
    if (queue_.size() < options_.queue_depth) break;
    if (options_.admission == AdmissionPolicy::kReject) {
      return reject("queue full (depth " +
                    std::to_string(options_.queue_depth) + ")");
    }
    // Block until a worker frees a slot, then re-run the whole ladder:
    // while we slept the request may have become in-flight or cached.
    space_cv_.wait(lock);
  }

  // 4) Admit: one flight, one queued job.
  auto flight = std::make_shared<Flight<Result>>();
  Ret ret;
  if constexpr (IsTry) {
    std::promise<TrySolveResult<Result>> p;
    ret.future = p.get_future();
    ret.admission.backend = options_.solver.backend;
    flight->try_waiters.push_back(std::move(p));
  } else {
    std::promise<Result> p;
    ret = p.get_future();
    flight->solve_waiters.push_back(std::move(p));
  }
  lane<Req>().in_flight.emplace(flight_key, std::move(flight));
  ++stats_.admitted;
  queue_.push_back(
      [this, req = std::move(req), key, flight_key](Solver& solver) {
        run_job<IsTry, Req>(solver, req, key, flight_key);
      });
  lock.unlock();
  queue_cv_.notify_one();
  return ret;
}

template <SolverRequest Req>
std::future<RequestResult<Req>> SolverService::submit(Req req) {
  return submit_impl<false>(std::move(req));
}

template <SolverRequest Req>
Submission<RequestResult<Req>> SolverService::try_submit(Req req) {
  return submit_impl<true>(std::move(req));
}

// The templates are defined only here, so every request kind's
// instantiation is emitted here.
#define MONGE_INSTANTIATE_SERVICE(Req)                                     \
  template RequestDigest request_digest(const Req&);                       \
  template std::future<typename RequestTraits<Req>::Result>                \
  SolverService::submit(Req);                                              \
  template Submission<typename RequestTraits<Req>::Result>                 \
  SolverService::try_submit(Req);
MONGE_REQUEST_KINDS(MONGE_INSTANTIATE_SERVICE)
#undef MONGE_INSTANTIATE_SERVICE

ServiceStats SolverService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace monge
