// monge::SolverService — the asynchronous, deduplicating serving tier.
//
// Solver (api/solver.h) is deliberately synchronous and single-tenant: one
// engine arena, one cluster, one request at a time. SolverService is the
// concurrent layer on top of it: submit(Request) -> std::future<Result>
// over a pool of N workers, EACH owning a private Solver (per-worker
// engines, so arenas never contend and MpcSim clusters never interleave
// requests), with
//
//   * bounded admission — a request queue of configurable depth. When it
//     is full, submit() either blocks until a slot frees
//     (AdmissionPolicy::kBlock) or refuses immediately
//     (AdmissionPolicy::kReject: submit throws OverloadedError, try_submit
//     returns a SolveReport with SolveStatus::kOverloaded). Coalesced and
//     cache-served requests never consume a queue slot.
//
//   * request deduplication — every request is keyed by a 128-bit digest
//     of its payload (request_digest below). Concurrent identical requests
//     coalesce onto ONE underlying solve: the first submit enqueues a job,
//     later identical submits just attach a waiter to the in-flight entry
//     and are fulfilled from the same computation. Identical permutations
//     or sequences submitted by many users are solved exactly once — the
//     request-level analogue of the semi-local "index once, query many"
//     direction (Gawrychowski–Mozes–Weimann, arXiv 1307.2313).
//
//   * a result cache — completed results enter an LRU-bounded,
//     digest-keyed cache (one lane per kind, cache_capacity entries each); a
//     later identical request is fulfilled immediately with a copy, bit-
//     identical to a fresh solve (pinned in tests/test_service.cpp).
//     try_submit marks such answers report.cached. Degraded results
//     (MpcSim fallback) are NOT cached: their shape (rounds, reports)
//     differs from what a healthy backend returns.
//
// submit() and try_submit() differ exactly like Solver::solve() and
// Solver::try_solve(): a submit() future rethrows the monge::Error
// taxonomy from get(), while a try_submit() future always resolves to a
// TrySolveResult whose SolveReport classifies the outcome — including the
// PR 6 chaos path, where an unrecoverable MpcSim fault degrades the
// request to the Sequential backend on the worker and the report says so.
// Because the two flavors have different failure semantics (throw vs
// degrade), they coalesce only with in-flight requests of the SAME flavor;
// both share the result cache.
//
// Every request kind in MONGE_REQUEST_KINDS (api/request.h) is served by
// the same templates: the service has no per-kind code.
//
// Lifecycle: the destructor stops admitting, wakes blocked submitters
// (they observe the shutdown and refuse), DRAINS every already-admitted
// job, and joins the workers — an admitted future is always fulfilled
// (the ThreadPool shutdown-drain contract, util/thread_pool.h).
//
// Thread safety: all public members are safe to call from any number of
// threads concurrently, except the destructor, which must not race other
// calls (standard object lifetime rules).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/solver.h"
#include "util/thread_pool.h"

namespace monge {

/// 128-bit digest of a request payload — the dedup/cache key. Collisions
/// between distinct payloads are treated as impossible (2^-64 birthday
/// regime at any plausible cache size); equal payloads always digest
/// equally, so a hit is a semantic hit.
struct RequestDigest {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const RequestDigest&, const RequestDigest&) = default;
};

/// Digest of a request: its kind's RequestTraits tag, then every field its
/// RequestTraits visit() lists, in order. Every variable-length field is
/// preceded by its length (a permutation by its column count, then its
/// row->col array), so no two distinct requests serialize to the same
/// words. A query handle contributes the index's process-unique id().
/// Identical index builds therefore digest equally, and the service
/// dedups/caches them onto ONE shared index.
template <SolverRequest Req>
RequestDigest request_digest(const Req& req);

/// What submit() does when the bounded queue is at queue_depth.
enum class AdmissionPolicy {
  /// Block the submitting thread until a slot frees (backpressure).
  kBlock = 0,
  /// Refuse immediately: submit() throws OverloadedError, try_submit()
  /// returns SolveStatus::kOverloaded (load shedding).
  kReject = 1,
};

/// Construction-time configuration of a SolverService. Validated by the
/// constructor; invalid values throw monge::InvalidRequestError.
struct ServiceOptions {
  /// Per-worker Solver configuration (backend, engine knobs, MPC
  /// provisioning, chaos plans). Every worker constructs its own Solver
  /// from this, so engine arenas and clusters are never shared.
  SolverOptions solver{};
  /// Worker count; 0 picks hardware_concurrency (at least 1).
  unsigned workers = 0;
  /// Bounded request-queue depth (admitted-but-unstarted jobs). Must be
  /// >= 1. Coalesced/cached requests never occupy a slot.
  std::size_t queue_depth = 256;
  /// Full-queue behavior of submit()/try_submit().
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Result-cache capacity in entries per request kind (one lane per
  /// kind). 0 disables caching; in-flight dedup still applies.
  std::size_t cache_capacity = 1024;
  /// Test/telemetry seam: when set, every worker calls this immediately
  /// before each underlying solve (on the worker thread). Must not throw.
  /// The dedup and admission tests use it to hold workers at a barrier.
  std::function<void()> solve_hook;
};

/// Monotonic counters of one SolverService, returned by stats() as a
/// consistent snapshot.
struct ServiceStats {
  std::int64_t submitted = 0;    ///< submit/try_submit calls accepted into
                                 ///< the service (any outcome).
  std::int64_t admitted = 0;     ///< jobs enqueued for a worker.
  std::int64_t rejected = 0;     ///< admissions refused (queue full or
                                 ///< shutdown).
  std::int64_t coalesced = 0;    ///< requests attached to an in-flight
                                 ///< identical computation.
  std::int64_t cache_hits = 0;   ///< requests served from the result cache.
  std::int64_t solves = 0;       ///< underlying Solver solve/try_solve
                                 ///< calls actually executed.
  std::int64_t solve_errors = 0; ///< solves that ended in an exception
                                 ///< (submit flavor) or a non-ok report.

  friend bool operator==(const ServiceStats&, const ServiceStats&) = default;
};

/// Outcome of try_submit: an admission report plus, when admitted, a
/// future resolving to the request's TrySolveResult.
template <typename Result>
struct Submission {
  /// Valid iff admitted(): resolves to value + SolveReport, never throws
  /// from get() for taxonomy errors (kInternalError covers the rest).
  std::future<TrySolveResult<Result>> future;
  /// Admission outcome: kOk (queued, coalesced, or cache-served) or
  /// kOverloaded (queue full under kReject, or shutting down — `future`
  /// is invalid and the request was not accepted).
  SolveReport admission;

  bool admitted() const { return admission.ok(); }
};

class SolverService {
 public:
  /// Validates the options (InvalidRequestError on bad knobs; the nested
  /// SolverOptions are validated by each worker's Solver constructor, so
  /// invalid solver knobs also throw here, from the first worker), then
  /// starts the workers.
  explicit SolverService(ServiceOptions options = {});

  /// Stops admitting, wakes blocked submitters, drains every admitted job
  /// and joins the workers. Every future returned by submit/try_submit is
  /// fulfilled before the destructor returns.
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Asynchronous Solver::solve(): the future resolves to the result, or
  /// rethrows the monge::Error taxonomy from get(). Served from the
  /// result cache or an in-flight identical computation when possible;
  /// otherwise admitted under the configured policy — throws
  /// OverloadedError when refused (kReject and full, or shutting down).
  template <SolverRequest Req>
  std::future<RequestResult<Req>> submit(Req req);

  /// Asynchronous Solver::try_solve(): never throws for taxonomy errors.
  /// Admission refusals come back synchronously in Submission::admission
  /// (SolveStatus::kOverloaded); admitted requests resolve to the worker's
  /// TrySolveResult — including MpcSim degradation, exactly as
  /// Solver::try_solve reports it. Cache hits resolve immediately with
  /// report.cached = true.
  template <SolverRequest Req>
  Submission<RequestResult<Req>> try_submit(Req req);

  /// A consistent snapshot of the service counters.
  ServiceStats stats() const;

  /// The options, exactly as validated at construction.
  const ServiceOptions& options() const { return options_; }

  /// Number of running workers (resolved from options().workers).
  unsigned workers() const { return pool_->thread_count(); }

 private:
  /// One in-flight computation: the promises of every coalesced waiter of
  /// one flavor. Fulfilled (and erased) by the worker that runs the job.
  template <typename Result>
  struct Flight {
    std::vector<std::promise<Result>> solve_waiters;
    std::vector<std::promise<TrySolveResult<Result>>> try_waiters;
  };

  struct DigestHash {
    std::size_t operator()(const RequestDigest& d) const {
      return static_cast<std::size_t>(d.lo ^ (d.hi * 0x9e3779b97f4a7c15ULL));
    }
  };

  /// Per-kind state: the in-flight table (keyed by digest with the
  /// submit/try flavor mixed in — the flavors have different failure
  /// semantics, so they never coalesce with each other) and the LRU result
  /// cache (keyed by the pure digest — both flavors share values).
  template <typename Req>
  struct Lane {
    using Result = RequestResult<Req>;
    using FlightPtr = std::shared_ptr<Flight<Result>>;
    std::unordered_map<RequestDigest, FlightPtr, DigestHash> in_flight;
    std::list<std::pair<RequestDigest, Result>> lru;  // front = most recent
    std::unordered_map<
        RequestDigest,
        typename std::list<std::pair<RequestDigest, Result>>::iterator,
        DigestHash>
        cache;
  };

  template <typename Req>
  Lane<Req>& lane() {
    return std::get<Lane<Req>>(lanes_);
  }

  /// Shared submit machinery; IsTry selects the flavor.
  template <bool IsTry, typename Req>
  std::conditional_t<IsTry, Submission<RequestResult<Req>>,
                     std::future<RequestResult<Req>>>
  submit_impl(Req req);

  /// Runs one admitted job on a worker's Solver and fulfills its waiters.
  template <bool IsTry, typename Req>
  void run_job(Solver& solver, const Req& req, RequestDigest key,
               RequestDigest flight_key);

  template <typename Req>
  const RequestResult<Req>* cache_find_locked(RequestDigest key);
  template <typename Req>
  void cache_insert_locked(RequestDigest key, const RequestResult<Req>& value);

  void worker_loop();

  ServiceOptions options_;
  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  ///< workers: a job or shutdown.
  std::condition_variable space_cv_;  ///< blocked submitters: a free slot.
  std::deque<std::function<void(Solver&)>> queue_;
  bool shutdown_ = false;
  ServiceStats stats_;
  /// One lane per request kind. Cached BuildIndexResults keep their
  /// handles (and through them the shared indexes) alive while hot, so
  /// identical builds from many clients resolve to ONE index.
  RequestKinds::map<Lane> lanes_;
  /// Last member: its destructor joins the worker loops, which may touch
  /// every field above while draining.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace monge
