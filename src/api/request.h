// Typed request/result structs for the monge::Solver facade.
//
// A request is pure data: the inputs of one of the library's deliverables
// (Theorem 1.1 full multiply, Theorem 1.2 subunit multiply, Theorem 1.3
// LIS with the semi-local kernel and windowed queries, Corollary 1.3.1
// LCS). Which algorithm actually runs — the sequential engine or the
// simulated MPC cluster — is chosen by the Solver's backend, never by the
// request; the same request can be replayed against both backends, which
// is exactly what the bit-identity tests do.
//
// Results carry the existing reports/stats unchanged: the MPC backend
// fills core::MpcMultiplyReport / round counts, the Sequential backend
// leaves them zero. See api/solver.h for the routing table.
//
// This header is also the one registration point of a request kind. Next
// to each request struct sits its RequestTraits specialization: the result
// type, a digest tag that no other kind shares, and visit(), which hands
// every field of the request, in digest order, to a callable. The list
// MONGE_REQUEST_KINDS at the end names every kind. Solver::solve and
// try_solve, SolverService::submit and try_submit and request_digest are
// each one template over that list, so a new kind adds its structs, its
// traits and its list entry here plus its route (a Solver::solve_on
// overload); the service tier needs nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/mpc_multiply.h"
#include "monge/permutation.h"
#include "query/semilocal_index.h"

namespace monge {

/// Result type, digest tag and field visitor of one request kind;
/// specialized next to each request struct below.
template <typename Req>
struct RequestTraits;

/// One product PC = PA ⊡ PB.
struct MultiplyRequest {
  enum class Kind {
    kFull = 0,     ///< full n×n permutations (Theorem 1.1)
    kSubunit = 1,  ///< sub-permutations, shapes rA×n2 · n2×cB (Theorem 1.2)
  };

  Perm a;  ///< PA; full permutation for kFull, sub-permutation for kSubunit.
  Perm b;  ///< PB with b.rows() == a.cols().
  Kind kind = Kind::kFull;
};

struct MultiplyResult {
  Perm c;  ///< the product PA ⊡ PB.
  /// Round/space accounting of the cluster call. Filled by the MpcSim
  /// backend; all-zero for Sequential.
  core::MpcMultiplyReport report{};
};

template <>
struct RequestTraits<MultiplyRequest> {
  using Result = MultiplyResult;
  static constexpr char kTag = 'M';
  static auto visit(const MultiplyRequest& r, auto&& f) {
    return f(r.kind, r.a, r.b);
  }
};

/// LIS of a sequence (duplicates allowed; strict LIS), optionally with the
/// semi-local kernel and an offline batch of window queries.
struct LisRequest {
  std::vector<std::int64_t> seq;  ///< the input sequence.
  /// Build and return the semi-local kernel (Corollary 1.3.2). Without it
  /// a length-only request routes to the cheapest length algorithm of the
  /// backend (patience sorting on Sequential).
  bool want_kernel = false;
  /// Inclusive [l, r] windows answered offline; l > r is a legitimate
  /// empty window (answers 0). Non-empty implies a kernel is built
  /// internally.
  std::vector<std::pair<std::int64_t, std::int64_t>> windows;
};

struct LisResult {
  std::int64_t lis = 0;  ///< LIS of the whole sequence.
  Perm kernel;           ///< populated iff LisRequest::want_kernel.
  /// One answer per LisRequest::windows entry, in input order.
  std::vector<std::int64_t> window_lis;
  std::int64_t rounds = 0;        ///< MPC rounds consumed (MpcSim only).
  std::int64_t merge_levels = 0;  ///< kernel merge-tree levels (MpcSim only).
};

template <>
struct RequestTraits<LisRequest> {
  using Result = LisResult;
  static constexpr char kTag = 'L';
  static auto visit(const LisRequest& r, auto&& f) {
    return f(r.seq, r.want_kernel, r.windows);
  }
};

/// LCS of two sequences via the Hunt–Szymanski reduction to strict LIS.
struct LcsRequest {
  std::vector<std::int64_t> s;
  std::vector<std::int64_t> t;
};

struct LcsResult {
  std::int64_t lcs = 0;
  /// Size of the HS match sequence (the LIS input; what the MPC cluster
  /// must be provisioned for). Filled by every backend.
  std::int64_t matches = 0;
  std::int64_t rounds = 0;  ///< MPC rounds consumed (MpcSim only).
};

template <>
struct RequestTraits<LcsRequest> {
  using Result = LcsResult;
  static constexpr char kTag = 'C';
  static auto visit(const LcsRequest& r, auto&& f) { return f(r.s, r.t); }
};

/// Shared reference to an immutable query::SemiLocalIndex — what a
/// BuildIndexRequest returns and what every query request carries. The
/// handle IS the lifecycle: the index lives as long as any handle (or any
/// SolverService cache entry) references it, and queries against a handle
/// are safe from any thread because the index never mutates. The digest of
/// a query request keys on id(), which is process-unique and never reused,
/// so a cached query result can never be served against a different index.
struct QueryHandle {
  std::shared_ptr<const query::SemiLocalIndex> index;

  bool valid() const { return index != nullptr; }
  /// The index's process-unique id; 0 for an empty handle.
  std::uint64_t id() const { return index ? index->id() : 0; }

  friend bool operator==(const QueryHandle& a, const QueryHandle& b) {
    return a.index == b.index;
  }
};

/// Build a SemiLocalIndex once so arbitrarily many WindowLisQuery /
/// SubstringLcsQuery batches answer without re-running the seaweed
/// machinery. The backend chooses which kernel builder runs (both produce
/// bit-identical kernels, so the served answers never depend on the
/// backend).
struct BuildIndexRequest {
  enum class Kind {
    kWindowLis = 0,     ///< index seq for LIS(seq[l..r]) queries.
    kSubstringLcs = 1,  ///< index (s=seq, t) for LCS(seq[i..j], t) queries.
  };

  Kind kind = Kind::kWindowLis;
  std::vector<std::int64_t> seq;  ///< the sequence (s in kSubstringLcs).
  /// The fixed text t of a kSubstringLcs index; must be empty for
  /// kWindowLis.
  std::vector<std::int64_t> t;
};

struct BuildIndexResult {
  QueryHandle handle;        ///< the built (or cache-shared) index.
  std::int64_t n = 0;        ///< indexed length (match count for LCS mode).
  std::int64_t points = 0;   ///< kernel points retained by the index.
  /// The full-range answer: LIS(seq), or LCS(seq, t) in kSubstringLcs
  /// mode — the O(1) special case of the window queries.
  std::int64_t full = 0;
  std::int64_t rounds = 0;   ///< MPC rounds consumed (MpcSim only).
};

// The kind is digested: a window-LIS and a substring-LCS index over the
// same sequence must never share a cache entry.
template <>
struct RequestTraits<BuildIndexRequest> {
  using Result = BuildIndexResult;
  static constexpr char kTag = 'B';
  static auto visit(const BuildIndexRequest& r, auto&& f) {
    return f(r.kind, r.seq, r.t);
  }
};

/// A batch of window-LIS queries against a kWindowLis index.
struct WindowLisQuery {
  QueryHandle handle;
  /// Inclusive [l, r] windows; l > r is a legitimate empty window
  /// (answers 0).
  std::vector<std::pair<std::int64_t, std::int64_t>> windows;
};

struct WindowLisResult {
  /// One LIS length per WindowLisQuery::windows entry, in input order.
  std::vector<std::int64_t> lis;
};

template <>
struct RequestTraits<WindowLisQuery> {
  using Result = WindowLisResult;
  static constexpr char kTag = 'W';
  static auto visit(const WindowLisQuery& r, auto&& f) {
    return f(r.handle, r.windows);
  }
};

/// A batch of substring-LCS queries against a kSubstringLcs index.
struct SubstringLcsQuery {
  QueryHandle handle;
  /// Inclusive [i, j] substrings of s; i > j is a legitimate empty
  /// substring (answers 0).
  std::vector<std::pair<std::int64_t, std::int64_t>> substrings;
};

struct SubstringLcsResult {
  /// One LCS length per SubstringLcsQuery::substrings entry, in input
  /// order.
  std::vector<std::int64_t> lcs;
};

template <>
struct RequestTraits<SubstringLcsQuery> {
  using Result = SubstringLcsResult;
  static constexpr char kTag = 'S';
  static auto visit(const SubstringLcsQuery& r, auto&& f) {
    return f(r.handle, r.substrings);
  }
};

/// Every request kind. X is applied to each request struct's name; the
/// Solver and SolverService sources expand the list into their explicit
/// template instantiations, and RequestKinds below is built from it.
#define MONGE_REQUEST_KINDS(X) \
  X(MultiplyRequest)           \
  X(LisRequest)                \
  X(LcsRequest)                \
  X(BuildIndexRequest)         \
  X(WindowLisQuery)            \
  X(SubstringLcsQuery)

/// A list of request kinds as a type.
template <typename... Reqs>
struct RequestList {
  /// True iff Req is one of the listed kinds.
  template <typename Req>
  static constexpr bool contains = (std::is_same_v<Req, Reqs> || ...);
  /// A std::tuple holding one F of each listed kind, in list order.
  template <template <typename> class F>
  using map = std::tuple<F<Reqs>...>;
};

namespace detail {
// Drops the placeholder that lets the list expand with leading commas.
template <typename Placeholder, typename... Reqs>
using RequestListOf = RequestList<Reqs...>;
}  // namespace detail

#define MONGE_REQUEST_KIND_ARG(Req) , Req
/// MONGE_REQUEST_KINDS as a RequestList.
using RequestKinds =
    detail::RequestListOf<void MONGE_REQUEST_KINDS(MONGE_REQUEST_KIND_ARG)>;
#undef MONGE_REQUEST_KIND_ARG

/// Satisfied by exactly the kinds in MONGE_REQUEST_KINDS.
template <typename Req>
concept SolverRequest = RequestKinds::contains<Req>;

/// The result type of request kind Req.
template <SolverRequest Req>
using RequestResult = typename RequestTraits<Req>::Result;

}  // namespace monge
