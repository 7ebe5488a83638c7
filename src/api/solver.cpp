#include "api/solver.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/mpc_subperm.h"
#include "lcs/hunt_szymanski.h"
#include "lcs/mpc_lcs.h"
#include "lis/kernel.h"
#include "lis/mpc_lis.h"
#include "lis/sequential.h"
#include "monge/subperm.h"
#include "util/check.h"

namespace monge {

namespace {

using MultiplyKind = MultiplyRequest::Kind;

/// O(1) shape validation shared by solve and solve_batch. Full-permutation
/// *content* validation is O(n) and most delegates (SeaweedEngine::multiply,
/// the subunit compaction, the MPC batch prep) already perform it, so the
/// facade only adds validate_multiply_full on the routes whose delegate
/// does not — never paying the check twice on the dispatch hot path.
void validate_multiply_shape(const MultiplyRequest& req) {
  MONGE_CHECK_MSG(req.a.cols() == req.b.rows(),
                  "MultiplyRequest inner dimensions disagree: "
                      << req.a.cols() << " vs " << req.b.rows());
  MONGE_CHECK_MSG(
      req.kind == MultiplyKind::kFull || req.kind == MultiplyKind::kSubunit,
      "MultiplyRequest.kind is not a valid Kind");
}

/// Full-permutation content check for kFull requests routed to the
/// engine's release-mode batch entry point, which takes raw arrays on
/// trust.
void validate_multiply_full(const MultiplyRequest& req) {
  if (req.kind == MultiplyKind::kFull) {
    MONGE_CHECK_MSG(req.a.is_full_permutation() && req.b.is_full_permutation(),
                    "MultiplyRequest kFull requires full permutations (use "
                    "kSubunit for sub-permutations)");
  }
}

/// The core problem size an MpcSim multiply pays for: n for full pairs,
/// the inner dimension n2 (the §4.1 padded size) for subunit pairs.
std::int64_t mpc_multiply_size(const MultiplyRequest& req) {
  return req.kind == MultiplyKind::kFull ? req.a.rows() : req.a.cols();
}

}  // namespace

const char* solver_backend_name(SolverBackend backend) {
  switch (backend) {
    case SolverBackend::kSequential:
      return "sequential";
    case SolverBackend::kMpcSim:
      return "mpc-sim";
  }
  MONGE_CHECK_MSG(false, "invalid SolverBackend");
}

const char* solve_status_name(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOk:
      return "ok";
    case SolveStatus::kInvalidRequest:
      return "invalid-request";
    case SolveStatus::kSpaceLimit:
      return "space-limit";
    case SolveStatus::kFault:
      return "fault";
    case SolveStatus::kCodec:
      return "codec";
    case SolveStatus::kInternalError:
      return "internal-error";
    case SolveStatus::kOverloaded:
      return "overloaded";
  }
  MONGE_CHECK_MSG(false, "invalid SolveStatus");
}

Solver::Solver(SolverOptions options)
    : options_(std::move(options)), engine_(options_.engine) {
  const auto require = [](bool ok, const std::string& what) {
    if (!ok) throw InvalidRequestError(what);
  };
  require(options_.backend == SolverBackend::kSequential ||
              options_.backend == SolverBackend::kMpcSim,
          "SolverOptions.backend is not a valid SolverBackend");
  require(options_.cluster.num_machines >= 0,
          "SolverOptions.cluster.num_machines must be >= 0 (0 = "
          "auto-provision)");
  if (options_.cluster.num_machines > 0) {
    require(options_.cluster.space_words >= 1,
            "SolverOptions.cluster.space_words must be >= 1");
  }
  require(options_.mpc_delta > 0.0 && options_.mpc_delta < 1.0,
          "SolverOptions.mpc_delta must be in (0, 1), got " +
              std::to_string(options_.mpc_delta));
  require(options_.mpc_slack > 0.0,
          "SolverOptions.mpc_slack must be > 0, got " +
              std::to_string(options_.mpc_slack));
  core::validate_options(options_.multiply);
  require(options_.lis_leaf_classes >= 0,
          "SolverOptions.lis_leaf_classes must be >= 0 (0 = number of "
          "machines)");
  require(options_.lcs_engine_match_limit >= 1 &&
              options_.lcs_engine_match_limit <= kSeaweedEngineMaxN,
          "SolverOptions.lcs_engine_match_limit must be in [1, 2^30], got " +
              std::to_string(options_.lcs_engine_match_limit));
}

mpc::Cluster& Solver::provisioned_cluster(std::int64_t n) {
  mpc::MpcConfig want = options_.cluster;
  if (want.num_machines <= 0) {
    want = mpc::MpcConfig::fully_scalable(std::max<std::int64_t>(n, 1),
                                          options_.mpc_delta,
                                          options_.mpc_slack,
                                          options_.mpc_strict);
    want.threads = options_.cluster.threads;
    // Chaos knobs carry over into auto-provisioned clusters.
    want.faults = options_.cluster.faults;
    want.checkpoint_interval = options_.cluster.checkpoint_interval;
  }
  const bool reusable = cluster_ && want == cluster_cfg_;
  if (!reusable) {
    cluster_.reset();  // release the old pool before spinning a new one
    cluster_ = std::make_unique<mpc::Cluster>(want);
    cluster_cfg_ = want;
  }
  return *cluster_;
}

lis::MpcLisOptions Solver::mpc_lis_options() const {
  lis::MpcLisOptions o;
  o.multiply = options_.multiply;
  o.leaf_classes = options_.lis_leaf_classes;
  return o;
}

MultiplyResult Solver::solve_on(SolverBackend backend,
                                const MultiplyRequest& req) {
  validate_multiply_shape(req);
  MultiplyResult out;
  switch (backend) {
    case SolverBackend::kSequential:
      out.c = req.kind == MultiplyKind::kFull
                  ? engine_.multiply(req.a, req.b)  // validates content
                  : subunit_multiply(req.a, req.b, engine_);
      break;
    case SolverBackend::kMpcSim: {
      mpc::Cluster& cluster = provisioned_cluster(mpc_multiply_size(req));
      out.c = req.kind == MultiplyKind::kFull
                  ? core::mpc_unit_monge_multiply(cluster, req.a, req.b,
                                                  options_.multiply,
                                                  &out.report)
                  : core::mpc_subunit_multiply(cluster, req.a, req.b,
                                               options_.multiply, &out.report);
      break;
    }
  }
  return out;
}

std::vector<MultiplyResult> Solver::solve_batch(
    std::span<const MultiplyRequest> reqs) {
  std::vector<MultiplyResult> out(reqs.size());
  std::vector<std::size_t> full_idx, sub_idx;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    validate_multiply_shape(reqs[i]);
    (reqs[i].kind == MultiplyKind::kFull ? full_idx : sub_idx).push_back(i);
  }

  switch (options_.backend) {
    case SolverBackend::kSequential: {
      // One batched engine call per request kind: the whole group shares
      // one arena sizing and stripes across the engine pool when set.
      if (!full_idx.empty()) {
        std::vector<std::vector<std::int32_t>> bufs(full_idx.size());
        std::vector<PermPairView> views;
        std::vector<std::span<std::int32_t>> outs;
        views.reserve(full_idx.size());
        outs.reserve(full_idx.size());
        for (std::size_t j = 0; j < full_idx.size(); ++j) {
          const MultiplyRequest& req = reqs[full_idx[j]];
          // multiply_batch_into validates content in debug builds only, so
          // the facade keeps the single-call rejection behavior here.
          validate_multiply_full(req);
          bufs[j].resize(static_cast<std::size_t>(req.a.rows()));
          views.push_back({req.a.row_to_col(), req.b.row_to_col()});
          outs.push_back(bufs[j]);
        }
        engine_.multiply_batch_into(views, outs);
        for (std::size_t j = 0; j < full_idx.size(); ++j) {
          out[full_idx[j]].c = Perm::from_rows(std::move(bufs[j]),
                                               reqs[full_idx[j]].b.cols());
        }
      }
      if (!sub_idx.empty()) {
        std::vector<std::vector<std::int32_t>> bufs(sub_idx.size());
        std::vector<SubunitPairView> views;
        std::vector<std::span<std::int32_t>> outs;
        views.reserve(sub_idx.size());
        outs.reserve(sub_idx.size());
        for (std::size_t j = 0; j < sub_idx.size(); ++j) {
          const MultiplyRequest& req = reqs[sub_idx[j]];
          bufs[j].assign(static_cast<std::size_t>(req.a.rows()), kNone);
          views.push_back(
              {req.a.row_to_col(), req.b.row_to_col(), req.b.cols()});
          outs.push_back(bufs[j]);
        }
        engine_.subunit_multiply_batch_into(views, outs);
        for (std::size_t j = 0; j < sub_idx.size(); ++j) {
          out[sub_idx[j]].c = Perm::from_rows(std::move(bufs[j]),
                                              reqs[sub_idx[j]].b.cols());
        }
      }
      break;
    }
    case SolverBackend::kMpcSim: {
      // One *_batch cluster call per kind; every pair of a kind group
      // shares rounds, and every result of the group carries the group's
      // shared batch report.
      std::int64_t max_n = 0;
      for (const MultiplyRequest& req : reqs) {
        max_n = std::max(max_n, mpc_multiply_size(req));
      }
      if (!full_idx.empty()) {
        std::vector<std::pair<Perm, Perm>> pairs;
        pairs.reserve(full_idx.size());
        for (const std::size_t i : full_idx) {
          pairs.emplace_back(reqs[i].a, reqs[i].b);
        }
        core::MpcMultiplyReport rep;
        auto products = core::mpc_unit_monge_multiply_batch(
            provisioned_cluster(max_n), pairs, options_.multiply, &rep);
        for (std::size_t j = 0; j < full_idx.size(); ++j) {
          out[full_idx[j]].c = std::move(products[j]);
          out[full_idx[j]].report = rep;
        }
      }
      if (!sub_idx.empty()) {
        std::vector<std::pair<Perm, Perm>> pairs;
        pairs.reserve(sub_idx.size());
        for (const std::size_t i : sub_idx) {
          pairs.emplace_back(reqs[i].a, reqs[i].b);
        }
        core::MpcMultiplyReport rep;
        auto products = core::mpc_subunit_multiply_batch(
            provisioned_cluster(max_n), pairs, options_.multiply, &rep);
        for (std::size_t j = 0; j < sub_idx.size(); ++j) {
          out[sub_idx[j]].c = std::move(products[j]);
          out[sub_idx[j]].report = rep;
        }
      }
      break;
    }
  }
  return out;
}

LisResult Solver::solve_on(SolverBackend backend, const LisRequest& req) {
  LisResult out;
  const bool need_kernel = req.want_kernel || !req.windows.empty();
  switch (backend) {
    case SolverBackend::kSequential:
      if (need_kernel) {
        Perm kernel = lis::lis_kernel(lis::rank_reduce_strict(req.seq),
                                      engine_);
        out.lis = lis::lis_from_kernel(kernel);
        if (!req.windows.empty()) {
          out.window_lis = lis::kernel_window_lis_batch(kernel, req.windows);
        }
        if (req.want_kernel) out.kernel = std::move(kernel);
      } else {
        out.lis = lis::lis_length(req.seq);
      }
      break;
    case SolverBackend::kMpcSim: {
      mpc::Cluster& cluster = provisioned_cluster(
          static_cast<std::int64_t>(req.seq.size()));
      auto res = lis::mpc_lis(cluster, req.seq, mpc_lis_options());
      out.lis = res.lis;
      out.rounds = res.rounds;
      out.merge_levels = res.merge_levels;
      if (!req.windows.empty()) {
        out.window_lis = lis::kernel_window_lis_batch(res.kernel, req.windows);
      }
      if (req.want_kernel) out.kernel = std::move(res.kernel);
      break;
    }
  }
  return out;
}

std::vector<LisResult> Solver::solve_batch(std::span<const LisRequest> reqs) {
  std::vector<LisResult> out(reqs.size());
  if (options_.backend != SolverBackend::kSequential) {
    for (std::size_t i = 0; i < reqs.size(); ++i) out[i] = solve(reqs[i]);
    return out;
  }
  // Sequential: every kernel the batch needs is built through ONE
  // lis_kernel_batch forest pass — one batched engine call per global
  // merge level — while length-only requests route to patience sorting.
  std::vector<std::vector<std::int32_t>> perms;
  std::vector<std::size_t> kernel_idx;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].want_kernel || !reqs[i].windows.empty()) {
      perms.push_back(lis::rank_reduce_strict(reqs[i].seq));
      kernel_idx.push_back(i);
    } else {
      out[i].lis = lis::lis_length(reqs[i].seq);
    }
  }
  if (kernel_idx.empty()) return out;
  auto kernels = lis::lis_kernel_batch(perms, engine_);
  for (std::size_t j = 0; j < kernel_idx.size(); ++j) {
    const std::size_t i = kernel_idx[j];
    out[i].lis = lis::lis_from_kernel(kernels[j]);
    if (!reqs[i].windows.empty()) {
      out[i].window_lis =
          lis::kernel_window_lis_batch(kernels[j], reqs[i].windows);
    }
    if (reqs[i].want_kernel) out[i].kernel = std::move(kernels[j]);
  }
  return out;
}

LcsResult Solver::solve_on(SolverBackend backend, const LcsRequest& req) {
  LcsResult out;
  switch (backend) {
    case SolverBackend::kSequential: {
      // lcs_hs is lis_length over the match sequence; computing the
      // sequence once serves both the count and the length bit-identically.
      const auto seq = lcs::hs_match_sequence(req.s, req.t);
      out.matches = static_cast<std::int64_t>(seq.size());
      out.lcs = lis::lis_length(seq);
      break;
    }
    case SolverBackend::kMpcSim: {
      // The cluster must be provisioned for the match count (the paper's
      // m = n^{1+δ} regime) — the match sequence is the LIS input, so it
      // is generated once and handed through.
      const auto seq = lcs::hs_match_sequence(req.s, req.t);
      if (static_cast<std::int64_t>(seq.size()) >
          options_.lcs_engine_match_limit) {
        // Same guard as the Sequential batch grouping: past the limit the
        // cluster's leaf engines would reject the kernel, so patience
        // answers directly (bit-identical; rounds stays 0 — no cluster
        // work happened).
        out.matches = static_cast<std::int64_t>(seq.size());
        out.lcs = lis::lis_length(seq);
        break;
      }
      mpc::Cluster& cluster =
          provisioned_cluster(static_cast<std::int64_t>(seq.size()));
      const auto res =
          lcs::mpc_lcs_over_matches(cluster, seq, mpc_lis_options());
      out.lcs = res.lcs;
      out.matches = res.matches;
      out.rounds = res.rounds;
      break;
    }
  }
  return out;
}

std::vector<LcsResult> Solver::solve_batch(std::span<const LcsRequest> reqs) {
  std::vector<LcsResult> out(reqs.size());
  if (options_.backend != SolverBackend::kSequential || reqs.size() <= 1) {
    for (std::size_t i = 0; i < reqs.size(); ++i) out[i] = solve(reqs[i]);
    return out;
  }
  // Sequential fast path: requests are grouped by (t, s), so the
  // Hunt–Szymanski occurrence table is built once per distinct t and the
  // match sequence once per distinct (s, t) pair (identical requests
  // collapse onto one subproblem). Patience sorting answers each group,
  // exactly as the single route does, so results stay bit-identical to the
  // per-request loop (pinned in test_solver.cpp).
  std::vector<std::size_t> order(reqs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     if (reqs[x].t != reqs[y].t) return reqs[x].t < reqs[y].t;
                     return reqs[x].s < reqs[y].s;
                   });

  std::optional<lcs::HsOccurrences> occ;  // of the current t group
  for (std::size_t g = 0; g < order.size();) {
    const LcsRequest& head = reqs[order[g]];
    if (g == 0 || reqs[order[g - 1]].t != head.t) occ.emplace(head.t);
    std::size_t h = g;
    while (h < order.size() && reqs[order[h]].t == head.t &&
           reqs[order[h]].s == head.s) {
      ++h;
    }
    const auto seq = occ->match_sequence(head.s);
    const auto matches = static_cast<std::int64_t>(seq.size());
    const std::int64_t lcs_len = lis::lis_length(seq);
    for (std::size_t k = g; k < h; ++k) {
      out[order[k]].matches = matches;
      out[order[k]].lcs = lcs_len;
    }
    g = h;
  }
  return out;
}

BuildIndexResult Solver::solve_on(SolverBackend backend,
                                  const BuildIndexRequest& req) {
  using Kind = BuildIndexRequest::Kind;
  if (req.kind != Kind::kWindowLis && req.kind != Kind::kSubstringLcs) {
    throw InvalidRequestError("BuildIndexRequest.kind is not a valid Kind");
  }
  if (req.kind == Kind::kWindowLis && !req.t.empty()) {
    throw InvalidRequestError(
        "BuildIndexRequest.t must be empty for kWindowLis (use kSubstringLcs "
        "to index a pair)");
  }

  BuildIndexResult out;
  std::shared_ptr<query::SemiLocalIndex> index;
  switch (backend) {
    case SolverBackend::kSequential:
      index = std::make_shared<query::SemiLocalIndex>(
          req.kind == Kind::kWindowLis
              ? query::SemiLocalIndex::from_sequence(req.seq, engine_)
              : query::SemiLocalIndex::from_lcs_pair(req.seq, req.t, engine_));
      break;
    case SolverBackend::kMpcSim: {
      // The kernel is built on the cluster (Theorem 1.3); the index
      // adaptation itself is local and round-free.
      if (req.kind == Kind::kWindowLis) {
        mpc::Cluster& cluster = provisioned_cluster(
            static_cast<std::int64_t>(req.seq.size()));
        auto res = lis::mpc_lis(cluster, req.seq, mpc_lis_options());
        out.rounds = res.rounds;
        index = std::make_shared<query::SemiLocalIndex>(
            query::SemiLocalIndex::from_kernel(res.kernel));
      } else {
        const lcs::HsOccurrences occ(req.t);
        const auto seq = occ.match_sequence(req.seq);
        mpc::Cluster& cluster =
            provisioned_cluster(static_cast<std::int64_t>(seq.size()));
        auto res = lis::mpc_lis(cluster, seq, mpc_lis_options());
        out.rounds = res.rounds;
        index = std::make_shared<query::SemiLocalIndex>(
            query::SemiLocalIndex::from_lcs_kernel(
                res.kernel, occ.match_row_starts(req.seq)));
      }
      break;
    }
  }
  out.handle.index = std::move(index);
  out.n = out.handle.index->size();
  out.points = out.handle.index->point_count();
  out.full = out.handle.index->full_answer();
  return out;
}

WindowLisResult Solver::solve_on(SolverBackend /*backend*/,
                                 const WindowLisQuery& req) {
  if (!req.handle.valid()) {
    throw InvalidRequestError("WindowLisQuery.handle is empty");
  }
  if (req.handle.index->lcs_mode()) {
    throw InvalidRequestError(
        "WindowLisQuery.handle is a kSubstringLcs index (use "
        "SubstringLcsQuery)");
  }
  return {req.handle.index->window_lis_batch(req.windows)};
}

SubstringLcsResult Solver::solve_on(SolverBackend /*backend*/,
                                    const SubstringLcsQuery& req) {
  if (!req.handle.valid()) {
    throw InvalidRequestError("SubstringLcsQuery.handle is empty");
  }
  if (!req.handle.index->lcs_mode()) {
    throw InvalidRequestError(
        "SubstringLcsQuery.handle is a kWindowLis index (use WindowLisQuery)");
  }
  return {req.handle.index->substring_lcs_batch(req.substrings)};
}

namespace {

/// monge::Error codes map 1:1 onto SolveStatus values.
SolveStatus status_of(const Error& e) {
  switch (e.code()) {
    case ErrorCode::kInvalidRequest:
      return SolveStatus::kInvalidRequest;
    case ErrorCode::kCodec:
      return SolveStatus::kCodec;
    case ErrorCode::kFault:
      return SolveStatus::kFault;
    case ErrorCode::kSpaceLimit:
      return SolveStatus::kSpaceLimit;
    case ErrorCode::kOverloaded:
      return SolveStatus::kOverloaded;
  }
  return SolveStatus::kInternalError;
}

}  // namespace

template <SolverRequest Req>
TrySolveResult<RequestResult<Req>> Solver::try_solve(const Req& req) {
  TrySolveResult<RequestResult<Req>> out;
  out.report.backend = options_.backend;

  // The recovery counters accumulate across requests on one cluster, so
  // the per-request delta is (after - before) — unless the request itself
  // re-provisioned the cluster, in which case the counters started at
  // zero and are already the delta.
  const mpc::Cluster* before_cluster = cluster_.get();
  const mpc::RecoveryStats before =
      cluster_ ? cluster_->stats().recovery : mpc::RecoveryStats{};
  const auto recovery_delta = [&]() {
    if (!cluster_) return mpc::RecoveryStats{};
    const mpc::RecoveryStats now = cluster_->stats().recovery;
    return cluster_.get() == before_cluster ? now - before : now;
  };
  // The owned engine outlives every request, so its representation
  // counters delta is a plain subtraction.
  const RepresentationStats rep_before = engine_.representation_stats();
  const auto representation_delta = [&]() {
    return engine_.representation_stats() - rep_before;
  };

  SolveStatus status = SolveStatus::kOk;
  std::string message;
  try {
    out.value = solve_on(options_.backend, req);
    out.report.recovery = recovery_delta();
    out.report.representation = representation_delta();
    return out;
  } catch (const Error& e) {
    status = status_of(e);
    message = e.what();
  } catch (const std::logic_error& e) {
    // MONGE_CHECK precondition failures: caller-facing validation.
    status = SolveStatus::kInvalidRequest;
    message = e.what();
  } catch (const std::exception& e) {
    status = SolveStatus::kInternalError;
    message = e.what();
  }
  out.report.status = status;
  out.report.message = message;
  out.report.recovery = recovery_delta();
  out.report.representation = representation_delta();

  // Graceful degradation: an MpcSim run killed by an unrecoverable fault
  // or a space overrun falls back to the Sequential backend. The failed
  // cluster is torn down — a crashed round leaves mailboxes/resident
  // state mid-flight, so the next MpcSim request must start clean.
  const bool degradable = options_.backend == SolverBackend::kMpcSim &&
                          (status == SolveStatus::kFault ||
                           status == SolveStatus::kSpaceLimit);
  if (!degradable) return out;
  cluster_.reset();
  cluster_cfg_ = mpc::MpcConfig{};
  try {
    out.value = solve_on(SolverBackend::kSequential, req);
    out.report.status = SolveStatus::kOk;
    out.report.backend = SolverBackend::kSequential;
    out.report.representation = representation_delta();
    out.report.degraded = true;
    out.report.message = std::string("MpcSim failed (") +
                         solve_status_name(status) + "): " + message +
                         "; degraded to sequential";
  } catch (const std::exception& e) {
    // Fallback failed too: keep the original classification, note both.
    out.report.message =
        message + " (sequential fallback also failed: " + e.what() + ")";
  }
  return out;
}

// try_solve is defined only here, so every request kind's instantiation is
// emitted here.
#define MONGE_INSTANTIATE_TRY_SOLVE(Req)                     \
  template TrySolveResult<typename RequestTraits<Req>::Result> \
  Solver::try_solve(const Req&);
MONGE_REQUEST_KINDS(MONGE_INSTANTIATE_TRY_SOLVE)
#undef MONGE_INSTANTIATE_TRY_SOLVE

}  // namespace monge
