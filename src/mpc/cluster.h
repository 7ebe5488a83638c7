// The MPC cluster simulator.
//
// Computation proceeds in rounds (§1.1): in a round every machine runs a
// local function over its resident data and inbox, and emits messages; the
// runtime routes the messages, which become the inboxes of the next round.
// The simulator
//   * counts rounds — the MPC complexity measure every benchmark reports,
//   * accounts communication and resident space per machine per round and
//     (in strict mode) throws SpaceLimitError when the s-word budget is
//     exceeded — this is how the fully-scalability claims are *measured*.
//     A machine's words in a round are its outbox (what it sent), its inbox
//     (what was routed to it) and its resident data (registered
//     structures, after the round); each part, and their sum, must fit s,
//   * runs machine-local work on a thread pool, with deterministic message
//     delivery (sorted by sender) and deterministic error surfacing (lowest
//     machine id wins) regardless of scheduling,
//   * optionally injects a seeded fault schedule (MpcConfig::faults) and
//     recovers from it: at the start of every checkpoint_interval-th round
//     it snapshots the mailboxes and all registered resident state, and a
//     machine crash rolls every machine back to that snapshot and
//     re-executes the round, up to FaultPlan::max_round_retries times.
//     Message drops/duplicates/corruption are masked by the simulated
//     reliable transport (retransmit, sequence-number dedup, checksum
//     verification). All recovery cost — re-executed rounds, wasted and
//     retransmitted words, checkpoint storage — is accounted in
//     ClusterStats::recovery and NEVER in the paper's rounds /
//     total_comm_words, so the complexity measurements stay honest.
//
// A round's fixed cost is kept to what its machines do: the per-machine
// contexts (with their outboxes), error slots and word tallies are Cluster
// members reused from round to round, each machine tallies its outgoing
// words as it sends, and the resident audit makes one ResidentHooks call
// per registered structure per round, which adds that structure's words
// for every machine at once.
//
// The recovery contract for round closures: a crash re-executes the SAME
// closure against the restored snapshot, so closures must be restartable —
// inside a round, mutate only (a) cluster-registered resident state
// (DistVector shards — restored on rollback), (b) host slots written by
// overwrite (idempotent re-execution), or (c) host accumulators that the
// closure itself resets at entry. Every collective and MPC algorithm in
// this repository follows the contract.
//
// Messages are flat arrays of 64-bit words; typed helpers pack/unpack
// trivially-copyable structs through the shared codec in util/codec.h.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mpc/config.h"
#include "util/check.h"
#include "util/codec.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace monge::mpc {

using Word = std::int64_t;

// The space-budget error lives in the shared taxonomy (util/error.h);
// re-exported here where it is thrown from.
using monge::SpaceLimitError;

/// Words of envelope (sender, tag) every message costs on top of its
/// payload, in the traffic accounting and the communication totals.
inline constexpr std::int64_t kEnvelopeWords = 2;

struct Message {
  std::int64_t from = 0;
  std::int64_t to = 0;
  std::int64_t tag = 0;
  std::vector<Word> payload;

  /// Decodes the payload as an array of T (trivially copyable, packed by
  /// send_items through the util/codec.h word codec). Throws CodecError if
  /// the payload is not a whole number of T strides.
  template <typename T>
  std::vector<T> decode() const {
    return util::unpack_words<T>(payload);
  }

  /// Appends the decoded payload to `out` without a temporary array; same
  /// contract (and CodecError, before anything is appended) as decode().
  template <typename T>
  void decode_append(std::vector<T>& out) const {
    util::unpack_words_append<T>(payload, out);
  }
};

/// Recovery-side statistics, kept strictly apart from the paper's
/// round/word numbers so fault injection never distorts the complexity
/// measurements; all-zero when fault injection is off.
struct RecoveryStats {
  std::int64_t checkpoints = 0;          ///< snapshots taken
  std::int64_t checkpoint_words = 0;     ///< words persisted across snapshots
  std::int64_t crashes_recovered = 0;    ///< crash events rolled back
  std::int64_t recovery_rounds = 0;      ///< re-executed + retransmit rounds
  std::int64_t recovery_comm_words = 0;  ///< wasted, restored, resent words
  std::int64_t messages_dropped = 0;     ///< drops masked by retransmission
  std::int64_t messages_duplicated = 0;  ///< duplicates discarded by dedup
  std::int64_t messages_corrupted = 0;   ///< corruptions caught by checksum
  std::int64_t straggler_delays = 0;     ///< stragglers absorbed by barrier

  friend bool operator==(const RecoveryStats&,
                         const RecoveryStats&) = default;
};

/// Per-field difference a − b (used for per-request recovery deltas).
inline RecoveryStats operator-(RecoveryStats a, const RecoveryStats& b) {
  a.checkpoints -= b.checkpoints;
  a.checkpoint_words -= b.checkpoint_words;
  a.crashes_recovered -= b.crashes_recovered;
  a.recovery_rounds -= b.recovery_rounds;
  a.recovery_comm_words -= b.recovery_comm_words;
  a.messages_dropped -= b.messages_dropped;
  a.messages_duplicated -= b.messages_duplicated;
  a.messages_corrupted -= b.messages_corrupted;
  a.straggler_delays -= b.straggler_delays;
  return a;
}

struct ClusterStats {
  std::int64_t rounds = 0;
  /// Words sent (payload plus envelope) in completed rounds; a round that
  /// throws adds none, like it adds no round.
  std::int64_t total_comm_words = 0;
  /// Peak over rounds and machines of outbox + inbox + resident words: what
  /// a machine sent in a round, what was routed to it, and what it keeps
  /// in registered structures after the round.
  std::int64_t max_machine_words = 0;
  /// Peak resident (registered DistVector shards) alone.
  std::int64_t max_resident_words = 0;
  /// Fault-injection recovery accounting (additive, separate from above).
  RecoveryStats recovery{};

  friend bool operator==(const ClusterStats&, const ClusterStats&) = default;
};

/// Hooks a resident data structure (DistVector) registers with the
/// cluster. `add_words` feeds the per-round space audit and is mandatory;
/// `checkpoint`/`restore` let the cluster snapshot the structure's
/// per-machine state and roll it back for crash recovery. Structures
/// registered without the recovery pair (audit-only) still audit, but a
/// crash while one is live is unrecoverable (FaultError).
struct ResidentHooks {
  /// Adds the words the structure currently keeps on machine i to
  /// words[i], for every machine (words.size() == machines()). The audit
  /// calls it once per round.
  std::function<void(std::span<std::int64_t> words)> add_words;
  /// Serializes the machine's state as a flat word blob.
  std::function<std::vector<Word>(std::int64_t machine)> checkpoint;
  /// Inverse of checkpoint: reinstates a previously serialized blob.
  std::function<void(std::int64_t machine, std::span<const Word> blob)>
      restore;
};

class Cluster;

/// Handle a machine uses inside a round to read its inbox and send.
class MachineCtx {
 public:
  std::int64_t id() const { return id_; }
  std::int64_t machines() const;
  std::span<const Message> inbox() const;

  void send(std::int64_t to, std::int64_t tag, std::vector<Word> payload);

  /// Typed send: packs an array of T into words (util/codec.h).
  template <typename T>
  void send_items(std::int64_t to, std::int64_t tag, std::span<const T> items) {
    send(to, tag, util::pack_words(items));
  }

 private:
  friend class Cluster;
  MachineCtx(Cluster* cluster, std::int64_t id) : cluster_(cluster), id_(id) {}
  /// Drops the outbox of the previous (or an aborted) execution.
  void clear_outbox() {
    outbox_.clear();
    out_words_ = 0;
  }

  Cluster* cluster_;
  std::int64_t id_;
  std::vector<Message> outbox_;
  /// Payload + envelope words in outbox_, tallied by send().
  std::int64_t out_words_ = 0;
};

class Cluster {
 public:
  /// Validates the config (machine/space counts, checkpoint cadence, fault
  /// probabilities and scheduled sites) — invalid values throw
  /// InvalidRequestError, never undefined behavior.
  explicit Cluster(MpcConfig cfg);
  // Machine contexts and registered structures hold the cluster's address.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::int64_t machines() const { return cfg_.num_machines; }
  std::int64_t space_words() const { return cfg_.space_words; }
  const MpcConfig& config() const { return cfg_; }
  const ClusterStats& stats() const { return stats_; }
  std::int64_t rounds() const { return stats_.rounds; }

  /// Executes one MPC round: fn runs once per machine (in parallel), then
  /// outgoing messages are validated against the space budget and routed.
  /// With faults enabled, the round is checkpointed, injected with the
  /// plan's events and recovered as described in the header comment; an
  /// unrecoverable crash throws FaultError. Errors thrown by fn surface
  /// deterministically: the lowest-id machine's exception wins.
  void run_round(const std::function<void(MachineCtx&)>& fn);

  /// Resets round/communication statistics, including recovery counters
  /// (not mailboxes).
  void reset_stats() { stats_ = ClusterStats{}; }

  /// Registers a resident structure's hook set (used by DistVector);
  /// returns an id for unregistering. Leave checkpoint/restore empty for an
  /// audit-only registration (no crash recovery for this structure).
  std::int64_t register_resident(ResidentHooks hooks);
  void unregister_resident(std::int64_t id);

  /// Current resident words per machine, summed over the registered
  /// structures through the same hooks the round audit calls.
  std::vector<std::int64_t> resident_words() const;

 private:
  /// Round-entry snapshot crash recovery restores: the delivered-but-
  /// unconsumed mailboxes plus every recoverable resident structure.
  struct Snapshot {
    std::int64_t round = -1;  ///< round the snapshot was taken for
    bool complete = false;    ///< every resident structure was recoverable
    std::vector<std::vector<Message>> mailboxes;
    std::map<std::int64_t, std::vector<std::vector<Word>>> residents;
  };

  void check_space(std::int64_t machine, std::int64_t words,
                   const char* kind) const;
  /// Adds every registered structure's words per machine into `words`.
  void add_resident_words(std::span<std::int64_t> words) const;
  void take_checkpoint(std::int64_t round);
  /// Rolls mailboxes and resident state back; returns the words restored.
  std::int64_t restore_checkpoint();
  /// Machines the plan crashes at (round, attempt), ascending ids.
  std::vector<std::int64_t> crashed_machines(std::int64_t round,
                                             std::int64_t attempt) const;
  /// Applies drop/duplicate/corrupt events to one routed message; the
  /// delivered payload is always the pristine one (reliable transport) —
  /// only the recovery counters move.
  void inject_message_faults(const Message& msg, std::int64_t round,
                             std::int64_t seq, bool* retransmitted);

  MpcConfig cfg_;
  ThreadPool pool_;
  ClusterStats stats_;
  std::vector<std::vector<Message>> mailboxes_;  // inbox per machine
  /// Registered structures by ascending id (ids are handed out in order).
  std::vector<std::pair<std::int64_t, ResidentHooks>> residents_;
  std::int64_t next_resident_id_ = 0;
  Snapshot snapshot_;

  // Per-round state, sized once and reused by every round. Inside the
  // parallel phase machine i's context and error slot are touched only by
  // the task running machine i; the tallies only at the round barrier.
  std::vector<MachineCtx> ctxs_;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::int64_t> incoming_words_;
  std::vector<std::int64_t> resident_words_;

  friend class MachineCtx;
};

}  // namespace monge::mpc
