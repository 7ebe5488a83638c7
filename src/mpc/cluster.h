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
// A round costs what its machines compute, plus a barrier whose work grows
// with the traffic and the changed shards, not with the registry:
//   * the per-machine contexts (with their outboxes), error slots and word
//     tallies are Cluster members reused from round to round, and each
//     machine tallies its outgoing words as it sends;
//   * at the barrier, a consumed inbox payload goes back to its sender's
//     context as a spare buffer that the sender's next sends pack into
//     (MachineCtx::take_buffer). A machine keeps at most s/16 words of
//     spares, so small messages (sketches, splitters, prefix sums) reuse
//     their buffers and a larger payload is freed;
//   * the resident audit keeps running per-machine totals. A structure
//     marks (structure, machine) when that machine's part may change
//     (mark_resident; DistVector does it when it hands out a shard
//     mutably), and the audit re-reads only the marked pairs — exact, in
//     strict and lenient mode, and checked against a full walk of every
//     registered structure in builds with MONGE_DCHECK on.
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

  /// Decodes the payload in place over out[offset, ...) and returns the
  /// item count; CodecError (before anything is written) if the payload
  /// is not a whole number of T strides or does not fit there.
  template <typename T>
  std::size_t decode_into(std::vector<T>& out, std::size_t offset) const {
    MONGE_CHECK(offset <= out.size());
    return util::unpack_words_into<T>(payload,
                                      std::span<T>(out).subspan(offset));
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
/// cluster. `words` feeds the space audit and is mandatory;
/// `checkpoint`/`restore` let the cluster snapshot the structure's
/// per-machine state and roll it back for crash recovery. Structures
/// registered without the recovery pair (audit-only) still audit, but a
/// crash while one is live is unrecoverable (FaultError).
struct ResidentHooks {
  /// The words the structure currently keeps on `machine`. The audit reads
  /// every machine once at registration, then only the machines marked
  /// since its last read (Cluster::mark_resident), so a structure whose
  /// words change must mark the machine before the round ends.
  std::function<std::int64_t(std::int64_t machine)> words;
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

  /// An empty payload buffer for this machine's next send: one that an
  /// earlier message of this machine came back in after its receiver
  /// consumed it (it keeps its capacity), or a new one.
  std::vector<Word> take_buffer();
  /// Hands a buffer this machine no longer needs to its spares.
  void give_back(std::vector<Word> buffer);

  /// Typed send: packs an array of T into words (util/codec.h), in a
  /// buffer from take_buffer().
  template <typename T>
  void send_items(std::int64_t to, std::int64_t tag, std::span<const T> items) {
    std::vector<Word> payload = take_buffer();
    util::pack_words_into(items, payload);
    send(to, tag, std::move(payload));
  }

 private:
  friend class Cluster;
  MachineCtx(Cluster* cluster, std::int64_t id) : cluster_(cluster), id_(id) {}
  /// Drops the outbox of the previous (or an aborted) execution; the
  /// payloads an aborted execution left there become spares.
  void clear_outbox();

  Cluster* cluster_;
  std::int64_t id_;
  std::vector<Message> outbox_;
  /// Payload + envelope words in outbox_, tallied by send().
  std::int64_t out_words_ = 0;
  /// Payload buffers to send in (at most s/16 words in all), and their
  /// total capacity.
  std::vector<std::vector<Word>> spares_;
  std::int64_t spare_words_ = 0;
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
  /// deterministically: the lowest-id machine's exception wins. fn is
  /// called by reference, so a round costs no copy of its closure.
  template <typename Fn>
  void run_round(Fn&& fn) {
    run_round_on([&fn](MachineCtx& mc) { fn(mc); });
  }

  /// Resets round/communication statistics, including recovery counters
  /// (not mailboxes).
  void reset_stats() { stats_ = ClusterStats{}; }

  /// Registers a resident structure's hook set (used by DistVector) and
  /// reads its words on every machine; returns an id for unregistering.
  /// Leave checkpoint/restore empty for an audit-only registration (no
  /// crash recovery for this structure). Not callable inside a round.
  std::int64_t register_resident(ResidentHooks hooks);
  void unregister_resident(std::int64_t id);
  /// Marks structure `id` on `machine` for the audit to re-read: call it
  /// whenever that machine's words may change, before the round (or host
  /// step) ends. Inside a round, machine i's closure marks only machine i.
  void mark_resident(std::int64_t id, std::int64_t machine);

  /// Current resident words per machine: a full walk that asks every
  /// registered structure for every machine's words (the incremental
  /// audit's reference).
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
  /// One registered structure and the audit's view of it per machine.
  struct Resident {
    struct Slot {
      std::int64_t words = 0;  ///< words the audit last read
      bool marked = false;     ///< queued in marked_[machine]
    };
    std::int64_t id = 0;
    ResidentHooks hooks;
    std::vector<Slot> slots;  ///< one per machine
  };

  /// run_round's body; `fn` wraps the caller's closure by reference, which
  /// std::function stores without allocating.
  void run_round_on(const std::function<void(MachineCtx&)>& fn);
  void check_space(std::int64_t machine, std::int64_t words,
                   const char* kind) const;
  /// Re-reads the marked (structure, machine) pairs into resident_words_.
  void flush_resident_audit();
  void take_checkpoint(std::int64_t round);
  /// Rolls mailboxes and resident state back; returns the words restored.
  std::int64_t restore_checkpoint();
  /// Moves the consumed inbox payloads to their senders' spares and
  /// clears the inboxes.
  void recycle_inboxes();
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
  std::vector<Resident> residents_;
  std::int64_t next_resident_id_ = 0;
  Snapshot snapshot_;

  // Per-round state, sized once and reused by every round. Inside the
  // parallel phase machine i's context, error slot and marked list are
  // touched only by the task running machine i; the tallies only at the
  // round barrier.
  std::vector<MachineCtx> ctxs_;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::int64_t> incoming_words_;
  /// Running resident totals per machine: the sum of every registered
  /// structure's last-read words.
  std::vector<std::int64_t> resident_words_;
  /// Per machine, the ids of the structures marked since the last audit.
  std::vector<std::vector<std::int64_t>> marked_;

  friend class MachineCtx;
};

}  // namespace monge::mpc
