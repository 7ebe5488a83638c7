#include "mpc/cluster.h"

#include <algorithm>
#include <exception>

namespace monge::mpc {

namespace {

void validate_config(const MpcConfig& cfg) {
  const auto require = [](bool ok, const std::string& msg) {
    if (!ok) throw InvalidRequestError("MpcConfig: " + msg);
  };
  require(cfg.num_machines >= 1, "num_machines must be >= 1, got " +
                                     std::to_string(cfg.num_machines));
  require(cfg.space_words >= 1,
          "space_words must be >= 1, got " + std::to_string(cfg.space_words));
  require(cfg.checkpoint_interval >= 1,
          "checkpoint_interval must be >= 1, got " +
              std::to_string(cfg.checkpoint_interval));
  const FaultPlan& fp = cfg.faults;
  for (const double p : {fp.crash_prob, fp.straggle_prob, fp.drop_prob,
                         fp.duplicate_prob, fp.corrupt_prob}) {
    // NaN fails both comparisons and is rejected alongside out-of-range.
    require(p >= 0.0 && p <= 1.0,
            "fault probabilities must be in [0, 1], got " + std::to_string(p));
  }
  require(fp.max_round_retries >= 0, "FaultPlan.max_round_retries must be "
                                     ">= 0, got " +
                                         std::to_string(fp.max_round_retries));
  for (const ScheduledFault& f : fp.scheduled) {
    require(f.round >= 0, "scheduled fault round must be >= 0, got " +
                              std::to_string(f.round));
    require(f.machine >= 0 && f.machine < cfg.num_machines,
            "scheduled fault machine " + std::to_string(f.machine) +
                " outside [0, " + std::to_string(cfg.num_machines) + ")");
  }
}

bool scheduled_hit(const FaultPlan& fp, FaultKind kind, std::int64_t round,
                   std::int64_t machine) {
  for (const ScheduledFault& f : fp.scheduled) {
    if (f.kind == kind && f.round == round && f.machine == machine) {
      return true;
    }
  }
  return false;
}

/// The registration with this id in an id-sorted registry, or end().
template <typename Registry>
auto find_registration(Registry& registry, std::int64_t id) {
  const auto it = std::lower_bound(
      registry.begin(), registry.end(), id,
      [](const auto& entry, std::int64_t key) { return entry.id < key; });
  return it != registry.end() && it->id == id ? it : registry.end();
}

}  // namespace

std::int64_t MachineCtx::machines() const { return cluster_->machines(); }

std::span<const Message> MachineCtx::inbox() const {
  return cluster_->mailboxes_[static_cast<std::size_t>(id_)];
}

std::vector<Word> MachineCtx::take_buffer() {
  if (spares_.empty()) return {};
  std::vector<Word> buffer = std::move(spares_.back());
  spares_.pop_back();
  spare_words_ -= static_cast<std::int64_t>(buffer.capacity());
  buffer.clear();
  return buffer;
}

void MachineCtx::give_back(std::vector<Word> buffer) {
  // A machine keeps at most s/16 words of spares: room for its small
  // messages (sketches, splitters, prefix sums) to reuse their buffers,
  // while a larger one is freed, so spares add little memory.
  const auto words = static_cast<std::int64_t>(buffer.capacity());
  if (words == 0 || spare_words_ + words > cluster_->space_words() / 16) {
    return;
  }
  spare_words_ += words;
  spares_.push_back(std::move(buffer));
}

void MachineCtx::clear_outbox() {
  for (Message& msg : outbox_) give_back(std::move(msg.payload));
  outbox_.clear();
  out_words_ = 0;
}

void MachineCtx::send(std::int64_t to, std::int64_t tag,
                      std::vector<Word> payload) {
  MONGE_CHECK_MSG(to >= 0 && to < cluster_->machines(),
                  "send to invalid machine " << to);
  out_words_ += static_cast<std::int64_t>(payload.size()) + kEnvelopeWords;
  Message m;
  m.from = id_;
  m.to = to;
  m.tag = tag;
  m.payload = std::move(payload);
  outbox_.push_back(std::move(m));
}

Cluster::Cluster(MpcConfig cfg) : cfg_(std::move(cfg)), pool_(cfg_.threads) {
  validate_config(cfg_);
  const auto m = static_cast<std::size_t>(cfg_.num_machines);
  mailboxes_.resize(m);
  ctxs_.reserve(m);
  for (std::int64_t i = 0; i < cfg_.num_machines; ++i) {
    ctxs_.push_back(MachineCtx(this, i));
  }
  errors_.resize(m);
  incoming_words_.resize(m);
  resident_words_.resize(m);
  marked_.resize(m);
}

void Cluster::check_space(std::int64_t machine, std::int64_t words,
                          const char* kind) const {
  if (cfg_.strict && words > cfg_.space_words) {
    throw SpaceLimitError(machine, words, cfg_.space_words, kind);
  }
}

std::int64_t Cluster::register_resident(ResidentHooks hooks) {
  MONGE_CHECK_MSG(hooks.words != nullptr, "ResidentHooks.words is mandatory");
  Resident r;
  r.id = next_resident_id_++;
  r.slots.resize(static_cast<std::size_t>(machines()));
  for (std::int64_t i = 0; i < machines(); ++i) {
    const std::int64_t w = hooks.words(i);
    r.slots[static_cast<std::size_t>(i)].words = w;
    resident_words_[static_cast<std::size_t>(i)] += w;
  }
  r.hooks = std::move(hooks);
  residents_.push_back(std::move(r));
  return residents_.back().id;
}

void Cluster::unregister_resident(std::int64_t id) {
  const auto it = find_registration(residents_, id);
  if (it == residents_.end()) return;
  // The totals hold what the audit last read, whatever the structure holds
  // now; ids still queued in marked_ are skipped once they are gone.
  for (std::size_t i = 0; i < it->slots.size(); ++i) {
    resident_words_[i] -= it->slots[i].words;
  }
  residents_.erase(it);
}

void Cluster::mark_resident(std::int64_t id, std::int64_t machine) {
  const auto it = find_registration(residents_, id);
  MONGE_CHECK(it != residents_.end());
  Resident::Slot& slot = it->slots[static_cast<std::size_t>(machine)];
  if (slot.marked) return;
  slot.marked = true;
  marked_[static_cast<std::size_t>(machine)].push_back(id);
}

// monge-lint: hot
void Cluster::flush_resident_audit() {
  for (std::size_t i = 0; i < marked_.size(); ++i) {
    for (const std::int64_t id : marked_[i]) {
      const auto it = find_registration(residents_, id);
      if (it == residents_.end()) continue;  // unregistered since marked
      Resident::Slot& slot = it->slots[i];
      const std::int64_t now = it->hooks.words(static_cast<std::int64_t>(i));
      resident_words_[i] += now - slot.words;
      slot.words = now;
      slot.marked = false;
    }
    marked_[i].clear();
  }
}

std::vector<std::int64_t> Cluster::resident_words() const {
  std::vector<std::int64_t> words(static_cast<std::size_t>(machines()), 0);
  for (const Resident& r : residents_) {
    for (std::int64_t i = 0; i < machines(); ++i) {
      words[static_cast<std::size_t>(i)] += r.hooks.words(i);
    }
  }
  return words;
}

void Cluster::take_checkpoint(std::int64_t round) {
  const std::int64_t m = machines();
  snapshot_.round = round;
  snapshot_.complete = true;
  snapshot_.mailboxes = mailboxes_;
  snapshot_.residents.clear();
  std::int64_t words = 0;
  for (const auto& box : snapshot_.mailboxes) {
    for (const Message& msg : box) {
      words += static_cast<std::int64_t>(msg.payload.size()) + kEnvelopeWords;
    }
  }
  for (const Resident& r : residents_) {
    if (!r.hooks.checkpoint || !r.hooks.restore) {
      snapshot_.complete = false;
      continue;
    }
    auto& blobs = snapshot_.residents[r.id];
    blobs.resize(static_cast<std::size_t>(m));
    for (std::int64_t i = 0; i < m; ++i) {
      blobs[static_cast<std::size_t>(i)] = r.hooks.checkpoint(i);
      words +=
          static_cast<std::int64_t>(blobs[static_cast<std::size_t>(i)].size());
    }
  }
  ++stats_.recovery.checkpoints;
  stats_.recovery.checkpoint_words += words;
}

std::int64_t Cluster::restore_checkpoint() {
  mailboxes_ = snapshot_.mailboxes;
  std::int64_t words = 0;
  for (const auto& [id, blobs] : snapshot_.residents) {
    const auto it = find_registration(residents_, id);
    if (it == residents_.end()) continue;  // destroyed since the snapshot
    for (std::int64_t i = 0; i < machines(); ++i) {
      const auto& blob = blobs[static_cast<std::size_t>(i)];
      it->hooks.restore(i, blob);
      mark_resident(id, i);
      words += static_cast<std::int64_t>(blob.size());
    }
  }
  return words;
}

void Cluster::recycle_inboxes() {
  for (auto& box : mailboxes_) {
    for (Message& msg : box) {
      ctxs_[static_cast<std::size_t>(msg.from)].give_back(
          std::move(msg.payload));
    }
    box.clear();
  }
}

std::vector<std::int64_t> Cluster::crashed_machines(
    std::int64_t round, std::int64_t attempt) const {
  const FaultPlan& fp = cfg_.faults;
  std::vector<std::int64_t> out;
  for (std::int64_t i = 0; i < machines(); ++i) {
    bool crashed =
        fp.crash_prob > 0.0 &&
        fault_uniform(fp.seed, FaultKind::kCrash, round, attempt, i) <
            fp.crash_prob;
    // Scheduled crashes are one-shot: they strike the first execution only.
    if (!crashed && attempt == 0) {
      crashed = scheduled_hit(fp, FaultKind::kCrash, round, i);
    }
    if (crashed) out.push_back(i);
  }
  return out;
}

void Cluster::inject_message_faults(const Message& msg, std::int64_t round,
                                    std::int64_t seq, bool* retransmitted) {
  const FaultPlan& fp = cfg_.faults;
  const auto w =
      static_cast<std::int64_t>(msg.payload.size()) + kEnvelopeWords;
  const auto hit = [&](FaultKind kind, double prob) {
    return (prob > 0.0 &&
            fault_uniform(fp.seed, kind, round, seq, msg.from, msg.to) <
                prob) ||
           scheduled_hit(fp, kind, round, msg.from);
  };
  if (hit(FaultKind::kDrop, fp.drop_prob)) {
    // Lost in flight; the transport detects the sequence gap and
    // retransmits, so delivery is unchanged and the resend is recovery cost.
    ++stats_.recovery.messages_dropped;
    stats_.recovery.recovery_comm_words += w;
    *retransmitted = true;
  }
  if (hit(FaultKind::kDuplicate, fp.duplicate_prob)) {
    // Arrives twice; sequence numbers unmask the copy, which is discarded.
    ++stats_.recovery.messages_duplicated;
    stats_.recovery.recovery_comm_words += w;
  }
  if (hit(FaultKind::kCorrupt, fp.corrupt_prob) && !msg.payload.empty()) {
    // Damage a copy in flight and prove the checksum catches it; the clean
    // payload is then retransmitted, so what the receiver decodes is
    // bit-identical to the fault-free run.
    std::vector<Word> damaged = msg.payload;
    corrupt_payload(damaged, fp.seed, round, seq * machines() + msg.from);
    MONGE_CHECK(payload_checksum(damaged) != payload_checksum(msg.payload));
    ++stats_.recovery.messages_corrupted;
    stats_.recovery.recovery_comm_words += w;
    *retransmitted = true;
  }
}

void Cluster::run_round_on(const std::function<void(MachineCtx&)>& fn) {
  const std::int64_t m = machines();
  const std::int64_t round = stats_.rounds;
  const FaultPlan& fp = cfg_.faults;
  const bool chaos = fp.enabled();

  if (chaos && round % cfg_.checkpoint_interval == 0) take_checkpoint(round);

  for (std::int64_t attempt = 0;; ++attempt) {
    if (attempt > 0) {
      // Coordinated rollback: every machine returns to the round-entry
      // snapshot; the aborted attempt's traffic and the restore traffic
      // are written off to the recovery accounts.
      std::int64_t wasted = 0;
      for (const MachineCtx& ctx : ctxs_) wasted += ctx.out_words_;
      stats_.recovery.recovery_comm_words += wasted + restore_checkpoint();
      ++stats_.recovery.recovery_rounds;
    }
    // The per-round state is reused: drop what the last execution left in
    // it — an aborted attempt, or a previous round that threw before
    // routing.
    for (MachineCtx& ctx : ctxs_) ctx.clear_outbox();
    std::fill(errors_.begin(), errors_.end(), nullptr);
    // Run the local phase of every machine concurrently, each on its own
    // context; routing happens after the barrier, so delivery order is
    // deterministic no matter how the pool schedules machines. Errors are
    // collected per machine, never rethrown across the pool, so the
    // surfaced exception is deterministic too — lowest machine id wins.
    pool_.parallel_for(m, [this, &fn](std::int64_t i) {
      try {
        fn(ctxs_[static_cast<std::size_t>(i)]);
      } catch (...) {
        errors_[static_cast<std::size_t>(i)] = std::current_exception();
      }
    });
    if (!chaos) break;
    const std::vector<std::int64_t> crashed = crashed_machines(round, attempt);
    if (crashed.empty()) break;
    if (snapshot_.round != round) {
      throw FaultError(
          crashed.front(), round,
          "crash in a round with no fresh checkpoint (checkpoint_interval " +
              std::to_string(cfg_.checkpoint_interval) +
              "): a round cannot be replayed once its closure returned");
    }
    if (!snapshot_.complete) {
      throw FaultError(crashed.front(), round,
                       "crash while a resident structure without "
                       "checkpoint/restore hooks is registered");
    }
    if (attempt >= fp.max_round_retries) {
      throw FaultError(crashed.front(), round,
                       "crash retry budget (" +
                           std::to_string(fp.max_round_retries) +
                           ") exhausted");
    }
    stats_.recovery.crashes_recovered +=
        static_cast<std::int64_t>(crashed.size());
  }

  for (const std::exception_ptr& error : errors_) {
    if (error) std::rethrow_exception(error);
  }

  // Outgoing traffic, tallied by send() with each message's envelope; it
  // counts toward total_comm_words only once the round completes.
  std::int64_t round_words = 0;
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int64_t out = ctxs_[static_cast<std::size_t>(i)].out_words_;
    check_space(i, out, "outgoing traffic of");
    round_words += out;
  }

  // Route: recycle the consumed inboxes into their senders' spares, then
  // deliver the new messages sorted by sender. With chaos on,
  // drop/duplicate/corrupt events are injected per message and masked by
  // the simulated reliable transport — the delivered payloads are always
  // pristine; only the recovery accounts move.
  recycle_inboxes();
  std::fill(incoming_words_.begin(), incoming_words_.end(), 0);
  bool retransmitted = false;
  for (MachineCtx& ctx : ctxs_) {
    std::int64_t seq = 0;
    for (Message& msg : ctx.outbox_) {
      if (chaos) inject_message_faults(msg, round, seq, &retransmitted);
      ++seq;
      const auto to = static_cast<std::size_t>(msg.to);
      incoming_words_[to] +=
          static_cast<std::int64_t>(msg.payload.size()) + kEnvelopeWords;
      mailboxes_[to].push_back(std::move(msg));
    }
  }
  if (retransmitted) ++stats_.recovery.recovery_rounds;

  // Stragglers cost no correctness — the round barrier absorbs the delay —
  // but they are observable, so the plan's events are counted.
  if (chaos) {
    for (std::int64_t i = 0; i < m; ++i) {
      const bool straggles =
          (fp.straggle_prob > 0.0 &&
           fault_uniform(fp.seed, FaultKind::kStraggle, round, 0, i) <
               fp.straggle_prob) ||
          scheduled_hit(fp, FaultKind::kStraggle, round, i);
      if (straggles) ++stats_.recovery.straggler_delays;
    }
  }

  // Space audit after delivery: every machine's inbox, resident data and
  // footprint (outbox + inbox + resident). The per-part checks run first,
  // over all machines, so a part over s is reported as that part; only then
  // is the sum bounded. The resident totals catch up by re-reading only
  // the pairs marked since the last audit; with MONGE_DCHECK on they are
  // checked against a full walk every round.
  flush_resident_audit();
  MONGE_DCHECK(resident_words_ == resident_words());
  const auto footprint = [&](std::size_t i) {
    return ctxs_[i].out_words_ + incoming_words_[i] + resident_words_[i];
  };
  for (std::int64_t i = 0; i < m; ++i) {
    const auto k = static_cast<std::size_t>(i);
    check_space(i, incoming_words_[k], "incoming traffic of");
    check_space(i, resident_words_[k], "resident data of");
    stats_.max_resident_words =
        std::max(stats_.max_resident_words, resident_words_[k]);
    stats_.max_machine_words =
        std::max(stats_.max_machine_words, footprint(k));
  }
  for (std::int64_t i = 0; i < m; ++i) {
    check_space(i, footprint(static_cast<std::size_t>(i)),
                "footprint (outbox + inbox + resident) of");
  }
  stats_.total_comm_words += round_words;
  ++stats_.rounds;
}

}  // namespace monge::mpc
