#include "mpc/cluster.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpc/dist_vector.h"

namespace monge::mpc {
namespace {

MpcConfig small_config(std::int64_t machines, std::int64_t space = 1 << 20,
                       bool strict = true) {
  MpcConfig cfg;
  cfg.num_machines = machines;
  cfg.space_words = space;
  cfg.strict = strict;
  cfg.threads = 2;
  return cfg;
}

TEST(Cluster, CountsRounds) {
  Cluster c(small_config(4));
  EXPECT_EQ(c.rounds(), 0);
  for (int i = 0; i < 5; ++i) c.run_round([](MachineCtx&) {});
  EXPECT_EQ(c.rounds(), 5);
  c.reset_stats();
  EXPECT_EQ(c.rounds(), 0);
}

TEST(Cluster, DeliversMessagesNextRound) {
  Cluster c(small_config(3));
  c.run_round([](MachineCtx& mc) {
    if (mc.id() == 0) mc.send(2, 7, {10, 20});
    EXPECT_TRUE(mc.inbox().empty());  // nothing in flight yet
  });
  c.run_round([](MachineCtx& mc) {
    if (mc.id() == 2) {
      ASSERT_EQ(mc.inbox().size(), 1u);
      EXPECT_EQ(mc.inbox()[0].from, 0);
      EXPECT_EQ(mc.inbox()[0].tag, 7);
      EXPECT_EQ(mc.inbox()[0].payload, (std::vector<Word>{10, 20}));
    } else {
      EXPECT_TRUE(mc.inbox().empty());
    }
  });
  // Mailboxes are cleared after consumption.
  c.run_round([](MachineCtx& mc) { EXPECT_TRUE(mc.inbox().empty()); });
}

TEST(Cluster, DeliveryOrderedBySender) {
  Cluster c(small_config(8));
  c.run_round([](MachineCtx& mc) {
    if (mc.id() > 0) mc.send(0, mc.id(), {mc.id()});
  });
  c.run_round([](MachineCtx& mc) {
    if (mc.id() != 0) return;
    ASSERT_EQ(mc.inbox().size(), 7u);
    for (std::size_t k = 0; k < 7; ++k) {
      EXPECT_EQ(mc.inbox()[k].from, static_cast<std::int64_t>(k) + 1);
    }
  });
}

TEST(Cluster, TypedSendRoundTrip) {
  struct Pair {
    std::int32_t a;
    std::int32_t b;
  };
  Cluster c(small_config(2));
  const std::vector<Pair> sent = {{1, 2}, {3, 4}, {-5, 6}};
  c.run_round([&](MachineCtx& mc) {
    if (mc.id() == 0) mc.send_items<Pair>(1, 0, sent);
  });
  c.run_round([&](MachineCtx& mc) {
    if (mc.id() != 1) return;
    ASSERT_EQ(mc.inbox().size(), 1u);
    const auto got = mc.inbox()[0].decode<Pair>();
    ASSERT_EQ(got.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(got[i].a, sent[i].a);
      EXPECT_EQ(got[i].b, sent[i].b);
    }
  });
}

TEST(Cluster, StrictModeRejectsOversizedTraffic) {
  Cluster c(small_config(2, /*space=*/16, /*strict=*/true));
  EXPECT_THROW(c.run_round([](MachineCtx& mc) {
    if (mc.id() == 0) mc.send(1, 0, std::vector<Word>(100, 1));
  }),
               SpaceLimitError);
}

TEST(Cluster, LenientModeAllowsOversizedTraffic) {
  Cluster c(small_config(2, /*space=*/16, /*strict=*/false));
  EXPECT_NO_THROW(c.run_round([](MachineCtx& mc) {
    if (mc.id() == 0) mc.send(1, 0, std::vector<Word>(100, 1));
  }));
  c.run_round([](MachineCtx&) {});
  EXPECT_GT(c.stats().max_machine_words, 16);
}

TEST(Cluster, SpaceErrorCarriesDiagnostics) {
  Cluster c(small_config(2, 16, true));
  try {
    c.run_round([](MachineCtx& mc) {
      if (mc.id() == 1) mc.send(0, 0, std::vector<Word>(50, 0));
    });
    FAIL() << "expected SpaceLimitError";
  } catch (const SpaceLimitError& e) {
    EXPECT_EQ(e.machine(), 1);
    EXPECT_EQ(e.limit(), 16);
    EXPECT_GE(e.words(), 50);
  }
}

TEST(Cluster, TracksCommunicationTotals) {
  Cluster c(small_config(4));
  c.run_round([](MachineCtx& mc) { mc.send((mc.id() + 1) % 4, 0, {1, 2, 3}); });
  c.run_round([](MachineCtx&) {});
  // 4 messages * (3 payload + 2 envelope) words.
  EXPECT_EQ(c.stats().total_comm_words, 4 * 5);
}

TEST(Cluster, ResidentAuditing) {
  Cluster c(small_config(2, /*space=*/64, /*strict=*/true));
  {
    DistVector<std::int64_t> dv(c, 100);  // 50 words per machine
    EXPECT_EQ(c.resident_words()[0], 50);
    EXPECT_NO_THROW(c.run_round([](MachineCtx&) {}));
    DistVector<std::int64_t> dv2(c, 60);  // +30 words -> 80 > 64
    EXPECT_THROW(c.run_round([](MachineCtx&) {}), SpaceLimitError);
  }
  // Auditors unregistered on destruction.
  EXPECT_EQ(c.resident_words()[0], 0);
  EXPECT_NO_THROW(c.run_round([](MachineCtx&) {}));

  // An audit-only registration (no checkpoint/restore) counts once per
  // round, per machine, alongside a DistVector, until it is unregistered.
  DistVector<std::int64_t> dv(c, 100);  // 50 words per machine
  const std::int64_t id = c.register_resident(
      ResidentHooks{.add_words = [](std::span<std::int64_t> words) {
        for (std::size_t i = 0; i < words.size(); ++i) {
          words[i] += 7 + static_cast<std::int64_t>(i);
        }
      }});
  EXPECT_EQ(c.resident_words(), (std::vector<std::int64_t>{57, 58}));
  c.reset_stats();
  EXPECT_NO_THROW(c.run_round([](MachineCtx&) {}));
  EXPECT_EQ(c.stats().max_resident_words, 58);
  c.unregister_resident(id);
  c.reset_stats();
  EXPECT_NO_THROW(c.run_round([](MachineCtx&) {}));
  EXPECT_EQ(c.stats().max_resident_words, 50);
}

TEST(Cluster, FootprintSumIsBoundedAndRecorded) {
  // Every part fits s = 64 on its own — outbox 22, inbox 22, resident 40 —
  // but machine 0 keeps 84 words in all during the round.
  const auto swap_round = [](Cluster& c) {
    c.run_round([](MachineCtx& mc) {
      mc.send(1 - mc.id(), 0, std::vector<Word>(20, 1));
    });
  };
  {
    Cluster c(small_config(2, /*space=*/64, /*strict=*/true));
    DistVector<std::int64_t> dv(c, 80);  // 40 words per machine
    try {
      swap_round(c);
      FAIL() << "expected SpaceLimitError";
    } catch (const SpaceLimitError& e) {
      EXPECT_EQ(e.machine(), 0);
      EXPECT_EQ(e.words(), 22 + 22 + 40);
      EXPECT_EQ(e.limit(), 64);
    }
    EXPECT_EQ(c.rounds(), 0);
  }
  {
    Cluster c(small_config(2, /*space=*/64, /*strict=*/false));
    DistVector<std::int64_t> dv(c, 80);
    swap_round(c);
    EXPECT_EQ(c.stats().max_machine_words, 22 + 22 + 40);
    EXPECT_EQ(c.stats().max_resident_words, 40);
    EXPECT_EQ(c.rounds(), 1);
  }
}

TEST(Cluster, FootprintCheckRunsAfterPerPartChecks) {
  // Machines 0 and 1 break only the sum (22 + 22 words), while machine 3
  // receives 2 x 33 = 66 > 64 words: the per-part diagnostic wins even
  // though it names a higher machine.
  Cluster c(small_config(5, /*space=*/64, /*strict=*/true));
  try {
    c.run_round([](MachineCtx& mc) {
      if (mc.id() < 2) mc.send(1 - mc.id(), 0, std::vector<Word>(20, 1));
      if (mc.id() == 2 || mc.id() == 4) {
        mc.send(3, 0, std::vector<Word>(31, 1));
      }
    });
    FAIL() << "expected SpaceLimitError";
  } catch (const SpaceLimitError& e) {
    EXPECT_EQ(e.machine(), 3);
    EXPECT_EQ(e.words(), 66);
    EXPECT_NE(std::string(e.what()).find("incoming traffic"),
              std::string::npos)
        << e.what();
  }
}

TEST(Cluster, ThrownRoundDoesNotLeakOutboxes) {
  // A round that throws before routing delivers nothing: the next round
  // still reads the inbox the last good round delivered, and the aborted
  // sends never arrive. One that throws after routing (an inbox over s)
  // has already delivered, so its messages are the next round's inbox.
  Cluster c(small_config(3, /*space=*/16, /*strict=*/true));
  const auto inbox_of = [&c](std::int64_t machine) {
    std::vector<std::vector<Word>> got;
    c.run_round([&](MachineCtx& mc) {
      if (mc.id() != machine) return;
      for (const Message& msg : mc.inbox()) got.push_back(msg.payload);
    });
    return got;
  };
  c.run_round([](MachineCtx& mc) {
    if (mc.id() == 0) mc.send(1, 0, {7});
  });
  // Closure error on machine 2, after machine 0 queued a message.
  EXPECT_THROW(c.run_round([](MachineCtx& mc) {
    if (mc.id() == 0) mc.send(1, 0, {99});
    if (mc.id() == 2) throw std::runtime_error("boom");
  }),
               std::runtime_error);
  EXPECT_EQ(inbox_of(1), (std::vector<std::vector<Word>>{{7}}));
  EXPECT_TRUE(inbox_of(1).empty());

  c.run_round([](MachineCtx& mc) {
    if (mc.id() == 0) mc.send(1, 0, {8});
  });
  // Outgoing traffic over s: thrown before routing. Machine 0's words,
  // checked before machine 2's, are not counted either.
  std::int64_t words = c.stats().total_comm_words;
  EXPECT_THROW(c.run_round([](MachineCtx& mc) {
    if (mc.id() == 0) mc.send(1, 0, {1, 2, 3});
    if (mc.id() == 2) mc.send(1, 0, std::vector<Word>(20, 5));
  }),
               SpaceLimitError);
  EXPECT_EQ(c.stats().total_comm_words, words);
  EXPECT_EQ(inbox_of(1), (std::vector<std::vector<Word>>{{8}}));
  EXPECT_TRUE(inbox_of(1).empty());

  // Incoming traffic over s (2 x 10 words): thrown after routing, and
  // still no words count.
  words = c.stats().total_comm_words;
  EXPECT_THROW(c.run_round([](MachineCtx& mc) {
    if (mc.id() != 1) mc.send(1, 0, std::vector<Word>(8, mc.id()));
  }),
               SpaceLimitError);
  EXPECT_EQ(c.stats().total_comm_words, words);
  EXPECT_EQ(inbox_of(1), (std::vector<std::vector<Word>>{
                             std::vector<Word>(8, 0), std::vector<Word>(8, 2)}));
  EXPECT_TRUE(inbox_of(1).empty());

  EXPECT_EQ(c.rounds(), 8);  // the three thrown rounds do not count
}

TEST(Cluster, FullyScalableConfigShapes) {
  const auto cfg = MpcConfig::fully_scalable(1 << 20, 0.5);
  EXPECT_EQ(cfg.num_machines, 1 << 10);
  EXPECT_GT(cfg.space_words, 1 << 10);
  // Machines grow with delta, space shrinks.
  const auto hi = MpcConfig::fully_scalable(1 << 20, 0.7);
  EXPECT_GT(hi.num_machines, cfg.num_machines);
  EXPECT_LT(hi.space_words, cfg.space_words);
}

TEST(DistVectorTest, LayoutCoversAllIndices) {
  for (std::int64_t m : {1, 2, 3, 7, 10}) {
    for (std::int64_t n : {0, 1, 5, 9, 10, 23, 100}) {
      BlockLayout layout{n, m};
      std::int64_t covered = 0;
      for (std::int64_t i = 0; i < m; ++i) {
        EXPECT_EQ(layout.hi(i) - layout.lo(i), layout.size(i));
        covered += layout.size(i);
      }
      EXPECT_EQ(covered, n);
      for (std::int64_t idx = 0; idx < n; ++idx) {
        const std::int64_t o = layout.owner(idx);
        EXPECT_LE(layout.lo(o), idx);
        EXPECT_LT(idx, layout.hi(o));
      }
    }
  }
}

TEST(DistVectorTest, HostRoundTrip) {
  Cluster c(small_config(5));
  std::vector<std::int64_t> data(123);
  std::iota(data.begin(), data.end(), -17);
  auto dv = DistVector<std::int64_t>::from_host(c, data);
  EXPECT_TRUE(dv.is_balanced());
  EXPECT_EQ(dv.to_host(), data);
}

TEST(ClusterValidation, RejectsBadConfigsAtConstruction) {
  EXPECT_THROW(Cluster{small_config(0)}, InvalidRequestError);
  EXPECT_THROW(Cluster{small_config(-3)}, InvalidRequestError);
  EXPECT_THROW(Cluster{small_config(2, /*space=*/0)}, InvalidRequestError);

  MpcConfig cfg = small_config(2);
  cfg.checkpoint_interval = 0;
  EXPECT_THROW(Cluster{cfg}, InvalidRequestError);

  cfg = small_config(2);
  cfg.faults.crash_prob = std::nan("");
  EXPECT_THROW(Cluster{cfg}, InvalidRequestError);

  cfg = small_config(2);
  cfg.faults.drop_prob = 1.5;
  EXPECT_THROW(Cluster{cfg}, InvalidRequestError);

  cfg = small_config(2);
  cfg.faults.corrupt_prob = -0.25;
  EXPECT_THROW(Cluster{cfg}, InvalidRequestError);

  cfg = small_config(2);
  cfg.faults.max_round_retries = -1;
  EXPECT_THROW(Cluster{cfg}, InvalidRequestError);

  cfg = small_config(2);
  cfg.faults.scheduled.push_back({/*round=*/0, /*machine=*/2,
                                  FaultKind::kCrash});  // out of range
  EXPECT_THROW(Cluster{cfg}, InvalidRequestError);

  cfg = small_config(2);
  cfg.faults.scheduled.push_back({/*round=*/-1, /*machine=*/0,
                                  FaultKind::kCrash});
  EXPECT_THROW(Cluster{cfg}, InvalidRequestError);
}

TEST(ClusterValidation, FullyScalableRejectsBadKnobs) {
  EXPECT_THROW(MpcConfig::fully_scalable(0, 0.5), InvalidRequestError);
  EXPECT_THROW(MpcConfig::fully_scalable(1 << 10, 0.0), InvalidRequestError);
  EXPECT_THROW(MpcConfig::fully_scalable(1 << 10, 1.0), InvalidRequestError);
  EXPECT_THROW(MpcConfig::fully_scalable(1 << 10, std::nan("")),
               InvalidRequestError);
  EXPECT_THROW(MpcConfig::fully_scalable(1 << 10, 0.5, 0.0),
               InvalidRequestError);
  EXPECT_THROW(MpcConfig::fully_scalable(1 << 10, 0.5, std::nan("")),
               InvalidRequestError);
  EXPECT_THROW(
      MpcConfig::fully_scalable(1 << 10, 0.5,
                                std::numeric_limits<double>::infinity()),
      InvalidRequestError);
  EXPECT_NO_THROW(MpcConfig::fully_scalable(1 << 10, 0.5));
}

TEST(Cluster, ClosureErrorsSurfaceLowestMachineDeterministically) {
  // Two machines fail in the same round; the surfaced exception must be
  // machine 1's on every execution, regardless of pool scheduling.
  Cluster c(small_config(4));
  for (int it = 0; it < 25; ++it) {
    try {
      c.run_round([](MachineCtx& mc) {
        if (mc.id() == 1 || mc.id() == 3) {
          throw std::runtime_error("boom from machine " +
                                   std::to_string(mc.id()));
        }
      });
      FAIL() << "expected the closure error to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom from machine 1");
    }
  }
}

TEST(Cluster, TwoOverBudgetMachinesReportTheLowerId) {
  // Satellite regression: simultaneous budget overruns on machines 1 and 3
  // must always cite machine 1.
  Cluster c(small_config(4, /*space=*/16, /*strict=*/true));
  for (int it = 0; it < 25; ++it) {
    try {
      c.run_round([](MachineCtx& mc) {
        if (mc.id() == 1 || mc.id() == 3) {
          mc.send(mc.id(), 0, std::vector<Word>(100, 1));
        }
      });
      FAIL() << "expected SpaceLimitError";
    } catch (const SpaceLimitError& e) {
      EXPECT_EQ(e.machine(), 1);
    }
  }
}

TEST(ClusterChaos, ScheduledCrashRecoversBitIdentically) {
  // A ring computation over a registered DistVector: each round, machine i
  // adds its inbox word into its shard and forwards its running sum.
  const auto run = [](FaultPlan fp) {
    MpcConfig cfg = small_config(4);
    cfg.faults = std::move(fp);
    Cluster c(cfg);
    std::vector<std::int64_t> init(32);
    std::iota(init.begin(), init.end(), 1);
    auto dv = DistVector<std::int64_t>::from_host(c, init);
    for (int r = 0; r < 4; ++r) {
      c.run_round([&](MachineCtx& mc) {
        const std::int64_t i = mc.id();
        std::int64_t got = 0;
        for (const Message& msg : mc.inbox()) got += msg.payload.at(0);
        auto& shard = dv.local(i);
        std::int64_t sum = 0;
        for (auto& x : shard) {
          x += got;
          sum += x;
        }
        mc.send((i + 1) % mc.machines(), 0, {sum});
      });
    }
    return std::make_pair(dv.to_host(), c.stats());
  };

  const auto [clean, clean_stats] = run(FaultPlan{});
  FaultPlan fp;
  fp.scheduled.push_back({/*round=*/2, /*machine=*/1, FaultKind::kCrash});
  const auto [chaos, chaos_stats] = run(fp);

  // Bit-identical output, identical paper-side accounting.
  EXPECT_EQ(chaos, clean);
  EXPECT_EQ(chaos_stats.rounds, clean_stats.rounds);
  EXPECT_EQ(chaos_stats.total_comm_words, clean_stats.total_comm_words);
  // Recovery strictly on the recovery ledger.
  EXPECT_EQ(clean_stats.recovery, RecoveryStats{});
  EXPECT_EQ(chaos_stats.recovery.crashes_recovered, 1);
  EXPECT_GE(chaos_stats.recovery.recovery_rounds, 1);
  EXPECT_GE(chaos_stats.recovery.checkpoints, 4);
  EXPECT_GT(chaos_stats.recovery.checkpoint_words, 0);
  EXPECT_GT(chaos_stats.recovery.recovery_comm_words, 0);
}

TEST(ClusterChaos, CrashWithoutFreshCheckpointIsUnrecoverable) {
  MpcConfig cfg = small_config(2);
  cfg.checkpoint_interval = 2;  // rounds 0, 2, ... are checkpointed
  cfg.faults.scheduled.push_back({/*round=*/1, /*machine=*/0,
                                  FaultKind::kCrash});
  Cluster c(cfg);
  EXPECT_NO_THROW(c.run_round([](MachineCtx&) {}));  // round 0
  try {
    c.run_round([](MachineCtx&) {});  // round 1: crash, no round-1 snapshot
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.machine(), 0);
    EXPECT_EQ(e.round(), 1);
    EXPECT_EQ(e.code(), ErrorCode::kFault);
  }
}

TEST(ClusterChaos, RetryBudgetExhaustionThrowsFaultError) {
  MpcConfig cfg = small_config(2);
  cfg.faults.crash_prob = 1.0;  // crash on every attempt
  cfg.faults.max_round_retries = 3;
  Cluster c(cfg);
  EXPECT_THROW(c.run_round([](MachineCtx&) {}), FaultError);
  // The exhausted retries are still accounted.
  EXPECT_EQ(c.stats().recovery.recovery_rounds, 3);
}

TEST(ClusterChaos, CrashWithNonRecoverableResidentIsUnrecoverable) {
  MpcConfig cfg = small_config(2);
  cfg.faults.scheduled.push_back({/*round=*/0, /*machine=*/1,
                                  FaultKind::kCrash});
  Cluster c(cfg);
  // Audit-only registration: words but no checkpoint/restore hooks.
  const std::int64_t id = c.register_resident(
      ResidentHooks{.add_words = [](std::span<std::int64_t> words) {
        for (std::int64_t& w : words) w += 1;
      }});
  EXPECT_THROW(c.run_round([](MachineCtx&) {}), FaultError);
  c.unregister_resident(id);
}

TEST(ClusterChaos, MessageFaultsAreMaskedByReliableTransport) {
  MpcConfig cfg = small_config(2);
  cfg.faults.drop_prob = 1.0;
  cfg.faults.duplicate_prob = 1.0;
  cfg.faults.corrupt_prob = 1.0;
  Cluster c(cfg);
  c.run_round([](MachineCtx& mc) {
    if (mc.id() == 0) mc.send(1, 9, {10, 20, 30});
  });
  c.run_round([](MachineCtx& mc) {
    if (mc.id() != 1) return;
    // Delivery is pristine: the transport masked every injected event.
    ASSERT_EQ(mc.inbox().size(), 1u);
    EXPECT_EQ(mc.inbox()[0].payload, (std::vector<Word>{10, 20, 30}));
  });
  EXPECT_EQ(c.stats().recovery.messages_dropped, 1);
  EXPECT_EQ(c.stats().recovery.messages_duplicated, 1);
  EXPECT_EQ(c.stats().recovery.messages_corrupted, 1);
  EXPECT_GT(c.stats().recovery.recovery_comm_words, 0);
  // The paper-side ledger records the message once, as if fault-free.
  EXPECT_EQ(c.stats().total_comm_words, 3 + 2);
}

TEST(ClusterChaos, StragglersAreCountedButHarmless) {
  MpcConfig cfg = small_config(3);
  cfg.faults.straggle_prob = 1.0;
  Cluster c(cfg);
  c.run_round([](MachineCtx&) {});
  c.run_round([](MachineCtx&) {});
  EXPECT_EQ(c.stats().recovery.straggler_delays, 2 * 3);
  EXPECT_EQ(c.stats().rounds, 2);
}

TEST(DistVectorTest, MoveKeepsAuditingConsistent) {
  Cluster c(small_config(2));
  // The round audit's peak resident words over one empty round.
  const auto audited = [&c] {
    c.reset_stats();
    c.run_round([](MachineCtx&) {});
    return c.stats().max_resident_words;
  };
  DistVector<std::int64_t> a(c, 100);
  const std::int64_t before = c.resident_words()[0];
  EXPECT_EQ(audited(), before);
  DistVector<std::int64_t> b = std::move(a);
  EXPECT_EQ(c.resident_words()[0], before);  // no double counting
  EXPECT_EQ(audited(), before);
  DistVector<std::int64_t> d(c, 10);
  EXPECT_EQ(audited(), before + 5);
  d = std::move(b);
  EXPECT_EQ(c.resident_words()[0], before);  // old shard of d released
  EXPECT_EQ(audited(), before);
  {
    // Uneven shards and multi-word items: 3 two-word items on 2 machines.
    struct Wide {
      std::int64_t x, y;
    };
    DistVector<Wide> w(c, 3);
    EXPECT_EQ(c.resident_words(),
              (std::vector<std::int64_t>{before + 2, before + 4}));
    EXPECT_EQ(audited(), before + 4);
  }
  EXPECT_EQ(audited(), before);  // destroyed between rounds
}

}  // namespace
}  // namespace monge::mpc
