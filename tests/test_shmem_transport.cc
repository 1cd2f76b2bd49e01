// ShmemTransport tests: one-sided writes land as real memcpys with inline
// completions, dead peers produce error completions, bad handles produce
// kInvalidRkey, the fixed-capacity region table rejects overflow and is torn
// down by MarkDead, float-add accumulators survive concurrent posters, striped
// seqlock guards detect torn reads under a racing writer, and the fabric.*
// traffic counters aggregate across the matrix. Threaded cases run clean under TSan
// (tools/check.sh MALT_SANITIZE=thread stage).

#include "src/shmem/shmem_transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

namespace malt {
namespace {

std::span<const std::byte> AsBytes(const void* p, size_t n) {
  return {static_cast<const std::byte*>(p), n};
}

int64_t RankCounter(ShmemTransport& t, int rank, const char* name) {
  return t.telemetry().rank(rank).metrics.CounterValue(name);
}

TEST(ShmemTransport, WriteLandsWithCompletionAndStats) {
  ShmemTransport t(2);
  const MrHandle mr = t.RegisterMemory(1, 64);

  const double value = 42.5;
  auto wr = t.PostWrite(0, t.now(), mr, 8, AsBytes(&value, sizeof(value)));
  ASSERT_TRUE(wr.ok());

  // The payload is visible in the peer's region immediately (inline apply).
  double landed = 0.0;
  std::memcpy(&landed, t.Data(mr).data() + 8, sizeof(landed));
  EXPECT_EQ(landed, value);

  // The sender's CQ holds exactly one success completion for that wr_id.
  Completion c[4];
  ASSERT_EQ(t.PollCq(0, c), 1);
  EXPECT_EQ(c[0].wr_id, *wr);
  EXPECT_EQ(c[0].dst, 1);
  EXPECT_EQ(c[0].status, WcStatus::kSuccess);
  EXPECT_EQ(t.PollCq(0, c), 0);
  EXPECT_FALSE(t.CqNonEmpty(0));

  EXPECT_EQ(RankCounter(t, 0, "fabric.bytes_sent"), static_cast<int64_t>(sizeof(value)));
  EXPECT_EQ(RankCounter(t, 1, "fabric.bytes_received"), static_cast<int64_t>(sizeof(value)));
  EXPECT_EQ(RankCounter(t, 0, "fabric.writes_posted"), 1);
}

TEST(ShmemTransport, DeadNodeWriteCompletesRemoteDead) {
  ShmemTransport t(2);
  const MrHandle mr = t.RegisterMemory(1, 32);
  t.MarkDead(1);
  EXPECT_FALSE(t.NodeAlive(1));
  EXPECT_FALSE(t.Reachable(0, 1));

  const uint32_t v = 7;
  auto wr = t.PostWrite(0, t.now(), mr, 0, AsBytes(&v, sizeof(v)));
  ASSERT_TRUE(wr.ok());
  Completion c[1];
  ASSERT_EQ(t.PollCq(0, c), 1);
  EXPECT_EQ(c[0].status, WcStatus::kRemoteDead);
}

TEST(ShmemTransport, OutOfBoundsWriteCompletesInvalidRkey) {
  ShmemTransport t(2);
  const MrHandle mr = t.RegisterMemory(1, 16);
  const uint64_t v = 1;
  auto wr = t.PostWrite(0, t.now(), mr, 12, AsBytes(&v, sizeof(v)));
  ASSERT_TRUE(wr.ok());
  Completion c[1];
  ASSERT_EQ(t.PollCq(0, c), 1);
  EXPECT_EQ(c[0].status, WcStatus::kInvalidRkey);
}

TEST(ShmemTransport, DeregisteredRegionRejectsWrites) {
  ShmemTransport t(2);
  const MrHandle mr = t.RegisterMemory(1, 16);
  EXPECT_TRUE(t.Registered(mr));
  t.DeregisterMemory(mr);
  EXPECT_FALSE(t.Registered(mr));
  const uint32_t v = 3;
  ASSERT_TRUE(t.PostWrite(0, t.now(), mr, 0, AsBytes(&v, sizeof(v))).ok());
  Completion c[1];
  ASSERT_EQ(t.PollCq(0, c), 1);
  EXPECT_EQ(c[0].status, WcStatus::kInvalidRkey);
}

// The region table holds kMaxRegionsPerNode regions per node; one more is a
// fatal check on that node, not a silent overwrite of another region.
TEST(ShmemTransportDeathTest, RegisterPastCapacityIsFatal) {
  ShmemTransport t(2);
  for (uint32_t i = 0; i < kMaxRegionsPerNode; ++i) {
    EXPECT_EQ(t.RegisterMemory(1, 8).rkey, i);
  }
  EXPECT_TRUE(t.Registered(MrHandle{1, kMaxRegionsPerNode - 1}));
  EXPECT_EQ(t.RegisterMemory(0, 8).rkey, 0u);  // the other node's table is separate
  EXPECT_DEATH((void)t.RegisterMemory(1, 8), "node 1 registers more than 64 regions");
}

// Handles that name no published region — an rkey never registered, one
// past the table's capacity, or far past it — complete kInvalidRkey for
// both write kinds, and a local Read through one stays a fatal check.
TEST(ShmemTransport, UnpublishedRkeyCompletesInvalidRkey) {
  ShmemTransport t(2);
  (void)t.RegisterMemory(1, 16);  // rkey 0; rkey 1 is never registered
  const uint32_t max = kMaxRegionsPerNode;
  const uint64_t v = 5;
  const float f = 1.0f;
  for (const uint32_t rkey : {1u, max, max + 1, ~0u}) {
    const MrHandle mr{1, rkey};
    EXPECT_FALSE(t.Registered(mr)) << "rkey " << rkey;
    ASSERT_TRUE(t.PostWrite(0, t.now(), mr, 0, AsBytes(&v, sizeof(v))).ok());
    ASSERT_TRUE(t.PostFloatAdd(0, t.now(), mr, 0, std::span<const float>(&f, 1)).ok());
    Completion c[2];
    ASSERT_EQ(t.PollCq(0, c), 2) << "rkey " << rkey;
    EXPECT_EQ(c[0].status, WcStatus::kInvalidRkey) << "rkey " << rkey;
    EXPECT_EQ(c[1].status, WcStatus::kInvalidRkey) << "rkey " << rkey;
  }
  EXPECT_TRUE(t.Registered(MrHandle{1, 0}));
  std::byte out[8];
  EXPECT_DEATH((void)t.Read(MrHandle{1, 1}, 0, out), "read through invalid handle");
  EXPECT_DEATH((void)t.Read(MrHandle{1, max}, 0, out), "read through invalid handle");
}

// MarkDead tears down every region of the dead node, however many there
// are, and none of a live node's.
TEST(ShmemTransport, MarkDeadDeregistersEveryRegionOfTheNode) {
  ShmemTransport t(2);
  std::vector<MrHandle> dead;
  for (int i = 0; i < 5; ++i) {
    dead.push_back(t.RegisterMemory(1, 16, i % 2 == 0 ? 0 : 8));
  }
  const MrHandle live = t.RegisterMemory(0, 16);
  t.MarkDead(1);
  for (const MrHandle& mr : dead) {
    EXPECT_FALSE(t.Registered(mr)) << "rkey " << mr.rkey;
  }
  EXPECT_TRUE(t.Registered(live));
  const uint64_t v = 9;
  ASSERT_TRUE(t.PostWrite(1, t.now(), live, 0, AsBytes(&v, sizeof(v))).ok());
  Completion c[1];
  ASSERT_EQ(t.PollCq(1, c), 1);
  EXPECT_EQ(c[0].status, WcStatus::kSuccess);
}

TEST(ShmemTransport, ConcurrentFloatAddsNeverLoseUpdates) {
  const int n = 4;
  const size_t dim = 32;
  const int posts_per_rank = 200;
  ShmemTransport t(n);
  // Accumulator layout: dim floats + one trailing contribution counter.
  const MrHandle mr = t.RegisterMemory(0, (dim + 1) * sizeof(float));

  std::vector<std::thread> threads;
  for (int rank = 0; rank < n; ++rank) {
    threads.emplace_back([&, rank] {
      std::vector<float> ones(dim, 1.0f);
      const float count = 1.0f;
      for (int i = 0; i < posts_per_rank; ++i) {
        ASSERT_TRUE(t.PostFloatAdd(rank, t.now(), mr, 0, ones).ok());
        ASSERT_TRUE(t.PostFloatAdd(rank, t.now(), mr, dim * sizeof(float),
                                   std::span<const float>(&count, 1))
                        .ok());
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  std::vector<float> out(dim, -1.0f);
  const int64_t contributions = t.DrainFloatRegion(mr, out);
  EXPECT_EQ(contributions, int64_t{n} * posts_per_rank);
  for (size_t i = 0; i < dim; ++i) {
    EXPECT_EQ(out[i], static_cast<float>(n * posts_per_rank)) << "element " << i;
  }
  // Exchange-to-zero drain: a second drain sees an empty accumulator.
  EXPECT_EQ(t.DrainFloatRegion(mr, out), 0);
  EXPECT_EQ(out[0], 0.0f);
}

// A reader racing a striped writer either gets a fully consistent snapshot
// or a torn-read failure — never a mixed payload. The race lasts until the
// writer has completed kWrites writes and the reader has made kReads
// attempts: bounding it by writer progress means a writer descheduled
// inside its seqlock window cannot use up the reader's attempts.
TEST(ShmemTransport, StripedGuardsDetectTornReads) {
  const size_t slot = 64;
  constexpr uint64_t kWrites = 20000;
  constexpr int kReads = 20000;
  ShmemTransport t(2);
  const MrHandle mr = t.RegisterMemory(1, slot, /*guard_stripe_bytes=*/slot);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writes_done{0};
  std::thread writer([&] {
    std::vector<std::byte> pattern(slot);
    for (uint64_t round = 1; !stop.load(std::memory_order_relaxed); ++round) {
      std::memset(pattern.data(), static_cast<int>(round & 0xff), slot);
      ASSERT_TRUE(t.PostWrite(0, t.now(), mr, 0, pattern).ok());
      writes_done.store(round, std::memory_order_relaxed);
    }
  });

  int consistent = 0;
  std::vector<std::byte> snap(slot);
  for (int reads = 0; reads < kReads || writes_done.load(std::memory_order_relaxed) < kWrites;
       ++reads) {
    if (!t.Read(mr, 0, snap)) {
      continue;  // torn: write in flight — the defined failure mode
    }
    ++consistent;
    for (size_t b = 1; b < slot; ++b) {
      ASSERT_EQ(snap[b], snap[0]) << "torn snapshot escaped the guard";
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(consistent, 0) << "reader never saw a stable snapshot";
}

// The fabric.* counters, summed over ranks, cover the whole matrix.
TEST(ShmemTransport, TrafficCountersAggregateAllPairs) {
  const int n = 3;
  ShmemTransport t(n);
  MrHandle mr[n];
  for (int node = 0; node < n; ++node) {
    mr[node] = t.RegisterMemory(node, 64);
  }
  const uint64_t payload = 0xabcdef;
  int64_t expect_bytes = 0;
  int64_t expect_msgs = 0;
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      if (src == dst) {
        continue;
      }
      ASSERT_TRUE(t.PostWrite(src, t.now(), mr[dst], 0, AsBytes(&payload, sizeof(payload)))
                      .ok());
      expect_bytes += sizeof(payload);
      ++expect_msgs;
    }
  }
  const MetricRegistry total = t.telemetry().Merged();
  EXPECT_EQ(total.CounterValue("fabric.bytes_sent"), expect_bytes);
  EXPECT_EQ(total.CounterValue("fabric.writes_posted"), expect_msgs);
  EXPECT_EQ(RankCounter(t, 0, "fabric.bytes_sent"), int64_t{2} * sizeof(payload));
  EXPECT_EQ(RankCounter(t, 2, "fabric.bytes_received"), int64_t{2} * sizeof(payload));
}

// The SPSC ring's index arithmetic never resets: head/tail increase
// monotonically and the mask picks the slot, so correctness at the
// full/empty boundaries must hold at every wrap offset. The model checker's
// ring_1p1c harness explores these transitions under every interleaving;
// this pins the same boundaries down single-threaded.
TEST(ShmemTransport, CompletionRingFullEmptyAcrossWraparound) {
  CompletionRing ring(2);
  Completion out;
  EXPECT_TRUE(ring.Empty());
  EXPECT_FALSE(ring.TryPop(&out));  // empty boundary
  uint64_t next_push = 1;
  uint64_t next_pop = 1;
  for (int round = 0; round < 8; ++round) {  // 8 rounds x 2 slots: many wraps
    Completion c;
    c.status = WcStatus::kSuccess;
    c.wr_id = next_push;
    c.dst = static_cast<int>(next_push);
    ASSERT_TRUE(ring.TryPush(c));
    ++next_push;
    c.wr_id = next_push;
    c.dst = static_cast<int>(next_push);
    ASSERT_TRUE(ring.TryPush(c));
    ++next_push;
    c.wr_id = 999;
    EXPECT_FALSE(ring.TryPush(c));  // full boundary
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(ring.TryPop(&out));
      EXPECT_EQ(out.wr_id, next_pop);
      EXPECT_EQ(out.dst, static_cast<int>(next_pop));
      ++next_pop;
    }
    EXPECT_TRUE(ring.Empty());
    EXPECT_FALSE(ring.TryPop(&out));
  }
}

TEST(ShmemTransport, CompletionRingDropsWhenFull) {
  ShmemOptions opts;
  opts.cq_capacity = 4;
  ShmemTransport t(2, opts);
  const MrHandle mr = t.RegisterMemory(1, 16);
  const uint32_t v = 1;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.PostWrite(0, t.now(), mr, 0, AsBytes(&v, sizeof(v))).ok());
  }
  Completion c[16];
  EXPECT_EQ(t.PollCq(0, c), 4);  // capacity kept; the rest counted as dropped
}

}  // namespace
}  // namespace malt
