// Property tests: the Seg-tree under random workloads behaves exactly like a
// naive segment store, and its structural invariants survive arbitrary
// insert/expire interleavings (with and without graft-on-delete and
// DistanceBound pruning).

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/shard.h"
#include "index/seg_tree.h"
#include "stream/segment.h"
#include "util/rng.h"

namespace fcp {
namespace {

constexpr DurationMs kTau = 1000;

// Naive mirror of the Seg-tree's query surface.
class NaiveStore {
 public:
  void Insert(const Segment& segment) {
    segments_[segment.id()] = segment;
  }
  void Remove(SegmentId id) { segments_.erase(id); }

  size_t RemoveExpired(Timestamp now) {
    size_t removed = 0;
    for (auto it = segments_.begin(); it != segments_.end();) {
      if (now - it->second.start_time() > kTau) {
        it = segments_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    return removed;
  }

  std::vector<SegmentId> RelevantSegments(ObjectId object,
                                          Timestamp now) const {
    std::vector<SegmentId> out;
    for (const auto& [id, segment] : segments_) {
      if (now - segment.start_time() > kTau) continue;
      const auto objects = segment.DistinctObjects();
      if (std::binary_search(objects.begin(), objects.end(), object)) {
        out.push_back(id);
      }
    }
    return out;  // map iteration is id-ordered
  }

  // Rows with >= 1 common object; a sharded search keeps only rows with
  // >= 1 common object the shard owns.
  std::map<SegmentId, std::vector<ObjectId>> Slcp(
      const Segment& probe, Timestamp now,
      const ShardSpec& shard = {}) const {
    std::map<SegmentId, std::vector<ObjectId>> rows;
    const auto probe_objects = probe.DistinctObjects();
    for (const auto& [id, segment] : segments_) {
      if (now - segment.start_time() > kTau) continue;
      std::vector<ObjectId> common;
      const auto objects = segment.DistinctObjects();
      std::set_intersection(objects.begin(), objects.end(),
                            probe_objects.begin(), probe_objects.end(),
                            std::back_inserter(common));
      if (std::any_of(common.begin(), common.end(),
                      [&](ObjectId o) { return shard.Owns(o); })) {
        rows[id] = common;
      }
    }
    return rows;
  }

  uint64_t total_objects() const {
    uint64_t total = 0;
    for (const auto& [id, segment] : segments_) total += segment.length();
    return total;
  }

  size_t size() const { return segments_.size(); }

 private:
  std::map<SegmentId, Segment> segments_;
};

// SlcpInto's rows keyed by segment (row order is unspecified), failing on
// a segment listed twice.
std::map<SegmentId, std::vector<ObjectId>> TreeSlcp(
    const SegTree& tree, const Segment& probe, Timestamp now,
    std::vector<SegmentId>* expired, const ShardSpec& shard) {
  LcpTable table;
  tree.SlcpInto(probe, now, kTau, expired, &table, shard);
  std::map<SegmentId, std::vector<ObjectId>> rows;
  for (const LcpTable::Row& row : table.rows) {
    EXPECT_EQ(rows.count(row.segment), 0u) << "duplicate row " << row.segment;
    rows[row.segment].assign(table.CommonBegin(row), table.CommonEnd(row));
  }
  return rows;
}

Segment RandomSegment(SegmentId id, Rng& rng, Timestamp now,
                      uint64_t universe = 15, size_t max_length = 8) {
  const StreamId stream = static_cast<StreamId>(rng.Below(6));
  const size_t length = 1 + rng.Below(max_length);
  std::vector<SegmentEntry> entries;
  Timestamp t = now;
  for (size_t i = 0; i < length; ++i) {
    entries.push_back(
        SegmentEntry{static_cast<ObjectId>(rng.Below(universe)), t});
    t += static_cast<Timestamp>(rng.Below(5));
  }
  return Segment(id, stream, std::move(entries));
}

struct PropertyParams {
  uint64_t seed;
  bool graft;
  bool distance_bound;
  // Workload shape: object universe, longest segment, and how many steps
  // pass between invariant checks.
  uint64_t universe = 15;
  size_t max_length = 8;
  int check_every = 20;
};

class SegTreePropertyTest
    : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(SegTreePropertyTest, MatchesNaiveStoreUnderRandomWorkload) {
  const PropertyParams param = GetParam();
  Rng rng(param.seed);
  SegTreeOptions options;
  options.graft_on_delete = param.graft;
  options.use_distance_bound = param.distance_bound;
  SegTree tree(options);
  NaiveStore naive;

  SegmentId next_id = 0;
  Timestamp now = 0;
  std::vector<SegmentId> live;

  for (int step = 0; step < 400; ++step) {
    now += static_cast<Timestamp>(rng.Below(40));
    const uint64_t dice = rng.Below(100);
    if (dice < 55 || live.empty()) {
      // Insert.
      const Segment segment =
          RandomSegment(next_id++, rng, now, param.universe, param.max_length);
      tree.Insert(segment);
      naive.Insert(segment);
      live.push_back(segment.id());
    } else if (dice < 70) {
      // Remove a random live segment.
      const size_t pick = rng.Below(live.size());
      const SegmentId id = live[pick];
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      tree.Remove(id);
      naive.Remove(id);
    } else if (dice < 80) {
      // Expiry sweep.
      EXPECT_EQ(tree.RemoveExpired(now, kTau), naive.RemoveExpired(now));
      live.clear();  // lazily rebuilt below
      for (ObjectId o = 0; o < param.universe; ++o) {
        for (SegmentId id : naive.RelevantSegments(o, now)) {
          live.push_back(id);
        }
      }
      std::sort(live.begin(), live.end());
      live.erase(std::unique(live.begin(), live.end()), live.end());
    } else if (dice < 92) {
      // Point query.
      const ObjectId object = static_cast<ObjectId>(rng.Below(param.universe));
      EXPECT_EQ(tree.RelevantSegments(object, now, kTau),
                naive.RelevantSegments(object, now))
          << "object=" << object << " step=" << step;
    } else {
      // SLCP probe.
      const Segment probe =
          RandomSegment(next_id++, rng, now, param.universe, param.max_length);
      std::vector<SegmentId> expired;
      const auto rows = tree.Slcp(probe, now, kTau, &expired);
      std::map<SegmentId, std::vector<ObjectId>> got;
      for (const LcpRow& row : rows) got[row.segment] = row.common;
      EXPECT_EQ(got, naive.Slcp(probe, now)) << "step=" << step;
      // The ownership-filtered two-phase search, shard by shard, on the
      // same tree (its visit marks interleave with the serial probe's).
      for (uint32_t index = 0; index < 3; ++index) {
        const ShardSpec shard{index, 3};
        EXPECT_EQ(TreeSlcp(tree, probe, now, nullptr, shard),
                  naive.Slcp(probe, now, shard))
            << "step=" << step << " shard=" << index;
      }
      // Lazily delete what the search flagged, mirroring CooMine.
      for (SegmentId id : expired) {
        tree.Remove(id);
        naive.Remove(id);
      }
    }
    if (step % param.check_every == 0) tree.CheckInvariants();
    EXPECT_EQ(tree.num_segments(), naive.size());
    EXPECT_EQ(tree.total_objects(), naive.total_objects());
  }
  tree.CheckInvariants();
  // Compression never goes negative: node count <= stored objects.
  EXPECT_LE(tree.num_nodes(), tree.total_objects());
}

std::vector<PropertyParams> MakeParams() {
  std::vector<PropertyParams> params;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    params.push_back({seed, true, true});
    params.push_back({seed, false, true});
    params.push_back({seed, true, false});
  }
  return params;
}

std::string PropertyName(
    const ::testing::TestParamInfo<PropertyParams>& info) {
  return "seed" + std::to_string(info.param.seed) +
         (info.param.graft ? "_graft" : "_root") +
         (info.param.distance_bound ? "_bound" : "_nobound");
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, SegTreePropertyTest,
                         ::testing::ValuesIn(MakeParams()), PropertyName);

// Long segments over a universe not much larger than them: most paths are
// long unary runs, and a deleted prefix usually finds a branch to graft
// onto, so the run skips are refreshed through every kind of mutation.
// Invariants, skips included, are checked after every step.
std::vector<PropertyParams> MakeLongRunParams() {
  std::vector<PropertyParams> params;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (const bool graft : {true, false}) {
      for (const bool distance_bound : {true, false}) {
        params.push_back({seed, graft, distance_bound, 40, 24, 1});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(LongRuns, SegTreePropertyTest,
                         ::testing::ValuesIn(MakeLongRunParams()),
                         PropertyName);

// Wide segments over a larger universe: probes carry well over 64 distinct
// objects, so the serial search's row masks span several words.
TEST(SegTreeSlcpMarkTest, MultiWordMasksMatchNaiveStore) {
  Rng rng(2718);
  SegTree tree;
  NaiveStore naive;
  SegmentId next_id = 0;
  Timestamp now = 0;
  for (int step = 0; step < 300; ++step) {
    now += static_cast<Timestamp>(rng.Below(20));
    if (step % 3 != 2) {
      const Segment segment = RandomSegment(next_id++, rng, now, 260, 160);
      tree.Insert(segment);
      naive.Insert(segment);
      continue;
    }
    const Segment probe = RandomSegment(next_id++, rng, now, 260, 400);
    std::vector<SegmentId> expired;
    EXPECT_EQ(TreeSlcp(tree, probe, now, &expired, {}), naive.Slcp(probe, now))
        << "step=" << step;
    const ShardSpec shard{1, 4};
    EXPECT_EQ(TreeSlcp(tree, probe, now, nullptr, shard),
              naive.Slcp(probe, now, shard))
        << "step=" << step;
    for (SegmentId id : expired) {
      tree.Remove(id);
      naive.Remove(id);
    }
  }
  tree.CheckInvariants();
}

// Inserts `segments` into both stores.
void InsertAll(const std::vector<Segment>& segments, SegTree* tree,
               NaiveStore* naive) {
  for (const Segment& g : segments) {
    tree->Insert(g);
    naive->Insert(g);
  }
}

Segment SegmentOf(SegmentId id, StreamId stream,
                  const std::vector<ObjectId>& objects, Timestamp time) {
  std::vector<SegmentEntry> entries;
  for (ObjectId o : objects) entries.push_back(SegmentEntry{o, time});
  return Segment(id, stream, std::move(entries));
}

TEST(SegTreeSlcpMarkTest, DuplicateObjectsInSegmentAndProbe) {
  // An object stored twice reaches its tail from two chain nodes, and a
  // probe object listed twice is still one probe object.
  SegTree tree;
  NaiveStore naive;
  InsertAll({SegmentOf(1, 1, {2, 2, 3, 2, 4, 3}, 0),
             SegmentOf(2, 2, {3, 5, 3, 2}, 10), SegmentOf(3, 3, {5, 5, 5}, 20)},
            &tree, &naive);
  const Segment probe = SegmentOf(9, 9, {3, 2, 3, 2, 5, 3}, 30);
  const std::map<SegmentId, std::vector<ObjectId>> want = {
      {1, {2, 3}}, {2, {2, 3, 5}}, {3, {5}}};
  EXPECT_EQ(naive.Slcp(probe, 30), want);
  EXPECT_EQ(TreeSlcp(tree, probe, 30, nullptr, {}), want);
  tree.CheckInvariants();
}

TEST(SegTreeSlcpMarkTest, ExpiredTailsMixedWithLiveTails) {
  // Identical and prefix-sharing segments put expired and live tails on the
  // same nodes; only the live ones become rows, the others are reported.
  std::vector<Segment> stored;
  SegmentId id = 0;
  for (int round = 0; round < 6; ++round) {
    const Timestamp t = static_cast<Timestamp>(round) * (kTau / 3);
    stored.push_back(SegmentOf(id++, 1, {2, 3, 4}, t));
    stored.push_back(SegmentOf(id++, 2, {2, 3}, t));
    stored.push_back(SegmentOf(id++, 3, {1, 2, 3, 4, 5}, t));
  }
  SegTree tree;
  NaiveStore naive;
  InsertAll(stored, &tree, &naive);
  const Timestamp now = 2 * kTau;
  const Segment probe = SegmentOf(100, 9, {1, 3, 4}, now);
  std::vector<SegmentId> expired;
  const auto got = TreeSlcp(tree, probe, now, &expired, {});
  EXPECT_EQ(got, naive.Slcp(probe, now));
  std::vector<SegmentId> want_expired;
  for (const Segment& g : stored) {
    if (now - g.start_time() > kTau) want_expired.push_back(g.id());
  }
  ASSERT_FALSE(want_expired.empty());
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(expired, want_expired);  // sorted, each id once
}

TEST(SegTreeSlcpMarkTest, BackToBackProbesDoNotLeakRows) {
  // Marks from one probe must not make a later probe skip or misfile a row:
  // run different probes (serial and sharded) on one tree in sequence,
  // before and after a mutation removes a marked tail and adds a new one.
  SegTree tree;
  NaiveStore naive;
  InsertAll({SegmentOf(1, 1, {1, 2, 3}, 0), SegmentOf(2, 2, {2, 3, 5, 8}, 0),
             SegmentOf(3, 1, {6, 9, 10}, 0), SegmentOf(4, 3, {10, 2, 12, 11}, 0),
             SegmentOf(5, 2, {4, 2, 5}, 0), SegmentOf(6, 3, {7, 12, 11}, 0)},
            &tree, &naive);
  const std::vector<Segment> probes = {
      SegmentOf(10, 9, {2, 3}, 5),  SegmentOf(11, 9, {2, 3}, 5),
      SegmentOf(12, 9, {11, 12, 10}, 5), SegmentOf(13, 9, {1, 5, 6}, 5),
      SegmentOf(14, 9, {17}, 5),    SegmentOf(15, 9, {2, 10, 11}, 5),
  };
  const ShardSpec shard{1, 2};
  for (int pass = 0; pass < 2; ++pass) {
    for (const Segment& probe : probes) {
      EXPECT_EQ(TreeSlcp(tree, probe, 5, nullptr, {}), naive.Slcp(probe, 5))
          << "probe " << probe.id();
      EXPECT_EQ(TreeSlcp(tree, probe, 5, nullptr, shard),
                naive.Slcp(probe, 5, shard))
          << "sharded probe " << probe.id();
    }
    if (pass == 1) break;
    tree.Remove(2);
    naive.Remove(2);
    InsertAll({SegmentOf(7, 1, {2, 3, 5, 8}, 1)}, &tree, &naive);
  }
}

TEST(SegTreeSlcpMarkTest, GenerationWrapAround) {
  // A probe stamps the tails with mark 1. The counter then jumps to its
  // last value: the next probe wraps, and without clearing, the tails'
  // stale mark 1 would equal the restarted generation.
  SegTree tree;
  NaiveStore naive;
  InsertAll({SegmentOf(1, 1, {2, 3}, 0), SegmentOf(2, 2, {2, 4}, 0),
             SegmentOf(3, 3, {3, 4}, 0)},
            &tree, &naive);
  const Segment probe = SegmentOf(10, 9, {2, 3, 4}, 5);
  const auto want = naive.Slcp(probe, 5);
  ASSERT_EQ(want.size(), 3u);
  EXPECT_EQ(TreeSlcp(tree, probe, 5, nullptr, {}), want);
  const ShardSpec shard{0, 2};
  for (uint32_t last : {0xffffffffu, 0xfffffffeu}) {
    tree.SetProbeGenerationForTest(last);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(TreeSlcp(tree, probe, 5, nullptr, {}), want) << i;
      EXPECT_EQ(TreeSlcp(tree, probe, 5, nullptr, shard),
                naive.Slcp(probe, 5, shard))
          << i;
    }
  }
}

TEST(SegTreeCompressionTest, HighOverlapCompressesWell) {
  // Consecutive segments sharing long prefixes (the TR regime).
  SegTree tree;
  SegmentId id = 0;
  for (int i = 0; i < 100; ++i) {
    std::vector<SegmentEntry> entries;
    for (int j = 0; j < 10; ++j) {
      entries.push_back(SegmentEntry{static_cast<ObjectId>(i + j),
                                     static_cast<Timestamp>(i * 10 + j)});
    }
    tree.Insert(Segment(id++, 0, std::move(entries)));
  }
  // Each new segment shares 9 of 10 objects with its predecessor... but as a
  // *prefix* only the aligned part is shared; still, compression must be
  // substantial.
  EXPECT_GT(tree.CompressionRatio(), 0.5);
  tree.CheckInvariants();
}

// Sustained churn through the arena-backed pool: 10k random insert/remove
// cycles with every structural invariant re-validated after each mutation.
// This is the recycling torture test — a node handed back to the pool with a
// stale field, or a child/tail chunk released to the wrong size class, shows
// up here as a corrupted tree long before it would crash.
TEST(SegTreeChurnTest, TenThousandInsertRemoveCyclesKeepInvariants) {
  Rng rng(314159);
  SegTree tree;  // default options: arena pool + graft-on-delete
  SegmentId next_id = 0;
  Timestamp now = 0;
  std::vector<SegmentId> live;

  for (int step = 0; step < 10000; ++step) {
    now += static_cast<Timestamp>(rng.Below(8));
    const bool insert = live.size() < 4 ||
                        (live.size() < 24 && rng.Chance(0.55));
    if (insert) {
      const Segment segment = RandomSegment(next_id++, rng, now);
      tree.Insert(segment);
      live.push_back(segment.id());
    } else if (rng.Chance(0.9)) {
      const size_t pick = rng.Below(live.size());
      tree.Remove(live[pick]);
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    } else {
      tree.RemoveExpired(now, kTau);
      std::erase_if(live, [&](SegmentId id) {
        return tree.registry().Find(id) == nullptr;
      });
    }
    tree.CheckInvariants();
    ASSERT_EQ(tree.num_segments(), live.size()) << "step=" << step;
  }
  // The pool must actually have recycled nodes (otherwise this test ran
  // against a plain allocator and proved nothing about the arena).
  EXPECT_GT(tree.stats().nodes_recycled, 0u);
  EXPECT_GT(tree.stats().nodes_deleted, 1000u);
}

TEST(SegTreeCompressionTest, DisjointSegmentsDoNotCompress) {
  // The Twitter regime: segments share nothing.
  SegTree tree;
  SegmentId id = 0;
  ObjectId next_object = 0;
  for (int i = 0; i < 50; ++i) {
    std::vector<SegmentEntry> entries;
    for (int j = 0; j < 5; ++j) {
      entries.push_back(SegmentEntry{next_object++, static_cast<Timestamp>(i)});
    }
    tree.Insert(Segment(id++, static_cast<StreamId>(i), std::move(entries)));
  }
  EXPECT_EQ(tree.CompressionRatio(), 0.0);
  tree.CheckInvariants();
}

}  // namespace
}  // namespace fcp
