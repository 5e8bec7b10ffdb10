#include "core/parallel_engine.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/placement.h"
#include "core/mining_engine.h"
#include "datagen/traffic_gen.h"
#include "datagen/twitter_gen.h"
#include "test_util.h"

namespace fcp {
namespace {

MiningParams Params() {
  MiningParams params;
  params.xi = Seconds(60);
  params.tau = Minutes(30);
  params.theta = 3;
  params.min_pattern_size = 2;
  params.max_pattern_size = 4;
  return params;
}

TrafficTrace Trace(uint64_t seed = 31) {
  TrafficConfig config;
  config.num_cameras = 20;
  config.num_vehicles = 1000;
  config.total_events = 8000;
  config.num_convoys = 4;
  config.seed = seed;
  return GenerateTraffic(config);
}

using testing::IsGenuineFcp;

TEST(ParallelEngineTest, RecoversPlantedConvoys) {
  const TrafficTrace trace = Trace();
  ParallelEngine engine(MinerKind::kCooMine, Params());
  for (const ObjectEvent& event : trace.events) engine.Push(event);
  engine.Finish();

  const std::set<Pattern> found = testing::PatternsOf(engine.results());
  for (const ConvoyPlan& convoy : trace.convoys) {
    for (size_t i = 0; i < convoy.vehicles.size(); ++i) {
      for (size_t j = i + 1; j < convoy.vehicles.size(); ++j) {
        Pattern pair = {convoy.vehicles[i], convoy.vehicles[j]};
        std::sort(pair.begin(), pair.end());
        EXPECT_TRUE(found.contains(pair))
            << "convoy pair " << testing::ToString(pair) << " missing";
      }
    }
  }
  EXPECT_EQ(engine.events_pushed(), trace.events.size());
  EXPECT_GT(engine.segments_completed(), 0u);
}

TEST(ParallelEngineTest, EveryEmittedPatternIsSound) {
  const MiningParams params = Params();
  const TrafficTrace trace = Trace(32);
  ParallelEngine engine(MinerKind::kCooMine, params);
  for (const ObjectEvent& event : trace.events) engine.Push(event);
  engine.Finish();

  const std::set<Pattern> found = testing::PatternsOf(engine.results());
  ASSERT_FALSE(found.empty());
  for (const Pattern& pattern : found) {
    EXPECT_TRUE(IsGenuineFcp(trace.events, pattern, params))
        << testing::ToString(pattern) << " is not a genuine FCP";
  }
}

TEST(ParallelEngineTest, SingleWorkerStillWorks) {
  // DiMine through the default pipeline: one shard thread behind the
  // caller's segmenting thread.
  ParallelEngine engine(MinerKind::kDiMine, Params());
  const TrafficTrace trace = Trace(34);
  for (const ObjectEvent& event : trace.events) engine.Push(event);
  engine.Finish();
  EXPECT_GT(engine.results().size(), 0u);
}

TEST(ParallelEngineTest, PushBatchMatchesPerEventPush) {
  // Batch and per-event ingestion segment through the same mux, so they
  // must produce identical results.
  const TrafficTrace trace = Trace(35);

  ParallelEngine per_event(MinerKind::kCooMine, Params());
  for (const ObjectEvent& event : trace.events) per_event.Push(event);
  per_event.Finish();

  ParallelEngine batched(MinerKind::kCooMine, Params());
  constexpr size_t kBatch = 97;
  for (size_t i = 0; i < trace.events.size(); i += kBatch) {
    const size_t n = std::min(kBatch, trace.events.size() - i);
    batched.PushBatch(std::span(trace.events.data() + i, n));
  }
  batched.Finish();

  EXPECT_EQ(batched.events_pushed(), per_event.events_pushed());
  EXPECT_EQ(batched.segments_completed(), per_event.segments_completed());
  EXPECT_EQ(testing::FullSignatures(batched.results()),
            testing::FullSignatures(per_event.results()));
}

std::vector<testing::FcpSignature> SerialSignatures(
    const MiningParams& params, const std::vector<ObjectEvent>& events) {
  MiningEngine serial(MinerKind::kCooMine, params);
  std::vector<Fcp> all;
  for (const ObjectEvent& event : events) {
    for (Fcp& f : serial.PushEvent(event)) all.push_back(std::move(f));
  }
  for (Fcp& f : serial.Flush()) all.push_back(std::move(f));
  return testing::FullSignatures(all);
}

// The fcpmine --placement=freq seeding: greedy placement over the trace's
// object frequencies.
std::shared_ptr<const PlacementMap> FreqPlacement(
    const std::vector<ObjectEvent>& events, uint32_t shards) {
  std::map<ObjectId, uint64_t> counts;
  for (const ObjectEvent& event : events) ++counts[event.object];
  const std::vector<std::pair<ObjectId, uint64_t>> weights(counts.begin(),
                                                           counts.end());
  return BuildGreedyPlacement(weights, shards);
}

// Every sharded configuration — shard count, initial placement, live
// rebalancing, stealing, per-event or batched ingestion — must accept
// exactly the FCP records of the serial engine.
void ExpectSerialExactEverywhere(const MiningParams& params,
                                 const std::vector<ObjectEvent>& events) {
  const std::vector<testing::FcpSignature> serial =
      SerialSignatures(params, events);
  ASSERT_FALSE(serial.empty()) << "workload mined nothing — test is vacuous";
  for (uint32_t shards : {1u, 2u, 4u}) {
    for (bool freq : {false, true}) {
      for (bool rebalance : {false, true}) {
        for (bool steal : {false, true}) {
          for (bool batched : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "S=" << shards << (freq ? " freq" : " hash")
                         << (rebalance ? " rebalance" : "")
                         << (steal ? " steal" : "")
                         << (batched ? " PushBatch(97)" : " Push"));
            ParallelEngineOptions options;
            options.num_miner_shards = shards;
            if (freq) options.placement = FreqPlacement(events, shards);
            // Eager settings so migrations and steals really happen on a
            // trace this small.
            options.rebalance = rebalance;
            options.rebalancer.interval_segments = 64;
            options.rebalancer.imbalance_threshold = 1.0;
            options.rebalancer.min_move_weight = 2;
            options.steal = steal;
            options.steal_min_depth = 1;
            ParallelEngine engine(MinerKind::kCooMine, params, options);
            if (batched) {
              constexpr size_t kBatch = 97;
              for (size_t i = 0; i < events.size(); i += kBatch) {
                const size_t n = std::min(kBatch, events.size() - i);
                engine.PushBatch(std::span(events.data() + i, n));
              }
            } else {
              for (const ObjectEvent& event : events) engine.Push(event);
            }
            engine.Finish();
            EXPECT_EQ(testing::FullSignatures(engine.results()), serial);
          }
        }
      }
    }
  }
}

TEST(ParallelEngineTest, MatchesSerialEngineExactlyOnTraffic) {
  ExpectSerialExactEverywhere(Params(), Trace(33).events);
}

TEST(ParallelEngineTest, MatchesSerialEngineExactlyOnTwitter) {
  TwitterConfig config;
  config.num_users = 300;
  config.vocab_size = 2000;
  config.total_tweets = 1500;
  config.num_events = 3;
  config.event_participants_min = 30;
  config.event_participants_max = 60;
  config.seed = 41;
  ExpectSerialExactEverywhere(Params(), GenerateTwitter(config).events);
}

TEST(ParallelEngineTest, WatchdogStagesAreIngestAndShards) {
  // As in MiningEngine, the caller's thread is the "ingest" stage (busy only
  // inside Push/PushBatch/Finish); each miner thread is a "shard-s" stage.
  obs::WatchdogOptions watchdog_options;
  watchdog_options.poll_interval_ms = 0;  // evaluated by hand below
  obs::Watchdog watchdog(watchdog_options);
  ParallelEngineOptions options;
  options.num_miner_shards = 2;
  options.watchdog = &watchdog;
  {
    ParallelEngine engine(MinerKind::kCooMine, Params(), options);
    for (const ObjectEvent& event : Trace(39).events) engine.Push(event);
    engine.Finish();
    watchdog.EvaluateOnce(0);  // the stage probes read the live engine
  }
  const std::vector<obs::StageStatus> stages = watchdog.Stages();
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_EQ(stages[0].name, "ingest");
  EXPECT_GT(stages[0].progress, 0u);
  EXPECT_TRUE(stages[0].idle);
  EXPECT_EQ(stages[1].name, "shard-0");
  EXPECT_EQ(stages[2].name, "shard-1");
}

TEST(ParallelEngineTest, FinishIsIdempotent) {
  ParallelEngine engine(MinerKind::kCooMine, Params());
  engine.Push({0, 1, 100});
  engine.Finish();
  engine.Finish();
  SUCCEED();
}

TEST(ParallelEngineTest, EmptyRun) {
  ParallelEngine engine(MinerKind::kCooMine, Params());
  engine.Finish();
  EXPECT_TRUE(engine.results().empty());
  EXPECT_EQ(engine.segments_completed(), 0u);
}

using testing::FullSignatures;

TEST(ParallelEngineTest, ShardedEngineMatchesSerialByteForByte) {
  // Every shard count must reproduce the serial engine's discoveries
  // exactly (triggers, streams, windows).
  const MiningParams params = Params();
  const TrafficTrace trace = Trace(36);

  MiningEngine serial(MinerKind::kCooMine, params);
  std::vector<Fcp> serial_all;
  for (const ObjectEvent& event : trace.events) {
    for (Fcp& f : serial.PushEvent(event)) serial_all.push_back(std::move(f));
  }
  for (Fcp& f : serial.Flush()) serial_all.push_back(std::move(f));
  ASSERT_FALSE(serial_all.empty());

  for (uint32_t shards : {2u, 4u}) {
    ParallelEngineOptions options;
    options.num_miner_shards = shards;
    ParallelEngine engine(MinerKind::kCooMine, params, options);
    for (const ObjectEvent& event : trace.events) engine.Push(event);
    engine.Finish();
    EXPECT_EQ(FullSignatures(engine.results()), FullSignatures(serial_all))
        << "shard count " << shards;
  }
}

TEST(ParallelEngineTest, ShardedEngineIsSoundAndRecoversConvoys) {
  const MiningParams params = Params();
  const TrafficTrace trace = Trace(37);
  ParallelEngineOptions options;
  options.num_miner_shards = 3;
  ParallelEngine engine(MinerKind::kCooMine, params, options);
  for (const ObjectEvent& event : trace.events) engine.Push(event);
  engine.Finish();

  const std::set<Pattern> found = testing::PatternsOf(engine.results());
  ASSERT_FALSE(found.empty());
  for (const Pattern& pattern : found) {
    EXPECT_TRUE(IsGenuineFcp(trace.events, pattern, params))
        << testing::ToString(pattern) << " is not a genuine FCP";
  }
  for (const ConvoyPlan& convoy : trace.convoys) {
    for (size_t i = 0; i < convoy.vehicles.size(); ++i) {
      for (size_t j = i + 1; j < convoy.vehicles.size(); ++j) {
        Pattern pair = {convoy.vehicles[i], convoy.vehicles[j]};
        std::sort(pair.begin(), pair.end());
        EXPECT_TRUE(found.contains(pair))
            << "convoy pair " << testing::ToString(pair) << " missing";
      }
    }
  }
  EXPECT_EQ(engine.router_stats().segments_routed,
            engine.segments_completed());
  EXPECT_GE(engine.router_stats().deliveries,
            engine.router_stats().segments_routed);
}

TEST(ParallelEngineTest, SmallShardQueuesExerciseBackpressure) {
  ParallelEngineOptions options;
  options.num_miner_shards = 4;
  options.shard_queue_capacity = 2;
  ParallelEngine engine(MinerKind::kCooMine, Params(), options);
  const TrafficTrace trace = Trace(38);
  for (const ObjectEvent& event : trace.events) engine.Push(event);
  engine.Finish();
  EXPECT_EQ(engine.events_pushed(), trace.events.size());
  EXPECT_GT(engine.segments_completed(), 0u);
}

TEST(ParallelEngineTest, SmallQueuesExerciseBackpressure) {
  // A one-slot queue in front of the single miner: Push blocks on nearly
  // every routed segment.
  ParallelEngineOptions options;
  options.shard_queue_capacity = 1;
  ParallelEngine engine(MinerKind::kCooMine, Params(), options);
  const TrafficTrace trace = Trace(35);
  for (const ObjectEvent& event : trace.events) engine.Push(event);
  engine.Finish();
  EXPECT_EQ(engine.events_pushed(), trace.events.size());
  EXPECT_GT(engine.segments_completed(), 0u);
}

}  // namespace
}  // namespace fcp
