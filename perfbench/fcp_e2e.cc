// Steady-state end-to-end benchmark of the mining pipeline.
//
// Drives the real engines through their public calls: MiningEngine::PushEvent
// (serial workloads) and ParallelEngine::Push with W=1, S=2 (sharded
// workload). Each run generates its trace once from the seed, pushes an
// untimed warm-up prefix covering tau of event time (the paper's Ds warm-up,
// see bench/bench_util.h), then times a window of closed-loop pushes: one
// producer thread issues the next call as soon as the previous one returns.
//
//   fcp_e2e --workload=twitter-serial --seed=1 --seconds=10 --trace=0
//   fcp_e2e --mode=reference --trace_name=twitter --slot=3 --seconds=10
//
// Human-readable progress and the per-layer ledger go to stderr; the last
// line of stdout is one JSON object that perfbench/run.py checks against
// perfbench/reference.json and turns into the benchmark's result line.

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/params.h"
#include "common/placement.h"
#include "common/types.h"
#include "core/fcp.h"
#include "core/miner.h"
#include "core/mining_engine.h"
#include "core/parallel_engine.h"
#include "core/result_collector.h"
#include "datagen/traffic_gen.h"
#include "datagen/twitter_gen.h"
#include "stream/segment_ref.h"
#include "stream/stream_mux.h"
#include "telemetry/registry.h"
#include "util/flags.h"

namespace {

using fcp::Fcp;
using fcp::ObjectEvent;

// ---------------------------------------------------------------------------
// Run constants
// ---------------------------------------------------------------------------

// Traces are drawn from a fixed set of seed slots so that every slot has a
// committed reference digest (perfbench/reference.json); --seed picks the
// slot. The trace generator seed of slot k is kSlotSeedBase + k.
constexpr uint64_t kSlots = 16;
constexpr uint64_t kSlotSeedBase = 1000;

// Events in the timed window per second of --seconds: the serial engine's
// steady-state rate on each trace when the benchmark was defined, so the
// window holds about --seconds of work and its event count (hence its
// output digest) is fixed for a given --seconds.
constexpr double kTwitterWindowRate = 5000;
constexpr double kTrafficWindowRate = 100000;

// Setups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
// Throughput is reported per slice of the timed window (steady-state check).
constexpr size_t kSlices = 10;

fcp::MiningParams Params() {
  // fcpmine defaults: xi=60 s, tau=30 min, theta=3, pattern size 2..5.
  fcp::MiningParams params;
  params.xi = fcp::Seconds(60);
  params.tau = fcp::Minutes(30);
  params.theta = 3;
  params.min_pattern_size = 2;
  params.max_pattern_size = 5;
  return params;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// VmHWM: the process's peak resident set so far.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile of nanosecond samples, in microseconds.
double PercentileUs(std::vector<int64_t> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 *
                                              static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return static_cast<double>(samples[rank - 1]) / 1000.0;
}

// ---------------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------------

struct Trace {
  std::string name;  ///< "twitter" or "traffic"
  uint64_t slot = 0;
  std::vector<ObjectEvent> events;  ///< warm-up prefix + timed window
  size_t warm_end = 0;              ///< first timed event
  double warm_span_s = 0;           ///< event time covered by the warm-up
};

// Event time the untimed warm-up prefix covers. At least tau, so the index
// holds a full window of valid segments; the extra 8 min cover most of the
// completion lag of Twitter segments (a tweet's segment completes at its
// user's next tweet, ~10 min later on average), after which throughput
// levels off.
constexpr fcp::DurationMs kWarmupSpan = fcp::Minutes(30 + 8);

// Generates the slot's trace and cuts it to the warm-up prefix (every event
// before kWarmupSpan of event time has passed) plus `window_events` timed
// events.
bool MakeTrace(const std::string& name, uint64_t slot, double seconds,
               Trace* trace) {
  trace->name = name;
  trace->slot = slot;
  const double rate = name == "twitter" ? kTwitterWindowRate : kTrafficWindowRate;
  const size_t window_events =
      static_cast<size_t>(std::llround(seconds * rate));
  if (name == "twitter") {
    // fcpmine's Twitter defaults: 5000 users tweeting every ~10 min, so 38
    // min hold ~19k tweets (~106k events). Generate the warm-up plus the
    // window with a 30% margin; the cut below checks the margin sufficed.
    fcp::TwitterConfig config;
    config.seed = kSlotSeedBase + slot;
    config.total_tweets = static_cast<uint64_t>(
        (20000.0 + static_cast<double>(window_events) / 5.5) * 1.3);
    trace->events = fcp::GenerateTwitter(config).events;
  } else if (name == "traffic") {
    // 200 cameras at 0.1 Hz: 38 min are 46k events.
    fcp::TrafficConfig config;
    config.seed = kSlotSeedBase + slot;
    config.total_events =
        static_cast<uint64_t>((48000.0 + static_cast<double>(window_events)) * 1.1);
    trace->events = fcp::GenerateTraffic(config).events;
  } else {
    std::fprintf(stderr, "fcp_e2e: unknown trace '%s'\n", name.c_str());
    return false;
  }
  const fcp::Timestamp t0 = trace->events.front().time;
  size_t warm_end = 0;
  while (warm_end < trace->events.size() &&
         trace->events[warm_end].time - t0 < kWarmupSpan) {
    ++warm_end;
  }
  if (warm_end + window_events > trace->events.size()) {
    std::fprintf(stderr, "fcp_e2e: %s trace too short (%zu events, need %zu)\n",
                 name.c_str(), trace->events.size(), warm_end + window_events);
    return false;
  }
  trace->events.resize(warm_end + window_events);
  trace->warm_end = warm_end;
  trace->warm_span_s =
      static_cast<double>(trace->events[warm_end].time - t0) / 1000.0;
  return true;
}

// ---------------------------------------------------------------------------
// Output digest: the sorted FCP records (objects, streams, window) and their
// count. Triggers are left out: they are segment ids, an engine detail.
// ---------------------------------------------------------------------------

class Digest {
 public:
  void Add(const std::vector<Fcp>& fcps) {
    for (const Fcp& fcp : fcps) {
      records_.push_back(Record{fcp.objects, fcp.streams, fcp.window_start,
                                fcp.window_end});
    }
  }
  size_t count() const { return records_.size(); }
  std::string Hex() {
    std::sort(records_.begin(), records_.end());
    uint64_t h = fcp::Mix64(records_.size());
    auto mix = [&h](uint64_t v) { h = fcp::Mix64(h ^ (v + 0x9e3779b97f4a7c15ULL)); };
    for (const Record& r : records_) {
      mix(r.objects.size());
      for (fcp::ObjectId o : r.objects) mix(o);
      mix(r.streams.size());
      for (fcp::StreamId s : r.streams) mix(s);
      mix(static_cast<uint64_t>(r.window_start));
      mix(static_cast<uint64_t>(r.window_end));
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
  }
  // FCPs whose window spans more than tau (DESIGN.md §2 item 3 rules them
  // out); counted so the trace run shows them, not part of the digest check.
  uint64_t WindowsOverTau(fcp::DurationMs tau) const {
    uint64_t n = 0;
    for (const Record& r : records_) n += r.window_end - r.window_start > tau;
    return n;
  }

 private:
  struct Record {
    fcp::Pattern objects;
    std::vector<fcp::StreamId> streams;
    fcp::Timestamp window_start;
    fcp::Timestamp window_end;
    auto operator<=>(const Record&) const = default;
  };
  std::vector<Record> records_;
};

// ---------------------------------------------------------------------------
// Spans kept in memory, written out when the run ends.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  static constexpr uint32_t kNoParent = 0xffffffffu;

  explicit SpanLog(size_t reserve) { spans_.reserve(reserve); }

  uint32_t Add(const char* name, uint32_t parent, int64_t start_ns,
               int64_t end_ns) {
    spans_.push_back(Span{start_ns, end_ns, parent, name});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void SetEnd(uint32_t span, int64_t end_ns) { spans_[span].end_ns = end_ns; }

  // Self time per span name: duration minus the part covered by children
  // (children of one parent never overlap here).
  std::vector<std::pair<std::string, double>> SelfSecondsByName() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::vector<std::pair<std::string, double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double self = static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
      auto it = std::find_if(out.begin(), out.end(),
                             [&](const auto& e) { return e.first == s.name; });
      if (it == out.end()) {
        out.emplace_back(s.name, self);
      } else {
        it->second += self;
      }
    }
    return out;
  }

  std::vector<int64_t> DurationsNs(const char* name) const {
    std::vector<int64_t> out;
    for (const Span& s : spans_) {
      if (std::string_view(s.name) == name) out.push_back(s.end_ns - s.start_ns);
    }
    return out;
  }

  bool WriteCsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,name,start_ns,end_ns,parent\n");
    const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%s,%" PRId64 ",%" PRId64 ",%" PRId64 "\n", i, s.name,
                   s.start_ns - base, s.end_ns - base,
                   s.parent == kNoParent ? int64_t{-1} : int64_t{s.parent});
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    int64_t start_ns;
    int64_t end_ns;
    uint32_t parent;
    const char* name;  ///< string literal
  };
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Metric output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void AppendJsonMetrics(const std::vector<Metric>& metrics, std::string* out) {
  *out += "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i) *out += ",";
    *out += "\"" + metrics[i].name + "\":{\"value\":" + buf + ",\"unit\":\"" +
            metrics[i].unit + "\"}";
  }
  *out += "}";
}

// ---------------------------------------------------------------------------
// Timed window bookkeeping shared by every run
// ---------------------------------------------------------------------------

struct Window {
  double wall_s = 0;
  double cpu_s = 0;
  double events_per_s = 0;
  double peak_rss_mb = 0;
  size_t events = 0;
  std::vector<double> slice_events_per_s;
  std::vector<int64_t> segment_latency_ns;  ///< serial engine only
};

class WindowClock {
 public:
  explicit WindowClock(size_t events) : events_(events) {
    slice_len_ = std::max<size_t>(1, events / kSlices);
    cpu0_ = CpuSeconds();
    start_ns_ = NowNs();
    slice_start_ns_ = start_ns_;
  }
  int64_t start_ns() const { return start_ns_; }
  // Call after the i-th window event returned at `now_ns`.
  void EventDone(size_t i, int64_t now_ns, Window* w) {
    if ((i + 1) % slice_len_ == 0 && w->slice_events_per_s.size() < kSlices) {
      w->slice_events_per_s.push_back(static_cast<double>(slice_len_) * 1e9 /
                                      static_cast<double>(now_ns - slice_start_ns_));
      slice_start_ns_ = now_ns;
    }
  }
  void Stop(Window* w) {
    const int64_t end = NowNs();
    w->cpu_s = CpuSeconds() - cpu0_;
    w->wall_s = static_cast<double>(end - start_ns_) * 1e-9;
    w->events = events_;
    w->events_per_s = static_cast<double>(events_) / w->wall_s;
    w->peak_rss_mb = PeakRssMb();
  }

 private:
  size_t events_;
  size_t slice_len_;
  double cpu0_;
  int64_t start_ns_;
  int64_t slice_start_ns_;
};

// ---------------------------------------------------------------------------
// Serial engine: MiningEngine::PushEvent
// ---------------------------------------------------------------------------

struct SerialEngineRun {
  std::vector<double> setup_s;
  Window window;
  std::string digest;
  size_t fcps = 0;
};

std::unique_ptr<fcp::MiningEngine> MakeSerialEngine() {
  fcp::EngineOptions options;
  options.suppression_window = Params().tau;  // fcpmine's --suppress default
  return std::make_unique<fcp::MiningEngine>(fcp::MinerKind::kCooMine,
                                             Params(), options);
}

SerialEngineRun RunSerialEngine(const Trace& trace, int setups) {
  SerialEngineRun run;
  std::unique_ptr<fcp::MiningEngine> engine;
  Digest digest;
  for (int r = 0; r < setups; ++r) {
    engine.reset();
    digest = Digest();
    const int64_t t0 = NowNs();
    engine = MakeSerialEngine();
    for (size_t i = 0; i < trace.warm_end; ++i) {
      digest.Add(engine->PushEvent(trace.events[i]));
    }
    run.setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  const size_t n = trace.events.size() - trace.warm_end;
  Window& w = run.window;
  w.segment_latency_ns.reserve(n);
  WindowClock clock(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t segments_before = engine->segments_completed();
    const int64_t start = NowNs();
    std::vector<Fcp> accepted = engine->PushEvent(trace.events[trace.warm_end + i]);
    const int64_t now = NowNs();
    // A call that completed a segment returns that segment's FCPs: its wall
    // time is the event-in -> FCPs-out latency.
    if (engine->segments_completed() != segments_before) {
      w.segment_latency_ns.push_back(now - start);
    }
    digest.Add(accepted);
    clock.EventDone(i, now, &w);
  }
  clock.Stop(&w);
  digest.Add(engine->Flush());
  run.fcps = digest.count();
  run.digest = digest.Hex();
  return run;
}

// ---------------------------------------------------------------------------
// Serial pipeline composed from outside, traced: StreamMux::Push ->
// FcpMiner::AddSegment -> ResultCollector::OfferAll.
// ---------------------------------------------------------------------------

struct ComposedRun {
  Window window;
  std::string digest;
  size_t fcps = 0;
  uint64_t windows_over_tau = 0;
  std::vector<std::pair<std::string, double>> self_s;  ///< by span name
  std::vector<int64_t> add_segment_ns;
  fcp::MinerStats before, after;
  fcp::SegmentPoolStats pool_before, pool_after;
  fcp::MinerIntrospection end_state;
};

ComposedRun RunComposed(const Trace& trace, const std::string& spans_path) {
  const fcp::MiningParams params = Params();
  ComposedRun run;
  fcp::StreamMux mux(params.xi);
  std::unique_ptr<fcp::FcpMiner> miner =
      fcp::MakeMiner(fcp::MinerKind::kCooMine, params);
  fcp::ResultCollector collector(params.tau);
  std::vector<fcp::SegmentRef> segments;
  std::vector<Fcp> mined;
  std::vector<Fcp> accepted;
  Digest digest;
  // Untraced: the warm-up and the end-of-feed flush.
  auto mine_segments = [&] {
    for (const fcp::SegmentRef& segment : segments) {
      mined.clear();
      miner->AddSegment(segment, &mined);
      accepted.clear();
      collector.OfferAll(mined, &accepted);
      digest.Add(accepted);
    }
  };
  for (size_t i = 0; i < trace.warm_end; ++i) {
    segments.clear();
    mux.Push(trace.events[i], &segments);
    mine_segments();
  }

  run.before = miner->stats();
  run.pool_before = mux.pool()->stats();
  const size_t n = trace.events.size() - trace.warm_end;
  SpanLog spans(n * 3 + 1);
  Window& w = run.window;
  WindowClock clock(n);
  const uint32_t root = spans.Add("window", SpanLog::kNoParent,
                                  clock.start_ns(), clock.start_ns());
  for (size_t i = 0; i < n; ++i) {
    segments.clear();
    int64_t a = NowNs();
    mux.Push(trace.events[trace.warm_end + i], &segments);
    int64_t b = NowNs();
    spans.Add("stream.push", root, a, b);
    for (const fcp::SegmentRef& segment : segments) {
      mined.clear();
      a = NowNs();
      miner->AddSegment(segment, &mined);
      b = NowNs();
      spans.Add("miner.add_segment", root, a, b);
      accepted.clear();
      a = b;
      collector.OfferAll(mined, &accepted);
      b = NowNs();
      spans.Add("collector.offer_all", root, a, b);
      digest.Add(accepted);
    }
    clock.EventDone(i, b, &w);
  }
  clock.Stop(&w);
  spans.SetEnd(root, clock.start_ns() + static_cast<int64_t>(w.wall_s * 1e9));
  run.after = miner->stats();
  run.pool_after = mux.pool()->stats();
  run.end_state = miner->Introspect();
  run.self_s = spans.SelfSecondsByName();
  run.add_segment_ns = spans.DurationsNs("miner.add_segment");
  if (!spans_path.empty() && !spans.WriteCsv(spans_path)) {
    std::fprintf(stderr, "fcp_e2e: cannot write spans to %s\n", spans_path.c_str());
  }

  segments.clear();
  mux.FlushAll(&segments);
  mine_segments();
  run.fcps = digest.count();
  run.windows_over_tau = digest.WindowsOverTau(params.tau);
  run.digest = digest.Hex();
  return run;
}

// ---------------------------------------------------------------------------
// Sharded engine: ParallelEngine, W=1, S=2, freq placement from the warm-up
// prefix, rebalance and steal.
// ---------------------------------------------------------------------------

constexpr uint32_t kShards = 2;

double MetricValue(const std::vector<fcp::telemetry::MetricSample>& samples,
                   const std::string& name) {
  for (const auto& s : samples) {
    if (s.name != name) continue;
    return s.type == fcp::telemetry::MetricType::kCounter
               ? static_cast<double>(s.counter_value)
               : static_cast<double>(s.gauge_value);
  }
  return 0;
}

std::string ShardLabel(const std::string& base, uint32_t s) {
  return base + "{shard=\"" + std::to_string(s) + "\"}";
}

// Routed -> mined latency of segments, observed from outside: each shard's
// routed and mined counters (SnapshotMetrics) are sampled as the run goes.
// The segments routed by sample k have all their FCPs mined at the first
// sample j where every shard's mined count reaches its routed count at k, so
// t_j - t_k is their latency to within the sampling interval. A segment
// multicast to both shards waits for the slower one.
class SegmentLatency {
 public:
  void Sample(const std::vector<fcp::telemetry::MetricSample>& m, int64_t t_ns,
              bool measured) {
    Point p{t_ns, {}, {}, measured};
    for (uint32_t s = 0; s < kShards; ++s) {
      p.routed[s] = MetricValue(m, ShardLabel("fcp_segments_routed", s));
      p.mined[s] = MetricValue(m, ShardLabel("fcp_segments_mined_total", s));
    }
    points_.push_back(p);
  }

  // One sample per measured point that routed new segments.
  std::vector<int64_t> LatenciesNs() const {
    std::vector<int64_t> out;
    size_t j = 0;
    for (size_t k = 1; k < points_.size(); ++k) {
      const Point& p = points_[k];
      if (!p.measured || p.routed == points_[k - 1].routed) continue;
      j = std::max(j, k);
      while (j < points_.size() && !MinedBy(points_[j], p)) ++j;
      if (j == points_.size()) break;
      out.push_back(points_[j].t_ns - p.t_ns);
    }
    return out;
  }

 private:
  struct Point {
    int64_t t_ns;
    std::array<double, kShards> routed;
    std::array<double, kShards> mined;
    bool measured;
  };
  static bool MinedBy(const Point& later, const Point& routed) {
    for (uint32_t s = 0; s < kShards; ++s) {
      if (later.mined[s] < routed.routed[s]) return false;
    }
    return true;
  }
  std::vector<Point> points_;
};

// Blocks until every segment routed so far has been mined and every queue is
// empty, as seen through SnapshotMetrics(); the state must hold over several
// polls so an event or segment in a thread's hands is not missed. Each poll
// also feeds `latency` when given.
void WaitDrained(fcp::ParallelEngine* engine, SegmentLatency* latency = nullptr) {
  double last_signature = -1;
  int stable = 0;
  while (stable < 4) {
    const auto m = engine->SnapshotMetrics();
    if (latency != nullptr) latency->Sample(m, NowNs(), false);
    bool idle = MetricValue(m, "fcp_event_queue_depth{worker=\"0\"}") == 0 &&
                MetricValue(m, "fcp_segment_queue_depth{worker=\"0\"}") == 0;
    double signature = 0;
    for (uint32_t s = 0; s < kShards; ++s) {
      const double routed = MetricValue(m, ShardLabel("fcp_segments_routed", s));
      const double mined = MetricValue(m, ShardLabel("fcp_segments_mined_total", s));
      idle = idle && routed == mined &&
             MetricValue(m, ShardLabel("fcp_shard_queue_depth", s)) == 0;
      signature += routed + mined;
    }
    stable = idle && signature == last_signature ? stable + 1 : 0;
    last_signature = signature;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

struct ShardedRun {
  std::vector<double> setup_s;
  Window window;
  std::string digest;
  size_t fcps = 0;
  double drain_s = 0;
  double finish_s = 0;
  double push_s = 0;  ///< summed Push call time in the window
  std::vector<int64_t> segment_latency_ns;  ///< routed -> mined, steady flood
  std::vector<double> shard_mining_s;  ///< window share, per shard
  double stolen = 0, merge_stalls = 0, shard_hwm = 0;
  fcp::ShardRouterStats router;
  fcp::RebalancerStats rebalancer;
  fcp::SegmentPoolStats pool;
};

std::unique_ptr<fcp::ParallelEngine> MakeShardedEngine(const Trace& trace) {
  // Freq placement seeded from the warm-up prefix only: the timed window is
  // unseen when the engine is built, as it would be in deployment.
  std::vector<uint64_t> counts;
  for (size_t i = 0; i < trace.warm_end; ++i) {
    const fcp::ObjectId object = trace.events[i].object;
    if (object >= counts.size()) counts.resize(object + 1, 0);
    ++counts[object];
  }
  std::vector<std::pair<fcp::ObjectId, uint64_t>> weights;
  for (fcp::ObjectId object = 0; object < counts.size(); ++object) {
    if (counts[object] > 0) weights.push_back({object, counts[object]});
  }
  fcp::ParallelEngineOptions options;
  options.num_workers = 1;
  options.num_miner_shards = kShards;
  options.suppression_window = Params().tau;
  options.placement = fcp::BuildGreedyPlacement(weights, kShards);
  options.rebalance = true;
  options.steal = true;
  return std::make_unique<fcp::ParallelEngine>(fcp::MinerKind::kCooMine,
                                               Params(), options);
}

ShardedRun RunSharded(const Trace& trace, int setups, SpanLog* spans) {
  ShardedRun run;
  std::unique_ptr<fcp::ParallelEngine> engine;
  for (int r = 0; r < setups; ++r) {
    engine.reset();
    const int64_t t0 = NowNs();
    engine = MakeShardedEngine(trace);
    for (size_t i = 0; i < trace.warm_end; ++i) engine->Push(trace.events[i]);
    WaitDrained(engine.get());
    run.setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  const auto before = engine->SnapshotMetrics();
  const size_t n = trace.events.size() - trace.warm_end;
  // The producer runs ahead while the (empty) queues fill; by 30% of the
  // window every queue is full and the flood is steady. Segment latencies
  // are measured from there on, sampling the counters every 16 pushes
  // (~3 ms; a segment waits ~1 s in the flood).
  const size_t flood_start = n * 3 / 10;
  constexpr size_t kSampleEvery = 16;
  SegmentLatency latency;
  Window& w = run.window;
  WindowClock clock(n);
  const uint32_t root =
      spans ? spans->Add("window", SpanLog::kNoParent, clock.start_ns(), 0) : 0;
  int64_t push_ns = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i % kSampleEvery == 0) {
      latency.Sample(engine->SnapshotMetrics(), NowNs(), i >= flood_start);
    }
    const int64_t a = NowNs();
    engine->Push(trace.events[trace.warm_end + i]);
    const int64_t b = NowNs();
    if (spans != nullptr) spans->Add("engine.push", root, a, b);
    push_ns += b - a;
    clock.EventDone(i, b, &w);
  }
  // The window ends when the pipeline has mined every segment the window's
  // events completed (the backlog); Finish()'s flush of the still-open
  // stream windows is end-of-feed work, outside the window like the serial
  // engine's Flush().
  const int64_t drain0 = NowNs();
  latency.Sample(engine->SnapshotMetrics(), drain0, true);
  WaitDrained(engine.get(), &latency);
  const int64_t drain1 = NowNs();
  if (spans != nullptr) spans->Add("engine.drain", root, drain0, drain1);
  const auto after = engine->SnapshotMetrics();
  clock.Stop(&w);
  if (spans != nullptr) {
    spans->SetEnd(root, clock.start_ns() + static_cast<int64_t>(w.wall_s * 1e9));
  }
  run.segment_latency_ns = latency.LatenciesNs();
  run.drain_s = static_cast<double>(drain1 - drain0) * 1e-9;
  run.push_s = static_cast<double>(push_ns) * 1e-9;

  for (uint32_t s = 0; s < kShards; ++s) {
    const std::string name = ShardLabel("fcp_mining_ns_total", s);
    run.shard_mining_s.push_back(
        (MetricValue(after, name) - MetricValue(before, name)) * 1e-9);
    run.shard_hwm = std::max(
        run.shard_hwm,
        MetricValue(after, ShardLabel("fcp_shard_queue_high_watermark", s)));
  }
  run.stolen = MetricValue(after, "fcp_segments_stolen_total") -
               MetricValue(before, "fcp_segments_stolen_total");
  run.merge_stalls = MetricValue(after, "fcp_merge_stalls_total") -
                     MetricValue(before, "fcp_merge_stalls_total");

  const int64_t f0 = NowNs();
  engine->Finish();
  run.finish_s = static_cast<double>(NowNs() - f0) * 1e-9;
  run.router = engine->router_stats();
  if (engine->rebalancer() != nullptr) run.rebalancer = engine->rebalancer()->stats();
  run.pool = engine->segment_pool().stats();
  Digest digest;
  digest.Add(engine->results());
  run.fcps = digest.count();
  run.digest = digest.Hex();
  return run;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

void PrintWindow(const char* label, const Trace& trace, const Window& w) {
  std::fprintf(stderr,
               "fcp_e2e: %s: warm-up %zu events over %.0f s of event time "
               "(tau %.0f s); window %zu events in %.3f s = %.1f events/s\n",
               label, trace.warm_end, trace.warm_span_s,
               static_cast<double>(Params().tau) / 1000.0, w.events, w.wall_s,
               w.events_per_s);
  std::fprintf(stderr, "fcp_e2e: %s: slice events/s:", label);
  for (double v : w.slice_events_per_s) std::fprintf(stderr, " %.0f", v);
  std::fprintf(stderr, "\n");
}

std::string SliceJson(const Window& w) {
  std::string out = "[";
  for (size_t i = 0; i < w.slice_events_per_s.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.1f", i ? "," : "", w.slice_events_per_s[i]);
    out += buf;
  }
  return out + "]";
}

using Checks = std::vector<std::pair<const char*, bool>>;

void EmitResult(const Trace& trace, const Window& w, const std::string& digest,
                size_t fcps, const std::vector<Metric>& metrics,
                const Checks& checks) {
  std::string out = "{\"trace\":\"" + trace.name + "\",\"slot\":" +
                    std::to_string(trace.slot) + ",\"window_events\":" +
                    std::to_string(w.events) + ",\"warmup_events\":" +
                    std::to_string(trace.warm_end);
  char buf[96];
  std::snprintf(buf, sizeof(buf), ",\"warmup_span_s\":%.3f,\"tau_s\":%.3f",
                trace.warm_span_s, static_cast<double>(Params().tau) / 1000.0);
  out += buf;
  out += ",\"slice_events_per_s\":" + SliceJson(w);
  out += ",\"digest\":\"" + digest + "\",\"fcps\":" + std::to_string(fcps);
  out += ",\"checks\":{";
  for (size_t i = 0; i < checks.size(); ++i) {
    out += std::string(i ? "," : "") + "\"" + checks[i].first + "\":" +
           (checks[i].second ? "true" : "false");
  }
  out += "}";
  out += ",\"metrics\":";
  AppendJsonMetrics(metrics, &out);
  out += "}";
  std::printf("%s\n", out.c_str());
}

// The end-to-end metrics of an untraced run.
std::vector<Metric> EndToEndMetrics(const Window& w,
                                    const std::vector<int64_t>& latency_ns,
                                    const std::vector<double>& setup_s) {
  return {
      {"events_per_s", w.events_per_s, "1/s"},
      {"segment_latency_p50_us", PercentileUs(latency_ns, 50), "us"},
      {"segment_latency_p99_us", PercentileUs(latency_ns, 99), "us"},
      {"cpu_s_per_mevent", w.cpu_s * 1e6 / static_cast<double>(w.events), "s/Mevent"},
      {"peak_rss_mb", w.peak_rss_mb, "MB"},
      {"setup_s", Median(setup_s), "s"},
  };
}

// Per-layer metrics common to every workload, from the composed serial run.
void AddComposedLayerMetrics(const ComposedRun& c, std::vector<Metric>* m) {
  const double segments = static_cast<double>(c.after.segments_processed -
                                              c.before.segments_processed);
  const double candidates = static_cast<double>(c.after.candidates_checked -
                                                c.before.candidates_checked);
  const double maintenance_s =
      static_cast<double>(c.after.maintenance_ns - c.before.maintenance_ns) * 1e-9;
  const double mine_s =
      static_cast<double>(c.after.mining_ns - c.before.mining_ns) * 1e-9;
  const double pool_hits = static_cast<double>(c.pool_after.pool_hits - c.pool_before.pool_hits);
  const double pool_misses =
      static_cast<double>(c.pool_after.slab_allocs - c.pool_before.slab_allocs);
  double stream_s = 0, collect_s = 0;
  for (const auto& [name, self] : c.self_s) {
    if (name == "stream.push") stream_s = self;
    if (name == "collector.offer_all") collect_s = self;
  }
  m->push_back({"stream.segment_s", stream_s, "s"});
  m->push_back({"stream.events_per_segment",
                static_cast<double>(c.window.events) / std::max(1.0, segments), "count"});
  m->push_back({"stream.pool_hit_ratio", pool_hits / std::max(1.0, pool_hits + pool_misses),
                "ratio"});
  m->push_back({"index.lcp_rows_per_segment",
                static_cast<double>(c.after.lcp_rows - c.before.lcp_rows) /
                    std::max(1.0, segments),
                "count"});
  m->push_back({"index.maintenance_s", maintenance_s, "s"});
  m->push_back({"index.segments_expired",
                static_cast<double>(c.after.segments_expired - c.before.segments_expired),
                "count"});
  m->push_back({"index.live_segments", static_cast<double>(c.end_state.live_segments),
                "count"});
  m->push_back({"index.bytes", static_cast<double>(c.end_state.index_bytes), "bytes"});
  m->push_back({"core.mine_s", mine_s, "s"});
  m->push_back({"core.mine_us_p50", PercentileUs(c.add_segment_ns, 50), "us"});
  m->push_back({"core.mine_us_p99", PercentileUs(c.add_segment_ns, 99), "us"});
  m->push_back({"core.candidates_per_segment", candidates / std::max(1.0, segments),
                "count"});
  m->push_back({"core.fcp_yield",
                static_cast<double>(c.after.fcps_emitted - c.before.fcps_emitted) /
                    std::max(1.0, candidates),
                "ratio"});
  m->push_back({"core.collect_s", collect_s, "s"});
  m->push_back({"core.fcp_windows_over_tau", static_cast<double>(c.windows_over_tau),
                "count"});
}

// Prints each layer's self time from the composed run's spans and the
// remainder no span explains, all against the traced wall time.
void PrintComposedLedger(const ComposedRun& c) {
  const double wall = c.window.wall_s;
  const double maintenance_s =
      static_cast<double>(c.after.maintenance_ns - c.before.maintenance_ns) * 1e-9;
  double stream_s = 0, add_s = 0, collect_s = 0, remainder = 0;
  for (const auto& [name, self] : c.self_s) {
    if (name == "stream.push") stream_s = self;
    if (name == "miner.add_segment") add_s = self;
    if (name == "collector.offer_all") collect_s = self;
    if (name == "window") remainder = self;
  }
  // AddSegment covers index maintenance (insert/expiry, miner-timed) and
  // mining (SLCP probe + Apriori/verify); the probe is not split out.
  const double index_s = maintenance_s;
  const double core_s = add_s - maintenance_s + collect_s;
  std::fprintf(stderr, "fcp_e2e: serial ledger (composed, traced), wall %.3f s\n", wall);
  const std::pair<const char*, double> rows[] = {
      {"stream   StreamMux::Push", stream_s},
      {"index    maintenance (insert/expiry)", index_s},
      {"core     AddSegment mining (SLCP+Apriori)", add_s - maintenance_s},
      {"core     ResultCollector::OfferAll", collect_s},
      {"(unexplained remainder)", remainder},
  };
  double sum = 0;
  for (const auto& [label, s] : rows) {
    std::fprintf(stderr, "  %-42s %9.4f s %6.2f%%\n", label, s, 100.0 * s / wall);
    sum += s;
  }
  std::fprintf(stderr, "  %-42s %9.4f s (layers: stream %.4f, index %.4f, core %.4f)\n",
               "sum", sum, stream_s, index_s, core_s);
}

int RunWorkload(const std::string& workload, uint64_t seed, double seconds,
                bool traced, const std::string& spans_path) {
  const std::string trace_name = workload.rfind("traffic", 0) == 0 ? "traffic" : "twitter";
  const bool sharded = workload == "twitter-sharded";
  if (workload != "twitter-serial" && workload != "traffic-serial" && !sharded) {
    std::fprintf(stderr, "fcp_e2e: unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  Trace trace;
  if (!MakeTrace(trace_name, seed % kSlots, seconds, &trace)) return 1;
  // Steady-state guard: the timed window must start at least tau into the
  // trace.
  const bool steady =
      trace.warm_span_s * 1000.0 >= static_cast<double>(Params().tau);

  if (!traced) {
    if (sharded) {
      ShardedRun run = RunSharded(trace, kSetups, nullptr);
      PrintWindow(workload.c_str(), trace, run.window);
      // No call returns a sharded run's FCPs before Finish(); the latency is
      // routed -> mined, when all of a segment's FCPs exist.
      std::fprintf(stderr,
                   "fcp_e2e: %s: segment latency = routed->mined, %zu samples "
                   "of the steady flood; drain %.3f s in window; Finish %.3f s "
                   "after it\n",
                   workload.c_str(), run.segment_latency_ns.size(), run.drain_s,
                   run.finish_s);
      EmitResult(trace, run.window, run.digest, run.fcps,
                 EndToEndMetrics(run.window, run.segment_latency_ns, run.setup_s),
                 {{"steady_state", steady}});
    } else {
      SerialEngineRun run = RunSerialEngine(trace, kSetups);
      PrintWindow(workload.c_str(), trace, run.window);
      const Window& w = run.window;
      std::fprintf(stderr, "fcp_e2e: %s: segment latency over %zu segment-completing pushes\n",
                   workload.c_str(), w.segment_latency_ns.size());
      EmitResult(trace, w, run.digest, run.fcps,
                 EndToEndMetrics(w, w.segment_latency_ns, run.setup_s),
                 {{"steady_state", steady}});
    }
    return 0;
  }

  // Traced run: the untraced engine run gives the baseline throughput; the
  // traced runs give the per-layer ledger.
  std::vector<Metric> m;
  if (!sharded) {
    SerialEngineRun base = RunSerialEngine(trace, 1);
    PrintWindow("untraced engine", trace, base.window);
    ComposedRun c = RunComposed(trace, spans_path);
    PrintWindow("traced composed", trace, c.window);
    PrintComposedLedger(c);
    AddComposedLayerMetrics(c, &m);
    const double mine_s = static_cast<double>(c.after.mining_ns - c.before.mining_ns) * 1e-9;
    double push_s = 0;
    for (const auto& [name, self] : c.self_s) {
      if (name != "window") push_s += self;
    }
    // A serial run is the S=1 case of the sharded ledger.
    m.push_back({"core.push_blocked_frac", push_s / c.window.wall_s, "ratio"});
    m.push_back({"core.drain_s", 0, "s"});
    m.push_back({"core.shard.mining_s_max", mine_s, "s"});
    m.push_back({"core.shard.imbalance", 1, "ratio"});
    m.push_back({"core.steal.segments", 0, "count"});
    m.push_back({"core.merge.stalls", 0, "count"});
    m.push_back({"stream.queue.shard_hwm", 0, "count"});
    m.push_back({"stream.rebalancer.objects_moved", 0, "count"});
    m.push_back({"stream.router.multicast_factor", 1, "ratio"});
    m.push_back({"stream.router.backfill_deliveries", 0, "count"});
    m.push_back({"core.shard.mining_s_sum", mine_s, "s"});
    m.push_back({"core.shard.duplication", 1, "ratio"});
    m.push_back({"trace.overhead_pct",
                 (base.window.events_per_s / c.window.events_per_s - 1) * 100, "%"});
    EmitResult(trace, base.window, base.digest, base.fcps, m,
               {{"steady_state", steady},
                {"composed_matches_engine", c.digest == base.digest}});
    return 0;
  }

  ShardedRun base = RunSharded(trace, 1, nullptr);
  PrintWindow("untraced sharded", trace, base.window);
  SpanLog spans(trace.events.size() - trace.warm_end + 2);
  ShardedRun t = RunSharded(trace, 1, &spans);
  PrintWindow("traced sharded", trace, t.window);
  if (!spans_path.empty() && !spans.WriteCsv(spans_path)) {
    std::fprintf(stderr, "fcp_e2e: cannot write spans to %s\n", spans_path.c_str());
  }
  ComposedRun c = RunComposed(trace, "");
  PrintWindow("traced composed serial", trace, c.window);
  PrintComposedLedger(c);
  AddComposedLayerMetrics(c, &m);

  const double serial_mine_s =
      static_cast<double>(c.after.mining_ns - c.before.mining_ns) * 1e-9;
  double mining_max = 0, mining_sum = 0;
  for (double s : t.shard_mining_s) {
    mining_max = std::max(mining_max, s);
    mining_sum += s;
  }
  const double mean = mining_sum / static_cast<double>(t.shard_mining_s.size());
  const double wall = t.window.wall_s;
  const double remainder = wall - t.push_s - t.drain_s;
  std::fprintf(stderr, "fcp_e2e: sharded ledger (producer side), wall %.3f s\n", wall);
  std::fprintf(stderr, "  %-42s %9.4f s %6.2f%%\n", "core     inside Push (incl. blocked)",
               t.push_s, 100 * t.push_s / wall);
  std::fprintf(stderr, "  %-42s %9.4f s %6.2f%%\n", "core     drain (backlog after last Push)",
               t.drain_s, 100 * t.drain_s / wall);
  std::fprintf(stderr, "  %-42s %9.4f s %6.2f%%\n", "(unexplained remainder)", remainder,
               100 * remainder / wall);
  std::fprintf(stderr, "  shard mining s:");
  for (double s : t.shard_mining_s) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr,
               " (serial %.4f); Finish %.3f s outside window; pool %" PRIu64
               " hits / %" PRIu64 " slab allocs (whole run)\n",
               serial_mine_s, t.finish_s, t.pool.pool_hits, t.pool.slab_allocs);
  m.push_back({"core.push_blocked_frac", t.push_s / wall, "ratio"});
  m.push_back({"core.drain_s", t.drain_s, "s"});
  m.push_back({"core.shard.mining_s_max", mining_max, "s"});
  m.push_back({"core.shard.imbalance", mean > 0 ? mining_max / mean : 0, "ratio"});
  m.push_back({"core.steal.segments", t.stolen, "count"});
  m.push_back({"core.merge.stalls", t.merge_stalls, "count"});
  m.push_back({"stream.queue.shard_hwm", t.shard_hwm, "count"});
  m.push_back({"stream.rebalancer.objects_moved",
               static_cast<double>(t.rebalancer.objects_moved), "count"});
  m.push_back({"stream.router.multicast_factor",
               static_cast<double>(t.router.deliveries) /
                   std::max<double>(1, static_cast<double>(t.router.segments_routed)),
               "ratio"});
  m.push_back({"stream.router.backfill_deliveries",
               static_cast<double>(t.router.backfill_deliveries), "count"});
  m.push_back({"core.shard.mining_s_sum", mining_sum, "s"});
  m.push_back({"core.shard.duplication", mining_sum / std::max(1e-9, serial_mine_s), "ratio"});
  m.push_back({"trace.overhead_pct",
               (base.window.events_per_s / t.window.events_per_s - 1) * 100, "%"});
  EmitResult(trace, base.window, base.digest, base.fcps, m,
             {{"steady_state", steady},
              {"traced_matches_untraced", t.digest == base.digest},
              {"composed_matches_engine", c.digest == base.digest}});
  return 0;
}

// Serial MiningEngine over the slot's trace, untimed: the reference output.
int RunReference(const std::string& trace_name, uint64_t slot, double seconds) {
  Trace trace;
  if (!MakeTrace(trace_name, slot, seconds, &trace)) return 1;
  std::unique_ptr<fcp::MiningEngine> engine = MakeSerialEngine();
  Digest digest;
  for (const ObjectEvent& event : trace.events) digest.Add(engine->PushEvent(event));
  digest.Add(engine->Flush());
  const size_t fcps = digest.count();
  std::printf("{\"trace\":\"%s\",\"slot\":%" PRIu64 ",\"window_events\":%zu,"
              "\"digest\":\"%s\",\"fcps\":%zu}\n",
              trace_name.c_str(), slot, trace.events.size() - trace.warm_end,
              digest.Hex().c_str(), fcps);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  fcp::Flags flags(argc, argv);
  const double seconds = flags.GetDouble("seconds", 10);
  if (!(seconds > 0)) {
    std::fprintf(stderr, "fcp_e2e: --seconds must be > 0\n");
    return 2;
  }
  if (flags.GetString("mode", "run") == "reference") {
    return RunReference(flags.GetString("trace_name", "twitter"),
                        static_cast<uint64_t>(flags.GetInt("slot", 0)), seconds);
  }
  return RunWorkload(flags.GetString("workload", ""),
                     static_cast<uint64_t>(flags.GetInt("seed", 0)), seconds,
                     flags.GetInt("trace", 0) != 0, flags.GetString("spans", ""));
}
