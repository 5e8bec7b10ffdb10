#include "core/coomine.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "telemetry/trace.h"
#include "util/kernels/kernels.h"
#include "util/stopwatch.h"

namespace fcp {

CooMine::CooMine(const MiningParams& params, CooMineOptions options,
                 const ShardSpec& shard)
    : params_(params), options_(options), shard_(shard), tree_(options.seg_tree) {
  FCP_CHECK(params.Validate().ok());
  FCP_CHECK(shard.count >= 1 && shard.index < shard.count);
}

void CooMine::AddSegment(const Segment& segment, std::vector<Fcp>* out) {
  // Validity is anchored at the stream-time watermark (max end time seen):
  // segments complete out of end-time order across streams, and a monotonic
  // anchor keeps lazy deletion consistent with per-trigger re-evaluation.
  watermark_ = std::max(watermark_, segment.end_time());
  const Timestamp now = watermark_;

  // --- Mining phase: SLCP + Apriori over the LCP table. -------------------
  Stopwatch mine_timer;
  scratch_.expired.clear();
  {
    FCP_TRACE_SPAN("coomine/slcp");
    tree_.SlcpInto(segment, now, params_.tau, &scratch_.expired, &scratch_.lcp,
                   shard_);
  }
  stats_.lcp_rows += scratch_.lcp.rows.size();
  {
    FCP_TRACE_SPAN("coomine/apriori");
    MineFromLcps(segment, scratch_.lcp, out);
  }
  stats_.mining_ns += mine_timer.ElapsedNanos();

  // --- Maintenance phase: lazy deletion + insert + periodic sweep. --------
  FCP_TRACE_SPAN("coomine/maintenance");
  Stopwatch maint_timer;
  for (SegmentId id : scratch_.expired) tree_.Remove(id);
  stats_.segments_expired += scratch_.expired.size();
  if (options_.periodic_sweep &&
      (last_sweep_ == kMinTimestamp ||
       now - last_sweep_ >= params_.maintenance_interval)) {
    if (last_sweep_ != kMinTimestamp) {
      stats_.segments_expired += tree_.RemoveExpired(now, params_.tau);
      ++stats_.maintenance_runs;
    }
    last_sweep_ = now;
  }
  tree_.Insert(segment);
  stats_.maintenance_ns += maint_timer.ElapsedNanos();

  ++stats_.segments_processed;
}

void CooMine::AddSegmentIndexOnly(const Segment& segment) {
  // Migration backfill: index the segment exactly as AddSegment's
  // maintenance phase would — same watermark anchor, same periodic-sweep
  // cadence — with SLCP and the Apriori pass skipped. The Fcp output is
  // insensitive to Hlist chain order (streams are sorted and the window is
  // a min/max), so inserting an old segment after newer ones is safe.
  watermark_ = std::max(watermark_, segment.end_time());
  const Timestamp now = watermark_;
  FCP_TRACE_SPAN("coomine/index_backfill");
  Stopwatch maint_timer;
  if (options_.periodic_sweep &&
      (last_sweep_ == kMinTimestamp ||
       now - last_sweep_ >= params_.maintenance_interval)) {
    if (last_sweep_ != kMinTimestamp) {
      stats_.segments_expired += tree_.RemoveExpired(now, params_.tau);
      ++stats_.maintenance_runs;
    }
    last_sweep_ = now;
  }
  tree_.Insert(segment);
  stats_.maintenance_ns += maint_timer.ElapsedNanos();
  ++stats_.segments_indexed_only;
}

void CooMine::ForceMaintenance(Timestamp now) {
  Stopwatch maint_timer;
  stats_.segments_expired += tree_.RemoveExpired(now, params_.tau);
  ++stats_.maintenance_runs;
  last_sweep_ = now;
  stats_.maintenance_ns += maint_timer.ElapsedNanos();
}

void CooMine::PrefetchSegment(const Segment& segment) const {
  // Warm the Hlist head slots the upcoming AddSegment will probe. Capped:
  // beyond a few lines the prefetches evict each other before they help.
  constexpr size_t kPrefetchEntryCap = 16;
  size_t issued = 0;
  for (const SegmentEntry& entry : segment.entries()) {
    tree_.PrefetchObject(entry.object);
    if (++issued >= kPrefetchEntryCap) break;
  }
}

size_t CooMine::MemoryUsage() const { return tree_.MemoryUsage(); }

MinerIntrospection CooMine::Introspect() const {
  MinerIntrospection view;
  view.live_segments = tree_.num_segments();
  view.index_nodes = tree_.num_nodes();
  view.index_entries = tree_.total_objects();
  view.index_bytes = tree_.MemoryUsage();
  view.arena_bytes = tree_.ArenaBytes();
  view.compression_ratio = tree_.CompressionRatio();
  return view;
}

void CooMine::MineFromLcps(const Segment& segment, const LcpTable& lcp,
                           std::vector<Fcp>* out) {
  MiningScratch& s = scratch_;

  // Distinct probe objects, capped — the construction-time cache, same
  // result as DistinctObjectsCapped, copied into scratch.
  const std::vector<ObjectId>& distinct = segment.distinct_objects();
  s.objects.assign(distinct.begin(), distinct.end());
  if (params_.max_segment_objects > 0 &&
      s.objects.size() > params_.max_segment_objects) {
    s.objects.resize(params_.max_segment_objects);
  }
  if (s.objects.empty()) return;

  const size_t num_objects = s.objects.size();

  // Shard ownership of each probe object (all true for the serial shard).
  s.owned.resize(num_objects);
  bool any_owned = false;
  for (size_t oi = 0; oi < num_objects; ++oi) {
    s.owned[oi] = shard_.Owns(s.objects[oi]) ? 1 : 0;
    any_owned |= s.owned[oi] != 0;
  }
  // No owned probe object means no owned pattern can trigger here (every
  // pattern is a subset of the probe's objects).
  if (!any_owned) return;
  stats_.slcp_probes += num_objects;

  // Compact the LCP table to its *live* rows — rows sharing >= 1 owned probe
  // object — and build the per-object tidsets over live-row bit positions:
  // bit b of object_bits[oi] is set iff live row b's common set contains
  // objects[oi]. Every supporting row of an owned pattern contains the
  // pattern's (owned) minimum object, so dropping the other rows loses no
  // support; it shrinks the bitset width each shard pays for. Both sides of
  // the per-row merge are sorted, so one linear merge per row replaces a
  // binary search per (row, object) pair. Objects in a row's common set
  // beyond the max_segment_objects cap simply find no merge partner and are
  // skipped, as before.
  const size_t max_rows = lcp.rows.size();
  const size_t max_words = (max_rows + 63) / 64;
  s.object_bits.assign(num_objects * max_words, 0);
  s.live_rows.clear();
  for (size_t r = 0; r < max_rows; ++r) {
    const LcpTable::Row& row = lcp.rows[r];
    const ObjectId* c = lcp.CommonBegin(row);
    const ObjectId* ce = lcp.CommonEnd(row);
    s.row_match.clear();
    bool row_owned = false;
    size_t oi = 0;
    while (c != ce && oi < num_objects) {
      if (*c < s.objects[oi]) {
        ++c;
      } else if (s.objects[oi] < *c) {
        ++oi;
      } else {
        s.row_match.push_back(static_cast<uint32_t>(oi));
        row_owned |= s.owned[oi] != 0;
        ++c;
        ++oi;
      }
    }
    if (!row_owned) continue;  // cannot support any owned pattern
    const size_t b = s.live_rows.size();
    s.live_rows.push_back(static_cast<uint32_t>(r));
    const uint64_t bit_word = uint64_t{1} << (b % 64);
    const size_t word = b / 64;
    for (uint32_t match : s.row_match) {
      s.object_bits[match * max_words + word] |= bit_word;
    }
  }
  const size_t num_rows = s.live_rows.size();
  const size_t words = (num_rows + 63) / 64;  // bitset words per tidset
  // Repack the per-object bitsets to the live width (max_words >= words;
  // rows beyond num_rows never got a bit, so this is a pure shift-down).
  if (words != max_words) {
    for (size_t oi = 1; oi < num_objects; ++oi) {
      for (size_t w = 0; w < words; ++w) {
        s.object_bits[oi * words + w] = s.object_bits[oi * max_words + w];
      }
    }
    s.object_bits.resize(num_objects * words);
  }

  // Candidate evaluation from a tidset, in two stages. The popcount
  // prefilter is exact pruning, not an approximation: popcount rows plus
  // the probe is an upper bound on distinct supporting streams, so failing
  // it proves the candidate infrequent without touching the rows. The
  // kernel's early-exit-at-threshold keeps that exactness: only the boolean
  // "popcount >= theta - 1" is consumed, never the count. Survivors then
  // count distinct streams over the supporting rows, as far as the result
  // needs (see reaches_theta and collect_support).
  const kernels::KernelOps& ops = kernels::Ops();
  const size_t row_threshold =
      params_.theta == 0 ? 0 : static_cast<size_t>(params_.theta) - 1;

  // Calls f(row) for every LCP row whose bit is set in `bits`.
  auto for_each_row = [&](const uint64_t* bits, auto&& f) {
    for (size_t w = 0; w < words; ++w) {
      uint64_t word = bits[w];
      while (word != 0) {
        const size_t b = w * 64 + static_cast<size_t>(std::countr_zero(word));
        word &= word - 1;
        if (f(lcp.rows[s.live_rows[b]])) return;
      }
    }
  };

  // Candidates that will not be emitted only need the boolean "the probe
  // and its supporting rows span >= theta distinct streams". Keep the
  // (< theta) distinct streams seen so far and stop at the theta-th one.
  auto reaches_theta = [&](const uint64_t* bits) -> bool {
    s.streams.clear();
    s.streams.push_back(segment.stream());
    if (s.streams.size() >= params_.theta) return true;
    bool reached = false;
    for_each_row(bits, [&](const LcpTable::Row& row) {
      if (std::find(s.streams.begin(), s.streams.end(), row.stream) !=
          s.streams.end()) {
        return false;
      }
      s.streams.push_back(row.stream);
      reached = s.streams.size() >= params_.theta;
      return reached;
    });
    return reached;
  };

  // Candidates that will be emitted materialize the sorted distinct stream
  // list and the occurrence window (probe included) in one pass.
  Timestamp window_start = kMaxTimestamp;
  Timestamp window_end = kMinTimestamp;
  auto collect_support = [&](const uint64_t* bits) -> bool {
    s.streams.clear();
    s.streams.push_back(segment.stream());
    window_start = segment.start_time();
    window_end = segment.end_time();
    for_each_row(bits, [&](const LcpTable::Row& row) {
      s.streams.push_back(row.stream);
      window_start = std::min(window_start, row.start);
      window_end = std::max(window_end, row.end);
      return false;
    });
    std::sort(s.streams.begin(), s.streams.end());
    s.streams.erase(std::unique(s.streams.begin(), s.streams.end()),
                    s.streams.end());
    return s.streams.size() >= params_.theta;
  };

  // The stream check after a passed prefilter: full for candidates that
  // will be emitted, early-exit otherwise.
  auto verify_streams = [&](const uint64_t* bits, bool emits) -> bool {
    return emits ? collect_support(bits) : reaches_theta(bits);
  };

  auto evaluate = [&](const uint64_t* bits, bool emits) -> bool {
    return ops.popcount_atleast(bits, words, row_threshold) &&
           verify_streams(bits, emits);
  };

  // Emits the Fcp for the pattern at `idx` (object indices, `size` of them)
  // from the collect_support() scratch. Allocation here is output, not
  // overhead.
  auto emit = [&](const uint32_t* idx, size_t size) {
    Fcp fcp;
    fcp.objects.reserve(size);
    for (size_t i = 0; i < size; ++i) fcp.objects.push_back(s.objects[idx[i]]);
    fcp.streams.assign(s.streams.begin(), s.streams.end());
    fcp.trigger = segment.id();
    fcp.window_start = window_start;
    fcp.window_end = window_end;
    out->push_back(std::move(fcp));
    ++stats_.fcps_emitted;
  };

  // A pattern owned by this shard has an owned minimum object, and that
  // object must itself be a frequent singleton (supports only shrink as
  // patterns grow). So when every owned probe object is infrequent, the
  // delivery cannot emit anything — skip the level build outright. Most
  // deliveries of a sharded run are owned only via unpopular objects, which
  // fail the popcount prefilter immediately, so the gate is cheap; the
  // serial shard skips it (owned == everything, the level-1 loop below
  // does the same work once).
  if (!shard_.IsSingleton()) {
    bool any_owned_frequent = false;
    for (uint32_t oi = 0; oi < num_objects && !any_owned_frequent; ++oi) {
      if (!s.owned[oi]) continue;
      any_owned_frequent =
          evaluate(s.object_bits.data() + oi * words, /*emits=*/false);
    }
    if (!any_owned_frequent) return;
  }

  // Level 1 (FCP_1): each object's tidset is its support. Non-owned
  // singletons stay in the level store — they are join partners for owned
  // size-2 candidates — but only owned ones are emitted. (Their tidsets only
  // cover live rows, an undercount that can never drop a singleton whose
  // owned superset is frequent: that superset's supporting rows are all
  // live.)
  s.level_idx.clear();
  s.level_bits.clear();
  for (uint32_t oi = 0; oi < num_objects; ++oi) {
    ++stats_.candidates_checked;
    const uint64_t* bits = s.object_bits.data() + oi * words;
    const bool emits = params_.min_pattern_size <= 1 && s.owned[oi];
    if (!evaluate(bits, emits)) {
      ++stats_.candidates_pruned;
      continue;
    }
    s.level_idx.push_back(oi);
    s.level_bits.insert(s.level_bits.end(), bits, bits + words);
    if (emits) emit(&oi, 1);
  }

  // Level-wise Apriori: F_k x F_k join on a shared (k-1)-prefix, subset
  // prune, then tidset intersection with the joined-in object — the
  // candidate's support is parent_bits AND object_bits[last], carried to the
  // next level so no support is ever recomputed from the table.
  s.subset.clear();
  s.cand_bits.assign(words, 0);
  uint32_t level = 1;
  while (!s.level_idx.empty() &&
         (params_.max_pattern_size == 0 || level < params_.max_pattern_size)) {
    const size_t k = level;  // current pattern size
    const size_t level_count = s.level_idx.size() / k;
    ++level;
    const bool emits = level >= params_.min_pattern_size;
    s.next_idx.clear();
    s.next_bits.clear();

    // True iff every size-k subset of (prefix[0..k-1], last) obtained by
    // dropping a non-parent position is in the (lexicographically sorted)
    // level store. Binary search over the flat stride-k rows. Dropping
    // position 0 yields a subset whose minimum is prefix[1]; if this shard
    // does not own that minimum the subset belongs to another shard's store
    // and is skipped (conservative: pruning is an optimization, the tidset
    // intersection still rejects infrequent candidates exactly).
    auto all_subsets_frequent = [&](const uint32_t* prefix, uint32_t last) {
      s.subset.resize(k);
      for (size_t drop = 0; drop + 2 < k + 1; ++drop) {
        if (drop == 0 && k >= 2 && !s.owned[prefix[1]]) continue;
        size_t w = 0;
        for (size_t i = 0; i < k; ++i) {
          if (i != drop) s.subset[w++] = prefix[i];
        }
        s.subset[w] = last;
        size_t lo = 0, hi = level_count;
        bool found = false;
        while (lo < hi) {
          const size_t mid = (lo + hi) / 2;
          const uint32_t* row = s.level_idx.data() + mid * k;
          if (std::lexicographical_compare(row, row + k, s.subset.data(),
                                           s.subset.data() + k)) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        if (lo < level_count) {
          const uint32_t* row = s.level_idx.data() + lo * k;
          found = std::equal(row, row + k, s.subset.data());
        }
        if (!found) return false;
      }
      return true;
    };

    for (size_t i = 0; i < level_count; ++i) {
      const uint32_t* pi = s.level_idx.data() + i * k;
      // Size-2 candidates fix the pattern's minimum object: only extend
      // owned minima, so every pattern at level >= 2 has an owned minimum.
      if (k == 1 && !s.owned[pi[0]]) continue;
      const uint64_t* bi = s.level_bits.data() + i * words;
      for (size_t j = i + 1; j < level_count; ++j) {
        const uint32_t* pj = s.level_idx.data() + j * k;
        // Patterns sharing the first k-1 indices are contiguous in
        // lexicographic order; stop as soon as the prefix diverges.
        if (!std::equal(pi, pi + k - 1, pj)) break;
        const uint32_t last = pj[k - 1];
        if (!all_subsets_frequent(pi, last)) {
          ++stats_.candidates_pruned;
          continue;
        }
        ++stats_.candidates_checked;
        // Fused AND + popcount prefilter: the candidate's tidset is written
        // in full (carried to the next level on success) while the support
        // upper bound is counted in the same pass.
        const uint64_t* bo = s.object_bits.data() + last * words;
        if (!ops.and_popcount_atleast(bi, bo, s.cand_bits.data(), words,
                                      row_threshold) ||
            !verify_streams(s.cand_bits.data(), emits)) {
          ++stats_.candidates_pruned;
          continue;
        }
        s.next_idx.insert(s.next_idx.end(), pi, pi + k);
        s.next_idx.push_back(last);
        s.next_bits.insert(s.next_bits.end(), s.cand_bits.begin(),
                           s.cand_bits.end());
        if (emits) {
          emit(s.next_idx.data() + s.next_idx.size() - (k + 1), k + 1);
        }
      }
    }
    std::swap(s.level_idx, s.next_idx);
    std::swap(s.level_bits, s.next_bits);
  }
}

}  // namespace fcp
