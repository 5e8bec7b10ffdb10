// CooMine (Section 5 of the paper): Seg-tree based FCP mining.
//
// For every completed segment: (1) SLCP finds the largest common CP between
// the new segment and each valid existing segment (the LCP table), then
// (2) an Apriori pass over the LCP table yields the FCPs the new segment
// completes. Expired segments discovered by the search are deleted lazily
// (the paper's LD strategy); a periodic sweep bounds memory.
//
// The Apriori pass counts support Eclat-style: each probe object gets a
// bitset over the LCP rows (its tidset), a pattern's supporting rows are the
// AND of its parent's bitset with the last object's bitset (carried level to
// level), and a popcount prefilter rejects infrequent candidates before any
// row is read. Survivors count distinct streams over their rows: a level
// that emits nothing (pattern size < min_pattern_size) stops at the θ-th
// distinct stream, and only emitted FCPs build the sorted stream list and
// window. All per-trigger state lives in a reusable MiningScratch, so
// steady-state AddSegment performs no heap allocations.
//
// When constructed as one shard of a sharded group (ShardSpec), the Apriori
// pass is restricted to the patterns the shard owns: only LCP rows sharing
// >= 1 owned probe object get a tidset bit (every supporting row of an owned
// pattern contains its owned minimum object, so this drops nothing), the
// size-2 join only extends owned first objects, and subset pruning skips
// subsets whose minimum the shard cannot verify locally. With the default
// ShardSpec the filter is the identity.

#ifndef FCP_CORE_COOMINE_H_
#define FCP_CORE_COOMINE_H_

#include <cstdint>
#include <vector>

#include "common/params.h"
#include "core/miner.h"
#include "index/seg_tree.h"
#include "stream/segment.h"

namespace fcp {

/// CooMine-specific knobs (the MiningParams thresholds are shared).
struct CooMineOptions {
  SegTreeOptions seg_tree;
  /// Run a full Seg-tree expiry sweep every MiningParams::maintenance_
  /// interval of event time (the paper triggers this sweep on memory
  /// pressure; an event-time cadence is deterministic and testable).
  bool periodic_sweep = true;
};

class CooMine : public FcpMiner {
 public:
  /// `shard` restricts mining to patterns whose minimum object the shard
  /// owns (see MakeMiner's sharded overload); the default owns everything.
  explicit CooMine(const MiningParams& params, CooMineOptions options = {},
                   const ShardSpec& shard = {});

  void AddSegment(const Segment& segment, std::vector<Fcp>* out) override;
  void AddSegmentIndexOnly(const Segment& segment) override;
  void SetPlacement(const PlacementMap* map) override {
    shard_.placement = map;
  }
  void AdvanceWatermark(Timestamp now) override {
    watermark_ = std::max(watermark_, now);
  }
  void ForceMaintenance(Timestamp now) override;
  void PrefetchSegment(const Segment& segment) const override;
  size_t MemoryUsage() const override;
  const MinerStats& stats() const override { return stats_; }
  MinerIntrospection Introspect() const override;
  std::string_view name() const override { return "CooMine"; }

  /// The underlying index (tests, benches, invariant checks).
  const SegTree& seg_tree() const { return tree_; }

 private:
  /// Reusable per-trigger buffers: every vector is cleared (capacity kept)
  /// at the start of a trigger, so a warm miner allocates nothing on the
  /// mining path. Frequent patterns of the current level are stored flat:
  /// `level_idx` holds level-many uint32 indices into `objects` per pattern
  /// (lexicographic order of index tuples == lexicographic order of the
  /// patterns, since `objects` is sorted) and `level_bits` holds the
  /// matching row bitsets, `words` words per pattern.
  struct MiningScratch {
    LcpTable lcp;                       ///< SLCP output table
    std::vector<SegmentId> expired;     ///< lazily deleted segments
    std::vector<ObjectId> objects;      ///< distinct probe objects (capped)
    std::vector<uint8_t> owned;         ///< per-object shard ownership flag
    std::vector<uint32_t> live_rows;    ///< LCP rows given a bit position
    std::vector<uint32_t> row_match;    ///< one row's matched object indexes
    std::vector<uint64_t> object_bits;  ///< per-object row bitsets
    std::vector<uint32_t> level_idx;    ///< frequent patterns, stride k
    std::vector<uint64_t> level_bits;   ///< their bitsets, stride words
    std::vector<uint32_t> next_idx;
    std::vector<uint64_t> next_bits;
    std::vector<uint64_t> cand_bits;    ///< one candidate's bitset
    std::vector<uint32_t> subset;       ///< Apriori prune scratch
    std::vector<StreamId> streams;      ///< one candidate's streams
  };

  /// Runs the Apriori pass of Algorithm 4 over the LCP table.
  void MineFromLcps(const Segment& segment, const LcpTable& lcp,
                    std::vector<Fcp>* out);

  MiningParams params_;
  CooMineOptions options_;
  ShardSpec shard_;
  SegTree tree_;
  MinerStats stats_;
  MiningScratch scratch_;
  Timestamp last_sweep_ = kMinTimestamp;
  Timestamp watermark_ = kMinTimestamp;
};

}  // namespace fcp

#endif  // FCP_CORE_COOMINE_H_
