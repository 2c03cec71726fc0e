// Stage II statistics: error counts and mean time between errors (MTBE),
// per XID family and per period, with category rollups and automatic
// detection of single-GPU outliers (the paper excludes the one faulty GPU's
// 38.9k uncontained errors from the aggregate pre-op MTBE).  tally_errors
// holds the outlier rule and the aggregate once, for batch and the index
// query alike.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "analysis/coalesce.h"
#include "analysis/periods.h"
#include "xid/xid.h"

namespace gpures::analysis {

/// Count + MTBE pair for one period.
struct PeriodStats {
  std::uint64_t count = 0;
  double mtbe_system_h = 0.0;   ///< observation hours / count (inf if 0)
  double mtbe_per_node_h = 0.0; ///< system MTBE x node count
};

/// The Table I cell for `count` errors over `hours` on `nodes` nodes.
PeriodStats period_stats(std::uint64_t count, double hours,
                         std::int32_t nodes);

/// Table I row for one reported XID family.
struct CodeStats {
  xid::Code code;
  PeriodStats pre;
  PeriodStats op;
};

/// A (GPU, code, period) cell flagged as an outlier: one GPU producing an
/// overwhelming share of a family's errors in a period.
struct Outlier {
  xid::GpuId gpu;
  xid::Code code;
  PeriodId period;
  std::uint64_t count = 0;
  double share = 0.0;  ///< of the family's errors in that period
};

struct ErrorStatsConfig {
  std::int32_t node_count = 106;
  /// Flag a (GPU, code, period) as outlier when one GPU contributes at least
  /// this share of the family's period errors and at least `outlier_min`
  /// errors.
  double outlier_share = 0.5;
  std::uint64_t outlier_min = 1000;
  /// Exclude flagged outliers from the aggregate (all-error) MTBE, as the
  /// paper does for the pre-op faulty GPU.
  bool exclude_outliers_from_totals = true;
};

/// Slots of ErrorTally::count: every tracked XID number (xid::catalog())
/// is below it.
inline constexpr std::size_t kTallySlots = 128;
static_assert(xid::to_number(xid::Code::kPmuCommunicationError) < kTallySlots,
              "the largest tracked XID number must index the tally");

/// One window's Stage II aggregate.  Untracked codes count nowhere.
struct ErrorTally {
  /// Errors per tracked XID number.
  std::array<std::uint64_t, kTallySlots> count{};
  /// GPUs with at least `outlier_min` errors of a code and at least
  /// `outlier_share` of that code's count (both inclusive), in (GPU, code)
  /// order.  `period` is left for the caller to set.
  std::vector<Outlier> outliers;
  /// Every tracked code's count, plus the derived RRE + RRF row once more.
  std::uint64_t total_with_outliers = 0;
  /// Less the outliers' errors when the config excludes them.
  std::uint64_t total = 0;
};

/// Fold one window's errors, given as parallel columns of XID numbers and
/// packed GPUs; with `node`, only that node's are in scope.  Only a code
/// reaching `outlier_min` can hold an outlier, so only its GPUs are sorted.
ErrorTally tally_errors(std::span<const std::uint16_t> codes,
                        std::span<const std::int32_t> gpus,
                        std::optional<std::int32_t> node,
                        const ErrorStatsConfig& cfg);

struct ErrorStats {
  StudyPeriods periods;
  ErrorStatsConfig cfg;

  /// Rows in the paper's Table I order; the derived "uncorrectable ECC"
  /// row (RRE + RRF) is reported separately below.
  std::vector<CodeStats> by_code;
  CodeStats uncorrectable_ecc;  ///< derived: RRE + RRF

  /// Category rollups (hardware / interconnect / memory).
  std::map<xid::Category, CodeStats> by_category;
  /// Non-memory rollup (hardware + interconnect) — the paper's "GPU
  /// hardware" side of the 160x memory-reliability comparison.
  CodeStats non_memory;

  /// Aggregate over all tracked errors (outliers excluded per config).
  CodeStats total;
  /// Aggregate including outliers (for transparency).
  CodeStats total_with_outliers;

  std::vector<Outlier> outliers;

  /// Raw log lines represented by the coalesced errors, per period
  /// (shows the de-duplication factor of Stage II).
  std::uint64_t raw_lines_pre = 0;
  std::uint64_t raw_lines_op = 0;

  // --- headline derived findings ---
  /// Per-node MTBE degradation op vs pre (paper: ~23% worse).
  double mtbe_degradation_fraction() const;
  /// Memory vs non-memory per-node MTBE ratio in op (paper: ~160x).
  double memory_reliability_ratio_op() const;
  /// GSP per-node MTBE ratio pre/op (paper: ~5.6x worse in op).
  double gsp_degradation_ratio() const;

  const CodeStats* find(xid::Code code) const;
};

/// Compute statistics from coalesced errors (any order).
ErrorStats compute_error_stats(const std::vector<CoalescedError>& errors,
                               const StudyPeriods& periods,
                               const ErrorStatsConfig& cfg);

}  // namespace gpures::analysis
