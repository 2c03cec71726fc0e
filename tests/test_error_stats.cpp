// Stage II statistics: counts, MTBE, rollups, outlier exclusion, findings.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/error_stats.h"
#include "analysis/reports.h"

namespace an = gpures::analysis;
namespace ct = gpures::common;
namespace gx = gpures::xid;

namespace {

an::CoalescedError err(ct::TimePoint t, std::int32_t node, std::int32_t slot,
                       gx::Code code) {
  an::CoalescedError e;
  e.time = t;
  e.gpu = {node, slot};
  e.code = code;
  e.raw_lines = 2;
  return e;
}

an::StudyPeriods periods() {
  // 10 days pre-op, 20 days op.
  return an::StudyPeriods::make(0, 10 * ct::kDay, 30 * ct::kDay);
}

an::ErrorStatsConfig config() {
  an::ErrorStatsConfig cfg;
  cfg.node_count = 10;
  cfg.outlier_min = 5;
  cfg.outlier_share = 0.5;
  return cfg;
}

}  // namespace

TEST(ErrorStats, CountsAndMtbePerPeriod) {
  std::vector<an::CoalescedError> errors;
  // 4 MMU errors pre-op, 6 op.
  for (int i = 0; i < 4; ++i) {
    errors.push_back(err(i * ct::kDay, i % 3, 0, gx::Code::kMmuError));
  }
  for (int i = 0; i < 6; ++i) {
    errors.push_back(
        err((10 + i) * ct::kDay, i % 4, 1, gx::Code::kMmuError));
  }
  const auto stats = an::compute_error_stats(errors, periods(), config());
  const auto* mmu = stats.find(gx::Code::kMmuError);
  ASSERT_NE(mmu, nullptr);
  EXPECT_EQ(mmu->pre.count, 4u);
  EXPECT_EQ(mmu->op.count, 6u);
  EXPECT_DOUBLE_EQ(mmu->pre.mtbe_system_h, 240.0 / 4.0);
  EXPECT_DOUBLE_EQ(mmu->pre.mtbe_per_node_h, 60.0 * 10);
  EXPECT_DOUBLE_EQ(mmu->op.mtbe_system_h, 480.0 / 6.0);
  EXPECT_EQ(stats.raw_lines_pre, 8u);
  EXPECT_EQ(stats.raw_lines_op, 12u);
}

TEST(ErrorStats, ZeroCountRowsRenderInfiniteMtbe) {
  const auto stats = an::compute_error_stats({}, periods(), config());
  const auto* dbe = stats.find(gx::Code::kDoubleBitEcc);
  ASSERT_NE(dbe, nullptr);
  EXPECT_EQ(dbe->pre.count, 0u);
  EXPECT_TRUE(std::isinf(dbe->pre.mtbe_system_h));
}

TEST(ErrorStats, EventsOutsidePeriodsIgnored) {
  std::vector<an::CoalescedError> errors = {
      err(-5, 0, 0, gx::Code::kMmuError),
      err(31 * ct::kDay, 0, 0, gx::Code::kMmuError),
  };
  const auto stats = an::compute_error_stats(errors, periods(), config());
  EXPECT_EQ(stats.find(gx::Code::kMmuError)->pre.count, 0u);
  EXPECT_EQ(stats.find(gx::Code::kMmuError)->op.count, 0u);
}

TEST(ErrorStats, DerivedUncorrectableRowIsRrePlusRrf) {
  std::vector<an::CoalescedError> errors;
  for (int i = 0; i < 3; ++i) {
    errors.push_back(err(i * ct::kHour, 0, 0, gx::Code::kRowRemapEvent));
  }
  errors.push_back(err(5 * ct::kHour, 0, 0, gx::Code::kRowRemapFailure));
  const auto stats = an::compute_error_stats(errors, periods(), config());
  EXPECT_EQ(stats.uncorrectable_ecc.pre.count, 4u);
  EXPECT_EQ(stats.uncorrectable_ecc.op.count, 0u);
}

TEST(ErrorStats, CategoryRollupsFollowPaperConvention) {
  std::vector<an::CoalescedError> errors = {
      err(ct::kHour, 0, 0, gx::Code::kMmuError),          // hardware
      err(2 * ct::kHour, 0, 0, gx::Code::kGspRpcTimeout), // hardware
      err(3 * ct::kHour, 0, 0, gx::Code::kNvlinkError),   // interconnect
      err(4 * ct::kHour, 0, 0, gx::Code::kRowRemapEvent), // memory
      err(5 * ct::kHour, 0, 0, gx::Code::kContainedEccError),  // memory
  };
  const auto stats = an::compute_error_stats(errors, periods(), config());
  EXPECT_EQ(stats.by_category.at(gx::Category::kHardware).pre.count, 2u);
  EXPECT_EQ(stats.by_category.at(gx::Category::kInterconnect).pre.count, 1u);
  // Memory = RRE + contained + derived uncorrectable (1 RRE) = 3.
  EXPECT_EQ(stats.by_category.at(gx::Category::kMemory).pre.count, 3u);
  EXPECT_EQ(stats.non_memory.pre.count, 3u);
  // Total includes the derived row once: 5 + 1.
  EXPECT_EQ(stats.total.pre.count, 6u);
}

TEST(ErrorStats, OutlierDetectionAndExclusion) {
  std::vector<an::CoalescedError> errors;
  // One faulty GPU produces 100 uncontained errors pre-op; background adds 3
  // from other GPUs.
  for (int i = 0; i < 100; ++i) {
    errors.push_back(err(1000 + i * 40, 7, 1, gx::Code::kUncontainedEccError));
  }
  for (int i = 0; i < 3; ++i) {
    errors.push_back(err(2000 + i * 997, i, 0, gx::Code::kUncontainedEccError));
  }
  const auto stats = an::compute_error_stats(errors, periods(), config());
  ASSERT_EQ(stats.outliers.size(), 1u);
  EXPECT_EQ(stats.outliers[0].gpu, (gx::GpuId{7, 1}));
  EXPECT_EQ(stats.outliers[0].count, 100u);
  EXPECT_GT(stats.outliers[0].share, 0.9);
  // The per-code row keeps the raw count; the aggregate excludes the outlier.
  EXPECT_EQ(stats.find(gx::Code::kUncontainedEccError)->pre.count, 103u);
  EXPECT_EQ(stats.total.pre.count, 3u);
  EXPECT_EQ(stats.total_with_outliers.pre.count, 103u);
}

TEST(ErrorStats, OutlierBelowThresholdNotFlagged) {
  std::vector<an::CoalescedError> errors;
  for (int i = 0; i < 4; ++i) {  // below outlier_min = 5
    errors.push_back(err(1000 + i * 40, 7, 1, gx::Code::kUncontainedEccError));
  }
  const auto stats = an::compute_error_stats(errors, periods(), config());
  EXPECT_TRUE(stats.outliers.empty());
  EXPECT_EQ(stats.total.pre.count, 4u);
}

TEST(ErrorStats, OutlierThresholdsAreInclusive) {
  // Two GPUs with exactly outlier_min (5) errors each and exactly
  // outlier_share (0.5) of the family are both outliers; four errors are
  // not.
  std::vector<an::CoalescedError> errors;
  for (int i = 0; i < 5; ++i) {
    errors.push_back(err(1000 + i * 40, 7, 1, gx::Code::kUncontainedEccError));
    errors.push_back(err(2000 + i * 40, 3, 0, gx::Code::kUncontainedEccError));
  }
  for (int i = 0; i < 4; ++i) {
    errors.push_back(err(11 * ct::kDay + i * 40, 2, 2, gx::Code::kMmuError));
  }
  const auto stats = an::compute_error_stats(errors, periods(), config());
  ASSERT_EQ(stats.outliers.size(), 2u);
  EXPECT_EQ(stats.outliers[0].gpu, (gx::GpuId{3, 0}));
  EXPECT_EQ(stats.outliers[1].gpu, (gx::GpuId{7, 1}));
  EXPECT_EQ(stats.outliers[0].share, 0.5);
  EXPECT_EQ(stats.total.pre.count, 0u);
  EXPECT_EQ(stats.total.op.count, 4u);
}

TEST(ErrorStats, FindingsMath) {
  std::vector<an::CoalescedError> errors;
  // Pre: 2 GSP errors; op: 20 GSP errors -> per-node MTBE ratio:
  // (240h/2*10) / (480h/20*10) = 1200 / 240 = 5x.
  for (int i = 0; i < 2; ++i) {
    errors.push_back(err(i * ct::kDay, 0, 0, gx::Code::kGspRpcTimeout));
  }
  for (int i = 0; i < 20; ++i) {
    // Spread across GPUs so the outlier detector (share >= 0.5) stays quiet.
    errors.push_back(err((10 + i % 19) * ct::kDay + i, i % 7, 0,
                         gx::Code::kGspRpcTimeout));
  }
  const auto stats = an::compute_error_stats(errors, periods(), config());
  EXPECT_NEAR(stats.gsp_degradation_ratio(), 5.0, 1e-9);
  // MTBE degradation: pre 1200 h vs op 240 h -> 80%.
  EXPECT_NEAR(stats.mtbe_degradation_fraction(), 0.8, 1e-9);
}

TEST(ErrorStats, MemoryReliabilityRatio) {
  std::vector<an::CoalescedError> errors;
  // Op: 1 memory error, 10 hardware errors -> ratio ~ (with derived row the
  // memory count doubles: RRE adds uncorrectable too) memory 2, non-mem 10.
  errors.push_back(err(11 * ct::kDay, 0, 0, gx::Code::kRowRemapEvent));
  for (int i = 0; i < 10; ++i) {
    errors.push_back(err((12 + i % 17) * ct::kDay + i, i % 6, 0,
                         gx::Code::kMmuError));
  }
  const auto stats = an::compute_error_stats(errors, periods(), config());
  // memory MTBE = 480/2*10, hardware = 480/10*10 -> ratio = 5.
  EXPECT_NEAR(stats.memory_reliability_ratio_op(), 5.0, 1e-9);
}

TEST(ErrorStats, ReportOrderPreserved) {
  const auto stats = an::compute_error_stats({}, periods(), config());
  ASSERT_EQ(stats.by_code.size(), gx::report_order().size());
  for (std::size_t i = 0; i < stats.by_code.size(); ++i) {
    EXPECT_EQ(stats.by_code[i].code, gx::report_order()[i]);
  }
}

TEST(ErrorStats, TiedOutliersListInGpuThenCodeOrder) {
  // Three outliers: 12 GSP errors on GPU (4, 0) pre-op, then two tied at 8
  // -- MMU on GPU (2, 1) in op and XID 95 on GPU (6, 2) pre-op.  Ties list
  // in (GPU, code) order across both periods, so the op outlier on the
  // lower GPU comes first.  The text is pinned as the map-based tally
  // printed it.
  std::vector<an::CoalescedError> errors;
  for (int i = 0; i < 8; ++i) {
    errors.push_back(
        err(ct::kHour + i * 600, 6, 2, gx::Code::kUncontainedEccError));
    errors.push_back(err(12 * ct::kDay + i * 600, 2, 1, gx::Code::kMmuError));
  }
  for (int i = 0; i < 12; ++i) {
    errors.push_back(
        err(2 * ct::kDay + i * 600, 4, 0, gx::Code::kGspRpcTimeout));
  }
  errors.push_back(err(3 * ct::kDay, 1, 0, gx::Code::kUncontainedEccError));
  errors.push_back(err(4 * ct::kDay, 9, 3, gx::Code::kUncontainedEccError));
  for (int i = 0; i < 3; ++i) {
    errors.push_back(err((13 + i) * ct::kDay, 7, i, gx::Code::kMmuError));
  }
  const auto stats = an::compute_error_stats(errors, periods(), config());
  ASSERT_EQ(stats.outliers.size(), 3u);
  EXPECT_EQ(an::render_findings(stats),
            R"(Per-node MTBE: pre-op 1200 h -> op 1600 h (-33% degradation; paper: 199 h -> 154 h, 23%)
Memory vs GPU-hardware per-node MTBE ratio (op): 0x (paper: ~160x; inf h vs 436 h)
GSP per-node MTBE degradation pre->op: 0.0x (paper: 5.6x)
Coalescing: 44 raw pre-op lines -> 22 errors (x2.0); 22 raw op lines -> 11 errors (x2.0)
Outlier: GPU (node 4, slot 0) produced 12 XID 119/120 GSP Err. errors (100% of the family) in the pre-operational period
Outlier: GPU (node 2, slot 1) produced 8 XID 31 MMU Err. errors (73% of the family) in the operational period
Outlier: GPU (node 6, slot 2) produced 8 XID 95 Uncontained errors (80% of the family) in the pre-operational period
)");
  EXPECT_EQ(an::render_table1(stats),
            R"(+-----------------------------+--------------+--------------+----------+-----------------+------------------+----------------+-----------------+
| Event                       | Category     | Pre-op count | Op count | Pre sys MTBE(h) | Pre node MTBE(h) | Op sys MTBE(h) | Op node MTBE(h) |
+-----------------------------+--------------+--------------+----------+-----------------+------------------+----------------+-----------------+
| XID 31 MMU Err.             | Hardware     |            0 |       11 |               - |                - |             44 |             436 |
| XID 48 DBE                  | Memory       |            0 |        0 |               - |                - |              - |               - |
| XID 63 RRE                  | Memory       |            0 |        0 |               - |                - |              - |               - |
| XID 64 RRF                  | Memory       |            0 |        0 |               - |                - |              - |               - |
| XID 74 NVLink Err.          | Interconnect |            0 |        0 |               - |                - |              - |               - |
| XID 79 Off-Bus              | Hardware     |            0 |        0 |               - |                - |              - |               - |
| XID 94 Contained            | Memory       |            0 |        0 |               - |                - |              - |               - |
| XID 95 Uncontained          | Memory       |           10 |        0 |              24 |              240 |              - |               - |
| XID 119/120 GSP Err.        | Hardware     |           12 |        0 |              20 |              200 |              - |               - |
| XID 122/123 PMU SPI Err.    | Hardware     |            0 |        0 |               - |                - |              - |               - |
+-----------------------------+--------------+--------------+----------+-----------------+------------------+----------------+-----------------+
| Uncorrectable ECC (RRE+RRF) | Memory       |            0 |        0 |               - |                - |              - |               - |
+-----------------------------+--------------+--------------+----------+-----------------+------------------+----------------+-----------------+
| All Hardware                | Hardware     |           12 |       11 |              20 |              200 |             44 |             436 |
| All Memory                  | Memory       |           10 |        0 |              24 |              240 |              - |               - |
| All non-memory (HW+NVLink)  | -            |           12 |       11 |              20 |              200 |             44 |             436 |
+-----------------------------+--------------+--------------+----------+-----------------+------------------+----------------+-----------------+
| TOTAL (outliers excluded)   | -            |            2 |        3 |             120 |            1,200 |            160 |           1,600 |
| TOTAL (incl. outliers)      | -            |           22 |       11 |              11 |              109 |             44 |             436 |
+-----------------------------+--------------+--------------+----------+-----------------+------------------+----------------+-----------------+
)");
}
