// Stage III job population statistics (Table III machinery).
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <string>
#include <string_view>

#include "analysis/job_stats.h"
#include "common/rng.h"

namespace an = gpures::analysis;
namespace sl = gpures::slurm;
namespace ct = gpures::common;

namespace {

sl::JobRecord rec(std::uint64_t id, const std::string& name,
                  std::int32_t gpus, ct::TimePoint start, ct::Duration len,
                  sl::JobState state = sl::JobState::kCompleted) {
  sl::JobRecord r;
  r.id = id;
  r.name = name;
  r.submit = start - 10;
  r.start = start;
  r.end = start + len;
  r.gpus = gpus;
  r.state = state;
  for (std::int32_t g = 0; g < gpus; ++g) {
    const std::int32_t node = g / 4;
    r.gpu_list.push_back({node, g % 4});
    if (r.node_list.empty() || r.node_list.back() != node) {
      r.node_list.push_back(node);
    }
  }
  r.nodes = static_cast<std::int32_t>(r.node_list.size());
  return r;
}

/// The per-keyword case-insensitive scan is_ml_name used to run, kept as
/// the differential oracle for the lower-once matcher.
bool icontains(std::string_view s, std::string_view needle) {
  if (needle.empty()) return true;
  if (s.size() < needle.size()) return false;
  const auto lower = [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  };
  for (std::size_t i = 0; i + needle.size() <= s.size(); ++i) {
    bool match = true;
    for (std::size_t j = 0; j < needle.size(); ++j) {
      if (lower(s[i + j]) != lower(needle[j])) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

constexpr std::array<std::string_view, 16> kMlKeywords = {
    "train", "model", "bert",  "gpt",   "llm",        "torch",
    "tensorflow", "resnet", "diffusion", "gnn",  "vit_", "unet",
    "finetune", "pretrain", "keras", "rl_"};

bool oracle_is_ml_name(std::string_view name) {
  for (const auto kw : kMlKeywords) {
    if (icontains(name, kw)) return true;
  }
  return false;
}

}  // namespace

TEST(MlClassifier, IcontainsOracleSanity) {
  EXPECT_TRUE(icontains("Train_ResNet", "resnet"));
  EXPECT_FALSE(icontains("vasp_relax", "train"));
  EXPECT_TRUE(icontains("anything", ""));
}

TEST(MlClassifier, MatchesPerKeywordOracle) {
  // Seeded random names over an alphabet dense in keyword letters, both
  // cases, '_' and bytes >= 0x80, with keywords spliced in at random case;
  // lengths straddle the matcher's 256-byte stack buffer.
  constexpr std::string_view kAlphabet =
      "trainmodelbetgpumchsfwvkyTRAINMODELBERTGPUSFKY_-0123";
  gpures::common::Rng rng(20250614);
  std::size_t positives = 0;
  std::size_t long_names = 0;
  constexpr int kNames = 120000;
  for (int i = 0; i < kNames; ++i) {
    const std::size_t len = rng.uniform_u64(8) == 0
                                ? 200 + rng.uniform_u64(120)
                                : rng.uniform_u64(24);
    std::string name;
    name.reserve(len);
    while (name.size() < len) {
      const auto pick = rng.uniform_u64(40);
      if (pick == 0) {
        std::string kw(kMlKeywords[rng.uniform_u64(kMlKeywords.size())]);
        for (auto& c : kw) {
          if (rng.uniform_u64(2) == 0) {
            c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
          }
        }
        // Sometimes drop the last letter: a near miss.
        if (rng.uniform_u64(3) == 0) kw.pop_back();
        name += kw;
      } else if (pick == 1) {
        name += static_cast<char>(0x80 + rng.uniform_u64(0x80));
      } else {
        name += kAlphabet[rng.uniform_u64(kAlphabet.size())];
      }
    }
    const bool want = oracle_is_ml_name(name);
    ASSERT_EQ(an::is_ml_name(name), want) << "name #" << i << ": " << name;
    positives += want;
    long_names += name.size() > 256;
  }
  // Both outcomes and the heap fallback were exercised.
  EXPECT_GT(positives, kNames / 10);
  EXPECT_LT(positives, kNames - kNames / 10);
  EXPECT_GT(long_names, 1000u);
}

TEST(MlClassifier, Keywords) {
  EXPECT_TRUE(an::is_ml_name("train_resnet50_b0_001"));
  EXPECT_TRUE(an::is_ml_name("BERT_finetune"));
  EXPECT_TRUE(an::is_ml_name("my_model_eval"));
  EXPECT_TRUE(an::is_ml_name("llm_pretrain_run"));
  EXPECT_FALSE(an::is_ml_name("namd_md_b0_001"));
  EXPECT_FALSE(an::is_ml_name("vasp_relax"));
  EXPECT_FALSE(an::is_ml_name("cfd_sweep_17"));
  EXPECT_FALSE(an::is_ml_name(""));
}

TEST(GpuBuckets, PaperBoundaries) {
  const auto buckets = an::paper_gpu_buckets();
  ASSERT_EQ(buckets.size(), 8u);
  EXPECT_EQ(buckets[0].label, "1");
  EXPECT_EQ(buckets[0].lo, 1);
  EXPECT_EQ(buckets[0].hi, 1);
  EXPECT_EQ(buckets[1].lo, 2);
  EXPECT_EQ(buckets[1].hi, 4);
  EXPECT_EQ(buckets[2].lo, 5);   // "4-8" is left-exclusive
  EXPECT_EQ(buckets[7].label, "256+");
}

TEST(JobTable, InlineAndSpillStorage) {
  an::JobTable table;
  table.add(rec(1, "a", 2, 1000, 60));    // inline
  table.add(rec(2, "b", 4, 1000, 60));    // inline boundary
  table.add(rec(3, "c", 12, 1000, 60));   // spilled
  ASSERT_EQ(table.jobs.size(), 3u);
  EXPECT_EQ(table.gpus_of(table.jobs[0]).size(), 2u);
  EXPECT_EQ(table.jobs[0].spill_index, -1);
  EXPECT_EQ(table.gpus_of(table.jobs[1]).size(), 4u);
  EXPECT_EQ(table.jobs[1].spill_index, -1);
  EXPECT_EQ(table.gpus_of(table.jobs[2]).size(), 12u);
  EXPECT_GE(table.jobs[2].spill_index, 0);

  std::vector<std::int32_t> nodes;
  table.nodes_of(table.jobs[2], nodes);
  EXPECT_EQ(nodes, (std::vector<std::int32_t>{0, 1, 2}));
}

TEST(JobTable, PackedGpuHelpers) {
  const an::PackedGpu g = an::pack_gpu(52, 3);
  EXPECT_EQ(an::packed_node(g), 52);
  EXPECT_EQ(an::packed_slot(g), 3);
}

TEST(JobStats, BucketAssignmentAndShares) {
  an::JobTable table;
  for (int i = 0; i < 7; ++i) table.add(rec(i, "x", 1, 1000, 60));
  table.add(rec(10, "x", 3, 1000, 60));
  table.add(rec(11, "x", 8, 1000, 60));
  table.add(rec(12, "x", 300, 1000, 60));
  const an::Period window{0, 1000000};
  const auto stats = an::compute_job_stats(table, window);
  EXPECT_EQ(stats.total_jobs, 10u);
  EXPECT_EQ(stats.buckets[0].count, 7u);
  EXPECT_EQ(stats.buckets[1].count, 1u);
  EXPECT_EQ(stats.buckets[2].count, 1u);
  EXPECT_EQ(stats.buckets[7].count, 1u);
  EXPECT_DOUBLE_EQ(stats.buckets[0].share, 0.7);
  EXPECT_DOUBLE_EQ(stats.single_gpu_share, 0.7);
  EXPECT_DOUBLE_EQ(stats.small_multi_gpu_share, 0.1);
  EXPECT_DOUBLE_EQ(stats.large_gpu_share, 0.2);
}

TEST(JobStats, ElapsedStatistics) {
  an::JobTable table;
  table.add(rec(1, "x", 1, 1000, 60));    // 1 min
  table.add(rec(2, "x", 1, 1000, 120));   // 2 min
  table.add(rec(3, "x", 1, 1000, 300));   // 5 min
  const auto stats = an::compute_job_stats(table, {0, 1000000});
  EXPECT_NEAR(stats.buckets[0].mean_minutes, (1 + 2 + 5) / 3.0, 1e-9);
  EXPECT_NEAR(stats.buckets[0].p50_minutes, 2.0, 1e-9);
}

TEST(JobStats, GpuHoursSplitByMl) {
  an::JobTable table;
  table.add(rec(1, "train_resnet", 2, 1000, 3600));  // ML: 2 GPU-hours
  table.add(rec(2, "namd_md", 4, 1000, 3600));       // non-ML: 4 GPU-hours
  const auto stats = an::compute_job_stats(table, {0, 1000000});
  EXPECT_NEAR(stats.buckets[1].ml_gpu_hours, 2.0, 1e-9);
  EXPECT_NEAR(stats.buckets[1].non_ml_gpu_hours, 4.0, 1e-9);
  EXPECT_NEAR(stats.ml_job_share, 0.5, 1e-9);
}

TEST(JobStats, SuccessRate) {
  an::JobTable table;
  table.add(rec(1, "x", 1, 1000, 60, sl::JobState::kCompleted));
  table.add(rec(2, "x", 1, 1000, 60, sl::JobState::kFailed));
  table.add(rec(3, "x", 1, 1000, 60, sl::JobState::kCompleted));
  table.add(rec(4, "x", 1, 1000, 60, sl::JobState::kTimeout));
  const auto stats = an::compute_job_stats(table, {0, 1000000});
  EXPECT_DOUBLE_EQ(stats.success_rate, 0.5);
}

TEST(JobStats, WindowFiltersOnEndTime) {
  an::JobTable table;
  table.add(rec(1, "x", 1, 1000, 60));      // ends 1060
  table.add(rec(2, "x", 1, 5000, 60));      // ends 5060, outside
  const auto stats = an::compute_job_stats(table, {0, 2000});
  EXPECT_EQ(stats.total_jobs, 1u);
}

TEST(JobStats, EmptyTable) {
  an::JobTable table;
  const auto stats = an::compute_job_stats(table, {0, 1000});
  EXPECT_EQ(stats.total_jobs, 0u);
  EXPECT_DOUBLE_EQ(stats.success_rate, 0.0);
}
