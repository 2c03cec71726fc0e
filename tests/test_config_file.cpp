// Campaign config files: parsing, overrides, validation, error reporting.
#include <gtest/gtest.h>

#include "analysis/config_file.h"

namespace an = gpures::analysis;
namespace ct = gpures::common;

TEST(ConfigFile, AppliesOverrides) {
  const auto base = an::CampaignConfig::quick();
  const auto result = an::apply_config_text(
      "# scenario: reliable GSP\n"
      "seed = 99\n"
      "faults.gsp.op_count = 10.5   # trailing comment\n"
      "faults.recovery.reboot_lognormal_mu = -1.25\n"
      "workload.op_jobs = 5000\n"
      "failure.p_mmu = 0.5\n"
      "with_jobs = false\n"
      "pipeline.coalesce_window = 45\n"
      "\n",
      base);
  ASSERT_TRUE(result.ok()) << result.error().message;
  const auto& c = result.value();
  EXPECT_EQ(c.seed, 99u);
  EXPECT_DOUBLE_EQ(c.faults.gsp.op_count, 10.5);
  EXPECT_DOUBLE_EQ(c.faults.recovery.reboot_lognormal_mu, -1.25);
  EXPECT_DOUBLE_EQ(c.workload.op_jobs, 5000.0);
  EXPECT_DOUBLE_EQ(c.failure.p_mmu, 0.5);
  EXPECT_FALSE(c.with_jobs);
  EXPECT_EQ(c.pipeline.coalescer.window, 45);
  // Untouched fields keep base values.
  EXPECT_DOUBLE_EQ(c.faults.mmu.op_count, base.faults.mmu.op_count);
}

TEST(ConfigFile, DatesParse) {
  const auto result = an::apply_config_text(
      "faults.study_begin = 2023-01-01\n"
      "faults.op_begin = 2023-03-01\n"
      "faults.study_end = 2023-06-01\n",
      an::CampaignConfig::quick());
  // The quick config's episodes fall inside Jan-Apr 2023, so this window is
  // still consistent.
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result.value().faults.study_begin, ct::make_date(2023, 1, 1));
  EXPECT_EQ(result.value().faults.study_end, ct::make_date(2023, 6, 1));
}

TEST(ConfigFile, UnknownKeyRejectedWithLineNumber) {
  const auto result = an::apply_config_text("\n\nfaults.gps.op_count = 1\n",
                                            an::CampaignConfig::quick());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("line 3"), std::string::npos);
  EXPECT_NE(result.error().message.find("faults.gps.op_count"),
            std::string::npos);
}

TEST(ConfigFile, BadValuesRejected) {
  EXPECT_FALSE(an::apply_config_text("seed = banana\n",
                                     an::CampaignConfig::quick())
                   .ok());
  EXPECT_FALSE(an::apply_config_text("with_jobs = maybe\n",
                                     an::CampaignConfig::quick())
                   .ok());
  EXPECT_FALSE(an::apply_config_text("faults.study_begin = soon\n",
                                     an::CampaignConfig::quick())
                   .ok());
  EXPECT_FALSE(an::apply_config_text("just a line\n",
                                     an::CampaignConfig::quick())
                   .ok());
}

TEST(ConfigFile, ResultValidated) {
  // A negative count passes parsing but fails FaultConfig::validate.
  const auto result = an::apply_config_text("faults.gsp.op_count = -5\n",
                                            an::CampaignConfig::quick());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("config:"), std::string::npos);
}

TEST(ConfigFile, SupportedKeysListed) {
  const auto keys = an::supported_config_keys();
  EXPECT_GT(keys.size(), 30u);
  EXPECT_NE(std::find(keys.begin(), keys.end(), "faults.gsp.op_count"),
            keys.end());
  EXPECT_NE(std::find(keys.begin(), keys.end(), "workload.op_jobs"),
            keys.end());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(ConfigFile, DrivesCampaignBehaviourEndToEnd) {
  // Zero the GSP family through a config file and verify the campaign
  // produces no GSP errors while others still flow.
  const auto base = [] {
    auto c = an::CampaignConfig::quick();
    c.with_jobs = false;
    return c;
  }();
  const auto cfg = an::apply_config_text(
      "faults.gsp.pre_count = 0\n"
      "faults.gsp.op_count = 0\n"
      "noise_lines_per_day = 0\n",
      base);
  ASSERT_TRUE(cfg.ok()) << cfg.error().message;
  an::DeltaCampaign campaign(cfg.value());
  campaign.run();
  bool saw_gsp = false;
  bool saw_other = false;
  for (const auto& e : campaign.pipeline().errors()) {
    if (e.code == gpures::xid::Code::kGspRpcTimeout) saw_gsp = true;
    if (e.code == gpures::xid::Code::kMmuError) saw_other = true;
  }
  EXPECT_FALSE(saw_gsp);
  EXPECT_TRUE(saw_other);
  EXPECT_EQ(  // no noise
      campaign.pipeline().metrics().counter_value("pipe.rejected_lines"), 0u);
}

TEST(ConfigFile, MissingFileReported) {
  EXPECT_FALSE(
      an::load_config_file("/nonexistent/path.conf", an::CampaignConfig::quick())
          .ok());
}
