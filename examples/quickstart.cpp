// Quickstart: run a small 90-day campaign end to end and print the
// recovered statistics.
//
// This exercises the full reproduction loop:
//   cluster simulator -> raw syslog + sacct text -> Stage I extraction ->
//   Stage II coalescing / MTBE -> Stage III job impact & availability.
#include <cstdio>

#include "analysis/campaign.h"
#include "analysis/reports.h"

int main() {
  using namespace gpures;

  analysis::CampaignConfig cfg = analysis::CampaignConfig::quick();
  cfg.seed = 7;

  analysis::DeltaCampaign campaign(cfg);
  campaign.set_progress([](int day, int total) {
    std::printf("\rsimulating day %d/%d", day, total);
    std::fflush(stdout);
  });
  campaign.run();
  std::printf("\n");

  const auto& pipe = campaign.pipeline();
  const auto count = [&pipe](const char* name) {
    return static_cast<unsigned long long>(pipe.metrics().counter_value(name));
  };
  std::printf("raw log lines: %llu (xid records %llu, lifecycle %llu, "
              "rejected %llu)\n",
              count("pipe.log_lines"), count("pipe.xid_records"),
              count("pipe.lifecycle_records"), count("pipe.rejected_lines"));
  std::printf("coalesced errors: %zu (ground truth: %zu)\n",
              pipe.errors().size(), campaign.ground_truth().errors.size());
  std::printf("jobs: %zu (killed by GPU errors: %llu)\n\n",
              pipe.jobs().jobs.size(),
              static_cast<unsigned long long>(campaign.jobs_killed_by_errors()));

  const auto stats = pipe.error_stats();
  std::printf("%s\n", analysis::render_table1(stats).c_str());
  std::printf("%s\n", analysis::render_findings(stats).c_str());
  std::printf("%s\n", analysis::render_table2(pipe.job_impact()).c_str());
  std::printf("%s\n", analysis::render_table3(pipe.job_stats()).c_str());
  std::printf("%s\n",
              analysis::render_fig2(pipe.availability(), pipe.mttf_estimate_h())
                  .c_str());
  return 0;
}
