// Full paper-scale reproduction: simulate the Delta A100 partition over the
// complete 1170-day measurement window (106 nodes, 448 GPUs, ~1.4M GPU jobs,
// ~3M raw log lines) and regenerate every table and figure of the study from
// the raw artifacts.
//
//   ./delta_campaign [seed]
//
// Runtime is a minute or two; progress is printed as days simulate.
#include <cstdio>
#include <cstdlib>

#include "analysis/campaign.h"
#include "analysis/mitigation.h"
#include "analysis/reports.h"

int main(int argc, char** argv) {
  using namespace gpures;

  analysis::CampaignConfig cfg = analysis::CampaignConfig::delta_a100();
  if (argc > 1) cfg.seed = static_cast<std::uint64_t>(std::atoll(argv[1]));

  std::printf("Delta A100 reproduction campaign: %d nodes / %d GPUs, "
              "%s .. %s (op from %s), seed %llu\n",
              cfg.spec.node_count(), cfg.spec.total_gpus(),
              common::format_date(cfg.faults.study_begin).c_str(),
              common::format_date(cfg.faults.study_end).c_str(),
              common::format_date(cfg.faults.op_begin).c_str(),
              static_cast<unsigned long long>(cfg.seed));

  analysis::DeltaCampaign campaign(cfg);
  campaign.set_progress([](int day, int total) {
    std::printf("\rsimulating day %4d/%d", day, total);
    std::fflush(stdout);
  });
  campaign.run();
  std::printf("\n\n");

  const auto& pipe = campaign.pipeline();
  const auto count = [&pipe](const char* name) {
    return static_cast<unsigned long long>(pipe.metrics().counter_value(name));
  };
  std::printf("Stage I : %llu raw lines -> %llu XID records, %llu lifecycle "
              "records (%llu rejected, %llu unknown hosts)\n",
              count("pipe.log_lines"), count("pipe.xid_records"),
              count("pipe.lifecycle_records"), count("pipe.rejected_lines"),
              count("pipe.unknown_hosts"));
  std::printf("Stage II: %zu coalesced errors (simulator ground truth: %zu)\n",
              pipe.errors().size(), campaign.ground_truth().errors.size());
  std::printf("Jobs    : %zu records; %llu killed directly by GPU errors\n\n",
              pipe.jobs().jobs.size(),
              static_cast<unsigned long long>(campaign.jobs_killed_by_errors()));

  const auto stats = pipe.error_stats();
  std::printf("=== Table I: GPU resilience statistics ===\n%s\n",
              analysis::render_table1(stats).c_str());
  std::printf("=== Findings (Section IV) ===\n%s\n",
              analysis::render_findings(stats).c_str());
  std::printf("=== Table II: GPU error -> job failure ===\n%s\n",
              analysis::render_table2(pipe.job_impact()).c_str());
  std::printf("=== Table III: job population ===\n%s\n",
              analysis::render_table3(pipe.job_stats()).c_str());
  std::printf("=== Fig. 2 + availability (Section V-C) ===\n%s\n",
              analysis::render_fig2(pipe.availability(), pipe.mttf_estimate_h())
                  .c_str());

  analysis::JobImpactConfig icfg;
  icfg.window = 20;
  icfg.period = campaign.periods().op;
  std::printf("=== Mitigation what-ifs (Section V-B) ===\n%s\n",
              analysis::render_mitigation(pipe.jobs(), pipe.errors(), icfg)
                  .c_str());
  return 0;
}
