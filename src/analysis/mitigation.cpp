#include "analysis/mitigation.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/table.h"

namespace gpures::analysis {

LostWork compute_lost_work(const JobTable& table,
                           std::span<const JobExposure> exposures,
                           const JobImpactConfig& cfg) {
  LostWork out;
  for (const auto& j : table.jobs) {
    if (!cfg.period.contains(j.end)) continue;
    out.total_gpu_hours += j.gpu_hours();
  }
  for (const auto& exp : exposures) {
    if (!exp.gpu_failed) continue;
    ++out.gpu_failed_jobs;
    out.lost_gpu_hours += table.jobs[exp.job_index].gpu_hours();
  }
  if (out.total_gpu_hours > 0.0) {
    out.lost_fraction = out.lost_gpu_hours / out.total_gpu_hours;
  }
  return out;
}

CheckpointSweep sweep_checkpoint_interval(
    const JobTable& table, std::span<const JobExposure> exposures,
    const JobImpactConfig& cfg, const std::vector<double>& intervals_h,
    double checkpoint_cost_h, double restore_cost_h) {
  CheckpointSweep sweep;
  sweep.checkpoint_cost_h = checkpoint_cost_h;

  // Collect failed-job (elapsed_h, gpus) pairs and total per-job runtime for
  // the overhead term.
  struct FailedJob {
    double elapsed_h;
    double gpus;
  };
  std::vector<FailedJob> failures;
  double all_jobs_gpu_weighted_runtime_h = 0.0;  // sum elapsed_h * gpus
  for (const auto& j : table.jobs) {
    if (!cfg.period.contains(j.end)) continue;
    all_jobs_gpu_weighted_runtime_h +=
        common::to_hours(j.end - j.start) * static_cast<double>(j.gpus);
  }
  for (const auto& exp : exposures) {
    if (!exp.gpu_failed) continue;
    const auto& j = table.jobs[exp.job_index];
    failures.push_back({common::to_hours(j.end - j.start),
                        static_cast<double>(j.gpus)});
    sweep.no_checkpoint_waste +=
        common::to_hours(j.end - j.start) * static_cast<double>(j.gpus);
  }

  sweep.best_waste = std::numeric_limits<double>::infinity();
  for (const double c : intervals_h) {
    CheckpointPoint p;
    p.interval_h = c;
    for (const auto& f : failures) {
      // Work since the last checkpoint is lost: expected c/2 when the job
      // ran longer than a full interval, else half its runtime; plus the
      // restart/restore cost.
      const double recompute = 0.5 * std::min(f.elapsed_h, c) + restore_cost_h;
      p.recompute_gpu_hours += recompute * f.gpus;
    }
    // Every job pays (elapsed / c) checkpoints of `checkpoint_cost_h` each.
    p.overhead_gpu_hours =
        c > 0.0 ? all_jobs_gpu_weighted_runtime_h / c * checkpoint_cost_h : 0.0;
    p.wasted_gpu_hours = p.recompute_gpu_hours + p.overhead_gpu_hours;
    if (p.wasted_gpu_hours < sweep.best_waste) {
      sweep.best_waste = p.wasted_gpu_hours;
      sweep.best_interval_h = c;
    }
    sweep.points.push_back(p);
  }
  return sweep;
}

MaskingWhatIf compute_masking_whatif(const JobTable& table,
                                     std::span<const JobExposure> exposures,
                                     const JobImpactConfig& /*cfg*/,
                                     const std::vector<xid::Code>& maskable) {
  std::uint32_t maskable_mask = 0;
  for (const auto code : maskable) {
    const int bit = exposure_bit(code);
    if (bit >= 0) maskable_mask |= 1u << static_cast<std::uint32_t>(bit);
  }
  MaskingWhatIf out;
  for (const auto& exp : exposures) {
    if (!exp.gpu_failed) continue;
    ++out.gpu_failed_jobs;
    // Maskable iff every error family in the attribution window could have
    // been absorbed by the application-level handler.
    if ((exp.window_mask & ~maskable_mask) == 0) {
      ++out.maskable_jobs;
      out.recoverable_gpu_hours += table.jobs[exp.job_index].gpu_hours();
    }
  }
  if (out.gpu_failed_jobs > 0) {
    out.maskable_fraction = static_cast<double>(out.maskable_jobs) /
                            static_cast<double>(out.gpu_failed_jobs);
  }
  return out;
}

std::string render_mitigation(const JobTable& table,
                              std::span<const JobExposure> exposures,
                              const JobImpactConfig& cfg) {
  std::string out;
  char buf[256];

  const auto lost = compute_lost_work(table, exposures, cfg);
  std::snprintf(buf, sizeof(buf),
                "Lost work: %s GPU-failed jobs wasted %.0f GPU-hours "
                "(%.3f%% of %.0f total GPU-hours)\n",
                common::fmt_int(lost.gpu_failed_jobs).c_str(),
                lost.lost_gpu_hours, lost.lost_fraction * 100.0,
                lost.total_gpu_hours);
  out += buf;

  const auto sweep = sweep_checkpoint_interval(
      table, exposures, cfg, {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 24.0});
  common::AsciiTable t({"checkpoint interval (h)", "recompute (GPU-h)",
                        "overhead (GPU-h)", "total waste (GPU-h)"});
  for (const auto& p : sweep.points) {
    t.add_row({common::fmt_fixed(p.interval_h, 2),
               common::fmt_fixed(p.recompute_gpu_hours, 0),
               common::fmt_fixed(p.overhead_gpu_hours, 0),
               common::fmt_fixed(p.wasted_gpu_hours, 0)});
  }
  out += "\nCheckpoint-interval sweep (vs ";
  out += common::fmt_fixed(sweep.no_checkpoint_waste, 0);
  out += " GPU-hours lost with no checkpointing):\n";
  out += t.render();
  std::snprintf(buf, sizeof(buf),
                "best interval ~%.2f h -> %.0f GPU-hours wasted (%.0f%% "
                "reduction)\n",
                sweep.best_interval_h, sweep.best_waste,
                sweep.no_checkpoint_waste > 0.0
                    ? (1.0 - sweep.best_waste / sweep.no_checkpoint_waste) *
                          100.0
                    : 0.0);
  out += buf;

  const auto mask = compute_masking_whatif(table, exposures, cfg);
  std::snprintf(buf, sizeof(buf),
                "\nException-handling what-if: %s of %s GPU-failed jobs "
                "(%.0f%%) saw only MMU errors in the window — the upper "
                "bound application-level handlers could absorb (%.0f "
                "GPU-hours)\n",
                common::fmt_int(mask.maskable_jobs).c_str(),
                common::fmt_int(mask.gpu_failed_jobs).c_str(),
                mask.maskable_fraction * 100.0, mask.recoverable_gpu_hours);
  out += buf;
  return out;
}

std::string render_mitigation(const JobTable& table,
                              const std::vector<CoalescedError>& errors,
                              const JobImpactConfig& cfg,
                              common::ThreadPool* pool) {
  return render_mitigation(
      table,
      compute_exposures(table, build_error_index(errors, cfg.period).view(),
                        cfg, pool),
      cfg);
}

}  // namespace gpures::analysis
