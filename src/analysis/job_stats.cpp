#include "analysis/job_stats.h"

#include <algorithm>
#include <array>

namespace gpures::analysis {

std::span<const PackedGpu> JobTable::gpus_of(const JobView& j) const {
  if (j.spill_index >= 0) {
    const auto& v = spill[static_cast<std::size_t>(j.spill_index)];
    return {v.data(), v.size()};
  }
  return {j.gpus_inline.data(), static_cast<std::size_t>(j.inline_count)};
}

void JobTable::nodes_of(const JobView& j, std::vector<std::int32_t>& out) const {
  out.clear();
  for (const PackedGpu g : gpus_of(j)) {
    const std::int32_t node = packed_node(g);
    if (std::find(out.begin(), out.end(), node) == out.end()) {
      out.push_back(node);
    }
  }
}

JobView JobTable::convert(const slurm::JobRecord& rec,
                         std::vector<std::vector<PackedGpu>>& spill) {
  JobView v;
  v.id = rec.id;
  v.start = rec.start;
  v.end = rec.end;
  v.gpus = rec.gpus;
  v.state = rec.state;
  v.is_ml = is_ml_name(rec.name);
  // Jobs with <= 4 GPUs (nearly all of them) pack straight into the inline
  // slots; only wide jobs build a spill vector.
  if (rec.gpu_list.size() <= v.gpus_inline.size()) {
    v.inline_count = static_cast<std::uint8_t>(rec.gpu_list.size());
    for (std::size_t i = 0; i < rec.gpu_list.size(); ++i) {
      v.gpus_inline[i] = pack_gpu(rec.gpu_list[i].node, rec.gpu_list[i].slot);
    }
  } else {
    std::vector<PackedGpu> packed;
    packed.reserve(rec.gpu_list.size());
    for (const auto& g : rec.gpu_list) packed.push_back(pack_gpu(g.node, g.slot));
    v.spill_index = static_cast<std::int32_t>(spill.size());
    spill.push_back(std::move(packed));
  }
  return v;
}

bool is_ml_name(std::string_view name) {
  static constexpr std::array<std::string_view, 16> kKeywords = {
      "train", "model", "bert",  "gpt",   "llm",        "torch",
      "tensorflow", "resnet", "diffusion", "gnn",  "vit_", "unet",
      "finetune", "pretrain", "keras", "rl_"};
  // Lower-case the name once (ASCII A-Z only: exactly std::tolower in the
  // "C" locale, which is the only locale the tools run in), then one plain
  // find per keyword.  Names longer than the stack buffer are rare.
  constexpr std::size_t kStackBytes = 256;
  char stack_buf[kStackBytes];
  std::string heap_buf;
  char* lower = stack_buf;
  if (name.size() > kStackBytes) {
    heap_buf.resize(name.size());
    lower = heap_buf.data();
  }
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    lower[i] = (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
  }
  const std::string_view lowered(lower, name.size());
  for (const auto kw : kKeywords) {
    if (lowered.find(kw) != std::string_view::npos) return true;
  }
  return false;
}

std::vector<GpuBucket> paper_gpu_buckets() {
  // The paper's labels overlap at the boundaries ("2-4" then "4-8"); we
  // interpret them as left-exclusive: (1], (1,4], (4,8], (8,32], ...
  return {
      {"1", 1, 1},        {"2-4", 2, 4},      {"4-8", 5, 8},
      {"8-32", 9, 32},    {"32-64", 33, 64},  {"64-128", 65, 128},
      {"128-256", 129, 256}, {"256+", 257, 1 << 20},
  };
}

JobStats compute_job_stats(const JobTable& table, const Period& window) {
  JobStats out;
  const auto buckets = paper_gpu_buckets();
  out.buckets.resize(buckets.size());
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    out.buckets[i].bucket = buckets[i];
  }
  std::vector<std::vector<double>> elapsed(buckets.size());

  std::uint64_t completed = 0;
  std::uint64_t single = 0;
  std::uint64_t small_multi = 0;
  std::uint64_t large = 0;
  std::uint64_t ml_jobs = 0;

  for (const auto& j : table.jobs) {
    if (!window.contains(j.end)) continue;
    ++out.total_jobs;
    if (j.state == slurm::JobState::kCompleted) ++completed;
    if (j.gpus == 1) {
      ++single;
    } else if (j.gpus <= 4) {
      ++small_multi;
    } else {
      ++large;
    }
    if (j.is_ml) ++ml_jobs;

    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (j.gpus >= buckets[i].lo && j.gpus <= buckets[i].hi) {
        auto& b = out.buckets[i];
        ++b.count;
        elapsed[i].push_back(j.elapsed_minutes());
        if (j.is_ml) {
          b.ml_gpu_hours += j.gpu_hours();
        } else {
          b.non_ml_gpu_hours += j.gpu_hours();
        }
        break;
      }
    }
  }

  if (out.total_jobs == 0) return out;
  const auto total_d = static_cast<double>(out.total_jobs);
  out.success_rate = static_cast<double>(completed) / total_d;
  out.single_gpu_share = static_cast<double>(single) / total_d;
  out.small_multi_gpu_share = static_cast<double>(small_multi) / total_d;
  out.large_gpu_share = static_cast<double>(large) / total_d;
  out.ml_job_share = static_cast<double>(ml_jobs) / total_d;

  for (std::size_t i = 0; i < out.buckets.size(); ++i) {
    auto& b = out.buckets[i];
    b.share = static_cast<double>(b.count) / total_d;
    if (!elapsed[i].empty()) {
      const auto s = common::summarize(elapsed[i]);
      b.mean_minutes = s.mean;
      b.p50_minutes = s.p50;
      b.p99_minutes = s.p99;
    }
  }
  return out;
}

}  // namespace gpures::analysis
