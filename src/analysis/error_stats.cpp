#include "analysis/error_stats.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <tuple>

#include "analysis/job_stats.h"
#include "common/stats.h"

namespace gpures::analysis {

namespace {

bool by_gpu_then_code(const Outlier& a, const Outlier& b) {
  return std::tie(a.gpu, a.code) < std::tie(b.gpu, b.code);
}

}  // namespace

PeriodStats period_stats(std::uint64_t count, double hours,
                         std::int32_t nodes) {
  PeriodStats ps;
  ps.count = count;
  ps.mtbe_system_h = common::mtbe(hours, count);
  ps.mtbe_per_node_h = ps.mtbe_system_h * static_cast<double>(nodes);
  return ps;
}

ErrorTally tally_errors(std::span<const std::uint16_t> codes,
                        std::span<const std::int32_t> gpus,
                        std::optional<std::int32_t> node,
                        const ErrorStatsConfig& cfg) {
  const auto in_scope = [&](std::size_t i) {
    return !node.has_value() || packed_node(gpus[i]) == *node;
  };
  ErrorTally t;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    if (codes[i] < kTallySlots && in_scope(i)) ++t.count[codes[i]];
  }
  // The paper's aggregate counts the derived "uncorrectable ECC memory
  // errors" row (RRE + RRF) as a row of its own on top of the RRE and RRF
  // rows: its published totals (42,405 pre-op, 14,821 op) and the
  // memory-category MTBE behind the 160x comparison only reconcile with that
  // convention, so we follow it.
  t.total_with_outliers = t.count[xid::to_number(xid::Code::kRowRemapEvent)] +
                          t.count[xid::to_number(xid::Code::kRowRemapFailure)];
  std::vector<std::int32_t> keys;
  for (const auto& desc : xid::catalog()) {
    const std::uint16_t c = xid::to_number(desc.code);
    const std::uint64_t n = t.count[c];
    if (n == 0) continue;
    t.total_with_outliers += n;
    if (n < cfg.outlier_min) continue;
    keys.clear();
    for (std::size_t i = 0; i < codes.size(); ++i) {
      if (codes[i] == c && in_scope(i)) keys.push_back(gpus[i]);
    }
    std::sort(keys.begin(), keys.end());
    for (std::size_t a = 0, b = 0; a < keys.size(); a = b) {
      while (b < keys.size() && keys[b] == keys[a]) ++b;
      Outlier o;
      o.gpu = {packed_node(keys[a]), packed_slot(keys[a])};
      o.code = desc.code;
      o.count = b - a;
      o.share = static_cast<double>(o.count) / static_cast<double>(n);
      if (o.count >= cfg.outlier_min && o.share >= cfg.outlier_share) {
        t.outliers.push_back(o);
      }
    }
  }
  std::sort(t.outliers.begin(), t.outliers.end(), by_gpu_then_code);
  t.total = t.total_with_outliers;
  if (cfg.exclude_outliers_from_totals) {
    for (const auto& o : t.outliers) t.total -= o.count;
  }
  return t;
}

double ErrorStats::mtbe_degradation_fraction() const {
  const double pre = total.pre.mtbe_per_node_h;
  const double op = total.op.mtbe_per_node_h;
  if (!std::isfinite(pre) || pre <= 0.0 || !std::isfinite(op)) return 0.0;
  return (pre - op) / pre;
}

double ErrorStats::memory_reliability_ratio_op() const {
  const auto mem = by_category.find(xid::Category::kMemory);
  if (mem == by_category.end()) return 0.0;
  const double mem_mtbe = mem->second.op.mtbe_per_node_h;
  const double hw_mtbe = non_memory.op.mtbe_per_node_h;
  if (!std::isfinite(mem_mtbe) || !std::isfinite(hw_mtbe) || hw_mtbe <= 0.0) {
    return 0.0;
  }
  return mem_mtbe / hw_mtbe;
}

double ErrorStats::gsp_degradation_ratio() const {
  const CodeStats* gsp = find(xid::Code::kGspRpcTimeout);
  if (gsp == nullptr) return 0.0;
  const double pre = gsp->pre.mtbe_per_node_h;
  const double op = gsp->op.mtbe_per_node_h;
  if (!std::isfinite(pre) || !std::isfinite(op) || op <= 0.0) return 0.0;
  return pre / op;
}

const CodeStats* ErrorStats::find(xid::Code code) const {
  for (const auto& cs : by_code) {
    if (cs.code == code) return &cs;
  }
  return nullptr;
}

ErrorStats compute_error_stats(const std::vector<CoalescedError>& errors,
                               const StudyPeriods& periods,
                               const ErrorStatsConfig& cfg) {
  ErrorStats out;
  out.periods = periods;
  out.cfg = cfg;

  // Each period's XID numbers and packed GPUs, in input order.
  std::array<std::vector<std::uint16_t>, 2> codes;
  std::array<std::vector<std::int32_t>, 2> gpus;
  for (const auto& e : errors) {
    const auto period = periods.which(e.time);
    if (!period) continue;
    const bool op = *period == PeriodId::kOp;
    codes[op].push_back(xid::to_number(e.code));
    gpus[op].push_back(pack_gpu(e.gpu.node, e.gpu.slot));
    (op ? out.raw_lines_op : out.raw_lines_pre) += e.raw_lines;
  }
  ErrorTally pre = tally_errors(codes[0], gpus[0], std::nullopt, cfg);
  ErrorTally op = tally_errors(codes[1], gpus[1], std::nullopt, cfg);

  const auto row = [&](xid::Code code, std::uint64_t pre_n,
                       std::uint64_t op_n) {
    CodeStats cs;
    cs.code = code;
    cs.pre = period_stats(pre_n, periods.pre.hours(), cfg.node_count);
    cs.op = period_stats(op_n, periods.op.hours(), cfg.node_count);
    return cs;
  };
  const auto n = [](const ErrorTally& t, xid::Code code) {
    return t.count[xid::to_number(code)];
  };

  // ---- per-code rows (paper Table I order) ----
  for (const xid::Code code : xid::report_order()) {
    out.by_code.push_back(row(code, n(pre, code), n(op, code)));
  }
  // ---- derived "uncorrectable ECC" row: RRE + RRF ----
  constexpr auto kRre = xid::Code::kRowRemapEvent;
  constexpr auto kRrf = xid::Code::kRowRemapFailure;
  out.uncorrectable_ecc =
      row(kRre, n(pre, kRre) + n(pre, kRrf), n(op, kRre) + n(op, kRrf));

  // ---- rollups (their code is unused): a category appears once any of its
  // codes has an error, and memory always carries the derived row ----
  auto& mem = out.by_category[xid::Category::kMemory];
  mem = out.uncorrectable_ecc;
  for (const auto& desc : xid::catalog()) {
    const std::uint16_t c = xid::to_number(desc.code);
    if (pre.count[c] + op.count[c] == 0) continue;
    auto& cat = out.by_category[desc.category];
    cat.pre.count += pre.count[c];
    cat.op.count += op.count[c];
  }
  for (auto& [_, cs] : out.by_category) {
    cs = row(xid::Code::kMmuError, cs.pre.count, cs.op.count);
  }
  // Every tracked row outside memory, the derived row being memory's.
  out.non_memory = row(xid::Code::kMmuError,
                       pre.total_with_outliers - mem.pre.count,
                       op.total_with_outliers - mem.op.count);
  out.total = row(xid::Code::kMmuError, pre.total, op.total);
  out.total_with_outliers = row(xid::Code::kMmuError, pre.total_with_outliers,
                                op.total_with_outliers);

  // Outliers in (GPU, code) order, pre-op before op, then by count.
  for (auto& o : pre.outliers) o.period = PeriodId::kPreOp;
  for (auto& o : op.outliers) o.period = PeriodId::kOp;
  std::merge(pre.outliers.begin(), pre.outliers.end(), op.outliers.begin(),
             op.outliers.end(), std::back_inserter(out.outliers),
             by_gpu_then_code);
  std::sort(out.outliers.begin(), out.outliers.end(),
            [](const Outlier& a, const Outlier& b) { return a.count > b.count; });
  return out;
}

}  // namespace gpures::analysis
