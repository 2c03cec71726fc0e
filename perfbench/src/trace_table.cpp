#include "trace_table.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace perfbench {

namespace {

struct Event {
  std::string name;
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
  std::uint64_t tid = 0;
};

std::uint64_t number_after(std::string_view obj, std::string_view key) {
  const auto at = obj.find(key);
  if (at == std::string_view::npos) return 0;
  return std::strtoull(obj.data() + at + key.size(), nullptr, 10);
}

/// The tracer writes one flat object per event with plain-identifier span
/// names, so a field scan is enough.
std::vector<Event> parse_events(const std::string& json) {
  std::vector<Event> out;
  constexpr std::string_view kName = "\"name\":\"";
  std::size_t pos = 0;
  while ((pos = json.find(kName, pos)) != std::string::npos) {
    const std::size_t name_begin = pos + kName.size();
    const std::size_t name_end = json.find('"', name_begin);
    const std::size_t obj_end = json.find('}', name_end);
    if (name_end == std::string::npos || obj_end == std::string::npos) break;
    const std::string_view obj(json.data() + name_end, obj_end - name_end);
    Event e;
    e.name = json.substr(name_begin, name_end - name_begin);
    e.ts = number_after(obj, "\"ts\":");
    e.dur = number_after(obj, "\"dur\":");
    e.tid = number_after(obj, "\"tid\":");
    out.push_back(std::move(e));
    pos = obj_end;
  }
  return out;
}

bool is_bench_span(const std::string& name) {
  return name.rfind("pb:", 0) == 0;
}

}  // namespace

TraceSummary summarize_trace(const std::string& chrome_json,
                             std::uint64_t leg_tid, double wall_s) {
  auto events = parse_events(chrome_json);
  // Parents before children: by thread, start, then longest first.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;
  });
  TraceSummary s;
  s.wall_s = wall_s;
  std::vector<double> self_us(events.size());
  struct Open {
    std::size_t idx;
    std::uint64_t end;
  };
  std::vector<Open> stack;
  std::size_t bench_open = 0;  // benchmark spans on the stack
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (i > 0 && events[i - 1].tid != e.tid) {
      stack.clear();
      bench_open = 0;
    }
    while (!stack.empty() && stack.back().end <= e.ts) {
      if (is_bench_span(events[stack.back().idx].name)) --bench_open;
      stack.pop_back();
    }
    self_us[i] = static_cast<double>(e.dur);
    if (!stack.empty()) self_us[stack.back().idx] -= static_cast<double>(e.dur);
    const bool bench = is_bench_span(e.name);
    if (bench && bench_open == 0 && e.tid == leg_tid) {
      s.covered_s += static_cast<double>(e.dur) * 1e-6;
    }
    if (bench) ++bench_open;
    stack.push_back({i, e.ts + e.dur});
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    // Keep leg-thread and worker spans of one name apart.
    const std::string key = e.tid == leg_tid ? e.name : e.name + "@worker";
    auto& st = s.spans[key];
    st.leg_thread = e.tid == leg_tid;
    st.count += 1;
    st.total_s += static_cast<double>(e.dur) * 1e-6;
    st.self_s += std::max(0.0, self_us[i]) * 1e-6;
  }
  return s;
}

std::vector<std::string> render_table(const std::string& leg,
                                      const TraceSummary& summary) {
  std::vector<std::pair<std::string, SpanStats>> rows(summary.spans.begin(),
                                                      summary.spans.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_s > b.second.self_s;
  });
  std::vector<std::string> out;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s: wall %.3f s, benchmark spans cover %.1f%%", leg.c_str(),
                summary.wall_s, 100.0 * summary.coverage());
  out.emplace_back(buf);
  out.emplace_back("| span | thread | calls | total s | self s | self % of wall |");
  out.emplace_back("|---|---|---:|---:|---:|---:|");
  for (const auto& [name, st] : rows) {
    std::snprintf(buf, sizeof buf, "| %s | %s | %llu | %.4f | %.4f | %.2f |",
                  name.c_str(), st.leg_thread ? "leg" : "worker",
                  static_cast<unsigned long long>(st.count), st.total_s,
                  st.self_s,
                  summary.wall_s > 0 ? 100.0 * st.self_s / summary.wall_s : 0);
    out.emplace_back(buf);
  }
  return out;
}

}  // namespace perfbench
