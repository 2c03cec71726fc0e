#include "chaos/chaos.h"

#include <algorithm>

#include "analysis/dataset.h"
#include "common/io.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"

namespace gpures::chaos {

namespace fs = std::filesystem;

std::string_view to_string(Fault fault) {
  switch (fault) {
    case Fault::kTruncate:
      return "truncate";
    case Fault::kGarbage:
      return "garbage";
    case Fault::kOverlong:
      return "overlong";
    case Fault::kDuplicate:
      return "duplicate";
    case Fault::kReorder:
      return "reorder";
    case Fault::kMissingDay:
      return "missing-day";
    case Fault::kMissingAccounting:
      return "missing-accounting";
    case Fault::kSkew:
      return "skew";
    case Fault::kBadAccounting:
      return "bad-accounting";
    case Fault::kZeroByte:
      return "zero-byte";
    case Fault::kIoFault:
      return "io-fault";
  }
  return "unknown";
}

namespace {

struct FaultName {
  std::string_view name;
  Fault fault;
  std::uint64_t default_count;
};

// Canonical order; "all" expands to this list minus missing-accounting
// (which would shadow bad-accounting — request it explicitly).
constexpr FaultName kFaults[] = {
    {"truncate", Fault::kTruncate, 1},
    {"garbage", Fault::kGarbage, 3},
    {"overlong", Fault::kOverlong, 2},
    {"duplicate", Fault::kDuplicate, 5},
    {"reorder", Fault::kReorder, 1},
    {"missing-day", Fault::kMissingDay, 1},
    {"missing-accounting", Fault::kMissingAccounting, 1},
    {"skew", Fault::kSkew, 1},
    {"bad-accounting", Fault::kBadAccounting, 3},
    {"zero-byte", Fault::kZeroByte, 1},
    {"io-fault", Fault::kIoFault, 1},
};

const FaultName* find_fault(std::string_view name) {
  for (const auto& f : kFaults) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

}  // namespace

common::Result<CorruptionSpec> CorruptionSpec::parse(std::string_view text) {
  CorruptionSpec spec;
  for (const auto raw : common::split(text, ',')) {
    const auto token = common::trim(raw);
    if (token.empty()) {
      return common::Error::make("chaos spec: empty fault token");
    }
    const auto colon = token.find(':');
    const auto name = token.substr(0, colon);
    std::uint64_t count = 0;
    bool have_count = false;
    if (colon != std::string_view::npos) {
      const long long c = common::parse_ll(token.substr(colon + 1));
      if (c <= 0) {
        return common::Error::make("chaos spec: bad count in '" +
                                   std::string(token) + "'");
      }
      count = static_cast<std::uint64_t>(c);
      have_count = true;
    }
    if (name == "all") {
      if (have_count) {
        return common::Error::make("chaos spec: 'all' takes no count");
      }
      for (const auto& f : kFaults) {
        if (f.fault == Fault::kMissingAccounting) continue;
        spec.faults.push_back(FaultSpec{f.fault, f.default_count});
      }
      continue;
    }
    const FaultName* f = find_fault(name);
    if (f == nullptr) {
      return common::Error::make("chaos spec: unknown fault '" +
                                 std::string(name) + "'");
    }
    spec.faults.push_back(
        FaultSpec{f->fault, have_count ? count : f->default_count});
  }
  if (spec.faults.empty()) {
    return common::Error::make("chaos spec: no faults requested");
  }
  return spec;
}

std::string CorruptionSpec::canonical() const {
  std::string out;
  for (const auto& f : faults) {
    if (!out.empty()) out += ',';
    out += to_string(f.fault);
    out += ':';
    out += std::to_string(f.count);
  }
  return out;
}

std::string CorruptionLedger::to_json() const {
  common::JsonWriter w;
  w.begin_object();
  w.kv("seed", seed);
  w.kv("spec", spec);

  w.key("expect");
  w.begin_object();
  w.kv("binary_lines", expect_binary_lines);
  w.kv("binary_bytes", expect_binary_bytes);
  w.kv("overlong_lines", expect_overlong_lines);
  w.kv("overlong_bytes", expect_overlong_bytes);
  w.kv("torn_lines", expect_torn_lines);
  w.kv("torn_bytes", expect_torn_bytes);
  w.kv("missing_days", expect_missing_days);
  w.kv("zero_byte_days", expect_zero_byte_days);
  w.kv("skipped_days", expect_skipped_days);
  w.kv("accounting_missing", expect_accounting_missing);
  w.kv("accounting_rejected_rows", expect_accounting_rejected_rows);
  w.kv("accounting_rejected_bytes", expect_accounting_rejected_bytes);
  w.end_object();

  w.key("io_fault");
  w.begin_object();
  w.kv("path", io_fault_path);
  w.kv("after_bytes", io_fault_after_bytes);
  w.kv("kind", io_fault_kind);
  w.kv("times", io_fault_times);
  w.end_object();

  w.key("applied");
  w.begin_array();
  for (const auto& a : applied) {
    w.begin_object();
    w.kv("fault", a.fault);
    w.kv("file", a.file);
    w.kv("count", a.count);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return std::move(w).str();
}

common::Status CorruptionLedger::write(const fs::path& path) const {
  return common::write_text_file(path.string(), to_json() + '\n');
}

namespace {

/// Split into lines without terminators, dropping trailing empties (day
/// files never legitimately end in blank lines).
std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const auto nl = text.find('\n', start);
    const auto end = nl == std::string_view::npos ? text.size() : nl;
    lines.emplace_back(text.substr(start, end - start));
    if (nl == std::string_view::npos) break;
    start = nl + 1;
  }
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines,
                       bool final_newline) {
  std::string out;
  std::size_t bytes = 0;
  for (const auto& l : lines) bytes += l.size() + 1;
  out.reserve(bytes);
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  if (!final_newline && !out.empty()) out.pop_back();
  return out;
}

/// A binary-garbage payload: random bytes, '\n' remapped so the payload
/// stays one line, and a guaranteed control byte so the line screen can
/// never mistake it for text.
std::string garbage_payload(common::Rng& rng) {
  const std::size_t len = 16 + rng.uniform_u64(64);
  std::string payload(len, '\0');
  for (std::size_t i = 0; i < len; i += 8) {
    std::uint64_t bits = rng.next_u64();
    for (std::size_t j = i; j < std::min(i + 8, len); ++j) {
      char c = static_cast<char>(bits & 0xff);
      bits >>= 8;
      if (c == '\n') c = '\x01';
      payload[j] = c;
    }
  }
  payload[0] = static_cast<char>(1 + rng.uniform_u64(8));  // 0x01..0x08
  return payload;
}

std::string overlong_payload(common::Rng& rng) {
  const std::size_t len = kScreenMaxLineLen + 1 + rng.uniform_u64(2048);
  std::string payload(len, 'x');
  for (std::size_t i = 0; i < len; ++i) {
    payload[i] = static_cast<char>('a' + (i % 26));
  }
  return payload;
}

/// Shift a syslog header hour by +12 in place; returns whether the line
/// looked like "Mon DD HH:MM:SS ..." and was changed.
bool skew_line(std::string& line) {
  // "May  5 07:23:01" — hour digits at [7,9), colons at 9 and 12.
  if (line.size() < 15 || line[9] != ':' || line[12] != ':') return false;
  if (line[7] < '0' || line[7] > '9' || line[8] < '0' || line[8] > '9') {
    return false;
  }
  const int hour = (line[7] - '0') * 10 + (line[8] - '0');
  if (hour > 23) return false;
  const int skewed = (hour + 12) % 24;
  line[7] = static_cast<char>('0' + skewed / 10);
  line[8] = static_cast<char>('0' + skewed % 10);
  return true;
}

/// What the corrupter will do to one day file.
struct DayAction {
  Fault fault = Fault::kTruncate;
  std::uint64_t count = 0;  ///< lines, for line-level faults
  bool active = false;
};

}  // namespace

common::Result<CorruptionLedger> corrupt_dataset(const fs::path& src,
                                                 const fs::path& dst,
                                                 std::uint64_t seed,
                                                 const CorruptionSpec& spec) {
  if (!fs::is_directory(src / "syslog")) {
    return common::Error::make("chaos: not a dataset directory (no syslog/): " +
                               src.string());
  }
  std::error_code ec;
  fs::create_directories(dst / "syslog", ec);
  if (ec) {
    return common::Error::make("chaos: cannot create " + dst.string() + ": " +
                               ec.message());
  }

  CorruptionLedger ledger;
  ledger.seed = seed;
  ledger.spec = spec.canonical();
  common::Rng rng(seed);

  // Day files in name (= date) order; everything else in syslog/ is copied
  // verbatim so pre-existing strays survive the corruption pass.
  std::vector<std::string> days;
  std::vector<fs::path> strays;
  for (const auto& entry : fs::directory_iterator(src / "syslog")) {
    const auto name = entry.path().filename().string();
    if (entry.is_regular_file() && analysis::day_file_date(name)) {
      days.push_back(name);
    } else if (entry.is_regular_file()) {
      strays.push_back(entry.path());
    }
  }
  std::sort(days.begin(), days.end());

  // Disjoint target assignment: a shuffled day list consumed left to right,
  // so no day receives two faults and every ledger expectation is exact.
  std::vector<std::size_t> order(days.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto target_rng = rng.fork("targets");
  target_rng.shuffle(order);
  std::size_t cursor = 0;
  const auto take_days = [&](std::uint64_t want) {
    std::vector<std::size_t> out;
    while (out.size() < want && cursor < order.size()) {
      out.push_back(order[cursor++]);
    }
    return out;
  };

  std::vector<DayAction> actions(days.size());
  bool accounting_missing = false;
  std::uint64_t bad_accounting_rows = 0;
  for (const auto& f : spec.faults) {
    switch (f.fault) {
      case Fault::kMissingAccounting:
        accounting_missing = true;
        break;
      case Fault::kBadAccounting:
        bad_accounting_rows += f.count;
        break;
      case Fault::kGarbage:
      case Fault::kOverlong:
      case Fault::kDuplicate:
        // Line-level: all `count` lines land in one fresh day.
        for (const auto i : take_days(1)) {
          actions[i] = DayAction{f.fault, f.count, true};
        }
        break;
      case Fault::kTruncate:
      case Fault::kReorder:
      case Fault::kMissingDay:
      case Fault::kSkew:
      case Fault::kZeroByte:
        for (const auto i : take_days(f.count)) {
          actions[i] = DayAction{f.fault, 1, true};
        }
        break;
      case Fault::kIoFault:
        for (const auto i : take_days(1)) {
          actions[i] = DayAction{f.fault, 1, true};
        }
        break;
    }
  }

  const auto note = [&ledger](Fault fault, const std::string& file,
                              std::uint64_t count) {
    ledger.applied.push_back(
        CorruptionLedger::Applied{std::string(to_string(fault)), file, count});
  };

  for (std::size_t i = 0; i < days.size(); ++i) {
    const auto& name = days[i];
    auto text = common::read_file((src / "syslog" / name).string());
    if (!text.ok()) {
      return common::Error::make("chaos: " + text.error().message);
    }
    const auto dst_path = dst / "syslog" / name;
    const DayAction& act = actions[i];
    if (!act.active) {
      auto st = common::write_text_file(dst_path.string(), text.value());
      if (!st.ok()) return st.error();
      continue;
    }
    auto fault_rng = rng.fork(to_string(act.fault)).fork(name);
    switch (act.fault) {
      case Fault::kMissingDay:
        ledger.expect_missing_days += 1;
        note(act.fault, name, 1);
        continue;  // nothing written
      case Fault::kZeroByte: {
        auto st = common::write_text_file(dst_path.string(), "");
        if (!st.ok()) return st.error();
        ledger.expect_zero_byte_days += 1;
        note(act.fault, name, 1);
        continue;
      }
      case Fault::kIoFault: {
        auto st = common::write_text_file(dst_path.string(), text.value());
        if (!st.ok()) return st.error();
        ledger.io_fault_path = name;
        ledger.io_fault_after_bytes =
            std::max<std::uint64_t>(1, text.value().size() / 2);
        ledger.expect_skipped_days += 1;
        note(act.fault, name, 1);
        continue;
      }
      default:
        break;
    }
    auto lines = split_lines(text.value());
    bool final_newline = true;
    std::uint64_t applied = 0;
    switch (act.fault) {
      case Fault::kTruncate: {
        if (lines.empty()) break;
        auto& last = lines.back();
        const std::uint64_t frag =
            1 + fault_rng.uniform_u64(std::max<std::size_t>(last.size(), 1));
        last.resize(std::min<std::size_t>(frag, last.size()));
        final_newline = false;
        ledger.expect_torn_lines += 1;
        ledger.expect_torn_bytes += last.size();
        applied = 1;
        break;
      }
      case Fault::kGarbage:
        for (std::uint64_t k = 0; k < act.count; ++k) {
          auto payload = garbage_payload(fault_rng);
          ledger.expect_binary_lines += 1;
          ledger.expect_binary_bytes += payload.size();
          const std::size_t pos = fault_rng.uniform_u64(lines.size() + 1);
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(pos),
                       std::move(payload));
          ++applied;
        }
        break;
      case Fault::kOverlong:
        for (std::uint64_t k = 0; k < act.count; ++k) {
          auto payload = overlong_payload(fault_rng);
          ledger.expect_overlong_lines += 1;
          ledger.expect_overlong_bytes += payload.size();
          const std::size_t pos = fault_rng.uniform_u64(lines.size() + 1);
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(pos),
                       std::move(payload));
          ++applied;
        }
        break;
      case Fault::kDuplicate:
        for (std::uint64_t k = 0; k < act.count && !lines.empty(); ++k) {
          const std::size_t idx = fault_rng.uniform_u64(lines.size());
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(idx) + 1,
                       lines[idx]);
          ++applied;
        }
        break;
      case Fault::kReorder:
        fault_rng.shuffle(lines);
        applied = 1;
        break;
      case Fault::kSkew:
        for (auto& line : lines) {
          if (skew_line(line)) ++applied;
        }
        break;
      default:
        break;
    }
    if (applied > 0) note(act.fault, name, applied);
    auto st = common::write_text_file(dst_path.string(),
                                      join_lines(lines, final_newline));
    if (!st.ok()) return st.error();
  }

  for (const auto& stray : strays) {
    auto text = common::read_file(stray.string());
    if (!text.ok()) {
      return common::Error::make("chaos: " + text.error().message);
    }
    auto st = common::write_text_file(
        (dst / "syslog" / stray.filename()).string(), text.value());
    if (!st.ok()) return st.error();
  }

  // Manifest: copied verbatim (manifest corruption is covered by the parser's
  // own negative tests; the corrupter's matrix targets the bulk data).
  if (auto manifest = common::read_file((src / "manifest.txt").string());
      manifest.ok()) {
    auto st = common::write_text_file((dst / "manifest.txt").string(),
                                      manifest.value());
    if (!st.ok()) return st.error();
  }

  // Accounting: dropped entirely, malformed row by row, or copied verbatim.
  if (accounting_missing) {
    ledger.expect_accounting_missing = true;
    note(Fault::kMissingAccounting, "slurm_accounting.txt", 1);
  } else {
    auto acc = common::read_file((src / "slurm_accounting.txt").string());
    if (acc.ok() && bad_accounting_rows == 0) {
      auto st = common::write_text_file(
          (dst / "slurm_accounting.txt").string(), acc.value());
      if (!st.ok()) return st.error();
    } else if (acc.ok()) {
      auto lines = split_lines(acc.value());
      if (lines.size() > 1) {
        // Candidate rows are everything after the header; malform a
        // deterministic random subset by prepending a stray field, which
        // bumps the field count past what the parser accepts.
        std::vector<std::size_t> rows;
        for (std::size_t i = 1; i < lines.size(); ++i) {
          if (!lines[i].empty()) rows.push_back(i);
        }
        auto acc_rng = rng.fork("bad-accounting");
        acc_rng.shuffle(rows);
        const std::uint64_t n =
            std::min<std::uint64_t>(bad_accounting_rows, rows.size());
        for (std::uint64_t k = 0; k < n; ++k) {
          auto& row = lines[rows[k]];
          row.insert(0, "x|");
          ledger.expect_accounting_rejected_rows += 1;
          ledger.expect_accounting_rejected_bytes += row.size();
        }
        if (n > 0) note(Fault::kBadAccounting, "slurm_accounting.txt", n);
      }
      auto st = common::write_text_file(
          (dst / "slurm_accounting.txt").string(),
          join_lines(lines, /*final_newline=*/true));
      if (!st.ok()) return st.error();
    }
  }

  auto st = ledger.write(dst / "corruption_ledger.json");
  if (!st.ok()) return st.error();
  return ledger;
}

}  // namespace gpures::chaos
