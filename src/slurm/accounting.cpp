#include "slurm/accounting.h"

#include <array>
#include <ostream>

#include "common/fmt.h"
#include "common/strings.h"
#include "common/time.h"

namespace gpures::slurm {

namespace {

// "YYYY-MM-DDTHH:MM:SS" rendered straight into `out` ("%04d" year:
// zero-padded, matching format_iso byte-for-byte).
void append_iso_t(std::string& out, common::TimePoint tp) {
  const common::CalendarTime ct = common::to_calendar(tp);
  common::append_2d(out, ct.year / 100);
  common::append_2d(out, ct.year % 100);
  out += '-';
  common::append_2d(out, ct.month);
  out += '-';
  common::append_2d(out, ct.day);
  out += 'T';
  common::append_2d(out, ct.hour);
  out += ':';
  common::append_2d(out, ct.minute);
  out += ':';
  common::append_2d(out, ct.second);
}

}  // namespace

std::string accounting_header() { return std::string(kAccountingHeader); }

void append_accounting_line(std::string& out, const JobRecord& rec,
                            const cluster::Topology& topo) {
  common::append_uint(out, rec.id);
  out += '|';
  out += rec.name;
  out += '|';
  append_iso_t(out, rec.submit);
  out += '|';
  append_iso_t(out, rec.start);
  out += '|';
  append_iso_t(out, rec.end);
  out += '|';
  out += to_string(rec.state);
  out += '|';
  common::append_int(out, rec.exit_code);
  out += ":0";
  out += '|';
  common::append_int(out, rec.nodes);
  out += '|';
  common::append_int(out, rec.gpus);
  out += '|';
  for (std::size_t i = 0; i < rec.node_list.size(); ++i) {
    if (i) out += ',';
    out += topo.node(rec.node_list[i]).name;
  }
  out += '|';
  for (std::size_t i = 0; i < rec.gpu_list.size(); ++i) {
    if (i) out += ';';
    out += topo.node(rec.gpu_list[i].node).name;
    out += ':';
    common::append_int(out, rec.gpu_list[i].slot);
  }
}

std::string to_accounting_line(const JobRecord& rec,
                               const cluster::Topology& topo) {
  std::string line;
  line.reserve(128);
  append_accounting_line(line, rec, topo);
  return line;
}

common::Status parse_accounting_line(std::string_view line,
                                     const cluster::Topology& topo,
                                     JobRecord& out) {
  // Cut the row into its 11 '|'-separated fields in place (empty fields
  // kept, as split would); extra fields are only counted for the message.
  constexpr std::size_t npos = std::string_view::npos;
  std::array<std::string_view, 11> fields;
  std::size_t nfields = 0;
  for (std::size_t pos = 0;;) {
    const std::size_t cut = line.find('|', pos);
    if (nfields < fields.size()) {
      fields[nfields] = line.substr(pos, cut == npos ? npos : cut - pos);
    }
    ++nfields;
    if (cut == npos) break;
    pos = cut + 1;
  }
  if (nfields != fields.size()) {
    return common::Error::make("accounting: expected 11 fields, got " +
                               std::to_string(nfields));
  }
  const long long id = common::parse_ll(fields[0]);
  if (id < 0) return common::Error::make("accounting: bad JobID");
  out.id = static_cast<JobId>(id);
  out.name.assign(fields[1]);
  out.is_ml = false;  // ground truth is not in the dump

  const auto submit = common::parse_iso(fields[2]);
  const auto start = common::parse_iso(fields[3]);
  const auto end = common::parse_iso(fields[4]);
  if (!submit || !start || !end) {
    return common::Error::make("accounting: bad timestamp");
  }
  out.submit = *submit;
  out.start = *start;
  out.end = *end;
  // A job cannot end before it starts (or start before submission); such
  // records would poison elapsed-time statistics (Table III) with negative
  // durations, so they are malformed, not data.
  if (out.end < out.start || out.start < out.submit) {
    return common::Error::make("accounting: non-monotonic Submit/Start/End");
  }

  if (!parse_state(fields[5], out.state)) {
    return common::Error::make("accounting: unknown state '" +
                               std::string(fields[5]) + "'");
  }
  const long long code = common::parse_ll(fields[6].substr(0, fields[6].find(':')));
  if (code < 0) return common::Error::make("accounting: bad ExitCode");
  out.exit_code = static_cast<std::int32_t>(code);

  const long long nnodes = common::parse_ll(fields[7]);
  const long long ngpus = common::parse_ll(fields[8]);
  if (nnodes <= 0 || ngpus <= 0) {
    return common::Error::make("accounting: bad NNodes/NGPUs");
  }
  out.nodes = static_cast<std::int32_t>(nnodes);
  out.gpus = static_cast<std::int32_t>(ngpus);

  out.node_list.clear();
  const std::string_view node_field = fields[9];
  for (std::size_t pos = 0; !node_field.empty();) {
    const std::size_t cut = node_field.find(',', pos);
    const auto host = node_field.substr(pos, cut == npos ? npos : cut - pos);
    const auto idx = topo.node_index(host);
    if (!idx) {
      return common::Error::make("accounting: unknown host '" +
                                 std::string(host) + "'");
    }
    out.node_list.push_back(*idx);
    if (cut == npos) break;
    pos = cut + 1;
  }
  if (static_cast<std::int32_t>(out.node_list.size()) != out.nodes) {
    return common::Error::make("accounting: NodeList length mismatch");
  }

  out.gpu_list.clear();
  const std::string_view gpu_field = fields[10];
  for (std::size_t pos = 0; !gpu_field.empty();) {
    const std::size_t cut = gpu_field.find(';', pos);
    const auto entry = gpu_field.substr(pos, cut == npos ? npos : cut - pos);
    const auto colon = entry.rfind(':');
    if (colon == npos) {
      return common::Error::make("accounting: bad AllocGPUS entry");
    }
    const auto idx = topo.node_index(entry.substr(0, colon));
    const long long slot = common::parse_ll(entry.substr(colon + 1));
    if (!idx || slot < 0 || slot >= topo.gpus_on_node(*idx)) {
      return common::Error::make("accounting: bad AllocGPUS device");
    }
    out.gpu_list.push_back({*idx, static_cast<std::int32_t>(slot)});
    if (cut == npos) break;
    pos = cut + 1;
  }
  if (static_cast<std::int32_t>(out.gpu_list.size()) != out.gpus) {
    return common::Error::make("accounting: AllocGPUS length mismatch");
  }
  return {};
}

common::Result<JobRecord> parse_accounting_line(
    std::string_view line, const cluster::Topology& topo) {
  JobRecord rec;
  if (auto st = parse_accounting_line(line, topo, rec); !st.ok()) return st.error();
  return rec;
}

void write_accounting(std::ostream& os, const std::vector<JobRecord>& records,
                      const cluster::Topology& topo) {
  os << kAccountingHeader << '\n';
  for (const auto& rec : records) {
    os << to_accounting_line(rec, topo) << '\n';
  }
}

}  // namespace gpures::slurm
