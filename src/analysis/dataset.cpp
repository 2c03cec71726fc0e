#include "analysis/dataset.h"

#include <algorithm>
#include <fstream>
#include <future>

#include "common/io.h"
#include "common/strings.h"
#include "obs/trace.h"

namespace gpures::analysis {

namespace fs = std::filesystem;

std::string DatasetManifest::serialize() const {
  std::string out;
  out += "name=" + name + "\n";
  out += "study_begin=" + common::format_date(periods.pre.begin) + "\n";
  out += "op_begin=" + common::format_date(periods.op.begin) + "\n";
  out += "study_end=" + common::format_date(periods.op.end) + "\n";
  out += "nodes=" + std::to_string(spec.node_count()) + "\n";
  for (const auto& n : spec.nodes) {
    out += "node=" + n.name + ":" + std::to_string(n.gpu_count) + "\n";
  }
  return out;
}

common::Result<DatasetManifest> DatasetManifest::parse(std::string_view text) {
  DatasetManifest m;
  m.spec.nodes.clear();
  common::TimePoint begin = 0;
  common::TimePoint op = 0;
  common::TimePoint end = 0;
  bool have_begin = false;
  bool have_op = false;
  bool have_end = false;
  bool have_name = false;
  long long declared_nodes = -1;
  std::uint64_t line_no = 0;
  const auto fail = [&](std::string msg) {
    return common::Error::at("manifest: " + std::move(msg), "manifest.txt",
                             line_no);
  };
  for (const auto raw_line : common::split(text, '\n')) {
    ++line_no;
    const auto line = common::trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      return fail("malformed line '" + std::string(line) + "'");
    }
    const auto key = line.substr(0, eq);
    const auto value = line.substr(eq + 1);
    if (key == "name") {
      if (have_name) return fail("duplicate key 'name'");
      have_name = true;
      m.name = std::string(value);
    } else if (key == "study_begin" || key == "op_begin" || key == "study_end") {
      const auto t = common::parse_iso(value);
      if (!t) return fail("bad date in " + std::string(key));
      if (key == "study_begin") {
        if (have_begin) return fail("duplicate key 'study_begin'");
        begin = *t;
        have_begin = true;
      }
      if (key == "op_begin") {
        if (have_op) return fail("duplicate key 'op_begin'");
        op = *t;
        have_op = true;
      }
      if (key == "study_end") {
        if (have_end) return fail("duplicate key 'study_end'");
        end = *t;
        have_end = true;
      }
    } else if (key == "node") {
      const auto colon = value.rfind(':');
      if (colon == std::string_view::npos) {
        return fail("bad node entry");
      }
      const long long gpus = common::parse_ll(value.substr(colon + 1));
      if (gpus <= 0 || gpus > 8) {
        return fail("bad node GPU count");
      }
      m.spec.nodes.push_back({std::string(value.substr(0, colon)),
                              static_cast<std::int32_t>(gpus)});
    } else if (key == "nodes") {
      if (declared_nodes >= 0) return fail("duplicate key 'nodes'");
      declared_nodes = common::parse_ll(value);
      if (declared_nodes < 0) return fail("bad value for 'nodes'");
    } else {
      return fail("unknown key '" + std::string(key) + "'");
    }
  }
  if (!have_begin || !have_op || !have_end) {
    return common::Error::make("manifest: missing period boundaries");
  }
  if (m.spec.nodes.empty()) {
    return common::Error::make("manifest: no nodes");
  }
  // A declared count that disagrees with the entries means the manifest was
  // truncated or spliced — exactly the corruption this check exists to catch.
  if (declared_nodes >= 0 &&
      declared_nodes != static_cast<long long>(m.spec.nodes.size())) {
    return common::Error::make(
        "manifest: nodes=" + std::to_string(declared_nodes) + " but " +
        std::to_string(m.spec.nodes.size()) + " node entries");
  }
  try {
    m.periods = StudyPeriods::make(begin, op, end);
  } catch (const std::invalid_argument& e) {
    return common::Error::make(std::string("manifest: ") + e.what());
  }
  return m;
}

DatasetWriter::DatasetWriter(fs::path dir, DatasetManifest manifest)
    : dir_(std::move(dir)), manifest_(std::move(manifest)) {
  fs::create_directories(dir_ / "syslog");
  accounting_.open(dir_ / "slurm_accounting.txt",
                   std::ios::trunc | std::ios::binary);
  if (!accounting_) {
    throw std::runtime_error("DatasetWriter: cannot create accounting file in " +
                             dir_.string());
  }
}

DatasetWriter::~DatasetWriter() {
  // Destructors must not fail; an explicit finalize() observes the status.
  (void)finalize();
}

void DatasetWriter::note_write_failure(const std::string& what) {
  if (write_error_.empty()) write_error_ = what;
}

void DatasetWriter::write_day(common::TimePoint day_start,
                              const logsys::DayBuffer& day) {
  const auto path =
      dir_ / "syslog" / ("syslog-" + common::format_date(day_start) + ".log");
  std::ofstream os(path, std::ios::trunc | std::ios::binary);
  if (!os) {
    note_write_failure("DatasetWriter: cannot write " + path.string());
    return;
  }
  day.for_each_run([&os](std::string_view run) {
    os.write(run.data(), static_cast<std::streamsize>(run.size()));
  });
  os.flush();
  if (!os) {
    note_write_failure("DatasetWriter: write failed on " + path.string());
    return;
  }
  ++days_;
}

void DatasetWriter::write_day(common::TimePoint day_start,
                              const std::vector<logsys::RawLine>& lines) {
  logsys::DayBuffer day;
  std::size_t bytes = 0;
  for (const auto& l : lines) bytes += l.text.size() + 1;
  day.reserve(lines.size(), bytes);
  for (const auto& l : lines) day.append(l.time, l.text);
  write_day(day_start, day);
}

void DatasetWriter::write_accounting_line(std::string_view line) {
  accounting_ << line << '\n';
  if (!accounting_) {
    note_write_failure("DatasetWriter: accounting write failed in " +
                       dir_.string());
  }
}

common::Status DatasetWriter::finalize() {
  if (finalized_) return final_status_;
  finalized_ = true;
  accounting_.flush();
  if (!accounting_) {
    note_write_failure("DatasetWriter: accounting flush failed in " +
                       dir_.string());
  }
  accounting_.close();
  std::ofstream os(dir_ / "manifest.txt", std::ios::trunc | std::ios::binary);
  if (!os) {
    note_write_failure("DatasetWriter: cannot write manifest in " +
                       dir_.string());
  } else {
    os << manifest_.serialize();
    os.flush();
    if (!os) {
      note_write_failure("DatasetWriter: manifest write failed in " +
                         dir_.string());
    }
  }
  if (!write_error_.empty()) {
    final_status_ = common::Error::make(write_error_);
  }
  return final_status_;
}

common::Result<DatasetManifest> read_manifest(const fs::path& dir) {
  auto text = common::read_file((dir / "manifest.txt").string());
  if (!text.ok()) {
    return common::Error::make("dataset: missing manifest.txt in " +
                               dir.string());
  }
  return DatasetManifest::parse(text.value());
}

std::optional<common::TimePoint> day_file_date(std::string_view filename) {
  // Exactly "syslog-YYYY-MM-DD.log": 7 + 10 + 4 chars.
  if (filename.size() != 21) return std::nullopt;
  if (!common::starts_with(filename, "syslog-")) return std::nullopt;
  if (filename.substr(17) != ".log") return std::nullopt;
  const auto date = filename.substr(7, 10);
  for (std::size_t i = 0; i < date.size(); ++i) {
    const char c = date[i];
    if (i == 4 || i == 7) {
      if (c != '-') return std::nullopt;
    } else if (c < '0' || c > '9') {
      return std::nullopt;
    }
  }
  return common::parse_iso(date);
}

namespace {

/// An unreadable day: strict aborts, lenient records a coverage gap.
common::Status handle_read_failure(const fs::path& path,
                                   common::TimePoint date,
                                   const common::Error& err,
                                   const IngestOptions& opt) {
  if (opt.policy == IngestPolicy::kStrict) {
    return common::Error::make("dataset: cannot read " + path.string() + ": " +
                               err.message);
  }
  if (opt.quality != nullptr) {
    opt.quality->skipped_days.push_back(
        SkippedDay{common::format_date(date), err.message});
  }
  if (opt.warn) {
    opt.warn("skipping unreadable day " + path.string() + ": " + err.message);
  }
  return {};
}

common::Status ingest_accounting(const fs::path& dir,
                                 AnalysisPipeline& pipeline,
                                 const IngestOptions& opt) {
  const auto path = dir / "slurm_accounting.txt";
  // A wholly absent dump is a coverage gap, not corruption: like a missing
  // day, absent evidence is reported under both policies and fatal under
  // neither (log-only datasets are legitimate).  Only a dump that exists
  // but cannot be read — or carries malformed rows — is an error.
  std::error_code exists_ec;
  if (!fs::exists(path, exists_ec)) {
    if (opt.quality != nullptr) {
      opt.quality->accounting_present = false;
    }
    if (opt.warn) {
      opt.warn("no slurm_accounting.txt in " + dir.string() +
               ", job analyses will be empty");
    }
    return {};
  }
  auto acc = common::read_file(path.string());
  if (!acc.ok()) {
    if (opt.policy == IngestPolicy::kStrict) {
      return common::Error::make("dataset: " + acc.error().message);
    }
    if (opt.quality != nullptr) {
      opt.quality->accounting_present = false;
      opt.quality->accounting_error = acc.error().message;
    }
    if (opt.warn) {
      opt.warn("accounting dump unreadable, job analyses will be empty: " +
               acc.error().message);
    }
    return {};
  }
  if (opt.quality != nullptr) opt.quality->accounting_present = true;
  // The whole dump is one chunk at a fresh cursor.
  AccountingCursor cur;
  auto st = pipeline.ingest_accounting(acc.value(), path.string(), opt, cur);
  if (!st.ok()) return st;
  if (auto* q = opt.quality) {
    q->accounting_rows_kept += cur.rows_kept;
    q->accounting_rows_rejected += cur.rows_rejected;
    q->accounting_bytes_rejected += cur.bytes_rejected;
  }
  warn_rejected_rows(cur, path.string(), opt.warn);
  return {};
}

}  // namespace

common::Result<std::uint64_t> load_dataset(const fs::path& dir,
                                           AnalysisPipeline& pipeline,
                                           const IngestOptions& options,
                                           obs::ProgressReporter* progress) {
  OBS_SPAN("dataset.load");
  const auto syslog_dir = dir / "syslog";
  if (!fs::is_directory(syslog_dir)) {
    return common::Error::make("dataset: missing syslog/ in " + dir.string());
  }
  // Collect day files; names encode the date, so lexicographic order is
  // chronological order.  Anything that is not exactly a day file — editor
  // backups, .swp droppings, stray directories — is skipped and recorded,
  // never treated as a day.
  struct DayFile {
    fs::path path;
    common::TimePoint date = 0;
  };
  std::vector<DayFile> days;
  for (const auto& entry : fs::directory_iterator(syslog_dir)) {
    const auto name = entry.path().filename().string();
    const auto date = day_file_date(name);
    if (!date || !entry.is_regular_file()) {
      if (options.quality != nullptr) {
        options.quality->stray_files.push_back(name);
      }
      if (options.warn) {
        options.warn("ignoring stray entry in syslog/: " + name);
      }
      continue;
    }
    days.push_back(DayFile{entry.path(), *date});
  }
  std::sort(days.begin(), days.end(),
            [](const DayFile& a, const DayFile& b) { return a.path < b.path; });
  if (options.quality != nullptr) {
    // Stray-file order must not depend on directory iteration order.
    std::sort(options.quality->stray_files.begin(),
              options.quality->stray_files.end());
  }

  // Coverage: every date in the expected range (the manifest periods, or the
  // span of the files present) must have a day file.
  if (options.quality != nullptr) {
    auto* q = options.quality;
    q->policy = options.policy;
    q->error_budget = options.error_budget;
    common::TimePoint begin = options.expect_begin;
    common::TimePoint end = options.expect_end;
    if (end <= begin && !days.empty()) {
      begin = days.front().date;
      end = days.back().date + common::kDay;
    }
    std::vector<common::TimePoint> present;
    present.reserve(days.size());
    for (const auto& d : days) present.push_back(d.date);
    q->add_coverage(begin, end, present);
  }

  // Day ingestion.  Each file is one sized read whose string the pipeline
  // adopts as the day's arena.  Serial mode reads inline; with a pool, a
  // sliding window of read tasks runs ahead on it (day N parses while days
  // N+1..N+k load).  Days are *consumed* strictly in file order either
  // way, so the ingestion sequence — and every downstream artifact — is the
  // same.
  common::ThreadPool* pool = pipeline.pool();
  DayScreen screen(pipeline.metrics(), options);
  // A whole day file is one chunk: base line/offset 0, fresh file counts.
  const auto ingest = [&](const DayFile& d, std::string&& text) {
    const std::uint64_t file_bytes = text.size();
    const auto path = d.path.string();
    logsys::ScreenCounts counts;
    auto day = screen.screen(path, d.date, std::move(text), 0, 0, counts);
    if (!day.ok()) return common::Status(day.error());
    warn_screened(counts, path, options.warn);
    if (options.quality != nullptr) {
      options.quality->add_day(d.date, file_bytes, counts);
    }
    pipeline.ingest_day(d.date, std::move(day).take());
    return common::Status();
  };
  struct Slot {
    std::string text;
    common::Error error;
    bool failed = false;
  };
  std::vector<Slot> slots(days.size());
  const auto read = [&slots, &days](std::size_t i) {
    auto text = common::read_file(days[i].path.string());
    if (text.ok()) {
      slots[i].text = std::move(text).take();
    } else {
      slots[i].error = text.error();
      slots[i].failed = true;
    }
  };
  const std::size_t window = pool != nullptr ? pool->size() + 1 : 0;
  std::vector<std::future<void>> reads(days.size());
  // Prefetch depth: schedule/consume both happen on this thread, so the
  // gauge (and its max — the peak window fill) is deterministic.
  obs::Gauge* prefetch_depth = nullptr;
  if (pool != nullptr) {
    auto& reg = pipeline.metrics();
    reg.describe("ingest.prefetch.in_flight",
                 "Day-file read tasks scheduled but not yet consumed", "days");
    prefetch_depth = &reg.gauge("ingest.prefetch.in_flight");
  }
  // Any early return below (strict offense, exceeded error budget, read
  // failure) unwinds while up to `window` read tasks are still queued or
  // running against `slots` and `days` — and these futures come from
  // packaged_task, whose destructor does not block.  Drain whatever is
  // still in flight on every exit path; on the success path all futures
  // have been consumed by .get() and this is a no-op.
  struct DrainInFlight {
    std::vector<std::future<void>>& reads;
    ~DrainInFlight() {
      for (auto& f : reads) {
        if (f.valid()) f.wait();
      }
    }
  } drain{reads};
  const auto schedule = [&](std::size_t i) {
    prefetch_depth->add(1);
    reads[i] = pool->submit([&read, i] { read(i); });
  };
  for (std::size_t i = 0; i < std::min(window, days.size()); ++i) {
    schedule(i);
  }
  std::uint64_t ingested = 0;
  for (std::size_t i = 0; i < days.size(); ++i) {
    if (pool == nullptr) {
      read(i);
    } else {
      reads[i].get();
      prefetch_depth->add(-1);
      // Keep the read window full before parsing blocks this thread.
      if (i + window < days.size()) schedule(i + window);
    }
    if (slots[i].failed) {
      auto st = handle_read_failure(days[i].path, days[i].date,
                                    slots[i].error, options);
      if (!st.ok()) return st.error();
      continue;
    }
    auto st = ingest(days[i], std::move(slots[i].text));
    if (!st.ok()) return st.error();
    ++ingested;
    if (progress != nullptr) {
      progress->update(static_cast<std::size_t>(ingested), days.size());
    }
  }

  // Accounting: one sized read, then an in-place newline split (getline
  // pulled ~1.5M lines through the streambuf one character at a time).
  auto acc_status = ingest_accounting(dir, pipeline, options);
  if (!acc_status.ok()) return acc_status.error();

  pipeline.finish();
  return ingested;
}

common::Result<std::uint64_t> load_dataset(const fs::path& dir,
                                           AnalysisPipeline& pipeline,
                                           obs::ProgressReporter* progress) {
  return load_dataset(dir, pipeline, IngestOptions{}, progress);
}

}  // namespace gpures::analysis
