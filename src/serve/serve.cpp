#include "serve/serve.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <variant>

#include "common/hash.h"
#include "common/io.h"
#include "common/strings.h"
#include "slurm/accounting.h"
#include "xid/xid.h"

namespace gpures::serve {

namespace fs = std::filesystem;

namespace {

// Same total order the batch pipeline sorts by: two distinct errors can
// never tie (same (gpu, code) errors are > window apart by construction).
bool error_before(const analysis::CoalescedError& a,
                  const analysis::CoalescedError& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.gpu != b.gpu) return a.gpu < b.gpu;
  return xid::to_number(a.code) < xid::to_number(b.code);
}

/// num / den in parts per million (the registry's gauges are integers).
std::int64_t ppm(std::uint64_t num, std::uint64_t den) {
  if (den == 0) return 0;
  return static_cast<std::int64_t>(static_cast<double>(num) * 1e6 /
                                   static_cast<double>(den));
}

std::uint64_t count_newlines(std::string_view text) {
  std::uint64_t n = 0;
  for (const char c : text) {
    if (c == '\n') ++n;
  }
  return n;
}

}  // namespace

/// One tailed day file.  The persistent slice is mirrored in
/// SourceSnapshot; `at_eof` is transient (re-derived by the next read).
struct ServeSession::Source {
  std::string name;
  std::string path;
  common::TimePoint date = 0;
  std::uint64_t offset = 0;
  std::uint64_t lines_seen = 0;
  bool existed = false;
  bool sealed = false;
  bool degraded = false;
  bool recovered = false;
  std::string degrade_reason;
  std::uint64_t last_progress_tick = 0;
  common::TimePoint last_event = 0;
  logsys::ScreenCounts counts;
  bool at_eof = false;  ///< last read saw EOF (not checkpointed)
  bool stalled = false; ///< watchdog latch, to warn once per stall
};

struct ServeSession::Metrics {
  obs::Counter* ticks = nullptr;
  obs::Counter* chunks = nullptr;
  obs::Counter* bytes = nullptr;
  obs::Counter* log_lines = nullptr;
  obs::Counter* xid_records = nullptr;
  obs::Counter* lifecycle_records = nullptr;
  obs::Counter* rejected_lines = nullptr;
  obs::Counter* unknown_hosts = nullptr;
  obs::Counter* dropped_torn = nullptr;
  obs::Counter* dropped_binary = nullptr;
  obs::Counter* dropped_overlong = nullptr;
  obs::Counter* accounting_lines = nullptr;
  obs::Counter* accounting_errors = nullptr;
  obs::Counter* out_of_order = nullptr;
  obs::Counter* errors_coalesced = nullptr;
  obs::Counter* retry_attempts = nullptr;
  obs::Counter* retry_recovered = nullptr;
  obs::Counter* retry_exhausted = nullptr;
  obs::Counter* degraded_total = nullptr;
  obs::Counter* ckpt_writes = nullptr;
  obs::Counter* ckpt_bytes = nullptr;
  obs::Counter* ckpt_failures = nullptr;
  obs::Histogram* ckpt_write_us = nullptr;
  obs::Gauge* ckpt_amplification = nullptr;
  obs::Gauge* sources_total = nullptr;
  obs::Gauge* sources_sealed = nullptr;
  obs::Gauge* sources_degraded = nullptr;
  obs::Gauge* sources_stalled = nullptr;
  obs::Gauge* watermark_epoch = nullptr;
  obs::Gauge* ckpt_age_ticks = nullptr;
  obs::Gauge* ckpt_last_seq = nullptr;
  obs::Gauge* ckpt_interval_ticks = nullptr;
  obs::Gauge* lag_bytes = nullptr;
};

ServeSession::ServeSession(ServeConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.metrics != nullptr) {
    metrics_ = cfg_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  m_ = std::make_unique<Metrics>();
  auto& reg = *metrics_;
  m_->ticks = &reg.counter("serve.ticks");
  m_->chunks = &reg.counter("serve.chunks");
  m_->bytes = &reg.counter("serve.bytes_ingested");
  m_->log_lines = &reg.counter("serve.log_lines");
  m_->xid_records = &reg.counter("serve.xid_records");
  m_->lifecycle_records = &reg.counter("serve.lifecycle_records");
  m_->rejected_lines = &reg.counter("serve.rejected_lines");
  m_->unknown_hosts = &reg.counter("serve.unknown_hosts");
  reg.describe("ingest.lines_dropped",
               "Raw log lines quarantined by the ingest screen, by reason",
               "lines");
  m_->dropped_torn = &reg.counter("ingest.lines_dropped", {{"reason", "torn"}});
  m_->dropped_binary =
      &reg.counter("ingest.lines_dropped", {{"reason", "binary"}});
  m_->dropped_overlong =
      &reg.counter("ingest.lines_dropped", {{"reason", "overlong"}});
  m_->accounting_lines = &reg.counter("serve.accounting_lines");
  m_->accounting_errors = &reg.counter("serve.accounting_errors");
  m_->out_of_order = &reg.counter("serve.out_of_order_observations");
  m_->errors_coalesced = &reg.counter("serve.errors_coalesced");
  m_->retry_attempts = &reg.counter("serve.retry.attempts");
  m_->retry_recovered = &reg.counter("serve.retry.recovered");
  m_->retry_exhausted = &reg.counter("serve.retry.exhausted");
  m_->degraded_total = &reg.counter("serve.sources.degraded_total");
  m_->ckpt_writes = &reg.counter("serve.checkpoint.writes");
  m_->ckpt_bytes = &reg.counter("serve.checkpoint.bytes");
  m_->ckpt_failures = &reg.counter("serve.checkpoint.failures");
  if (!cfg_.checkpoint_dir.empty()) {
    reg.describe("serve.checkpoint.write_us",
                 "Wall time of one checkpoint generation: segment appends "
                 "plus the frontier write",
                 "us");
    m_->ckpt_write_us =
        &reg.histogram("serve.checkpoint.write_us", obs::latency_buckets_us());
    reg.describe("serve.checkpoint.amplification_ppm",
                 "Checkpoint bytes written per byte ingested, in parts per "
                 "million (1000000 = every ingested byte written once)",
                 "ppm");
    m_->ckpt_amplification = &reg.gauge("serve.checkpoint.amplification_ppm");
  }
  m_->sources_total = &reg.gauge("serve.sources.total");
  m_->sources_sealed = &reg.gauge("serve.sources.sealed");
  m_->sources_degraded = &reg.gauge("serve.sources.degraded");
  m_->sources_stalled = &reg.gauge("serve.sources.stalled");
  m_->watermark_epoch = &reg.gauge("serve.watermark_epoch");
  m_->ckpt_age_ticks = &reg.gauge("serve.checkpoint.age_ticks");
  m_->ckpt_last_seq = &reg.gauge("serve.checkpoint.last_seq");
  m_->ckpt_interval_ticks = &reg.gauge("serve.checkpoint.interval_ticks");
  m_->lag_bytes = &reg.gauge("serve.frontier.lag_bytes");

  if (cfg_.threads > 0) {
    pool_ = std::make_unique<common::ThreadPool>(cfg_.threads);
    for (std::uint32_t w = 0; w < cfg_.threads; ++w) {
      parsers_.push_back(std::make_unique<analysis::FastLineParser>());
    }
  } else {
    parsers_.push_back(std::make_unique<analysis::FastLineParser>());
  }
  coalescer_ = std::make_unique<analysis::Coalescer>(
      cfg_.coalescer, [this](const analysis::CoalescedError& e) {
        errors_.push_back(e);
        m_->errors_coalesced->inc();
      });
}

ServeSession::~ServeSession() = default;

std::uint64_t ServeSession::config_hash() const {
  std::string s = "serve-ckpt-v1;";
  s += "coalesce_window=" + std::to_string(cfg_.coalescer.window) + ";";
  s += "filter=" + std::to_string(cfg_.coalescer.filter_to_catalog ? 1 : 0) +
       ";";
  s += "merge=" + std::to_string(cfg_.coalescer.merge_families ? 1 : 0) + ";";
  s += "attribution_window=" + std::to_string(cfg_.attribution_window) + ";";
  s += "attribution=" + std::to_string(static_cast<int>(cfg_.attribution)) +
       ";";
  s += "outlier_share=" + std::to_string(cfg_.outlier_share) + ";";
  s += "outlier_min=" + std::to_string(cfg_.outlier_min) + ";";
  s += "policy=" + std::to_string(static_cast<int>(cfg_.policy)) + ";";
  s += "error_budget=" + std::to_string(cfg_.error_budget) + ";";
  s += "max_line_len=" + std::to_string(cfg_.screen.max_line_len) + ";";
  s += "pre=" + std::to_string(periods_.pre.begin) + "," +
       std::to_string(periods_.pre.end) + ";";
  s += "op=" + std::to_string(periods_.op.begin) + "," +
       std::to_string(periods_.op.end) + ";";
  s += "nodes=" + std::to_string(topo_ ? topo_->node_count() : 0) + ";";
  s += "gpus=" + std::to_string(topo_ ? topo_->total_gpus() : 0);
  return common::xxhash64(s);
}

std::uint64_t ServeSession::degraded_count() const {
  std::uint64_t n = acct_.degraded ? 1 : 0;
  for (const auto& src : sources_) {
    if (src.degraded) ++n;
  }
  return n;
}

common::Status ServeSession::open(bool resume) {
  common::check(!opened_, "ServeSession: open() called twice");
  const auto manifest = analysis::read_manifest(cfg_.data_dir);
  if (!manifest.ok()) return manifest.error();
  periods_ = manifest.value().periods;
  topo_ = std::make_unique<cluster::Topology>(manifest.value().spec);

  if (!fs::is_directory(cfg_.data_dir / "syslog")) {
    return common::Error::make("dataset: missing syslog/ in " +
                               cfg_.data_dir.string());
  }
  if (!cfg_.checkpoint_dir.empty()) {
    std::error_code ec;
    fs::create_directories(cfg_.checkpoint_dir, ec);
    if (ec) {
      return common::Error::make("serve: cannot create checkpoint dir " +
                                 cfg_.checkpoint_dir.string() + ": " +
                                 ec.message());
    }
    store_ = std::make_unique<CheckpointStore>(cfg_.checkpoint_dir);
    m_->ckpt_interval_ticks->set(
        static_cast<std::int64_t>(cfg_.checkpoint_interval));
  }

  opened_ = true;
  if (store_ != nullptr) {
    std::optional<CheckpointData> loaded;
    if (resume) {
      auto latest = store_->load_latest(cfg_.warn);
      if (!latest.ok()) return latest.error();
      loaded = std::move(latest).take();
    }
    if (loaded.has_value()) {
      if (loaded->config_hash != config_hash()) {
        return common::Error::make(
            "serve: checkpoint was written under a different configuration; "
            "refusing to resume (delete the checkpoint dir or rerun with the "
            "original flags)");
      }
      restore(std::move(*loaded));
      if (cfg_.warn) {
        cfg_.warn("resumed from checkpoint seq " + std::to_string(seq_) +
                  " at tick " + std::to_string(tick_));
      }
    } else {
      // Fresh start: segments of an earlier run must not prefix this one's.
      auto st = store_->reset(config_hash());
      if (!st.ok()) return st;
    }
  }
  return scan_sources();
}

common::Status ServeSession::scan_sources() {
  const auto syslog_dir = cfg_.data_dir / "syslog";
  std::error_code ec;
  fs::directory_iterator it(syslog_dir, ec);
  if (ec) {
    // The directory existed at open(); treat a transient disappearance like
    // any other source hiccup — keep the known sources, note it, move on.
    if (cfg_.warn) {
      cfg_.warn("cannot scan " + syslog_dir.string() + ": " + ec.message());
    }
    return {};
  }
  for (const auto& entry : fs::directory_iterator(syslog_dir, ec)) {
    const auto name = entry.path().filename().string();
    const auto date = analysis::day_file_date(name);
    if (!date || !entry.is_regular_file()) {
      const auto pos = std::lower_bound(strays_.begin(), strays_.end(), name);
      if (pos == strays_.end() || *pos != name) {
        strays_.insert(pos, name);
        dirty_ = true;
        if (cfg_.warn) cfg_.warn("ignoring stray entry in syslog/: " + name);
      }
      continue;
    }
    const auto pos = std::lower_bound(
        sources_.begin(), sources_.end(), *date,
        [](const Source& s, common::TimePoint d) { return s.date < d; });
    if (pos != sources_.end() && pos->date == *date) continue;  // known
    Source src;
    src.name = name;
    src.path = entry.path().string();
    src.date = *date;
    src.existed = true;
    src.last_progress_tick = tick_;
    const auto idx = static_cast<std::size_t>(pos - sources_.begin());
    sources_.insert(pos, std::move(src));
    dirty_ = true;
    // The slot has passed once any *later* day has been consumed: ingesting
    // this file now would break the batch-equivalent ordering contract, so
    // it can only be reported.  idx == frontier_ still counts when the
    // displaced frontier source was already partially read.
    bool slot_passed = idx < frontier_;
    for (std::size_t j = idx + 1; !slot_passed && j < sources_.size(); ++j) {
      slot_passed = sources_[j].offset > 0 || sources_[j].sealed;
    }
    if (slot_passed) {
      if (idx < frontier_) ++frontier_;
      degrade(sources_[idx],
              "day file appeared after its ingest slot had passed");
    }
  }
  return {};
}

void ServeSession::degrade(Source& src, const std::string& reason) {
  if (src.degraded) return;
  src.degraded = true;
  src.degrade_reason = reason;
  dirty_ = true;
  m_->degraded_total->inc();
  if (cfg_.warn) {
    cfg_.warn("degrading source " + src.name + ": " + reason +
              " (keeping " + std::to_string(src.offset) +
              " ingested bytes; will re-probe)");
  }
}

void ServeSession::degrade_accounting(const std::string& reason) {
  if (acct_.degraded) return;
  acct_.degraded = true;
  acct_.degrade_reason = reason;
  dirty_ = true;
  m_->degraded_total->inc();
  if (cfg_.warn) {
    cfg_.warn("degrading source slurm_accounting.txt: " + reason +
              " (keeping " + std::to_string(acct_.offset) +
              " ingested bytes; will re-probe)");
  }
}

void ServeSession::reprobe_degraded() {
  const auto probe = [](const std::string& path, std::uint64_t offset) {
    return common::read_file_range(path, offset, 1).ok();
  };
  for (auto& src : sources_) {
    if (!src.degraded || src.recovered) continue;
    if (probe(src.path, src.offset)) {
      src.recovered = true;
      dirty_ = true;
      if (cfg_.warn) {
        cfg_.warn("degraded source " + src.name +
                  " is readable again (its ingest slot has passed; data is "
                  "not re-ingested, only reported)");
      }
    }
  }
  if (acct_.degraded) {
    const auto path = (cfg_.data_dir / "slurm_accounting.txt").string();
    if (probe(path, acct_.offset)) {
      // Unlike a day file, the accounting tail has no ordering constraint
      // against other sources — resume it where it left off.
      acct_.degraded = false;
      acct_.degrade_reason.clear();
      dirty_ = true;
      if (cfg_.warn) {
        cfg_.warn("accounting dump is readable again, resuming the tail at "
                  "byte " +
                  std::to_string(acct_.offset));
      }
    }
  }
}

common::Result<std::string> ServeSession::read_with_retry(
    const std::string& path, std::uint64_t offset, std::uint64_t max_bytes) {
  const std::uint32_t max_attempts = std::max(1u, cfg_.retry.max_attempts);
  std::uint64_t backoff = cfg_.retry.backoff_ms;
  std::uint64_t slept = 0;
  for (std::uint32_t attempt = 1;; ++attempt) {
    auto r = common::read_file_range(path, offset, max_bytes);
    if (r.ok()) {
      if (attempt > 1) m_->retry_recovered->inc();
      return r;
    }
    const bool out_of_attempts = attempt >= max_attempts;
    const bool out_of_time =
        cfg_.retry.deadline_ms > 0 && slept >= cfg_.retry.deadline_ms;
    if (out_of_attempts || out_of_time) {
      m_->retry_exhausted->inc();
      return r.error();
    }
    m_->retry_attempts->inc();
    if (cfg_.sleep_ms) {
      cfg_.sleep_ms(backoff);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    slept += backoff;
    backoff = std::min(backoff * 2, cfg_.retry.backoff_max_ms);
  }
}

void ServeSession::advance_frontier() {
  while (frontier_ < sources_.size() &&
         (sources_[frontier_].sealed || sources_[frontier_].degraded)) {
    ++frontier_;
  }
}

void ServeSession::seal(Source& src) {
  src.sealed = true;
  dirty_ = true;
  watermark_ = std::max(watermark_, src.date + common::kDay);
  if (cfg_.warn) {
    if (src.counts.quarantined_lines() > 0) {
      cfg_.warn("quarantined " +
                std::to_string(src.counts.quarantined_lines()) +
                " corrupt lines (" +
                std::to_string(src.counts.quarantined_bytes()) + " bytes) in " +
                src.path);
    }
    if (src.counts.crlf_bytes > 0) {
      cfg_.warn("normalized " + std::to_string(src.counts.crlf_bytes) +
                " CRLF line terminators in " + src.path);
    }
  }
}

common::Status ServeSession::pump_frontier(bool drain) {
  advance_frontier();
  if (frontier_ >= sources_.size()) return {};
  Source& src = sources_[frontier_];
  // Grow the read until it holds a newline or reaches EOF: a single line
  // longer than max_chunk_bytes (quarantined as overlong later) must not
  // wedge the frontier.
  std::uint64_t max = cfg_.max_chunk_bytes;
  std::string chunk;
  bool at_end = false;
  while (true) {
    auto r = read_with_retry(src.path, src.offset, max);
    if (!r.ok()) {
      if (cfg_.policy == analysis::IngestPolicy::kStrict) {
        return common::Error::make("dataset: cannot read " + src.path + ": " +
                                   r.error().message);
      }
      degrade(src, r.error().message);
      return {};
    }
    chunk = std::move(r).take();
    at_end = chunk.size() < max;
    if (at_end || chunk.find('\n') != std::string::npos) break;
    max *= 2;
  }
  m_->chunks->inc();
  const bool later_exists = frontier_ + 1 < sources_.size();
  if (chunk.empty()) {
    src.at_eof = true;
    if (later_exists || drain) {
      seal(src);
      advance_frontier();
    }
    return {};
  }
  const auto nl = chunk.rfind('\n');
  if (nl == std::string::npos) {
    // A newline-less tail.  While the file can still be mid-append, leave
    // it for the next tick; once it is rotation-final (a later day exists
    // and it stopped growing) or we are draining, it is a torn fragment.
    src.at_eof = at_end;
    const bool rotation_final =
        later_exists && tick_ >= src.last_progress_tick + cfg_.stall_ticks;
    if (at_end && (drain || rotation_final)) {
      auto st = consume_day_text(src, std::move(chunk), true);
      if (!st.ok()) return st;
      seal(src);
      advance_frontier();
    }
    return {};
  }
  const bool tail_remains = nl + 1 < chunk.size();
  chunk.resize(nl + 1);
  auto st = consume_day_text(src, std::move(chunk), false);
  if (!st.ok()) return st;
  src.last_progress_tick = tick_;
  src.stalled = false;
  if (at_end && !tail_remains) {
    src.at_eof = true;
    if (later_exists || drain) {
      seal(src);
      advance_frontier();
    }
  } else {
    src.at_eof = false;
  }
  return {};
}

common::Status ServeSession::consume_day_text(Source& src, std::string&& text,
                                              bool torn_tail) {
  const std::uint64_t base_offset = src.offset;
  const std::uint64_t base_lines = src.lines_seen;
  const std::uint64_t n_bytes = text.size();
  const std::uint64_t n_lines = count_newlines(text) + (torn_tail ? 1 : 0);
  logsys::ScreenCounts sc;
  auto day =
      logsys::DayBuffer::from_text(src.date, std::move(text), cfg_.screen, sc);
  if (sc.torn_lines > 0) m_->dropped_torn->add(sc.torn_lines);
  if (sc.binary_lines > 0) m_->dropped_binary->add(sc.binary_lines);
  if (sc.overlong_lines > 0) m_->dropped_overlong->add(sc.overlong_lines);
  if (sc.quarantined_lines() > 0 &&
      cfg_.policy == analysis::IngestPolicy::kStrict) {
    // Chunk-relative offense location + the bytes/lines already consumed =
    // the same absolute location batch strict ingest reports.
    return common::Error::at(
        "dataset: " + std::string(sc.first_category) +
            " line rejected by strict ingest",
        src.path, base_lines + sc.first_line, base_offset + sc.first_offset);
  }
  // Fold the chunk tallies into the source's cumulative counts.
  auto& c = src.counts;
  c.kept_lines += sc.kept_lines;
  c.kept_bytes += sc.kept_bytes;
  c.binary_lines += sc.binary_lines;
  c.binary_bytes += sc.binary_bytes;
  c.overlong_lines += sc.overlong_lines;
  c.overlong_bytes += sc.overlong_bytes;
  c.torn_lines += sc.torn_lines;
  c.torn_bytes += sc.torn_bytes;
  c.crlf_bytes += sc.crlf_bytes;
  if (c.first_category == nullptr && sc.first_category != nullptr) {
    c.first_category = sc.first_category;
    c.first_line = base_lines + sc.first_line;
    c.first_offset = base_offset + sc.first_offset;
  }
  if (cfg_.error_budget > 0 && c.quarantined_lines() > cfg_.error_budget) {
    return common::Error::make(
        "dataset: per-day error budget exceeded: " +
        std::to_string(c.quarantined_lines()) + " quarantined lines in " +
        src.path + " (budget " + std::to_string(cfg_.error_budget) + ")");
  }
  src.offset += n_bytes;
  src.lines_seen += n_lines;
  dirty_ = true;
  m_->bytes->add(n_bytes);

  // Stage I over the chunk.  Parallel mode splits the lines into one
  // contiguous range per worker and merges range-ordered — the observation
  // sequence is the line sequence either way, so results are byte-identical
  // at any thread count.
  struct Parsed {
    std::vector<analysis::XidObservation> obs;
    std::vector<analysis::LifecycleRecord> lifecycle;
  };
  const auto parse_range = [&](const analysis::LineParser& parser,
                               std::size_t lo, std::size_t hi, Parsed& out) {
    std::uint64_t lines = 0, rejected = 0, unknown = 0, xids = 0, lifes = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      ++lines;
      auto parsed = parser.parse(day.line(i), src.date);
      if (!parsed) {
        ++rejected;
        continue;
      }
      if (auto* xrec = std::get_if<analysis::XidRecord>(&*parsed)) {
        const auto node = topo_->node_index(xrec->host);
        if (!node) {
          ++unknown;
          continue;
        }
        const auto slot = topo_->slot_for_pci(*node, xrec->pci);
        if (!slot) {
          ++unknown;
          continue;
        }
        ++xids;
        analysis::XidObservation obs;
        obs.time = xrec->time;
        obs.gpu = {*node, *slot};
        obs.xid = xrec->xid;
        out.obs.push_back(obs);
      } else if (auto* lrec =
                     std::get_if<analysis::LifecycleRecord>(&*parsed)) {
        if (!topo_->node_index(lrec->host)) {
          ++unknown;
          continue;
        }
        ++lifes;
        out.lifecycle.push_back(std::move(*lrec));
      }
    }
    m_->log_lines->add(lines);
    m_->rejected_lines->add(rejected);
    m_->unknown_hosts->add(unknown);
    m_->xid_records->add(xids);
    m_->lifecycle_records->add(lifes);
  };

  const std::size_t n = day.size();
  std::vector<Parsed> parts;
  if (pool_ != nullptr && n >= 2 * pool_->size()) {
    const std::size_t workers = pool_->size();
    parts.resize(workers);
    pool_->parallel_for(workers, [&](std::size_t i, std::size_t w) {
      const std::size_t lo = i * n / workers;
      const std::size_t hi = (i + 1) * n / workers;
      parse_range(*parsers_[w % parsers_.size()], lo, hi, parts[i]);
    });
  } else {
    parts.resize(1);
    parse_range(*parsers_[0], 0, n, parts[0]);
  }
  for (auto& part : parts) {
    for (auto& l : part.lifecycle) lifecycle_.push_back(std::move(l));
    for (const auto& o : part.obs) {
      coalescer_->add(o);
      if (o.time > watermark_) watermark_ = o.time;
      if (o.time > src.last_event) src.last_event = o.time;
    }
  }
  return {};
}

common::Status ServeSession::pump_accounting(bool drain) {
  if (acct_.degraded) return {};
  const auto path = (cfg_.data_dir / "slurm_accounting.txt").string();
  std::error_code ec;
  if (!fs::exists(cfg_.data_dir / "slurm_accounting.txt", ec)) {
    // Absent is a coverage gap, not an error — same as the batch loader.
    acct_at_eof_ = true;
    return {};
  }
  if (!acct_.seen) {
    acct_.seen = true;
    dirty_ = true;
  }
  std::uint64_t max = cfg_.max_chunk_bytes;
  std::string chunk;
  bool at_end = false;
  while (true) {
    auto r = read_with_retry(path, acct_.offset, max);
    if (!r.ok()) {
      if (cfg_.policy == analysis::IngestPolicy::kStrict) {
        return common::Error::make("dataset: " + r.error().message);
      }
      degrade_accounting(r.error().message);
      return {};
    }
    chunk = std::move(r).take();
    at_end = chunk.size() < max;
    if (at_end || chunk.find('\n') != std::string::npos) break;
    max *= 2;
  }
  m_->chunks->inc();
  if (chunk.empty()) {
    acct_at_eof_ = true;
    return {};
  }
  const auto nl = chunk.rfind('\n');
  if (nl == std::string::npos) {
    acct_at_eof_ = at_end;
    if (drain && at_end) {
      // Final unterminated row: the batch loader processes it too.
      return consume_accounting_text(std::move(chunk));
    }
    return {};
  }
  const bool tail_remains = nl + 1 < chunk.size();
  chunk.resize(nl + 1);
  acct_at_eof_ = at_end && !tail_remains;
  return consume_accounting_text(std::move(chunk));
}

common::Status ServeSession::consume_accounting_text(std::string&& text) {
  const std::uint64_t base = acct_.offset;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t nlpos = text.find('\n', start);
    const std::size_t end = nlpos == std::string::npos ? text.size() : nlpos;
    const auto line = std::string_view(text).substr(start, end - start);
    auto st = accounting_line(line, acct_.line_no + 1, base + start);
    if (!st.ok()) return st;
    acct_.line_no += 1;
    if (nlpos == std::string::npos) break;
    start = nlpos + 1;
  }
  acct_.offset += text.size();
  dirty_ = true;
  m_->bytes->add(text.size());
  return {};
}

common::Status ServeSession::accounting_line(std::string_view line,
                                             std::uint64_t line_no,
                                             std::uint64_t byte_start) {
  const auto trimmed = common::trim(line);
  if (trimmed.empty()) return {};
  m_->accounting_lines->inc();
  if (trimmed == slurm::kAccountingHeader) return {};
  if (!slurm::parse_accounting_line(trimmed, *topo_, acct_record_).ok()) {
    m_->accounting_errors->inc();
    const auto path = (cfg_.data_dir / "slurm_accounting.txt").string();
    if (cfg_.policy == analysis::IngestPolicy::kStrict) {
      return common::Error::at("dataset: malformed accounting row", path,
                               line_no, byte_start);
    }
    acct_.rows_rejected += 1;
    acct_.bytes_rejected += trimmed.size();
    if (cfg_.error_budget > 0 && acct_.rows_rejected > cfg_.error_budget) {
      return common::Error::make(
          "dataset: accounting error budget exceeded: " +
          std::to_string(acct_.rows_rejected) + " rejected rows in " + path +
          " (budget " + std::to_string(cfg_.error_budget) + ")");
    }
    return {};
  }
  jobs_.add(acct_record_);
  acct_.rows_kept += 1;
  return {};
}

void ServeSession::watchdog_and_gauges() {
  std::int64_t sealed = 0, degraded = 0, stalled = 0;
  for (auto& src : sources_) {
    if (src.sealed) ++sealed;
    if (src.degraded) ++degraded;
  }
  advance_frontier();
  if (frontier_ < sources_.size()) {
    Source& src = sources_[frontier_];
    const bool tail_of_run = frontier_ + 1 >= sources_.size() && src.at_eof;
    if (!tail_of_run &&
        tick_ >= src.last_progress_tick + std::max<std::uint64_t>(
                                              1, cfg_.stall_ticks)) {
      ++stalled;
      if (!src.stalled) {
        src.stalled = true;
        if (cfg_.warn) {
          cfg_.warn("watchdog: source " + src.name +
                    " has not advanced for " +
                    std::to_string(tick_ - src.last_progress_tick) + " ticks");
        }
      }
    }
    std::error_code ec;
    const auto size = fs::file_size(src.path, ec);
    if (!ec && size >= src.offset) {
      m_->lag_bytes->set(static_cast<std::int64_t>(size - src.offset));
    }
  } else {
    m_->lag_bytes->set(0);
  }
  if (acct_.degraded) ++degraded;
  m_->sources_total->set(static_cast<std::int64_t>(sources_.size()));
  m_->sources_sealed->set(sealed);
  m_->sources_degraded->set(degraded);
  m_->sources_stalled->set(stalled);
  m_->watermark_epoch->set(watermark_);
  if (store_ != nullptr) {
    m_->ckpt_age_ticks->set(static_cast<std::int64_t>(
        tick_ - std::min(tick_, last_checkpoint_tick_)));
    m_->ckpt_last_seq->set(static_cast<std::int64_t>(seq_));
    m_->ckpt_amplification->set(
        ppm(m_->ckpt_bytes->value(), m_->bytes->value()));
  }
}

common::Status ServeSession::tick() {
  common::check(opened_, "ServeSession: tick() before open()");
  common::check(!finished_, "ServeSession: tick() after finalize()");
  ++tick_;
  m_->ticks->inc();
  if (cfg_.chaos_point) cfg_.chaos_point("tick");
  const std::uint64_t bytes_before = m_->bytes->value();
  const std::size_t sources_before = sources_.size();
  const std::uint64_t sealed_degraded_before = [&] {
    std::uint64_t n = 0;
    for (const auto& s : sources_) {
      if (s.sealed || s.degraded) ++n;
    }
    return n;
  }();

  auto st = scan_sources();
  if (!st.ok()) return st;
  if (cfg_.reprobe_ticks > 0 && tick_ % cfg_.reprobe_ticks == 0) {
    reprobe_degraded();
  }
  st = pump_frontier(false);
  if (!st.ok()) return st;
  st = pump_accounting(false);
  if (!st.ok()) return st;

  const std::uint64_t sealed_degraded_after = [&] {
    std::uint64_t n = 0;
    for (const auto& s : sources_) {
      if (s.sealed || s.degraded) ++n;
    }
    return n;
  }();
  const bool progressed = m_->bytes->value() != bytes_before ||
                          sources_.size() != sources_before ||
                          sealed_degraded_after != sealed_degraded_before;
  advance_frontier();
  bool days_drained = frontier_ >= sources_.size();
  if (!days_drained && frontier_ + 1 >= sources_.size() &&
      sources_[frontier_].at_eof) {
    days_drained = true;  // final day tailed to EOF (fragment, if any, waits)
  }
  idle_ = !progressed && days_drained && (acct_at_eof_ || acct_.degraded);

  watchdog_and_gauges();
  return maybe_checkpoint();
}

common::Status ServeSession::maybe_checkpoint() {
  if (store_ == nullptr) return {};
  const std::uint64_t interval = std::max<std::uint64_t>(
      1, cfg_.checkpoint_interval);
  if (tick_ % interval != 0 || !dirty_) return {};
  return checkpoint_now();
}

common::Status ServeSession::checkpoint_now() {
  // After finalize() the result vectors are sorted: they are no longer the
  // append-only streams the segments extend, so there is nothing to write.
  if (store_ == nullptr || finished_) return {};
  if (cfg_.chaos_point) cfg_.chaos_point("ckpt-pre");
  const auto began = std::chrono::steady_clock::now();
  CheckpointFrontier frontier = snapshot();
  frontier.seq = seq_ + 1;
  const auto written = store_->write(
      frontier, ResultStreams{errors_, lifecycle_, jobs_.jobs, jobs_.spill},
      [this] {
        if (cfg_.chaos_point) cfg_.chaos_point("ckpt-mid");
      });
  if (!written.ok()) {
    // A checkpoint that cannot be written degrades durability, not service:
    // keep ingesting, count it, and let the next cadence try again.
    m_->ckpt_failures->inc();
    if (cfg_.warn) {
      cfg_.warn("checkpoint write failed: " + written.error().message);
    }
    return {};
  }
  seq_ = frontier.seq;
  last_checkpoint_tick_ = tick_;
  dirty_ = false;
  m_->ckpt_writes->inc();
  m_->ckpt_bytes->add(written.value());
  m_->ckpt_write_us->observe(std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - began)
                                 .count());
  m_->ckpt_amplification->set(
      ppm(m_->ckpt_bytes->value(), m_->bytes->value()));
  m_->ckpt_last_seq->set(static_cast<std::int64_t>(seq_));
  m_->ckpt_age_ticks->set(0);
  if (cfg_.chaos_point) cfg_.chaos_point("ckpt-post");
  return {};
}

CheckpointFrontier ServeSession::snapshot() const {
  CheckpointFrontier data;
  data.config_hash = config_hash();
  data.seq = seq_;
  data.tick = tick_;
  data.watermark = watermark_;
  data.sources.reserve(sources_.size());
  for (const auto& src : sources_) {
    SourceSnapshot s;
    s.name = src.name;
    s.date = src.date;
    s.offset = src.offset;
    s.lines_seen = src.lines_seen;
    s.existed = src.existed;
    s.sealed = src.sealed;
    s.degraded = src.degraded;
    s.recovered = src.recovered;
    s.degrade_reason = src.degrade_reason;
    s.last_progress_tick = src.last_progress_tick;
    s.last_event = src.last_event;
    s.counts = src.counts;
    data.sources.push_back(std::move(s));
  }
  data.accounting = acct_;
  data.stray_files = strays_;
  data.coalescer = coalescer_->state();
  return data;
}

void ServeSession::restore(CheckpointData&& data) {
  tick_ = data.tick;
  seq_ = data.seq;
  last_checkpoint_tick_ = data.tick;
  watermark_ = data.watermark;
  sources_.clear();
  for (auto& s : data.sources) {
    Source src;
    src.name = s.name;
    src.path = (cfg_.data_dir / "syslog" / s.name).string();
    src.date = s.date;
    src.offset = s.offset;
    src.lines_seen = s.lines_seen;
    src.existed = s.existed;
    src.sealed = s.sealed;
    src.degraded = s.degraded;
    src.recovered = s.recovered;
    src.degrade_reason = std::move(s.degrade_reason);
    src.last_progress_tick = s.last_progress_tick;
    src.last_event = s.last_event;
    src.counts = s.counts;
    sources_.push_back(std::move(src));
  }
  frontier_ = 0;
  advance_frontier();
  acct_ = std::move(data.accounting);
  strays_ = std::move(data.stray_files);
  coalescer_->restore(data.coalescer);
  errors_ = std::move(data.errors);
  lifecycle_ = std::move(data.lifecycle);
  jobs_ = std::move(data.jobs);
  dirty_ = false;
}

common::Status ServeSession::finalize() {
  common::check(opened_, "ServeSession: finalize() before open()");
  if (finished_) return {};
  // Drain the remaining day bytes in date order (torn EOF fragments are
  // consumed immediately) — every pump either consumes bytes, seals, or
  // degrades, so this terminates.
  while (true) {
    advance_frontier();
    if (frontier_ >= sources_.size()) break;
    auto st = pump_frontier(true);
    if (!st.ok()) return st;
  }
  // Drain the accounting tail the same way.
  while (!acct_.degraded) {
    const std::uint64_t before = acct_.offset;
    auto st = pump_accounting(true);
    if (!st.ok()) return st;
    if (acct_.offset == before) break;  // absent, or tailed to EOF
  }
  coalescer_->flush();
  m_->out_of_order->add(coalescer_->out_of_order());
  std::sort(errors_.begin(), errors_.end(), error_before);
  std::stable_sort(lifecycle_.begin(), lifecycle_.end(),
                   [](const analysis::LifecycleRecord& a,
                      const analysis::LifecycleRecord& b) {
                     return a.time < b.time;
                   });
  derive_quality();
  watchdog_and_gauges();
  finished_ = true;
  return {};
}

void ServeSession::derive_quality() {
  auto& q = quality_;
  q = analysis::DataQualityReport{};
  q.policy = cfg_.policy;
  q.error_budget = cfg_.error_budget;
  // Coverage over the manifest period, exactly like the batch loader.
  const common::TimePoint begin = periods_.pre.begin;
  const common::TimePoint end = periods_.op.end;
  if (end > begin) {
    std::size_t next = 0;
    for (common::TimePoint t = common::start_of_day(begin); t < end;
         t += common::kDay) {
      q.days_expected += 1;
      while (next < sources_.size() && sources_[next].date < t) ++next;
      if (next >= sources_.size() || sources_[next].date != t) {
        q.missing_days.push_back(common::format_date(t));
      }
    }
  }
  for (const auto& src : sources_) {
    if (src.degraded && src.offset == 0) {
      // Nothing of this day made it in: the batch-lenient equivalent of an
      // unreadable day — a recorded coverage gap.
      q.skipped_days.push_back(analysis::SkippedDay{
          common::format_date(src.date), src.degrade_reason});
    } else {
      q.days_present += 1;
      const auto& c = src.counts;
      q.lines_kept += c.kept_lines;
      q.bytes_kept += c.kept_bytes;
      q.binary_lines += c.binary_lines;
      q.binary_bytes += c.binary_bytes;
      q.overlong_lines += c.overlong_lines;
      q.overlong_bytes += c.overlong_bytes;
      q.torn_lines += c.torn_lines;
      q.torn_bytes += c.torn_bytes;
      q.crlf_bytes += c.crlf_bytes;
      const std::uint64_t file_bytes = src.offset;
      if (file_bytes == 0) q.zero_byte_days += 1;
      if (c.quarantined_lines() > 0 || file_bytes == 0 || c.crlf_bytes > 0) {
        analysis::DayQuality dq;
        dq.date = common::format_date(src.date);
        dq.file_bytes = file_bytes;
        dq.lines_kept = c.kept_lines;
        dq.bytes_kept = c.kept_bytes;
        dq.binary_lines = c.binary_lines;
        dq.binary_bytes = c.binary_bytes;
        dq.overlong_lines = c.overlong_lines;
        dq.overlong_bytes = c.overlong_bytes;
        dq.torn_lines = c.torn_lines;
        dq.torn_bytes = c.torn_bytes;
        dq.crlf_bytes = c.crlf_bytes;
        q.days.push_back(std::move(dq));
      }
    }
    if (src.degraded) {
      q.degraded_sources.push_back(analysis::DegradedSource{
          src.name, src.degrade_reason, src.offset});
    }
  }
  q.stray_files = strays_;
  q.accounting_present = acct_.seen && !(acct_.degraded && acct_.offset == 0);
  if (acct_.degraded) {
    q.accounting_error = acct_.degrade_reason;
    q.degraded_sources.push_back(analysis::DegradedSource{
        "slurm_accounting.txt", acct_.degrade_reason, acct_.offset});
  }
  if (!acct_.seen && cfg_.warn) {
    cfg_.warn("no slurm_accounting.txt in " + cfg_.data_dir.string() +
              ", job analyses will be empty");
  }
  q.accounting_rows_kept = acct_.rows_kept;
  q.accounting_rows_rejected = acct_.rows_rejected;
  q.accounting_bytes_rejected = acct_.bytes_rejected;
}

analysis::ErrorStats ServeSession::error_stats() const {
  analysis::ErrorStatsConfig cfg;
  cfg.node_count = topo_->node_count();
  cfg.outlier_share = cfg_.outlier_share;
  cfg.outlier_min = cfg_.outlier_min;
  return analysis::compute_error_stats(errors_, periods_, cfg);
}

analysis::JobStats ServeSession::job_stats() const {
  return analysis::compute_job_stats(jobs_, periods_.whole());
}

analysis::JobImpact ServeSession::job_impact() const {
  analysis::JobImpactConfig cfg;
  cfg.window = cfg_.attribution_window;
  cfg.period = periods_.op;
  cfg.attribution = cfg_.attribution;
  return analysis::compute_job_impact(jobs_, errors_, cfg, pool_.get(),
                                      nullptr);
}

analysis::AvailabilityStats ServeSession::availability() const {
  analysis::AvailabilityConfig cfg;
  cfg.period = periods_.op;
  cfg.node_count = topo_->node_count();
  return analysis::compute_availability(lifecycle_, cfg, pool_.get());
}

double ServeSession::mttf_estimate_h() const {
  return error_stats().total.op.mtbe_per_node_h;
}

}  // namespace gpures::serve
