#include "serve/serve.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <type_traits>

#include "common/hash.h"
#include "common/io.h"
#include "obs/trace.h"
#include "simd/scan.h"

namespace gpures::serve {

namespace fs = std::filesystem;

namespace {

analysis::IngestRules rules_of(const ServeConfig& cfg) {
  return analysis::IngestRules{cfg.policy, cfg.error_budget, cfg.screen};
}

/// num / den in parts per million (the registry's gauges are integers).
std::int64_t ppm(std::uint64_t num, std::uint64_t den) {
  if (den == 0) return 0;
  return static_cast<std::int64_t>(static_cast<double>(num) * 1e6 /
                                   static_cast<double>(den));
}

/// How far a `syslog/` mtime must lag the clock before no entry created
/// after the walk can share it: Linux stamps directories from a clock that
/// advances once per jiffy (at most 10 ms).  A more recent stamp does not
/// gate the next walk.  Filesystems with coarser stamps are covered by the
/// `reprobe_ticks` cadence walk.
constexpr auto kStampSettle = std::chrono::milliseconds(50);

}  // namespace

/// One tailed day file: the persistent SourceSnapshot plus transient state
/// (re-derived after a resume).
struct ServeSession::Source : SourceSnapshot {
  std::string path;
  bool at_eof = false;  ///< last read saw EOF
  bool stalled = false; ///< watchdog latch, to warn once per stall
};

struct ServeSession::Metrics {
  obs::Counter* ticks = nullptr;
  obs::Counter* dir_scans = nullptr;
  obs::Counter* chunks = nullptr;
  obs::Counter* bytes = nullptr;
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

ServeSession::ServeSession(ServeConfig cfg)
    : ResultSet(nullptr, analysis::StudyPeriods{}, cfg, cfg.threads,
                cfg.metrics),
      cfg_(std::move(cfg)),
      syslog_dir_(cfg_.data_dir / "syslog"),
      acct_path_((cfg_.data_dir / "slurm_accounting.txt").string()),
      screen_(metrics(), rules_of(cfg_)) {
  m_ = std::make_unique<Metrics>();
  auto& reg = metrics();
  m_->ticks = &reg.counter("serve.ticks");
  reg.describe("serve.dir_scans",
               "Full walks of syslog/: at open(), when its mtime changes, and "
               "every reprobe_ticks; other ticks probe only the next day's "
               "name",
               "walks");
  m_->dir_scans = &reg.counter("serve.dir_scans");
  m_->chunks = &reg.counter("serve.chunks");
  m_->bytes = &reg.counter("serve.bytes_ingested");
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
  return degraded_days_ + (acct_.degraded ? 1 : 0);
}

common::Status ServeSession::open(bool resume) {
  common::check(!opened_, "ServeSession: open() called twice");
  OBS_SPAN("serve.open");
  const auto manifest = analysis::read_manifest(cfg_.data_dir);
  if (!manifest.ok()) return manifest.error();
  periods_ = manifest.value().periods;
  topology_ = std::make_unique<cluster::Topology>(manifest.value().spec);
  topo_ = topology_.get();
  logs_.emplace(*topo_, cfg_.coalescer, errors_, lifecycle_, metrics(),
                "serve", pool());
  accounting_.emplace(*topo_, jobs_, metrics(), "serve", pool());

  if (!fs::is_directory(syslog_dir_)) {
    return common::Error::make("dataset: missing syslog/ in " +
                               cfg_.data_dir.string());
  }
  if (!cfg_.checkpoint_dir.empty()) {
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
  scan_sources();
  return {};
}

void ServeSession::discover_sources() {
  const bool cadence =
      cfg_.reprobe_ticks == 0 || tick_ % cfg_.reprobe_ticks == 0;
  std::error_code ec;
  const auto stamp = fs::last_write_time(syslog_dir_, ec);
  if (cadence || ec || stamp != dir_stamp_) {
    scan_sources();
    return;
  }
  // Nothing was created or removed since the walk.  Sealing the newest day
  // needs only "a later day exists", so once it is at EOF probe the name
  // of its successor, not the directory.
  if (sources_.empty()) return;
  const Source& newest = sources_.back();
  if (!newest.at_eof && !newest.sealed && !newest.degraded) return;
  const common::TimePoint next = newest.date + common::kDay;
  const std::string name = "syslog-" + common::format_date(next) + ".log";
  if (fs::is_regular_file(syslog_dir_ / name, ec)) add_source(name, next);
}

void ServeSession::scan_sources() {
  OBS_SPAN("serve.scan.walk");
  m_->dir_scans->inc();
  // The stamp is read before the walk: an entry created during the walk
  // changes the mtime after this read, so the next tick walks again.
  // A stamp recent enough to be shared by a later entry proves nothing, so
  // it stays unset and the next tick walks again.
  std::error_code stamp_ec;
  const auto stamp = fs::last_write_time(syslog_dir_, stamp_ec);
  dir_stamp_.reset();
  if (!stamp_ec && fs::file_time_type::clock::now() - stamp >= kStampSettle) {
    dir_stamp_ = stamp;
  }
  std::error_code ec;
  for (fs::directory_iterator it(syslog_dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    const auto name = it->path().filename().string();
    std::error_code type_ec;
    const bool regular = it->is_regular_file(type_ec);
    // An entry that vanished mid-walk is skipped; a dangling symlink still
    // exists, and is a stray like any other non-regular entry.
    if (type_ec && !it->is_symlink(type_ec)) continue;
    const auto date = analysis::day_file_date(name);
    if (!date || !regular) {
      const auto pos = std::lower_bound(strays_.begin(), strays_.end(), name);
      if (pos == strays_.end() || *pos != name) {
        strays_.insert(pos, name);
        dirty_ = true;
        if (cfg_.warn) cfg_.warn("ignoring stray entry in syslog/: " + name);
      }
      continue;
    }
    add_source(name, *date);
  }
  if (ec) {
    // The directory existed at open(); treat a transient disappearance like
    // any other source hiccup — keep the known sources, note it, move on.
    dir_stamp_.reset();
    if (cfg_.warn) {
      cfg_.warn("cannot scan " + syslog_dir_.string() + ": " + ec.message());
    }
  }
}

void ServeSession::add_source(const std::string& name,
                              common::TimePoint date) {
  const auto pos = std::lower_bound(
      sources_.begin(), sources_.end(), date,
      [](const Source& s, common::TimePoint d) { return s.date < d; });
  if (pos != sources_.end() && pos->date == date) return;  // known
  Source src;
  src.name = name;
  src.path = (syslog_dir_ / name).string();
  src.date = date;
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
    degrade(sources_[idx], sources_[idx].name,
            "day file appeared after its ingest slot had passed");
  }
}

template <typename State>
void ServeSession::degrade(State& state, const std::string& name,
                           const std::string& reason) {
  if (state.degraded) return;
  state.degraded = true;
  state.degrade_reason = reason;
  if constexpr (std::is_same_v<State, Source>) ++degraded_days_;
  dirty_ = true;
  m_->degraded_total->inc();
  if (cfg_.warn) {
    cfg_.warn("degrading source " + name + ": " + reason + " (keeping " +
              std::to_string(state.offset) +
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
    if (probe(acct_path_, acct_.offset)) {
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

common::Result<std::string> ServeSession::read_chunk(const std::string& path,
                                                     std::uint64_t offset,
                                                     bool& at_end) {
  // Grow the read until it holds a newline or reaches EOF: a single line
  // longer than max_chunk_bytes (quarantined as overlong later) must not
  // wedge the source.
  for (std::uint64_t max = cfg_.max_chunk_bytes;; max *= 2) {
    auto r = read_with_retry(path, offset, max);
    if (!r.ok()) return r;
    at_end = r.value().size() < max;
    if (at_end || r.value().find('\n') != std::string::npos) {
      m_->chunks->inc();
      return r;
    }
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
  ++sealed_days_;
  dirty_ = true;
  watermark_ = std::max(watermark_, src.date + common::kDay);
  analysis::warn_screened(src.counts, src.path, cfg_.warn);
}

common::Status ServeSession::pump_frontier(bool drain) {
  advance_frontier();
  if (frontier_ >= sources_.size()) return {};
  Source& src = sources_[frontier_];
  bool at_end = false;
  auto r = read_chunk(src.path, src.offset, at_end);
  if (!r.ok()) {
    if (cfg_.policy == analysis::IngestPolicy::kStrict) {
      return common::Error::make("dataset: cannot read " + src.path + ": " +
                                 r.error().message);
    }
    degrade(src, src.name, r.error().message);
    return {};
  }
  std::string chunk = std::move(r).take();
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
  const std::uint64_t n_bytes = text.size();
  const std::uint64_t n_lines =
      simd::active_ops().count_byte(text.data(), text.size(), '\n') +
      (torn_tail ? 1 : 0);
  // The lines and bytes already consumed from the file are the base, so an
  // offense names the same absolute spot batch strict ingest reports.
  auto screened = screen_.screen(src.path, src.date, std::move(text),
                                 src.lines_seen, src.offset, src.counts);
  if (!screened.ok()) return screened.error();
  const logsys::DayBuffer day = std::move(screened).take();
  src.offset += n_bytes;
  src.lines_seen += n_lines;
  dirty_ = true;
  m_->bytes->add(n_bytes);

  // Stages I and II over the chunk: chunk boundaries, like worker counts,
  // never change what LogIngest produces.
  const common::TimePoint newest = logs_->ingest(src.date, day);
  watermark_ = std::max(watermark_, newest);
  src.last_event = std::max(src.last_event, newest);
  return {};
}

common::Status ServeSession::pump_accounting(bool drain) {
  if (acct_.degraded) return {};
  std::error_code ec;
  if (!fs::exists(acct_path_, ec)) {
    // Absent is a coverage gap, not an error — same as the batch loader.
    acct_at_eof_ = true;
    return {};
  }
  if (!acct_.seen) {
    acct_.seen = true;
    dirty_ = true;
  }
  bool at_end = false;
  auto r = read_chunk(acct_path_, acct_.offset, at_end);
  if (!r.ok()) {
    if (cfg_.policy == analysis::IngestPolicy::kStrict) {
      return common::Error::make("dataset: " + r.error().message);
    }
    degrade(acct_, "slurm_accounting.txt", r.error().message);
    return {};
  }
  std::string chunk = std::move(r).take();
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
  auto st = accounting_->consume(text, acct_path_, rules_of(cfg_), acct_);
  if (!st.ok()) return st;
  dirty_ = true;
  m_->bytes->add(text.size());
  return {};
}

void ServeSession::watchdog_and_gauges() {
  std::int64_t stalled = 0;
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
  m_->sources_total->set(static_cast<std::int64_t>(sources_.size()));
  m_->sources_sealed->set(static_cast<std::int64_t>(sealed_days_));
  m_->sources_degraded->set(static_cast<std::int64_t>(degraded_count()));
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
  OBS_SPAN("serve.tick");
  ++tick_;
  m_->ticks->inc();
  if (cfg_.chaos_point) cfg_.chaos_point("tick");
  const std::uint64_t bytes_before = m_->bytes->value();
  const std::size_t sources_before = sources_.size();
  const std::size_t settled_before = sealed_days_ + degraded_days_;

  {
    OBS_SPAN("serve.scan");
    discover_sources();
    if (cfg_.reprobe_ticks > 0 && tick_ % cfg_.reprobe_ticks == 0) {
      reprobe_degraded();
    }
  }
  common::Status st;
  {
    OBS_SPAN("serve.pump_day");
    st = pump_frontier(false);
  }
  if (!st.ok()) return st;
  {
    OBS_SPAN("serve.pump_accounting");
    st = pump_accounting(false);
  }
  if (!st.ok()) return st;

  const bool progressed = m_->bytes->value() != bytes_before ||
                          sources_.size() != sources_before ||
                          sealed_days_ + degraded_days_ != settled_before;
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
  OBS_SPAN("serve.checkpoint");
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
  data.sources.assign(sources_.begin(), sources_.end());
  data.accounting = acct_;
  data.stray_files = strays_;
  data.coalescer = logs_->state();
  return data;
}

void ServeSession::restore(CheckpointData&& data) {
  tick_ = data.tick;
  seq_ = data.seq;
  last_checkpoint_tick_ = data.tick;
  watermark_ = data.watermark;
  sources_.clear();
  sealed_days_ = degraded_days_ = 0;
  for (auto& s : data.sources) {
    Source src;
    static_cast<SourceSnapshot&>(src) = std::move(s);
    src.path = (syslog_dir_ / src.name).string();
    if (src.sealed) ++sealed_days_;
    if (src.degraded) ++degraded_days_;
    sources_.push_back(std::move(src));
  }
  frontier_ = 0;
  advance_frontier();
  acct_ = std::move(data.accounting);
  strays_ = std::move(data.stray_files);
  logs_->restore(data.coalescer);
  errors_ = std::move(data.errors);
  lifecycle_ = std::move(data.lifecycle);
  jobs_ = std::move(data.jobs);
  dirty_ = false;
}

common::Status ServeSession::finalize() {
  common::check(opened_, "ServeSession: finalize() before open()");
  if (finished_) return {};
  OBS_SPAN("serve.finalize");
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
  logs_->finish();
  sort_results();
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
  std::vector<common::TimePoint> present;
  present.reserve(sources_.size());
  for (const auto& src : sources_) present.push_back(src.date);
  q.add_coverage(periods_.pre.begin, periods_.op.end, present);
  for (const auto& src : sources_) {
    if (src.degraded && src.offset == 0) {
      // Nothing of this day made it in: the batch-lenient equivalent of an
      // unreadable day — a recorded coverage gap.
      q.skipped_days.push_back(analysis::SkippedDay{
          common::format_date(src.date), src.degrade_reason});
    } else {
      q.add_day(src.date, src.offset, src.counts);
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
  analysis::warn_rejected_rows(acct_, acct_path_, cfg_.warn);
  q.accounting_rows_kept = acct_.rows_kept;
  q.accounting_rows_rejected = acct_.rows_rejected;
  q.accounting_bytes_rejected = acct_.bytes_rejected;
}

}  // namespace gpures::serve
