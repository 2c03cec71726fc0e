// Crash-safe follow-mode ingestion (the gpures-serve daemon core).
//
// A ServeSession tails a dataset directory the way a site would feed live
// logs: day files may grow, rotate, appear late, or fail to read; the
// accounting dump may trail behind.  The session advances a *frontier* —
// day sources are consumed strictly in date order, chunk by chunk, feeding
// a single streaming coalescer — so the final errors / lifecycle / jobs
// sequences are byte-identical to what the batch pipeline (gpures-analyze)
// would produce over the same final bytes.  Chunk boundaries never affect
// results: classification and parsing are per-line, and chunks are always
// cut at the last newline.
//
// Resilience contract:
//  * Every source read runs under a bounded exponential-backoff retry
//    policy.  Transient faults (EINTR, fail-N-then-succeed, short reads —
//    see common::IoFaultPlan) are absorbed and counted.
//  * When the retry budget is exhausted, the source is *degraded*: it is
//    quarantined from further ingestion, reported in serve.* metrics and in
//    the data-quality report, and re-probed on a backoff cadence; the
//    session keeps serving every other source and still exits 0.
//  * A stall watchdog flags sources whose watermark stops advancing.
//  * With a checkpoint directory configured, the session persists a
//    checkpoint generation every N ticks (see serve/checkpoint.h): the
//    results emitted since the previous generation are appended to
//    checksummed segments, then a small frontier file is renamed into
//    place.  kill -9 at any point followed by open(resume=true) replays to
//    the same final artifacts, at any thread count.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/data_quality.h"
#include "analysis/dataset.h"
#include "analysis/ingest.h"
#include "analysis/result_set.h"
#include "cluster/topology.h"
#include "common/error.h"
#include "logsys/day_buffer.h"
#include "obs/metrics.h"
#include "serve/checkpoint.h"

namespace gpures::serve {

/// Bounded exponential backoff applied to every source read.
struct RetryPolicy {
  std::uint32_t max_attempts = 5;     ///< total tries per read (>= 1)
  std::uint64_t backoff_ms = 10;      ///< first retry delay
  std::uint64_t backoff_max_ms = 1000;
  std::uint64_t deadline_ms = 0;      ///< total backoff budget; 0 = none
};

struct ServeConfig : analysis::AnalysisKnobs {
  std::filesystem::path data_dir;
  /// Empty disables checkpointing (still crash-safe, just resumes from
  /// scratch).
  std::filesystem::path checkpoint_dir;
  std::uint64_t checkpoint_interval = 16;  ///< ticks between snapshots
  std::uint32_t threads = 0;               ///< chunk-parse workers; 0 = serial
  std::uint64_t max_chunk_bytes = 4 << 20;
  /// Ticks without growth before a torn EOF fragment of a *rotated* day
  /// (a later day file exists) is consumed as torn, and before a
  /// non-advancing source is flagged stalled.
  std::uint64_t stall_ticks = 8;
  /// Cadence of degraded-source re-probes and of the full `syslog/` walk
  /// that bounds discovery on filesystems with coarse mtimes.  0 walks on
  /// every tick and never re-probes.
  std::uint64_t reprobe_ticks = 16;
  RetryPolicy retry;
  analysis::IngestPolicy policy = analysis::IngestPolicy::kLenient;
  std::uint64_t error_budget = 0;
  logsys::LineScreen screen;
  /// Registry for the serve.* metrics; the session owns a private one when
  /// null.  Metrics never feed back into analysis results.
  obs::MetricsRegistry* metrics = nullptr;
  /// Human-readable warnings (degradations, quarantines, stalls); null =
  /// silent.
  std::function<void(const std::string&)> warn;
  /// Test hook fired at named scheduler points ("tick", "ckpt-pre",
  /// "ckpt-mid" between segment append and frontier rename, "ckpt-post");
  /// the CLI's --chaos-kill raises SIGKILL from here.
  std::function<void(const char*)> chaos_point;
  /// Backoff sleep, injectable so fault tests run at full speed; null uses
  /// a real sleep.  Sleeping never affects results, only wall-clock.
  std::function<void(std::uint64_t)> sleep_ms;
};

/// The result accessors (errors, jobs, Stage-III analyses, topology,
/// periods, pool, metrics) come from analysis::ResultSet and are valid
/// after finalize(); the topology and periods after open().
class ServeSession : public analysis::ResultSet {
 public:
  explicit ServeSession(ServeConfig cfg);
  ~ServeSession();

  /// Read the manifest, discover sources, and (when `resume` and a usable
  /// checkpoint exists) restore the persisted ingestion state.  A checkpoint
  /// written under a different analysis configuration is rejected.  Without
  /// a usable checkpoint the checkpoint directory is reset (fresh start).
  common::Status open(bool resume);

  /// One scheduler tick: discover new day files, re-probe degraded
  /// sources, pump one chunk of the frontier day source and one of the
  /// accounting tail, run the stall watchdog, refresh gauges, and checkpoint
  /// on the configured cadence.  Discovery costs O(1) unless `syslog/` can
  /// hold something new: the full walk runs only when its mtime changed,
  /// when that mtime is too recent to trust, and every `reprobe_ticks`
  /// (every tick when 0); otherwise, once the newest day is at EOF, only
  /// the next day's name is probed (DESIGN "Source discovery").  Returns an
  /// error only for fatal conditions (strict-mode offense, exceeded error
  /// budget) — I/O trouble degrades sources instead.
  common::Status tick();

  /// True when the last tick consumed nothing and every source is drained
  /// to EOF (sealed, degraded, or a final still-growing file at EOF).  The
  /// --once loop exits here; follow mode keeps ticking.
  bool idle() const { return idle_; }

  /// Drain every remaining byte (including torn EOF fragments and the
  /// accounting tail), flush the coalescer, sort results, and derive the
  /// data-quality report.  After this the result accessors are valid and
  /// the outputs equal a batch gpures-analyze run over the same bytes.
  common::Status finalize();

  /// Force a checkpoint now (used at graceful shutdown, before finalize()).
  /// No-op without a checkpoint directory, and after finalize(): the result
  /// vectors are sorted then, no longer append-only.
  common::Status checkpoint_now();

  /// The data-quality report (valid after finalize()).
  const analysis::DataQualityReport& quality() const { return quality_; }

  // ---- introspection ----
  std::uint64_t ticks() const { return tick_; }
  std::uint64_t checkpoint_seq() const { return seq_; }
  common::TimePoint watermark() const { return watermark_; }
  /// Stable hash of the analysis-relevant configuration (threads excluded:
  /// resuming at a different --threads is valid and byte-identical).
  std::uint64_t config_hash() const;
  /// Sources currently degraded (day files and/or accounting).
  std::uint64_t degraded_count() const;

 private:
  struct Source;
  struct Metrics;

  /// Full walk of `syslog/`: records the directory mtime first (so an entry
  /// created during the walk triggers the next one), then adds every new
  /// day file and reports every new stray.
  void scan_sources();
  /// Per-tick discovery: the full walk when `syslog/` may hold something
  /// new, else the O(1) successor probe.
  void discover_sources();
  /// Insert day file `name` in date order; a day whose ingest slot has
  /// already passed is quarantined instead.
  void add_source(const std::string& name, common::TimePoint date);
  void reprobe_degraded();
  /// Read [offset, offset+max) of `path` under the retry policy.  On
  /// exhaustion returns the last error; the *caller* decides between
  /// degradation (lenient) and a fatal error (strict).
  common::Result<std::string> read_with_retry(const std::string& path,
                                              std::uint64_t offset,
                                              std::uint64_t max_bytes);
  /// One chunk of `path` from `offset` under the retry policy, grown until
  /// it holds a newline or reaches EOF (`at_end`).
  common::Result<std::string> read_chunk(const std::string& path,
                                         std::uint64_t offset, bool& at_end);
  /// Quarantine a day source or the accounting tail after retry exhaustion.
  template <typename State>
  void degrade(State& state, const std::string& name,
               const std::string& reason);
  /// Pump one chunk of the frontier source.  `drain` (finalize) consumes
  /// torn fragments immediately instead of waiting out stall_ticks.
  common::Status pump_frontier(bool drain);
  common::Status pump_accounting(bool drain);
  /// Feed `text` (cut at a line boundary, or a final torn fragment when
  /// `torn_tail`) of day source `src` through the screen and LogIngest.
  common::Status consume_day_text(Source& src, std::string&& text,
                                  bool torn_tail);
  common::Status consume_accounting_text(std::string&& text);
  void seal(Source& src);
  void advance_frontier();
  void watchdog_and_gauges();
  common::Status maybe_checkpoint();
  CheckpointFrontier snapshot() const;
  void restore(CheckpointData&& data);
  void derive_quality();

  ServeConfig cfg_;
  const std::filesystem::path syslog_dir_;  ///< data_dir/syslog
  const std::string acct_path_;             ///< data_dir/slurm_accounting.txt
  std::unique_ptr<cluster::Topology> topology_;  ///< read at open()
  analysis::DayScreen screen_;
  std::optional<analysis::LogIngest> logs_;               ///< from open()
  std::optional<analysis::AccountingIngest> accounting_;  ///< from open()
  std::unique_ptr<CheckpointStore> store_;

  std::vector<Source> sources_;  ///< date order
  std::size_t frontier_ = 0;     ///< first unsealed, undegraded source
  std::size_t sealed_days_ = 0;    ///< sources_ sealed
  std::size_t degraded_days_ = 0;  ///< sources_ degraded (never also sealed)
  /// `syslog/`'s mtime, read before the last walk; unset when that walk
  /// failed or the stamp was too recent to prove that nothing was created
  /// after it, so the next tick walks again.  Transient: a resumed session
  /// walks at open() and records it afresh.
  std::optional<std::filesystem::file_time_type> dir_stamp_;
  AccountingSnapshot acct_;
  bool acct_at_eof_ = false;
  std::vector<std::string> strays_;  ///< sorted, deduplicated

  analysis::DataQualityReport quality_;

  std::uint64_t tick_ = 0;
  std::uint64_t seq_ = 0;  ///< last checkpoint generation written/restored
  std::uint64_t last_checkpoint_tick_ = 0;
  common::TimePoint watermark_ = 0;
  bool dirty_ = false;  ///< state changed since the last checkpoint
  bool idle_ = false;
  bool opened_ = false;
  bool finished_ = false;

  std::unique_ptr<Metrics> m_;
};

}  // namespace gpures::serve
