// Golden-file regression harness: a small fixed-seed campaign is simulated,
// teed to an on-disk dataset, and analyzed; the exported Table I/II/III and
// Fig. 2 CSVs plus the JSON bundle are compared byte-for-byte against
// checked-in snapshots under tests/golden/.  Any change to parsing,
// coalescing, statistics, or formatting shows up as a byte diff.
//
// To regenerate after an *intentional* change:
//
//   GPURES_UPDATE_GOLDEN=1 ./build/tests/test_golden_pipeline
//
// then review the tests/golden/ diff and commit it (see DESIGN.md).
//
// The same artifacts are also recomputed by a parallel (3-worker) pipeline
// reading the dataset back from disk — proving the golden bytes are
// independent of both the execution mode and the in-memory vs on-disk path.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "analysis/campaign.h"
#include "analysis/dataset.h"
#include "analysis/export.h"
#include "analysis/reports.h"
#include "common/io.h"

namespace an = gpures::analysis;
namespace fs = std::filesystem;

namespace {

#ifndef GPURES_GOLDEN_DIR
#error "GPURES_GOLDEN_DIR must point at tests/golden"
#endif

bool update_mode() {
  const char* env = std::getenv("GPURES_UPDATE_GOLDEN");
  return env != nullptr && *env != '\0' && std::string_view(env) != "0";
}

std::string render_csv(void (*writer)(std::ostream&, const an::ErrorStats&),
                       const an::ErrorStats& stats) {
  std::ostringstream os;
  writer(os, stats);
  return os.str();
}

class GoldenPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per-process dir: ctest runs each discovered test case as its own
    // process, possibly concurrently, and each one re-runs this setup.
    dataset_dir_ = fs::temp_directory_path() /
                   ("gpures_golden_ds." + std::to_string(getpid()));
    fs::remove_all(dataset_dir_);

    an::CampaignConfig cfg = an::CampaignConfig::quick();
    cfg.seed = 20240806;
    cfg.workload_scale *= 0.15;

    an::DatasetManifest manifest;
    manifest.name = "golden-quick";
    manifest.spec = cfg.spec;
    manifest.periods = an::StudyPeriods::make(
        cfg.faults.study_begin, cfg.faults.op_begin, cfg.faults.study_end);

    writer_ = new an::DatasetWriter(dataset_dir_, manifest);
    campaign_ = new an::DeltaCampaign(cfg);
    campaign_->set_dataset_writer(writer_);
    campaign_->run();
    writer_->finalize();
  }
  static void TearDownTestSuite() {
    delete campaign_;
    campaign_ = nullptr;
    delete writer_;
    writer_ = nullptr;
    fs::remove_all(dataset_dir_);
  }

  static std::string artifact(const an::AnalysisPipeline& pipe,
                              const std::string& name) {
    const auto stats = pipe.error_stats();
    if (name == "table1.csv") return render_csv(an::write_table1_csv, stats);
    std::ostringstream os;
    if (name == "table2.csv") {
      an::write_table2_csv(os, pipe.job_impact());
    } else if (name == "table3.csv") {
      an::write_table3_csv(os, pipe.job_stats());
    } else if (name == "fig2.csv") {
      an::write_fig2_csv(os, pipe.availability());
    } else if (name == "export.json") {
      const auto jobs = pipe.job_stats();
      const auto impact = pipe.job_impact();
      const auto avail = pipe.availability();
      an::ExportBundle bundle;
      bundle.error_stats = &stats;
      bundle.job_stats = &jobs;
      bundle.job_impact = &impact;
      bundle.availability = &avail;
      bundle.mttf_h = pipe.mttf_estimate_h();
      os << an::to_json(bundle) << '\n';
    } else {
      ADD_FAILURE() << "unknown artifact " << name;
    }
    return os.str();
  }

  /// Compare one rendered artifact against its snapshot (or rewrite it).
  static void check_against_golden(const std::string& name,
                                   const std::string& actual) {
    const fs::path path = fs::path(GPURES_GOLDEN_DIR) / name;
    if (update_mode()) {
      fs::create_directories(path.parent_path());
      std::ofstream os(path, std::ios::trunc | std::ios::binary);
      os << actual;
      ASSERT_TRUE(os.good()) << "cannot write " << path;
      return;
    }
    const auto snapshot = gpures::common::read_file(path.string());
    ASSERT_TRUE(snapshot.ok())
        << "missing golden snapshot " << path
        << " — run with GPURES_UPDATE_GOLDEN=1 to create it";
    const std::string& expected = snapshot.value();
    // EXPECT_EQ on the full strings gives a readable first-difference diff.
    EXPECT_EQ(expected, actual) << name << " diverged from tests/golden/"
                                << name << "; if the change is intentional, "
                                   "regenerate with GPURES_UPDATE_GOLDEN=1";
  }

  static an::DeltaCampaign* campaign_;
  static an::DatasetWriter* writer_;
  static fs::path dataset_dir_;
};

an::DeltaCampaign* GoldenPipeline::campaign_ = nullptr;
an::DatasetWriter* GoldenPipeline::writer_ = nullptr;
fs::path GoldenPipeline::dataset_dir_;

const char* const kArtifacts[] = {"table1.csv", "table2.csv", "table3.csv",
                                  "fig2.csv", "export.json"};

}  // namespace

TEST_F(GoldenPipeline, ExportedArtifactsMatchSnapshots) {
  for (const char* name : kArtifacts) {
    check_against_golden(name, artifact(campaign_->pipeline(), name));
  }
  if (update_mode()) {
    GTEST_SKIP() << "golden snapshots regenerated; rerun without "
                    "GPURES_UPDATE_GOLDEN to verify";
  }
}

TEST_F(GoldenPipeline, ParallelDatasetReplayReproducesGoldenBytes) {
  // Read the teed dataset back through parallel pipelines (3 and 8 workers;
  // the latter shards Stage III wider than this machine has cores); every
  // artifact must be byte-identical to the in-memory serial campaign's.
  const auto manifest = an::read_manifest(dataset_dir_);
  ASSERT_TRUE(manifest.ok()) << manifest.error().message;
  gpures::cluster::Topology topo(manifest.value().spec);
  for (const std::uint32_t threads : {3u, 8u}) {
    an::PipelineConfig pcfg = campaign_->config().pipeline;
    pcfg.periods = manifest.value().periods;
    pcfg.num_threads = threads;
    an::AnalysisPipeline pipe(topo, pcfg);
    const auto loaded = an::load_dataset(dataset_dir_, pipe);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    ASSERT_GT(loaded.value(), 0u);

    for (const char* name : kArtifacts) {
      EXPECT_EQ(artifact(campaign_->pipeline(), name), artifact(pipe, name))
          << name << " differs between serial in-memory and " << threads
          << "-worker replay";
    }
  }
}

TEST_F(GoldenPipeline, DiagnosticsAreClean) {
  const auto& m = campaign_->pipeline().metrics();
  EXPECT_EQ(m.counter_value("pipe.unknown_hosts"), 0u);
  EXPECT_EQ(m.counter_value("pipe.accounting_errors"), 0u);
  EXPECT_EQ(m.counter_value("pipe.out_of_order_observations"), 0u);
}
