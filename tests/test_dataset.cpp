// On-disk dataset round trip: write with DatasetWriter / campaign tee, read
// back with load_dataset, compare pipeline results.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "analysis/campaign.h"
#include "analysis/dataset.h"

namespace an = gpures::analysis;
namespace cl = gpures::cluster;
namespace ct = gpures::common;
namespace ls = gpures::logsys;
namespace fs = std::filesystem;

namespace {

fs::path temp_dir(const std::string& name) {
  const auto dir = fs::temp_directory_path() / ("gpures_test_" + name);
  fs::remove_all(dir);
  return dir;
}

an::DatasetManifest tiny_manifest() {
  an::DatasetManifest m;
  m.spec = cl::ClusterSpec::small(1, 0);
  m.periods = an::StudyPeriods::make(0, ct::kDay, 3 * ct::kDay);
  return m;
}

}  // namespace

TEST(Manifest, SerializeParseRoundTrip) {
  an::DatasetManifest m;
  m.name = "test-set";
  m.spec = cl::ClusterSpec::small(2, 1);
  m.periods = an::StudyPeriods::make(ct::make_date(2023, 1, 1),
                                     ct::make_date(2023, 2, 1),
                                     ct::make_date(2023, 4, 1));
  const auto parsed = an::DatasetManifest::parse(m.serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().name, "test-set");
  EXPECT_EQ(parsed.value().periods.pre.begin, m.periods.pre.begin);
  EXPECT_EQ(parsed.value().periods.op.end, m.periods.op.end);
  ASSERT_EQ(parsed.value().spec.nodes.size(), 3u);
  EXPECT_EQ(parsed.value().spec.nodes[2].name, "gpub001");
  EXPECT_EQ(parsed.value().spec.nodes[2].gpu_count, 8);
}

TEST(Manifest, ParseRejectsGarbage) {
  EXPECT_FALSE(an::DatasetManifest::parse("no equals sign").ok());
  EXPECT_FALSE(an::DatasetManifest::parse("study_begin=not-a-date\n").ok());
  EXPECT_FALSE(an::DatasetManifest::parse("unknown_key=1\n").ok());
  EXPECT_FALSE(an::DatasetManifest::parse("").ok());  // missing boundaries
  // Missing nodes.
  EXPECT_FALSE(an::DatasetManifest::parse(
                   "study_begin=2023-01-01\nop_begin=2023-02-01\n"
                   "study_end=2023-04-01\n")
                   .ok());
  // Bad ordering.
  EXPECT_FALSE(an::DatasetManifest::parse(
                   "study_begin=2023-02-01\nop_begin=2023-01-01\n"
                   "study_end=2023-04-01\nnode=a:4\n")
                   .ok());
  // Comments and blanks are fine.
  EXPECT_TRUE(an::DatasetManifest::parse(
                  "# comment\n\nstudy_begin=2023-01-01\nop_begin=2023-02-01\n"
                  "study_end=2023-04-01\nnode=a:4\n")
                  .ok());
}

TEST(Manifest, ParseRejectsDuplicateKeysNamingTheLine) {
  // Duplicate keys mean a spliced or doubly-appended manifest; accepting the
  // later value would silently shift the study window.
  const auto dup = an::DatasetManifest::parse(
      "name=a\nstudy_begin=2023-01-01\nop_begin=2023-02-01\n"
      "study_end=2023-04-01\nstudy_begin=2023-01-02\nnode=a:4\n");
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.error().message.find("duplicate key 'study_begin'"),
            std::string::npos);
  EXPECT_EQ(dup.error().line, 5u);
  const auto dup_name =
      an::DatasetManifest::parse("name=a\nname=b\n");
  ASSERT_FALSE(dup_name.ok());
  EXPECT_EQ(dup_name.error().line, 2u);
}

TEST(Manifest, ParseRejectsTrailingGarbageNamingTheLine) {
  const auto r = an::DatasetManifest::parse(
      "study_begin=2023-01-01\nop_begin=2023-02-01\n"
      "study_end=2023-04-01\nnode=a:4\n\x01\x02 binary tail\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("malformed line"), std::string::npos);
  EXPECT_EQ(r.error().line, 5u);
}

TEST(Manifest, ParseRejectsNodeCountMismatch) {
  const auto r = an::DatasetManifest::parse(
      "study_begin=2023-01-01\nop_begin=2023-02-01\n"
      "study_end=2023-04-01\nnodes=3\nnode=a:4\nnode=b:4\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("nodes=3"), std::string::npos);
  // A matching declared count round-trips.
  EXPECT_TRUE(an::DatasetManifest::parse(
                  "study_begin=2023-01-01\nop_begin=2023-02-01\n"
                  "study_end=2023-04-01\nnodes=2\nnode=a:4\nnode=b:4\n")
                  .ok());
}

TEST(Dataset, DayFileDateAcceptsOnlyExactNames) {
  EXPECT_EQ(an::day_file_date("syslog-2023-01-05.log"),
            ct::make_date(2023, 1, 5));
  EXPECT_FALSE(an::day_file_date("syslog-2023-01-05.log.bak"));
  EXPECT_FALSE(an::day_file_date("syslog-2023-01-05.log.swp"));
  EXPECT_FALSE(an::day_file_date(".syslog-2023-01-05.log"));
  EXPECT_FALSE(an::day_file_date("syslog-2023-1-05.log"));
  EXPECT_FALSE(an::day_file_date("syslog-2023-13-05.log"));  // bad month
  EXPECT_FALSE(an::day_file_date("syslog-20x3-01-05.log"));
  EXPECT_FALSE(an::day_file_date("notes.txt"));
  EXPECT_FALSE(an::day_file_date(""));
}

TEST(Dataset, StrayFilesAreSkippedWithWarningNotIngested) {
  const auto dir = temp_dir("strays");
  {
    an::DatasetWriter w(dir, tiny_manifest());
    w.write_day(0, {{100, "kernel: NVRM: Xid (PCI:0000:07:00): 13, pid=1"}});
  }
  std::ofstream(dir / "syslog" / "syslog-1970-01-01.log.bak")
      << "backup cruft\n";
  std::ofstream(dir / "syslog" / "notes.txt") << "\x01 binary junk\n";
  fs::create_directories(dir / "syslog" / "subdir");

  cl::Topology topo(cl::ClusterSpec::small(1, 0));
  an::AnalysisPipeline pipe(topo, {});
  an::DataQualityReport quality;
  an::IngestOptions opt;
  opt.quality = &quality;
  std::vector<std::string> warnings;
  opt.warn = [&warnings](const std::string& m) { warnings.push_back(m); };
  const auto loaded = an::load_dataset(dir, pipe, opt);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded.value(), 1u);  // only the real day file
  ASSERT_EQ(quality.stray_files.size(), 3u);  // sorted by name
  EXPECT_EQ(quality.stray_files[0], "notes.txt");
  EXPECT_EQ(quality.stray_files[1], "subdir");
  EXPECT_EQ(quality.stray_files[2], "syslog-1970-01-01.log.bak");
  EXPECT_EQ(warnings.size(), 3u);
  fs::remove_all(dir);
}

TEST(Dataset, WriterCreatesLayout) {
  const auto dir = temp_dir("layout");
  an::DatasetManifest m;
  m.spec = cl::ClusterSpec::small(1, 0);
  m.periods = an::StudyPeriods::make(0, ct::kDay, 3 * ct::kDay);
  {
    an::DatasetWriter w(dir, m);
    w.write_day(ct::make_date(2023, 1, 5), {{100, "line one"}, {50, "line two"}});
    w.write_accounting_line("header");
    w.write_accounting_line("row1");
    w.finalize();
    EXPECT_EQ(w.days_written(), 1u);
  }
  EXPECT_TRUE(fs::exists(dir / "manifest.txt"));
  EXPECT_TRUE(fs::exists(dir / "syslog" / "syslog-2023-01-05.log"));
  std::ifstream acc(dir / "slurm_accounting.txt");
  std::string l1;
  std::string l2;
  std::getline(acc, l1);
  std::getline(acc, l2);
  EXPECT_EQ(l1, "header");
  EXPECT_EQ(l2, "row1");
  fs::remove_all(dir);
}

TEST(Dataset, DayWriteFailureSurfacesAtFinalize) {
  // A day file that cannot be opened must not be silently dropped: the
  // writer keeps running (the campaign should not die mid-flush) but
  // finalize() reports the first failure.  A directory planted where the
  // day file belongs makes the open fail even when running as root
  // (EISDIR), unlike a chmod-based setup.
  const auto dir = temp_dir("day_fail");
  an::DatasetWriter w(dir, tiny_manifest());
  fs::create_directories(dir / "syslog" / "syslog-2023-01-05.log");
  w.write_day(ct::make_date(2023, 1, 5), {{100, "lost line"}});
  EXPECT_EQ(w.days_written(), 0u);  // failed day is not counted
  const auto st = w.finalize();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("syslog-2023-01-05"), std::string::npos);
  // Repeat calls keep reporting the same failure.
  EXPECT_FALSE(w.finalize().ok());
  EXPECT_THROW(w.finalize().throw_if_error(), std::runtime_error);
  fs::remove_all(dir);
}

TEST(Dataset, ManifestWriteFailureSurfacesAtFinalize) {
  const auto dir = temp_dir("manifest_fail");
  an::DatasetWriter w(dir, tiny_manifest());
  w.write_day(ct::make_date(2023, 1, 5), {{100, "fine"}});
  fs::create_directories(dir / "manifest.txt");
  const auto st = w.finalize();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("manifest"), std::string::npos);
  fs::remove_all(dir);
}

TEST(Dataset, UnwritableAccountingFailsConstruction) {
  const auto dir = temp_dir("acc_fail");
  fs::create_directories(dir / "slurm_accounting.txt");
  EXPECT_THROW(an::DatasetWriter(dir, tiny_manifest()), std::runtime_error);
  fs::remove_all(dir);
}

TEST(Dataset, DestructorSwallowsDeferredFailures) {
  // The destructor finalizes as a convenience but must never throw; only an
  // explicit finalize() surfaces the error.
  const auto dir = temp_dir("dtor_fail");
  {
    an::DatasetWriter w(dir, tiny_manifest());
    fs::create_directories(dir / "syslog" / "syslog-2023-01-05.log");
    w.write_day(ct::make_date(2023, 1, 5), {{100, "lost line"}});
  }
  SUCCEED();  // reaching here means the destructor did not rethrow
  fs::remove_all(dir);
}

#ifndef _WIN32
TEST(Dataset, UnwritableDirectorySurfacesDayFailure) {
  // chmod-based variant of DayWriteFailureSurfacesAtFinalize; meaningless
  // for root, which bypasses permission bits.
  if (::geteuid() == 0) GTEST_SKIP() << "chmod does not restrict root";
  const auto dir = temp_dir("perm_fail");
  an::DatasetWriter w(dir, tiny_manifest());
  fs::permissions(dir / "syslog", fs::perms::owner_read | fs::perms::owner_exec,
                  fs::perm_options::replace);
  w.write_day(ct::make_date(2023, 1, 5), {{100, "lost line"}});
  EXPECT_FALSE(w.finalize().ok());
  fs::permissions(dir / "syslog", fs::perms::owner_all,
                  fs::perm_options::replace);
  fs::remove_all(dir);
}
#endif

TEST(Dataset, LoadRejectsMissingPieces) {
  const auto dir = temp_dir("missing");
  fs::create_directories(dir);
  EXPECT_FALSE(an::read_manifest(dir).ok());
  cl::Topology topo(cl::ClusterSpec::small(1, 0));
  an::AnalysisPipeline pipe(topo, {});
  EXPECT_FALSE(an::load_dataset(dir, pipe).ok());  // no syslog/
  fs::remove_all(dir);
}

TEST(Dataset, CampaignTeeRoundTrip) {
  // Run a small campaign teeing to disk, then re-analyze from disk and
  // compare against the in-memory pipeline: identical results.
  const auto dir = temp_dir("roundtrip");
  an::CampaignConfig cfg = an::CampaignConfig::quick();
  cfg.seed = 31;
  cfg.workload_scale *= 0.1;

  an::DatasetManifest manifest;
  manifest.spec = cfg.spec;
  manifest.periods = an::StudyPeriods::make(
      cfg.faults.study_begin, cfg.faults.op_begin, cfg.faults.study_end);

  an::DeltaCampaign campaign(cfg);
  an::DatasetWriter writer(dir, manifest);
  campaign.set_dataset_writer(&writer);
  campaign.run();
  writer.finalize();

  const auto m = an::read_manifest(dir);
  ASSERT_TRUE(m.ok()) << m.error().message;
  cl::Topology topo(m.value().spec);
  an::PipelineConfig pcfg;
  pcfg.periods = m.value().periods;
  an::AnalysisPipeline pipe(topo, pcfg);
  const auto loaded = an::load_dataset(dir, pipe);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_GT(loaded.value(), 80u);  // ~90 day files

  // Disk round trip reproduces the in-memory pipeline exactly.
  const auto& mem = campaign.pipeline();
  ASSERT_EQ(pipe.errors().size(), mem.errors().size());
  for (std::size_t i = 0; i < pipe.errors().size(); ++i) {
    EXPECT_EQ(pipe.errors()[i].time, mem.errors()[i].time);
    EXPECT_EQ(pipe.errors()[i].gpu, mem.errors()[i].gpu);
    EXPECT_EQ(pipe.errors()[i].code, mem.errors()[i].code);
    EXPECT_EQ(pipe.errors()[i].raw_lines, mem.errors()[i].raw_lines);
  }
  EXPECT_EQ(pipe.jobs().jobs.size(), mem.jobs().jobs.size());
  EXPECT_EQ(pipe.lifecycle().size(), mem.lifecycle().size());
  EXPECT_EQ(pipe.metrics().counter_value("pipe.accounting_errors"), 0u);
  fs::remove_all(dir);
}
