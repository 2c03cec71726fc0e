// Telemetry sampler: every run yields at least a "start" and a "final"
// sample, every line is valid JSON with monotonically increasing seq, and
// sampled registry values reflect the live metrics.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/json.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace ob = gpures::obs;
namespace ct = gpures::common;
namespace fs = std::filesystem;

namespace {

/// Per-process scratch file: ctest -j runs each case as its own process.
fs::path temp_path(const std::string& stem) {
  return fs::temp_directory_path() /
         (stem + "." + std::to_string(::getpid()) + ".jsonl");
}

std::vector<ct::JsonValue> read_samples(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<ct::JsonValue> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto doc = ct::parse_json(line);
    EXPECT_TRUE(doc.ok()) << line << ": " << doc.error().message;
    if (doc.ok()) out.push_back(std::move(doc).take());
  }
  return out;
}

}  // namespace

TEST(TelemetrySampler, ShortRunStillYieldsStartAndFinal) {
  const auto path = temp_path("gpures_telemetry_short");
  fs::remove(path);
  ob::MetricsRegistry reg;
  ob::TelemetrySampler::Options opts;
  opts.path = path.string();
  opts.interval = std::chrono::milliseconds(10000);  // never fires
  opts.registry = &reg;
  {
    ob::TelemetrySampler sampler(opts);
    ASSERT_TRUE(sampler.start().ok());
    sampler.stop();
    EXPECT_GE(sampler.sample_count(), 2u);
  }
  const auto samples = read_samples(path);
  ASSERT_GE(samples.size(), 2u);
  EXPECT_EQ(samples.front().at("reason").as_string(), "start");
  EXPECT_EQ(samples.back().at("reason").as_string(), "final");
  fs::remove(path);
}

TEST(TelemetrySampler, SamplesCarryRegistryAndProcState) {
  const auto path = temp_path("gpures_telemetry_reg");
  fs::remove(path);
  ob::MetricsRegistry reg;
  reg.counter("work.items").add(7);
  reg.gauge("depth").set(3);
  const double bounds[] = {10.0};
  reg.histogram("lat", bounds).observe(5.0);

  ob::TelemetrySampler::Options opts;
  opts.path = path.string();
  opts.interval = std::chrono::milliseconds(5);
  opts.registry = &reg;
  {
    ob::TelemetrySampler sampler(opts);
    ASSERT_TRUE(sampler.start().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    reg.counter("work.items").add(3);
    sampler.stop();
  }
  const auto samples = read_samples(path);
  ASSERT_GE(samples.size(), 2u);
  double prev_seq = -1.0;
  double prev_elapsed = -1.0;
  for (const auto& s : samples) {
    EXPECT_GT(s.at("seq").as_number(), prev_seq);
    prev_seq = s.at("seq").as_number();
    EXPECT_GE(s.at("elapsed_ms").as_number(), prev_elapsed);
    prev_elapsed = s.at("elapsed_ms").as_number();
    ASSERT_NE(s.find("proc"), nullptr);
    ASSERT_NE(s.find("counters"), nullptr);
  }
  // The final sample sees the quiescent end-state of the registry.
  const auto& last = samples.back();
  EXPECT_DOUBLE_EQ(last.at("counters").at("work.items").as_number(), 10.0);
  EXPECT_DOUBLE_EQ(last.at("gauges").at("depth").at("value").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(last.at("histograms").at("lat").at("count").as_number(),
                   1.0);
#ifdef __linux__
  EXPECT_TRUE(last.at("proc").at("valid").as_bool());
  EXPECT_GT(last.at("proc").at("rss_kb").as_number(), 0.0);
#endif
  fs::remove(path);
}

TEST(TelemetrySampler, UnwritablePathFailsStart) {
  ob::MetricsRegistry reg;
  ob::TelemetrySampler::Options opts;
  opts.path = "/nonexistent-dir-gpures/telemetry.jsonl";
  opts.registry = &reg;
  ob::TelemetrySampler sampler(opts);
  EXPECT_FALSE(sampler.start().ok());
  sampler.stop();  // must be a safe no-op
  EXPECT_EQ(sampler.sample_count(), 0u);
}

TEST(TelemetrySampler, StopIsIdempotent) {
  const auto path = temp_path("gpures_telemetry_idem");
  fs::remove(path);
  ob::MetricsRegistry reg;
  ob::TelemetrySampler::Options opts;
  opts.path = path.string();
  opts.interval = std::chrono::milliseconds(5);
  opts.registry = &reg;
  ob::TelemetrySampler sampler(opts);
  ASSERT_TRUE(sampler.start().ok());
  sampler.stop();
  const auto count = sampler.sample_count();
  sampler.stop();
  EXPECT_EQ(sampler.sample_count(), count);
  fs::remove(path);
}
