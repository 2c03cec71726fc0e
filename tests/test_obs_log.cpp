// Structured logger semantics: level gating (global vs text-only),
// deterministic rate limiting with flush-time summaries, logfmt text
// rendering, and JSONL sink validity (every line parses; field types
// survive the round trip).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/json.h"
#include "obs/log.h"

namespace ob = gpures::obs;
namespace ct = gpures::common;
namespace fs = std::filesystem;

namespace {

/// Per-process scratch file: ctest -j runs each case as its own process.
fs::path temp_path(const std::string& stem) {
  return fs::temp_directory_path() /
         (stem + "." + std::to_string(::getpid()) + ".jsonl");
}

/// Read everything written to a tmpfile() text sink so far.
std::string drain(std::FILE* f) {
  std::fflush(f);
  const long size = std::ftell(f);
  std::rewind(f);
  std::string out(static_cast<std::size_t>(size), '\0');
  const std::size_t got = std::fread(out.data(), 1, out.size(), f);
  out.resize(got);
  std::fseek(f, 0, SEEK_END);
  return out;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

}  // namespace

TEST(LogLevel, NamesRoundTrip) {
  for (const auto level : {ob::LogLevel::kDebug, ob::LogLevel::kInfo,
                           ob::LogLevel::kWarn, ob::LogLevel::kError}) {
    const auto parsed = ob::parse_log_level(ob::log_level_name(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(ob::parse_log_level("verbose").has_value());
  EXPECT_FALSE(ob::parse_log_level("").has_value());
}

TEST(Logger, TextSinkRendersLogfmt) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  ob::Logger::Options opts;
  opts.text_out = sink;
  ob::Logger logger(opts);
  logger.warn("ingest", "quarantined torn line",
              {{"file", "day 03.log"}, {"bytes", 118}});
  const std::string text = drain(sink);
  EXPECT_EQ(text,
            "[warn ] ingest: quarantined torn line file=\"day 03.log\" "
            "bytes=118\n");
  std::fclose(sink);
}

TEST(Logger, MinLevelGatesBothSinks) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  ob::Logger::Options opts;
  opts.text_out = sink;
  opts.min_level = ob::LogLevel::kWarn;
  ob::Logger logger(opts);
  logger.debug("c", "dropped");
  logger.info("c", "dropped");
  logger.error("c", "kept");
  EXPECT_EQ(logger.emitted_count(), 1u);
  const std::string text = drain(sink);
  EXPECT_EQ(text, "[error] c: kept\n");
  std::fclose(sink);
}

TEST(Logger, TextMinLevelQuietsTextButNotJsonl) {
  const auto path = temp_path("gpures_log_quiet");
  fs::remove(path);
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  {
    ob::Logger::Options opts;
    opts.text_out = sink;
    opts.text_min_level = ob::LogLevel::kError;  // --quiet behaviour
    opts.jsonl_path = path.string();
    ob::Logger logger(opts);
    ASSERT_TRUE(logger.sink_status().ok());
    logger.warn("c", "warned");
    logger.error("c", "errored");
    EXPECT_EQ(drain(sink), "[error] c: errored\n");
  }
  // The JSONL sidecar keeps the warn record --quiet hid from the terminal.
  const auto jsonl = lines_of(read_file(path));
  ASSERT_EQ(jsonl.size(), 2u);
  auto first = ct::parse_json(jsonl[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().at("level").as_string(), "warn");
  std::fclose(sink);
  fs::remove(path);
}

TEST(Logger, JsonlSinkEmitsValidTypedRecords) {
  const auto path = temp_path("gpures_log_typed");
  fs::remove(path);
  {
    ob::Logger::Options opts;
    opts.text_out = nullptr;
    opts.jsonl_path = path.string();
    ob::Logger logger(opts);
    ASSERT_TRUE(logger.sink_status().ok());
    logger.info("query", "slow query",
                {{"op", "impact"},
                 {"latency_us", 1234.5},
                 {"rows", 42},
                 {"cached", false},
                 {"note", "a \"quoted\"\nvalue"}});
  }
  const auto jsonl = lines_of(read_file(path));
  ASSERT_EQ(jsonl.size(), 1u);
  auto doc = ct::parse_json(jsonl[0]);
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  const auto& rec = doc.value();
  EXPECT_EQ(rec.at("level").as_string(), "info");
  EXPECT_EQ(rec.at("component").as_string(), "query");
  EXPECT_EQ(rec.at("message").as_string(), "slow query");
  const auto& fields = rec.at("fields");
  EXPECT_EQ(fields.at("op").as_string(), "impact");
  EXPECT_TRUE(fields.at("latency_us").is_number());
  EXPECT_DOUBLE_EQ(fields.at("latency_us").as_number(), 1234.5);
  EXPECT_TRUE(fields.at("rows").is_number());
  EXPECT_DOUBLE_EQ(fields.at("rows").as_number(), 42.0);
  EXPECT_TRUE(fields.at("cached").is_bool());
  EXPECT_FALSE(fields.at("cached").as_bool());
  EXPECT_EQ(fields.at("note").as_string(), "a \"quoted\"\nvalue");
  fs::remove(path);
}

TEST(Logger, RateLimitingIsDeterministic) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  ob::Logger::Options opts;
  opts.text_out = sink;
  opts.max_per_key = 2;
  ob::Logger logger(opts);
  for (int i = 0; i < 5; ++i) logger.warn("ingest", "torn line");
  logger.warn("ingest", "other message");  // distinct key, unaffected
  EXPECT_EQ(logger.emitted_count(), 3u);
  EXPECT_EQ(logger.suppressed_count(), 3u);

  logger.flush();
  const std::string text = drain(sink);
  const auto lines = lines_of(text);
  ASSERT_EQ(lines.size(), 4u);  // 2 torn + 1 other + 1 summary
  EXPECT_NE(lines[3].find("rate limit: similar records suppressed"),
            std::string::npos);
  EXPECT_NE(lines[3].find("suppressed=3"), std::string::npos);
  EXPECT_NE(lines[3].find("torn line"), std::string::npos);

  // Identical call sequence, identical output: re-run and compare.
  std::FILE* sink2 = std::tmpfile();
  ASSERT_NE(sink2, nullptr);
  ob::Logger::Options opts2 = opts;
  opts2.text_out = sink2;
  ob::Logger logger2(opts2);
  for (int i = 0; i < 5; ++i) logger2.warn("ingest", "torn line");
  logger2.warn("ingest", "other message");
  logger2.flush();
  EXPECT_EQ(drain(sink2), text);
  std::fclose(sink);
  std::fclose(sink2);
}

TEST(Logger, FlushResetsSuppressionCountsNotCaps) {
  ob::Logger::Options opts;
  opts.text_out = nullptr;
  opts.max_per_key = 1;
  ob::Logger logger(opts);
  logger.info("c", "m");
  logger.info("c", "m");
  logger.flush();
  EXPECT_EQ(logger.suppressed_count(), 1u);
  // The cap stays spent after flush: further records keep being suppressed.
  logger.info("c", "m");
  EXPECT_EQ(logger.suppressed_count(), 2u);
}

TEST(Logger, UnwritableJsonlPathSurfacesInSinkStatus) {
  ob::Logger::Options opts;
  opts.text_out = nullptr;
  opts.jsonl_path = "/nonexistent-dir-gpures/log.jsonl";
  ob::Logger logger(opts);
  EXPECT_FALSE(logger.sink_status().ok());
  logger.info("c", "still safe to call");  // must not crash
}

TEST(Logger, InstallCurrentFallsBackToDefault) {
  // current() without an install returns a usable stderr logger.
  ob::Logger& fallback = ob::Logger::current();
  (void)fallback;
  ob::Logger::Options opts;
  opts.text_out = nullptr;
  ob::Logger logger(opts);
  ob::Logger::install(&logger);
  EXPECT_EQ(&ob::Logger::current(), &logger);
  ob::Logger::install(nullptr);
  EXPECT_NE(&ob::Logger::current(), &logger);
}
