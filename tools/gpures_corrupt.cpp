// gpures-corrupt: deterministically corrupt a dataset for chaos testing.
//
//   gpures-corrupt --in DIR --out DIR [options]     (--help lists them)
//
// Copies the dataset at --in to --out while applying the requested fault
// matrix (see src/chaos/chaos.h).  The same (seed, spec) pair always
// produces the same corrupted bytes, and a machine-readable ledger of what
// was done — and what a lenient ingest must observe — is written to
// OUT/corruption_ledger.json (and to --ledger FILE if given).
//
// Fault spec: comma-separated "fault[:count]" from
//   truncate garbage overlong duplicate reorder missing-day
//   missing-accounting skew bad-accounting zero-byte io-fault
// or "all" for the full matrix (minus missing-accounting) with defaults.
#include <filesystem>
#include <optional>
#include <string>

#include "chaos/chaos.h"
#include "cli.h"
#include "common/io.h"
#include "obs/log.h"

using namespace gpures;

constexpr std::string_view kTool = "gpures-corrupt";

int main(int argc, char** argv) {
  cli::Run run(kTool);
  std::string in_dir;
  std::string out_dir;
  std::string faults = "all";
  std::string ledger_file;
  std::optional<common::IoFaultPlan> io_fault;
  std::uint64_t seed = 1;
  cli::parse(kTool, argc, argv, {
      cli::required("--in", "DIR", in_dir, "clean dataset directory"),
      cli::required("--out", "DIR", out_dir, "corrupted copy destination"),
      // Strict parse: std::atoll would fold a typo into seed 0 silently,
      // and a wrong seed corrupts "deterministically" — just not the way
      // the ledger on record says.
      cli::count("--seed", "N", seed, "corruption seed (default 1)"),
      cli::text("--faults", "SPEC", faults,
                "comma-separated fault[:count] list, or 'all' (default all)"),
      cli::output("--ledger", "FILE", ledger_file,
                  "also write the corruption ledger JSON here"),
      // Recorded as the ledger's I/O fault plan.  Transient kinds are
      // absorbed by a retrying reader (gpures-serve) but fail a single-shot
      // batch read.
      cli::shared::chaos_io_fault(io_fault),
      cli::shared::log_json(run.log),
      cli::shared::log_level(run.log),
      cli::shared::quiet(run.log),
  });
  if (!run.start()) return 1;
  auto& logger = obs::Logger::current();

  const auto spec = chaos::CorruptionSpec::parse(faults);
  if (!spec.ok()) {
    logger.error("corrupt", spec.error().message);
    return 2;
  }

  const auto corrupted = chaos::corrupt_dataset(in_dir, out_dir, seed,
                                                spec.value());
  if (!corrupted.ok()) {
    logger.error("corrupt", corrupted.error().message);
    return 1;
  }
  chaos::CorruptionLedger l = corrupted.value();
  if (io_fault) {
    // Record the requested runtime fault plan in the ledger so a harness can
    // arm exactly this spec on the reader side.  It overrides whatever the
    // io-fault fault picked; the dataset bytes are untouched.
    l.io_fault_path = io_fault->path_substring;
    l.io_fault_after_bytes = io_fault->fail_after_bytes;
    l.io_fault_kind = std::string(common::to_string(io_fault->kind));
    l.io_fault_times = io_fault->times;
    const auto st =
        l.write(std::filesystem::path(out_dir) / "corruption_ledger.json");
    if (!st.ok()) {
      logger.error("corrupt", "ledger write failed",
                   {{"path", out_dir}, {"error", st.error().message}});
      return 1;
    }
  }
  if (!ledger_file.empty()) {
    const auto st = l.write(ledger_file);
    if (!st.ok()) {
      logger.error("corrupt", "ledger write failed",
                   {{"path", ledger_file}, {"error", st.error().message}});
      return 1;
    }
  }
  logger.info(
      "corrupt", "corrupted dataset",
      {{"in", in_dir},
       {"out", out_dir},
       {"seed", l.seed},
       {"fault_applications", static_cast<std::uint64_t>(l.applied.size())},
       {"binary_lines", l.expect_binary_lines},
       {"overlong_lines", l.expect_overlong_lines},
       {"torn_lines", l.expect_torn_lines},
       {"missing_days", l.expect_missing_days},
       {"zero_byte_days", l.expect_zero_byte_days},
       {"accounting_missing", l.expect_accounting_missing},
       {"accounting_rejected_rows", l.expect_accounting_rejected_rows}});
  if (!l.io_fault_path.empty()) {
    logger.info("corrupt", "planned I/O fault armed",
                {{"path", l.io_fault_path},
                 {"after_bytes", l.io_fault_after_bytes},
                 {"kind", l.io_fault_kind},
                 {"times", l.io_fault_times},
                 {"hint", "pass --chaos-io-fault to the analyzer to trigger"}});
  }
  return 0;
}
