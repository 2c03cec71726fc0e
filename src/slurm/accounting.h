// Slurm accounting database serialization.
//
// The paper's pipeline reads per-job records out of the Slurm database; our
// equivalent raw artifact is a pipe-separated `sacct --parsable2` style dump:
//
//   JobID|JobName|Submit|Start|End|State|ExitCode|NNodes|NGPUs|NodeList|AllocGPUS
//
// Times are "YYYY-MM-DDTHH:MM:SS"; NodeList is a comma-joined hostname list;
// AllocGPUS lists the exact devices held as semicolon-joined "host:slot"
// pairs (the GRES-level allocation detail used by the job-impact analysis).
// The writer and parser round-trip exactly; the analysis pipeline consumes
// only the parsed form, never the in-memory simulator records.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "cluster/topology.h"
#include "common/error.h"
#include "slurm/job.h"

namespace gpures::slurm {

/// The dump header line.  Ingest compares every trimmed row against this
/// constant to skip the header without building a string per row.
inline constexpr std::string_view kAccountingHeader =
    "JobID|JobName|Submit|Start|End|State|ExitCode|NNodes|NGPUs|NodeList"
    "|AllocGPUS";

/// kAccountingHeader as a string.
std::string accounting_header();

/// Append one record to `out` (no trailing newline); `topo` translates node
/// indices to hostnames.  The campaign renders ~1.5M records through one
/// reused scratch buffer, so this path allocates nothing per record.
void append_accounting_line(std::string& out, const JobRecord& rec,
                            const cluster::Topology& topo);

/// Render one record; `topo` translates node indices to hostnames.
std::string to_accounting_line(const JobRecord& rec,
                               const cluster::Topology& topo);

/// Parse one record line (not the header) into `out`, reusing the capacity
/// of its name and lists: once those have grown, a row costs no heap
/// allocation.  Node names are translated back to indices via `topo`;
/// unknown hostnames fail the parse.  On failure `out` holds a partial
/// record and must not be used.
common::Status parse_accounting_line(std::string_view line,
                                     const cluster::Topology& topo,
                                     JobRecord& out);

/// Parse one record line into a fresh record.
common::Result<JobRecord> parse_accounting_line(std::string_view line,
                                                const cluster::Topology& topo);

/// Stream a full dump (header + records).
void write_accounting(std::ostream& os, const std::vector<JobRecord>& records,
                      const cluster::Topology& topo);

}  // namespace gpures::slurm
