# Drives the CLI tools end to end: gpures-simulate writes a dataset,
# gpures-analyze consumes it (and emits the binary index), gpures-query
# answers from the index without touching the dataset again.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

execute_process(
  COMMAND "${SIMULATE}" --out "${WORKDIR}/ds" --quick --seed 5 --scale 0.1
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gpures-simulate failed (${rc}): ${out} ${err}")
endif()

execute_process(
  COMMAND "${ANALYZE}" --data "${WORKDIR}/ds"
          --export-csv "${WORKDIR}/csv" --export-json "${WORKDIR}/out.json"
          --write-index "${WORKDIR}/gpures.idx"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gpures-analyze failed (${rc}): ${out} ${err}")
endif()

foreach(needle "XID 119/120" "TOTAL" "Unavailability" "Kaplan-Meier"
        "Checkpoint-interval sweep" "GSP errors per month")
  string(FIND "${out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "analyze output missing '${needle}'")
  endif()
endforeach()

foreach(f table1.csv table2.csv table3.csv fig2.csv)
  if(NOT EXISTS "${WORKDIR}/csv/${f}")
    message(FATAL_ERROR "missing export ${f}")
  endif()
endforeach()
if(NOT EXISTS "${WORKDIR}/out.json")
  message(FATAL_ERROR "missing JSON export")
endif()

# A misspelled --report is a usage error (exit 2, no reports), not a full
# analysis that prints nothing and exits 0; serve shares the parser.
foreach(tool "${ANALYZE}" "${SERVE}")
  execute_process(
    COMMAND "${tool}" --data "${WORKDIR}/ds" --report tabel2 --quiet
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT out STREQUAL "")
    message(FATAL_ERROR "${tool} --report tabel2: want exit 2, got ${rc}: ${out} ${err}")
  endif()
endforeach()

# --report none renders nothing but still succeeds.
execute_process(
  COMMAND "${ANALYZE}" --data "${WORKDIR}/ds" --report none --quiet
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out STREQUAL "")
  message(FATAL_ERROR "gpures-analyze --report none failed (${rc}): ${out} ${err}")
endif()

# An artifact path under a directory that does not exist is a usage error
# (exit 2, naming the path) caught before any work starts, not a directory
# tree silently created from a typo, nor a full run lost at its last write.
execute_process(
  COMMAND "${ANALYZE}" --data "${WORKDIR}/ds" --quiet
          --export-csv "${WORKDIR}/csv_unwritten"
          --export-json "${WORKDIR}/missing/dir/x.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${err}" "${WORKDIR}/missing/dir/x.json" pos)
if(NOT rc EQUAL 2 OR pos EQUAL -1 OR NOT out STREQUAL ""
   OR EXISTS "${WORKDIR}/missing" OR EXISTS "${WORKDIR}/csv_unwritten")
  message(FATAL_ERROR "gpures-analyze --export-json into a missing directory: want exit 2 naming the path and nothing written, got ${rc}: ${err}")
endif()
execute_process(
  COMMAND "${SIMULATE}" --out "${WORKDIR}/ds_unwritten" --quick --seed 3
          --scale 0.2 --quiet --metrics "${WORKDIR}/missing/dir/m.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${err}" "${WORKDIR}/missing/dir/m.json" pos)
if(NOT rc EQUAL 2 OR pos EQUAL -1 OR EXISTS "${WORKDIR}/ds_unwritten"
   OR EXISTS "${WORKDIR}/missing")
  message(FATAL_ERROR "gpures-simulate --metrics into a missing directory: want exit 2 naming the path and no dataset written, got ${rc}: ${err}")
endif()

# The scan backend is picked by CPUID alone: the removed selector flag is an
# unknown argument, not silently ignored.
execute_process(
  COMMAND "${ANALYZE}" --data "${WORKDIR}/ds" --simd avx2 --quiet
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${err}" "unknown argument" pos)
if(NOT rc EQUAL 2 OR pos EQUAL -1)
  message(FATAL_ERROR "gpures-analyze with the removed selector flag: want exit 2 as an unknown argument, got ${rc}: ${err}")
endif()

# The written index must be byte-identical across pipeline worker counts.
execute_process(
  COMMAND "${ANALYZE}" --data "${WORKDIR}/ds" --threads 4
          --write-index "${WORKDIR}/gpures_t4.idx" --quiet
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gpures-analyze --threads 4 failed (${rc}): ${err}")
endif()
file(READ "${WORKDIR}/gpures.idx" idx_serial HEX)
file(READ "${WORKDIR}/gpures_t4.idx" idx_par HEX)
if(NOT idx_serial STREQUAL idx_par)
  message(FATAL_ERROR "gpures.idx differs between --threads 0 and 4")
endif()

# gpures-query serves every report shape from the artifact alone.
execute_process(
  COMMAND "${QUERY}" --index "${WORKDIR}/gpures.idx" --info
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gpures-query --info failed (${rc}): ${err}")
endif()
string(FIND "${out}" "gpures index" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "gpures-query --info output unexpected: ${out}")
endif()

# --info still finishes the run: its --metrics snapshot is written.
execute_process(
  COMMAND "${QUERY}" --index "${WORKDIR}/gpures.idx" --info
          --metrics "${WORKDIR}/info_metrics.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS "${WORKDIR}/info_metrics.json")
  message(FATAL_ERROR "gpures-query --info --metrics: want exit 0 and the metrics file, got ${rc}: ${err}")
endif()
file(READ "${WORKDIR}/info_metrics.json" json)
string(JSON type ERROR_VARIABLE jerr TYPE "${json}")
if(NOT jerr STREQUAL "NOTFOUND" OR NOT type STREQUAL "OBJECT")
  message(FATAL_ERROR "gpures-query --info --metrics is not a JSON object: ${jerr}")
endif()

execute_process(
  COMMAND "${QUERY}" --index "${WORKDIR}/gpures.idx" --xid 63 --format json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gpures-query failed (${rc}): ${err}")
endif()
foreach(needle "\"count\"" "\"impact\"" "\"availability\"")
  string(FIND "${out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "gpures-query JSON missing ${needle}: ${out}")
  endif()
endforeach()

# A query against a missing index must fail with a located error.
execute_process(
  COMMAND "${QUERY}" --index "${WORKDIR}/absent.idx"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "gpures-query succeeded on a missing index")
endif()

# CLI contract.  Each tool parses argv from one flag table and prints --help
# from the same table, so --help names exactly the flags the tool accepts,
# and every usage error exits 2 with its message before any work starts.
set(flags_analyze --data --report --export-csv --export-json --report-md
    --coalesce-window --window --node-level --threads --write-index --metrics
    --trace --telemetry --telemetry-interval-ms --log-json --log-level
    --ingest-policy --error-budget --quality-report --chaos-io-fault --quiet
    --progress)
set(flags_serve --data --follow --once --resume --checkpoint-dir
    --checkpoint-interval --poll-ms --max-ticks --threads --max-chunk-bytes
    --retry-max --retry-backoff-ms --retry-backoff-max-ms --retry-deadline-ms
    --stall-ticks --reprobe-ticks --ingest-policy --error-budget
    --coalesce-window --window --node-level --report --write-index
    --export-json --quality-report --metrics --trace --log-json --log-level
    --chaos-io-fault --chaos-kill --quiet)
set(flags_simulate --out --seed --quick --no-jobs --nodes --threads --shards
    --noise --scale --config --metrics --trace --quiet --progress
    --list-config-keys)
set(flags_query --index --node --xid --from --to --report --format --window
    --node-level --cache --metrics --slow-query-us --log-json --log-level
    --info)
set(flags_corrupt --in --out --seed --faults --ledger --chaos-io-fault
    --log-json --log-level --quiet)
set(flags_health --metrics --telemetry --format --out)

function(expect_usage_error needle)
  execute_process(COMMAND ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${err}" "${needle}" pos)
  if(NOT rc EQUAL 2 OR pos EQUAL -1)
    message(FATAL_ERROR "${ARGN}: want exit 2 and '${needle}', got ${rc}: ${err}")
  endif()
endfunction()

foreach(tool analyze serve simulate query corrupt health)
  string(TOUPPER ${tool} var)
  set(bin "${${var}}")
  execute_process(COMMAND "${bin}" --help
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gpures-${tool} --help: want exit 0, got ${rc}: ${err}")
  endif()
  foreach(flag IN LISTS flags_${tool})
    if(NOT err MATCHES "\n  ${flag}[ \n]")
      message(FATAL_ERROR "gpures-${tool} --help does not name ${flag}: ${err}")
    endif()
  endforeach()
  string(REGEX MATCHALL "\n  --[a-z-]+" listed "${err}")
  list(LENGTH listed n_listed)
  list(LENGTH flags_${tool} n_want)
  if(NOT n_listed EQUAL n_want)
    message(FATAL_ERROR "gpures-${tool} --help names ${n_listed} flags, want "
                        "${n_want}: ${err}")
  endif()
  expect_usage_error("unknown argument '--no-such-flag'" "${bin}" --no-such-flag)
  # Each table starts with a value-taking flag.
  list(GET flags_${tool} 0 first)
  expect_usage_error("${first} needs a value" "${bin}" ${first})
endforeach()
foreach(bin "${ANALYZE}" "${SERVE}" "${QUERY}" "${CORRUPT}")
  expect_usage_error("--log-level must be debug|info|warn|error"
                     "${bin}" --log-level loud)
endforeach()
foreach(bin "${ANALYZE}" "${SERVE}" "${SIMULATE}")
  expect_usage_error("--threads must be in [0, 256]" "${bin}" --threads 257)
endforeach()
expect_usage_error("--seed wants a non-negative integer, got '7x'"
                   "${SIMULATE}" --seed 7x)
expect_usage_error("--scale wants a non-negative number, got 'abc'"
                   "${SIMULATE}" --scale abc)
expect_usage_error("--noise wants a non-negative number, got '-1'"
                   "${SIMULATE}" --noise -1)

# The --metrics and --trace files the run harness writes are JSON.
set(run_simulate "${SIMULATE}" --out "${WORKDIR}/obs_ds" --quick --no-jobs
    --scale 0.05)
set(run_analyze "${ANALYZE}" --data "${WORKDIR}/ds" --report none)
set(run_serve "${SERVE}" --data "${WORKDIR}/ds" --once --report none)
foreach(tool simulate analyze serve)
  execute_process(
    COMMAND ${run_${tool}} --quiet --metrics "${WORKDIR}/${tool}_metrics.json"
            --trace "${WORKDIR}/${tool}_trace.json"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gpures-${tool} --metrics --trace failed (${rc}): ${err}")
  endif()
  foreach(kind metrics trace)
    file(READ "${WORKDIR}/${tool}_${kind}.json" json)
    string(JSON type ERROR_VARIABLE jerr TYPE "${json}")
    if(NOT jerr STREQUAL "NOTFOUND" OR NOT type STREQUAL "OBJECT")
      message(FATAL_ERROR "gpures-${tool} --${kind} is not a JSON object: ${jerr}")
    endif()
  endforeach()
endforeach()

# gpures-health lists a histogram only when its bounds are ascending
# numbers and every bucket count is a whole number in [0, 2^64): a
# negative, huge or fractional count, or a non-numeric or descending bound,
# makes the entry malformed, and it is skipped rather than cast into a
# wrong count or misplaced buckets.
file(WRITE "${WORKDIR}/hist_metrics.json" [=[
{"counters": {}, "gauges": {}, "histograms": {
  "hist.good_us": {"bounds": [10, 100], "counts": [1, 2, 0], "sum": 60},
  "hist.negative_us": {"bounds": [10, 100], "counts": [-1, 2, 0], "sum": 60},
  "hist.huge_us": {"bounds": [10, 100], "counts": [1e30, 2, 0], "sum": 60},
  "hist.fraction_us": {"bounds": [10, 100], "counts": [0.5, 2.7, 0], "sum": 60},
  "hist.textbound_us": {"bounds": [10, "x", 100], "counts": [1, 2, 0], "sum": 60},
  "hist.descending_us": {"bounds": [100, 10], "counts": [1, 2, 0], "sum": 60}
}}
]=])
foreach(format md json)
  execute_process(
    COMMAND "${HEALTH}" --metrics "${WORKDIR}/hist_metrics.json"
            --format ${format}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gpures-health --format ${format} failed (${rc}): ${err}")
  endif()
  string(FIND "${out}" "hist.good_us" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "gpures-health ${format} omits a well-formed histogram: ${out}")
  endif()
  foreach(bad negative huge fraction textbound descending)
    string(FIND "${out}" "hist.${bad}_us" pos)
    if(NOT pos EQUAL -1)
      message(FATAL_ERROR "gpures-health ${format} lists malformed hist.${bad}_us: ${out}")
    endif()
  endforeach()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
