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

file(REMOVE_RECURSE "${WORKDIR}")
