# Kill-resume differential for the serve daemon: SIGKILL the process at
# chaos points (mid-tick; just before a checkpoint write; between its
# segment appends and its frontier rename; just after it),
# resume from the surviving checkpoint, and require the final index, JSON
# export, quality report, and report stdout to be byte-identical to an
# uninterrupted run — at --threads 0 and 4.  A transient-fault leg asserts
# the retry policy absorbs planned I/O faults with identical bytes, and a
# permanent-fault leg asserts graceful degradation still exits 0.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

execute_process(
  COMMAND "${SIMULATE}" --out "${WORKDIR}/ds" --quick --seed 7 --scale 0.1
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gpures-simulate failed (${rc}): ${out} ${err}")
endif()

# ---- reference: one uninterrupted --once run ----
execute_process(
  COMMAND "${SERVE}" --data "${WORKDIR}/ds" --once --threads 0
          --write-index "${WORKDIR}/ref.idx"
          --export-json "${WORKDIR}/ref.json"
          --quality-report "${WORKDIR}/ref_quality.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE ref_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "reference gpures-serve failed (${rc}): ${err}")
endif()
foreach(f ref.idx ref.json ref_quality.json)
  if(NOT EXISTS "${WORKDIR}/${f}")
    message(FATAL_ERROR "reference run did not write ${f}")
  endif()
endforeach()
file(READ "${WORKDIR}/ref.idx" ref_idx HEX)
file(READ "${WORKDIR}/ref.json" ref_json HEX)
file(READ "${WORKDIR}/ref_quality.json" ref_quality HEX)

# ---- kill at every chaos point, resume, compare bytes ----
foreach(threads 0 4)
  foreach(spec "tick:50" "ckpt-pre:2" "ckpt-mid:2" "ckpt-post:2")
    string(REPLACE ":" "_" tag "${spec}")
    set(ckpt "${WORKDIR}/ckpt_t${threads}_${tag}")
    execute_process(
      COMMAND "${SERVE}" --data "${WORKDIR}/ds" --once --threads ${threads}
              --checkpoint-dir "${ckpt}" --checkpoint-interval 5
              --chaos-kill "${spec}"
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(rc EQUAL 0)
      message(FATAL_ERROR
        "serve survived --chaos-kill ${spec} (threads ${threads})")
    endif()
    execute_process(
      COMMAND "${SERVE}" --data "${WORKDIR}/ds" --once --resume
              --threads ${threads}
              --checkpoint-dir "${ckpt}" --checkpoint-interval 5
              --write-index "${WORKDIR}/got.idx"
              --export-json "${WORKDIR}/got.json"
              --quality-report "${WORKDIR}/got_quality.json"
      RESULT_VARIABLE rc OUTPUT_VARIABLE got_out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
        "resume after --chaos-kill ${spec} (threads ${threads}) failed (${rc}): ${err}")
    endif()
    if(NOT got_out STREQUAL ref_out)
      message(FATAL_ERROR
        "report stdout differs after kill ${spec} (threads ${threads})")
    endif()
    file(READ "${WORKDIR}/got.idx" got_idx HEX)
    file(READ "${WORKDIR}/got.json" got_json HEX)
    file(READ "${WORKDIR}/got_quality.json" got_quality HEX)
    if(NOT got_idx STREQUAL ref_idx)
      message(FATAL_ERROR
        "gpures.idx differs after kill ${spec} (threads ${threads})")
    endif()
    if(NOT got_json STREQUAL ref_json)
      message(FATAL_ERROR
        "export JSON differs after kill ${spec} (threads ${threads})")
    endif()
    if(NOT got_quality STREQUAL ref_quality)
      message(FATAL_ERROR
        "quality report differs after kill ${spec} (threads ${threads})")
    endif()
  endforeach()
endforeach()

# ---- transient-fault leg: planned faults absorbed, bytes identical ----
foreach(spec "syslog-:0:transient:3" "syslog-:16:eintr:2" "syslog-:32:short:2"
        "slurm_accounting:0:transient:2")
  execute_process(
    COMMAND "${SERVE}" --data "${WORKDIR}/ds" --once --threads 4
            --chaos-io-fault "${spec}"
            --retry-max 6 --retry-backoff-ms 1 --retry-backoff-max-ms 2
            --write-index "${WORKDIR}/chaos.idx"
            --export-json "${WORKDIR}/chaos.json"
            --quality-report "${WORKDIR}/chaos_quality.json"
    RESULT_VARIABLE rc OUTPUT_VARIABLE chaos_out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "serve failed under transient fault ${spec} (${rc}): ${err}")
  endif()
  if(NOT chaos_out STREQUAL ref_out)
    message(FATAL_ERROR "stdout differs under transient fault ${spec}")
  endif()
  file(READ "${WORKDIR}/chaos.idx" chaos_idx HEX)
  file(READ "${WORKDIR}/chaos_quality.json" chaos_quality HEX)
  if(NOT chaos_idx STREQUAL ref_idx)
    message(FATAL_ERROR "gpures.idx differs under transient fault ${spec}")
  endif()
  if(NOT chaos_quality STREQUAL ref_quality)
    message(FATAL_ERROR "quality report differs under transient fault ${spec}")
  endif()
endforeach()

# ---- permanent-fault leg: source degrades, run still exits 0 ----
file(GLOB day_files RELATIVE "${WORKDIR}/ds/syslog" "${WORKDIR}/ds/syslog/syslog-*.log")
list(SORT day_files)
list(LENGTH day_files n_days)
if(n_days LESS 2)
  message(FATAL_ERROR "simulated dataset has fewer than 2 day files")
endif()
list(GET day_files 1 victim)
string(REPLACE ".log" "" victim_stem "${victim}")
execute_process(
  COMMAND "${SERVE}" --data "${WORKDIR}/ds" --once --threads 0
          --chaos-io-fault "${victim_stem}:0:fail"
          --retry-max 2 --retry-backoff-ms 1
          --quality-report "${WORKDIR}/degraded_quality.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "serve must exit 0 when a source degrades, got ${rc}: ${err}")
endif()
file(READ "${WORKDIR}/degraded_quality.json" dq)
string(FIND "${dq}" "degraded_sources" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "degraded source missing from quality report: ${dq}")
endif()
string(FIND "${dq}" "${victim}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "quality report does not name ${victim}: ${dq}")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
