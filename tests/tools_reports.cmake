# Drives gpures-analyze's report surface end to end: one Stage-III
# derivation per run however many artifacts it writes, the markdown document
# built from the --report blocks, and one report list shared by both tools'
# --report parsers.
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

execute_process(
  COMMAND "${SIMULATE}" --out "${WORKDIR}/ds" --quick --seed 5 --scale 0.1
          --quiet
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gpures-simulate failed (${rc}): ${out} ${err}")
endif()

# Run gpures-analyze on the dataset with ARGN; stdout lands in ${var}.
function(analyze var)
  execute_process(
    COMMAND "${ANALYZE}" --data "${WORKDIR}/ds" --quiet ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gpures-analyze ${ARGN} failed (${rc}): ${err}")
  endif()
  set(${var} "${out}" PARENT_SCOPE)
endfunction()

# The exposure-join count and exposed-job total of a --metrics file.
function(read_join metrics count_var exposures_var)
  file(READ "${metrics}" json)
  string(JSON count GET "${json}" histograms pipe.stage3.exposure_join_us
         count)
  string(JSON exposures GET "${json}" counters pipe.stage3.exposures)
  set(${count_var} "${count}" PARENT_SCOPE)
  set(${exposures_var} "${exposures}" PARENT_SCOPE)
endfunction()

# Every artifact at once still derives each Stage-III result once: one
# counted exposure join and one span per derivation.
analyze(all_out --report all --export-csv "${WORKDIR}/csv"
        --export-json "${WORKDIR}/out.json" --report-md "${WORKDIR}/all.md"
        --metrics "${WORKDIR}/all.json" --trace "${WORKDIR}/all_trace.json")
read_join("${WORKDIR}/all.json" joins exposures)
if(NOT joins EQUAL 1)
  message(FATAL_ERROR "every artifact: ${joins} exposure joins, want 1")
endif()
file(READ "${WORKDIR}/all_trace.json" trace)
foreach(span stage3.error_stats stage3.job_stats stage3.availability
        stage3.job_impact)
  string(REPLACE "." "\\." span_re "${span}")
  string(REGEX MATCHALL "\"name\":\"${span_re}\"" hits "${trace}")
  list(LENGTH hits n)
  if(NOT n EQUAL 1)
    message(FATAL_ERROR "every artifact: ${n} ${span} spans, want 1")
  endif()
endforeach()

analyze(unused --report table2 --metrics "${WORKDIR}/table2.json")
read_join("${WORKDIR}/table2.json" joins table2_exposures)
if(NOT exposures EQUAL table2_exposures OR exposures EQUAL 0)
  message(FATAL_ERROR "every artifact: ${exposures} exposed jobs; "
                      "--report table2: ${table2_exposures}")
endif()

# Mitigation reads the counted join instead of running its own.
analyze(unused --report mitigation --metrics "${WORKDIR}/mitigation.json")
read_join("${WORKDIR}/mitigation.json" joins mitigation_exposures)
if(NOT joins EQUAL 1 OR NOT mitigation_exposures EQUAL exposures)
  message(FATAL_ERROR "--report mitigation: ${joins} joins and "
                      "${mitigation_exposures} exposed jobs, want 1 and "
                      "${exposures}")
endif()

# The report names, as the parser's usage error lists them.  Serve shares
# the parser and both usage texts list the same names.
execute_process(
  COMMAND "${ANALYZE}" --data "${WORKDIR}/ds" --report bogus --quiet
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--report must be all\\|none\\|([a-z0-9|]+)\n")
  message(FATAL_ERROR "--report bogus: want exit 2 and the report list, "
                      "got ${rc}: ${err}")
endif()
set(choices "all|none|${CMAKE_MATCH_1}")
string(REPLACE "|" ";" names "${CMAKE_MATCH_1}")
foreach(tool "${ANALYZE}" "${SERVE}")
  foreach(args "--help" "--report;bogus")
    execute_process(
      COMMAND "${tool}" --data "${WORKDIR}/ds" ${args}
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    string(FIND "${err}" "${choices}\n" pos)
    if(pos EQUAL -1)
      message(FATAL_ERROR "${tool} ${args}: stderr does not list ${choices}: "
                          "${err}")
    endif()
  endforeach()
endforeach()

# Each listed report alone prints its block of --report all, in list order,
# and the markdown document holds the same blocks, fenced, in the same order.
file(READ "${WORKDIR}/all.md" md)
set(rest "${md}")
set(concat "")
foreach(name IN LISTS names)
  analyze(block --report ${name})
  string(APPEND concat "${block}")
  string(FIND "${rest}" "```\n" open)
  if(open EQUAL -1)
    message(FATAL_ERROR "markdown report has no section for ${name}")
  endif()
  math(EXPR open "${open} + 4")
  string(SUBSTRING "${rest}" ${open} -1 rest)
  string(FIND "${rest}" "```\n" close)
  string(SUBSTRING "${rest}" 0 ${close} body)
  math(EXPR close "${close} + 4")
  string(SUBSTRING "${rest}" ${close} -1 rest)
  if(NOT "${body}\n" STREQUAL "${block}")
    message(FATAL_ERROR "markdown section ${name} differs from --report "
                        "${name}:\n${body}\n---\n${block}")
  endif()
endforeach()
if(NOT concat STREQUAL all_out)
  message(FATAL_ERROR "the single reports, in list order, differ from "
                      "--report all")
endif()
string(FIND "${rest}" "```" pos)
if(NOT pos EQUAL -1)
  message(FATAL_ERROR "markdown report has sections past the report list")
endif()

# --report none still writes the whole document.
analyze(none_out --report none --report-md "${WORKDIR}/none.md")
file(READ "${WORKDIR}/none.md" none_md)
if(NOT none_out STREQUAL "" OR NOT none_md STREQUAL md)
  message(FATAL_ERROR "--report none --report-md: stdout '${none_out}', "
                      "markdown differs from the --report all run")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
