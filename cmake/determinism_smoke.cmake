# Determinism gate: the same workload must emit byte-identical tables no
# matter how many worker lanes the process is given. util::parallel_for runs
# sweep cells (each simulation serial on its lane) and the radius study's
# per-site trace syntheses, so the probes cover a multi-cell sweep whose
# cells share lanes, a single cell, a serve replay and the radius study,
# each under CARBONEDGE_THREADS=1 and =4; any byte difference fails.
# Invoked by CTest (examples.cli_determinism_smoke) and by the CI
# determinism-gate step.
#
#   cmake -DCLI=<carbonedge_cli> -DOUT_DIR=<scratch> -P determinism_smoke.cmake
if(NOT DEFINED CLI OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=<carbonedge_cli> -DOUT_DIR=<dir> -P determinism_smoke.cmake")
endif()

file(MAKE_DIRECTORY ${OUT_DIR})

# (label, argument list) probes: a grid wider than the lane count (cells
# share lanes) and a single big cell (one serial simulation, whatever the
# lane count).
set(PROBE_sweep "sweep;florida;128")
# 40-site CDN region. --metrics= puts the obs registry under the gate too:
# the snapshot's deterministic view is compared separately below (the
# timing view is allowed — required, even — to differ).
set(PROBE_single "sweep;cdn_us;96;--single;--metrics=${OUT_DIR}/metrics-single-t@THREADS@.json")
# Streaming serving mode: event-driven replay with windowed telemetry and an
# EMA re-optimization trigger; --export=- puts the per-window CSV rows into
# the diffed output, so window aggregation is under the gate too, and
# --metrics-rows interleaves per-window deterministic-view snapshots into
# those diffed bytes.
set(PROBE_serve "serve;cdn_us;--replay;--epochs=96;--window-epochs=8;--ema-reopt=load:2500:2000;--export=-;--metrics-rows")
# Figure 5 radius study: analysis::yearly_means synthesizes one year-long
# trace per site across the lanes, each into its own slot.
set(PROBE_radius "radius;100")

foreach(probe sweep single serve radius)
  foreach(threads 1 4)
    string(REPLACE "@THREADS@" "${threads}" args "${PROBE_${probe}}")
    execute_process(
      # -E env: the lane count under test reaches the probe process only.
      COMMAND ${CMAKE_COMMAND} -E env CARBONEDGE_THREADS=${threads} ${CLI} ${args}
      OUTPUT_FILE ${OUT_DIR}/${probe}-t${threads}.txt
      RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "determinism probe '${probe}' failed with CARBONEDGE_THREADS=${threads} (exit ${status})")
    endif()
  endforeach()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${OUT_DIR}/${probe}-t1.txt ${OUT_DIR}/${probe}-t4.txt
    RESULT_VARIABLE identical)
  if(NOT identical EQUAL 0)
    message(FATAL_ERROR "determinism gate: probe '${probe}' differs between "
                        "CARBONEDGE_THREADS=1 and =4 — compare ${OUT_DIR}/${probe}-t1.txt "
                        "against ${OUT_DIR}/${probe}-t4.txt")
  endif()
  message(STATUS "determinism gate: probe '${probe}' byte-identical across thread counts")
endforeach()

# Numbers the CLI must refuse rather than run with: a negative or NaN
# radius, epoch counts that are negative (std::stoul would wrap -1 to
# 4294967295) or past uint32 (a cast would wrap 4294967296 to 0), a policy
# alpha with trailing characters, outside [0, 1] or NaN (NaN once died in
# the solver), and a NaN --ema-reopt threshold (once ran as a trigger that
# never fires). Each must exit non-zero with a message before any work
# starts. Each item is a comma-separated argument list.
foreach(bad "radius,-5" "radius,nan" "simulate,florida,carbonedge,-1"
            "simulate,florida,carbonedge,4294967296" "sweep,cdn_us,-1"
            "sweep,florida,4294967296" "simulate,florida,alpha=0.5x,4"
            "simulate,florida,alpha=7,4" "simulate,florida,alpha=nan,4"
            "serve,florida,--replay,--epochs=8,--ema-reopt=load:nan:2000")
  string(REPLACE "," ";" bad_args "${bad}")
  execute_process(
    COMMAND ${CLI} ${bad_args}
    OUTPUT_VARIABLE bad_out
    ERROR_VARIABLE bad_err
    RESULT_VARIABLE status)
  if(status EQUAL 0 OR NOT bad_err MATCHES "error: ")
    message(FATAL_ERROR "CLI probe '${bad}' should fail with a message, "
                        "got exit ${status}:\n${bad_out}${bad_err}")
  endif()
endforeach()
message(STATUS "determinism gate: bad radius, epoch, alpha and threshold arguments rejected")

# Compiled-catalog probes: build the checked-in sample dump into a scratch
# store (no network — tests/data/sites_sample.tsv ships with the repo), then
# run a spatial-index radius query and a banded-latency catalog sweep under
# both thread counts. The build output carries the content-addressed key, so
# diffing it also pins key stability across lane counts.
set(CATALOG_TSV ${CMAKE_CURRENT_LIST_DIR}/../tests/data/sites_sample.tsv)
set(CATALOG_STORE ${OUT_DIR}/catalog-store)
file(MAKE_DIRECTORY ${CATALOG_STORE})
foreach(threads 1 4)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env CARBONEDGE_THREADS=${threads}
            ${CLI} catalog --dir ${CATALOG_STORE} build ${CATALOG_TSV}
    OUTPUT_FILE ${OUT_DIR}/catalog-build-t${threads}.txt
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "determinism probe 'catalog build' failed with CARBONEDGE_THREADS=${threads} (exit ${status})")
  endif()
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${OUT_DIR}/catalog-build-t1.txt ${OUT_DIR}/catalog-build-t4.txt
  RESULT_VARIABLE identical)
if(NOT identical EQUAL 0)
  message(FATAL_ERROR "determinism gate: catalog build output differs between thread counts")
endif()
file(READ ${OUT_DIR}/catalog-build-t1.txt build_output)
string(REGEX MATCH "key ([0-9a-f]+)" _ "${build_output}")
if(NOT CMAKE_MATCH_1)
  message(FATAL_ERROR "determinism gate: could not parse catalog key from build output:\n${build_output}")
endif()
set(CATALOG_KEY ${CMAKE_MATCH_1})

# Queries the CLI must refuse rather than answer: "nan", "inf" and 200
# parse as numbers, so a point outside the WGS-84 ranges catalog ingest
# enforces, a negative or infinite radius, or a number with trailing
# characters must exit non-zero with a message. So must a sweep band that is
# not a finite number above 0 (NaN and negative bands once ran unbounded),
# and a negative epoch count. Each item is "<subcommand>,<args after the key>".
foreach(bad "nearest,nan,5" "nearest,200,5" "nearest,52.0,-180.5" "nearest,52.0x,5"
            "radius,52.0,5.0,-1" "radius,52.0,5.0,inf" "radius,-91,5.0,400"
            "sweep,24,--max-sites=12,--band=nan" "sweep,24,--max-sites=12,--band=-5"
            "sweep,-1")
  string(REPLACE "," ";" bad_args "${bad}")
  list(INSERT bad_args 1 ${CATALOG_KEY})
  execute_process(
    COMMAND ${CLI} catalog --dir ${CATALOG_STORE} ${bad_args}
    OUTPUT_VARIABLE bad_out
    ERROR_VARIABLE bad_err
    RESULT_VARIABLE status)
  if(status EQUAL 0 OR NOT bad_err MATCHES "error: ")
    message(FATAL_ERROR "catalog probe '${bad}' should fail with a message, "
                        "got exit ${status}:\n${bad_out}${bad_err}")
  endif()
endforeach()
message(STATUS "determinism gate: out-of-range catalog queries rejected")

# A comment-only dump compiles to an empty catalog; nearest on it reports
# that and exits 1 instead of naming a site that does not exist.
file(WRITE ${OUT_DIR}/empty_sites.tsv "# no sites\n")
execute_process(
  COMMAND ${CLI} catalog --dir ${CATALOG_STORE} build ${OUT_DIR}/empty_sites.tsv
  OUTPUT_VARIABLE empty_build
  RESULT_VARIABLE status)
string(REGEX MATCH "key ([0-9a-f]+)" _ "${empty_build}")
if(NOT status EQUAL 0 OR NOT CMAKE_MATCH_1)
  message(FATAL_ERROR "catalog build of a comment-only dump failed (exit ${status}):\n${empty_build}")
endif()
execute_process(
  COMMAND ${CLI} catalog --dir ${CATALOG_STORE} nearest ${CMAKE_MATCH_1} 52.0 5.0
  OUTPUT_VARIABLE empty_out
  RESULT_VARIABLE status)
if(NOT status EQUAL 1 OR NOT empty_out MATCHES "catalog is empty")
  message(FATAL_ERROR "catalog nearest on an empty catalog should print 'catalog is empty' "
                      "and exit 1, got exit ${status}:\n${empty_out}")
endif()

# Radius query (spatial index, exact distances) and a 12-site sweep without
# and with a latency band (the unbounded and the banded latency table through
# region construction, solver, and engine).
set(PROBE_catalog_radius "catalog;--dir;${CATALOG_STORE};radius;${CATALOG_KEY};52.0;5.0;400")
set(PROBE_catalog_sweep_unbounded "catalog;--dir;${CATALOG_STORE};sweep;${CATALOG_KEY};24;--max-sites=12")
set(PROBE_catalog_sweep "catalog;--dir;${CATALOG_STORE};sweep;${CATALOG_KEY};24;--max-sites=12;--band=12")
foreach(probe catalog_radius catalog_sweep_unbounded catalog_sweep)
  foreach(threads 1 4)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E env CARBONEDGE_THREADS=${threads} ${CLI} ${PROBE_${probe}}
      OUTPUT_FILE ${OUT_DIR}/${probe}-t${threads}.txt
      RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "determinism probe '${probe}' failed with CARBONEDGE_THREADS=${threads} (exit ${status})")
    endif()
  endforeach()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${OUT_DIR}/${probe}-t1.txt ${OUT_DIR}/${probe}-t4.txt
    RESULT_VARIABLE identical)
  if(NOT identical EQUAL 0)
    message(FATAL_ERROR "determinism gate: probe '${probe}' differs between "
                        "CARBONEDGE_THREADS=1 and =4 — compare ${OUT_DIR}/${probe}-t1.txt "
                        "against ${OUT_DIR}/${probe}-t4.txt")
  endif()
  message(STATUS "determinism gate: probe '${probe}' byte-identical across thread counts")
endforeach()

# The metrics snapshot's deterministic view is under the same contract: the
# counts/bytes/invocations it reports must not depend on the lane count.
# Extract the "deterministic" object from each JSON snapshot (the exporter
# emits name-ordered keys, so equal objects have equal text) and compare.
foreach(threads 1 4)
  file(READ ${OUT_DIR}/metrics-single-t${threads}.json snapshot)
  string(JSON det_${threads} GET "${snapshot}" deterministic)
endforeach()
if(NOT det_1 STREQUAL det_4)
  file(WRITE ${OUT_DIR}/metrics-det-t1.json "${det_1}")
  file(WRITE ${OUT_DIR}/metrics-det-t4.json "${det_4}")
  message(FATAL_ERROR "determinism gate: deterministic metrics view differs between "
                      "CARBONEDGE_THREADS=1 and =4 — compare ${OUT_DIR}/metrics-det-t1.json "
                      "against ${OUT_DIR}/metrics-det-t4.json")
endif()
message(STATUS "determinism gate: deterministic metrics view byte-identical across thread counts")

# Commands no probe above reaches, each run once and checked for a clean
# exit and its expected output: the Section 3 region summary, a trace export
# (a header plus one row per zone-hour: 5 Florida zones x 8760 hours), a
# Prometheus metrics snapshot, and a store gc that removes a planted
# corrupt entry and then evicts the intact ones down to one byte. The gc
# runs on a fresh store: gc also reaps lock files older than ten minutes,
# which a reused store would accumulate between runs.
execute_process(
  COMMAND ${CLI} analyze florida
  OUTPUT_VARIABLE analyze_out
  RESULT_VARIABLE status)
if(NOT status EQUAL 0 OR NOT analyze_out MATCHES "yearly spread [0-9.]+x")
  message(FATAL_ERROR "analyze florida failed (exit ${status}):\n${analyze_out}")
endif()

set(TRACES_CSV ${OUT_DIR}/florida-traces.csv)
file(REMOVE ${TRACES_CSV})
execute_process(
  COMMAND ${CLI} export-traces florida ${TRACES_CSV}
  OUTPUT_VARIABLE export_out
  RESULT_VARIABLE status)
if(NOT status EQUAL 0 OR NOT EXISTS ${TRACES_CSV})
  message(FATAL_ERROR "export-traces florida failed (exit ${status}):\n${export_out}")
endif()
file(STRINGS ${TRACES_CSV} trace_lines)
list(LENGTH trace_lines trace_line_count)
if(NOT trace_line_count EQUAL 43801)
  message(FATAL_ERROR "export-traces florida wrote ${trace_line_count} lines, expected 43801 "
                      "(a header plus 5 zones x 8760 hours)")
endif()

set(ZONES_PROM ${OUT_DIR}/zones-metrics.prom)
file(REMOVE ${ZONES_PROM})
execute_process(
  COMMAND ${CLI} zones --metrics-prom=${ZONES_PROM}
  OUTPUT_QUIET
  RESULT_VARIABLE status)
if(EXISTS ${ZONES_PROM})
  file(READ ${ZONES_PROM} zones_prom)
endif()
if(NOT status EQUAL 0 OR NOT zones_prom MATCHES "# TYPE ")
  message(FATAL_ERROR "zones --metrics-prom wrote no Prometheus snapshot (exit ${status})")
endif()

set(GC_STORE ${OUT_DIR}/gc-store)
file(REMOVE_RECURSE ${GC_STORE})
execute_process(
  COMMAND ${CLI} catalog --dir ${GC_STORE} build ${CATALOG_TSV}
  OUTPUT_QUIET
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "catalog build into the gc probe store failed (exit ${status})")
endif()
file(WRITE ${GC_STORE}/catalogs/planted-corrupt.ceaf "not an artifact")
execute_process(
  COMMAND ${CLI} store --dir ${GC_STORE} gc --max-bytes=1
  OUTPUT_VARIABLE gc_out
  RESULT_VARIABLE status)
if(NOT status EQUAL 0 OR NOT gc_out MATCHES "removed 1 files" OR
   NOT gc_out MATCHES "evicted [1-9][0-9]* entries")
  message(FATAL_ERROR "store gc on a fresh store failed (exit ${status}):\n${gc_out}")
endif()
message(STATUS "determinism gate: analyze, export-traces, --metrics-prom and store gc ran clean")
