# Output contract: run a fixed set of programs, hash each one's stdout
# and every JSON file it writes, and compare the hashes against the
# checked-in manifest (one "<sha256>  <program args> | <output>" line
# per output).  The modeled results are the contract, so any change to
# a printed digit fails here and shows up as a named manifest line.
#
# The set: every bench/ program except micro_ops (it prints host
# timings), every example, the defaults of each CLI command, `help`,
# and every coruscant_cli and bench call in .github/workflows/ci.yml
# except the `polybench --size 4096` run-time check and the sanitizer
# job's sweep of `ops` and `reliability` over TRD 3..7.  Each `serve`
# call runs at --threads 1, 4 and 8 (CI's own --threads
# value is replaced); the three must hash the same once the
# `threads=` echo is stripped from stdout.  Usage errors are checked
# for exit code 2 only: their diagnostics go to stderr.
#
# Run through ctest (test OutputContract), or rewrite the manifest
# after a deliberate output change with
#   cmake --build build --target update_output_contract
#
# Inputs (-D): SOURCE_DIR, CLI, BENCH_DIR, EXAMPLE_DIR, MANIFEST,
# WORK_DIR, and UPDATE=ON for update mode.

cmake_minimum_required(VERSION 3.16)

foreach(var SOURCE_DIR CLI BENCH_DIR EXAMPLE_DIR MANIFEST WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "output_contract.cmake: -D${var}= is required")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Manifest lines and run failures collect in two global properties.
function(fail message)
    set_property(GLOBAL APPEND PROPERTY contract_failures "${message}")
endfunction()

# Run @p program with ARGS in WORK_DIR and hash its stdout and FILES.
# With SERVE, run it at --threads 1, 4 and 8 and require the three to
# agree.  ARGS and FILES must not contain ';'.
function(contract program)
    cmake_parse_arguments(PARSE_ARGV 1 C "SERVE" "" "ARGS;FILES")
    get_filename_component(name "${program}" NAME)
    string(REPLACE ";" " " label "${name} ${C_ARGS}")
    string(STRIP "${label}" label)
    set(thread_counts 0)
    if(C_SERVE)
        list(POP_FRONT C_ARGS command)
        set(thread_counts 1 4 8)
    endif()
    foreach(t IN LISTS thread_counts)
        set(args ${C_ARGS})
        if(C_SERVE)
            set(args ${command} --threads ${t} ${args})
        endif()
        foreach(f IN LISTS C_FILES)
            file(REMOVE "${WORK_DIR}/${f}")
        endforeach()
        execute_process(COMMAND "${program}" ${args}
            WORKING_DIRECTORY "${WORK_DIR}"
            OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
        if(NOT rc STREQUAL "0")
            string(STRIP "${err}" err)
            string(REPLACE ";" "," err "${err}")
            fail("exit ${rc}: ${label} (threads ${t}): ${err}")
            return()
        endif()
        string(REGEX REPLACE " threads=[0-9]+" "" out "${out}")
        string(SHA256 hash "${out}")
        set(lines "${hash}  ${label} | stdout")
        foreach(f IN LISTS C_FILES)
            if(NOT EXISTS "${WORK_DIR}/${f}")
                fail("not written: ${f} by ${label}")
                return()
            endif()
            file(SHA256 "${WORK_DIR}/${f}" hash)
            list(APPEND lines "${hash}  ${label} | ${f}")
        endforeach()
        if(t LESS_EQUAL 1)
            set(first "${lines}")
        elseif(NOT lines STREQUAL first)
            fail("threads ${t} differs from threads 1: ${label}")
            return()
        endif()
    endforeach()
    set_property(GLOBAL APPEND PROPERTY contract_lines ${first})
endfunction()

# A usage error of @p program (the CLI or a bench): exit code 2,
# nothing hashed.
function(usage_error program)
    execute_process(COMMAND "${program}" ${ARGN}
        WORKING_DIRECTORY "${WORK_DIR}"
        OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
    if(NOT rc STREQUAL "2")
        get_filename_component(name "${program}" NAME)
        string(REPLACE ";" " " label "${name} ${ARGN}")
        fail("usage error exited ${rc}, want 2: ${label}")
    endif()
endfunction()

# Paper benches and examples, with their defaults.
file(GLOB bench_sources "${SOURCE_DIR}/bench/*.cpp")
foreach(src IN LISTS bench_sources)
    get_filename_component(name "${src}" NAME_WE)
    if(NOT name STREQUAL "micro_ops")
        contract("${BENCH_DIR}/${name}")
    endif()
endforeach()
file(GLOB example_sources "${SOURCE_DIR}/examples/*.cpp")
foreach(src IN LISTS example_sources)
    get_filename_component(name "${src}" NAME_WE)
    contract("${EXAMPLE_DIR}/example_${name}")
endforeach()

# CLI defaults.
contract("${CLI}" ARGS help)
foreach(command ops area bitmap polybench cnn reliability campaign)
    contract("${CLI}" ARGS ${command})
endforeach()
contract("${CLI}" SERVE ARGS serve)
# Ragged last chunks: 369 of 512 and 4465 of 65536 bits, each ending
# in a partial word; w = 6 fills the whole TRD-7 window.
contract("${CLI}" ARGS bitmap --users 70001 --weeks 6)
contract("${CLI}" ARGS ops --metrics-json ops_metrics.json
    --trace ops_trace.json FILES ops_metrics.json ops_trace.json)
# At TRD 3 the max-arity add is the two-operand add: its counters are
# recorded under opcost/add once, not twice.
contract("${CLI}" ARGS ops --trd 3 --metrics-json ops3_metrics.json
    FILES ops3_metrics.json)

# ci.yml: reliability and data-fault/ECC acceptance campaigns.
contract("${CLI}" ARGS campaign --policy per-access --pshift 1e-3 --trials 200)
contract("${CLI}" ARGS campaign --policy none --pshift 1e-3 --trials 200)
contract("${CLI}" ARGS campaign --policy per-cpim --pshift 5e-3 --trials 200)
contract("${CLI}" ARGS campaign --policy scrub --pshift 1e-3 --trials 200)
contract("${CLI}" ARGS campaign --pshift 0 --pdata 1e-4 --ecc secded --nmr 3
    --retention 1e-9 --trials 200)
contract("${CLI}" ARGS campaign --policy per-cpim --pshift 1e-3 --pdata 1e-4
    --ecc secded --nmr 3 --trials 200)
# The same campaign_ecc configuration with its counters and trace.
contract("${CLI}" ARGS campaign --policy per-cpim --pshift 1e-3 --pdata 1e-4
    --ecc secded --nmr 3 --trials 200 --metrics-json campaign_metrics.json
    --trace campaign_trace.json
    FILES campaign_metrics.json campaign_trace.json)

# ci.yml: serve runs (ASan option tables, TSan chaos, Release smokes).
contract("${CLI}" SERVE ARGS serve --channels 4 --pshift 1e-3 --pdata 1e-4
    --ecc secded --nmr 3 --seed 42 --duration 20000
    --metrics-json asan_metrics.json FILES asan_metrics.json)
contract("${CLI}" SERVE ARGS serve --trd 4 --duration 2000)
contract("${CLI}" SERVE ARGS serve --channels 8 --chaos on --policy per-access
    --seed 42 --duration 20000)
contract("${CLI}" SERVE ARGS serve --channels 8 --pdata 1e-4 --ecc secded
    --nmr 3 --seed 42 --duration 20000)
contract("${CLI}" SERVE ARGS serve --process closed --policy scrub
    --pshift 1e-3 --pdata 1e-4 --ecc secded --retention 1e-7
    --scrub-interval 512 --seed 42 --duration 20000)
contract("${CLI}" SERVE ARGS serve --channels 8 --rate 200
    --mix bulk:0.9,read:0.05,write:0.05 --seed 42 --duration 20000)
contract("${CLI}" SERVE ARGS serve --channels 4 --rate 100 --seed 7
    --duration 20000 --metrics-json serve_metrics.json
    --trace serve_trace.json FILES serve_metrics.json serve_trace.json)
contract("${CLI}" SERVE ARGS serve --channels 4 --chaos on
    --policy per-access --seed 42 --duration 30000
    --metrics-json chaos_metrics.json FILES chaos_metrics.json)
contract("${CLI}" SERVE ARGS serve --channels 4 --pdata 1e-4 --ecc secded
    --nmr 3 --seed 42 --duration 30000)

# ci.yml: bench smokes.
contract("${BENCH_DIR}/service_tail_latency" ARGS --rate 200 --duration 20000)
contract("${BENCH_DIR}/service_tail_latency" ARGS --rate 200 --duration 20000
    --metrics-json tail_metrics.json FILES tail_metrics.json)
contract("${BENCH_DIR}/service_fault_tolerance" ARGS --duration 20000
    --channels 2)
contract("${BENCH_DIR}/service_ecc_tolerance" ARGS --duration 20000
    --channels 2)

# ci.yml: usage errors exit 2.
usage_error("${CLI}" serve --rate inf)
usage_error("${CLI}" serve --mix bulk:nan)
usage_error("${CLI}" serve --mix read:inf,bulk:1)
usage_error("${CLI}" serve --mix bulk:1e308,read:1e308)
usage_error("${CLI}" serve --mix read:1,read:5,bulk:0 --duration 2000
    --channels 1)
usage_error("${CLI}" serve --nmr 2)
usage_error("${CLI}" bitmap --users 0)
usage_error("${CLI}" polybench --size 0)
usage_error("${CLI}" ops --trd 2)
usage_error("${CLI}" serve --channels 0)
usage_error("${CLI}" serve --banks 0)
usage_error("${CLI}" serve --groups 0)
usage_error("${CLI}" serve --process closed --clients 0)
usage_error("${CLI}" campaign --trials 0)
usage_error("${CLI}" reliability --trd 2)
usage_error("${CLI}" reliability --trd 33)
usage_error("${CLI}" reliability --pfault 2)
usage_error("${CLI}" serve --bogus 1)
usage_error("${CLI}" serve --nmr 5 --trd 3)
usage_error("${CLI}" serve --trd 2)
usage_error("${CLI}" serve --trd 8)
usage_error("${CLI}" ops --trd 8)
usage_error("${CLI}" reliability --trd 8)
usage_error("${CLI}" serve --breaker-threshold 0)
usage_error("${CLI}" serve --trips 0)
usage_error("${CLI}" serve --window 18446744073709551615)
usage_error("${CLI}" serve --cooldown 18446744073709551615)
usage_error("${CLI}" bitmap --users 18446744073709551615)
usage_error("${CLI}" polybench --size 3000000)
usage_error("${BENCH_DIR}/service_tail_latency" --rate 0)
usage_error("${BENCH_DIR}/service_fault_tolerance" --pshift 2)
usage_error("${BENCH_DIR}/service_ecc_tolerance" --pdata 2)

get_property(lines GLOBAL PROPERTY contract_lines)
get_property(failures GLOBAL PROPERTY contract_failures)
list(LENGTH lines n)
if(UPDATE)
    string(REPLACE ";" "\n" text "${lines}")
    file(WRITE "${MANIFEST}" "${text}\n")
    message(STATUS "wrote ${n} output hashes to ${MANIFEST}")
else()
    file(STRINGS "${MANIFEST}" want)
    foreach(line IN LISTS want)
        if(NOT line IN_LIST lines)
            list(APPEND failures "- ${line}")
        endif()
    endforeach()
    foreach(line IN LISTS lines)
        if(NOT line IN_LIST want)
            list(APPEND failures "+ ${line}")
        endif()
    endforeach()
endif()
if(failures)
    string(REPLACE ";" "\n  " report "${failures}")
    message(FATAL_ERROR "output contract broken (- ${MANIFEST}, + this "
        "build):\n  ${report}\nIf the change is deliberate, rewrite the "
        "manifest with `cmake --build <build> --target "
        "update_output_contract` and name each moved line in the commit.")
endif()
message(STATUS "output contract holds: ${n} outputs match")
