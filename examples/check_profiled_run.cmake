# Run one example with --profile and fail unless it exits 0, prints
# its "Chrome trace ... written" line and leaves a non-empty trace.
# With -DREJECT=<regex> the example must instead refuse the command
# line: exit 1, print a message matching <regex>, and write no trace.
#
# Usage:
#   cmake -DTRACE=<trace.json> [-DREJECT=<regex>] \
#         -P check_profiled_run.cmake -- <example> [args...]
#
# Everything after "--" is the example's command line; this script
# appends "--profile <trace.json>".

set(command)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(after_dashes)
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(after_dashes TRUE)
    endif()
endforeach()
list(LENGTH command words)
if(words EQUAL 0 OR NOT TRACE)
    message(FATAL_ERROR "usage: cmake -DTRACE=<file> -P "
                        "check_profiled_run.cmake -- <example> [args...]")
endif()

file(REMOVE "${TRACE}")
execute_process(COMMAND ${command} --profile "${TRACE}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")

if(DEFINED REJECT)
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR "example exited with '${rc}', not 1")
    endif()
    if(NOT "${out}${err}" MATCHES "${REJECT}")
        message(FATAL_ERROR "no message matching '${REJECT}'")
    endif()
    if(EXISTS "${TRACE}")
        message(FATAL_ERROR "a refused run wrote '${TRACE}'")
    endif()
    return()
endif()

if(NOT rc EQUAL 0)
    message(FATAL_ERROR "example exited with '${rc}'")
endif()
if(NOT out MATCHES "Chrome trace[^\n]* written")
    message(FATAL_ERROR "no \"Chrome trace ... written\" line")
endif()
if(NOT EXISTS "${TRACE}")
    message(FATAL_ERROR "no trace file at '${TRACE}'")
endif()
file(SIZE "${TRACE}" size)
if(size EQUAL 0)
    message(FATAL_ERROR "trace file '${TRACE}' is empty")
endif()
