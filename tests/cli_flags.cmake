# odin_cli must refuse a malformed or out-of-range flag value with a usage
# error and exit status 1: never crash on it, and never run a different
# configuration than the one asked for. A well-formed campaign must still
# run. Run as: cmake -DODIN_CLI=<path to odin_cli> -P tests/cli_flags.cmake
if(NOT ODIN_CLI)
  message(FATAL_ERROR "pass -DODIN_CLI=<path to odin_cli>")
endif()
set(base "${CMAKE_CURRENT_BINARY_DIR}/cli_flags_ckpt")

# One invocation per entry, arguments separated by '|'.
set(refused
    # malformed or partial tokens
    "simulate|resnet18|--runs|abc"
    "simulate|resnet18|--ou|8x8x"
    "serve|--shards|4x"
    "serve|--slo|abc"
    "campaign|--seed|abc"
    "campaign|--tenants|8.5"
    "campaign|--autoscale|yes"
    "cluster|--failover|maybe"
    # values outside what the library or the scenario-file key accepts
    "checkpoint|${base}|--segments|0|--runs|40"
    "simulate|resnet18|--crossbar|0"
    "simulate|resnet18|--crossbar|48"
    "campaign|--requests|-5"
    "campaign|--max-requests|-1"
    "cluster|--meshes|9"
    "cluster|--replication-epochs|65"
    "serve|--breaker-window|99"
    "serve|--breaker-threshold|0"
    # 0 is out of range too: no setting has an environment default
    "serve|--shards|0"
    "serve|--batch-max|0"
    "cluster|--meshes|0")

set(failed 0)
foreach(case IN LISTS refused)
  string(REPLACE "|" ";" args "${case}")
  execute_process(COMMAND "${ODIN_CLI}" ${args}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  # A signal comes back as a string ("Segmentation fault"), not a number.
  if(NOT rc STREQUAL "1")
    string(REPLACE ";" " " shown "${args}")
    message("odin_cli ${shown}: exit '${rc}', want 1")
    math(EXPR failed "${failed} + 1")
  endif()
endforeach()
file(REMOVE "${base}.a" "${base}.b")

execute_process(COMMAND "${ODIN_CLI}" campaign --requests 2000 --tenants 8
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc STREQUAL "0")
  message("odin_cli campaign --requests 2000 --tenants 8: exit '${rc}', "
          "want 0")
  math(EXPR failed "${failed} + 1")
endif()

if(failed GREATER 0)
  message(FATAL_ERROR "${failed} odin_cli invocation(s) misbehaved")
endif()
