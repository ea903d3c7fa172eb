# End-to-end smoke test: run cknn_sim on a tiny generated network and
# assert exit code 0 plus non-empty output; then assert that bad flag
# usage (bare value-flags, unknown flags, valued boolean flags) exits
# nonzero with usage text instead of silently misparsing. With
# -DCKNN_SERVE / -DCKNN_LOADGEN the serving binaries get the same
# treatment (all three share tools/flag_util.h, so the error legs pin the
# shared rules to every tool). Invoked by CTest as
#   cmake -DCKNN_SIM=<path> [-DCKNN_SERVE=<path>] [-DCKNN_LOADGEN=<path>]
#         -P smoke_test.cmake
if(NOT DEFINED CKNN_SIM)
  message(FATAL_ERROR "smoke_test.cmake requires -DCKNN_SIM=<path to cknn_sim>")
endif()

# expect_tool_usage_error(<tool-path> <tool-name> <case> <args...>): the
# invocation must exit nonzero and print the tool's usage text.
function(expect_tool_usage_error tool tool_name case)
  execute_process(
    COMMAND ${tool} ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code)
  if(code EQUAL 0)
    message(FATAL_ERROR
      "${case}: ${tool_name} ${ARGN} exited 0 but should have failed\n"
      "stdout:\n${out}\nstderr:\n${err}")
  endif()
  string(FIND "${out}${err}" "usage: ${tool_name}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
      "${case}: no usage text after bad invocation '${tool_name} ${ARGN}'\n"
      "stdout:\n${out}\nstderr:\n${err}")
  endif()
  message(STATUS "${tool_name} ${case} OK (${code})")
endfunction()

execute_process(
  COMMAND ${CKNN_SIM}
    --algo=gma --edges=200 --objects=300 --queries=20
    --k=4 --timestamps=5 --seed=7
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)

if(NOT code EQUAL 0)
  message(FATAL_ERROR
    "cknn_sim exited with ${code}\nstdout:\n${out}\nstderr:\n${err}")
endif()

string(STRIP "${out}" stripped)
if(stripped STREQUAL "")
  message(FATAL_ERROR "cknn_sim produced no output on stdout")
endif()

message(STATUS "cknn_sim smoke test OK (${code})")

# expect_usage_error(<case> <args...>): the invocation must exit nonzero
# and print the usage text.
function(expect_usage_error case)
  execute_process(
    COMMAND ${CKNN_SIM} ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code)
  if(code EQUAL 0)
    message(FATAL_ERROR
      "${case}: cknn_sim ${ARGN} exited 0 but should have failed\n"
      "stdout:\n${out}\nstderr:\n${err}")
  endif()
  string(FIND "${out}${err}" "usage: cknn_sim" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
      "${case}: no usage text after bad invocation 'cknn_sim ${ARGN}'\n"
      "stdout:\n${out}\nstderr:\n${err}")
  endif()
  message(STATUS "cknn_sim ${case} OK (${code})")
endfunction()

expect_usage_error(bare_value_flag --algo)
expect_usage_error(bare_value_flag_edges --edges)
expect_usage_error(empty_value --algo=)
expect_usage_error(unknown_flag --bogus-flag)
expect_usage_error(unknown_algorithm --algo=dijkstra)
expect_usage_error(valued_bool_flag --compare=yes)
expect_usage_error(non_numeric_value --k=fifty)
expect_usage_error(negative_count --edges=-5)
expect_usage_error(trailing_garbage --queries=10x)
expect_usage_error(zero_k --k=0)
expect_usage_error(negative_timestamps --timestamps=-5)
expect_usage_error(bare_record --record)
expect_usage_error(bare_replay --replay)
expect_usage_error(record_and_replay --record=a.trace --replay=b.trace)
expect_usage_error(compare_and_conformance --compare --conformance)
expect_usage_error(compare_and_record --compare --record=a.trace)
expect_usage_error(valued_conformance --conformance=yes)
expect_usage_error(replay_with_generator_flag --replay=a.trace --edges=100)
expect_usage_error(replay_with_seed --replay=a.trace --seed=3)
expect_usage_error(conformance_with_algo --conformance --algo=ima)
expect_usage_error(conformance_with_memory --conformance --memory)
expect_usage_error(zero_shards --shards=0)
expect_usage_error(bare_shards --shards)
expect_usage_error(zero_pipeline --pipeline=0)
expect_usage_error(bare_pipeline --pipeline)
expect_usage_error(deep_pipeline --pipeline=3)

# A sharded run must work end to end (exit 0; result
# agreement with the serial default is enforced by shard_determinism_test
# and the conformance CLI --shards legs).
execute_process(
  COMMAND ${CKNN_SIM}
    --algo=ima --shards=4 --edges=200 --objects=300 --queries=20
    --k=4 --timestamps=5 --seed=7
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR
    "sharded cknn_sim run exited ${code}\nstdout:\n${out}\nstderr:\n${err}")
endif()
message(STATUS "cknn_sim sharded_run OK (${code})")

# A pipelined sharded run too (result agreement is enforced by
# shard_determinism_test at shards {1,2,8} x pipeline depth {1,2}).
execute_process(
  COMMAND ${CKNN_SIM}
    --algo=ima --shards=2 --pipeline=2 --edges=200 --objects=300
    --queries=20 --k=4 --timestamps=5 --seed=7
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR
    "pipelined cknn_sim run exited ${code}\nstdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${out}" "wall" has_wall)
string(FIND "${out}" "cpu" has_cpu)
if(has_wall EQUAL -1 OR has_cpu EQUAL -1)
  message(FATAL_ERROR
    "pipelined run should report wall and cpu time per tick, got\n${out}")
endif()
message(STATUS "cknn_sim pipelined_run OK (${code})")

# Replay of a missing trace must fail cleanly (a read error, not usage).
execute_process(
  COMMAND ${CKNN_SIM} --replay=does_not_exist.trace
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
if(code EQUAL 0)
  message(FATAL_ERROR
    "replay of a missing trace exited 0\nstdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${err}" "cannot read trace" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR
    "replay of a missing trace should report a read error, got\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
message(STATUS "cknn_sim missing_trace OK (${code})")

# ------------------------------------------------------------- cknn_serve --
if(DEFINED CKNN_SERVE)
  # Happy path: the in-process protocol round trip (install, add, flush,
  # read, stats, shutdown over a socketpair through the real serve loop).
  execute_process(
    COMMAND ${CKNN_SERVE} --selfcheck --edges=200 --seed=7
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR
      "cknn_serve --selfcheck exited ${code}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  string(FIND "${out}" "selfcheck ok" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "cknn_serve --selfcheck did not report ok:\n${out}")
  endif()
  message(STATUS "cknn_serve selfcheck OK (${code})")

  expect_tool_usage_error(${CKNN_SERVE} cknn_serve bare_port --port)
  expect_tool_usage_error(${CKNN_SERVE} cknn_serve non_numeric_port --port=x)
  expect_tool_usage_error(${CKNN_SERVE} cknn_serve huge_port --port=70000)
  expect_tool_usage_error(${CKNN_SERVE} cknn_serve negative_port --port=-1)
  expect_tool_usage_error(${CKNN_SERVE} cknn_serve trailing_garbage --edges=10x)
  expect_tool_usage_error(${CKNN_SERVE} cknn_serve unknown_flag --bogus)
  expect_tool_usage_error(${CKNN_SERVE} cknn_serve unknown_algorithm --algo=dijkstra)
  expect_tool_usage_error(${CKNN_SERVE} cknn_serve valued_bool_flag --selfcheck=yes)
  expect_tool_usage_error(${CKNN_SERVE} cknn_serve zero_queue --queue-capacity=0)
  expect_tool_usage_error(${CKNN_SERVE} cknn_serve deep_pipeline --pipeline=3)
  expect_tool_usage_error(${CKNN_SERVE} cknn_serve zero_shards --shards=0)
endif()

# ----------------------------------------------------------- cknn_loadgen --
if(DEFINED CKNN_LOADGEN)
  # Happy path: a miniature bursty scenario must complete and report
  # sustained throughput plus latency percentiles.
  execute_process(
    COMMAND ${CKNN_LOADGEN}
      --objects=2000 --queries=100 --k=2 --edges=200
      --producers=2 --bursts=2 --seed=7
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR
      "cknn_loadgen exited ${code}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  string(FIND "${out}" "updates/sec" has_throughput)
  string(FIND "${out}" "p99" has_p99)
  if(has_throughput EQUAL -1 OR has_p99 EQUAL -1)
    message(FATAL_ERROR
      "cknn_loadgen should report updates/sec and latency percentiles:\n${out}")
  endif()
  message(STATUS "cknn_loadgen scenario OK (${code})")

  expect_tool_usage_error(${CKNN_LOADGEN} cknn_loadgen bare_objects --objects)
  expect_tool_usage_error(${CKNN_LOADGEN} cknn_loadgen negative_objects --objects=-5)
  expect_tool_usage_error(${CKNN_LOADGEN} cknn_loadgen trailing_garbage --queries=10x)
  expect_tool_usage_error(${CKNN_LOADGEN} cknn_loadgen unknown_flag --bogus)
  expect_tool_usage_error(${CKNN_LOADGEN} cknn_loadgen valued_bool_flag --drop=yes)
  expect_tool_usage_error(${CKNN_LOADGEN} cknn_loadgen zero_k --k=0)
  expect_tool_usage_error(${CKNN_LOADGEN} cknn_loadgen zero_producers --producers=0)
  expect_tool_usage_error(${CKNN_LOADGEN} cknn_loadgen deep_pipeline --pipeline=3)
  expect_tool_usage_error(${CKNN_LOADGEN} cknn_loadgen zero_queue --queue-capacity=0)
  expect_tool_usage_error(${CKNN_LOADGEN} cknn_loadgen unknown_algorithm --algo=dijkstra)
endif()
