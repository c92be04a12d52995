# run_golden(<program.tgd> <golden-file> <expected-rc> <arg>...): runs
# `nuchase <arg>... examples/programs/<program.tgd>` and requires the
# exit code and a byte-for-byte match of stdout with
# tests/golden/<golden-file>. Needs NUCHASE_CLI and REPO_DIR.
#
# cli_end_to_end.cmake includes this file. Run on its own,
#   cmake -DNUCHASE_CLI=... -DREPO_DIR=... -DPROGRAM=... -DGOLDEN=...
#         -DEXPECTED_RC=... -DARGS=<arg>[;<arg>...] -P run_golden.cmake
# it checks that one golden.
function(run_golden program golden expected_rc)
  execute_process(
      COMMAND "${NUCHASE_CLI}" ${ARGN} "${REPO_DIR}/examples/programs/${program}"
      OUTPUT_VARIABLE stdout
      ERROR_VARIABLE stderr
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL expected_rc)
    message(FATAL_ERROR
        "golden ${golden}: nuchase ${ARGN} ${program} exited ${rc}, "
        "expected ${expected_rc}\nstdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  file(READ "${REPO_DIR}/tests/golden/${golden}" expected)
  if(NOT stdout STREQUAL expected)
    message(FATAL_ERROR
        "golden mismatch for ${golden} (nuchase ${ARGN} ${program}).\n"
        "--- expected ---\n${expected}\n--- got ---\n${stdout}\n"
        "If the change is intentional, regenerate tests/golden/ (see "
        "README, Benchmarks) and commit the diff.")
  endif()
endfunction()

if(DEFINED PROGRAM)
  run_golden(${PROGRAM} ${GOLDEN} ${EXPECTED_RC} ${ARGS})
endif()
