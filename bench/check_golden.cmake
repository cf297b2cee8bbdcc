# Run REPRODUCE and compare its stdout with GOLDEN byte for byte.
# The actual output is kept in ACTUAL for inspection; a mismatch
# prints a unified diff and fails.
#
#   cmake -DREPRODUCE=<exe> -DGOLDEN=<file> -DACTUAL=<file> \
#         -P check_golden.cmake
execute_process(COMMAND ${REPRODUCE}
    OUTPUT_FILE ${ACTUAL}
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${REPRODUCE} exited with ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    ${GOLDEN} ${ACTUAL}
    RESULT_VARIABLE differ)
if(differ)
    execute_process(COMMAND diff -u ${GOLDEN} ${ACTUAL})
    message(FATAL_ERROR "output differs from ${GOLDEN}")
endif()
