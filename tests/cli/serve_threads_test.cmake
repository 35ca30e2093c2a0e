# `serve` is bitwise reproducible across thread counts: a generated trace
# replayed at 1 and at 4 threads gives `cmp`-identical metrics JSON and
# served checkpoint. The CLI runs verified SGA (up to 4 rounds), so this
# gates that path's bits.
#
#   cmake -DCLI=<path to quickdrop_cli> -DDIR=<scratch dir> -P serve_threads_test.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")

function(run_cli)
  execute_process(COMMAND "${CLI}" ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "quickdrop_cli ${ARGN} exited with ${rc}")
  endif()
endfunction()

function(expect_same a b)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${DIR}/${a}" "${DIR}/${b}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} differ between 1 and 4 threads")
  endif()
endfunction()

run_cli(train --dataset mnist --clients 4 --rounds 5 --width 8 --out "${DIR}/model.qdcp")
run_cli(serve --checkpoint "${DIR}/model.qdcp"
        --requests 4 --arrival-rate 10 --policy coalesce --max-batch 0 --sec-per-round 40
        --dump-trace "${DIR}/trace.txt" --json "${DIR}/replay1.json"
        --out "${DIR}/served1.qdcp" --threads 1)
run_cli(serve --checkpoint "${DIR}/model.qdcp"
        --trace "${DIR}/trace.txt" --policy coalesce --max-batch 0 --sec-per-round 40
        --json "${DIR}/replay4.json" --out "${DIR}/served4.qdcp" --threads 4)
expect_same(replay1.json replay4.json)
expect_same(served1.qdcp served4.qdcp)
file(REMOVE_RECURSE "${DIR}")
