# A fresh `train` into a file that already holds a longer run's records must
# start the file over: `inspect` then reports the new run's round count, not
# the old run's newest record.
#
#   cmake -DCLI=<path to quickdrop_cli> -DOUT=<scratch file> -P fresh_train_test.cmake
file(REMOVE "${OUT}")
foreach(rounds 3 2)
  execute_process(
    COMMAND "${CLI}" train --dataset mnist --clients 2 --rounds ${rounds} --local-steps 1
            --width 8 --checkpoint-every 1 --threads 1 --out "${OUT}"
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "train --rounds ${rounds} exited with ${rc}")
  endif()
endforeach()
execute_process(COMMAND "${CLI}" inspect --checkpoint "${OUT}"
                OUTPUT_VARIABLE report RESULT_VARIABLE rc)
file(REMOVE "${OUT}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "inspect exited with ${rc}")
endif()
if(NOT report MATCHES "\n  rounds = 2\n")
  message(FATAL_ERROR "expected the fresh 2-round run, inspect reported:\n${report}")
endif()
