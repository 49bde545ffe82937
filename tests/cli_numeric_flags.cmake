# CLI numeric parsing: a malformed value (empty, trailing garbage, not
# finite) is a usage error — exit status 2 — rather than being read as 0 or
# as its numeric prefix; well-formed values still run. Count flags and the
# `gen` size positionals also reject negative and fractional values, and a
# dash-leading number after a flag is that flag's value, not a new flag.
#
#   cmake -DCLI=<path to ftspan_cli> -DWORK=<scratch dir> -P cli_numeric_flags.cmake
file(MAKE_DIRECTORY "${WORK}")
set(graph "${WORK}/numeric_flags_graph.txt")

function(run_cli expected)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${expected}")
    message(FATAL_ERROR "ftspan_cli ${ARGN}: exit ${rc}, want ${expected}\n${err}")
  endif()
endfunction()

run_cli(0 gen gnp 30 0.3 --seed 1 -o "${graph}")
# The control: the same command with well-formed values succeeds.
run_cli(0 ft -i "${graph}" -k 3 -r 1 --threads 1 -o "${WORK}/numeric_flags_h.txt")

foreach(bad IN ITEMS "--threads;abc" "-k;3x" "-r;1.5e" "--seed;nan"
                     "--threads;inf" "-k;1e999" "--threads;-2" "-r;1.7"
                     "-r;-1" "--seed;-5" "--threads;2.0"
                     "--seed;99999999999999999999")
  run_cli(2 ft -i "${graph}" -r 1 ${bad})
endforeach()
# An empty value (a list element CMake would drop, so spelled out here).
execute_process(COMMAND "${CLI}" ft -i "${graph}" -r 1 --threads ""
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "ftspan_cli ft --threads '': exit ${rc}, want 2")
endif()
run_cli(2 check -i "${graph}" -s "${graph}" -k 3 -r 1 --trials 5x)
run_cli(2 serve -i "${graph}" -k 3 --port 80abc)
run_cli(2 check -i "${graph}" -s "${graph}" -k 3 -r 1 --trials 2.5)
run_cli(2 check -i "${graph}" -s "${graph}" -k 3 -r 1 --adversarial -1)
run_cli(2 serve -i "${graph}" -k 3 --port 70000)
run_cli(2 serve -i "${graph}" -k 3 --cache -1)

# gen's positionals parse as strictly as the flags.
foreach(bad IN ITEMS "gnp;20x;0.3" "gnp;20;0.3abc" "gnp;-20;0.3" "gnp;2.5;0.3"
                     "grid;3;4x" "geometric;10;abc" "complete;1e2")
  run_cli(2 gen ${bad} -o "${WORK}/numeric_flags_bad.txt")
endforeach()
run_cli(0 gen grid 3 4 -o "${WORK}/numeric_flags_grid.txt")
