# Regression check: `svsim timeline --precision f32` prices its compute
# phases with 4-byte amplitudes, so its modeled compute time must come in
# below the f64 run of the same plan.
#
#   cmake -DSVSIM=<path to svsim> -P timeline_precision.cmake

function(timeline_compute_us precision out)
  execute_process(
    COMMAND ${SVSIM} timeline --qft 20 --ranks 4 --precision ${precision}
    OUTPUT_VARIABLE text
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "svsim timeline --precision ${precision} failed: ${rc}")
  endif()
  string(REGEX MATCH "compute \\[us\\] +([0-9.]+)" row "${text}")
  if(row STREQUAL "")
    message(FATAL_ERROR "no 'compute [us]' row in:\n${text}")
  endif()
  set(${out} ${CMAKE_MATCH_1} PARENT_SCOPE)
endfunction()

timeline_compute_us(f64 f64_us)
timeline_compute_us(f32 f32_us)
message(STATUS "timeline compute: f64 ${f64_us} us, f32 ${f32_us} us")
if(NOT f32_us LESS f64_us)
  message(FATAL_ERROR "f32 compute (${f32_us} us) is not below f64 "
                      "(${f64_us} us): the f32 plan is priced as f64")
endif()
