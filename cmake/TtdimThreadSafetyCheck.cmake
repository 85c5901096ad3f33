# Configure-time proof that the thread-safety contract layer is alive.
#
# Two try_compile probes over tests/compile_fail/:
#   * guarded_access_ok.cpp      must COMPILE — a correctly locked
#     GUARDED_BY access is accepted (and under g++, where the macros are
#     no-ops, this doubles as the zero-cost-compat check).
#   * unguarded_access_fails.cpp must NOT COMPILE under clang with
#     -Wthread-safety -Werror — the analysis really rejects an unguarded
#     access. Without this negative test, a typo'd macro gate (annotations
#     silently expanding to nothing under clang) would let every contract
#     in src/engine/ rot while the lane stays green.
include_guard(GLOBAL)

function(ttdim_thread_safety_checks)
  set(src_include "${CMAKE_CURRENT_SOURCE_DIR}/src")
  set(check_dir "${CMAKE_CURRENT_SOURCE_DIR}/tests/compile_fail")
  set(is_clang FALSE)
  if(CMAKE_CXX_COMPILER_ID MATCHES "Clang")
    set(is_clang TRUE)
    set(tsa_flags "-Wthread-safety;-Wthread-safety-beta;-Werror")
  else()
    set(tsa_flags "")
  endif()

  try_compile(ttdim_tsa_positive
    "${CMAKE_BINARY_DIR}/ttdim_tsa_check/positive"
    "${check_dir}/guarded_access_ok.cpp"
    COMPILE_DEFINITIONS "${tsa_flags}"
    CMAKE_FLAGS "-DINCLUDE_DIRECTORIES=${src_include}"
    CXX_STANDARD 17
    CXX_STANDARD_REQUIRED ON
    OUTPUT_VARIABLE ttdim_tsa_positive_log)
  if(NOT ttdim_tsa_positive)
    message(FATAL_ERROR
      "thread-safety check: the correctly locked probe "
      "(tests/compile_fail/guarded_access_ok.cpp) failed to compile — the "
      "annotation layer itself is broken:\n${ttdim_tsa_positive_log}")
  endif()

  if(is_clang)
    try_compile(ttdim_tsa_negative
      "${CMAKE_BINARY_DIR}/ttdim_tsa_check/negative"
      "${check_dir}/unguarded_access_fails.cpp"
      COMPILE_DEFINITIONS "${tsa_flags}"
      CMAKE_FLAGS "-DINCLUDE_DIRECTORIES=${src_include}"
      CXX_STANDARD 17
      CXX_STANDARD_REQUIRED ON
      OUTPUT_VARIABLE ttdim_tsa_negative_log)
    if(ttdim_tsa_negative)
      message(FATAL_ERROR
        "thread-safety check: the unguarded-access probe "
        "(tests/compile_fail/unguarded_access_fails.cpp) COMPILED under "
        "-Wthread-safety -Werror — the analysis is not rejecting contract "
        "violations, so every GUARDED_BY/REQUIRES in src/ is unenforced.")
    endif()
    message(STATUS
      "Thread-safety analysis live: unguarded access rejected, guarded "
      "access accepted")
  else()
    message(STATUS
      "Thread-safety annotations are no-ops for ${CMAKE_CXX_COMPILER_ID}; "
      "guarded probe compiled clean (clang lane enforces the contracts)")
  endif()
endfunction()

ttdim_thread_safety_checks()
