# Build file of the repository benchmark binary, ppa_perfbench.
#
# run.py configures the repository's top-level CMakeLists.txt with
#   -DCMAKE_PROJECT_INCLUDE=<this file>
# so project() pulls this file in. The target itself is defined by a
# deferred call that runs at the *end* of the top-level file, after the
# build type, LTO and warning flags are set and every library target
# exists: the benchmark is compiled exactly like the programs users
# run, and later changes to the top-level flags reach it too.
if(PPA_PERFBENCH_DIR)
    return()
endif()
set(PPA_PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(ppa_perfbench_add_target)
    set(dir ${PPA_PERFBENCH_DIR})
    add_executable(ppa_perfbench
        ${dir}/main.cc
        ${dir}/bench.cc
        ${dir}/sweep.cc
        ${dir}/serve_crash.cc
        ${dir}/crash_check.cc
        ${dir}/tp_replay.cc
    )
    target_link_libraries(ppa_perfbench PRIVATE
        ppa_sim ppa_serve ppa_check_litmus ppa_fuzz ppa_tracing)

    # Build provenance, printed with every result and used to refuse
    # measuring debug or sanitizer builds.
    get_target_property(lto ppa_perfbench INTERPROCEDURAL_OPTIMIZATION)
    if(lto)
        set(lto 1)
    else()
        set(lto 0)
    endif()
    target_compile_definitions(ppa_perfbench PRIVATE
        PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
        PERFBENCH_SANITIZE="${PPA_SANITIZE}"
        PERFBENCH_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}"
        PERFBENCH_LTO=${lto})
endfunction()

cmake_language(DEFER CALL ppa_perfbench_add_target)
