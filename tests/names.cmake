# Compares the CTest names of a build tree with the tracked, sorted list in
# tests/names.txt, and prints the added and removed names when they differ.
# A change that adds, removes or renames a test must edit names.txt, so the
# file's diff is the exact list of tests that changed.
#
#   cmake -DBUILD_DIR=build -P tests/names.cmake              # check
#   cmake -DBUILD_DIR=build -DUPDATE=ON -P tests/names.cmake  # rewrite
if(NOT BUILD_DIR)
  message(FATAL_ERROR "names.cmake: pass -DBUILD_DIR=<build tree>")
endif()
if(NOT CTEST)
  set(CTEST ctest)
endif()
get_filename_component(names_file "${CMAKE_CURRENT_LIST_DIR}/names.txt" ABSOLUTE)

execute_process(COMMAND "${CTEST}" -N WORKING_DIRECTORY "${BUILD_DIR}"
                OUTPUT_VARIABLE listing RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "names.cmake: `ctest -N` failed in ${BUILD_DIR}")
endif()
string(REGEX MATCHALL "Test +#[0-9]+: [^\n]*" lines "${listing}")
set(built "")
foreach(line IN LISTS lines)
  string(REGEX REPLACE "^Test +#[0-9]+: " "" name "${line}")
  list(APPEND built "${name}")
endforeach()
list(SORT built)

if(UPDATE)
  list(JOIN built "\n" body)
  file(WRITE "${names_file}" "${body}\n")
  list(LENGTH built n)
  message(STATUS "wrote ${n} names to ${names_file}")
  return()
endif()

file(STRINGS "${names_file}" tracked)
set(added ${built})
set(removed ${tracked})
if(tracked)
  list(REMOVE_ITEM added ${tracked})
endif()
if(built)
  list(REMOVE_ITEM removed ${built})
endif()
if(added OR removed)
  foreach(name IN LISTS added)
    message("added:   ${name}")
  endforeach()
  foreach(name IN LISTS removed)
    message("removed: ${name}")
  endforeach()
  message(FATAL_ERROR "the built tests differ from tests/names.txt; if that is intended, "
                      "rewrite it with: cmake -DBUILD_DIR=<build> -DUPDATE=ON -P tests/names.cmake")
endif()
