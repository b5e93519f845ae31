# Checks that every repository path README.md and DESIGN.md name in
# backticks exists, so a rename or a deletion cannot leave the docs
# pointing at nothing.
#
#   cmake -DROOT=path/to/repo -P doc_paths.cmake
#
# A backticked token counts as a path when its first word contains `/`,
# the token has no `*` or `<` (globs and placeholders), and the word
# starts with one of the tree's top-level directories or ends in a
# source or document extension. The word must name a file or directory
# under the repository root or under src/, as written or with `.cpp`
# appended (a binary such as `bench/paper_tables` names its source).

set(Checked 0)
set(Missing "")
foreach(Doc README.md DESIGN.md)
  file(READ "${ROOT}/${Doc}" Text)
  # A `;` would split the token list below, and an unbalanced `[` or `]`
  # would keep it from splitting.
  string(REPLACE ";" " " Text "${Text}")
  string(REPLACE "[" "(" Text "${Text}")
  string(REPLACE "]" ")" Text "${Text}")
  string(REGEX MATCHALL "`[^`\n]+`" Tokens "${Text}")
  foreach(Token IN LISTS Tokens)
    if(Token MATCHES "[*<]")
      continue()
    endif()
    string(REGEX REPLACE "^`([^ `]*).*$" "\\1" Path "${Token}")
    if(NOT Path MATCHES "/" OR NOT (
        Path MATCHES "^(src|tests|bench|tools|examples|icores_bench|\\.github)/"
        OR Path MATCHES "\\.(cpp|h|py|sh|cmake|md|yml|json|txt)$"))
      continue()
    endif()
    math(EXPR Checked "${Checked} + 1")
    set(Found FALSE)
    foreach(Candidate "${ROOT}/${Path}" "${ROOT}/${Path}.cpp"
                      "${ROOT}/src/${Path}" "${ROOT}/src/${Path}.cpp")
      if(EXISTS "${Candidate}")
        set(Found TRUE)
      endif()
    endforeach()
    if(NOT Found)
      list(APPEND Missing "${Doc}: ${Path}")
    endif()
  endforeach()
endforeach()
if(Missing)
  string(REPLACE ";" "\n  " Missing "${Missing}")
  message(FATAL_ERROR "documented paths that do not exist:\n  ${Missing}")
endif()
message(STATUS "Docs.PathsExist: all ${Checked} documented path mentions resolve")
