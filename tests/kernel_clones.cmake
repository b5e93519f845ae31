# Checks that every ICORES_ROW_KERNEL tag produced both of its clones: for
# each kernel TU of each library, the archive member must hold as many
# `.avx2` and as many `.default` function symbols as the source has tags.
# A tag that expanded to nothing leaves no clones, so a wrong guard in
# support/SimdLoop.h fails here. SKIP names why a build has no clones to
# check (not x86-64 Linux, clang < 14, ThreadSanitizer); the check then
# prints it and is skipped.
#
#   cmake -DNM=nm [-DSKIP=reason] -DSRC=src
#         "-DLIBS=libicores_mpdata.a=mpdata;libicores_apps.a=apps"
#         -P kernel_clones.cmake

cmake_minimum_required(VERSION 3.16)

if(SKIP)
  message("KernelClones skipped: ICORES_ROW_KERNEL expands to nothing "
          "here (${SKIP})")
  return()
endif()

foreach(Pair IN LISTS LIBS)
  string(REPLACE "=" ";" Pair "${Pair}")
  list(GET Pair 0 Lib)
  list(GET Pair 1 Dir)
  execute_process(COMMAND ${NM} -A ${Lib}
    OUTPUT_VARIABLE Symbols RESULT_VARIABLE Result)
  if(NOT Result EQUAL 0)
    message(FATAL_ERROR "${NM} -A ${Lib} failed")
  endif()
  string(REPLACE "\n" ";" Symbols "${Symbols}")
  list(FILTER Symbols INCLUDE REGEX "\\.(avx2|default)(\\.[0-9]+)?$")

  set(LibTags 0)
  file(GLOB Sources ${SRC}/${Dir}/*.cpp)
  foreach(Source IN LISTS Sources)
    get_filename_component(TU ${Source} NAME)
    file(STRINGS ${Source} Tags REGEX "^ICORES_ROW_KERNEL$")
    list(LENGTH Tags NumTags)
    math(EXPR LibTags "${LibTags} + ${NumTags}")
    foreach(Clone avx2 default)
      # `lib.a:TU.o:<address> t <symbol>.<clone>[.<n>]`: a function body.
      set(Count 0)
      foreach(Line IN LISTS Symbols)
        if(Line MATCHES "^[^:]*:${TU}\\.o:[0-9a-f]+ [tT] [^ ]+\\.${Clone}(\\.[0-9]+)?$")
          math(EXPR Count "${Count} + 1")
        endif()
      endforeach()
      if(NOT Count EQUAL NumTags)
        message(FATAL_ERROR "${TU}: ${NumTags} ICORES_ROW_KERNEL tags but "
                            "${Count} .${Clone} clones in ${Lib}")
      endif()
    endforeach()
    if(NumTags GREATER 0)
      message("${TU}: ${NumTags} row kernels, each with .avx2 and .default")
    endif()
  endforeach()
  if(LibTags EQUAL 0)
    message(FATAL_ERROR "no ICORES_ROW_KERNEL tags found under ${Dir}")
  endif()
endforeach()
