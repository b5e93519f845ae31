# Checks the ICORES_ROW_KERNEL clones (support/SimdLoop.h) of each kernel
# library:
#  - for each kernel TU, the archive member holds as many function symbols
#    of each expected clone (`.avx512f`, `.avx2`, `.default`) as the source
#    has tags, and none of a tier the library does not build. A tag that
#    expanded to nothing leaves no clones, so a wrong guard in
#    support/SimdLoop.h fails here;
#  - no function of the library holds an FMA-family instruction. The clones
#    give the same bits only while no clone fuses a multiply and an add
#    (-ffp-contract=off on the kernel TUs), and AVX-512F has FMA of its own.
# SKIP names why a build has no clones to check (not x86-64 Linux,
# clang < 14, ThreadSanitizer); the check then prints it and is skipped.
#
#   cmake -DNM=nm -DOBJDUMP=objdump [-DSKIP=reason] -DSRC=src
#         "-DLIBS=libicores_mpdata.a=mpdata=avx512f,avx2,default;..."
#         -P kernel_clones.cmake

cmake_minimum_required(VERSION 3.16)

if(SKIP)
  message("KernelClones skipped: ICORES_ROW_KERNEL expands to nothing "
          "here (${SKIP})")
  return()
endif()

set(Tiers avx512f avx2 default)
foreach(Entry IN LISTS LIBS)
  string(REPLACE "=" ";" Entry "${Entry}")
  list(GET Entry 0 Lib)
  list(GET Entry 1 Dir)
  list(GET Entry 2 Clones)
  string(REPLACE "," ";" Clones "${Clones}")
  get_filename_component(LibName ${Lib} NAME)
  execute_process(COMMAND ${NM} -A ${Lib}
    OUTPUT_VARIABLE Symbols RESULT_VARIABLE Result)
  if(NOT Result EQUAL 0)
    message(FATAL_ERROR "${NM} -A ${Lib} failed")
  endif()
  string(REPLACE "\n" ";" Symbols "${Symbols}")
  list(FILTER Symbols INCLUDE REGEX "\\.(avx512f|avx2|default)(\\.[0-9]+)?$")

  set(LibTags 0)
  file(GLOB Sources ${SRC}/${Dir}/*.cpp)
  foreach(Source IN LISTS Sources)
    get_filename_component(TU ${Source} NAME)
    file(STRINGS ${Source} Tags REGEX "^ICORES_ROW_KERNEL$")
    list(LENGTH Tags NumTags)
    math(EXPR LibTags "${LibTags} + ${NumTags}")
    foreach(Clone IN LISTS Tiers)
      # `lib.a:TU.o:<address> t <symbol>.<clone>[.<n>]`: a function body.
      set(Count 0)
      foreach(Line IN LISTS Symbols)
        if(Line MATCHES "^[^:]*:${TU}\\.o:[0-9a-f]+ [tT] [^ ]+\\.${Clone}(\\.[0-9]+)?$")
          math(EXPR Count "${Count} + 1")
        endif()
      endforeach()
      set(Want 0)
      if(Clone IN_LIST Clones)
        set(Want ${NumTags})
      endif()
      if(NOT Count EQUAL Want)
        message(FATAL_ERROR "${TU}: ${NumTags} ICORES_ROW_KERNEL tags but "
                            "${Count} .${Clone} clones in ${LibName} "
                            "(want ${Want})")
      endif()
    endforeach()
    if(NumTags GREATER 0)
      string(REPLACE ";" ", ." Each "${Clones}")
      message("${LibName} ${TU}: ${NumTags} row kernels, each with .${Each}")
    endif()
  endforeach()
  if(LibTags EQUAL 0)
    message(FATAL_ERROR "no ICORES_ROW_KERNEL tags found under ${Dir}")
  endif()

  # vfmadd*, vfmsub*, vfnmadd*, vfnmsub* (and the addsub/subadd forms).
  execute_process(COMMAND ${OBJDUMP} -d --no-show-raw-insn ${Lib}
    OUTPUT_VARIABLE Code RESULT_VARIABLE Result)
  if(NOT Result EQUAL 0)
    message(FATAL_ERROR "${OBJDUMP} -d ${Lib} failed")
  endif()
  string(REGEX MATCHALL "\n[^\n]*[ \t]vfn?m(add|sub)[0-9a-z]*[ \t][^\n]*"
         Fused "${Code}")
  list(LENGTH Fused NumFused)
  if(NumFused GREATER 0)
    list(GET Fused 0 First)
    string(STRIP "${First}" First)
    message(FATAL_ERROR "${LibName}: ${NumFused} FMA-family instructions, "
                        "the first: ${First}")
  endif()
  message("${LibName}: no FMA-family instruction")
endforeach()
