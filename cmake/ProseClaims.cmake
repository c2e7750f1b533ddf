# Hold the numbers a document quotes from a golden table to that
# table. The document carries claim blocks, HTML comments that a
# rendered page does not show:
#
#   <!-- golden-claims tests/golden/bench_table4_full.txt
#   ROW | CELLS | PHRASE
#   -->
#
# Each claim line names a golden row by its label (the fields before
# the columns, here "16K-16 256K-32"), then one entry per decimal
# number in PHRASE, in order: BLOCK:COLUMN for a golden cell (BLOCK
# is the first word of the title line above a table, COLUMN a name
# from its header line), or - for a number that is no cell (the
# paper's value, a difference). PHRASE must appear verbatim in the
# document outside the claim blocks (any run of whitespace, line
# breaks included, reads as one space), and every number it quotes
# for a cell must read exactly as the cell does, the best-in-row
# marker "*" included. So editing a quoted number without the golden,
# or the golden without the prose, fails.
#
# Variables: DOC (the document), ROOT (what a block's golden path is
# relative to).

cmake_minimum_required(VERSION 3.16)
file(READ ${DOC} doc)

# Split the document into its prose and its claim blocks.
set(prose "")
set(rest "${doc}")
set(nblocks 0)
while(TRUE)
    string(FIND "${rest}" "<!-- golden-claims " at)
    if(at EQUAL -1)
        string(APPEND prose "${rest}")
        break()
    endif()
    string(SUBSTRING "${rest}" 0 ${at} head)
    string(APPEND prose "${head}")
    string(SUBSTRING "${rest}" ${at} -1 rest)
    string(FIND "${rest}" "-->" end)
    if(end EQUAL -1)
        message(FATAL_ERROR "${DOC}: a golden-claims block is not closed")
    endif()
    string(SUBSTRING "${rest}" 0 ${end} block_${nblocks})
    math(EXPR skip "${end} + 3")
    string(SUBSTRING "${rest}" ${skip} -1 rest)
    math(EXPR nblocks "${nblocks} + 1")
endwhile()
if(nblocks EQUAL 0)
    message(FATAL_ERROR "${DOC} holds no golden-claims block")
endif()
string(REGEX REPLACE "[ \t\r\n]+" " " prose "${prose}")

set(failures "")
set(nclaims 0)
math(EXPR last "${nblocks} - 1")
foreach(b RANGE ${last})
    set(block "${block_${b}}")
    if(block MATCHES ";")
        message(FATAL_ERROR "${DOC}: a claim block may not hold ';'")
    endif()
    string(REPLACE "\n" ";" lines "${block}")
    list(POP_FRONT lines opener)
    string(REGEX REPLACE "^<!-- golden-claims +" "" golden "${opener}")
    string(STRIP "${golden}" golden)
    if(NOT EXISTS ${ROOT}/${golden})
        message(FATAL_ERROR "${DOC}: no golden ${ROOT}/${golden}")
    endif()

    # Every cell of the golden: cell_<block>_<row>_<column>, where a
    # table is a title line, a header line and its rows.
    file(STRINGS ${ROOT}/${golden} glines)
    set(title "")
    set(columns "")
    set(ncols 0)
    foreach(gline IN LISTS glines)
        string(REGEX MATCHALL "[^ ]+" fields "${gline}")
        list(LENGTH fields nf)
        if(nf EQUAL 0 OR gline MATCHES "^-+ *$")
            continue()
        endif()
        if(gline MATCHES "^Configuration ")
            list(SUBLIST fields 1 -1 columns)
            list(LENGTH columns ncols)
        elseif(ncols GREATER 0 AND nf GREATER ncols)
            math(EXPR nlabel "${nf} - ${ncols}")
            list(SUBLIST fields 0 ${nlabel} label)
            list(JOIN label "_" label)
            foreach(i RANGE 1 ${ncols})
                math(EXPR c "${i} - 1")
                math(EXPR f "${nlabel} + ${c}")
                list(GET columns ${c} col)
                list(GET fields ${f} value)
                set("cell_${title}_${label}_${col}" "${value}")
            endforeach()
        else()
            list(GET fields 0 title)
            set(columns "")
            set(ncols 0)
        endif()
    endforeach()

    foreach(line IN LISTS lines)
        string(STRIP "${line}" line)
        if(line STREQUAL "")
            continue()
        endif()
        if(NOT line MATCHES "^([^|]*)\\|([^|]*)\\|(.*)$")
            string(APPEND failures "\n  not a claim: ${line}")
            continue()
        endif()
        string(STRIP "${CMAKE_MATCH_1}" row)
        string(STRIP "${CMAKE_MATCH_2}" cells)
        string(STRIP "${CMAKE_MATCH_3}" phrase)
        string(REPLACE " " "_" rowkey "${row}")
        math(EXPR nclaims "${nclaims} + 1")

        string(REGEX REPLACE "[ \t]+" " " wanted "${phrase}")
        string(FIND "${prose}" "${wanted}" found)
        if(found EQUAL -1)
            string(APPEND failures
                   "\n  ${DOC} no longer says: ${phrase}")
        endif()

        string(REGEX MATCHALL "\\*?[0-9]+\\.[0-9]+" numbers "${phrase}")
        string(REGEX MATCHALL "[^ ]+" cells "${cells}")
        list(LENGTH numbers nn)
        list(LENGTH cells nc)
        if(NOT nn EQUAL nc)
            string(APPEND failures "\n  ${nn} numbers but ${nc} "
                   "cells in: ${line}")
            continue()
        endif()
        if(nn EQUAL 0)
            continue()
        endif()
        math(EXPR lastnum "${nn} - 1")
        foreach(i RANGE ${lastnum})
            list(GET numbers ${i} number)
            list(GET cells ${i} cell)
            if(cell STREQUAL "-")
                continue()
            endif()
            if(NOT cell MATCHES "^([^:]+):(.+)$")
                string(APPEND failures "\n  not a cell: ${cell}")
                continue()
            endif()
            set(var "cell_${CMAKE_MATCH_1}_${rowkey}_${CMAKE_MATCH_2}")
            if(NOT DEFINED "${var}")
                string(APPEND failures "\n  ${golden} has no cell "
                       "${cell} in row ${row}")
            elseif(NOT "${${var}}" STREQUAL "${number}")
                string(APPEND failures "\n  ${DOC} quotes ${number} "
                       "for ${row} ${cell}, ${golden} reads ${${var}}")
            endif()
        endforeach()
    endforeach()
endforeach()

if(NOT failures STREQUAL "")
    message(FATAL_ERROR "quoted numbers disagree with their golden:"
            "${failures}")
endif()
message(STATUS "${nclaims} claims in ${DOC} hold")
