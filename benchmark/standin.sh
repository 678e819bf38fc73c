#!/bin/sh
# Stand-in for one run of a failing Java test, used by the command-oracle
# workload in place of a JVM.
#
# usage: sh standin.sh CANDIDATE WAIT_SECONDS MARKER:DECLARATION ...
#
# It appends one line to ./calls.log (the run counter), waits WAIT_SECONDS,
# then reads CANDIDATE:
#   - a marker present whose declaration is gone: "compile error", exit 3;
#   - otherwise, every marker present: the test still fails, exit 1, with a
#     failure line that carries a path, a line number and a duration. The
#     path is the workdir's, not the candidate's: random temp-file names can
#     contain "0x" plus hex letters, which redustat's signature normalisation
#     turns into "<addr>" (see CHANGES.md), making verdicts random;
#   - otherwise the test passes, exit 0.
# checks.py holds a Python model of exactly this logic.

cand=$1
wait=$2
shift 2
echo run >> calls.log
sleep "$wait"

missing=0
first=0
for pair in "$@"; do
    marker=${pair%%:*}
    decl=${pair#*:}
    mline=0
    dline=0
    n=0
    while IFS= read -r line || [ -n "$line" ]; do
        n=$((n + 1))
        case $line in
            *"$marker"*) mline=$n ;;
            *"$decl"*) dline=$n ;;
        esac
    done < "$cand"
    if [ "$mline" -eq 0 ]; then
        missing=1
        continue
    fi
    if [ "$dline" -eq 0 ]; then
        echo "$cand:$mline: error: cannot find symbol ($decl)" >&2
        exit 3
    fi
    if [ "$first" -eq 0 ]; then
        first=$mline
    fi
done

if [ "$missing" -eq 1 ]; then
    echo "OK (1 test)"
    exit 0
fi
echo "java.lang.AssertionError: marker check failed at $PWD/CandidateTest.java:$first after 20 ms"
exit 1
