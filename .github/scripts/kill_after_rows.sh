#!/usr/bin/env bash
# SIGKILL a running campaign once it has committed its first journal
# row, then fail unless the kill landed mid-flight.
#
#   kill_after_rows.sh PID RUN_DIR GOLDEN_DIR [TIMEOUT_S]
#
# PID is a campaign_runner writing its journals under RUN_DIR (classic
# mode: RUN_DIR/<task>/journal.csv; service mode: RUN_DIR is the service
# root). GOLDEN_DIR holds the same campaign run to completion; its
# journals' data rows are the cap a finished run reaches (NSGA-II
# journals run past --budget, so the budget is not the cap).
#
# The kill is triggered by observed progress, not by a timer: poll until
# some journal under RUN_DIR holds one committed data row, then SIGKILL.
# It landed mid-flight when RUN_DIR's journals hold fewer rows than the
# cap, or when RUN_DIR/active/ still lists an admitted submission. Exits
# nonzero if neither holds, or if no row shows up within TIMEOUT_S
# (default 60) seconds.
set -u

pid=$1
run_dir=$2
golden_dir=$3
timeout_s=${4:-60}

# Committed data rows in every journal under $1: a journal is a
# fingerprint line and a CSV header, then one newline-terminated line
# per committed row (a torn last line has no newline and is not
# counted).
rows() {
    local total=0 file lines
    while IFS= read -r -d '' file; do
        lines=$(wc -l < "$file")
        if (( lines > 2 )); then
            total=$(( total + lines - 2 ))
        fi
    done < <(find "$1" -name journal.csv -print0 2>/dev/null)
    echo "$total"
}

# True while $1 runs; an exited child the caller has not reaped yet is a
# zombie (state Z) and does not count.
running() {
    local state
    state=$(ps -o stat= -p "$1" 2>/dev/null) || return 1
    [[ -n $state && $state != Z* ]]
}

cap=$(rows "$golden_dir")
if (( cap == 0 )); then
    echo "kill_after_rows: no journal rows under $golden_dir" >&2
    exit 1
fi

deadline=$(( SECONDS + timeout_s ))
while (( $(rows "$run_dir") < 1 )); do
    if (( SECONDS >= deadline )); then
        kill -KILL "$pid" 2>/dev/null
        echo "kill_after_rows: no journal row under $run_dir within" \
             "${timeout_s}s" >&2
        exit 1
    fi
    sleep 0.005
done
kill -KILL "$pid" 2>/dev/null
while running "$pid"; do
    sleep 0.01
done

killed_rows=$(rows "$run_dir")
active=""
if [[ -d $run_dir/active ]]; then
    active=$(ls -A "$run_dir/active" | tr '\n' ' ')
fi
echo "kill_after_rows: killed at $killed_rows of $cap journal rows" \
     "(active: ${active:-none})"
if (( killed_rows < cap )) || [[ -n $active ]]; then
    exit 0
fi
echo "kill_after_rows: the campaign had already finished; the kill did" \
     "not land mid-flight" >&2
exit 1
