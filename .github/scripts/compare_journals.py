#!/usr/bin/env python3
"""Checks that two run journals hold the same results.

    python3 compare_journals.py ROWS A.jsonl B.jsonl

Each journal must hold exactly ROWS rows. Rows are matched by (dataset,
method, horizon) and must be equal once the timing and rusage fields, which
vary run to run, are dropped. Exits 1 with the first difference otherwise.
"""

import json
import sys

# Timing and rusage vary run to run; everything else must not.
DROP = {'fit_seconds', 'inference_ms_per_window', 'cpu_user_seconds',
        'cpu_sys_seconds', 'peak_rss_mb'}


def stable(path, rows_expected):
    rows = [json.loads(line) for line in open(path)]
    if len(rows) != rows_expected:
        sys.exit(f'{path}: {len(rows)} rows, expected {rows_expected}')
    rows = [{k: v for k, v in r.items() if k not in DROP} for r in rows]
    return sorted(rows, key=lambda r: (r['dataset'], r['method'],
                                       r['horizon']))


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    rows_expected = int(sys.argv[1])
    a = stable(sys.argv[2], rows_expected)
    b = stable(sys.argv[3], rows_expected)
    for row_a, row_b in zip(a, b):
        if row_a != row_b:
            sys.exit(f'journals differ:\n  {sys.argv[2]}: {row_a}\n'
                     f'  {sys.argv[3]}: {row_b}')
    print(f'{sys.argv[2]} == {sys.argv[3]} ({rows_expected} rows)')


if __name__ == '__main__':
    main()
