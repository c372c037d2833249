"""Doc tables generated from committed benchmark JSON stay in step with it.

``benchmarks/bench_scaling.py`` rewrites the weak-scaling table of
docs/PERFORMANCE.md whenever it writes BENCH_scaling.json; a hand edit of
either file, or a JSON committed without its table, fails here.
"""

import json

from benchmarks import bench_scaling


def test_performance_doc_table_matches_bench_scaling_json():
    payload = json.loads(bench_scaling.OUTPUT.read_text())
    table = bench_scaling.doc_table(bench_scaling.DOC.read_text())
    assert table == bench_scaling.render_table(payload)


def test_rendered_table_has_every_row():
    payload = json.loads(bench_scaling.OUTPUT.read_text())
    rows = bench_scaling.render_table(payload).splitlines()[4:]
    assert len(rows) == len(bench_scaling.SIZES) + len(bench_scaling.PAPER_KINDS)
    assert [row.split("|")[2].strip() for row in rows] == [
        *(str(n) for n in bench_scaling.SIZES),
        *(str(bench_scaling.PAPER_CORES) for _ in bench_scaling.PAPER_KINDS),
    ]
