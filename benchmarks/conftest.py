"""Shared benchmark configuration.

Heavy artifacts (suite compilation, BRISC dictionaries) come from the
shared pipeline toolchain (:func:`repro.pipeline.default_toolchain`),
whose content-addressed cache means benchmark functions only re-run the
cheap kernel under measurement.  Every table printed here is also written
to ``benchmarks/results/`` for EXPERIMENTS.md, along with the pipeline's
per-stage run/hit accounting for the whole session.

The per-stage table is *merged*, not clobbered: raw rows persist in
``pipeline_stats.json`` and a partial benchmark session (say, just the
kernel micro-benchmarks) carries forward the rows of stages it never
exercised, so ``pipeline_stats.txt`` never reports ``0 runs`` for a stage
a previous regeneration actually ran.
"""

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def toolchain():
    """The shared pipeline toolchain benchmarks compile through."""
    from repro.pipeline import default_toolchain

    return default_toolchain()


#: Rows appended by corpus-build benchmarks: (variant, wall seconds,
#: BRISC-stage seconds, units compiled).  One table row per end-to-end
#: corpus build, the tentpole acceptance metric.
_CORPUS_TIMINGS = []


@pytest.fixture(scope="session")
def corpus_timings():
    """Collector for end-to-end corpus-build wall-clock rows."""
    return _CORPUS_TIMINGS


#: Per-stage stats folded from *private* toolchains.  Benchmarks that
#: compile through fresh Toolchain instances (cold-cache measurements)
#: must fold their stats here, or the stages they demonstrably ran would
#: show up as ``0 runs`` in pipeline_stats.txt.
_SESSION_STAGE_STATS = {}

_STAGE_ROW_KEYS = ("runs", "cache_hits", "seconds", "bytes")


@pytest.fixture(scope="session")
def fold_stage_stats():
    """Fold one toolchain's ``stats()["stages"]`` into the session report."""
    def fold(stages):
        for name, row in stages.items():
            mine = _SESSION_STAGE_STATS.setdefault(
                name, dict.fromkeys(_STAGE_ROW_KEYS, 0))
            for key in _STAGE_ROW_KEYS:
                mine[key] += row.get(key, 0)
    return fold


def _merge_rows(previous, fresh, key_width):
    """Update ``previous`` rows with ``fresh`` ones, matching on the first
    ``key_width`` columns; unmatched previous rows are kept in place."""
    merged = [list(row) for row in previous]
    index = {tuple(row[:key_width]): i for i, row in enumerate(merged)}
    for row in fresh:
        row = list(row)
        at = index.get(tuple(row[:key_width]))
        if at is None:
            index[tuple(row[:key_width])] = len(merged)
            merged.append(row)
        else:
            merged[at] = row
    return merged


@pytest.fixture(scope="session", autouse=True)
def pipeline_stats_report(results_dir):
    """Write the session's per-stage pipeline stats next to the tables,
    merged with the raw rows persisted by previous sessions."""
    yield
    from repro.bench.tables import render_table, toolchain_stats_table
    from repro.pipeline import default_toolchain

    stats = default_toolchain().stats()
    raw_path = results_dir / "pipeline_stats.json"
    previous = {}
    if raw_path.exists():
        try:
            previous = json.loads(raw_path.read_text())
        except ValueError:
            previous = {}

    # This session's rows: the shared toolchain plus whatever private
    # toolchains were folded in; a stage the session never touched keeps
    # its last recorded row.
    session_stages = {name: dict(row) for name, row in stats["stages"].items()}
    for name, extra in _SESSION_STAGE_STATS.items():
        mine = session_stages.setdefault(
            name, dict.fromkeys(_STAGE_ROW_KEYS, 0))
        for key in _STAGE_ROW_KEYS:
            mine[key] += extra[key]
    stages = {}
    prev_stages = previous.get("stages", {})
    for name, row in session_stages.items():
        stale = prev_stages.get(name)
        if row["runs"] == 0 and row["cache_hits"] == 0 and stale:
            stages[name] = stale
        else:
            stages[name] = row
    for name, row in prev_stages.items():
        stages.setdefault(name, row)

    corpus_rows = _merge_rows(
        previous.get("corpus_timings", []), _CORPUS_TIMINGS, key_width=1)

    raw_path.write_text(json.dumps(
        {"stages": stages, "corpus_timings": corpus_rows},
        indent=2, sort_keys=True) + "\n")

    text = toolchain_stats_table(
        {"stages": stages, "brisc_builder": stats.get("brisc_builder")})
    if corpus_rows:
        text += "\n\n" + render_table(
            ["corpus build", "seconds", "brisc s", "units"],
            [[variant, f"{seconds:8.2f}", f"{brisc:8.2f}", str(units)]
             for variant, seconds, brisc, units in corpus_rows],
        )
    save_table(results_dir, "pipeline_stats", text)


def save_table(results_dir, name: str, text: str) -> None:
    """Persist a rendered table and echo it to the terminal."""
    (results_dir / f"{name}.txt").write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}")
