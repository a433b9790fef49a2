"""Run-directory CSV files keep their bytes: the column-wise writer and the
figure emit against the cell-by-cell writer and the ``DictReader`` emit
they replaced, kept here as the reference."""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from skysum import MissingArtifact, experiments
from skysum.config import spec_from_dict
from skysum.experiments import (
    FIGURE_IDS,
    FIGURES,
    emit_figure_data,
    read_csv,
    run_experiment,
    write_csv,
)


def reference_fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def reference_write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([reference_fmt(v) for v in row])


def reference_emit(run_dir: Path, figure_id: str, out: Path) -> None:
    """The figure file as a ``DictReader`` emit wrote it, sweep kind read
    from the first row of slopes.csv."""
    fig = FIGURES[figure_id]
    if fig.sweep is not None:
        with open(run_dir / "slopes.csv", newline="") as fh:
            assert next(csv.DictReader(fh))["sweep"] == fig.sweep
    with open(run_dir / fig.source, newline="") as fh:
        rows = [tuple(r[c] for c in fig.columns.values())
                for r in csv.DictReader(fh)]
    reference_write_csv(out, tuple(fig.columns), rows)


# ---------------------------------------------------------------------------
# formatting

FLOATS = st.floats()  # nan, +-inf, -0.0 and subnormals included
SCALARS = {
    "int": st.integers(),
    "np_int": st.one_of(st.integers(-2**63, 2**63 - 1).map(np.int64),
                        st.integers(0, 255).map(np.uint8),
                        st.integers(0, 2**64 - 1).map(np.uint64)),
    "float": FLOATS,
    "np_float": st.one_of(FLOATS.map(np.float64),
                          st.floats(width=32).map(np.float32),
                          st.floats(width=16).map(np.float16)),
    "bool": st.booleans(),
    "np_bool": st.booleans().map(np.bool_),
    "str": st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
    "none": st.none(),
}
# A mixed column draws each value from any of the kinds above.
KINDS = [*SCALARS.values(), st.one_of(*SCALARS.values())]


@st.composite
def tables(draw):
    width = draw(st.integers(0, 4))
    height = draw(st.integers(0, 6))
    columns = [draw(st.lists(draw(st.sampled_from(KINDS)),
                             min_size=height, max_size=height))
               for _ in range(width)]
    rows = [tuple(col[i] for col in columns) for i in range(height)]
    if draw(st.booleans()):  # ragged: some rows cut short
        rows = [row[:draw(st.integers(0, width))] for row in rows]
    return rows


def written_bytes(writer, header, rows) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        writer(path, header, rows)
        return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(rows=tables())
@example(rows=[])
@example(rows=[(), ()])
@example(rows=[(True, 1, 1.0, "1"), (np.bool_(False), np.int64(0),
                                     np.float32(0.1), np.str_("x"))])
@example(rows=[(-0.0, 5e-324, float("nan"), float("-inf"), np.float32(1e-45))])
@example(rows=[(1, True), (False, 2)])
def test_writer_matches_cell_by_cell_reference(rows):
    header = [f"c{i}" for i in range(max(map(len, rows), default=0))]
    assert (written_bytes(write_csv, header, iter(rows))
            == written_bytes(reference_write_csv, header, rows))


def test_writer_matches_reference_across_blocks():
    # Long enough for several blocks of rows; one block holds a column of
    # mixed types and another a short row.
    rows = [(i, i / 7, np.float32(i) / 3, i % 3 == 0, f"r{i}")
            for i in range(3 * experiments._CSV_BLOCK + 5)]
    rows[300] = (np.int64(300), *rows[300][1:])
    rows[700] = rows[700][:2]
    header = ["a", "b", "c", "d", "e"]
    assert (written_bytes(write_csv, header, (r for r in rows))
            == written_bytes(reference_write_csv, header, rows))


def test_read_csv_is_dict_reader(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('a,b,c\r\n1,"x,y",3\r\n\r\n4,"q""r",\r\n')
    with open(path, newline="") as fh:
        expected = list(csv.DictReader(fh))
    assert read_csv(path) == expected
    (tmp_path / "empty.csv").write_text("")
    assert read_csv(tmp_path / "empty.csv") == []


# ---------------------------------------------------------------------------
# whole run directories

RUNS = {
    "field_sweep": ("nucleation_sweep", {"repeats": 3, "pulses": 4}),
    "current_sweep": ("nucleation_sweep",
                      {"sweep": "current", "values": [150.0, 171.0],
                       "repeats": 2, "pulses": 3}),
    "detection": ("detection_run", {"pulses": 5, "noise": True,
                                    "drift_rate": 0.5}),
    "fig4": ("fig4_twotrack", {"pulses": 5}),
    "sigma": ("montecarlo_sigma", {"trials": 1000, "p_bars": [0.0, 0.4],
                                   "n_pulses": [1, 5]}),
    "pareto": ("pareto", {"n_pulse_max": 5}),
    "netsim": ("netsim", {"weights": [[0.5, -0.25], [1.0, 0.0]],
                          "input": [3, 2], "trials": 5,
                          "readout": "linear_ahe"}),
}


def figures_of(protocol: str, params: dict) -> list:
    sweep = params.get("sweep", "field") if protocol == "nucleation_sweep" \
        else None
    return [f for f, fig in FIGURES.items()
            if fig.protocol == protocol and fig.sweep == sweep]


def test_runs_cover_every_figure():
    covered = {f for protocol, params in RUNS.values()
               for f in figures_of(protocol, params)}
    assert covered == set(FIGURE_IDS)


@pytest.mark.parametrize("case", RUNS)
def test_run_directory_bytes_match_reference(tmp_path, monkeypatch, case):
    protocol, params = RUNS[case]
    expected = {}

    def recording_write_csv(path, header, rows):
        rows = list(rows)
        ref = tmp_path / "ref.csv"
        reference_write_csv(ref, header, rows)
        expected[Path(path).name] = ref.read_bytes()
        write_csv(path, header, rows)

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "write_csv", recording_write_csv)
        run_dir = run_experiment(spec_from_dict(
            {"name": case, "protocol": protocol, "seed": 3,
             "output_dir": str(tmp_path / "runs"), protocol: params}))
    assert expected
    assert sorted(p.name for p in run_dir.glob("*.csv")) == sorted(expected)
    for name, data in expected.items():
        assert (run_dir / name).read_bytes() == data, name

    for figure_id in figures_of(protocol, params):
        ref = tmp_path / f"ref_{figure_id}.csv"
        reference_emit(run_dir, figure_id, ref)
        assert (emit_figure_data(run_dir, figure_id).read_bytes()
                == ref.read_bytes()), figure_id


def test_sweep_kind_comes_from_the_summary(tmp_path):
    protocol, params = RUNS["field_sweep"]
    run_dir = run_experiment(spec_from_dict(
        {"name": "s", "protocol": protocol, "seed": 0,
         "output_dir": str(tmp_path), protocol: params}))
    assert json.loads((run_dir / "summary.json").read_text())["sweep"] \
        == "field"
    (run_dir / "slopes.csv").unlink()
    for figure_id in ("2g", "2h"):
        assert emit_figure_data(run_dir, figure_id).is_file()
    with pytest.raises(MissingArtifact, match="current sweep"):
        emit_figure_data(run_dir, "2e")
