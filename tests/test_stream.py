"""Streaming pipeline: buffer journal, refit policy, drift, republish, resume."""
from __future__ import annotations

import json

import numpy as np
import pytest

from repro.apps import Broadcast
from repro.datasets import generate_dataset
from repro.serve import ModelRegistry, ModelServer
from repro.stream import (
    DriftMonitor,
    IncrementalTrainer,
    ObservationBuffer,
    StreamSession,
    replay_application,
    run_stream_job,
    stream_job_spec,
)
from repro.stream.runner import make_model_factory
from repro.stream.trainer import known_cell_mask


@pytest.fixture(scope="module")
def bcast():
    app = Broadcast()
    train = generate_dataset(app, 512, seed=0)
    return app, train


def _factory(app, **kw):
    params = dict(cells=4, rank=2, max_sweeps=5, seed=0)
    params.update(kw)
    return make_model_factory(app.space, **params)


# -- observation buffer --------------------------------------------------------


class TestObservationBuffer:
    def test_append_window_and_flush(self):
        buf = ObservationBuffer(window=10)
        X = np.arange(24, dtype=float).reshape(12, 2)
        y = np.arange(1.0, 13.0)
        assert buf.append(X[:5], y[:5]) == (0, 5)
        assert buf.append(X[5:], y[5:]) == (5, 12)
        Xp, yp = buf.since(0)
        assert len(yp) == 12 and buf.flushed == 0
        buf.mark_flushed()
        assert buf.flushed == 12
        # Window keeps the last 10; older rows were trimmed.
        Xw, yw = buf.window_arrays()
        np.testing.assert_array_equal(yw, y[2:])
        assert buf.n_retained == 10 and buf.n_seen == 12
        with pytest.raises(ValueError, match="trimmed"):
            buf.since(0)

    def test_refit_arrays_cover_pending_beyond_window(self):
        """A pending tail longer than the window is never dropped by a refit."""
        buf = ObservationBuffer(window=4)
        X = np.arange(10, dtype=float)[:, None]
        buf.append(X, np.arange(1.0, 11.0))
        Xw, yw = buf.window_arrays()
        assert len(yw) == 4  # the rolling window itself stays bounded
        Xr, yr = buf.refit_arrays()
        np.testing.assert_array_equal(yr, np.arange(1.0, 11.0))  # full tail
        buf.mark_flushed()
        _, yr2 = buf.refit_arrays()  # nothing pending: back to the window
        np.testing.assert_array_equal(yr2, np.arange(7.0, 11.0))

    def test_pending_survives_window_trim(self):
        buf = ObservationBuffer(window=2)
        X = np.zeros((6, 1))
        buf.append(X, np.ones(6))
        # Nothing flushed: all six stay even though window is 2.
        assert buf.n_retained == 6
        Xp, yp = buf.since(buf.flushed)
        assert len(yp) == 6

    def test_empty_append_is_noop(self):
        buf = ObservationBuffer()
        assert buf.append(np.empty((0, 2)), np.empty(0)) == (0, 0)
        assert buf.n_seen == 0

    def test_journal_roundtrip(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        buf = ObservationBuffer(journal=path)
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        buf.append(X, [5.0, 6.0])
        buf.append(X + 10, [7.0, 8.0])
        buf.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0]) == {"seq": 0, "x": [[1, 2], [3, 4]], "y": [5, 6]}
        replayed = ObservationBuffer.open(path)
        assert replayed.n_seen == 4
        Xr, yr = replayed.since(0)
        np.testing.assert_array_equal(yr, [5.0, 6.0, 7.0, 8.0])
        # Continues appending to the same journal.
        replayed.append(X, [9.0, 10.0])
        replayed.close()
        assert ObservationBuffer.open(path).n_seen == 6

    def test_journal_torn_final_line_skipped_and_truncated(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        buf = ObservationBuffer(journal=path)
        buf.append([[1.0]], [2.0])
        buf.close()
        with path.open("a") as fh:
            fh.write('{"seq": 1, "x": [[3.0]], "y"')  # crash mid-write
        replayed = ObservationBuffer.open(path)
        assert replayed.n_seen == 1  # torn tail dropped, prefix intact
        # Recovery truncates the torn bytes, so post-recovery appends land
        # on a clean line boundary and survive further reopens intact.
        replayed.append([[4.0]], [5.0])
        replayed.append([[6.0]], [7.0])
        replayed.close()
        again = ObservationBuffer.open(path)
        assert again.n_seen == 3
        _, y = again.since(0)
        np.testing.assert_array_equal(y, [2.0, 5.0, 7.0])

    def test_journal_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text('not json\n{"seq": 0, "x": [[1.0]], "y": [2.0]}\n')
        with pytest.raises(ValueError, match="corrupt journal"):
            ObservationBuffer.open(path)
        # A repeated ``seq`` is corruption too, not a torn tail: replaying
        # it would count the same observations twice.
        path.write_text(
            '{"seq": 0, "x": [[1.0]], "y": [2.0]}\n'
            '{"seq": 1, "x": [[3.0]], "y": [4.0]}\n'
            '{"seq": 1, "x": [[3.0]], "y": [4.0]}\n'
        )
        with pytest.raises(ValueError, match="corrupt journal line 3"):
            ObservationBuffer.open(path)


# -- drift monitor -------------------------------------------------------------


class TestDriftMonitor:
    def test_rolling_error_and_trigger(self):
        mon = DriftMonitor(window=8, threshold=0.2, min_count=4)
        y = np.ones(4)
        assert not mon.should_refit()  # empty
        mon.record(y * np.e**0.1, y)  # MLogQ 0.1 < threshold
        assert not mon.should_refit()
        mon.record(y * np.e**0.9, y)  # pushes the rolling mean over
        assert mon.error == pytest.approx(0.5)
        assert mon.should_refit() and mon.n_triggers == 1
        mon.reset()
        assert mon.count == 0 and np.isnan(mon.error)

    def test_min_count_gates_trigger(self):
        mon = DriftMonitor(window=16, threshold=0.1, min_count=10)
        mon.record(np.full(4, np.e), np.ones(4))  # error 1.0 but count 4
        assert not mon.should_refit()

    def test_record_is_scale_free(self):
        mon = DriftMonitor()
        a = mon.record(np.array([2.0]), np.array([1.0]))
        b = mon.record(np.array([2000.0]), np.array([1000.0]))
        assert a == pytest.approx(b)


# -- trainer policy ------------------------------------------------------------


class TestIncrementalTrainer:
    def test_initial_fit_then_partial(self, bcast):
        app, train = bcast
        tr = IncrementalTrainer(_factory(app))
        first = tr.update(train.X[:128], train.y[:128], train.X[:128], train.y[:128])
        assert first["action"] == "fit"
        second = tr.update(
            train.X[128:192], train.y[128:192], train.X[:192], train.y[:192]
        )
        assert second["action"] == "partial"
        assert tr.n_partial == 1 and tr.n_refit == 0

    def test_known_cell_mask_dedups_against_observed_cells(self, bcast):
        app, train = bcast
        model = _factory(app)().fit(train.X, train.y)
        assert known_cell_mask(model, train.X).all()  # its own cells are known
        tr = IncrementalTrainer(_factory(app))
        tr.adopt(model)
        placement = tr.classify(train.X[:50])
        assert placement == {"known": 50, "new_cells": 0, "out_of_domain": 0}

    def test_classify_survives_out_of_range_categorical(self):
        """A bad category index counts as out-of-domain, never a crash."""
        from repro.apps import Kripke

        app = Kripke()
        train = generate_dataset(app, 256, seed=0)
        tr = IncrementalTrainer(_factory(app))
        tr.update(train.X, train.y, train.X, train.y)
        bad = train.X[:4].copy()
        j = app.space.index_of("solver")
        bad[0, j] = 99.0  # no such category
        placement = tr.classify(bad)
        assert placement["out_of_domain"] == 1
        assert placement["known"] + placement["new_cells"] == 3

    def test_domain_widening_triggers_refit(self, bcast):
        app, train = bcast
        half = train.X[:, 2] < np.median(train.X[:, 2])  # small messages only
        tr = IncrementalTrainer(_factory(app))
        tr.update(train.X[half], train.y[half], train.X[half], train.y[half])
        grid_before = tr.model.grid_
        out = train.X[~half][:32]
        record = tr.update(out, train.y[~half][:32], train.X[:256], train.y[:256])
        assert record["action"] == "refit" and record["reason"] == "domain"
        assert record["placement"]["out_of_domain"] > 0
        assert tr.model.grid_ is not grid_before  # grid re-ascertained

    def test_drift_triggers_refit_and_resets_monitor(self, bcast):
        app, train = bcast
        mon = DriftMonitor(window=8, threshold=0.1, min_count=2)
        tr = IncrementalTrainer(_factory(app), monitor=mon)
        tr.update(train.X[:128], train.y[:128], train.X[:128], train.y[:128])
        mon.record(np.full(4, np.e**2), np.ones(4))  # large sustained error
        record = tr.update(
            train.X[128:160], train.y[128:160], train.X[:160], train.y[:160]
        )
        assert record["action"] == "refit" and record["reason"] == "drift"
        assert mon.count == 0  # reset after refit
        assert tr.refit_reasons == {"drift": 1}

    def test_refit_through_rank_change_keeps_updating(self, bcast):
        """Drifting through a rank-changing refit must not shape-error.

        A refit that lands on a different CP rank invalidates everything
        keyed to the old rank — cached ObservationPlan Khatri-Rao buffers
        and warm-start factors.  The trainer drops the old model
        wholesale, so the post-change ``partial_fit`` warm-starts at the
        *new* rank against a fresh plan; this is the regression test that
        the bookkeeping (counter, record, monitor reset) rides along.
        """
        app, train = bcast
        ranks = iter([2, 4])
        base = _factory(app)

        def flipping_factory():
            m = base()
            m.rank = next(ranks)
            return m

        mon = DriftMonitor(window=8, threshold=0.1, min_count=2)
        tr = IncrementalTrainer(flipping_factory, monitor=mon)
        tr.update(train.X[:128], train.y[:128], train.X[:128], train.y[:128])
        assert tr.model.adapted_rank_ == 2
        mon.record(np.full(4, np.e**2), np.ones(4))  # sustained drift
        record = tr.update(
            train.X[128:160], train.y[128:160], train.X[:160], train.y[:160]
        )
        assert record["action"] == "refit"
        assert record["rank"] == 4
        assert record["rank_change"] == {"from": 2, "to": 4}
        assert tr.n_rank_changes == 1
        assert mon.count == 0  # stale window dropped with the old model
        # The next partial flows through the rank-4 model without shape
        # errors (old rank-2 plan/factors are gone with the old model).
        rec = tr.update(
            train.X[160:192], train.y[160:192], train.X[:192], train.y[:192]
        )
        assert rec["action"] == "partial"
        assert tr.model.adapted_rank_ == 4
        assert tr.to_record()["rank"] == 4
        assert tr.to_record()["rank_changes"] == 1

    def test_session_monitor_reset_when_trainer_has_none(self, bcast):
        """The session scores drift through its trainer's monitor, so a
        domain-widening refit empties the session's drift window; a
        trainer without a monitor is refused."""
        app, train = bcast
        with pytest.raises(ValueError, match="DriftMonitor"):
            StreamSession(None, "m", IncrementalTrainer(_factory(app)))
        monitor = DriftMonitor(window=32, threshold=1e9, min_count=1)
        session = StreamSession(
            None, "m", IncrementalTrainer(_factory(app), monitor=monitor)
        )
        assert session.monitor is monitor
        half = train.X[:, 2] < np.median(train.X[:, 2])
        X_in, y_in = train.X[half], train.y[half]
        session.observe(X_in, y_in)  # initial fit: grid covers all of half
        # Re-measurements of seen configurations: partial update, and the
        # session monitor accumulates prequential evidence.
        record = session.observe(X_in[:32], y_in[:32])
        assert record["action"] == "partial"
        assert session.monitor.count > 0
        # Out-of-domain rows force a domain refit: the window that scored
        # the replaced model is emptied.
        record = session.observe(train.X[~half][:32], train.y[~half][:32])
        assert record["action"] == "refit" and record["reason"] == "domain"
        assert session.monitor.count == 0

    def test_empty_flush_is_noop(self, bcast):
        app, train = bcast
        tr = IncrementalTrainer(_factory(app))
        assert tr.update(np.empty((0, 3)), np.empty(0), np.empty((0, 3)),
                         np.empty(0))["action"] == "noop"
        tr.update(train.X[:64], train.y[:64], train.X[:64], train.y[:64])
        rec = tr.update(np.empty((0, 3)), np.empty(0), train.X[:64], train.y[:64])
        assert rec["action"] == "noop"


# -- session + registry + server -----------------------------------------------


class TestStreamSession:
    def test_refits_republish_and_server_picks_up(self, tmp_path, bcast):
        app, _ = bcast
        registry = ModelRegistry(tmp_path / "reg")
        server = ModelServer(registry, default_model="bcast-stream")
        factory = _factory(app)
        monitor = DriftMonitor(window=32, threshold=0.2, min_count=16)
        session = StreamSession(
            registry, "bcast-stream", IncrementalTrainer(factory, monitor=monitor)
        )
        summary = replay_application(app, session, 200, batch=32, seed=0)
        assert summary["trainer"]["fit"] == 1
        assert summary["republished"] >= 1  # at least one auto-republish
        versions = registry.versions("bcast-stream")
        assert summary["published_versions"] == versions
        assert registry.resolve("bcast-stream").version == versions[-1]
        # The server serves the latest version without any restart.
        resp = server.handle({"op": "predict", "x": [[4, 8, 2**20]]})
        assert resp["ok"]
        assert resp["model"] == f"bcast-stream@v{versions[-1]}"
        # Published manifests carry the stream cursor for resume.
        assert registry.resolve("bcast-stream").meta["stream_seq"] <= 200

    def test_resume_from_journal_continues_stream(self, tmp_path, bcast):
        app, _ = bcast
        registry = ModelRegistry(tmp_path / "reg")
        journal = tmp_path / "stream.jsonl"
        factory = _factory(app)

        def make_session(resume):
            monitor = DriftMonitor(window=32, threshold=0.2, min_count=16)
            trainer = IncrementalTrainer(factory, monitor=monitor)
            if resume:
                return StreamSession.resume(registry, "m", journal, trainer)
            return StreamSession(
                registry, "m", trainer, buffer=ObservationBuffer(journal=journal)
            )

        first = make_session(resume=False)
        replay_application(app, first, 150, batch=32, seed=0)
        first.buffer.close()
        consumed = registry.resolve("m").meta["stream_seq"]

        resumed = make_session(resume=True)
        assert resumed.resumed_from == consumed
        assert resumed.buffer.n_seen == 150
        assert resumed.model is not None  # adopted the published model
        pending = resumed.buffer.n_seen - resumed.buffer.flushed
        record = resumed.flush()  # absorb the tail the publish missed
        if pending:
            assert record["action"] in ("partial", "refit")
        # The resumed model keeps absorbing fresh traffic.
        more = replay_application(app, resumed, 50, batch=25, seed=1)
        resumed.buffer.close()
        assert more["n_observations"] == 200
        assert resumed.buffer.flushed == 200
        # The trainer updates a *private copy*: the registry's cached
        # object must still serialize to exactly the published digest.
        from repro.utils.serialization import model_digest

        mv = registry.resolve("m")
        assert model_digest(registry.load("m")) == mv.digest

    def test_resume_without_published_model_fits_fresh(self, tmp_path, bcast):
        app, train = bcast
        journal = tmp_path / "j.jsonl"
        buf = ObservationBuffer(journal=journal)
        buf.append(train.X[:64], train.y[:64])
        buf.close()
        session = StreamSession.resume(
            ModelRegistry(tmp_path / "reg"), "fresh", journal,
            IncrementalTrainer(_factory(app), monitor=DriftMonitor()),
        )
        assert session.model is None and session.resumed_from is None
        record = session.flush()
        assert record["action"] == "fit"
        assert session.published_versions == [1]


# -- runtime integration -------------------------------------------------------


class TestStreamJobs:
    def test_run_stream_job_record_is_deterministic(self):
        kw = dict(app="bcast", n=96, batch=32, seed=3, cells=4, rank=2,
                  max_sweeps=5, drift_min_count=16)
        a = run_stream_job(**kw)
        b = run_stream_job(**kw)
        assert a == b
        assert a["trainer"]["fit"] == 1
        assert a["n_observations"] == 96

    def test_rerun_with_the_same_journal_resumes_it(self, tmp_path):
        """A second job over one journal continues its ``seq``s and counts
        every journaled observation once."""
        journal = tmp_path / "j.jsonl"
        kw = dict(app="bcast", n=64, batch=32, seed=0, cells=4, rank=2,
                  max_sweeps=5, drift_min_count=16, journal=str(journal))
        first = run_stream_job(**kw)
        second = run_stream_job(**kw)
        seqs = [json.loads(line)["seq"] for line in journal.read_text().splitlines()]
        assert seqs == [0, 32, 64, 96]
        assert first["n_observations"] == 64
        assert second["n_observations"] == 128
        assert ObservationBuffer.open(journal).n_seen == 128

    def test_stream_job_spec_cacheable(self, tmp_path):
        from repro.runtime import Runtime

        spec = stream_job_spec(app="bcast", n=64, batch=32, seed=0, cells=4,
                               rank=2, max_sweeps=5, drift_min_count=16)
        assert spec.fn == "repro.stream.runner:run_stream_job"
        rt = Runtime(cache_dir=tmp_path)
        first = rt.run([spec])
        again = rt.run([spec])
        assert again == first and rt.hits == 1 and rt.executed == 1

    def test_cli_main_smoke(self, tmp_path, capsys):
        from repro.stream.__main__ import main

        assert main([
            "--app", "bcast", "--registry", str(tmp_path / "reg"),
            "--n", "64", "--batch", "32", "--cells", "4", "--rank", "2",
            "--max-sweeps", "5", "--journal", str(tmp_path / "j.jsonl"),
        ]) == 0
        out = capsys.readouterr().out
        assert "[stream] done:" in out and "fit=1" in out
        # Resume path prints its cursor line.
        assert main([
            "--app", "bcast", "--registry", str(tmp_path / "reg"),
            "--n", "32", "--batch", "32", "--cells", "4", "--rank", "2",
            "--max-sweeps", "5", "--journal", str(tmp_path / "j.jsonl"),
            "--seed", "1",
        ]) == 0
        assert "[stream] resume:" in capsys.readouterr().out

    def test_cli_rank_auto_fleet(self, tmp_path, capsys):
        from repro.stream.__main__ import main

        assert main([
            "--app", "bcast", "--registry", str(tmp_path / "reg"),
            "--rank", "auto", "--streams", "2", "--n", "64", "--batch", "32",
            "--cells", "4", "--max-sweeps", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "[stream] fleet done: streams=2 failures=0" in out
