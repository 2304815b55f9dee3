"""Tests for the command-line entry points."""

import json

import pytest

from repro.cli import (
    main_conbugck,
    main_condocck,
    main_conhandleck,
    main_demo,
    main_extract,
    main_study,
)


class TestExtractCli:
    def test_prints_table5(self, capsys):
        assert main_extract([]) == 0
        out = capsys.readouterr().out
        assert "Total Unique" in out

    def test_list_prints_keys(self, capsys):
        main_extract(["--list"])
        out = capsys.readouterr().out
        assert "SD.value_range:mke2fs.blocksize:[1024,65536]" in out

    def test_json_export(self, tmp_path, capsys):
        path = str(tmp_path / "deps.json")
        main_extract(["--json", path])
        payload = json.loads(open(path).read())
        assert len(payload) == 64


class TestCheckerClis:
    def test_condocck_exit_code_signals_issues(self, capsys):
        assert main_condocck([]) == 1
        out = capsys.readouterr().out
        assert "12 inaccurate documentations" in out

    def test_conhandleck_reports_bad_handling(self, capsys):
        assert main_conhandleck([]) == 1
        out = capsys.readouterr().out
        assert "BAD HANDLING" in out
        assert "rejected" in out

    def test_conhandleck_verbose(self, capsys):
        main_conhandleck(["--verbose"])
        out = capsys.readouterr().out
        assert out.count("[rejected]") >= 50

    def test_conbugck_table(self, capsys):
        assert main_conbugck(["-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "guided" in out
        assert "fsck-clean" in out

    def test_demo_prints_figures(self, capsys):
        assert main_demo([]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "Figure 2" in out
        assert "CORRUPTED" in out

    def test_study_prints_all_tables(self, capsys):
        assert main_study([]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 2" in out
        assert "Table 3" in out
        assert "Table 4" in out
        assert "2700" in out


class TestRetiredFlags:
    """Flags of deleted engines and service modes fail loudly."""

    @pytest.mark.parametrize("main", [main_extract, main_conhandleck,
                                      main_conbugck])
    @pytest.mark.parametrize("value", ["shm", "pickle"])
    def test_transport_is_an_argparse_error(self, main, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--transport", value])
        assert exc.value.code == 2
        assert "--transport" in capsys.readouterr().err

    def test_extract_backend_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main_extract(["--backend", "process"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

    @pytest.mark.parametrize("main", [main_conhandleck, main_conbugck])
    @pytest.mark.parametrize("value", ["thread", "process"])
    def test_campaign_backend_is_an_argparse_error(self, main, value,
                                                   capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--sample", "random", "--backend", value])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["-j", "--jobs"])
    def test_extract_jobs_is_an_argparse_error(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main_extract([flag, "2"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["sparse", "dense"])
    def test_extract_solver_is_an_argparse_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main_extract(["--solver", value])
        assert exc.value.code == 2
        assert "--solver" in capsys.readouterr().err

    def test_serve_no_pool_is_an_argparse_error(self, capsys):
        from repro.cli_service import main_serve

        with pytest.raises(SystemExit) as exc:
            main_serve(["--no-pool"])
        assert exc.value.code == 2
        assert "--no-pool" in capsys.readouterr().err


#: Out-of-range campaign sizes: the bare ids are the ``--jobs`` cases.
_OUT_OF_RANGE = [
    pytest.param("--jobs", "-5", id="-5"),
    pytest.param("--jobs", "0", id="0"),
    pytest.param("--budget", "-3", id="budget=-3"),
    pytest.param("--budget", "0", id="budget=0"),
    pytest.param("--shards", "0", id="shards=0"),
    pytest.param("--shards", "-2", id="shards=-2"),
]


class TestJobsFlag:
    """``--jobs N`` is N >= 1 process workers for sampled-campaign
    shards; anything else fails loudly instead of running sequential.
    ``--budget`` and ``--shards`` are checked the same way."""

    @pytest.mark.parametrize("main", [main_conhandleck, main_conbugck])
    @pytest.mark.parametrize("flag,value", _OUT_OF_RANGE)
    def test_out_of_range_is_an_argparse_error(self, main, flag, value,
                                               capsys):
        argv = {"--sample": "random", "--budget": "10", flag: value}
        with pytest.raises(SystemExit) as exc:
            main([arg for pair in argv.items() for arg in pair])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag}: must be >= 1" in err

    @pytest.mark.parametrize("main", [main_conhandleck, main_conbugck])
    def test_workers_without_a_sampled_campaign_exit_2(self, main, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--jobs" in err and "--sample" in err
